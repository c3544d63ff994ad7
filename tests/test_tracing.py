"""The benchmark's span table (``perfbench/tracing.py``) names functions that
pbound still defines at module level, so ``--trace 1`` can wrap every one of
them where its callers look it up."""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_names_a_module_level_function():
    tracing = load_tracing()
    assert tracing.SPANS
    for home, fn_name, span in tracing.SPANS:
        assert home in tracing.LAYERS
        module = importlib.import_module("pbound." + home)
        fn = getattr(module, fn_name, None)
        assert inspect.isfunction(fn), "%s.%s is not a function" % (home, fn_name)
        assert fn.__module__ == module.__name__ and fn.__qualname__ == fn_name, (home, fn_name)
        assert span.split(".")[0] in tracing.LAYERS


def test_every_counter_reads_a_span():
    tracing = load_tracing()
    spans = {span for _, _, span in tracing.SPANS}
    assert {span for span, _, _ in tracing.COUNTERS.values()} <= spans
    assert set(tracing.SIZES) <= spans
