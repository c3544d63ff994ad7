"""Command-line front end: parse -> analyze -> report.

Subcommands: mul, bound, darboux, lv, analyze.  Reports are byte-identical
across runs; exit code 0 on success, 2 on input errors, 3 when a result is
inconclusive.  The code comes from the results the report was built from:
3 when any of them gives a reason (``reasons``, records of code, stage and
detail) such as a hit cap, a sum that is only a lower bound, a presumed
irreducibility of a Darboux polynomial, or a partial search.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from .bounds import BoundsError, axis_multiplicity_bound, invariant_line_bound
from .branching import DEFAULT_CAPS, Caps, multiplicity_at
from .darboux import detect_invariant_lines, search_darboux
from .exact import ExactError, Q
from .lotka import LvParams, classify, lv_equation, lv_multiplicity_triple
from .polyode import OdeError
from .sysparse import (
    ParseError,
    emit_report,
    multiplicity_report,
    parse_system,
    print_system,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONCLUSIVE = 3

#: the errors ``main`` reports, with exit code 3 for ExactError and 2 otherwise
REPORTED_ERRORS = (ParseError, OdeError, BoundsError, ValueError, ExactError)


@functools.lru_cache(maxsize=64)  # Caps is frozen, so one value serves every query with the same texts
def _parse_caps(texts) -> Caps:
    """The default caps with the settings of each text in the tuple
    ``texts`` applied in order, so a later text overrides an earlier one."""
    fields = dict(vars(DEFAULT_CAPS))
    for text in texts:
        for piece in text.split(","):
            piece = piece.strip()
            if not piece:
                continue
            if "=" not in piece:
                raise ValueError("bad cap setting %r" % piece)
            key, val = piece.split("=", 1)
            key = key.strip()
            if key not in fields:
                raise ValueError("unknown cap %r" % key)
            fields[key] = int(val)
            if fields[key] < 0:
                raise ValueError("cap %r must not be negative" % key)
            if key == "ram" and fields[key] < 1:
                # a branch's ramification index is at least 1
                raise ValueError("cap 'ram' must be at least 1")
    return Caps(**fields)


def _caps_from(args) -> Caps:
    """The caps of ``PBOUND_CAPS`` overridden by those of ``--caps``."""
    texts = tuple(t for t in (os.environ.get("PBOUND_CAPS"), getattr(args, "caps", None)) if t)
    return _parse_caps(texts) if texts else DEFAULT_CAPS


def _load_system(args):
    text = args.system
    if text is None:
        raise ParseError("no system given (use --system)", 0, 0)
    # a system text always contains "=", so only a value without one is
    # looked up as a file
    if "=" not in text and os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ValueError("cannot read the --system file %r: %s" % (text, exc.strerror)) from None
    return parse_system(text)


def _rational(text):
    # a plain integer literal, [+-] and ASCII digits, is read without the
    # regular expression of Fraction(str)
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        return Fraction(int(text))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text) from None


def _parse_point(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError("point must be 'z0,w0' or 'z0,inf'")
    z0 = _rational(parts[0])
    if parts[1] in ("inf", "oo", "infinity"):
        return ("inf", z0)
    return ("point", z0, _rational(parts[1]))


def _parse_triple(text):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("expected three comma-separated rationals")
    return tuple(_rational(p) for p in parts)


def _emit(args, report, *results) -> int:
    """Write the report; exit 3 when any of the results it shows gives a
    reason why it is inconclusive."""
    fmt = "json" if args.json else "text"
    sys.stdout.write(emit_report(report, fmt).decode())
    return EXIT_INCONCLUSIVE if any(r.reasons for r in results) else EXIT_OK


def _system_block(sys_, source):
    return {
        "equation": print_system(sys_),
        "axis_form": source.axis,
        "input_form": source.form,
        "parameters": {k: str(v) for k, v in sorted(source.bindings.items())},
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_mul(args) -> int:
    caps = _caps_from(args)
    system, source = _load_system(args)
    point = _parse_point(args.at)
    result = multiplicity_at(system, point, caps)
    report = {
        "command": "mul",
        "system": _system_block(system, source),
        "point": {"z": str(point[1]), "w": "inf" if point[0] == "inf" else str(point[2])},
    }
    report.update(multiplicity_report(result))
    return _emit(args, report, result)


def _cmd_bound(args) -> int:
    caps = _caps_from(args)
    system, source = _load_system(args)
    report = {"command": "bound", "system": _system_block(system, source)}
    if args.line:
        line = _parse_triple(args.line)
        bound = invariant_line_bound(system, line, caps)
        report["line"] = [str(x) for x in line]
    elif source.axis:
        bound = axis_multiplicity_bound(system, caps)
    else:
        detection = detect_invariant_lines(system)
        if not detection.lines and detection.capped:
            raise ExactError("no invariant line detected; " + "; ".join(detection.capped))
        if not detection.lines:
            raise BoundsError(
                "no axis form and no invariant line detected; give --line a,b,c"
            )
        f = detection.lines[0].f
        line = (
            f.coeff(1, 0),
            f.coeff(0, 1),
            f.coeff(0, 0),
        )
        bound = invariant_line_bound(system, line, caps)
        report["line"] = [str(x) for x in line]
        report["line_detected"] = True
    report["bounds"] = bound.to_report()
    return _emit(args, report, bound)


def _cmd_darboux(args) -> int:
    if args.max_degree < 0:
        raise ValueError("--max-degree must not be negative")
    system, source = _load_system(args)
    outcome = search_darboux(system, args.max_degree)
    report = {
        "command": "darboux",
        "system": _system_block(system, source),
        "max_degree": args.max_degree,
    }
    report.update(outcome.to_report())
    return _emit(args, report, outcome)


def _cmd_lv(args) -> int:
    caps = _caps_from(args)
    a, b, c = _parse_triple(args.params)
    params = LvParams(Q(a), Q(b), Q(c))
    # the triple's points are the bound's summands under these labels, at
    # the same caps, so the bound takes them as they are, on one LV system
    triple, system = {}, None
    if args.triple:
        system = lv_equation(params)
        triple = dict(zip(("inf", str(params.a), "0"), lv_multiplicity_triple(params, caps, system)))
    outcome = classify(params, caps, triple, system)
    report = {"command": "lv"}
    report.update(outcome.to_report())
    if args.triple:
        report["multiplicities"] = {label: multiplicity_report(mul) for label, mul in triple.items()}
    return _emit(args, report, outcome, *triple.values())


def _cmd_analyze(args) -> int:
    caps = _caps_from(args)
    if args.max_degree < 0:
        raise ValueError("--max-degree must not be negative")
    system, source = _load_system(args)
    report = {"command": "analyze", "system": _system_block(system, source)}
    origin = multiplicity_at(system, ("point", Q(0), Q(0)), caps)
    at_inf = multiplicity_at(system, ("inf", Q(0)), caps)
    report["mul_at_origin"] = multiplicity_report(origin)
    report["mul_at_infinity"] = multiplicity_report(at_inf)
    bound = bound_error = None
    if source.axis:
        # the bound's summands labelled "0" and "inf" are these two points.
        # The lines read the bound, so it is taken first; an error it
        # raises is raised after the lines', in the order of the report
        try:
            bound = axis_multiplicity_bound(system, caps, {"0": origin, "inf": at_inf})
        except REPORTED_ERRORS as exc:
            bound_error = exc
    detection = detect_invariant_lines(system, bound)
    report["invariant_lines"] = detection.to_report()
    results = [origin, at_inf, detection]
    search_degree = args.max_degree
    if source.axis:
        if bound_error is not None:
            raise bound_error
        report["bounds"] = bound.to_report()
        results.append(bound)
        if bound.sum_bound == 0:
            # no strict curve: an irreducible invariant curve lies in one
            # variable, so it divides a side's content, which degree 1
            # certifies
            search_degree = min(search_degree, 1)
    else:
        for cert in detection.lines:
            f = cert.f
            line = (f.coeff(1, 0), f.coeff(0, 1), f.coeff(0, 0))
            try:
                bound = invariant_line_bound(system, line, caps)
            except BoundsError:
                continue
            report["bounds"] = bound.to_report()
            report["bounds_line"] = [str(x) for x in line]
            results.append(bound)
            break
    outcome = search_darboux(system, search_degree, detection)
    report["darboux"] = outcome.to_report()
    return _emit(args, report, *results, outcome)


@functools.cache  # parsing leaves the parsers unchanged, so one set serves every call
def _parsers():
    """The top-level parser and a map from each subcommand to its parser."""
    parser = argparse.ArgumentParser(
        prog="pbound",
        description="Exact algebraic multiplicities, invariant curves and "
        "degree bounds for dw/dz = P(z,w)/Q(z,w)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, func, summary, system=True, caps=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        if system:
            p.add_argument("--system", help="system text or a path to a file containing it")
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        if caps:
            p.add_argument("--caps", help="override caps, e.g. depth=32,ram=64,tower=16")
        commands[name] = p
        return p

    p_mul = command("mul", _cmd_mul, "algebraic multiplicity at a point")
    p_mul.add_argument("--at", required=True, help="point 'z0,w0' or 'z0,inf'")

    p_bound = command("bound", _cmd_bound, "degree bounds for strict invariant curves")
    p_bound.add_argument("--line", help="invariant line a,b,c meaning a*z + b*w + c = 0")

    # the search has no branch tree, so no cap of Caps bounds it
    p_dar = command("darboux", _cmd_darboux, "search Darboux polynomials up to a degree", caps=False)
    p_dar.add_argument("--max-degree", type=int, default=1)

    p_lv = command("lv", _cmd_lv, "Lotka-Volterra strict-curve classification", system=False)
    p_lv.add_argument("--params", required=True, help="a,b,c as rationals")
    p_lv.add_argument("--triple", action="store_true", help="include the multiplicity triple")

    p_an = command("analyze", _cmd_analyze, "multiplicities, lines, bounds and search")
    p_an.add_argument("--max-degree", type=int, default=2)

    return parser, commands


_VALUE_FLAGS = ("--params", "--at", "--line", "--caps", "--system")


def _merge_dash_values(argv):
    """Join '--flag -1,0,0' into '--flag=-1,0,0' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append("%s=%s" % (arg, argv[i + 1]))
            i += 2
        else:
            out.append(arg)
            i += 1
    return out


@functools.cache
def _scan_table():
    """What ``_scan`` needs of each subcommand's parser, read from its
    actions: a map from each flag of a store or store-true action to its
    (dest, value conversion or None for a flag without a value), the
    namespace defaults and the dests of the required flags."""
    table = {}
    for name, p in _parsers()[1].items():
        flags, defaults, required = {}, {}, []
        for action in p._actions:
            if isinstance(action, argparse._StoreTrueAction):
                convert = None
            elif isinstance(action, argparse._StoreAction) and action.nargs is None and action.choices is None:
                convert = action.type or str
            else:  # -h and any other kind are argparse's to handle
                continue
            flags.update((flag, (action.dest, convert)) for flag in action.option_strings)
            defaults[action.dest] = action.default
            if action.required:
                required.append(action.dest)
        for dest, value in p._defaults.items():
            defaults.setdefault(dest, value)
        table[name] = (flags, defaults, frozenset(required))
    return table


def _scan(argv):
    """The namespace that the subcommand's parser gives a well-formed
    ``argv``, without argparse: every token after the subcommand is one of
    its full long flags, each value is there and converts, and the required
    flags are given.  A value may start with '-' where argparse takes it: after
    a flag of ``_VALUE_FLAGS`` or as '-digits'.  None for any other argv."""
    entry = _scan_table().get(argv[0]) if argv else None
    if entry is None:
        return None
    flags, values, required = entry
    values = dict(values)
    given = set()
    i, n = 1, len(argv)
    while i < n:
        spec = flags.get(argv[i])
        if spec is None:
            return None
        dest, convert = spec
        if convert is None:
            values[dest] = True
            i += 1
        else:
            value = argv[i + 1] if i + 1 < n else None
            if value is None or value[:1] == "-" and argv[i] not in _VALUE_FLAGS and not value[1:].isdigit():
                return None
            try:
                values[dest] = convert(value)
            except (TypeError, ValueError):
                return None
            i += 2
        given.add(dest)
    if not required <= given:
        return None
    return argparse.Namespace(**values)


def _parse_args(argv):
    """The namespace of ``argv``: scanned directly when it is well formed
    (``_scan``), else parsed by argparse.  There a subcommand's arguments go
    straight to its own parser; anything else (no arguments, -h, an unknown
    command) goes to the top-level parser, which prints the usage or the
    error."""
    args = _scan(argv)
    if args is not None:
        return args
    argv = _merge_dash_values(argv)
    parser, commands = _parsers()
    sub = commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:])


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(list(argv))
    json_out = getattr(args, "json", False)
    try:
        return args.func(args)
    except REPORTED_ERRORS as exc:
        payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if json_out:
            sys.stdout.write(emit_report(payload, "json").decode())
        else:
            sys.stderr.write("error: %s\n" % exc)
        # ExactError stops the exact arithmetic (a cap, most often): not bad input
        return EXIT_INCONCLUSIVE if isinstance(exc, ExactError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
