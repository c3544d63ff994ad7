"""The exit-code verdict read back from a finished report: the walk that
``pbound.cli`` used before the results gave their reasons themselves.

A report is inconclusive when some dict in it has ``status: capped``, a
``sum_lower_bound``, ``irreducibility: presumed``, ``presumed_irreducible:
true`` or ``partial: true``, or is a line detection (it has
``dicritical_line_family``) with a note on a factor beyond a cap.  The
differential tests compare the exit code of ``pbound.cli.main`` with this
walk over the JSON report.
"""

import sys

from pbound.sysparse import emit_report


def inconclusive(report) -> bool:
    if isinstance(report, dict):
        if report.get("status") == "capped":
            return True
        if report.get("sum_lower_bound") is not None:
            return True
        if report.get("irreducibility") == "presumed" or report.get("presumed_irreducible") is True:
            return True
        if report.get("partial") is True:
            return True
        if "dicritical_line_family" in report and any(" cap: " in note for note in report["notes"]):
            return True
        return any(inconclusive(v) for v in report.values() if isinstance(v, (dict, list)))
    if isinstance(report, list):
        return any(inconclusive(v) for v in report if isinstance(v, (dict, list)))
    return False


def emit_by_the_walk(args, report) -> int:
    """Write ``report`` as ``pbound.cli`` writes it and return the exit code
    that the walk gives it, as ``cli._emit`` did before the reasons."""
    sys.stdout.write(emit_report(report, "json" if args.json else "text").decode())
    return 3 if inconclusive(report) else 0
