"""Terminal summary: one pass/fail line per acceptance criterion."""

from collections import OrderedDict

CRITERIA = OrderedDict([
    ("1", "1D closed-form and tridiagonal-oracle accuracy"),
    ("2", "default sweep: full estimate battery at rel 1e-6"),
    ("3", "maximum principle across the default sweep"),
    ("4", "clamp-level coincidence"),
    ("5", "outer-stage stabilization, strong and weak"),
    ("6", "minimality against random comparison fields"),
    ("7", "radial divergence witness"),
    ("8", "finite-difference gradient agreement"),
    ("9", "same-seed byte-identical artifacts"),
])

_results: dict = {}


def _criterion_of(nodeid: str):
    if "test_acceptance.py" not in nodeid:
        return None
    name = nodeid.rsplit("::", 1)[-1]
    if not name.startswith("test_criterion_"):
        return None
    tag = name[len("test_criterion_"):].split("_", 1)[0]
    return tag.rstrip("abcdefghijklmnopqrstuvwxyz") or None


def pytest_runtest_logreport(report):
    crit = _criterion_of(report.nodeid)
    if crit is None:
        return
    if report.when == "call" or (report.when == "setup" and report.failed):
        _results.setdefault(crit, []).append(report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    tr = terminalreporter
    tr.write_sep("=", "acceptance criteria")
    for crit, label in CRITERIA.items():
        outcomes = _results.get(crit)
        if outcomes is None:
            continue
        ok = all(outcomes)
        word = "PASS" if ok else "FAIL"
        markup = {"green": True} if ok else {"red": True}
        tr.write_line(f"criterion {crit}: {word} — {label} "
                      f"({sum(outcomes)}/{len(outcomes)} checks)", **markup)
