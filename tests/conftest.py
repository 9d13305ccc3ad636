"""Session wiring: replay the acceptance-criteria lines after the run.

test_acceptance.py appends one verdict line per criterion to a scratch
file as it goes, and the same verdict as a JSON record to a second one;
both are cleared at session start.  Plain pytest hides stdout of passing
tests, so the summary hook below re-prints the collected lines at the end.
"""

import os

_HERE = os.path.dirname(__file__)
_LINES = os.path.join(_HERE, ".acceptance_lines")
_RECORDS = os.path.join(_HERE, ".acceptance.jsonl")


def pytest_sessionstart(session):
    for path in (_LINES, _RECORDS):
        if os.path.exists(path):
            os.remove(path)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not os.path.exists(_LINES):
        return
    with open(_LINES) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for ln in lines:
        terminalreporter.write_line(ln)
