"""Session wiring: replay the acceptance-criteria lines after the run,
and fail the session if a run's private snapshot directory outlives it.

test_acceptance.py appends one verdict line per criterion to a scratch
file as it goes, and the same verdict as a JSON record to a second one;
both are cleared at session start.  Plain pytest hides stdout of passing
tests, so the summary hook below re-prints the collected lines at the end.

A run without an output directory writes its snapshots into a temporary
directory that is removed with its result.  Once every test and fixture
is done no result is held, so a directory made in the session and still
there at its end is a leak.
"""

import gc
import glob
import os
import sys
import tempfile

import pytest

from elastowave.harness.experiments import _SNAPSHOT_DIR_PREFIX

_HERE = os.path.dirname(__file__)
_LINES = os.path.join(_HERE, ".acceptance_lines")
_RECORDS = os.path.join(_HERE, ".acceptance.jsonl")

_DIRS_BEFORE = pytest.StashKey[set]()
_DIRS_LEFT = pytest.StashKey[list]()


def _snapshot_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(),
                                      _SNAPSHOT_DIR_PREFIX + "*")))


def pytest_sessionstart(session):
    for path in (_LINES, _RECORDS):
        if os.path.exists(path):
            os.remove(path)
    session.config.stash[_DIRS_BEFORE] = _snapshot_dirs()


@pytest.hookimpl(trylast=True)
def pytest_sessionfinish(session, exitstatus):
    # after the fixtures' teardown; the post-mortem record of a failed
    # last test would hold its locals
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        if hasattr(sys, name):
            delattr(sys, name)
    gc.collect()
    left = sorted(_snapshot_dirs() - session.config.stash[_DIRS_BEFORE])
    session.config.stash[_DIRS_LEFT] = left
    if left:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    left = config.stash.get(_DIRS_LEFT, [])
    if left:
        terminalreporter.section("snapshot directories left behind")
        for path in left:
            terminalreporter.write_line(path)
    if not os.path.exists(_LINES):
        return
    with open(_LINES) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for ln in lines:
        terminalreporter.write_line(ln)
