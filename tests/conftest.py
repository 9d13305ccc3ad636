"""Session wiring: print the acceptance verdicts after the run, and
fail the session if a run's private snapshot directory or a solver
worker thread outlives it.

test_acceptance.py appends one JSON record per criterion to a scratch
file as it goes, which is cleared at session start.  The summary hook
below prints one verdict line per record at the end.

A run without an output directory writes its snapshots into a temporary
directory that is removed with its result.  Once every test and fixture
is done no result is held, so a directory made in the session and still
there at its end is a leak.  So is a solver worker thread, found by its
name, still alive then: a step joins its workers before it returns.
"""

import gc
import glob
import json
import os
import sys
import tempfile
import threading

import pytest

from elastowave.harness.experiments import _SNAPSHOT_DIR_PREFIX
from elastowave.solver import _THREAD_NAME

_HERE = os.path.dirname(__file__)
_RECORDS = os.path.join(_HERE, ".acceptance.jsonl")

_DIRS_BEFORE = pytest.StashKey[set]()
_DIRS_LEFT = pytest.StashKey[list]()
_THREADS_LEFT = pytest.StashKey[int]()


def _snapshot_dirs():
    return set(glob.glob(os.path.join(tempfile.gettempdir(),
                                      _SNAPSHOT_DIR_PREFIX + "*")))


def pytest_sessionstart(session):
    if os.path.exists(_RECORDS):
        os.remove(_RECORDS)
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
    threads = sum(t.name == _THREAD_NAME for t in threading.enumerate())
    session.config.stash[_THREADS_LEFT] = threads
    if left or threads:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    left = config.stash.get(_DIRS_LEFT, [])
    if left:
        terminalreporter.section("snapshot directories left behind")
        for path in left:
            terminalreporter.write_line(path)
    threads = config.stash.get(_THREADS_LEFT, 0)
    if threads:
        terminalreporter.section("solver worker threads left alive")
        terminalreporter.write_line(f"{threads} x {_THREAD_NAME}")
    if not os.path.exists(_RECORDS):
        return
    with open(_RECORDS) as f:
        records = [json.loads(ln) for ln in f if ln.strip()]
    if not records:
        return
    terminalreporter.section("acceptance criteria")
    for r in records:
        terminalreporter.write_line("criterion %2d %-24s %s  (%s)" % (
            r["criterion"], r["name"], "PASS" if r["ok"] else "FAIL",
            r["detail"]))
