"""Shared pytest wiring: one summary line per acceptance-marked test, and
the benchmark's workloads loaded by path.

Capture in pytest grabs the stdout file descriptor itself, so tests
cannot reliably print verdicts; instead the marked results are collected
here and written through the terminal reporter at the end of the run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    """perfbench/workloads.py as it stands, with its checker importable."""
    with pytest.MonkeyPatch.context() as mp:
        # workloads.py imports its checker as a top-level module
        mp.setitem(sys.modules, "certify", _load("certify"))
        yield _load("workloads")


_VERDICTS = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "acceptance(num, name): scenario check reported as one summary line")


def pytest_collection_modifyitems(items):
    for item in items:
        marker = item.get_closest_marker("acceptance")
        if marker is not None:
            num, name = marker.args
            _VERDICTS.setdefault(num, (False, name))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    num, name = marker.args
    if rep.when == "call":
        _VERDICTS[num] = (rep.passed, name)
    elif rep.failed:
        # a setup or teardown crash still fails the criterion
        _VERDICTS[num] = (False, name)


def pytest_terminal_summary(terminalreporter):
    for num in sorted(_VERDICTS):
        passed, name = _VERDICTS[num]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {num} {verdict}: {name}")
