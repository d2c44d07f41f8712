"""The benchmark's workloads still run and pass their own checks.

perfbench/workloads.py unpacks the program's return values, reaches it
through traced names and checks its outputs against certify.py.  One pass
of each workload at seed 0 must keep every check passing, fail no more ops
and reach no greater total depth than the figures below.  Both files are
loaded by path and used as they stand.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        # workloads.py imports its checker as a top-level module
        mp.setitem(sys.modules, "certify", load("certify"))
        yield load("workloads")


# (workload, ops per pass, failed ops at most, depth_sum at most)
CONTRACT = [
    ("sweep_cold", 25, 13, 935),
    ("frontier", 5, 1, 47),
    ("estimate_mix", 1204, 4, 171120),
]


@pytest.mark.parametrize("name, ops, failed, depth", CONTRACT)
def test_workload_pass_meets_its_checks(workloads, name, ops, failed, depth):
    work = workloads.WORKLOADS[name](0)
    output, _ = work.run_pass()
    verdict = work.check(output, 1)
    assert verdict.checks.ok, [item for item in verdict.checks.items if not item[1]]
    assert work.ops_per_pass == ops
    assert verdict.failed_per_pass <= failed
    assert verdict.depth_sum <= depth
