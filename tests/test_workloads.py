"""The benchmark's workloads still run and pass their own checks.

perfbench/workloads.py unpacks the program's return values, reaches it
through traced names and checks its outputs against certify.py.  One pass
of each workload at seed 0 must keep every check passing, fail no more ops
and reach no greater total depth than the figures below.  Both files are
loaded by path (the workloads fixture in conftest.py) and used as they
stand.
"""

import pytest


# (workload, ops per pass, failed ops at most, depth_sum at most)
CONTRACT = [
    ("sweep_cold", 25, 13, 935),
    ("frontier", 5, 0, 47),
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
