"""The benchmark's workloads still run and pass their own checks.

perfbench/workloads.py unpacks the program's return values, reaches it
through traced names and checks its outputs against certify.py.  One pass
of each workload at seed 0 must keep every check passing, fail no more ops
and reach no greater total depth than the figures below.  Both files are
loaded by path (the workloads fixture in conftest.py) and used as they
stand.
"""

from collections import Counter

import pytest

from qsvtsim import chebpoly


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


def test_clearing_the_caches_makes_a_frontier_degree_cold_again(workloads, count_chebpoly_calls):
    """Every memo a frontier degree fills is a cache that the benchmark's
    clear_polynomial_caches empties, so no warm memo counts as a gain:
    after it, min_eta_for_degree(0.2, 21) fits and evaluates as much as it
    did cold.  A warm rerun skips only the fit; no memo keeps the fit's
    extremes, so they are evaluated again.  Counts are calls of the fit's
    cosine sums, of _odd_extremes and of the Clenshaw evaluator."""
    counts = Counter()
    count_chebpoly_calls(counts, fit_sums="_odd_cos_sums", extremes="_odd_extremes",
                         evals="_clenshaw_split")

    runs = []
    for clear in (True, False, True):
        if clear:
            workloads.clear_polynomial_caches()
        counts.clear()
        chebpoly.min_eta_for_degree(0.2, 21)
        runs.append(Counter(counts))
    cold, warm, again = runs
    assert again == cold and cold["fit_sums"] > 0 and cold["extremes"] == 1
    assert warm == Counter(extremes=1, evals=cold["evals"])
