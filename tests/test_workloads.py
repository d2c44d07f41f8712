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


def test_clearing_the_caches_makes_a_frontier_degree_cold_again(workloads, monkeypatch):
    """Every memo a frontier degree fills is a cache that the benchmark's
    clear_polynomial_caches empties, so no warm memo counts as a gain: after
    it, min_eta_for_degree(0.2, 21) fits, takes extremes and evaluates as much
    as it did cold, and more than a warm rerun does."""
    counts = Counter()
    evaluate = chebpoly._clenshaw_split
    monkeypatch.setattr(chebpoly, "_clenshaw_split",
                        lambda *args: counts.update(["evals"]) or evaluate(*args))
    memos = {"fits": chebpoly._minimax_fit, "probes": chebpoly._probe_top,
             "extremes": chebpoly._odd_extremes}

    def misses():
        return Counter({name: memo.cache_info().misses for name, memo in memos.items()})

    runs = []
    for clear in (True, False, True):
        if clear:
            workloads.clear_polynomial_caches()
        counts.clear()
        before = misses()
        chebpoly.min_eta_for_degree(0.2, 21)
        runs.append(counts + misses() - before)
    cold, warm, again = runs
    assert again == cold and cold["fits"] == 1
    assert warm["fits"] == 0 and warm["extremes"] < cold["extremes"]
    assert warm["evals"] < cold["evals"]
