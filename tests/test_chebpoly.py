"""Step-polynomial builder and certification tests.

Evaluation is checked against an independent power-basis oracle (expand
the Chebyshev recurrence into monomials, evaluate by nested
multiplication) so the two code paths share no arithmetic.
"""

import hashlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev as npcheb
from scipy.optimize import linprog
from scipy.special import erf

from qsvtsim import chebpoly
from qsvtsim.blockenc import HermitianOp, apply_poly
from qsvtsim.chebpoly import (CapacityError, ChebPoly, StepSpec,
                              build_step_approx, degree_constant,
                              min_eta_for_degree, to_text, verify_bounds,
                              write_curve_csv)
from qsvtsim.estimator import alpha_schedule


def power_basis(cheb_coeffs):
    """Monomial coefficients of sum c_k T_k via the explicit recurrence."""
    prev = np.array([1.0])
    cur = np.array([0.0, 1.0])
    total = np.zeros(len(cheb_coeffs))
    total[:1] += cheb_coeffs[0] * prev
    if len(cheb_coeffs) > 1:
        total[:2] += cheb_coeffs[1] * cur
    for k in range(2, len(cheb_coeffs)):
        nxt = np.zeros(k + 1)
        nxt[1:] = 2.0 * cur
        nxt[:len(prev)] -= prev
        total[:k + 1] += cheb_coeffs[k] * nxt
        prev, cur = cur, nxt
    return total


def horner(mono, x):
    acc = 0.0
    for c in reversed(mono):
        acc = acc * x + c
    return acc


def test_eval_matches_power_basis_oracle():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=10)
    xs = np.linspace(-1.0, 1.0, 2001)
    raw /= np.max(np.abs(np.polynomial.chebyshev.chebval(xs, raw))) * 1.01
    poly = ChebPoly(raw)
    mono = power_basis(raw)
    for x in rng.uniform(-1.0, 1.0, 100):
        assert abs(poly.eval(float(x)) - horner(mono, float(x))) <= 1e-11


def test_eval_matches_cosine_identity():
    # T_k(cos t) = cos(k t), checked for each basis polynomial separately
    for k in range(1, 31):
        coeffs = [0.0] * k + [1.0]
        poly = ChebPoly(coeffs)
        for t in np.linspace(0.0, math.pi, 57):
            x = math.cos(t)
            assert abs(poly.eval(x) - math.cos(k * t)) <= 1e-10


def test_degree_one_step_midpoint():
    poly = ChebPoly([0.5, 0.5])
    assert poly.eval(0.0) == pytest.approx(0.5, abs=1e-15)
    assert poly.degree == 1


def test_constructor_trims_trailing_zeros():
    poly = ChebPoly([0.25, 0.5, 0.0, -0.0])
    assert poly.degree == 1
    assert poly.coeffs == (0.25, 0.5)
    assert ChebPoly(coeffs=(0.25, 0.5, 0.0)) == poly
    assert ChebPoly([0.0, 0.0]).coeffs == (0.0,)


def test_constructor_takes_any_1d_sequence():
    """An array, a list and a tuple with a trailing zero make one value."""
    polys = [ChebPoly(np.array([0.5, 0.5])), ChebPoly([0.5, 0.5]),
             ChebPoly((0.5, 0.5, 0.0)), ChebPoly(np.float32([0.5, 0.5]))]
    assert all(p == polys[0] and hash(p) == hash(polys[0]) for p in polys)
    assert all(type(c) is float for p in polys for c in p.coeffs)
    raw = np.array([0.25, 0.5])
    poly = ChebPoly(raw)
    raw[0] = 1.0
    assert poly.coeffs == (0.25, 0.5) and not poly._array.flags.writeable


@pytest.mark.parametrize("coeffs", [[], [[0.5]], (0.5, math.nan), (math.inf,),
                                    np.zeros((1, 2)), 0.5, np.array([0.5, 1 + 1j]),
                                    [1j], [object()], ["a"], ["0.5"],
                                    np.array(["0.5", "1"]), [b"0.5"]],
                         ids=["empty", "2-D", "nan", "inf", "2-D array", "scalar",
                              "complex array", "complex", "object", "string",
                              "numeric string", "string array", "bytes"])
def test_constructor_refuses_what_is_not_a_finite_1d_sequence(coeffs):
    with pytest.raises(ValueError, match="nonempty 1-D sequence of finite numbers"):
        ChebPoly(coeffs)


def test_parity_classification():
    assert ChebPoly([0.0, 1.0]).parity == "odd"
    assert ChebPoly([0.5, 0.0, 0.5]).parity == "even"
    assert ChebPoly([0.5, 0.5]).parity == "none"
    assert ChebPoly([1.0]).parity == "even"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0, 5e-324, math.nan]), max_size=12))
def test_split_halves_cuts_where_popping_zeros_stops(coeffs):
    """Oracle: each half popped one exact zero at a time, the even half
    down to one entry.  The lists agree bit for bit, signed zeros and
    NaNs included."""
    even = [float(c) for c in coeffs[0::2]] or [0.0]
    odd = [float(c) for c in coeffs[1::2]]
    while len(even) > 1 and even[-1] == 0.0:
        even.pop()
    while odd and odd[-1] == 0.0:
        odd.pop()
    got = chebpoly._split_halves(coeffs)
    assert [[c.hex() for c in half] for half in got] \
        == [[c.hex() for c in half] for half in (even, odd)]
    assert all(type(c) is float for half in got for c in half)


def test_box_bound_certified_not_enforced_on_construction():
    poly = ChebPoly([0.0, 1.2])
    report = verify_bounds(poly, StepSpec(0.2, 0.5))
    assert report.max_abs_excess == pytest.approx(0.2)
    assert not report.passes
    h = HermitianOp.from_matrix(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError, match="spectral radius above 1"):
        apply_poly(h, poly)


def _judged(odd, spec):
    """_judge's report on odd, from its extremes."""
    return chebpoly._judge(chebpoly._odd_extremes(odd, spec.delta), spec)


def _step(odd, delta):
    """The step a build at delta makes of odd, rescaled by its grid peak."""
    return chebpoly._step_from_odd(odd, chebpoly._odd_extremes(odd, delta)[0])


def _probe_rejects(odd, spec):
    """The plateau probe's verdict on odd, as _Search.try_odd reads it."""
    return chebpoly._probe_top(odd, spec.delta) < 1.0 - spec.eta / 2.0 - chebpoly.GRID_TOL


def test_candidates_are_evaluated_once_before_certification(
        monkeypatch, clear_chebpoly_caches, count_chebpoly_calls):
    """Each candidate, the ramp included, is probed once per build, and a
    build's first search judges none of them: a survivor is accepted on the
    probe alone.  The candidate the build returns is then evaluated once
    more, for its extremes, from which it is both judged and rescaled.  A
    rerun of that search, judging every survivor, probes nothing again; a
    survivor is evaluated once more and judged, the candidate already
    judged is judged again without an evaluation, and a rejected one is not
    judged.  The eta frontier judges its one candidate, a minimax fit,
    without a search or a probe, and evaluates it at every call.  A build
    repeated evaluates nothing, and the builder never calls verify_bounds.
    Counts are calls of _probe_top, _odd_extremes, _judge and the
    evaluator, so work that a memo saves counts as none."""
    counts = Counter()
    count_chebpoly_calls(counts, evals="_clenshaw_split")
    ChebPoly([0.5, 0.5])
    ChebPoly([0.0, 1.2])
    assert counts["evals"] == 0

    count_chebpoly_calls(counts, certifications="verify_bounds", judgments="_judge",
                         probes="_probe_top", extremes="_odd_extremes")
    try_odd = chebpoly._Search.try_odd
    outcomes = Counter()

    def work():
        return Counter(counts)

    def try_odd_checked(search, odd):
        before = work()
        certified = try_odd(search, odd)
        seen = work() - before
        probed = Counter(probes=1, evals=1) if seen["probes"] else Counter()
        # the search's own probe top, read without probing again
        if search.top(odd) < 1.0 - search.spec.eta / 2.0 - chebpoly.GRID_TOL:
            outcome, want = "rejected", probed
        elif not search.judge_all:
            outcome, want = "accepted unjudged", probed
        elif seen["extremes"]:
            outcome, want = "survived", probed + Counter(extremes=1, judgments=1, evals=1)
        else:
            outcome, want = "judged again", Counter(judgments=1)
        assert seen == want
        outcomes[outcome] += 1
        return certified

    monkeypatch.setattr(chebpoly._Search, "try_odd", try_odd_checked)
    clear_chebpoly_caches()
    start = work()
    sched = alpha_schedule(0.5, 0.05, 1.0)
    # the ramp and one erf truncation are rejected on the probe; the
    # degree-9 step returned is the only candidate judged
    assert outcomes == Counter({"rejected": 2, "accepted unjudged": 3})
    assert sched.degree == 9
    assert work() - start == Counter(probes=5, extremes=1, judgments=1, evals=5 + 1)
    start = work()
    assert alpha_schedule(0.5, 0.05, 1.0) == sched
    assert work() == start

    # The build's search rerun as a failed return judgment reruns it: the
    # returned candidate is judged again, the two others are evaluated
    # for their extremes, and nothing is probed twice.
    spec = StepSpec(sched.delta, sched.eta)
    search = chebpoly._run_search(chebpoly._Search(spec, judge_all=False),
                                  chebpoly.DEFAULT_MAX_DEGREE)
    best = search.best
    assert chebpoly._judge(search.extremes(best), spec).passes
    outcomes.clear()
    start = work()
    search.best, search.failures, search.judge_all = None, [], True
    assert chebpoly._run_search(search, chebpoly.DEFAULT_MAX_DEGREE).best == best
    assert outcomes == Counter({"rejected": 2, "survived": 2, "judged again": 1})
    assert work() - start == Counter(extremes=2, judgments=3, evals=2)

    # One judgment of the degree-21 fit, evaluated again by a repeated
    # pass; the frontier tries nothing through a search.
    for _ in range(2):
        start = work()
        outcomes.clear()
        min_eta_for_degree(0.2, 21)
        assert work() - start == Counter(extremes=1, judgments=1, evals=1)
        assert not outcomes


@pytest.mark.parametrize("delta", (0.2, 0.05, 0.0123, 0.7071, 0.99))
def test_plateau_probe_lies_on_both_grids(delta):
    """The probe is every fourth point of the uniform plateau grid, and
    each point lies on the rescale grid and on the judged plateau."""
    probe = chebpoly._plateau_probe(delta)
    assert probe.size == 1000 and probe[0] == delta
    assert np.array_equal(probe, np.linspace(delta, 1.0, 4000)[::4])
    assert probe is chebpoly._plateau_probe(delta)
    assert not probe.flags.writeable
    # exact float equality: the probe's max|q| bounds the judged peak, and
    # its min bounds the judged plateau's
    assert np.all(np.isin(probe, chebpoly._rescale_grid(delta)))
    points = chebpoly._grid_points(delta, 41)
    assert np.all(np.isin(probe, points[points >= delta]))


@settings(max_examples=150, deadline=None)
@given(log_delta=st.floats(-1.5, -0.05), log_eta=st.floats(-4.0, -0.01),
       log_frac=st.floats(-6.0, -0.01), k_factor=st.floats(0.5, 2.0),
       half_degree=st.integers(0, 300))
def test_probe_rejects_only_candidates_that_fail_certification(
        log_delta, log_eta, log_frac, k_factor, half_degree):
    """Oracles: the judgment, and verify_bounds on the rescaled step.  The
    steepness k is the erf path's for an eta * frac plateau loss, spread by
    k_factor."""
    spec = StepSpec(10.0 ** log_delta, 10.0 ** log_eta)
    k = k_factor * float(chebpoly.erfcinv(spec.eta * 10.0 ** log_frac)) / spec.delta
    odd = tuple(chebpoly._erf_odd_coeffs(k, half_degree + 1).tolist())
    if _probe_rejects(odd, spec):
        for report in (_judged(odd, spec), verify_bounds(_step(odd, spec.delta), spec)):
            assert report.max_high_violation > chebpoly.GRID_TOL
            assert not report.passes


@settings(max_examples=150, deadline=None)
@given(log_delta=st.floats(-1.5, -0.05), log_frac=st.floats(-6.0, -0.5),
       half_degree=st.integers(0, 300), sign=st.sampled_from([-1.0, 1.0]),
       log_miss=st.floats(-16.0, -3.0))
def test_probe_is_sound_at_the_certification_threshold(
        log_delta, log_frac, half_degree, sign, log_miss):
    """eta is set from the judged plateau minimum of the step so that the
    judgment misses by sign * 10^log_miss past GRID_TOL: rejections within
    rounding of the threshold must still fail the judgment and
    verify_bounds."""
    delta = 10.0 ** log_delta
    k = float(chebpoly.erfcinv(10.0 ** log_frac)) / delta
    odd = tuple(chebpoly._erf_odd_coeffs(k, half_degree + 1).tolist())
    extremes = chebpoly._odd_extremes(odd, delta)
    peak, q_min, _ = extremes
    low = 0.5 + 0.5 * chebpoly._scale_for(peak) * q_min
    eta = 2.0 * (1.0 - chebpoly.GRID_TOL - low - sign * 10.0 ** log_miss)
    assume(0.0 < eta < 1.0)
    spec = StepSpec(delta, eta)
    if _probe_rejects(odd, spec):
        assert chebpoly._judge(extremes, spec).max_high_violation > chebpoly.GRID_TOL
        step = chebpoly._step_from_odd(odd, peak)
        assert verify_bounds(step, spec).max_high_violation > chebpoly.GRID_TOL


@settings(max_examples=150, deadline=None)
@given(log_delta=st.floats(-2.5, -0.05), log_eta=st.floats(-4.0, -0.01),
       log_frac=st.floats(-6.0, -0.01), k_factor=st.floats(0.5, 2.0),
       half_degree=st.integers(0, 200), erf=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1), size=st.floats(0.5, 3.0))
def test_judgment_agrees_with_verify_bounds_on_the_step(
        log_delta, log_eta, log_frac, k_factor, half_degree, erf, seed, size):
    """Oracle: verify_bounds on the rescaled step, which evaluates the step
    itself.  Candidates of degree <= 401 are erf truncations, with the
    steepness of test_probe_rejects_only_candidates_that_fail_certification,
    or random odd series with sum|c_k| = size.  A tail that the rescale
    would round to zero is trimmed, so the step keeps q's degree.  q's
    extremes, from its odd-index coefficients alone, are those of
    ChebPoly.eval on the zero-interleaved series, bit for bit."""
    spec = StepSpec(10.0 ** log_delta, 10.0 ** log_eta)
    if erf:
        k = k_factor * float(chebpoly.erfcinv(spec.eta * 10.0 ** log_frac)) / spec.delta
        coeffs = chebpoly._erf_odd_coeffs(k, half_degree + 1)
    else:
        coeffs = np.random.default_rng(seed).normal(size=half_degree + 1) \
            / np.arange(1, 2 * half_degree + 2, 2)
        coeffs *= size / np.sum(np.abs(coeffs))
    coeffs[np.abs(coeffs) < 1e-300] = 0.0
    odd = tuple(np.trim_zeros(coeffs, "b").tolist())
    points = chebpoly._grid_points(spec.delta, 2 * len(odd) - 1)
    q = ChebPoly(_interleaved(odd)).eval(points)
    peak, q_min, count = chebpoly._odd_extremes(odd, spec.delta)
    assert (peak.hex(), q_min.hex(), count) == (float(np.max(np.abs(q))).hex(),
                                              float(np.min(q[points >= spec.delta])).hex(),
                                              2 * points.size)
    judged = chebpoly._judge((peak, q_min, count), spec)
    report = verify_bounds(chebpoly._step_from_odd(odd, peak), spec)
    assert (judged.grid_size, judged.passes) == (report.grid_size, report.passes)
    for field in ("max_low_violation", "max_high_violation", "max_abs_excess"):
        assert abs(getattr(judged, field) - getattr(report, field)) <= 1e-12


def test_least_bad_matches_an_eager_fold_over_every_failure():
    """Failures' reports are computed late; least_bad still picks what a
    strict-< fold of each failure's judgment, in the order tried, picks.
    The search judges every survivor, as a build's rerun does, so across
    the seeds the pick is sometimes a candidate the probe rejected and
    sometimes one the judgment rejected."""

    def badness(r):
        return max(r.max_low_violation, 0.0) + max(r.max_high_violation, 0.0) \
            + max(r.max_abs_excess, 0.0)

    winners = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        spec = StepSpec(float(rng.uniform(0.05, 0.4)), float(10 ** rng.uniform(-3.0, -0.5)))
        search = chebpoly._Search(spec, judge_all=True)
        eager, fails = None, 0
        for _ in range(12):
            if rng.random() < 0.3:  # q = u x, rescaled to the ramp when u > 1
                odd = (float(rng.uniform(0.6, 1.2)),)
            else:
                odd = tuple(chebpoly._erf_odd_coeffs(float(rng.uniform(1.0, 40.0)),
                                                     int(rng.integers(0, 40)) + 1).tolist())
            search.try_odd(odd)
            report = _judged(odd, spec)
            if not report.passes:
                assert search.failures[fails] is odd
                if eager is None or badness(report) < eager[0]:
                    eager = (badness(report), report, fails)
                fails += 1
        assert len(search.failures) == fails
        assert search.least_bad() == eager[1]
        winners.add(_probe_rejects(search.failures[eager[2]], spec))
    assert winners == {True, False}


def test_capacity_report_is_the_least_bad_of_the_failures(monkeypatch):
    """Under a degree-5 cap the ramp and the degree-5 minimax fit both fail;
    the fit misses each plateau by 1.95e-9, the ramp by 0.0757, and the
    CapacityError carries the fit's report."""
    spec = StepSpec(0.05, 0.7985613664386098)
    tried = []
    try_odd = chebpoly._Search.try_odd

    def recording(search, odd):
        tried.append(odd)
        return try_odd(search, odd)

    monkeypatch.setattr(chebpoly._Search, "try_odd", recording)
    chebpoly._build_cached.cache_clear()
    with pytest.raises(CapacityError) as info:
        build_step_approx(spec, max_degree=5)
    ramp, fit = tried
    assert list(ramp) == [1.0] and len(fit) == 3
    reports = [_judged(f, spec) for f in tried]
    assert reports[0].max_low_violation == pytest.approx(0.0757, abs=1e-4)
    assert reports[0].max_high_violation == pytest.approx(0.0757, abs=1e-4)
    assert info.value.report == reports[1]
    assert reports[1].max_low_violation == pytest.approx(1.9524e-9, rel=1e-4)
    assert reports[1].max_high_violation == pytest.approx(1.9524e-9, rel=1e-4)
    assert reports[1].max_abs_excess <= 0.0


def _recorded_searches(monkeypatch):
    """The judge_all flag and the pick of each search pass a build runs, in order."""
    run, searches = chebpoly._run_search, []

    def recording(search, max_degree):
        run(search, max_degree)
        searches.append((search.judge_all, search.best))
        return search

    monkeypatch.setattr(chebpoly, "_run_search", recording)
    return searches


def _hex(poly):
    return [c.hex() for c in poly.coeffs]


@pytest.mark.parametrize("delta, eta, cap", [(0.2, 0.01, 4096), (0.05, 0.1, 4096),
                                             (0.05, 0.7985613664386098, 5)])
def test_a_failed_return_judgment_reruns_the_search(monkeypatch, delta, eta, cap):
    """With a probe that rejects nothing, the first search accepts the
    ramp, whose judgment at return fails.  The one rerun judges every
    candidate, so it returns the unpatched build bit for bit, a step that
    verify_bounds passes, or raises the unpatched CapacityError's report."""
    spec = StepSpec(delta, eta)

    def outcome():
        chebpoly._build_cached.cache_clear()
        try:
            return build_step_approx(spec, max_degree=cap)
        except CapacityError as exc:
            return exc.report

    want = outcome()
    monkeypatch.setattr(chebpoly, "_probe_top", lambda odd, delta: math.inf)
    searches = _recorded_searches(monkeypatch)
    got = outcome()
    assert [flag for flag, _ in searches] == [False, True] and searches[0][1] == (1.0,)
    if isinstance(want, ChebPoly):
        assert want.degree > 1 and _hex(got) == _hex(want)
        assert verify_bounds(got, spec).passes
    else:
        assert got == want


def test_the_degree_675_schedule_takes_the_rerun(monkeypatch):
    """At alpha 0, eps 0.00625 the 1,000-point probe passes a candidate
    whose judgment fails, so the first search's pick is refused and the
    rerun builds the step whose coefficients tests/test_frozen.py pins.
    The rerun reuses the first pass's work: across the build no candidate
    is probed twice or evaluated for its extremes twice."""
    seen = {"_probe_top": Counter(), "_odd_extremes": Counter()}
    for name, counts in seen.items():
        def counting(odd, delta, _fn=getattr(chebpoly, name), _counts=counts):
            _counts[odd] += 1
            return _fn(odd, delta)
        monkeypatch.setattr(chebpoly, name, counting)
    searches = _recorded_searches(monkeypatch)
    chebpoly._build_cached.cache_clear()
    sched = alpha_schedule(0.0, 0.00625, 1.0)
    assert [flag for flag, _ in searches] == [False, True]
    (_, refused), (_, built) = searches
    assert sched.degree == 2 * len(built) - 1 == 675 and 2 * len(refused) - 1 < 675
    for counts in seen.values():
        assert counts and max(counts.values()) == 1
    text = "\n".join(float(c).hex() for c in sched.poly.coeffs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4d17f8140c1c26b56c61756a324307f21c987ac6e2a67a64420d2208845f0385")


@settings(max_examples=60, deadline=None)
@given(log_delta=st.floats(-1.3, -0.05), log_eta=st.floats(-4.0, -0.01),
       cap=st.integers(1, 201))
def test_build_matches_the_search_that_judges_every_survivor(log_delta, log_eta, cap):
    """Oracle: the rerun's search, which judges every probe survivor.  The
    build, which judges only what its first search returns, gives the same
    step bit for bit, or the same CapacityError report."""
    spec = StepSpec(10.0 ** log_delta, 10.0 ** log_eta)
    oracle = chebpoly._run_search(chebpoly._Search(spec, judge_all=True), cap)
    try:
        poly = build_step_approx(spec, max_degree=cap)
    except CapacityError as exc:
        assert oracle.best is None and exc.report == oracle.least_bad()
        return
    assert oracle.best is not None
    assert _hex(poly) == _hex(_step(oracle.best, spec.delta))


def test_cold_sweep_builds_rescale_only_probe_survivors(clear_chebpoly_caches,
                                                        count_chebpoly_calls):
    """Work counts over the 5x5 sweep grid: the probe rejects 90 of the 163
    candidates, the 25 ramps among them, and accepts the other 73 without
    their extremes.  Only the 25 steps returned are evaluated once more,
    for the extremes that judge and rescale them; each passes, so no
    search reruns.  Each build probes its own candidates, the ramp
    included, so 163 probes are made.  A cold eta frontier at delta 0.2,
    degrees 1, 3, 7, 15 and 21, probes nothing and judges 5 candidates
    once each: the ramp at degree 1 and the four fits.  Neither calls
    verify_bounds."""
    calls = Counter()
    count_chebpoly_calls(calls, certifications="verify_bounds", judgments="_judge",
                         probes="_probe_top", extremes="_odd_extremes")

    def cold_work(run):
        clear_chebpoly_caches()
        calls.clear()
        run()
        return calls

    def sweep():
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
                alpha_schedule(alpha, eps, 1.0)

    def frontier():
        for degree in (1, 3, 7, 15, 21):
            min_eta_for_degree(0.2, degree)

    assert cold_work(sweep) == Counter(probes=163, extremes=25, judgments=25)
    assert cold_work(frontier) == Counter(extremes=5, judgments=5)


def test_no_memo_keeps_a_candidate_after_its_build():
    """The memos left after a build and a frontier degree are the grids,
    the minimax fits and the builds; none is keyed by a candidate."""
    build_step_approx(StepSpec(0.05, 0.01))
    min_eta_for_degree(0.2, 21)
    memos = {name for name, val in vars(chebpoly).items() if hasattr(val, "cache_info")}
    assert memos == {"_rescale_grid", "_plateau_probe", "_minimax_fit", "_build_cached"}


def _verify_bounds_on_the_pm_grid(poly, spec):
    """verify_bounds as two evaluations by ChebPoly.eval, at -x and at x,
    over the grid points x built here from their four pieces."""
    xs = np.concatenate([np.unique(np.concatenate([
        np.abs(np.linspace(-1.0, 1.0, 10_000)), np.linspace(spec.delta, 1.0, 4000),
        np.linspace(0.0, spec.delta, 201)])),
        np.cos(np.linspace(0.0, math.pi / 2.0, min(4 * poly.degree + 65, 4097)))])
    pl, pr = poly.eval(-xs), poly.eval(xs)
    plateau = xs >= spec.delta
    return chebpoly.BoundReport(
        max_low_violation=float(np.max(pl[plateau])) - spec.eta / 2.0,
        max_high_violation=(1.0 - spec.eta / 2.0) - float(np.min(pr[plateau])),
        max_abs_excess=float(max(np.max(np.abs(pl)), np.max(np.abs(pr)))) - 1.0,
        grid_size=2 * xs.size)


def _interleaved(odd):
    """The series (0, c_1, 0, c_3, ..., 0, c_d) of odd = (c_1, c_3, ..., c_d)."""
    coeffs = np.zeros(2 * len(odd))
    coeffs[1::2] = odd
    return coeffs


def _step_over_unique_grid(odd_coeffs, delta):
    """The rescale to (1 + q)/2 over np.unique of all four grid pieces, q
    given by its odd-index coefficients, converted one float() at a time."""
    d = 2 * len(odd_coeffs) - 1
    grid = np.unique(np.concatenate([
        np.abs(np.linspace(-1.0, 1.0, 10_000)), np.linspace(delta, 1.0, 4000),
        np.linspace(0.0, delta, 201), chebpoly._edge_grid(d)]))
    odd = [float(c) for c in odd_coeffs]
    while odd and odd[-1] == 0.0:
        odd.pop()
    peak = float(np.max(np.abs(chebpoly._clenshaw_split(grid, [0.0], odd))))
    scale = 1.0 if peak <= 1.0 else (1.0 - 1e-13) / peak
    step = np.zeros(d + 1)
    step[0] = 0.5
    step[1::2] = 0.5 * scale * np.asarray(odd_coeffs)
    return step


def _assert_certification_unchanged(odd_coeffs, spec):
    poly = _step(tuple(np.asarray(odd_coeffs).tolist()), spec.delta)
    assert poly.coeffs == ChebPoly(
        _step_over_unique_grid(odd_coeffs, spec.delta)).coeffs
    assert verify_bounds(poly, spec) == _verify_bounds_on_the_pm_grid(poly, spec)


@pytest.mark.parametrize("seed", range(24))
def test_certification_on_per_delta_grids_is_exact_for_seeded_candidates(seed):
    """Random odd series of degree <= 400, half of them erf truncations that
    overshoot 1 slightly, rescale with the same floats as a per-candidate
    np.unique would give, and certify with the same floats as two separate
    evaluations on the ±grid."""
    rng = np.random.default_rng(seed)
    delta = float(rng.choice([0.2, 0.05, rng.uniform(0.002, 0.9)]))
    degree = 2 * int(rng.integers(0, 200)) + 1
    if seed % 2:
        odd = chebpoly._erf_odd_coeffs(float(rng.uniform(2.0, 60.0)), (degree + 1) // 2)
    else:
        odd = rng.normal(size=(degree + 1) // 2) / np.arange(1, degree + 1, 2)
        odd *= rng.uniform(0.5, 3.0) / np.sum(np.abs(odd))
    eta = float(rng.choice([1e-3, 0.05, 0.5]))
    _assert_certification_unchanged(odd, StepSpec(delta, eta))
    raw = ChebPoly(_interleaved(odd))
    assert verify_bounds(raw, StepSpec(delta, eta)) \
        == _verify_bounds_on_the_pm_grid(raw, StepSpec(delta, eta))


@pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 0.75, 1.0))
def test_certification_on_per_delta_grids_is_exact_for_sweep_schedules(alpha):
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        sched = alpha_schedule(alpha, eps, 1.0)
        spec = StepSpec(sched.delta, sched.eta)
        assert verify_bounds(sched.poly, spec) \
            == _verify_bounds_on_the_pm_grid(sched.poly, spec)
        _assert_certification_unchanged(2.0 * np.asarray(sched.poly.coeffs)[1::2], spec)


def test_per_delta_grids_are_shared_and_read_only():
    """The ramp's ±grid: the 11,707 rescale points at delta 0.2 and the 69
    edge points of degree 1, each at -x and at x."""
    assert chebpoly._rescale_grid(0.2) is chebpoly._rescale_grid(0.2)
    assert 2 * (chebpoly._rescale_grid(0.2).size + 69) == verify_bounds(
        ChebPoly([0.5, 0.5]), StepSpec(0.2, 0.5)).grid_size == 23_552
    for grid in (chebpoly._rescale_grid(0.2), chebpoly._plateau_probe(0.2)):
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0


def test_eval_outside_domain_rejected():
    poly = ChebPoly([0.5, 0.5])
    # NaN compares false with any bound, so it needs rejecting explicitly
    for bad in (1.01, -1.01, math.nan, math.inf, -math.inf, np.float64("nan"),
                np.array(math.nan), [0.1, math.nan], np.array([0.0, 1.01]),
                np.array([[0.0, 0.5], [math.inf, 0.2]])):
        with pytest.raises(ValueError, match="outside"):
            poly.eval(bad)
    # rounding slack beyond +-1 is tolerated and clipped onto the domain
    assert poly.eval(1.0) == pytest.approx(1.0)
    assert poly.eval(1.0 + 5e-13) == poly.eval(1.0)
    assert poly.eval(-1.0 - 5e-13) == poly.eval(-1.0)
    assert np.array_equal(poly.eval(np.array([1.0 + 5e-13])),
                          poly.eval(np.array([1.0])))


@pytest.mark.parametrize("x", ["0.5", b"0.5", np.array(["0.5"]), np.array([0.5 + 1j]),
                               0.5 + 0j, None, [0.5, object()]],
                         ids=["string", "bytes", "string array", "complex array",
                              "complex", "none", "object"])
def test_eval_refuses_what_is_not_real(x):
    with pytest.raises(ValueError, match="evaluation points must be real numbers"):
        ChebPoly([0.5, 0.5]).eval(x)


def test_eval_input_contract():
    poly = ChebPoly([0.1, 0.3, 0.2, -0.25])
    for x in (0.25, 0, np.float64(0.25), np.array(0.25), np.int64(1)):
        out = poly.eval(x)
        assert type(out) is float
        assert out == poly.eval(float(x))
    for x in ([0.1, -0.7], np.linspace(-1.0, 1.0, 5),
              np.linspace(-1.0, 1.0, 6).reshape(2, 3)):
        out = poly.eval(x)
        assert isinstance(out, np.ndarray)
        assert out.shape == np.shape(x)
        flat = np.ravel(x)
        assert [poly.eval(float(v)) for v in flat] == list(out.ravel())
    # a constant still answers with the shape of its input
    assert ChebPoly([0.25]).eval(np.zeros((2, 3))).shape == (2, 3)


@st.composite
def bounded_series(draw):
    """Dense, pure-odd or pure-even normal coefficients of degree <= 400,
    scaled to sum |c_k| = 1 so the box check holds by |T_k| <= 1."""
    degree = draw(st.integers(0, 400))
    kind = draw(st.sampled_from(("dense", "odd", "even")))
    seed = draw(st.integers(0, 2**32 - 1))
    coeffs = np.random.default_rng(seed).normal(size=degree + 1)
    if kind == "odd":
        coeffs[0::2] = 0.0
    elif kind == "even":
        coeffs[1::2] = 0.0
    total = np.sum(np.abs(coeffs))
    return kind, coeffs / total if total > 0.0 else coeffs


@settings(max_examples=150, deadline=None)
@given(bounded_series(), st.floats(-1.0, 1.0))
def test_eval_properties(series, x):
    kind, coeffs = series
    poly = ChebPoly(coeffs)
    value = poly.eval(x)
    # an independent cosine sum: T_k(cos t) = cos(k t)
    theta = math.acos(x)
    cosine = math.fsum(c * math.cos(k * theta) for k, c in enumerate(coeffs))
    assert abs(value - cosine) <= 1e-12 * (1.0 + np.sum(np.abs(coeffs)))
    # the scalar and the array path round identically
    assert struct.pack("<d", value) == struct.pack("<d", poly.eval(np.array([x]))[0])
    if kind == "odd":
        assert poly.eval(-x) == -value


def test_step_spec_validation():
    for delta, eta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0),
                      (-0.1, 0.5), (0.5, 1.5)):
        with pytest.raises(ValueError):
            StepSpec(delta, eta)


def test_degree_one_when_eta_is_loose():
    """eta >= 1 - delta makes the plain ramp (1+x)/2 a valid step."""
    poly = build_step_approx(StepSpec(0.2, 0.9))
    assert poly.degree == 1
    assert poly.coeffs == (0.5, 0.5)
    assert verify_bounds(poly, StepSpec(0.2, 0.9)).passes


def test_degree_one_feasibility_boundary():
    for delta in (0.05, 0.1, 0.2, 0.4):
        loose = build_step_approx(StepSpec(delta, 1.0 - delta + 2e-4))
        assert loose.degree == 1
        tight = build_step_approx(StepSpec(delta, 1.0 - delta - 2e-4))
        assert tight.degree > 1


def test_build_tight_case_frozen():
    """delta=0.1, eta=0.01 regression: degree frozen from the first run."""
    spec = StepSpec(0.1, 0.01)
    poly = build_step_approx(spec)
    assert poly.degree == 71
    report = verify_bounds(poly, spec)
    assert report.passes
    assert report.grid_size >= 10_000
    # reported constant stays under 1.2, so degree <= 1.2*(1/delta)*ln(4/eta)
    assert degree_constant(poly, spec) <= 1.2
    assert poly.degree <= 1.2 * 10.0 * math.log(400.0)


def test_builder_step_has_odd_sign_part():
    poly = build_step_approx(StepSpec(0.05, 0.5))
    assert poly.coeffs[0] == 0.5
    assert all(c == 0.0 for c in poly.coeffs[2::2])


def test_bound_certificates_across_grid():
    for delta in (0.1, 0.2):
        for eta in (0.3, 0.7):
            spec = StepSpec(delta, eta)
            assert verify_bounds(build_step_approx(spec), spec).passes


def test_verify_bounds_reports_violation():
    # the bare ramp is far too shallow for a tight eta
    spec = StepSpec(0.2, 0.1)
    report = verify_bounds(ChebPoly([0.5, 0.5]), spec)
    assert not report.passes
    # at x=delta the ramp sits at 0.6 versus the required 0.95
    assert report.max_high_violation == pytest.approx(0.35, abs=1e-9)


def test_capacity_error_carries_report():
    with pytest.raises(CapacityError) as info:
        build_step_approx(StepSpec(0.05, 0.02), max_degree=15)
    assert info.value.report is not None
    assert not info.value.report.passes


def test_build_rejects_degree_budget_below_one():
    with pytest.raises(ValueError, match="max_degree must be at least 1"):
        build_step_approx(StepSpec(0.2, 0.9), max_degree=0)


# Smallest certified degree under a tight cap, or None for CapacityError,
# frozen from the builder before its unreachable branches were deleted.
# _minimax_path certifies 4 of these 27 builds, _MINIMAX_CERTIFIED_BUILDS.
_TIGHT_CAP_DEGREES = {
    (0.07, 0.1): (None, None, None),
    (0.07, 0.3): (None, None, 19),
    (0.07, 0.6): (None, 9, 11),
    (0.2, 0.1): (None, None, 13),
    (0.2, 0.3): (None, 9, 9),
    (0.2, 0.6): (3, 5, 5),
    (0.45, 0.1): (None, 5, 7),
    (0.45, 0.3): (3, 5, 5),
    (0.45, 0.6): (1, 1, 1),
}
# (delta, eta, max_degree)
_MINIMAX_CERTIFIED_BUILDS = ((0.07, 0.3, 21), (0.07, 0.6, 9), (0.2, 0.6, 3), (0.45, 0.3, 3))


@pytest.mark.parametrize("delta, eta", sorted(_TIGHT_CAP_DEGREES))
def test_tight_cap_builds_frozen(delta, eta):
    for max_degree, want in zip((3, 9, 21), _TIGHT_CAP_DEGREES[delta, eta]):
        try:
            got = build_step_approx(StepSpec(delta, eta), max_degree=max_degree).degree
        except CapacityError:
            got = None
        assert got == want, (max_degree, got)


# Builds whose degree depends on the path of the search below the erf
# start d0: the grid check is not monotone in truncation degree.  The
# galloping search this bisection replaced gave 543, 185, 107, 25 and 31.
_BISECTED_BUILDS = [
    ((0.007292019173950125, 0.034747747808509415, 4096), 489),
    ((0.06043193809038718, 0.0005941907007421598, 401), 177),
    ((0.03665939803380929, 0.03515434626998802, 401), 97),
    ((0.15265478425087303, 0.038420073391400876, 101), 23),
    ((0.46422327949731845, 9.051188183592061e-05, 401), 33),
]


@pytest.mark.parametrize("delta, eta, max_degree, want",
                         [(*key, want) for key, want in _BISECTED_BUILDS])
def test_bisected_builds_frozen(delta, eta, max_degree, want):
    assert build_step_approx(StepSpec(delta, eta), max_degree=max_degree).degree == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 200), st.integers(1, 600), st.integers(-4, 1610))
def test_bisect_odd_finds_the_threshold_of_monotone_predicates(half_lo, n, t):
    """On d >= t, _bisect_odd probes odd degrees in (lo, hi] only, hi
    first; it finds the smallest feasible one in at most
    1 + ceil(log2((hi - lo) / 2)) probes, and returns it, or stops after
    hi alone and returns None."""
    lo = 2 * half_lo - 1
    hi = lo + 2 * n
    probes = []

    def feasible(d):
        probes.append(d)
        return d >= t

    found = chebpoly._bisect_odd(feasible, lo, hi)
    assert probes[0] == hi
    assert all(d % 2 == 1 and lo < d <= hi for d in probes)
    if t > hi:
        assert probes == [hi] and found is None
        return
    assert found == min(d for d in probes if d >= t) == max(t + (t % 2 == 0), lo + 2)
    assert len(probes) <= 1 + math.ceil(math.log2(n))


def erf_terms(k):
    """The odd terms the builder's erf path takes at steepness k."""
    return (max(int(math.ceil(12.2 * k)) + 96, 192) + 1) // 2


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.floats(0.5, 25.0), st.floats(0.5, 400.0)))
def test_erf_closed_form_matches_erf_and_interpolation(k):
    """The odd terms alone sum to erf(k x), whose even Chebyshev
    coefficients the interpolation oracle finds zero."""
    n = erf_terms(k)
    odd = chebpoly._erf_odd_coeffs(k, n)
    assert odd.shape == (n,)
    xs = np.linspace(-1.0, 1.0, 20_001)
    assert np.max(np.abs(npcheb.chebval(xs, _interleaved(odd)) - erf(k * xs))) <= 1e-13
    if 2 * n - 1 <= 400:  # the (d+1)^2 interpolation oracle stays under 1.3 MB
        oracle = npcheb.chebinterpolate(lambda x: erf(k * x), 2 * n - 1)
        assert np.max(np.abs(oracle[0::2])) <= 1e-12
        assert np.max(np.abs(odd - oracle[1::2])) <= 1e-12


def test_erf_coefficients_take_linear_memory():
    tracemalloc.start()
    try:
        chebpoly._erf_odd_coeffs(300.0, 1878)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tight_cap_builds_make_few_erf_vectors(monkeypatch, clear_chebpoly_caches):
    """The four cold tight-cap builds that certify a minimax fit pass the
    erf path's rough-degree check 6 times, and build one coefficient vector
    for each of those steepnesses, not one per steepness (24 per build)."""
    clear_chebpoly_caches()
    built = []
    build = chebpoly._erf_odd_coeffs
    monkeypatch.setattr(chebpoly, "_erf_odd_coeffs",
                        lambda *args: built.append(args) or build(*args))
    for delta, eta, cap in _MINIMAX_CERTIFIED_BUILDS:
        build_step_approx(StepSpec(delta, eta), max_degree=cap)
    assert len(built) == 6


def test_high_degree_builds_are_small_and_search_short(count_chebpoly_calls):
    """alpha = 0 steps of degree 675 and 1349, with the memory bound first:
    a build that regresses to a quadratic-memory construction fails it at
    a few hundred MB, before the larger build could ask for gigabytes."""
    chebpoly._build_cached.cache_clear()
    tracemalloc.start()
    try:
        sched = alpha_schedule(0.0, 0.00625, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 << 20
    assert sched.degree == 675

    calls = Counter()
    count_chebpoly_calls(calls, judgments="_judge")
    chebpoly._build_cached.cache_clear()
    assert alpha_schedule(0.0, 0.003125, 1.0).degree == 1349
    assert calls["judgments"] <= 25


def test_subnormal_eta_ends_in_capacity_without_warnings():
    # eta * frac rounds back to eta, leaving the erf path no budget; the
    # suite turns any RuntimeWarning from the division into an error
    for delta, eta in ((5e-324, 5e-324), (2.5e-310, 2.5e-310)):
        with pytest.raises(CapacityError):
            build_step_approx(StepSpec(delta, eta), max_degree=25)


@settings(max_examples=100, deadline=None)
@example(5e-324)
@example(2.5e-310)
@example(1e-300)
@example(1.0 - 2.0 ** -53)
@given(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 st.floats(-300.0, -1e-3).map(lambda e: 10.0 ** e)))
def test_ramp_certifies_as_eta_approaches_one(delta):
    """At eta = 1 - 1e-9, the top of the frontier's range, the ramp's
    excesses are (1e-9 - delta)/2 twice and 0, so it never fails."""
    ramp = _step((1.0,), delta)
    assert ramp == ChebPoly((0.5, 0.5))
    assert verify_bounds(ramp, StepSpec(delta, 1.0 - 1e-9)).passes
    assert 1e-9 <= min_eta_for_degree(delta, 1) <= 1.0 - 1e-9


def _judged_frontier(monkeypatch, delta, degree):
    """min_eta_for_degree(delta, degree) and the (odd, spec, report) of
    each judgment it makes, odd being the candidate whose extremes it read."""
    extremes, judge, odds, judged = chebpoly._odd_extremes, chebpoly._judge, [], []

    def reading(odd, delta):
        odds.append(odd)
        return extremes(odd, delta)

    def recording(peaks, spec):
        judged.append((spec, judge(peaks, spec)))
        return judged[-1][1]

    monkeypatch.setattr(chebpoly, "_odd_extremes", reading)
    monkeypatch.setattr(chebpoly, "_judge", recording)
    eta = min_eta_for_degree(delta, degree)
    monkeypatch.undo()
    return eta, [(odd, *rest) for odd, rest in zip(odds, judged, strict=True)]


@settings(max_examples=100, deadline=None)
@example(5e-324, 1)
@example(2.5e-310, 5)
@example(1e-300, 21)
@example(5e-324, 21)
@example(1.0 - 2.0 ** -53, 3)
@example(1.0 - 2.0 ** -53, 21)
@given(st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                 st.floats(-300.0, -1e-3).map(lambda e: 10.0 ** e)),
       st.sampled_from((1, 3, 5, 21)))
def test_frontier_eta_stays_in_range_and_is_judged_once(delta, degree):
    """Across the whole delta range, subnormal deltas and 1 - 2^-53 too,
    the eta lies in [1e-9, 1 - 1e-9] and one passing judgment at it
    confirms it: 1 - 1e-9 where 1 - delta rounds to 1, 1e-9 near 1."""
    with pytest.MonkeyPatch.context() as mp:
        eta, judged = _judged_frontier(mp, delta, degree)
    assert 1e-9 <= eta <= 1.0 - 1e-9
    [(_, spec, report)] = judged
    assert spec == StepSpec(delta, eta) and report.passes
    if delta < 1e-16:
        assert eta == 1.0 - 1e-9
    if delta == 1.0 - 2.0 ** -53:
        assert eta == 1e-9


def test_min_eta_degree_one_boundary():
    assert min_eta_for_degree(0.2, 1) == 1.0 - 0.2
    with pytest.raises(ValueError, match="degree must be at least 1"):
        min_eta_for_degree(0.2, 0)


def test_min_eta_takes_no_tolerance():
    # tol=0.0 used to bisect forever and tol=nan returned 1 - 1e-9
    with pytest.raises(TypeError):
        min_eta_for_degree(0.2, 3, tol=0.0)


def test_min_eta_nonincreasing_in_degree():
    values = [min_eta_for_degree(0.2, d) for d in (1, 3, 7)]
    assert values[0] >= values[1] >= values[2]


def test_frontier_strictly_decreases_to_degree_61():
    """An eta bisected to a fixed width saturated here: it printed
    6.1036e-05 at both 51 and 61."""
    etas = [min_eta_for_degree(0.2, d) for d in range(1, 62, 2)]
    assert all(a > b for a, b in zip(etas, etas[1:])), etas


def test_frontier_fits_no_degree_above_its_cap(monkeypatch):
    """Above _FRONTIER_MAX_DEGREE the frontier fits nothing.  It returns
    the 1e-9 floor where the cap's fit reaches it, and refuses the degree
    where the cap's eta is higher, since the degree may reach lower."""
    monkeypatch.setattr(chebpoly, "_FRONTIER_MAX_DEGREE", 21)
    fit, fitted = chebpoly._minimax_fit, []
    monkeypatch.setattr(chebpoly, "_minimax_fit",
                        lambda delta, degree: fitted.append(degree) or fit(delta, degree))
    assert min_eta_for_degree(0.9, 21) == min_eta_for_degree(0.9, 4096) == 1e-9
    eta = min_eta_for_degree(0.2, 21)
    with pytest.raises(ValueError, match=rf"above degree 21 .* reaches {eta!r}, "
                                         "and degree 23 may reach lower"):
        min_eta_for_degree(0.2, 23)
    assert max(fitted) == 21


def test_frontier_fits_each_minimax_once():
    """A frontier degree fits the largest odd degree up to it, once, and
    builds nothing into the build cache."""
    chebpoly._build_cached.cache_clear()
    chebpoly._minimax_fit.cache_clear()
    min_eta_for_degree(0.2, 21)
    assert chebpoly._minimax_fit.cache_info().misses == 1
    min_eta_for_degree(0.2, 15)
    assert chebpoly._minimax_fit.cache_info().misses == 2
    assert chebpoly._minimax_fit.cache_info().currsize == 2
    min_eta_for_degree(0.2, 15)
    assert chebpoly._minimax_fit.cache_info().misses == 2
    assert chebpoly._build_cached.cache_info().currsize == 0


@pytest.mark.parametrize("delta", (0.1, 0.2, 0.3, 0.45))
def test_printed_frontier_steps_pass_the_newton_refined_certificate(monkeypatch, certify, delta):
    """At odd d <= 21 the step judged at the printed eta, and the build at
    that eta under a degree-d cap, both hold between grid points."""
    for degree in range(1, 22, 2):
        eta, [(odd, _, _)] = _judged_frontier(monkeypatch, delta, degree)
        assert certify.certify(_step(odd, delta).coeffs, delta, eta).passes
        poly = build_step_approx(StepSpec(delta, eta), max_degree=degree)
        assert poly.degree <= degree, degree
        assert certify.certify(poly.coeffs, delta, eta).passes, degree


def test_a_failed_confirmation_raises(monkeypatch):
    """A fit whose t* lies 1e-6 below the plateau error its step holds is
    refused, not printed."""
    fit = chebpoly._minimax_fit

    def optimistic(delta, degree):
        t_star, coeffs = fit(delta, degree)
        return t_star - 1e-6, coeffs

    monkeypatch.setattr(chebpoly, "_minimax_fit", optimistic)
    with pytest.raises(CapacityError, match="does not certify") as info:
        min_eta_for_degree(0.2, 21)
    assert info.value.report.max_high_violation == pytest.approx(5e-7, rel=1e-3)


def _full_grid_lp(delta, degree):
    """Optimum t_LP of the retired discrete-minimax LP, as an oracle.

    Minimises the worst plateau shortfall t over the odd coefficients
    subject to every row of the old fit's grid: 1 - q <= t on the plateau
    points, |q| <= 1 - 1e-9 on all of them.  One dense HiGHS solve.
    """
    xs = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 2501), np.linspace(delta, 1.0, 1500),
        chebpoly._edge_grid(degree), [delta]]))
    vander = npcheb.chebvander(xs, degree)[:, 1::2]
    n_var = vander.shape[1]
    plateau = vander[xs >= delta]
    zeros = np.zeros((xs.size, 1))
    a_ub = np.vstack([np.hstack([-plateau, -np.ones((plateau.shape[0], 1))]),
                      np.hstack([vander, zeros]), np.hstack([-vander, zeros])])
    b_ub = np.concatenate([np.full(plateau.shape[0], -1.0),
                           np.full(2 * xs.size, 1.0 - 1e-9)])
    cost = np.zeros(n_var + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * n_var + [(0.0, None)], method="highs")
    assert res.success
    return res.fun


def _cos_sum(theta, odd):
    """q, q' and q'' in theta of sum_j a_j cos((2j+1) theta), term by term."""
    q, dq, ddq = (np.zeros_like(theta) for _ in range(3))
    for j, a in enumerate(odd):
        m = 2 * j + 1
        q += a * np.cos(m * theta)
        dq -= m * a * np.sin(m * theta)
        ddq -= m * m * a * np.cos(m * theta)
    return q, dq, ddq


def _sampled_and_refined(odd, degree):
    """q on a 64 d grid over theta in [0, pi/2], and its interior extrema.

    Each sign change of the sampled slope starts Newton on q'(theta) = 0,
    kept between the two grid neighbours.  Returns (grid, q on it, extrema).
    """
    grid = np.linspace(0.0, 0.5 * math.pi, 64 * degree + 1)
    vals = _cos_sum(grid, odd)[0]
    slope = np.diff(vals)
    idx = np.flatnonzero(slope[:-1] * slope[1:] < 0.0) + 1
    theta = grid[idx]
    for _ in range(10):
        _, dq, ddq = _cos_sum(theta, odd)
        theta = np.clip(theta - dq / ddq, grid[idx - 1], grid[idx + 1])
    return grid, vals, theta


def _error_from_t_star(t_star):
    """E such that t* = 1 - (1 - 1e-13)(1 - E)/(1 + E)."""
    ratio = (1.0 - t_star) / (1.0 - 1e-13)
    return (1.0 - ratio) / (1.0 + ratio)


def _assert_sound_between_grid_points(delta, degree, t_star, coeffs):
    """|q| <= 1 on [0, 1] and q >= 1 - t* on [delta, 1], at every grid point
    and every refined extremum of an independent cosine sum.  Returns the
    plateau's refined extrema, both ends included, and q there."""
    odd = np.asarray(coeffs)
    assert odd.size == (degree + 1) // 2
    edge = math.acos(delta)
    grid, vals, extrema = _sampled_and_refined(odd, degree)
    theta = np.concatenate([grid, extrema, [edge]])
    q = np.concatenate([vals, _cos_sum(extrema, odd)[0], _cos_sum(np.array([edge]), odd)[0]])
    assert np.max(np.abs(q)) <= 1.0
    assert np.min(q[theta <= edge]) >= 1.0 - t_star - 1e-14
    ref = np.concatenate([[0.0], extrema[extrema < edge], [edge]])
    return ref, _cos_sum(ref, odd)[0]


@pytest.mark.parametrize("delta, degree",
                         [(0.2, d) for d in range(3, 22, 2)]
                         + [(0.05, 41), (0.05, 81), (0.45, 11), (0.1, 21)])
def test_lp_minimax_matches_full_grid_lp(delta, degree):
    """The Remez fit against the retired LP's full-grid optimum t_LP.

    The continuous optimum lies above the grid LP's, which only sees its
    grid points, by 4e-9 at (0.2, 3) up to 1e-6 at (0.05, 41).  The error
    1 - q/c, with c the centre of q on the plateau, alternates in sign on
    (d + 3)/2 refined extrema with equal size E up to 1e-6 E + 1e-14, so by
    de la Vallee Poussin no odd polynomial of degree d does better than
    E (1 - 1e-6) - 1e-14; and t* is the scaled fit's shortfall exactly."""
    t_lp = _full_grid_lp(delta, degree)
    t_star, coeffs = chebpoly._minimax_fit(delta, degree)
    assert t_lp - 1e-7 <= t_star <= t_lp + 2e-6
    ref, q = _assert_sound_between_grid_points(delta, degree, t_star, coeffs)
    assert ref.size == (degree + 3) // 2
    centre = 0.5 * (q.max() + q.min())
    err = 1.0 - q / centre
    assert np.all(err[:-1] * err[1:] < 0.0)
    big = np.max(np.abs(err))
    assert big - np.min(np.abs(err)) <= 1e-6 * big + 1e-14
    assert t_star == pytest.approx(
        1.0 - (1.0 - 1e-13) * (1.0 - big) / (1.0 + big), rel=0.0, abs=1e-14)


def _eremenko_yuditskii(delta, degree):
    """Asymptotic best error of an odd degree-d sign fit on [delta, 1]:
    (1 - delta)/sqrt(pi delta m) ((1 - delta)/(1 + delta))^m, d = 2m + 1
    (Eremenko and Yuditskii, arXiv:math/0604324)."""
    m = (degree - 1) // 2
    return (1.0 - delta) / math.sqrt(math.pi * delta * m) * ((1.0 - delta) / (1.0 + delta)) ** m


@pytest.mark.parametrize("delta", (0.45, 0.2, 0.1, 0.05, 0.0125))
def test_minimax_fit_levels_down_to_its_float_floor(delta):
    """Sampled odd degrees up to 159: every call returns a sound fit or None
    and raises nothing.  Each fit's E lies between 0.15 and 1 times the
    Eremenko-Yuditskii asymptote, which it approaches from below, so a
    None where that asymptote is under 1e-11 has E < 1e-11.  Measured: the
    smallest E fitted is 2.3e-12, and None starts at E = 1.6e-12 (0.2, 125)
    and 1.05e-12 (0.45, 53), where float64 rounding, about 1e-15, leaves
    the reference errors more than 1e-3 E apart."""
    for degree in list(range(3, 160, 8)) + [159]:
        fit = chebpoly._minimax_fit(delta, degree)
        bound = _eremenko_yuditskii(delta, degree)
        if fit is None:
            assert bound < 1e-11, degree
            continue
        assert 0.15 * bound <= _error_from_t_star(fit[0]) <= bound, degree
        _assert_sound_between_grid_points(delta, degree, *fit)


def test_minimax_fit_does_not_depend_on_one_blas_thread():
    """The fits at delta 0.01, degrees 21, 161 and 401, are the same float
    hex in this process and in a child held to one OpenBLAS thread.  Above
    about degree 400 they can differ (min_eta_for_degree's docstring)."""
    code = ("from qsvtsim import chebpoly\n"
            "for d in (21, 161, 401):\n"
            "    t_star, odd = chebpoly._minimax_fit(0.01, d)\n"
            "    print(t_star.hex(), *(c.hex() for c in odd))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    want = []
    for degree in (21, 161, 401):
        t_star, odd = chebpoly._minimax_fit(0.01, degree)
        want.append(" ".join([t_star.hex(), *(c.hex() for c in odd)]))
    assert proc.stdout.splitlines() == want


@pytest.mark.parametrize("delta", (0.45, 0.2, 0.1, 0.05))
def test_minimax_error_rises_towards_the_eremenko_yuditskii_asymptote(delta):
    """Every eighth odd degree from 21 to 157 with a fit and E >= 1e-12:
    E / E_EY lies in [0.7, 1] and rises strictly with d.  Measured: from
    0.775 (delta 0.05, d 21) to 0.980 (delta 0.2, d 117)."""
    ratios = []
    for degree in range(21, 158, 8):
        fit = chebpoly._minimax_fit(delta, degree)
        if fit is None or _error_from_t_star(fit[0]) < 1e-12:
            continue
        ratios.append(_error_from_t_star(fit[0]) / _eremenko_yuditskii(delta, degree))
    assert len(ratios) >= 4
    assert 0.7 <= min(ratios) and max(ratios) <= 1.0
    assert all(a < b for a, b in zip(ratios, ratios[1:])), ratios


@pytest.mark.parametrize("delta", (0.45, 0.2, 0.1, 0.05))
def test_frontier_never_undercuts_the_minimax_optimum(delta):
    """At odd d from 3 to 61 with a fit, min eta(d) >= t*(d) - 2 GRID_TOL.

    Certification tolerates GRID_TOL on the step P = (1 + q)/2, which is
    2 GRID_TOL on eta: at (0.45, 39) the frontier returns its floor 1e-9,
    under t* = 2.048e-9.  Away from that floor the smallest margin measured
    is +3.98e-7."""
    for degree in range(3, 62, 2):
        fit = chebpoly._minimax_fit(delta, degree)
        if fit is not None:
            assert min_eta_for_degree(delta, degree) >= fit[0] - 2.0 * chebpoly.GRID_TOL, degree


def test_sweep_degrees_stay_within_twice_the_minimax_degree():
    """Each of the 25 sweep cells builds a degree D with d* <= D <= 2 d*,
    where d* is the smallest odd degree whose minimax fit has t* <= eta.
    t* falls with d, so d* is bisected below D; a cell whose D were under d*
    would beat the optimum.  Measured: the worst premium D/d* is 33/17 =
    1.94 (alpha 0.25, eps 0.05); every alpha = 1 cell is the ramp, D = d* = 1."""
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
            sched = alpha_schedule(alpha, eps, 1.0)

            def reaches(degree):
                fit = chebpoly._minimax_fit(sched.delta, degree)
                return fit is not None and fit[0] <= sched.eta

            d_star = chebpoly._bisect_odd(reaches, -1, sched.degree)
            assert d_star is not None, (alpha, eps)
            assert sched.degree <= 2 * d_star, (alpha, eps, sched.degree, d_star)


@pytest.mark.parametrize("delta", (0.05, 0.1, 0.2, 0.3))
def test_every_minimax_fit_certifies_at_its_own_t_star(delta):
    """Sound between grid points, each fit at odd d in 3..21 certifies at
    eta = t* (1 + 1e-12), alone and as the build under a degree-d cap."""
    for degree in range(3, 22, 2):
        t_star, coeffs = chebpoly._minimax_fit(delta, degree)
        spec = StepSpec(delta, t_star * (1.0 + 1e-12))
        assert verify_bounds(_step(coeffs, delta), spec).passes, degree
        poly = build_step_approx(spec, max_degree=degree)
        assert poly.degree <= degree and verify_bounds(poly, spec).passes


def test_no_lp_is_solved(monkeypatch):
    """chebpoly.linprog stays bound for perfbench's tracer; the frontier and
    the four tight-cap builds that certify a minimax fit never call it."""

    def refuse(*args, **kwargs):
        raise AssertionError("an LP was solved")

    monkeypatch.setattr(chebpoly, "linprog", refuse)
    chebpoly._build_cached.cache_clear()
    chebpoly._minimax_fit.cache_clear()
    assert min_eta_for_degree(0.2, 21) == float.fromhex("0x1.45829b014ea40p-7")
    for delta, eta, cap in _MINIMAX_CERTIFIED_BUILDS:
        got = build_step_approx(StepSpec(delta, eta), max_degree=cap).degree
        assert got == _TIGHT_CAP_DEGREES[delta, eta][(3, 9, 21).index(cap)]
    assert chebpoly._minimax_fit.cache_info().misses >= 5


def _minimax_candidates(eta):
    """The odd parts _minimax_path hands to certification at delta 0.2, degree <= 21."""
    search = chebpoly._Search(StepSpec(0.2, eta), judge_all=False)
    tried = []
    try_odd = search.try_odd

    def recording(odd):
        tried.append(odd)
        return try_odd(odd)

    search.try_odd = recording
    chebpoly._minimax_path(search, 21)
    return tried


def test_minimax_fit_reaches_certification_and_cache_safety(clear_chebpoly_caches):
    """At eta = t*, the cached fit's own odd-coefficient tuple goes to
    certification, whatever t* says, and handing it over leaves the cache
    entry as it was."""
    clear_chebpoly_caches()
    fit = chebpoly._minimax_fit(0.2, 21)
    t_star, coeffs = fit
    tried = _minimax_candidates(t_star)
    assert tried and tried[0] is coeffs and len(coeffs) == 11
    assert chebpoly._minimax_fit(0.2, 21) == fit


@pytest.mark.parametrize("delta, degree", [(0.05, 3), (0.1, 3), (0.2, 3), (0.3, 11)])
def test_certified_tight_cap_fit_is_returned(delta, degree):
    """Each fit certifies on the grid from an eta below t* + 1e-8, so a
    check of t* with that margin would refuse it; the build just above the
    grid threshold returns a certified step within the cap."""
    t_star, coeffs = chebpoly._minimax_fit(delta, degree)
    report = verify_bounds(_step(coeffs, delta), StepSpec(delta, 0.5))
    assert report.max_abs_excess <= chebpoly.GRID_TOL
    worst = max(report.max_low_violation, report.max_high_violation)
    threshold = 0.5 + 2.0 * (worst - chebpoly.GRID_TOL)
    assert threshold < t_star + 1e-8
    spec = StepSpec(delta, threshold * (1.0 + 1e-12))
    poly = build_step_approx(spec, max_degree=degree)
    assert poly.degree <= degree and verify_bounds(poly, spec).passes


def test_minimax_path_skips_fits_no_degree_under_cap_can_reach_eta():
    """delta = 1.95e-4, eta = 0.5: even degree 159 rises only
    159 asin(delta) = 0.031 from q(0), far below the 1 - eta it needs."""
    chebpoly._minimax_fit.cache_clear()
    with pytest.raises(CapacityError):
        build_step_approx(StepSpec(0.0001953125, 0.5))
    assert chebpoly._minimax_fit.cache_info().misses == 0


@pytest.mark.parametrize("delta, eta, cap, want", [
    (0.9, 1e-6, 21, 9), (0.9, 1e-6, 25, 9), (0.45, 1e-7, 61, 33), (0.3, 1e-9, 101, 61)])
def test_minimax_path_drops_below_degrees_without_a_fit(delta, eta, cap, want):
    """The cap's fit is None, below E's float64 floor, and the erf path
    needs more than the cap, yet a lower fit certifies.  The LP fit the
    exchange replaced built degree 9 at (0.9, 1e-6) under caps 21 and 27
    and raised CapacityError under 23 and 25; at (0.45, 1e-7) it built 35
    under caps 35 to 51 and raised under 61; at (0.3, 1e-9, 101) it raised."""
    assert chebpoly._minimax_fit(delta, cap) is None
    spec = StepSpec(delta, eta)
    poly = build_step_approx(spec, max_degree=cap)
    assert poly.degree == want and verify_bounds(poly, spec).passes


@pytest.mark.parametrize("delta, cap", [
    (0.3, 83), (0.45, 53), (0.6, 39), (0.7, 31), (0.8, 25), (0.9, 21), (0.95, 21)])
def test_build_certifies_at_the_t_star_of_the_largest_fit_under_the_cap(delta, cap):
    """Just above t* of the largest odd degree under the cap that has a fit,
    the build returns, though the cap's own fit is None."""
    top = cap
    while chebpoly._minimax_fit(delta, top) is None:
        top -= 2
    assert top < cap
    spec = StepSpec(delta, chebpoly._minimax_fit(delta, top)[0] * (1.0 + 1e-12))
    poly = build_step_approx(spec, max_degree=cap)
    assert poly.degree <= top and verify_bounds(poly, spec).passes


@settings(max_examples=40, deadline=None)
@given(st.floats(0.05, 0.5), st.sampled_from(range(1, 22, 2)),
       st.sampled_from((0.05, 0.2, 0.5, 0.8, 0.95)))
def test_certified_degree_meets_bernstein_rise(delta, degree, eta):
    """Every certified step rises from 1/2 at 0 to 1 - eta/2 at delta, which
    by Bernstein's inequality takes degree * asin(delta) >= 1 - eta up to
    the overshoot between grid points; the LP path prunes on half of that."""
    try:
        poly = build_step_approx(StepSpec(delta, eta), max_degree=degree)
    except CapacityError:
        return
    assert poly.degree * math.asin(delta) >= (1.0 - eta) / 2.0


def test_text_round_trip():
    poly = build_step_approx(StepSpec(0.2, 0.5))
    lines = to_text(poly).splitlines()
    assert lines[0] == f"degree {poly.degree}"
    assert lines[1] == f"parity {poly.parity}"
    fields = [ln.split() for ln in lines[2:]]
    assert [name for name, _ in fields] == [f"c_{k}" for k in range(poly.degree + 1)]
    # %.17g round-trips every double bit for bit
    parsed = [float(value) for _, value in fields]
    assert [struct.pack("<d", c) for c in parsed] \
        == [struct.pack("<d", c) for c in poly.coeffs]


def test_curve_csv_shape(tmp_path):
    poly = build_step_approx(StepSpec(0.2, 0.5))
    path = tmp_path / "curve.csv"
    write_curve_csv(poly, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,P(x)"
    assert len(lines) == 1001
    x0, p0 = (float(tok) for tok in lines[1].split(","))
    xe, pe = (float(tok) for tok in lines[-1].split(","))
    assert x0 == -1.0 and xe == 1.0
    assert p0 == pytest.approx(poly.eval(-1.0), abs=1e-15)
    assert pe == pytest.approx(poly.eval(1.0), abs=1e-15)
