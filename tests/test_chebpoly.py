"""Step-polynomial builder and certification tests.

Evaluation is checked against an independent power-basis oracle (expand
the Chebyshev recurrence into monomials, evaluate by nested
multiplication) so the two code paths share no arithmetic.
"""

import math
import struct
import tracemalloc
from collections import Counter

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
    poly = ChebPoly.from_coeffs(raw)
    mono = power_basis(raw)
    for x in rng.uniform(-1.0, 1.0, 100):
        assert abs(poly.eval(float(x)) - horner(mono, float(x))) <= 1e-11


def test_eval_matches_cosine_identity():
    # T_k(cos t) = cos(k t), checked for each basis polynomial separately
    for k in range(1, 31):
        coeffs = [0.0] * k + [1.0]
        poly = ChebPoly.from_coeffs(coeffs)
        for t in np.linspace(0.0, math.pi, 57):
            x = math.cos(t)
            assert abs(poly.eval(x) - math.cos(k * t)) <= 1e-10


def test_degree_one_step_midpoint():
    poly = ChebPoly.from_coeffs([0.5, 0.5])
    assert poly.eval(0.0) == pytest.approx(0.5, abs=1e-15)
    assert poly.degree == 1


def test_from_coeffs_trims_trailing_zeros():
    poly = ChebPoly.from_coeffs([0.25, 0.5, 0.0, 0.0])
    assert poly.degree == 1
    assert poly.coeffs == (0.25, 0.5)
    assert ChebPoly.from_coeffs([0.0, 0.0]).coeffs == (0.0,)
    with pytest.raises(ValueError, match="at least one coefficient"):
        ChebPoly.from_coeffs([])
    with pytest.raises(ValueError, match="leading coefficient"):
        ChebPoly(coeffs=(0.25, 0.5, 0.0))


def test_parity_classification():
    assert ChebPoly.from_coeffs([0.0, 1.0]).parity == "odd"
    assert ChebPoly.from_coeffs([0.5, 0.0, 0.5]).parity == "even"
    assert ChebPoly.from_coeffs([0.5, 0.5]).parity == "none"
    assert ChebPoly.from_coeffs([1.0]).parity == "even"


def test_box_bound_certified_not_enforced_on_construction():
    poly = ChebPoly.from_coeffs([0.0, 1.2])
    report = verify_bounds(poly, StepSpec(0.2, 0.5))
    assert report.max_abs_excess == pytest.approx(0.2)
    assert not report.passes
    h = HermitianOp.from_matrix(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError, match="spectral radius above 1"):
        apply_poly(h, poly)


def _clear_candidate_caches():
    for memo in (chebpoly._build_cached, chebpoly._minimax_fit,
                 chebpoly._fit_candidate, chebpoly._ramp):
        memo.cache_clear()


def test_candidates_are_evaluated_once_before_certification(monkeypatch):
    """Each candidate, the ramp included, is probed once when it is made; a
    survivor is then evaluated once for its rescale and once for
    certification, a rejected one for neither.  A cached candidate judged
    again, the ramp or a minimax fit at a later frontier probe, evaluates
    nothing."""
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(chebpoly, "_clenshaw_split",
                        counted("evals", chebpoly._clenshaw_split))
    ChebPoly.from_coeffs([0.5, 0.5])
    ChebPoly.from_coeffs([0.0, 1.2])
    assert counts["evals"] == 0

    for name, fn in [("_probe_top", counted("probes", chebpoly._probe_top)),
                     ("_step_from_odd", counted("rescales", chebpoly._step_from_odd)),
                     ("verify_bounds", counted("certifications", chebpoly.verify_bounds))]:
        monkeypatch.setattr(chebpoly, name, fn)
    try_odd = chebpoly._Search.try_odd
    outcomes = Counter()

    def try_odd_checked(search, cand):
        before = counts.copy()
        try:
            return try_odd(search, cand)
        finally:  # a frontier probe's search raises at its certification
            seen = counts - before
            if cand.misses(search.spec.eta):
                outcome, want = "rejected", Counter()
            elif seen["rescales"]:
                outcome, want = "survived", Counter(rescales=1, certifications=1, evals=2)
            else:
                outcome, want = "judged again", Counter(certifications=1)
            assert seen == want
            outcomes[outcome] += 1

    monkeypatch.setattr(chebpoly._Search, "try_odd", try_odd_checked)
    _clear_candidate_caches()
    alpha_schedule(0.5, 0.05, 1.0)
    # the ramp and one erf truncation are rejected on the probe
    assert outcomes == Counter(rejected=2, survived=3)
    assert counts["certifications"] == counts["rescales"] == 3
    assert counts["evals"] == counts["probes"] + 2 * 3 == 11

    # 30 judgments over the frontier's 15 eta probes: the ramp at each, the
    # degree-21 fit at 7 and erf truncations at 8.  Only the truncations are
    # probed and rescaled again when the pass is repeated.
    for probes, rescales, again in ((6, 5, 6), (4, 4, 7)):
        counts.clear()
        outcomes.clear()
        min_eta_for_degree(0.2, 21)
        assert counts == Counter(probes=probes, rescales=rescales, certifications=11,
                                 evals=probes + 2 * rescales)
        assert outcomes == Counter({"rejected": 19, "survived": rescales, "judged again": again})


@pytest.mark.parametrize("delta", (0.2, 0.05, 0.0123, 0.7071, 0.99))
def test_plateau_probe_lies_on_both_grids(delta):
    probe = chebpoly._plateau_probe(delta)
    plateau = chebpoly._cert_grid(delta)[-chebpoly._PLATEAU_POINTS:]
    assert probe.size == 1000 and probe[0] == delta
    assert np.shares_memory(probe, chebpoly._cert_grid(delta))
    assert not probe.flags.writeable
    # exact float equality: the probe's max|q| bounds the rescale's peak,
    # and its min bounds the certified plateau's
    assert np.all(np.isin(probe, chebpoly._rescale_grid(delta)))
    assert np.all(np.isin(probe, plateau))


@settings(max_examples=150, deadline=None)
@given(log_delta=st.floats(-1.5, -0.05), log_eta=st.floats(-4.0, -0.01),
       log_frac=st.floats(-6.0, -0.01), k_factor=st.floats(0.5, 2.0),
       half_degree=st.integers(0, 300))
def test_probe_rejects_only_candidates_that_fail_certification(
        log_delta, log_eta, log_frac, k_factor, half_degree):
    """Oracle: verify_bounds on the rescaled step.  The steepness k is the
    erf path's for an eta * frac plateau loss, spread by k_factor."""
    spec = StepSpec(10.0 ** log_delta, 10.0 ** log_eta)
    k = k_factor * float(chebpoly.erfcinv(spec.eta * 10.0 ** log_frac)) / spec.delta
    odd = chebpoly._erf_odd_coeffs(k, 2 * half_degree + 1)
    if chebpoly._Candidate(odd, spec.delta).misses(spec.eta):
        report = verify_bounds(chebpoly._step_from_odd(odd, spec.delta), spec)
        assert report.max_high_violation > chebpoly.GRID_TOL
        assert not report.passes


@settings(max_examples=150, deadline=None)
@given(log_delta=st.floats(-1.5, -0.05), log_frac=st.floats(-6.0, -0.5),
       half_degree=st.integers(0, 300), sign=st.sampled_from([-1.0, 1.0]),
       log_miss=st.floats(-16.0, -3.0))
def test_probe_is_sound_at_the_certification_threshold(
        log_delta, log_frac, half_degree, sign, log_miss):
    """eta is set from the step's own plateau minimum so that certification
    misses by sign * 10^log_miss past GRID_TOL: rejections within rounding
    of the threshold must still fail verify_bounds."""
    delta = 10.0 ** log_delta
    k = float(chebpoly.erfcinv(10.0 ** log_frac)) / delta
    odd = chebpoly._erf_odd_coeffs(k, 2 * half_degree + 1)
    step = chebpoly._step_from_odd(odd, delta)
    low = float(np.min(step.eval(chebpoly._cert_grid(delta)[-chebpoly._PLATEAU_POINTS:])))
    eta = 2.0 * (1.0 - chebpoly.GRID_TOL - low - sign * 10.0 ** log_miss)
    assume(0.0 < eta < 1.0)
    spec = StepSpec(delta, eta)
    if chebpoly._Candidate(odd, delta).misses(eta):
        assert verify_bounds(step, spec).max_high_violation > chebpoly.GRID_TOL


def test_least_bad_matches_an_eager_fold_over_every_failure():
    """Failures' reports are computed late; least_bad still picks what a
    strict-< fold of each failure's report, in the order tried, picks.
    Across the seeds the pick is sometimes a candidate the probe rejected
    and sometimes one verify_bounds rejected."""

    def badness(r):
        return max(r.max_low_violation, 0.0) + max(r.max_high_violation, 0.0) \
            + max(r.max_abs_excess, 0.0)

    winners = set()
    for seed in range(12):
        rng = np.random.default_rng(seed)
        spec = StepSpec(float(rng.uniform(0.05, 0.4)), float(10 ** rng.uniform(-3.0, -0.5)))
        search = chebpoly._Search(spec)
        eager, fails = None, 0
        for _ in range(12):
            if rng.random() < 0.3:  # q = u x, rescaled to the ramp when u > 1
                odd = [0.0, float(rng.uniform(0.6, 1.2))]
            else:
                odd = chebpoly._erf_odd_coeffs(float(rng.uniform(1.0, 40.0)),
                                               2 * int(rng.integers(0, 40)) + 1)
            search.try_odd(chebpoly._Candidate(odd, spec.delta))
            report = verify_bounds(chebpoly._step_from_odd(odd, spec.delta), spec)
            if not report.passes:
                assert search.failures[fails].odd is odd
                if eager is None or badness(report) < eager[0]:
                    eager = (badness(report), report, fails)
                fails += 1
        assert len(search.failures) == fails
        assert search.least_bad() == eager[1]
        winners.add(search.failures[eager[2]].misses(spec.eta))
    assert winners == {True, False}


def test_capacity_report_is_the_least_bad_of_the_failures(monkeypatch):
    """Under a degree-5 cap the ramp and the degree-5 minimax fit both fail;
    the fit misses each plateau by 1.95e-9, the ramp by 0.0757, and the
    CapacityError carries the fit's report."""
    spec = StepSpec(0.05, 0.7985613664386098)
    tried = []
    try_odd = chebpoly._Search.try_odd

    def recording(search, cand):
        tried.append(cand.odd)
        return try_odd(search, cand)

    monkeypatch.setattr(chebpoly._Search, "try_odd", recording)
    chebpoly._build_cached.cache_clear()
    with pytest.raises(CapacityError) as info:
        build_step_approx(spec, max_degree=5)
    ramp, fit = tried
    assert list(ramp) == [0.0, 1.0] and len(fit) == 6
    reports = [verify_bounds(chebpoly._step_from_odd(f, spec.delta), spec)
               for f in tried]
    assert reports[0].max_low_violation == pytest.approx(0.0757, abs=1e-4)
    assert reports[0].max_high_violation == pytest.approx(0.0757, abs=1e-4)
    assert info.value.report == reports[1]
    assert reports[1].max_low_violation == pytest.approx(1.9524e-9, rel=1e-4)
    assert reports[1].max_high_violation == pytest.approx(1.9524e-9, rel=1e-4)
    assert reports[1].max_abs_excess <= 0.0


def test_cold_sweep_builds_rescale_only_probe_survivors(monkeypatch):
    """Work counts over the 5x5 sweep grid: the probe rejects 90 of the 163
    candidates, the 25 ramps among them, before their rescale, and the
    73 survivors are each rescaled and certified once.  The ramp is probed
    once per delta, and the sweep has 5 deltas, so 143 probes are made."""
    counts = Counter()
    for name in ("_probe_top", "_step_from_odd", "verify_bounds"):
        fn = getattr(chebpoly, name)
        monkeypatch.setattr(chebpoly, name,
                            lambda *args, fn=fn, name=name: counts.update([name]) or fn(*args))
    _clear_candidate_caches()
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
            alpha_schedule(alpha, eps, 1.0)
    assert counts == Counter(_probe_top=143, _step_from_odd=73, verify_bounds=73)


def _verify_bounds_three_grids(poly, spec):
    """verify_bounds as three evaluations, one per plateau or window grid."""
    left = np.linspace(-1.0, -spec.delta, 4000)
    mid = np.linspace(-spec.delta, spec.delta, 2001)
    right = np.linspace(spec.delta, 1.0, 4000)
    pl, pm, pr = poly.eval(left), poly.eval(mid), poly.eval(right)
    return chebpoly.BoundReport(
        max_low_violation=float(np.max(pl) - spec.eta / 2.0),
        max_high_violation=float((1.0 - spec.eta / 2.0) - np.min(pr)),
        max_abs_excess=float(np.max(np.abs(np.concatenate([pl, pm, pr]))) - 1.0),
        grid_size=left.size + mid.size + right.size)


def _step_over_unique_grid(odd_coeffs, delta):
    """The rescale to (1 + q)/2 over np.unique of all four grid pieces,
    with the halves converted one float() at a time."""
    d = len(odd_coeffs) - 1
    grid = np.unique(np.concatenate([
        np.abs(np.linspace(-1.0, 1.0, 10_000)), np.linspace(delta, 1.0, 4000),
        np.linspace(0.0, delta, 201), chebpoly._edge_grid(d)]))
    even = [float(c) for c in odd_coeffs[0::2]] or [0.0]
    odd = [float(c) for c in odd_coeffs[1::2]]
    while len(even) > 1 and even[-1] == 0.0:
        even.pop()
    while odd and odd[-1] == 0.0:
        odd.pop()
    peak = float(np.max(np.abs(chebpoly._clenshaw_split(grid, even, odd))))
    scale = 1.0 if peak <= 1.0 else (1.0 - 1e-13) / peak
    step = np.zeros(d + 1)
    step[0] = 0.5
    step[1::2] = 0.5 * scale * np.asarray(odd_coeffs)[1::2]
    return step


def _assert_certification_unchanged(odd_coeffs, spec):
    poly = chebpoly._step_from_odd(odd_coeffs, spec.delta)
    assert poly.coeffs == ChebPoly.from_coeffs(
        _step_over_unique_grid(odd_coeffs, spec.delta)).coeffs
    assert verify_bounds(poly, spec) == _verify_bounds_three_grids(poly, spec)


@pytest.mark.parametrize("seed", range(24))
def test_certification_on_per_delta_grids_is_exact_for_seeded_candidates(seed):
    """Random odd series of degree <= 400, half of them erf truncations that
    overshoot 1 slightly, certify with the same floats as three separate
    evaluations and a per-candidate np.unique would give."""
    rng = np.random.default_rng(seed)
    delta = float(rng.choice([0.2, 0.05, rng.uniform(0.002, 0.9)]))
    degree = 2 * int(rng.integers(0, 200)) + 1
    if seed % 2:
        odd = chebpoly._erf_odd_coeffs(float(rng.uniform(2.0, 60.0)), degree)
    else:
        odd = np.zeros(degree + 1)
        odd[1::2] = rng.normal(size=(degree + 1) // 2) / np.arange(1, degree + 1, 2)
        odd *= rng.uniform(0.5, 3.0) / np.sum(np.abs(odd))
    eta = float(rng.choice([1e-3, 0.05, 0.5]))
    _assert_certification_unchanged(odd, StepSpec(delta, eta))
    raw = ChebPoly.from_coeffs(odd)
    assert verify_bounds(raw, StepSpec(delta, eta)) \
        == _verify_bounds_three_grids(raw, StepSpec(delta, eta))


@pytest.mark.parametrize("alpha", (0.0, 0.25, 0.5, 0.75, 1.0))
def test_certification_on_per_delta_grids_is_exact_for_sweep_schedules(alpha):
    for eps in (0.2, 0.1, 0.05, 0.025, 0.0125):
        sched = alpha_schedule(alpha, eps, 1.0)
        spec = StepSpec(sched.delta, sched.eta)
        assert verify_bounds(sched.poly, spec) \
            == _verify_bounds_three_grids(sched.poly, spec)
        odd = 2.0 * np.asarray(sched.poly.coeffs)
        odd[0::2] = 0.0
        _assert_certification_unchanged(odd, spec)


def test_per_delta_grids_are_shared_and_read_only():
    assert chebpoly._cert_grid(0.2) is chebpoly._cert_grid(0.2)
    assert chebpoly._cert_grid(0.2).size == verify_bounds(
        ChebPoly.from_coeffs([0.5, 0.5]), StepSpec(0.2, 0.5)).grid_size == 10_001
    for grid in (chebpoly._cert_grid(0.2), chebpoly._rescale_grid(0.2)):
        with pytest.raises(ValueError, match="read-only"):
            grid[0] = 0.0


def test_eval_outside_domain_rejected():
    poly = ChebPoly.from_coeffs([0.5, 0.5])
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


def test_eval_input_contract():
    poly = ChebPoly.from_coeffs([0.1, 0.3, 0.2, -0.25])
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
    assert ChebPoly.from_coeffs([0.25]).eval(np.zeros((2, 3))).shape == (2, 3)


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
    poly = ChebPoly.from_coeffs(coeffs)
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
    report = verify_bounds(ChebPoly.from_coeffs([0.5, 0.5]), spec)
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
# _minimax_path certifies 4 of these 27 builds, (delta, eta, max_degree) =
# (0.07, 0.3, 21), (0.07, 0.6, 9), (0.2, 0.6, 3) and (0.45, 0.3, 3).
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
    """The series length the builder's erf path uses at steepness k."""
    return max(int(math.ceil(12.2 * k)) + 96, 192)


@settings(max_examples=20, deadline=None)
@given(st.one_of(st.floats(0.5, 25.0), st.floats(0.5, 400.0)))
def test_erf_closed_form_matches_erf_and_interpolation(k):
    n_terms = erf_terms(k)
    coeffs = chebpoly._erf_odd_coeffs(k, n_terms)
    assert coeffs.shape == (n_terms + 1,)
    assert not coeffs[0::2].any()
    xs = np.linspace(-1.0, 1.0, 20_001)
    assert np.max(np.abs(npcheb.chebval(xs, coeffs) - erf(k * xs))) <= 1e-13
    if n_terms <= 400:  # the (n+1)^2 interpolation oracle stays under 1.3 MB
        oracle = npcheb.chebinterpolate(lambda x: erf(k * x), n_terms)
        assert np.max(np.abs(coeffs[1::2] - oracle[1::2])) <= 1e-12


def test_erf_coefficients_take_linear_memory():
    tracemalloc.start()
    try:
        chebpoly._erf_odd_coeffs(300.0, 3756)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=200, deadline=None)
@given(log_delta=st.floats(-2.0, -0.05), log_eta=st.floats(-6.0, -0.01),
       frac=st.sampled_from(chebpoly._ERF_FRACS),
       offset=st.integers(-8, 8) | st.integers(-800, 800))
def test_one_coefficient_skip_fires_only_when_the_start_degree_passes_the_cap(
        log_delta, log_eta, frac, offset):
    """Oracle: d0 from the full coefficient vector, as _erf_path computed it
    before the skip; the cap lies offset from d0, mostly close to it.  The
    single coefficient is the vector's own, bit for bit."""
    delta, eta = 10.0 ** log_delta, 10.0 ** log_eta
    plateau_err = eta * frac
    k = float(chebpoly.erfcinv(plateau_err)) / delta
    n_terms = max(int(math.ceil(12.2 * k)) + 96, 192)
    coeffs = chebpoly._erf_odd_coeffs(k, n_terms)
    tails = np.concatenate([np.cumsum(np.abs(coeffs)[::-1])[::-1][1:], [0.0]])
    d0 = int(np.flatnonzero(plateau_err + 2.0 * tails <= eta * (1.0 - 1e-9))[0])
    cap = max(d0 + offset, 1)
    m = (cap + 1) // 2
    if 2 * m + 1 <= n_terms:
        assert chebpoly._erf_odd_terms(k, m, m + 1)[0] == coeffs[2 * m + 1]
    if chebpoly._tail_over_cap(k, cap, n_terms, plateau_err, eta):
        assert d0 > cap


def test_cold_frontier_builds_few_erf_vectors(monkeypatch):
    """At delta 0.2, degrees 1, 3, 7, 15 and 21, the frontier's erf path
    passes the rough-degree check 148 times; one coefficient rules out 132
    of those steepnesses, so 16 coefficient vectors are built."""
    counts = Counter()
    over_cap, build = chebpoly._tail_over_cap, chebpoly._erf_odd_coeffs

    def counted_over_cap(*args):
        skip = over_cap(*args)
        counts.update(checked=1, skipped=int(skip))
        return skip

    monkeypatch.setattr(chebpoly, "_tail_over_cap", counted_over_cap)
    monkeypatch.setattr(chebpoly, "_erf_odd_coeffs",
                        lambda *args: counts.update(["built"]) or build(*args))
    for degree in (1, 3, 7, 15, 21):
        min_eta_for_degree(0.2, degree)
    assert counts == Counter(checked=148, skipped=132, built=16)


def test_high_degree_builds_are_small_and_search_short(monkeypatch):
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

    calls = []
    verify = chebpoly.verify_bounds

    def counting(poly, spec):
        calls.append(poly.degree)
        return verify(poly, spec)

    monkeypatch.setattr(chebpoly, "verify_bounds", counting)
    chebpoly._build_cached.cache_clear()
    assert alpha_schedule(0.0, 0.003125, 1.0).degree == 1349
    assert len(calls) <= 25


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
    """min_eta_for_degree starts its bisection at eta = 1 - 1e-9, where the
    ramp's excesses are (1e-9 - delta)/2 twice and 0, so it never fails."""
    ramp = chebpoly._step_from_odd([0.0, 1.0], delta)
    assert ramp == ChebPoly((0.5, 0.5))
    assert verify_bounds(ramp, StepSpec(delta, 1.0 - 1e-9)).passes
    assert 1e-9 <= min_eta_for_degree(delta, 1) <= 1.0 - 1e-9


def test_min_eta_degree_one_boundary():
    eta = min_eta_for_degree(0.2, 1)
    assert 0.8 - 1e-4 <= eta <= 0.8 + 1e-4


def test_min_eta_takes_no_tolerance():
    # tol=0.0 used to bisect forever and tol=nan returned 1 - 1e-9
    with pytest.raises(TypeError):
        min_eta_for_degree(0.2, 3, tol=0.0)


def test_min_eta_nonincreasing_in_degree():
    values = [min_eta_for_degree(0.2, d) for d in (1, 3, 7)]
    assert values[0] >= values[1] >= values[2]


def test_frontier_fits_each_minimax_once():
    """Each eta probe stops at its first certified candidate, so the minimax
    path only ever fits the frontier degree itself, once for every probe, and
    the probes build nothing into the build cache."""
    chebpoly._build_cached.cache_clear()
    chebpoly._minimax_fit.cache_clear()
    min_eta_for_degree(0.2, 21)
    assert chebpoly._minimax_fit.cache_info().misses == 1
    min_eta_for_degree(0.2, 15)
    assert chebpoly._minimax_fit.cache_info().misses == 2
    assert chebpoly._minimax_fit.cache_info().currsize == 2
    min_eta_for_degree(0.2, 15)  # infeasible probes rerun the minimax path
    assert chebpoly._minimax_fit.cache_info().misses == 2
    assert chebpoly._build_cached.cache_info().currsize == 0


@settings(max_examples=40, deadline=None)
@given(st.floats(0.02, 0.6), st.floats(0.005, 0.95),
       st.sampled_from(range(1, 16, 2)))
def test_first_certification_probe_agrees_with_the_build(delta, eta, degree):
    """The eta probe's stop-at-first search certifies a candidate exactly
    when the full build returns, and finds none exactly when it raises."""
    spec = StepSpec(delta, eta)
    found = chebpoly._run_search(spec, degree, stop_at_first=True).best
    try:
        build_step_approx(spec, max_degree=degree)
    except CapacityError:
        assert found is None
        return
    assert found is not None
    assert found.degree <= degree and verify_bounds(found, spec).passes


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
    odd = np.asarray(coeffs)[1::2]
    assert not any(coeffs[0::2])
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


@pytest.mark.parametrize("delta", (0.05, 0.1, 0.2, 0.3))
def test_every_minimax_fit_certifies_at_its_own_t_star(delta):
    """Sound between grid points, each fit at odd d in 3..21 certifies at
    eta = t* (1 + 1e-12), alone and as the build under a degree-d cap."""
    for degree in range(3, 22, 2):
        t_star, coeffs = chebpoly._minimax_fit(delta, degree)
        spec = StepSpec(delta, t_star * (1.0 + 1e-12))
        assert verify_bounds(chebpoly._step_from_odd(coeffs, delta), spec).passes, degree
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
    assert min_eta_for_degree(0.2, 21) == float.fromhex("0x1.4600021ad12b8p-7")
    for delta, eta, cap in ((0.07, 0.3, 21), (0.07, 0.6, 9), (0.2, 0.6, 3), (0.45, 0.3, 3)):
        got = build_step_approx(StepSpec(delta, eta), max_degree=cap).degree
        assert got == _TIGHT_CAP_DEGREES[delta, eta][(3, 9, 21).index(cap)]
    assert chebpoly._minimax_fit.cache_info().misses >= 5


def _minimax_candidates(eta):
    """The odd parts _minimax_path hands to certification at delta 0.2, degree <= 21."""
    search = chebpoly._Search(StepSpec(0.2, eta))
    tried = []
    try_odd = search.try_odd

    def recording(cand):
        tried.append(cand.odd)
        return try_odd(cand)

    search.try_odd = recording
    chebpoly._minimax_path(search, 21)
    return tried


def test_minimax_fit_reaches_certification_and_cache_safety():
    """At eta = t*, the cached fit's own coefficient tuple goes to
    certification, whatever t* says, and handing it over leaves the cache
    entry as it was."""
    _clear_candidate_caches()
    fit = chebpoly._minimax_fit(0.2, 21)
    t_star, coeffs = fit
    tried = _minimax_candidates(t_star)
    assert tried and tried[0] is coeffs and len(coeffs) == 22
    assert chebpoly._minimax_fit(0.2, 21) == fit


@pytest.mark.parametrize("delta, degree", [(0.05, 3), (0.1, 3), (0.2, 3), (0.3, 11)])
def test_certified_tight_cap_fit_is_returned(delta, degree):
    """Each fit certifies on the grid from an eta below t* + 1e-8, so a
    check of t* with that margin would refuse it; the build just above the
    grid threshold returns a certified step within the cap."""
    t_star, coeffs = chebpoly._minimax_fit(delta, degree)
    report = verify_bounds(chebpoly._step_from_odd(coeffs, delta), StepSpec(delta, 0.5))
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
