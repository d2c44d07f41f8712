"""Schedule derivation, thresholded bisection, and baseline estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from qsvtsim import estimator
from qsvtsim.chebpoly import StepSpec, verify_bounds
from qsvtsim.estimator import (EEInstance, alpha_schedule, decide_ee,
                               diag_instance, estimate_ee,
                               hadamard_test_baseline, ipe_baseline,
                               threshold_for)
from qsvtsim.blockenc import HermitianOp, _shift_denominator
from qsvtsim.sampler import Outcome, ResourceLedger, RngStream, record_shots


def test_threshold_values_at_half():
    assert threshold_for(0.5) == pytest.approx(0.3125, abs=1e-15)


def test_default_threshold_sits_inside_decision_window():
    """The cut must separate the two guaranteed plateau probabilities."""
    for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
        for eps in (0.2, 0.05):
            sched = alpha_schedule(alpha, eps, 1.0)
            lo = (sched.eta / 2.0) ** 2
            hi = (1.0 - sched.eta / 2.0) ** 2
            assert lo < sched.threshold < hi


def test_schedule_window_and_budget():
    sched = alpha_schedule(0.0, 0.2, 1.0)
    assert sched.delta == pytest.approx(0.05)
    assert sched.eta == pytest.approx(0.5)
    sched = alpha_schedule(0.5, 0.1, 2.0)
    assert sched.delta == pytest.approx(0.0125)
    assert sched.eta == pytest.approx(1.0 - 0.5 * 0.0125 ** 0.5)


def test_schedule_sample_count_formula():
    for alpha in (0.0, 0.5, 1.0):
        for eps, gamma in ((0.25, 1.0), (0.1, 1.0), (0.2, 2.0)):
            sched = alpha_schedule(alpha, eps, gamma)
            ratio = 4.0 * gamma / eps
            want = math.ceil(20.0 * ratio ** (2 * alpha) * math.ceil(math.log2(ratio)))
            assert sched.n_samples == want


def test_schedule_ramp_endpoint():
    sched = alpha_schedule(1.0, 0.25, 1.0)
    assert sched.degree == 1
    assert sched.n_samples == 20480
    assert sched.eta == pytest.approx(1.0 - sched.delta / 2.0)


def test_schedule_polynomial_is_certified():
    for alpha in (0.0, 0.5, 1.0):
        sched = alpha_schedule(alpha, 0.1, 1.0)
        report = verify_bounds(sched.poly, StepSpec(sched.delta, sched.eta))
        assert report.passes
        assert sched.degree == sched.poly.degree


def test_schedule_validation():
    with pytest.raises(ValueError):
        alpha_schedule(-0.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        alpha_schedule(1.1, 0.1, 1.0)
    with pytest.raises(ValueError):
        alpha_schedule(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        alpha_schedule(0.5, 4.0, 1.0)
    with pytest.raises(ValueError):
        alpha_schedule(0.5, 0.1, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        for name, args in (("alpha", (bad, 0.1, 1.0)), ("eps", (0.5, bad, 1.0)),
                           ("gamma", (0.5, 0.1, bad))):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                alpha_schedule(*args)
    # 4*gamma/eps, then the sample count, overflow a float
    with pytest.raises(ValueError, match="sample count overflows.*gamma=1e\\+308"):
        alpha_schedule(0.5, 0.1, 1e308)
    with pytest.raises(ValueError, match="sample count overflows.*eps=1e-300"):
        alpha_schedule(1.0, 1e-300, 1.0)
    # a finite count past what one binomial draw takes
    with pytest.raises(ValueError, match="sample count overflows.*2\\*\\*63 - 1.*eps=1e-15"):
        alpha_schedule(1.0, 1e-15, 1.0)


def test_plateau_separation_identity():
    # the gap between the two guaranteed outcome probabilities is 1 - eta
    for eta in (0.1, 0.5, 0.9):
        gap = (1.0 - eta / 2.0) ** 2 - (eta / 2.0) ** 2
        assert gap == pytest.approx(1.0 - eta, abs=1e-15)


def test_instance_validation():
    h = HermitianOp.from_matrix(np.diag([0.5, -0.25]))
    good = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        EEInstance(H=h, gamma=1.0, psi=np.array([1.0, 1.0]), true_mu=0.5)
    with pytest.raises(ValueError):
        EEInstance(H=h, gamma=1.0, psi=np.array([1.0, 0.0, 0.0]), true_mu=0.5)
    with pytest.raises(ValueError):
        EEInstance(H=h, gamma=1.0, psi=good, true_mu=0.25)
    with pytest.raises(ValueError):
        EEInstance(H=h, gamma=0.4, psi=good, true_mu=0.5)
    # NaN fails every comparison, so each field is checked for finiteness
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="gamma must be finite"):
            EEInstance(H=h, gamma=bad, psi=good, true_mu=0.5)
        with pytest.raises(ValueError, match="true_mu must be finite"):
            EEInstance(H=h, gamma=1.0, psi=good, true_mu=bad)
        with pytest.raises(ValueError, match="psi must be finite"):
            EEInstance(H=h, gamma=1.0, psi=np.array([1.0, bad]), true_mu=0.5)
    inst = EEInstance(H=h, gamma=1.0, psi=good, true_mu=0.5)
    assert inst.true_mu == 0.5


@pytest.mark.parametrize("psi", [["1", "0"], [b"1", b"0"], np.array([1.0, None])],
                         ids=["strings", "bytes", "object"])
def test_instance_refuses_a_psi_of_non_numbers(psi):
    h = HermitianOp.from_matrix(np.diag([0.5, -0.25]))
    with pytest.raises(ValueError, match="psi must hold numbers"):
        EEInstance(H=h, gamma=1.0, psi=psi, true_mu=0.5)


def test_instance_keeps_its_own_psi():
    """A frozen instance must not see later writes to the caller's array."""
    v = np.array([1.0 + 0.0j, 0.0])
    inst = EEInstance(H=HermitianOp.from_matrix(np.diag([0.5, -0.25])),
                      gamma=1.0, psi=v, true_mu=0.5)
    v[:] = [0.0, 1.0]
    assert np.array_equal(inst.psi, [1.0, 0.0])


def test_diag_instance_uses_first_entry():
    inst = diag_instance([0.5, -0.25], gamma=2.0)
    assert inst.true_mu == 0.5
    assert inst.gamma == 2.0
    assert inst.psi[0] == 1.0 + 0.0j


def test_decide_sides_far_from_cut():
    inst = diag_instance([0.5, -0.25])
    sched = alpha_schedule(0.0, 0.05, 1.0)
    led = ResourceLedger()
    assert decide_ee(inst, -0.5, sched, RngStream(0, 0), led) is Outcome.RIGHT
    assert decide_ee(inst, 0.9, sched, RngStream(0, 0), led) is Outcome.LEFT


def test_decide_updates_ledger():
    inst = diag_instance([0.5, -0.25])
    sched = alpha_schedule(0.0, 0.05, 1.0)
    led = ResourceLedger()
    decide_ee(inst, 0.0, sched, RngStream(0, 0), led)
    assert led.total_queries == sched.n_samples * sched.degree
    assert led.max_depth == sched.degree
    assert led.shots == sched.n_samples


def test_decide_rejects_mu_outside_gamma():
    inst = diag_instance([0.5, -0.25])
    sched = alpha_schedule(0.0, 0.05, 1.0)
    for use_statevector in (False, True):
        with pytest.raises(ValueError, match="mu0"):
            decide_ee(inst, 1.5, sched, RngStream(0, 0), ResourceLedger(),
                      use_statevector=use_statevector)


def test_decide_split_exactly_at_eigenvalue():
    """mu0 on the eigenvalue gives p = 1/4, below the cut for eta = 1/2.

    The LEFT/RIGHT split over seeds 0..99 is frozen from the first run.
    """
    inst = diag_instance([0.5, -0.25])
    sched = alpha_schedule(0.0, 0.05, 1.0)
    sides = [decide_ee(inst, 0.5, sched, RngStream(s, 0), ResourceLedger())
             for s in range(100)]
    assert sides.count(Outcome.LEFT) == 98
    assert sides.count(Outcome.RIGHT) == 2


def test_decide_certain_at_spectral_edge():
    inst = diag_instance([1.0])
    sched = alpha_schedule(1.0, 0.25, 1.0)
    led = ResourceLedger()
    # x maps to +1 where the ramp equals 1, so every trial lands RIGHT
    assert decide_ee(inst, -1.0, sched, RngStream(0, 0), led) is Outcome.RIGHT


def test_estimate_frozen_mid_alpha():
    inst = diag_instance([0.5, -0.25])
    mu, led = estimate_ee(inst, 0.05, 0.5, RngStream(0, 0))
    assert mu == pytest.approx(0.46875, abs=1e-15)
    assert led.total_queries == 604800
    assert led.max_depth == 9


def test_estimate_frozen_ramp_alpha():
    inst = diag_instance([0.5, -0.25])
    mu, led = estimate_ee(inst, 0.05, 1.0, RngStream(0, 0))
    assert mu == pytest.approx(0.46875, abs=1e-15)
    assert led.total_queries == 5376000
    assert led.max_depth == 1


def test_estimate_depth_equals_schedule_degree():
    """The ledger also carries the schedule the estimate ran."""
    inst = diag_instance([0.5, -0.25])
    for alpha, depth in ((0.0, 85), (0.5, 9), (1.0, 1)):
        _, led = estimate_ee(inst, 0.05, alpha, RngStream(0, 0))
        assert led.max_depth == depth
        sched = alpha_schedule(alpha, 0.05, 1.0)
        assert depth == sched.degree
        assert (led.schedule.degree, led.schedule.n_samples) == (
            sched.degree, sched.n_samples)
        assert led.schedule.poly.coeffs == sched.poly.coeffs


def error_free_decide(inst, mu0, sched, stream, ledger, use_statevector=False):
    record_shots(ledger, sched.degree, sched.n_samples)
    return Outcome.RIGHT if inst.true_mu > mu0 else Outcome.LEFT


def test_bisection_with_error_free_decisions(monkeypatch):
    """Noiseless decisions pin the iteration count and the final error."""
    monkeypatch.setattr(estimator, "decide_ee", error_free_decide)
    rng_mu = np.random.default_rng(13)
    for gamma in (1.0, 2.0):
        for eps in (0.3, 0.25, 0.1, 0.05):
            mu = float(rng_mu.uniform(-0.9, 0.9)) * gamma
            inst = diag_instance([mu, -0.1 * gamma], gamma=gamma)
            mu_hat, led = estimate_ee(inst, eps, 0.5, RngStream(0, 0))
            sched = alpha_schedule(0.5, eps, gamma)
            iters = led.iterations
            assert iters == math.ceil(math.log2(2.0 * gamma / eps))
            assert abs(mu_hat - mu) <= eps
            # each decision records n_samples shots: one iteration per decision
            assert led.shots == iters * sched.n_samples
            assert led.total_queries == iters * sched.n_samples * sched.degree


_SWEEP_CELLS = [(alpha, eps) for alpha in (0.0, 0.25, 0.5, 0.75, 1.0)
                for eps in (0.2, 0.1, 0.05, 0.025, 0.0125)]


def _integer_cut(sched):
    """The smallest hit count whose frequency exceeds the threshold."""
    n = sched.n_samples
    cut = math.floor(sched.threshold * n)
    while cut / n > sched.threshold:
        cut -= 1
    while not cut / n > sched.threshold:
        cut += 1
    return cut


@pytest.fixture(scope="module")
def exact_sweep():
    """Every node of estimate_ee's bisection tree on diag:0.5,-0.25, for each
    sweep cell, with exact binomial outcome probabilities.

    The draw is stubbed so that decide_ee's stream argument is the hit
    count it returns; each node runs decide_ee at the integer cut and one
    below it, recording p.  Per cell: the schedule, the exact probability
    that the final estimate misses mu by more than eps, and per node
    (x, P(RIGHT), P(LEFT), outcome at the cut, outcome one below).
    """
    inst = diag_instance([0.5, -0.25])
    seen = []
    cells = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "bernoulli_trials",
                   lambda p, n, hits: seen.append(p) or hits)
        for alpha, eps in _SWEEP_CELLS:
            sched = alpha_schedule(alpha, eps, inst.gamma)
            n, cut = sched.n_samples, _integer_cut(sched)
            nodes, fail = [], 0.0
            stack = [(-inst.gamma, inst.gamma, 1.0, 0.0)]
            while stack:  # (lo, hi, probability of the path, mu_hat)
                lo, hi, prob, mu_hat = stack.pop()
                if not hi - lo > eps:
                    if abs(mu_hat - inst.true_mu) > eps:
                        fail += prob
                    continue
                mu0 = 0.5 * (lo + hi)
                outcomes = [decide_ee(inst, mu0, sched, hits, ResourceLedger())
                            for hits in (cut, cut - 1)]
                p_right = float(binom.sf(cut - 1, n, seen[-1]))
                p_left = float(binom.cdf(cut - 1, n, seen[-1]))
                x = (inst.true_mu - mu0) / _shift_denominator(mu0, inst.gamma)
                nodes.append((x, p_right, p_left, *outcomes))
                stack += [(mu0, hi, prob * p_right, mu0), (lo, mu0, prob * p_left, mu0)]
            cells[alpha, eps] = (sched, fail, nodes)
    return cells


def test_decision_rule_is_an_integer_cut(exact_sweep):
    """hits / n > threshold flips from LEFT to RIGHT at one integer, so each
    decision is a binomial tail; the tree has 2^k - 1 nodes, k steps."""
    for (alpha, eps), (sched, _, nodes) in exact_sweep.items():
        assert len(nodes) == 2 ** math.ceil(math.log2(2.0 / eps)) - 1
        assert all(at is Outcome.RIGHT and below is Outcome.LEFT
                   for *_, at, below in nodes), (alpha, eps)


def test_decisions_outside_the_window_meet_hoeffding(exact_sweep):
    """At |x| >= delta a certified step puts p at least delta^alpha/4 from
    the threshold, so with n = 20 delta^(-2 alpha) L samples, L =
    ceil(log2(4 gamma/eps)), Hoeffding bounds a wrong outcome by
    exp(-2 n (delta^alpha/4)^2) = exp(-2.5 L).  2,430 of the 2,455
    decisions lie there; the largest wrong-outcome probability is 4.8e-17
    of its bound."""
    checked = 0
    for (alpha, eps), (sched, _, nodes) in exact_sweep.items():
        bound = math.exp(-2.5 * math.ceil(math.log2(4.0 / eps)))
        for x, p_right, p_left, _, _ in nodes:
            if abs(x) >= sched.delta:
                wrong = p_left if x > 0 else p_right
                assert wrong <= bound, (alpha, eps, x, wrong)
                checked += 1
    assert checked == 2430


def test_exact_failure_probability_on_the_sweep(exact_sweep):
    """P(|mu_hat - mu| > eps), summed exactly over the bisection tree, is at
    most 1e-40 on every cell.  The largest is 3.97e-46 (alpha 0, eps 0.2),
    so the bound leaves a factor 2.5e5 of headroom; ACCEPTANCE 4 asks only
    for 90 successes in 100 runs."""
    worst = max(fail for _, fail, _ in exact_sweep.values())
    assert 0.0 < worst <= 1e-40


def test_statevector_path_matches_fast_path():
    inst = diag_instance([0.5, -0.25])
    # degree 7, then degree 337 on five seeds
    for alpha, eps, seed in [(0.5, 0.1, 4)] + [(0.0, 0.0125, s) for s in range(5)]:
        fast = estimate_ee(inst, eps, alpha, RngStream(seed, 0))
        slow = estimate_ee(inst, eps, alpha, RngStream(seed, 0), use_statevector=True)
        assert fast[0] == slow[0]
        assert fast[1] == slow[1]


def test_statevector_path_accepts_near_hermitian_instance():
    """H is Hermitian within tolerance; dividing by gamma + |mu0| < 1 must
    not scale its skew past the check on the shifted operator."""
    m = np.array([[0.3, 0.1 + 0.05j], [0.1 - 0.05j + 6e-13, -0.2]])
    w, v = np.linalg.eigh(m)
    # gamma is the spectral norm, 0.3239, reached by psi's eigenvalue
    inst = EEInstance(H=HermitianOp.from_matrix(m), gamma=float(w[1]), psi=v[:, 1],
                      true_mu=float(w[1]))
    fast = estimate_ee(inst, 0.05, 0.5, RngStream(0, 0))
    slow = estimate_ee(inst, 0.05, 0.5, RngStream(0, 0), use_statevector=True)
    assert fast[0] == slow[0] == 0.28337861890870186
    assert fast[1] == slow[1]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.floats(0.05, 1.0), st.sampled_from((0.5, 0.1)),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_paths_agree_on_dense_instances_at_alpha_one(n, scale, eps_ratio, skew, seed):
    """The alpha = 1 ramp never overshoots, so the fast and statevector paths
    return the same estimate and ledger.  With gamma = scale, the shift's
    divisor gamma + |mu0| can fall below 1 and scale up any skew left within
    tolerance."""
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = 0.5 * (raw + raw.conj().T)
    m *= scale / np.max(np.abs(np.linalg.eigvalsh(m)))
    if skew:
        up = np.triu_indices(n, 1)
        m[up] += rng.uniform(-7e-13, 7e-13, len(up[0])) \
            + 1j * rng.uniform(-7e-13, 7e-13, len(up[0]))
    w, v = np.linalg.eigh(m)
    i = int(rng.integers(n))
    inst = EEInstance(H=HermitianOp.from_matrix(m), gamma=scale, psi=v[:, i],
                      true_mu=float(w[i]))
    eps = eps_ratio * scale
    fast = estimate_ee(inst, eps, 1.0, RngStream(seed, 0))
    slow = estimate_ee(inst, eps, 1.0, RngStream(seed, 0), use_statevector=True)
    assert fast[0] == slow[0]
    assert fast[1] == slow[1]


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="the degree-337 step overshoots 1 near x = 0.01024, "
                          "so the transformed operator fails its radius check")
def test_statevector_path_accepts_overshoot_eigenvalue():
    inst = diag_instance([0.010239567, -0.5])
    estimate_ee(inst, 0.0125, 0.0, RngStream(0, 0), use_statevector=True)


def test_sharp_alpha_depth_scales_like_inverse_eps():
    """At alpha = 0 the product degree * eps is stable across eps."""
    products = []
    for eps in (0.2, 0.1, 0.05):
        sched = alpha_schedule(0.0, eps, 1.0)
        products.append(sched.degree * eps)
    assert products == [pytest.approx(4.2), pytest.approx(4.3),
                        pytest.approx(4.25)]
    assert max(products) / min(products) <= 1.1


def test_degree_follows_the_depth_law_per_cell():
    """The paper's depth law D ~ (gamma/eps)^(1 - alpha), cell by cell.

    An odd q with |q| <= 1 on [-1, 1] rises at most d asin(delta) from
    q(0) = 0 (Bernstein's inequality), and a step must rise by
    1 - eta = delta^alpha/2 there, so its degree is at least
    L = delta^alpha/(2 asin delta).  The upper bound 3 L is a regression
    bound: the 25 sweep cells lie in [1.69 L, 2.84 L] and the 60 seeded
    cells in [1.0007 L, 2.83 L], the lowest being the degree-1 ramp at
    alpha = 0.88.
    """
    rng = np.random.default_rng(0)
    seeded = [(float(rng.uniform(0.0, 1.0)),
               float(10.0 ** rng.uniform(math.log10(0.0125), math.log10(0.2))))
              for _ in range(60)]
    sweep = [(alpha, eps) for alpha in (0.0, 0.25, 0.5, 0.75, 1.0)
             for eps in (0.2, 0.1, 0.05, 0.025, 0.0125)]
    for alpha, eps in sweep + seeded:
        sched = alpha_schedule(alpha, eps, 1.0)
        law = sched.delta ** alpha / (2.0 * math.asin(sched.delta))
        assert law <= sched.degree <= 3.0 * law, (alpha, eps, sched.degree / law)


def test_hadamard_baseline_degenerate():
    p_hat, led = hadamard_test_baseline(0.0, 0.1, RngStream(0, 0))
    assert p_hat == 0.0
    assert led.total_queries == 100
    assert led.max_depth == 1
    assert led.shots == 100


def test_hadamard_baseline_frozen():
    p_hat, led = hadamard_test_baseline(0.3, 0.05, RngStream(3, 0))
    assert p_hat == pytest.approx(0.295, abs=1e-15)
    assert led.total_queries == 400


def test_hadamard_baseline_accuracy():
    hits = 0
    for seed in range(100):
        p_hat, _ = hadamard_test_baseline(0.3, 0.1, RngStream(seed, 0))
        hits += abs(p_hat - 0.3) <= 0.1
    assert hits >= 90


def test_hadamard_baseline_validation():
    with pytest.raises(ValueError):
        hadamard_test_baseline(1.2, 0.1, RngStream(0, 0))
    with pytest.raises(ValueError):
        hadamard_test_baseline(0.5, 0.0, RngStream(0, 0))
    with pytest.raises(ValueError, match="trial count"):  # ceil(1e20) shots
        hadamard_test_baseline(0.5, 1e-10, RngStream(0, 0))


def test_ipe_zero_phase():
    phi_hat, led = ipe_baseline(0.0, 4, 5, RngStream(0, 0))
    assert phi_hat == 0.0
    assert led.max_depth == 8
    assert led.total_queries == 75


def test_ipe_exact_on_grid():
    """Every 4-bit phase is recovered exactly, even with one shot per bit."""
    for k in range(16):
        phi = 2.0 * math.pi * k / 16.0
        phi_hat, led = ipe_baseline(phi, 4, 1, RngStream(0, 0))
        assert phi_hat == pytest.approx(phi, abs=1e-12)
        assert led.max_depth == 8
        assert led.total_queries == 15
        assert led.shots == 4


def test_ipe_single_bit():
    phi_hat, _ = ipe_baseline(math.pi, 1, 3, RngStream(0, 0))
    assert phi_hat == pytest.approx(math.pi, abs=1e-12)


def test_ipe_validation():
    with pytest.raises(ValueError):
        ipe_baseline(0.0, 0, 1, RngStream(0, 0))
    with pytest.raises(ValueError):
        ipe_baseline(0.0, 4, 0, RngStream(0, 0))
    with pytest.raises(ValueError):
        ipe_baseline(-0.1, 4, 1, RngStream(0, 0))
    with pytest.raises(ValueError):
        ipe_baseline(2.0 * math.pi, 4, 1, RngStream(0, 0))


def test_ipe_is_deterministic_per_seed():
    a = ipe_baseline(2.0, 6, 7, RngStream(5, 0))
    b = ipe_baseline(2.0, 6, 7, RngStream(5, 0))
    assert a == b
