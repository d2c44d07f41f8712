"""Eigenvalue estimation by thresholded step-polynomial sampling.

The alpha parameter trades circuit depth against sample count: alpha = 0
uses a sharp step polynomial (deep, few shots per decision), alpha = 1
degenerates to the affine ramp (depth 1, many shots).  A binary search
over candidate eigenvalues drives one thresholded decision per bisection
step, cut at the midpoint of the achievable outcome window.
Hadamard-test and iterative-phase-estimation baselines sit at the two
classical endpoints for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blockenc import (STATE_TOL, HermitianOp, _as_state, _check_norm_bound,
                       _shift_denominator, apply_poly, right_probability,
                       shift_and_scale)
from .chebpoly import DEFAULT_MAX_DEGREE, StepSpec, build_step_approx
from .sampler import (MAX_TRIALS, Outcome, ResourceLedger, bernoulli_trials,
                      record_shots)


def _check_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class AlphaSchedule:
    """Derived parameters for one choice of (alpha, eps, gamma)."""

    delta: float
    eta: float
    n_samples: int
    threshold: float
    poly: "ChebPoly"

    @property
    def degree(self):
        return self.poly.degree


def threshold_for(eta):
    """Decision cut on the observed RIGHT frequency for a given eta: the
    midpoint of the achievable window ((eta/2)^2, (1 - eta/2)^2)."""
    return 0.5 * (1.0 - eta + 0.5 * eta * eta)


def schedule_targets(alpha, eps, gamma):
    """Check a schedule's inputs and return its (delta, eta, n_samples).

    delta = eps/(4 gamma), eta = 1 - (1/2) delta^alpha, and the per-decision
    sample count is ceil(20 * (4 gamma/eps)^(2 alpha) * ceil(log2(4 gamma/eps))).
    Requires eps < 4 gamma (delta < 1) and a sample count of at most
    MAX_TRIALS, the most one binomial draw takes.  Builds no polynomial, so
    callers can reject bad inputs before any expensive set-up.
    """
    _check_finite(alpha=alpha, eps=eps, gamma=gamma)
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if not 0.0 < eps < 4.0 * gamma:
        raise ValueError("eps must lie in (0, 4*gamma)")
    delta = eps / (4.0 * gamma)
    eta = 1.0 - 0.5 * delta ** alpha
    ratio = 4.0 * gamma / eps
    try:
        n_samples = math.ceil(20.0 * ratio ** (2.0 * alpha) * math.ceil(math.log2(ratio)))
    except OverflowError:  # ratio itself may already be inf
        n_samples = math.inf
    if n_samples > MAX_TRIALS:
        raise ValueError(f"the sample count overflows the sampler's 2**63 - 1 at "
                         f"gamma={gamma}, eps={eps}, alpha={alpha}")
    return delta, eta, n_samples


def alpha_schedule(alpha, eps, gamma, max_degree=DEFAULT_MAX_DEGREE):
    """Build the schedule: window, budget, polynomial, samples, threshold.

    The inputs are checked, and delta, eta and the sample count derived, by
    schedule_targets.
    """
    delta, eta, n_samples = schedule_targets(alpha, eps, gamma)
    poly = build_step_approx(StepSpec(delta, eta), max_degree)
    return AlphaSchedule(delta=delta, eta=eta, n_samples=n_samples,
                         threshold=threshold_for(eta), poly=poly)


@dataclass(frozen=True, eq=False)
class EEInstance:
    """Hermitian operator with a known eigenstate and its hidden eigenvalue."""

    H: HermitianOp
    gamma: float
    psi: np.ndarray
    true_mu: float

    def __post_init__(self):
        _check_finite(gamma=self.gamma, true_mu=self.true_mu)
        vec = _as_state(self.psi, self.H.dim, "psi")
        _check_norm_bound(self.H, self.gamma)
        resid = self.H.matrix @ vec - self.true_mu * vec
        if np.linalg.norm(resid) > STATE_TOL:
            raise ValueError("psi is not an eigenstate of H for true_mu")
        vec.setflags(write=False)
        object.__setattr__(self, "psi", vec)


def diag_instance(values, gamma=1.0):
    """Diagonal instance with psi fixed to the first basis vector."""
    vals = [float(v) for v in values]
    h = HermitianOp.from_matrix(np.diag(vals))
    psi = np.zeros(len(vals), dtype=complex)
    psi[0] = 1.0
    return EEInstance(H=h, gamma=float(gamma), psi=psi, true_mu=vals[0])


def _right_prob(inst, mu0, sched, use_statevector):
    """RIGHT-outcome probability for one decision at threshold mu0.

    The eigenstate fast path evaluates P at the mapped eigenvalue; the
    statevector path runs the full matrix transform and is kept for
    cross-validation.
    """
    if use_statevector:
        hp = shift_and_scale(inst.H, mu0, inst.gamma)
        return right_probability(apply_poly(hp, sched.poly), inst.psi)
    x = (inst.true_mu - mu0) / _shift_denominator(mu0, inst.gamma)
    val = sched.poly.eval(min(max(x, -1.0), 1.0))
    return min(val * val, 1.0)


def decide_ee(inst, mu0, sched, rng, ledger, use_statevector=False):
    """One thresholded LEFT/RIGHT decision at candidate eigenvalue mu0.

    Takes sched.n_samples Bernoulli trials at depth sched.degree, records
    them in the ledger, and returns RIGHT when the observed frequency
    exceeds the schedule threshold.
    """
    p = _right_prob(inst, mu0, sched, use_statevector)
    hits = bernoulli_trials(p, sched.n_samples, rng)
    record_shots(ledger, sched.degree, sched.n_samples)
    return Outcome.RIGHT if hits / sched.n_samples > sched.threshold else Outcome.LEFT


@dataclass
class EstimateLedger(ResourceLedger):
    """Ledger of one estimate_ee run, with the schedule it ran and its
    number of bisection steps."""

    schedule: AlphaSchedule = None
    iterations: int = 0


def estimate_ee(inst, eps, alpha, rng, *, max_degree=DEFAULT_MAX_DEGREE,
                use_statevector=False):
    """Binary search for the eigenvalue of inst.psi to precision ~eps.

    Each bisection step consults one thresholded decision (decide_ee) on a
    child stream (stream offset step_index * 2**16).  Returns (mu_hat,
    ledger), an EstimateLedger; total = iterations * n_samples * degree
    and max_depth = degree exactly.

    Accuracy: eps is not a hard bound.  A decision at m sees mu at
    (mu - m)/(gamma + |m|), and the step's plateaus start at delta, so it
    is reliable when |mu - m| >= w(m) = delta (gamma + |m|); |m| <= gamma
    gives w(m) <= eps/2.  If every reliable decision is right, mu stays
    within w of the current interval.  mu_hat is the centre of an interval
    of width at most 2 eps, so then |mu_hat - mu| < eps + eps/2 = 1.5 eps.
    An unreliable decision can leave mu just outside the interval, so an
    error above eps can happen: exact decision trees over 41 values of mu
    in [-0.97, 0.97] in each of the 25 acceptance-sweep cells (gamma 1)
    give it a probability of at most 5.0e-9.
    """
    sched = alpha_schedule(alpha, eps, inst.gamma, max_degree=max_degree)
    ledger = EstimateLedger(schedule=sched)
    lo, hi = -inst.gamma, inst.gamma
    mu_hat = 0.5 * (lo + hi)
    while hi - lo > eps:
        mu_hat = 0.5 * (lo + hi)
        out = decide_ee(inst, mu_hat, sched, rng.child(ledger.iterations << 16),
                        ledger, use_statevector=use_statevector)
        if out is Outcome.RIGHT:
            lo = mu_hat
        else:
            hi = mu_hat
        ledger.iterations += 1
    return mu_hat, ledger


# ---------------------------------------------------------------------------
# Baselines.


def hadamard_test_baseline(p, eps, rng):
    """Depth-1 estimate of p from ceil(1/eps^2) Bernoulli shots; the draw checks p."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    n = math.ceil(1.0 / (eps * eps))
    hits = bernoulli_trials(p, n, rng)
    ledger = record_shots(ResourceLedger(), 1, n)
    return hits / n, ledger


def ipe_baseline(phi, m, shots_per_bit, rng):
    """Estimate phi = 2 pi (0.b1 b2 ... bm) one bit at a time, LSB first.

    Round j applies the oracle M = 2**(m-j) times with the offset that
    cancels the already-measured low bits, so an exactly m-bit phase gives
    round probabilities of exactly 0 or 1 and deterministic recovery.
    Bits are taken by strict majority over shots_per_bit draws.  Ledger:
    depth 2**(m-1), total shots_per_bit * (2**m - 1).
    """
    if m < 1:
        raise ValueError("need at least one bit")
    if shots_per_bit < 1:
        raise ValueError("need at least one shot per bit")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError("phi must lie in [0, 2*pi)")
    phi_turns = phi / (2.0 * math.pi)
    bits = [0] * (m + 1)  # bits[j] is b_j once measured
    ledger = ResourceLedger()
    for j in range(1, m + 1):
        power = 2 ** (m - j)
        comp_turns = -sum(bits[k] * 2.0 ** (m - j - k) for k in range(m - j + 2, m + 1))
        frac = (power * phi_turns + comp_turns) % 1.0
        p1 = 0.5 * (1.0 - math.cos(2.0 * math.pi * frac))
        p1 = min(max(p1, 0.0), 1.0)
        ones = bernoulli_trials(p1, shots_per_bit, rng.child((j - 1) << 16))
        bits[m - j + 1] = 1 if 2 * ones > shots_per_bit else 0
        record_shots(ledger, power, shots_per_bit)
    phi_hat = 2.0 * math.pi * sum(bits[j] * 2.0 ** (-j) for j in range(1, m + 1))
    return phi_hat, ledger
