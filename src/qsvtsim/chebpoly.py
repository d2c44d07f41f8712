"""Bounded Chebyshev approximations to the unit step function.

Builds polynomials that stay within [0, eta/2] on [-1, -delta] and within
[1 - eta/2, 1] on [delta, 1] while remaining bounded by 1 everywhere on
[-1, 1], certifies those bounds on dense grids, and searches for the
smallest degree that meets a given (delta, eta) target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
# Unused here; perfbench's tracer wraps chebpoly.linprog by this name.
from scipy.optimize import linprog
from scipy.special import erfcinv, ive

# Certification tolerance applied to every bound violation.
GRID_TOL = 1e-9
# Uniform grid whose |x| values the rescale of every odd candidate covers.
BOX_GRID_POINTS = 10_000
# Rounding slack accepted on the evaluation domain [-1, 1].
EVAL_DOMAIN_SLACK = 1e-12
# Default degree budget of the step builder and of every caller of it.
DEFAULT_MAX_DEGREE = 4096

# The minimax (Remez exchange) fit is attempted up to this degree; beyond it
# the erf-truncation path is consistently the cheaper construction.
_MINIMAX_MAX_DEGREE = 160
# Exchange rounds of one minimax fit, and Newton steps per refined extremum.
_MAX_EXCHANGES = 40
_NEWTON_STEPS = 6
# The exchange stops once its reference errors agree to _LEVEL_TOL of E or
# to _ROUNDING; a spread above _MAX_SPREAD of E is not levelled.
_LEVEL_TOL = 1e-9
_ROUNDING = 4e-15
_MAX_SPREAD = 1e-3
# Entries kept by each builder memo.  The eta frontier at degrees up to 21
# leaves 4 minimax fits, their 4 candidates and 1 ramp, the 5x5 acceptance
# sweep 25 builds and 5 ramps, one per delta.
_CACHE_SIZE = 256
# Deltas whose certification and rescale grids are kept, about 2.8 MB.
_GRID_CACHE_SIZE = 16
# Width of the eta interval at which min_eta_for_degree stops bisecting.
_ETA_TOL = 1e-4
# Rows of the x,P(x) curve that `qsvtsim poly --emit` writes.
_CURVE_ROWS = 1000


class CapacityError(RuntimeError):
    """No certified polynomial within the budget; report is the least bad."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _split_halves(coeffs):
    """Even-index and odd-index halves of a Chebyshev series as float lists.

    Exact trailing zeros are trimmed from each half; the even half keeps at
    least its constant term, so an evaluation always has the shape of x.
    """
    arr = np.asarray(coeffs, dtype=float)
    even = arr[0::2].tolist() or [0.0]
    odd = arr[1::2].tolist()
    while len(even) > 1 and even[-1] == 0.0:
        even.pop()
    while odd and odd[-1] == 0.0:
        odd.pop()
    return even, odd


def _clenshaw_y(y, coeffs):
    """(b_0, b_1) of the recurrence b_j = c_j + 2y b_{j+1} - b_{j+2}."""
    y2 = y + y
    b0, b1 = coeffs[-1], 0.0
    for c in coeffs[-2::-1]:
        # (c + 2y b_{j+1}) - b_{j+2}, updated in place on one temporary
        b2 = y2 * b0
        b2 += c
        b2 -= b1
        b0, b1 = b2, b0
    return b0, b1


def _clenshaw_split(x, even, odd):
    """Sum over j of e_j T_{2j}(x) + o_j T_{2j+1}(x), x a float or an array.

    T_{k+2} = 2 T_2 T_k - T_{k-2} turns each half into a series in
    y = T_2(x) = 2x^2 - 1 with its own Clenshaw recurrence: T_{2j}(x) =
    T_j(y), and T_{2j+1}(x) runs through the same three-term recurrence in
    y from T_{-1}(x) = T_1(x) = x.  So the even half sums to b_0 - y b_1 and
    the odd half to x (b_0 - b_1), which is exactly odd in floating point.
    Only Python arithmetic operators are used, so a float x and an array x
    take the same rounding steps.
    """
    y = 2.0 * x * x - 1.0
    b0, b1 = _clenshaw_y(y, even)
    total = b0 - y * b1
    if odd:
        b0, b1 = _clenshaw_y(y, odd)
        total = total + x * (b0 - b1)
    return total


@dataclass(frozen=True)
class ChebPoly:
    """Polynomial in the Chebyshev basis; verify_bounds certifies |P| <= 1.

    coeffs holds (c_0, ..., c_d) for P(x) = sum_k c_k T_k(x); the degree
    and the parity are read off it.
    """

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("need at least one coefficient")
        if len(self.coeffs) > 1 and self.coeffs[-1] == 0.0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "_halves", _split_halves(self.coeffs))
        object.__setattr__(self, "_extremes", None)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def parity(self):
        """'even' or 'odd' when the other half is exactly zero, else 'none'."""
        if all(c == 0.0 for c in self.coeffs[1::2]):
            return "even"
        if all(c == 0.0 for c in self.coeffs[0::2]):
            return "odd"
        return "none"

    @classmethod
    def from_coeffs(cls, coeffs):
        """Build from a coefficient sequence, trimming exact trailing zeros."""
        arr = [float(c) for c in coeffs]
        while len(arr) > 1 and arr[-1] == 0.0:
            arr.pop()
        return cls(coeffs=tuple(arr))

    def eval(self, x):
        """Evaluate P at x in [-1, 1] by the parity-split Clenshaw recurrence.

        The even-index and odd-index halves of the series each run their own
        recurrence in y = T_2(x) (see _clenshaw_split), so a step polynomial
        (1 + q)/2 costs half a full-length recurrence.  A scalar x (Python
        or numpy number, 0-d array) gives a float computed in float
        arithmetic; anything else gives an array of x's shape, bit for bit
        equal to the scalar results.  Points within EVAL_DOMAIN_SLACK of
        [-1, 1] are clipped onto it; any other point, NaN and infinities
        included, raises ValueError.
        """
        if np.ndim(x) == 0:
            xs = float(x)
            inside = abs(xs) <= 1.0 + EVAL_DOMAIN_SLACK
            xs = min(max(xs, -1.0), 1.0)
        else:
            xs = np.asarray(x, dtype=float)
            inside = np.all(np.abs(xs) <= 1.0 + EVAL_DOMAIN_SLACK)
            xs = np.clip(xs, -1.0, 1.0)
        if not inside:
            raise ValueError("evaluation point outside [-1, 1]")
        return _clenshaw_split(xs, *self._halves)

    def _cert_extremes(self, delta):
        """Max P on the left plateau, min P on the right one, max |P| and the
        point count, all on _cert_grid(delta).

        None of them depends on eta, so they are kept for the last delta
        asked: a candidate judged again at another eta evaluates nothing.
        """
        if self._extremes is None or self._extremes[0] != delta:
            vals = self.eval(_cert_grid(delta))
            object.__setattr__(self, "_extremes", (
                delta, float(np.max(vals[:_PLATEAU_POINTS])),
                float(np.min(vals[-_PLATEAU_POINTS:])), float(np.max(np.abs(vals))), vals.size))
        return self._extremes[1:]


@dataclass(frozen=True)
class StepSpec:
    """Target for the step approximation: window half-width and error budget."""

    delta: float
    eta: float

    def __post_init__(self):
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie strictly inside (0, 1)")
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class BoundReport:
    """Signed worst-case excesses over the three step-bound conditions.

    Negative numbers mean the condition held with room to spare.  The
    report passes when every excess is at most GRID_TOL.
    """

    max_low_violation: float
    max_high_violation: float
    max_abs_excess: float
    grid_size: int

    @property
    def passes(self):
        return (self.max_low_violation <= GRID_TOL
                and self.max_high_violation <= GRID_TOL
                and self.max_abs_excess <= GRID_TOL)


# Points of the certification grid on each plateau; the window gets 2001.
_PLATEAU_POINTS = 4000


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _cert_grid(delta):
    """Read-only left plateau, window and right plateau grids, in that order."""
    grid = np.concatenate([np.linspace(-1.0, -delta, _PLATEAU_POINTS),
                           np.linspace(-delta, delta, 2001),
                           np.linspace(delta, 1.0, _PLATEAU_POINTS)])
    grid.flags.writeable = False
    return grid


def verify_bounds(poly, spec):
    """Certify the step bounds for poly from its extremes on _cert_grid."""
    low_max, high_min, peak, size = poly._cert_extremes(spec.delta)
    return BoundReport(max_low_violation=low_max - spec.eta / 2.0,
                       max_high_violation=(1.0 - spec.eta / 2.0) - high_min,
                       max_abs_excess=peak - 1.0, grid_size=size)


# ---------------------------------------------------------------------------
# Builder internals.  The step is produced as P(x) = (1 + q(x)) / 2 where q
# is an odd polynomial with |q| <= 1 on [-1, 1] and q >= 1 - eta on
# [delta, 1]; oddness makes the left-plateau condition automatic.


def _edge_grid(degree):
    """Chebyshev-spaced points that resolve the fast oscillation near x = 1."""
    n = min(4 * degree + 65, 4097)
    return np.cos(np.linspace(0.0, math.pi / 2.0, n))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _rescale_grid(delta):
    """Read-only distinct points of the box, plateau and window grids."""
    grid = np.unique(np.concatenate([
        np.abs(np.linspace(-1.0, 1.0, BOX_GRID_POINTS)),
        np.linspace(delta, 1.0, _PLATEAU_POINTS),
        np.linspace(0.0, delta, 201),
    ]))
    grid.flags.writeable = False
    return grid


def _step_from_odd(odd_coeffs, delta):
    """Map an odd sign-like polynomial q to the step (1 + q)/2, renormalised.

    q is evaluated by the parity-split recurrence, which is exactly odd,
    on |x| of a uniform BOX_GRID_POINTS grid over [-1, 1] and on the
    plateau, window and edge grids; the rescale makes |q| <= 1 at every
    one of those points.  A _Candidate makes its step once, at the first
    judgment that passes the plateau probe, and keeps it.  Only the edge
    grid depends on the degree, and is appended to the per-delta points as
    it is: a point it repeats cannot change the peak.
    """
    d = len(odd_coeffs) - 1
    grid = np.concatenate([_rescale_grid(delta), _edge_grid(d)])
    peak = float(np.max(np.abs(_clenshaw_split(grid, *_split_halves(odd_coeffs)))))
    step = np.zeros(d + 1)
    step[0] = 0.5
    step[1::2] = 0.5 * _scale_for(peak) * np.asarray(odd_coeffs)[1::2]
    return ChebPoly.from_coeffs(step)


def _scale_for(peak):
    """The rescale factor that takes a peak |q| above 1 to just below 1."""
    return 1.0 if peak <= 1.0 else (1.0 - 1e-13) / peak


# Stride of the plateau probe through the right plateau of _cert_grid.
_PROBE_STRIDE = 4


def _plateau_probe(delta):
    """Read-only view of every _PROBE_STRIDE-th right-plateau point, from delta."""
    return _cert_grid(delta)[-_PLATEAU_POINTS::_PROBE_STRIDE]


def _probe_top(odd_coeffs, delta):
    """Upper bound on the certified right-plateau minimum of q's step.

    q is evaluated once on _plateau_probe(delta).  Those points belong to
    _rescale_grid(delta) as well, and the evaluation is elementwise, so the
    probe's max|q| is at most the rescale's peak; rounded division is
    monotone, so the rescale's factor s is at most s_up = _scale_for(probe's
    max|q|).  The probe's argmin of q is a point of the certification
    grid's right plateau, where the step is at most
    0.5 + 0.5 s_up max(min q, 0) up to rounding.  A candidate whose top
    misses 1 - eta/2 by more than GRID_TOL has a max_high_violation above
    GRID_TOL, so _Candidate.misses rejects it.  The slack 8 (d + 1)^2 u sum|c_k|,
    u = 2^-53, covers the rounding of the step's coefficients 0.5 s c_k, of
    this comparison and of the two parity-split Clenshaw sums (q here, the
    step in verify_bounds), whose errors at |x| <= 1 grow like
    (d + 1)^2 u sum|c_k|.  On the acceptance sweep it is at most 1.1e-9,
    and every rejection misses by at least 1.9e-5.
    """
    q = _clenshaw_split(_plateau_probe(delta), *_split_halves(odd_coeffs))
    s_up = _scale_for(float(np.max(np.abs(q))))
    d = len(odd_coeffs) - 1
    slack = 8.0 * (d + 1) ** 2 * 2.0 ** -53 * float(np.sum(np.abs(odd_coeffs)))
    return 0.5 + 0.5 * s_up * max(float(np.min(q)), 0.0) + slack


class _Candidate:
    """An odd q with its eta-free work, judged against any eta in O(1).

    top is the plateau probe's bound (_probe_top); step is the rescaled
    step, made at the first judgment that passes the probe, and the step
    keeps its certificate extremes (ChebPoly._cert_extremes).  The ramp and
    the minimax fits, which every frontier probe judges again, are cached
    as candidates; an erf truncation is made afresh each time.
    """

    def __init__(self, odd_coeffs, delta):
        self.odd = odd_coeffs
        self.delta = delta
        self.top = _probe_top(odd_coeffs, delta)

    def misses(self, eta):
        """True when the probe shows the step must fail verify_bounds."""
        return self.top < 1.0 - eta / 2.0 - GRID_TOL

    @cached_property
    def step(self):
        return _step_from_odd(self.odd, self.delta)


@lru_cache(maxsize=_CACHE_SIZE)
def _ramp(delta):
    """Degree 1: q = x, rescaled by exactly 1 to the ramp (1 + x)/2.

    It is optimal among affine candidates and certifies exactly when
    eta >= 1 - delta.
    """
    return _Candidate((0.0, 1.0), delta)


def _badness(report):
    return max(report.max_low_violation, 0.0) \
        + max(report.max_high_violation, 0.0) + max(report.max_abs_excess, 0.0)


class _Certified(Exception):
    """Ends a search that stops at its first certified candidate."""


class _Search:
    """Tracks the best certified candidate and every failure, in order.

    Each certified candidate has a lower degree than any before it, so it
    replaces best outright; with stop_at_first, the first one raises
    _Certified instead.  A failure, rejected by the probe or by
    verify_bounds, is kept as its _Candidate; least_bad computes their
    reports, which only a CapacityError needs.
    """

    def __init__(self, spec, stop_at_first=False):
        self.spec = spec
        self.stop_at_first = stop_at_first
        self.best = None
        self.failures = []

    def try_odd(self, cand):
        if not cand.misses(self.spec.eta) and verify_bounds(cand.step, self.spec).passes:
            self.best = cand.step
            if self.stop_at_first:
                raise _Certified
            return True
        self.failures.append(cand)
        return False

    def least_bad(self):
        """The failure with the smallest summed excess, the first on ties."""
        return min((verify_bounds(f.step, self.spec) for f in self.failures), key=_badness)


def _erf_odd_terms(k, m_lo, m_hi):
    """Chebyshev coefficients c_{2m+1} of erf(k x) for m_lo <= m < m_hi.

    The Low-Chuang expansion (arXiv:1707.05391) gives, with z = k^2/2,
    c_{2m+1} = (2k/sqrt(pi)) (-1)^m (e^{-z} I_m(z) + e^{-z} I_{m+1}(z)) / (2m+1).
    scipy's ive is e^{-z} I_m(z) itself, so nothing overflows.  Each term
    takes the same float steps whatever the range around it.
    """
    m = np.arange(m_lo, m_hi)
    scaled = ive(np.arange(m_lo, m_hi + 1), 0.5 * k * k)  # e^{-z} I_j(z), m_lo <= j <= m_hi
    sign = np.where(m % 2, -1.0, 1.0)
    return 2.0 * k / math.sqrt(math.pi) * sign * (scaled[:-1] + scaled[1:]) / (2 * m + 1)


def _erf_odd_coeffs(k, n_terms):
    """Chebyshev coefficients c_0 .. c_{n_terms} of erf(k x), in closed form.

    The even ones are zero; the work and memory are O(n_terms).
    """
    coeffs = np.zeros(n_terms + 1)
    coeffs[1::2] = _erf_odd_terms(k, 0, (n_terms + 1) // 2)
    return coeffs


def _tail_over_cap(k, cap, n_terms, plateau_err, eta):
    """True when c_j of erf(k x), j the first odd index above cap, alone
    breaks the budget that _erf_path's start degree d0 must fit.

    Every tail at an index up to cap sums |c_j| among nonnegative terms, so
    in floating point too it is at least |c_j|, and then every such index
    fails: d0 > cap.  A j past n_terms is in no tail and decides nothing.
    """
    m = (cap + 1) // 2
    if 2 * m + 1 > n_terms:
        return False
    return plateau_err + 2.0 * abs(_erf_odd_terms(k, m, m + 1)[0]) > eta * (1.0 - 1e-9)


def _bisect_odd(feasible, lo, hi):
    """Search the odd degrees in (lo, hi] for the smallest that certifies.

    hi is certified first, and a failure there ends the search.  Otherwise
    the odd degrees between lo, taken as failing, and hi are bisected
    (lo + 2 * ((hi - lo) // 4) keeps every probe odd); the caller's search
    object records which probes certified.  Returns the smallest degree
    found feasible, or None when hi is not.
    """
    if not feasible(hi):
        return None
    while hi - lo > 2:
        mid = lo + 2 * ((hi - lo) // 4)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# Plateau losses erfc(k delta), as fractions of eta, that _erf_path tries.
_ERF_FRACS = tuple(np.geomspace(0.98, 1e-6, 24).tolist())


def _erf_path(search, limit):
    """Sweep the erf steepness k, taking the smallest certified truncation.

    For each k the plateau already loses erfc(k*delta), so the Chebyshev
    tail of the truncation must fit in the remaining eta budget; the tail
    sums give a starting degree d0, about 1.6x too high, and a bisection of
    the odd truncation degrees below it lowers it.  A k whose d0 must pass
    the cap, by its rough degree or by one coefficient (_tail_over_cap), is
    skipped before its coefficients are built.
    """
    spec = search.spec
    delta, eta = spec.delta, spec.eta
    for frac in _ERF_FRACS:
        plateau_err = eta * frac
        budget = eta - plateau_err
        if budget <= 0.0:  # a subnormal eta: eta * frac rounds back to eta
            continue
        k = float(erfcinv(plateau_err)) / delta
        rough = 2.0 * k * math.sqrt(max(math.log(4.0 / budget), 1.0))
        cap = limit if search.best is None else min(limit, search.best.degree - 2)
        if rough > 3.0 * cap:
            continue
        n_terms = max(int(math.ceil(12.2 * k)) + 96, 192)
        if _tail_over_cap(k, cap, n_terms, plateau_err, eta):
            continue
        coeffs = _erf_odd_coeffs(k, n_terms)
        tails = np.concatenate([np.cumsum(np.abs(coeffs)[::-1])[::-1][1:], [0.0]])
        # Index n_terms passes (its tail is 0 and frac < 1), and the first
        # passing index is odd: even coefficients are exact zeros, so
        # tails[2m] == tails[2m - 1], and index 0 fails because its tail is
        # at least the series' value erf(k) at 1, and erfc(k delta) + 2 erf(k) > 1.
        d0 = int(np.flatnonzero(plateau_err + 2.0 * tails <= eta * (1.0 - 1e-9))[0])
        if d0 <= cap:  # lo = -1: degree 1 is still open
            _bisect_odd(lambda d: search.try_odd(_Candidate(coeffs[:d + 1], delta)), -1, d0)


def _odd_cos_sums(theta, odd):
    """sum_j a_j cos((2j+1) theta) and its first two derivatives in theta."""
    k = 2.0 * np.arange(odd.size) + 1.0
    arg = np.multiply.outer(theta, k)
    cos = np.cos(arg)
    return cos @ odd, np.sin(arg) @ (-k * odd), cos @ (-k * k * odd)


def _refined_extrema(grid, vals, odd):
    """Interior local extrema of a sampled cosine sum, refined by Newton.

    Newton runs on the analytic theta-derivative, and each step stays
    between the neighbours of the grid point it started from.
    """
    slope = np.diff(vals)
    idx = np.flatnonzero(slope[:-1] * slope[1:] <= 0.0) + 1
    lo, hi, theta = grid[idx - 1], grid[idx + 1], grid[idx]
    for _ in range(_NEWTON_STEPS):
        _, d1, d2 = _odd_cos_sums(theta, odd)
        step = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0.0)
        theta = np.clip(theta - step, lo, hi)
    return theta


def _alternating(err, count):
    """Indices, in order, of at most count extrema whose errors alternate in sign.

    Runs of one sign keep their largest |err|; then the end with the
    smaller |err| goes while too many remain, so the largest stays.
    """
    keep = []
    for i, e in enumerate(err.tolist()):
        if keep and (e > 0.0) == (err[keep[-1]] > 0.0):
            if abs(e) > abs(err[keep[-1]]):
                keep[-1] = i
        else:
            keep.append(i)
    while len(keep) > count:
        del keep[0 if abs(err[keep[0]]) <= abs(err[keep[-1]]) else -1]
    return keep


@lru_cache(maxsize=_CACHE_SIZE)
def _minimax_fit(delta, degree):
    """Best odd uniform approximation to 1 on [delta, 1], by Remez exchange.

    Returns the immutable pair (t*, coeffs) of an odd polynomial q with
    max |q| = 1 - 1e-13 on [0, 1] and t* = 1 - min q on [delta, 1], or None
    when the exchange cannot level its error.

    The exchange works in theta, x = cos(theta), on the odd basis
    cos((2j+1) theta), j < n = (degree + 1)/2, over [0, acos(delta)].  Odd
    polynomials x r(x^2) form a Haar space on [delta, 1], so the best p has
    an error 1 - p that alternates with equal size E on n + 1 points.  Each
    round levels the error on a reference of n + 1 points.  With the
    barycentric weights w_i of the nodes y_i = x_i^2, the interpolant of
    the values (1 -+ h)/x_i is an r of degree n - 1 exactly when the sum of
    w_i times those values vanishes, which gives h in closed form; the
    coefficients then solve the interpolation, with two steps of iterative
    refinement.  The error's extrema, found on a grid uniform in the
    arcsine angle of y and refined by Newton, make the next reference.  The
    rounds stop once the reference errors agree to _LEVEL_TOL of E, or to
    _ROUNDING, the spread that float64 evaluation leaves; a fit whose
    errors then still differ by more than _MAX_SPREAD of E is not levelled.

    p is then scaled so that its Newton-refined peak of |p| on [0, 1] is
    1 - 1e-13 (_scale_for), so the box |q| <= 1 holds between grid points
    too and needs no constraint of its own.
    """
    n = (degree + 1) // 2
    edge = math.acos(delta)
    mid, half = 0.5 * (1.0 + delta * delta), 0.5 * (1.0 - delta * delta)

    def thetas(count):  # arcsine-spaced in y = x^2, from x = 1 to x = delta
        phi = np.linspace(0.0, math.pi, count)
        theta = np.arccos(np.sqrt(mid + half * np.cos(phi)))
        theta[0], theta[-1] = 0.0, edge
        return theta

    k = 2.0 * np.arange(n) + 1.0
    grid = thetas(16 * n + 17)
    on_grid = np.cos(np.multiply.outer(grid, k))
    ref = thetas(n + 1)
    signs = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    # A degenerate reference yields infinities or NaNs, never a warning.
    with np.errstate(all="ignore"):
        for _ in range(_MAX_EXCHANGES):
            x = np.cos(ref)
            # gaps in y over an interval of length 4 keep the products near 1
            gaps = np.subtract.outer(x * x, x * x) * (2.0 / half)
            np.fill_diagonal(gaps, 1.0)
            w_over_x = 1.0 / (x * np.prod(gaps, axis=1))
            h = float(np.sum(w_over_x) / np.sum(signs * w_over_x))
            if not math.isfinite(h):
                return None
            vals = 1.0 - signs * h
            vand = np.cos(np.multiply.outer(ref, k))
            try:
                odd = np.linalg.lstsq(vand, vals, rcond=None)[0]
                for _ in range(2):  # iterative refinement
                    odd += np.linalg.lstsq(vand, vals - vand @ odd, rcond=None)[0]
            except np.linalg.LinAlgError:
                return None
            inner = _refined_extrema(grid, on_grid @ odd, odd)
            cand = np.sort(np.concatenate([[0.0], inner, [edge]]))
            err = 1.0 - _odd_cos_sums(cand, odd)[0]
            keep = _alternating(err, n + 1)
            if len(keep) < n + 1:
                return None
            mags = np.abs(err[keep])
            spread = float(mags.max() - mags.min())
            if spread <= _LEVEL_TOL * mags.max() + _ROUNDING:
                break
            ref = cand[keep]
        else:
            return None
        if spread > _MAX_SPREAD * mags.max():
            return None
        # [0, delta] in x; about 25 points per period of cos(degree theta)
        window = np.linspace(edge, 0.5 * math.pi, int(4 * degree * (0.5 * math.pi - edge)) + 8)
        on_window = _odd_cos_sums(window, odd)[0]
        peaks = np.concatenate([cand, window, _refined_extrema(window, on_window, odd)])
        odd = _scale_for(float(np.max(np.abs(_odd_cos_sums(peaks, odd)[0])))) * odd
        t_star = 1.0 - float(np.min(_odd_cos_sums(cand, odd)[0]))
    full = np.zeros(degree + 1)
    full[1::2] = odd
    return t_star, tuple(full.tolist())


@lru_cache(maxsize=_CACHE_SIZE)
def _fit_candidate(delta, degree):
    """The minimax fit's _Candidate, or None where _minimax_fit has no fit."""
    fit = _minimax_fit(delta, degree)
    return None if fit is None else _Candidate(fit[1], delta)


def _minimax_path(search, limit):
    """Bisect the smallest odd degree whose minimax fit certifies.

    The odd part q of a step bounded by 1 has |q'(x)| <= d / sqrt(1 - x^2)
    (Bernstein's inequality), so it rises at most d asin(delta) from
    q(0) = 0 to q(delta) >= 1 - eta.  No degree up to hi can certify when
    hi asin(delta) < (1 - eta) / 2, and then no fit is made; the factor 2
    leaves room for candidates that certify on the grids yet overshoot 1
    between grid points.  It runs only when no other path certified, and
    search.try_odd alone judges each fit, as it does every candidate.

    The exchange cannot level once E nears float64 rounding, which happens
    from some degree on (from 21 at delta 0.9, from 53 at 0.45).  When the
    fit at hi is None, hi first drops to the largest odd degree that has a
    fit, found by a bisection of the None fits, which take milliseconds.
    """
    spec = search.spec
    hi = min(limit, _MINIMAX_MAX_DEGREE)
    if hi % 2 == 0:
        hi -= 1
    if hi < 3 or hi * math.asin(spec.delta) < (1.0 - spec.eta) / 2.0:
        return
    if _minimax_fit(spec.delta, hi) is None:
        hi = _bisect_odd(lambda d: _minimax_fit(spec.delta, d) is None, 1, hi) - 2
        if hi < 3:
            return

    def feasible(d):
        cand = _fit_candidate(spec.delta, d)
        return cand is not None and search.try_odd(cand)

    _bisect_odd(feasible, 1, hi)  # degree 1 is the ramp, already rejected


def _run_search(spec, max_degree, stop_at_first=False):
    """Run the ramp, the erf path and the minimax path; return the _Search.

    The search keeps lowering the certified degree, or with stop_at_first
    ends at the first certified candidate, leaving it as best.
    """
    search = _Search(spec, stop_at_first)
    try:
        search.try_odd(_ramp(spec.delta))
        if search.best is None:
            _erf_path(search, max_degree)
        if search.best is None:
            # The kernel path found nothing under the cap.  That happens
            # when the cap is tight relative to 1/delta, where the best
            # uniform fit on the plateau still has a shot at a certificate.
            _minimax_path(search, max_degree)
    except _Certified:
        pass
    return search


@lru_cache(maxsize=_CACHE_SIZE)
def _build_cached(spec, max_degree):
    search = _run_search(spec, max_degree)
    if search.best is None:  # the ramp's report is among the failures
        raise CapacityError(
            f"no certified step polynomial of degree <= {max_degree} "
            f"for delta={spec.delta!r}, eta={spec.eta!r}", report=search.least_bad())
    return search.best


def build_step_approx(spec, max_degree=DEFAULT_MAX_DEGREE):
    """Return a certified step polynomial of the smallest degree found.

    Args:
        spec: StepSpec with the window half-width delta and budget eta.
        max_degree: degree budget; exceeded -> CapacityError carrying the
            least-violating BoundReport seen.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    return _build_cached(spec, int(max_degree))


def degree_constant(poly, spec):
    """Empirical constant C in degree <= C * (1/delta) * ln(4/eta)."""
    return poly.degree * spec.delta / math.log(4.0 / spec.eta)


def min_eta_for_degree(delta, degree):
    """Smallest eta, to within _ETA_TOL, feasible at the given degree.

    Feasibility is monotone in eta: any polynomial certified for eta also
    certifies every larger eta, so plain bisection applies.

    A probe asks whether build_step_approx(StepSpec(delta, eta), degree)
    would return, that is whether any candidate certifies.  It runs the
    builder's own search but stops at its first certified candidate, where
    the build goes on to look for a lower degree.  No step before that
    candidate depends on a later one, so the two take the same steps up to
    it, and the probe is True exactly when the build returns.  The minimax
    path then fits only the degree it tries first, the largest odd one
    within the budget that has a fit.  Neither that fit nor the ramp
    depends on eta: each is fitted, probed, rescaled and evaluated on the
    certification grid once per (delta, degree), and every later probe
    judges it again in O(1).  Probes add nothing to the build cache.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    limit = int(degree)

    def feasible(eta):
        search = _run_search(StepSpec(delta, eta), limit, stop_at_first=True)
        return search.best is not None

    # The ramp certifies at hi for every delta in (0, 1): its excesses are
    # (1e-9 - delta)/2 twice and 0, all within GRID_TOL.
    hi = 1.0 - 1e-9
    lo = 1e-9
    if feasible(lo):
        return lo
    while hi - lo > _ETA_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Serialization.


def to_text(poly):
    """Plain-text form: a degree line, a parity line, then one c_k per line.

    This is what `qsvtsim poly --save` writes; nothing reads it back.
    """
    lines = [f"degree {poly.degree}", f"parity {poly.parity}"]
    for k, c in enumerate(poly.coeffs):
        lines.append(f"c_{k} {c:.17g}")
    return "\n".join(lines) + "\n"


def write_curve_csv(poly, path):
    """Write _CURVE_ROWS rows of 'x,P(x)' sampled uniformly over [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, _CURVE_ROWS)
    vals = poly.eval(xs)
    with open(path, "w", newline="") as fh:
        fh.write("x,P(x)\n")
        for x, v in zip(xs, vals):
            fh.write(f"{x:.17g},{v:.17g}\n")
