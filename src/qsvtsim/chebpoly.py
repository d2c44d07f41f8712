"""Bounded Chebyshev approximations to the unit step function.

Builds polynomials that stay within [0, eta/2] on [-1, -delta] and within
[1 - eta/2, 1] on [delta, 1] while remaining bounded by 1 everywhere on
[-1, 1], certifies those bounds on dense grids, and searches for the
smallest degree that meets a given (delta, eta) target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import chebyshev as npcheb
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

# The discrete-minimax (linear program) fit is attempted up to this degree;
# beyond it the erf-truncation path is consistently the cheaper construction.
_LP_MAX_DEGREE = 160
# Safety margin the builder keeps between a candidate's fitted bound and the
# requested eta, so that grid certification is not decided by rounding.
_FIT_MARGIN = 1e-8
# Entries kept by each builder memo.  The eta frontier at degrees up to 21
# leaves 48 builds and 10 LP fits, the 5x5 acceptance sweep 25 builds.
_CACHE_SIZE = 256
# Deltas whose certification and rescale grids are kept, about 2.8 MB.
_GRID_CACHE_SIZE = 16
# Width of the eta interval at which min_eta_for_degree stops bisecting.
_ETA_TOL = 1e-4
# Rows of the x,P(x) curve that `qsvtsim poly --emit` writes.
_CURVE_ROWS = 1000


class CapacityError(RuntimeError):
    """No certified polynomial was found within the degree budget."""

    def __init__(self, message, report=None):
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
    """Certify the step bounds for poly with one evaluation on _cert_grid."""
    vals = poly.eval(_cert_grid(spec.delta))
    low = float(np.max(vals[:_PLATEAU_POINTS]) - spec.eta / 2.0)
    high = float((1.0 - spec.eta / 2.0) - np.min(vals[-_PLATEAU_POINTS:]))
    excess = float(np.max(np.abs(vals)) - 1.0)
    return BoundReport(max_low_violation=low, max_high_violation=high,
                       max_abs_excess=excess, grid_size=vals.size)


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
    one of those points.  This is the candidate's only evaluation before
    verify_bounds certifies it.  Only the edge grid depends on the degree,
    and is appended to the per-delta points as it is: a point it repeats
    cannot change the peak.
    """
    d = len(odd_coeffs) - 1
    grid = np.concatenate([_rescale_grid(delta), _edge_grid(d)])
    peak = float(np.max(np.abs(_clenshaw_split(grid, *_split_halves(odd_coeffs)))))
    scale = 1.0 if peak <= 1.0 else (1.0 - 1e-13) / peak
    step = np.zeros(d + 1)
    step[0] = 0.5
    step[1::2] = 0.5 * scale * np.asarray(odd_coeffs)[1::2]
    return ChebPoly.from_coeffs(step)


class _Search:
    """Tracks the best certified candidate and the least-bad failure."""

    def __init__(self, spec):
        self.spec = spec
        self.best = None
        self.closest_fail = None

    def try_odd(self, odd_coeffs):
        poly = _step_from_odd(odd_coeffs, self.spec.delta)
        return self.try_poly(poly)

    def try_poly(self, poly):
        report = verify_bounds(poly, self.spec)
        if report.passes:
            if self.best is None or poly.degree < self.best.degree:
                self.best = poly
            return True
        badness = max(report.max_low_violation, 0.0) \
            + max(report.max_high_violation, 0.0) + max(report.max_abs_excess, 0.0)
        if self.closest_fail is None or badness < self.closest_fail[0]:
            self.closest_fail = (badness, report)
        return False


def _erf_odd_coeffs(k, n_terms):
    """Chebyshev coefficients c_0 .. c_{n_terms} of erf(k x), in closed form.

    The Low-Chuang expansion (arXiv:1707.05391) gives, with z = k^2/2,
    c_{2m+1} = (2k/sqrt(pi)) (-1)^m (e^{-z} I_m(z) + e^{-z} I_{m+1}(z)) / (2m+1)
    and c_{2m} = 0.  scipy's ive is e^{-z} I_m(z) itself, so nothing
    overflows, and the work and memory are O(n_terms).
    """
    m = np.arange((n_terms + 1) // 2)
    scaled = ive(np.arange(m.size + 1), 0.5 * k * k)  # e^{-z} I_j(z), j <= m.size
    sign = np.where(m % 2, -1.0, 1.0)
    coeffs = np.zeros(n_terms + 1)
    coeffs[1::2] = 2.0 * k / math.sqrt(math.pi) * sign * (scaled[:-1] + scaled[1:]) / (2 * m + 1)
    return coeffs


def _bisect_odd(feasible, lo, hi):
    """Search the odd degrees in (lo, hi] for the smallest that certifies.

    hi is certified first, and a failure there ends the search.  Otherwise
    the odd degrees between lo, taken as failing, and hi are bisected
    (lo + 2 * ((hi - lo) // 4) keeps every probe odd); the caller's search
    object records which probes certified.
    """
    if not feasible(hi):
        return
    while hi - lo > 2:
        mid = lo + 2 * ((hi - lo) // 4)
        if feasible(mid):
            hi = mid
        else:
            lo = mid


def _erf_path(search, limit):
    """Sweep the erf steepness k, taking the smallest certified truncation.

    For each k the plateau already loses erfc(k*delta), so the Chebyshev
    tail of the truncation must fit in the remaining eta budget; the tail
    sums give a starting degree d0, about 1.6x too high, and a bisection of
    the odd truncation degrees below it lowers it.
    """
    spec = search.spec
    delta, eta = spec.delta, spec.eta
    for frac in np.geomspace(0.98, 1e-6, 24).tolist():
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
        coeffs = _erf_odd_coeffs(k, n_terms)
        tails = np.concatenate([np.cumsum(np.abs(coeffs)[::-1])[::-1][1:], [0.0]])
        # Index n_terms passes (its tail is 0 and frac < 1), and the first
        # passing index is odd: even coefficients are exact zeros, so
        # tails[2m] == tails[2m - 1], and index 0 fails because its tail is
        # at least the series' value erf(k) at 1, and erfc(k delta) + 2 erf(k) > 1.
        d0 = int(np.flatnonzero(plateau_err + 2.0 * tails <= eta * (1.0 - 1e-9))[0])
        if d0 <= cap:  # lo = -1: degree 1 is still open
            _bisect_odd(lambda d: search.try_odd(coeffs[:d + 1]), -1, d0)


@lru_cache(maxsize=_CACHE_SIZE)
def _lp_minimax(delta, degree):
    """Discrete minimax fit of an odd polynomial on a Chebyshev-refined grid.

    Minimises the worst plateau shortfall t = max(1 - q) on [delta, 1]
    subject to |q| <= 1 - 1e-9 on [0, 1], over every point of the grid
    below; returns the immutable pair (t*, coeffs), or None when the solver
    fails.

    Only about one row per coefficient is active at the optimum, so the LP
    is solved by constraint generation on that same grid.  Each round
    solves it on a working set of grid points, evaluates the fit on the
    whole grid and adds the points that violate a row the most.  A
    working-set LP keeps a subset of the full LP's rows, so it relaxes the
    full LP: once its optimum violates no row at any grid point, that
    optimum is feasible for the full LP and so optimal for it.  Every round
    adds at least one new point of a finite grid, so the loop ends.
    """
    xs = np.unique(np.concatenate([
        np.linspace(0.0, 1.0, 2501),
        np.linspace(delta, 1.0, 1500),
        _edge_grid(degree),
        [delta],
    ]))
    vander = npcheb.chebvander(xs, degree)[:, 1::2]
    n_var = vander.shape[1]
    plateau = xs >= delta
    box = 1.0 - 1e-9
    cost = np.zeros(n_var + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * n_var + [(0.0, None)]
    # Start from evenly spaced points plus the plateau's inner edge.
    working = np.zeros(xs.size, dtype=bool)
    working[np.linspace(0, xs.size - 1, 8 * n_var + 8).astype(int)] = True
    working[np.searchsorted(xs, delta)] = True
    while True:
        vp = vander[working & plateau]
        vw = vander[working]
        zeros = np.zeros((vw.shape[0], 1))
        # 1 - q(x) <= t on the plateau, |q(x)| <= 1 - margin on [0, 1]
        a_ub = np.vstack([np.hstack([-vp, -np.ones((vp.shape[0], 1))]),
                          np.hstack([vw, zeros]), np.hstack([-vw, zeros])])
        b_ub = np.concatenate([np.full(vp.shape[0], -1.0),
                               np.full(2 * vw.shape[0], box)])
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
        if not res.success:
            return None
        q = vander @ res.x[:n_var]
        excess = np.abs(q) - box
        excess[plateau] = np.maximum(excess[plateau], 1.0 - q[plateau] - res.x[-1])
        excess[working] = 0.0
        new = np.flatnonzero(excess > 0.0)
        if new.size == 0:
            break
        if new.size > 4 * n_var:
            new = new[np.argpartition(excess[new], -4 * n_var)[-4 * n_var:]]
        working[new] = True
    full = np.zeros(degree + 1)
    full[1::2] = res.x[:n_var]
    return float(res.fun), tuple(full)


def _lp_path(search, limit):
    """Bisect the smallest odd degree whose minimax fit certifies.

    The odd part q of a step bounded by 1 has |q'(x)| <= d / sqrt(1 - x^2)
    (Bernstein's inequality), so it rises at most d asin(delta) from
    q(0) = 0 to q(delta) >= 1 - eta.  No degree up to hi can certify when
    hi asin(delta) < (1 - eta) / 2, and then no fit is solved; the factor 2
    leaves room for candidates that certify on the grids yet overshoot 1
    between grid points.  It runs only when no other path certified.
    """
    spec = search.spec
    hi = min(limit, _LP_MAX_DEGREE)
    if hi % 2 == 0:
        hi -= 1
    if hi < 3 or hi * math.asin(spec.delta) < (1.0 - spec.eta) / 2.0:
        return

    def feasible(d):
        fit = _lp_minimax(spec.delta, d)
        return (fit is not None and fit[0] <= spec.eta - _FIT_MARGIN
                and search.try_odd(fit[1]))

    _bisect_odd(feasible, 1, hi)  # degree 1 is the ramp, already rejected


@lru_cache(maxsize=_CACHE_SIZE)
def _build_cached(spec, max_degree):
    search = _Search(spec)
    # Degree 1: the ramp (1 + x)/2 is optimal among affine candidates and
    # certifies exactly when eta >= 1 - delta.
    search.try_poly(ChebPoly.from_coeffs([0.5, 0.5]))
    if search.best is None:
        _erf_path(search, max_degree)
    if search.best is None:
        # The kernel path found nothing under the cap.  That happens when
        # the cap is tight relative to 1/delta, where a direct minimax fit
        # on the plateau grids still has a shot at a certificate.
        _lp_path(search, max_degree)
    if search.best is None:
        report = search.closest_fail[1] if search.closest_fail else None
        raise CapacityError(
            f"no certified step polynomial of degree <= {max_degree} "
            f"for delta={spec.delta!r}, eta={spec.eta!r}", report=report)
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
    certifies every larger eta, so plain bisection applies.  The minimax LP
    behind each probe does not depend on eta, so it is solved once per
    (delta, degree) and every later probe reuses it.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")

    def feasible(eta):
        try:
            build_step_approx(StepSpec(delta, eta), max_degree=degree)
        except CapacityError:
            return False
        return True

    hi = 1.0 - 1e-9
    if not feasible(hi):
        raise CapacityError(f"degree {degree} infeasible even as eta -> 1 "
                            f"at delta={delta!r}")
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
