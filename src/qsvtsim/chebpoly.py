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
from scipy.special import erf, erfcinv

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
    even = [float(c) for c in coeffs[0::2]] or [0.0]
    odd = [float(c) for c in coeffs[1::2]]
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


def _cert_grids(delta):
    left = np.linspace(-1.0, -delta, 4000)
    mid = np.linspace(-delta, delta, 2001)
    right = np.linspace(delta, 1.0, 4000)
    return left, mid, right


def verify_bounds(poly, spec):
    """Certify the step bounds for poly on dense grids over [-1, 1]."""
    left, mid, right = _cert_grids(spec.delta)
    pl = poly.eval(left)
    pm = poly.eval(mid)
    pr = poly.eval(right)
    low = float(np.max(pl) - spec.eta / 2.0)
    high = float((1.0 - spec.eta / 2.0) - np.min(pr))
    all_vals = np.concatenate([pl, pm, pr])
    excess = float(np.max(np.abs(all_vals)) - 1.0)
    return BoundReport(max_low_violation=low, max_high_violation=high,
                       max_abs_excess=excess, grid_size=left.size + mid.size + right.size)


# ---------------------------------------------------------------------------
# Builder internals.  The step is produced as P(x) = (1 + q(x)) / 2 where q
# is an odd polynomial with |q| <= 1 on [-1, 1] and q >= 1 - eta on
# [delta, 1]; oddness makes the left-plateau condition automatic.


def _edge_grid(degree):
    """Chebyshev-spaced points that resolve the fast oscillation near x = 1."""
    n = min(4 * degree + 65, 4097)
    return np.cos(np.linspace(0.0, math.pi / 2.0, n))


def _rescale_grid(delta, degree):
    pieces = [
        np.abs(np.linspace(-1.0, 1.0, BOX_GRID_POINTS)),
        np.linspace(delta, 1.0, 4000),
        np.linspace(0.0, delta, 201),
        _edge_grid(degree),
    ]
    return np.unique(np.concatenate(pieces))


def _step_from_odd(odd_coeffs, delta):
    """Map an odd sign-like polynomial q to the step (1 + q)/2, renormalised.

    q is evaluated by the parity-split recurrence, which is exactly odd,
    on |x| of a uniform BOX_GRID_POINTS grid over [-1, 1] and on the
    plateau, window and edge grids; the rescale makes |q| <= 1 at every
    one of those points.  This is the candidate's only evaluation before
    verify_bounds certifies it.
    """
    d = len(odd_coeffs) - 1
    grid = _rescale_grid(delta, d)
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
        self.best_report = None
        self.closest_fail = None

    @property
    def best_degree(self):
        return self.best.degree if self.best is not None else None

    def try_odd(self, odd_coeffs):
        poly = _step_from_odd(odd_coeffs, self.spec.delta)
        return self.try_poly(poly)

    def try_poly(self, poly):
        report = verify_bounds(poly, self.spec)
        if report.passes:
            if self.best is None or poly.degree < self.best.degree:
                self.best = poly
                self.best_report = report
            return True
        badness = max(report.max_low_violation, 0.0) \
            + max(report.max_high_violation, 0.0) + max(report.max_abs_excess, 0.0)
        if self.closest_fail is None or badness < self.closest_fail[0]:
            self.closest_fail = (badness, report)
        return False


def _erf_odd_coeffs(k, n_terms):
    """Chebyshev coefficients of erf(k x) up to degree n_terms."""
    coeffs = npcheb.chebinterpolate(lambda x: erf(k * x), n_terms)
    coeffs[0::2] = 0.0  # erf is odd; the even terms are rounding dust
    return coeffs


def _erf_path(search, limit):
    """Sweep the erf steepness k, taking the smallest certified truncation.

    For each k the plateau already loses erfc(k*delta), so the Chebyshev
    tail of the truncation must fit in the remaining eta budget; the tail
    sums give a sharp starting degree which a short certification walk
    then refines.
    """
    spec = search.spec
    delta, eta = spec.delta, spec.eta
    for frac in np.geomspace(0.98, 1e-6, 24):
        plateau_err = eta * frac
        budget = eta - plateau_err
        k = float(erfcinv(plateau_err)) / delta
        rough = 2.0 * k * math.sqrt(max(math.log(4.0 / budget), 1.0))
        cap = limit if search.best_degree is None else min(limit, search.best_degree - 2)
        if cap < 1 or rough > 3.0 * cap:
            continue
        n_terms = max(int(math.ceil(12.2 * k)) + 96, 192)
        coeffs = _erf_odd_coeffs(k, n_terms)
        tails = np.concatenate([np.cumsum(np.abs(coeffs)[::-1])[::-1][1:], [0.0]])
        ok = np.flatnonzero(plateau_err + 2.0 * tails <= eta * (1.0 - 1e-9))
        if ok.size == 0:
            continue
        d0 = int(ok[0])
        if d0 % 2 == 0:
            d0 += 1
        d0 = max(d0, 1)
        if d0 > cap:
            continue
        if search.try_odd(coeffs[:d0 + 1]):
            d = d0
            while d - 2 >= 1 and search.try_odd(coeffs[:d - 1]):
                d -= 2
        else:
            for d in (d0 + 2, d0 + 4):
                if d <= cap and search.try_odd(coeffs[:d + 1]):
                    break


@lru_cache(maxsize=_CACHE_SIZE)
def _lp_minimax(delta, degree):
    """Discrete minimax fit of an odd polynomial on a Chebyshev-refined grid.

    Minimises the worst plateau shortfall t = max(1 - q) on [delta, 1]
    subject to |q| <= 1 on [0, 1]; returns the immutable pair
    (t*, coeffs), or None when the solver fails.
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
    vp = vander[plateau]

    rows = []
    rhs = []
    # 1 - q(x) <= t on the plateau
    rows.append(np.hstack([-vp, -np.ones((vp.shape[0], 1))]))
    rhs.append(np.full(vp.shape[0], -1.0))
    # |q(x)| <= 1 - margin everywhere on [0, 1]
    box = 1.0 - 1e-9
    rows.append(np.hstack([vander, np.zeros((vander.shape[0], 1))]))
    rhs.append(np.full(vander.shape[0], box))
    rows.append(np.hstack([-vander, np.zeros((vander.shape[0], 1))]))
    rhs.append(np.full(vander.shape[0], box))

    cost = np.zeros(n_var + 1)
    cost[-1] = 1.0
    bounds = [(None, None)] * n_var + [(0.0, None)]
    res = linprog(cost, A_ub=np.vstack(rows), b_ub=np.concatenate(rhs),
                  bounds=bounds, method="highs")
    if not res.success:
        return None
    full = np.zeros(degree + 1)
    full[1::2] = res.x[:n_var]
    return float(res.fun), tuple(full)


def _lp_odd_fit(delta, eta, degree):
    """Minimax coefficients when t* fits under eta with margin, else None.

    The minimax LP does not depend on eta, so _lp_minimax solves it once
    per (delta, degree).  The array returned is a fresh copy, so callers
    cannot change the cached fit.
    """
    fit = _lp_minimax(delta, degree)
    if fit is None or fit[0] > eta - _FIT_MARGIN:
        return None
    return np.array(fit[1])


def _lp_path(search, limit):
    """Bisect the smallest odd degree whose minimax fit certifies."""
    spec = search.spec
    hi_limit = min(limit, _LP_MAX_DEGREE)
    if search.best_degree is not None:
        hi_limit = min(hi_limit, search.best_degree - 2)
    if hi_limit < 3:
        return

    def feasible(d):
        coeffs = _lp_odd_fit(spec.delta, spec.eta, d)
        return coeffs is not None and search.try_odd(coeffs)

    hi = hi_limit if hi_limit % 2 == 1 else hi_limit - 1
    if not feasible(hi):
        return
    lo = 1  # degree 1 is handled separately and is known infeasible here
    while hi - lo > 2:
        mid = lo + 2 * ((hi - lo) // 4)
        if mid % 2 == 0:
            mid += 1
        if feasible(mid):
            hi = mid
        else:
            lo = mid


@lru_cache(maxsize=_CACHE_SIZE)
def _build_cached(delta, eta, max_degree):
    spec = StepSpec(delta, eta)
    search = _Search(spec)
    # Degree 1: the ramp (1 + x)/2 is optimal among affine candidates and
    # certifies exactly when eta >= 1 - delta.
    search.try_poly(ChebPoly.from_coeffs([0.5, 0.5]))
    if search.best is None or search.best.degree > 1:
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
            f"for delta={delta!r}, eta={eta!r}", report=report)
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
    return _build_cached(spec.delta, spec.eta, int(max_degree))


def degree_constant(poly, spec):
    """Empirical constant C in degree <= C * (1/delta) * ln(4/eta)."""
    return poly.degree * spec.delta / math.log(4.0 / spec.eta)


def min_eta_for_degree(delta, degree, tol=1e-4):
    """Smallest eta (to bisection tolerance) feasible at the given degree.

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
    while hi - lo > tol:
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


def write_curve_csv(poly, path, rows=1000):
    """Write rows of 'x,P(x)' sampled uniformly over [-1, 1]."""
    xs = np.linspace(-1.0, 1.0, rows)
    vals = poly.eval(xs)
    with open(path, "w", newline="") as fh:
        fh.write("x,P(x)\n")
        for x, v in zip(xs, vals):
            fh.write(f"{x:.17g},{v:.17g}\n")
