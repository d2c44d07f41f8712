"""Bounded Chebyshev approximations to the unit step function.

Builds polynomials that stay within [0, eta/2] on [-1, -delta] and within
[1 - eta/2, 1] on [delta, 1] while remaining bounded by 1 everywhere on
[-1, 1], certifies those bounds on one grid of points ±x, and searches for
the smallest degree that meets a given (delta, eta) target.  A cheap plateau
probe steers the search: one forward pass of the Chebyshev recurrence
probes every truncation of an erf series at once.  The candidate the search
would return is then judged from a single evaluation of its odd part on the
points x >= 0 of that grid, and a failed judgment reruns the search judging
every probe survivor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np
# Unused here; perfbench's tracer wraps chebpoly.linprog by this name.
from scipy.optimize import linprog
from scipy.special import erfcinv, ive

from .sampler import as_int

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
# The eta frontier fits up to this degree; above it, it answers only where
# the fit here reaches the 1e-9 floor.  A fit's memory grows as d^2:
# on a shared 2-core machine one peaked at 57 MB in 0.5 s at (delta 0.2,
# degree 801) and at 88 MB in 10 s at (0.01, 1201).
_FRONTIER_MAX_DEGREE = 801
# Entries kept by the build and minimax-fit memos: a cold 5x5 acceptance
# sweep leaves 25 builds, a cold eta frontier at degrees 1, 3, 7, 15 and 21
# leaves 4 fits.  No memo is keyed by a candidate (see _Search).
_CACHE_SIZE = 256
# Deltas whose rescale grid and plateau probe are kept (_delta_points): 16
# entries hold 2.0 MB by tracemalloc, each 11,707 grid points and the
# 4,000-point plateau that the probe views.
_GRID_CACHE_SIZE = 16
# Rows of the x,P(x) curve that `qsvtsim poly --emit` writes.
_CURVE_ROWS = 1000


class CapacityError(RuntimeError):
    """No certified polynomial within the budget; report is the least bad."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _split_halves(coeffs):
    """Even-index and odd-index halves of a Chebyshev series as float lists.

    Each half is cut once, after its last nonzero entry, so exact trailing
    zeros go; the even half keeps at least its constant term, so an
    evaluation always has the shape of x.
    """
    arr = np.asarray(coeffs, dtype=float)
    halves = []
    for half in (arr[0::2], arr[1::2]):
        nonzero = np.flatnonzero(half)
        halves.append(half[:nonzero[-1] + 1 if nonzero.size else 0].tolist())
    even, odd = halves
    return even or arr[:1].tolist() or [0.0], odd


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
    and the parity are read off it.  The constructor takes any nonempty 1-D
    sequence of finite real numbers, trims exact trailing zeros but keeps
    c_0, and stores a tuple of floats; anything else, strings and complex
    numbers included, raises ValueError.
    """

    coeffs: tuple

    def __post_init__(self):
        try:
            arr = np.asarray(self.coeffs)
        except (TypeError, ValueError):  # a ragged nesting
            arr = np.asarray(None)
        # strings, bytes, objects and complex numbers are not real numbers
        arr = arr.astype(float) if arr.dtype.kind in "biuf" else None
        if arr is None or arr.ndim != 1 or arr.size == 0 or not np.isfinite(arr).all():
            raise ValueError("coeffs must be a nonempty 1-D sequence of finite numbers")
        arr = arr[:len(np.trim_zeros(arr, "b")) or 1]
        arr.setflags(write=False)  # apply_poly contracts its stack with it
        object.__setattr__(self, "coeffs", tuple(arr.tolist()))
        object.__setattr__(self, "_array", arr)
        object.__setattr__(self, "_halves", _split_halves(arr))

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

    def eval(self, x):
        """Evaluate P at x in [-1, 1] by the parity-split Clenshaw recurrence.

        The even-index and odd-index halves of the series each run their own
        recurrence in y = T_2(x) (see _clenshaw_split), so a step polynomial
        (1 + q)/2 costs half a full-length recurrence.  A scalar x (Python
        or numpy real number, 0-d array) gives a float computed in float
        arithmetic; any other real array-like gives an array of x's shape,
        bit for bit equal to the scalar results.  Points within
        EVAL_DOMAIN_SLACK of [-1, 1] are clipped onto it; any other point,
        NaN and infinities included, raises ValueError, and so does x that
        is not real: strings, bytes, objects and complex numbers.
        """
        if type(x) is not float:
            arr = np.asarray(x)
            if arr.dtype.kind not in "biuf":
                raise ValueError(f"evaluation points must be real numbers, got {arr.dtype}")
            if arr.ndim == 0:
                return self.eval(float(arr))
            xs = np.asarray(arr, dtype=float)
            if not np.all(np.abs(xs) <= 1.0 + EVAL_DOMAIN_SLACK):
                raise ValueError("evaluation point outside [-1, 1]")
            return _clenshaw_split(np.clip(xs, -1.0, 1.0), *self._halves)
        if not abs(x) <= 1.0 + EVAL_DOMAIN_SLACK:
            raise ValueError("evaluation point outside [-1, 1]")
        return _clenshaw_split(min(max(x, -1.0), 1.0), *self._halves)


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


# Points of the uniform plateau grid, which the rescale grid contains, and
# the stride of the plateau probe through it.
_PLATEAU_POINTS = 4000
_PROBE_STRIDE = 4


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _delta_points(delta):
    """Read-only (rescale grid, plateau probe) of one delta.

    The rescale grid is the distinct points of the box, plateau and window
    grids; the probe is every _PROBE_STRIDE-th point of the same uniform
    plateau grid, from delta, so each probe point is a rescale-grid point.
    """
    plateau = np.linspace(delta, 1.0, _PLATEAU_POINTS)
    grid = np.unique(np.concatenate([
        np.abs(np.linspace(-1.0, 1.0, BOX_GRID_POINTS)), plateau,
        np.linspace(0.0, delta, 201),
    ]))
    probe = plateau[::_PROBE_STRIDE]
    grid.flags.writeable = probe.flags.writeable = False
    return grid, probe


def _grid_points(delta, degree):
    """The points x >= 0 of the certification grid, which is their ±x.

    They are delta's rescale grid, then min(4 degree + 65, 4097)
    Chebyshev-spaced points that resolve the fast oscillation near x = 1,
    appended as they are: a point they repeat changes no extreme.
    """
    edge = np.cos(np.linspace(0.0, math.pi / 2.0, min(4 * degree + 65, 4097)))
    return np.concatenate([_delta_points(delta)[0], edge])


def verify_bounds(poly, spec):
    """Certify the step bounds for poly from its values on the ±grid.

    poly is evaluated by ChebPoly.eval at ±x for every x of
    _grid_points(spec.delta, poly.degree); the plateaus are |x| >= delta.
    The builder judges its candidates by _judge instead.
    """
    points = _grid_points(spec.delta, poly.degree)
    vals = poly.eval(np.concatenate([-points, points]))
    left, right = vals[:points.size], vals[points.size:]
    plateau = points >= spec.delta
    return BoundReport(max_low_violation=float(np.max(left[plateau])) - spec.eta / 2.0,
                       max_high_violation=(1.0 - spec.eta / 2.0) - float(np.min(right[plateau])),
                       max_abs_excess=float(np.max(np.abs(vals))) - 1.0, grid_size=vals.size)


# ---------------------------------------------------------------------------
# Builder internals.  The step is produced as P(x) = (1 + q(x)) / 2 where q
# is an odd polynomial with |q| <= 1 on [-1, 1] and q >= 1 - eta on
# [delta, 1]; oddness makes the left-plateau condition automatic.


def _odd_extremes(odd, delta):
    """max|q|, min q over the points >= delta, and the ±grid's point count.

    q, given as odd = (c_1, c_3, ..., c_d), is evaluated once on
    _grid_points(delta, d).  The parity-split recurrence is
    exactly odd, so q(-x) = -q(x) and these are q's extremes on the ±grid.
    None of them depends on eta.
    """
    points = _grid_points(delta, 2 * len(odd) - 1)
    q = _clenshaw_split(points, (0.0,), odd)
    return float(np.max(np.abs(q))), float(np.min(q[points >= delta])), 2 * points.size


def _scale_for(peak):
    """The rescale factor that takes a peak |q| above 1 to just below 1."""
    return 1.0 if peak <= 1.0 else (1.0 - 1e-13) / peak


def _step_from_odd(odd, peak):
    """Map an odd sign-like q, odd = (c_1, c_3, ..., c_d), to the step (1 + s q)/2.

    peak is max|q| on the grid points (_odd_extremes) and s = _scale_for(peak),
    so |s q| <= 1 at every point of the ±grid.  The work is O(d).
    """
    step = np.zeros(2 * len(odd))
    step[0] = 0.5
    step[1::2] = 0.5 * _scale_for(peak) * np.asarray(odd)
    return ChebPoly(step)


def _judge(extremes, spec):
    """The BoundReport of q's step, read off q's _odd_extremes on the ±grid.

    With h = 0.5 s the step is P = 0.5 + h q: its left-plateau maximum is
    0.5 - h min q, its right-plateau minimum 0.5 + h min q and its peak
    |P| is 0.5 + h max|q|, all over the points >= delta.  verify_bounds on
    _step_from_odd(odd, peak) evaluates P itself on the same points, so
    the two differ only by rounding: h times the Clenshaw sum of q against
    the Clenshaw sum of the coefficients h c_k, each off by at most about
    (d + 1)^2 u sum|h c_k|, u = 2^-53, plus an ulp in each final
    difference; grid_size is equal.  Over the 395 candidates judged by the
    acceptance sweep, the delta = 0.2 frontier and test_build_scan's 125
    builds, the fields agree to 2.6e-14 and no verdict differs.
    """
    peak, q_min, size = extremes
    h = 0.5 * _scale_for(peak)
    return BoundReport(max_low_violation=(0.5 - h * q_min) - spec.eta / 2.0,
                       max_high_violation=(1.0 - spec.eta / 2.0) - (0.5 + h * q_min),
                       max_abs_excess=(0.5 + h * peak) - 1.0, grid_size=size)


# Rows of a forward pass's block: 16 x 1,000 floats stay under glibc's 128 KiB
# mmap threshold; in short sweep_cold runs 32 rows read 0.15 MB more peak RSS.
_PASS_ROWS = 16


def _prefix_extremes(odd, x):
    """min S_m and max|S_m| on the points x of every partial sum of q.

    S_m = sum_{j<m} c_j T_{2j+1}(x), 1 <= m <= n = len(odd), come from one
    forward pass: T_{2j+3} = 2 T_2 T_{2j+1} - T_{2j-1} from T_{-1} = T_1 =
    x, with T_2 = y = 2x^2 - 1 rounded as in _clenshaw_split.  Rows are made
    _PASS_ROWS at a time, scaled by c_j and summed down the block onto the
    carried S, so n rows are made in one block's memory.  Each S_m is
    within e_m = (d + 1)^2 u sum_{j<m} |c_j|, d = 2m - 1, u = 2^-53, of
    the exact sum at (x, y), and so is _clenshaw_split on odd[:m] (see
    _judge); so the two, and their extremes, differ by at most 2 e_m.
    """
    n = len(odd)
    y = 2.0 * x * x - 1.0
    y2 = y + y
    coeffs = np.asarray(odd)
    low, peak = np.empty(n), np.empty(n)
    older, old, total = x, x, 0.0  # T_{-1}, T_1 and the empty sum
    for start in range(0, n, _PASS_ROWS):
        block = rows = np.empty((min(_PASS_ROWS, n - start), x.size))
        if start == 0:  # row 0 is T_1 itself; the recurrence starts at T_3
            block[0] = x
            rows = block[1:]
        for row in rows:
            np.multiply(y2, old, out=row)
            row -= older
            older, old = old, row
        older, old = older.copy(), old.copy()  # the rows are scaled in place next
        block *= coeffs[start:start + len(block), None]
        block[0] += total
        for prev, row in zip(block, block[1:]):  # np.cumsum down axis 0 is slower
            row += prev
        total = block[-1].copy()
        low[start:start + len(block)] = np.min(block, axis=1)
        peak[start:start + len(block)] = np.max(np.abs(block, out=block), axis=1)
    return low, peak


def _probe_tops(odd, delta):
    """Upper bounds on the judged right-plateau minimum of each prefix's step.

    Entry m - 1 bounds that of odd[:m], the candidate q of degree d =
    2m - 1, for 1 <= m <= len(odd).  Its partial sum S_m is read by
    _prefix_extremes on the plateau probe of _delta_points(delta), whose
    points lie on the plateau of _grid_points(delta, d); there the judged
    Clenshaw values of q are within 2 e_m of S_m.  So the judged peak is at
    least max|S_m| - 2 e_m, and _judge's factor s is at most s_up =
    _scale_for(max|S_m| - 2 e_m); the judged min q is at most min S_m +
    2 e_m.  _judge's right-plateau minimum 0.5 + 0.5 s min q is thus at
    most 0.5 + 0.5 s_up max(min S_m, 0) + e_m.  The slack 16 e_m covers
    that e_m, the rounding of the subtractions from 1 - eta/2, and that of
    verify_bounds on the step, whose own Clenshaw sum differs from _judge's
    by rounding (see _judge).  A candidate whose top misses 1 - eta/2 by
    more than GRID_TOL thus has a judged max_high_violation above GRID_TOL,
    and _Search.try_odd rejects it.  On the acceptance sweep the slack is
    at most 2.2e-9, and every rejection misses by at least 1.9e-5.
    """
    low, peak = _prefix_extremes(odd, _delta_points(delta)[1])
    m = np.arange(1, len(odd) + 1)
    err = (2.0 * m) ** 2 * 2.0 ** -53 * np.cumsum(np.abs(odd))
    return [0.5 + 0.5 * _scale_for(p - 2.0 * e) * max(lo, 0.0) + 16.0 * e
            for lo, p, e in zip(low.tolist(), peak.tolist(), err.tolist())]


class _Search:
    """One build's search: the best accepted candidate and every failure, in order.

    A candidate is q's odd-index coefficients (c_1, c_3, ..., c_d), a
    tuple of degree d = 2 * len - 1, and a prefix of a series: an erf
    truncation of the series whose tail sums set the bisection's start
    degree, or a lone candidate, its own series.  Each accepted candidate
    has a lower degree than any before it, so it replaces best outright.  A
    failure, rejected by the probe or by _judge, is kept as it is;
    least_bad judges them, which only a CapacityError needs.  tops holds
    each series' _probe_tops, from one pass, and extremes calls
    _odd_extremes once per candidate; both go with the search.
    """

    def __init__(self, spec, judge_all):
        self.spec = spec
        self.judge_all = judge_all
        self.best = None
        self.failures = []
        self.tops = {}
        self.extremes = cache(lambda odd: _odd_extremes(odd, spec.delta))

    def top(self, odd, series=None):
        """The probe top of odd, a prefix of series (odd itself by default),
        from series' one pass."""
        series = odd if series is None else series
        if series not in self.tops:
            self.tops[series] = _probe_tops(series, self.spec.delta)
        return self.tops[series][len(odd) - 1]

    def try_odd(self, odd, series=None):
        """Accept odd, a prefix of series, when it survives the plateau probe.

        Only with judge_all is a survivor judged as well, and accepted when
        it passes; otherwise best is unjudged until _build_cached judges it.
        """
        if not self.top(odd, series) < 1.0 - self.spec.eta / 2.0 - GRID_TOL \
                and (not self.judge_all or _judge(self.extremes(odd), self.spec).passes):
            self.best = odd
            return True
        self.failures.append(odd)
        return False

    def least_bad(self):
        """The failure with the smallest summed excess, the first on ties."""
        return min((_judge(self.extremes(f), self.spec) for f in self.failures),
                   key=lambda r: max(r.max_low_violation, 0.0)
                   + max(r.max_high_violation, 0.0) + max(r.max_abs_excess, 0.0))


def _erf_odd_coeffs(k, n):
    """Chebyshev coefficients c_1, c_3, ..., c_{2n-1} of erf(k x), in closed form.

    The Low-Chuang expansion (arXiv:1707.05391) gives, with z = k^2/2,
    c_{2m+1} = (2k/sqrt(pi)) (-1)^m (e^{-z} I_m(z) + e^{-z} I_{m+1}(z)) / (2m+1).
    scipy's ive is e^{-z} I_m(z) itself, so nothing overflows.  The even
    coefficients are zero; the work and memory are O(n).
    """
    m = np.arange(n)
    scaled = ive(np.arange(n + 1), 0.5 * k * k)  # e^{-z} I_j(z), 0 <= j <= n
    sign = np.where(m % 2, -1.0, 1.0)
    return 2.0 * k / math.sqrt(math.pi) * sign * (scaled[:-1] + scaled[1:]) / (2 * m + 1)


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
    the odd truncation degrees below it lowers it.  A k whose rough degree
    must pass the cap is skipped before its coefficients are built.
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
        # two below the degree of best
        cap = limit if search.best is None else min(limit, 2 * len(search.best) - 3)
        if rough > 3.0 * cap:
            continue
        # the odd terms up to degree max(ceil(12.2 k) + 96, 192)
        odd = _erf_odd_coeffs(k, (max(int(math.ceil(12.2 * k)) + 96, 192) + 1) // 2)
        # tails[m] sums |c_j| over the odd j > 2m + 1; the last is 0 and passes
        tails = np.concatenate([np.cumsum(np.abs(odd)[::-1])[::-1][1:], [0.0]])
        d0 = 2 * int(np.flatnonzero(plateau_err + 2.0 * tails <= eta * (1.0 - 1e-9))[0]) + 1
        if d0 <= cap:  # lo = -1: degree 1 is still open
            series = tuple(odd[:(d0 + 1) // 2].tolist())
            _bisect_odd(lambda d: search.try_odd(series[:(d + 1) // 2], series), -1, d0)


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

    Returns the immutable pair (t*, odd) of an odd polynomial q, odd =
    (c_1, c_3, ..., c_degree) its odd-index Chebyshev coefficients, with
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
    return t_star, tuple(odd.tolist())


def _largest_fit_degree(delta, limit):
    """The largest odd degree <= limit that has a minimax fit, or 1.

    The exchange cannot level once E nears float64 rounding, which happens
    from some degree on (from 21 at delta 0.9, from 53 at 0.45).  When the
    fit at the largest odd degree is None, a bisection of the None fits
    finds the first of them, and the odd degree below it is returned.
    Degree 1 is the ramp, which no caller fits, so only degrees >= 3 are
    fitted.
    """
    hi = limit if limit % 2 else limit - 1
    if hi > 1 and _minimax_fit(delta, hi) is None:
        hi = _bisect_odd(lambda d: _minimax_fit(delta, d) is None, 1, hi) - 2
    return hi


def _minimax_path(search, limit):
    """Bisect the smallest odd degree whose minimax fit certifies.

    The odd part q of a step bounded by 1 has |q'(x)| <= d / sqrt(1 - x^2)
    (Bernstein's inequality), so it rises at most d asin(delta) from
    q(0) = 0 to q(delta) >= 1 - eta.  No degree up to hi can certify when
    hi asin(delta) < (1 - eta) / 2, and then no fit is made; the factor 2
    leaves room for candidates that certify on the grids yet overshoot 1
    between grid points.  It runs only when no other path found a
    candidate, and search.try_odd takes each fit as it does every candidate.
    The bisection runs below the largest odd degree that has a fit.
    """
    spec = search.spec
    hi = min(limit, _MINIMAX_MAX_DEGREE)
    if hi % 2 == 0:
        hi -= 1
    if hi < 3 or hi * math.asin(spec.delta) < (1.0 - spec.eta) / 2.0:
        return
    hi = _largest_fit_degree(spec.delta, hi)
    if hi < 3:
        return

    def feasible(d):
        fit = _minimax_fit(spec.delta, d)
        return fit is not None and search.try_odd(fit[1])

    _bisect_odd(feasible, 1, hi)  # degree 1 is the ramp, already rejected


def _run_search(search, max_degree):
    """Run the ramp, the erf path and the minimax path on search; return it.

    Each path runs only while nothing is best, and the erf path keeps
    lowering the accepted degree, so best is the lowest-degree candidate
    accepted.
    """
    # Degree 1: q = x, rescaled by exactly 1 to the ramp (1 + x)/2.  It
    # is optimal among affine candidates and certifies exactly when
    # eta >= 1 - delta.
    search.try_odd((1.0,))
    if search.best is None:
        _erf_path(search, max_degree)
    if search.best is None:
        # The kernel path found nothing under the cap.  That happens
        # when the cap is tight relative to 1/delta, where the best
        # uniform fit on the plateau still has a shot at a certificate.
        _minimax_path(search, max_degree)
    return search


@lru_cache(maxsize=_CACHE_SIZE)
def _build_cached(spec, max_degree):
    """Search for a step and judge only the candidate the search returns.

    The first search is steered by the plateau probe alone.  A failed
    judgment of its pick means the probe passed a candidate that the
    judgment rejects, and the same search, with each series' probe tops and
    each candidate's extremes, reruns judging every probe survivor.  So
    every step returned has passed _judge.  A first search that accepts
    nothing saw the probe reject every candidate, and the probe rejects only
    what the judgment rejects, so its CapacityError report is the one a
    judging search would give.  The search goes when the build returns.
    """
    search = _run_search(_Search(spec, judge_all=False), max_degree)
    if search.best is not None and not _judge(search.extremes(search.best), spec).passes:
        search.best, search.failures, search.judge_all = None, [], True
        _run_search(search, max_degree)
    if search.best is None:  # the ramp's report is among the failures
        raise CapacityError(
            f"no certified step polynomial of degree <= {max_degree} "
            f"for delta={spec.delta!r}, eta={spec.eta!r}", report=search.least_bad())
    return _step_from_odd(search.best, search.extremes(search.best)[0])


def build_step_approx(spec, max_degree=DEFAULT_MAX_DEGREE):
    """Return a certified step polynomial of the smallest degree found.

    Args:
        spec: StepSpec with the window half-width delta and budget eta.
        max_degree: integer degree budget; exceeded -> CapacityError
            carrying the least-violating BoundReport seen.
    """
    max_degree = as_int(max_degree, "max_degree")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    return _build_cached(spec, max_degree)


def degree_constant(poly, spec):
    """Empirical constant C in degree <= C * (1/delta) * ln(4/eta)."""
    return poly.degree * spec.delta / math.log(4.0 / spec.eta)


def min_eta_for_degree(delta, degree):
    """Smallest eta certified at the given degree, read off the minimax fit.

    The fit is made at the largest odd degree <= degree that has one.  The
    eta returned is the fit's t*, its sound plateau error, floored at 1e-9;
    it is within t*(fit) - t*(LP) of the optimum, t*(LP) being the discrete
    minimax LP's lower bound.  Where there is no fit, or t* does not
    undercut the ramp's eta 1 - delta, the ramp's eta, clamped to
    [1e-9, 1 - 1e-9], is returned.  Degrees 1 and 2 fit nothing and return
    exactly that clamped ramp eta: the degree-1 odd fit is c x, c = 1 - 1e-13
    after its peak scaling, whose t* = 1 - c delta exceeds 1 - delta but for
    rounding.  The candidate, fit or ramp, is judged once at that eta, and
    a failed judgment raises CapacityError: no uncertified eta is returned.
    Nothing is built.

    Fits stop at _FRONTIER_MAX_DEGREE.  Above it, only the 1e-9 floor is
    returned, which no degree undercuts; any other eta read at the cap
    raises ValueError, since the higher degree may reach lower.  The builder
    fits only up to _MINIMAX_MAX_DEGREE, so above that an eta returned here
    may not be buildable by build_step_approx at the same degree.  Above
    about degree 400 the fit's last bits can depend on the BLAS thread
    count.
    """
    degree = as_int(degree, "degree")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    spec = StepSpec(delta, min(max(1.0 - delta, 1e-9), 1.0 - 1e-9))
    odd = (1.0,)
    limit = min(degree, _FRONTIER_MAX_DEGREE)
    fit_degree = _largest_fit_degree(delta, limit)
    fit = _minimax_fit(delta, fit_degree) if fit_degree >= 3 else None
    if fit is not None and fit[0] < spec.eta:
        spec, odd = StepSpec(delta, max(1e-9, fit[0])), fit[1]
    if degree > limit and spec.eta > 1e-9:
        raise ValueError(f"min eta above degree {limit} is known only where the "
                         f"degree-{limit} fit reaches the 1e-9 floor; at delta={delta!r} "
                         f"it reaches {spec.eta!r}, and degree {degree} may reach lower")
    report = _judge(_odd_extremes(odd, delta), spec)
    if not report.passes:
        raise CapacityError(f"the degree-{2 * len(odd) - 1} step does not certify at its "
                            f"eta={spec.eta!r} for delta={delta!r}", report=report)
    return spec.eta


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
