"""Independent checks on step polynomials, made without the program's evaluators.

A step polynomial P(x) = sum_k c_k T_k(x) is evaluated as the cosine sum
P(cos t) = sum_k c_k cos(k t), never through numpy's Chebyshev module or
ChebPoly.eval.  Every local extremum seen on a t-grid of at least 64*d
points is refined by Newton's method on dP/dt, so the certificate holds
between grid points as well as on them.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

# The program's own certification tolerance (chebpoly.GRID_TOL), restated
# here so that the checker does not read it from the code it checks.
TOL = 1e-9
GRID_PER_DEGREE = 64
NEWTON_STEPS = 8
# cos(acos(delta)) can round below delta; a point this close to the window
# edge still belongs to the plateau.
_EDGE = 1e-15
_CHUNK = 2048


def cosine_sums(coeffs, t):
    """P, dP/dt and d2P/dt2 at the angles t, by direct cosine sums."""
    c = np.asarray(coeffs, dtype=float)
    k = np.arange(c.size, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.empty((3, t.size))
    for s in range(0, t.size, _CHUNK):
        kt = np.outer(t[s:s + _CHUNK], k)
        cos, sin = np.cos(kt), np.sin(kt)
        out[0, s:s + _CHUNK] = cos @ c
        out[1, s:s + _CHUNK] = -(sin @ (k * c))
        out[2, s:s + _CHUNK] = -(cos @ (k * k * c))
    return out


@dataclass(frozen=True)
class Certificate:
    """Signed worst excesses over the step bounds; positive means violated.

    low: P within [0, eta/2] on [-1, -delta]; high: P within
    [1 - eta/2, 1] on [delta, 1]; box: |P| <= 1 on [-1, 1].
    """

    box: float
    low: float
    high: float
    worst_x: float
    points: int

    @property
    def passes(self):
        return max(self.box, self.low, self.high) <= TOL


def certify(coeffs, delta, eta):
    """Certificate for the step bounds of P on all of [-1, 1]."""
    c = np.asarray(coeffs, dtype=float)
    degree = max(c.size - 1, 1)
    m = GRID_PER_DEGREE * degree
    t = np.concatenate([np.linspace(0.0, math.pi, m + 1),
                        [math.acos(delta), math.acos(-delta)]])
    t.sort()
    p = cosine_sums(c, t)[0]
    rise = np.diff(p)
    turn = np.flatnonzero(rise[:-1] * rise[1:] <= 0.0) + 1
    lo, hi = t[turn - 1], t[turn + 1]
    r = t[turn]
    for _ in range(NEWTON_STEPS):
        _, d1, d2 = cosine_sums(c, r)
        step = np.divide(d1, d2, out=np.zeros_like(d1), where=d2 != 0.0)
        r = np.clip(r - step, lo, hi)
    t = np.concatenate([t, r])
    p = np.concatenate([p, cosine_sums(c, r)[0]])
    x = np.cos(t)
    left = p[x <= -delta + _EDGE]
    right = p[x >= delta - _EDGE]
    worst = int(np.argmax(np.abs(p)))
    return Certificate(
        box=float(np.abs(p[worst]) - 1.0),
        low=float(max(left.max() - eta / 2.0, -left.min())),
        high=float(max((1.0 - eta / 2.0) - right.min(), right.max() - 1.0)),
        worst_x=float(x[worst]),
        points=int(t.size))


def is_odd_step(coeffs):
    """True when P = (1 + q)/2 with q odd: c_0 = 1/2, other even c_k = 0."""
    c = np.asarray(coeffs, dtype=float)
    return c[0] == 0.5 and not np.any(c[2::2])


def minimax_lower_bound(delta, degree):
    """Discrete minimax optimum t*(d) of the odd step fit at this degree.

    Minimises t = max(1 - q) over [delta, 1] for odd q of the given degree
    with |q| <= 1 + 2*TOL, on a grid of x in [0, 1].  The grid relaxes the
    continuous problem, so no certified (1 + q)/2 step of this degree can
    have eta below the returned value.
    """
    m = GRID_PER_DEGREE * degree
    t = np.concatenate([np.linspace(0.0, math.pi / 2.0, m + 1),
                        [math.acos(delta)]])
    x = np.cos(t)
    k = np.arange(1, degree + 1, 2)
    basis = np.cos(np.outer(t, k))
    plateau = basis[x >= delta - _EDGE]
    box = 1.0 + 2.0 * TOL
    a_ub = np.vstack([
        np.hstack([-plateau, -np.ones((plateau.shape[0], 1))]),
        np.hstack([basis, np.zeros((basis.shape[0], 1))]),
        np.hstack([-basis, np.zeros((basis.shape[0], 1))]),
    ])
    b_ub = np.concatenate([-np.ones(plateau.shape[0]),
                           np.full(2 * basis.shape[0], box)])
    cost = np.zeros(k.size + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * k.size + [(0.0, None)],
                  method="highs")
    if not res.success:
        raise RuntimeError(f"minimax LP failed at degree {degree}: {res.message}")
    return float(res.fun)


def bisection_steps(gamma, eps):
    """ceil(log2(2 gamma / eps)): halvings of [-gamma, gamma] down to eps."""
    return math.ceil(math.log2(2.0 * gamma / eps))
