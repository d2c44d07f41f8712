"""Dense block-encodings of Hermitian operators and polynomial transforms.

Everything here is explicit matrix arithmetic on small operators: the one
matrix gate, the validated Hermitian type, the block-encoding record,
spectral shifts, the Chebyshev recurrence that applies a bounded polynomial
to an encoded operator's eigenvalues, and the matrix file reader.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-12
RADIUS_TOL = 1e-9
# Relative slack on gamma when gamma is checked to bound a spectral norm.
NORM_TOL = 1e-12
# State norms and eigenstate residuals, here and in estimator and reductions.
STATE_TOL = 1e-10

# Dense constructions only; guard against accidentally huge inputs.
DEFAULT_DIM_CAP = 64


class MatrixFormatError(ValueError):
    """Raised when a matrix file does not parse."""


def _complex(m, what):
    """m as a fresh complex array; strings, bytes and objects are not numbers."""
    arr = np.asarray(m)
    if arr.dtype.kind not in "biufc":
        raise ValueError(f"{what} must hold numbers, got dtype {arr.dtype}")
    return np.array(arr, dtype=complex)


def _as_state(psi, dim, what):
    vec = _complex(psi, what).reshape(-1)
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} must be finite")
    if vec.shape[0] != dim:
        raise ValueError("state dimension does not match operator")
    if abs(np.linalg.norm(vec) - 1.0) > STATE_TOL:
        raise ValueError(f"{what} is not normalised within tolerance")
    return vec


def _as_matrix(m, what, cap=DEFAULT_DIM_CAP):
    """m as a fresh complex array, square, of dimension 1..cap and finite: the
    one place a matrix's shape, size and finiteness are checked."""
    arr = _complex(m, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be a square matrix, got shape {arr.shape}")
    if not 1 <= arr.shape[0] <= cap:
        raise ValueError(f"{what} dimension must be in [1, {cap}]")
    if not np.isfinite(arr).all():
        i, j = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{what} entry at row {i}, column {j} is not finite: {arr[i, j]}")
    return arr


def _unitary(m, what, cap=DEFAULT_DIM_CAP):
    u = _as_matrix(m, what, cap)
    if not np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= UNITARY_TOL:
        raise ValueError(f"{what} is not unitary within tolerance")
    return u


def _hermitian(m, what):
    arr = _as_matrix(m, what)
    if not np.max(np.abs(arr - arr.conj().T)) <= HERMITIAN_TOL:
        raise ValueError(f"{what} is not Hermitian within tolerance")
    return arr


def _unchecked(cls, **fields):
    """A cls of fields derived from validated objects, built without running
    __post_init__ (nothing is checked again); array fields become read-only."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True, eq=False)
class HermitianOp:
    """A validated Hermitian matrix, stored read-only and exactly Hermitian."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = _hermitian(self.matrix, "matrix")
        # Mirror the lower triangle, the one eigh reads; shifts keep it exact.
        arr = np.where(np.tri(arr.shape[0], dtype=bool), arr, arr.conj().T)
        np.fill_diagonal(arr.imag, 0.0)
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @classmethod
    def from_matrix(cls, m):
        return cls(m)

    @property
    def dim(self):
        return self.matrix.shape[0]

    # Frozen fields and a read-only matrix make the norm safe to keep.
    @cached_property
    def spectral_norm(self):
        return float(np.max(np.abs(np.linalg.eigvalsh(self.matrix))))


@dataclass(frozen=True, eq=False)
class BlockEncoding:
    """Unitary whose top-left block equals encoded (normalisation 1).

    The ancilla register is the leading tensor factor, so the selected
    block is simply the first dim-by-dim corner.  A plain record: its one
    builder, reductions.ae_block_encoding, assembles it from a validated
    amplitude instance, so nothing here is checked again.
    """

    unitary: np.ndarray
    encoded: HermitianOp


def _check_norm_bound(h, gamma):
    """Reject gamma unless it is positive and bounds h's spectral norm."""
    if not (gamma > 0 and h.spectral_norm <= gamma * (1.0 + NORM_TOL)):
        raise ValueError("gamma must bound the spectral norm")


def _shift_denominator(mu0, gamma):
    """gamma + |mu0|, which maps [-gamma, gamma] - mu0 into [-1, 1].

    Requires gamma > 0, |mu0| <= gamma and a finite 2 gamma + |mu0|; the
    negated comparisons reject NaN as well.  The last bound keeps every
    H - mu0 I finite when ||H|| <= gamma (1 + NORM_TOL), not only the
    denominator.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    if not abs(mu0) <= gamma:
        raise ValueError("|mu0| must not exceed gamma")
    denom = gamma + abs(mu0)
    if not math.isfinite(denom + gamma):
        raise ValueError("gamma + |mu0| must be finite with room for gamma")
    return denom


def shift_and_scale(h, mu0, gamma):
    """Return (H - mu0 I) / (gamma + |mu0|), spectrum mapped into [-1, 1].

    Requires ||h|| <= gamma (1 + NORM_TOL); EEInstance checks it, so this
    does not.  h is finite and exactly Hermitian with a real diagonal.
    Subtracting a real multiple of I and dividing by a positive real keeps
    it so, since each IEEE operation treats an entry and its mirror alike,
    and _shift_denominator keeps the shifted entries finite.  So the result
    is wrapped unchecked; mu0 and gamma must be real numbers.
    """
    if not (isinstance(mu0, numbers.Real) and isinstance(gamma, numbers.Real)):
        raise ValueError("mu0 and gamma must be real")
    mu0, gamma = float(mu0), float(gamma)
    denom = _shift_denominator(mu0, gamma)
    return _unchecked(HermitianOp, matrix=(h.matrix - mu0 * np.eye(h.dim)) / denom)


def _chebyshev_stack(m, degree):
    """T_0(m), ..., T_degree(m) as one (degree + 1, n, n) complex array.

    Index doubling: with T_0 .. T_K known, T_{K+j} = 2 T_K T_j - T_{K-j}
    for j = 1 .. min(K, degree - K), one batched product per pass.
    """
    n = m.shape[0]
    t = np.empty((degree + 1, n, n), dtype=complex)
    t[0] = np.eye(n)
    if degree >= 1:
        t[1] = m
    top = 1
    while top < degree:
        j = min(top, degree - top)
        t[top + 1:top + j + 1] = 2.0 * (t[top] @ t[1:j + 1]) - t[top - j:top][::-1]
        top += j
    return t


def apply_poly(hp, poly):
    """Apply the polynomial to hp's eigenvalues through T_k(hp) matrices.

    Builds the stack T_0(hp), ..., T_d(hp) by index doubling, about log2(d)
    batched matrix products, and contracts it with the coefficients in one
    matmul on the poly's read-only coefficient array; the query count
    equals the polynomial degree.  The stack holds (d + 1) n^2
    complex values (5.4 KB at n = 2, d = 337).  A Clenshaw recurrence,
    on matrices or on the state vector, would need about d sequential steps
    of small-array calls; at the dimensions simulated here that per-call
    overhead, not arithmetic, is the cost.  hp is never diagonalised, so the
    result stays an independent check on eigenvalue-based evaluation.
    shift_and_scale puts hp's spectrum in [-1, 1].  P(hp) comes back
    read-only and exactly Hermitian; a spectral radius above 1 + RADIUS_TOL,
    or a non-finite entry, raises.  Finiteness is checked first: eigvalsh
    of an overflowed P(hp) can return finite eigenvalues such as [0, -0].
    """
    n = hp.dim
    stack = _chebyshev_stack(hp.matrix, poly.degree).reshape(poly.degree + 1, n * n)
    acc = (poly._array @ stack).reshape(n, n)
    acc = 0.5 * (acc + acc.conj().T)  # discard rounding skew; exactly Hermitian
    if not (np.isfinite(acc).all()
            and np.max(np.abs(np.linalg.eigvalsh(acc))) <= 1.0 + RADIUS_TOL):
        raise ValueError("transformed operator has spectral radius above 1")
    acc.setflags(write=False)
    return acc


def right_probability(top, psi):
    """Success probability ||P(H') psi||^2 for a unit psi, capped at 1."""
    out = top @ psi
    return min(float(np.real(np.vdot(out, out))), 1.0)


# ---------------------------------------------------------------------------
# Matrix file format: "dim n" header, then n rows of n entries like 0.5-0.25j.


def read_matrix(path):
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise MatrixFormatError("first line must be 'dim n'")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise MatrixFormatError("dimension is not an integer") from exc
    if n < 1 or len(lines) != n + 1:
        raise MatrixFormatError("row count does not match declared dimension")
    rows = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != n:
            raise MatrixFormatError("column count does not match declared dimension")
        try:
            rows.append([complex(f) for f in fields])
        except ValueError as exc:
            raise MatrixFormatError(f"unparseable entry in row {len(rows)}") from exc
    return HermitianOp.from_matrix(np.array(rows))
