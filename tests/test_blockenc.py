"""Block-encoding, spectral shift, and polynomial eigenvalue transform tests.

The transform oracle is a direct eigendecomposition: diagonalise, apply
the polynomial to the eigenvalues with an independent evaluator, and
reassemble.  apply_poly must agree without ever diagonalising itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsvtsim.blockenc import (RADIUS_TOL, BlockEncoding, HermitianOp,
                              MatrixFormatError, apply_poly, read_matrix,
                              right_probability, shift_and_scale)
from qsvtsim.chebpoly import ChebPoly, StepSpec, build_step_approx


def random_hermitian(rng, n, norm=0.9):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = 0.5 * (a + a.conj().T)
    h *= norm / np.max(np.abs(np.linalg.eigvalsh(h)))
    return HermitianOp.from_matrix(h)


def eig_transform(h, poly):
    """Oracle: P applied through the eigendecomposition of h."""
    w, v = np.linalg.eigh(h.matrix)
    return (v * poly.eval(w)) @ v.conj().T


def test_shift_zero_is_plain_rescale():
    h = HermitianOp.from_matrix(np.diag([0.5, -0.25]))
    hp = shift_and_scale(h, 0.0, 2.0)
    assert np.allclose(hp.matrix, np.diag([0.25, -0.125]))


def test_shift_at_gamma_annihilates_top():
    h = HermitianOp.from_matrix(np.eye(3))
    hp = shift_and_scale(h, 1.0, 1.0)
    assert np.allclose(hp.matrix, np.zeros((3, 3)))


def test_shift_maps_eigenvalues():
    h = HermitianOp.from_matrix(np.diag([0.6, -0.2, 0.1]))
    hp = shift_and_scale(h, 0.25, 1.0)
    expect = (np.array([0.6, -0.2, 0.1]) - 0.25) / 1.25
    assert np.allclose(np.diag(hp.matrix).real, expect)
    assert hp.spectral_norm <= 1.0


def test_shift_rejects_mu_outside_gamma():
    h = HermitianOp.from_matrix(np.diag([0.5]))
    with pytest.raises(ValueError):
        shift_and_scale(h, 1.5, 1.0)
    with pytest.raises(ValueError, match="mu0"):
        shift_and_scale(h, np.nan, 1.0)
    with pytest.raises(ValueError, match="gamma must be positive"):
        shift_and_scale(h, 0.0, np.nan)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(-3.0, 3.0),
       st.floats(0.0, 1.0), st.floats(-1.0, 1.0))
def test_shift_keeps_the_spectrum_in_the_unit_interval(n, seed, decade, fill, frac):
    """apply_poly's input needs no check of its own: with ||H|| <= gamma,
    as EEInstance checks, and |mu0| <= gamma, as the bisection keeps it,
    the shifted operator's spectral norm is at most 1 + RADIUS_TOL."""
    gamma = 10.0 ** decade
    h = random_hermitian(np.random.default_rng(seed), n, norm=fill * gamma)
    assert shift_and_scale(h, frac * gamma, gamma).spectral_norm <= 1.0 + RADIUS_TOL


def test_apply_poly_identity_polynomial():
    h = HermitianOp.from_matrix(np.diag([0.3, -0.7]))
    top = apply_poly(h, ChebPoly.from_coeffs([0.0, 1.0]))
    assert np.allclose(top, h.matrix)


def test_apply_poly_t2_on_diagonal():
    # T_2(x) = 2x^2 - 1 sends the eigenvalues +-1 of a diagonal sign
    # operator to 1, so the transform is the identity.
    h = HermitianOp.from_matrix(np.diag([1.0, -1.0]))
    top = apply_poly(h, ChebPoly.from_coeffs([0.0, 0.0, 1.0]))
    assert np.allclose(top, np.eye(2))


@pytest.mark.parametrize("k", range(10))
def test_apply_poly_pure_chebyshev_term(k):
    # Degrees 0 to 9 cross every slice boundary of the index doubling.
    vals = np.array([0.95, 0.4, 0.0, -0.3, -1.0])
    top = apply_poly(HermitianOp.from_matrix(np.diag(vals)),
                     ChebPoly.from_coeffs([0.0] * k + [1.0]))
    assert np.max(np.abs(top - np.diag(np.cos(k * np.arccos(vals))))) <= 1e-13


def test_apply_poly_matches_eigendecomposition():
    rng = np.random.default_rng(23)
    # The degree-337 step of alpha = 0, eps = 0.0125 overshoots 1 near
    # x = 0.0102, where apply_poly rightly refuses the operator.
    cases = [(build_step_approx(StepSpec(0.2, 0.5)), (2, 3, 5)),
             (build_step_approx(StepSpec(0.003125, 0.5)), (2, 5))]
    assert cases[1][0].degree == 337
    for poly, dims in cases:
        for n in dims:
            h = random_hermitian(rng, n)
            assert np.min(np.abs(np.linalg.eigvalsh(h.matrix) - 0.0102)) > 1e-3
            top = apply_poly(h, poly)
            assert np.max(np.abs(top - eig_transform(h, poly))) <= 1e-9
            assert np.array_equal(top, top.conj().T)
            assert not top.flags.writeable


def test_apply_poly_is_linear_in_coefficients():
    rng = np.random.default_rng(5)
    h = random_hermitian(rng, 3)
    p1 = ChebPoly.from_coeffs([0.5, 0.25])
    p2 = ChebPoly.from_coeffs([0.0, 0.0, 0.5])
    mix = ChebPoly.from_coeffs([0.25, 0.125, 0.25])
    lhs = apply_poly(h, mix)
    rhs = 0.5 * apply_poly(h, p1) + 0.5 * apply_poly(h, p2)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_apply_poly_spectral_mapping():
    vals = np.array([0.9, 0.2, -0.5])
    h = HermitianOp.from_matrix(np.diag(vals))
    poly = build_step_approx(StepSpec(0.1, 0.5))
    top = apply_poly(h, poly)
    assert np.allclose(np.sort(np.linalg.eigvalsh(top)),
                       np.sort(poly.eval(vals)), atol=1e-12)


def test_right_probability_on_eigenvector():
    vals = np.array([0.7, -0.3])
    h = HermitianOp.from_matrix(np.diag(vals))
    poly = build_step_approx(StepSpec(0.2, 0.5))
    top = apply_poly(h, poly)
    for i, lam in enumerate(vals):
        e = np.zeros(2)
        e[i] = 1.0
        assert right_probability(top, e) == pytest.approx(poly.eval(lam) ** 2,
                                                          abs=1e-12)


def test_right_probability_ramp_at_top():
    h = HermitianOp.from_matrix(np.diag([1.0]))
    top = apply_poly(h, ChebPoly.from_coeffs([0.5, 0.5]))
    assert right_probability(top, np.array([1.0])) == pytest.approx(1.0)


def test_right_probability_mixture_rule():
    rng = np.random.default_rng(17)
    h = random_hermitian(rng, 4)
    poly = build_step_approx(StepSpec(0.2, 0.5))
    top = apply_poly(h, poly)
    w, v = np.linalg.eigh(h.matrix)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    weights = np.abs(v.conj().T @ psi) ** 2
    expect = float(np.sum(poly.eval(w) ** 2 * weights))
    assert right_probability(top, psi) == pytest.approx(expect, abs=1e-12)


def test_right_probability_plateau_floor():
    """An eigenvector with eigenvalue past +delta succeeds with p >= (1-eta/2)^2."""
    spec = StepSpec(0.15, 0.4)
    poly = build_step_approx(spec)
    for lam in (0.15, 0.3, 0.8, 1.0):
        h = HermitianOp.from_matrix(np.diag([lam]))
        p = right_probability(apply_poly(h, poly), np.array([1.0]))
        assert p >= (1.0 - spec.eta / 2.0) ** 2 - 1e-9


def test_right_probability_band_sides():
    """Left-band eigenvectors land under (eta/2)^2, right-band above."""
    spec = StepSpec(0.1, 0.3)
    poly = build_step_approx(spec)
    h = HermitianOp.from_matrix(np.diag([-0.5, 0.5]))
    top = apply_poly(h, poly)
    assert right_probability(top, np.array([1.0, 0.0])) <= (spec.eta / 2.0) ** 2 + 1e-9
    assert right_probability(top, np.array([0.0, 1.0])) >= (1.0 - spec.eta / 2.0) ** 2 - 1e-9


def test_right_probability_stays_in_unit_interval():
    rng = np.random.default_rng(31)
    poly = build_step_approx(StepSpec(0.2, 0.5))
    for _ in range(20):
        h = random_hermitian(rng, 3)
        psi = rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        p = right_probability(apply_poly(h, poly), psi)
        assert 0.0 <= p <= 1.0


def test_hermitian_op_validation():
    with pytest.raises(ValueError):
        HermitianOp.from_matrix([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        HermitianOp.from_matrix(np.zeros((2, 3)))


@pytest.mark.parametrize("n", [0, 65])
def test_hermitian_op_rejects_dimension_outside_cap(n):
    with pytest.raises(ValueError, match=r"dimension must be in \[1, 64\]"):
        HermitianOp.from_matrix(np.zeros((n, n)))


def test_hermitian_op_stores_its_lower_triangle_mirrored():
    """Skew within the tolerance is dropped: the stored matrix is exactly
    Hermitian, keeps the input's lower triangle and has the same spectrum."""
    rng = np.random.default_rng(8)
    raw = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    m = 0.5 * (raw + raw.conj().T) + 1e-13 * (raw + 1j * raw.T)
    assert 0.0 < np.max(np.abs(m - m.conj().T)) <= 1e-12
    h = HermitianOp.from_matrix(m)
    assert np.array_equal(h.matrix, h.matrix.conj().T)
    low = np.tril_indices(5, -1)
    assert np.array_equal(h.matrix[low], m[low])
    assert np.array_equal(h.matrix.diagonal(), m.diagonal().real)
    assert np.array_equal(np.linalg.eigvalsh(h.matrix), np.linalg.eigvalsh(m))


def test_hermitian_op_dim_reads_its_own_read_only_copy():
    src = np.eye(64)
    h = HermitianOp.from_matrix(src)
    assert h.dim == 64
    assert not h.matrix.flags.writeable
    src[0, 0] = 0.5
    assert h.matrix[0, 0] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_hermitian_op_rejects_non_finite_entries(bad):
    # NaN slips past the Hermitian check, and the norm would read 0.
    m = np.eye(2, dtype=complex)
    m[1, 1] = bad
    with pytest.raises(ValueError, match="row 1, column 1 is not finite"):
        HermitianOp.from_matrix(m)


def test_spectral_norm_is_computed_once(monkeypatch):
    h = HermitianOp.from_matrix(np.diag([0.5, -0.75]))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    assert [h.spectral_norm for _ in range(3)] == [0.75] * 3
    assert len(calls) == 1


def test_block_encoding_validation():
    h = HermitianOp.from_matrix(np.diag([0.5]))
    with pytest.raises(ValueError, match="top-left block does not reproduce"):
        BlockEncoding(unitary=np.eye(2), encoded=h)
    with pytest.raises(ValueError, match="block-encoding matrix is not unitary"):
        BlockEncoding(unitary=0.5 * np.eye(2), encoded=h)
    # The dimension rule is the only guard that leaves room for an ancilla.
    with pytest.raises(ValueError, match="unitary dimension incompatible"):
        BlockEncoding(unitary=np.eye(1), encoded=h)
    h2 = HermitianOp.from_matrix(np.diag([0.5, -0.5]))
    with pytest.raises(ValueError, match="unitary dimension incompatible"):
        BlockEncoding(unitary=np.eye(3), encoded=h2)


def test_matrix_io_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    h = random_hermitian(rng, 3)
    path = tmp_path / "h.mat"
    rows = [" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in h.matrix]
    path.write_text("\n".join(["dim 3", *rows]) + "\n")
    again = read_matrix(path)
    assert np.max(np.abs(again.matrix - h.matrix)) == 0.0


def test_matrix_io_rejects_bad_files(tmp_path):
    cases = {
        "empty.mat": "",
        "nohead.mat": "2\n1 0\n0 1\n",
        "badn.mat": "dim x\n",
        "shortrows.mat": "dim 2\n1+0j 0+0j\n",
        "shortcols.mat": "dim 2\n1+0j\n0+0j 1+0j\n",
        "badentry.mat": "dim 1\nfoo\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(MatrixFormatError):
            read_matrix(path)
