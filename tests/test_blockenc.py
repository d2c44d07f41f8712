"""Block-encoding, spectral shift, and polynomial eigenvalue transform tests.

The transform oracle is a direct eigendecomposition: diagonalise, apply
the polynomial to the eigenvalues with an independent evaluator, and
reassemble.  apply_poly must agree without ever diagonalising itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsvtsim.blockenc import (RADIUS_TOL, HermitianOp, MatrixFormatError,
                              _chebyshev_stack, _check_norm_bound, apply_poly,
                              read_matrix, right_probability, shift_and_scale)
from qsvtsim.chebpoly import ChebPoly, StepSpec, build_step_approx
from qsvtsim.estimator import alpha_schedule


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 16), st.integers(0, 2**32 - 1), st.floats(-3.0, 300.0),
       st.floats(0.0, 1.0), st.floats(-1.0, 1.0))
def test_shift_is_exactly_hermitian_without_revalidation(n, seed, decade, fill, frac):
    """shift_and_scale wraps its result without HermitianOp's validation.
    Validating it again returns an equal matrix: the shift is exactly
    Hermitian, with a real, finite diagonal, for gamma from 1e-3 to 1e300."""
    gamma = 10.0 ** decade
    h = random_hermitian(np.random.default_rng(seed), n, norm=fill * gamma)
    hp = shift_and_scale(h, frac * gamma, gamma)
    m = hp.matrix
    assert np.array_equal(HermitianOp.from_matrix(m).matrix, m)
    assert np.array_equal(m, m.conj().T)
    assert np.all(m.diagonal().imag == 0.0)
    assert np.isfinite(m).all()
    assert not m.flags.writeable


def test_shift_rejects_a_denominator_that_overflows():
    """Nothing after the shift checks that its entries are finite, so
    _shift_denominator refuses these.  The second input meets the shift's
    precondition ||H|| <= gamma (1 + NORM_TOL) and leaves gamma + |mu0|
    finite, but H - mu0 I would overflow."""
    h = HermitianOp.from_matrix(np.diag([1e308, -1e308]))
    with pytest.raises(ValueError, match="gamma"):
        shift_and_scale(h, -1e308, 1e308)
    gamma = 0.5 * np.finfo(float).max * (1.0 - 1e-14)
    h = HermitianOp.from_matrix(np.diag([-gamma * (1.0 + 5e-13)]))
    with pytest.raises(ValueError, match="gamma"):
        shift_and_scale(h, gamma, gamma)


@pytest.mark.parametrize("mu0, gamma", [(0.25j, 1.0), (np.complex128(0.25), 1.0),
                                        (0.0, np.complex128(1.0 + 0.5j))])
def test_shift_rejects_a_complex_shift_or_scale(mu0, gamma):
    # A non-real mu0 would leave a non-real diagonal that nothing checks.
    with pytest.raises(ValueError, match="must be real"):
        shift_and_scale(HermitianOp.from_matrix(np.diag([0.5, -0.25])), mu0, gamma)


@pytest.mark.parametrize("coeff", [np.nan, np.inf])
def test_apply_poly_rejects_a_nan_spectral_radius(coeff):
    """A non-finite coefficient is refused when the polynomial is made, so
    a NaN P(h) comes from overflow: the complex product behind T_2(h) makes
    the 1e200 entry NaN.  eigvalsh of such a matrix can return [0, -0], so
    apply_poly checks finiteness before the radius."""
    with pytest.raises(ValueError, match="finite numbers"):
        ChebPoly((coeff,))
    for diag in ([1e200, 0.5], [1e200, 0.5, 0.1]):
        h = HermitianOp.from_matrix(np.diag(diag))
        with pytest.raises(ValueError, match="spectral radius"), \
                np.errstate(over="ignore", invalid="ignore"):
            apply_poly(h, ChebPoly((0.0, 0.0, 1.0)))


def _tensordot_transform(hp, poly):
    """Reference: the stack contracted by np.tensordot on the coefficient tuple."""
    acc = np.tensordot(poly.coeffs, _chebyshev_stack(hp.matrix, poly.degree), axes=1)
    return 0.5 * (acc + acc.conj().T)


def test_matmul_contraction_equals_tensordot_on_the_estimate_mix_schedules():
    """Bit for bit, on the polynomials of the six estimate_mix schedules and
    the operator sizes that workload shifts: 2 (diagonal and amplitude
    instances), 4 (phase instances) and 16 (dense instances).  Operators whose
    transform overshoots are drawn again; apply_poly refuses those."""
    rng = np.random.default_rng(24)
    for alpha in (0.0, 0.5, 1.0):
        for eps in (0.05, 0.0125):
            poly = alpha_schedule(alpha, eps, 1.0).poly
            for n in (2, 4, 16):
                for _ in range(3):
                    while True:
                        hp = shift_and_scale(random_hermitian(rng, n, norm=0.95),
                                             rng.uniform(-1.0, 1.0), 1.0)
                        want = _tensordot_transform(hp, poly)
                        if np.max(np.abs(np.linalg.eigvalsh(want))) <= 1.0 + RADIUS_TOL:
                            break
                    got = apply_poly(hp, poly)
                    assert got.tobytes() == want.tobytes(), (alpha, eps, n)


def test_apply_poly_identity_polynomial():
    h = HermitianOp.from_matrix(np.diag([0.3, -0.7]))
    top = apply_poly(h, ChebPoly([0.0, 1.0]))
    assert np.allclose(top, h.matrix)


def test_apply_poly_t2_on_diagonal():
    # T_2(x) = 2x^2 - 1 sends the eigenvalues +-1 of a diagonal sign
    # operator to 1, so the transform is the identity.
    h = HermitianOp.from_matrix(np.diag([1.0, -1.0]))
    top = apply_poly(h, ChebPoly([0.0, 0.0, 1.0]))
    assert np.allclose(top, np.eye(2))


@pytest.mark.parametrize("k", range(10))
def test_apply_poly_pure_chebyshev_term(k):
    # Degrees 0 to 9 cross every slice boundary of the index doubling.
    vals = np.array([0.95, 0.4, 0.0, -0.3, -1.0])
    top = apply_poly(HermitianOp.from_matrix(np.diag(vals)),
                     ChebPoly([0.0] * k + [1.0]))
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
    p1 = ChebPoly([0.5, 0.25])
    p2 = ChebPoly([0.0, 0.0, 0.5])
    mix = ChebPoly([0.25, 0.125, 0.25])
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
    top = apply_poly(h, ChebPoly([0.5, 0.5]))
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


@pytest.mark.parametrize("m", [[["0.5"]], [[b"1"]], np.array([[0.5, None], [None, 0.5]])],
                         ids=["numeric string", "bytes", "object"])
def test_hermitian_op_refuses_entries_that_are_not_numbers(m):
    with pytest.raises(ValueError, match="matrix must hold numbers"):
        HermitianOp.from_matrix(m)


def test_spectral_norm_is_computed_once(monkeypatch):
    h = HermitianOp.from_matrix(np.diag([0.5, -0.75]))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    assert [h.spectral_norm for _ in range(3)] == [0.75] * 3
    assert len(calls) == 1


def test_norm_bound_refuses_a_nan_gamma():
    h = HermitianOp.from_matrix(np.diag([0.5]))
    _check_norm_bound(h, 0.5)
    for gamma in (float("nan"), 0.0, 0.4):
        with pytest.raises(ValueError, match="gamma must bound"):
            _check_norm_bound(h, gamma)


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
