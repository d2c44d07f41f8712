"""Phase -> amplitude -> eigenvalue reduction chain tests.

Oracle-call budgets are asserted from the instrumented counters, never
from the documented multipliers alone.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qsvtsim.blockenc import STATE_TOL, UNITARY_TOL, HermitianOp
from qsvtsim.estimator import diag_instance
from qsvtsim.reductions import (AE_TO_EE_DEPTH_MULT, AE_TO_EE_TIME_MULT,
                                PE_TO_AE_DEPTH_MULT, PE_TO_AE_TIME_MULT,
                                AEInstance, PEInstance, _kron, ae_block_encoding,
                                ae_instance_from_amplitude, ae_to_ee,
                                composed_phase_tolerance, grover_operator,
                                pe_instance_from_phase, pe_to_ae,
                                scale_ledger, solve_ae_via_ee,
                                solve_pe_via_ee)
from qsvtsim.sampler import ResourceLedger, RngStream


def test_multiplier_constants():
    assert (PE_TO_AE_TIME_MULT, PE_TO_AE_DEPTH_MULT) == (2, 2)
    assert (AE_TO_EE_TIME_MULT, AE_TO_EE_DEPTH_MULT) == (6, 6)


@pytest.mark.parametrize("a_complex", [False, True])
@pytest.mark.parametrize("b_complex", [False, True])
def test_kron_equals_numpy_kron_entry_for_entry(a_complex, b_complex):
    """_kron on square inputs of size 1 to 4, real or complex, with signed
    zeros among the entries; np.kron stays the reference."""
    rng = np.random.default_rng(4)

    def square(n, cplx):
        m = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if cplx else 0.0)
        m[rng.random((n, n)) < 0.3] *= -0.0
        return m

    for p in range(1, 5):
        for q in range(1, 5):
            a, b = square(p, a_complex), square(q, b_complex)
            got, want = _kron(a, b), np.kron(a, b)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (p, q)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_pe_instance_from_phase_wraps_every_finite_phase(phi):
    assert 0.0 <= pe_instance_from_phase(phi).true_phi < 2.0 * math.pi


def test_instances_compare_and_hash_by_identity():
    inst = diag_instance([0.5, -0.25])
    assert inst != diag_instance([0.5, -0.25]) and inst == inst
    assert ae_instance_from_amplitude(0.3) != ae_instance_from_amplitude(0.3)
    assert pe_instance_from_phase(1.0) != pe_instance_from_phase(1.0)
    h = HermitianOp.from_matrix(np.diag([0.5]))
    assert hash(h) == hash(h) and {h: 1}[h] == 1


def test_pe_instance_validation():
    ok = pe_instance_from_phase(1.0)
    assert ok.true_phi == pytest.approx(1.0)
    with pytest.raises(ValueError):
        PEInstance(U=np.array([[2.0]]), U_psi=np.eye(1), true_phi=0.0)
    with pytest.raises(ValueError):
        PEInstance(U=np.eye(1), U_psi=np.eye(1), true_phi=7.0)
    with pytest.raises(ValueError):
        PEInstance(U=np.diag([1.0, -1.0]), U_psi=np.eye(2)[:, ::-1],
                   true_phi=0.0)  # wrong eigenphase


def test_ae_instance_validation():
    with pytest.raises(ValueError):
        AEInstance(A=np.eye(2), good_projector=np.diag([0.0, 2.0]),
                   true_amp=0.0)
    with pytest.raises(ValueError):
        AEInstance(A=np.eye(2), good_projector=np.diag([0.0, 1.0]),
                   true_amp=0.5)
    with pytest.raises(ValueError):
        ae_instance_from_amplitude(1.2)
    for amp in (1.5, math.nan):
        with pytest.raises(ValueError, match=r"true_amp must lie in \[0, 1\]"):
            AEInstance(A=np.eye(2), good_projector=np.diag([0.0, 1.0]), true_amp=amp)


def _nan_at(m, i, j):
    m = np.array(m, dtype=complex)
    m[i, j] = np.nan
    return m


@pytest.mark.parametrize("build", [
    lambda: AEInstance(A=_nan_at(np.eye(2), 1, 1),
                       good_projector=np.diag([0.0, 1.0]), true_amp=0.0),
    lambda: AEInstance(A=np.eye(2), good_projector=_nan_at(np.diag([0.0, 1.0]), 0, 0),
                       true_amp=0.0),
    lambda: PEInstance(U=_nan_at(np.eye(2), 1, 1), U_psi=np.eye(2), true_phi=0.0),
], ids=["A", "good_projector", "U"])
def test_instances_refuse_a_nan_entry_at_construction(build):
    with pytest.raises(ValueError, match="is not finite"):
        build()


@pytest.mark.parametrize("name, build", [
    ("U", lambda: PEInstance(U=np.array([1.0]), U_psi=np.eye(1), true_phi=0.0)),
    ("A", lambda: AEInstance(A=np.array([1.0]), good_projector=np.eye(1), true_amp=1.0)),
    ("U_psi", lambda: PEInstance(U=np.eye(2), U_psi=np.eye(2, 1), true_phi=0.0)),
    ("U_psi", lambda: PEInstance(U=np.eye(2), U_psi=np.eye(1), true_phi=0.0)),
    ("good_projector", lambda: AEInstance(A=np.eye(2), good_projector=np.eye(1),
                                          true_amp=1.0)),
    ("U", lambda: PEInstance(U=np.eye(33), U_psi=np.eye(33), true_phi=0.0)),
    ("U_psi", lambda: PEInstance(U=np.eye(2), U_psi=np.diag([1.0, np.inf]), true_phi=0.0)),
], ids=["1-D U", "1-D A", "non-square U_psi", "U and U_psi shapes",
        "A and projector shapes", "33-dim U", "inf entry"])
def test_malformed_matrices_raise_a_value_error_naming_the_argument(name, build):
    """Never an IndexError or a numpy gufunc or matmul-warning message: the
    matrix gate, or the shape match after it, refuses first.  33 rows is
    over PEInstance's cap of 32, since pe_to_ae doubles the dimension."""
    with pytest.raises(ValueError, match=f"^{name}[ ']"):
        build()


def test_ae_instance_refuses_a_dimension_above_the_cap():
    proj = np.zeros((66, 66))
    proj[0, 0] = 1.0
    with pytest.raises(ValueError, match=r"dimension must be in \[1, 64\]"):
        AEInstance(A=np.eye(66), good_projector=proj, true_amp=1.0)
    AEInstance(A=np.eye(64), good_projector=proj[:64, :64], true_amp=1.0)


def test_ae_instance_arrays_are_read_only():
    rot = np.array([[0.8, -0.6], [0.6, 0.8]])
    for inst in (AEInstance(A=rot, good_projector=np.diag([0.0, 1.0]), true_amp=0.6),
                 pe_to_ae(pe_instance_from_phase(1.0, dim=2))[0]):
        for arr in (inst.A, inst.good_projector, inst.oracle_OA):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0.0
    assert rot.flags.writeable  # the caller's array is copied, not frozen


def test_oracle_is_the_reflection_about_the_good_subspace():
    """O_A = I - 2 * good_projector, exactly the matrices the factories
    once passed in: a sign flip on ancilla 1."""
    for dim in (1, 2, 3):
        ae, _ = pe_to_ae(pe_instance_from_phase(1.0, dim=dim))
        assert np.array_equal(ae.oracle_OA,
                              np.kron(np.eye(dim), np.diag([1.0, -1.0])))
    ae = ae_instance_from_amplitude(0.3)
    assert np.array_equal(ae.oracle_OA, np.diag([1.0, -1.0]))


def test_call_counters_and_reset():
    inst = ae_instance_from_amplitude(0.5)
    assert inst.calls == {"A": 0, "A_dagger": 0, "O_A": 0}
    inst.call_a()
    inst.call_a_dagger()
    inst.call_a_dagger()
    inst.call_oracle()
    assert inst.calls == {"A": 1, "A_dagger": 2, "O_A": 1}


def test_pe_to_ae_amplitudes():
    ae, recover = pe_to_ae(pe_instance_from_phase(0.0))
    assert ae.true_amp == pytest.approx(0.0, abs=1e-15)
    ae, recover = pe_to_ae(pe_instance_from_phase(math.pi / 2.0))
    assert ae.true_amp == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert recover(ae.true_amp) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_pe_to_ae_prepared_state():
    """A|0..0> carries cos(phi/2) on ancilla 0 and -i sin(phi/2) on 1.

    The interferometer leaves a global phase exp(i phi/2) on top, so the
    exact output is checked with that prefix in place.
    """
    rng = np.random.default_rng(19)
    for _ in range(20):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        dim = int(rng.integers(1, 4))
        stream = RngStream(int(rng.integers(1 << 30)), 0)
        pe = pe_instance_from_phase(phi, dim=dim, rng=stream)
        ae, _ = pe_to_ae(pe)
        e0 = np.zeros(ae.A.shape[0], dtype=complex)
        e0[0] = 1.0
        got = ae.A @ e0
        target = np.kron(pe.U_psi[:, 0], np.array([math.cos(phi / 2.0),
                                                   -1j * math.sin(phi / 2.0)]))
        target = np.exp(1j * phi / 2.0) * target
        assert np.linalg.norm(got - target) <= 1e-10
        assert abs(np.linalg.norm(ae.good_projector @ got) - ae.true_amp) <= 1e-10


def test_grover_operator_counts_and_unitarity():
    inst = ae_instance_from_amplitude(0.3)
    q = grover_operator(inst)
    assert inst.calls == {"A": 1, "A_dagger": 1, "O_A": 1}
    assert np.max(np.abs(q.conj().T @ q - np.eye(2))) <= 1e-12


def test_grover_operator_fixed_points():
    ident = grover_operator(ae_instance_from_amplitude(0.0))
    psi = np.array([1.0, 0.0])
    assert np.linalg.norm(ident @ psi - psi) <= 1e-12
    flip = grover_operator(ae_instance_from_amplitude(1.0))
    psi = np.array([0.0, 1.0])
    assert np.linalg.norm(flip @ psi + psi) <= 1e-12


def test_grover_operator_rotation_angle():
    for a in (0.1, 0.3, math.sqrt(0.5), 0.9):
        q = grover_operator(ae_instance_from_amplitude(a))
        angles = np.sort(np.angle(np.linalg.eigvals(q)))
        want = np.sort([-2.0 * math.asin(a), 2.0 * math.asin(a)])
        assert np.max(np.abs(angles - want)) <= 1e-10


def test_block_encoding_costs_and_block():
    inst = ae_instance_from_amplitude(0.4)
    be = ae_block_encoding(inst)
    assert inst.calls == {"A": 2, "A_dagger": 2, "O_A": 2}
    u = be.unitary
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12
    q = grover_operator(inst)
    assert np.max(np.abs(u[:2, :2] - 0.5 * (q + q.conj().T))) <= 1e-10


_EDGE_T = st.sampled_from([-4.9e-13, 4.9e-13]) | st.floats(-4.9e-13, 4.9e-13)


@st.composite
def _edge_pe_pairs(draw):
    """(edge, exact): a factory PE instance of dim 1 to 4, and it with U and
    U_psi scaled by 1 + t, |t| <= 4.9e-13, kept if PEInstance accepts it."""
    exact = pe_instance_from_phase(draw(st.floats(-10.0, 10.0)), dim=draw(st.integers(1, 4)),
                                   rng=RngStream(draw(st.integers(0, 2**32)), 0))
    t_u, t_psi = draw(_EDGE_T), draw(_EDGE_T)
    try:
        edge = PEInstance(U=(1.0 + t_u) * exact.U, U_psi=(1.0 + t_psi) * exact.U_psi,
                          true_phi=exact.true_phi)
    except ValueError:
        assume(False)
    return edge, exact


_AE_INSTANCES = st.one_of(
    st.floats(0.0, 1.0).map(ae_instance_from_amplitude),
    st.builds(lambda phi, dim, seed: pe_to_ae(
        pe_instance_from_phase(phi, dim=dim, rng=RngStream(seed, 0)))[0],
        st.floats(-10.0, 10.0), st.integers(1, 4), st.integers(0, 2**32)),
    _edge_pe_pairs().map(lambda pair: pe_to_ae(pair[0])[0]))


def _unitary_defect(m):
    return np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))


@settings(max_examples=200, deadline=None)
@given(_AE_INSTANCES)
def test_block_encoding_is_sound_without_revalidation(inst):
    """Stands for the checks the chain no longer runs: pe_to_ae's AEInstance
    validation, Q's unitarity, BlockEncoding's unitary, dimension and block
    checks, the encoded operator's HermitianOp validation and ae_to_ee's
    EEInstance validation.  Q and u are unitary within 1e-12, or within
    four times A's own defect on a tolerance-edge instance."""
    be = ae_block_encoding(inst)
    assert inst.calls == {"A": 2, "A_dagger": 2, "O_A": 2}
    q = grover_operator(inst)
    a, proj = inst.A, inst.good_projector
    n = a.shape[0]
    u, enc = be.unitary, be.encoded.matrix
    assert u.shape == (2 * n, 2 * n)
    assert _unitary_defect(a) <= 4 * UNITARY_TOL
    for m in (q, u):
        assert _unitary_defect(m) <= max(1e-12, 4 * _unitary_defect(a))
    assert np.array_equal(proj @ proj, proj) and np.array_equal(proj, proj.conj().T)
    assert abs(np.linalg.norm(proj @ a[:, 0]) - inst.true_amp) <= STATE_TOL
    assert np.max(np.abs(u[:n, :n] - enc)) <= 1e-10
    assert np.array_equal(enc, enc.conj().T) and not enc.diagonal().imag.any()
    assert np.array_equal(HermitianOp.from_matrix(enc).matrix, enc)
    assert not u.flags.writeable and not enc.flags.writeable
    ee, _ = ae_to_ee(inst)
    psi, h = ee.psi, ee.H
    assert abs(np.linalg.norm(psi) - 1.0) <= STATE_TOL and psi.shape == (n,)
    assert np.linalg.norm(h.matrix @ psi - ee.true_mu * psi) <= STATE_TOL
    assert h.spectral_norm <= 1.0 + 4 * UNITARY_TOL and -1.0 <= ee.true_mu <= 1.0
    assert ee.gamma == 1.0 and not psi.flags.writeable


# apply_poly's radius check while the degree-337 step overshoots 1 near
# x = 0.01024 (the strict xfail in test_estimator.py).
_FAULT_B = "transformed operator has spectral radius above 1"


def _statevector_outcome(inst, eps, alpha, seed):
    try:
        return solve_pe_via_ee(inst, eps, alpha, RngStream(seed, 0), use_statevector=True)
    except ValueError as exc:
        return str(exc)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="fault (b) reaches the chain: the degree-337 step overshoots 1 "
                          "at an eigenvalue of the derived operator, so the radius check "
                          "refuses it; ROADMAP item 2's sound certificates remove this marker")
def test_statevector_chain_matches_the_fast_path_at_an_overshoot():
    inst = pe_instance_from_phase(3.6852033335017333)
    fast = solve_pe_via_ee(inst, 0.0125, 0.0, RngStream(0, 0))
    assert fast[0] == 2.5897548758943563
    assert solve_pe_via_ee(inst, 0.0125, 0.0, RngStream(0, 0), use_statevector=True) == fast


_EDGE_SCALE = 1.0 + 4.5e-13


@settings(max_examples=50, deadline=None)
@given(_edge_pe_pairs(), st.integers(0, 2**16))
@example((PEInstance(U=_EDGE_SCALE * np.array([[np.exp(1j)]]), U_psi=_EDGE_SCALE * np.eye(1),
                     true_phi=1.0),
          pe_instance_from_phase(1.0)), 0)
def test_tolerance_edge_pe_instances_estimate_as_the_exact_ones(pair, seed):
    """A PE instance that PEInstance accepts at its tolerance edge is not
    refused further down the chain: it estimates exactly as the unscaled
    instance does, draw for draw, on the fast and the statevector path, and
    the two paths agree.  Where fault (b) makes the statevector path raise,
    it raises for both instances alike.  The explicit example's derived A is
    1.35e-12 off unitary, and a re-validating pe_to_ae refused it."""
    edge, exact = pair
    for alpha, eps in ((1.0, 0.05), (0.0, 0.0125)):
        fast = solve_pe_via_ee(edge, eps, alpha, RngStream(seed, 0))
        assert fast == solve_pe_via_ee(exact, eps, alpha, RngStream(seed, 0))
        slow = _statevector_outcome(edge, eps, alpha, seed)
        assert slow == _statevector_outcome(exact, eps, alpha, seed)
        assert slow in (fast, _FAULT_B)


def test_instance_at_the_unitary_tolerance_estimates_through_the_encoding():
    """A = (1 + 4.5e-13) R passes AEInstance (A^dagger A is off by 9e-13),
    while its Q is off by 1.8e-12: a Q check at the same tolerance refused
    it.  The estimate is the exact rotation's, draw for draw."""
    inst = AEInstance(A=(1.0 + 4.5e-13) * ae_instance_from_amplitude(0.6).A,
                      good_projector=np.diag([0.0, 1.0]), true_amp=0.6)
    got = solve_ae_via_ee(inst, 0.1, 1.0, RngStream(2, 0))
    assert got == solve_ae_via_ee(ae_instance_from_amplitude(0.6), 0.1, 1.0,
                                  RngStream(2, 0))


def test_ae_to_ee_eigenvalue_map():
    ee, recover = ae_to_ee(ae_instance_from_amplitude(math.sqrt(0.5)))
    assert ee.true_mu == pytest.approx(0.0, abs=1e-12)
    ee, recover = ae_to_ee(ae_instance_from_amplitude(0.0))
    assert ee.true_mu == pytest.approx(1.0, abs=1e-12)
    ee, recover = ae_to_ee(ae_instance_from_amplitude(1.0))
    assert ee.true_mu == pytest.approx(-1.0, abs=1e-12)
    assert recover(ee.true_mu) == pytest.approx(1.0, abs=1e-12)


def test_ae_to_ee_eigen_identity_across_amplitudes():
    # the EEInstance constructor rejects any (H, psi, mu) mismatch above
    # 1e-10, so a clean construction is itself the eigenpair check
    for a in np.linspace(0.0, 1.0, 11):
        ee, recover = ae_to_ee(ae_instance_from_amplitude(float(a)))
        assert ee.true_mu == pytest.approx(1.0 - 2.0 * a * a, abs=1e-12)
        assert recover(ee.true_mu) == pytest.approx(a * a, abs=1e-12)
        assert ee.gamma == 1.0


def test_scale_ledger():
    led = ResourceLedger(total_queries=10, max_depth=5, shots=3)
    out = scale_ledger(led, 6, 6)
    assert (out.total_queries, out.max_depth, out.shots) == (60, 30, 3)
    assert (led.total_queries, led.max_depth, led.shots) == (10, 5, 3)


def test_composed_tolerance_covers_true_phase():
    """tol(p_hat, eps) really bounds the phase error for any consistent p."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        p = float(rng.uniform(0.0, 1.0))
        eps = float(rng.uniform(0.01, 0.5))
        p_hat = min(max(p + float(rng.uniform(-0.5, 0.5)) * eps, 0.0), 1.0)
        tol = composed_phase_tolerance(p_hat, eps)
        err = abs(2.0 * math.asin(math.sqrt(p)) - 2.0 * math.asin(math.sqrt(p_hat)))
        assert err <= tol + 1e-12


def test_composed_tolerance_edge_values():
    # arcsin'(1) diverges; the interval image stays finite
    assert composed_phase_tolerance(1.0, 0.1) == pytest.approx(
        math.pi - 2.0 * math.asin(math.sqrt(0.95)), abs=1e-12)
    assert composed_phase_tolerance(0.0, 0.1) == pytest.approx(
        2.0 * math.asin(math.sqrt(0.05)), abs=1e-12)


def test_solve_ae_frozen():
    p_hat, led = solve_ae_via_ee(ae_instance_from_amplitude(0.6), 0.1, 1.0,
                                 RngStream(2, 0))
    assert p_hat == pytest.approx(0.34375, abs=1e-15)
    assert led.max_depth == AE_TO_EE_DEPTH_MULT  # degree-1 ramp inside
    assert abs(p_hat - 0.36) <= 0.1


def test_solve_pe_frozen_at_pi():
    """phi = pi sits at the arcsin edge; the error meets the bound exactly."""
    inst = pe_instance_from_phase(math.pi)
    phi_hat, led = solve_pe_via_ee(inst, 0.05, 0.5, RngStream(1, 0))
    assert phi_hat == pytest.approx(2.890936991253663, abs=1e-12)
    p_hat = math.sin(phi_hat / 2.0) ** 2
    tol = composed_phase_tolerance(p_hat, 0.05)
    assert abs(phi_hat - math.pi) == pytest.approx(tol, abs=1e-12)
    assert led.total_queries == 3628800
    assert led.max_depth == 54


def test_solve_pe_within_composed_tolerance():
    phi = math.pi / 3.0
    for seed in range(20):
        inst = pe_instance_from_phase(phi)
        phi_hat, _ = solve_pe_via_ee(inst, 0.05, 0.5, RngStream(seed, 0))
        p_hat = math.sin(phi_hat / 2.0) ** 2
        assert abs(phi_hat - phi) <= composed_phase_tolerance(p_hat, 0.05)


def test_solve_pe_ledger_is_six_times_inner():
    inst = pe_instance_from_phase(1.0)
    phi_hat, led = solve_pe_via_ee(inst, 0.1, 0.5, RngStream(0, 0))
    assert led.total_queries % AE_TO_EE_TIME_MULT == 0
    assert led.max_depth % AE_TO_EE_DEPTH_MULT == 0


class _Untouchable:
    def __getattr__(self, name):
        raise AssertionError(f"used {name} before checking dim")


@pytest.mark.parametrize("dim", [0, 33, 10**6])
def test_pe_factory_refuses_dim_before_drawing(dim):
    """pe_to_ae doubles dim, so 33 would build a 66-dim A."""
    stream = SimpleNamespace(generator=_Untouchable())
    with pytest.raises(ValueError, match=r"dim must lie in \[1, 32\]"):
        pe_instance_from_phase(1.0, dim=dim, rng=stream)


def test_pe_factory_at_the_dim_cap_fits_the_encoding():
    ae, _ = pe_to_ae(pe_instance_from_phase(1.0, dim=32, rng=RngStream(0, 0)))
    assert ae_block_encoding(ae).encoded.dim == 64


def test_factory_validation():
    with pytest.raises(ValueError):
        pe_instance_from_phase(1.0, dim=0)
    big = pe_instance_from_phase(2.5, dim=4, rng=RngStream(6, 0))
    assert big.U.shape == (4, 4)
    assert big.true_phi == pytest.approx(2.5)


@pytest.mark.parametrize("bad", (2.5, 2.0, True, "2"))
def test_pe_instance_takes_only_an_integer_dim(bad):
    with pytest.raises(ValueError, match="dim must be an integer"):
        pe_instance_from_phase(1.0, dim=bad)
    same = pe_instance_from_phase(1.0, dim=np.int64(2), rng=RngStream(3, 0))
    assert np.array_equal(same.U, pe_instance_from_phase(1.0, dim=2, rng=RngStream(3, 0)).U)
