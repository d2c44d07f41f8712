"""Phase -> amplitude -> eigenvalue reduction chain tests.

Oracle-call budgets are asserted from the instrumented counters, never
from the documented multipliers alone.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qsvtsim.blockenc import HermitianOp
from qsvtsim.estimator import diag_instance
from qsvtsim.reductions import (AE_TO_EE_DEPTH_MULT, AE_TO_EE_TIME_MULT,
                                PE_TO_AE_DEPTH_MULT, PE_TO_AE_TIME_MULT,
                                AEInstance, PEInstance, ae_block_encoding,
                                ae_instance_from_amplitude, ae_to_ee,
                                composed_phase_tolerance, grover_operator,
                                pe_instance_from_phase, pe_to_ae,
                                scale_ledger, solve_ae_via_ee,
                                solve_pe_via_ee)
from qsvtsim.sampler import ResourceLedger, RngStream


def test_multiplier_constants():
    assert (PE_TO_AE_TIME_MULT, PE_TO_AE_DEPTH_MULT) == (2, 2)
    assert (AE_TO_EE_TIME_MULT, AE_TO_EE_DEPTH_MULT) == (6, 6)


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


def test_factory_validation():
    with pytest.raises(ValueError):
        pe_instance_from_phase(1.0, dim=0)
    big = pe_instance_from_phase(2.5, dim=4, rng=RngStream(6, 0))
    assert big.U.shape == (4, 4)
    assert big.true_phi == pytest.approx(2.5)
