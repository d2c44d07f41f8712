"""Acceptance gate: ten scenario checks, one reported line each.

Each test carries an acceptance(num, name) marker; conftest.py turns the
marked outcomes into one summary line per criterion, printed as

    ACCEPTANCE <n> PASS|FAIL: <name>

at the end of every pytest run.
"""

import io
import math

import numpy as np
import pytest

from qsvtsim.blockenc import HermitianOp, apply_poly
from qsvtsim.chebpoly import (CapacityError, StepSpec, build_step_approx,
                              degree_constant, min_eta_for_degree,
                              verify_bounds)
from qsvtsim.cli import SweepConfig, run_sweep, fit_slopes, write_sweep_csv
from qsvtsim.estimator import (alpha_schedule, diag_instance, estimate_ee,
                               hadamard_test_baseline, ipe_baseline)
from qsvtsim.reductions import (AE_TO_EE_DEPTH_MULT, AE_TO_EE_TIME_MULT,
                                PE_TO_AE_DEPTH_MULT, PE_TO_AE_TIME_MULT,
                                ae_block_encoding, ae_instance_from_amplitude,
                                ae_to_ee, composed_phase_tolerance,
                                grover_operator, pe_instance_from_phase,
                                pe_to_ae, scale_ledger, solve_pe_via_ee)
from qsvtsim.sampler import ResourceLedger, RngStream


SWEEP_ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
SWEEP_EPS = (0.2, 0.1, 0.05, 0.025, 0.0125)


@pytest.fixture(scope="module")
def sweep_rows():
    inst = diag_instance([0.5, -0.25])
    config = SweepConfig(alphas=SWEEP_ALPHAS, eps_list=SWEEP_EPS,
                         runs=1, seed=0)
    return run_sweep(inst, config)


@pytest.mark.acceptance(1, "step polynomial bounds and shared degree constant")
def test_criterion_1_polynomial_bounds():
    constants = []
    for delta in (0.05, 0.1, 0.2):
        for eta in (0.02, 0.1, 0.5):
            spec = StepSpec(delta, eta)
            poly = build_step_approx(spec)
            report = verify_bounds(poly, spec)
            assert report.grid_size >= 10_000
            assert report.max_low_violation <= 1e-9
            assert report.max_high_violation <= 1e-9
            assert report.max_abs_excess <= 1e-9
            constants.append(degree_constant(poly, spec))
    assert max(constants) / min(constants) <= 3.0


@pytest.mark.acceptance(2, "minimal eta frontier decreases with degree")
def test_criterion_2_eta_frontier():
    etas = [min_eta_for_degree(0.2, d) for d in (3, 7, 15, 21)]
    assert all(a > b for a, b in zip(etas, etas[1:]))
    # degree 1 is feasible exactly down to eta = 1 - delta = 0.8
    assert abs(min_eta_for_degree(0.2, 1) - 0.8) <= 1e-4
    assert build_step_approx(StepSpec(0.2, 0.8 + 2e-4), max_degree=1).degree == 1
    with pytest.raises(CapacityError):
        build_step_approx(StepSpec(0.2, 0.8 - 2e-4), max_degree=1)


@pytest.mark.acceptance(3, "matrix transform agrees with the eigendecomposition oracle")
def test_criterion_3_transform_equivalence():
    pool = [build_step_approx(StepSpec(d, e))
            for d, e in ((0.2, 0.02), (0.2, 0.1), (0.2, 0.5),
                         (0.1, 0.1), (0.1, 0.5), (0.05, 0.5))]
    assert all(p.degree <= 31 for p in pool)
    rng = np.random.default_rng(314)
    for _ in range(50):
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = 0.5 * (raw + raw.conj().T)
        herm *= 0.95 / np.max(np.abs(np.linalg.eigvalsh(herm)))
        h = HermitianOp.from_matrix(herm)
        poly = pool[int(rng.integers(len(pool)))]
        got = apply_poly(h, poly)
        w, v = np.linalg.eigh(h.matrix)
        want = (v * poly.eval(w)) @ v.conj().T
        assert np.max(np.abs(got - want)) <= 1e-9


@pytest.mark.acceptance(4, "estimation hits the target at every alpha")
def test_criterion_4_estimation_correctness():
    inst = diag_instance([0.5, -0.25])
    for alpha in (0.0, 0.5, 1.0):
        hits = 0
        for seed in range(100):
            mu_hat, _ = estimate_ee(inst, 0.05, alpha, RngStream(seed, 0))
            hits += abs(mu_hat - 0.5) <= 0.05
        assert hits >= 90, f"alpha={alpha}: only {hits}/100 within eps"


@pytest.mark.acceptance(5, "depth shrinks like (gamma/eps)^(1-alpha)")
def test_criterion_5_depth_scaling(sweep_rows):
    slopes = fit_slopes(sweep_rows)
    for alpha in SWEEP_ALPHAS:
        d_slope = slopes[alpha][1]
        assert abs(d_slope - (1.0 - alpha)) <= 0.2, \
            f"alpha={alpha}: D slope {d_slope:.3f}"


@pytest.mark.acceptance(6, "time grows like (gamma/eps)^(1+alpha) and ledgers balance")
def test_criterion_6_time_scaling(sweep_rows):
    for row in sweep_rows:
        assert row.error == ""
        assert row.T == row.iterations * row.n_samples * row.degree
        assert row.D == row.degree
    slopes = fit_slopes(sweep_rows)
    for alpha in SWEEP_ALPHAS:
        t_slope = slopes[alpha][0]
        assert abs(t_slope - (1.0 + alpha)) <= 0.25, \
            f"alpha={alpha}: T slope {t_slope:.3f}"


@pytest.mark.acceptance(7, "reduction circuit identities and cost multipliers")
def test_criterion_7_reduction_identities():
    assert (PE_TO_AE_TIME_MULT, PE_TO_AE_DEPTH_MULT) == (2, 2)
    assert (AE_TO_EE_TIME_MULT, AE_TO_EE_DEPTH_MULT) == (6, 6)
    scaled = scale_ledger(ResourceLedger(7, 3, 5), 6, 6)
    assert (scaled.total_queries, scaled.max_depth, scaled.shots) == (42, 18, 5)

    rng = np.random.default_rng(2718)
    for k in range(20):
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        dim = int(rng.integers(1, 4))
        pe = pe_instance_from_phase(phi, dim=dim,
                                    rng=RngStream(int(rng.integers(1 << 30)), 0))
        ae, _ = pe_to_ae(pe)
        e0 = np.zeros(ae.A.shape[0], dtype=complex)
        e0[0] = 1.0
        target = np.kron(pe.U_psi[:, 0], np.array([math.cos(phi / 2.0),
                                                   -1j * math.sin(phi / 2.0)]))
        # the interferometer adds a global phase exp(i phi/2) on top of
        # the quoted form; compare with it in place
        assert np.linalg.norm(ae.A @ e0 - np.exp(1j * phi / 2.0) * target) \
            <= 1e-10

        amp = abs(math.sin(phi / 2.0))
        one_qubit = ae_instance_from_amplitude(amp)
        q = grover_operator(one_qubit)
        assert one_qubit.calls == {"A": 1, "A_dagger": 1, "O_A": 1}
        angles = np.sort(np.angle(np.linalg.eigvals(q)))
        want = np.sort([-2.0 * math.asin(amp), 2.0 * math.asin(amp)])
        assert np.max(np.abs(angles - want)) <= 1e-10

        one_qubit = ae_instance_from_amplitude(amp)
        be = ae_block_encoding(one_qubit)
        assert one_qubit.calls == {"A": 2, "A_dagger": 2, "O_A": 2}
        ee, _ = ae_to_ee(one_qubit)
        resid = be.encoded.matrix @ ee.psi - (1.0 - 2.0 * amp * amp) * ee.psi
        assert np.linalg.norm(resid) <= 1e-10


@pytest.mark.acceptance(8, "phase recovery through the full reduction chain")
def test_criterion_8_end_to_end_phase():
    phi = math.pi / 3.0
    inner_degree = alpha_schedule(0.5, 0.05, 1.0).degree
    hits = 0
    for seed in range(20):
        inst = pe_instance_from_phase(phi)
        phi_hat, ledger = solve_pe_via_ee(inst, 0.05, 0.5, RngStream(seed, 0))
        p_hat = math.sin(phi_hat / 2.0) ** 2
        hits += abs(phi_hat - phi) <= composed_phase_tolerance(p_hat, 0.05)
        assert ledger.max_depth == AE_TO_EE_DEPTH_MULT * inner_degree
    assert hits >= 18, f"only {hits}/20 within composed tolerance"


@pytest.mark.acceptance(9, "baseline estimators keep their cost profiles")
def test_criterion_9_baselines():
    eps_grid = (0.2, 0.1, 0.05, 0.025, 0.0125)
    totals = []
    for eps in eps_grid:
        _, ledger = hadamard_test_baseline(0.3, eps, RngStream(1, 0))
        assert ledger.max_depth == 1
        totals.append(ledger.total_queries)
    assert totals == [25, 100, 400, 1600, 6400]
    xs = [math.log(1.0 / e) for e in eps_grid]
    slope = float(np.polyfit(xs, [math.log(t) for t in totals], 1)[0])
    assert abs(slope - 2.0) <= 0.2

    for k in range(16):
        phi = 2.0 * math.pi * k / 16.0
        for seed in (0, 99):
            phi_hat, ledger = ipe_baseline(phi, 4, 5, RngStream(seed, 0))
            assert phi_hat == pytest.approx(phi, abs=1e-12)
            assert ledger.max_depth == 8
            assert ledger.total_queries == 75


@pytest.mark.acceptance(10, "identical seeds reproduce the sweep byte for byte")
def test_criterion_10_determinism(sweep_rows):
    inst = diag_instance([0.5, -0.25])
    config = SweepConfig(alphas=SWEEP_ALPHAS, eps_list=SWEEP_EPS,
                         runs=1, seed=0)
    again = run_sweep(inst, config)
    first, second = io.StringIO(), io.StringIO()
    write_sweep_csv(sweep_rows, first)
    write_sweep_csv(again, second)
    assert first.getvalue() == second.getvalue()
    assert len(second.getvalue().splitlines()) == 26
