"""Frozen outputs: each artefact is rebuilt and compared with its sha256.

A change that moves one of these digests changes a reproducible output.
Such a change lists the old and the new digest in CHANGES.md.  The seed-0
sweep with one run is pinned in test_cli.py.
"""

import hashlib

import numpy as np
import pytest

from qsvtsim import chebpoly, estimator
from qsvtsim.cli import main


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_acceptance_sweep_five_runs(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    assert main([
        "sweep", "--builtin", "diag:0.5,-0.25",
        "--alphas", "0", "0.25", "0.5", "0.75", "1",
        "--eps-list", "0.2", "0.1", "0.05", "0.025", "0.0125",
        "--runs", "5", "--seed", "0", "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert sha256(out_path.read_bytes()) == (
        "e3fc9394d64f0b0362474c36ed6c6673cf839d132c82b0f426f02312aba4f5cc")


def test_poly_build_with_its_files(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["poly", "--delta", "0.1", "--eta", "0.01",
                 "--emit", "curve.csv", "--save", "poly.txt"]) == 0
    out = capsys.readouterr().out
    digests = {"stdout": sha256(out.encode()),
               "curve.csv": sha256((tmp_path / "curve.csv").read_bytes()),
               "poly.txt": sha256((tmp_path / "poly.txt").read_bytes())}
    assert digests == {
        "stdout": "f654bed70a5e995f9d22ee027c5ec97498acad6fa111cf798038b08740bb5191",
        "curve.csv": "94cbd93c8da56dabb6fb96bfcf55720f69771d26d3a0ebacc37898c8e9dba883",
        "poly.txt": "f4d4c901fb06112f1acf6cf32fcb4fd980a179bdd48b037eaa20fc89955d3e82",
    }


@pytest.mark.parametrize("eps, digest", [
    (0.0125, "81feeebf79afaebae68da11d6246d2c7508d54443236ba45c666222ab459e289"),
    (0.00625, "4d17f8140c1c26b56c61756a324307f21c987ac6e2a67a64420d2208845f0385"),
    (0.003125, "98ad534ac1fc0cc8d82cb9dea666a2eb572b96dd769394468d97df0389484719"),
])
def test_high_degree_schedule_coefficients(eps, digest):
    """The alpha = 0 schedules at degrees 337, 675 and 1349, as float hex."""
    sched = estimator.alpha_schedule(0.0, eps, 1.0)
    text = "\n".join(float(c).hex() for c in sched.poly.coeffs)
    assert sha256(text.encode()) == digest


def _result_line(out):
    if isinstance(out, str):
        return out
    est, total, depth, shots = out
    return f"{float(est).hex()} {total} {depth} {shots}"


@pytest.mark.parametrize("seed, digest", [
    (0, "58b498fc4111fa0a086f10c867fb2543d0ec877234bc0d9b632462424d468775"),
    (1, "ce2e53608db86aa09a00a48cf1e8270804b129fc75bfb84b95adba75ce41e4b7"),
    (2, "749cef2dd3ed46e6bf181f2be3db41853c4d1b1f01db1cd1d35aed949274861a"),
])
def test_estimate_mix_results(workloads, seed, digest):
    """Every op's estimate and ledger, or its error line, in one pass."""
    results, _ = workloads.EstimateMix(seed).run_pass()
    text = "\n".join(_result_line(out) for out in results)
    assert sha256(text.encode()) == digest


def _scan_line(delta, eta, max_degree):
    spec = chebpoly.StepSpec(delta, eta)
    try:
        poly = chebpoly.build_step_approx(spec, max_degree)
    except chebpoly.CapacityError as exc:
        rep = exc.report
        fields = (rep.max_low_violation, rep.max_high_violation, rep.max_abs_excess)
        return "capacity " + " ".join(float(v).hex() for v in fields) + f" {rep.grid_size}"
    return "poly " + " ".join(float(c).hex() for c in poly.coeffs)


def test_build_scan():
    """125 builds: each certified polynomial's coefficients as float hex, or
    the least-bad BoundReport of each of the 47 capacity errors.  25 of
    those report the minimax path's Remez fit, the other 22 the degree-1
    ramp, the only candidate they tried; 13 certified lines are Remez fits."""
    lines = [_scan_line(delta, eta, cap)
             for delta in (0.01, 0.03, 0.07, 0.2, 0.45)
             for eta in (0.02, 0.1, 0.3, 0.6, 0.9)
             for cap in (3, 9, 21, 61, 4096)]
    assert sum(line.startswith("capacity") for line in lines) == 47
    assert sha256("\n".join(lines).encode()) == (
        "19171d405126eac4324a721cbf7b641fd6808f6df5b9f14fde1499d6965d4c3e")


def test_random_builds():
    """40 seeded random builds: delta = 10^U(-2, -0.05), eta = 10^U(-4, -0.01)
    and a cap from a fixed list, written as in test_build_scan.  As in that
    scan, no erf candidate was tried in any of the 29 capacity errors: 11
    report the minimax path's Remez fit, the other 18 the degree-1 ramp;
    one certified line is a Remez fit."""
    rng = np.random.default_rng(20261019)
    caps = (1, 2, 3, 5, 8, 15, 33, 64, 121, 400, 4096)
    lines = []
    for _ in range(40):
        delta = float(10 ** rng.uniform(-2.0, -0.05))
        eta = float(10 ** rng.uniform(-4.0, -0.01))
        lines.append(_scan_line(delta, eta, int(rng.choice(caps))))
    assert sum(line.startswith("capacity") for line in lines) == 29
    assert sha256("\n".join(lines).encode()) == (
        "bbc983527fbb6ab53bc69e32c312ff7ee21f0c8cb4b28ee1123e9c659e03fd34")


def test_eta_frontier_table():
    """min_eta_for_degree at delta 0.1, 0.3 and 0.45 and every odd degree
    1..21, as float hex; the delta = 0.2 lines are pinned in test_cli.py."""
    lines = [chebpoly.min_eta_for_degree(delta, d).hex()
             for delta in (0.1, 0.3, 0.45) for d in range(1, 22, 2)]
    assert sha256("\n".join(lines).encode()) == (
        "1226728cd9f5404416d3a879b20368d5f46e6df9df16544b09170faba392635a")
