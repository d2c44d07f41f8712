"""End-to-end command line tests, all driven through main(argv)."""

import hashlib
import math
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsvtsim.cli import (CSV_HEADER, SweepRow, main, read_sweep_csv,
                         row_from_csv_line, write_sweep_csv)


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_kv(out):
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition(" ")
        pairs[key] = value
    return pairs


def test_poly_degree_one(capsys):
    rc, out, _ = run_cli(capsys, ["poly", "--delta", "0.2", "--eta", "0.9"])
    assert rc == 0
    kv = parse_kv(out)
    assert kv["degree"] == "1"
    assert kv["certified"] == "1"
    assert kv["parity"] == "none"


def test_poly_tight_case_with_artifacts(capsys, tmp_path):
    curve = tmp_path / "curve.csv"
    coeffs = tmp_path / "poly.txt"
    rc, out, _ = run_cli(capsys, [
        "poly", "--delta", "0.1", "--eta", "0.01",
        "--emit", str(curve), "--save", str(coeffs)])
    assert rc == 0
    kv = parse_kv(out)
    assert kv["degree"] == "71"
    assert kv["certified"] == "1"
    assert float(kv["constant_C"]) <= 1.2
    assert len(curve.read_text().splitlines()) == 1001
    assert coeffs.read_text().splitlines()[0] == "degree 71"


def test_poly_min_eta_mode(capsys):
    """The printed eta frontier is frozen digit for digit."""
    rc, out, _ = run_cli(capsys, ["poly", "--delta", "0.2",
                                  "--degree", "1,3,7,15,21"])
    assert rc == 0
    assert out.splitlines() == [
        "degree 1 min_eta 0.80004882752490225",
        "degree 3 min_eta 0.54846191396557609",
        "degree 7 min_eta 0.23248291069128418",
        "degree 15 min_eta 0.038146973579956056",
        "degree 21 min_eta 0.0099487314488525408",
    ]


def test_poly_needs_eta_or_degree(capsys):
    rc, _, err = run_cli(capsys, ["poly", "--delta", "0.2"])
    assert rc == 2
    assert err.startswith("error:")


def test_estimate_frozen_ramp(capsys):
    rc, out, _ = run_cli(capsys, [
        "estimate", "--builtin", "diag:0.5,-0.25",
        "--eps", "0.05", "--alpha", "1", "--seed", "0"])
    assert rc == 0
    kv = parse_kv(out)
    assert kv["mu_hat"] == "0.46875"
    assert kv["true_mu"] == "0.5"
    assert kv["degree"] == "1"
    assert kv["D"] == "1"
    assert kv["T"] == "5376000"


def test_estimate_frozen_sharp(capsys):
    rc, out, _ = run_cli(capsys, [
        "estimate", "--builtin", "diag:0.5,-0.25",
        "--eps", "0.05", "--alpha", "0", "--seed", "0"])
    assert rc == 0
    kv = parse_kv(out)
    assert kv["degree"] == "85"
    assert kv["D"] == "85"
    assert float(kv["abs_error"]) <= 0.05


def test_estimate_output_is_deterministic(capsys):
    argv = ["estimate", "--builtin", "diag:0.5,-0.25",
            "--eps", "0.1", "--alpha", "0.5", "--seed", "11"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_estimate_matrix_file_matches_builtin(capsys, tmp_path):
    path = tmp_path / "h.mat"
    path.write_text("dim 2\n0.5+0j 0+0j\n0+0j -0.25+0j\n")
    rc, out, _ = run_cli(capsys, [
        "estimate", "--matrix", str(path), "--gamma", "1",
        "--eig-index", "1", "--eps", "0.05", "--alpha", "1", "--seed", "0"])
    assert rc == 0
    kv = parse_kv(out)
    # eigh orders ascending, so index 1 is the 0.5 eigenvalue; the fast
    # path then depends only on (true_mu, gamma, seed)
    assert kv["true_mu"] == "0.5"
    assert kv["mu_hat"] == "0.46875"


def test_estimate_rejects_bad_builtin(capsys):
    rc, _, err = run_cli(capsys, [
        "estimate", "--builtin", "foo:1", "--eps", "0.1", "--alpha", "1"])
    assert rc == 2
    assert err.startswith("error:")


def test_estimate_rejects_bad_matrix_file(capsys, tmp_path):
    path = tmp_path / "broken.mat"
    path.write_text("dim 2\n1 0\n")
    rc, _, err = run_cli(capsys, [
        "estimate", "--matrix", str(path), "--eps", "0.1", "--alpha", "1"])
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("source", ["builtin", "matrix"])
def test_estimate_rejects_non_finite_matrix(capsys, tmp_path, source):
    if source == "builtin":
        args = ["--builtin", "diag:nan,0.2"]
    else:
        path = tmp_path / "nan.mat"
        path.write_text("dim 2\nnan+0j 0+0j\n0+0j 1+0j\n")
        args = ["--matrix", str(path)]
    rc, _, err = run_cli(capsys, ["estimate", *args, "--eps", "0.1", "--alpha", "0.5"])
    assert rc == 2
    assert err.startswith("error: matrix entry at row 0, column 0 is not finite: (nan+0j)")


@pytest.mark.parametrize("args, names", [
    (["--gamma", "1e308", "--eps", "0.1", "--alpha", "0.5"], "gamma=1e+308"),
    (["--eps", "1e-300", "--alpha", "1"], "eps=1e-300"),
    (["--gamma", "nan", "--eps", "0.1", "--alpha", "0.5"], "gamma must be finite"),
    (["--gamma", "inf", "--eps", "0.1", "--alpha", "0.5"], "gamma must be finite"),
    (["--eps", "nan", "--alpha", "0.5"], "eps must be finite"),
], ids=["gamma-1e308", "eps-1e-300", "gamma-nan", "gamma-inf", "eps-nan"])
def test_estimate_rejects_extreme_floats(capsys, args, names):
    rc, _, err = run_cli(capsys, ["estimate", "--builtin", "diag:0.5,0.2", *args])
    assert rc == 2
    assert err.startswith("error:")
    assert names in err
    assert "Traceback" not in err


def test_estimate_capacity_exit_code(capsys):
    rc, _, err = run_cli(capsys, [
        "estimate", "--builtin", "diag:0.5,-0.25",
        "--eps", "0.05", "--alpha", "0", "--max-degree", "9"])
    assert rc == 1
    assert err.startswith("capacity:")
    # the least-bad candidate's BoundReport follows the builder's message
    head, _, report = err.strip().partition("; least-bad candidate: ")
    assert head.endswith("for delta=0.0125, eta=0.5")
    fields = report.split()
    assert fields[0::2] == ["max_low_violation", "max_high_violation", "max_abs_excess"]
    assert min(float(v) for v in fields[1::2]) >= 0.0
    assert max(float(v) for v in fields[1::2]) > 1e-9


def test_sweep_rows_and_ledger_identity(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    argv = ["sweep", "--builtin", "diag:0.5,-0.25", "--alphas", "0.5",
            "--eps-list", "0.2", "0.1", "--runs", "3", "--seed", "0",
            "--out", str(out_path)]
    rc, _, _ = run_cli(capsys, argv)
    assert rc == 0
    rows = read_sweep_csv(out_path)
    assert len(rows) == 6
    for row in rows:
        assert row.error == ""
        assert row.T == row.iterations * row.n_samples * row.degree
        assert row.D == row.degree
        assert row.success in (0, 1)
        assert row.gamma == 1.0
    first = out_path.read_bytes()
    rc, _, _ = run_cli(capsys, argv)
    assert rc == 0
    assert out_path.read_bytes() == first


def test_sweep_acceptance_grid_bytes_frozen(capsys, tmp_path):
    """The seed-0 5x5 acceptance sweep CSV is frozen byte for byte."""
    out_path = tmp_path / "grid.csv"
    rc, _, _ = run_cli(capsys, [
        "sweep", "--builtin", "diag:0.5,-0.25",
        "--alphas", "0", "0.25", "0.5", "0.75", "1",
        "--eps-list", "0.2", "0.1", "0.05", "0.025", "0.0125",
        "--seed", "0", "--out", str(out_path)])
    assert rc == 0
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == ("854bfb1d9ec7def5d6a76664cd62f1de"
                      "2e6890d6df5eb944494f5ea548f0a5bd")


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_sweep_rejects_runs_below_one(capsys, tmp_path, runs):
    out_path = tmp_path / "none.csv"
    rc, _, err = run_cli(capsys, [
        "sweep", "--builtin", "diag:0.5,-0.25", "--alphas", "1",
        "--eps-list", "0.25", "--runs", runs, "--out", str(out_path)])
    assert rc == 2
    assert err.startswith("error: runs must be at least 1")
    assert not out_path.exists()


def test_sweep_stdout_header(capsys):
    rc, out, _ = run_cli(capsys, [
        "sweep", "--builtin", "diag:0.5,-0.25", "--alphas", "1",
        "--eps-list", "0.25", "--runs", "1", "--out", "-"])
    assert rc == 0
    assert out.splitlines()[0] == CSV_HEADER
    assert CSV_HEADER == ("alpha,eps,gamma,seed,run_index,mu_hat,true_mu,"
                          "abs_error,success,T,D,degree,n_samples,iterations,"
                          "error")


_CELLS = {"float": st.floats(), "int": st.integers(),
          "str": st.text(st.characters() | st.sampled_from(",\n"))}


@given(st.builds(SweepRow, **{f.name: _CELLS[f.type] for f in fields(SweepRow)}))
@example(SweepRow(0.5, 0.1, 1.0, -3, 0, math.nan, 0.5, math.nan, 0, 0, 0, 0,
                  0, 0, "no polynomial,\nfor delta=0.05, eta=0.5\n"))
@settings(max_examples=200, deadline=None)
def test_csv_line_round_trip(row):
    line = row.to_csv_line()
    assert row_from_csv_line(line).to_csv_line() == line


def test_sweep_capacity_cells_are_error_rows(capsys, tmp_path):
    out_path = tmp_path / "cap.csv"
    rc, _, err = run_cli(capsys, [
        "sweep", "--builtin", "diag:0.5,-0.25", "--alphas", "0",
        "--eps-list", "0.2", "--runs", "1", "--max-degree", "9",
        "--out", str(out_path)])
    assert rc == 1
    assert "capacity" in err
    rows = read_sweep_csv(out_path)
    assert len(rows) == 1
    assert rows[0].error != ""
    # the CSV cell carries the builder's message alone, without the report
    assert rows[0].error == ("no certified step polynomial of degree <= 9 "
                             "for delta=0.05; eta=0.5")
    assert rows[0].success == 0
    assert rows[0].T == 0
    assert math.isnan(rows[0].mu_hat)


def test_fit_exact_synthetic_power_law(capsys, tmp_path):
    rows = []
    for eps, depth in ((0.25, 2), (0.0625, 4), (0.015625, 8)):
        logfac = math.ceil(math.log2(4.0 / eps))
        rows.append(SweepRow(
            alpha=0.5, eps=eps, gamma=1.0, seed=0, run_index=0,
            mu_hat=0.0, true_mu=0.0, abs_error=0.0, success=1,
            T=logfac * logfac * round(1.0 / eps), D=depth, degree=depth,
            n_samples=1, iterations=1))
    path = tmp_path / "synth.csv"
    with open(path, "w") as fh:
        write_sweep_csv(rows, fh)
    rc, out, _ = run_cli(capsys, ["fit", str(path)])
    assert rc == 0
    fields = out.split()
    kv = dict(zip(fields[::2], fields[1::2]))
    assert kv["alpha"] == "0.5"
    assert abs(float(kv["T_slope"]) - 1.0) <= 1e-6
    assert abs(float(kv["D_slope"]) - 0.5) <= 1e-6
    assert float(kv["T_resid"]) <= 1e-6
    assert float(kv["D_resid"]) <= 1e-6
    assert kv["n_eps"] == "3"


def test_fit_needs_three_eps(capsys, tmp_path):
    out_path = tmp_path / "narrow.csv"
    rc, _, _ = run_cli(capsys, [
        "sweep", "--builtin", "diag:0.5,-0.25", "--alphas", "1",
        "--eps-list", "0.25", "0.2", "--runs", "1", "--out", str(out_path)])
    assert rc == 0
    rc, _, err = run_cli(capsys, ["fit", str(out_path)])
    assert rc == 2
    assert "3 distinct eps" in err


def test_fit_endpoint_alphas_on_real_sweep(capsys, tmp_path):
    """Deterministic T and D columns give deterministic endpoint slopes."""
    out_path = tmp_path / "ends.csv"
    rc, _, _ = run_cli(capsys, [
        "sweep", "--builtin", "diag:0.5,-0.25", "--alphas", "0", "1",
        "--eps-list", "0.2", "0.1", "0.05", "--runs", "1",
        "--out", str(out_path)])
    assert rc == 0
    rc, out, _ = run_cli(capsys, ["fit", str(out_path)])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 2
    sharp = dict(zip(lines[0].split()[::2], lines[0].split()[1::2]))
    ramp = dict(zip(lines[1].split()[::2], lines[1].split()[1::2]))
    assert abs(float(sharp["D_slope"]) - 1.0) <= 0.2
    assert abs(float(ramp["D_slope"])) <= 0.1
    assert abs(float(ramp["T_slope"]) - 2.0) <= 0.25


def test_reduce_pe_frozen(capsys):
    rc, out, _ = run_cli(capsys, [
        "reduce", "pe", "--phi", "1.0471975512", "--eps", "0.05",
        "--alpha", "0.5", "--seed", "7"])
    assert rc == 0
    kv = parse_kv(out)
    assert kv["mode"] == "pe"
    assert float(kv["phi_hat"]) == pytest.approx(1.0107210205683146, abs=1e-12)
    assert kv["within_tolerance"] == "1"
    assert kv["T"] == "3628800"
    assert kv["D"] == "54"
    assert kv["time_multiplier"] == "6"
    assert kv["pe_time_multiplier"] == "2"
    assert (kv["calls_A"], kv["calls_A_dagger"], kv["calls_O_A"]) \
        == ("2", "2", "2")
    p_hat = float(kv["p_hat"])
    assert float(kv["mu_hat"]) == pytest.approx(1.0 - 2.0 * p_hat, abs=1e-12)


def test_reduce_ae_near_half_probability(capsys):
    rc, out, _ = run_cli(capsys, [
        "reduce", "ae", "--amp", "0.7071067812", "--eps", "0.05",
        "--alpha", "1", "--seed", "0"])
    assert rc == 0
    kv = parse_kv(out)
    assert kv["mode"] == "ae"
    p_hat = float(kv["p_hat"])
    assert abs(p_hat - 0.5) <= 0.05
    assert float(kv["amp_hat"]) == pytest.approx(math.sqrt(p_hat), abs=1e-12)
    assert kv["D"] == "6"  # degree-1 ramp times the encoding depth factor
    assert (kv["calls_A"], kv["calls_A_dagger"], kv["calls_O_A"]) \
        == ("2", "2", "2")


def test_reduce_pe_rejects_phase_past_pi(capsys):
    rc, _, err = run_cli(capsys, [
        "reduce", "pe", "--phi", "3.5", "--eps", "0.05", "--alpha", "0.5"])
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("dim", ["33", "65"])
def test_reduce_pe_rejects_dim_beyond_cap(capsys, dim):
    rc, _, err = run_cli(capsys, [
        "reduce", "pe", "--phi", "1.0", "--dim", dim, "--eps", "0.05",
        "--alpha", "0.5"])
    assert rc == 2
    assert err == "error: --dim must lie in [1, 32]\n"


def test_reduce_missing_arguments(capsys):
    rc, _, err = run_cli(capsys, [
        "reduce", "pe", "--eps", "0.05", "--alpha", "0.5"])
    assert rc == 2
    rc, _, err = run_cli(capsys, [
        "reduce", "ae", "--eps", "0.05", "--alpha", "0.5"])
    assert rc == 2
