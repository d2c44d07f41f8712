"""End-to-end command line tests, all driven through main(argv)."""

import hashlib
import math
import os
import re
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsvtsim import chebpoly, cli, estimator
from qsvtsim.cli import (CSV_HEADER, SweepConfig, SweepRow, main,
                         read_sweep_csv, row_from_csv_line, run_sweep,
                         write_sweep_csv)


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


@pytest.mark.parametrize("degrees, bad", [
    ("nan", "nan"), ("3,0", "0"), ("-1", "-1"), ("1e308", "1e308"), ("3,x,7", "x"),
])
def test_poly_degree_list_names_the_bad_token(capsys, degrees, bad):
    rc, out, err = run_cli(capsys, ["poly", "--delta", "0.2", "--degree", degrees])
    assert rc == 2
    assert out == ""
    assert err == f"error: --degree wants positive integers, got {bad!r}\n"


def test_poly_needs_eta_or_degree(capsys):
    rc, _, err = run_cli(capsys, ["poly", "--delta", "0.2"])
    assert rc == 2
    assert err == "error: poly needs either --eta or --degree\n"


def test_poly_rejects_eta_with_degree(capsys):
    """--eta and --degree exclude each other; neither is dropped silently."""
    with pytest.raises(SystemExit) as info:
        main(["poly", "--delta", "0.2", "--eta", "0.5", "--degree", "3"])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == (
        "qsvtsim poly: error: argument --degree: not allowed with argument --eta")


@pytest.mark.parametrize("flag, value", [
    ("--emit", "curve.csv"), ("--save", "poly.txt"), ("--max-degree", "0"),
    ("--max-degree", str(chebpoly.DEFAULT_MAX_DEGREE))])
def test_poly_degree_rejects_build_only_flags(capsys, tmp_path, monkeypatch,
                                              flag, value):
    """--degree reports etas and builds no polynomial, so a flag that only
    a build uses is an error rather than silently dropped."""
    monkeypatch.chdir(tmp_path)
    rc, out, err = run_cli(capsys, ["poly", "--delta", "0.2", "--degree", "3",
                                    flag, value])
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} applies only with --eta, not --degree\n"
    assert list(tmp_path.iterdir()) == []


def test_poly_capacity_reports_the_least_bad_of_two_candidates(capsys):
    """The ramp misses each plateau by 0.0757; the degree-5 minimax fit
    misses by 1.95e-9, and its report is the one printed."""
    rc, out, err = run_cli(capsys, ["poly", "--delta", "0.05", "--eta",
                                    "0.7985613664386098", "--max-degree", "5"])
    assert rc == 1
    assert out == ""
    assert err == (
        "capacity: no certified step polynomial of degree <= 5 for "
        "delta=0.05, eta=0.7985613664386098; least-bad candidate: "
        "max_low_violation 1.9524297178996619e-09 max_high_violation "
        "1.9524296623885107e-09 max_abs_excess -4.9960036108132044e-14\n")


def test_poly_capacity_can_report_a_minimax_fit(capsys):
    """Under a degree-3 cap the ramp misses each plateau by 0.265 and the
    degree-3 minimax fit by 0.0910; the fit's report is the one printed."""
    rc, out, err = run_cli(capsys, ["poly", "--delta", "0.45", "--eta", "0.02",
                                    "--max-degree", "3"])
    assert (rc, out) == (1, "")
    assert err == (
        "capacity: no certified step polynomial of degree <= 3 for "
        "delta=0.45, eta=0.02; least-bad candidate: "
        "max_low_violation 0.09098409750873733 max_high_violation "
        "0.090984097508737261 max_abs_excess -4.6497830030745035e-09\n")


def test_poly_certifies_the_degree_3_minimax_fit_just_below_its_t_star(capsys):
    """eta = 0.54842426 lies 2e-9 below the degree-3 fit's t* = 0.548424262,
    within the 1e-9 certification tolerance on each plateau (the step is
    (1 + q)/2, so it misses by half that); the fit itself is returned."""
    rc, out, err = run_cli(capsys, ["poly", "--delta", "0.2", "--eta", "0.54842426",
                                    "--max-degree", "3"])
    assert (rc, err) == (0, "")
    assert out == (
        "delta 0.20000000000000001\n"
        "eta 0.54842426\n"
        "degree 3\n"
        "parity none\n"
        "constant_C 0.30196268868790799\n"
        "max_low_violation 9.8613972543404316e-10\n"
        "max_high_violation 9.8613972543404316e-10\n"
        "max_abs_excess -8.8151708155237429e-13\n"
        "certified 1\n")


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
    """A diagonal file and the same builtin make one instance.

    eigh orders ascending, so every --eig-index picks the same eigenpair,
    and with --gamma given the whole stdout agrees; the fast path then
    depends only on (true_mu, gamma, seed).  Without --gamma a file
    defaults to ||H|| and a builtin to 1.
    """
    tail = ["--eps", "0.05", "--alpha", "1", "--seed", "0"]
    for diag, top_mu_hat in [((-0.25, 0.5), "0.46875"),
                             ((-0.6, 0.1, 0.3), "0.28125"),
                             ((-0.7, -0.2, 0.4, 0.9), "0.90625")]:
        n = len(diag)
        path = tmp_path / f"h{n}.mat"
        path.write_text(f"dim {n}\n" + "".join(
            " ".join(f"{v if i == j else 0.0}+0j" for j in range(n)) + "\n"
            for i, v in enumerate(diag)))
        sources = (["--matrix", str(path)],
                   ["--builtin", "diag:" + ",".join(map(str, diag))])
        for idx in range(n):
            outs = []
            for source in sources:
                rc, out, _ = run_cli(capsys, ["estimate", *source, "--gamma", "1",
                                              "--eig-index", str(idx), *tail])
                assert rc == 0
                outs.append(out)
            assert outs[0] == outs[1]
            assert float(parse_kv(outs[0])["true_mu"]) == diag[idx]
        assert parse_kv(outs[0])["mu_hat"] == top_mu_hat
        for source, gamma in zip(sources, (max(map(abs, diag)), 1.0)):
            rc, out, _ = run_cli(capsys, ["estimate", *source, *tail])
            assert rc == 0
            assert parse_kv(out)["gamma"] == f"{gamma:.17g}"


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
    (["--eps", "1e-15", "--alpha", "1"], "2**63 - 1 at gamma=1.0, eps=1e-15"),
], ids=["gamma-1e308", "eps-1e-300", "gamma-nan", "gamma-inf", "eps-nan",
        "samples-past-int64"])
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


def test_sweep_builds_one_schedule_per_cell(monkeypatch):
    """Each row's degree, n_samples and iterations come from the ledger of
    the estimate that ran, not from a second schedule build."""
    calls = []
    real_schedule = estimator.alpha_schedule

    def counted_schedule(*args, **kwargs):
        calls.append(args)
        return real_schedule(*args, **kwargs)

    for mod in (estimator, cli):  # every binding, "from" imports included
        if vars(mod).get("alpha_schedule") is real_schedule:
            monkeypatch.setattr(mod, "alpha_schedule", counted_schedule)
    rows = run_sweep(estimator.diag_instance([0.5, -0.25]),
                     SweepConfig(alphas=(0.5, 1.0), eps_list=(0.2, 0.1),
                                 runs=2, seed=0))
    assert len(calls) == len(rows) == 8
    for row in rows:
        sched = real_schedule(row.alpha, row.eps, row.gamma)
        assert (row.degree, row.n_samples) == (sched.degree, sched.n_samples)
        assert row.iterations == math.ceil(math.log2(2.0 / row.eps))


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
    assert err == "capacity: 1 of 1 cells hit builder capacity\n"
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


@pytest.mark.parametrize("sweep", [False, True], ids=["header-only", "all-capacity"])
def test_fit_needs_a_completed_row(capsys, tmp_path, sweep):
    path = tmp_path / "empty.csv"
    if sweep:
        rc, _, _ = run_cli(capsys, [
            "sweep", "--builtin", "diag:0.5,-0.25", "--alphas", "0",
            "--eps-list", "0.2", "0.1", "0.05", "--max-degree", "3",
            "--out", str(path)])
        assert rc == 1
        assert len(read_sweep_csv(path)) == 3
    else:
        path.write_text(CSV_HEADER + "\n")
    rc, out, err = run_cli(capsys, ["fit", str(path)])
    assert (rc, out) == (2, "")
    assert err == ("error: no completed sweep row to fit: every row has a "
                   "nonempty error column, or there is no row\n")


@pytest.mark.parametrize("eps, gamma, T, D", [
    ("0.1", "inf", "10", "1"), ("5e-324", "1e308", "10", "1"), ("8", "1", "10", "1"),
    ("0.1", "nan", "10", "1"), ("0.1", "1", "0", "1"), ("0.1", "1", "10", "0"),
    ("0.1", "1", "1", "2"), ("0.1", "1", str(10**400), "1"),
], ids=["gamma-inf", "ratio-inf", "eps-past-4gamma", "gamma-nan", "T-0", "D-0",
        "D-above-T", "T-past-float"])
def test_fit_rejects_rows_it_cannot_take_logs_of(capsys, tmp_path, eps, gamma, T, D):
    path = tmp_path / "bad.csv"
    good = [f"0.5,{e},1,0,0,0.1,0.1,0,1,10,1,1,1,1," for e in ("0.05", "0.025")]
    bad = f"0.5,{eps},{gamma},0,0,0.1,0.1,0,1,{T},{D},1,1,1,"
    path.write_text("\n".join([CSV_HEADER, bad, *good]) + "\n")
    rc, _, err = run_cli(capsys, ["fit", str(path)])
    assert rc == 2
    assert err.startswith(f"error: sweep row alpha=0.5, eps={float(eps)!r}: fit needs")


@pytest.mark.parametrize("lines, where", [
    ([CSV_HEADER, "0.5,0.1,1,nan,0,0.1,0.1,0,1,10,1,1,1,1,"],
     " line 2: column seed: invalid literal for int() with base 10: 'nan'"),
    ([CSV_HEADER, "", "0.5,0.1,1,0,0,0.1,0.1,0,1,10,1,1,1,x,"],
     " line 3: column iterations: invalid literal"),
    ([CSV_HEADER, "0.5,0.1,1,0,0,0.1,0.1,0,1,10,1,1,1"],
     " line 2: expected 15 fields, got 13"),
    (["alpha,eps"], ": not a sweep CSV (bad header)"),
], ids=["int-nan", "after-blank-line", "short-row", "bad-header"])
def test_fit_names_the_file_line_and_column_it_cannot_read(capsys, tmp_path,
                                                           lines, where):
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n")
    rc, out, err = run_cli(capsys, ["fit", str(path)])
    assert (rc, out) == (2, "")
    assert err.startswith(f"error: {path}{where}")


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


# Whole stdout of one estimate and one reduce per mode, byte for byte.
_PINNED_STDOUT = {
    "estimate": (
        ["estimate", "--builtin", "diag:0.3,-0.25", "--eps", "0.0125",
         "--alpha", "0", "--seed", "11"],
        "mu_hat 0.3046875\n"
        "true_mu 0.29999999999999999\n"
        "abs_error 0.0046875000000000111\n"
        "eps 0.012500000000000001\n"
        "alpha 0\n"
        "gamma 1\n"
        "degree 337\n"
        "n_samples 180\n"
        "iterations 8\n"
        "T 485280\n"
        "D 337\n"),
    "reduce-pe": (
        ["reduce", "pe", "--phi", "2.0", "--dim", "3", "--eps", "0.05",
         "--alpha", "0.25", "--seed", "1"],
        "mode pe\n"
        "phi 2\n"
        "dim 3\n"
        "true_amp 0.8414709848078965\n"
        "mu -0.41614683654714235\n"
        "mu_hat -0.40625\n"
        "p_hat 0.703125\n"
        "phi_hat 1.989142713238365\n"
        "abs_phase_error 0.010857286761634999\n"
        "phase_tolerance 0.055430051188107843\n"
        "within_tolerance 1\n"
        "pe_time_multiplier 2\n"
        "time_multiplier 6\n"
        "depth_multiplier 6\n"
        "calls_A 2\n"
        "calls_A_dagger 2\n"
        "calls_O_A 2\n"
        "T 1488564\n"
        "D 198\n"
        "shots 7518\n"),
    "reduce-ae": (
        ["reduce", "ae", "--amp", "0.3", "--eps", "0.0125",
         "--alpha", "0", "--seed", "2"],
        "mode ae\n"
        "amp 0.29999999999999999\n"
        "mu 0.82000000000000006\n"
        "mu_hat 0.8203125\n"
        "p_hat 0.08984375\n"
        "amp_hat 0.29973947020704494\n"
        "abs_amp_error 0.0002605297929550443\n"
        "time_multiplier 6\n"
        "depth_multiplier 6\n"
        "calls_A 2\n"
        "calls_A_dagger 2\n"
        "calls_O_A 2\n"
        "T 2911680\n"
        "D 2022\n"
        "shots 1440\n"),
}


@pytest.mark.parametrize("name", sorted(_PINNED_STDOUT))
def test_stdout_pinned_byte_for_byte(capsys, name):
    argv, expected = _PINNED_STDOUT[name]
    rc, out, err = run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    assert out == expected


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


@pytest.mark.parametrize("eps, alpha", [("0.3", "-1"), ("4", "0.5")])
def test_reduce_pe_rejects_schedule_before_encoding(capsys, monkeypatch, eps,
                                                    alpha):
    calls = []
    real_pe_to_ae = cli.pe_to_ae

    def counted_pe_to_ae(pe):
        calls.append(pe)
        return real_pe_to_ae(pe)

    monkeypatch.setattr(cli, "pe_to_ae", counted_pe_to_ae)
    rc, _, err = run_cli(capsys, [
        "reduce", "pe", "--phi", "0.5", "--dim", "23", "--eps", eps,
        "--alpha", alpha])
    assert rc == 2
    assert err.startswith("error:")
    assert not calls


def test_reduce_missing_arguments(capsys):
    rc, _, err = run_cli(capsys, [
        "reduce", "pe", "--eps", "0.05", "--alpha", "0.5"])
    assert rc == 2
    rc, _, err = run_cli(capsys, [
        "reduce", "ae", "--eps", "0.05", "--alpha", "0.5"])
    assert rc == 2


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def test_estimate_far_past_capacity_exits_one_in_small_memory():
    """eps = 0.00078125 at alpha = 0 is valid input that no step of degree
    <= 4096 meets.  Its first erf step has k ~ 2,507, whose series an
    (n+1)^2 interpolation matrix would hold in about 7.5 GB; the child runs
    under a 3 GiB address-space cap, so such a regression fails fast."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys; from qsvtsim.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "estimate", "--builtin", "diag:0.5,-0.25",
         "--eps", "0.00078125", "--alpha", "0"],
        preexec_fn=_cap_address_space, env=env, capture_output=True,
        text=True, timeout=300)
    assert proc.returncode == 1
    assert proc.stderr.startswith("capacity: no certified step polynomial "
                                  "of degree <= 4096")
    assert "Traceback" not in proc.stderr


# argv fuzzing: extreme floats everywhere, small integers where a large one
# only costs time, --max-degree <= 64 and --degree <= 7 so that every
# example stays cheap, and files only under tmp_path.
_EXTREME = ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "-1e308",
            "1e-308", "5e-324", "2.5e-310", "-1e-300"]
_FLOAT = st.one_of(st.sampled_from(_EXTREME),
                   st.floats(-1.5, 1.5).map(repr))
_SEED = st.one_of(st.integers(-2**70, 2**70), st.integers(-3, 3)).map(str)
_MAX_DEGREE = ["--max-degree", st.integers(-2, 64).map(str)]


def _argv(*parts):
    """An argv strategy from literal strings, strategies and lists of them."""
    return st.tuples(*[_argv(*p) if isinstance(p, list) else
                       p if isinstance(p, st.SearchStrategy) else st.just(p)
                       for p in parts]).map(_flatten)


def _flatten(parts):
    out = []
    for p in parts:
        out.extend(_flatten(p) if isinstance(p, (list, tuple)) else [p])
    return out


def _maybe(*parts):
    return st.one_of(st.just([]), _argv(*parts))


def _instance(tmp):
    diag = st.lists(_FLOAT, min_size=1, max_size=3).map(
        lambda vs: "diag:" + ",".join(vs))
    source = st.one_of(_argv("--builtin", diag),
                       st.just(["--matrix", str(tmp / "missing.mat")]))
    return _argv(source, _maybe("--gamma", _FLOAT),
                 _maybe("--eig-index", st.integers(-2, 3).map(str)))


def _commands(tmp):
    degree = st.lists(st.one_of(st.integers(-1, 7).map(str),
                                st.sampled_from(["nan", "inf", "1e308", ""])),
                      min_size=1, max_size=3).map(",".join)
    poly = _argv("poly", "--delta", _FLOAT,
                 st.one_of(_argv("--eta", _FLOAT), _argv("--degree", degree),
                           st.just([])),
                 _maybe(*_MAX_DEGREE), _maybe("--emit", str(tmp / "curve.csv")),
                 _maybe("--save", str(tmp / "poly.txt")))
    estimate = _argv("estimate", _instance(tmp), "--eps", _FLOAT,
                     "--alpha", _FLOAT, _maybe("--seed", _SEED), _MAX_DEGREE)
    sweep = _argv("sweep", _instance(tmp),
                  "--alphas", st.lists(_FLOAT, min_size=1, max_size=2),
                  "--eps-list", st.lists(_FLOAT, min_size=1, max_size=3),
                  "--runs", st.integers(-1, 2).map(str), _maybe("--seed", _SEED),
                  "--out", st.sampled_from(["-", str(tmp / "sweep.csv")]),
                  _MAX_DEGREE)
    cell = st.one_of(_FLOAT, st.integers(0, 2**1100).map(str))
    row = st.lists(cell, min_size=len(fields(SweepRow)),
                   max_size=len(fields(SweepRow))).map(",".join)
    fit_csv = st.lists(row, max_size=4).map(
        lambda rows: "\n".join([CSV_HEADER, *rows]) + "\n")
    reduce = _argv("reduce", st.sampled_from(["pe", "ae"]),
                   _maybe("--phi", _FLOAT), _maybe("--amp", _FLOAT),
                   _maybe("--dim", st.integers(-1, 40).map(str)),
                   "--eps", _FLOAT, "--alpha", _FLOAT, _maybe("--seed", _SEED),
                   _MAX_DEGREE)
    return st.one_of(poly, estimate, sweep,
                     st.tuples(st.just(["fit", str(tmp / "fit.csv")]), fit_csv),
                     reduce)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv_fuzz_exits_cleanly(capsys, tmp_path, data):
    drawn = data.draw(_commands(tmp_path))
    if isinstance(drawn, tuple):  # fit: write the CSV first
        argv, text = drawn
        (tmp_path / "fit.csv").write_text(text)
    else:
        argv = drawn
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    err = capsys.readouterr().err
    assert rc in (0, 1, 2)
    if rc:
        assert any(line.startswith(("error:", "capacity:", "usage:"))
                   for line in err.splitlines()), err
    for line in err.splitlines():
        if line.startswith("error:"):
            names = _citable_names(argv, tmp_path)
            message = line[len("error:"):]
            assert any(re.search(r"(?<!\w)" + re.escape(name), message)
                       for name in names), (line, names)


def _citable_names(argv, tmp):
    """What an "error:" message for this argv may name, at the start of a
    word ("amp" cites as "amplitude"): the subcommand's arguments, dashes
    stripped, in "_" and "-" spelling or singular ("alphas" and "eps_list"
    cite as "alpha" and "eps"); a path in the argv; and for fit, a sweep
    CSV column.  main reports "error:" only after argv parsed, so parsing
    it again succeeds."""
    dests = set(vars(cli.build_parser().parse_args(argv))) - {"command", "func"}
    names = dests | {d.replace("_", "-") for d in dests}
    names |= {re.sub("(s|_list)$", "", d) for d in dests}
    names |= {tok for tok in argv if tok.startswith(str(tmp))}
    if argv[0] == "fit":
        names |= {f.name for f in fields(SweepRow)}
    return names
