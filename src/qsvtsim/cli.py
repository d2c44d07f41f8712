"""Command line driver.

Subcommands:
  poly      build a step approximant, or probe minimal eta at fixed degree
  estimate  run one eigenvalue estimate on a builtin or file-backed matrix
  sweep     grid of (alpha, eps) runs, written as a deterministic CSV
  fit       log-log slope report for a sweep CSV
  reduce    phase or amplitude estimation through the eigenvalue solver

Exit codes: 0 on success, 1 when the polynomial builder runs out of
capacity, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .blockenc import HermitianOp, read_matrix
from .chebpoly import (DEFAULT_MAX_DEGREE, CapacityError, StepSpec,
                       build_step_approx, degree_constant, min_eta_for_degree,
                       to_text, verify_bounds, write_curve_csv)
from .estimator import EEInstance, estimate_ee, schedule_targets
from .reductions import (AE_TO_EE_DEPTH_MULT, AE_TO_EE_TIME_MULT,
                         PE_TO_AE_TIME_MULT, ae_instance_from_amplitude,
                         composed_phase_tolerance, pe_instance_from_phase,
                         pe_to_ae, solve_ae_via_ee)
from .sampler import RngStream, as_int


def _fmt(x):
    return f"{float(x):.17g}"


# (parser, formatter) of a sweep CSV cell, by SweepRow field annotation.
_CSV_CELLS = {"float": (float, _fmt), "int": (int, str),
              "str": (str, lambda s: s.replace(",", ";").replace("\n", " "))}


@dataclass(frozen=True)
class SweepConfig:
    alphas: tuple
    eps_list: tuple
    runs: int
    seed: int
    max_degree: int = DEFAULT_MAX_DEGREE

    def __post_init__(self):
        as_int(self.seed, "seed")
        as_int(self.max_degree, "max_degree")
        if as_int(self.runs, "runs") < 1:
            raise ValueError(f"runs must be at least 1, got {self.runs}")


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    eps: float
    gamma: float
    seed: int
    run_index: int
    mu_hat: float
    true_mu: float
    abs_error: float
    success: int
    T: int
    D: int
    degree: int
    n_samples: int
    iterations: int
    error: str = ""

    def to_csv_line(self):
        return ",".join(_CSV_CELLS[f.type][1](getattr(self, f.name))
                        for f in fields(self))


CSV_HEADER = ",".join(f.name for f in fields(SweepRow))


def row_from_csv_line(line):
    parts = line.rstrip("\n").split(",")
    cols = fields(SweepRow)
    if len(parts) != len(cols):
        raise ValueError(f"expected {len(cols)} fields, got {len(parts)}")
    values = {}
    for f, part in zip(cols, parts):
        try:
            values[f.name] = _CSV_CELLS[f.type][0](part)
        except ValueError as exc:
            raise ValueError(f"column {f.name}: {exc}") from None
    return SweepRow(**values)


def read_sweep_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: not a sweep CSV (bad header)")
    rows = []
    for number, line in enumerate(lines[1:], start=2):
        if line:
            try:
                rows.append(row_from_csv_line(line))
            except ValueError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
    return rows


def run_sweep(inst, config):
    """Row per (alpha, eps, run).  Each cell gets a disjoint RNG block of
    2**32 stream ids, so adding runs or grid points never shifts another
    cell's randomness."""
    rows = []
    cell = 0
    for alpha in config.alphas:
        for eps in config.eps_list:
            for run in range(config.runs):
                rng = RngStream(config.seed, cell << 32)
                cell += 1
                try:
                    mu_hat, ledger = estimate_ee(
                        inst, eps, alpha, rng, max_degree=config.max_degree)
                except CapacityError as exc:
                    rows.append(SweepRow(
                        alpha=alpha, eps=eps, gamma=inst.gamma,
                        seed=config.seed, run_index=run, mu_hat=float("nan"),
                        true_mu=inst.true_mu, abs_error=float("nan"),
                        success=0, T=0, D=0, degree=0, n_samples=0,
                        iterations=0, error=str(exc)))
                    continue
                err = abs(mu_hat - inst.true_mu)
                rows.append(SweepRow(
                    alpha=alpha, eps=eps, gamma=inst.gamma, seed=config.seed,
                    run_index=run, mu_hat=mu_hat, true_mu=inst.true_mu,
                    abs_error=err, success=int(err <= eps),
                    T=ledger.total_queries, D=ledger.max_depth,
                    degree=ledger.schedule.degree,
                    n_samples=ledger.schedule.n_samples,
                    iterations=ledger.iterations))
    rows.sort(key=lambda r: (r.alpha, r.eps, r.run_index))
    return rows


def write_sweep_csv(rows, stream):
    stream.write(CSV_HEADER + "\n")
    for row in rows:
        stream.write(row.to_csv_line() + "\n")


def fit_slopes(rows):
    """Per-alpha least squares slopes of log D and log T against log(gamma/eps).

    T is first divided by ceil(log2(4 gamma / eps)) squared to strip the
    logarithmic factors from the sample schedule and the bisection count.
    Only completed rows contribute, and there must be one; each needs
    0 < eps < 4 gamma with a finite 4 gamma/eps, and 1 <= D <= T <= the
    largest float, else ValueError.  Returns a dict mapping alpha to
    (t_slope, d_slope, t_resid, d_resid, n_eps) where the residuals are the
    largest absolute deviations from the fitted lines.
    """
    groups = {}
    for row in rows:
        if row.error:
            continue
        ratio = 4.0 * row.gamma / row.eps if row.eps > 0.0 else 0.0
        if not (1.0 < ratio < math.inf and 1 <= row.D <= row.T <= sys.float_info.max):
            raise ValueError(
                f"sweep row alpha={row.alpha}, eps={row.eps}: fit needs "
                f"0 < eps < 4*gamma, a finite 4*gamma/eps and "
                f"1 <= D <= T <= {sys.float_info.max:.3g}")
        groups.setdefault(row.alpha, {}).setdefault(row.eps, []).append(row)
    if not groups:
        raise ValueError("no completed sweep row to fit: every row has a "
                         "nonempty error column, or there is no row")

    def regress(xs, ys):
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = float(np.max(np.abs(np.asarray(ys)
                                    - (slope * np.asarray(xs) + intercept))))
        return float(slope), resid

    out = {}
    for alpha in sorted(groups):
        xs, yt, yd = [], [], []
        for eps, cell in sorted(groups[alpha].items()):
            gamma = cell[0].gamma
            logfac = math.ceil(math.log2(4.0 * gamma / eps))
            t_mean = sum(r.T for r in cell) / len(cell)
            d_mean = sum(r.D for r in cell) / len(cell)
            xs.append(math.log(gamma / eps))
            yt.append(math.log(t_mean / logfac ** 2))
            yd.append(math.log(d_mean))
        if len(xs) < 3:
            raise ValueError(
                f"alpha={alpha:g}: need at least 3 distinct eps values, "
                f"got {len(xs)}")
        t_slope, t_resid = regress(xs, yt)
        d_slope, d_resid = regress(xs, yd)
        out[alpha] = (t_slope, d_slope, t_resid, d_resid, len(xs))
    return out


def _parse_builtin(text):
    if not text.startswith("diag:"):
        raise ValueError("builtin instances look like diag:v1,v2,...")
    try:
        values = [float(tok) for tok in text[len("diag:"):].split(",")]
    except ValueError:
        raise ValueError(f"bad builtin spec {text!r}") from None
    return values


def _instance_from_args(args):
    if getattr(args, "matrix", None):
        h = read_matrix(args.matrix)
        vals, vecs = np.linalg.eigh(h.matrix)
        default_gamma = float(np.max(np.abs(vals)))
    else:
        vals = _parse_builtin(args.builtin)
        h = HermitianOp.from_matrix(np.diag(vals))
        vecs, default_gamma = np.eye(h.dim), 1.0
    idx = args.eig_index
    if not 0 <= idx < h.dim:
        raise ValueError(f"eig-index {idx} out of range for dim {h.dim}")
    gamma = args.gamma if args.gamma is not None else default_gamma
    return EEInstance(H=h, gamma=gamma, psi=vecs[:, idx],
                      true_mu=float(vals[idx]))


def _parse_degree_list(tokens):
    out = []
    for part in filter(None, ",".join(tokens).split(",")):
        try:
            degree = int(part)
        except ValueError:
            degree = 0
        if degree < 1:
            raise ValueError(f"--degree wants positive integers, got {part!r}")
        out.append(degree)
    if not out:
        raise ValueError("--degree wants positive integers")
    return out


def cmd_poly(args):
    if args.degree:
        for flag, value in (("--max-degree", args.max_degree),
                            ("--emit", args.emit), ("--save", args.save)):
            if value is not None:
                raise ValueError(f"{flag} applies only with --eta, not --degree")
        for deg in _parse_degree_list(args.degree):
            eta = min_eta_for_degree(args.delta, deg)
            print(f"degree {deg} min_eta {_fmt(eta)}")
        return 0
    if args.eta is None:
        raise ValueError("poly needs either --eta or --degree")
    spec = StepSpec(delta=args.delta, eta=args.eta)
    poly = build_step_approx(spec, max_degree=DEFAULT_MAX_DEGREE
                             if args.max_degree is None else args.max_degree)
    report = verify_bounds(poly, spec)
    print(f"delta {_fmt(spec.delta)}")
    print(f"eta {_fmt(spec.eta)}")
    print(f"degree {poly.degree}")
    print(f"parity {poly.parity}")
    print(f"constant_C {_fmt(degree_constant(poly, spec))}")
    print(f"max_low_violation {_fmt(report.max_low_violation)}")
    print(f"max_high_violation {_fmt(report.max_high_violation)}")
    print(f"max_abs_excess {_fmt(report.max_abs_excess)}")
    print(f"certified {int(report.passes)}")
    if args.emit:
        write_curve_csv(poly, args.emit)
        print(f"curve {args.emit}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            fh.write(to_text(poly))
        print(f"saved {args.save}")
    return 0


def cmd_estimate(args):
    inst = _instance_from_args(args)
    rng = RngStream(args.seed, 0)
    mu_hat, ledger = estimate_ee(inst, args.eps, args.alpha, rng,
                                 max_degree=args.max_degree)
    print(f"mu_hat {_fmt(mu_hat)}")
    print(f"true_mu {_fmt(inst.true_mu)}")
    print(f"abs_error {_fmt(abs(mu_hat - inst.true_mu))}")
    print(f"eps {_fmt(args.eps)}")
    print(f"alpha {_fmt(args.alpha)}")
    print(f"gamma {_fmt(inst.gamma)}")
    print(f"degree {ledger.schedule.degree}")
    print(f"n_samples {ledger.schedule.n_samples}")
    print(f"iterations {ledger.iterations}")
    print(f"T {ledger.total_queries}")
    print(f"D {ledger.max_depth}")
    return 0


def cmd_sweep(args):
    inst = _instance_from_args(args)
    config = SweepConfig(alphas=tuple(args.alphas),
                         eps_list=tuple(args.eps_list), runs=args.runs,
                         seed=args.seed, max_degree=args.max_degree)
    rows = run_sweep(inst, config)
    if args.out == "-":
        write_sweep_csv(rows, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_sweep_csv(rows, fh)
    failed = sum(1 for r in rows if r.error)
    if failed:
        print(f"capacity: {failed} of {len(rows)} cells hit builder capacity",
              file=sys.stderr)
        return 1
    return 0


def cmd_fit(args):
    rows = read_sweep_csv(args.csv)
    slopes = fit_slopes(rows)
    for alpha in sorted(slopes):
        t_slope, d_slope, t_resid, d_resid, n_eps = slopes[alpha]
        print(f"alpha {_fmt(alpha)} T_slope {t_slope:.6f} "
              f"T_resid {t_resid:.6f} D_slope {d_slope:.6f} "
              f"D_resid {d_resid:.6f} n_eps {n_eps}")
    return 0


def cmd_reduce(args):
    rng = RngStream(args.seed, 0)
    for flag, value, mode in (("--phi", args.phi, "pe"), ("--dim", args.dim, "pe"),
                              ("--amp", args.amp, "ae")):
        if value is not None and mode != args.mode:
            raise ValueError(f"{flag} applies only with {mode}, not {args.mode}")
    dim = 1 if args.dim is None else args.dim
    if args.mode == "pe":
        if args.phi is None:
            raise ValueError("reduce pe needs --phi")
        if not 0.0 <= args.phi <= math.pi:
            raise ValueError("--phi must lie in [0, pi] (the reduction "
                             "recovers phases on that branch)")
    elif args.amp is None:
        raise ValueError("reduce ae needs --amp")
    # Reject a bad --alpha or --eps before any encoding is built; the
    # reduced eigenvalue problem has gamma = 1.
    schedule_targets(args.alpha, args.eps, 1.0)
    if args.mode == "pe":
        pe = pe_instance_from_phase(args.phi, dim=dim)
        ae, recover_phase = pe_to_ae(pe)
        head = [f"phi {_fmt(pe.true_phi)}", f"dim {dim}",
                f"true_amp {_fmt(ae.true_amp)}"]
    else:
        ae = ae_instance_from_amplitude(args.amp)
        head = [f"amp {_fmt(ae.true_amp)}"]
    p_hat, ledger = solve_ae_via_ee(ae, args.eps, args.alpha, rng,
                                    max_degree=args.max_degree)
    print(f"mode {args.mode}", *head, sep="\n")
    print(f"mu {_fmt(1.0 - 2.0 * ae.true_amp ** 2)}")
    print(f"mu_hat {_fmt(1.0 - 2.0 * p_hat)}")
    print(f"p_hat {_fmt(p_hat)}")
    if args.mode == "pe":
        phi_hat = recover_phase(math.sqrt(p_hat))
        tol = composed_phase_tolerance(p_hat, args.eps)
        print(f"phi_hat {_fmt(phi_hat)}")
        print(f"abs_phase_error {_fmt(abs(phi_hat - pe.true_phi))}")
        print(f"phase_tolerance {_fmt(tol)}")
        print(f"within_tolerance {int(abs(phi_hat - pe.true_phi) <= tol)}")
        print(f"pe_time_multiplier {PE_TO_AE_TIME_MULT}")
    else:
        amp_hat = math.sqrt(p_hat)
        print(f"amp_hat {_fmt(amp_hat)}")
        print(f"abs_amp_error {_fmt(abs(amp_hat - ae.true_amp))}")
    print(f"time_multiplier {AE_TO_EE_TIME_MULT}")
    print(f"depth_multiplier {AE_TO_EE_DEPTH_MULT}")
    print(f"calls_A {ae.calls['A']}")
    print(f"calls_A_dagger {ae.calls['A_dagger']}")
    print(f"calls_O_A {ae.calls['O_A']}")
    print(f"T {ledger.total_queries}")
    print(f"D {ledger.max_depth}")
    print(f"shots {ledger.shots}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qsvtsim",
        description="Step-polynomial eigenvalue estimation with explicit "
                    "query and depth accounting.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="build or probe step approximants")
    p_poly.add_argument("--delta", type=float, required=True)
    target = p_poly.add_mutually_exclusive_group()
    target.add_argument("--eta", type=float)
    target.add_argument("--degree", nargs="+", action="extend",
                        help="report minimal eta at these degrees instead "
                             "(space or comma separated)")
    p_poly.add_argument("--max-degree", type=int,
                        help=f"--eta only: degree budget (default "
                             f"{DEFAULT_MAX_DEGREE})")
    p_poly.add_argument("--emit", help="--eta only: write x,P(x) samples "
                                       "to this CSV")
    p_poly.add_argument("--save", help="--eta only: write coefficients to "
                                       "this file")
    p_poly.set_defaults(func=cmd_poly)

    def add_instance_args(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--builtin", help="e.g. diag:0.5,-0.25")
        group.add_argument("--matrix", help="matrix file path")
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--eig-index", type=int, default=0)

    p_est = sub.add_parser("estimate", help="single eigenvalue estimate")
    add_instance_args(p_est)
    p_est.add_argument("--eps", type=float, required=True)
    p_est.add_argument("--alpha", type=float, required=True)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="grid of runs, CSV output")
    add_instance_args(p_sweep)
    p_sweep.add_argument("--alphas", type=float, nargs="+", action="extend", required=True)
    p_sweep.add_argument("--eps-list", type=float, nargs="+", action="extend", required=True)
    p_sweep.add_argument("--runs", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default="-", help="CSV path, - for stdout")
    p_sweep.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fit = sub.add_parser("fit", help="slope report for a sweep CSV")
    p_fit.add_argument("csv")
    p_fit.set_defaults(func=cmd_fit)

    p_red = sub.add_parser("reduce", help="phase/amplitude via eigenvalues")
    p_red.add_argument("mode", choices=["pe", "ae"])
    p_red.add_argument("--phi", type=float)
    p_red.add_argument("--dim", type=int, help="pe only (default 1)")
    p_red.add_argument("--amp", type=float)
    p_red.add_argument("--eps", type=float, required=True)
    p_red.add_argument("--alpha", type=float, required=True)
    p_red.add_argument("--seed", type=int, default=0)
    p_red.add_argument("--max-degree", type=int, default=DEFAULT_MAX_DEGREE)
    p_red.set_defaults(func=cmd_reduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CapacityError as exc:
        report = exc.report
        print(f"capacity: {exc}; least-bad candidate: max_low_violation "
              f"{_fmt(report.max_low_violation)} max_high_violation "
              f"{_fmt(report.max_high_violation)} max_abs_excess "
              f"{_fmt(report.max_abs_excess)}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
