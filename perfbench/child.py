"""One workload in one process: set up, run timed passes, check, report.

Started by run.py with the BLAS/OpenMP thread counts held to one and the
checkout's src/ first on the import path.  The last line of stdout is a
JSON object that run.py reads.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _import_program():
    sys.path.insert(0, SRC)
    import qsvtsim
    if not os.path.abspath(qsvtsim.__file__).startswith(SRC + os.sep):
        sys.exit(f"qsvtsim imported from {qsvtsim.__file__}, not from {SRC}")


def layer_metrics(summaries, deltas):
    """Per-layer metrics, averaged over the traced passes."""

    def calls(s, name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def total(s, name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def own(s, name):
        return s.get(name, (0, 0.0, 0.0))[2]

    per_pass = []
    for s, c in zip(summaries, deltas):
        candidates = calls(s, "chebpoly.verify_bounds")
        per_pass.append({
            "chebpoly.candidates": candidates,
            "chebpoly.certify_s": total(s, "chebpoly.verify_bounds"),
            "chebpoly.certify_points": c["certify_points"],
            "chebpoly.accept_ratio": c["certified"] / candidates if candidates else 0.0,
            "chebpoly.polys_constructed": calls(s, "chebpoly.ChebPoly"),
            "chebpoly.construct_s": total(s, "chebpoly.ChebPoly"),
            "chebpoly.eval_calls": calls(s, "chebpoly.eval"),
            "chebpoly.eval_points": c["eval_points"],
            "chebpoly.lp_solves": calls(s, "chebpoly.linprog"),
            "chebpoly.lp_s": total(s, "chebpoly.linprog"),
            "chebpoly.lp_rows": c["lp_rows"],
            "chebpoly.build_calls": calls(s, "chebpoly.build_step_approx"),
            "chebpoly.build_misses": s["_build_misses"],
            "chebpoly.build_self_s": own(s, "chebpoly.build_step_approx"),
            "blockenc.apply_poly_calls": calls(s, "blockenc.apply_poly"),
            "blockenc.apply_poly_s": total(s, "blockenc.apply_poly"),
            "blockenc.matmuls": c["matmuls"],
            "blockenc.flops_computed": c["flops_computed"],
            "blockenc.shift_s": total(s, "blockenc.shift_and_scale"),
            "blockenc.right_prob_s": total(s, "blockenc.right_probability"),
            "estimator.estimates": calls(s, "estimator.estimate_ee"),
            "estimator.decisions": calls(s, "estimator.decide_ee"),
            "estimator.decide_self_s": own(s, "estimator.decide_ee"),
            "estimator.schedule_calls": calls(s, "estimator.alpha_schedule"),
            "estimator.schedule_s": total(s, "estimator.alpha_schedule"),
            "sampler.draws": calls(s, "sampler.bernoulli_trials"),
            "sampler.shots": c["shots"],
            "sampler.draw_s": total(s, "sampler.bernoulli_trials"),
            "sampler.streams": calls(s, "sampler.RngStream"),
            "sampler.stream_s": total(s, "sampler.RngStream"),
            "reductions.encodings": calls(s, "reductions.ae_block_encoding"),
            "reductions.encode_s": total(s, "reductions.ae_block_encoding"),
            "reductions.oracle_calls": calls(s, "reductions.oracle"),
            "cli.sweep_self_s": own(s, "cli.run_sweep"),
            "cli.csv_bytes": c["csv_bytes"],
            "cli.csv_s": total(s, "cli.write_sweep_csv"),
            "cli.fit_s": total(s, "cli.fit_slopes"),
            "trace.spans": s["_spans"],
        })
    return {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}


LAYER_UNITS = {"_s": "s", "accept_ratio": "1", "flops_computed": "flop",
               "csv_bytes": "B"}


def layer_unit(name):
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    _import_program()
    import tracer
    import workloads

    # numpy seeds must be non-negative; any integer seed maps to one.
    wl = workloads.WORKLOADS[args.workload](args.seed % 2 ** 64)
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tr = tracer.Tracer() if args.trace else None
    outputs, pass_s, latencies, traced = [], [], [], []
    summaries, deltas = [], []
    start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, so that the
        # tracing overhead is measured in the same process.
        on = tr is not None and len(pass_s) % 2 == 1
        if on:
            before, first = dict(tr.counts), len(tr.spans)
            tr.install()
        t = time.perf_counter()
        try:
            out, lat = wl.run_pass()
        finally:
            if on:
                tr.uninstall()
        pass_s.append(time.perf_counter() - t)
        outputs.append(out)
        latencies.extend(lat)
        traced.append(on)
        if on:
            summaries.append(tr.summary(first))
            deltas.append(Counter({k: v - before.get(k, 0) for k, v in tr.counts.items()}))
        done = time.perf_counter() - start >= args.seconds
        if done and (tr is None or len(pass_s) >= 2):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdict = wl.check(outputs[0], len(outputs))
    verdict.checks.add("repeatable", all(o == outputs[0] for o in outputs),
                       f"{len(outputs)} passes give identical outputs")
    attempted = wl.ops_per_pass * len(outputs)
    failed = verdict.failed_per_pass * len(outputs)

    print(f"workload {args.workload} seed {args.seed} passes {len(outputs)} "
          f"ops_attempted {attempted} ops_failed {failed}")
    print("pass_s " + " ".join(f"{s:.4f}{'t' if on else ''}" for s, on in zip(pass_s, traced)))
    for name, ok, detail in verdict.checks.items:
        print(f"check {name} {'PASS' if ok else 'FAIL'}: {detail}")
    for row in verdict.extra.get("certificates", []):
        *key, degree, cert = row
        label = " ".join(f"{k:g}" for k in key)
        print(f"certificate {label} degree {degree}: max|P|-1 {cert.box:.3e} "
              f"at x={cert.worst_x:.5f} low {cert.low:.2e} high {cert.high:.2e} "
              f"points {cert.points} {'ok' if cert.passes else 'EXCEEDS'}")

    if tr is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(pass_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "depth_sum": (verdict.depth_sum, "queries"),
        }
        extra = {}
        if latencies:
            extra["op_p50_ms"] = (1e3 * statistics.median(latencies), "ms")
        if len(latencies) >= 1000:
            extra["op_p99_ms"] = (1e3 * statistics.quantiles(latencies, n=100)[98], "ms")
        if "eta_sum" in verdict.extra:
            extra["eta_sum"] = (verdict.extra["eta_sum"], "1")
        for name, (value, unit) in extra.items():
            print(f"figure {name} {value:.9g} {unit} (printed only, not gated)")
    else:
        plain = [s for s, on in zip(pass_s, traced) if not on]
        with_trace = [s for s, on in zip(pass_s, traced) if on]
        base = statistics.median(plain)
        metrics = {name: (value, layer_unit(name))
                   for name, value in layer_metrics(summaries, deltas).items()}
        metrics["trace.overhead_pct"] = (
            100.0 * (statistics.median(with_trace) - base) / base, "%")
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write(os.path.join(OUT_DIR, f"trace_{args.workload}.tsv"))
    print(json.dumps({
        "correct": verdict.checks.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
