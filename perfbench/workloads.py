"""The three workloads: inputs from a seed, one timed pass, output checks.

Every workload repeats identical passes.  run_pass() is the timed part and
returns the pass's outputs with one latency per op; check() runs after the
timed section and compares those outputs with computations made here, in
certify.py, never by the program's own checkers.

The program is reached only through module attributes (estimator.estimate_ee,
not a from-import), so that the tracer's replacements are seen.
"""

import io
import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from qsvtsim import blockenc, chebpoly, cli, estimator, reductions, sampler

import certify

GAMMA = 1.0


class Checks:
    """Named pass/fail results with a short detail each."""

    def __init__(self):
        self.items = []

    def add(self, name, ok, detail=""):
        self.items.append((name, bool(ok), detail))

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.items)


def clear_polynomial_caches():
    """Empty every functools cache held by a qsvtsim module (a cold start)."""
    for mod in (chebpoly, blockenc, estimator, sampler, reductions, cli):
        for val in list(vars(mod).values()):
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


@dataclass
class Verdict:
    """What check() found: the checks, failed ops per pass, sum of D per pass."""

    checks: Checks
    failed_per_pass: int
    depth_sum: int
    extra: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


def _slopes(rows):
    """Own least-squares slopes of log D and log(T / L^2) per alpha."""
    out = {}
    for alpha in sorted({r.alpha for r in rows}):
        cells = sorted((r for r in rows if r.alpha == alpha), key=lambda r: r.eps)
        x = np.array([math.log(GAMMA / r.eps) for r in cells])
        logfac = np.array([math.ceil(math.log2(4.0 * GAMMA / r.eps)) for r in cells])
        yt = np.log(np.array([r.T for r in cells]) / logfac ** 2)
        yd = np.log(np.array([r.D for r in cells], dtype=float))
        xc = x - x.mean()
        out[alpha] = (float(xc @ (yt - yt.mean()) / (xc @ xc)),
                      float(xc @ (yd - yd.mean()) / (xc @ xc)))
    return out


class SweepCold:
    """The acceptance grid from an empty polynomial cache; one op is one cell.

    One pass is what `qsvtsim sweep ... --runs 1` does: one run_sweep call
    over the grid, then write_sweep_csv and fit_slopes.
    """

    ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)
    EPS = (0.2, 0.1, 0.05, 0.025, 0.0125)
    VALUES = (0.5, -0.25)

    def __init__(self, seed):
        self.inst = estimator.diag_instance(self.VALUES)
        self.config = cli.SweepConfig(alphas=self.ALPHAS, eps_list=self.EPS,
                                      runs=1, seed=seed)
        self.ops_per_pass = len(self.ALPHAS) * len(self.EPS)

    def _sweep(self):
        rows = cli.run_sweep(self.inst, self.config)
        buf = io.StringIO()
        cli.write_sweep_csv(rows, buf)
        return buf.getvalue(), cli.fit_slopes(rows)

    def run_pass(self):
        clear_polynomial_caches()
        return self._sweep(), []

    def check(self, output, passes):
        text, slopes = output
        rows = [cli.row_from_csv_line(ln) for ln in text.splitlines()[1:]]
        checks = Checks()
        checks.add("rows", len(rows) == self.ops_per_pass and all(not r.error for r in rows),
                   f"{len(rows)} rows")
        bad_ledger = 0
        failed = 0
        certs = []
        for row in rows:
            sched = estimator.alpha_schedule(row.alpha, row.eps, GAMMA)
            iters = certify.bisection_steps(GAMMA, row.eps)
            bad_ledger += not (row.degree == sched.degree == row.D
                               and row.iterations == iters
                               and row.T == iters * row.n_samples * row.degree)
            cert = certify.certify(sched.poly.coeffs, sched.delta, sched.eta)
            certs.append((row.alpha, row.eps, row.degree, cert))
            failed += not cert.passes
        checks.add("ledger", bad_ledger == 0, f"{bad_ledger} rows break T = iters*n*D")
        own = _slopes(rows)
        worst = 0.0
        windows = True
        for alpha, (t_own, d_own) in own.items():
            t_prog, d_prog = slopes[alpha][0], slopes[alpha][1]
            worst = max(worst, abs(t_own - t_prog), abs(d_own - d_prog))
            windows &= abs(d_own - (1.0 - alpha)) <= 0.2
            windows &= abs(t_own - (1.0 + alpha)) <= 0.25
        checks.add("slopes", worst <= 1e-9 and windows,
                   f"own vs fit_slopes max diff {worst:.1e}; windows {'hold' if windows else 'broken'}")
        checks.add("warm_csv", self._sweep()[0] == text, "second (warm) pass CSV bytes identical")
        return Verdict(checks, failed, sum(r.D for r in rows), {"certificates": certs})


class Frontier:
    """min_eta_for_degree(0.2, d) for five degrees; one op is one degree."""

    DELTA = 0.2
    DEGREES = (1, 3, 7, 15, 21)

    def __init__(self, seed):
        # No random inputs: the seed only permutes the order of the degrees.
        self.order = [int(d) for d in np.random.default_rng(seed).permutation(self.DEGREES)]
        self.ops_per_pass = len(self.DEGREES)

    def run_pass(self):
        clear_polynomial_caches()
        etas, lat = {}, []
        for d in self.order:
            etas[d], dt = _timed(chebpoly.min_eta_for_degree, self.DELTA, d)
            lat.append(dt)
        return tuple(sorted(etas.items())), lat

    def check(self, output, passes):
        etas = dict(output)
        seq = [etas[d] for d in self.DEGREES]
        checks = Checks()
        checks.add("decreasing", all(a > b for a, b in zip(seq, seq[1:])),
                   " > ".join(f"{e:.6f}" for e in seq))
        checks.add("ramp", abs(etas[1] - (1.0 - self.DELTA)) <= 1e-4,
                   f"eta(1) = {etas[1]:.8f}")
        failed = 0
        below = []
        certs = []
        depth = 0
        for d in self.DEGREES:
            poly = chebpoly.build_step_approx(chebpoly.StepSpec(self.DELTA, etas[d]),
                                              max_degree=d)
            coeffs = poly.coeffs
            depth += len(coeffs) - 1
            cert = certify.certify(coeffs, self.DELTA, etas[d])
            certs.append((d, etas[d], len(coeffs) - 1, cert))
            failed += not cert.passes
            t_star = certify.minimax_lower_bound(self.DELTA, d)
            if not certify.is_odd_step(coeffs) or etas[d] < t_star - certify.TOL:
                below.append(f"d={d}: eta {etas[d]:.6g} vs t* {t_star:.6g}")
        checks.add("lp_bound", not below,
                   "; ".join(below) or "every eta >= own minimax optimum t*(d)")
        return Verdict(checks, failed, depth, {"certificates": certs, "eta_sum": sum(seq)})


class EstimateMix:
    """Seeded estimates with a warm cache, fast and statevector paths, reductions.

    The op list has a fixed make-up; the seed chooses instance contents and
    random streams.  Statevector twins of the random 16-dim instances use
    only the alpha = 1 schedules: the other four schedules' polynomials
    exceed |P| <= 1 near the window edge, so a statevector op on a random
    spectrum fails or not depending on the seed.
    """

    SCHEDULES = tuple((a, e) for a in (0.0, 0.5, 1.0) for e in (0.05, 0.0125))
    DIAG = (0.5, -0.25)
    N_DIAG = 40   # per schedule, each run on both paths
    N_RANDOM = 60  # per schedule on the fast path
    N_REDUCE = 20  # per schedule, each of pe and ae
    DIM = 16
    # Fault: the statevector path rejects this valid instance (the step
    # polynomial overshoots 1 at x = 0.010239567), on every seed.
    FAULT_VALUES = (0.010239567, -0.5)
    FAULT_SCHEDULE = (0.0, 0.0125)
    N_FAULT = 4

    def __init__(self, seed):
        gen = np.random.default_rng(seed)
        self.schedules = {key: estimator.alpha_schedule(key[0], key[1], GAMMA)
                          for key in self.SCHEDULES}
        diag = estimator.diag_instance(self.DIAG)
        ops = []  # (kind, (alpha, eps), instance, stream seed, statevector)

        def stream_seed():
            return int(gen.integers(1 << 62))

        for alpha, eps in self.SCHEDULES:
            group = (alpha, eps)
            for _ in range(self.N_DIAG):
                s = stream_seed()
                for sv in (False, True):
                    ops.append(("ee", group, diag, s, sv))
            for _ in range(self.N_RANDOM):
                inst = self._random_instance(gen)
                s = stream_seed()
                ops.append(("ee", group, inst, s, False))
                if alpha == 1.0:
                    ops.append(("ee", group, inst, s, True))
            for _ in range(self.N_REDUCE):
                phi = float(gen.uniform(0.0, math.pi))
                pe = reductions.pe_instance_from_phase(
                    phi, dim=2, rng=sampler.RngStream(stream_seed(), 0))
                ops.append(("pe", group, pe, stream_seed(), False))
                ae = reductions.ae_instance_from_amplitude(float(gen.uniform(0.0, 1.0)))
                ops.append(("ae", group, ae, stream_seed(), False))
        fault = estimator.diag_instance(self.FAULT_VALUES)
        for _ in range(self.N_FAULT):
            ops.append(("fault", self.FAULT_SCHEDULE, fault, 0, True))
        order = gen.permutation(len(ops))
        self.ops = [ops[i] for i in order]
        self.ops_per_pass = len(self.ops)

    def _random_instance(self, gen):
        raw = gen.normal(size=(self.DIM, self.DIM)) + 1j * gen.normal(size=(self.DIM, self.DIM))
        herm = 0.5 * (raw + raw.conj().T)
        herm *= 0.95 / np.max(np.abs(np.linalg.eigvalsh(herm)))
        w, v = np.linalg.eigh(herm)
        i = int(gen.integers(self.DIM))
        return estimator.EEInstance(H=blockenc.HermitianOp.from_matrix(herm), gamma=GAMMA,
                                    psi=v[:, i], true_mu=float(w[i]))

    def run_pass(self):
        results, lat = [], []
        for kind, (alpha, eps), inst, s, sv in self.ops:
            rng = sampler.RngStream(s, 0)
            start = perf_counter()
            try:
                if kind == "pe":
                    out = reductions.solve_pe_via_ee(inst, eps, alpha, rng)
                elif kind == "ae":
                    out = reductions.solve_ae_via_ee(inst, eps, alpha, rng)
                else:
                    out = estimator.estimate_ee(inst, eps, alpha, rng,
                                                use_statevector=sv)
            except ValueError as exc:
                out = f"{type(exc).__name__}: {exc}"
            lat.append(perf_counter() - start)
            if isinstance(out, tuple):
                est, ledger = out
                out = (est, ledger.total_queries, ledger.max_depth, ledger.shots)
            results.append(out)
        return tuple(results), lat

    def check(self, output, passes):
        checks = Checks()
        unexpected, fault_ok = [], 0
        groups = {}
        bad_ledger = 0
        pairs = {}
        depth = 0
        for (kind, group, inst, s, sv), out in zip(self.ops, output):
            if kind == "fault":
                fault_ok += isinstance(out, str) and "spectral radius above 1" in out
                continue
            if isinstance(out, str):
                unexpected.append(f"{kind} {group}: {out}")
                continue
            est, total, dmax, shots = out
            alpha, eps = group
            sched = self.schedules[group]
            iters = certify.bisection_steps(GAMMA, eps)
            mult = 1 if kind == "ee" else 6  # one encoding query = 6 A/O_A calls
            bad_ledger += not (dmax == mult * sched.degree
                               and shots == iters * sched.n_samples
                               and total == mult * iters * sched.n_samples * sched.degree)
            depth += dmax
            if kind == "ee":
                mu, mu_hat = inst.true_mu, est
                pairs.setdefault((id(inst), s), []).append(est)
            elif kind == "pe":
                mu, mu_hat = math.cos(inst.true_phi), math.cos(est)
            else:
                mu, mu_hat = 1.0 - 2.0 * inst.true_amp ** 2, 1.0 - 2.0 * est
            hit, n = groups.get(group, (0, 0))
            groups[group] = (hit + (abs(mu_hat - mu) <= eps), n + 1)
        checks.add("no_unexpected_failures", not unexpected, "; ".join(unexpected[:3]))
        checks.add("fault_b", fault_ok == self.N_FAULT,
                   f"{fault_ok}/{self.N_FAULT} fault ops raise the spectral-radius error")
        checks.add("ledger", bad_ledger == 0, f"{bad_ledger} estimates break T/D/iterations")
        split = sum(1 for v in pairs.values() if len(v) == 2 and v[0] != v[1])
        n_pairs = sum(1 for v in pairs.values() if len(v) == 2)
        checks.add("paths", split == 0, f"{n_pairs - split}/{n_pairs} fast/statevector pairs agree")
        worst = min(hit / n for hit, n in groups.values())
        checks.add("accuracy", worst >= 0.9,
                   f"worst group {worst:.3f} within eps over {len(groups)} groups")
        calls_ok = all(inst.calls == {"A": 2 * passes, "A_dagger": 2 * passes,
                                      "O_A": 2 * passes}
                       for kind, _, inst, _, _ in self.ops if kind == "ae")
        checks.add("oracle_calls", calls_ok, "each encoding costs 2 A, 2 A^dagger, 2 O_A")
        certs = [(a, e, s.degree, certify.certify(s.poly.coeffs, s.delta, s.eta))
                 for (a, e), s in self.schedules.items()]
        failed = sum(isinstance(out, str) for out in output)
        return Verdict(checks, failed, depth, {"certificates": certs})


WORKLOADS = {"sweep_cold": SweepCold, "frontier": Frontier, "estimate_mix": EstimateMix}
