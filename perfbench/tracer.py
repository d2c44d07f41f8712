"""Span tracing around qsvtsim's layer boundaries, installed from outside.

The tracer replaces public functions (and a few methods and module-level
imports) with wrappers that record a span (name, start, end, parent) and
per-call work counts, keeps the spans in memory, and restores the
originals on uninstall.  The program itself carries no tracing code.
"""

import sys
import time
from collections import defaultdict

import numpy as np

# (span name, module, attribute).  A function is replaced wherever a
# qsvtsim module holds a reference to it, so calls made through
# "from .x import f" bindings are traced as well.
FUNCTIONS = [
    ("chebpoly.build_step_approx", "qsvtsim.chebpoly", "build_step_approx"),
    ("chebpoly.min_eta_for_degree", "qsvtsim.chebpoly", "min_eta_for_degree"),
    ("chebpoly.verify_bounds", "qsvtsim.chebpoly", "verify_bounds"),
    ("chebpoly.linprog", "qsvtsim.chebpoly", "linprog"),
    ("blockenc.apply_poly", "qsvtsim.blockenc", "apply_poly"),
    ("blockenc.shift_and_scale", "qsvtsim.blockenc", "shift_and_scale"),
    ("blockenc.right_probability", "qsvtsim.blockenc", "right_probability"),
    ("estimator.alpha_schedule", "qsvtsim.estimator", "alpha_schedule"),
    ("estimator.estimate_ee", "qsvtsim.estimator", "estimate_ee"),
    ("estimator.decide_ee", "qsvtsim.estimator", "decide_ee"),
    ("sampler.bernoulli_trials", "qsvtsim.sampler", "bernoulli_trials"),
    ("reductions.ae_block_encoding", "qsvtsim.reductions", "ae_block_encoding"),
    ("reductions.solve_ae_via_ee", "qsvtsim.reductions", "solve_ae_via_ee"),
    ("reductions.solve_pe_via_ee", "qsvtsim.reductions", "solve_pe_via_ee"),
    ("cli.run_sweep", "qsvtsim.cli", "run_sweep"),
    ("cli.write_sweep_csv", "qsvtsim.cli", "write_sweep_csv"),
    ("cli.fit_slopes", "qsvtsim.cli", "fit_slopes"),
]
# (span name, module, class, method)
METHODS = [
    ("chebpoly.ChebPoly", "qsvtsim.chebpoly", "ChebPoly", "__post_init__"),
    ("chebpoly.eval", "qsvtsim.chebpoly", "ChebPoly", "eval"),
    ("sampler.RngStream", "qsvtsim.sampler", "RngStream", "__init__"),
    ("reductions.oracle", "qsvtsim.reductions", "AEInstance", "call_a"),
    ("reductions.oracle", "qsvtsim.reductions", "AEInstance", "call_a_dagger"),
    ("reductions.oracle", "qsvtsim.reductions", "AEInstance", "call_oracle"),
]


def _count_verify(counts, args, kwargs, out):
    counts["certify_points"] += out.grid_size
    counts["certified"] += int(out.passes)


def _count_lp(counts, args, kwargs, out):
    a_ub = kwargs["A_ub"] if "A_ub" in kwargs else args[1]
    counts["lp_rows"] += a_ub.shape[0]


def _count_apply(counts, args, kwargs, out):
    hp, poly = args
    degree = len(poly.coeffs) - 1
    counts["matmuls"] += degree
    counts["flops_computed"] += degree * 8 * hp.dim ** 3


def _count_draw(counts, args, kwargs, out):
    counts["shots"] += int(args[1])


def _count_eval(counts, args, kwargs, out):
    counts["eval_points"] += int(np.size(args[1]))


def _count_csv(counts, args, kwargs, out):
    counts["csv_bytes"] += len(args[1].getvalue().encode())


COUNTERS = {
    "chebpoly.verify_bounds": _count_verify,
    "chebpoly.linprog": _count_lp,
    "blockenc.apply_poly": _count_apply,
    "sampler.bernoulli_trials": _count_draw,
    "chebpoly.eval": _count_eval,
    "cli.write_sweep_csv": _count_csv,
}


class Tracer:
    """Records spans while installed; one pass at a time is summarised."""

    def __init__(self):
        self.names = []
        self.name_ids = {}
        self.spans = []  # (name id, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        counter = COUNTERS.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if counter is not None:
                counter(counts, args, kwargs, out)
            return out

        return traced

    def install(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == "qsvtsim" or n.startswith("qsvtsim.")]
        for name, modname, attr in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        for name, modname, cls, meth in METHODS:
            klass = getattr(sys.modules[modname], cls)
            orig = klass.__dict__[meth]
            self._patched.append((klass, meth, orig))
            setattr(klass, meth, self._wrap(name, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._patched):
            setattr(obj, key, orig)
        self._patched.clear()

    def summary(self, first):
        """Per-name (calls, total s, self s) over spans[first:], plus the
        number of build calls that constructed a polynomial and of spans."""
        rows = self.spans[first:]
        nid = np.array([r[0] for r in rows], dtype=int)
        dur = np.array([r[2] - r[1] for r in rows])
        parent = np.array([r[3] - first if r[3] >= 0 else -1 for r in rows])
        child = np.zeros(len(rows))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=own, minlength=n)
        out = {name: (int(calls[i]), float(total[i]), float(self_s[i]))
               for i, name in enumerate(self.names)}
        out["_build_misses"] = self._build_misses(nid, parent)
        out["_spans"] = len(rows)
        return out

    def _build_misses(self, nid, parent):
        build = self.name_ids.get("chebpoly.build_step_approx")
        poly = self.name_ids.get("chebpoly.ChebPoly")
        missed = set()
        for i in np.flatnonzero(nid == poly):
            j = parent[i]
            while j >= 0:
                if nid[j] == build:
                    missed.add(int(j))
                j = parent[j]
        return len(missed)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for nid, start, end, parent in self.spans:
                fh.write(f"{self.names[nid]}\t{start:.9f}\t{end:.9f}\t{parent}\n")
