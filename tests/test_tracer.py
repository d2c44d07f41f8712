"""The benchmark's span tracer still finds every name it wraps.

perfbench/tracer.py replaces package functions and methods by name, so a
rename or removal here would break `python3 perfbench/run.py --trace 1`.
The tracer file is loaded by path and used as it stands.
"""

import importlib.util
import sys
from pathlib import Path

import qsvtsim  # noqa: F401  (install() walks every loaded qsvtsim module)
from qsvtsim import cli, estimator
from qsvtsim.chebpoly import ChebPoly
from qsvtsim.sampler import RngStream

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_tracer_installs_records_and_restores():
    mod = load_tracer()
    functions = {(m, a): getattr(sys.modules[m], a) for _, m, a in mod.FUNCTIONS}
    methods = {(m, c, meth): vars(getattr(sys.modules[m], c))[meth]
               for _, m, c, meth in mod.METHODS}
    tracer = mod.Tracer()
    try:
        tracer.install()
        assert cli.estimate_ee is not functions["qsvtsim.estimator", "estimate_ee"]
        _, ledger = estimator.estimate_ee(estimator.diag_instance([0.5, -0.25]),
                                          0.25, 1.0, RngStream(0, 0))
        ChebPoly([0.5, 0.5])
    finally:
        tracer.uninstall()
    summary = tracer.summary(0)
    assert summary["estimator.estimate_ee"][0] == 1
    assert summary["estimator.alpha_schedule"][0] == 1
    # ceil(log2(2 gamma / eps)) = 3 bisection steps, one decision and one draw each
    assert summary["estimator.decide_ee"][0] == 3 == ledger.shots // 20480
    assert summary["sampler.bernoulli_trials"][0] == 3
    assert summary["chebpoly.ChebPoly"][0] >= 1
    for (m, a), fn in functions.items():
        assert getattr(sys.modules[m], a) is fn
    assert cli.estimate_ee is functions["qsvtsim.estimator", "estimate_ee"]
    for (m, c, meth), fn in methods.items():
        assert vars(getattr(sys.modules[m], c))[meth] is fn
