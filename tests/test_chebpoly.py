"""Step-polynomial builder and certification tests.

Evaluation is checked against an independent power-basis oracle (expand
the Chebyshev recurrence into monomials, evaluate by nested
multiplication) so the two code paths share no arithmetic.
"""

import math
import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsvtsim import chebpoly
from qsvtsim.blockenc import HermitianOp, apply_poly
from qsvtsim.chebpoly import (CapacityError, ChebPoly, StepSpec,
                              build_step_approx, degree_constant,
                              min_eta_for_degree, to_text, verify_bounds,
                              write_curve_csv)
from qsvtsim.estimator import alpha_schedule


def power_basis(cheb_coeffs):
    """Monomial coefficients of sum c_k T_k via the explicit recurrence."""
    prev = np.array([1.0])
    cur = np.array([0.0, 1.0])
    total = np.zeros(len(cheb_coeffs))
    total[:1] += cheb_coeffs[0] * prev
    if len(cheb_coeffs) > 1:
        total[:2] += cheb_coeffs[1] * cur
    for k in range(2, len(cheb_coeffs)):
        nxt = np.zeros(k + 1)
        nxt[1:] = 2.0 * cur
        nxt[:len(prev)] -= prev
        total[:k + 1] += cheb_coeffs[k] * nxt
        prev, cur = cur, nxt
    return total


def horner(mono, x):
    acc = 0.0
    for c in reversed(mono):
        acc = acc * x + c
    return acc


def test_eval_matches_power_basis_oracle():
    rng = np.random.default_rng(7)
    raw = rng.normal(size=10)
    xs = np.linspace(-1.0, 1.0, 2001)
    raw /= np.max(np.abs(np.polynomial.chebyshev.chebval(xs, raw))) * 1.01
    poly = ChebPoly.from_coeffs(raw)
    mono = power_basis(raw)
    for x in rng.uniform(-1.0, 1.0, 100):
        assert abs(poly.eval(float(x)) - horner(mono, float(x))) <= 1e-11


def test_eval_matches_cosine_identity():
    # T_k(cos t) = cos(k t), checked for each basis polynomial separately
    for k in range(1, 31):
        coeffs = [0.0] * k + [1.0]
        poly = ChebPoly.from_coeffs(coeffs)
        for t in np.linspace(0.0, math.pi, 57):
            x = math.cos(t)
            assert abs(poly.eval(x) - math.cos(k * t)) <= 1e-10


def test_degree_one_step_midpoint():
    poly = ChebPoly.from_coeffs([0.5, 0.5])
    assert poly.eval(0.0) == pytest.approx(0.5, abs=1e-15)
    assert poly.degree == 1


def test_from_coeffs_trims_trailing_zeros():
    poly = ChebPoly.from_coeffs([0.25, 0.5, 0.0, 0.0])
    assert poly.degree == 1
    assert poly.coeffs == (0.25, 0.5)
    assert ChebPoly.from_coeffs([0.0, 0.0]).coeffs == (0.0,)
    with pytest.raises(ValueError, match="at least one coefficient"):
        ChebPoly.from_coeffs([])
    with pytest.raises(ValueError, match="leading coefficient"):
        ChebPoly(coeffs=(0.25, 0.5, 0.0))


def test_parity_classification():
    assert ChebPoly.from_coeffs([0.0, 1.0]).parity == "odd"
    assert ChebPoly.from_coeffs([0.5, 0.0, 0.5]).parity == "even"
    assert ChebPoly.from_coeffs([0.5, 0.5]).parity == "none"
    assert ChebPoly.from_coeffs([1.0]).parity == "even"


def test_box_bound_certified_not_enforced_on_construction():
    poly = ChebPoly.from_coeffs([0.0, 1.2])
    report = verify_bounds(poly, StepSpec(0.2, 0.5))
    assert report.max_abs_excess == pytest.approx(0.2)
    assert not report.passes
    h = HermitianOp.from_matrix(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError, match="spectral radius above 1"):
        apply_poly(h, poly)


def test_candidates_are_evaluated_once_before_certification(monkeypatch):
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(chebpoly, "_clenshaw_split",
                        counted("evals", chebpoly._clenshaw_split))
    ChebPoly.from_coeffs([0.5, 0.5])
    ChebPoly.from_coeffs([0.0, 1.2])
    assert counts["evals"] == 0

    verify = chebpoly.verify_bounds

    def verify_counted(poly, spec):
        before = counts["evals"]
        report = verify(poly, spec)
        counts["certify_evals"] += counts["evals"] - before
        return report

    monkeypatch.setattr(chebpoly, "verify_bounds", verify_counted)
    monkeypatch.setattr(chebpoly, "_step_from_odd",
                        counted("candidates", chebpoly._step_from_odd))
    chebpoly._build_cached.cache_clear()
    chebpoly._lp_minimax.cache_clear()
    alpha_schedule(0.5, 0.05, 1.0)
    assert counts["candidates"] > 0
    assert counts["evals"] == counts["candidates"] + counts["certify_evals"]


def test_eval_outside_domain_rejected():
    poly = ChebPoly.from_coeffs([0.5, 0.5])
    # NaN compares false with any bound, so it needs rejecting explicitly
    for bad in (1.01, -1.01, math.nan, math.inf, -math.inf, np.float64("nan"),
                np.array(math.nan), [0.1, math.nan], np.array([0.0, 1.01]),
                np.array([[0.0, 0.5], [math.inf, 0.2]])):
        with pytest.raises(ValueError, match="outside"):
            poly.eval(bad)
    # rounding slack beyond +-1 is tolerated and clipped onto the domain
    assert poly.eval(1.0) == pytest.approx(1.0)
    assert poly.eval(1.0 + 5e-13) == poly.eval(1.0)
    assert poly.eval(-1.0 - 5e-13) == poly.eval(-1.0)
    assert np.array_equal(poly.eval(np.array([1.0 + 5e-13])),
                          poly.eval(np.array([1.0])))


def test_eval_input_contract():
    poly = ChebPoly.from_coeffs([0.1, 0.3, 0.2, -0.25])
    for x in (0.25, 0, np.float64(0.25), np.array(0.25), np.int64(1)):
        out = poly.eval(x)
        assert type(out) is float
        assert out == poly.eval(float(x))
    for x in ([0.1, -0.7], np.linspace(-1.0, 1.0, 5),
              np.linspace(-1.0, 1.0, 6).reshape(2, 3)):
        out = poly.eval(x)
        assert isinstance(out, np.ndarray)
        assert out.shape == np.shape(x)
        flat = np.ravel(x)
        assert [poly.eval(float(v)) for v in flat] == list(out.ravel())
    # a constant still answers with the shape of its input
    assert ChebPoly.from_coeffs([0.25]).eval(np.zeros((2, 3))).shape == (2, 3)


@st.composite
def bounded_series(draw):
    """Dense, pure-odd or pure-even normal coefficients of degree <= 400,
    scaled to sum |c_k| = 1 so the box check holds by |T_k| <= 1."""
    degree = draw(st.integers(0, 400))
    kind = draw(st.sampled_from(("dense", "odd", "even")))
    seed = draw(st.integers(0, 2**32 - 1))
    coeffs = np.random.default_rng(seed).normal(size=degree + 1)
    if kind == "odd":
        coeffs[0::2] = 0.0
    elif kind == "even":
        coeffs[1::2] = 0.0
    total = np.sum(np.abs(coeffs))
    return kind, coeffs / total if total > 0.0 else coeffs


@settings(max_examples=150, deadline=None)
@given(bounded_series(), st.floats(-1.0, 1.0))
def test_eval_properties(series, x):
    kind, coeffs = series
    poly = ChebPoly.from_coeffs(coeffs)
    value = poly.eval(x)
    # an independent cosine sum: T_k(cos t) = cos(k t)
    theta = math.acos(x)
    cosine = math.fsum(c * math.cos(k * theta) for k, c in enumerate(coeffs))
    assert abs(value - cosine) <= 1e-12 * (1.0 + np.sum(np.abs(coeffs)))
    # the scalar and the array path round identically
    assert struct.pack("<d", value) == struct.pack("<d", poly.eval(np.array([x]))[0])
    if kind == "odd":
        assert poly.eval(-x) == -value


def test_step_spec_validation():
    for delta, eta in ((0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0),
                      (-0.1, 0.5), (0.5, 1.5)):
        with pytest.raises(ValueError):
            StepSpec(delta, eta)


def test_degree_one_when_eta_is_loose():
    """eta >= 1 - delta makes the plain ramp (1+x)/2 a valid step."""
    poly = build_step_approx(StepSpec(0.2, 0.9))
    assert poly.degree == 1
    assert poly.coeffs == (0.5, 0.5)
    assert verify_bounds(poly, StepSpec(0.2, 0.9)).passes


def test_degree_one_feasibility_boundary():
    for delta in (0.05, 0.1, 0.2, 0.4):
        loose = build_step_approx(StepSpec(delta, 1.0 - delta + 2e-4))
        assert loose.degree == 1
        tight = build_step_approx(StepSpec(delta, 1.0 - delta - 2e-4))
        assert tight.degree > 1


def test_build_tight_case_frozen():
    """delta=0.1, eta=0.01 regression: degree frozen from the first run."""
    spec = StepSpec(0.1, 0.01)
    poly = build_step_approx(spec)
    assert poly.degree == 71
    report = verify_bounds(poly, spec)
    assert report.passes
    assert report.grid_size >= 10_000
    # reported constant stays under 1.2, so degree <= 1.2*(1/delta)*ln(4/eta)
    assert degree_constant(poly, spec) <= 1.2
    assert poly.degree <= 1.2 * 10.0 * math.log(400.0)


def test_builder_step_has_odd_sign_part():
    poly = build_step_approx(StepSpec(0.05, 0.5))
    assert poly.coeffs[0] == 0.5
    assert all(c == 0.0 for c in poly.coeffs[2::2])


def test_bound_certificates_across_grid():
    for delta in (0.1, 0.2):
        for eta in (0.3, 0.7):
            spec = StepSpec(delta, eta)
            assert verify_bounds(build_step_approx(spec), spec).passes


def test_verify_bounds_reports_violation():
    # the bare ramp is far too shallow for a tight eta
    spec = StepSpec(0.2, 0.1)
    report = verify_bounds(ChebPoly.from_coeffs([0.5, 0.5]), spec)
    assert not report.passes
    # at x=delta the ramp sits at 0.6 versus the required 0.95
    assert report.max_high_violation == pytest.approx(0.35, abs=1e-9)


def test_capacity_error_carries_report():
    with pytest.raises(CapacityError) as info:
        build_step_approx(StepSpec(0.05, 0.02), max_degree=15)
    assert info.value.report is not None
    assert not info.value.report.passes


def test_min_eta_degree_one_boundary():
    eta = min_eta_for_degree(0.2, 1)
    assert 0.8 - 1e-4 <= eta <= 0.8 + 1e-4


def test_min_eta_nonincreasing_in_degree():
    values = [min_eta_for_degree(0.2, d) for d in (1, 3, 7)]
    assert values[0] >= values[1] >= values[2]


def test_frontier_solves_each_minimax_lp_once(monkeypatch):
    """The eta bisection reuses one LP per odd degree instead of re-solving."""
    solves = []
    real_linprog = chebpoly.linprog

    def counting_linprog(*args, **kwargs):
        solves.append(1)
        return real_linprog(*args, **kwargs)

    monkeypatch.setattr(chebpoly, "linprog", counting_linprog)
    chebpoly._build_cached.cache_clear()
    chebpoly._lp_minimax.cache_clear()
    min_eta_for_degree(0.2, 21)
    min_eta_for_degree(0.2, 15)
    # at most one solve per odd degree 3..21, however many eta probes ran
    assert 0 < len(solves) <= 10
    assert len(solves) == chebpoly._lp_minimax.cache_info().currsize
    solves.clear()
    min_eta_for_degree(0.2, 15)  # infeasible probes rerun the LP path
    assert not solves


def test_lp_fit_eta_gate_and_cache_safety():
    t_star = chebpoly._lp_minimax(0.2, 21)[0]
    assert chebpoly._lp_odd_fit(0.2, t_star, 21) is None
    coeffs = chebpoly._lp_odd_fit(0.2, t_star + 2e-8, 21)
    assert coeffs is not None and coeffs.shape == (22,)
    kept = coeffs.copy()
    coeffs[:] = 0.0
    assert np.array_equal(chebpoly._lp_odd_fit(0.2, t_star + 2e-8, 21), kept)


def test_text_round_trip():
    poly = build_step_approx(StepSpec(0.2, 0.5))
    lines = to_text(poly).splitlines()
    assert lines[0] == f"degree {poly.degree}"
    assert lines[1] == f"parity {poly.parity}"
    fields = [ln.split() for ln in lines[2:]]
    assert [name for name, _ in fields] == [f"c_{k}" for k in range(poly.degree + 1)]
    # %.17g round-trips every double bit for bit
    parsed = [float(value) for _, value in fields]
    assert [struct.pack("<d", c) for c in parsed] \
        == [struct.pack("<d", c) for c in poly.coeffs]


def test_curve_csv_shape(tmp_path):
    poly = build_step_approx(StepSpec(0.2, 0.5))
    path = tmp_path / "curve.csv"
    write_curve_csv(poly, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,P(x)"
    assert len(lines) == 1001
    x0, p0 = (float(tok) for tok in lines[1].split(","))
    xe, pe = (float(tok) for tok in lines[-1].split(","))
    assert x0 == -1.0 and xe == 1.0
    assert p0 == pytest.approx(poly.eval(-1.0), abs=1e-15)
    assert pe == pytest.approx(poly.eval(1.0), abs=1e-15)
