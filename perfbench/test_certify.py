"""Tests of the benchmark's independent certificate checker.

Run from the root of the repository:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math

import pytest

import certify
from qsvtsim.chebpoly import StepSpec, verify_bounds
from qsvtsim.estimator import alpha_schedule

RAMP = (0.5, 0.5)


def test_cosine_sums_match_the_power_form():
    # P = T_3 = 4x^3 - 3x, so dP/dt = -3 sin 3t and d2P/dt2 = -9 cos 3t.
    t = [0.0, 0.3, 1.1, math.pi]
    p, d1, d2 = certify.cosine_sums((0.0, 0.0, 0.0, 1.0), t)
    for ti, pi, d1i, d2i in zip(t, p, d1, d2):
        x = math.cos(ti)
        assert pi == pytest.approx(4 * x ** 3 - 3 * x, abs=1e-14)
        assert d1i == pytest.approx(-3 * math.sin(3 * ti), abs=1e-14)
        assert d2i == pytest.approx(-9 * math.cos(3 * ti), abs=1e-13)


def test_ramp_passes_at_its_exact_threshold():
    cert = certify.certify(RAMP, 0.2, 0.8 + 1e-12)
    assert cert.passes
    assert cert.box == 0.0
    assert cert.points >= 64


def test_ramp_fails_below_its_threshold():
    cert = certify.certify(RAMP, 0.2, 0.8 - 1e-3)
    assert not cert.passes
    assert cert.high == pytest.approx(5e-4, rel=1e-9)
    assert cert.box <= 0.0


def test_flags_the_degree_337_overshoot():
    sched = alpha_schedule(0.0, 0.0125, 1.0)
    assert sched.degree == 337
    cert = certify.certify(sched.poly.coeffs, sched.delta, sched.eta)
    assert not cert.passes
    assert 1.34e-5 < cert.box < 1.36e-5
    assert cert.worst_x == pytest.approx(0.0102, abs=2e-4)
    assert cert.points >= 64 * 337


def test_finds_overshoot_between_the_program_grid_points():
    # The program's grid certificate passes this degree-21 step; its true
    # maximum, 1 + 1.26e-8 near x = 0.158, lies between grid points.
    sched = alpha_schedule(0.0, 0.2, 1.0)
    assert verify_bounds(sched.poly, StepSpec(sched.delta, sched.eta)).passes
    cert = certify.certify(sched.poly.coeffs, sched.delta, sched.eta)
    assert not cert.passes
    assert cert.box == pytest.approx(1.2563e-8, rel=1e-3)
    assert cert.worst_x == pytest.approx(0.1579, abs=1e-3)


def test_minimax_lower_bound_of_the_ramp_is_one_minus_delta():
    assert certify.minimax_lower_bound(0.2, 1) == pytest.approx(0.8, abs=1e-8)


def test_bisection_steps():
    assert [certify.bisection_steps(1.0, e) for e in (0.2, 0.1, 0.05, 0.025, 0.0125)] \
        == [4, 5, 6, 7, 8]
