import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bump_constants
from wavebound.coefficients import get_profile
from wavebound.errors import ConfigError, CoverageError
from wavebound.grids import GridSpec, trapz_sq
from wavebound.initial_data import (
    MOMENT_TOL,
    InitialData,
    bound_constant,
    bump,
    bump_prime,
    get_data,
)
from wavebound.oracles import moment
from wavebound.solver import init_grid


def make_grid(half_width=2.0, n=2001):
    h = 2.0 * half_width / (n - 1)
    return GridSpec(half_width=half_width, n_points=n, h=h, dt=h, cfl=1.0, n_steps=0)


FAMILY_NAMES = ["bump", "bump-velocity", "odd-velocity", "derivative-velocity"]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_samplers_vanish_outside_support(name):
    data = get_data(name, scale=1.3, shift=0.4, width=1.7)
    L = data.support_radius
    x = np.concatenate([np.linspace(-4 * L, -L - 1e-9, 50), np.linspace(L + 1e-9, 4 * L, 50)])
    assert np.all(data.u0(x) == 0.0)
    assert np.all(data.u1(x) == 0.0)


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_samplers_finite_everywhere(name):
    data = get_data(name)
    x = np.linspace(-5, 5, 20001)
    assert np.all(np.isfinite(data.u0(x)))
    assert np.all(np.isfinite(data.u1(x)))


def test_bump_peak_value():
    assert bump(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert bump_prime(0.0) == 0.0


def test_support_radius_accounts_for_shift_and_width():
    data = get_data("bump", shift=-2.0, width=0.5)
    assert data.support_radius == 2.5


# ---------------------------------------------------------------------------
# antiderivative: the cumulative trapezoid behind the bound constant
# ---------------------------------------------------------------------------


def test_antiderivative_of_zero_velocity():
    rep = bound_constant(get_data("bump"), 1.0, make_grid())
    assert rep.v1_in_L2 and rep.v1_l2_sq == 0.0


def test_antiderivative_of_derivative_recovers_bump():
    # fundamental theorem: the cumulative integral of (psi)' is psi
    rep = bound_constant(get_data("derivative-velocity"), 0.0, make_grid())
    assert rep.v1_l2_sq == pytest.approx(bump_constants()["l2_sq"], rel=5e-6)
    assert rep.I0_sq == rep.v1_l2_sq


def test_antiderivative_right_edge_is_the_moment():
    # the grid moment is the cumulative trapezoid's right-edge value; it
    # approximates the exact moment, which the oracle pins to quadrature accuracy
    data = get_data("bump-velocity", scale=2.0, width=0.5)
    target = bump_constants()["integral"]
    assert moment(data) == pytest.approx(target, rel=1e-14)
    assert bound_constant(data, 1.0, make_grid()).c0 == pytest.approx(target, abs=1e-6)


def test_antiderivative_requires_coverage():
    grid = make_grid(half_width=0.5)
    with pytest.raises(CoverageError):
        bound_constant(get_data("bump"), 1.0, grid)


def test_antiderivative_compactly_supported_when_moment_vanishes():
    # the same spacing on twice the domain adds exact zeros to the norm only
    # if the antiderivative vanishes outside the support
    data = get_data("odd-velocity")
    wide = bound_constant(data, 1.0, make_grid(half_width=3.0, n=3001))
    narrow = bound_constant(data, 1.0, make_grid(half_width=1.5, n=1501))
    assert wide.v1_l2_sq > 0.0
    assert wide.v1_l2_sq == pytest.approx(narrow.v1_l2_sq, rel=1e-14)


# ---------------------------------------------------------------------------
# moment: exact (oracles.moment) and on the grid (MomentReport.c0)
# ---------------------------------------------------------------------------


def test_moment_odd_velocity_vanishes():
    data = get_data("odd-velocity")
    assert abs(moment(data)) < 1e-14
    assert abs(bound_constant(data, 1.0, make_grid()).c0) < 1e-14


def test_moment_bump_velocity_positive():
    data = get_data("bump-velocity")
    m = bound_constant(data, 1.0, make_grid()).c0
    assert m == pytest.approx(moment(data), abs=1e-6)
    assert m > 0.0 and moment(data) > 0.0


def test_moment_zero_velocity():
    data = get_data("bump")
    assert moment(data) == 0.0
    assert bound_constant(data, 1.0, make_grid()).c0 == 0.0


def test_moment_stable_under_refinement():
    data = get_data("bump-velocity")
    m1, m2, m4 = (bound_constant(data, 1.0, make_grid(n=n)).c0 for n in (2001, 4001, 8001))
    assert abs(m2 - m1) < 1e-8
    richardson = (4.0 * m2 - m1) / 3.0
    assert abs(richardson - m4) < 1e-10


def test_exact_moment_closed_form_matches_quadrature():
    # the families with a closed-form antiderivative, integrated numerically
    for name in ("bump", "derivative-velocity"):
        data = get_data(name, scale=1.5, shift=0.3, width=0.7)
        numeric = dataclasses.replace(data, v1_exact=None)
        assert moment(data) == 0.0
        assert abs(moment(numeric)) < 1e-14


@pytest.mark.parametrize("name", ["odd-velocity", "derivative-velocity"])
@pytest.mark.parametrize("shift", [0.3, -0.5])
def test_shifted_zero_moment_data_stay_bounded(name, shift):
    # a shift leaves the grid moment far above the tolerance; the regime
    # follows the exact moment, which is zero
    data = get_data(name, scale=1.5, shift=shift)
    grid = init_grid(data, get_profile("example1"), 50.0, n_points=4001)
    rep = bound_constant(data, 1.0, grid)
    assert abs(rep.c0) > MOMENT_TOL * (1.0 + 1.5 * data.support_radius)
    assert rep.v1_in_L2 and math.isfinite(rep.I0_sq)


# ---------------------------------------------------------------------------
# bound constant
# ---------------------------------------------------------------------------


def test_bound_constant_displacement_only():
    grid = make_grid()
    rep = bound_constant(get_data("bump"), 1.0, grid)
    assert rep.v1_in_L2 and rep.c0 == 0.0
    assert rep.v1_l2_sq == 0.0
    assert rep.I0_sq == pytest.approx(bump_constants()["l2_sq"], rel=1e-6)


def test_bound_constant_derivative_velocity():
    grid = make_grid()
    rep = bound_constant(get_data("derivative-velocity"), 1.0, grid)
    assert rep.v1_in_L2
    assert rep.I0_sq == pytest.approx(bump_constants()["l2_sq"], rel=1e-5)


def test_bound_constant_flags_nonvanishing_moment():
    grid = make_grid()
    rep = bound_constant(get_data("bump-velocity"), 1.0, grid)
    assert not rep.v1_in_L2
    assert math.isinf(rep.v1_l2_sq) and math.isinf(rep.I0_sq)


def test_bound_constant_additive_in_displacement():
    grid = make_grid()
    a0 = 1.7

    def u0(x):
        return bump(np.asarray(x, dtype=float))

    def u1(x):
        return bump_prime(np.asarray(x, dtype=float))

    both = InitialData("combined", u0=u0, u1=u1, support_radius=1.0)
    velocity_only = InitialData("v-only", u0=lambda x: np.zeros_like(np.asarray(x, dtype=float)), u1=u1, support_radius=1.0)
    rep_both = bound_constant(both, a0, grid)
    rep_vel = bound_constant(velocity_only, a0, grid)
    drop = a0 * a0 * trapz_sq(np.asarray(u0(grid.x)), grid.h)
    assert rep_both.I0_sq - rep_vel.I0_sq == pytest.approx(drop, rel=1e-12)


def test_unknown_family_and_bad_parameters():
    with pytest.raises(ConfigError):
        get_data("gaussian")
    with pytest.raises(ConfigError):
        get_data("bump", width=0.0)


@given(
    scale=st.floats(0.1, 5.0, allow_nan=False),
    shift=st.floats(-2.0, 2.0, allow_nan=False),
    width=st.floats(0.25, 2.0, allow_nan=False),
)
@settings(max_examples=30, deadline=None)
def test_odd_velocity_moment_vanishes_for_any_parameters(scale, shift, width):
    data = get_data("odd-velocity", scale=scale, shift=shift, width=width)
    grid = make_grid(half_width=float(np.ceil(data.support_radius)) + 1.0, n=4001)
    tol = 1e-9 * (1.0 + scale)
    assert abs(moment(data)) < tol
    rep = bound_constant(data, 1.0, grid)
    assert abs(rep.c0) < tol
    assert rep.v1_in_L2
