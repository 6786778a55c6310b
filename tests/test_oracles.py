import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bump_constants
from wavebound.errors import AccuracyError, OracleError
from wavebound.initial_data import InitialData, bump, get_data
from wavebound.oracles import (
    BLOCK_POINTS,
    _v1_evaluator,
    convergence_order,
    dalembert,
    growth_slope,
    i0_squared,
    moment,
)

FAMILIES = ("bump", "bump-velocity", "odd-velocity", "derivative-velocity")


def dense_v1(data, n=1 << 15):
    """Nodes and cumulative composite Simpson of u1 over the support, with
    ``n`` Simpson pairs: an independent reference for the antiderivative."""
    L = data.support_radius
    x = np.linspace(-L, L, 2 * n + 1)
    f = np.asarray(data.u1(x), dtype=float)
    h = x[1] - x[0]
    pairs = h / 3.0 * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    return x[::2], np.concatenate(([0.0], np.cumsum(pairs)))


# ---------------------------------------------------------------------------
# closed-form solution
# ---------------------------------------------------------------------------


def test_dalembert_reproduces_initial_data():
    data = get_data("bump")
    x = np.linspace(-3, 3, 601)
    assert np.array_equal(dalembert(data, 0.0, x), np.asarray(data.u0(x), dtype=float))


def test_dalembert_half_peak_on_characteristic():
    # two separated copies at half amplitude: at x = t the right-mover peaks
    data = get_data("bump")
    assert dalembert(data, 3.0, 3.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-12)


def test_dalembert_derivative_velocity_closed_form():
    data = get_data("derivative-velocity")
    x = np.linspace(-8, 8, 1601)
    t = 2.5
    expect = 0.5 * (bump(x + t) - bump(x - t))
    assert np.allclose(dalembert(data, t, x), expect, atol=1e-14)


def test_dalembert_even_data_is_symmetric():
    data = get_data("bump")
    x = np.linspace(0.25, 6.0, 97)
    t = 1.7
    assert np.allclose(dalembert(data, t, x), dalembert(data, t, -x), atol=1e-14)


def test_dalembert_field_compactly_supported_for_vanishing_moment():
    data = get_data("odd-velocity")
    t = 4.0
    outside = np.concatenate([np.linspace(-20, -1 - t - 1e-6, 40), np.linspace(1 + t + 1e-6, 20, 40)])
    vals = dalembert(data, t, outside)
    assert np.max(np.abs(vals)) < 1e-12


def test_dalembert_numeric_antiderivative_fallback():
    # odd velocity has no closed-form antiderivative; the quadrature path
    # must agree with a dense cumulative trapezoid
    data = get_data("odd-velocity")
    xs = np.array([-0.8, -0.2, 0.0, 0.3, 0.9])
    t = 0.6
    fine = np.linspace(-1, 1, 200001)
    u1 = np.asarray(data.u1(fine), dtype=float)
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (fine[1] - fine[0]) * (u1[1:] + u1[:-1]))))

    def v1_ref(x):
        return np.interp(x, fine, cum, left=0.0, right=cum[-1])

    expect = 0.5 * (v1_ref(xs + t) - v1_ref(xs - t))
    assert np.allclose(dalembert(data, t, xs), expect, atol=1e-9)


def test_dalembert_norm_constant_after_separation():
    # once the two traveling parts no longer overlap the squared norm of the
    # closed-form field stops changing; checked by trapezoid quadrature
    data = get_data("bump")

    def norm_sq(t):
        x = np.linspace(-20, 20, 80001)
        vals = dalembert(data, t, x)
        return (x[1] - x[0]) * float(np.sum(vals**2))

    n3, n5 = norm_sq(3.0), norm_sq(5.0)
    assert n3 == pytest.approx(n5, rel=1e-10)
    assert n3 == pytest.approx(0.5 * bump_constants()["l2_sq"], rel=1e-8)


def test_dalembert_speed_generalization():
    data = get_data("bump")
    x = np.linspace(-9, 9, 901)
    assert np.allclose(dalembert(data, 2.0, x, speed=2.0), dalembert(data, 4.0, x, speed=1.0), atol=1e-14)
    with pytest.raises(OracleError):
        dalembert(data, 1.0, 0.0, speed=0.0)


# ---------------------------------------------------------------------------
# velocity antiderivative without a closed form
# ---------------------------------------------------------------------------


@given(
    family=st.sampled_from(FAMILIES),
    scale=st.floats(0.5, 2.0),
    shift=st.floats(-0.5, 0.5),
    width=st.floats(0.25, 2.0),
)
@settings(max_examples=25, deadline=None)
def test_v1_matches_dense_cumulative_simpson(family, scale, shift, width):
    # every family through the numerical path, closed form or not
    data = dataclasses.replace(
        get_data(family, scale=scale, shift=shift, width=width), v1_exact=None
    )
    nodes, ref = dense_v1(data)
    v1, _ = _v1_evaluator(data)
    L = data.support_radius
    assert np.max(np.abs(v1(nodes[::16]) - ref[::16])) <= 1e-10
    assert v1(-L - 1.0) == 0.0
    assert abs(v1(L + 1.0) - ref[-1]) <= 1e-10


def test_v1_bisects_panels_for_narrow_far_shifted_data():
    # the bump spans 40 of the 4096 equal panels: a few of them must be
    # bisected before the two Gauss orders agree
    data = get_data("odd-velocity", scale=2.0, shift=10.0, width=0.1)
    nodes, ref = dense_v1(data, n=1 << 17)
    assert np.max(np.abs(_v1_evaluator(data)[0](nodes) - ref)) <= 1e-10


def test_v1_query_order_duplicates_outside_and_scalar():
    data = get_data("bump-velocity", scale=1.3, shift=0.2)
    v1, _ = _v1_evaluator(data)
    L = data.support_radius
    xs = np.array([0.9, -3.0, 0.1, L, 0.1, -L, -0.5, 5.0, 0.9, 0.33])
    vals = v1(xs)
    order = np.argsort(xs)
    assert np.allclose(vals[order], v1(xs[order]), rtol=0.0, atol=1e-16)
    assert vals[2] == vals[4] and vals[0] == vals[8]
    assert vals[1] == 0.0 and vals[5] == 0.0
    total = 1.3 * bump_constants()["integral"]
    assert vals[3] == vals[7] and vals[7] == pytest.approx(total, rel=1e-12)
    assert np.all(np.diff(vals[order]) >= 0.0)  # positive velocity
    scalar = v1(0.33)
    assert type(scalar) is float and scalar == pytest.approx(vals[-1], abs=1e-16)


@pytest.mark.parametrize("a0", [1.0, 2.0])
def test_i0_squared_odd_velocity_matches_dense_rule(a0):
    data = get_data("odd-velocity")
    nodes, v1 = dense_v1(data)
    # V1 vanishes at both ends: the trapezoid of V1^2 is spectrally accurate
    h = nodes[1] - nodes[0]
    expect = h * float(np.sum(v1 * v1))
    res = i0_squared(data, a0)
    assert res.value == pytest.approx(expect, rel=1e-10)
    assert res.error_estimate <= 1e-12 * res.value


def test_sampler_calls_stay_within_the_block():
    data = get_data("odd-velocity", scale=1.5, shift=0.3)
    sizes = []

    def u1(x):
        sizes.append(np.size(x))
        assert np.size(x) <= BLOCK_POINTS
        return data.u1(x)

    wrapped = dataclasses.replace(data, u1=u1)
    i0_squared(wrapped, 2.0)
    dalembert(wrapped, 0.7, np.linspace(-4.0, 4.0, 20001))
    assert max(sizes) <= BLOCK_POINTS
    # whole-array blocks, not one call per point
    assert len(sizes) < 1000


def traced_peak(fn):
    """Peak bytes numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("family", ["odd-velocity", "derivative-velocity"])
def test_blocks_bound_the_temporaries(family):
    # working memory beyond the one full-length array each call must hold
    # (the result, the trapezoid nodes) stays below another full length
    full = 8 * ((1 << 17) + 1)
    data = get_data(family, scale=1.5, shift=0.3)
    v1, _ = _v1_evaluator(data)  # imports the Gauss rules outside the trace
    if data.v1_exact is None:
        x = np.linspace(-2.0, 2.0, (1 << 17) + 1)
        assert traced_peak(lambda: v1(x)) < 2 * full
    assert traced_peak(lambda: i0_squared(data, 2.0)) < 2 * full


def test_v1_raises_on_a_jump_inside_the_support():
    def u1(x):
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 1.0, np.where(x > 0.3, 1.0, -0.5), 0.0)

    data = InitialData("jump", u0=u1, u1=u1, support_radius=1.0)
    with pytest.raises(AccuracyError) as err:
        _v1_evaluator(data)
    assert err.value.achieved == pytest.approx(0.7 - 0.5 * 1.3, abs=1e-6)


# ---------------------------------------------------------------------------
# convergence order
# ---------------------------------------------------------------------------


def test_order_two_from_exact_pairs():
    pairs = [(0.1, 0.04), (0.05, 0.01)]
    assert convergence_order(pairs) == pytest.approx(2.0, abs=1e-12)


def test_order_zero_for_stagnant_errors():
    assert convergence_order([(0.1, 1e-3), (0.05, 1e-3)]) == pytest.approx(0.0, abs=1e-12)


def test_order_input_validation():
    with pytest.raises(OracleError):
        convergence_order([(0.1, 1e-3)])
    with pytest.raises(OracleError):
        convergence_order([(0.1, 1e-3), (0.2, 1e-4)])
    with pytest.raises(OracleError):
        convergence_order([(0.1, 0.0), (0.05, 0.0)])


# ---------------------------------------------------------------------------
# pinned constants
# ---------------------------------------------------------------------------


def test_bump_constants_match_independent_dense_rule():
    # cross-check the adaptive quadrature against a plain composite Simpson
    n = 1 << 15
    y = np.linspace(-1.0, 1.0, n + 1)
    h = 2.0 / n

    def simpson(f):
        return h / 3.0 * (f[0] + f[-1] + 4.0 * np.sum(f[1:-1:2]) + 2.0 * np.sum(f[2:-2:2]))

    psi = np.asarray(bump(y), dtype=float)
    consts = bump_constants()
    assert consts["integral"] == pytest.approx(simpson(psi), abs=1e-10)
    assert consts["l2_sq"] == pytest.approx(simpson(psi**2), abs=1e-10)


def test_i0_squared_uses_closed_form_antiderivative():
    res = i0_squared(get_data("derivative-velocity"), 1.0)
    assert res.value == pytest.approx(bump_constants()["l2_sq"], rel=1e-9)
    assert res.error_estimate < 1e-10


def test_i0_squared_includes_displacement_term():
    a0 = 1.7
    res0 = i0_squared(get_data("bump", scale=0.0), a0)
    res1 = i0_squared(get_data("bump"), a0)
    assert res0.value == 0.0
    assert res1.value == pytest.approx(a0 * a0 * bump_constants()["l2_sq"], rel=1e-9)


# ---------------------------------------------------------------------------
# growth slope for constant speed
# ---------------------------------------------------------------------------


def test_growth_slope_vanishing_moment_is_flat():
    res = growth_slope(get_data("odd-velocity"))
    assert abs(res.value) <= max(res.error_estimate, 1e-12)


def test_growth_slope_positive_and_self_consistent():
    res = growth_slope(get_data("bump-velocity"))
    assert res.value > 0.0
    # the moment's quadrature tolerance barely moves the slope
    assert res.error_estimate <= 0.02 * res.value
    assert res.method == "moment-closed-form"


def test_growth_slope_quadratic_in_amplitude():
    base = growth_slope(get_data("bump-velocity"))
    doubled = growth_slope(get_data("bump-velocity", scale=2.0))
    assert doubled.value == pytest.approx(4.0 * base.value, rel=1e-6)


def test_growth_slope_translation_invariant():
    base = growth_slope(get_data("bump-velocity"))
    shifted = growth_slope(get_data("bump-velocity", shift=0.37))
    assert shifted.value == pytest.approx(base.value, rel=1e-6)


@pytest.mark.parametrize("scale", [1e5, 1e8])
def test_moment_scales_linearly_with_the_data_scale(scale):
    # the table's tolerance grows with the velocity's absolute integral, so
    # large data neither fails it on roundoff nor loses relative accuracy
    base = moment(get_data("bump-velocity"))
    assert moment(get_data("bump-velocity", scale=scale)) == pytest.approx(scale * base, rel=1e-12)
    assert abs(moment(get_data("odd-velocity", scale=scale))) <= 1e-12 * scale
    # the slope's error estimate carries the same relative tolerance
    res = growth_slope(get_data("bump-velocity", scale=scale))
    assert res.error_estimate == pytest.approx(2e-12 * res.value, rel=1e-9)


def test_growth_slope_input_validation():
    with pytest.raises(OracleError):
        growth_slope(get_data("bump-velocity"), speed=0.0)


# spacing of the trapezoid in the traveling-wave cross-check
DX = 1e-3


@pytest.mark.parametrize(
    "family,params,speed",
    [
        ("bump-velocity", {}, 1.0),
        ("bump-velocity", {"scale": 2.0}, 1.0),
        ("bump-velocity", {"shift": 0.37}, 1.0),
        ("bump-velocity", {"width": 0.5}, 1.0),
        ("bump-velocity", {}, 2.5),
        ("odd-velocity", {}, 1.0),
        ("derivative-velocity", {}, 1.0),
        ("bump", {}, 1.0),
    ],
)
def test_growth_slope_matches_norm_difference_of_traveling_waves(family, params, speed):
    # the finite difference of the squared norm between two times after the
    # traveling parts have separated, with the solution built here from the
    # Simpson antiderivative table and d'Alembert's formula
    data = get_data(family, **params)
    nodes, cum = dense_v1(data)
    R = data.support_radius

    def norm_sq(t):
        half = R + speed * t + 1.0
        x = np.linspace(-half, half, int(2.0 * half / DX) + 1)
        right, left = x - speed * t, x + speed * t
        v1_left = np.interp(left, nodes, cum, left=0.0, right=cum[-1])
        v1_right = np.interp(right, nodes, cum, left=0.0, right=cum[-1])
        u = 0.5 * (data.u0(right) + data.u0(left)) + (v1_left - v1_right) / (2.0 * speed)
        return (x[1] - x[0]) * (np.sum(u * u) - 0.5 * u[0] ** 2 - 0.5 * u[-1] ** 2)

    t1 = 2.0 * R / speed + 1.0
    t2 = t1 + 10.0
    slope = (norm_sq(t2) - norm_sq(t1)) / (t2 - t1)
    assert slope == pytest.approx(growth_slope(data, speed).value, rel=1e-10, abs=1e-13)
