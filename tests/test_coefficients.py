import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import formula_profile
from wavebound.coefficients import (
    classify,
    evaluate,
    get_profile,
    total_variation,
    tv_tail_estimate,
)
from wavebound.errors import AccuracyError, PositivityError, ProfileError

BUILTIN_NAMES = ["const:1", "example1", "example2a", "example2b", "example3"]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_constant_profile_evaluation():
    assert evaluate(get_profile("const:1"), 5.0) == (1.0, 0.0)


@pytest.mark.parametrize("value", ["1e-200", "1e200", "inf", "0", "-1"])
def test_constant_speed_needs_a_finite_nonzero_square(value):
    # every bound divides by the squared speed, and the grid scales with it
    with pytest.raises(PositivityError, match="finite nonzero square"):
        get_profile(f"const:{value}")


def test_example2a_at_origin():
    assert evaluate(get_profile("example2a"), 0.0) == (2.0, -1.0)


def test_example1_removable_singularity_at_origin():
    # piecewise definition: value 1 at t = 0, one-sided derivative limit 0
    assert evaluate(get_profile("example1"), 0.0) == (1.0, 0.0)


def test_example1_smooth_near_origin():
    a, ap = evaluate(get_profile("example1"), 1e-3)
    assert a == pytest.approx(1.0, abs=1e-12)
    assert ap == pytest.approx(0.0, abs=1e-12)
    a, ap = evaluate(get_profile("example1"), 1e-300)
    assert (a, ap) == (1.0, 0.0)


def test_negative_time_rejected():
    with pytest.raises(ProfileError):
        evaluate(get_profile("const:1"), -0.5)


def test_non_finite_derivative_reported_with_time():
    prof = formula_profile("broken", np.ones_like, lambda t: np.where(t == 7.0, np.nan, 0.0))
    with pytest.raises(ProfileError, match="7"):
        evaluate(prof, 7.0)


def test_nonpositive_profile_fails_construction():
    with pytest.raises(PositivityError):
        formula_profile("sinking", lambda t: 1.0 - t, lambda t: -np.ones_like(t))


# classify samples [0, 4000] at 4096 points; the construction probe stops at
# t = 1000, so these profiles pass it and fail at the first sample past 1500
_HORIZON = 4000.0
_SAMPLES = np.linspace(0.0, _HORIZON, 4096)
_FIRST_BAD = _SAMPLES[_SAMPLES > 1500.0][0]


def _late(bad, good):
    return lambda t: np.where(t > 1500.0, bad, good)


@pytest.mark.parametrize(
    "a,a_prime,error,what",
    [
        (_late(np.nan, 1.0), _late(0.0, 0.0), ProfileError, "a(t) not finite"),
        (_late(np.inf, 1.0), _late(0.0, 0.0), ProfileError, "a(t) not finite"),
        (_late(-1.0, 1.0), _late(0.0, 0.0), PositivityError, "a(t) <= 0"),
        (_late(0.0, 1.0), _late(0.0, 0.0), PositivityError, "a(t) <= 0"),
        (_late(1.0, 1.0), _late(np.nan, 0.0), ProfileError, "a'(t) not finite"),
        (_late(1.0, 1.0), _late(-np.inf, 0.0), ProfileError, "a'(t) not finite"),
    ],
)
def test_classify_names_the_first_bad_sample(a, a_prime, error, what):
    prof = formula_profile("late", a, a_prime)
    with pytest.raises(ProfileError) as info:
        classify(prof, _HORIZON)
    assert type(info.value) is error
    assert f"{what} at t={_FIRST_BAD}" in str(info.value)


def test_unknown_profile_name():
    with pytest.raises(ProfileError):
        get_profile("example9")
    with pytest.raises(ProfileError):
        get_profile("const:abc")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_constant_all_flags():
    flags = classify(get_profile("const:1"), 100.0)
    assert flags.a1_holds and flags.a2_holds and flags.a3_holds and flags.a4_holds
    assert flags.a_m == 1.0 and flags.A0 == 1.0
    assert flags.tv_total == pytest.approx(0.0, abs=1e-12)


def test_classify_example1_nondecreasing():
    flags = classify(get_profile("example1"), 200.0)
    assert flags.a2_holds and not flags.a3_holds
    assert flags.a_m == 2.0  # supremum hint: the large-time limit
    assert flags.A0 == 1.0


def test_classify_example2b_nonincreasing():
    flags = classify(get_profile("example2b"), 200.0)
    assert flags.a3_holds and not flags.a2_holds
    assert flags.A0 == 1.0
    assert flags.a_m == 2.0


def test_classify_example3_integrable_variation():
    flags = classify(get_profile("example3"), 400.0)
    assert flags.a4_holds
    assert not flags.a2_holds and not flags.a3_holds
    assert flags.A0 >= 1.0
    assert flags.A0 == pytest.approx(1.96733, abs=1e-4)
    assert math.isfinite(flags.tv_total)


def test_sign_tie_tolerance_counts_both_ways():
    # derivative at roundoff scale must classify as both monotone regimes
    prof = formula_profile("jitter", np.ones_like, lambda t: np.full_like(t, 1e-15))
    flags = classify(prof, 50.0)
    assert flags.a2_holds and flags.a3_holds


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_positivity_and_sup(name):
    prof = get_profile(name)
    flags = classify(prof, 100.0)
    t = np.linspace(0.0, 100.0, 2001)
    vals = np.asarray(prof.a(t), dtype=float)
    assert np.all(vals > 0.0)
    assert np.all(vals <= flags.a_m + 1e-12)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_derivative_consistent_with_finite_differences(name):
    prof = get_profile(name)
    t = np.linspace(0.1, 80.0, 57)
    h = 1e-5
    fd = (np.asarray(prof.a(t + h)) - np.asarray(prof.a(t - h))) / (2.0 * h)
    exact = np.asarray(prof.a_prime(t))
    assert np.max(np.abs(fd - exact)) < 1e-8


@given(value=st.floats(0.1, 10.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_constant_profiles_classify_cleanly(value):
    flags = classify(get_profile(f"const:{value}"), 20.0)
    assert flags.a1_holds and flags.a2_holds and flags.a3_holds and flags.a4_holds
    assert flags.a_m == pytest.approx(value, rel=1e-12)
    assert flags.A0 == pytest.approx(value, rel=1e-12)
    assert flags.tv_total == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# log ratio and total variation
# ---------------------------------------------------------------------------

# relative agreement asked of log(a(t) / a(0)) and the quadrature of a'/a
LOG_RATIO_TOL = 1e-8
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(16)


def log_ratio_and_quadrature(profile, t):
    """log(a(t) / a(0)) in closed form, and the integral of a'/a over [0, t].

    The two agree when a' is the derivative of a. The integral sums 16-point
    Gauss-Legendre rules over [0, 1e-3] and geometric panels, 40 a decade,
    from 1e-3 to t.
    """
    assert t > 1e-3
    edges = np.concatenate(([0.0], np.geomspace(1e-3, t, 1 + math.ceil(40 * math.log10(t / 1e-3)))))
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    s = (mid + half * GAUSS_NODES).ravel()
    ratio = (np.asarray(profile.a_prime(s)) / np.asarray(profile.a(s))).reshape(mid.shape[0], -1)
    quad = float(np.sum(half[:, 0] * (ratio @ GAUSS_WEIGHTS)))
    return math.log(float(profile.a(t)) / profile.a0), quad


def crosschecked_log_ratio(profile, t):
    w, quad = log_ratio_and_quadrature(profile, t)
    assert abs(w - quad) <= LOG_RATIO_TOL * (1.0 + abs(w)), (w, quad)
    return w


def test_log_ratio_constant_is_zero():
    assert crosschecked_log_ratio(get_profile("const:2"), 17.0) == pytest.approx(0.0, abs=1e-12)


def test_log_ratio_example1_approaches_log_two():
    w = crosschecked_log_ratio(get_profile("example1"), 1e6)
    assert w == pytest.approx(math.log(2.0), abs=1e-5)


def test_log_ratio_example2a_closed_form():
    w = crosschecked_log_ratio(get_profile("example2a"), 1.0)
    assert w == pytest.approx(math.log((1.0 + math.exp(-1.0)) / 2.0), abs=1e-10)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
def test_log_ratio_crosscheck_passes_for_builtins(name, t):
    w = crosschecked_log_ratio(get_profile(name), t)
    assert math.isfinite(w)


def test_inconsistent_pair_fails_crosscheck():
    # a' = 2 is not the derivative of a = 1 + t: log 4 against 2 log 4
    prof = formula_profile("mismatched", lambda t: 1.0 + t, lambda t: np.full_like(t, 2.0))
    w, quad = log_ratio_and_quadrature(prof, 3.0)
    assert w == pytest.approx(math.log(4.0), abs=1e-12)
    assert quad == pytest.approx(2.0 * math.log(4.0), rel=1e-10)


def test_total_variation_constant():
    assert total_variation(get_profile("const:3"), 40.0) == pytest.approx(0.0, abs=1e-10)


def test_total_variation_example2a_full_decay():
    assert total_variation(get_profile("example2a"), 50.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("name", ["example1", "example2a", "example2b"])
def test_total_variation_monotone_equals_endpoint_gap(name):
    prof = get_profile(name)
    T = 37.5
    gap = abs(float(prof.a(T)) - float(prof.a(0.0)))
    assert total_variation(prof, T) == pytest.approx(gap, abs=1e-10)


def test_total_variation_example3_two_horizons():
    # pinned by the chunked quadrature itself (cross-checked at build time
    # against a dense composite rule): the mass on [100, 200] is about 3.1e-3
    prof = get_profile("example3")
    tv100 = total_variation(prof, 100.0)
    tv200 = total_variation(prof, 200.0)
    assert tv100 == pytest.approx(0.592024657965, abs=1e-9)
    assert tv200 - tv100 == pytest.approx(3.1475e-3, abs=1e-6)


# float.hex(total_variation(profile, 4 t_end)) for the end times of the
# acceptance suite, the README and the benchmark (the classification horizon
# is 4 t_end), recorded with the earlier general-purpose quadrature module
TV_END_TIMES = (3, 5, 10, 20, 50, 100, 200)
TV_PINNED = {
    "const:1": ("0x0.0p+0",) * 7,
    "example1": (
        "0x1.d7100fbf668c2p-1", "0x1.e7078b0a7255cp-1", "0x1.f35bd21f40c1bp-1",
        "0x1.f9a3cc26c0ff3p-1", "0x1.fd7246927d341p-1", "0x1.feb8bab0b5ca1p-1",
        "0x1.ff5c4329d9ea2p-1",
    ),
    "example2a": (
        "0x1.ffff31d59e2e5p-1", "0x1.ffffffee4be3cp-1", "0x1.000000000015ep+0",
        "0x1.0000000000084p+0", "0x1.0000000000031p+0", "0x1.000000000002bp+0",
        "0x1.0000000000011p+0",
    ),
    "example2b": (
        "0x1.d89d89d89d8fdp-1", "0x1.e79e79e79e80ep-1", "0x1.f3831f3831fc4p-1",
        "0x1.f9add3c0ca49dp-1", "0x1.fd73e68701470p-1", "0x1.feb9231cba6a6p-1",
        "0x1.ff5c5d52c6cadp-1",
    ),
    "example3": (
        "0x1.18b8712f6163cp-1", "0x1.22ff6a6bed996p-1", "0x1.2a55f956f5c86p-1",
        "0x1.2e5501b31f8cdp-1", "0x1.30ba689684909p-1", "0x1.318a465d5ecdfp-1",
        "0x1.31f1fc40b8211p-1",
    ),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_total_variation_is_pinned_bit_for_bit(name):
    prof = get_profile(name)
    got = tuple(float.hex(total_variation(prof, 4.0 * t_end)) for t_end in TV_END_TIMES)
    assert got == TV_PINNED[name]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
def test_total_variation_is_consistent_with_the_speed(name, t):
    # the variation bounds the net change of a, with equality for a monotone
    # speed; an inconsistent (a, a') pair breaks one or the other
    prof = get_profile(name)
    gap = abs(float(prof.a(t)) - float(prof.a(0.0)))
    tv = total_variation(prof, t)
    assert tv >= gap - 1e-10
    if name != "example3":
        assert tv == pytest.approx(gap, abs=1e-10)


def test_total_variation_of_non_finite_derivative_raises_with_achieved_estimate():
    prof = formula_profile("broken", np.ones_like, lambda t: np.where(t > 2.0, np.nan, 0.0))
    with pytest.raises(AccuracyError) as info:
        total_variation(prof, 5.0)
    assert info.value.achieved is not None and math.isnan(info.value.achieved)


def test_tail_estimates_shrink_with_horizon():
    for name in BUILTIN_NAMES:
        prof = get_profile(name)
        assert tv_tail_estimate(prof, 400.0) <= tv_tail_estimate(prof, 100.0) + 1e-12


def test_example3_tail_hint_is_summable_envelope():
    prof = get_profile("example3")
    # envelope integral of |a'| from T
    assert tv_tail_estimate(prof, 100.0) == pytest.approx(1 / 101 + 1 / 101**2, rel=1e-12)
