"""Accuracy of the chunked adaptive Simpson rule inside total_variation.

The variation is the integral of |a'|, so each case is a profile whose
derivative is the integrand under test.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import depth_first_variation, formula_profile
from wavebound.coefficients import MAX_DEPTH, get_profile, total_variation
from wavebound.errors import AccuracyError


def test_exact_on_cubic():
    # Simpson's rule is exact for cubics
    prof = formula_profile("quartic", lambda t: 1.0 + 0.25 * t**4, lambda t: t**3)
    assert total_variation(prof, 1.0) == pytest.approx(0.25, abs=1e-14)


def test_sine_half_period():
    prof = formula_profile("rising", lambda t: 2.0 - np.cos(t), np.sin)
    assert total_variation(prof, math.pi) == pytest.approx(2.0, abs=1e-10)


def test_chunked_handles_oscillatory_absolute_value():
    # |a'| = |cos| over [0, 16 pi] is exactly 32; a single adaptive pass can
    # alias on this integrand, the chunked quadrature must not
    prof = formula_profile("wobble", lambda t: 2.0 + np.sin(t), np.cos)
    assert total_variation(prof, 16.0 * math.pi) == pytest.approx(32.0, abs=1e-8)


def test_depth_cap_raises_with_achieved_estimate():
    # a' jumps at t = 0.3; on a horizon this long the first chunk is about
    # 2.4e4 wide, so 60 bisections stop short of the floating-point width
    # floor and the jump never meets the halving tolerance
    prof = formula_profile(
        "kinked", lambda t: 1.0 + np.minimum(t, 0.3), lambda t: np.where(t < 0.3, 1.0, 0.0)
    )
    with pytest.raises(AccuracyError) as info:
        total_variation(prof, 1e8)
    assert info.value.achieved == pytest.approx(0.3, abs=1e-9)


@given(
    a0=st.floats(2.0, 5.0, allow_nan=False),
    slope=st.floats(-1e-3, 5.0, allow_nan=False),
    T=st.floats(0.1, 50.0, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_linear_integrands_are_exact(a0, slope, T):
    prof = formula_profile("linear", lambda t: a0 + slope * t, lambda t: np.full_like(t, slope))
    exact = abs(slope) * T
    assert total_variation(prof, T) == pytest.approx(exact, abs=1e-9 * (1 + exact))


def _integrand(kind, c, d, t0):
    """a' of one drawn family: ``c`` and ``d`` scale it, ``t0`` places its break."""
    if kind == "linear":
        return lambda t: c + d * t
    if kind == "cos":
        return lambda t: c * np.cos(d * t)
    if kind == "jump":
        return lambda t: np.where(t < t0, c, d)
    bad = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[kind]
    return lambda t: np.where(t > t0, bad, c)


@given(
    kind=st.sampled_from(["linear", "cos", "jump", "nan", "inf", "-inf"]),
    c=st.floats(-3.0, 3.0),
    d=st.floats(-3.0, 3.0),
    share=st.floats(0.0, 1.0),
    T=st.floats(0.1, 800.0),
)
@settings(max_examples=60, deadline=None)
def test_total_variation_matches_the_depth_first_oracle_bit_for_bit(kind, c, d, share, T):
    prof = formula_profile(kind, np.ones_like, _integrand(kind, c, d, share * T))
    expected, converged = depth_first_variation(prof, T)
    if converged and math.isfinite(expected):
        assert float.hex(total_variation(prof, T)) == float.hex(expected)
    else:
        with pytest.raises(AccuracyError) as info:
            total_variation(prof, T)
        assert float.hex(info.value.achieved) == float.hex(expected)


def test_one_array_call_of_a_prime_per_depth():
    # the depth-first scalar quadrature made about 28,000 calls here
    prof = get_profile("example3")
    calls = []

    def counted(t):
        calls.append(t)
        return prof.a_prime(t)

    total_variation(dataclasses.replace(prof, a_prime=counted), 400.0)
    assert 0 < len(calls) <= MAX_DEPTH + 2
    assert all(isinstance(t, np.ndarray) and t.ndim == 1 for t in calls)
