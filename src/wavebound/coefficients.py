"""Time-dependent wave-speed profiles and their classification.

A profile is the pair (a(t), a'(t)) with optional analytic hints for the
supremum, the infimum and the tail of the accumulated variation. Profiles are
immutable after construction and safe to share between workers.

Classification is sampling based over a finite horizon. The flags answer four
questions about the speed on the probed window:

* positivity with a finite supremum,
* nondecreasing speed,
* nonincreasing speed with a positive floor,
* positive floor with integrable speed variation.

A constant speed satisfies all four; the sign checks treat derivatives below
a relative tie tolerance as both nonnegative and nonpositive so that constants
classify under both monotone regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from wavebound.errors import AccuracyError, PositivityError, ProfileError
from wavebound.quadrature import adaptive_simpson_chunked

SIGN_TIE_TOL = 1e-13
W_CROSSCHECK_TOL = 1e-8
QUAD_TOL = 1e-10
DEFAULT_CLASSIFY_SAMPLES = 4096


@dataclass(frozen=True)
class CoefficientProfile:
    """Wave-speed profile a(t) with its derivative and analytic hints."""

    name: str
    a: Callable
    a_prime: Callable
    a_max_hint: Optional[float] = None
    a_inf_hint: Optional[float] = None
    tv_tail_hint: Optional[Callable] = None

    def __post_init__(self):
        probe = np.concatenate(([0.0], np.geomspace(1e-6, 1000.0, 255)))
        vals = np.asarray(self.a(probe), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = probe[~np.isfinite(vals)][0]
            raise ProfileError(f"profile {self.name!r}: a(t) not finite at t={bad}")
        if np.any(vals <= 0.0):
            bad = probe[vals <= 0.0][0]
            raise PositivityError(
                f"profile {self.name!r}: a(t) <= 0 at t={bad} (a={vals[probe == bad][0]})"
            )

    @property
    def a0(self) -> float:
        return float(self.a(0.0))


@dataclass(frozen=True)
class AssumptionFlags:
    """Result of classifying a profile on a finite horizon."""

    a1_holds: bool
    a2_holds: bool
    a3_holds: bool
    a4_holds: bool
    a_m: float
    A0: float
    tv_total: float


def evaluate(profile: CoefficientProfile, t: float):
    """Return (a(t), a'(t)) as floats, rejecting non-finite values."""
    if t < 0.0:
        raise ProfileError(f"profile {profile.name!r}: t={t} is negative")
    a_t = float(profile.a(t))
    ap_t = float(profile.a_prime(t))
    if not (math.isfinite(a_t) and math.isfinite(ap_t)):
        raise ProfileError(
            f"profile {profile.name!r}: non-finite evaluation at t={t} "
            f"(a={a_t}, a'={ap_t})"
        )
    return a_t, ap_t


def classify(
    profile: CoefficientProfile,
    horizon: float,
    samples: int = DEFAULT_CLASSIFY_SAMPLES,
) -> AssumptionFlags:
    """Classify a profile by dense sampling of a and a' on [0, horizon].

    Sup and inf combine the sampled extrema with the profile's analytic hints;
    the accumulated variation is the quadrature of |a'| up to the horizon.
    """
    if horizon <= 0.0:
        raise ValueError(f"classification horizon must be positive, got {horizon}")
    if samples < 16:
        raise ValueError(f"need at least 16 samples, got {samples}")
    t = np.linspace(0.0, horizon, samples)
    a_vals = np.asarray(profile.a(t), dtype=float)
    ap_vals = np.asarray(profile.a_prime(t), dtype=float)
    if not (np.all(np.isfinite(a_vals)) and np.all(np.isfinite(ap_vals))):
        bad = t[~(np.isfinite(a_vals) & np.isfinite(ap_vals))][0]
        raise ProfileError(f"profile {profile.name!r}: non-finite sample at t={bad}")
    if np.any(a_vals <= 0.0):
        bad = t[a_vals <= 0.0][0]
        raise PositivityError(f"profile {profile.name!r}: a(t) <= 0 at t={bad}")

    a_m = float(a_vals.max())
    if profile.a_max_hint is not None:
        a_m = max(a_m, profile.a_max_hint)
    a_inf = float(a_vals.min())
    if profile.a_inf_hint is not None:
        a_inf = min(a_inf, profile.a_inf_hint)

    tie = SIGN_TIE_TOL * np.maximum(1.0, a_vals)
    nonneg = bool(np.all(ap_vals >= -tie))
    nonpos = bool(np.all(ap_vals <= tie))

    tv = total_variation(profile, horizon)

    a1 = math.isfinite(a_m) and a_m > 0.0
    a2 = nonneg
    a3 = nonpos and a_inf > 0.0
    a4 = a_inf > 0.0 and math.isfinite(tv)
    return AssumptionFlags(
        a1_holds=a1,
        a2_holds=a2,
        a3_holds=a3,
        a4_holds=a4,
        a_m=a_m,
        A0=a_inf,
        tv_total=tv,
    )


def w_log_ratio(profile: CoefficientProfile, t: float) -> float:
    """Integrated logarithmic derivative, log(a(t) / a(0)).

    The closed form is cross-checked against adaptive quadrature of a'/a,
    which catches inconsistent (a, a') pairs.
    """
    a_t, _ = evaluate(profile, t)
    a_0 = profile.a0
    w = math.log(a_t / a_0)
    if t > 0.0:
        quad = adaptive_simpson_chunked(
            lambda s: float(profile.a_prime(s)) / float(profile.a(s)), 0.0, t
        )
        if abs(w - quad) > W_CROSSCHECK_TOL * (1.0 + abs(w)):
            raise ProfileError(
                f"profile {profile.name!r}: log-ratio {w} disagrees with "
                f"quadrature of a'/a ({quad}) at t={t}; a and a' are inconsistent"
            )
    return w


def total_variation(profile: CoefficientProfile, T: float, tol: float = QUAD_TOL) -> float:
    """Quadrature of |a'| over [0, T].

    Chunked adaptive Simpson: |a'| may oscillate and has kinks at sign
    changes, which a single adaptive pass over a long interval can alias.
    """
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {T}")
    return adaptive_simpson_chunked(
        lambda s: abs(float(profile.a_prime(s))), 0.0, T, tol=tol
    )


def tv_tail_estimate(profile: CoefficientProfile, T: float) -> float:
    """Estimate of the |a'| mass beyond T.

    Uses the profile's analytic tail hint when present, otherwise a two-horizon
    probe: the mass accumulated on [T, 2T], doubled as a crude safety factor.
    """
    if profile.tv_tail_hint is not None:
        return float(profile.tv_tail_hint(T))
    try:
        gained = total_variation(profile, 2.0 * T) - total_variation(profile, T)
    except AccuracyError as exc:
        gained = exc.achieved if exc.achieved is not None else math.inf
    return max(2.0 * gained, 0.0)


# ---------------------------------------------------------------------------
# built-in profiles
# ---------------------------------------------------------------------------


def _as_float_array(t):
    return np.asarray(t, dtype=float)


def _scalar_like(t, values):
    arr = np.asarray(values)
    return arr if arr.ndim else float(arr)


def constant_profile(value: float) -> CoefficientProfile:
    if not (math.isfinite(value) and value > 0.0):
        raise PositivityError(f"constant speed must be positive, got {value}")

    def a(t):
        return _scalar_like(t, np.full_like(_as_float_array(t), value))

    def a_prime(t):
        return _scalar_like(t, np.zeros_like(_as_float_array(t)))

    return CoefficientProfile(
        name=f"const:{value:g}",
        a=a,
        a_prime=a_prime,
        a_max_hint=value,
        a_inf_hint=value,
        tv_tail_hint=lambda T: 0.0,
    )


def example1_profile() -> CoefficientProfile:
    """Smoothly rising speed 1 + exp(-1/t), equal to 1 at t = 0.

    The origin is a removable singularity: both the value and the one-sided
    derivative limit are finite (1 and 0).
    """

    def a(t):
        arr = _as_float_array(t)
        out = np.ones_like(arr)
        m = arr > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            out[m] = 1.0 + np.exp(-1.0 / arr[m])
        return _scalar_like(t, out)

    def a_prime(t):
        arr = _as_float_array(t)
        out = np.zeros_like(arr)
        m = arr > 0.0
        tm = arr[m]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            e = np.exp(-1.0 / tm)
            out[m] = np.where(e > 0.0, e / (tm * tm), 0.0)
        return _scalar_like(t, out)

    return CoefficientProfile(
        name="example1",
        a=a,
        a_prime=a_prime,
        a_max_hint=2.0,
        a_inf_hint=1.0,
        # speed still to gain beyond T: 2 - a(T)
        tv_tail_hint=lambda T: 1.0 - math.exp(-1.0 / T) if T > 0 else 1.0,
    )


def example2a_profile() -> CoefficientProfile:
    """Exponentially decaying speed 1 + exp(-t)."""

    def a(t):
        return _scalar_like(t, 1.0 + np.exp(-_as_float_array(t)))

    def a_prime(t):
        return _scalar_like(t, -np.exp(-_as_float_array(t)))

    return CoefficientProfile(
        name="example2a",
        a=a,
        a_prime=a_prime,
        a_max_hint=2.0,
        a_inf_hint=1.0,
        tv_tail_hint=lambda T: math.exp(-T),
    )


def example2b_profile() -> CoefficientProfile:
    """Rational decaying speed (2 + t) / (1 + t)."""

    def a(t):
        arr = _as_float_array(t)
        return _scalar_like(t, (2.0 + arr) / (1.0 + arr))

    def a_prime(t):
        arr = _as_float_array(t)
        return _scalar_like(t, -1.0 / (1.0 + arr) ** 2)

    return CoefficientProfile(
        name="example2b",
        a=a,
        a_prime=a_prime,
        a_max_hint=2.0,
        a_inf_hint=1.0,
        tv_tail_hint=lambda T: 1.0 / (1.0 + T),
    )


def example3_profile() -> CoefficientProfile:
    """Oscillating speed 2 + sin(t) / (1 + t)^2 with summable variation."""

    def a(t):
        arr = _as_float_array(t)
        return _scalar_like(t, 2.0 + np.sin(arr) / (1.0 + arr) ** 2)

    def a_prime(t):
        arr = _as_float_array(t)
        q = 1.0 + arr
        return _scalar_like(t, np.cos(arr) / q**2 - 2.0 * np.sin(arr) / q**3)

    return CoefficientProfile(
        name="example3",
        a=a,
        a_prime=a_prime,
        # |a'| <= (1+t)^-2 + 2 (1+t)^-3, integrated from T
        tv_tail_hint=lambda T: 1.0 / (1.0 + T) + 1.0 / (1.0 + T) ** 2,
    )


_BUILTINS = {
    "example1": example1_profile,
    "example2a": example2a_profile,
    "example2b": example2b_profile,
    "example3": example3_profile,
}


def get_profile(name: str) -> CoefficientProfile:
    """Resolve a profile expression: a built-in name or ``const:<value>``."""
    key = name.strip().lower()
    if key.startswith("const:"):
        try:
            value = float(key.split(":", 1)[1])
        except ValueError:
            raise ProfileError(f"bad constant profile expression {name!r}") from None
        return constant_profile(value)
    try:
        return _BUILTINS[key]()
    except KeyError:
        known = ", ".join(sorted(_BUILTINS) + ["const:<value>"])
        raise ProfileError(f"unknown profile {name!r}; known: {known}") from None
