"""Time-dependent wave-speed profiles and their classification.

A profile is the pair (a(t), a'(t)) with an analytic bound on the tail of the
accumulated variation and optional analytic hints for the supremum and the
infimum. Profiles are immutable after construction and safe to share between
workers.

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

SIGN_TIE_TOL = 1e-13
CLASSIFY_SAMPLES = 4096
# absolute tolerance of the variation quadrature, split evenly across chunks
QUAD_TOL = 1e-10
# longest chunk the variation quadrature adapts over, and the most chunks
CHUNK_LENGTH = 1.0
MAX_CHUNKS = 4096
MAX_DEPTH = 60


@dataclass(frozen=True)
class CoefficientProfile:
    """Wave-speed profile a(t) with its derivative and analytic hints."""

    name: str
    a: Callable
    a_prime: Callable
    # T -> upper bound on the |a'| mass beyond T
    tv_tail_hint: Callable
    a_max_hint: Optional[float] = None
    a_inf_hint: Optional[float] = None

    def __post_init__(self):
        self.sample_a(np.concatenate(([0.0], np.geomspace(1e-6, 1000.0, 255))))

    def sample_a(self, t: np.ndarray) -> np.ndarray:
        """a at the times ``t``; Profile- or PositivityError names a bad t."""
        vals = np.asarray(self.a(t), dtype=float)
        if not np.all(np.isfinite(vals)):
            bad = t[~np.isfinite(vals)][0]
            raise ProfileError(f"profile {self.name!r}: a(t) not finite at t={bad}")
        if np.any(vals <= 0.0):
            k = int(np.argmax(vals <= 0.0))
            raise PositivityError(f"profile {self.name!r}: a(t) <= 0 at t={t[k]} (a={vals[k]})")
        return vals

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


def classify(profile: CoefficientProfile, horizon: float) -> AssumptionFlags:
    """Classify a profile by dense sampling of a and a' on [0, horizon].

    Sup and inf combine the ``CLASSIFY_SAMPLES`` sampled extrema with the
    profile's analytic hints; the accumulated variation is the quadrature of
    |a'| up to the horizon.
    """
    if horizon <= 0.0:
        raise ValueError(f"classification horizon must be positive, got {horizon}")
    t = np.linspace(0.0, horizon, CLASSIFY_SAMPLES)
    a_vals = profile.sample_a(t)
    ap_vals = np.asarray(profile.a_prime(t), dtype=float)
    if not np.all(np.isfinite(ap_vals)):
        bad = t[~np.isfinite(ap_vals)][0]
        raise ProfileError(f"profile {profile.name!r}: a'(t) not finite at t={bad}")

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


def total_variation(profile: CoefficientProfile, T: float) -> float:
    """Quadrature of |a'| over [0, T] to absolute tolerance ``QUAD_TOL``.

    Chunked adaptive Simpson: |a'| may oscillate and has kinks at sign
    changes, which a single adaptive pass over a long interval can alias, so
    [0, T] is first split into chunks no longer than ``CHUNK_LENGTH`` and the
    tolerance is divided across them. Raises :class:`AccuracyError`, with the
    estimate attached, when some piece still disagrees at ``MAX_DEPTH``
    bisections or the result is not finite.
    """
    if T <= 0.0:
        raise ValueError(f"horizon must be positive, got {T}")

    def f(s):
        return abs(float(profile.a_prime(s)))

    n = min(max(1, math.ceil(T / CHUNK_LENGTH)), MAX_CHUNKS)
    edges = [T * k / n for k in range(n + 1)]
    total = 0.0
    converged = True
    for lo, hi in zip(edges[:-1], edges[1:]):
        subtotal, chunk_converged = _adaptive_simpson(f, lo, hi, QUAD_TOL / n)
        total += subtotal
        converged = converged and chunk_converged
    if not (converged and math.isfinite(total)):
        raise AccuracyError(
            f"profile {profile.name!r}: variation on [0, {T}] did not converge "
            f"to tol={QUAD_TOL} (estimate {total})",
            achieved=total,
        )
    return total


def _adaptive_simpson(f, a, b, tol):
    """Adaptive Simpson of ``f`` over [a, b]: (estimate, converged)."""
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    total = 0.0
    converged = True
    # (a, b, fa, fm, fb, Simpson estimate on [a, b], local tol, depth); the
    # right half is pushed last, so it is summed first
    stack = [(a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)]
    while stack:
        a0, b0, fa0, fm0, fb0, s0, tol0, depth = stack.pop()
        m0 = 0.5 * (a0 + b0)
        flm, frm = f(0.5 * (a0 + m0)), f(0.5 * (m0 + b0))
        s_left = (m0 - a0) / 6.0 * (fa0 + 4.0 * flm + fm0)
        s_right = (b0 - m0) / 6.0 * (fm0 + 4.0 * frm + fb0)
        delta = s_left + s_right - s0
        # converged, or too narrow to bisect further in floating point
        done = abs(delta) <= 15.0 * tol0 or (b0 - a0) <= 1e-15 * (abs(a0) + abs(b0) + 1.0)
        # a non-finite sample never converges: stop instead of bisecting
        # every piece down to MAX_DEPTH
        if done or depth >= MAX_DEPTH or not math.isfinite(delta):
            total += s_left + s_right + delta / 15.0
            converged = converged and done
        else:
            stack.append((a0, m0, fa0, flm, fm0, s_left, 0.5 * tol0, depth + 1))
            stack.append((m0, b0, fm0, frm, fb0, s_right, 0.5 * tol0, depth + 1))
    return total, converged


def tv_tail_estimate(profile: CoefficientProfile, T: float) -> float:
    """The profile's analytic bound on the |a'| mass beyond T."""
    return float(profile.tv_tail_hint(T))


# ---------------------------------------------------------------------------
# built-in profiles
# ---------------------------------------------------------------------------


def constant_profile(value: float) -> CoefficientProfile:
    # a NaN or infinite value fails one of the comparisons
    if not (value > 0.0 and 0.0 < value * value < math.inf):
        raise PositivityError(
            f"constant speed must be positive with a finite nonzero square, got {value}"
        )

    def a(t):
        return np.full_like(t, value, dtype=float)

    def a_prime(t):
        return np.zeros_like(t, dtype=float)

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
        arr = np.asarray(t, dtype=float)
        out = np.ones_like(arr)
        m = arr > 0.0
        with np.errstate(divide="ignore", over="ignore"):
            out[m] = 1.0 + np.exp(-1.0 / arr[m])
        return out

    def a_prime(t):
        arr = np.asarray(t, dtype=float)
        out = np.zeros_like(arr)
        m = arr > 0.0
        tm = arr[m]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            e = np.exp(-1.0 / tm)
            out[m] = np.where(e > 0.0, e / (tm * tm), 0.0)
        return out

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
        return 1.0 + np.exp(-np.asarray(t, dtype=float))

    def a_prime(t):
        return -np.exp(-np.asarray(t, dtype=float))

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
        arr = np.asarray(t, dtype=float)
        return (2.0 + arr) / (1.0 + arr)

    def a_prime(t):
        return -1.0 / (1.0 + np.asarray(t, dtype=float)) ** 2

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
        arr = np.asarray(t, dtype=float)
        return 2.0 + np.sin(arr) / (1.0 + arr) ** 2

    def a_prime(t):
        arr = np.asarray(t, dtype=float)
        q = 1.0 + arr
        return np.cos(arr) / q**2 - 2.0 * np.sin(arr) / q**3

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
