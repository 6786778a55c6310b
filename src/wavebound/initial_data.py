"""Compactly supported initial data and the moment / bound-constant report.

The built-in families are all based on the standard smooth bump

    psi(y) = exp(-1 / (1 - y^2))   for |y| < 1,   0 otherwise,

translated by ``shift`` and dilated by ``width``. Samplers return exact zeros
outside the stated support radius. ``get_data`` checks those parameters with
``config.check_data``, the rule an ``ExperimentConfig`` applies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from wavebound.config import check_data
from wavebound.errors import ConfigError, CoverageError
from wavebound.grids import GridSpec, cumtrapz, trapz, trapz_sq

# an exact moment below this (scaled) threshold counts as vanishing, in which
# case the velocity antiderivative is square integrable
MOMENT_TOL = 1e-10

# 1 - y^2 below this is treated as outside the bump: the true value there
# underflows to zero anyway and the guard keeps derivative formulas finite.
_EDGE = 1e-12


def bump(y):
    """The standard bump, vectorized, exactly zero for |y| >= 1."""
    arr = np.asarray(y, dtype=float)
    out = np.zeros_like(arr)
    q = 1.0 - arr * arr
    m = q > _EDGE
    out[m] = np.exp(-1.0 / q[m])
    return out if out.ndim else float(out)


def bump_prime(y):
    """Derivative of the bump with respect to y."""
    arr = np.asarray(y, dtype=float)
    out = np.zeros_like(arr)
    q = 1.0 - arr * arr
    m = q > _EDGE
    out[m] = np.exp(-1.0 / q[m]) * (-2.0 * arr[m]) / (q[m] * q[m])
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class InitialData:
    """Samplers for the initial displacement and velocity."""

    name: str
    u0: Callable
    u1: Callable
    support_radius: float
    # exact antiderivative of u1 when the family has one in closed form
    v1_exact: Optional[Callable] = None


@dataclass(frozen=True)
class MomentReport:
    """Zero-order moment of the velocity and the derived bound constant."""

    c0: float
    v1_in_L2: bool
    v1_l2_sq: float
    I0_sq: float


def _zero(x):
    arr = np.asarray(x, dtype=float)
    out = np.zeros_like(arr)
    return out if out.ndim else float(out)


def bound_constant(data: InitialData, a0: float, grid: GridSpec) -> MomentReport:
    """Assemble the moment, the antiderivative norm and the bound constant.

    Whether the moment vanishes is decided from its exact value
    (:func:`wavebound.oracles.moment`), which no grid can shift. The
    reported moment, norm and constant are trapezoids on the grid, the
    values the discrete solution obeys. When the moment does not vanish the
    antiderivative is not square integrable and both the norm and the
    constant are flagged infinite.
    """
    from wavebound.oracles import moment  # oracles imports this module

    if grid.half_width < data.support_radius:
        raise CoverageError(
            f"grid half-width {grid.half_width} does not cover the data "
            f"support radius {data.support_radius}"
        )
    u1 = np.asarray(data.u1(grid.x), dtype=float)
    c0 = trapz(u1, grid.h)
    tol = MOMENT_TOL * (1.0 + float(np.max(np.abs(u1))) * data.support_radius)
    if not abs(moment(data)) <= tol:
        return MomentReport(c0=c0, v1_in_L2=False, v1_l2_sq=math.inf, I0_sq=math.inf)
    v1_sq = trapz_sq(cumtrapz(u1, grid.h), grid.h)
    u0 = np.asarray(data.u0(grid.x), dtype=float)
    i0_sq = v1_sq + a0 * a0 * trapz_sq(u0, grid.h)
    return MomentReport(c0=c0, v1_in_L2=True, v1_l2_sq=v1_sq, I0_sq=i0_sq)


# ---------------------------------------------------------------------------
# built-in data families
# ---------------------------------------------------------------------------


def _family(name, shift, width, u0, u1, v1_exact=None):
    return InitialData(
        name=name,
        u0=u0,
        u1=u1,
        support_radius=abs(shift) + width,
        v1_exact=v1_exact,
    )


def bump_data(scale=1.0, shift=0.0, width=1.0) -> InitialData:
    """Displacement bump at rest: u0 = s psi(y), u1 = 0."""

    def u0(x):
        return scale * bump((np.asarray(x, dtype=float) - shift) / width)

    return _family("bump", shift, width, u0, _zero, v1_exact=_zero)


def bump_velocity_data(scale=1.0, shift=0.0, width=1.0) -> InitialData:
    """Pure velocity bump, nonvanishing moment: u0 = 0, u1 = s psi(y)."""

    def u1(x):
        return scale * bump((np.asarray(x, dtype=float) - shift) / width)

    return _family("bump-velocity", shift, width, _zero, u1)


def odd_velocity_data(scale=1.0, shift=0.0, width=1.0) -> InitialData:
    """Odd velocity, vanishing moment: u0 = 0, u1 = s y psi(y)."""

    def u1(x):
        y = (np.asarray(x, dtype=float) - shift) / width
        return scale * y * bump(y)

    return _family("odd-velocity", shift, width, _zero, u1)


def derivative_velocity_data(scale=1.0, shift=0.0, width=1.0) -> InitialData:
    """Velocity that is an exact derivative: u1 = s (psi(y))', v1 = s psi(y)."""

    def u1(x):
        y = (np.asarray(x, dtype=float) - shift) / width
        return (scale / width) * bump_prime(y)

    def v1(x):
        y = (np.asarray(x, dtype=float) - shift) / width
        return scale * bump(y)

    return _family("derivative-velocity", shift, width, _zero, u1, v1_exact=v1)


_FAMILIES = {
    "bump": bump_data,
    "bump-velocity": bump_velocity_data,
    "odd-velocity": odd_velocity_data,
    "derivative-velocity": derivative_velocity_data,
}


def get_data(name: str, scale=1.0, shift=0.0, width=1.0) -> InitialData:
    key = name.strip().lower()
    if key not in _FAMILIES:
        known = ", ".join(sorted(_FAMILIES))
        raise ConfigError(f"unknown data family {name!r}; known: {known}")
    check_data(scale, shift, width)
    return _FAMILIES[key](scale=scale, shift=shift, width=width)
