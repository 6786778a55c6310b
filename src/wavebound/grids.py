"""Uniform grid description and grid-function helpers.

The grid is symmetric about x = 0 with an odd number of nodes so the origin
is a node. Node coordinates are built as integer multiples of the spacing,
which keeps the origin exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass
class GridSpec:
    """Uniform space-time grid for one run. Treat as immutable."""

    half_width: float
    n_points: int
    h: float
    dt: float
    cfl: float
    n_steps: int

    @cached_property
    def x(self) -> np.ndarray:
        mid = (self.n_points - 1) // 2
        return (np.arange(self.n_points) - mid) * self.h


def trapz_sq(f: np.ndarray, h: float) -> float:
    """Composite trapezoid of f^2 over the grid."""
    s = float(np.sum(f * f))
    return float(h * (s - 0.5 * f[0] * f[0] - 0.5 * f[-1] * f[-1]))


def snapshot_norms(u, v, u_t, v_t, h: float) -> list:
    """trapz_sq of u, D u, D v, D v - u, u_t and v_t, with no overflow warning.

    A snapshot's six squared norms: ``v`` is the antiderivative of ``u``,
    ``D`` the centered difference and ``u_t``, ``v_t`` the time derivatives.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        dv = centered_diff(v, h)
        return [trapz_sq(f, h) for f in (u, centered_diff(u, h), dv, dv - u, u_t, v_t)]


def trapz(f: np.ndarray, h: float) -> float:
    s = float(np.sum(f))
    return float(h * (s - 0.5 * f[0] - 0.5 * f[-1]))


def cumtrapz(f: np.ndarray, h: float) -> np.ndarray:
    """Cumulative trapezoid from the left grid edge; out[0] = 0."""
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(0.5 * h * (f[1:] + f[:-1]), out=out[1:])
    return out


def nonzero_extent(mask: np.ndarray):
    """The first and last index where ``mask`` is true, or (n, -1) when none is."""
    first = int(mask.argmax())
    if not mask[first]:
        return mask.size, -1
    return first, mask.size - 1 - int(mask[::-1].argmax())


def centered_diff(f: np.ndarray, h: float) -> np.ndarray:
    """Centered first difference at interior nodes, zero at the edges."""
    out = np.zeros_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    return out


def second_diff(f: np.ndarray, h: float) -> np.ndarray:
    """Centered second difference at interior nodes, zero at the edges."""
    out = np.zeros_like(f)
    out[1:-1] = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / (h * h)
    return out
