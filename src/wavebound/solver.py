"""Explicit three-level stepping for u_tt = a(t)^2 u_xx on a truncated line.

The scheme is the classic leapfrog stencil with the speed frozen at the
current time level of each step. The domain is sized so the discrete
propagation cone (one cell per step) never reaches the truncated boundary,
which makes the homogeneous edge values exactly inert for compactly
supported data: the field stays machine-zero outside the cone.

Every experiment goes through one pipeline. A config is checked when it
is built, by the rules in ``config.py`` that ``init_grid`` also applies.
``_resolve`` turns it into the profile, the data, the grid, the sampled
initial levels and the squared Courant factors; ``first_step`` makes the
Taylor start; ``advance`` steps the field and names the first step that
left it non-finite. ``run`` adds the snapshot diagnostics and
``evolve_final`` returns only the field at t_end.

A snapshot carries three consecutive levels so time derivatives can be
centered, plus the antiderivative field of each level by cumulative
trapezoid. Each field level is stepped once and integrated at most once:
the level after a snapshot is the next step proper, its antiderivative
comes out of the snapshot's kernel pass, and the run keeps the two latest
antiderivatives by level for the next snapshot. The final snapshot steps
once past t_end, checked like every other step. The kernel never writes
into the levels it is given, so no level is copied before a step. An
optional cross-check also evolves the antiderivative field with the same
stencil from its own initial data and compares.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import NamedTuple, Optional

import numpy as np

from wavebound import analysis
from wavebound.coefficients import CoefficientProfile, get_profile
from wavebound.config import ExperimentConfig, check_grid
from wavebound.errors import BlowUpError, CapacityError, ConfigError
from wavebound.grids import GridSpec, cumtrapz, second_diff, trapz, trapz_sq
from wavebound.initial_data import InitialData, get_data
from wavebound.kernels import advance_steps

# extra cells between the cone after the final step and the boundary
_CONE_PAD = 2

# speed samples on [0, t_end] for the grid's supremum speed
_SUP_SAMPLES = 4096

# fewest grid cells across the data width: narrower data is under-resolved,
# and the discrete norm overshoots the continuum bounds by up to 7%
MIN_DATA_CELLS = 4


def init_grid(
    data: InitialData,
    profile: CoefficientProfile,
    t_end: float,
    cfl: float = 0.9,
    n_points: int = 4001,
) -> GridSpec:
    """Size the grid so the numerical cone stays inside the domain.

    The discrete stencil propagates one cell per step, i.e. at speed h/dt,
    which exceeds the physical speed by the factor 1/cfl. Containment uses
    that rate, so the requirement of support plus physical cone plus margin
    is satisfied with room to spare. The settings must pass
    ``config.check_grid`` and the speed must be finite and positive.
    """
    check_grid(t_end, cfl, n_points)
    a_sup = float(np.max(profile.sample_a(np.linspace(0.0, max(t_end, 1e-9), _SUP_SAMPLES))))
    base = data.support_radius + (a_sup / cfl) * t_end
    h_est = 2.0 * base / (n_points - 1)
    half_width = base + 6.0 * h_est
    h = 2.0 * half_width / (n_points - 1)
    if t_end > 0.0:
        dt0 = cfl * h / a_sup
        n_steps = max(1, math.ceil(t_end / dt0 - 1e-12))
        dt = t_end / n_steps
    else:
        n_steps = 0
        dt = cfl * h / a_sup
    grid = GridSpec(
        half_width=half_width,
        n_points=n_points,
        h=h,
        dt=dt,
        cfl=a_sup * dt / h,
        n_steps=n_steps,
    )
    # exact containment: one extra step is taken past t_end for centered
    # time differences at the final snapshot
    needed = data.support_radius + (n_steps + 1 + _CONE_PAD) * h
    if half_width < needed:
        raise CapacityError(
            f"internal sizing failure: half_width {half_width} < {needed}"
        )
    return grid


class _Experiment(NamedTuple):
    """A config resolved once: everything the stepping needs."""

    profile: CoefficientProfile
    data: InitialData
    grid: GridSpec
    u0: np.ndarray
    u1: np.ndarray
    # squared Courant factor frozen at each level 0..n_steps
    lam2: np.ndarray


def _resolve(config: ExperimentConfig) -> _Experiment:
    """Build a config's profile, data, grid and Courant factors.

    The factors cover levels 0..n_steps: the final snapshot takes one extra
    step past t_end for its centered time derivative.
    """
    profile = get_profile(config.profile)
    data = get_data(
        config.data,
        scale=config.data_scale,
        shift=config.data_shift,
        width=config.data_width,
    )
    grid = init_grid(data, profile, config.t_end, cfl=config.cfl, n_points=config.n_points)
    if config.data_width < MIN_DATA_CELLS * grid.h:
        raise ConfigError(
            f"data_width {config.data_width} spans {config.data_width / grid.h:.3g} "
            f"grid cells, fewer than {MIN_DATA_CELLS}: raise n_points or the width"
        )
    t_levels = np.arange(grid.n_steps + 1) * grid.dt
    a_levels = profile.sample_a(t_levels)
    return _Experiment(
        profile=profile,
        data=data,
        grid=grid,
        u0=np.asarray(data.u0(grid.x), dtype=float),
        u1=np.asarray(data.u1(grid.x), dtype=float),
        lam2=(a_levels * grid.dt / grid.h) ** 2,
    )


def first_step(f0: np.ndarray, f1: np.ndarray, a0: float, grid: GridSpec) -> np.ndarray:
    """Second-order Taylor start: the level at t = dt from (f0, f1), zero edges."""
    f_next = f0 + grid.dt * f1 + 0.5 * grid.dt**2 * a0 * a0 * second_diff(f0, grid.h)
    f_next[0] = 0.0
    f_next[-1] = 0.0
    return f_next


def advance(u_prev: np.ndarray, u_curr: np.ndarray, lam2: np.ndarray, level: int):
    """Advance len(lam2) steps from ``level``; return the new (previous, current).

    The kernel leaves the inputs unchanged and does not warn on overflow. A
    non-finite result is replayed one step at a time, and BlowUpError names
    the first level that is not finite.
    """
    new_prev, new_curr = advance_steps(u_prev, u_curr, lam2)
    if np.all(np.isfinite(new_curr)) and np.all(np.isfinite(new_prev)):
        return new_prev, new_curr
    bad = level + len(lam2)
    a, b = u_prev, u_curr
    for k in range(len(lam2)):
        a, b = advance_steps(a, b, lam2[k : k + 1])
        if not np.all(np.isfinite(b)):
            bad = level + k + 1
            break
    raise BlowUpError(
        f"non-finite field at step {bad}; check the CFL number and the profile",
        step_index=bad,
    )


def _snapshot_levels(n_steps: int, snapshots: int) -> np.ndarray:
    count = max(2, min(snapshots, n_steps + 1))
    return np.unique(np.rint(np.linspace(0, n_steps, count)).astype(int))


def run(
    config: ExperimentConfig,
    *,
    archive_path: Optional[str] = None,
    dual_v_check: bool = False,
) -> "analysis.DiagnosticSeries":
    """Run one experiment and collect the diagnostic series.

    At each snapshot level the three surrounding field levels and their
    antiderivatives (cumulative trapezoids) are used for centered time
    differences, and the cone containment is verified to be machine-exact.
    The step to the level after a snapshot is the next step proper, and a
    snapshot one or two levels later reuses the antiderivatives already
    taken. Identical configs produce bit-identical series.
    """
    profile, data, grid, u0, u1, lam2 = _resolve(config)

    with (
        open(archive_path, "w", encoding="utf-8") if archive_path else nullcontext()
    ) as archive:
        series = analysis.DiagnosticSeries(
            records=[], profile=profile, data=data, grid=grid
        )
        v0 = cumtrapz(u0, grid.h)
        rec0, recon0 = analysis.initial_record(u0, u1, v0, profile, grid)
        series.append(rec0, recon0)
        series.cone_ok &= _cone_exact(u0, data, grid, level=0)
        if archive:
            _write_archive_record(archive, 0.0, u0)

        u_prev, u_curr = u0, first_step(u0, u1, profile.a0, grid)
        dual = _DualVState(u0, u1, v0, profile.a0, grid) if dual_v_check else None

        level = 1
        # antiderivatives already taken that the next snapshot may reuse
        v_by_level = {0: v0}
        for target in _snapshot_levels(grid.n_steps, config.snapshots)[1:]:
            target = int(target)
            if target > level:
                u_prev, u_curr = advance(u_prev, u_curr, lam2[level:target], level)
                if dual is not None:
                    dual.advance(level, target, lam2)
                level = target
            t_here = level * grid.dt
            series.cone_ok &= _cone_exact(u_curr, data, grid, level=level)
            if archive:
                _write_archive_record(archive, t_here, u_curr)
            v_prev, v_curr = (
                v_by_level[k] if k in v_by_level else cumtrapz(u, grid.h)
                for k, u in ((level - 1, u_prev), (level, u_curr))
            )
            if dual is not None:
                dual.compare(v_curr)
            stepped = advance(u_prev, u_curr, lam2[level : level + 1], level)
            if dual is not None:
                dual.advance(level, level + 1, lam2)
            rec, recon, v_next = analysis.snapshot_record(
                t_here, u_prev, u_curr, stepped[1], v_prev, v_curr, profile, grid
            )
            series.append(rec, recon)
            v_by_level = {level: v_curr, level + 1: v_next}
            u_prev, u_curr = stepped
            level += 1
        if dual is not None:
            series.dual_v_max_rel_err = dual.max_rel_err
        return series


def evolve_final(config: ExperimentConfig):
    """Advance to t_end and return (grid, final field). No diagnostics.

    Used by the convergence command, which only needs the terminal field to
    compare against the closed-form solution.
    """
    profile, _, grid, u0, u1, lam2 = _resolve(config)
    if grid.n_steps == 0:
        return grid, u0
    _, u_final = advance(u0, first_step(u0, u1, profile.a0, grid), lam2[1 : grid.n_steps], 1)
    return grid, u_final


def _cone_exact(u: np.ndarray, data: InitialData, grid: GridSpec, level: int) -> bool:
    """Whether the field is exactly zero outside the numerical cone."""
    radius = data.support_radius + level * grid.h
    thr = radius + 0.5 * grid.h
    # |x| > thr is x < -thr or x > thr; the nodes are sorted
    lo = np.searchsorted(grid.x, -thr, side="left")
    hi = np.searchsorted(grid.x, thr, side="right")
    return not (u[:lo].any() or u[hi:].any())


def _write_archive_record(fh, t: float, u: np.ndarray):
    # node values left to right, full round-trip precision
    fh.write(f"t={t!r}\n")
    fh.write(" ".join(map(repr, u.tolist())))
    fh.write("\n")


class _DualVState:
    """Evolves the antiderivative field by its own wave equation.

    The antiderivative satisfies the same equation with integrated data. Its
    far field is constant in space, so the exact right boundary value is the
    total mass of u, which grows linearly in time when the velocity moment
    does not vanish. Comparing against the cumulative trapezoid of u at
    snapshots exercises the reconstruction structure end to end.
    """

    def __init__(self, u0, u1, v0, a0, grid):
        self.grid = grid
        v1 = cumtrapz(u1, grid.h)
        self.mass0 = trapz(u0, grid.h)
        self.c0 = trapz(u1, grid.h)
        self.v_prev = v0
        self.v_curr = first_step(v0, v1, a0, grid)
        self.v_curr[-1] = self.mass0 + grid.dt * self.c0
        self.max_rel_err = 0.0

    def advance(self, level_from: int, level_to: int, lam2: np.ndarray):
        grid = self.grid
        steps = np.arange(level_from, level_to)
        right = self.mass0 + (steps + 1) * grid.dt * self.c0
        self.v_prev, self.v_curr = advance_steps(
            self.v_prev, self.v_curr, lam2[level_from:level_to], right
        )

    def compare(self, v_ref: np.ndarray):
        """Record the error against ``v_ref``, the cumulative trapezoid of u."""
        diff = math.sqrt(trapz_sq(self.v_curr - v_ref, self.grid.h))
        scale = max(1.0, math.sqrt(trapz_sq(v_ref, self.grid.h)))
        self.max_rel_err = max(self.max_rel_err, diff / scale)
