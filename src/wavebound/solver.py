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
``evolve_final`` returns only the field at t_end. Every step is taken and
checked here; ``analysis`` only builds the records.

The kernel steps only the live band: the nodes where either level has a
nonzero bit pattern, widened by one node per step. Outside it the full
sweep would write +0.0 over +0.0, so every field is bit-identical to a
full sweep's, a -0.0 inside the cone included.

A snapshot carries three consecutive levels so time derivatives can be
centered, plus the antiderivative field of each level by cumulative
trapezoid. Each field level is stepped once and integrated at most once:
the snapshot's kernel pass takes the step to the level after it, reports
whether that level is finite and the extent of the snapshot level's
nonzero values, and integrates the new level; the run keeps the two latest
antiderivatives by level for the next snapshot. Consecutive snapshot
levels share one kernel pass, which steps from one to the next. The final
snapshot steps once past t_end, checked like every other step; the record
at t = 0 is computed from its definition. The kernel never writes into the
levels it is given, so no level is copied before a step. An optional cross-check also
evolves the antiderivative field with the same stencil from its own
initial data, to each snapshot only, and compares.
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
from wavebound.grids import GridSpec, cumtrapz, nonzero_extent, second_diff, trapz, trapz_sq
from wavebound.initial_data import InitialData, get_data
from wavebound.kernels import advance_steps, snapshot_pass

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
    ``config.check_grid``, the speed must be finite and positive, and the
    grid they size must be finite (ConfigError names cfl otherwise).
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
    if not all(map(math.isfinite, (half_width, h, dt))):
        raise ConfigError(
            f"cfl {cfl} sizes a non-finite grid at speed {a_sup:g} "
            f"(half_width {half_width}, h {h}, dt {dt}): raise cfl"
        )
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
    if not half_width >= needed:
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
    step past t_end for its centered time derivative. Sampled initial data
    that is not finite is a ConfigError naming the data scale.
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
    # a scale near the float maximum can overflow the samplers' products
    with np.errstate(over="ignore", invalid="ignore"):
        u0 = np.asarray(data.u0(grid.x), dtype=float)
        u1 = np.asarray(data.u1(grid.x), dtype=float)
    if not (np.all(np.isfinite(u0)) and np.all(np.isfinite(u1))):
        raise ConfigError(
            f"data-scale {config.data_scale:g} makes the sampled {data.name} data "
            f"non-finite: lower data-scale"
        )
    t_levels = np.arange(grid.n_steps + 1) * grid.dt
    a_levels = profile.sample_a(t_levels)
    return _Experiment(
        profile=profile,
        data=data,
        grid=grid,
        u0=u0,
        u1=u1,
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
    # a non-finite value persists through the stencil, into its own node or,
    # from an edge, the next one: checking the last level checks them all
    if np.all(np.isfinite(new_curr)):
        return new_prev, new_curr
    bad = level + len(lam2)
    a, b = u_prev, u_curr
    for k in range(len(lam2)):
        a, b = advance_steps(a, b, lam2[k : k + 1])
        if not np.all(np.isfinite(b)):
            bad = level + k + 1
            break
    raise BlowUpError(bad)


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
    The step to the level after a snapshot is taken in the snapshot's
    kernel pass; BlowUpError names it when it is not finite, before that
    snapshot is checked or recorded. Each run of consecutive snapshot levels
    is one pass, or one pass per level with an archive or the dual field,
    which see every level. A snapshot one or two levels later reuses the
    antiderivatives already taken. The cone's node limits are computed once
    for every snapshot level. Identical configs produce bit-identical series.
    """
    profile, data, grid, u0, u1, lam2 = _resolve(config)
    levels = _snapshot_levels(grid.n_steps, config.snapshots)
    cone_lo, cone_hi = _cone_limits(data, grid, levels)

    with (
        open(archive_path, "wb") if archive_path else nullcontext()
    ) as archive:
        series = analysis.DiagnosticSeries(
            records=[], profile=profile, data=data, grid=grid
        )
        v0 = cumtrapz(u0, grid.h)
        series.append(*analysis.initial_record(u0, u1, v0, profile, grid))
        series.cone_ok &= _cone_exact(nonzero_extent(u0 != 0.0), cone_lo[0], cone_hi[0])
        if archive:
            _write_archive_record(archive, 0.0, u0)

        u_prev, u_curr = u0, first_step(u0, u1, profile.a0, grid)
        dual = _DualVState(u0, u1, v0, profile.a0, grid, lam2) if dual_v_check else None

        level = 1
        # antiderivatives already taken that the next snapshot may reuse
        v_by_level = {0: v0}
        # the archive and the dual field see every snapshot level
        for start, stop in _level_runs(levels, split=archive is not None or dual is not None):
            target = int(levels[start])
            if target > level:
                u_prev, u_curr = advance(u_prev, u_curr, lam2[level:target], level)
                level = target
            if archive:
                _write_archive_record(archive, level * grid.dt, u_curr)
            v_prev, v_curr = (
                v_by_level[k] if k in v_by_level else cumtrapz(u, grid.h)
                for k, u in ((level - 1, u_prev), (level, u_curr))
            )
            if dual is not None:
                dual.compare(level, v_curr)
            snaps = snapshot_pass(
                u_prev, u_curr, v_prev, v_curr, grid.h, grid.dt, lam2[level : level + stop - start]
            )
            # the pass ends at a level whose step is not finite, and so does the run
            kept = len(snaps.norms) if snaps.finite else len(snaps.norms) - 1
            for j in range(kept):
                series.cone_ok &= _cone_exact(
                    snaps.extents[j].tolist(), cone_lo[start + j], cone_hi[start + j]
                )
                t = (level + j) * grid.dt
                series.append(*analysis.snapshot_record(t, snaps.norms[j].tolist(), profile))
            if not snaps.finite:
                raise BlowUpError(level + kept + 1)
            level += kept
            u_prev, u_curr = snaps.u_prev, snaps.u_curr
            v_by_level = {level - 1: snaps.v_prev, level: snaps.v_curr}
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


def _level_runs(levels: np.ndarray, split: bool) -> list:
    """The index ranges [start, stop) of the runs of consecutive levels in ``levels[1:]``.

    With ``split`` every level is a run of its own.
    """
    # levels[i] starts a run unless it follows levels[i - 1]; level 0 takes no pass
    starts_run = np.diff(levels) != 1
    starts_run[:1] = True
    if split:
        starts_run[:] = True
    starts = (np.flatnonzero(starts_run) + 1).tolist()
    return list(zip(starts, starts[1:] + [len(levels)]))


def _cone_limits(data: InitialData, grid: GridSpec, levels) -> tuple:
    """The nodes [lo, hi) inside the numerical cone at each of ``levels``, as two lists.

    A field at a level is exactly zero outside the cone when it is nonzero
    only at nodes in [lo, hi): the nodes where |x| <= support + level h + h/2.
    """
    radius = data.support_radius + np.asarray(levels) * grid.h
    thr = radius + 0.5 * grid.h
    # |x| > thr is x < -thr or x > thr; the nodes are sorted
    lo = np.searchsorted(grid.x, -thr, side="left")
    hi = np.searchsorted(grid.x, thr, side="right")
    return lo.tolist(), hi.tolist()


def _cone_exact(extent, lo: int, hi: int) -> bool:
    """Whether a field is exactly zero outside the cone's nodes [lo, hi).

    ``extent`` is the first and last node where the field is nonzero, as
    the snapshot pass reports it: ``(n, -1)`` for a field of zeros.
    """
    first, last = extent
    return bool(lo <= first and last < hi)


def _write_archive_record(fh, t: float, u: np.ndarray):
    # one complete .npy array [t, node values left to right] per snapshot;
    # given the open handle, np.save adds no ".npy" suffix to the path
    np.save(fh, np.concatenate(([t], u)))


class _DualVState:
    """Evolves the antiderivative field by its own wave equation.

    The antiderivative satisfies the same equation with integrated data. Its
    far field is constant in space, so the exact right boundary value is the
    total mass of u, which grows linearly in time when the velocity moment
    does not vanish. Comparing against the cumulative trapezoid of u at
    snapshots exercises the reconstruction structure end to end. The field
    is stepped only to the snapshots it is compared at.
    """

    def __init__(self, u0, u1, v0, a0, grid, lam2):
        self.grid = grid
        self.lam2 = lam2
        v1 = cumtrapz(u1, grid.h)
        self.mass0 = trapz(u0, grid.h)
        self.c0 = trapz(u1, grid.h)
        self.level = 1
        self.v_prev = v0
        self.v_curr = first_step(v0, v1, a0, grid)
        self.v_curr[-1] = self.mass0 + grid.dt * self.c0
        self.max_rel_err = 0.0

    def compare(self, level: int, v_ref: np.ndarray):
        """Step to ``level`` and record the error against ``v_ref``, the antiderivative of u."""
        if level > self.level:
            steps = np.arange(self.level, level)
            right = self.mass0 + (steps + 1) * self.grid.dt * self.c0
            self.v_prev, self.v_curr = advance_steps(
                self.v_prev, self.v_curr, self.lam2[self.level : level], right
            )
            self.level = level
        diff = math.sqrt(trapz_sq(self.v_curr - v_ref, self.grid.h))
        scale = max(1.0, math.sqrt(trapz_sq(v_ref, self.grid.h)))
        self.max_rel_err = max(self.max_rel_err, diff / scale)
