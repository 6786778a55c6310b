import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import bump_constants, formula_profile, read_archive
from wavebound import analysis, solver
from wavebound.config import ExperimentConfig
from wavebound.coefficients import get_profile
from wavebound.errors import BlowUpError, CapacityError, ConfigError, ProfileError
from wavebound.grids import GridSpec, cumtrapz, nonzero_extent, second_diff
from wavebound.initial_data import get_data
from wavebound.kernels import advance_steps, snapshot_pass
from wavebound.oracles import convergence_order, dalembert


# ---------------------------------------------------------------------------
# grid sizing
# ---------------------------------------------------------------------------


def test_grid_contains_physical_cone_with_margin():
    data = get_data("bump")
    prof = get_profile("const:1")
    grid = solver.init_grid(data, prof, 10.0, cfl=0.9, n_points=2001)
    assert grid.half_width >= data.support_radius + 1.0 * 10.0 + 2.0 * grid.h
    assert grid.cfl <= 0.9 + 1e-12
    assert grid.n_steps * grid.dt == pytest.approx(10.0, rel=1e-12)


def test_grid_cone_scales_with_speed():
    data = get_data("bump")
    grid1 = solver.init_grid(data, get_profile("const:1"), 10.0, n_points=2001)
    grid2 = solver.init_grid(data, get_profile("example1"), 10.0, n_points=2001)
    # the rising profile roughly doubles the propagation cone
    assert grid2.half_width > 1.8 * grid1.half_width


def test_grid_origin_is_a_node():
    grid = solver.init_grid(get_data("bump"), get_profile("const:1"), 5.0, n_points=501)
    assert grid.x[(grid.n_points - 1) // 2] == 0.0
    assert len(grid.x) == grid.n_points


def test_unstable_courant_numbers_rejected():
    data, prof = get_data("bump"), get_profile("const:1")
    with pytest.raises(ConfigError):
        solver.init_grid(data, prof, 5.0, cfl=1.2)
    with pytest.raises(ConfigError):
        solver.init_grid(data, prof, 5.0, cfl=0.96)
    with pytest.raises(ConfigError):
        solver.init_grid(data, prof, 5.0, cfl=0.0)


def test_grid_that_overflows_is_a_config_error():
    # the settings pass check_grid, but a fast speed overflows the cone
    data, fast = get_data("bump"), get_profile("const:1e150")
    with pytest.raises(ConfigError, match="cfl 1e-297 sizes a non-finite grid"):
        solver.init_grid(data, fast, 1000.0, cfl=1e-297, n_points=65)
    # at t_end 0 the overflowing speed / cfl times 0 made a NaN grid
    with pytest.raises(ConfigError, match="cfl 1e-200 sizes a non-finite grid"):
        solver.init_grid(data, fast, 0.0, cfl=1e-200, n_points=65)


def test_data_scale_that_overflows_the_samples_is_a_config_error():
    # scale * y overflows outside the support, where bump(y) is 0: inf * 0
    # is NaN, which the run rejects as bad data, with no numpy warning
    cfg = ExperimentConfig(
        profile="example2a", data="odd-velocity", t_end=1.0, n_points=201, data_scale=1.7e308
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=r"data-scale 1\.7e\+308 .* odd-velocity data non-finite"):
            solver.run(cfg)
        with pytest.raises(ConfigError, match="data-scale"):
            solver.evolve_final(cfg)


def test_memory_budget_enforced():
    with pytest.raises(CapacityError):
        solver.init_grid(get_data("bump"), get_profile("const:1"), 5.0, n_points=4_194_305)


def test_grid_rejects_a_speed_that_is_not_finite_in_the_window():
    # past the construction probe (t <= 1000) but inside [0, t_end]: a typed
    # error naming the time, not a grid sized from a NaN supremum
    prof = formula_profile("late-nan", lambda t: np.where(t > 1500.0, np.nan, 1.0), np.zeros_like)
    t = np.linspace(0.0, 2000.0, 4096)
    with pytest.raises(ProfileError, match=f"a\\(t\\) not finite at t={t[t > 1500.0][0]}"):
        solver.init_grid(get_data("bump"), prof, 2000.0, n_points=65)


# ---------------------------------------------------------------------------
# first step and checked stepping
# ---------------------------------------------------------------------------


def _initial_levels(data, grid):
    return np.asarray(data.u0(grid.x), dtype=float), np.asarray(data.u1(grid.x), dtype=float)


def test_first_step_zero_data():
    data = get_data("bump", scale=0.0)
    prof = get_profile("const:1")
    grid = solver.init_grid(data, prof, 1.0, n_points=501)
    u1_level = solver.first_step(*_initial_levels(data, grid), prof.a0, grid)
    assert u1_level.shape == (501,)
    assert np.all(u1_level == 0.0)


def test_first_step_displacement_taylor_formula():
    data = get_data("bump")
    prof = get_profile("const:1")
    grid = solver.init_grid(data, prof, 1.0, n_points=1001)
    u0, u1 = _initial_levels(data, grid)
    u1_level = solver.first_step(u0, u1, prof.a0, grid)
    expect = u0 + 0.5 * grid.dt**2 * second_diff(u0, grid.h)
    expect[0] = expect[-1] = 0.0
    assert np.array_equal(u1_level, expect)


def test_first_step_velocity_only_is_linear():
    data = get_data("bump-velocity")
    prof = get_profile("const:1")
    grid = solver.init_grid(data, prof, 1.0, n_points=1001)
    u1_level = solver.first_step(*_initial_levels(data, grid), prof.a0, grid)
    assert np.allclose(u1_level, grid.dt * np.asarray(data.u1(grid.x)), rtol=0, atol=0)


def test_unstable_time_step_blows_up_with_index():
    data, prof = get_data("bump"), get_profile("const:1")
    good = solver.init_grid(data, prof, 5.0, cfl=0.9, n_points=501)
    bad = GridSpec(
        half_width=good.half_width,
        n_points=good.n_points,
        h=good.h,
        dt=1.5 * good.h,
        cfl=1.5,
        n_steps=1500,
    )
    u0, u1 = _initial_levels(data, bad)
    u1_level = solver.first_step(u0, u1, prof.a0, bad)
    # the typed error reports the blow-up; numpy's overflow warnings stay silent
    with pytest.raises(BlowUpError) as info, warnings.catch_warnings():
        warnings.simplefilter("error")
        solver.advance(u0, u1_level, np.full(1500, 2.25), 1)
    assert info.value.step_index == 377


def test_advance_leaves_inputs_and_matches_kernel():
    data, prof = get_data("odd-velocity"), get_profile("example2a")
    grid = solver.init_grid(data, prof, 2.0, n_points=501)
    u0, u1 = _initial_levels(data, grid)
    u1_level = solver.first_step(u0, u1, prof.a0, grid)
    lam2 = np.full(grid.n_steps - 1, 0.5)
    before = (u0.copy(), u1_level.copy())
    got = solver.advance(u0, u1_level, lam2, 1)
    assert np.array_equal(u0, before[0]) and np.array_equal(u1_level, before[1])
    want = advance_steps(u0.copy(), u1_level.copy(), lam2)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_zero_horizon_gives_single_record(run_cache):
    series = run_cache(profile="const:1", data="bump", t_end=0.0, n_points=501)
    assert len(series.records) == 1
    rec = series.records[0]
    assert rec.t == 0.0
    assert rec.l2_u_sq == pytest.approx(bump_constants()["l2_sq"], rel=1e-4)


def test_runs_are_deterministic():
    cfg = ExperimentConfig(profile="example3", data="odd-velocity", t_end=5.0, n_points=801, snapshots=40)
    s1 = solver.run(cfg)
    s2 = solver.run(cfg)
    for col in ("t", "l2_u_sq", "E_u", "E_v", "l2_vx_sq"):
        assert np.array_equal(s1.column(col), s2.column(col))


def test_field_stays_exactly_zero_outside_cone(run_cache):
    series = run_cache(
        profile="example2a", data="odd-velocity", t_end=5.0, n_points=801, snapshots=100000
    )
    assert series.cone_ok


def test_snapshot_count_close_to_requested(run_cache):
    series = run_cache(profile="const:1", data="bump", t_end=5.0, n_points=801, snapshots=50)
    assert 45 <= len(series.records) <= 51


def test_constant_speed_energy_conservation(run_cache):
    series = run_cache(profile="const:1", data="bump", t_end=50.0, n_points=2001, snapshots=100)
    e_u = series.column("E_u")
    drift = np.max(np.abs(e_u - e_u[0])) / e_u[0]
    # second order in dt
    assert drift <= 2.0 * series.grid.dt**2


def test_energy_conservation_drift_shrinks_with_dt(run_cache):
    coarse = run_cache(profile="const:1", data="bump", t_end=50.0, n_points=2001, snapshots=100)
    fine = run_cache(profile="const:1", data="bump", t_end=50.0, n_points=4001, snapshots=100)

    def drift(series):
        e_u = series.column("E_u")
        return float(np.max(np.abs(e_u - e_u[0])) / e_u[0])

    assert drift(coarse) / drift(fine) == pytest.approx(4.0, abs=1.5)


def test_solution_converges_to_closed_form():
    errors = []
    for n in (501, 1001, 2001):
        cfg = ExperimentConfig(profile="const:1", data="bump", t_end=3.0, n_points=n, snapshots=2)
        grid, u = solver.evolve_final(cfg)
        exact = dalembert(get_data("bump"), 3.0, grid.x, speed=1.0)
        errors.append((grid.h, math.sqrt(analysis.l2_norm_sq(u - exact, grid))))
    order = convergence_order(errors)
    assert order == pytest.approx(2.0, abs=0.2)


def test_separated_packets_carry_half_the_squared_norm():
    cfg = ExperimentConfig(profile="const:1", data="bump", t_end=10.0, n_points=2001, snapshots=2)
    grid, u = solver.evolve_final(cfg)
    half = 0.5 * bump_constants()["l2_sq"]
    assert analysis.l2_norm_sq(u, grid) == pytest.approx(half, rel=0.01)


def test_reconstruction_identity_second_order(run_cache):
    coarse = run_cache(profile="example2a", data="odd-velocity", t_end=10.0, n_points=2001, snapshots=100)
    fine = run_cache(profile="example2a", data="odd-velocity", t_end=10.0, n_points=4001, snapshots=100)
    assert coarse.recon_max_rel_err < 1e-3
    ratio = coarse.recon_max_rel_err / fine.recon_max_rel_err
    assert 3.0 <= ratio <= 5.0


@pytest.mark.parametrize("data_name", ["odd-velocity", "bump-velocity"])
def test_dual_evolution_matches_cumulative_integral(data_name):
    # the stencil commutes with the cumulative trapezoid while the wave is
    # contained, so the independently evolved antiderivative field agrees
    # with the reconstruction at roundoff level
    cfg = ExperimentConfig(profile="example2a", data=data_name, t_end=8.0, n_points=1501, snapshots=40)
    series = solver.run(cfg, dual_v_check=True)
    assert series.dual_v_max_rel_err < 1e-9


# example3 / bump, t_end 5, n 501 takes 226 steps: 114 snapshots are two
# steps apart, 100000 give one per step
@pytest.mark.parametrize("snapshots", [2, 7, 60, 114, 100000])
def test_each_level_is_stepped_and_integrated_once(monkeypatch, snapshots):
    steps, integrals = [], []

    def counting_steps(u_prev, u_curr, lam2, *edges):
        steps.append(len(lam2))
        return advance_steps(u_prev, u_curr, lam2, *edges)

    def counting_cumtrapz(f, h):
        integrals.append(1)
        return cumtrapz(f, h)

    def counting_pass(*args):
        # each snapshot level of the pass steps to its next level and integrates it
        lam2 = args[-1]
        integrals.extend([1] * len(lam2))
        steps.append(len(lam2))
        return snapshot_pass(*args)

    monkeypatch.setattr(solver, "advance_steps", counting_steps)
    monkeypatch.setattr(solver, "cumtrapz", counting_cumtrapz)
    # the record at t = 0 integrates the initial velocity
    monkeypatch.setattr(analysis, "cumtrapz", counting_cumtrapz)
    monkeypatch.setattr(solver, "snapshot_pass", counting_pass)
    cfg = ExperimentConfig(profile="example3", data="bump", t_end=5.0, n_points=501, snapshots=snapshots)
    series = solver.run(cfg)
    n_steps = series.grid.n_steps
    # levels 2..n_steps plus the one past t_end for the final snapshot
    assert sum(steps) == n_steps
    if snapshots >= n_steps // 2 + 1:
        assert n_steps == 226
        assert len(series.records) == min(snapshots, n_steps + 1)
        # levels 0..n_steps + 1 once each, plus the initial velocity for the
        # record at t = 0
        assert len(integrals) == n_steps + 3


# 333 snapshots of 1001 steps: runs of two consecutive levels between gaps
@pytest.mark.parametrize("snapshots", [2, 7, 333, 100000])
def test_consecutive_snapshot_levels_share_one_pass(monkeypatch, tmp_path, snapshots):
    # one pass per run of consecutive snapshot levels, and the records are
    # bit for bit those of one pass per level, which an archived run takes
    calls = []

    def counting_pass(*args):
        calls.append(len(args[-1]))
        return snapshot_pass(*args)

    monkeypatch.setattr(solver, "snapshot_pass", counting_pass)
    cfg = ExperimentConfig(profile="example3", data="bump", t_end=20.0, n_points=1001, snapshots=snapshots)
    together = solver.run(cfg)
    runs, calls[:] = list(calls), []
    apart = solver.run(cfg, archive_path=str(tmp_path / "archive"))
    levels = solver._snapshot_levels(together.grid.n_steps, snapshots)
    assert calls == [1] * (len(levels) - 1)
    assert sum(runs) == len(levels) - 1
    assert len(runs) == 1 + int(np.sum(np.diff(levels[1:]) != 1))
    assert np.array_equal(
        np.array(together.records).view(np.uint64), np.array(apart.records).view(np.uint64)
    )
    assert together.recon_max_rel_err == apart.recon_max_rel_err
    assert together.cone_ok and apart.cone_ok


@pytest.mark.parametrize("snapshots", [2, 7, 114, 100000])
def test_dual_field_takes_no_step_past_the_last_snapshot(monkeypatch, snapshots):
    dual_steps = []

    def counting_steps(u_prev, u_curr, lam2, right=None):
        # only the dual field's calls give a right edge value
        if right is not None:
            dual_steps.append(len(lam2))
        return advance_steps(u_prev, u_curr, lam2, right)

    monkeypatch.setattr(solver, "advance_steps", counting_steps)
    cfg = ExperimentConfig(profile="example3", data="bump", t_end=5.0, n_points=501, snapshots=snapshots)
    series = solver.run(cfg, dual_v_check=True)
    # the Taylor start makes level 1; the kernel steps it to level n_steps,
    # the last snapshot, in at most one call per snapshot
    assert sum(dual_steps) == series.grid.n_steps - 1
    assert len(dual_steps) <= len(series.records) - 1
    assert series.dual_v_max_rel_err < 1e-9


def poison_steps(monkeypatch, healthy_calls):
    """Make every stepping call after the first ``healthy_calls`` give a non-finite level.

    The calls are the kernel's and the snapshot passes' steps, counted
    together in the returned list; the record at t = 0 takes no step.
    """
    calls = []

    def poisoned_steps(u_prev, u_curr, lam2, *edges):
        calls.append(len(lam2))
        new_prev, new_curr = advance_steps(u_prev, u_curr, lam2, *edges)
        return new_prev, new_curr if len(calls) <= healthy_calls else new_curr * np.nan

    def poisoned_pass(u_prev, u_curr, *args):
        calls.append(1)
        if len(calls) > healthy_calls:
            # the pass steps from a non-finite level to a non-finite one
            u_curr = u_curr * np.nan
        return snapshot_pass(u_prev, u_curr, *args)

    monkeypatch.setattr(solver, "advance_steps", poisoned_steps)
    monkeypatch.setattr(solver, "snapshot_pass", poisoned_pass)
    return calls


def test_step_past_t_end_is_checked(monkeypatch):
    # every kernel call after the one up to t_end returns a non-finite field
    calls = poison_steps(monkeypatch, healthy_calls=1)
    cfg = ExperimentConfig(profile="const:1", data="bump", t_end=1.0, n_points=501, snapshots=2)
    n_steps = solver.init_grid(get_data("bump"), get_profile("const:1"), 1.0, n_points=501).n_steps
    with pytest.raises(BlowUpError) as info:
        solver.run(cfg)
    assert info.value.step_index == n_steps + 1
    # the step up to t_end, then the final snapshot's step past it
    assert calls == [n_steps - 1, 1]


@pytest.mark.parametrize("kernel", ["python", "compiled"])
def test_blow_up_on_a_snapshots_own_step_names_that_step(monkeypatch, request, kernel):
    # one overflowing Courant factor, on the step a snapshot's pass takes:
    # the error names that step, as a separate checked step named it. With 5
    # snapshots each pass takes one level; with 100000, one per step, one
    # pass takes every level and the bad step is inside it
    if kernel == "compiled":
        backend = request.getfixturevalue("compiled_backend")
        monkeypatch.setattr(solver, "advance_steps", backend.advance_steps)
        monkeypatch.setattr(solver, "snapshot_pass", backend.snapshot_pass)
    resolve = solver._resolve

    def bad_level(config):
        return int(solver._snapshot_levels(resolve(config).grid.n_steps, config.snapshots)[2])

    def overflowing(config):
        exp = resolve(config)
        lam2 = exp.lam2.copy()
        lam2[bad_level(config)] = np.finfo(float).max
        return exp._replace(lam2=lam2)

    monkeypatch.setattr(solver, "_resolve", overflowing)
    for snapshots in (5, 100000):
        cfg = ExperimentConfig(
            profile="const:1", data="bump", data_scale=1e4, t_end=1.0, n_points=501,
            snapshots=snapshots,
        )
        with pytest.raises(BlowUpError) as info:
            solver.run(cfg)
        assert info.value.step_index == bad_level(cfg) + 1


def _extents(u):
    """The field's nonzero extent, as the snapshot pass and the t = 0 check find it."""
    return tuple(snapshot_pass(u, u, u, u, 1.0, 1.0, [0.0]).extents[0]), nonzero_extent(u != 0.0)


def _cone_by_mask(u, x, r, level, h):
    return bool(np.all(u[np.abs(x) > r + level * h + 0.5 * h] == 0.0))


_SPECIAL = st.sampled_from([0.0, -0.0, 1e-300, -1.0, np.nan, np.inf, -np.inf])


@given(
    n=st.integers(3, 60).map(lambda k: 2 * k + 1),
    h=st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 10.0)),
    r_cells=st.one_of(st.integers(0, 40).map(lambda k: k + 0.5), st.floats(0.0, 40.0)),
    level=st.integers(0, 40),
    fill=st.lists(st.tuples(st.integers(0, 120), _SPECIAL), max_size=4),
    at_cut=st.sampled_from([None, -2, -1, 0, 1]),
)
@settings(max_examples=300, deadline=None)
def test_cone_check_matches_mask_definition(n, h, r_cells, level, fill, at_cut):
    # a half-integer r_cells with a power-of-two h puts the threshold on a node
    grid = GridSpec(half_width=0.5 * (n - 1) * h, n_points=n, h=h, dt=h, cfl=1.0, n_steps=1)
    r = r_cells * h
    data = types.SimpleNamespace(support_radius=r)
    u = np.zeros(n)
    for idx, val in fill:
        u[idx % n] = val
    if at_cut is not None:
        # the node nearest the threshold on the right side, and its neighbours
        thr = r + level * h + 0.5 * h
        cut = int(np.searchsorted(grid.x, thr)) + at_cut
        if 0 <= cut < n:
            u[cut] = 1.0
    # the limits of one level, and of the level among all levels up to it
    lo, hi = solver._cone_limits(data, grid, [level])
    every_lo, every_hi = solver._cone_limits(data, grid, np.arange(level + 1))
    assert (every_lo[-1], every_hi[-1]) == (lo[0], hi[0])
    for f in (u, -u[::-1]):
        want = _cone_by_mask(f, grid.x, r, level, h)
        for extent in _extents(f):
            assert solver._cone_exact(extent, lo[0], hi[0]) is want


def test_cone_check_sees_every_snapshot_level(monkeypatch):
    # the record at t = 0 takes no pass: its check reads u0's extent directly
    checked = []
    cone_exact = solver._cone_exact

    def recording(extent, lo, hi):
        checked.append(((lo, hi), tuple(extent)))
        return cone_exact(extent, lo, hi)

    monkeypatch.setattr(solver, "_cone_exact", recording)
    cfg = ExperimentConfig(profile="const:1", data="bump", t_end=1.0, n_points=501, snapshots=5)
    series = solver.run(cfg)
    grid = series.grid
    nonzero = np.flatnonzero(np.asarray(get_data("bump").u0(grid.x)) != 0.0)
    levels = solver._snapshot_levels(grid.n_steps, 5)
    limits = list(zip(*solver._cone_limits(series.data, grid, levels)))
    assert checked[0] == (limits[0], (nonzero[0], nonzero[-1]))
    # each snapshot level is checked against its own cone, in order
    assert [lim for lim, _ in checked] == limits
    assert len(set(limits)) == len(levels)
    assert series.cone_ok


def test_snapshot_archive_format(tmp_path):
    cfg = ExperimentConfig(profile="const:1", data="bump", t_end=2.0, n_points=501, snapshots=5)
    path = tmp_path / "snapshots.txt"
    series = solver.run(cfg, archive_path=str(path))
    # one .npy array [t, u...] per snapshot, at the times of the series
    records = read_archive(path)
    assert all(rec.dtype == np.float64 and rec.shape == (502,) for rec in records)
    assert [rec[0] for rec in records] == list(series.times)
    grid = solver.init_grid(get_data("bump"), get_profile("const:1"), 2.0, n_points=501)
    u0 = np.asarray(get_data("bump").u0(grid.x), dtype=float)
    assert np.array_equal(records[0][1:].view(np.int64), u0.view(np.int64))


@pytest.mark.parametrize("healthy_calls,kept", [(0, 1), (1, 2), (2, 2), (3, 3)])
def test_archive_keeps_whole_records_after_blow_up(tmp_path, monkeypatch, healthy_calls, kept):
    # kernel calls alternate between stepping to a snapshot and the one step
    # after it; every call after the healthy ones returns a non-finite field
    cfg = ExperimentConfig(profile="const:1", data="bump", t_end=1.0, n_points=501, snapshots=5)
    solver.run(cfg, archive_path=str(tmp_path / "clean"))
    clean = read_archive(tmp_path / "clean")
    poison_steps(monkeypatch, healthy_calls)
    path = tmp_path / "blown"
    with pytest.raises(BlowUpError) as info:
        solver.run(cfg, archive_path=str(path))
    # the records are whole: the last is the last snapshot before the bad step
    records = read_archive(path)
    grid = solver.init_grid(get_data("bump"), get_profile("const:1"), 1.0, n_points=501)
    levels = solver._snapshot_levels(grid.n_steps, cfg.snapshots)
    before = [level * grid.dt for level in levels if level < info.value.step_index]
    assert [rec[0] for rec in records] == before
    assert len(records) == kept
    for rec, ref in zip(records, clean):
        assert np.array_equal(rec.view(np.int64), ref.view(np.int64))


def test_antiderivative_field_is_cumulative_trapezoid():
    cfg = ExperimentConfig(profile="const:1", data="odd-velocity", t_end=2.0, n_points=501, snapshots=3)
    grid, u = solver.evolve_final(cfg)
    v = cumtrapz(u, grid.h)
    assert v[0] == 0.0
    assert np.all(np.isfinite(v))
