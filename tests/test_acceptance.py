"""Acceptance suite: every product-level guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned at runtime. Expected values come
from the oracle module (closed forms and quadrature), never hard-coded from
the literature.
"""

import math

import numpy as np
import pytest

from conftest import bump_constants
from wavebound import analysis, solver
from wavebound.cli import cmd_simulate
from wavebound.coefficients import classify, get_profile, total_variation, tv_tail_estimate
from wavebound.config import ExperimentConfig, config_from_mapping
from wavebound.initial_data import get_data
from wavebound.oracles import convergence_order, dalembert, growth_slope, i0_squared

EPS_BOUND = 0.02


def _line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:>2}] {status}  {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _sup(series):
    return float(np.max(series.column("l2_u_sq")))


# ---------------------------------------------------------------------------
# 1. bound for a nondecreasing speed profile
# ---------------------------------------------------------------------------


def test_criterion_1_rising_speed_bound(run_cache):
    series = run_cache(profile="example1", data="derivative-velocity", t_end=50.0, n_points=4001)
    data = get_data("derivative-velocity")
    a0 = get_profile("example1").a0
    bound = i0_squared(data, a0).value / a0**2
    sup = _sup(series)
    _line(
        1,
        "rising speed: sup ||u||^2 <= I0^2/a(0)^2 * 1.02 (oracle constant)",
        sup <= bound * (1.0 + EPS_BOUND),
        f"sup={sup:.6f} bound={bound:.6f}",
    )


def test_criterion_1_margin_shrinks_under_refinement(run_cache):
    """Refinement direction of the bound margin.

    This check expects the measured supremum to approach the bound from
    below as the grid is refined, so that the margin shrinks when h halves.
    The solver's supremum at these resolutions actually converges from
    above (verified across Courant numbers 0.5-0.95, snapshot densities up
    to one per step, and a further halving to 16001 points), so the margin
    widens by about 5e-5. Kept as an honest negative result rather than
    tuned green; see the project notes for the measurements.
    """
    coarse = run_cache(profile="example1", data="derivative-velocity", t_end=50.0, n_points=4001)
    fine = run_cache(profile="example1", data="derivative-velocity", t_end=50.0, n_points=8001)
    data = get_data("derivative-velocity")
    a0 = get_profile("example1").a0
    bound = i0_squared(data, a0).value / a0**2
    margin_coarse = bound - _sup(coarse)
    margin_fine = bound - _sup(fine)
    _line(
        1,
        "rising speed: bound margin shrinks when h halves",
        margin_fine < margin_coarse,
        f"margin(h)={margin_coarse:.8f} margin(h/2)={margin_fine:.8f}",
    )


# ---------------------------------------------------------------------------
# 2. bound for nonincreasing speed profiles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("profile_name", ["example2a", "example2b"])
def test_criterion_2_decaying_speed_bound(run_cache, profile_name):
    series = run_cache(profile=profile_name, data="odd-velocity", t_end=100.0, n_points=4001)
    bound = i0_squared(get_data("odd-velocity"), get_profile(profile_name).a0).value
    sup = _sup(series)
    _line(
        2,
        f"decaying speed ({profile_name}): sup ||u||^2 <= I0^2 * 1.02",
        sup <= bound * (1.0 + EPS_BOUND),
        f"sup={sup:.6f} bound={bound:.6f}",
    )


# ---------------------------------------------------------------------------
# 3. bound for integrable speed variation
# ---------------------------------------------------------------------------


def test_criterion_3_variation_bound(run_cache):
    series = run_cache(profile="example3", data="odd-velocity", t_end=100.0, n_points=4001)
    prof = get_profile("example3")
    horizon = 400.0
    flags = classify(prof, horizon)
    tv = total_variation(prof, horizon)
    tail = tv_tail_estimate(prof, horizon)
    i0 = i0_squared(get_data("odd-velocity"), prof.a0).value
    bound = (i0 / flags.A0**2) * math.exp((2.0 / flags.A0) * tv)
    sup = _sup(series)
    _line(
        3,
        "oscillating speed: sup ||u||^2 <= (I0^2/A0^2) exp(2 tv / A0) * 1.02",
        sup <= bound * (1.0 + EPS_BOUND),
        f"sup={sup:.6f} bound={bound:.6f} tv={tv:.6f} tail_estimate={tail:.2e}",
    )


# ---------------------------------------------------------------------------
# 4. reconstruction identity
# ---------------------------------------------------------------------------


def test_criterion_4_reconstruction_identity(run_cache):
    coarse = run_cache(profile="example2a", data="odd-velocity", t_end=20.0, n_points=4001)
    fine = run_cache(profile="example2a", data="odd-velocity", t_end=20.0, n_points=8001)
    err = coarse.recon_max_rel_err
    ratio = err / fine.recon_max_rel_err
    _line(
        4,
        "centered difference of the antiderivative field reproduces u",
        err <= 5e-3 and 3.0 <= ratio <= 5.0,
        f"max_rel_err={err:.2e} refinement_ratio={ratio:.2f}",
    )


# ---------------------------------------------------------------------------
# 5. energy identity residual
# ---------------------------------------------------------------------------


def test_criterion_5_energy_identity_refinement(run_cache):
    coarse = run_cache(profile="example2a", data="odd-velocity", t_end=5.0, n_points=2001, snapshots=201)
    fine = run_cache(profile="example2a", data="odd-velocity", t_end=5.0, n_points=4001, snapshots=401)
    _, r_coarse = analysis.energy_identity_residual(coarse)
    _, r_fine = analysis.energy_identity_residual(fine)
    ratio = r_coarse / r_fine
    _line(
        5,
        "energy identity residual drops ~4x when h, dt, spacing halve",
        3.0 <= ratio <= 5.0,
        f"max|r|={r_coarse:.2e} -> {r_fine:.2e} ratio={ratio:.2f}",
    )


# ---------------------------------------------------------------------------
# 6. energy envelopes of the antiderivative field
# ---------------------------------------------------------------------------


def test_criterion_6_growth_envelope_rising_speed(run_cache):
    series = run_cache(profile="example1", data="derivative-velocity", t_end=50.0, n_points=4001)
    e_v = series.column("E_v")
    a_vals = series.column("a")
    budget = e_v[0] * (a_vals / a_vals[0]) ** 2 * (1.0 + EPS_BOUND)
    _line(
        6,
        "rising speed: E_v(t) <= E_v(0) (a(t)/a(0))^2 * 1.02 at every snapshot",
        bool(np.all(e_v <= budget)),
        f"max_ratio={float(np.max(e_v / (e_v[0] * (a_vals / a_vals[0]) ** 2))):.4f}",
    )


@pytest.mark.parametrize("profile_name", ["example2a", "example2b"])
def test_criterion_6_monotone_envelope_decaying_speed(run_cache, profile_name):
    series = run_cache(profile=profile_name, data="odd-velocity", t_end=100.0, n_points=4001)
    e_v = series.column("E_v")
    _line(
        6,
        f"decaying speed ({profile_name}): E_v(t) <= E_v(0) * 1.02 at every snapshot",
        bool(np.all(e_v <= e_v[0] * (1.0 + EPS_BOUND))),
        f"max_ratio={float(np.max(e_v / e_v[0])):.4f}",
    )


# ---------------------------------------------------------------------------
# 7. observed order against the closed-form solution
# ---------------------------------------------------------------------------


def test_criterion_7_convergence_order():
    errors = []
    for n in (1001, 2001, 4001):
        cfg = ExperimentConfig(profile="const:1", data="bump", t_end=3.0, n_points=n, snapshots=2)
        grid, u = solver.evolve_final(cfg)
        exact = dalembert(get_data("bump"), 3.0, grid.x, speed=1.0)
        errors.append((grid.h, math.sqrt(analysis.l2_norm_sq(u - exact, grid))))
    order = convergence_order(errors)
    _line(
        7,
        "observed order vs the exact constant-speed solution is 2.0 +- 0.2",
        abs(order - 2.0) <= 0.2,
        f"order={order:.3f} errors={[f'{e:.2e}' for _, e in errors]}",
    )


# ---------------------------------------------------------------------------
# 8. growth dichotomy
# ---------------------------------------------------------------------------


WINDOW = (50.0, 200.0)


def test_criterion_8_growing_norm_exponent(run_cache):
    series = run_cache(profile="const:1", data="bump-velocity", t_end=200.0, n_points=16001)
    fit = analysis.fit_growth(series, WINDOW)
    _line(
        8,
        "nonvanishing moment: log-log growth exponent is 0.5 +- 0.05",
        abs(fit.exponent - 0.5) <= 0.05,
        f"exponent={fit.exponent:.4f} r2={fit.r_squared:.5f}",
    )


def test_criterion_8_bounded_norm_for_vanishing_moment(run_cache):
    series = run_cache(profile="const:1", data="odd-velocity", t_end=200.0, n_points=16001)
    bound = i0_squared(get_data("odd-velocity"), 1.0).value
    sup = _sup(series)
    fit = analysis.fit_growth(series, WINDOW)
    _line(
        8,
        "vanishing moment: sup <= I0^2 * 1.02 and exponent <= 0.05",
        sup <= bound * (1.0 + EPS_BOUND) and fit.exponent <= 0.05,
        f"sup={sup:.6f} bound={bound:.6f} exponent={fit.exponent:.4f}",
    )


def test_criterion_8_growth_slope_matches_frequency_oracle(run_cache):
    series = run_cache(profile="const:1", data="bump-velocity", t_end=200.0, n_points=16001)
    sim_slope = analysis.growth_slope_sq(series, WINDOW)
    oracle = growth_slope(get_data("bump-velocity"))
    rel = abs(sim_slope - oracle.value) / oracle.value
    _line(
        8,
        "fitted squared-norm slope agrees with the exact slope M^2/2 within 10%",
        rel <= 0.10,
        f"sim={sim_slope:.6f} oracle={oracle.value:.6f} rel_diff={rel:.3%}",
    )


# ---------------------------------------------------------------------------
# 9. disjoint-support limit
# ---------------------------------------------------------------------------


def test_criterion_9_separated_packets():
    cfg = ExperimentConfig(profile="const:1", data="bump", t_end=10.0, n_points=4001, snapshots=2)
    grid, u = solver.evolve_final(cfg)
    measured = analysis.l2_norm_sq(u, grid)
    target = 0.5 * bump_constants()["l2_sq"]
    rel = abs(measured - target) / target
    _line(
        9,
        "separated traveling bumps carry half the initial squared norm (1%)",
        rel <= 0.01,
        f"measured={measured:.8f} target={target:.8f} rel={rel:.2e}",
    )


# ---------------------------------------------------------------------------
# 10. determinism and the discrete cone
# ---------------------------------------------------------------------------


def test_criterion_10_byte_identical_csv(tmp_path):
    base = {
        "profile": "example3",
        "data": "odd-velocity",
        "t_end": 5.0,
        "n_points": 801,
        "snapshots": 30,
    }
    cfg1 = config_from_mapping({**base, "output_dir": str(tmp_path / "a")})
    cfg2 = config_from_mapping({**base, "output_dir": str(tmp_path / "b")})
    assert cmd_simulate(cfg1) == 0
    assert cmd_simulate(cfg2) == 0
    b1 = (tmp_path / "a" / "series.csv").read_bytes()
    b2 = (tmp_path / "b" / "series.csv").read_bytes()
    _line(10, "repeated runs produce byte-identical CSV", b1 == b2, f"{len(b1)} bytes")


def test_criterion_10_machine_exact_cone(run_cache):
    # snapshots above the step count force a cone check at every single step
    series = run_cache(
        profile="example1", data="derivative-velocity", t_end=5.0, n_points=1001, snapshots=100000
    )
    sparse = run_cache(profile="const:1", data="bump-velocity", t_end=200.0, n_points=16001)
    _line(
        10,
        "field is machine-exact zero outside the numerical cone at every checked step",
        series.cone_ok and sparse.cone_ok,
        f"checked_steps={len(series.records)}",
    )
