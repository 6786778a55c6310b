import numpy as np
import pytest

from conftest import bump_constants
from wavebound import analysis, solver
from wavebound.analysis import (
    BoundReport,
    DiagnosticRecord,
    DiagnosticSeries,
    energy_identity_residual,
    envelope_report,
    fit_growth,
    growth_slope_sq,
    l2_norm_sq,
    theorem_bound,
    verify_bound,
    write_csv,
)
from wavebound.coefficients import AssumptionFlags, classify, get_profile
from wavebound.errors import FitError, HypothesisError, SeriesError, WaveboundError
from wavebound.grids import GridSpec, cumtrapz
from wavebound.initial_data import bound_constant, bump, get_data


def make_grid(half_width=2.0, n=2001):
    h = 2.0 * half_width / (n - 1)
    return GridSpec(half_width=half_width, n_points=n, h=h, dt=h, cfl=1.0, n_steps=0)


def synthetic_series(t, l2_u_sq, profile_name="const:1"):
    records = [
        DiagnosticRecord(t=float(ti), l2_u_sq=float(vi), E_u=1.0, E_v=1.0, l2_vx_sq=float(vi), a=1.0, a_prime=0.0)
        for ti, vi in zip(t, l2_u_sq)
    ]
    grid = make_grid(n=101)
    return DiagnosticSeries(records=records, profile=get_profile(profile_name), data=None, grid=grid)


# ---------------------------------------------------------------------------
# norms and energies
# ---------------------------------------------------------------------------


def test_l2_of_zero_field():
    grid = make_grid(n=101)
    assert l2_norm_sq(np.zeros(101), grid) == 0.0


def test_l2_of_unit_field_matches_domain_width():
    grid = make_grid(half_width=1.0, n=201)
    assert l2_norm_sq(np.ones(201), grid) == pytest.approx(2.0, rel=1e-14)


def test_l2_of_bump_matches_quadrature():
    grid = make_grid(half_width=2.0, n=8001)
    val = l2_norm_sq(np.asarray(bump(grid.x), dtype=float), grid)
    assert val == pytest.approx(bump_constants()["l2_sq"], rel=1e-7)


def test_l2_rejects_wrong_length():
    with pytest.raises(SeriesError):
        l2_norm_sq(np.zeros(100), make_grid(n=101))


def test_energy_u_zero_state():
    data = get_data("bump", scale=0.0)
    prof = get_profile("const:1")
    grid = solver.init_grid(data, prof, 1.0, n_points=501)
    u0 = np.asarray(data.u0(grid.x), dtype=float)
    v0 = cumtrapz(u0, grid.h)
    rec, _ = analysis.initial_record(u0, np.zeros_like(u0), v0, prof, grid)
    assert rec.E_u == 0.0


def test_energy_u_initial_bump_is_half_gradient_norm():
    data = get_data("bump")
    prof = get_profile("const:1")
    grid = solver.init_grid(data, prof, 1.0, n_points=4001)
    u0 = np.asarray(data.u0(grid.x), dtype=float)
    v0 = cumtrapz(u0, grid.h)
    rec, _ = analysis.initial_record(u0, np.zeros_like(u0), v0, prof, grid)  # at rest
    assert rec.E_u == pytest.approx(0.5 * bump_constants()["prime_l2_sq"], rel=1e-3)


# ---------------------------------------------------------------------------
# energy identity residual
# ---------------------------------------------------------------------------


def test_residual_zero_for_zero_data(run_cache):
    series = run_cache(profile="example2a", data="bump", data_scale=0.0, t_end=2.0, n_points=501, snapshots=10)
    residuals, rmax = energy_identity_residual(series)
    assert rmax == 0.0
    assert np.all(residuals == 0.0)


def test_residual_small_for_constant_speed(run_cache):
    series = run_cache(profile="const:1", data="odd-velocity", t_end=10.0, n_points=2001, snapshots=100)
    _, rmax = energy_identity_residual(series)
    # pure drift of a conserved energy
    assert rmax < 1e-6


def test_residual_needs_three_records():
    series = synthetic_series([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(SeriesError):
        energy_identity_residual(series)


def test_residual_rejects_duplicate_times():
    series = synthetic_series([0.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(SeriesError):
        energy_identity_residual(series)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------


def test_all_bounds_coincide_for_unit_speed():
    grid = make_grid()
    prof = get_profile("const:1")
    flags = classify(prof, 10.0)
    rep = bound_constant(get_data("odd-velocity"), prof.a0, grid)
    skeletons = theorem_bound(flags, rep, prof)
    assert [s.theorem for s in skeletons] == ["Thm1.1", "Cor1.1", "Cor1.2"]
    values = {s.bound_value for s in skeletons}
    assert len(values) == 1  # exact coincidence, no tolerance
    assert values.pop() == rep.I0_sq


def test_increasing_speed_bound_uses_initial_speed():
    grid = make_grid()
    prof = get_profile("example1")
    flags = classify(prof, 10.0)
    rep = bound_constant(get_data("derivative-velocity"), prof.a0, grid)
    skeletons = theorem_bound(flags, rep, prof)
    thm = [s for s in skeletons if s.theorem == "Thm1.1"][0]
    assert thm.bound_value == rep.I0_sq  # a(0) = 1 for this profile


def test_variation_bound_strictly_exceeds_floor_quotient():
    grid = make_grid()
    prof = get_profile("example3")
    flags = classify(prof, 100.0)
    rep = bound_constant(get_data("odd-velocity"), prof.a0, grid)
    cor12 = [s for s in theorem_bound(flags, rep, prof) if s.theorem == "Cor1.2"][0]
    assert cor12.bound_value > rep.I0_sq / flags.A0**2


def test_nonvanishing_moment_raises_hypothesis_error():
    grid = make_grid()
    prof = get_profile("const:1")
    flags = classify(prof, 10.0)
    rep = bound_constant(get_data("bump-velocity"), prof.a0, grid)
    with pytest.raises(HypothesisError):
        theorem_bound(flags, rep, prof)


def test_no_applicable_statement_raises():
    grid = make_grid()
    prof = get_profile("const:1")
    rep = bound_constant(get_data("odd-velocity"), prof.a0, grid)
    flags = AssumptionFlags(
        a1_holds=True, a2_holds=False, a3_holds=False, a4_holds=False,
        a_m=1.0, A0=1.0, tv_total=0.0,
    )
    with pytest.raises(WaveboundError):
        theorem_bound(flags, rep, prof)


def test_verify_bound_zero_data(run_cache):
    series = run_cache(profile="const:1", data="bump", data_scale=0.0, t_end=2.0, n_points=501, snapshots=10)
    report = verify_bound(series, BoundReport("Cor1.1", bound_value=1.0, epsilon=0.02))
    assert report.measured_sup == 0.0 and report.passed


def test_growth_regime_violates_a_forced_bound(run_cache):
    # forcing a finite bound on data with nonvanishing moment must fail once
    # the norm has grown past it
    series = run_cache(profile="const:1", data="bump-velocity", t_end=100.0, n_points=2001, snapshots=100)
    forced = BoundReport("Cor1.1", bound_value=bump_constants()["l2_sq"], epsilon=0.02)
    report = verify_bound(series, forced)
    assert not report.passed
    assert report.margin < 0.0


# ---------------------------------------------------------------------------
# growth fitting
# ---------------------------------------------------------------------------


def test_fit_recovers_square_root_growth():
    t = np.linspace(1.0, 100.0, 120)
    series = synthetic_series(t, 0.1 * t)
    fit = fit_growth(series, (1.0, 100.0))
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)
    assert fit.amplitude**2 == pytest.approx(0.1, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_exponent_invariant_under_time_rescaling():
    t = np.linspace(1.0, 100.0, 120)
    values = 0.1 * t
    fit1 = fit_growth(synthetic_series(t, values), (1.0, 100.0))
    fit2 = fit_growth(synthetic_series(3.0 * t, values), (3.0, 300.0))
    assert fit1.exponent == pytest.approx(fit2.exponent, abs=1e-12)


def test_fit_requires_enough_records():
    t = np.linspace(1.0, 10.0, 5)
    with pytest.raises(FitError):
        fit_growth(synthetic_series(t, 0.1 * t), (1.0, 10.0))


def test_fit_rejects_nonpositive_norms():
    t = np.linspace(1.0, 10.0, 20)
    with pytest.raises(FitError):
        fit_growth(synthetic_series(t, np.zeros_like(t)), (1.0, 10.0))


def test_squared_norm_slope():
    t = np.linspace(0.0, 50.0, 60)
    series = synthetic_series(t, 0.25 * t + 3.0)
    assert growth_slope_sq(series, (0.0, 50.0)) == pytest.approx(0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def test_growth_envelope_for_rising_speed(run_cache):
    series = run_cache(profile="example1", data="derivative-velocity", t_end=20.0, n_points=2001, snapshots=100)
    flags = classify(get_profile("example1"), 80.0)
    out = envelope_report(series, flags, 0.02)
    assert out["growth_envelope"]["pass"]
    assert "monotone_envelope" not in out


def test_monotone_envelope_for_decaying_speed(run_cache):
    series = run_cache(profile="example2a", data="odd-velocity", t_end=20.0, n_points=2001, snapshots=100)
    flags = classify(get_profile("example2a"), 80.0)
    out = envelope_report(series, flags, 0.02)
    assert out["monotone_envelope"]["pass"]


# ---------------------------------------------------------------------------
# CSV
# ---------------------------------------------------------------------------


def test_csv_schema_and_round_trip(tmp_path, run_cache):
    series = run_cache(profile="example2a", data="odd-velocity", t_end=2.0, n_points=501, snapshots=5)
    flags = classify(get_profile("example2a"), 8.0)
    rep = bound_constant(get_data("odd-velocity"), 2.0, series.grid)
    bounds = [verify_bound(series, sk) for sk in theorem_bound(flags, rep, get_profile("example2a"))]
    path = tmp_path / "series.csv"
    write_csv(series, str(path), bounds=bounds)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,l2_u_sq,E_u,E_v,l2_vx_sq,a,a_prime,bound_thm11,bound_cor11,bound_cor12"
    cells = lines[1].split(",")
    assert len(cells) == 10
    assert cells[7] == ""  # rising-speed bound does not apply here
    assert float(cells[8]) == pytest.approx(rep.I0_sq, rel=1e-12)
    # full round-trip precision: parsing back reproduces the records exactly
    for line, rec in zip(lines[1:], series.records):
        vals = line.split(",")
        assert float(vals[0]) == rec.t
        assert float(vals[1]) == rec.l2_u_sq
        assert float(vals[3]) == rec.E_v
