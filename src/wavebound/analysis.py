"""Norms, energies, closed-form bound evaluation and growth fitting.

All quantities are grid-function diagnostics: squared norms by composite
trapezoid, spatial derivatives by centered differences, time derivatives by
centered differences across the three levels a snapshot carries.

Three closed-form bound statements on sup_t of the squared solution norm are
supported, keyed by which monotonicity or variation condition the speed
profile satisfies. The report labels follow the CLI schema: "Thm1.1" for
nondecreasing speeds, "Cor1.1" for nonincreasing speeds with a positive
floor, "Cor1.2" for speeds of integrable variation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple, Optional

import numpy as np

from wavebound.coefficients import AssumptionFlags, CoefficientProfile, evaluate
from wavebound.errors import (
    FitError,
    HypothesisError,
    ProfileError,
    SeriesError,
    WaveboundError,
)
from wavebound.grids import GridSpec, cumtrapz, snapshot_norms, trapz_sq
from wavebound.initial_data import InitialData, MomentReport

BOUND_LABELS = ("Thm1.1", "Cor1.1", "Cor1.2")


class DiagnosticRecord(NamedTuple):
    """One snapshot's diagnostics; the fields are the leading CSV columns."""

    t: float
    l2_u_sq: float
    E_u: float
    E_v: float
    l2_vx_sq: float
    a: float
    a_prime: float


CSV_COLUMNS = DiagnosticRecord._fields + ("bound_thm11", "bound_cor11", "bound_cor12")


@dataclass
class DiagnosticSeries:
    """Per-snapshot records plus run-level diagnostics."""

    records: list
    profile: CoefficientProfile
    data: InitialData
    grid: GridSpec
    recon_max_rel_err: float = 0.0
    cone_ok: bool = True
    dual_v_max_rel_err: Optional[float] = None

    def append(self, record: DiagnosticRecord, recon_err: float):
        """Add a snapshot's record and its reconstruction error.

        Raises SeriesError if the record holds a non-finite diagnostic.
        """
        if not all(math.isfinite(v) for v in record[1:]):
            raise SeriesError(f"non-finite diagnostic at t={record.t}")
        self.records.append(record)
        self.recon_max_rel_err = max(self.recon_max_rel_err, recon_err)

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(rec, name) for rec in self.records])

    @property
    def times(self) -> np.ndarray:
        return self.column("t")

    @property
    def measured_sup(self) -> float:
        """The largest squared norm over the snapshots; the bounds are checked against it."""
        return float(np.max(self.column("l2_u_sq")))


@dataclass
class BoundReport:
    theorem: str
    bound_value: float
    measured_sup: float = math.nan
    margin: float = math.nan
    passed: Optional[bool] = None
    epsilon: float = 0.02

    def to_json_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


@dataclass(frozen=True)
class GrowthFit:
    exponent: float
    amplitude: float
    r_squared: float


def l2_norm_sq(fld: np.ndarray, grid: GridSpec) -> float:
    """Composite trapezoid of the squared field over the grid."""
    fld = np.asarray(fld, dtype=float)
    if fld.shape != (grid.n_points,):
        raise SeriesError(
            f"field length {fld.shape} does not match the grid ({grid.n_points})"
        )
    return trapz_sq(fld, grid.h)


def _record(t, norms, profile: CoefficientProfile):
    """The record and reconstruction error at ``t`` from the six squared norms."""
    a_t, ap_t = evaluate(profile, t)
    l2u, l2ux, l2vx, l2_rec, l2_ut, l2_vt = norms
    e_u = 0.5 * (l2_ut + a_t * a_t * l2ux)
    e_v = 0.5 * (l2_vt + a_t * a_t * l2vx)
    recon = math.sqrt(l2_rec) / max(1.0, math.sqrt(l2u))
    return DiagnosticRecord(t, l2u, e_u, e_v, l2vx, a_t, ap_t), recon


def initial_record(u0, u1, v0, profile: CoefficientProfile, grid: GridSpec):
    """Diagnostic record at t = 0, using the exact initial velocity.

    ``v0`` is the antiderivative (``cumtrapz``) of ``u0``; the time
    derivatives are ``u1`` and its antiderivative. Returns the record and
    the reconstruction error, with no overflow warning: the series rejects a
    non-finite record.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v1 = cumtrapz(u1, grid.h)
    return _record(0.0, snapshot_norms(u0, v0, u1, v1, grid.h), profile)


def snapshot_record(t, norms, profile: CoefficientProfile):
    """The record and reconstruction error at ``t`` from a snapshot pass's norms."""
    return _record(t, norms, profile)


def energy_identity_residual(series: DiagnosticSeries):
    """Residual of dE_v/dt = a a' ||v_x||^2 across consecutive snapshots.

    The time derivative is the forward difference between snapshots and the
    right side is evaluated at the interval midpoint, with the norm factor
    interpolated from the two endpoints. Returns the residual sequence and
    its maximum absolute value.
    """
    if len(series.records) < 3:
        raise SeriesError("need at least 3 records for the energy residual")
    t = series.times
    if np.any(np.diff(t) <= 0.0):
        raise SeriesError("snapshot times must be strictly increasing")
    e_v = series.column("E_v")
    l2vx = series.column("l2_vx_sq")
    t_mid = 0.5 * (t[1:] + t[:-1])
    a_mid = np.asarray(series.profile.a(t_mid), dtype=float)
    ap_mid = np.asarray(series.profile.a_prime(t_mid), dtype=float)
    vx_mid = 0.5 * (l2vx[1:] + l2vx[:-1])
    residuals = np.diff(e_v) / np.diff(t) - a_mid * ap_mid * vx_mid
    return residuals, float(np.max(np.abs(residuals)))


def theorem_bound(
    flags: AssumptionFlags,
    report: MomentReport,
    profile: CoefficientProfile,
    epsilon: float = 0.02,
) -> list:
    """Closed-form bound skeletons for every statement whose hypotheses hold.

    Raises HypothesisError in the growth regime, WaveboundError when no
    statement applies, and ProfileError when a bound is not finite.
    """
    if not report.v1_in_L2:
        raise HypothesisError(
            f"velocity moment c0={report.c0:.6g} does not vanish: the "
            "antiderivative is not square integrable and the norm is "
            "expected to grow"
        )
    if not (flags.a2_holds or flags.a3_holds or flags.a4_holds):
        raise WaveboundError(
            "no bound applies: the profile is neither monotone nor of "
            "integrable variation on the probed horizon"
        )
    # a' <= 0 makes E_v nonincreasing, so a^2 ||u||^2 = a^2 ||v_x||^2 <= 2 E_v(0) = I0^2
    floor_bound = report.I0_sq / (flags.A0 * flags.A0)
    out = []
    if flags.a2_holds:
        a0 = profile.a0
        out.append(BoundReport("Thm1.1", report.I0_sq / (a0 * a0), epsilon=epsilon))
    if flags.a3_holds:
        out.append(BoundReport("Cor1.1", floor_bound, epsilon=epsilon))
    if flags.a4_holds:
        grow = math.exp((2.0 / flags.A0) * flags.tv_total)
        out.append(BoundReport("Cor1.2", floor_bound * grow, epsilon=epsilon))
    for rep in out:
        if not math.isfinite(rep.bound_value):
            # an overflowing bound would pass every check vacuously
            raise ProfileError(
                f"the {rep.theorem} bound overflows (I0^2={report.I0_sq:.6g}, "
                f"a0={profile.a0:.6g}, A0={flags.A0:.6g}): the speed floor is too "
                "small for a finite bound"
            )
    return out


def verify_bound(series: DiagnosticSeries, skeleton: BoundReport) -> BoundReport:
    """Fill a bound skeleton with the measured supremum and the verdict."""
    if not series.records:
        raise SeriesError("empty series")
    measured = series.measured_sup
    return replace(
        skeleton,
        measured_sup=measured,
        margin=skeleton.bound_value - measured,
        passed=measured <= skeleton.bound_value * (1.0 + skeleton.epsilon),
    )


def _window_mask(t: np.ndarray, window, *, positive: bool = False) -> np.ndarray:
    """Records with t in the closed window (and t > 0 if ``positive``).

    Raises FitError for a bad window or fewer than ten records in it.
    """
    lo, hi = window
    if not (hi > lo >= 0.0):
        raise FitError(f"bad fit window {window}")
    mask = (t >= lo) & (t <= hi)
    if positive:
        mask &= t > 0.0
    if int(mask.sum()) < 10:
        raise FitError(
            f"need at least 10 records in the window, found {int(mask.sum())}"
        )
    return mask


def fit_growth(series: DiagnosticSeries, window) -> GrowthFit:
    """Least-squares fit of log ||u|| against log t over the window.

    The exponent is near one half in the growth regime and near zero when
    the norm stays bounded.
    """
    t = series.times
    mask = _window_mask(t, window, positive=True)
    norms_sq = series.column("l2_u_sq")[mask]
    if np.any(norms_sq <= 0.0):
        raise FitError("nonpositive norms in the fit window")
    log_t = np.log(t[mask])
    log_norm = 0.5 * np.log(norms_sq)
    slope, intercept = np.polyfit(log_t, log_norm, 1)
    fitted = slope * log_t + intercept
    ss_res = float(np.sum((log_norm - fitted) ** 2))
    ss_tot = float(np.sum((log_norm - log_norm.mean()) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0.0 else 1.0
    return GrowthFit(
        exponent=float(slope), amplitude=float(math.exp(intercept)), r_squared=r_sq
    )


def growth_slope_sq(series: DiagnosticSeries, window) -> float:
    """Linear least-squares slope of the squared norm against time."""
    t = series.times
    mask = _window_mask(t, window)
    slope, _ = np.polyfit(t[mask], series.column("l2_u_sq")[mask], 1)
    return float(slope)


def envelope_report(series: DiagnosticSeries, flags: AssumptionFlags, epsilon: float) -> dict:
    """Check the energy envelopes of the antiderivative field.

    For nondecreasing speeds the energy may grow at most like the squared
    speed ratio; for nonincreasing speeds with a positive floor it may not
    grow at all. Each applicable envelope is checked at every snapshot.
    """
    e_v = series.column("E_v")
    a_vals = series.column("a")
    e0 = e_v[0]
    out = {}
    if flags.a2_holds:
        budget = e0 * (a_vals / a_vals[0]) ** 2 * (1.0 + epsilon)
        out["growth_envelope"] = {
            "pass": bool(np.all(e_v <= budget)),
            "max_excess": float(np.max(e_v - budget)),
        }
    if flags.a3_holds:
        budget = e0 * (1.0 + epsilon)
        out["monotone_envelope"] = {
            "pass": bool(np.all(e_v <= budget)),
            "max_excess": float(np.max(e_v - budget)),
        }
    return out


def write_csv(series: DiagnosticSeries, path: str, bounds: Optional[list] = None):
    """Write the time series in the documented column order.

    Bound columns repeat the run-level bound value on every row; bounds whose
    hypotheses do not hold are emitted as empty fields. Floats use full
    round-trip precision.
    """
    by_label = {rep.theorem: repr(rep.bound_value) for rep in bounds or []}
    bound_cells = [by_label.get(label, "") for label in BOUND_LABELS]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for rec in series.records:
            fh.write(",".join([*map(repr, rec), *bound_cells]) + "\n")
