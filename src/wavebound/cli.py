"""Configuration-driven experiment runner.

Subcommands
-----------
simulate   run one experiment, write the CSV series and a summary JSON
verify     run the invariant suite, exit nonzero on any failing check
converge   grid-refinement study against the closed-form constant-speed
           solution, reports the observed order
growth     simulate plus growth fitting and, for constant speed, the exact
           slope M^2/(2c) of the squared norm

Settings come from a flat ``key = value`` config file plus command-line
overrides; the resolved configuration is echoed into every JSON output, and
re-running a config echoed that way reproduces the CSV byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from wavebound import analysis, solver
from wavebound.coefficients import AssumptionFlags, classify, get_profile, tv_tail_estimate
from wavebound.config import ExperimentConfig, config_from_mapping, parse_config_file
from wavebound.errors import FitError, OracleError, WaveboundError
from wavebound.initial_data import MomentReport, bound_constant, get_data
from wavebound.kernels import BACKEND
from wavebound.oracles import convergence_order, dalembert, growth_slope


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavebound",
        description="Variable-speed 1-D wave equation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--profile", help="speed profile name or const:<value>")
        p.add_argument("--data", help="initial data family name")
        p.add_argument("--data-scale", type=float)
        p.add_argument("--data-shift", type=float)
        p.add_argument("--data-width", type=float)
        p.add_argument("--t-end", type=float)
        p.add_argument("--n-points", type=int)
        p.add_argument("--cfl", type=float)
        p.add_argument("--snapshots", type=int)
        p.add_argument(
            "--epsilon", type=float, dest="epsilon_bound", metavar="EPSILON",
            help="bound check tolerance",
        )
        p.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")

    p_sim = sub.add_parser("simulate", help="run and write CSV + summary JSON")
    add_common(p_sim)
    p_sim.add_argument(
        "--archive",
        help="also write a binary snapshot archive, one .npy array [t, u...] per snapshot",
    )

    p_ver = sub.add_parser("verify", help="run the invariant suite")
    add_common(p_ver)
    p_ver.add_argument(
        "--dual-v",
        action="store_true",
        help="also evolve the antiderivative field by its own equation and compare",
    )

    p_con = sub.add_parser("converge", help="observed order vs the exact solution")
    add_common(p_con)
    p_con.add_argument("--levels", type=int, default=3, help="refinement levels (>= 3)")

    p_gro = sub.add_parser("growth", help="growth fit plus the exact slope oracle")
    add_common(p_gro)
    return parser


def load_config(args) -> ExperimentConfig:
    """The config file's settings, overridden by every flag given.

    Each config field has the flag whose destination is the field's name.
    """
    mapping = parse_config_file(args.config) if args.config else {}
    for f in dataclasses.fields(ExperimentConfig):
        value = getattr(args, f.name)
        if value is not None:
            mapping[f.name] = value
    return config_from_mapping(mapping)


# ---------------------------------------------------------------------------
# shared pipeline
# ---------------------------------------------------------------------------


class Experiment(NamedTuple):
    """One run with its classification, moment report and bound verdicts."""

    series: analysis.DiagnosticSeries
    flags: AssumptionFlags
    horizon: float
    report: MomentReport
    # checked bounds; empty in the growth regime
    bounds: list

    @property
    def hypothesis_violation(self) -> bool:
        return not self.report.v1_in_L2


def _experiment(config: ExperimentConfig, archive_path=None, dual_v=False) -> Experiment:
    series = solver.run(config, archive_path=archive_path, dual_v_check=dual_v)
    horizon = max(4.0 * config.t_end, 1.0)
    flags = classify(series.profile, horizon)
    report = bound_constant(series.data, series.profile.a0, series.grid)
    bounds = []
    if report.v1_in_L2:
        skeletons = analysis.theorem_bound(
            flags, report, series.profile, epsilon=config.epsilon_bound
        )
        bounds = [analysis.verify_bound(series, sk) for sk in skeletons]
    return Experiment(series, flags, horizon, report, bounds)


def _growth_section(config, series):
    window = (config.t_end / 4.0, config.t_end)
    try:
        fit = analysis.fit_growth(series, window)
        slope = analysis.growth_slope_sq(series, window)
    except FitError:
        return None
    return {"window": list(window), **dataclasses.asdict(fit), "sq_norm_slope": slope}


def _summary_dict(config, ex: Experiment, growth=False):
    """The blocks every summary shares; ``growth`` also in the bounded regime."""
    series = ex.series
    moment = dataclasses.asdict(ex.report)
    if not ex.report.v1_in_L2:
        # infinite, as v1_in_L2 says; strict JSON has no token for it
        moment.update(v1_l2_sq=None, I0_sq=None)
    summary = {
        "config": dataclasses.asdict(config),
        "backend": BACKEND,
        "grid": dataclasses.asdict(series.grid),
        "classification": {
            **dataclasses.asdict(ex.flags),
            "horizon": ex.horizon,
            "tv_tail_estimate": tv_tail_estimate(series.profile, ex.horizon),
        },
        "moment": moment,
        "measured_sup": series.measured_sup,
        "hypothesis_violation": ex.hypothesis_violation,
        "bounds": [rep.to_json_dict() for rep in ex.bounds],
    }
    if growth or ex.hypothesis_violation:
        summary["growth"] = _growth_section(config, series)
    return summary


def _collect_passes(obj):
    found = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "pass" and isinstance(value, bool):
                found.append(value)
            else:
                found.extend(_collect_passes(value))
    elif isinstance(obj, list):
        for item in obj:
            found.extend(_collect_passes(item))
    return found


def _emit(payload: dict, path: str) -> int:
    """Write strict JSON (no NaN or Infinity), echo it, derive the exit status."""
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    return 0 if all(_collect_passes(payload)) else 1


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_simulate(config: ExperimentConfig, archive: str = None) -> int:
    os.makedirs(config.output_dir, exist_ok=True)
    ex = _experiment(config, archive_path=archive)
    summary = _summary_dict(config, ex)
    csv_path = os.path.join(config.output_dir, "series.csv")
    analysis.write_csv(ex.series, csv_path, bounds=ex.bounds)
    summary["csv"] = csv_path
    return _emit(summary, os.path.join(config.output_dir, "summary.json"))


def cmd_verify(config: ExperimentConfig, dual_v: bool = False) -> int:
    os.makedirs(config.output_dir, exist_ok=True)
    ex = _experiment(config, dual_v=dual_v)
    series = ex.series
    grid = series.grid
    eps = config.epsilon_bound

    # engineering gates for the discretization checks: the identities are
    # second order, so the tolerances scale with h^2 (and the snapshot
    # spacing for the energy identity), with a generous constant
    width = config.data_width
    field_tol = max(25.0 * (grid.h / width) ** 2, 1e-9)
    checks = {
        "cone": {"pass": series.cone_ok},
        "reconstruction": {
            "max_rel_err": series.recon_max_rel_err,
            "tol": field_tol,
            "pass": series.recon_max_rel_err <= field_tol,
        },
    }

    if len(series.records) >= 3:
        residuals, res_max = analysis.energy_identity_residual(series)
        spacing = float(np.max(np.diff(series.times)))
        e_scale = max(1.0, float(np.max(np.abs(series.column("E_v")))))
        res_tol = 25.0 * e_scale * (spacing**2 + (grid.h / width) ** 2)
        checks["energy_identity"] = {
            "max_abs_residual": res_max,
            "tol": res_tol,
            "pass": res_max <= res_tol,
        }

    if ex.report.v1_in_L2:
        checks["envelopes"] = analysis.envelope_report(series, ex.flags, eps)

    if dual_v:
        checks["dual_v"] = {
            "max_rel_err": series.dual_v_max_rel_err,
            "tol": field_tol,
            "pass": series.dual_v_max_rel_err <= field_tol,
        }

    payload = _summary_dict(config, ex)
    payload["checks"] = checks
    return _emit(payload, os.path.join(config.output_dir, "verify.json"))


def cmd_converge(config: ExperimentConfig, levels: int = 3) -> int:
    if levels < 3:
        raise WaveboundError(f"need at least 3 refinement levels, got {levels}")
    if not config.profile.strip().lower().startswith("const:"):
        raise OracleError(
            "the exact-solution oracle needs a constant profile (const:<value>)"
        )
    speed = get_profile(config.profile).a0
    os.makedirs(config.output_dir, exist_ok=True)
    data = get_data(
        config.data,
        scale=config.data_scale,
        shift=config.data_shift,
        width=config.data_width,
    )
    # every level's config is checked before any level runs
    refined = [
        dataclasses.replace(config, n_points=(config.n_points - 1) * 2**k + 1)
        for k in range(levels)
    ]
    rows = []
    for level in refined:
        grid, u_num = solver.evolve_final(level)
        u_exact = dalembert(data, config.t_end, grid.x, speed=speed)
        err = math.sqrt(analysis.l2_norm_sq(u_num - u_exact, grid))
        rows.append({"n_points": level.n_points, "h": grid.h, "l2_error": err})
    order = convergence_order([(row["h"], row["l2_error"]) for row in rows])
    payload = {
        "config": dataclasses.asdict(config),
        "backend": BACKEND,
        "levels": rows,
        "observed_order": order,
        "expected_order": 2.0,
        "order_window": 0.2,
        "pass": abs(order - 2.0) <= 0.2,
    }
    return _emit(payload, os.path.join(config.output_dir, "converge.json"))


def cmd_growth(config: ExperimentConfig) -> int:
    os.makedirs(config.output_dir, exist_ok=True)
    ex = _experiment(config)
    payload = _summary_dict(config, ex, growth=True)
    growth = payload["growth"]

    oracle_section = None
    if config.profile.strip().lower().startswith("const:"):
        result = growth_slope(ex.series.data, speed=ex.series.profile.a0)
        oracle_section = dataclasses.asdict(result)
        if growth is not None and ex.hypothesis_violation and result.value > 0:
            rel = abs(growth["sq_norm_slope"] - result.value) / result.value
            oracle_section["slope_rel_diff"] = rel
            oracle_section["pass"] = rel <= 0.10
    payload["oracle"] = oracle_section
    return _emit(payload, os.path.join(config.output_dir, "growth.json"))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        if args.command == "simulate":
            return cmd_simulate(config, archive=args.archive)
        if args.command == "verify":
            return cmd_verify(config, dual_v=args.dual_v)
        if args.command == "converge":
            return cmd_converge(config, levels=args.levels)
        if args.command == "growth":
            return cmd_growth(config)
        parser.error(f"unknown command {args.command!r}")
    except WaveboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
