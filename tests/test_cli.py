import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import read_archive
from wavebound import solver
from wavebound.cli import _collect_passes, _experiment, build_parser, load_config, main
from wavebound.coefficients import get_profile
from wavebound.config import (
    CFL_CEIL,
    MAX_POINTS,
    ExperimentConfig,
    config_from_mapping,
    parse_config_file,
)
from wavebound.errors import CapacityError, ConfigError
from wavebound.initial_data import get_data
from wavebound.kernels import BACKEND
from wavebound.solver import MIN_DATA_CELLS, init_grid


def run_cli(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_defaults_validate():
    ExperimentConfig().validate()


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="t_endd"):
        config_from_mapping({"t_endd": "3"})


@pytest.mark.parametrize(
    "field,value",
    [
        ("t_end", -1.0),
        ("n_points", 64),
        ("n_points", 100),
        ("cfl", 1.1),
        ("cfl", 0.0),
        ("snapshots", 0),
        ("epsilon_bound", -0.1),
        ("data_width", 0.0),
        # a NaN fails every range check, whatever the field's type
        ("t_end", math.nan),
        ("n_points", math.nan),
        ("cfl", math.nan),
        # max(t_end, 1) / cfl overflows
        ("cfl", 1e-310),
        ("snapshots", math.nan),
        ("epsilon_bound", math.nan),
        ("data_width", math.nan),
        ("data_scale", math.inf),
        ("data_shift", math.nan),
    ],
)
def test_out_of_range_fields_rejected(field, value):
    with pytest.raises(ConfigError, match=field):
        config_from_mapping({field: value})


def test_over_budget_is_a_capacity_error_and_a_config_error():
    with pytest.raises(CapacityError, match="exceeds the memory budget") as info:
        config_from_mapping({"n_points": MAX_POINTS + 2})
    assert isinstance(info.value, ConfigError)


def test_config_is_frozen_and_checked_on_replace():
    cfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.t_end = -1.0
    with pytest.raises(ConfigError, match="t_end"):
        dataclasses.replace(cfg, t_end=math.nan)


_SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 5e-324]
_T_END = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(_SPECIAL))
_CFL = st.one_of(
    st.floats(-2.0, 2.0),
    st.sampled_from(_SPECIAL + [CFL_CEIL, math.nextafter(CFL_CEIL, 1.0), 1e-310]),
)
_N_POINTS = st.one_of(
    st.integers(-3, 200),
    st.sampled_from(
        [-65, 0, 63, 64, 65, 66, MAX_POINTS - 1, MAX_POINTS, MAX_POINTS + 1, MAX_POINTS + 2, 10**12]
    ),
)
_DATA_PARAM = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_SPECIAL))


def _outcome(build):
    """None when ``build()`` succeeds, else its (exception class, message).

    A RuntimeWarning is raised, so it shows up as an outcome of its own.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            build()
        except Exception as exc:
            return type(exc), str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(t_end=_T_END, cfl=_CFL, n_points=_N_POINTS)
def test_grid_rules_agree_across_entry_points(t_end, cfl, n_points):
    data, profile = get_data("bump"), get_profile("const:1")
    by_config = _outcome(lambda: ExperimentConfig(t_end=t_end, cfl=cfl, n_points=n_points))
    by_grid = _outcome(lambda: init_grid(data, profile, t_end, cfl=cfl, n_points=n_points))
    assert by_config == by_grid
    assert by_config is None or issubclass(by_config[0], ConfigError)


@settings(max_examples=300, deadline=None)
@given(
    family=st.sampled_from(["bump", "bump-velocity", "odd-velocity", "derivative-velocity"]),
    scale=_DATA_PARAM,
    shift=_DATA_PARAM,
    width=_DATA_PARAM,
)
def test_data_rules_agree_across_entry_points(family, scale, shift, width):
    by_config = _outcome(
        lambda: ExperimentConfig(data=family, data_scale=scale, data_shift=shift, data_width=width)
    )
    by_data = _outcome(lambda: get_data(family, scale=scale, shift=shift, width=width))
    assert by_config == by_data
    assert by_config is None or issubclass(by_config[0], ConfigError)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# growth experiment\n"
        "profile = const:1\n"
        "data = odd-velocity\n"
        "t_end = 4  # short\n"
        "n_points = 501\n"
    )
    mapping = parse_config_file(str(path))
    cfg = config_from_mapping(mapping)
    assert cfg.profile == "const:1" and cfg.t_end == 4.0 and cfg.n_points == 501


def test_config_file_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("t_end 4\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(path))


def test_cli_overrides_config_file(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("profile = const:1\ndata = odd-velocity\nt_end = 2\nn_points = 501\nsnapshots = 5\n")
    out = tmp_path / "out"
    code = run_cli("simulate", "--config", str(path), "--t-end", "3", "--out", str(out))
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["t_end"] == 3.0
    assert summary["config"]["profile"] == "const:1"


# every config field, the flag that sets it and a value other than the default
FIELD_FLAGS = {
    "profile": ("--profile", "example3"),
    "data": ("--data", "odd-velocity"),
    "data_scale": ("--data-scale", 1.5),
    "data_shift": ("--data-shift", -0.25),
    "data_width": ("--data-width", 0.5),
    "t_end": ("--t-end", 3.0),
    "n_points": ("--n-points", 801),
    "cfl": ("--cfl", 0.5),
    "snapshots": ("--snapshots", 7),
    "epsilon_bound": ("--epsilon", 0.05),
    "output_dir": ("--out", "elsewhere"),
}


@pytest.mark.parametrize("command", ["simulate", "verify", "converge", "growth"])
def test_every_config_field_is_set_by_its_flag(command):
    assert set(FIELD_FLAGS) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    parser = build_parser()
    argv = [command]
    for flag, value in FIELD_FLAGS.values():
        argv += [flag, str(value)]
    expected = ExperimentConfig(**{name: value for name, (_, value) in FIELD_FLAGS.items()})
    assert load_config(parser.parse_args(argv)) == expected
    # each flag alone changes its field only
    for name, (flag, value) in FIELD_FLAGS.items():
        config = load_config(parser.parse_args([command, flag, str(value)]))
        assert config == dataclasses.replace(ExperimentConfig(), **{name: value})


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_writes_series_and_summary(tmp_path, capsys):
    out = tmp_path / "sim"
    code = run_cli(
        "simulate",
        "--profile", "example1",
        "--data", "derivative-velocity",
        "--t-end", "10",
        "--n-points", "1001",
        "--snapshots", "20",
        "--out", str(out),
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["moment"]["v1_in_L2"] is True
    labels = {b["theorem"]: b["pass"] for b in summary["bounds"]}
    assert labels["Thm1.1"] is True
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0].startswith("t,l2_u_sq,E_u,E_v,l2_vx_sq,a,a_prime,")
    assert len(lines) == 1 + 20
    echoed = json.loads(capsys.readouterr().out)
    assert echoed["measured_sup"] == summary["measured_sup"]


def test_simulate_growth_regime_reports_exponent(tmp_path):
    out = tmp_path / "growth"
    code = run_cli(
        "simulate",
        "--profile", "const:1",
        "--data", "bump-velocity",
        "--t-end", "80",
        "--n-points", "2001",
        "--out", str(out),
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["hypothesis_violation"] is True
    assert summary["bounds"] == []
    assert summary["growth"]["exponent"] == pytest.approx(0.5, abs=0.08)


def test_simulate_zero_horizon_single_record(tmp_path):
    out = tmp_path / "zero"
    code = run_cli("simulate", "--profile", "const:1", "--data", "bump", "--t-end", "0", "--out", str(out))
    assert code == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert len(lines) == 2


def test_simulate_archive(tmp_path):
    out = tmp_path / "arch"
    # written at exactly the path given: np.save adds no ".npy" to a handle
    archive = tmp_path / "snapshots.txt"
    code = run_cli(
        "simulate", "--profile", "const:1", "--data", "bump",
        "--t-end", "1", "--n-points", "501", "--snapshots", "4",
        "--out", str(out), "--archive", str(archive),
    )
    assert code == 0
    records = read_archive(archive)
    rows = (out / "series.csv").read_text().splitlines()[1:]
    assert len(records) == len(rows) == 4
    for rec, row in zip(records, rows):
        assert rec.dtype == np.float64 and rec.shape == (502,)
        assert rec[0] == float(row.split(",")[0])
    grid = init_grid(get_data("bump"), get_profile("const:1"), 1.0, n_points=501)
    u0 = np.asarray(get_data("bump").u0(grid.x), dtype=float)
    assert np.array_equal(records[0][1:].view(np.int64), u0.view(np.int64))


def test_invalid_cfl_fails_before_running(tmp_path, capsys):
    out = tmp_path / "never"
    code = run_cli("simulate", "--cfl", "1.1", "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert "cfl" in capsys.readouterr().err


def test_subnormal_cfl_fails_before_running(tmp_path, capsys):
    # 1 / cfl overflows: the grid would be NaN at t_end 0 and infinite after
    out = tmp_path / "never"
    argv = ("simulate", "--t-end", "0", "--cfl", "1e-310", "--n-points", "65", "--out", str(out))
    assert run_cli(*argv) == 2
    assert not out.exists()
    assert "cfl 1e-310 is too small" in capsys.readouterr().err


def test_under_resolved_data_is_a_config_error(tmp_path, capsys):
    # width 0.25 spans 1.16 cells at 65 points: rejected, not run and failed
    argv = ("verify", "--profile", "const:1", "--data", "odd-velocity", "--t-end", "5",
            "--data-width", "0.25", "--out", str(tmp_path / "v"))
    assert run_cli(*argv, "--n-points", "65") == 2
    assert "data_width" in capsys.readouterr().err
    # 4.6 cells at 257 points: every check passes
    assert run_cli(*argv, "--n-points", "257") == 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_for_decaying_profile(tmp_path):
    out = tmp_path / "ver"
    code = run_cli(
        "verify",
        "--profile", "example2a",
        "--data", "odd-velocity",
        "--t-end", "10",
        "--n-points", "1001",
        "--snapshots", "40",
        "--dual-v",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "verify.json").read_text())
    checks = payload["checks"]
    assert checks["cone"]["pass"] and checks["reconstruction"]["pass"]
    assert checks["energy_identity"]["pass"] and checks["dual_v"]["pass"]
    assert checks["envelopes"]["monotone_envelope"]["pass"]
    assert {b["theorem"] for b in payload["bounds"]} == {"Cor1.1", "Cor1.2"}
    assert all(b["pass"] for b in payload["bounds"])


def test_verify_oscillating_profile_uses_variation_bound(tmp_path):
    out = tmp_path / "ver3"
    code = run_cli(
        "verify",
        "--profile", "example3",
        "--data", "odd-velocity",
        "--t-end", "10",
        "--n-points", "1001",
        "--snapshots", "40",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "verify.json").read_text())
    assert [b["theorem"] for b in payload["bounds"]] == ["Cor1.2"]
    assert payload["bounds"][0]["pass"] is True
    assert "envelopes" not in payload["checks"] or payload["checks"]["envelopes"] == {}


def test_verify_zero_horizon_with_dual_v(tmp_path):
    out = tmp_path / "zero"
    argv = ("verify", "--profile", "const:1", "--data", "bump", "--t-end", "0", "--dual-v")
    assert run_cli(*argv, "--out", str(out)) == 0
    dual_v = json.loads((out / "verify.json").read_text())["checks"]["dual_v"]
    assert dual_v["max_rel_err"] == 0.0 and dual_v["pass"] is True


def test_decaying_speed_bound_divides_by_the_speed_floor(tmp_path):
    # a^2 ||u||^2 <= 2 E_v(t) <= 2 E_v(0) = I0^2: the bound is I0^2 / A0^2,
    # which displacement-only data reach at t = 0
    out = tmp_path / "slow"
    argv = ("verify", "--profile", "const:0.5", "--data", "bump", "--t-end", "2",
            "--n-points", "401", "--out", str(out))
    assert run_cli(*argv) == 0
    payload = json.loads((out / "verify.json").read_text())
    bounds = {b["theorem"]: b for b in payload["bounds"]}
    assert bounds["Cor1.1"]["bound_value"] == payload["moment"]["I0_sq"] / 0.25
    assert bounds["Cor1.1"]["pass"] is True


def test_speed_whose_square_underflows_is_rejected(tmp_path, capsys):
    argv = ("verify", "--profile", "const:1e-200", "--data", "odd-velocity", "--t-end", "1")
    assert run_cli(*argv, "--out", str(tmp_path / "v")) == 2
    assert "constant speed must be positive" in capsys.readouterr().err


def test_speed_whose_square_overflows_is_rejected(tmp_path, capsys):
    argv = ("verify", "--profile", "const:1e200", "--data", "odd-velocity", "--t-end", "1")
    assert run_cli(*argv, "--n-points", "201", "--out", str(tmp_path / "v")) == 2
    assert "constant speed must be positive with a finite nonzero square" in capsys.readouterr().err


def test_bound_that_overflows_is_an_error(tmp_path, capsys):
    # a0^2 = 1e-320 is subnormal: I0^2 / a0^2 overflows and would pass vacuously
    argv = ("verify", "--profile", "const:1e-160", "--data", "odd-velocity", "--t-end", "1")
    assert run_cli(*argv, "--n-points", "201", "--out", str(tmp_path / "v")) == 2
    err = capsys.readouterr().err
    assert "bound overflows" in err and "a0=1e-160" in err and "A0=1e-160" in err


def test_exit_status_reflects_pass_fields(tmp_path, capsys):
    assert _collect_passes({"a": {"pass": True}, "b": [{"pass": True}]}) == [True, True]
    assert False in _collect_passes({"deep": {"x": [{"pass": False}], "pass": True}})
    from wavebound.cli import _emit

    assert _emit({"checks": {"pass": True}}, str(tmp_path / "ok.json")) == 0
    assert _emit({"checks": [{"pass": False}]}, str(tmp_path / "bad.json")) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_reports_second_order(tmp_path):
    out = tmp_path / "conv"
    code = run_cli(
        "converge",
        "--profile", "const:1",
        "--data", "bump",
        "--t-end", "2",
        "--n-points", "501",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "converge.json").read_text())
    assert payload["pass"] is True
    assert payload["observed_order"] == pytest.approx(2.0, abs=0.2)
    assert len(payload["levels"]) == 3


def test_converge_speed_rescaling(tmp_path):
    out = tmp_path / "conv2"
    code = run_cli(
        "converge",
        "--profile", "const:2",
        "--data", "bump",
        "--t-end", "2",
        "--n-points", "501",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "converge.json").read_text())
    assert payload["observed_order"] == pytest.approx(2.0, abs=0.2)


def test_converge_rejects_too_few_levels(tmp_path, capsys):
    code = run_cli("converge", "--levels", "1", "--out", str(tmp_path / "x"))
    assert code == 2


def test_converge_checks_every_level_before_running_any(tmp_path, capsys, monkeypatch):
    ran = []

    def evolve_final(config):
        ran.append(config.n_points)
        raise AssertionError(f"level n_points={config.n_points} ran")

    monkeypatch.setattr(solver, "evolve_final", evolve_final)
    # the third level has 8000001 nodes, over the memory budget
    code = run_cli(
        "converge", "--profile", "const:1", "--t-end", "10", "--n-points", "2000001",
        "--levels", "3", "--out", str(tmp_path / "x"),
    )
    assert code == 2 and ran == []
    assert "n_points=8000001 exceeds the memory budget" in capsys.readouterr().err


def test_converge_requires_constant_profile(tmp_path, capsys):
    code = run_cli("converge", "--profile", "example1", "--out", str(tmp_path / "x"))
    assert code == 2
    assert "const" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# growth
# ---------------------------------------------------------------------------


def test_growth_command_compares_against_oracle(tmp_path):
    out = tmp_path / "gr"
    code = run_cli(
        "growth",
        "--profile", "const:1",
        "--data", "bump-velocity",
        "--t-end", "120",
        "--n-points", "4001",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "growth.json").read_text())
    assert payload["growth"]["exponent"] == pytest.approx(0.5, abs=0.05)
    oracle = payload["oracle"]
    assert oracle["method"] == "moment-closed-form"
    assert oracle["pass"] is True
    assert oracle["slope_rel_diff"] <= 0.10


def _reject_constant(name):
    raise ValueError(f"non-standard JSON token {name}")


@pytest.mark.parametrize("command,name", [("simulate", "summary.json"), ("growth", "growth.json")])
def test_growth_regime_json_is_strict(tmp_path, capsys, command, name):
    out = tmp_path / command
    code = run_cli(
        command, "--profile", "const:1", "--data", "bump-velocity", "--t-end", "5",
        "--n-points", "501", "--out", str(out),
    )
    assert code == 0
    # parse_constant sees NaN, Infinity and -Infinity, and nothing else
    payload = json.loads((out / name).read_text(), parse_constant=_reject_constant)
    moment = payload["moment"]
    assert moment["v1_in_L2"] is False
    assert moment["I0_sq"] is None and moment["v1_l2_sq"] is None


# ---------------------------------------------------------------------------
# reproducibility
# ---------------------------------------------------------------------------


def test_summary_config_round_trips_to_identical_csv(tmp_path):
    out1 = tmp_path / "first"
    code = run_cli(
        "simulate", "--profile", "example3", "--data", "odd-velocity",
        "--t-end", "5", "--n-points", "801", "--snapshots", "30", "--out", str(out1),
    )
    assert code == 0
    summary = json.loads((out1 / "summary.json").read_text())
    cfg = config_from_mapping(summary["config"])
    out2 = tmp_path / "second"
    cfg2 = config_from_mapping({**summary["config"], "output_dir": str(out2)})
    from wavebound.cli import cmd_simulate

    assert cmd_simulate(cfg2) == 0
    assert (out1 / "series.csv").read_bytes() == (out2 / "series.csv").read_bytes()


# series.csv of the reference simulate job below; perfbench/workloads.py
# records the same digest for the benchmark's first job
REFERENCE_SERIES_SHA256 = "0daf50691e0ec8cfc435cbb54b47bc54bd3266b5994510cd11118c9761b1520d"


def test_reference_series_csv_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "ref"
    code = run_cli(
        "simulate", "--profile", "example1", "--data", "derivative-velocity",
        "--t-end", "50", "--n-points", "4001", "--out", str(out),
    )
    assert code == 0
    digest = hashlib.sha256((out / "series.csv").read_bytes()).hexdigest()
    assert digest == REFERENCE_SERIES_SHA256


# example3 / bump with one snapshot per step: every record from the kernel's
# snapshot pass, pinned below by test_dense_snapshot_series_csv_is_byte_identical
DENSE_SERIES_SHA256 = "27dede99000af03df5b2dc71f6f1a5790085280a67f0aa363b04ea67e603c36c"


def test_series_csv_is_byte_identical_on_both_backends(tmp_path, compiled_root, numpy_root):
    # the backend follows from whether the package holds the built library;
    # each job is (arguments, series.csv sha256, archive sha256 or None)
    jobs = {
        "reference": (
            ["--profile", "example1", "--data", "derivative-velocity", "--t-end", "50",
             "--n-points", "4001"],
            REFERENCE_SERIES_SHA256,
            None,
        ),
        "dense": (
            ["--profile", "example3", "--data", "bump", "--t-end", "20", "--n-points", "1001",
             "--snapshots", "100000"],
            DENSE_SERIES_SHA256,
            None,
        ),
        # 226 steps, one snapshot every two: each snapshot reuses the
        # antiderivative of the level before it from the previous pass. The
        # archive's 114 records equal, bit for bit, those of the earlier
        # text archive
        "every-other": (
            ["--profile", "example3", "--data", "bump", "--t-end", "5", "--n-points", "501",
             "--snapshots", "114"],
            "663cb6fff2f78536433e70a072534a4759bdf014bbc82fdc6a424009ebac912d",
            "9f7b6b5f070e500658cf0b686d21b7533859df3249d460e81fe0a7b62677861e",
        ),
    }
    for job, (args, digest, archive_digest) in jobs.items():
        digests, archives = {}, {}
        for backend, root in (("python", numpy_root), ("compiled", compiled_root)):
            out = tmp_path / job / backend
            extra = ["--archive", str(out / "archive.npy")] if archive_digest else []
            env = dict(os.environ, PYTHONPATH=str(root))
            subprocess.run(
                [sys.executable, "-m", "wavebound.cli", "simulate", *args, *extra,
                 "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
            assert summary["backend"] == backend
            digests[backend] = hashlib.sha256((out / "series.csv").read_bytes()).hexdigest()
            if archive_digest:
                archives[backend] = (out / "archive.npy").read_bytes()
        assert digests == {"python": digest, "compiled": digest}, job
        if archive_digest:
            assert archives["python"] == archives["compiled"], job
            assert hashlib.sha256(archives["python"]).hexdigest() == archive_digest, job


# series.csv of example3 / bump on 1001 nodes (485 steps), recorded with the
# earlier snapshot loop, which stepped a scratch level and took three
# cumulative trapezoids per snapshot: 100000 snapshots give one per step,
# 249 mix gaps of one step (the antiderivatives are passed along) and two
# steps (they are recomputed)
@pytest.mark.parametrize(
    "snapshots,digest",
    [
        ("100000", DENSE_SERIES_SHA256),
        ("249", "01c92496a797f92b8b852cffafac9903e90baf65c8994f0d13e3b08078fec444"),
    ],
)
def test_dense_snapshot_series_csv_is_byte_identical(tmp_path, capsys, snapshots, digest):
    out = tmp_path / "dense"
    code = run_cli(
        "simulate", "--profile", "example3", "--data", "bump", "--t-end", "20",
        "--n-points", "1001", "--snapshots", snapshots, "--out", str(out),
    )
    assert code == 0
    assert hashlib.sha256((out / "series.csv").read_bytes()).hexdigest() == digest


# values recorded with the earlier snapshot loop, which stepped the dual field
# to each snapshot and one step past it: one snapshot per step, and 333
# snapshots of scaled, shifted data, whose gaps of one and two steps the dual
# field now takes in one call each
@pytest.mark.parametrize(
    "data,extra,dual_err,recon_err",
    [
        ("odd-velocity", ("--snapshots", "100000"), 3.217879147580317e-14, 0.00047262584574012513),
        (
            "bump",
            ("--snapshots", "333", "--data-scale", "1.37", "--data-shift", "0.21"),
            3.291093532244788e-13,
            0.009919934870972782,
        ),
    ],
    ids=["one-per-step", "mixed-gaps"],
)
def test_dense_dual_v_errors_are_unchanged(tmp_path, capsys, data, extra, dual_err, recon_err):
    out = tmp_path / "dual"
    code = run_cli(
        "verify", "--profile", "example3", "--data", data, "--t-end", "20",
        "--n-points", "1001", *extra, "--dual-v", "--out", str(out),
    )
    assert code == 0
    checks = json.loads((out / "verify.json").read_text())["checks"]
    assert checks["dual_v"]["max_rel_err"] == dual_err
    assert checks["reconstruction"]["max_rel_err"] == recon_err


# sha256 of each JSON output of one small job, with the output directory and
# the backend name blanked out, recorded with the earlier hand-listed JSON
# blocks
@pytest.mark.parametrize(
    "name,argv,digest",
    [
        (
            "summary.json",
            ("simulate", "--profile", "example1", "--data", "derivative-velocity",
             "--t-end", "10", "--n-points", "1001", "--snapshots", "20"),
            "9cf2c60728efdfea809d22fcf3da2e28fa7c0b6c20625c936b94129720a69979",
        ),
        (
            "verify.json",
            ("verify", "--profile", "example2a", "--data", "odd-velocity", "--t-end", "10",
             "--n-points", "1001", "--snapshots", "40", "--dual-v"),
            "fddd60c3ba257ddf09dc8f3d05417693007c20336ab0fae85581576419a6d22b",
        ),
        (
            "converge.json",
            ("converge", "--profile", "const:1", "--data", "bump", "--t-end", "2",
             "--n-points", "501"),
            "1c50b9b4622cb0cdf513b58161d24555b73ede0e42196b705d7c58ae11542d15",
        ),
        (
            "growth.json",
            ("growth", "--profile", "example2b", "--data", "bump-velocity", "--t-end", "40",
             "--n-points", "1001"),
            # growth regime: the infinite I0_sq and v1_l2_sq are written as null
            "fd59be7f6b19f715986b486f457d4df14ec8807da985abfaa9488cc202bbb20b",
        ),
    ],
)
def test_json_output_is_byte_identical(tmp_path, capsys, name, argv, digest):
    out = tmp_path / "job"
    assert run_cli(*argv, "--out", str(out)) == 0
    text = (out / name).read_text(encoding="utf-8").replace(str(out), "")
    text = text.replace(f'"backend": "{BACKEND}"', '"backend": ""')
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@settings(max_examples=40, deadline=None)
@given(
    family=st.sampled_from(["bump", "bump-velocity", "odd-velocity", "derivative-velocity"]),
    profile=st.sampled_from(
        ["const:1", "const:0.5", "const:2", "example1", "example2a", "example2b", "example3"]
    ),
    scale=st.floats(0.1, 5.0),
    shift=st.floats(-2.0, 2.0),
    width=st.floats(0.25, 2.0),
    half_n=st.integers(32, 400),
)
def test_regime_follows_the_exact_moment_and_bounds_pass(
    family, profile, scale, shift, width, half_n
):
    # only bump-velocity has a nonvanishing moment, whatever the shift or grid
    config = ExperimentConfig(
        profile=profile, data=family, data_scale=scale, data_shift=shift,
        data_width=width, t_end=5.0, n_points=2 * half_n + 1, snapshots=50,
    )
    # data spanning fewer than MIN_DATA_CELLS cells are rejected; the
    # discrete solution of resolved data obeys the exact solution's bounds
    h = init_grid(get_data(family, scale, shift, width), get_profile(profile), 5.0,
                  n_points=config.n_points).h
    if width < MIN_DATA_CELLS * h:
        with pytest.raises(ConfigError, match="data_width"):
            _experiment(config)
        return
    ex = _experiment(config)
    bounded = family != "bump-velocity"
    assert ex.report.v1_in_L2 is bounded
    assert ex.hypothesis_violation is not bounded
    assert bool(ex.bounds) is bounded
    assert all(rep.passed for rep in ex.bounds)


def test_trace_patch_targets_are_callable():
    # the benchmark's tracer replaces these module attributes by name
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing._PATCHES:
        target = getattr(importlib.import_module(f"wavebound.{module}"), attr, None)
        assert callable(target), f"wavebound.{module}.{attr}"


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_command_resolves_profile_and_data_once(tmp_path, monkeypatch, capsys, command):
    calls = {"get_profile": 0, "get_data": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # patch every module that bound the functions, wherever they are called from
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("wavebound") or mod is None:
            continue
        for name, fn in (("get_profile", get_profile), ("get_data", get_data)):
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    code = run_cli(
        command, "--profile", "example2a", "--data", "odd-velocity",
        "--t-end", "2", "--n-points", "501", "--snapshots", "10",
        "--out", str(tmp_path / command),
    )
    assert code == 0
    assert calls == {"get_profile": 1, "get_data": 1}
