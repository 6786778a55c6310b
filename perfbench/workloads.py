"""The benchmark's workloads: the CLI jobs each one runs, made from a seed.

Seed 0 reproduces the acceptance / README configs exactly (data_scale 1,
data_shift 0). Any other seed draws one (data_scale, data_shift) pair from
[0.5, 2] x [-0.5, 0.5] and gives it to every job of the workload, so the
``bounds`` workload still needs only one oracle call per pair of data family
and a(0). ``refine`` takes only the scale: its grid spans the support radius
``width + |shift|`` plus a cone of only ``t_end`` 3, so a shift would change
its node-steps by up to 11% from seed to seed. The program receives only the
generated argv. Why each workload exists, and what it measured at the
baseline, is in README.md next to this file; the one-line reasons are in
BENCHMARK.json.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0

# sha256 of series.csv written by (workload, job index) on the default seed.
# series.csv is byte-identical on both kernel backends.
SERIES_SHA256 = {
    ("bounds", 0): "0daf50691e0ec8cfc435cbb54b47bc54bd3266b5994510cd11118c9761b1520d",
}

# relative slack of the oracle cross-check (acceptance criteria 1-3)
BOUND_EPS = 0.02


@dataclass(frozen=True)
class Job:
    """One CLI invocation; the runner appends --out (and --archive)."""

    argv: tuple
    archive: bool = False
    # acceptance criteria 1-3: the bound this profile's regime gives, which
    # the runner recomputes from the oracle I0^2 and compares with the sup
    theorem: str = None


@dataclass(frozen=True)
class Resolved:
    """A job with its config resolved the way the CLI resolves it."""

    job: Job
    config: object
    a0: float


# workloads whose work the shift would change (see the module docstring)
SCALE_ONLY = ("refine",)


def draw(workload: str, seed: int):
    """(data_scale, data_shift) for a seed; seed 0 gives the reference data."""
    if seed == DEFAULT_SEED:
        return 1.0, 0.0
    rng = random.Random(seed)
    scale, shift = rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5)
    return scale, 0.0 if workload in SCALE_ONLY else shift


def _cmd(command, profile, data, t_end, *extra):
    return (command, "--profile", profile, "--data", data, "--t-end", t_end) + extra


def jobs(workload: str, seed: int) -> list:
    """The jobs of one pass, in the order they run."""
    scale, shift = draw(workload, seed)
    if workload == "bounds":
        out = [
            Job(
                _cmd("simulate", "example1", "derivative-velocity", "50", "--n-points", "4001"),
                archive=True,
                theorem="Thm1.1",
            )
        ]
        for profile, theorem in (
            ("example2a", "Cor1.1"),
            ("example2b", "Cor1.1"),
            ("example3", "Cor1.2"),
        ):
            out.append(
                Job(_cmd("verify", profile, "odd-velocity", "100", "--dual-v"), theorem=theorem)
            )
    elif workload == "refine":
        out = [
            Job(
                _cmd("converge", "const:1", "bump", "3", "--n-points", "8001", "--levels", "3")
            )
        ]
    elif workload == "dense":
        out = [
            Job(
                _cmd(
                    "verify", "example1", "derivative-velocity", "50",
                    "--n-points", "8001", "--snapshots", "100000",
                )
            )
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if seed == DEFAULT_SEED:
        return out
    data_args = ("--data-scale", repr(scale), "--data-shift", repr(shift))
    return [Job(j.argv + data_args, j.archive, j.theorem) for j in out]


def resolve(workload: str, seed: int) -> list:
    """Parse every job's argv and build its profile and data, as the CLI does."""
    from wavebound import cli
    from wavebound.coefficients import get_profile
    from wavebound.initial_data import get_data

    parser = cli.build_parser()
    out = []
    for job in jobs(workload, seed):
        config = cli.load_config(parser.parse_args(list(job.argv)))
        profile = get_profile(config.profile)
        get_data(
            config.data,
            scale=config.data_scale,
            shift=config.data_shift,
            width=config.data_width,
        )
        out.append(Resolved(job, config, profile.a0))
    return out


def oracle_key(r: Resolved):
    """(family, scale, shift, width, a(0)) whose I0^2 the job's criterion needs."""
    c = r.config
    return (c.data, c.data_scale, c.data_shift, c.data_width, r.a0)


def oracle_pairs(resolved: list) -> list:
    """Distinct oracle keys among jobs with a criterion, in job order."""
    pairs = []
    for r in resolved:
        if r.job.theorem and oracle_key(r) not in pairs:
            pairs.append(oracle_key(r))
    return pairs
