"""Experiment configuration: a flat key-value file plus command-line overrides.

Everything is deterministic; there is no seed. Unknown keys are rejected so
that a config file cannot silently misspell a field.

Each settings rule is stated here once: ``check_grid`` (also applied by
``solver.init_grid``) and ``check_data`` (also by ``initial_data.get_data``).
A config is checked when it is built, ``dataclasses.replace`` included, so
invalid settings fail there (exit status 2). Every error is a ConfigError;
an ``n_points`` over the memory budget is its subclass CapacityError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from wavebound.errors import CapacityError, ConfigError

MAX_POINTS = 4_000_001
CFL_CEIL = 0.95
# largest cone reach per unit speed, max(t_end, 1) / cfl: the grid's
# arithmetic then stays finite at unit speed with room to spare
MAX_REACH = 1e300


def check_grid(t_end: float, cfl: float, n_points: int) -> None:
    """The grid rules: a finite horizon, a sized grid, a stable cfl that sizes a finite grid."""
    if not (t_end >= 0.0 and math.isfinite(t_end)):
        raise ConfigError(f"t_end must be finite and >= 0, got {t_end}")
    if not (n_points >= 65 and n_points % 2 == 1):
        raise ConfigError(f"n_points must be odd and >= 65, got {n_points}")
    if n_points > MAX_POINTS:
        raise CapacityError(
            f"n_points={n_points} exceeds the memory budget ({MAX_POINTS} points)"
        )
    if not (0.0 < cfl <= CFL_CEIL):
        raise ConfigError(f"cfl must be in (0, {CFL_CEIL}], got {cfl}")
    if not max(t_end, 1.0) / cfl <= MAX_REACH:
        raise ConfigError(
            f"cfl {cfl} is too small: max(t_end, 1) / cfl exceeds {MAX_REACH:g}"
        )


def check_data(scale: float, shift: float, width: float) -> None:
    """The data rules: a finite bump of positive finite width."""
    if not (width > 0.0 and math.isfinite(width)):
        raise ConfigError(f"data_width must be positive, got {width}")
    if not (math.isfinite(scale) and math.isfinite(shift)):
        raise ConfigError("data_scale and data_shift must be finite")


@dataclass(frozen=True)
class ExperimentConfig:
    profile: str = "const:1"
    data: str = "bump"
    data_scale: float = 1.0
    data_shift: float = 0.0
    data_width: float = 1.0
    t_end: float = 10.0
    n_points: int = 4001
    cfl: float = 0.9
    snapshots: int = 200
    epsilon_bound: float = 0.02
    output_dir: str = "out"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        check_grid(self.t_end, self.cfl, self.n_points)
        if not (1 <= self.snapshots <= 100_000):
            raise ConfigError(f"snapshots must be in [1, 100000], got {self.snapshots}")
        if not (0.0 <= self.epsilon_bound < 1.0):
            raise ConfigError(
                f"epsilon_bound must be in [0, 1), got {self.epsilon_bound}"
            )
        check_data(self.data_scale, self.data_shift, self.data_width)


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    kind = _FIELD_TYPES[key]
    if kind in ("float", float):
        return float(raw)
    if kind in ("int", int):
        return int(raw)
    return raw


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    """Build a config from string or typed values, rejecting unknown keys."""
    kwargs = {}
    for key, value in mapping.items():
        name = str(key).strip()
        if name not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {name!r}")
        try:
            kwargs[name] = _coerce(name, value) if isinstance(value, str) else value
        except ValueError:
            raise ConfigError(f"bad value for {name!r}: {value!r}") from None
    return ExperimentConfig(**kwargs)


def parse_config_file(path: str) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment."""
    mapping = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = text.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping
