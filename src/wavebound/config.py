"""Experiment configuration: a flat key-value file plus command-line overrides.

Everything is deterministic; there is no seed. Unknown keys are rejected so
that a config file cannot silently misspell a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from wavebound.errors import ConfigError

MAX_POINTS = 4_000_001
CFL_CEIL = 0.95


@dataclass
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

    def validate(self) -> "ExperimentConfig":
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ConfigError(f"t_end must be finite and >= 0, got {self.t_end}")
        if self.n_points < 65 or self.n_points % 2 == 0:
            raise ConfigError(
                f"n_points must be odd and >= 65, got {self.n_points}"
            )
        if self.n_points > MAX_POINTS:
            raise ConfigError(
                f"n_points={self.n_points} exceeds the memory budget "
                f"({MAX_POINTS} points)"
            )
        if not (0.0 < self.cfl <= CFL_CEIL):
            raise ConfigError(f"cfl must be in (0, {CFL_CEIL}], got {self.cfl}")
        if self.snapshots < 1 or self.snapshots > 100_000:
            raise ConfigError(f"snapshots must be in [1, 100000], got {self.snapshots}")
        if not (0.0 <= self.epsilon_bound < 1.0):
            raise ConfigError(
                f"epsilon_bound must be in [0, 1), got {self.epsilon_bound}"
            )
        if not (self.data_width > 0.0 and math.isfinite(self.data_width)):
            raise ConfigError(f"data_width must be positive, got {self.data_width}")
        if not (math.isfinite(self.data_scale) and math.isfinite(self.data_shift)):
            raise ConfigError("data_scale and data_shift must be finite")
        return self


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
    return ExperimentConfig(**kwargs).validate()


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
