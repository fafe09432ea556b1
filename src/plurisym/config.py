"""Strict JSON run configuration: schema validation with full defaulting.

The config is JSON-shaped with four nested sections (initial, flow,
tolerances, output/format at top level).  Parsing is strict: unknown keys are
rejected at every level, every numeric field is range-checked, and error
messages name the offending key by its dotted path so a failing run can be
fixed from the message alone.  A minimal ``{"dimension": 2}`` resolves every
other field from the default table.

Each numeric setting is declared once, on its section dataclass field: its
default, its ``[lo, hi]`` range and whether it is an integer.  Sections check
those declarations whenever they are built, from JSON or from Python.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Optional

from .errors import ConfigError

__all__ = [
    "InitialSettings",
    "FlowConfig",
    "Tolerances",
    "RunConfig",
    "parse_config",
    "DEFAULT_GRID",
    "check_mode_cutoff",
]

DEFAULT_GRID = {2: 16, 3: 8}

INITIAL_TYPES = ("perturbed_flat", "flat_kahler")


def _setting(default, lo, hi, integral: bool = False, path: Optional[str] = None):
    """A numeric setting: its default (``MISSING`` for none), range and type.

    ``path`` is the key that messages name, when it is not ``<section>.<field>``.
    """
    return field(default=default,
                 metadata={"range": (lo, hi), "integral": integral, "path": path})


def _number(val, path: str, lo, hi, integral: bool = False):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path} must be a number, got {val!r}")
    if integral and not isinstance(val, int):
        raise ConfigError(f"{path} must be an integer, got {val!r}")
    if not lo <= val <= hi:
        raise ConfigError(f"{path} must lie in [{lo}, {hi}], got {val}")
    return int(val) if integral else float(val)


def check_mode_cutoff(value, points: int) -> int:
    """Check initial.mode_cutoff against the dealias band ``points // 3`` of the grid."""
    return _number(value, "initial.mode_cutoff", 1, points // 3, integral=True)


def _check(section, prefix: str) -> None:
    """Check and convert every declared setting of a section, in field order."""
    for f in fields(section):
        meta = f.metadata
        if "range" in meta:
            setattr(section, f.name, _number(getattr(section, f.name),
                                             meta["path"] or prefix + f.name,
                                             *meta["range"], meta["integral"]))


@dataclass
class InitialSettings:
    """Initial data selection.

    ``flat_kahler`` starts from the exactly flat torus state (a fixed point
    of the flow); epsilon, seed and mode_cutoff only shape ``perturbed_flat``
    data.  The range of mode_cutoff is the dealias band of the grid, so
    ``check_mode_cutoff`` checks it where the grid is known.
    """

    type: str = "perturbed_flat"
    epsilon: float = _setting(0.05, 0.0, 0.999)
    seed: int = _setting(42, 0, 2 ** 64 - 1, integral=True)
    mode_cutoff: int = 2

    def __post_init__(self):
        if self.type not in INITIAL_TYPES:
            raise ConfigError(
                f"initial.type must be one of {', '.join(INITIAL_TYPES)}, got {self.type!r}"
            )
        _check(self, "initial.")


@dataclass
class FlowConfig:
    """Integrator parameters; ``constraint_abort`` is the config's tolerances key."""

    dt: float = _setting(1e-4, 1e-12, 1.0)
    steps: int = _setting(2000, 0, 10 ** 7, integral=True)
    sample_every: int = _setting(5, 1, 10 ** 6, integral=True)
    safety: float = _setting(0.25, 1e-6, 1.0)
    constraint_abort: float = _setting(1e-3, 1e-16, 1e6,
                                       path="tolerances.constraint_abort")
    collect_states: bool = False

    def __post_init__(self):
        _check(self, "flow.")


@dataclass
class Tolerances:
    """Pass/fail tolerances of the analysis reports."""

    beta_residual: float = _setting(1e-8, 1e-16, 1.0)
    identity_rel: float = _setting(1e-4, 1e-16, 1.0)
    resolution_guard: float = _setting(5e-3, 1e-16, 1.0)
    fit_residual: float = _setting(1e-6, 1e-16, 1.0)
    a0_rel: float = _setting(1e-10, 1e-16, 1.0)
    a1_rel: float = _setting(1e-3, 1e-16, 1.0)
    a2_rel: float = _setting(1e-6, 1e-16, 1.0)

    def __post_init__(self):
        _check(self, "tolerances.")


@dataclass
class RunConfig:
    """A whole run; the default grid is ``DEFAULT_GRID[dimension]``."""

    dimension: int
    grid: int = _setting(MISSING, 4, 64, integral=True)
    initial: InitialSettings = field(default_factory=InitialSettings)
    flow: FlowConfig = field(default_factory=FlowConfig)
    tolerances: Tolerances = field(default_factory=Tolerances)
    output: Optional[str] = None
    format: str = "csv"

    def __post_init__(self):
        _check(self, "")


def _reject_unknown(mapping: dict, allowed: list, path: str) -> None:
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"unknown config key: {where}{unknown[0]}")


def _section(raw: dict, key: str) -> dict:
    val = raw.get(key, {})
    if not isinstance(val, dict):
        raise ConfigError(f"{key} must be an object, got {type(val).__name__}")
    return val


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON config, filling every default.

    Raises ConfigError on malformed JSON, unknown keys, missing dimension,
    or out-of-range values; the message names the offending key.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    _reject_unknown(raw, [f.name for f in fields(RunConfig)], "")

    if "dimension" not in raw:
        raise ConfigError("dimension is required (supported: 2, 3)")
    dim = raw["dimension"]
    if dim not in (2, 3):
        raise ConfigError(f"dimension is out of range: got {dim!r} (supported: 2, 3)")
    cfg = RunConfig(int(dim), raw.get("grid", DEFAULT_GRID[dim]))

    sec = _section(raw, "initial")
    _reject_unknown(sec, [f.name for f in fields(InitialSettings)], "initial")
    band = cfg.grid // 3   # the one range that depends on another setting
    mode_cutoff = sec.pop("mode_cutoff", min(InitialSettings.mode_cutoff, band))
    cfg.initial = InitialSettings(**sec)
    cfg.initial.mode_cutoff = check_mode_cutoff(mode_cutoff, cfg.grid)

    sec = _section(raw, "flow")
    _reject_unknown(sec, ["dt", "steps", "sample_every", "safety"], "flow")
    cfg.flow = FlowConfig(**sec)

    sec = _section(raw, "tolerances")
    _reject_unknown(sec, ["constraint_abort"] + [f.name for f in fields(Tolerances)],
                    "tolerances")
    if "constraint_abort" in sec:
        cfg.flow = replace(cfg.flow, constraint_abort=sec.pop("constraint_abort"))
    cfg.tolerances = Tolerances(**sec)

    cfg.output = raw.get("output", cfg.output)
    if cfg.output is not None and not isinstance(cfg.output, str):
        raise ConfigError(f"output must be a string path, got {cfg.output!r}")
    cfg.format = raw.get("format", cfg.format)
    if cfg.format not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {cfg.format!r}")
    return cfg
