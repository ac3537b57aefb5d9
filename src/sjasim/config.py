"""Run configuration: defaults, flat key-value files, flag overrides.

Config files are plain text, one `key = value` pair per line, with `#`
comments and blank lines ignored. Keys carry a section prefix
(`risk.eps`, `cluster.gpus`, `policy.budget.<tenant>`, ...); unknown keys
are rejected. Precedence is defaults < file < explicit overrides.

The keys are not listed here. Each leaf field of SimConfig, nested ones
included (`risk.*` in RiskParams, `segmentation.*` in SegmentationConfig,
`policy.*` in GrantPolicy, `baseline.*` in BaselineParams), names its key
in field metadata, and the field's type picks the parser and formatter; a
dict field is a key family with one key per entry
(`baseline.speedup.<capacity>`). The `run.*` keys are RunConfig's own
fields, declared the same way.

resolve() renders the fully resolved state, one sorted key per line.
Loading that text back yields an identical configuration, so the echo
written next to a run's artifacts is sufficient to reproduce the run.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

from .simcore import SCHEDULERS, SimConfig

__all__ = [
    "ConfigError",
    "RunConfig",
    "normalize_scheduler",
    "set_key",
    "parse_config_text",
    "load_config",
    "resolve",
]


class ConfigError(ValueError):
    """Bad key, bad value, or a value outside its documented domain."""


# Accepted spellings on the command line / config file -> engine name.
_SCHEDULER_ALIASES = {
    "sja": "sja",
    "first-fit": "first_fit",
    "first_fit": "first_fit",
    "best-fit": "best_fit",
    "best_fit": "best_fit",
    "moldable": "moldable",
    "preempt": "preempt_migrate",
    "preempt-migrate": "preempt_migrate",
    "preempt_migrate": "preempt_migrate",
}


def normalize_scheduler(name: str) -> str:
    try:
        return _SCHEDULER_ALIASES[name.strip().lower()]
    except KeyError:
        raise ConfigError(
            f"unknown scheduler {name!r}; choose from sja, first-fit, best-fit, "
            "moldable, preempt"
        ) from None


# --- value codecs -----------------------------------------------------------


def _parse_float(raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"not a number: {raw!r}") from None
    if math.isnan(v):
        raise ConfigError("nan is not a valid value")
    return v


def _parse_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"not an integer: {raw!r}") from None


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "on", "1", "yes"):
        return True
    if low in ("false", "off", "0", "no"):
        return False
    raise ConfigError(f"not a boolean: {raw!r}")


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    parts = [p for p in (s.strip() for s in raw.split(",")) if p]
    if not parts:
        raise ConfigError("expected a comma-separated list of integers")
    return tuple(_parse_int(p) for p in parts)


def _parse_opt_int(raw: str) -> int | None:
    return None if raw.strip().lower() == "none" else _parse_int(raw)


# field type -> (parse, format)
_CODECS = {
    str: (str.strip, str),
    float: (_parse_float, lambda v: repr(float(v))),
    int: (_parse_int, str),
    bool: (_parse_bool, lambda v: "true" if v else "false"),
    int | None: (_parse_opt_int, lambda v: "none" if v is None else str(v)),
    tuple[int, ...]: (_parse_int_tuple, lambda v: ",".join(str(x) for x in v)),
}


def _keyed_fields(obj):
    """(key, field, type, value) of each keyed field of a dataclass, nested ones included."""
    types = get_type_hints(type(obj))
    for f in fields(obj):
        value = getattr(obj, f.name)
        if "key" in f.metadata:
            yield f.metadata["key"], f, types[f.name], value
        elif is_dataclass(value):
            yield from _keyed_fields(value)


_SIM_DEFAULTS = SimConfig()
_DEFAULTS = {key: value for key, _f, _t, value in _keyed_fields(_SIM_DEFAULTS)}
_ENGINE_TYPES = {key: t for key, _f, t, _v in _keyed_fields(_SIM_DEFAULTS)}
# Key families (policy.budget.<tenant>): family prefix -> (entry-name type, value type).
_FAMILIES = {key: get_args(t) for key, t in _ENGINE_TYPES.items() if get_origin(t) is dict}


@dataclass
class RunConfig:
    """Everything a run needs beyond the scenario file's own content.

    `engine` holds the SimConfig values by dotted key, starting at
    SimConfig's defaults. Only to_sim_config() assembles them, so the order
    of keys in a file never matters.
    """

    scenario_path: str = field(default="", metadata={"key": "run.scenario"})
    scheduler: str = field(
        default="sja", metadata={"key": "run.scheduler", "parse": normalize_scheduler}
    )
    seeds: tuple[int, ...] = field(default=(0,), metadata={"key": "run.seeds"})
    output_dir: str = field(default="", metadata={"key": "run.output_dir"})
    # Dict values are replaced, never mutated, so defaults stay shared safely.
    engine: dict[str, object] = field(default_factory=lambda: dict(_DEFAULTS))

    def validate(self) -> None:
        self.scheduler = normalize_scheduler(self.scheduler)
        assert self.scheduler in SCHEDULERS
        if not self.seeds:
            raise ConfigError("run.seeds must name at least one seed")
        try:
            self.to_sim_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def to_sim_config(self) -> SimConfig:
        return _build(_SIM_DEFAULTS, self.engine)


def _build(template, values: dict[str, object]):
    """Copy of dataclass `template` with every keyed field taken from values.

    Dict values are copied, so the built config shares no mutable state.
    """
    changes = {}
    for f in fields(template):
        value = getattr(template, f.name)
        if "key" in f.metadata:
            changes[f.name] = copy.copy(values[f.metadata["key"]])
        elif is_dataclass(value):
            changes[f.name] = _build(value, values)
    return replace(template, **changes)


_RUN_FIELDS = {key: (f, t) for key, f, t, _v in _keyed_fields(RunConfig())}


def set_key(cfg: RunConfig, key: str, raw: str) -> None:
    """Assign one dotted key; raises ConfigError for unknown keys/values."""
    key = key.strip()
    if key in _RUN_FIELDS:
        f, t = _RUN_FIELDS[key]
        setattr(cfg, f.name, f.metadata.get("parse", _CODECS[t][0])(raw))
        return
    if key in _ENGINE_TYPES and key not in _FAMILIES:
        cfg.engine[key] = _CODECS[_ENGINE_TYPES[key]][0](raw)
        return
    family = next((p for p in _FAMILIES if key.startswith(p)), None)
    if family is None:
        raise ConfigError(f"unknown config key {key!r}")
    name_type, value_type = _FAMILIES[family]
    name = key[len(family):]
    if not name:
        raise ConfigError(f"{family} needs an entry name")
    entries = dict(cfg.engine[family])
    entries[_CODECS[name_type][0](name)] = _CODECS[value_type][0](raw)
    cfg.engine[family] = entries


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    cfg = base if base is not None else RunConfig()
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value', got {stripped!r}")
        key, _, raw = stripped.partition("=")
        try:
            set_key(cfg, key, raw.strip())
        except ConfigError as exc:
            raise ConfigError(f"line {ln}: {exc}") from None
    return cfg


def load_config(path: str | Path, base: RunConfig | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), base)


def resolve(cfg: RunConfig) -> str:
    """Render the fully resolved configuration, one sorted key per line.

    Parsing the result back produces an equal RunConfig, so the echo file
    alone pins down a run.
    """
    entries = {
        key: _CODECS[t][1](getattr(cfg, f.name)) for key, (f, t) in _RUN_FIELDS.items()
    }
    for key, value in cfg.engine.items():
        if key in _FAMILIES:
            fmt = _CODECS[_FAMILIES[key][1]][1]
            entries.update((f"{key}{name}", fmt(v)) for name, v in value.items())
        else:
            entries[key] = _CODECS[_ENGINE_TYPES[key]][1](value)
    lines = [f"{key} = {entries[key]}" for key in sorted(entries)]
    return "\n".join(lines) + "\n"
