"""Declarative run configuration: one JSON document, strictly parsed.

The config dataclasses are the schema. Each section of the document is one
dataclass (``SECTIONS``): its fields are the section's keys, their
annotations the types and their defaults the defaults, so every default
lives in exactly one place. Unknown keys anywhere are rejected with their
full path so hyperparameters cannot drift silently. The effective
(post-default) document is echoed into each run's output directory by ``cli``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing
from dataclasses import dataclass, field
from types import SimpleNamespace

from .data import DataSpec
from .errors import ConfigError, Valid, check_fields, knob
from .estimator import FlowTrainConfig
from .flow import FlowArch
from .perturb import PerturbConfig
from .semisup import MAX_FEATURE_DIM, SEED, SslConfig, SweepSpec

# Upper bound on ``fit.grid_resolution`` (the shipped configs use 64): the
# grid has resolution^2 points and grid.csv one line per point.
MAX_GRID_RESOLUTION = 1024


@dataclass
class FitSpec:
    steps: int = knob(2500, ge=1)
    batch: int = knob(256, ge=2, even=True)   # split across the two pools
    grid: bool = False
    grid_bounds: tuple[float, float] = (-8.0, 8.0)
    grid_resolution: int = knob(64, ge=1, le=MAX_GRID_RESOLUTION)

    def __post_init__(self):
        check_fields(self, "fit")
        if len(self.grid_bounds) != 2 or self.grid_bounds[0] >= self.grid_bounds[1]:
            raise ConfigError("fit.grid_bounds must be [low, high] with low < high")


@dataclass
class VerifySpec:
    checkpoint: str | None = None
    dims: tuple[int, ...] = knob((2, 8), ge=2, le=MAX_FEATURE_DIM, even=True,
                                 length=Valid(ge=1))   # one pair of flows per entry
    mc_samples: int = knob(200_000, ge=1)

    def __post_init__(self):
        check_fields(self, "verify")


# Built in this order, so a section may take fields from the ones before it.
SECTIONS = {
    "dataset": DataSpec,
    "flow": FlowArch,
    "flow_train": FlowTrainConfig,
    "fit": FitSpec,
    "perturb": PerturbConfig,
    "verify": VerifySpec,
    "ssl": SslConfig,
}

# Fields filled from elsewhere in the document (field -> source), the
# exception to "one field, one key of its own section".
_FILLED = {
    DataSpec: {"seed": "seed"},
    SslConfig: {"seed": "seed", "perturb": "perturb", "flow_train": "flow_train",
                "flow": "flow"},
}


@dataclass
class RunConfig:
    dataset: DataSpec
    flow: FlowArch
    flow_train: FlowTrainConfig
    fit: FitSpec
    perturb: PerturbConfig
    verify: VerifySpec
    ssl: SslConfig
    seed: int = 0
    effective: dict = field(default_factory=dict, repr=False)

    def ssl_config(self) -> SslConfig:
        """The ``ssl`` section; ``perfbench/run.py`` reads it this way."""
        return self.ssl


class Key(typing.NamedTuple):
    hint: typing.Any
    default: typing.Any      # in its JSON form: a list for a tuple
    valid: Valid | None      # the values the key accepts beyond its type


def _keys(cls) -> dict[str, Key]:
    """Key (its field's name) -> type, default and valid values for the
    keys of one section."""
    hints = typing.get_type_hints(cls)
    keys = {}
    for f in dataclasses.fields(cls):
        if f.name not in _FILLED.get(cls, {}):
            default = list(f.default) if isinstance(f.default, tuple) else f.default
            keys[f.name] = Key(hints[f.name], default, f.metadata.get("valid"))
    return keys


_SECTION_KEYS = {name: _keys(cls) for name, cls in SECTIONS.items()}
_SWEEP_KEYS = _keys(SweepSpec)

# Every key by its path, in document order: type, default and valid values.
# Rules that span several keys are code, in ``__post_init__`` and ``cli``.
KEYS = {"seed": Key(int, RunConfig.seed, SEED),
        **{f"{name}.{key}": k for name, keys in _SECTION_KEYS.items()
           for key, k in keys.items()}}

# scalar type -> (name in error messages, accepted JSON types)
_SCALARS = {bool: ("bool", bool), int: ("int", int), float: ("number", (int, float)),
            str: ("string", str)}


def _scalar(path: str, kind: type, value, expected: str):
    if not isinstance(value, _SCALARS[kind][1]) or (
            isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")
    if kind is float:
        try:
            number = float(value)
        except OverflowError:
            raise ConfigError(f"{path}: {value!r} is too large for a number")
        # Python's json reads NaN and +-Infinity, which no key accepts
        if not math.isfinite(number):
            raise ConfigError(f"{path}: expected a finite number, got {json.dumps(value)}")
        return number
    return value


def _check(path: str, hint, value):
    """Type-check one JSON value against a field annotation and return it in
    its JSON form (ints widened where a float is expected). ``X | None``
    admits null; ``tuple[T, ...]`` and ``list[T]`` take a list of ``T``."""
    args = typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        if hint in _SCALARS:
            return _scalar(path, hint, value, f"{hint.__name__} or null")
    elif value is None:
        raise ConfigError(f"{path}: null is not allowed here")
    if typing.get_origin(hint) in (list, tuple):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected list, got {value!r}")
        item = typing.get_args(hint)[0]
        return [_scalar(f"{path}[{i}]", item, v, _SCALARS[item][0])
                for i, v in enumerate(value)]
    return _scalar(path, hint, value, _SCALARS[hint][0])


def _check_section(name: str, raw) -> dict:
    """The effective section: every key's value, or its default, checked."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected a section (object)")
    keys = _SECTION_KEYS[name]
    for key in raw:
        if key not in keys:
            raise ConfigError(f"unknown config key {f'{name}.{key}'!r}")
    return {key: _check(f"{name}.{key}", k.hint, raw.get(key, k.default))
            for key, k in keys.items()}


def _field_values(keys: dict[str, Key], values: dict) -> dict:
    """Dataclass keyword arguments from checked JSON values."""
    return {key: tuple(values[key]) if typing.get_origin(k.hint) is tuple
            else values[key] for key, k in keys.items() if key in values}


def parse_config(doc: dict) -> RunConfig:
    """Validate a raw JSON document against the schema and build configs."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    for key in doc:
        if key != "seed" and key not in SECTIONS:
            raise ConfigError(f"unknown config key {key!r}")
    eff = {"seed": _check("seed", int, doc.get("seed", RunConfig.seed))}
    for name in SECTIONS:
        eff[name] = _check_section(name, doc.get(name, {}))
    built = SimpleNamespace(seed=eff["seed"])
    for name, cls in SECTIONS.items():
        filled = {f: getattr(built, src) for f, src in _FILLED.get(cls, {}).items()}
        setattr(built, name, cls(**_field_values(_SECTION_KEYS[name], eff[name]),
                                 **filled))
    return RunConfig(**vars(built), effective=eff)


def _load_json(path, what: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    except UnicodeDecodeError as e:
        raise ConfigError(f"{what} file {path}: not UTF-8 text ({e.reason} at byte {e.start})")
    except OSError as e:
        raise ConfigError(f"{what} file {path}: {e.strerror}")


def load_config(path) -> RunConfig:
    return parse_config(_load_json(path, "config"))


def load_sweep(path) -> SweepSpec:
    """Parse a sweep file, type-checking every entry; ``semisup.cells``
    checks the values themselves as it builds the cells, before any output."""
    doc = _load_json(path, "sweep")
    if not isinstance(doc, dict):
        raise ConfigError("sweep root must be a JSON object")
    for key, value in doc.items():
        if key not in _SWEEP_KEYS:
            raise ConfigError(f"unknown sweep key {key!r}")
        if not isinstance(value, list) or not value:
            raise ConfigError(f"sweep key {key!r} must be a non-empty list")
    checked = {key: _check(key, _SWEEP_KEYS[key].hint, value) for key, value in doc.items()}
    return SweepSpec(**_field_values(_SWEEP_KEYS, checked))
