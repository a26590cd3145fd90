"""Declarative run configuration: one JSON document, strictly parsed.

Every knob has a default; unknown keys anywhere are rejected with their
full path so hyperparameters cannot drift silently. The effective
(post-default) document is echoed into each run's output directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .data import DataSpec
from .errors import ConfigError
from .estimator import FlowTrainConfig
from .perturb import PerturbConfig
from .semisup import SslConfig, SweepSpec

SCHEMA: dict = {
    "seed": 0,
    "dataset": {
        "kind": "moons",
        "n": 1016,
        "noise": 0.07,
        "classes": 2,
        "labeled_per_class": 4,
        "test_fraction": 0.5,
    },
    "flow": {
        "blocks": 2,
        "hidden": 256,
        "s_max": 2.0,
        "components": None,          # null -> one per dataset class
    },
    "flow_train": {
        "lr": 1e-3,
        "beta1": 0.9,
        "beta2": 0.999,
        "adam_eps": 1e-8,
        "decay_fractions": [1.0 / 3.0, 2.0 / 3.0],
        "decay_gamma": 0.5,
        "sample_budget": 2048,
        "warm_start_epoch": 2,
        "updates_per_iteration": 1,
    },
    "fit": {
        "steps": 2500,
        "batch": 256,
        "grid": False,
        "grid_bounds": [-8.0, 8.0],
        "grid_resolution": 64,
    },
    "ssl": {
        "epochs": 100,
        "batch_labeled": 8,
        "batch_unlabeled": 64,
        "lr": 0.05,
        "sgd_momentum": 0.9,
        "poly_power": 0.9,
        "tau": 0.95,
        "lambda_ft": 1.0,
        "ema_momentum": 0.99,
        "sigma_weak": 0.0,
        "sigma_strong": 0.15,
        "drop_prob": 0.1,
        "hidden": 64,
        "feature_dim": 2,
        "ft_start_epoch": None,      # null -> warm_start_epoch + 1
    },
    "perturb": {
        "kind": "density-descending",
        "eps": 0.25,
        "eps_relative": True,
        "dropout_rate": 0.5,
        "vat_xi": 0.01,
        "vat_power_iters": 1,
    },
    "verify": {
        "checkpoint": None,
        "dims": [2, 8],
        "mc_samples": 200_000,
    },
}

_NULLABLE = {"flow.components": int, "ssl.ft_start_epoch": int, "verify.checkpoint": str}


@dataclass
class FitSpec:
    steps: int = 2500
    batch: int = 256
    grid: bool = False
    grid_bounds: tuple[float, float] = (-8.0, 8.0)
    grid_resolution: int = 64

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("fit.steps must be >= 1")
        if self.batch < 2 or self.batch % 2 != 0:
            raise ConfigError("fit.batch must be even and >= 2 (split across pools)")
        if self.grid_resolution < 1:
            raise ConfigError("fit.grid_resolution must be >= 1")


@dataclass
class FlowArch:
    blocks: int = 2
    hidden: int = 256
    s_max: float = 2.0
    components: int | None = None

    def __post_init__(self):
        if self.components is not None and self.components < 1:
            raise ConfigError("flow.components must be >= 1 or null")


@dataclass
class VerifySpec:
    checkpoint: str | None = None
    dims: tuple[int, ...] = (2, 8)
    mc_samples: int = 200_000

    def __post_init__(self):
        if not self.dims:
            raise ConfigError("verify.dims must list at least one dimension")
        if self.mc_samples < 1:
            raise ConfigError("verify.mc_samples must be >= 1")


@dataclass
class RunConfig:
    seed: int
    dataset: DataSpec
    flow: FlowArch
    flow_train: FlowTrainConfig
    fit: FitSpec
    perturb: PerturbConfig
    verify: VerifySpec
    effective: dict = field(default_factory=dict, repr=False)
    _ssl_section: dict = field(default_factory=dict, repr=False)

    def ssl_config(self) -> SslConfig:
        s = self._ssl_section
        return SslConfig(
            epochs=s["epochs"], batch_labeled=s["batch_labeled"],
            batch_unlabeled=s["batch_unlabeled"], lr=s["lr"],
            sgd_momentum=s["sgd_momentum"], poly_power=s["poly_power"],
            tau=s["tau"], lambda_ft=s["lambda_ft"],
            ema_momentum=s["ema_momentum"], sigma_weak=s["sigma_weak"],
            sigma_strong=s["sigma_strong"], drop_prob=s["drop_prob"],
            hidden=s["hidden"], feature_dim=s["feature_dim"],
            flow_blocks=self.flow.blocks, flow_hidden=self.flow.hidden,
            flow_s_max=self.flow.s_max, ft_start_epoch=s["ft_start_epoch"],
            seed=self.seed, perturb=self.perturb, flow_train=self.flow_train)


def _check_value(path: str, default, value):
    if value is None:
        if path in _NULLABLE:
            return None
        raise ConfigError(f"{path}: null is not allowed here")
    if default is None:                       # nullable keys: their own type only
        kind = _NULLABLE[path]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{path}: expected {kind.__name__} or null, got {value!r}")
        return value
    if isinstance(default, bool):
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: expected bool, got {value!r}")
        return value
    if isinstance(default, int):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected int, got {value!r}")
        return value
    if isinstance(default, float):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected number, got {value!r}")
        return float(value)
    if isinstance(default, str):
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected string, got {value!r}")
        return value
    if isinstance(default, list):
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected list, got {value!r}")
        kind = type(default[0])
        out = []
        for i, item in enumerate(value):
            if kind is float:
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    raise ConfigError(f"{path}[{i}]: expected number, got {item!r}")
                out.append(float(item))
            elif kind is int:
                if isinstance(item, bool) or not isinstance(item, int):
                    raise ConfigError(f"{path}[{i}]: expected int, got {item!r}")
                out.append(item)
            elif kind is str:
                if not isinstance(item, str):
                    raise ConfigError(f"{path}[{i}]: expected string, got {item!r}")
                out.append(item)
            else:
                raise ConfigError(f"{path}: unsupported list element type")
        return out
    raise ConfigError(f"{path}: unsupported schema type")  # pragma: no cover


def _merge(schema: dict, doc: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise ConfigError(f"unknown config key {path!r}")
        if isinstance(schema[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}: expected a section (object)")
            out[key] = _merge(schema[key], value, prefix=f"{path}.")
        else:
            out[key] = _check_value(path, schema[key], value)
    for key, default in schema.items():
        if key not in out:
            out[key] = _merge(default, {}, prefix=f"{prefix}{key}.") \
                if isinstance(default, dict) else default
    return out


def parse_config(doc: dict) -> RunConfig:
    """Validate a raw JSON document against the schema and build configs."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    eff = _merge(SCHEMA, doc)
    ds = eff["dataset"]
    dataset = DataSpec(kind=ds["kind"], n=ds["n"], noise=ds["noise"],
                       n_classes=ds["classes"],
                       labeled_per_class=ds["labeled_per_class"],
                       test_fraction=ds["test_fraction"], seed=eff["seed"])
    ft = eff["flow_train"]
    if len(ft["decay_fractions"]) > 8:
        raise ConfigError("flow_train.decay_fractions: too many milestones")
    flow_train = FlowTrainConfig(
        lr=ft["lr"], beta1=ft["beta1"], beta2=ft["beta2"], adam_eps=ft["adam_eps"],
        decay_fractions=tuple(ft["decay_fractions"]), decay_gamma=ft["decay_gamma"],
        sample_budget=ft["sample_budget"], warm_start_epoch=ft["warm_start_epoch"],
        updates_per_iteration=ft["updates_per_iteration"])
    fl = eff["flow"]
    flow = FlowArch(blocks=fl["blocks"], hidden=fl["hidden"], s_max=fl["s_max"],
                    components=fl["components"])
    p = eff["perturb"]
    perturb = PerturbConfig(kind=p["kind"], eps=p["eps"],
                            eps_relative=p["eps_relative"],
                            dropout_rate=p["dropout_rate"], vat_xi=p["vat_xi"],
                            vat_power_iters=p["vat_power_iters"])
    f = eff["fit"]
    if len(f["grid_bounds"]) != 2 or f["grid_bounds"][0] >= f["grid_bounds"][1]:
        raise ConfigError("fit.grid_bounds must be [low, high] with low < high")
    fit = FitSpec(steps=f["steps"], batch=f["batch"], grid=f["grid"],
                  grid_bounds=tuple(f["grid_bounds"]),
                  grid_resolution=f["grid_resolution"])
    v = eff["verify"]
    verify = VerifySpec(checkpoint=v["checkpoint"], dims=tuple(v["dims"]),
                        mc_samples=v["mc_samples"])
    cfg = RunConfig(seed=eff["seed"], dataset=dataset, flow=flow,
                    flow_train=flow_train, fit=fit, perturb=perturb,
                    verify=verify, effective=eff, _ssl_section=eff["ssl"])
    cfg.ssl_config()   # validate the ssl section eagerly
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    return parse_config(doc)


def echo_config(cfg: RunConfig, path) -> None:
    """Write the effective (post-default) document; re-running it must
    reproduce the run byte-for-byte."""
    with open(path, "w") as fh:
        json.dump(cfg.effective, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_sweep(path) -> SweepSpec:
    """Parse a sweep file, type-checking every entry; ``ablate`` checks the
    values themselves when it builds the cells, before the first one trains."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"sweep file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: line {e.lineno}, column {e.colno}: {e.msg}")
    if not isinstance(doc, dict):
        raise ConfigError("sweep root must be a JSON object")
    allowed = {"kinds", "eps", "lambda_ft", "seeds"}
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown sweep key {key!r}")
        if not isinstance(doc[key], list) or not doc[key]:
            raise ConfigError(f"sweep key {key!r} must be a non-empty list")
    out = SweepSpec()
    if "kinds" in doc:
        out.kinds = _check_value("kinds", [""], doc["kinds"])
    if "eps" in doc:
        out.eps = _check_value("eps", [0.0], doc["eps"])
    if "lambda_ft" in doc:
        out.lambda_ft = _check_value("lambda_ft", [0.0], doc["lambda_ft"])
    if "seeds" in doc:
        out.seeds = _check_value("seeds", [0], doc["seeds"])
    return out
