"""The desk-scale two-moons benchmark recipe: the shipped
``configs/moons_ssl.json``, read the way ``train-ssl`` reads it; the
shipped configs with some keys replaced, and one small config document, for
tests that run the CLI; and one small run that tests hold to itself under
other process layouts."""

import json
import os
from dataclasses import replace

from densitydescent.data import DataSpec
from densitydescent.estimator import FlowTrainConfig
from densitydescent.flow import FlowArch
from densitydescent.perturb import PerturbConfig
from densitydescent.runconfig import load_config
from densitydescent.semisup import SslConfig

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")
CONFIG = os.path.join(CONFIGS, "moons_ssl.json")


def two_moons_benchmark():
    """The recipe's SSL config, at run seed 0, and its dataset spec: 4 labels
    per class and 500 unlabeled points."""
    cfg = load_config(CONFIG)
    return replace(cfg.ssl, seed=0), cfg.dataset


def shipped_config(tmp_path, shipped, name, **sections):
    """The path of a copy of ``configs/<shipped>``, written to ``tmp_path``
    as ``name``, with some of its sections' keys replaced."""
    with open(os.path.join(CONFIGS, shipped)) as fh:
        doc = json.load(fh)
    for section, keys in sections.items():
        doc.setdefault(section, {}).update(keys)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SMALL_DOC = {
    "dataset": {"n": 120, "noise": 0.1, "test_fraction": 0.25},
    "flow": {"hidden": 16},
    "flow_train": {"sample_budget": 64, "warm_start_epoch": 1},
    "ssl": {"epochs": 3, "batch_unlabeled": 32, "hidden": 16, "feature_dim": 2},
}


def small_doc(tmp_path, name="small.json", **sections):
    """The path of ``SMALL_DOC``, a 3-epoch run on 120 two-moons points,
    written to ``tmp_path`` as ``name``, with some of its sections' keys
    replaced; a value that is not a dict sets a top-level key (``seed``)."""
    doc = json.loads(json.dumps(SMALL_DOC))
    for key, value in sections.items():
        if isinstance(value, dict):
            doc.setdefault(key, {}).update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def small_config(**kw):
    """A 3-epoch run on ``SMALL_SPEC``, with some fields replaced. tau 0.6
    lets pseudo labels pass, so every perturbation kind moves the feature
    loss; two flow updates per iteration."""
    defaults = dict(
        epochs=3, batch_labeled=8, batch_unlabeled=16, lr=0.05, feature_dim=2,
        hidden=16, flow=FlowArch(hidden=16), sigma_weak=0.02, sigma_strong=0.1,
        drop_prob=0.05, ema_momentum=0.95, tau=0.6, lambda_ft=0.5,
        flow_train=FlowTrainConfig(sample_budget=64, warm_start_epoch=1,
                                   updates_per_iteration=2),
        seed=0)
    defaults.update(kw)
    return SslConfig(**defaults)


# the runs whose perturbation reads no flow, as ``small_config`` keywords
NO_FLOW_ARMS = {
    "lambda0": dict(lambda_ft=0.0),
    "uniform-noise": dict(perturb=PerturbConfig(kind="uniform-noise")),
    "channel-dropout": dict(perturb=PerturbConfig(kind="channel-dropout")),
    "vat-lite": dict(perturb=PerturbConfig(kind="vat-lite")),
}
SMALL_SPEC = DataSpec(n=120, noise=0.1, labeled_per_class=4, test_fraction=0.25)
