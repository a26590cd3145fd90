"""The desk-scale two-moons benchmark recipe: the shipped
``configs/moons_ssl.json``, read the way ``train-ssl`` reads it; and the
shipped configs with some keys replaced, for tests that run the CLI."""

import json
import os
from dataclasses import replace

from densitydescent.runconfig import load_config

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
