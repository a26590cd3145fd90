"""The desk-scale two-moons benchmark recipe: the shipped
``configs/moons_ssl.json``, read the way ``train-ssl`` reads it."""

import os
from dataclasses import replace

from densitydescent.runconfig import load_config

CONFIG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "configs", "moons_ssl.json")


def two_moons_benchmark():
    """The recipe's SSL config, at run seed 0, and its dataset spec: 4 labels
    per class and 500 unlabeled points."""
    cfg = load_config(CONFIG)
    return replace(cfg.ssl, seed=0), cfg.dataset
