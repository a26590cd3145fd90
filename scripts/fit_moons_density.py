#!/usr/bin/env python3
"""Fit the flow density estimator to two moons and dump a density grid.

Library-level version of `densitydescent fit-density`; handy for poking at
the trained model interactively.
"""

import argparse

import numpy as np

from densitydescent import (DataSpec, init_flow, init_latent, make_dataset,
                            marginal_logpdf, save_checkpoint)
from densitydescent.estimator import FlowTrainConfig, fit_density
from densitydescent.oracle import grid_density_dump, mc_normalization


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--steps", type=int, default=2500)
    ap.add_argument("--noise", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--out", default="moons_density_run")
    args = ap.parse_args()

    import os
    os.makedirs(args.out, exist_ok=True)

    spec = DataSpec(kind="moons", n=2000, noise=args.noise,
                    labeled_per_class=100, test_fraction=0.5, seed=args.seed)
    ds = make_dataset(spec)
    flow = init_flow(2, n_blocks=2, hidden=128, seed=args.seed)
    latent = init_latent(2, 2, seed=args.seed + 1)

    result = fit_density(ds.x[ds.labeled_idx], ds.y[ds.labeled_idx],
                         ds.x[ds.unlabeled_idx], flow, latent,
                         FlowTrainConfig(), steps=args.steps, batch=256,
                         rng=np.random.default_rng(args.seed + 2))
    held = ds.x[ds.test_idx]
    nll = -float(np.mean(marginal_logpdf(held, flow, latent)))
    mass, se, _ = mc_normalization(flow, latent, ((-8, 8), (-8, 8)),
                                   200_000, seed=args.seed)
    print(f"final loss {result.losses[-1]:.4f}  heldout NLL {nll:.4f}  "
          f"mass {mass:.4f} ± {se:.4f}")

    save_checkpoint(f"{args.out}/checkpoint.npz", flow, latent)
    grid_density_dump(flow, latent, ((-2.5, 3.5), (-2.0, 2.5)), 96,
                      path=f"{args.out}/grid.csv")
    print(f"wrote {args.out}/checkpoint.npz and {args.out}/grid.csv")


if __name__ == "__main__":
    main()
