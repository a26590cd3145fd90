"""Flow-based feature density estimation with density-descending
perturbations for semi-supervised training on synthetic benchmarks."""

__version__ = "0.1.0"
