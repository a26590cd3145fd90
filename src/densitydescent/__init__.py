"""Flow-based feature density estimation with density-descending
perturbations for semi-supervised training on synthetic benchmarks."""

from .data import DataSpec, Dataset, generate, make_dataset, partition
from .errors import ConfigError, NumericError
from .estimator import (FeaturePool, FlowTrainConfig, fit_density, flow_loss,
                        flow_train_step, sample_feature_pool)
from .flow import (CouplingBlock, FlowModel, coupling_forward, coupling_inverse,
                   flow_forward, flow_inverse, init_flow, load_checkpoint,
                   save_checkpoint)
from .latent import (GmmLatent, class_conditional_loglik, gaussian_logpdf,
                     init_latent, marginal_logpdf, marginal_loglik,
                     mixture_logpdf)
from .perturb import (PerturbConfig, density_descent_perturbation, density_gradient,
                      generate_perturbation, inject)
from .semisup import (Model, PseudoLabelBatch, SslConfig, SweepSpec, TrainResult,
                      ablate, ema_update, init_model, pseudo_labels, run_seeds,
                      train_ssl, two_moons_benchmark)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "NumericError",
    "DataSpec", "Dataset", "generate", "partition", "make_dataset",
    "CouplingBlock", "FlowModel", "init_flow", "coupling_forward",
    "coupling_inverse", "flow_forward", "flow_inverse",
    "save_checkpoint", "load_checkpoint",
    "GmmLatent", "init_latent", "gaussian_logpdf", "mixture_logpdf",
    "class_conditional_loglik", "marginal_loglik", "marginal_logpdf",
    "FlowTrainConfig", "FeaturePool", "flow_loss", "flow_train_step",
    "sample_feature_pool", "fit_density",
    "PerturbConfig", "density_gradient", "density_descent_perturbation", "inject",
    "generate_perturbation",
    "Model", "SslConfig", "PseudoLabelBatch", "SweepSpec", "TrainResult",
    "init_model", "pseudo_labels", "ema_update", "train_ssl", "run_seeds",
    "ablate", "two_moons_benchmark",
]
