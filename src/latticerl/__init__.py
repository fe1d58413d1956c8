"""Latent time-correlated exploration for policy-gradient RL."""

from .buffer import RolloutBuffer, compute_gae
from .envs import (
    EpisodeMetrics,
    FlexExtArm,
    PointReacher,
    energy_of,
    linear_ideal_policy,
    make_env,
)
from .exploration import (
    LatticeConfig,
    NoiseSampler,
    NoiseStdMatrices,
    PerturbationMatrices,
    action_distribution,
    clip_std,
    independent_action_noise,
    perturbed_action,
    resample_perturbations,
    rescaled_log_std,
)
from .gauss import FullCovGaussian, cholesky, min_eigenvalue
from .policy import GradientTape, Mlp, MlpPolicy, log_prob, log_prob_and_grad
from .trainer import (
    Adam,
    PpoConfig,
    PPOTrainer,
    evaluate_policy,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"
