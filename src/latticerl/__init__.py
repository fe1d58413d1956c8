"""Latent time-correlated exploration for policy-gradient RL."""

from .buffer import RolloutBuffer, compute_gae
from .envs import (
    EpisodeMetrics,
    FlexExtArm,
    PointReacher,
    make_env,
)
from .exploration import (
    LatticeConfig,
    NoiseSampler,
    PerturbationMatrices,
)
from .policy import GradientTape, Mlp, MlpPolicy, log_prob
from .trainer import (
    Adam,
    PpoConfig,
    PPOTrainer,
    evaluate_policy,
    load_checkpoint,
    save_checkpoint,
)

__version__ = "0.1.0"
