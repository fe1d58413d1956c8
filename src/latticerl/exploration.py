"""Exploration strategies: independent action noise, gSDE, and latent
time-correlated exploration.

The latent strategy perturbs the policy's last-layer state through
periodically resampled Gaussian matrices, which induces a full-covariance
action distribution. gSDE is the alpha = 0 special case and shares the same
code path, so the two are bit-identical when alpha is zero.

At period 1 the matrices would be redrawn at every step, so NoiseSampler
draws P_x x and P_a x directly: N_x + N_a normals per step instead of
N_x^2 + N_a N_x. The action distribution is the same as the matrix path's,
the random stream is not, so period-1 results recorded with the matrix
sampler moved; runs stay bit-reproducible from config and seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .gauss import FullCovGaussian

STRATEGIES = ("diagonal", "gsde", "lattice")


@dataclass
class LatticeConfig:
    """Knobs of the latent-noise model.

    period is a step count, or the string "episode" to resample perturbation
    matrices only at environment resets.
    """

    alpha: float = 1.0
    period: int | str = 1
    std_min: float = 0.001
    std_max: float = 10.0
    gamma: float = 0.001
    init_log_std: float = 0.0
    rescale: bool = True
    stop_variance_gradient: bool = False
    full_std: bool = False

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if isinstance(self.period, str):
            if self.period != "episode":
                raise ValueError("period must be a positive integer or 'episode'")
        elif int(self.period) < 1:
            raise ValueError("period must be >= 1")
        if not 0.0 < self.std_min < self.std_max:
            raise ValueError("need 0 < std_min < std_max")
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")

    @property
    def period_steps(self) -> int | None:
        """Numeric period, or None for episode mode."""
        return None if self.period == "episode" else int(self.period)


@dataclass
class NoiseStdMatrices:
    """Learnable log-std matrices for the latent and action perturbations.

    Reduced shape (1, N_x) ties a column's std across rows; full shape stores
    one entry per matrix element.
    """

    log_std_x: np.ndarray  # (N_x, N_x) or (1, N_x)
    log_std_a: np.ndarray  # (N_a, N_x) or (1, N_x)

    @classmethod
    def create(cls, n_actions: int, n_latent: int, cfg: LatticeConfig):
        shape_x = (n_latent, n_latent) if cfg.full_std else (1, n_latent)
        shape_a = (n_actions, n_latent) if cfg.full_std else (1, n_latent)
        return cls(
            log_std_x=np.full(shape_x, float(cfg.init_log_std)),
            log_std_a=np.full(shape_a, float(cfg.init_log_std)),
        )

    @property
    def n_latent(self) -> int:
        return self.log_std_x.shape[1]


@dataclass
class PerturbationMatrices:
    """Sampled noise matrices, held fixed for a resampling window."""

    P_x: np.ndarray  # (N_x, N_x)
    P_a: np.ndarray  # (N_a, N_x)


def rescaled_log_std(raw: NoiseStdMatrices, n_latent: int) -> NoiseStdMatrices:
    """Subtract 0.5 log(N_x) elementwise so per-component noise variance does
    not grow with the latent width."""
    if n_latent < 1:
        raise ValueError("n_latent must be >= 1")
    shift = 0.5 * np.log(float(n_latent))
    return NoiseStdMatrices(
        log_std_x=raw.log_std_x - shift,
        log_std_a=raw.log_std_a - shift,
    )


def clip_std(std: np.ndarray, std_min: float, std_max: float) -> np.ndarray:
    """Clamp stds into [std_min, std_max]. Applied only when forming the
    distribution's variance, never to already-drawn samples."""
    return np.clip(std, std_min, std_max)


def _expand(mat: np.ndarray, n_rows: int) -> np.ndarray:
    if mat.shape[0] == n_rows:
        return mat
    return np.broadcast_to(mat, (n_rows, mat.shape[1]))


def sampling_log_std(std: NoiseStdMatrices,
                     cfg: LatticeConfig) -> NoiseStdMatrices:
    """Log stds of the perturbation entries, in their stored shapes."""
    return rescaled_log_std(std, std.n_latent) if cfg.rescale else std


def sampling_std(std: NoiseStdMatrices, cfg: LatticeConfig,
                 n_actions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unclipped stds used to draw the perturbation matrices, expanded to
    full (N_x, N_x) and (N_a, N_x) shapes."""
    eff = sampling_log_std(std, cfg)
    s_x = np.exp(_expand(eff.log_std_x, std.n_latent))
    s_a = np.exp(_expand(eff.log_std_a, n_actions))
    return s_x, s_a


def distribution_std(std: NoiseStdMatrices, cfg: LatticeConfig,
                     n_actions: int) -> tuple[np.ndarray, np.ndarray]:
    """Clipped stds entering the analytic action distribution."""
    s_x, s_a = sampling_std(std, cfg, n_actions)
    return (clip_std(s_x, cfg.std_min, cfg.std_max),
            clip_std(s_a, cfg.std_min, cfg.std_max))


def resample_perturbations(std: NoiseStdMatrices, cfg: LatticeConfig,
                           n_actions: int,
                           rng: np.random.Generator) -> PerturbationMatrices:
    """Draw fresh P matrices, entrywise N(0, S_ij^2)."""
    # exp in the stored shape, broadcast by the in-place scaling: the same
    # bytes as scaling by the expanded sampling_std
    eff = sampling_log_std(std, cfg)
    p_x = rng.standard_normal((std.n_latent, std.n_latent))
    p_x *= np.exp(eff.log_std_x)
    p_a = rng.standard_normal((n_actions, std.n_latent))
    p_a *= np.exp(eff.log_std_a)
    return PerturbationMatrices(P_x=p_x, P_a=p_a)


class NoiseSampler:
    """The action-noise process of a policy over a batch of environments.

    Env i draws only from rngs[i] and owns its perturbation window. At
    period 1, gSDE included, each env draws N_x + N_a normals per step: P_x x
    is exactly N(0, Diag(S_x^2 x^2)) and P_a x is N(0, Diag(S_a^2 x^2)) when
    the matrices are fresh at every step, so no matrix is formed. Longer
    periods and "episode" draw P_x and P_a through resample_perturbations
    and hold them for the window. Diagonal noise draws N(0, sigma^2) per
    action.
    """

    def __init__(self, policy, cfg: LatticeConfig,
                 rngs: list[np.random.Generator]):
        self.policy = policy
        self.cfg = cfg
        self.rngs = list(rngs)
        self.perturbations: list[PerturbationMatrices | None] = \
            [None] * len(self.rngs)
        self.ep_step = np.zeros(len(self.rngs), dtype=int)

    def sample(self, x: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Actions for one step of every env from its latent row x[i] and
        mean action mean[i]; advances each env's episode step."""
        policy = self.policy
        if policy.strategy == "diagonal":
            z = np.stack([rng.standard_normal(policy.action_dim)
                          for rng in self.rngs])
            actions = mean + z * np.exp(policy.params["log_sigma"])
        elif self.cfg.period_steps == 1:
            actions = mean + self._fresh_noise(x)
        else:
            actions = np.empty_like(mean)
            for i in range(len(self.rngs)):
                p = self._window(i)
                actions[i] = mean[i] + (p.P_a @ x[i] + policy.alpha
                                        * (policy.W @ (p.P_x @ x[i])))
        self.ep_step += 1
        period = self.cfg.period_steps
        if period is not None and period > 1:
            # a window is dead once it has served its last step
            for i in np.flatnonzero(self.ep_step % period == 0):
                self.perturbations[i] = None
        return actions

    def reset(self, i: int):
        """Env i starts a new episode: its next step opens a fresh window."""
        self.ep_step[i] = 0
        self.perturbations[i] = None

    def _fresh_noise(self, x: np.ndarray) -> np.ndarray:
        """P_a x + alpha W P_x x for matrices drawn anew at this step."""
        policy = self.policy
        n_x, n_a = policy.n_latent, policy.action_dim
        z = np.stack([rng.standard_normal(n_x + n_a) for rng in self.rngs])
        eff = sampling_log_std(policy.noise_std, self.cfg)
        x2 = x * x
        # unclipped S^2 in the stored shape: a reduced (1, N_x) row gives one
        # sd per sample, broadcast over the N_x or N_a outputs
        sd_x = np.sqrt(x2 @ np.exp(2.0 * eff.log_std_x).T)
        sd_a = np.sqrt(x2 @ np.exp(2.0 * eff.log_std_a).T)
        return sd_a * z[:, n_x:] + policy.alpha * ((sd_x * z[:, :n_x])
                                                   @ policy.W.T)

    def _window(self, i: int) -> PerturbationMatrices:
        """Env i's perturbation matrices, drawn when its window opens."""
        p = self.perturbations[i]
        if p is None:
            p = self.perturbations[i] = resample_perturbations(
                self.policy.noise_std, self.cfg, self.policy.action_dim,
                self.rngs[i])
        return p


def perturbed_action(x: np.ndarray, W: np.ndarray, P: PerturbationMatrices,
                     alpha: float) -> np.ndarray:
    """(W + P_a + alpha W P_x) x. Deterministic while P is held fixed."""
    x = np.asarray(x, dtype=float)
    if W.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"W is {W.shape} but latent has length {x.shape[0]}")
    if P.P_a.shape != W.shape or P.P_x.shape != (x.shape[0], x.shape[0]):
        raise DimensionMismatch("perturbation matrices do not match W / x")
    return W @ x + P.P_a @ x + alpha * (W @ (P.P_x @ x))


def lattice_covariance(x: np.ndarray, W: np.ndarray, s_a: np.ndarray,
                       s_x: np.ndarray, alpha: float,
                       gamma: float) -> np.ndarray:
    """Diag(S_a^2 x^2) + alpha^2 W Diag(S_x^2 x^2) W^T + gamma I.

    s_a and s_x are already rescaled and clipped, in full shape.
    """
    x2 = x * x
    c_a = (s_a * s_a) @ x2  # (N_a,)
    c_x = (s_x * s_x) @ x2  # (N_x,)
    cov = np.diag(c_a) + (alpha * alpha) * (W * c_x) @ W.T
    cov[np.diag_indices_from(cov)] += gamma
    return cov


def action_distribution(x: np.ndarray, W: np.ndarray, std: NoiseStdMatrices,
                        cfg: LatticeConfig) -> FullCovGaussian:
    """Analytic distribution of the perturbed action for one latent state."""
    x = np.asarray(x, dtype=float)
    if W.shape[1] != x.shape[0]:
        raise DimensionMismatch(
            f"W is {W.shape} but latent has length {x.shape[0]}")
    s_x, s_a = distribution_std(std, cfg, W.shape[0])
    cov = lattice_covariance(x, W, s_a, s_x, cfg.alpha, cfg.gamma)
    try:
        return FullCovGaussian(W @ x, cov)
    except NotPositiveDefinite:
        raise NotPositiveDefinite(
            "action covariance is singular; with gamma = 0 this happens when "
            "the latent state is degenerate (e.g. the null vector)")


def independent_action_noise(mean: np.ndarray, sigma: np.ndarray,
                             rng: np.random.Generator) -> np.ndarray:
    """Diagonal baseline: mean + elementwise Gaussian noise."""
    mean = np.asarray(mean, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if np.any(sigma < 0):
        raise ValueError("sigma entries must be >= 0")
    return mean + rng.standard_normal(mean.shape) * sigma
