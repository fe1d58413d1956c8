"""Single-state reference implementations the library is checked against.

The library forms the lattice action distribution only batched, in
policy.dist_internals. These are the one-latent-state versions of the
same model, written directly from its definition: a dense full-covariance
Gaussian with a Cholesky factor, the covariance
Diag(S_a^2 x^2) + alpha^2 W Diag(S_x^2 x^2) W^T + gamma I, the perturbed
action (W + P_a + alpha W P_x) x, and the stds in their full matrix shapes.
action_distribution has mean W x without the policy head's bias, so it is
an oracle for the noise model rather than for a whole policy.

dual_sim_experiment is the step-by-step form of the paired simulation that
analysis plays as episode rows of one two-row state, on a single env whose
state get_state and set_state save and restore; it calls the row-batched
policy protocol one row at a time. run_episodes is the sequential form of the
evaluation loop that trainer.run_episodes plays as rows of one batch.

Adam and global_norm are the per-parameter forms of the optimizer step and
the gradient norm that the trainer runs over one flat vector.
"""

import copy
from types import SimpleNamespace

import numpy as np
from scipy.linalg import solve_triangular

from latticerl.analysis import DualSimCondition
from latticerl.envs import clipped_action, make_env
from latticerl.errors import DimensionMismatch, NotPositiveDefinite
from latticerl.exploration import (
    LatticeConfig,
    NoiseSampler,
    NoiseStdMatrices,
    PerturbationMatrices,
    clip_std,
    sampling_log_std,
)
from latticerl.policy import LOG_2PI, dist_params

# Relative tolerance on covariance asymmetry before symmetrization is refused.
SYMMETRY_RTOL = 1e-8


def _symmetrize(cov: np.ndarray) -> np.ndarray:
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionMismatch(f"covariance must be square, got shape {cov.shape}")
    scale = max(float(np.abs(cov).max()), 1e-300)
    asym = float(np.abs(cov - cov.T).max())
    if asym > SYMMETRY_RTOL * scale:
        raise DimensionMismatch(
            f"matrix is not symmetric (relative asymmetry {asym / scale:.3e})"
        )
    return 0.5 * (cov + cov.T)


def cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == cov.

    Raises NotPositiveDefinite when a pivot is non-positive, which usually
    means the diagonal regularizer was not applied upstream.
    """
    sym = _symmetrize(cov)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


class FullCovGaussian:
    """Multivariate normal with dense covariance and cached Cholesky factor.

    Instances are immutable after construction and safe to share read-only.
    """

    def __init__(self, mean, cov):
        self.mean = np.asarray(mean, dtype=float)
        if self.mean.ndim != 1:
            raise DimensionMismatch("mean must be a vector")
        self.cov = _symmetrize(cov)
        if self.cov.shape[0] != self.mean.shape[0]:
            raise DimensionMismatch(
                f"mean has length {self.mean.shape[0]} but cov is {self.cov.shape}"
            )
        self.chol = cholesky(self.cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def log_density(self, a) -> float:
        """log N(a; mean, cov), evaluated through triangular solves."""
        a = np.asarray(a, dtype=float)
        if a.shape != self.mean.shape:
            raise DimensionMismatch(
                f"action has shape {a.shape}, expected {self.mean.shape}"
            )
        d = self.mean - a
        z = solve_triangular(self.chol, d, lower=True)
        log_det = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        return float(-0.5 * self.dim * LOG_2PI - 0.5 * log_det - 0.5 * z @ z)

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
        """mean + L z with z standard normal; rng state is caller-owned."""
        if size is None:
            z = rng.standard_normal(self.dim)
            return self.mean + self.chol @ z
        z = rng.standard_normal((size, self.dim))
        return self.mean + z @ self.chol.T

    def entropy(self) -> float:
        """Differential entropy 0.5 * log|2 pi e cov|."""
        log_det = 2.0 * float(np.sum(np.log(np.diag(self.chol))))
        return 0.5 * self.dim * (LOG_2PI + 1.0) + 0.5 * log_det


def _expand(mat: np.ndarray, n_rows: int) -> np.ndarray:
    if mat.shape[0] == n_rows:
        return mat
    return np.broadcast_to(mat, (n_rows, mat.shape[1]))


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


def dual_sim_experiment(env, policy, noise_mode: str, sigma_match,
                        n_steps: int,
                        rng: np.random.Generator) -> DualSimCondition:
    """Step-by-step reference for analysis.dual_sim_experiment: a noise
    draw per step, and the clean and the noisy step each run on the single
    env from the same saved state, the noisy one last so the env continues
    from it."""
    sigma = np.asarray(sigma_match, dtype=float)
    env.reset()
    angle_dev = []
    accel_dev = []
    action_noise = []
    for _ in range(n_steps):
        state = get_state(env)
        obs = env.observe()
        lat = policy.latent(obs[None])[0]
        a_clean = policy.action_from_latent(lat[None])[0]
        if noise_mode == "latent":
            eps = rng.standard_normal(lat.shape) * sigma
            a_noisy = policy.action_from_latent((lat + eps)[None])[0]
        else:
            eps = rng.standard_normal(a_clean.shape) * sigma
            a_noisy = a_clean + eps
        action_noise.append(a_noisy - a_clean)
        accel_dev.append(np.atleast_1d(accel_of(env, a_noisy))
                         - np.atleast_1d(accel_of(env, a_clean)))
        set_state(env, state)
        env.step(a_clean)
        kin_clean = env.kinematics(env)
        set_state(env, state)
        _, _, done, _ = env.step(a_noisy)
        angle_dev.append(env.kinematics(env) - kin_clean)
        if done:
            env.reset()
    return DualSimCondition(angle_dev=np.asarray(angle_dev),
                            accel_dev=np.asarray(accel_dev),
                            action_noise=np.asarray(action_noise))


# ------------------------------------------------------ single-env state

def get_state(env) -> tuple:
    """Copies of a single env's state fields, then its step count."""
    return tuple(copy.copy(getattr(env, name)) for name in env.state_fields) \
        + (env.step_count,)


def set_state(env, state: tuple):
    *values, env.step_count = state
    for name, value in zip(env.state_fields, values):
        setattr(env, name, copy.copy(value))


def accel_of(env, action):
    """Acceleration a (clamped) activation vector produces from the env's
    state, which stays as it was."""
    s = SimpleNamespace(**{name: getattr(env, name)
                           for name in env.state_fields})
    return env.advance(s, clipped_action(action, (env.action_dim,)))[2]


def reward_bounds(env) -> tuple[float, float]:
    """Finite interval containing every per-step reward of a FlexExtArm
    for activations in [0, 1], from the bounded-acceleration envelope."""
    max_speed = env.gain * env.dt * env.max_steps
    max_delta = (abs(env.theta_target) + env.target_range
                 + max_speed * env.dt * env.max_steps)
    return (-max_delta, 1.0)


# ------------------------------------------------------------ evaluation

def run_episodes(trainer, n_episodes: int, seed: int,
                 deterministic: bool = False):
    """Play fresh episodes of the trainer's policy in one env seeded from
    seed. Yields (states, actions, rewards, solved, max_steps) per episode;
    the actions are the raw ones sent to the env, the mean action at every
    step when deterministic."""
    env_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    env = make_env(trainer.env_name,
                   seed=int(np.random.default_rng(env_ss).integers(2 ** 31)),
                   **trainer.env_kwargs)
    noise = NoiseSampler(trainer.policy, trainer.cfg,
                         [np.random.default_rng(noise_ss)])
    for _ in range(n_episodes):
        obs = env.reset()
        states, actions, rewards, solved = [], [], [], []
        done = False
        while not done:
            states.append(obs)
            x, mean = trainer.policy.forward(np.atleast_2d(obs))
            action = mean[0] if deterministic else noise.sample(
                x, mean, dist_params(trainer.policy, trainer.cfg),
                env.step_count)[0]
            actions.append(action)
            obs, r, done, info = env.step(action)
            rewards.append(r)
            solved.append(info["solved"])
        yield states, actions, rewards, solved, env.max_steps


# ------------------------------------------------------------- optimizer

class Adam:
    """Adaptive first-order optimizer over a named parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]):
        if self.lr == 0.0:
            return
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        # in place, in the operation order of
        #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        #   p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        # so the results are bitwise those of the out-of-place formula
        for k, p in params.items():
            g = grads[k]
            m, v = self.m[k], self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            gg = (1.0 - self.beta2) * g
            gg *= g
            v *= self.beta2
            v += gg
            step = m / bc1
            step *= self.lr
            denom = np.divide(v, bc2, out=gg)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step


def global_norm(grads: dict[str, np.ndarray]) -> float:
    # per-key partial sums, so the clip factor does not depend on the
    # flat layout
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))
