"""Diagnostic analyses: paired perturbation simulations, action covariance
and correlation structure, PCA dimensionality, noise allocation, energy."""

from dataclasses import dataclass

import numpy as np
from scipy.stats import wilcoxon

from .envs import linear_ideal_policy
from .errors import EmptyGroup, InsufficientSamples, StateSyncUnsupported
from .exploration import LatticeConfig, clip_std, sampling_log_std
from .policy import MlpPolicy, dist_internals


# --------------------------------------------------------------- policies

class LinearArmPolicy:
    """Deterministic linear controller for the flexor-extensor arm; its
    latent is the angle error, broadcast into both actuator groups."""

    def __init__(self, n_extensors: int = 1, n_flexors: int = 1):
        self.n_extensors = n_extensors
        self.n_flexors = n_flexors

    def latent(self, obs: np.ndarray) -> np.ndarray:
        return np.array([obs[0]])

    def action_from_latent(self, lat: np.ndarray) -> np.ndarray:
        a_e, a_f = linear_ideal_policy(float(lat[0]))
        return np.concatenate([np.full(self.n_extensors, a_e),
                               np.full(self.n_flexors, a_f)])


class MlpPolicyAdapter:
    """Exposes an MlpPolicy's last-layer latent and final linear map for the
    paired-simulation protocol."""

    def __init__(self, policy: MlpPolicy):
        self.policy = policy

    def latent(self, obs: np.ndarray) -> np.ndarray:
        x, _ = self.policy.forward(np.atleast_2d(obs))
        return x[0]

    def action_from_latent(self, lat: np.ndarray) -> np.ndarray:
        return self.policy.W @ lat + self.policy.b


# --------------------------------------------------------- dual simulation

@dataclass
class DualSimCondition:
    """Per-step deviation samples for one noise condition."""

    angle_dev: np.ndarray    # (n, d_kin) kinematic deviation per step
    accel_dev: np.ndarray    # (n, d_acc) acceleration deviation per step
    action_noise: np.ndarray  # (n, N_a) injected action-space perturbation


@dataclass
class DualSimResult:
    """Paired latent- and action-noise conditions with matched variances."""

    latent: DualSimCondition
    action: DualSimCondition
    sigma_match: np.ndarray
    accel_variance_ratio: float = float("nan")
    angle_variance_ratio: float = float("nan")
    wilcoxon_p: float = float("nan")


def dual_sim_experiment(env, policy, noise_mode: str, sigma_match,
                        n_steps: int,
                        rng: np.random.Generator) -> DualSimCondition:
    """Run paired noisy / noise-free steps from identical states.

    After each step the noise-free simulator is reset to the noisy
    simulator's state, so deviations are per-step, not cumulative.
    """
    if not (hasattr(env, "get_state") and hasattr(env, "set_state")):
        raise StateSyncUnsupported(
            f"{type(env).__name__} does not expose state get/set")
    if noise_mode not in ("latent", "action"):
        raise ValueError("noise_mode must be 'latent' or 'action'")
    sigma = np.asarray(sigma_match, dtype=float)
    env.reset()
    angle_dev = []
    accel_dev = []
    action_noise = []
    for _ in range(n_steps):
        state = env.get_state()
        obs = env.observe()
        lat = policy.latent(obs)
        a_clean = policy.action_from_latent(lat)
        if noise_mode == "latent":
            eps = rng.standard_normal(lat.shape) * sigma
            a_noisy = policy.action_from_latent(lat + eps)
        else:
            eps = rng.standard_normal(a_clean.shape) * sigma
            a_noisy = a_clean + eps
        action_noise.append(a_noisy - a_clean)
        accel_dev.append(np.atleast_1d(env.accel_of(a_noisy))
                         - np.atleast_1d(env.accel_of(a_clean)))
        env.set_state(state)
        _, _, done_clean, _ = env.step(a_clean)
        kin_clean = env.kinematics()
        env.set_state(state)
        _, _, done, _ = env.step(a_noisy)
        angle_dev.append(env.kinematics() - kin_clean)
        if done:
            env.reset()
    return DualSimCondition(angle_dev=np.asarray(angle_dev),
                            accel_dev=np.asarray(accel_dev),
                            action_noise=np.asarray(action_noise))


def matched_dual_sim(env, policy, sigma_latent: float, n_steps: int,
                     rng: np.random.Generator) -> DualSimResult:
    """Latent-noise run first; its induced per-action variances calibrate the
    action-noise run, so any distribution difference comes from the
    off-diagonal structure only."""
    latent_cond = dual_sim_experiment(env, policy, "latent", sigma_latent,
                                      n_steps, rng)
    sigma_match = latent_cond.action_noise.std(axis=0)
    action_cond = dual_sim_experiment(env, policy, "action", sigma_match,
                                      n_steps, rng)
    var_latent = np.var(latent_cond.accel_dev, axis=0)
    var_action = np.var(action_cond.accel_dev, axis=0)
    accel_ratio = float(np.sum(var_latent) / np.sum(var_action)) \
        if np.sum(var_action) > 0 else float("nan")
    ang_latent = np.var(latent_cond.angle_dev, axis=0)
    ang_action = np.var(action_cond.angle_dev, axis=0)
    angle_ratio = float(np.sum(ang_latent) / np.sum(ang_action)) \
        if np.sum(ang_action) > 0 else float("nan")
    lat_mag = np.linalg.norm(latent_cond.angle_dev, axis=1)
    act_mag = np.linalg.norm(action_cond.angle_dev, axis=1)
    if np.allclose(lat_mag, act_mag):
        p_value = 1.0
    else:
        p_value = float(wilcoxon(lat_mag, act_mag).pvalue)
    return DualSimResult(latent=latent_cond, action=action_cond,
                         sigma_match=sigma_match,
                         accel_variance_ratio=accel_ratio,
                         angle_variance_ratio=angle_ratio,
                         wilcoxon_p=p_value)


# ------------------------------------------------------- covariance report

@dataclass
class CovarianceReport:
    empirical_cov: np.ndarray
    correlation: np.ndarray
    analytic_noise_cov: np.ndarray | None
    eigenvalues: np.ndarray
    explained_variance: np.ndarray  # cumulative fraction, nonincreasing tail
    pca_defined: bool


def _pca_eigenvalues(cov: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvalsh(cov)[::-1]
    return np.clip(vals, 0.0, None)


def analytic_latent_noise_cov(policy: MlpPolicy, states: np.ndarray,
                              cfg: LatticeConfig) -> np.ndarray:
    """alpha^2 W Diag(S_x^2 x^2) W^T averaged over the given states.

    Formed directly, without factorizing: at gamma = 0 a zero latent gives
    a zero matrix, not an error.
    """
    states = np.atleast_2d(np.asarray(states, dtype=float))
    x, _ = policy.forward(states)
    eff = sampling_log_std(policy.noise_std, cfg)
    s_x = clip_std(np.exp(eff.log_std_x), cfg.std_min, cfg.std_max)
    # mean over states of c_x, (R_x,) with the stored row count of s_x
    c_bar = np.mean((x * x) @ (s_x * s_x).T, axis=0)
    w = policy.W
    return policy.alpha ** 2 * ((w * c_bar) @ w.T)


def covariance_report(action_log: np.ndarray,
                      policy: MlpPolicy | None = None,
                      states: np.ndarray | None = None,
                      cfg: LatticeConfig | None = None) -> CovarianceReport:
    actions = np.atleast_2d(np.asarray(action_log, dtype=float))
    n, n_a = actions.shape
    if n < 10 * n_a:
        raise InsufficientSamples(
            f"need at least {10 * n_a} samples, got {n}")
    centered = actions - actions.mean(axis=0)
    emp_cov = centered.T @ centered / (n - 1)
    diag = np.diag(emp_cov)
    pca_defined = bool(np.all(diag > 0))
    if pca_defined:
        denom = np.sqrt(np.outer(diag, diag))
        corr = emp_cov / denom
    else:
        corr = np.full_like(emp_cov, np.nan)
        np.fill_diagonal(corr, 1.0)
    eigenvalues = _pca_eigenvalues(emp_cov)
    total = eigenvalues.sum()
    explained = (np.cumsum(eigenvalues) / total if total > 0
                 else np.zeros(n_a))
    analytic = None
    if policy is not None and states is not None and cfg is not None \
            and policy.strategy in ("gsde", "lattice"):
        analytic = analytic_latent_noise_cov(policy, states, cfg)
    return CovarianceReport(empirical_cov=emp_cov, correlation=corr,
                            analytic_noise_cov=analytic,
                            eigenvalues=eigenvalues,
                            explained_variance=explained,
                            pca_defined=pca_defined)


# ------------------------------------------------------- noise allocation

def noise_allocation(policy: MlpPolicy, states: np.ndarray,
                     groups: dict[str, list[int]],
                     cfg: LatticeConfig) -> dict[str, float]:
    """Fraction of exploration-noise std allocated to each actuator group.

    Normalization uses std sums (not variance sums), so fractions add to 1.
    """
    n_a = policy.action_dim
    indices = sorted(i for idx in groups.values() for i in idx)
    if indices != list(range(n_a)):
        raise EmptyGroup(
            "groups must partition the actuator indices exactly once each")
    for name, idx in groups.items():
        if len(idx) == 0:
            raise EmptyGroup(f"group {name!r} is empty")
    states = np.atleast_2d(np.asarray(states, dtype=float))
    it = dist_internals(policy, states, cfg)
    if it.kind == "diagonal":
        per_var = np.broadcast_to(it.sigma ** 2, (states.shape[0], n_a))
    else:
        idx = np.arange(n_a)
        per_var = it.cov[:, idx, idx]
    per_std = np.sqrt(per_var.mean(axis=0))
    total = per_std.sum()
    return {name: float(per_std[idx].sum() / total)
            for name, idx in groups.items()}


# ------------------------------------------------------------------- PCA

def pca_explained_variance(action_log: np.ndarray, threshold: float) -> int:
    """Smallest component count whose cumulative explained variance reaches
    the threshold; at least 1 by convention."""
    actions = np.atleast_2d(np.asarray(action_log, dtype=float))
    n, n_a = actions.shape
    if n < n_a + 1:
        raise InsufficientSamples(f"need at least {n_a + 1} samples, got {n}")
    centered = actions - actions.mean(axis=0)
    cov = centered.T @ centered / (n - 1)
    explained = np.cumsum(_pca_eigenvalues(cov))
    total = explained[-1]
    if total <= 0 or threshold <= 0:
        return 1
    frac = explained / total
    return int(np.searchsorted(frac, min(threshold, 1.0) - 1e-12) + 1)
