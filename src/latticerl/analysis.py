"""Diagnostic analyses: paired perturbation simulations, action covariance
and correlation structure, PCA dimensionality, noise allocation, energy."""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .envs import clipped_action
from .errors import (EmptyGroup, InsufficientSamples, StateSyncUnsupported,
                     is_int)
from .exploration import LatticeConfig
from .policy import MlpPolicy, dist_internals, dist_params


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
    # two-sided signed-rank p-value of the paired per-step angle-deviation
    # norms (_signed_rank_p); 1.0 when no pair differs
    wilcoxon_p: float = float("nan")


def _check_n_steps(n_steps, least: int):
    if not is_int(n_steps) or n_steps < least:
        raise ValueError(f"n_steps must be an int >= {least}, "
                         f"got {n_steps!r}")


def dual_sim_experiment(env, policy, noise_mode: str, sigma_match,
                        n_steps: int,
                        rng: np.random.Generator) -> DualSimCondition:
    """Run paired noisy / noise-free steps from identical states.

    Step t of the result is step t % T of episode t // T (T = max_steps),
    and every episode starts from its own env.initial_state(env.rng). Each
    step advances the clean action in row 0 and the noisy one in row 1 of
    a copy of the episode's state; the episode continues from the noisy
    row, so deviations are per-step, not cumulative. The episodes are
    independent, so they are played as rows of one state of shape
    (2, episodes, ...): a time step is one policy forward over every
    episode still running. The noise is one (n_steps, width) draw from
    rng, N_x wide in latent mode and N_a wide in action mode, scaled by
    sigma_match.

    policy.latent maps observations (n, obs_dim) to latents (n, N_x) and
    policy.action_from_latent maps latents (n, N_x) to actions (n, N_a),
    as an MlpPolicy's do.

    env's state fields and step count are left as they were. env.rng
    draws n_steps // T + 1 episode starts, the resets a single env
    stepped n_steps times from a reset makes, the last unused when T
    divides n_steps. An n_steps that is not an int >= 1, or a sigma_match
    that is not finite and >= 0 or does not broadcast to the noise width,
    raises ValueError before env.rng or rng draws.
    """
    missing = [name for name in ("state_fields", "initial_state", "advance",
                                 "observation", "kinematics", "max_steps",
                                 "action_dim", "rng")
               if not hasattr(env, name)]
    if missing:
        raise StateSyncUnsupported(
            f"{type(env).__name__} does not expose {', '.join(missing)}")
    if noise_mode not in ("latent", "action"):
        raise ValueError("noise_mode must be 'latent' or 'action'")
    _check_n_steps(n_steps, 1)
    sigma = np.asarray(sigma_match, dtype=float)
    if not np.all(np.isfinite(sigma) & (sigma >= 0)):
        raise ValueError("sigma_match must be finite and >= 0")
    if sigma.ndim:
        # an array sigma is checked against the noise width; the latent
        # width comes from a forward of the env's current state, which
        # draws nothing
        width = env.action_dim if noise_mode == "action" else \
            policy.latent(env.observation(env)[None]).shape[-1]
        if sigma.shape not in ((1,), (width,)):
            raise ValueError(f"sigma_match of shape {sigma.shape} does not "
                             f"broadcast to the noise width {width}")

    T = env.max_steps
    n_episodes = -(-n_steps // T)
    starts = [env.initial_state(env.rng)
              for _ in range(n_steps // T + 1)][:n_episodes]
    pair = SimpleNamespace()
    for i, name in enumerate(env.state_fields):
        rows = np.array([start[i] for start in starts], dtype=float)
        setattr(pair, name, np.array([rows, rows]))
    eps = None
    devs = None
    for j in range(min(n_steps, T)):
        # steps j, j + T, ... of the result: one per episode still running
        m = len(range(j, n_steps, T))
        for name in env.state_fields:
            setattr(pair, name, getattr(pair, name)[:, :m])
        lat = policy.latent(env.observation(pair)[1])
        a_clean = policy.action_from_latent(lat)
        if eps is None:
            eps = np.empty((n_steps, lat.shape[-1] if noise_mode == "latent"
                            else env.action_dim))
            rng.standard_normal(out=eps)
            eps *= sigma
        if noise_mode == "latent":
            a_noisy = policy.action_from_latent(lat + eps[j::T])
        else:
            a_noisy = a_clean + eps[j::T]
        _, _, accel = env.advance(pair, clipped_action(
            np.stack([a_clean, a_noisy]), (2, m, env.action_dim)))
        kin = env.kinematics(pair)
        step = {"angle_dev": kin[1] - kin[0],
                "accel_dev": (accel[1] - accel[0]).reshape(m, -1),
                "action_noise": a_noisy - a_clean}
        if devs is None:
            devs = {k: np.empty((n_steps,) + d.shape[1:])
                    for k, d in step.items()}
        for k, d in step.items():
            devs[k][j::T] = d
        for name in env.state_fields:
            getattr(pair, name)[0] = getattr(pair, name)[1]
    return DualSimCondition(**devs)


def matched_dual_sim(env, policy, sigma_latent: float, n_steps: int,
                     rng: np.random.Generator) -> DualSimResult:
    """Latent-noise run first; its induced per-action variances calibrate the
    action-noise run, so any distribution difference comes from the
    off-diagonal structure only. Both runs play on env, the action run
    taking the episode starts that follow the latent run's; n_steps >= 2,
    since the variances need two samples.

    wilcoxon_p is the two-sided Wilcoxon signed-rank test of the per-step
    angle-deviation norms, latent against action, equal to scipy's
    wilcoxon on them: its normal approximation, computed in numpy, above
    50 steps, and scipy.stats.wilcoxon itself at 50 or fewer. It is 1.0
    when no step's norms differ, at sigma_latent = 0 say."""
    _check_n_steps(n_steps, 2)
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
    return DualSimResult(latent=latent_cond, action=action_cond,
                         sigma_match=sigma_match,
                         accel_variance_ratio=accel_ratio,
                         angle_variance_ratio=angle_ratio,
                         wilcoxon_p=_signed_rank_p(lat_mag, act_mag))


def _signed_rank_p(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided Wilcoxon signed-rank p-value of the pairs (x[i], y[i]).

    Bit-equal to scipy.stats.wilcoxon(x, y).pvalue, NaN for a NaN
    difference included, except that it is 1.0 when no pair differs, where
    scipy gives NaN. Above 50 pairs it is scipy's asymptotic branch in
    numpy: zero differences dropped, average ranks of |x - y| with the
    tie-corrected variance, and the normal tail without continuity
    correction. So only scipy.special is loaded there; scipy.stats alone
    takes most of a second and ~60 MiB to import.
    """
    d = x - y
    if np.isnan(d).any():
        return float("nan")
    nonzero = d[d != 0]
    count = nonzero.size
    if count == 0:
        return 1.0
    if d.size <= 50:
        # scipy's switch point, counting the zero differences. Up to it
        # scipy uses its exact null distribution when there are no ties or
        # zeros, and a permutation test with them up to 13 pairs.
        from scipy.stats import wilcoxon
        return float(wilcoxon(x, y).pvalue)
    from scipy.special import ndtr
    mag = np.abs(nonzero)
    order = np.argsort(mag, kind="stable")
    sorted_mag = mag[order]
    first = np.flatnonzero(np.r_[True, sorted_mag[1:] != sorted_mag[:-1]])
    ties = np.diff(np.r_[first, count])
    ranks = np.empty(count)
    ranks[order] = np.repeat(first + 1 + (ties - 1) / 2, ties)
    r_plus = np.sum((nonzero > 0).astype(float) * ranks)
    mn = count * (count + 1.) * 0.25
    se = count * (count + 1.) * (2. * count + 1.)
    t = ties.astype(float)
    se = np.sqrt((se - np.sum(t ** 3 - t) / 2) / 24)
    return float(2 * ndtr(-abs((r_plus - mn) / se)))


# ------------------------------------------------------- covariance report

@dataclass
class CovarianceReport:
    empirical_cov: np.ndarray
    correlation: np.ndarray
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
    # mean over states of c_x, (R_x,) with the stored row count of S_x
    c_bar = np.mean((x * x) @ dist_params(policy, cfg).sx2.T, axis=0)
    w = policy.W
    return policy.alpha ** 2 * ((w * c_bar) @ w.T)


def covariance_report(action_log: np.ndarray) -> CovarianceReport:
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
    return CovarianceReport(empirical_cov=emp_cov, correlation=corr,
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
