"""Diagnostic analyses: paired perturbation simulations, action covariance
and correlation structure, PCA dimensionality, noise allocation, energy."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .envs import BatchedEnv, clipped_action
from .errors import (EmptyGroup, InsufficientSamples, StateSyncUnsupported,
                     is_int, is_number)
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
    accel_variance_ratio: float
    angle_variance_ratio: float
    # two-sided signed-rank p-value of the paired per-step angle-deviation
    # norms (_signed_rank_p); 1.0 when no pair differs
    wilcoxon_p: float


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
    draws the starts as the rows of BatchedEnv([env] * (n_steps // T + 1)),
    the resets a single env stepped n_steps times from a reset makes, the
    last unused when T divides n_steps. An n_steps that is not an int
    >= 1, or a sigma_match that is not finite and >= 0 or does not
    broadcast to the noise width, raises ValueError before env.rng or rng
    draws.
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
    starts = BatchedEnv([env] * (n_steps // T + 1))
    pair = SimpleNamespace()
    for name in env.state_fields:
        rows = getattr(starts, name)[:n_episodes]
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
    wilcoxon on them: its normal approximation, computed without scipy,
    above 50 steps, and scipy.stats.wilcoxon itself at 50 or fewer. It is
    1.0 when no step's norms differ, at sigma_latent = 0 say."""
    _check_n_steps(n_steps, 2)
    latent_cond = dual_sim_experiment(env, policy, "latent", sigma_latent,
                                      n_steps, rng)
    sigma_match = latent_cond.action_noise.std(axis=0)
    action_cond = dual_sim_experiment(env, policy, "action", sigma_match,
                                      n_steps, rng)
    lat_mag = np.linalg.norm(latent_cond.angle_dev, axis=1)
    act_mag = np.linalg.norm(action_cond.angle_dev, axis=1)
    return DualSimResult(latent=latent_cond, action=action_cond,
                         sigma_match=sigma_match,
                         accel_variance_ratio=_variance_ratio(
                             latent_cond.accel_dev, action_cond.accel_dev),
                         angle_variance_ratio=_variance_ratio(
                             latent_cond.angle_dev, action_cond.angle_dev),
                         wilcoxon_p=_signed_rank_p(lat_mag, act_mag))


def _variance_ratio(latent_dev: np.ndarray, action_dev: np.ndarray) -> float:
    """Summed per-column variance of latent_dev over that of action_dev;
    NaN when the latter is zero."""
    var_action = np.sum(np.var(action_dev, axis=0))
    return float(np.sum(np.var(latent_dev, axis=0)) / var_action) \
        if var_action > 0 else float("nan")


def _signed_rank_p(x: np.ndarray, y: np.ndarray) -> float:
    """Two-sided Wilcoxon signed-rank p-value of the pairs (x[i], y[i]).

    Bit-equal to scipy.stats.wilcoxon(x, y).pvalue, NaN for a NaN
    difference included, except that it is 1.0 when no pair differs, where
    scipy gives NaN. Above 50 pairs it is scipy's asymptotic branch in
    numpy: zero differences dropped, average ranks of |x - y| with the
    tie-corrected variance, and the normal tail without continuity
    correction, that tail from _ndtr_nonpositive. So no scipy is loaded
    there; scipy.special takes ~17 MiB to import, scipy.stats most of a
    second and ~60 MiB more.
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
    return 2 * _ndtr_nonpositive(-abs(float((r_plus - mn) / se)))


# Cephes' erf/erfc coefficients as scipy.special.ndtr uses them, highest
# power first; a leading 1.0 stands for the implied one of p1evl
_ERFC_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
           7.46321056442269912687E0, 4.86371970985681366614E1,
           1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3,
           5.57535335369399327526E2)
_ERFC_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
           3.54937778887819891062E2, 9.75708501743205489753E2,
           1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_ERFC_R = (5.64189583547755073984E-1, 1.27536670759978104416E0,
           5.01905042251180477414E0, 6.16021097993053585195E0,
           7.40974269950448939160E0, 2.97886665372100240670E0)
_ERFC_S = (1.0, 2.26052863220117276590E0, 9.39603524938001434673E0,
           1.20489539808096656605E1, 1.70814450747565897222E1,
           9.60896809063285878198E0, 3.36907645100081516050E0)
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_SQRTH = 7.07106781186547524401E-1
_MAXLOG = 7.09782712893383996843E2


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtr_nonpositive(a: float) -> float:
    """Standard normal CDF at a finite a <= 0, bit-equal to
    scipy.special.ndtr(a): Cephes' ndtr with its erf and erfc inlined for
    that half, same coefficients, Horner order and branch points, and
    math.exp for libm's exp."""
    z = -a * _SQRTH                    # erfc's argument, >= 0
    if z < 1.0:
        w = z * z
        erf_z = z * _polevl(w, _ERF_T) / _polevl(w, _ERF_U)
        # ndtr's 0.5 + 0.5 * erf(-z) below SQRTH, else 0.5 * erfc(z)
        return 0.5 - 0.5 * erf_z if z < _SQRTH else 0.5 * (1.0 - erf_z)
    if z * z > _MAXLOG:                # erfc underflows
        return 0.0
    p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
    return 0.5 * (math.exp(-z * z) * _polevl(z, p) / _polevl(z, q))


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
    params = dist_params(policy, cfg)
    # mean over states of c_x, (R_x,) with the stored row count of S_x
    c_bar = np.mean((x * x) @ params.sx2.T, axis=0)
    w = policy.W
    return params.alpha ** 2 * ((w * c_bar) @ w.T)


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
    the threshold; at least 1 by convention. A threshold <= 0 gives 1 and
    one above 1 (inf included) counts as 1; a NaN or non-number raises
    ValueError."""
    if not is_number(threshold) or math.isnan(threshold):
        raise ValueError(f"threshold must be a number, got {threshold!r}")
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
