"""Feed-forward policy and value networks with explicit reverse-mode
gradients.

No autodiff framework is used: the operator set (affine layers, ReLU / tanh /
GELU, and the full-covariance Gaussian log-density) is differentiated by hand,
which keeps the gradient path auditable and lets the variance-path
contributions be switched off independently (stop_variance_gradient).
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import DimensionMismatch, NotPositiveDefinite
from .exploration import (
    LatticeConfig,
    NoiseStdMatrices,
    clip_std,
    sampling_log_std,
)
from .gauss import LOG_2PI

_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_d(z):
    return (z > 0.0).astype(float)


def _tanh(z):
    return np.tanh(z)


def _tanh_d(z):
    t = np.tanh(z)
    return 1.0 - t * t


def _gelu(z):
    return 0.5 * z * (1.0 + erf(z / _SQRT2))


def _gelu_d(z):
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return 0.5 * (1.0 + erf(z / _SQRT2)) + z * phi


ACTIVATIONS = {
    "relu": (_relu, _relu_d),
    "tanh": (_tanh, _tanh_d),
    "gelu": (_gelu, _gelu_d),
}


class GradientTape:
    """Per-parameter gradient accumulators aligned with a parameter dict.

    Each entry of grads is a view of one flat buffer, so zeroing, the
    finiteness check and the clip scale are one array operation each.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        self.flat = np.zeros(sum(v.size for v in params.values()))
        self.grads = {}
        offset = 0
        for k, v in params.items():
            self.grads[k] = self.flat[offset:offset + v.size].reshape(v.shape)
            offset += v.size

    def zero_(self):
        self.flat.fill(0.0)

    def add(self, name: str, value: np.ndarray):
        self.grads[name] += value

    def global_norm(self) -> float:
        # per-key partial sums, so the clip factor does not depend on the
        # flat layout
        total = 0.0
        for g in self.grads.values():
            total += float(np.sum(g * g))
        return float(np.sqrt(total))

    def clip_global_norm(self, max_norm: float) -> float:
        norm = self.global_norm()
        if norm > max_norm and norm > 0.0:
            self.flat *= max_norm / norm
        return norm

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())

    def non_finite(self) -> list[str]:
        """Names of the parameters whose gradient has a NaN or Inf."""
        return [k for k, g in self.grads.items() if not np.isfinite(g).all()]


class Mlp:
    """Hidden stack plus linear head, parameters held in a shared dict."""

    def __init__(self, rng: np.random.Generator, in_dim: int, hiddens,
                 out_dim: int, activation: str = "relu", prefix: str = ""):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.sizes = [in_dim, *hiddens, out_dim]
        self.activation = activation
        self.prefix = prefix
        self.params: dict[str, np.ndarray] = {}
        n_layers = len(self.sizes) - 1
        for i in range(n_layers):
            fan_in, fan_out = self.sizes[i], self.sizes[i + 1]
            if i == n_layers - 1:
                scale = np.sqrt(1.0 / fan_in)
            elif activation == "tanh":
                scale = np.sqrt(1.0 / fan_in)
            else:
                scale = np.sqrt(2.0 / fan_in)
            self.params[f"{prefix}w{i}"] = rng.standard_normal(
                (fan_out, fan_in)) * scale
            self.params[f"{prefix}b{i}"] = np.zeros(fan_out)

    @property
    def n_hidden_layers(self) -> int:
        return len(self.sizes) - 2

    @property
    def head_w_name(self) -> str:
        return f"{self.prefix}w{len(self.sizes) - 2}"

    @property
    def head_b_name(self) -> str:
        return f"{self.prefix}b{len(self.sizes) - 2}"

    @property
    def latent_dim(self) -> int:
        return self.sizes[-2]

    def n_params(self) -> int:
        return sum(v.size for v in self.params.values())

    def forward(self, obs: np.ndarray, need_cache: bool = False):
        """Returns (latent, out[, cache]); latent is the last hidden output."""
        obs = np.asarray(obs, dtype=float)
        if obs.shape[-1] != self.sizes[0]:
            raise DimensionMismatch(
                f"input width {obs.shape[-1]}, expected {self.sizes[0]}")
        act, _ = ACTIVATIONS[self.activation]
        h = obs
        hs = [h]
        zs = []
        for i in range(self.n_hidden_layers):
            z = h @ self.params[f"{self.prefix}w{i}"].T \
                + self.params[f"{self.prefix}b{i}"]
            h = act(z)
            hs.append(h)
            zs.append(z)
        out = h @ self.params[self.head_w_name].T + self.params[self.head_b_name]
        if need_cache:
            return h, out, {"hs": hs, "zs": zs}
        return h, out

    def backward(self, cache, d_out: np.ndarray, tape: GradientTape,
                 d_latent: np.ndarray | None = None) -> np.ndarray:
        """Accumulate grads for a scalar objective whose per-sample seeds are
        d_out (at the head output) and d_latent (injected at the latent)."""
        _, act_d = ACTIVATIONS[self.activation]
        hs, zs = cache["hs"], cache["zs"]
        tape.add(self.head_w_name, d_out.T @ hs[-1])
        tape.add(self.head_b_name, d_out.sum(axis=0))
        dh = d_out @ self.params[self.head_w_name]
        if d_latent is not None:
            dh = dh + d_latent
        for i in reversed(range(self.n_hidden_layers)):
            dz = dh * act_d(zs[i])
            tape.add(f"{self.prefix}w{i}", dz.T @ hs[i])
            tape.add(f"{self.prefix}b{i}", dz.sum(axis=0))
            dh = dz @ self.params[f"{self.prefix}w{i}"]
        return dh


class MlpPolicy:
    """Policy network exposing the last-layer latent and final linear map.

    The noise parameters of the configured exploration strategy live in the
    same parameter dict as the network weights.
    """

    def __init__(self, obs_dim: int, action_dim: int, cfg: LatticeConfig,
                 strategy: str = "lattice", hiddens=(256, 256),
                 activation: str = "relu",
                 rng: np.random.Generator | None = None):
        if strategy not in ("diagonal", "gsde", "lattice"):
            raise ValueError(f"unknown strategy {strategy!r}")
        rng = rng if rng is not None else np.random.default_rng()
        self.strategy = strategy
        self.cfg = cfg
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        self.net = Mlp(rng, obs_dim, hiddens, action_dim, activation, "pi.")
        self.params = dict(self.net.params)
        self.net.params = self.params  # share storage
        if strategy in ("gsde", "lattice"):
            noise = NoiseStdMatrices.create(action_dim, self.net.latent_dim, cfg)
            self.params["log_std_x"] = noise.log_std_x
            self.params["log_std_a"] = noise.log_std_a
        else:
            self.params["log_sigma"] = np.full(action_dim,
                                               float(cfg.init_log_std))

    @property
    def alpha(self) -> float:
        return 0.0 if self.strategy == "gsde" else self.cfg.alpha

    @property
    def n_latent(self) -> int:
        return self.net.latent_dim

    @property
    def W(self) -> np.ndarray:
        return self.params[self.net.head_w_name]

    @property
    def b(self) -> np.ndarray:
        return self.params[self.net.head_b_name]

    @property
    def noise_std(self) -> NoiseStdMatrices:
        return NoiseStdMatrices(
            log_std_x=self.params["log_std_x"],
            log_std_a=self.params["log_std_a"],
        )

    def forward(self, obs: np.ndarray, need_cache: bool = False):
        """(latent x, mean action W x + b) for a batch of observations."""
        return self.net.forward(obs, need_cache=need_cache)

    def n_params(self) -> int:
        return sum(v.size for v in self.params.values())


@dataclass
class DistInternals:
    """Cached forward quantities shared by log-prob and entropy paths.

    The latent x stored here is the exact array consumed by the sampling
    path, so the rollout and training code never recompute it. Stds, masks
    and the c_a / c_x seeds keep the stored row count R of their log-std
    matrix: R = 1 for the reduced (1, N_x) shape, whose single row stands for
    every row of the full matrix, or N_a / N_x with full_std.
    """

    x: np.ndarray            # (B, N_x)
    mean: np.ndarray         # (B, N_a)
    cache: dict | None
    kind: str
    # lattice / gsde fields
    s_a: np.ndarray | None = None       # clipped, stored shape (R_a, N_x)
    s_x: np.ndarray | None = None       # clipped, stored shape (R_x, N_x)
    mask_a: np.ndarray | None = None    # 1 where the clip is inactive
    mask_x: np.ndarray | None = None
    c_a: np.ndarray | None = None       # (B, R_a) = (x * x) @ (s_a * s_a).T
    c_x: np.ndarray | None = None       # (B, R_x) = (x * x) @ (s_x * s_x).T
    k_x: np.ndarray | None = None       # (R_x, N_a^2), row k = vec(w_k w_k^T)
    cov: np.ndarray | None = None       # (B, N_a, N_a)
    chol: np.ndarray | None = None
    cov_inv: np.ndarray | None = None
    log_det: np.ndarray | None = None   # (B,)
    # diagonal fields
    sigma: np.ndarray | None = None     # (N_a,)


def dist_internals(policy: MlpPolicy, obs: np.ndarray, cfg: LatticeConfig,
                   need_cache: bool = False) -> DistInternals:
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    if need_cache:
        x, mean, cache = policy.forward(obs, need_cache=True)
    else:
        x, mean = policy.forward(obs)
        cache = None
    if policy.strategy == "diagonal":
        sigma = np.exp(policy.params["log_sigma"])
        return DistInternals(x=x, mean=mean, cache=cache, kind="diagonal",
                             sigma=sigma)
    eff = sampling_log_std(policy.noise_std, cfg)
    s_x_raw = np.exp(eff.log_std_x)
    s_a_raw = np.exp(eff.log_std_a)
    s_x = clip_std(s_x_raw, cfg.std_min, cfg.std_max)
    s_a = clip_std(s_a_raw, cfg.std_min, cfg.std_max)
    mask_x = ((s_x_raw > cfg.std_min) & (s_x_raw < cfg.std_max)).astype(float)
    mask_a = ((s_a_raw > cfg.std_min) & (s_a_raw < cfg.std_max)).astype(float)
    alpha = policy.alpha
    n_a = policy.action_dim
    x2 = x * x
    c_a = x2 @ (s_a * s_a).T
    c_x = x2 @ (s_x * s_x).T
    W = policy.W
    if s_x.shape[0] == 1:
        # every latent column shares one c_x, so sum_k w_k w_k^T = W W^T
        k_x = (W @ W.T).reshape(1, n_a * n_a)
    else:
        k_x = (W.T[:, :, None] * W.T[:, None, :]).reshape(-1, n_a * n_a)
    cov = ((alpha * alpha) * (c_x @ k_x)).reshape(-1, n_a, n_a)
    idx = np.arange(n_a)
    cov[:, idx, idx] += c_a + cfg.gamma
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "batched action covariance is singular; check gamma and the "
            "latent state") from exc
    log_det = 2.0 * np.sum(np.log(chol[:, idx, idx]), axis=1)
    cov_inv = np.linalg.inv(cov)
    return DistInternals(x=x, mean=mean, cache=cache, kind=policy.strategy,
                         s_a=s_a, s_x=s_x, mask_a=mask_a, mask_x=mask_x,
                         c_a=c_a, c_x=c_x, k_x=k_x, cov=cov, chol=chol,
                         cov_inv=cov_inv, log_det=log_det)


def _variance_backward(policy: MlpPolicy, it: DistInternals, cfg: LatticeConfig,
                       wG: np.ndarray, tape: GradientTape) -> np.ndarray | None:
    """Chain a weighted dL/dSigma seed (wG, shape (B, N_a, N_a)) through the
    covariance construction. Writes log-std (and variance-path W) grads and
    returns the latent seed d_latent, or None when it vanishes."""
    n_a = policy.action_dim
    idx = np.arange(n_a)
    g_ca = wG[:, idx, idx]  # (B, N_a) = dL/dc_a
    if it.kind == "diagonal":
        var = it.sigma * it.sigma
        tape.add("log_sigma", 2.0 * var * g_ca.sum(axis=0))
        return None
    x2 = it.x * it.x
    if it.s_a.shape[0] == 1:
        g_ca = g_ca.sum(axis=1, keepdims=True)  # onto the shared c_a
    alpha = policy.alpha
    sa2 = it.s_a * it.s_a
    sx2 = it.s_x * it.s_x
    tape.add("log_std_a", 2.0 * sa2 * it.mask_a * (g_ca.T @ x2))
    if alpha != 0.0:
        # dL/dc_x = alpha^2 * w_k^T G w_k, summed over the rows c_x stands for
        wG_flat = wG.reshape(-1, n_a * n_a)
        g_cx = (alpha * alpha) * (wG_flat @ it.k_x.T)
        tape.add("log_std_x", 2.0 * sx2 * it.mask_x * (g_cx.T @ x2))
    if cfg.stop_variance_gradient:
        return None
    d_latent = g_ca @ sa2
    if alpha != 0.0:
        # variance path into the final linear map:
        # dL/dW[a, k] = 2 alpha^2 sum_m W[m, k] sum_b wG[b, a, m] c_x[b, k]
        gc = (wG_flat.T @ it.c_x).reshape(n_a, n_a, -1)
        grad_w = 2.0 * (alpha * alpha) * np.sum(gc * policy.W, axis=1)
        tape.add(policy.net.head_w_name, grad_w)
        d_latent += g_cx @ sx2
    return 2.0 * it.x * d_latent


def log_prob_terms(policy: MlpPolicy, it: DistInternals,
                   actions: np.ndarray):
    """Per-row (log pi(a | s), d = mean - a, u = Sigma^-1 d)."""
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    if actions.shape != it.mean.shape:
        raise DimensionMismatch(
            f"actions have shape {actions.shape}, expected {it.mean.shape}")
    d = it.mean - actions  # (B, N_a)
    n_a = policy.action_dim
    if it.kind == "diagonal":
        u = d / (it.sigma * it.sigma)
        logp = (-0.5 * n_a * LOG_2PI
                - np.sum(np.log(it.sigma))
                - 0.5 * np.sum(d * u, axis=1))
    else:
        u = (it.cov_inv @ d[..., None])[..., 0]
        logp = (-0.5 * n_a * LOG_2PI - 0.5 * it.log_det
                - 0.5 * np.sum(d * u, axis=1))
    return logp, d, u


def log_prob(policy: MlpPolicy, obs: np.ndarray, actions: np.ndarray,
             cfg: LatticeConfig,
             internals: DistInternals | None = None) -> np.ndarray:
    """Batched log pi(a | s) without gradient accumulation."""
    it = internals if internals is not None else dist_internals(
        policy, obs, cfg)
    return log_prob_terms(policy, it, actions)[0]


def policy_backward(policy: MlpPolicy, cfg: LatticeConfig,
                    tape: GradientTape, it: DistInternals,
                    w_pg: np.ndarray | None = None,
                    w_ent: np.ndarray | None = None,
                    terms: tuple | None = None):
    """Accumulate sum_b w_pg[b] dlogp_b/dtheta + w_ent[b] dH_b/dtheta.

    Both terms reach the policy through the mean seed -w_pg u and one
    covariance seed wG = w_pg (u u^T - Sigma^-1) / 2 + w_ent Sigma^-1 / 2,
    so the covariance and the network are each differentiated once. A
    weight of None drops its term; w_pg needs terms = log_prob_terms(...)
    of the same internals.

    With stop_variance_gradient set, the variance-path contributions into the
    network weights are suppressed while the log-std matrices still receive
    gradients.
    """
    if it.cache is None:
        raise ValueError("internals were built without a forward cache")
    if w_pg is not None:
        _, d, u = terms
        d_mean = -(w_pg[:, None] * u)
    else:
        d_mean = np.zeros_like(it.mean)
    if it.kind == "diagonal":
        # the two log_sigma terms as separate adds, log-prob first
        if w_pg is not None:
            var = it.sigma * it.sigma
            tape.add("log_sigma",
                     np.sum(w_pg[:, None] * (d * d / var - 1.0), axis=0))
        if w_ent is not None:
            tape.add("log_sigma",
                     np.full(policy.action_dim, float(np.sum(w_ent))))
        d_latent = None
    else:
        half_ent = 0.0 if w_ent is None else 0.5 * w_ent
        if w_pg is not None:
            half_pg = 0.5 * w_pg
            wG = (half_pg[:, None] * u)[:, :, None] * u[:, None, :]
            wG += (half_ent - half_pg)[:, None, None] * it.cov_inv
        else:
            wG = half_ent[:, None, None] * it.cov_inv
        d_latent = _variance_backward(policy, it, cfg, wG, tape)
    if w_pg is not None or d_latent is not None:
        policy.net.backward(it.cache, d_mean, tape, d_latent=d_latent)


def log_prob_and_grad(policy: MlpPolicy, obs: np.ndarray, actions: np.ndarray,
                      cfg: LatticeConfig, tape: GradientTape | None,
                      weights: np.ndarray | None = None,
                      internals: DistInternals | None = None) -> np.ndarray:
    """Batched log pi(a | s); optionally accumulates sum_b w_b dlogp_b/dtheta
    (policy_backward without the entropy term)."""
    it = internals if internals is not None else dist_internals(
        policy, obs, cfg, need_cache=tape is not None)
    terms = log_prob_terms(policy, it, actions)
    if tape is not None:
        w = np.ones(len(terms[0])) if weights is None \
            else np.asarray(weights, float)
        policy_backward(policy, cfg, tape, it, w_pg=w, terms=terms)
    return terms[0]


def entropy_batch(policy: MlpPolicy, it: DistInternals) -> np.ndarray:
    n_a = policy.action_dim
    if it.kind == "diagonal":
        h = 0.5 * n_a * (LOG_2PI + 1.0) + np.sum(np.log(it.sigma))
        return np.full(it.mean.shape[0], h)
    return 0.5 * n_a * (LOG_2PI + 1.0) + 0.5 * it.log_det


def entropy_and_grad(policy: MlpPolicy, cfg: LatticeConfig,
                     tape: GradientTape, it: DistInternals,
                     weights: np.ndarray | None = None) -> np.ndarray:
    """Batched entropy; accumulates sum_b w_b dH_b/dtheta into the tape
    (policy_backward without the log-prob term)."""
    h = entropy_batch(policy, it)
    w = np.ones(len(h)) if weights is None else np.asarray(weights, float)
    policy_backward(policy, cfg, tape, it, w_ent=w)
    return h
