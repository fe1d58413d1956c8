"""Feed-forward policy and value networks with explicit reverse-mode
gradients.

No autodiff framework is used: the operator set (affine layers, ReLU / tanh /
GELU, and the full-covariance Gaussian log-density) is differentiated by hand,
which keeps the gradient path auditable and lets the variance-path
contributions be switched off independently (stop_variance_gradient).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .exploration import (
    LatticeConfig,
    NoiseStdMatrices,
    clip_std,
    sampling_log_std,
)

LOG_2PI = float(np.log(2.0 * np.pi))
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
    # imported on use, so relu and tanh networks never load scipy
    from scipy.special import erf
    return 0.5 * z * (1.0 + erf(z / _SQRT2))


def _gelu_d(z):
    from scipy.special import erf
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return 0.5 * (1.0 + erf(z / _SQRT2)) + z * phi


ACTIVATIONS = {
    "relu": (_relu, _relu_d),
    "tanh": (_tanh, _tanh_d),
    "gelu": (_gelu, _gelu_d),
}


def flat_segments(shapes: dict[str, tuple]) -> dict[str, tuple[int, int]]:
    """Per name, the [start, stop) of its segment in the flat vector of
    flat_layout(shapes): the segments follow the dict order without gaps."""
    segments, offset = {}, 0
    for k, s in shapes.items():
        n = math.prod(s)
        segments[k] = (offset, offset + n)
        offset += n
    return segments


def flat_layout(shapes: dict[str, tuple]) -> tuple[np.ndarray,
                                                    dict[str, np.ndarray]]:
    """A zeroed flat float64 vector and, per name, the view of its segment
    in the given shape. The trainer's parameters, the gradient tape and
    Adam's moments built from one shapes dict share offsets."""
    segments = flat_segments(shapes)
    flat = np.zeros(sum(b - a for a, b in segments.values()))
    return flat, {k: flat[a:b].reshape(shapes[k])
                  for k, (a, b) in segments.items()}


class GradientTape:
    """Per-parameter gradient accumulators aligned with a parameter dict.

    Each entry of grads is a view of one flat buffer in flat_layout order,
    so zeroing, the finiteness check and the clip scale are one array
    operation each.
    """

    def __init__(self, params: dict[str, np.ndarray]):
        shapes = {k: v.shape for k, v in params.items()}
        self.flat, self.grads = flat_layout(shapes)
        self._segments = list(flat_segments(shapes).values())

    def zero_(self):
        self.flat.fill(0.0)

    def add(self, name: str, value: np.ndarray):
        self.grads[name] += value

    def global_norm(self) -> float:
        # one square of the flat buffer, then a pairwise sum per key added
        # in key order: the bits of adding np.sum(g * g) key by key
        sq = self.flat * self.flat
        total = 0.0
        for a, b in self._segments:
            total += float(sq[a:b].sum())
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
    """Hidden stack plus linear head, parameters held in a shared dict.

    The initial weights are drawn into params, a dict holding a view for
    each name of Mlp.shapes (a trainer passes the views of its flat
    vector); without it the network lays out a flat vector of its own.
    """

    def __init__(self, rng: np.random.Generator, in_dim: int, hiddens,
                 out_dim: int, activation: str = "relu", prefix: str = "",
                 params: dict[str, np.ndarray] | None = None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.sizes = [in_dim, *hiddens, out_dim]
        self.activation = activation
        self.prefix = prefix
        if params is None:
            _, params = flat_layout(self.shapes(in_dim, hiddens, out_dim,
                                                prefix))
        self.params = params
        n_layers = len(self.sizes) - 1
        for i in range(n_layers):
            fan_in = self.sizes[i]
            if i == n_layers - 1:
                scale = np.sqrt(1.0 / fan_in)
            elif activation == "tanh":
                scale = np.sqrt(1.0 / fan_in)
            else:
                scale = np.sqrt(2.0 / fan_in)
            w = params[f"{prefix}w{i}"]
            rng.standard_normal(out=w)
            w *= scale
            params[f"{prefix}b{i}"][...] = 0.0

    @staticmethod
    def shapes(in_dim: int, hiddens, out_dim: int,
               prefix: str = "") -> dict[str, tuple]:
        """Parameter shapes by name, in the order of the parameter dict."""
        sizes = [in_dim, *hiddens, out_dim]
        shapes = {}
        for i in range(len(sizes) - 1):
            shapes[f"{prefix}w{i}"] = (sizes[i + 1], sizes[i])
            shapes[f"{prefix}b{i}"] = (sizes[i + 1],)
        return shapes

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
    """Policy network exposing the last-layer latent and final linear map;
    latent and action_from_latent serve the paired-simulation protocol of
    analysis.dual_sim_experiment.

    The noise parameters of the configured exploration strategy live in the
    same parameter dict as the network weights; params, when given, holds a
    view for each name of MlpPolicy.shapes, as for Mlp. cfg sets the noise
    shapes and their initial log std only: the distribution reads every
    other noise setting from the cfg given to dist_params.
    """

    def __init__(self, obs_dim: int, action_dim: int, cfg: LatticeConfig,
                 strategy: str = "lattice", hiddens=(256, 256),
                 activation: str = "relu", *, rng: np.random.Generator,
                 params: dict[str, np.ndarray] | None = None):
        if strategy not in ("diagonal", "gsde", "lattice"):
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        if params is None:
            _, params = flat_layout(self.shapes(obs_dim, action_dim, cfg,
                                                strategy, hiddens))
        self.params = params
        # the network shares the dict
        self.net = Mlp(rng, obs_dim, hiddens, action_dim, activation, "pi.",
                       params)
        names = ("log_std_x", "log_std_a") if strategy in ("gsde", "lattice") \
            else ("log_sigma",)
        for k in names:
            params[k][...] = float(cfg.init_log_std)

    @staticmethod
    def shapes(obs_dim: int, action_dim: int, cfg: LatticeConfig,
               strategy: str, hiddens=(256, 256)) -> dict[str, tuple]:
        """Parameter shapes by name: the network's, then the noise's."""
        shapes = Mlp.shapes(obs_dim, hiddens, action_dim, "pi.")
        if strategy in ("gsde", "lattice"):
            n_latent = [obs_dim, *hiddens][-1]
            shapes.update(NoiseStdMatrices.shapes(action_dim, n_latent, cfg))
        else:
            shapes["log_sigma"] = (action_dim,)
        return shapes

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

    def latent(self, obs: np.ndarray) -> np.ndarray:
        """Latents (n, N_x) of observations (n, obs_dim)."""
        return self.forward(obs)[0]

    def action_from_latent(self, lat: np.ndarray) -> np.ndarray:
        """Mean actions (n, N_a) of latents (n, N_x)."""
        return lat @ self.W.T + self.b


@dataclass
class DistParams:
    """The parameter-only part of the action distribution: everything
    dist_internals and NoiseSampler derive from the parameters alone, and
    alpha, the one value of the model derived from the strategy.

    Built by dist_params from the parameters as they are at that call, and
    not refreshed: the caller builds one per parameter version (a rollout,
    an evaluation, a minibatch) and must not use it past an update. Every
    DistInternals holds the one it was built from.
    """

    kind: str
    # the latent noise's weight: 0 for gsde, cfg.alpha for lattice
    alpha: float = 0.0
    # lattice / gsde fields, in the stored shape (R, N_x) of their log-std:
    # R = 1 for the reduced (1, N_x) shape, whose single row stands for
    # every row of the full matrix, or N_a / N_x with full_std
    mask_a: np.ndarray | None = None    # 1 where the clip is inactive
    mask_x: np.ndarray | None = None
    sa2: np.ndarray | None = None       # squared clipped stds
    sx2: np.ndarray | None = None
    # the sampler's unclipped variances exp(2 log S)
    var_a: np.ndarray | None = None
    var_x: np.ndarray | None = None
    # reduced stds: eigh of W W^T
    basis: np.ndarray | None = None     # (N_a, N_a), V
    lam: np.ndarray | None = None       # (N_a,)
    # full_std: row k = vec(w_k w_k^T)
    k_x: np.ndarray | None = None       # (N_x, N_a^2)
    # diagonal fields
    sigma: np.ndarray | None = None     # (N_a,)


@dataclass
class DistInternals:
    """The action distribution at a batch of states: the per-state values
    shared by the log-prob and entropy paths, and the DistParams they were
    built from.

    The latent x stored here is the exact array consumed by the sampling
    path, so the rollout and training code never recompute it. The c_a /
    c_x seeds keep the stored row count R of params.sa2 / params.sx2.

    With reduced stds every row's covariance is
    Sigma_b = (c_a,b + gamma) I + alpha^2 c_x,b W W^T, so all rows share the
    eigenvectors V = params.basis of W W^T = V diag(params.lam) V^T and row
    b has eigenvalues eig[b] = c_a,b + gamma + alpha^2 c_x,b lam. Nothing of
    shape (B, N_a, N_a) is formed: cov, chol and cov_inv are built from V
    and eig each time they are read. full_std rows share no basis, so that
    path factorizes the batched covariance and stores all three.
    """

    x: np.ndarray            # (B, N_x)
    mean: np.ndarray         # (B, N_a)
    cache: dict | None
    params: DistParams
    # lattice / gsde fields
    c_a: np.ndarray | None = None       # (B, R_a) = (x * x) @ params.sa2.T
    c_x: np.ndarray | None = None       # (B, R_x) = (x * x) @ params.sx2.T
    log_det: np.ndarray | None = None   # (B,)
    # reduced stds: eigenvalues of Sigma_b
    eig: np.ndarray | None = None       # (B, N_a)
    # full_std: the batched covariance and its factors
    full_cov: np.ndarray | None = None  # (B, N_a, N_a)
    full_chol: np.ndarray | None = None
    full_inv: np.ndarray | None = None

    @property
    def kind(self) -> str:
        return self.params.kind

    @property
    def sigma(self) -> np.ndarray | None:
        """(N_a,) stds of the diagonal strategy."""
        return self.params.sigma

    @property
    def cov(self) -> np.ndarray:
        """(B, N_a, N_a) action covariances."""
        if self.eig is None:
            return self.full_cov
        basis = self.params.basis
        return (basis * self.eig[:, None, :]) @ basis.T

    @property
    def chol(self) -> np.ndarray:
        """(B, N_a, N_a) lower Cholesky factors of cov."""
        if self.eig is None:
            return self.full_chol
        return np.linalg.cholesky(self.cov)

    @property
    def cov_inv(self) -> np.ndarray:
        """(B, N_a, N_a) inverses of cov."""
        if self.eig is None:
            return self.full_inv
        basis = self.params.basis
        return (basis / self.eig[:, None, :]) @ basis.T


def dist_params(policy: MlpPolicy, cfg: LatticeConfig) -> DistParams:
    """The parameter-only part of policy's action distribution under cfg."""
    if policy.strategy == "diagonal":
        return DistParams(kind="diagonal",
                          sigma=np.exp(policy.params["log_sigma"]))
    eff = sampling_log_std(policy.noise_std, cfg)
    s_x_raw = np.exp(eff.log_std_x)
    s_a_raw = np.exp(eff.log_std_a)
    s_x = clip_std(s_x_raw, cfg.std_min, cfg.std_max)
    s_a = clip_std(s_a_raw, cfg.std_min, cfg.std_max)
    p = DistParams(
        kind=policy.strategy,
        alpha=0.0 if policy.strategy == "gsde" else cfg.alpha,
        mask_a=((s_a_raw > cfg.std_min) & (s_a_raw < cfg.std_max)).astype(
            float),
        mask_x=((s_x_raw > cfg.std_min) & (s_x_raw < cfg.std_max)).astype(
            float),
        sa2=s_a * s_a, sx2=s_x * s_x,
        var_a=np.exp(2.0 * eff.log_std_a), var_x=np.exp(2.0 * eff.log_std_x))
    W = policy.W
    if s_a.shape[0] == s_x.shape[0] == 1:
        # reduced stds (or full_std at N_x = N_a = 1): one c_a and one c_x
        # per row, so every row's covariance is diagonal in the eigenbasis
        # of W W^T. A full_std head at N_x = 1 has a (1, 1) s_x but N_a rows
        # of s_a, so both are checked.
        p.lam, p.basis = np.linalg.eigh(W @ W.T)
    else:
        n_a = policy.action_dim
        p.k_x = (W.T[:, :, None] * W.T[:, None, :]).reshape(-1, n_a * n_a)
    return p


def dist_internals(policy: MlpPolicy, obs: np.ndarray, cfg: LatticeConfig,
                   need_cache: bool = False,
                   params: DistParams | None = None) -> DistInternals:
    """The action distribution at the states obs. params is
    dist_params(policy, cfg), built here when not given."""
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    if params is None:
        params = dist_params(policy, cfg)
    if need_cache:
        x, mean, cache = policy.forward(obs, need_cache=True)
    else:
        x, mean = policy.forward(obs)
        cache = None
    if params.kind == "diagonal":
        return DistInternals(x=x, mean=mean, cache=cache, params=params)
    alpha = params.alpha
    n_a = policy.action_dim
    x2 = x * x
    c_a = x2 @ params.sa2.T
    c_x = x2 @ params.sx2.T
    if params.basis is not None:
        eig = c_a + cfg.gamma + (alpha * alpha) * c_x * params.lam
        if not (eig > 0.0).all():
            raise NotPositiveDefinite(
                "batched action covariance is singular; check gamma and the "
                "latent state")
        return DistInternals(x=x, mean=mean, cache=cache, params=params,
                             c_a=c_a, c_x=c_x,
                             log_det=np.sum(np.log(eig), axis=1), eig=eig)
    cov = ((alpha * alpha) * (c_x @ params.k_x)).reshape(-1, n_a, n_a)
    idx = np.arange(n_a)
    cov[:, idx, idx] += c_a + cfg.gamma
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "batched action covariance is singular; check gamma and the "
            "latent state") from exc
    log_det = 2.0 * np.sum(np.log(chol[:, idx, idx]), axis=1)
    return DistInternals(x=x, mean=mean, cache=cache, params=params,
                         c_a=c_a, c_x=c_x, log_det=log_det, full_cov=cov,
                         full_chol=chol, full_inv=np.linalg.inv(cov))


def _variance_backward(policy: MlpPolicy, it: DistInternals, cfg: LatticeConfig,
                       tape: GradientTape, half_inv: np.ndarray,
                       half_pg: np.ndarray,
                       u: np.ndarray) -> np.ndarray | None:
    """Chain the weighted dL/dSigma seed
    wG_b = half_pg[b] u_b u_b^T + half_inv[b] Sigma_b^-1 through the
    covariance construction. Writes log-std (and variance-path W) grads and
    returns the latent seed d_latent, or None when it vanishes."""
    p = it.params
    alpha2 = p.alpha * p.alpha
    flow = not cfg.stop_variance_gradient
    if it.eig is not None:
        # in the shared eigenbasis: tr wG_b and <wG_b, W W^T> from |u|^2,
        # |W^T u|^2, sum 1/e and sum lam/e
        inv_e = 1.0 / it.eig
        g_ca = (half_inv * np.sum(inv_e, axis=1)
                + half_pg * np.sum(u * u, axis=1))[:, None]
        if alpha2 != 0.0:
            wu = u @ policy.W
            g_cx = alpha2 * (half_inv * (inv_e @ p.lam)
                             + half_pg * np.sum(wu * wu, axis=1))[:, None]
            if flow:
                # dL/dW = 2 alpha^2 (sum_b c_x,b wG_b) W: a rank-B part plus
                # V diag(sum_b c_x,b half_inv[b] / e_b) V^T
                c_x = it.c_x[:, 0]
                m = (p.basis * ((c_x * half_inv) @ inv_e)) @ p.basis.T
                m += (u * (c_x * half_pg)[:, None]).T @ u
                grad_w = (2.0 * alpha2) * (m @ policy.W)
    else:
        n_a = policy.action_dim
        idx = np.arange(n_a)
        wG = (half_pg[:, None] * u)[:, :, None] * u[:, None, :]
        wG += half_inv[:, None, None] * it.full_inv
        g_ca = wG[:, idx, idx]  # (B, N_a) = dL/dc_a
        if alpha2 != 0.0:
            # dL/dc_x = alpha^2 * w_k^T G w_k
            wG_flat = wG.reshape(-1, n_a * n_a)
            g_cx = alpha2 * (wG_flat @ p.k_x.T)
            if flow:
                # dL/dW[a, k] = 2 alpha^2 sum_m W[m, k] sum_b wG[b, a, m]
                # c_x[b, k]
                gc = (wG_flat.T @ it.c_x).reshape(n_a, n_a, -1)
                grad_w = 2.0 * alpha2 * np.sum(gc * policy.W, axis=1)
    x2 = it.x * it.x
    tape.add("log_std_a", 2.0 * p.sa2 * p.mask_a * (g_ca.T @ x2))
    if alpha2 != 0.0:
        tape.add("log_std_x", 2.0 * p.sx2 * p.mask_x * (g_cx.T @ x2))
    if not flow:
        return None
    d_latent = g_ca @ p.sa2
    if alpha2 != 0.0:
        # variance path into the final linear map
        tape.add(policy.net.head_w_name, grad_w)
        d_latent += g_cx @ p.sx2
    return 2.0 * it.x * d_latent


def log_prob_terms(it: DistInternals, actions: np.ndarray):
    """Per-row (log pi(a | s), d = mean - a, u = Sigma^-1 d)."""
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    if actions.shape != it.mean.shape:
        raise DimensionMismatch(
            f"actions have shape {actions.shape}, expected {it.mean.shape}")
    d = it.mean - actions  # (B, N_a)
    n_a = it.mean.shape[1]
    if it.kind == "diagonal":
        u = d / (it.sigma * it.sigma)
        logp = (-0.5 * n_a * LOG_2PI
                - np.sum(np.log(it.sigma))
                - 0.5 * np.sum(d * u, axis=1))
    else:
        if it.eig is not None:
            basis = it.params.basis
            u = ((d @ basis) / it.eig) @ basis.T
        else:
            u = (it.full_inv @ d[..., None])[..., 0]
        logp = (-0.5 * n_a * LOG_2PI - 0.5 * it.log_det
                - 0.5 * np.sum(d * u, axis=1))
    return logp, d, u


def log_prob(it: DistInternals, actions: np.ndarray) -> np.ndarray:
    """Batched log pi(a | s) at the states of it, without gradient
    accumulation."""
    return log_prob_terms(it, actions)[0]


def policy_backward(policy: MlpPolicy, cfg: LatticeConfig,
                    tape: GradientTape, it: DistInternals, terms: tuple,
                    w_pg: np.ndarray, w_ent: np.ndarray):
    """Accumulate sum_b w_pg[b] dlogp_b/dtheta + w_ent[b] dH_b/dtheta, where
    terms = log_prob_terms(...) of the same internals.

    Both terms reach the policy through the mean seed -w_pg u and one
    covariance seed wG = w_pg (u u^T - Sigma^-1) / 2 + w_ent Sigma^-1 / 2,
    so the covariance and the network are each differentiated once.

    With stop_variance_gradient set, the variance-path contributions into the
    network weights are suppressed while the log-std matrices still receive
    gradients.
    """
    if it.cache is None:
        raise ValueError("internals were built without a forward cache")
    _, d, u = terms
    if it.kind == "diagonal":
        # the two log_sigma terms as separate adds, log-prob first
        var = it.sigma * it.sigma
        tape.add("log_sigma",
                 np.sum(w_pg[:, None] * (d * d / var - 1.0), axis=0))
        tape.add("log_sigma", np.full(policy.action_dim, float(np.sum(w_ent))))
        d_latent = None
    else:
        half_pg = 0.5 * w_pg
        d_latent = _variance_backward(policy, it, cfg, tape,
                                      0.5 * w_ent - half_pg, half_pg, u)
    policy.net.backward(it.cache, -(w_pg[:, None] * u), tape,
                        d_latent=d_latent)


def log_prob_and_grad(policy: MlpPolicy, obs: np.ndarray, actions: np.ndarray,
                      cfg: LatticeConfig, tape: GradientTape,
                      weights: np.ndarray | None = None) -> np.ndarray:
    """Batched log pi(a | s); accumulates sum_b w_b dlogp_b/dtheta
    (policy_backward with a zero entropy weight)."""
    it = dist_internals(policy, obs, cfg, need_cache=True)
    terms = log_prob_terms(it, actions)
    w = np.ones(len(terms[0])) if weights is None \
        else np.asarray(weights, float)
    policy_backward(policy, cfg, tape, it, terms, w, np.zeros_like(w))
    return terms[0]


def entropy_batch(it: DistInternals) -> np.ndarray:
    n_a = it.mean.shape[1]
    if it.kind == "diagonal":
        h = 0.5 * n_a * (LOG_2PI + 1.0) + np.sum(np.log(it.sigma))
        return np.full(it.mean.shape[0], h)
    return 0.5 * n_a * (LOG_2PI + 1.0) + 0.5 * it.log_det


def entropy_and_grad(policy: MlpPolicy, cfg: LatticeConfig,
                     tape: GradientTape, it: DistInternals,
                     weights: np.ndarray | None = None) -> np.ndarray:
    """Batched entropy; accumulates sum_b w_b dH_b/dtheta into the tape
    (policy_backward with a zero log-prob weight, at the mean actions)."""
    h = entropy_batch(it)
    w = np.ones(len(h)) if weights is None else np.asarray(weights, float)
    policy_backward(policy, cfg, tape, it, log_prob_terms(it, it.mean),
                    np.zeros_like(w), w)
    return h
