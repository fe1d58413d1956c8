"""Feed-forward policy and value networks with explicit reverse-mode
gradients.

No autodiff framework is used: the operator set (affine layers, ReLU / tanh /
GELU, and the full-covariance Gaussian log-density) is differentiated by hand,
which keeps the gradient path auditable and lets the variance-path
contributions be switched off independently (stop_variance_gradient).
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .exploration import STRATEGIES, LatticeConfig

LOG_2PI = float(np.log(2.0 * np.pi))
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _relu(z):
    return np.maximum(z, 0.0)


def _relu_d(z, h):
    # a bool mask: dh * (z > 0) has the bits of dh * 1.0 and dh * 0.0
    return z > 0.0


def _tanh_d(z, h):
    return 1.0 - h * h


def _gelu(z):
    # imported on use, so relu and tanh networks never load scipy
    from scipy.special import erf
    return 0.5 * z * (1.0 + erf(z / _SQRT2))


def _gelu_d(z, h):
    from scipy.special import erf
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    return 0.5 * (1.0 + erf(z / _SQRT2)) + z * phi


# name: (f, f'), f' given the pre-activation z and the forward's h = f(z)
ACTIVATIONS = {
    "relu": (_relu, _relu_d),
    "tanh": (np.tanh, _tanh_d),
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
        # global_norm squares the tape into _sq and sums each key's view
        self._sq = np.empty_like(self.flat)
        self._sq_keys = [self._sq[a:b]
                         for a, b in flat_segments(shapes).values()]

    def zero_(self):
        self.flat.fill(0.0)

    def add(self, name: str, value: np.ndarray):
        self.grads[name] += value

    def global_norm(self) -> float:
        # one square of the tape, then each key's pairwise sum added in key
        # order as Python floats (which overflow to inf without a warning):
        # the bits of adding np.sum(g * g) key by key
        np.multiply(self.flat, self.flat, out=self._sq)
        add = np.add.reduce
        total = 0.0
        for sq in self._sq_keys:
            total += float(add(sq))
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
        # (weight, bias) names per layer, the head last
        self._keys = [(f"{prefix}w{i}", f"{prefix}b{i}")
                      for i in range(len(self.sizes) - 1)]
        if params is None:
            _, params = flat_layout(self.shapes(in_dim, hiddens, out_dim,
                                                prefix))
        self.params = params
        n_layers = len(self._keys)
        for i, (w_name, b_name) in enumerate(self._keys):
            fan_in = self.sizes[i]
            if i == n_layers - 1:
                scale = np.sqrt(1.0 / fan_in)
            elif activation == "tanh":
                scale = np.sqrt(1.0 / fan_in)
            else:
                scale = np.sqrt(2.0 / fan_in)
            w = params[w_name]
            rng.standard_normal(out=w)
            w *= scale
            params[b_name][...] = 0.0

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
    def head_w_name(self) -> str:
        return self._keys[-1][0]

    @property
    def head_b_name(self) -> str:
        return self._keys[-1][1]

    def forward(self, obs: np.ndarray, need_cache: bool = False):
        """Returns (latent, out[, cache]); latent is the last hidden output."""
        obs = np.asarray(obs, dtype=float)
        if obs.shape[-1] != self.sizes[0]:
            raise DimensionMismatch(
                f"input width {obs.shape[-1]}, expected {self.sizes[0]}")
        act, _ = ACTIVATIONS[self.activation]
        params = self.params
        h = obs
        hs = [h]
        zs = []
        for w_name, b_name in self._keys[:-1]:
            z = h @ params[w_name].T
            z += params[b_name]
            h = act(z)
            hs.append(h)
            zs.append(z)
        w_name, b_name = self._keys[-1]
        out = h @ params[w_name].T
        out += params[b_name]
        if need_cache:
            return h, out, {"hs": hs, "zs": zs}
        return h, out

    def backward(self, cache, d_out: np.ndarray, tape: GradientTape,
                 d_latent: np.ndarray | None = None) -> None:
        """Accumulate grads for a scalar objective whose per-sample seeds are
        d_out (at the head output) and d_latent (injected at the latent).
        Returns None: the gradient at the network's input is not formed."""
        _, act_d = ACTIVATIONS[self.activation]
        params = self.params
        hs, zs = cache["hs"], cache["zs"]
        w_name, b_name = self._keys[-1]
        tape.add(w_name, d_out.T @ hs[-1])
        tape.add(b_name, d_out.sum(axis=0))
        if not zs:
            return
        dh = d_out @ params[w_name]
        if d_latent is not None:
            dh += d_latent
        for i in reversed(range(len(zs))):
            w_name, b_name = self._keys[i]
            dz = dh * act_d(zs[i], hs[i + 1])
            tape.add(w_name, dz.T @ hs[i])
            tape.add(b_name, dz.sum(axis=0))
            if i:
                dh = dz @ params[w_name]


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
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        self.strategy = strategy
        self.obs_dim = obs_dim
        self.action_dim = action_dim
        shapes = self.shapes(obs_dim, action_dim, cfg, strategy, hiddens)
        if params is None:
            _, params = flat_layout(shapes)
        self.params = params
        # the network shares the dict; the other names are the log-stds
        self.net = Mlp(rng, obs_dim, hiddens, action_dim, activation, "pi.",
                       params)
        for k in shapes:
            if not k.startswith(self.net.prefix):
                params[k][...] = float(cfg.init_log_std)

    @staticmethod
    def shapes(obs_dim: int, action_dim: int, cfg: LatticeConfig,
               strategy: str, hiddens=(256, 256)) -> dict[str, tuple]:
        """Parameter shapes by name: the network's, then the noise's. A
        reduced (1, N_x) log-std ties a column's std across rows; full_std
        stores one per matrix element. No other code reads cfg.full_std."""
        shapes = Mlp.shapes(obs_dim, hiddens, action_dim, "pi.")
        if strategy in ("gsde", "lattice"):
            n_latent = [obs_dim, *hiddens][-1]
            rows_x, rows_a = (n_latent, action_dim) if cfg.full_std \
                else (1, 1)
            shapes["log_std_x"] = (rows_x, n_latent)
            shapes["log_std_a"] = (rows_a, n_latent)
        else:
            shapes["log_sigma"] = (action_dim,)
        return shapes

    @property
    def n_latent(self) -> int:
        return self.net.sizes[-2]

    @property
    def reduced_std(self) -> bool:
        """Whether the noise stds are reduced: both stored log-stds have
        one row (a full-std head at N_x = 1 has N_a rows of log_std_a)."""
        return self.params["log_std_x"].shape[0] \
            == self.params["log_std_a"].shape[0] == 1

    @property
    def W(self) -> np.ndarray:
        return self.params[self.net.head_w_name]

    @property
    def b(self) -> np.ndarray:
        return self.params[self.net.head_b_name]

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
    dist_internals and NoiseSampler derive from the parameters alone, with
    alpha, the one value of the model derived from the strategy, and the
    regularizer gamma. Its stds are the only ones derived from the
    learnable log-stds: dist_params rescales those by the latent width and
    clips their exp.

    Built by dist_params from the parameters as they are at that call, and
    not refreshed: the caller builds one per parameter version (a rollout,
    an evaluation, a minibatch) and must not use it past an update. Every
    DistInternals holds the one it was built from.
    """

    kind: str
    # the latent noise's weight: 0 for gsde, cfg.alpha for lattice
    alpha: float = 0.0
    # the covariance's diagonal regularizer, cfg.gamma (lattice / gsde)
    gamma: float = 0.0
    # lattice / gsde fields, in the stored shape (R, N_x) of their log-std:
    # R = 1 for the reduced (1, N_x) shape, whose single row stands for
    # every row of the full matrix, or N_a / N_x with full stds
    mask_a: np.ndarray | None = None    # 1 where the clip is inactive
    mask_x: np.ndarray | None = None
    sa2: np.ndarray | None = None       # squared clipped stds
    sx2: np.ndarray | None = None
    # the rescaled log-stds log S, and the sampler's unclipped stds
    # exp(log S) for the matrix path
    log_a: np.ndarray | None = None
    log_x: np.ndarray | None = None
    sd_a: np.ndarray | None = None
    sd_x: np.ndarray | None = None
    # reduced stds: eigh of W W^T
    basis: np.ndarray | None = None     # (N_a, N_a), V
    lam: np.ndarray | None = None       # (N_a,)
    # full stds: row k = vec(w_k w_k^T)
    k_x: np.ndarray | None = None       # (N_x, N_a^2)
    # diagonal fields
    sigma: np.ndarray | None = None     # (N_a,)

    # the window path's unclipped variances exp(2 log S), formed on first
    # read, so the update's builds never form them: sd * sd would move the
    # last bits of every lattice training run
    @cached_property
    def var_a(self) -> np.ndarray:
        return np.exp(2.0 * self.log_a)

    @cached_property
    def var_x(self) -> np.ndarray:
        return np.exp(2.0 * self.log_x)


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
    and eig each time they are read. Full-std rows share no basis, so that
    path factorizes the batched covariance and stores all three.
    """

    x: np.ndarray            # (B, N_x)
    mean: np.ndarray         # (B, N_a)
    cache: dict | None
    params: DistParams
    # lattice / gsde fields
    x2: np.ndarray | None = None        # (B, N_x) = x * x
    c_a: np.ndarray | None = None       # (B, R_a) = x2 @ params.sa2.T
    c_x: np.ndarray | None = None       # (B, R_x) = x2 @ params.sx2.T
    log_det: np.ndarray | None = None   # (B,)
    # reduced stds: eigenvalues of Sigma_b
    eig: np.ndarray | None = None       # (B, N_a)
    # full stds: the batched covariance and its factors
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
    """The parameter-only part of policy's action distribution under cfg.

    With cfg.rescale the log-stds are shifted by -0.5 log N_x, so the
    per-component noise variance does not grow with the latent width. The
    sampler draws with their exp, unclipped; the distribution clamps it
    into [cfg.std_min, cfg.std_max], never an already-drawn sample."""
    if policy.strategy == "diagonal":
        return DistParams(kind="diagonal",
                          sigma=np.exp(policy.params["log_sigma"]))
    # new arrays also without the rescale (x - 0.0 is x), so var_a / var_x
    # formed later read the log-stds of this build, not the live parameters
    shift = 0.5 * np.log(float(policy.n_latent)) if cfg.rescale else 0.0
    log_x = policy.params["log_std_x"] - shift
    log_a = policy.params["log_std_a"] - shift
    sd_x, sd_a = np.exp(log_x), np.exp(log_a)
    # np.clip's bits, without its argument handling
    s_x = np.minimum(np.maximum(sd_x, cfg.std_min), cfg.std_max)
    s_a = np.minimum(np.maximum(sd_a, cfg.std_min), cfg.std_max)
    p = DistParams(
        kind=policy.strategy,
        alpha=0.0 if policy.strategy == "gsde" else cfg.alpha,
        gamma=cfg.gamma,
        mask_a=((sd_a > cfg.std_min) & (sd_a < cfg.std_max)).astype(float),
        mask_x=((sd_x > cfg.std_min) & (sd_x < cfg.std_max)).astype(float),
        sa2=s_a * s_a, sx2=s_x * s_x, log_a=log_a, log_x=log_x, sd_a=sd_a,
        sd_x=sd_x)
    W = policy.W
    if policy.reduced_std:
        # one c_a and one c_x per row, so every row's covariance is
        # diagonal in the eigenbasis of W W^T
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
        eig = c_a + params.gamma + (alpha * alpha) * c_x * params.lam
        if not (eig > 0.0).all():
            raise NotPositiveDefinite(
                "batched action covariance is singular; check gamma and the "
                "latent state")
        return DistInternals(x=x, mean=mean, cache=cache, params=params,
                             x2=x2, c_a=c_a, c_x=c_x,
                             log_det=np.log(eig).sum(axis=1), eig=eig)
    cov = ((alpha * alpha) * (c_x @ params.k_x)).reshape(-1, n_a, n_a)
    idx = np.arange(n_a)
    cov[:, idx, idx] += c_a + params.gamma
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "batched action covariance is singular; check gamma and the "
            "latent state") from exc
    log_det = 2.0 * np.log(chol[:, idx, idx]).sum(axis=1)
    return DistInternals(x=x, mean=mean, cache=cache, params=params,
                         x2=x2, c_a=c_a, c_x=c_x, log_det=log_det,
                         full_cov=cov,
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
        g_ca = (half_inv * inv_e.sum(axis=1)
                + half_pg * (u * u).sum(axis=1))[:, None]
        if alpha2 != 0.0:
            wu = u @ policy.W
            g_cx = alpha2 * (half_inv * (inv_e @ p.lam)
                             + half_pg * (wu * wu).sum(axis=1))[:, None]
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
                grad_w = 2.0 * alpha2 * (gc * policy.W).sum(axis=1)
    x2 = it.x2
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
                - np.log(it.sigma).sum()
                - 0.5 * (d * u).sum(axis=1))
    else:
        if it.eig is not None:
            basis = it.params.basis
            u = ((d @ basis) / it.eig) @ basis.T
        else:
            u = (it.full_inv @ d[..., None])[..., 0]
        logp = (-0.5 * n_a * LOG_2PI - 0.5 * it.log_det
                - 0.5 * (d * u).sum(axis=1))
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
                 (w_pg[:, None] * (d * d / var - 1.0)).sum(axis=0))
        tape.add("log_sigma", np.full(policy.action_dim, float(w_ent.sum())))
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
        h = 0.5 * n_a * (LOG_2PI + 1.0) + np.log(it.sigma).sum()
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
