"""Exploration strategies: independent action noise, gSDE, and latent
time-correlated exploration.

The latent strategy perturbs the policy's last-layer state through
periodically resampled Gaussian matrices, which induces a full-covariance
action distribution. gSDE is the alpha = 0 special case and shares the same
code path, so the two are bit-identical when alpha is zero.

The sampler only ever uses P_x x and P_a x, so with the reduced (1, N_x)
stds NoiseSampler forms no matrix at any integer period. A window draws
N_x + N_a normals for each new latent direction it meets, its products
P_x x, P_a x taken from their Gaussian conditional on the window's earlier
ones, instead of the N_x^2 + N_a N_x entries of the two matrices; period 1
draws once per step. full_std at period > 1 and "episode" draw the
matrices. Runs are bit-reproducible from config and seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import is_finite_number, is_int, is_number

STRATEGIES = ("diagonal", "gsde", "lattice")


@dataclass
class LatticeConfig:
    """Knobs of the latent-noise model.

    period is a step count, or the string "episode" to resample perturbation
    matrices only at environment resets. The stds are clipped into
    [std_min, std_max]; std_max = inf clips them from below only.
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
        if not (is_finite_number(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha!r}")
        if self.period != "episode" and not (is_int(self.period)
                                             and self.period >= 1):
            raise ValueError(f"period must be an integer >= 1 or 'episode', "
                             f"got {self.period!r}")
        if not (is_finite_number(self.std_min) and self.std_min > 0.0):
            raise ValueError(f"std_min must be a finite number > 0, got "
                             f"{self.std_min!r}")
        if not (is_number(self.std_max) and self.std_max > self.std_min):
            raise ValueError(f"std_max must be a number > std_min (inf for no "
                             f"upper clip), got {self.std_max!r}")
        if not (is_finite_number(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be a finite number >= 0, got "
                             f"{self.gamma!r}")
        if not is_finite_number(self.init_log_std):
            raise ValueError(f"init_log_std must be a finite number, got "
                             f"{self.init_log_std!r}")
        for name in ("rescale", "stop_variance_gradient", "full_std"):
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise ValueError(f"{name} must be true or false, got "
                                 f"{value!r}")

    @property
    def period_steps(self) -> int | None:
        """Numeric period, or None for episode mode."""
        return None if self.period == "episode" else self.period


@dataclass
class NoiseStdMatrices:
    """Learnable log-std matrices for the latent and action perturbations.

    Reduced shape (1, N_x) ties a column's std across rows; full shape stores
    one entry per matrix element.
    """

    log_std_x: np.ndarray  # (N_x, N_x) or (1, N_x)
    log_std_a: np.ndarray  # (N_a, N_x) or (1, N_x)

    @staticmethod
    def shapes(n_actions: int, n_latent: int,
               cfg: LatticeConfig) -> dict[str, tuple]:
        """Shapes of log_std_x and log_std_a, by field name."""
        if cfg.full_std:
            return {"log_std_x": (n_latent, n_latent),
                    "log_std_a": (n_actions, n_latent)}
        return {"log_std_x": (1, n_latent), "log_std_a": (1, n_latent)}

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


def sampling_log_std(std: NoiseStdMatrices,
                     cfg: LatticeConfig) -> NoiseStdMatrices:
    """Log stds of the perturbation entries, in their stored shapes."""
    return rescaled_log_std(std, std.n_latent) if cfg.rescale else std


def resample_perturbations(std: NoiseStdMatrices, cfg: LatticeConfig,
                           n_actions: int,
                           rng: np.random.Generator) -> PerturbationMatrices:
    """Draw fresh P matrices, entrywise N(0, S_ij^2)."""
    # exp in the stored shape, broadcast by the in-place scaling: the same
    # bytes as scaling by the stds expanded to full shape
    eff = sampling_log_std(std, cfg)
    p_x = rng.standard_normal((std.n_latent, std.n_latent))
    p_x *= np.exp(eff.log_std_x)
    p_a = rng.standard_normal((n_actions, std.n_latent))
    p_a *= np.exp(eff.log_std_a)
    return PerturbationMatrices(P_x=p_x, P_a=p_a)


# Relative residual (in the metric D) below which a latent lies in the span
# of its window's earlier latents and opens no new direction.
SPAN_TOL = 1e-12
# Latent slots a window starts with; they double as a window meets more.
WINDOW_SLOTS = 16


@dataclass
class _Windows:
    """The open windows of a reduced-std sampler, one row per env.

    s2 holds D = Diag(S^2) of the stds at the windows' common opening step,
    for the P_x rows (metric 0) and the P_a rows (metric 1). Row i keeps
    the latents its window has met with their products P_x x | P_a x; and
    per metric a D-orthonormal basis q_j of those latents with
    y_j = P_x q_x,j | P_a q_a,j, the standard normals the window drew for
    direction j. Slots past a row's counts are zero, and there are only as
    many as the windows have needed, so a long period costs what its
    windows meet rather than its length.
    """

    s2: np.ndarray      # (2, N_x), shared by every env
    seen: np.ndarray    # (n_envs, slots, N_x)
    p: np.ndarray       # (n_envs, slots, N_x + N_a)
    n_seen: np.ndarray  # (n_envs,)
    q: np.ndarray       # (n_envs, 2, slots, N_x)
    y: np.ndarray       # (n_envs, slots, N_x + N_a)
    n_dir: np.ndarray   # (n_envs,)

    @classmethod
    def allocate(cls, s2: np.ndarray, n_envs: int, slots: int, n_a: int):
        n_x = s2.shape[1]
        return cls(s2=s2,
                   seen=np.zeros((n_envs, slots, n_x)),
                   p=np.zeros((n_envs, slots, n_x + n_a)),
                   n_seen=np.zeros(n_envs, dtype=int),
                   q=np.zeros((n_envs, 2, slots, n_x)),
                   y=np.zeros((n_envs, slots, n_x + n_a)),
                   n_dir=np.zeros(n_envs, dtype=int))

    def reserve(self, n: int):
        """Make room for n latents in every window."""
        slots = self.seen.shape[1]
        if n > slots:
            more = max(n, 2 * slots) - slots
            for name, axis in (("seen", 1), ("p", 1), ("q", 2), ("y", 1)):
                a = getattr(self, name)
                pad = list(a.shape)
                pad[axis] = more
                setattr(self, name, np.concatenate([a, np.zeros(pad)],
                                                   axis=axis))


def _holds_matrices(cfg: LatticeConfig) -> bool:
    """Whether NoiseSampler draws and holds P_x and P_a."""
    return cfg.period_steps is None or (cfg.full_std and cfg.period_steps > 1)


def episode_normals(policy, cfg: LatticeConfig, n_steps: int) -> int:
    """Normals NoiseSampler draws from one env's rng in an episode of
    n_steps; for the reduced-std window sampler at period > 1, the bound."""
    n_x, n_a = policy.n_latent, policy.action_dim
    if policy.strategy == "diagonal":
        return n_steps * n_a
    if _holds_matrices(cfg):
        windows = -(-n_steps // (cfg.period_steps or n_steps))
        return windows * (n_x * n_x + n_a * n_x)
    return n_steps * (n_x + n_a)


class NoiseSampler:
    """The action-noise process of a policy over a batch of environments.

    Env i draws only from rngs[i], a Generator or any object with its
    standard_normal(size), and owns its perturbation window. The envs run
    on one episode clock, which the caller passes to sample as step, so
    their windows open and close at the same steps; the sampler's only
    state is its open windows (or matrices) and its rngs. The rows
    of P_x are iid N(0, D_x), D_x = Diag(S_x^2) with the unclipped sampling
    stds, and those of P_a iid N(0, D_a). With reduced stds a window keeps
    no matrix: for a latent x it forms c = Q^T D x, r = x - Q c and
    rho^2 = r^T D r over the D-orthonormal basis Q of the latents met so
    far, and P x = Y c + rho z, where only a new direction (relative
    residual above SPAN_TOL) draws, N_x + N_a normals from rngs[i] for z.
    A latent equal to one met earlier in the window gets that step's
    products back, so a repeated state gets byte-equal noise. The opening
    step holds no direction and gives sd * z with sd^2 = x^2 S^2^T; at
    period 1 every step opens a window, so that is all it does (full_std
    included). A window uses the stds of its opening step and the current
    W, as held matrices would. full_std at period > 1 and "episode" draw
    every env's P_x and P_a through resample_perturbations when a window
    opens, in env order, and hold them in perturbations. Diagonal noise
    draws N(0, sigma^2) per action. An rng draws through
    standard_normal(size) for the matrices and standard_normal(out=row)
    otherwise.
    """

    def __init__(self, policy, cfg: LatticeConfig,
                 rngs: list[np.random.Generator]):
        self.policy = policy
        self.cfg = cfg
        self.rngs = list(rngs)
        self.matrix_path = _holds_matrices(cfg)
        self.perturbations: list[PerturbationMatrices] | None = None
        self.windows: _Windows | None = None

    def sample(self, x: np.ndarray, mean: np.ndarray, params,
               step: int) -> np.ndarray:
        """Actions of every env at episode step step (0 at an episode's
        first), from its latent row x[i] and mean action mean[i]. params is
        dist_params(policy, cfg) of the current parameters: its alpha
        weighs the latent term, its sigma or sampling variances (read when
        a window opens) scale the normals. Step 0 drops what the previous
        episode left open; at an integer period p > 1 the windows are
        dropped after their last step, where (step + 1) % p == 0."""
        policy = self.policy
        if step == 0:
            self._close()
        if policy.strategy == "diagonal":
            z = self._normals(self.rngs, policy.action_dim)
            actions = mean + z * params.sigma
        elif self.matrix_path:
            if self.perturbations is None:
                self.perturbations = [
                    resample_perturbations(policy.noise_std, self.cfg,
                                           policy.action_dim, rng)
                    for rng in self.rngs]
            actions = np.empty_like(mean)
            for i, p in enumerate(self.perturbations):
                actions[i] = mean[i] + (p.P_a @ x[i] + params.alpha
                                        * (policy.W @ (p.P_x @ x[i])))
        else:
            p_x, p_a = self._open(x, params) if self.windows is None \
                else self._continue(x)
            actions = mean + (p_a + params.alpha * (p_x @ policy.W.T))
        period = self.cfg.period_steps
        if period is not None and (step + 1) % period == 0:
            self._close()
        return actions

    def _close(self):
        self.perturbations = None
        self.windows = None

    def _normals(self, rngs, width: int) -> np.ndarray:
        """(len(rngs), width) normals, row i drawn from rngs[i]."""
        z = np.empty((len(rngs), width))
        for rng, row in zip(rngs, z):
            rng.standard_normal(out=row)
        return z

    def _open(self, x, params):
        """Products sd * z of every env's opening step; holds the windows
        when they outlive the step."""
        policy = self.policy
        n_x = policy.n_latent
        s2_x, s2_a = params.var_x, params.var_a
        x2 = x * x
        # unclipped S^2 in the stored shape: a reduced (1, N_x) row gives
        # one sd per sample, broadcast over the N_x or N_a outputs
        sd_x = np.sqrt(x2 @ s2_x.T)
        sd_a = np.sqrt(x2 @ s2_a.T)
        z = self._normals(self.rngs, n_x + policy.action_dim)
        p_x = sd_x * z[:, :n_x]
        p_a = sd_a * z[:, n_x:]
        if self.cfg.period_steps > 1:
            self.windows = _Windows.allocate(
                np.concatenate([s2_x, s2_a]), len(x),
                min(self.cfg.period_steps, WINDOW_SLOTS), policy.action_dim)
            rows = np.arange(len(x))
            self._remember(rows, x, p_x, p_a)
            # the residual of a first latent is the latent itself; x = 0
            # opens no direction
            rho = np.concatenate([sd_x, sd_a], axis=1)
            new = np.any(rho > 0.0, axis=1)
            r = np.broadcast_to(x[new, None], (np.count_nonzero(new), 2, n_x))
            self._add_directions(rows[new], r, rho[new], z[new])
        return p_x, p_a

    def _continue(self, x):
        """Products of every env, whose windows have met a latent already."""
        w = self.windows
        n_x = self.policy.n_latent
        p_x = np.empty((len(x), n_x))
        p_a = np.empty((len(x), self.policy.action_dim))
        rows = np.arange(len(x))
        n = w.n_seen.max()
        same = np.all(w.seen[:, :n] == x[:, None], axis=2)
        same &= np.arange(n) < w.n_seen[:, None]
        repeat = same.any(axis=1)
        if repeat.any():
            p = w.p[repeat, same[repeat].argmax(axis=1)]
            p_x[repeat] = p[:, :n_x]
            p_a[repeat] = p[:, n_x:]
            rows, x = rows[~repeat], x[~repeat]
            if not rows.size:
                return p_x, p_a
        # this step stores one latent and may open one direction per row
        w.reserve(w.n_seen[rows].max() + 1)
        m = w.n_dir[rows].max()
        q = w.q[rows, :, :m]                      # (k, 2, m, N_x)
        d = w.s2                                  # (2, N_x)
        dx = d * x[:, None]
        c = (q @ dx[..., None])[..., 0]           # (k, 2, m)
        r = x[:, None] - (c[..., None, :] @ q)[..., 0, :]
        # a second pass restores the D-orthogonality rounding takes from
        # the first ("twice is enough")
        c2 = (q @ (d * r)[..., None])[..., 0]
        r -= (c2[..., None, :] @ q)[..., 0, :]
        c += c2
        rho = np.sqrt(np.sum(d * r * r, axis=2))  # (k, 2)
        norm = np.sqrt(np.sum(dx * x[:, None], axis=2))
        y = w.y[rows, :m]                         # (k, m, N_x + N_a)
        p_x[rows] = (c[:, 0, None] @ y[:, :, :n_x])[:, 0]
        p_a[rows] = (c[:, 1, None] @ y[:, :, n_x:])[:, 0]
        new = np.any(rho > SPAN_TOL * norm, axis=1)
        if new.any():
            z = self._normals([self.rngs[i] for i in rows[new]],
                              n_x + self.policy.action_dim)
            p_x[rows[new]] += rho[new, :1] * z[:, :n_x]
            p_a[rows[new]] += rho[new, 1:] * z[:, n_x:]
            self._add_directions(rows[new], r[new], rho[new], z)
        self._remember(rows, x, p_x[rows], p_a[rows])
        return p_x, p_a

    def _remember(self, rows, x, p_x, p_a):
        w = self.windows
        t = w.n_seen[rows]
        w.seen[rows, t] = x
        w.p[rows, t] = np.concatenate([p_x, p_a], axis=1)
        w.n_seen[rows] += 1

    def _add_directions(self, rows, r, rho, z):
        """Append r / rho (per metric) to the bases of envs rows, with the
        normals z their windows drew on it."""
        w = self.windows
        rho = rho[..., None]
        j = w.n_dir[rows]
        w.q[rows, :, j] = np.divide(r, rho, out=np.zeros(r.shape),
                                    where=rho > 0)
        w.y[rows, j] = z
        w.n_dir[rows] += 1
