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
draws once per step. Full stds at period > 1 and "episode" draw the
matrices: the stored log-std shapes pick the path, and of a cfg this
module reads the period only. The stds reach it already rescaled:
policy.dist_params is the one place that turns the learnable log-stds
into stds, and the sampler reads them off the DistParams it is given.
Runs are bit-reproducible from config and seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import is_finite_number, is_int, is_number

STRATEGIES = ("diagonal", "gsde", "lattice")


@dataclass
class LatticeConfig:
    """Knobs of the latent-noise model.

    period is a step count, or the string "episode" to resample perturbation
    matrices only at environment resets. policy.dist_params reads rescale,
    std_min, std_max and gamma: the distribution's stds are clipped into
    [std_min, std_max]; std_max = inf clips them from below only. full_std
    makes MlpPolicy.shapes store one log-std per matrix element (full stds).
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
class PerturbationMatrices:
    """Sampled noise matrices, held fixed for a resampling window."""

    P_x: np.ndarray  # (N_x, N_x)
    P_a: np.ndarray  # (N_a, N_x)


def resample_perturbations(params, n_actions: int,
                           rng: np.random.Generator) -> PerturbationMatrices:
    """Draw fresh P matrices, entrywise N(0, S_ij^2). params is
    dist_params(policy, cfg), or any object with its unclipped sampling
    stds sd_x and sd_a in their stored shapes."""
    # scaled in place by the stds in their stored shape, broadcast: the
    # same bytes as scaling by the stds expanded to full shape
    n_x = params.sd_x.shape[1]
    p_x = np.empty((n_x, n_x))
    rng.standard_normal(out=p_x)
    p_x *= params.sd_x
    p_a = np.empty((n_actions, n_x))
    rng.standard_normal(out=p_a)
    p_a *= params.sd_a
    return PerturbationMatrices(P_x=p_x, P_a=p_a)


# Relative residual (in the metric D) below which a latent lies in the span
# of its window's earlier latents and opens no new direction.
SPAN_TOL = 1e-12
# Step slots a window starts with; they double as a window runs longer.
WINDOW_SLOTS = 16


@dataclass
class _Windows:
    """The open windows of a reduced-std sampler, one row per env.

    s2 holds D = Diag(S^2) of the stds at the windows' common opening step,
    for the P_x rows (metric 0) and the P_a rows (metric 1). Slot t of seen
    and p is window step t: row i's latent there and its products
    P_x x | P_a x, so the episode clock, step % period, tells how far the
    windows are filled. Per metric, row i also keeps a D-orthonormal basis
    q_j of its latents with y_j = P_x q_x,j | P_a q_a,j, the standard
    normals the window drew for direction j; slots past n_dir are zero.
    There are only as many slots as the windows have run steps, so a long
    period costs what its windows run rather than its length.
    """

    s2: np.ndarray      # (2, N_x), shared by every env
    seen: np.ndarray    # (n_envs, slots, N_x)
    p: np.ndarray       # (n_envs, slots, N_x + N_a)
    q: np.ndarray       # (n_envs, 2, slots, N_x)
    y: np.ndarray       # (n_envs, slots, N_x + N_a)
    n_dir: np.ndarray   # (n_envs,)

    @classmethod
    def allocate(cls, s2: np.ndarray, n_envs: int, slots: int, n_a: int):
        n_x = s2.shape[1]
        return cls(s2=s2,
                   seen=np.zeros((n_envs, slots, n_x)),
                   p=np.zeros((n_envs, slots, n_x + n_a)),
                   q=np.zeros((n_envs, 2, slots, n_x)),
                   y=np.zeros((n_envs, slots, n_x + n_a)),
                   n_dir=np.zeros(n_envs, dtype=int))

    def reserve(self, n: int):
        """Make room for n steps in every window."""
        slots = self.seen.shape[1]
        if n > slots:
            more = max(n, 2 * slots) - slots
            for name, axis in (("seen", 1), ("p", 1), ("q", 2), ("y", 1)):
                a = getattr(self, name)
                pad = list(a.shape)
                pad[axis] = more
                setattr(self, name, np.concatenate([a, np.zeros(pad)],
                                                   axis=axis))


def _holds_matrices(policy, cfg: LatticeConfig) -> bool:
    """Whether NoiseSampler holds P_x, P_a: "episode", full stds at p > 1."""
    return cfg.period_steps is None or (cfg.period_steps > 1
                                        and not policy.reduced_std)


def episode_normals(policy, cfg: LatticeConfig, n_steps: int) -> int:
    """Normals NoiseSampler draws from one env's rng in an episode of
    n_steps; for the reduced-std window sampler at period > 1, the bound."""
    n_x, n_a = policy.n_latent, policy.action_dim
    if policy.strategy == "diagonal":
        return n_steps * n_a
    if _holds_matrices(policy, cfg):
        windows = -(-n_steps // (cfg.period_steps or n_steps))
        return windows * (n_x * n_x + n_a * n_x)
    return n_steps * (n_x + n_a)


class NoiseSampler:
    """The action-noise process of a policy over a batch of environments.

    Env i draws only from rngs[i], a Generator or any object with its
    standard_normal(out=...), and owns its perturbation window. The envs run
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
    period 1 every step opens a window, so that is all it does (full
    stds included). A window uses the stds of its opening step and the
    current W, as held matrices would. Full stds at period > 1, as the
    policy stores them, and "episode" draw every env's P_x and P_a
    through resample_perturbations, with the sampling stds sd_x and sd_a
    of the params given when a window opens, in env order, and hold them
    in perturbations. Diagonal noise draws N(0, sigma^2) per action.
    Every draw is standard_normal(out=...) into a preallocated array.
    """

    def __init__(self, policy, cfg: LatticeConfig,
                 rngs: list[np.random.Generator]):
        self.policy = policy
        self.cfg = cfg
        self.rngs = list(rngs)
        self.matrix_path = policy.strategy != "diagonal" \
            and _holds_matrices(policy, cfg)
        self.perturbations: list[PerturbationMatrices] | None = None
        self.windows: _Windows | None = None

    def sample(self, x: np.ndarray, mean: np.ndarray, params,
               step: int) -> np.ndarray:
        """Actions of every env at episode step step (0 at an episode's
        first), from its latent row x[i] and mean action mean[i]. params is
        dist_params(policy, cfg) of the current parameters: its alpha
        weighs the latent term, its sigma, sampling variances or, on the
        matrix path, sampling stds (read when a window opens) scale the
        normals. Step 0 drops what the previous episode left open; at an
        integer period p > 1 the windows are dropped after their last
        step, where (step + 1) % p == 0."""
        policy = self.policy
        if step == 0:
            self._close()
        if policy.strategy == "diagonal":
            z = self._normals(self.rngs, policy.action_dim)
            actions = mean + z * params.sigma
        elif self.matrix_path:
            if self.perturbations is None:
                self.perturbations = [
                    resample_perturbations(params, policy.action_dim, rng)
                    for rng in self.rngs]
            actions = np.empty_like(mean)
            for i, p in enumerate(self.perturbations):
                actions[i] = mean[i] + (p.P_a @ x[i] + params.alpha
                                        * (policy.W @ (p.P_x @ x[i])))
        else:
            t = step % self.cfg.period_steps
            p_x, p_a = self._open(x, params) if self.windows is None \
                else self._continue(x, t)
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
            w = self.windows = _Windows.allocate(
                np.concatenate([s2_x, s2_a]), len(x),
                min(self.cfg.period_steps, WINDOW_SLOTS), policy.action_dim)
            w.seen[:, 0] = x
            w.p[:, 0] = np.concatenate([p_x, p_a], axis=1)
            # the residual of a first latent is the latent itself; x = 0
            # opens no direction
            rho = np.concatenate([sd_x, sd_a], axis=1)
            new = np.any(rho > 0.0, axis=1)
            r = np.broadcast_to(x[new, None], (np.count_nonzero(new), 2, n_x))
            self._add_directions(np.flatnonzero(new), r, rho[new], z[new])
        return p_x, p_a

    def _continue(self, x, t):
        """Products of every env at window step t > 0, stored with x in slot
        t; a latent met at an earlier step of the window gets that step's
        products back."""
        w = self.windows
        n_x = self.policy.n_latent
        w.reserve(t + 1)
        w.seen[:, t] = x
        p = w.p[:, t]
        same = np.all(w.seen[:, :t] == x[:, None], axis=2)
        repeat = same.any(axis=1)
        p[repeat] = w.p[repeat, same[repeat].argmax(axis=1)]
        if repeat.all():
            return p[:, :n_x], p[:, n_x:]
        # the other rows may open one direction each
        rows = np.flatnonzero(~repeat)
        x = x[rows]
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
        p[rows, :n_x] = (c[:, 0, None] @ y[:, :, :n_x])[:, 0]
        p[rows, n_x:] = (c[:, 1, None] @ y[:, :, n_x:])[:, 0]
        new = np.any(rho > SPAN_TOL * norm, axis=1)
        if new.any():
            z = self._normals([self.rngs[i] for i in rows[new]],
                              n_x + self.policy.action_dim)
            p[rows[new], :n_x] += rho[new, :1] * z[:, :n_x]
            p[rows[new], n_x:] += rho[new, 1:] * z[:, n_x:]
            self._add_directions(rows[new], r[new], rho[new], z)
        return p[:, :n_x], p[:, n_x:]

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
