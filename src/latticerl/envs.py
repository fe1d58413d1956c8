"""Desk-scale overactuated continuous-control environments.

Both environments share the same aggregation rule: antagonist actuator groups
drive the dynamics through their mean activation, so a 3+3 arm reduces
analytically to the 1+1 arm and the closed-form noise-variance results carry
over unchanged.

Each environment writes its dynamics once, over a leading env axis. A single
env steps its own scalar state with that code; BatchedEnv keeps the state of
n copies as (n, ...) arrays and steps them all with the same code, so row i
of a batch follows, byte for byte, the trajectory of a single env seeded
like copy i under the same actions. Every episode lasts max_steps, and the
rows of a batch start and end their episodes together, on one step count.
An environment in ENV_REGISTRY must provide the interface BatchedEnv uses:

- ``state_fields``: names of the attributes that hold the episode state
  (the step count aside);
- ``initial_state(rng)``: their values at an episode start, drawn from rng;
- ``advance(s, a)``: move the state held by ``s`` (the env itself, or a
  BatchedEnv) one step under clipped activations ``a`` of shape (..., A),
  returning (reward, solved, accel);
- ``observation(s)``: the observation of that state, (..., obs_dim).

Perturbation analyses also use ``kinematics(s)``, the kinematic
coordinates of the state held by ``s``, (..., d_kin).
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, NonFiniteAction, is_finite_number,
                     is_int)

# The ufunc np.clip calls: its bits, signed zeros included, without its
# Python wrappers (np.maximum(a, 0.0) would turn -0.0 into 0.0).
try:
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip


def clipped_action(action, shape: tuple) -> np.ndarray:
    """The action clipped to [0, 1] after checking its shape and that every
    entry is finite; raises before anything is stepped."""
    action = np.asarray(action, dtype=float)
    if action.shape != shape:
        raise DimensionMismatch(
            f"action has shape {action.shape}, expected {shape}")
    if not np.isfinite(action).all():
        raise NonFiniteAction("action contains NaN or Inf")
    return _clip(action, 0.0, 1.0)


def _check_params(counts: dict, positive: dict, target_range) -> None:
    """Raise ValueError naming the first parameter out of range: counts
    must be integers >= 1, positive values finite numbers > 0 and
    target_range a finite number >= 0."""
    for name, value in counts.items():
        if not (is_int(value) and value >= 1):
            raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    for name, value in positive.items():
        if not (is_finite_number(value) and value > 0):
            raise ValueError(
                f"{name} must be a finite number > 0, got {value!r}")
    if not (is_finite_number(target_range) and target_range >= 0):
        raise ValueError(f"target_range must be a finite number >= 0, got "
                         f"{target_range!r}")


def _group_mean(a: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Mean activation of actuators start..stop-1 over the last axis (the
    sum and division np.mean performs, without its overhead)."""
    return np.add.reduce(a[..., start:stop], axis=-1) / (stop - start)


@dataclass
class EpisodeMetrics:
    cumulative_reward: float
    solved_fraction: float
    energy: float

    @classmethod
    def batch_from_logs(cls, rewards: np.ndarray, solved: np.ndarray,
                        actions: np.ndarray) -> list["EpisodeMetrics"]:
        """Metrics of n episodes of T steps from their per-step logs,
        rewards (n, T), solved (n, T) and actions (n, T, A) as logged: row
        i's solved fraction is over its T steps, its energy that of the
        actions the env applied, the logged ones clipped to [0, 1]. Each
        row's sums are the pairwise sums of one episode's np.sum and
        np.mean, in one reduction over the batch."""
        n, t = rewards.shape
        add = np.add.reduce
        squares = _clip(actions, 0.0, 1.0).reshape(n, -1)
        squares *= squares
        energy = add(squares, axis=1) / squares.shape[1]
        solved_fraction = np.count_nonzero(solved, axis=1) / float(t)
        return list(map(cls, add(rewards, axis=1).tolist(),
                        solved_fraction.tolist(), energy.tolist()))


class FlexExtArm:
    """Single joint driven by antagonist extensor / flexor groups.

    Dynamics: theta_ddot = gain * (mean extensor activation - mean flexor
    activation), integrated with semi-implicit Euler. The observation is
    (delta_theta, theta_dot) with delta_theta = theta_target - theta.
    """

    name = "flex_ext_arm"
    state_fields = ("theta", "theta_dot", "theta_target")

    def __init__(self, n_flexors: int = 3, n_extensors: int = 3,
                 gain: float = 60.0, dt: float = 0.02, max_steps: int = 100,
                 solved_threshold: float = 0.175, target_range: float = 0.5,
                 seed: int | None = None):
        _check_params({"n_flexors": n_flexors, "n_extensors": n_extensors,
                       "max_steps": max_steps},
                      {"gain": gain, "dt": dt,
                       "solved_threshold": solved_threshold}, target_range)
        self.n_flexors = n_flexors
        self.n_extensors = n_extensors
        self.gain = float(gain)
        self.dt = float(dt)
        self.max_steps = max_steps
        self.solved_threshold = float(solved_threshold)
        self.target_range = float(target_range)
        self.rng = np.random.default_rng(seed)
        self.theta = 0.0
        self.theta_dot = 0.0
        self.theta_target = 0.0
        self.step_count = 0

    @property
    def obs_dim(self) -> int:
        return 2

    @property
    def action_dim(self) -> int:
        return self.n_extensors + self.n_flexors

    @property
    def actuator_groups(self) -> dict[str, list[int]]:
        return {
            "extensors": list(range(self.n_extensors)),
            "flexors": list(range(self.n_extensors, self.action_dim)),
        }

    # ---------------------------------------- dynamics over a leading axis

    def initial_state(self, rng: np.random.Generator) -> tuple:
        return 0.0, 0.0, float(rng.uniform(-self.target_range,
                                           self.target_range))

    def _accel(self, a: np.ndarray):
        k = self.n_extensors
        return self.gain * (_group_mean(a, 0, k)
                            - _group_mean(a, k, self.action_dim))

    def advance(self, s, a: np.ndarray):
        accel = self._accel(a)
        s.theta_dot = s.theta_dot + accel * self.dt
        s.theta = s.theta + s.theta_dot * self.dt
        delta = s.theta_target - s.theta
        solved = np.abs(delta) < self.solved_threshold
        return -np.abs(delta) + solved, solved, accel

    def observation(self, s) -> np.ndarray:
        obs = np.empty(np.shape(s.theta) + (2,))
        obs[..., 0] = s.theta_target - s.theta
        obs[..., 1] = s.theta_dot
        return obs

    def kinematics(self, s) -> np.ndarray:
        return np.array(s.theta, dtype=float)[..., None]

    # ------------------------------------------------------- one env

    def reset(self) -> np.ndarray:
        self.theta, self.theta_dot, self.theta_target = \
            self.initial_state(self.rng)
        self.step_count = 0
        return self.observation(self)

    def step(self, action):
        reward, solved, accel = self.advance(
            self, clipped_action(action, (self.action_dim,)))
        self.step_count += 1
        done = self.step_count >= self.max_steps
        return self.observation(self), float(reward), done, {
            "solved": bool(solved), "accel": accel}


class PointReacher:
    """2-D point mass driven by opposing actuator-pair groups per axis.

    Action layout: [x-positive group, x-negative group, y-positive group,
    y-negative group], each of size pairs_per_axis.
    """

    name = "point_reacher"
    state_fields = ("pos", "vel", "target")

    def __init__(self, pairs_per_axis: int = 2, gain: float = 30.0,
                 dt: float = 0.02, max_steps: int = 100,
                 solved_radius: float = 0.15, target_range: float = 0.5,
                 seed: int | None = None):
        _check_params({"pairs_per_axis": pairs_per_axis,
                       "max_steps": max_steps},
                      {"gain": gain, "dt": dt, "solved_radius": solved_radius},
                      target_range)
        self.pairs_per_axis = pairs_per_axis
        self.gain = float(gain)
        self.dt = float(dt)
        self.max_steps = max_steps
        self.solved_radius = float(solved_radius)
        self.target_range = float(target_range)
        self.rng = np.random.default_rng(seed)
        self.pos = np.zeros(2)
        self.vel = np.zeros(2)
        self.target = np.zeros(2)
        self.step_count = 0

    @property
    def obs_dim(self) -> int:
        return 4

    @property
    def action_dim(self) -> int:
        return 4 * self.pairs_per_axis

    @property
    def actuator_groups(self) -> dict[str, list[int]]:
        k = self.pairs_per_axis
        return {
            "x_pos": list(range(0, k)),
            "x_neg": list(range(k, 2 * k)),
            "y_pos": list(range(2 * k, 3 * k)),
            "y_neg": list(range(3 * k, 4 * k)),
        }

    # ---------------------------------------- dynamics over a leading axis

    def initial_state(self, rng: np.random.Generator) -> tuple:
        return np.zeros(2), np.zeros(2), rng.uniform(
            -self.target_range, self.target_range, size=2)

    def _accel(self, a: np.ndarray) -> np.ndarray:
        # the four group means as one reduction over an (..., 4, k) view,
        # each group's the sum _group_mean takes
        k = self.pairs_per_axis
        means = np.add.reduce(a.reshape(a.shape[:-1] + (4, k)), axis=-1) / k
        return self.gain * (means[..., 0::2] - means[..., 1::2])

    def advance(self, s, a: np.ndarray):
        accel = self._accel(a)
        s.vel = s.vel + accel * self.dt
        s.pos = s.pos + s.vel * self.dt
        d = s.target - s.pos
        # the BLAS dot np.linalg.norm takes, one per row
        dist = np.sqrt((d[..., None, :] @ d[..., :, None])[..., 0, 0])
        solved = dist < self.solved_radius
        return -dist + solved, solved, accel

    def observation(self, s) -> np.ndarray:
        return np.concatenate([s.target - s.pos, s.vel], axis=-1)

    def kinematics(self, s) -> np.ndarray:
        return np.array(s.pos, dtype=float)

    # ------------------------------------------------------- one env

    def reset(self) -> np.ndarray:
        self.pos, self.vel, self.target = self.initial_state(self.rng)
        self.step_count = 0
        return self.observation(self)

    def step(self, action):
        reward, solved, accel = self.advance(
            self, clipped_action(action, (self.action_dim,)))
        self.step_count += 1
        done = self.step_count >= self.max_steps
        return self.observation(self), float(reward), done, {
            "solved": bool(solved), "accel": accel}


class BatchedEnv:
    """n copies of one environment stepped as arrays, on one episode clock.

    Built from n single envs of one class and equal parameters: copy i lends
    its rng, which draws row i's episode starts (BatchedEnv([env] * n) draws
    n starts in row order from env's rng, as n resets of env would); the
    parameters and the dynamics are copy 0's. The state fields are (n, ...)
    attributes of this holder. All rows start their episodes together, so
    step_count is one int and step's done one bool; step does not reset,
    so reset every row once done is set. step checks the whole action array
    before any row moves, so a bad row leaves every row as it was.
    """

    def __init__(self, envs):
        self.env = envs[0]
        self.rngs = [e.rng for e in envs]
        self.n = len(envs)
        self.reset()

    @property
    def obs_dim(self) -> int:
        return self.env.obs_dim

    @property
    def action_dim(self) -> int:
        return self.env.action_dim

    @property
    def max_steps(self) -> int:
        return self.env.max_steps

    def observe(self) -> np.ndarray:
        return self.env.observation(self)

    def reset(self) -> np.ndarray:
        """Start a new episode in every row, row i drawing from its own rng,
        in row order; returns the observations."""
        starts = [self.env.initial_state(rng) for rng in self.rngs]
        for j, name in enumerate(self.env.state_fields):
            setattr(self, name, np.array([s[j] for s in starts], dtype=float))
        self.step_count = 0
        return self.observe()

    def step(self, actions):
        """One step of every row under actions (n, A). Returns obs
        (n, obs_dim), rewards (n,), done (one bool for every row) and
        solved (n,)."""
        a = clipped_action(actions, (self.n, self.env.action_dim))
        rewards, solved, _ = self.env.advance(self, a)
        self.step_count += 1
        return (self.observe(), rewards, self.step_count >= self.max_steps,
                solved)


ENV_REGISTRY = {
    FlexExtArm.name: FlexExtArm,
    PointReacher.name: PointReacher,
}


def make_env(name: str, seed: int | None = None, **kwargs):
    if name not in ENV_REGISTRY:
        raise ValueError(
            f"unknown env {name!r}; available: {sorted(ENV_REGISTRY)}")
    return ENV_REGISTRY[name](seed=seed, **kwargs)
