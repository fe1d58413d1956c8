"""Desk-scale overactuated continuous-control environments.

Both environments share the same aggregation rule: antagonist actuator groups
drive the dynamics through their mean activation, so a 3+3 arm reduces
analytically to the 1+1 arm and the closed-form noise-variance results carry
over unchanged.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteAction


def linear_ideal_policy(delta_theta: float) -> tuple[float, float]:
    """(a_e, a_f) = (0.5 + dtheta, 0.5 - dtheta), clamped to [0, 1]."""
    a_e = min(max(0.5 + delta_theta, 0.0), 1.0)
    a_f = min(max(0.5 - delta_theta, 0.0), 1.0)
    return a_e, a_f


def energy_of(actions) -> float:
    """Effort proxy: mean over steps of the mean squared activation."""
    actions = np.asarray(actions, dtype=float)
    if actions.size == 0:
        return 0.0
    return float(np.mean(actions * actions))


@dataclass
class EpisodeMetrics:
    cumulative_reward: float
    solved_fraction: float
    energy: float

    @classmethod
    def from_logs(cls, rewards, solved_flags, actions, max_steps: int):
        return cls(
            cumulative_reward=float(np.sum(rewards)),
            solved_fraction=float(np.sum(solved_flags)) / float(max_steps),
            energy=energy_of(actions),
        )


class FlexExtArm:
    """Single joint driven by antagonist extensor / flexor groups.

    Dynamics: theta_ddot = gain * (mean extensor activation - mean flexor
    activation), integrated with semi-implicit Euler. The observation is
    (delta_theta, theta_dot) with delta_theta = theta_target - theta.
    """

    name = "flex_ext_arm"

    def __init__(self, n_flexors: int = 3, n_extensors: int = 3,
                 gain: float = 60.0, dt: float = 0.02, max_steps: int = 100,
                 solved_threshold: float = 0.175, target_range: float = 0.5,
                 seed: int | None = None):
        self.n_flexors = int(n_flexors)
        self.n_extensors = int(n_extensors)
        self.gain = float(gain)
        self.dt = float(dt)
        self.max_steps = int(max_steps)
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
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

    def _obs(self) -> np.ndarray:
        return np.array([self.theta_target - self.theta, self.theta_dot])

    def observe(self) -> np.ndarray:
        return self._obs()

    def kinematics(self) -> np.ndarray:
        """Kinematic coordinates used by perturbation analyses."""
        return np.array([self.theta])

    def reset(self) -> np.ndarray:
        self.theta = 0.0
        self.theta_dot = 0.0
        self.theta_target = float(
            self.rng.uniform(-self.target_range, self.target_range))
        self.step_count = 0
        return self._obs()

    def accel_of(self, action: np.ndarray) -> float:
        """Angular acceleration produced by a (clamped) activation vector."""
        a = self._clamp(action)
        a_e = float(np.mean(a[: self.n_extensors]))
        a_f = float(np.mean(a[self.n_extensors:]))
        return self.gain * (a_e - a_f)

    def _clamp(self, action) -> np.ndarray:
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise DimensionMismatch(
                f"action has shape {action.shape}, expected "
                f"({self.action_dim},)")
        if not np.all(np.isfinite(action)):
            raise NonFiniteAction("action contains NaN or Inf")
        return np.clip(action, 0.0, 1.0)

    def step(self, action):
        accel = self.accel_of(action)
        self.theta_dot += accel * self.dt
        self.theta += self.theta_dot * self.dt
        self.step_count += 1
        delta = self.theta_target - self.theta
        solved = abs(delta) < self.solved_threshold
        reward = -abs(delta) + (1.0 if solved else 0.0)
        done = self.step_count >= self.max_steps
        return self._obs(), float(reward), done, {"solved": solved,
                                                  "accel": accel}

    def get_state(self) -> tuple:
        return (self.theta, self.theta_dot, self.theta_target, self.step_count)

    def set_state(self, state: tuple):
        self.theta, self.theta_dot, self.theta_target, self.step_count = state

    def reward_bounds(self) -> tuple[float, float]:
        """Finite interval containing every per-step reward for activations
        in [0, 1], from the bounded-acceleration envelope."""
        max_speed = self.gain * self.dt * self.max_steps
        max_delta = (abs(self.theta_target) + self.target_range
                     + max_speed * self.dt * self.max_steps)
        return (-max_delta, 1.0)


class PointReacher:
    """2-D point mass driven by opposing actuator-pair groups per axis.

    Action layout: [x-positive group, x-negative group, y-positive group,
    y-negative group], each of size pairs_per_axis.
    """

    name = "point_reacher"

    def __init__(self, pairs_per_axis: int = 2, gain: float = 30.0,
                 dt: float = 0.02, max_steps: int = 100,
                 solved_radius: float = 0.15, target_range: float = 0.5,
                 seed: int | None = None):
        self.pairs_per_axis = int(pairs_per_axis)
        self.gain = float(gain)
        self.dt = float(dt)
        self.max_steps = int(max_steps)
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
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

    def _obs(self) -> np.ndarray:
        delta = self.target - self.pos
        return np.concatenate([delta, self.vel])

    def observe(self) -> np.ndarray:
        return self._obs()

    def kinematics(self) -> np.ndarray:
        return self.pos.copy()

    def reset(self) -> np.ndarray:
        self.pos = np.zeros(2)
        self.vel = np.zeros(2)
        self.target = self.rng.uniform(-self.target_range, self.target_range,
                                       size=2)
        self.step_count = 0
        return self._obs()

    def _clamp(self, action) -> np.ndarray:
        action = np.asarray(action, dtype=float)
        if action.shape != (self.action_dim,):
            raise DimensionMismatch(
                f"action has shape {action.shape}, expected "
                f"({self.action_dim},)")
        if not np.all(np.isfinite(action)):
            raise NonFiniteAction("action contains NaN or Inf")
        return np.clip(action, 0.0, 1.0)

    def accel_of(self, action) -> np.ndarray:
        a = self._clamp(action)
        k = self.pairs_per_axis
        ax = self.gain * (np.mean(a[0:k]) - np.mean(a[k:2 * k]))
        ay = self.gain * (np.mean(a[2 * k:3 * k]) - np.mean(a[3 * k:4 * k]))
        return np.array([ax, ay])

    def step(self, action):
        accel = self.accel_of(action)
        self.vel = self.vel + accel * self.dt
        self.pos = self.pos + self.vel * self.dt
        self.step_count += 1
        dist = float(np.linalg.norm(self.target - self.pos))
        solved = dist < self.solved_radius
        reward = -dist + (1.0 if solved else 0.0)
        done = self.step_count >= self.max_steps
        return self._obs(), float(reward), done, {"solved": solved,
                                                  "accel": accel}

    def get_state(self) -> tuple:
        return (self.pos.copy(), self.vel.copy(), self.target.copy(),
                self.step_count)

    def set_state(self, state: tuple):
        pos, vel, target, count = state
        self.pos = pos.copy()
        self.vel = vel.copy()
        self.target = target.copy()
        self.step_count = count


ENV_REGISTRY = {
    FlexExtArm.name: FlexExtArm,
    PointReacher.name: PointReacher,
}


def make_env(name: str, seed: int | None = None, **kwargs):
    if name not in ENV_REGISTRY:
        raise ValueError(
            f"unknown env {name!r}; available: {sorted(ENV_REGISTRY)}")
    return ENV_REGISTRY[name](seed=seed, **kwargs)
