"""Shared test helpers: finite differences, a constant-observation env and
the committed schema-1 checkpoint."""

import base64
from pathlib import Path

import numpy as np
import pytest

from latticerl.exploration import LatticeConfig
from latticerl.policy import GradientTape, MlpPolicy, dist_internals
from latticerl.trainer import PpoConfig, PPOTrainer

SCHEMA1_CHECKPOINT = Path(__file__).parent / "data" / "checkpoint_schema1.json"


def schema1_reference_trainer() -> PPOTrainer:
    """The trainer SCHEMA1_CHECKPOINT was written from by the schema-1
    save_checkpoint (JSON lists of floats): 8x8 nets on flex_ext_arm, every
    parameter set to 0.3 x standard normals drawn in sorted name order from
    seed 2024, then edge values (signed zero, subnormals, +-1e308, the
    largest float64) in the value net's unused-by-evaluation v.b0."""
    tr = PPOTrainer("flex_ext_arm", strategy="lattice",
                    lattice_cfg=LatticeConfig(),
                    ppo_cfg=PpoConfig(learning_rate=1e-3, batch_size=16,
                                      gradient_steps=8, n_epochs=2, n_envs=4),
                    hiddens=(8, 8), critic_hiddens=(8, 8), seed=3)
    rng = np.random.default_rng(2024)
    for k in sorted(tr.params):
        tr.params[k][...] = 0.3 * rng.standard_normal(tr.params[k].shape)
    tr.params["v.b0"][...] = [-0.0, 5e-324, 2.2250738585072014e-308, 1e308,
                              -1e308, 1.7976931348623157e308, -2.5e-310, 0.1]
    tr.env_steps = 1234
    tr.updates = 5
    return tr


def f8_entry(arr) -> dict:
    """A parameter array as schema 2 stores it, encoded independently of
    the library: shape and base64 of the little-endian float64 bytes."""
    arr = np.asarray(arr, dtype=float)
    return {"shape": list(arr.shape),
            "f8": base64.b64encode(arr.astype("<f8").tobytes()).decode()}


def finite_difference(f, arr, idx, h=1e-6):
    """Central difference of a scalar function f() w.r.t. arr[idx]."""
    orig = arr[idx]
    arr[idx] = orig + h
    fp = f()
    arr[idx] = orig - h
    fm = f()
    arr[idx] = orig
    return (fp - fm) / (2.0 * h)


def relative_error(numeric, analytic, floor=1e-8):
    return abs(numeric - analytic) / max(floor, abs(numeric), abs(analytic))


class ConstantObsEnv:
    """Minimal environment whose observation never changes; used to isolate
    the exploration noise from the policy's state dependence. Its one state
    field, zero, stays 0 and gives a batch its shape; it implements the
    interface BatchedEnv steps."""

    name = "constant_obs"
    max_steps = 100
    state_fields = ("zero",)

    def __init__(self, obs_dim: int = 2, action_dim: int = 4,
                 max_steps: int = 100, seed: int | None = None):
        self._obs_dim = int(obs_dim)
        self._action_dim = int(action_dim)
        self.max_steps = int(max_steps)
        self.rng = np.random.default_rng(seed)
        self.zero = 0.0
        self.step_count = 0

    @property
    def obs_dim(self) -> int:
        return self._obs_dim

    @property
    def action_dim(self) -> int:
        return self._action_dim

    @property
    def actuator_groups(self):
        return {"all": list(range(self._action_dim))}

    def initial_state(self, rng):
        return (0.0,)

    def advance(self, s, a):
        shape = np.shape(s.zero)
        return np.zeros(shape), np.zeros(shape, dtype=bool), np.zeros(shape)

    def observation(self, s):
        return np.ones(np.shape(s.zero) + (self._obs_dim,))

    def reset(self):
        self.step_count = 0
        return self.observation(self)

    def step(self, action):
        self.step_count += 1
        done = self.step_count >= self.max_steps
        return self.observation(self), 0.0, done, {"solved": False,
                                                    "accel": 0.0}


def linear_ideal_policy(delta_theta: float) -> tuple[float, float]:
    """(a_e, a_f) = (0.5 + dtheta, 0.5 - dtheta), clamped to [0, 1]."""
    a_e = min(max(0.5 + delta_theta, 0.0), 1.0)
    a_f = min(max(0.5 - delta_theta, 0.0), 1.0)
    return a_e, a_f


class LinearArmPolicy:
    """Deterministic linear controller for the flexor-extensor arm, a batch
    of rows per call; its latent is the angle error, broadcast into both
    actuator groups."""

    def __init__(self, n_extensors: int = 1, n_flexors: int = 1):
        self.n_extensors = n_extensors
        self.n_flexors = n_flexors

    def latent(self, obs: np.ndarray) -> np.ndarray:
        return obs[:, :1]

    def action_from_latent(self, lat: np.ndarray) -> np.ndarray:
        # linear_ideal_policy, row by row
        a_e = np.clip(0.5 + lat, 0.0, 1.0)
        a_f = np.clip(0.5 - lat, 0.0, 1.0)
        return np.concatenate([np.repeat(a_e, self.n_extensors, axis=1),
                               np.repeat(a_f, self.n_flexors, axis=1)],
                              axis=1)


@pytest.fixture
def small_policy_factory():
    """Builds small policies with reproducible weights for gradient checks."""

    def make(strategy="lattice", cfg=None, obs_dim=3, action_dim=2,
             hiddens=(5, 4), activation="tanh", seed=0):
        cfg = cfg if cfg is not None else LatticeConfig(alpha=1.0)
        rng = np.random.default_rng(seed)
        policy = MlpPolicy(obs_dim, action_dim, cfg, strategy=strategy,
                           hiddens=hiddens, activation=activation, rng=rng)
        return policy, cfg

    return make


def logp_gradient_check(policy, cfg, obs, actions, h=1e-6):
    """Worst relative error between analytic and central-difference gradients
    of sum_b log pi(a_b | s_b) over every parameter entry.

    With stop_variance_gradient set, the reference objective freezes the
    covariance at the base parameters when a network parameter is perturbed
    (the variance path is declared non-differentiable there), while log-std
    perturbations keep their full effect.
    """
    from latticerl.policy import log_prob, log_prob_and_grad

    tape = GradientTape(policy.params)
    log_prob_and_grad(policy, obs, actions, cfg, tape)

    base_it = dist_internals(policy, obs, cfg)
    worst = 0.0
    for name, arr in policy.params.items():
        is_noise = name in ("log_std_x", "log_std_a", "log_sigma")
        frozen = cfg.stop_variance_gradient and not is_noise

        def objective():
            cur = dist_internals(policy, obs, cfg)
            if frozen:
                # mean moves with the parameters, covariance stays at base
                import dataclasses
                cur = dataclasses.replace(base_it, mean=cur.mean, x=cur.x)
            return float(np.sum(log_prob(cur, actions)))

        it_nd = np.nditer(arr, flags=["multi_index"])
        for _ in it_nd:
            idx = it_nd.multi_index
            num = finite_difference(objective, arr, idx, h=h)
            ana = tape.grads[name][idx]
            worst = max(worst, relative_error(num, ana))
    return worst
