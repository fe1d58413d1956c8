"""Shared test helpers: finite differences and a constant-observation env."""

import numpy as np
import pytest

from latticerl.exploration import LatticeConfig
from latticerl.policy import GradientTape, MlpPolicy, dist_internals


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
    the exploration noise from the policy's state dependence."""

    name = "constant_obs"
    max_steps = 100

    def __init__(self, obs_dim: int = 2, action_dim: int = 4,
                 max_steps: int = 100, seed: int | None = None):
        self._obs_dim = int(obs_dim)
        self._action_dim = int(action_dim)
        self.max_steps = int(max_steps)
        self.rng = np.random.default_rng(seed)
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

    def _obs(self):
        return np.ones(self._obs_dim)

    def observe(self):
        return self._obs()

    def reset(self):
        self.step_count = 0
        return self._obs()

    def step(self, action):
        action = np.asarray(action, dtype=float)
        self.step_count += 1
        done = self.step_count >= self.max_steps
        return self._obs(), 0.0, done, {"solved": False, "accel": 0.0}


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
    it = dist_internals(policy, obs, cfg, need_cache=True)
    log_prob_and_grad(policy, obs, actions, cfg, tape, internals=it)

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
            return float(np.sum(log_prob(policy, obs, actions, cfg,
                                         internals=cur)))

        it_nd = np.nditer(arr, flags=["multi_index"])
        for _ in it_nd:
            idx = it_nd.multi_index
            num = finite_difference(objective, arr, idx, h=h)
            ana = tape.grads[name][idx]
            worst = max(worst, relative_error(num, ana))
    return worst
