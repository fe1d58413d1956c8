"""Trajectory storage and generalized advantage estimation."""

from dataclasses import dataclass

import numpy as np


@dataclass
class RolloutBuffer:
    """Per-step records laid out as (n_steps, n_envs, ...)."""

    obs: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    values: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray

    @property
    def n_steps(self) -> int:
        return self.obs.shape[0]

    @property
    def n_envs(self) -> int:
        return self.obs.shape[1]

    @property
    def capacity(self) -> int:
        return self.n_steps * self.n_envs

    @classmethod
    def allocate(cls, n_steps: int, n_envs: int, obs_dim: int,
                 action_dim: int):
        return cls(
            obs=np.zeros((n_steps, n_envs, obs_dim)),
            actions=np.zeros((n_steps, n_envs, action_dim)),
            log_probs=np.zeros((n_steps, n_envs)),
            values=np.zeros((n_steps, n_envs)),
            rewards=np.zeros((n_steps, n_envs)),
            dones=np.zeros((n_steps, n_envs), dtype=bool),
        )

    def flat(self, arr: np.ndarray) -> np.ndarray:
        """(n_steps, n_envs, ...) -> (n_steps * n_envs, ...)."""
        return arr.reshape(self.capacity, *arr.shape[2:])


def compute_gae(buffer: RolloutBuffer, last_values: np.ndarray, gamma: float,
                gae_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """Standard recursive GAE; never bootstraps across episode boundaries.

    Returns raw (unnormalized) advantages and value targets, shaped like
    buffer.rewards. Normalization happens per update minibatch.
    """
    n_steps = buffer.n_steps
    advantages = np.zeros_like(buffer.rewards)
    next_adv = np.zeros(buffer.n_envs)
    for t in reversed(range(n_steps)):
        next_values = last_values if t == n_steps - 1 else buffer.values[t + 1]
        nonterminal = 1.0 - buffer.dones[t].astype(float)
        delta = (buffer.rewards[t] + gamma * next_values * nonterminal
                 - buffer.values[t])
        next_adv = delta + gamma * gae_lambda * nonterminal * next_adv
        advantages[t] = next_adv
    returns = advantages + buffer.values
    return advantages, returns
