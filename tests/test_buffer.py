"""Rollout storage and generalized advantage estimation."""

import numpy as np
import pytest

from latticerl.buffer import RolloutBuffer, compute_gae


def make_buffer(rewards, values, dones):
    rewards = np.asarray(rewards, dtype=float)
    n_steps, n_envs = rewards.shape
    buf = RolloutBuffer.allocate(n_steps, n_envs, 1, 1)
    buf.rewards[...] = rewards
    buf.values[...] = np.asarray(values, dtype=float)
    buf.dones[...] = np.asarray(dones, dtype=bool)
    return buf


class TestComputeGae:
    def test_all_zero(self):
        buf = make_buffer(np.zeros((4, 2)), np.zeros((4, 2)),
                          np.zeros((4, 2)))
        adv, ret = compute_gae(buf, np.zeros(2), 0.99, 0.9)
        np.testing.assert_array_equal(adv, 0.0)
        np.testing.assert_array_equal(ret, 0.0)

    def test_single_terminal_step(self):
        buf = make_buffer([[1.0]], [[0.0]], [[True]])
        adv, ret = compute_gae(buf, np.array([123.0]), 0.99, 0.9)
        assert adv[0, 0] == pytest.approx(1.0)
        assert ret[0, 0] == pytest.approx(1.0)

    def test_lambda_one_monte_carlo_limit(self):
        # lambda = 1: advantage equals discounted return minus value
        rng = np.random.default_rng(0)
        n_steps, n_envs = 12, 3
        rewards = rng.standard_normal((n_steps, n_envs))
        values = rng.standard_normal((n_steps, n_envs))
        dones = np.zeros((n_steps, n_envs), dtype=bool)
        dones[4, 0] = True
        dones[8, 2] = True
        last_values = rng.standard_normal(n_envs)
        gamma = 0.95
        buf = make_buffer(rewards, values, dones)
        adv, ret = compute_gae(buf, last_values, gamma, 1.0)
        # brute-force discounted returns with bootstrap at the horizon
        expected = np.zeros_like(rewards)
        for e in range(n_envs):
            for t in range(n_steps):
                g = 0.0
                disc = 1.0
                for k in range(t, n_steps):
                    g += disc * rewards[k, e]
                    if dones[k, e]:
                        break
                    disc *= gamma
                    if k == n_steps - 1:
                        g += disc * last_values[e]
                expected[t, e] = g - values[t, e]
        np.testing.assert_allclose(adv, expected, atol=1e-10)
        np.testing.assert_allclose(ret, expected + values, atol=1e-10)

    def test_no_bootstrap_across_done(self):
        rewards = np.array([[1.0], [0.0]])
        values = np.array([[0.0], [50.0]])
        dones = np.array([[True], [False]])
        buf = make_buffer(rewards, values, dones)
        adv, _ = compute_gae(buf, np.array([0.0]), 0.99, 0.9)
        # step 0 terminates, so the large value at step 1 must not leak in
        assert adv[0, 0] == pytest.approx(1.0)

    def test_recursion_against_direct_sum(self):
        # GAE(lambda) equals the exponentially weighted sum of TD residuals
        rng = np.random.default_rng(1)
        n_steps = 8
        rewards = rng.standard_normal((n_steps, 1))
        values = rng.standard_normal((n_steps, 1))
        dones = np.zeros((n_steps, 1), dtype=bool)
        last = rng.standard_normal(1)
        gamma, lam = 0.99, 0.9
        buf = make_buffer(rewards, values, dones)
        adv, _ = compute_gae(buf, last, gamma, lam)
        vals_ext = np.concatenate([values[:, 0], last])
        delta = rewards[:, 0] + gamma * vals_ext[1:] - vals_ext[:-1]
        for t in range(n_steps):
            direct = sum((gamma * lam) ** (k - t) * delta[k]
                         for k in range(t, n_steps))
            assert adv[t, 0] == pytest.approx(direct, abs=1e-10)


class TestRolloutBuffer:
    def test_allocate_shapes(self):
        buf = RolloutBuffer.allocate(5, 3, 4, 2)
        assert buf.obs.shape == (5, 3, 4)
        assert buf.actions.shape == (5, 3, 2)
        assert buf.n_steps == 5
        assert buf.n_envs == 3
        assert buf.capacity == 15

    def test_flat_layout(self):
        buf = RolloutBuffer.allocate(2, 2, 1, 1)
        buf.rewards[...] = [[1.0, 2.0], [3.0, 4.0]]
        np.testing.assert_array_equal(buf.flat(buf.rewards), [1, 2, 3, 4])
        obs = np.arange(8).reshape(2, 2, 2)
        np.testing.assert_array_equal(
            buf.flat(obs), [[0, 1], [2, 3], [4, 5], [6, 7]])
