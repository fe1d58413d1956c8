"""Overactuated environments: dynamics, metrics, and the closed-form
noise-variance results for the antagonist arm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticerl.envs import (
    ENV_REGISTRY,
    BatchedEnv,
    EpisodeMetrics,
    FlexExtArm,
    PointReacher,
    energy_of,
    make_env,
)
from latticerl.errors import DimensionMismatch, NonFiniteAction

from conftest import linear_ideal_policy
from oracles import accel_of, get_state, reward_bounds, set_state


class TestLinearIdealPolicy:
    def test_at_target(self):
        assert linear_ideal_policy(0.0) == (0.5, 0.5)

    def test_linear_region(self):
        a_e, a_f = linear_ideal_policy(0.3)
        assert a_e == pytest.approx(0.8)
        assert a_f == pytest.approx(0.2)

    def test_clamped(self):
        assert linear_ideal_policy(0.7) == (1.0, 0.0)
        assert linear_ideal_policy(-0.7) == (0.0, 1.0)


class TestEnergy:
    def test_zero_actions(self):
        assert energy_of(np.zeros((5, 3))) == 0.0

    def test_full_activation(self):
        assert energy_of(np.ones((4, 2))) == 1.0

    def test_mixed_sequence(self):
        assert energy_of([(1.0, 0.0), (0.0, 1.0)]) == 0.5

    def test_empty(self):
        assert energy_of([]) == 0.0


class TestEpisodeMetrics:
    def test_from_logs(self):
        m = EpisodeMetrics.from_logs(
            rewards=[1.0, -0.5, 0.25],
            solved_flags=[True, False, True],
            actions=[(1.0, 0.0), (0.0, 0.0), (1.0, 1.0)])
        assert m.cumulative_reward == pytest.approx(0.75)
        assert m.solved_fraction == pytest.approx(2 / 3)
        assert m.energy == pytest.approx((0.5 + 0.0 + 1.0) / 3)

    def test_energy_of_the_clipped_action(self):
        # the env applies (1.5, -0.5) as (1, 0)
        m = EpisodeMetrics.from_logs([0.0], [False], [(1.5, -0.5)])
        assert m.energy == 0.5

    def test_zero_energy_iff_zero_actions(self):
        zero = EpisodeMetrics.from_logs([0], [False], [(0.0, 0.0)])
        nonzero = EpisodeMetrics.from_logs([0], [False], [(0.1, 0.0)])
        assert zero.energy == 0.0
        assert nonzero.energy > 0.0


class TestFlexExtArm:
    def test_antagonist_balance(self):
        env = FlexExtArm(n_flexors=1, n_extensors=1, seed=0)
        env.reset()
        assert accel_of(env, np.array([0.5, 0.5])) == 0.0

    def test_unit_gain_dynamics(self):
        env = FlexExtArm(n_flexors=1, n_extensors=1, gain=1.0, seed=0)
        env.reset()
        assert accel_of(env, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_group_mean_aggregation(self):
        # the 3+3 arm reduces to the 1+1 arm through per-group means
        env = FlexExtArm(n_flexors=3, n_extensors=3, gain=10.0, seed=0)
        env.reset()
        a = np.array([0.9, 0.3, 0.6, 0.1, 0.2, 0.3])
        assert accel_of(env, a) == pytest.approx(10.0 * (0.6 - 0.2))

    def test_duplicate_integrator_oracle(self):
        env = FlexExtArm(seed=5)
        env.reset()
        rng = np.random.default_rng(6)
        theta, theta_dot = env.theta, env.theta_dot
        for _ in range(50):
            action = rng.uniform(0.0, 1.0, env.action_dim)
            env.step(action)
            accel = env.gain * (np.mean(action[:3]) - np.mean(action[3:]))
            theta_dot += accel * env.dt
            theta += theta_dot * env.dt
            assert env.theta == pytest.approx(theta, abs=1e-10)
            assert env.theta_dot == pytest.approx(theta_dot, abs=1e-10)

    def test_swap_symmetry(self):
        env = FlexExtArm(seed=1)
        env.reset()
        rng = np.random.default_rng(2)
        a = rng.uniform(0.0, 1.0, env.action_dim)
        swapped = np.concatenate([a[3:], a[:3]])
        assert accel_of(env, swapped) == pytest.approx(-accel_of(env, a))

    def test_determinism(self):
        rng = np.random.default_rng(3)
        actions = rng.uniform(0.0, 1.0, (30, 6))
        trajs = []
        for _ in range(2):
            env = FlexExtArm(seed=7)
            obs = [env.reset()]
            for a in actions:
                obs.append(env.step(a)[0])
            trajs.append(np.stack(obs))
        np.testing.assert_array_equal(trajs[0], trajs[1])

    def test_reward_bounds(self):
        env = FlexExtArm(seed=4)
        lo, hi = reward_bounds(env)
        rng = np.random.default_rng(5)
        env.reset()
        done = False
        while not done:
            _, r, done, _ = env.step(rng.uniform(0.0, 1.0, env.action_dim))
            assert lo <= r <= hi

    def test_clamping(self):
        env = FlexExtArm(n_flexors=1, n_extensors=1, gain=1.0, seed=0)
        env.reset()
        assert accel_of(env, np.array([2.0, -1.0])) == \
            accel_of(env, np.array([1.0, 0.0]))

    def test_action_errors(self):
        env = FlexExtArm(seed=0)
        env.reset()
        with pytest.raises(DimensionMismatch):
            env.step(np.zeros(5))
        with pytest.raises(NonFiniteAction):
            env.step(np.array([np.nan, 0, 0, 0, 0, 0]))

    def test_solved_and_done(self):
        env = FlexExtArm(max_steps=3, target_range=0.0, seed=0)
        env.reset()
        assert env.theta_target == 0.0
        for i in range(3):
            _, r, done, info = env.step(np.full(6, 0.5))
            assert info["solved"]  # at target, holding still
            assert r == pytest.approx(1.0)
        assert done

    def test_state_roundtrip(self):
        env = FlexExtArm(seed=8)
        env.reset()
        env.step(np.array([1.0, 0.8, 0.2, 0.1, 0.0, 0.3]))
        state = get_state(env)
        obs_before = env.observation(env)
        env.step(np.full(6, 0.9))
        set_state(env, state)
        np.testing.assert_array_equal(env.observation(env), obs_before)

    @pytest.mark.parametrize("kwargs", [
        {"n_flexors": 0}, {"n_extensors": 0}, {"n_flexors": -2}])
    def test_rejects_empty_group(self, kwargs):
        with pytest.raises(ValueError, match="n_flexors and n_extensors"):
            FlexExtArm(**kwargs)

    def test_actuator_groups(self):
        env = FlexExtArm(n_flexors=2, n_extensors=3)
        groups = env.actuator_groups
        assert groups["extensors"] == [0, 1, 2]
        assert groups["flexors"] == [3, 4]


def matched_arm_noise_mc(gain, sigma, n, rng):
    """Vectorized matched-noise Monte Carlo on the 1+1 arm.

    Latent condition: noise on the angle error through the linear policy.
    Action condition: independent per-action noise with the stds induced by
    the latent condition. Returns (V_latent, V_action, sigma_induced).
    """
    env = FlexExtArm(n_flexors=1, n_extensors=1, gain=gain, seed=0)

    def accel(a_e, a_f):
        a_e = np.clip(a_e, 0.0, 1.0)
        a_f = np.clip(a_f, 0.0, 1.0)
        return gain * (a_e - a_f)

    # vectorized accel agrees with the environment on a sample of actions
    chk = rng.uniform(0.0, 1.0, (100, 2))
    env.reset()
    for a_e, a_f in chk[:20]:
        assert accel(a_e, a_f) == accel_of(env, np.array([a_e, a_f]))

    delta = rng.uniform(-0.2, 0.2, n)
    clean = accel(0.5 + delta, 0.5 - delta)
    eps = rng.standard_normal(n) * sigma
    noisy = accel(0.5 + delta + eps, 0.5 - delta - eps)
    dev_latent = noisy - clean
    # per-action noise induced by the latent condition
    a_noise = np.stack([eps, -eps], axis=1)
    sigma_induced = a_noise.std(axis=0)
    eps_a = rng.standard_normal((n, 2)) * sigma_induced
    noisy_a = accel(0.5 + delta + eps_a[:, 0], 0.5 - delta + eps_a[:, 1])
    dev_action = noisy_a - clean
    return dev_latent.var(), dev_action.var(), sigma_induced


class TestAnalyticVariance:
    def test_closed_forms(self):
        # latent noise: V = 4 gain^2 sigma^2; action noise: V = 2 gain^2 sigma^2
        rng = np.random.default_rng(9)
        gain, sigma = 3.0, 0.03
        v_lat, v_act, _ = matched_arm_noise_mc(gain, sigma, 1_000_000, rng)
        assert v_lat == pytest.approx(4 * gain ** 2 * sigma ** 2, rel=0.02)
        assert v_act == pytest.approx(2 * gain ** 2 * sigma ** 2, rel=0.02)

    def test_ratio_is_two(self):
        rng = np.random.default_rng(10)
        v_lat, v_act, _ = matched_arm_noise_mc(5.0, 0.05, 1_000_000, rng)
        assert v_lat / v_act == pytest.approx(2.0, rel=0.05)


class TestPointReacher:
    def test_axis_aggregation(self):
        env = PointReacher(pairs_per_axis=2, gain=10.0, seed=0)
        env.reset()
        a = np.array([1.0, 1.0, 0.0, 0.0, 0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(accel_of(env, a), [10.0, 0.0])

    def test_rejects_empty_group(self):
        with pytest.raises(ValueError, match="pairs_per_axis"):
            PointReacher(pairs_per_axis=0)

    def test_groups_partition(self):
        env = PointReacher(pairs_per_axis=3)
        indices = sorted(i for idx in env.actuator_groups.values()
                         for i in idx)
        assert indices == list(range(env.action_dim))

    def test_state_roundtrip(self):
        env = PointReacher(seed=1)
        env.reset()
        env.step(np.full(env.action_dim, 0.7))
        state = get_state(env)
        obs = env.observation(env)
        env.step(np.zeros(env.action_dim))
        set_state(env, state)
        np.testing.assert_array_equal(env.observation(env), obs)

    def test_solved_near_target(self):
        env = PointReacher(target_range=0.0, seed=0)
        env.reset()
        _, r, _, info = env.step(np.full(env.action_dim, 0.5))
        assert info["solved"]
        assert r == pytest.approx(1.0)


class TestStepOracles:
    """Each env's step against its formulas written out with np.mean and
    np.linalg.norm, to the byte; actions beyond [0, 1] check the clip."""

    def test_flex_ext_arm(self):
        env = FlexExtArm(n_flexors=2, n_extensors=3, max_steps=500, seed=3)
        env.reset()
        rng = np.random.default_rng(4)
        theta = theta_dot = 0.0
        for _ in range(300):
            action = rng.uniform(-0.5, 1.5, env.action_dim)
            a = np.clip(action, 0.0, 1.0)
            accel = env.gain * (float(np.mean(a[:3])) - float(np.mean(a[3:])))
            theta_dot += accel * env.dt
            theta += theta_dot * env.dt
            delta = env.theta_target - theta
            solved = abs(delta) < env.solved_threshold
            obs, r, _, info = env.step(action)
            assert r == -abs(delta) + (1.0 if solved else 0.0)
            assert info["solved"] == solved and info["accel"] == accel
            assert obs.tobytes() == np.array([delta, theta_dot]).tobytes()

    def test_point_reacher(self):
        env = PointReacher(pairs_per_axis=3, max_steps=500,
                           target_range=0.3, seed=3)
        env.reset()
        rng = np.random.default_rng(4)
        pos, vel = np.zeros(2), np.zeros(2)
        k = 3
        for _ in range(300):
            action = rng.uniform(-0.5, 1.5, env.action_dim)
            a = np.clip(action, 0.0, 1.0)
            accel = env.gain * np.array([
                np.mean(a[0:k]) - np.mean(a[k:2 * k]),
                np.mean(a[2 * k:3 * k]) - np.mean(a[3 * k:4 * k])])
            vel = vel + accel * env.dt
            pos = pos + vel * env.dt
            dist = float(np.linalg.norm(env.target - pos))
            solved = dist < env.solved_radius
            obs, r, _, info = env.step(action)
            assert r == -dist + (1.0 if solved else 0.0)
            assert info["solved"] == solved
            assert info["accel"].tobytes() == accel.tobytes()
            assert obs.tobytes() == np.concatenate(
                [env.target - pos, vel]).tobytes()


class TestBatchedEnv:
    @pytest.mark.parametrize("name,kwargs", [
        ("flex_ext_arm", {}),
        ("flex_ext_arm", {"n_flexors": 2, "n_extensors": 5}),
        ("point_reacher", {}),
        ("point_reacher", {"pairs_per_axis": 3}),
    ])
    def test_rows_match_single_envs(self, name, kwargs):
        # actions beyond [0, 1] exercise the clip; every row is also reset
        # mid-episode, so episodes of fewer than max_steps occur
        n = 5
        kwargs = dict(kwargs, max_steps=7)
        singles = [make_env(name, seed=10 + i, **kwargs) for i in range(n)]
        batch = BatchedEnv([make_env(name, seed=10 + i, **kwargs)
                            for i in range(n)])
        obs = np.stack([env.reset() for env in singles])
        assert batch.observe().tobytes() == obs.tobytes()
        rng = np.random.default_rng(0)
        for t in range(60):
            actions = rng.uniform(-0.5, 1.5, (n, batch.action_dim))
            obs, rewards, dones, solved = batch.step(actions)
            for i, env in enumerate(singles):
                o, r, done, info = env.step(actions[i])
                assert o.tobytes() == obs[i].tobytes()
                assert np.float64(r).tobytes() == rewards[i].tobytes()
                assert done == dones
                assert info["solved"] == solved[i]
                assert env.step_count == batch.step_count
                for f in env.state_fields:
                    assert np.asarray(getattr(env, f), dtype=float) \
                        .tobytes() == getattr(batch, f)[i].tobytes()
            if dones or t % 9 == 4:
                obs = batch.reset()
                for env in singles:
                    env.reset()
                assert obs.tobytes() == np.stack(
                    [env.observation(env) for env in singles]).tobytes()
        assert solved.dtype == bool and isinstance(dones, bool)

    @pytest.mark.parametrize("name", ["flex_ext_arm", "point_reacher"])
    def test_bad_action_changes_no_row(self, name):
        batch = BatchedEnv([make_env(name, seed=i) for i in range(4)])
        rng = np.random.default_rng(1)
        batch.step(rng.uniform(0.0, 1.0, (4, batch.action_dim)))
        fields = batch.env.state_fields
        before = [getattr(batch, f).tobytes() for f in fields]
        step_count = batch.step_count
        bad = rng.uniform(0.0, 1.0, (4, batch.action_dim))
        bad[2, 1] = np.nan
        with pytest.raises(NonFiniteAction):
            batch.step(bad)
        with pytest.raises(DimensionMismatch):
            batch.step(np.zeros((4, batch.action_dim + 1)))
        with pytest.raises(DimensionMismatch):
            batch.step(np.zeros((3, batch.action_dim)))
        assert [getattr(batch, f).tobytes() for f in fields] == before
        assert batch.step_count == step_count


class TestRegistry:
    def test_make_env(self):
        env = make_env("flex_ext_arm", seed=0, n_flexors=2, n_extensors=2)
        assert isinstance(env, FlexExtArm)
        assert env.action_dim == 4

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_env("cartpole")

    def test_registry_contents(self):
        assert set(ENV_REGISTRY) == {"flex_ext_arm", "point_reacher"}


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_balanced_groups_never_accelerate(seed):
    rng = np.random.default_rng(seed)
    env = FlexExtArm(seed=0)
    env.reset()
    level = float(rng.uniform(0.0, 1.0))
    assert accel_of(env, np.full(6, level)) == pytest.approx(0.0, abs=1e-12)
