"""PPO trainer: rollout bookkeeping, update semantics, checkpoints."""

import base64
import dataclasses
import json

import numpy as np
import pytest

from latticerl.cli import collect_action_log
from latticerl.envs import (
    ENV_REGISTRY,
    EpisodeMetrics,
    energy_of,
    make_env,
)
from latticerl import policy as policy_mod
from latticerl import trainer as trainer_mod
from latticerl.errors import (
    CheckpointCorrupt,
    NonFiniteAction,
    NonFiniteLoss,
)
from latticerl.exploration import (
    LatticeConfig,
    episode_normals,
    resample_perturbations,
)
from latticerl.policy import (
    GradientTape,
    dist_internals,
    dist_params,
    flat_layout,
    flat_segments,
    log_prob,
    log_prob_and_grad,
)
from latticerl.trainer import (
    Adam,
    PpoConfig,
    PPOTrainer,
    evaluate_policy,
    load_checkpoint,
    run_episodes,
    save_checkpoint,
)

from conftest import (
    SCHEMA1_CHECKPOINT,
    ConstantObsEnv,
    f8_entry,
    finite_difference,
    relative_error,
    schema1_reference_trainer,
)
import oracles
from oracles import distribution_std, lattice_covariance, sampling_std

TINY_PPO = PpoConfig(learning_rate=1e-3, batch_size=16, gradient_steps=8,
                     n_epochs=2, n_envs=4)


@pytest.fixture
def constant_obs_registered():
    ENV_REGISTRY["constant_obs"] = ConstantObsEnv
    yield
    del ENV_REGISTRY["constant_obs"]


def small_trainer(strategy="lattice", cfg=None, ppo=None, seed=0,
                  env_name="flex_ext_arm", env_kwargs=None):
    return PPOTrainer(env_name, env_kwargs=env_kwargs, strategy=strategy,
                      lattice_cfg=cfg or LatticeConfig(),
                      ppo_cfg=ppo or TINY_PPO, hiddens=(8, 8),
                      critic_hiddens=(8, 8), seed=seed)


def flat_params(arrays: dict):
    """Copies of arrays as the views of one flat vector:
    (flat, params, shapes)."""
    shapes = {k: np.shape(v) for k, v in arrays.items()}
    flat, params = flat_layout(shapes)
    for k, v in arrays.items():
        params[k][...] = v
    return flat, params, shapes


def views_of(flat: np.ndarray, like: dict) -> dict:
    """Views of flat in the layout of the parameter dict like."""
    shapes = {k: v.shape for k, v in like.items()}
    return {k: flat[a:b].reshape(shapes[k])
            for k, (a, b) in flat_segments(shapes).items()}


class TestAdam:
    def test_zero_lr_is_noop(self):
        flat, params, _ = flat_params({"a": np.array([1.0, 2.0])})
        opt = Adam(flat, lr=0.0)
        before = params["a"].copy()
        opt.step(np.array([10.0, -10.0]))
        np.testing.assert_array_equal(params["a"], before)

    def test_in_place_matches_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        shapes = {"w": (7, 5), "b": (5,), "s": (3,)}
        flat, params, _ = flat_params(
            {k: rng.standard_normal(s) for k, s in shapes.items()})
        ref_p = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in params.items()}
        opt = Adam(flat, lr=3e-3)
        b1, b2, eps, lr = Adam.BETA1, Adam.BETA2, Adam.EPS, opt.lr
        grad, grads = flat_layout(shapes)
        for t in range(1, 201):
            for k, g in grads.items():
                g[...] = rng.standard_normal(g.shape) * 10.0 ** rng.integers(
                    -6, 3)
            opt.step(grad)
            bc1 = 1.0 - b1 ** t
            bc2 = 1.0 - b2 ** t
            for k, g in grads.items():
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g * g
                m_hat = ref_m[k] / bc1
                v_hat = ref_v[k] / bc2
                ref_p[k] = ref_p[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        m, v = views_of(opt.m_flat, params), views_of(opt.v_flat, params)
        for k in params:
            assert params[k].tobytes() == ref_p[k].tobytes(), k
            assert m[k].tobytes() == ref_m[k].tobytes(), k
            assert v[k].tobytes() == ref_v[k].tobytes(), k

    def test_quadratic_convergence(self):
        flat, params, _ = flat_params({"a": np.array([5.0])})
        opt = Adam(flat, lr=0.1)
        for _ in range(500):
            opt.step(2.0 * flat)
        assert abs(params["a"][0]) < 1e-3

    def test_matches_per_key_oracle_across_chunks(self):
        # segments longer than a chunk, with the chunk edges at n, 2n, 3n
        # and 4n falling inside w0, w1, w2 and w2
        rng = np.random.default_rng(8)
        n = trainer_mod.ADAM_CHUNK
        shapes = {"w0": (3, n // 2 + 5), "b0": (7,), "w1": (n + 3,),
                  "s": (1,), "b1": (4, 4), "w2": (2 * n + 1,)}
        flat, params, _ = flat_params(
            {k: rng.standard_normal(s) for k, s in shapes.items()})
        ref = {k: v.copy() for k, v in params.items()}
        opt = Adam(flat, lr=1e-2)
        oracle = oracles.Adam(ref, lr=1e-2)
        grad, grads = flat_layout(shapes)
        for _ in range(5):
            grad[...] = rng.standard_normal(grad.size) * 10.0 ** rng.uniform(
                -6, 2, grad.size)
            opt.step(grad)
            oracle.step(ref, grads)
        m, v = views_of(opt.m_flat, params), views_of(opt.v_flat, params)
        for k in shapes:
            assert params[k].tobytes() == ref[k].tobytes(), k
            assert m[k].tobytes() == oracle.m[k].tobytes(), k
            assert v[k].tobytes() == oracle.v[k].tobytes(), k


class TestRollout:
    def test_old_log_prob_fidelity(self):
        for strategy in ("lattice", "gsde", "diagonal"):
            tr = small_trainer(strategy=strategy)
            buf = tr.collect_rollout(6)
            obs = buf.flat(buf.obs)
            actions = buf.flat(buf.actions)
            stored = buf.flat(buf.log_probs)
            recomputed = log_prob(dist_internals(tr.policy, obs, tr.cfg),
                                  actions)
            np.testing.assert_allclose(recomputed, stored, atol=1e-10)

    @pytest.mark.parametrize("strategy,period,full_std", [
        ("diagonal", 1, False), ("gsde", 1, False), ("lattice", 1, False),
        ("lattice", 4, False), ("lattice", "episode", False),
        ("lattice", 1, True), ("lattice", 4, True)])
    def test_rollout_after_update_uses_the_updated_params(
            self, strategy, period, full_std):
        # the stored log-probs of the rollout after an update are those of
        # the updated distribution, byte for byte, step by step
        tr = small_trainer(strategy=strategy,
                           cfg=LatticeConfig(period=period,
                                             full_std=full_std),
                           env_kwargs={"max_steps": 6})
        before = {k: v.copy() for k, v in tr.params.items()}
        tr.ppo_update(tr.collect_rollout(8))
        noise_keys = ("log_sigma",) if strategy == "diagonal" \
            else ("log_std_a",)
        for k in (tr.policy.net.head_w_name, *noise_keys):
            assert not np.array_equal(tr.params[k], before[k]), k
        buf = tr.collect_rollout(8)
        for t in range(8):
            logp = log_prob(dist_internals(tr.policy, buf.obs[t], tr.cfg),
                            buf.actions[t])
            assert logp.tobytes() == buf.log_probs[t].tobytes(), t

    @pytest.mark.parametrize("strategy", ["diagonal", "lattice"])
    def test_one_dist_params_per_rollout_and_evaluation(self, monkeypatch,
                                                        strategy):
        tr = small_trainer(strategy=strategy)
        calls = []
        build = policy_mod.dist_params

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        # dist_internals looks it up in the policy module
        monkeypatch.setattr(policy_mod, "dist_params", counted)
        monkeypatch.setattr(trainer_mod, "dist_params", counted)
        tr.collect_rollout(5)
        assert len(calls) == 1
        evaluate_policy(tr, n_episodes=3)
        assert len(calls) == 2

    def test_determinism_across_trainers(self):
        bufs = []
        for _ in range(2):
            tr = small_trainer(seed=3)
            bufs.append(tr.collect_rollout(5))
        np.testing.assert_array_equal(bufs[0].actions, bufs[1].actions)
        np.testing.assert_array_equal(bufs[0].obs, bufs[1].obs)
        np.testing.assert_array_equal(bufs[0].rewards, bufs[1].rewards)

    def test_episode_ids_advance_on_reset(self):
        # episodes of 3 steps end at steps 2 and 5 of a 7-step rollout
        tr = small_trainer(env_kwargs={"max_steps": 3})
        buf = tr.collect_rollout(7)
        np.testing.assert_array_equal(np.flatnonzero(buf.dones[:, 0]), [2, 5])


class TestPeriodSemantics:
    def test_windows_of_four(self, constant_obs_registered):
        cfg = LatticeConfig(alpha=1.0, period=4)
        ppo = dataclasses.replace(TINY_PPO, n_envs=1)
        tr = small_trainer(cfg=cfg, ppo=ppo, env_name="constant_obs",
                           env_kwargs={"max_steps": 64, "action_dim": 3})
        buf = tr.collect_rollout(32)
        noise = buf.actions[:, 0, :] - tr.policy.forward(buf.obs[:, 0, :])[1]
        for w in range(8):
            block = noise[4 * w: 4 * w + 4]
            np.testing.assert_array_equal(
                block, np.broadcast_to(block[0], block.shape))
        for w in range(7):
            assert not np.array_equal(noise[4 * w], noise[4 * (w + 1)])

    def test_resample_count_per_episode(self, constant_obs_registered):
        # episode length 10, period 4: windows of 4, 4, 2 -> 3 resamples
        cfg = LatticeConfig(alpha=1.0, period=4)
        ppo = dataclasses.replace(TINY_PPO, n_envs=1)
        tr = small_trainer(cfg=cfg, ppo=ppo, env_name="constant_obs",
                           env_kwargs={"max_steps": 10, "action_dim": 3})
        buf = tr.collect_rollout(10)
        noise = buf.actions[:, 0, :] - tr.policy.forward(buf.obs[:, 0, :])[1]
        distinct = [noise[0]]
        for row in noise[1:]:
            if not np.array_equal(row, distinct[-1]):
                distinct.append(row)
        assert len(distinct) == 3
        np.testing.assert_array_equal(noise[8], noise[9])

    def test_episode_mode_constant_within_episode(self,
                                                  constant_obs_registered):
        cfg = LatticeConfig(alpha=1.0, period="episode")
        ppo = dataclasses.replace(TINY_PPO, n_envs=1)
        tr = small_trainer(cfg=cfg, ppo=ppo, env_name="constant_obs",
                           env_kwargs={"max_steps": 8, "action_dim": 3})
        buf = tr.collect_rollout(24)
        noise = buf.actions[:, 0, :] - tr.policy.forward(buf.obs[:, 0, :])[1]
        for e in range(3):
            block = noise[8 * e: 8 * e + 8]
            np.testing.assert_array_equal(
                block, np.broadcast_to(block[0], block.shape))
        assert not np.array_equal(noise[0], noise[8])
        assert not np.array_equal(noise[8], noise[16])


def single_envs_like(tr):
    """Single envs seeded as the rows of tr's batched env, each reset once
    as the trainer's per-env loop used to do at construction."""
    ss = np.random.SeedSequence(tr.seed)
    ss.spawn(2 + tr.ppo.n_envs)
    envs = [make_env(tr.env_name,
                     seed=int(np.random.default_rng(s).integers(2 ** 31)),
                     **tr.env_kwargs)
            for s in ss.spawn(tr.ppo.n_envs)]
    for env in envs:
        env.reset()
    return envs


def per_env_reference_rollout(tr, n_steps):
    """The per-env rollout loop that NoiseSampler and BatchedEnv replaced,
    run from a fresh trainer tr: single envs seeded like tr's env rows are
    stepped one at a time and keep list episode logs. Diagonal noise adds
    N(0, sigma^2) per env from rngs[i]; with full_std at period > 1 or at
    "episode" env i redraws its P matrices from rngs[i] when its window is
    due and starts a fresh window when its episode ends; with reduced stds
    at any integer period, and at period 1, the noise is tr's own
    NoiseSampler. Returns the buffer fields, stacked over steps, and the
    metrics of the episodes that ended, in order."""
    period = tr.cfg.period_steps
    fast = tr.strategy != "diagonal" and period is not None and (
        period == 1 or not tr.cfg.full_std)
    n = tr.ppo.n_envs
    alpha = dist_params(tr.policy, tr.cfg).alpha
    envs = single_envs_like(tr)
    windows = [None] * n
    ep_step = [0] * n
    logs = [([], [], []) for _ in range(n)]
    obs = np.stack([env.observe() for env in envs])
    fields = {k: [] for k in ("obs", "actions", "log_probs", "values",
                              "rewards", "dones")}
    episodes = []
    for t in range(n_steps):
        x, mean = tr.policy.forward(obs)
        if fast:
            actions = tr.noise.sample(x, mean, dist_params(tr.policy, tr.cfg),
                                      ep_step[0])
        else:
            actions = np.empty((n, tr.action_dim))
            for i in range(n):
                rng = tr.env_rngs[i]
                if tr.strategy == "diagonal":
                    sigma = np.exp(tr.params["log_sigma"])
                    actions[i] = mean[i] + \
                        rng.standard_normal(tr.action_dim) * sigma
                else:
                    if windows[i] is None or (period is not None
                                              and ep_step[i] % period == 0):
                        windows[i] = resample_perturbations(
                            tr.policy.noise_std, tr.cfg, tr.action_dim, rng)
                    p = windows[i]
                    actions[i] = mean[i] + (p.P_a @ x[i] + alpha
                                            * (tr.policy.W @ (p.P_x @ x[i])))
        logp = log_prob(dist_internals(tr.policy, obs, tr.cfg), actions)
        _, values = tr.value_net.forward(obs)
        rewards = np.empty(n)
        dones = np.empty(n, dtype=bool)
        next_obs = np.empty_like(obs)
        for i, env in enumerate(envs):
            o, r, done, info = env.step(actions[i])
            rewards[i] = r
            dones[i] = done
            ep_rewards, ep_solved, ep_actions = logs[i]
            ep_rewards.append(r)
            ep_solved.append(info["solved"])
            ep_actions.append(np.clip(actions[i], 0.0, 1.0))
            if done:
                episodes.append(EpisodeMetrics.from_logs(
                    ep_rewards, ep_solved, ep_actions))
                logs[i] = ([], [], [])
                o = env.reset()
                ep_step[i] = 0
                windows[i] = None
            else:
                ep_step[i] += 1
            next_obs[i] = o
        for key, value in zip(fields, (obs, actions, logp, values[:, 0],
                                       rewards, dones)):
            fields[key].append(value)
        obs = next_obs
    out = {k: np.stack(v) for k, v in fields.items()}
    out["episodes"] = episodes
    return out


def episode_bytes(episodes):
    return np.array([[e.cumulative_reward, e.solved_fraction, e.energy]
                     for e in episodes]).tobytes()


class TestNoiseSampler:
    @pytest.mark.parametrize("strategy,period,full_std", [
        ("lattice", 4, True), ("lattice", "episode", False),
        ("diagonal", 1, False)],
        ids=["lattice-4-full_std", "lattice-episode", "diagonal-1"])
    def test_rng_contract_of_matrix_and_diagonal_paths(self, strategy,
                                                       period, full_std):
        # episodes of 6 steps cut the period-4 windows at every reset
        cfg = LatticeConfig(alpha=0.7, period=period, full_std=full_std)
        ppo = dataclasses.replace(TINY_PPO, n_envs=3)
        kwargs = dict(strategy=strategy, cfg=cfg, ppo=ppo, seed=4,
                      env_kwargs={"max_steps": 6})
        buf = small_trainer(**kwargs).collect_rollout(20)
        expected = per_env_reference_rollout(small_trainer(**kwargs), 20)
        assert buf.actions.tobytes() == expected["actions"].tobytes()

    def test_windows_released_after_last_step(self):
        # episodes of 8 steps at period 4: every window closes exactly when
        # a step count divisible by 4 has been sampled
        ppo = dataclasses.replace(TINY_PPO, n_envs=3)
        tr = small_trainer(cfg=LatticeConfig(period=4), ppo=ppo,
                           env_kwargs={"max_steps": 8})
        tr.collect_rollout(8)
        assert tr.noise.windows is None
        tr.collect_rollout(2)
        held = tr.noise.windows
        np.testing.assert_array_equal(held.n_seen, 2)
        assert np.all(held.n_dir <= 2)
        tr.collect_rollout(1)
        assert tr.noise.windows is held
        np.testing.assert_array_equal(held.n_seen, 3)
        tr.collect_rollout(1)
        assert tr.noise.windows is None
        assert tr.noise.perturbations is None

        # full_std at period 4 holds perturbation matrices instead
        tr = small_trainer(cfg=LatticeConfig(period=4, full_std=True),
                           ppo=ppo, env_kwargs={"max_steps": 8})
        tr.collect_rollout(8)
        assert tr.noise.perturbations is None
        tr.collect_rollout(2)
        held = tr.noise.perturbations
        assert all(p is not None for p in held)
        tr.collect_rollout(1)
        assert all(a is b for a, b in zip(tr.noise.perturbations, held))
        tr.collect_rollout(1)
        assert tr.noise.perturbations is None
        assert tr.noise.windows is None

    @staticmethod
    def _period_one_noise(n_envs=8, n_steps=2500, push_past_std_max=False,
                          full_std=False):
        """Noise rows of a period-1 rollout on a frozen latent state, with
        the state and the unclipped action covariance they were drawn
        from."""
        ENV_REGISTRY["constant_obs"] = ConstantObsEnv
        try:
            ppo = dataclasses.replace(TINY_PPO, n_envs=n_envs)
            cfg = LatticeConfig(alpha=0.8, period=1, full_std=full_std)
            tr = small_trainer(cfg=cfg, ppo=ppo, env_name="constant_obs",
                               env_kwargs={"max_steps": 10 * n_steps,
                                           "action_dim": 3})
            if full_std:
                # a distinct std per matrix entry
                rng = np.random.default_rng(8)
                for k in ("log_std_x", "log_std_a"):
                    tr.params[k][...] = rng.normal(0.0, 0.5,
                                                   tr.params[k].shape)
            if push_past_std_max:
                # rescaled stds e * std_max: the clip is active everywhere
                shift = 1.0 + 0.5 * np.log(tr.policy.n_latent)
                for k in ("log_std_x", "log_std_a"):
                    tr.params[k][...] = np.log(tr.cfg.std_max) + shift
            buf = tr.collect_rollout(n_steps)
        finally:
            del ENV_REGISTRY["constant_obs"]
        x, mean = tr.policy.forward(np.ones((1, 2)))
        noise = buf.actions - mean
        s_x, s_a = sampling_std(tr.policy.noise_std, tr.cfg, 3)
        x2 = x[0] * x[0]
        c_x = (s_x * s_x) @ x2
        c_a = (s_a * s_a) @ x2
        W = tr.policy.W
        cov = np.diag(c_a) + tr.cfg.alpha ** 2 * (W * c_x) @ W.T
        return tr, x[0], noise, cov

    @pytest.mark.parametrize("full_std", [False, True])
    def test_period_one_covariance_and_lag_one(self, full_std):
        # 2e4 rows: the relative Frobenius error of the empirical covariance
        # has a standard error near 0.01, so 0.05 leaves 4-5 of them
        _, x, noise, cov = self._period_one_noise(full_std=full_std)
        assert np.count_nonzero(x) > 0
        rows = noise.reshape(-1, 3)
        emp = rows.T @ rows / len(rows)
        err = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
        assert err < 0.05
        # lag 1 along each env's own sequence
        lag1 = [abs(np.corrcoef(noise[:-1, :, k].ravel(),
                                noise[1:, :, k].ravel())[0, 1])
                for k in range(3)]
        assert max(lag1) < 0.02

    def test_period_one_draws_with_unclipped_stds(self):
        # past std_max the sampled variance is that of the matrix path
        # (resample_perturbations draws with the unclipped stds), not the
        # clipped analytic one, which is e^2 times smaller here
        tr, x, noise, cov = self._period_one_noise(push_past_std_max=True)
        var_fast = np.mean(noise.reshape(-1, 3) ** 2, axis=0)
        rng = np.random.default_rng(17)
        draws = []
        for _ in range(20_000):
            p = resample_perturbations(tr.policy.noise_std, tr.cfg, 3, rng)
            draws.append(p.P_a @ x + tr.cfg.alpha
                         * (tr.policy.W @ (p.P_x @ x)))
        var_matrix = np.mean(np.square(draws), axis=0)
        np.testing.assert_allclose(var_fast, var_matrix, rtol=0.05)
        np.testing.assert_allclose(var_fast, np.diag(cov), rtol=0.05)
        clipped = np.diag(dist_internals(tr.policy, np.ones((1, 2)),
                                         tr.cfg).cov[0]) - tr.cfg.gamma
        assert np.all(var_fast > 2.0 * clipped)


class TestBatchedRollout:
    @pytest.mark.parametrize("env_name", ["flex_ext_arm", "point_reacher"])
    @pytest.mark.parametrize("strategy,period,full_std", [
        ("diagonal", 1, False), ("lattice", 1, False), ("lattice", 4, False),
        ("lattice", "episode", False), ("lattice", 4, True)],
        ids=["diagonal-1", "lattice-1", "lattice-4", "lattice-episode",
             "lattice-4-full_std"])
    def test_matches_per_env_loop(self, env_name, strategy, period, full_std):
        # episodes of 6 steps end three times per env in 20 steps, and the
        # second rollout continues the episodes the first one left open;
        # the matrix path ("episode", full_std at period 4) drops its
        # matrices at every reset, inside a rollout
        ppo = dataclasses.replace(TINY_PPO, n_envs=3)
        kwargs = dict(strategy=strategy,
                      cfg=LatticeConfig(period=period, full_std=full_std),
                      ppo=ppo, seed=5, env_name=env_name,
                      env_kwargs={"max_steps": 6})
        tr = small_trainer(**kwargs)
        bufs, episodes = [], []
        for n_steps in (9, 11):
            bufs.append(tr.collect_rollout(n_steps))
            episodes += tr.recent_episodes
        expected = per_env_reference_rollout(small_trainer(**kwargs), 20)
        for field in ("obs", "actions", "log_probs", "values", "rewards",
                      "dones"):
            got = np.concatenate([getattr(b, field) for b in bufs])
            assert got.tobytes() == expected[field].tobytes(), field
        assert len(episodes) == len(expected["episodes"]) == 9
        assert episode_bytes(episodes) == \
            episode_bytes(expected["episodes"])

    def test_bad_action_row_changes_no_env_state_or_log(self, monkeypatch):
        tr = small_trainer(env_kwargs={"max_steps": 6})
        tr.collect_rollout(4)

        def snapshot():
            arrays = [getattr(tr.envs, f) for f in tr.envs.env.state_fields]
            arrays += [tr._ep_rewards, tr._ep_solved, tr._ep_actions, tr._obs]
            return [a.tobytes() for a in arrays] + [tr.envs.step_count,
                                                    tr.env_steps]

        before = snapshot()
        sample = tr.noise.sample

        def nan_in_row_two(x, mean, params, step):
            actions = sample(x, mean, params, step)
            actions[2, 1] = np.nan
            return actions

        monkeypatch.setattr(tr.noise, "sample", nan_in_row_two)
        with pytest.raises(NonFiniteAction):
            tr.collect_rollout(3)
        assert snapshot() == before


class TestPpoUpdate:
    def test_zero_learning_rate_keeps_params(self):
        ppo = dataclasses.replace(TINY_PPO, learning_rate=0.0)
        tr = small_trainer(ppo=ppo)
        before = {k: v.copy() for k, v in tr.params.items()}
        buf = tr.collect_rollout(8)
        tr.ppo_update(buf)
        for k, v in tr.params.items():
            np.testing.assert_array_equal(v, before[k])

    def test_clip_saturation_zeroes_policy_gradient(self):
        # push every sample into the saturated clip branch: with value and
        # entropy terms disabled, the update must leave all parameters alone
        ppo = dataclasses.replace(
            TINY_PPO, clip_range=1e-6, entropy_coef=0.0, value_coef=0.0,
            batch_size=TINY_PPO.gradient_steps * TINY_PPO.n_envs, n_epochs=1)
        tr = small_trainer(ppo=ppo)
        buf = tr.collect_rollout(ppo.gradient_steps)
        # offset stored log-probs against the normalized advantage sign so
        # (adv > 0, ratio > 1 + eps) or (adv < 0, ratio < 1 - eps) everywhere
        _, last_values = tr.value_net.forward(tr._obs)
        from latticerl.buffer import compute_gae
        adv, _ = compute_gae(buf, last_values[:, 0], ppo.gamma,
                             ppo.gae_lambda)
        flat_adv = buf.flat(adv)
        sign = np.sign(flat_adv - flat_adv.mean())
        sign[sign == 0] = 1.0
        buf.log_probs[...] -= sign.reshape(buf.log_probs.shape)
        before = {k: v.copy() for k, v in tr.params.items()}
        stats = tr.ppo_update(buf)
        assert stats["clip_fraction"] == pytest.approx(1.0)
        for k, v in tr.params.items():
            np.testing.assert_array_equal(v, before[k])

    def test_update_statistics_finite(self):
        tr = small_trainer()
        buf = tr.collect_rollout(8)
        stats = tr.ppo_update(buf)
        for key in ("pg_loss", "value_loss", "entropy", "approx_kl",
                    "clip_fraction", "grad_norm"):
            assert np.isfinite(stats[key])

    def test_one_policy_backward_per_minibatch(self, monkeypatch):
        ppo = dataclasses.replace(
            TINY_PPO, batch_size=TINY_PPO.gradient_steps * TINY_PPO.n_envs,
            n_epochs=1)
        tr = small_trainer(ppo=ppo)
        buf = tr.collect_rollout(ppo.gradient_steps)
        calls = {"backward": 0, "variance": 0, "logp": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(policy_mod.Mlp, "backward",
                            counted("backward", policy_mod.Mlp.backward))
        monkeypatch.setattr(policy_mod, "_variance_backward",
                            counted("variance",
                                    policy_mod._variance_backward))
        terms = counted("logp", policy_mod.log_prob_terms)
        monkeypatch.setattr(policy_mod, "log_prob_terms", terms)
        monkeypatch.setattr(trainer_mod, "log_prob_terms", terms)
        tr.ppo_update(buf)
        # one minibatch: the policy and the value net once each
        assert calls == {"backward": 2, "variance": 1, "logp": 1}

    @pytest.mark.parametrize("strategy,cfg", [
        ("lattice", LatticeConfig()), ("lattice", LatticeConfig(period=4)),
        ("gsde", LatticeConfig()), ("lattice", LatticeConfig(full_std=True))],
        ids=["lattice-1", "lattice-4", "gsde", "lattice-full_std"])
    def test_reduced_stds_factorize_nothing(self, strategy, cfg, monkeypatch):
        # reduced stds work in the shared eigenbasis of W W^T; only
        # full_std rows, which share no basis, need the batched factors
        class Refused(Exception):
            pass

        def refuse(*args, **kwargs):
            raise Refused

        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "inv", refuse)
        tr = small_trainer(strategy=strategy, cfg=cfg)
        if cfg.full_std:
            with pytest.raises(Refused):
                tr.ppo_update(tr.collect_rollout(8))
        else:
            stats = tr.ppo_update(tr.collect_rollout(8))
            assert np.isfinite(stats["grad_norm"])

    def test_nan_reward_names_value_parameters(self):
        tr = small_trainer()
        buf = tr.collect_rollout(8)
        buf.rewards[-1, :] = np.nan
        with pytest.raises(NonFiniteLoss) as info:
            tr.ppo_update(buf)
        message = str(info.value)
        assert "epoch 0" in message
        assert "gradient of " in message
        assert "v.w0" in message
        # the first minibatch fails, so there are no finite stats before it
        assert (info.value.epoch, info.value.start) == (0, 0)
        assert info.value.last_stats == {}

    def test_surrogate_gradient_finite_differences(self,
                                                   small_policy_factory):
        # the masked-weight trick must reproduce d/dtheta of the clipped
        # surrogate (holding the active-branch mask fixed)
        policy, cfg = small_policy_factory(seed=30)
        rng = np.random.default_rng(31)
        obs = rng.standard_normal((6, 3))
        actions = rng.standard_normal((6, 2)) * 0.5
        adv = rng.standard_normal(6)
        old_logp = log_prob(dist_internals(policy, obs, cfg),
                            actions) + rng.normal(0.0, 0.2, 6)
        eps = 0.3

        def surrogate():
            logp = log_prob(dist_internals(policy, obs, cfg), actions)
            ratio = np.exp(logp - old_logp)
            return float(-np.mean(np.minimum(
                ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)))

        logp = log_prob(dist_internals(policy, obs, cfg), actions)
        ratio = np.exp(logp - old_logp)
        inactive = ((adv > 0) & (ratio > 1 + eps)) | \
                   ((adv < 0) & (ratio < 1 - eps))
        assert inactive.any() and (~inactive).any()
        w_pg = np.where(inactive, 0.0, -(adv * ratio) / 6)
        tape = GradientTape(policy.params)
        log_prob_and_grad(policy, obs, actions, cfg, tape, weights=w_pg)
        worst = 0.0
        for name, arr in policy.params.items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                num = finite_difference(surrogate, arr, idx)
                worst = max(worst, relative_error(num,
                                                  tape.grads[name][idx]))
        assert worst < 1e-4


class TestStrategyPlugInEquivalence:
    def test_lattice_alpha_zero_matches_diagonal(self,
                                                 constant_obs_registered):
        # constant observation makes the action variance state-independent;
        # with the variance path suppressed, the lattice(alpha=0) and
        # diagonal strategies see identical gradients on the shared keys
        # huge clip threshold: the global gradient norm includes the noise
        # parameters, whose raw gradients differ between the strategies
        ppo = dataclasses.replace(TINY_PPO, learning_rate=1e-3,
                                  max_grad_norm=1e9)
        cfg_lat = LatticeConfig(alpha=0.0, gamma=0.0,
                                stop_variance_gradient=True)
        tr_lat = small_trainer(strategy="lattice", cfg=cfg_lat, ppo=ppo,
                               env_name="constant_obs",
                               env_kwargs={"action_dim": 3})
        tr_diag = small_trainer(strategy="diagonal", cfg=LatticeConfig(),
                                ppo=ppo, env_name="constant_obs",
                                env_kwargs={"action_dim": 3})
        for k, v in tr_lat.params.items():
            if k in tr_diag.params and not k.startswith("log_"):
                tr_diag.params[k][...] = v
        # match the diagonal stds to the lattice per-action stds
        it = dist_internals(tr_lat.policy, np.ones((1, 2)), cfg_lat)
        tr_diag.params["log_sigma"][...] = 0.5 * np.log(it.c_a[0])

        buf = tr_lat.collect_rollout(8)
        stored = buf.flat(buf.log_probs)
        recheck = log_prob(dist_internals(tr_diag.policy, buf.flat(buf.obs),
                                          tr_diag.cfg),
                           buf.flat(buf.actions))
        np.testing.assert_allclose(recheck, stored, atol=1e-10)

        tr_diag._obs = tr_lat._obs.copy()
        # record the gradients reaching the optimizer instead of comparing
        # post-update parameters: the adaptive optimizer normalizes by the
        # gradient magnitude, which amplifies fp noise on near-zero entries
        recorded = {}
        for label, tr in (("lattice", tr_lat), ("diagonal", tr_diag)):
            batches = []

            def recorder(grad, _out=batches, _tr=tr):
                _out.append({k: g.copy()
                             for k, g in views_of(grad, _tr.params).items()})

            tr.optimizer.step = recorder
            tr.ppo_update(buf)
            recorded[label] = batches
        assert len(recorded["lattice"]) == len(recorded["diagonal"]) > 0
        for g_lat, g_diag in zip(recorded["lattice"], recorded["diagonal"]):
            for k in g_lat:
                if k in g_diag and not k.startswith("log_"):
                    np.testing.assert_allclose(g_lat[k], g_diag[k],
                                               atol=1e-12)


class TestFit:
    def test_fit_runs_and_reports(self):
        tr = small_trainer()
        rows = []
        tr.fit(64, on_update=lambda row, stats: rows.append(row))
        assert len(rows) == 2  # 8 steps x 4 envs per update
        assert rows[0]["env_steps"] == 32
        assert rows[1]["env_steps"] == 64
        assert rows[1]["update"] == 2
        for row in rows:
            for col in ("mean_episode_reward", "solved_fraction", "energy",
                        "mean_entropy", "wall_time_s"):
                assert np.isfinite(row[col])

    def test_early_stop_on_target(self):
        # target 0 is met by the first window, so training stops immediately
        tr = small_trainer(env_kwargs={"max_steps": 4})
        tr.fit(10_000, target_solved=0.0)
        assert tr.env_steps < 10_000


class OracleAdam:
    """A trainer's optimizer slot filled by the per-key oracle."""

    def __init__(self, trainer):
        self.params = trainer.params
        self.adam = oracles.Adam(trainer.params, trainer.ppo.learning_rate)

    def step(self, grad):
        self.adam.step(self.params, views_of(grad, self.params))


class TestFlatParameters:
    @pytest.mark.parametrize("strategy,cfg", [
        ("diagonal", LatticeConfig()),
        ("lattice", LatticeConfig(period=1)),
        ("lattice", LatticeConfig(period=4)),
        ("lattice", LatticeConfig(full_std=True))],
        ids=["diagonal", "lattice-1", "lattice-4", "full_std"])
    def test_fit_matches_per_key_oracle(self, strategy, cfg, monkeypatch):
        # the same fit stepped by the per-key Adam and the per-key norm
        ref = small_trainer(strategy=strategy, cfg=cfg, seed=4)
        ref.optimizer = OracleAdam(ref)
        with monkeypatch.context() as mp:
            mp.setattr(GradientTape, "global_norm",
                       lambda tape: oracles.global_norm(tape.grads))
            ref.fit(3 * 32)
        tr = small_trainer(strategy=strategy, cfg=cfg, seed=4)
        tr.fit(3 * 32)
        assert tr.updates == ref.updates == 3
        m = views_of(tr.optimizer.m_flat, tr.params)
        v = views_of(tr.optimizer.v_flat, tr.params)
        for k in tr.params:
            assert tr.params[k].tobytes() == ref.params[k].tobytes(), k
            assert m[k].tobytes() == ref.optimizer.adam.m[k].tobytes(), k
            assert v[k].tobytes() == ref.optimizer.adam.v[k].tobytes(), k

    @staticmethod
    def assert_views_of_flat(tr):
        assert tr.policy.params is tr.params
        assert tr.policy.net.params is tr.params
        assert tr.value_net.params is tr.params
        assert tr.optimizer.flat is tr.flat_params
        offset = 0
        for k, v in tr.params.items():
            segment = tr.flat_params[offset:offset + v.size]
            assert np.shares_memory(v, tr.flat_params), k
            assert v.ctypes.data == segment.ctypes.data, k
            offset += v.size
        assert offset == tr.flat_params.size
        assert tr.optimizer.m_flat.shape == tr.optimizer.v_flat.shape == \
            tr.flat_params.shape

    def test_params_are_views_after_construction_and_loads(self, tmp_path):
        tr = small_trainer()
        # policy keys first, then value keys, in each network's order
        names = list(tr.params)
        assert names.index("log_std_a") < names.index("v.w0")
        self.assert_views_of_flat(tr)
        tr.fit(32)
        self.assert_views_of_flat(tr)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tr)
        loaded = load_checkpoint(path)
        self.assert_views_of_flat(loaded)
        assert loaded.flat_params.tobytes() == tr.flat_params.tobytes()
        save_checkpoint(path, loaded)
        again = load_checkpoint(path)
        self.assert_views_of_flat(again)
        assert again.flat_params.tobytes() == tr.flat_params.tobytes()
        self.assert_views_of_flat(load_checkpoint(SCHEMA1_CHECKPOINT))

    def test_overflowing_square_is_clipped_to_zero(self, monkeypatch):
        # a finite gradient whose square overflows gives an infinite norm,
        # which is no NonFiniteLoss: the clip scales it by 0.7 / inf = 0
        tr = small_trainer()
        buf = tr.collect_rollout(8)
        backward = tr.value_net.backward

        def huge_bias_gradient(cache, d_out, tape, **kwargs):
            out = backward(cache, d_out, tape, **kwargs)
            tape.grads["v.b0"][0] = 1e200
            return out

        steps = []
        step = tr.optimizer.step

        def recorded(grad):
            steps.append(grad.copy())
            step(grad)

        monkeypatch.setattr(tr.value_net, "backward", huge_bias_gradient)
        monkeypatch.setattr(tr.optimizer, "step", recorded)
        before = tr.flat_params.copy()
        with np.errstate(over="ignore"):
            stats = tr.ppo_update(buf)
        assert stats["grad_norm"] == np.inf
        assert len(steps) == 4
        for grad in steps:
            np.testing.assert_array_equal(grad, 0.0)
        # zero gradients from zero moments move nothing
        assert tr.flat_params.tobytes() == before.tobytes()

    def test_infinite_gradient_names_its_key(self, monkeypatch):
        # the clip scales an Inf gradient by 0.7 / inf = 0 to NaN before the
        # finiteness check, which must still name only that key. TINY_PPO
        # has two minibatches per epoch, so the third is epoch 1's first.
        for fail_at in (0, 2):
            tr = small_trainer()
            buf = tr.collect_rollout(8)
            backward = tr.value_net.backward
            calls = []

            def inf_bias_gradient(cache, d_out, tape, **kwargs):
                out = backward(cache, d_out, tape, **kwargs)
                if len(calls) == fail_at:
                    tape.grads["v.b0"][0] = np.inf
                calls.append(None)
                return out

            # the same update stopped cleanly before the failing minibatch
            twin = small_trainer(ppo=dataclasses.replace(TINY_PPO,
                                                         n_epochs=1))
            expected = twin.ppo_update(twin.collect_rollout(8)) \
                if fail_at else {}
            monkeypatch.setattr(tr.value_net, "backward", inf_bias_gradient)
            with np.errstate(invalid="ignore"), \
                    pytest.raises(NonFiniteLoss) as info:
                tr.ppo_update(buf)
            epoch = fail_at // 2
            assert f"non-finite gradient of v.b0 in epoch {epoch}, " \
                   "minibatch starting at 0" in str(info.value)
            assert (info.value.epoch, info.value.start) == (epoch, 0)
            assert info.value.last_stats == expected
            # the failing minibatch steps nothing
            assert tr.flat_params.tobytes() == twin.flat_params.tobytes()

    def test_traced_methods_run_once_per_minibatch(self, monkeypatch):
        # the benchmark's per-layer counts (trainer.Adam.step.calls and the
        # tape's spans) read these calls
        ppo = dataclasses.replace(TINY_PPO, batch_size=12, n_epochs=3)
        tr = small_trainer(ppo=ppo)
        buf = tr.collect_rollout(8)
        calls = {}
        for owner, name in ((Adam, "step"), (GradientTape, "zero_"),
                            (GradientTape, "clip_global_norm")):
            def counted(*args, _f=getattr(owner, name), _name=name,
                        **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _f(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        tr.ppo_update(buf)
        # 8 steps x 4 envs = 32 samples in batches of 12: 3 per epoch
        assert calls == {"step": 9, "zero_": 9, "clip_global_norm": 9}


class TestEvaluate:
    def test_deterministic_has_no_episode_variance(self):
        tr = small_trainer(env_kwargs={"target_range": 0.0})
        metrics = evaluate_policy(tr, n_episodes=5, deterministic=True,
                                  seed=0)
        rewards = [e["reward"] for e in metrics["per_episode"]]
        assert max(rewards) == min(rewards)
        assert metrics["reward"]["sem"] == pytest.approx(0.0)

    def test_reaggregation_oracle(self):
        tr = small_trainer()
        metrics = evaluate_policy(tr, n_episodes=10, seed=1)
        for key in ("reward", "solved_fraction", "energy"):
            per = np.array([e[key] for e in metrics["per_episode"]])
            assert metrics[key]["mean"] == pytest.approx(per.mean(),
                                                         abs=1e-10)
            assert metrics[key]["sem"] == pytest.approx(
                per.std(ddof=1) / np.sqrt(len(per)), abs=1e-10)

    def test_evaluation_deterministic_in_seed(self):
        tr = small_trainer()
        a = evaluate_policy(tr, n_episodes=4, seed=5)
        b = evaluate_policy(tr, n_episodes=4, seed=5)
        assert a == b

    @pytest.mark.parametrize("strategy,period", [
        ("lattice", 1), ("lattice", 4), ("gsde", "episode"),
        ("diagonal", 1)])
    def test_energy_matches_action_log(self, strategy, period):
        # evaluation and the analyses' action log play the same episodes
        tr = small_trainer(strategy=strategy, cfg=LatticeConfig(period=period),
                           env_kwargs={"max_steps": 10})
        metrics = evaluate_policy(tr, n_episodes=3, deterministic=False,
                                  seed=7)
        actions, _ = collect_action_log(tr, 3, 7)
        episodes = actions.reshape(3, 10, tr.action_dim)
        for record, a in zip(metrics["per_episode"], episodes):
            assert record["energy"] == energy_of(np.clip(a, 0.0, 1.0))


# every noise mode that draws a fixed count of normals per episode, and
# deterministic evaluation, which draws none
FIXED_DRAW_CASES = {
    "diagonal": ("diagonal", LatticeConfig(), False),
    "gsde-episode": ("gsde", LatticeConfig(period="episode"), False),
    "lattice-t1": ("lattice", LatticeConfig(period=1), False),
    "full-std-t1": ("lattice", LatticeConfig(period=1, full_std=True), False),
    "full-std-t2": ("lattice", LatticeConfig(period=2, full_std=True), False),
    # a period that does not divide the episode: the last window is short
    "full-std-t3": ("lattice", LatticeConfig(period=3, full_std=True), False),
    "deterministic": ("lattice", LatticeConfig(period=4), True),
}


class TestBatchedEpisodes:
    @pytest.mark.parametrize("case", FIXED_DRAW_CASES)
    def test_matches_sequential_oracle(self, case):
        # rows of one batch read the sequential loop's env and noise
        # streams; only the row count of the policy's products differs
        strategy, cfg, deterministic = FIXED_DRAW_CASES[case]
        tr = small_trainer(strategy=strategy, cfg=cfg)
        states, actions, rewards, solved = run_episodes(
            tr, 7, seed=3, deterministic=deterministic)
        metrics = evaluate_policy(tr, n_episodes=7, seed=3,
                                  deterministic=deterministic)
        episodes = list(oracles.run_episodes(tr, 7, 3, deterministic))
        assert len(episodes) == 7 == len(metrics["per_episode"])
        for i, (s, a, r, ok, t_max) in enumerate(episodes):
            np.testing.assert_allclose(states[i], s, rtol=0, atol=1e-9)
            np.testing.assert_allclose(actions[i], a, rtol=0, atol=1e-9)
            np.testing.assert_allclose(rewards[i], r, rtol=0, atol=1e-9)
            np.testing.assert_array_equal(solved[i], ok)
            want = EpisodeMetrics.from_logs(r, ok, np.clip(a, 0.0, 1.0))
            got = metrics["per_episode"][i]
            assert got["solved_fraction"] == want.solved_fraction
            assert got["reward"] == pytest.approx(want.cumulative_reward,
                                                  rel=0, abs=1e-9)
            assert got["energy"] == pytest.approx(want.energy, rel=0,
                                                  abs=1e-9)

    def test_reduced_std_windows_reproducible(self):
        tr = small_trainer(cfg=LatticeConfig(period=4))
        a = run_episodes(tr, 7, seed=2)
        b = run_episodes(tr, 7, seed=2)
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()

    def test_reduced_std_windows_on_constant_obs(self,
                                                 constant_obs_registered):
        # criterion 9's set-up, evaluated: a constant latent gets one noise
        # per 4-step window, and a fresh one in the next window
        tr = PPOTrainer("constant_obs",
                        env_kwargs={"max_steps": 64, "action_dim": 3},
                        strategy="lattice",
                        lattice_cfg=LatticeConfig(alpha=1.0, period=4),
                        ppo_cfg=dataclasses.replace(TINY_PPO, n_envs=1),
                        hiddens=(8, 8), critic_hiddens=(8, 8), seed=0)
        _, actions, _, _ = run_episodes(tr, 7, seed=0)
        # the mean action is the same at every step, so the actions show
        # the noise
        windows = actions.reshape(7, 16, 4, 3)
        assert np.array_equal(windows,
                              np.broadcast_to(windows[:, :, :1],
                                              windows.shape))
        assert np.all(np.any(windows[:, 1:, 0] != windows[:, :-1, 0],
                             axis=-1))

    @pytest.mark.parametrize("period", [1, 4])
    def test_chunking_changes_no_episode(self, monkeypatch, period):
        tr = small_trainer(cfg=LatticeConfig(period=period))
        width = episode_normals(tr.policy, tr.cfg, tr.envs.max_steps)
        runs = []
        for per_chunk in (7, 4, 1):  # 1, 2 and 7 chunks
            monkeypatch.setattr(trainer_mod, "EVAL_CHUNK_NORMALS",
                                per_chunk * width)
            runs.append(run_episodes(tr, 7, seed=4))
        for run in runs[1:]:
            np.testing.assert_allclose(run[1], runs[0][1], rtol=0,
                                       atol=1e-12)
            np.testing.assert_array_equal(run[3], runs[0][3])

    @pytest.mark.parametrize("n", [0, -2, 2.0])
    def test_refuses_no_episodes(self, n):
        tr = small_trainer()
        with pytest.raises(ValueError, match="n_episodes"):
            evaluate_policy(tr, n_episodes=n)
        with pytest.raises(ValueError, match="n_episodes"):
            run_episodes(tr, n, seed=0)

    @pytest.mark.parametrize("seed", [True, 2.9, "3", -1])
    def test_refuses_bad_seed(self, seed):
        # True used to evaluate as seed 1, and 2.9 and "3" raised numpy's
        # TypeError
        tr = small_trainer()
        with pytest.raises(ValueError, match=f"seed .*{seed!r}"):
            evaluate_policy(tr, n_episodes=2, seed=seed)


class TestPredict:
    def test_stochastic_without_rng_fails_first(self, monkeypatch):
        tr = small_trainer()

        def refuse(*args, **kwargs):
            raise AssertionError("distribution built before the rng check")

        monkeypatch.setattr(trainer_mod, "dist_internals", refuse)
        with pytest.raises(ValueError, match="rng"):
            tr.predict(np.array([[0.1, -0.2]]), deterministic=False)

    @pytest.mark.parametrize("full_std", [False, True],
                             ids=["reduced", "full"])
    def test_stochastic_draw_is_mean_plus_cholesky_factor(self, full_std):
        tr = small_trainer(cfg=LatticeConfig(alpha=0.8, full_std=full_std))
        obs = np.random.default_rng(3).standard_normal((4, 2))
        actions = tr.predict(obs, deterministic=False,
                             rng=np.random.default_rng(4))
        z = np.random.default_rng(4).standard_normal(actions.shape)
        x, mean = tr.policy.forward(obs)
        s_x, s_a = distribution_std(tr.policy.noise_std, tr.cfg,
                                    tr.action_dim)
        for b in range(4):
            cov = lattice_covariance(x[b], tr.policy.W, s_a, s_x,
                                     tr.cfg.alpha, tr.cfg.gamma)
            np.testing.assert_allclose(
                actions[b], mean[b] + np.linalg.cholesky(cov) @ z[b],
                rtol=1e-10, atol=1e-12)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        tr = small_trainer(strategy="lattice", seed=9)
        tr.fit(32)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tr)
        loaded = load_checkpoint(path)
        assert loaded.get_params() == tr.get_params()
        assert loaded.env_steps == tr.env_steps
        for k, v in tr.params.items():
            np.testing.assert_array_equal(loaded.params[k], v)
        obs = np.array([[0.1, -0.2]])
        np.testing.assert_array_equal(loaded.predict(obs), tr.predict(obs))

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    @staticmethod
    def _edited_checkpoint(tmp_path, edit, schema):
        """A checkpoint of small_trainer() whose parameter arrays went
        through edit(params) and were written in the given schema: 1 as
        nested lists, 2 as base64 float64 bytes."""
        path = tmp_path / f"ckpt{schema}.json"
        tr = small_trainer()
        save_checkpoint(path, tr)
        payload = json.loads(path.read_text())
        params = {k: v.copy() for k, v in tr.params.items()}
        edit(params)
        payload["schema_version"] = schema
        payload["params"] = {k: f8_entry(v) if schema == 2 else v.tolist()
                             for k, v in params.items()}
        path.write_text(json.dumps(payload))
        return path

    def test_shape_mismatch(self, tmp_path):
        def shrink(params):
            params["pi.b0"] = np.zeros(1)

        for schema in (1, 2):
            path = self._edited_checkpoint(tmp_path, shrink, schema)
            with pytest.raises(CheckpointCorrupt, match="pi.b0 has shape"):
                load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(tmp_path / "absent.json")

    def test_missing_key(self, tmp_path):
        for schema in (1, 2):
            path = self._edited_checkpoint(
                tmp_path, lambda p: p.pop("log_std_x"), schema)
            with pytest.raises(CheckpointCorrupt, match="missing.*log_std_x"):
                load_checkpoint(path)

    def test_extra_key(self, tmp_path):
        for schema in (1, 2):
            path = self._edited_checkpoint(
                tmp_path, lambda p: p.update({"pi.w9": np.zeros((1, 1))}),
                schema)
            with pytest.raises(CheckpointCorrupt, match="unexpected.*pi.w9"):
                load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value(self, tmp_path, value):
        def poison(params):
            params["pi.b0"][0] = value

        for schema in (1, 2):
            path = self._edited_checkpoint(tmp_path, poison, schema)
            with pytest.raises(CheckpointCorrupt, match="pi.b0"):
                load_checkpoint(path)

    def test_roundtrip_is_bit_exact(self, tmp_path):
        # random finite float64 bit patterns, signed zeros, subnormals and
        # the extremes come back with the same bytes
        tr = small_trainer(seed=3)
        bits = np.random.default_rng(0).integers(
            0, 2 ** 64, size=sum(v.size for v in tr.params.values()),
            dtype=np.uint64).view(np.float64)
        bits[~np.isfinite(bits)] = 0.0
        offset = 0
        for v in tr.params.values():
            v.flat[:] = bits[offset:offset + v.size]
            offset += v.size
        tr.params["v.b0"][:] = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1e308, -1e308, 1.7976931348623157e308, 0.0]
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tr)

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        payload = json.loads(path.read_text(), parse_constant=refuse)
        assert payload["schema_version"] == 2
        assert payload["params"]["pi.w1"] == f8_entry(tr.params["pi.w1"])
        loaded = load_checkpoint(path)
        for k, v in tr.params.items():
            assert loaded.params[k].tobytes() == v.tobytes(), k

    @pytest.mark.parametrize("edit,message", [
        (lambda e: e.update(f8=e["f8"][:-4] + "!!!!"), "not valid base64"),
        (lambda e: e.update(f8=e["f8"][:8] + "\n" + e["f8"][8:]),
         "not valid base64"),
        (lambda e: e.update(f8=base64.b64encode(
            base64.b64decode(e["f8"])[:-8]).decode()), "has 56 bytes"),
        (lambda e: e.update(f8=base64.b64encode(
            base64.b64decode(e["f8"]) + b"\0").decode()), "has 65 bytes"),
        (lambda e: e.update(f8=None), "not valid base64"),
        (lambda e: e.update(shape=[8.0]), "shape"),
        (lambda e: e.pop("shape"), "keys 'shape' and 'f8'")])
    def test_bad_f8_entry(self, tmp_path, edit, message):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_trainer())
        payload = json.loads(path.read_text())
        edit(payload["params"]["pi.b0"])
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorrupt, match=f"pi.b0.*{message}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("entry", [True, "0.5", None, [0.5]])
    def test_non_numeric_schema1_entry(self, tmp_path, entry):
        # a bool used to load as 1.0 and a numeric string as its value
        def spoil(params):
            params["pi.b0"] = params["pi.b0"].astype(object)
            params["pi.b0"][3] = entry

        path = self._edited_checkpoint(tmp_path, spoil, schema=1)
        with pytest.raises(CheckpointCorrupt, match="pi.b0"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [99, 0, "2", True, 2.0, None,
                                         "missing"])
    def test_unknown_schema_version(self, tmp_path, version):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_trainer())
        payload = json.loads(path.read_text())
        if version == "missing":
            del payload["schema_version"]
        else:
            payload["schema_version"] = version
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorrupt, match="schema_version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("env_steps", "12"), ("env_steps", True), ("env_steps", -5),
        ("env_steps", None), ("updates", 2.7), ("updates", "3"),
        ("seed", True), ("seed", 2.9), ("seed", -1), ("seed", "0")])
    def test_bad_seed_or_counter(self, tmp_path, field, value):
        # each used to load through int(): "12" as 12, True as 1, 2.7 as 2
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_trainer())
        payload = json.loads(path.read_text())
        (payload["layout"] if field == "seed" else payload)[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorrupt, match=f"'{field}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field", ["hiddens", "critic_hiddens"])
    @pytest.mark.parametrize("sizes", [[0], [True, 3], [2.5]])
    def test_bad_layer_sizes(self, tmp_path, field, sizes):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_trainer())
        payload = json.loads(path.read_text())
        payload["layout"][field] = sizes
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorrupt, match=field):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,value", [
        ("max_steps", 2.5), ("gain", float("nan")),
        ("target_range", float("inf")), ("n_flexors", True)])
    def test_bad_env_parameter(self, tmp_path, field, value):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_trainer())
        payload = json.loads(path.read_text())
        payload["layout"]["env_kwargs"][field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorrupt, match=field):
            load_checkpoint(path)

    def test_missing_counters_read_zero(self, tmp_path):
        tr = small_trainer()
        tr.fit(32)
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tr)
        payload = json.loads(path.read_text())
        del payload["env_steps"], payload["updates"]
        path.write_text(json.dumps(payload))
        loaded = load_checkpoint(path)
        assert (loaded.env_steps, loaded.updates) == (0, 0)
        for k, v in tr.params.items():
            assert loaded.params[k].tobytes() == v.tobytes(), k

    def test_committed_schema1_checkpoint(self):
        loaded = load_checkpoint(SCHEMA1_CHECKPOINT)
        reference = schema1_reference_trainer()
        assert loaded.get_params() == reference.get_params()
        assert (loaded.env_steps, loaded.updates) == (1234, 5)
        for k, v in reference.params.items():
            assert loaded.params[k].tobytes() == v.tobytes(), k

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_trainer(seed=1))
        before = path.read_bytes()

        def dump_then_fail(obj, fh):
            fh.write(json.dumps(obj)[:100])
            raise OSError("disk full")

        monkeypatch.setattr(trainer_mod.json, "dump", dump_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, small_trainer(seed=2))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
        monkeypatch.undo()
        save_checkpoint(path, small_trainer(seed=2))
        assert path.read_bytes() != before
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]


class TestGetParams:
    def test_echo_matches_construction(self):
        cfg = LatticeConfig(alpha=0.5, period=4)
        tr = small_trainer(cfg=cfg, seed=2)
        echo = tr.get_params()
        assert echo["strategy"] == "lattice"
        assert echo["lattice"]["alpha"] == 0.5
        assert echo["lattice"]["period"] == 4
        assert echo["ppo"]["batch_size"] == TINY_PPO.batch_size
        assert echo["hiddens"] == [8, 8]
        assert echo["seed"] == 2

    @pytest.mark.parametrize("seed", [True, 2.9, "3", -1])
    def test_bad_seed(self, seed):
        # True, 2.9 and "3" used to train with seeds 1, 2 and 3
        with pytest.raises(ValueError, match=f"seed .*{seed!r}"):
            small_trainer(seed=seed)

    @pytest.mark.parametrize("field", ["hiddens", "critic_hiddens"])
    @pytest.mark.parametrize("sizes", [[0], [True, 3], [2.5]])
    def test_bad_layer_sizes(self, field, sizes):
        # [0] used to fail in Mlp with a ZeroDivisionError, and True
        # built a layer of one unit
        with pytest.raises(ValueError, match=field):
            PPOTrainer("point_reacher", **{field: sizes})

    def test_no_hidden_layers(self):
        tr = PPOTrainer("point_reacher", hiddens=[], critic_hiddens=[],
                        ppo_cfg=TINY_PPO)
        assert tr.policy.n_latent == tr.obs_dim
