"""PPO trainer: rollout bookkeeping, update semantics, checkpoints."""

import dataclasses

import numpy as np
import pytest

from latticerl.cli import collect_action_log
from latticerl.envs import ENV_REGISTRY, energy_of
from latticerl import policy as policy_mod
from latticerl import trainer as trainer_mod
from latticerl.errors import CheckpointCorrupt, NonFiniteLoss
from latticerl.exploration import (
    LatticeConfig,
    resample_perturbations,
    sampling_std,
)
from latticerl.policy import GradientTape, dist_internals, log_prob, log_prob_and_grad
from latticerl.trainer import (
    Adam,
    PpoConfig,
    PPOTrainer,
    evaluate_policy,
    load_checkpoint,
    save_checkpoint,
)

from conftest import ConstantObsEnv, finite_difference, relative_error

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


class TestAdam:
    def test_zero_lr_is_noop(self):
        params = {"a": np.array([1.0, 2.0])}
        opt = Adam(params, lr=0.0)
        before = params["a"].copy()
        opt.step(params, {"a": np.array([10.0, -10.0])})
        np.testing.assert_array_equal(params["a"], before)

    def test_skip_set(self):
        params = {"a": np.array([1.0]), "b": np.array([1.0])}
        opt = Adam(params, lr=0.1)
        opt.step(params, {"a": np.array([1.0]), "b": np.array([1.0])},
                 skip={"b"})
        assert params["a"][0] != 1.0
        assert params["b"][0] == 1.0

    def test_in_place_matches_out_of_place_formula(self):
        rng = np.random.default_rng(3)
        shapes = {"w": (7, 5), "b": (5,), "frozen": (3,)}
        params = {k: rng.standard_normal(s) for k, s in shapes.items()}
        ref_p = {k: v.copy() for k, v in params.items()}
        ref_m = {k: np.zeros_like(v) for k, v in params.items()}
        ref_v = {k: np.zeros_like(v) for k, v in params.items()}
        opt = Adam(params, lr=3e-3)
        b1, b2, eps, lr = opt.beta1, opt.beta2, opt.eps, opt.lr
        for t in range(1, 201):
            grads = {k: rng.standard_normal(v.shape) * 10.0 ** rng.integers(
                -6, 3) for k, v in params.items()}
            opt.step(params, grads, skip={"frozen"})
            bc1 = 1.0 - b1 ** t
            bc2 = 1.0 - b2 ** t
            for k in ("w", "b"):
                g = grads[k]
                ref_m[k] = b1 * ref_m[k] + (1.0 - b1) * g
                ref_v[k] = b2 * ref_v[k] + (1.0 - b2) * g * g
                m_hat = ref_m[k] / bc1
                v_hat = ref_v[k] / bc2
                ref_p[k] = ref_p[k] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for k in params:
            assert params[k].tobytes() == ref_p[k].tobytes(), k
            assert opt.m[k].tobytes() == ref_m[k].tobytes(), k
            assert opt.v[k].tobytes() == ref_v[k].tobytes(), k

    def test_quadratic_convergence(self):
        params = {"a": np.array([5.0])}
        opt = Adam(params, lr=0.1)
        for _ in range(500):
            opt.step(params, {"a": 2.0 * params["a"]})
        assert abs(params["a"][0]) < 1e-3


class TestRollout:
    def test_old_log_prob_fidelity(self):
        for strategy in ("lattice", "gsde", "diagonal"):
            tr = small_trainer(strategy=strategy)
            buf = tr.collect_rollout(6)
            obs = buf.flat(buf.obs)
            actions = buf.flat(buf.actions)
            stored = buf.flat(buf.log_probs)
            recomputed = log_prob(tr.policy, obs, actions, tr.cfg)
            np.testing.assert_allclose(recomputed, stored, atol=1e-10)

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


def per_env_reference_actions(tr, n_steps):
    """Actions of the per-env sampling loop that NoiseSampler replaced, run
    on tr's own envs and rngs: env i adds N(0, sigma^2) noise, or redraws
    its P matrices from rngs[i] when its window is due, and starts a fresh
    window when its episode ends."""
    period = tr.cfg.period_steps
    windows = [None] * tr.ppo.n_envs
    ep_step = [0] * tr.ppo.n_envs
    obs = tr._obs.copy()
    out = np.empty((n_steps, tr.ppo.n_envs, tr.action_dim))
    for t in range(n_steps):
        x, mean = tr.policy.forward(obs)
        for i, env in enumerate(tr.envs):
            rng = tr.env_rngs[i]
            if tr.strategy == "diagonal":
                sigma = np.exp(tr.params["log_sigma"])
                out[t, i] = mean[i] + \
                    rng.standard_normal(tr.action_dim) * sigma
            else:
                if windows[i] is None or (period is not None
                                          and ep_step[i] % period == 0):
                    windows[i] = resample_perturbations(
                        tr.policy.noise_std, tr.cfg, tr.action_dim, rng)
                p = windows[i]
                out[t, i] = mean[i] + (p.P_a @ x[i] + tr.policy.alpha
                                       * (tr.policy.W @ (p.P_x @ x[i])))
            o, _, done, _ = env.step(out[t, i])
            if done:
                o = env.reset()
                ep_step[i] = 0
                windows[i] = None
            else:
                ep_step[i] += 1
            obs[i] = o
    return out


class TestNoiseSampler:
    @pytest.mark.parametrize("strategy,period", [
        ("lattice", 4), ("lattice", "episode"), ("diagonal", 1)])
    def test_rng_contract_of_matrix_and_diagonal_paths(self, strategy,
                                                       period):
        # episodes of 6 steps cut the period-4 windows at every reset
        cfg = LatticeConfig(alpha=0.7, period=period)
        ppo = dataclasses.replace(TINY_PPO, n_envs=3)
        kwargs = dict(strategy=strategy, cfg=cfg, ppo=ppo, seed=4,
                      env_kwargs={"max_steps": 6})
        buf = small_trainer(**kwargs).collect_rollout(20)
        expected = per_env_reference_actions(small_trainer(**kwargs), 20)
        assert buf.actions.tobytes() == expected.tobytes()

    def test_windows_released_after_last_step(self):
        # episodes of 8 steps at period 4: every window closes exactly when
        # a step count divisible by 4 has been sampled
        ppo = dataclasses.replace(TINY_PPO, n_envs=3)
        tr = small_trainer(cfg=LatticeConfig(period=4), ppo=ppo,
                           env_kwargs={"max_steps": 8})
        tr.collect_rollout(8)
        assert tr.noise.perturbations == [None] * 3
        tr.collect_rollout(2)
        held = tr.noise.perturbations
        assert all(p is not None for p in held)
        tr.collect_rollout(1)
        assert all(a is b for a, b in zip(tr.noise.perturbations, held))
        tr.collect_rollout(1)
        assert tr.noise.perturbations == [None] * 3

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

    def test_surrogate_gradient_finite_differences(self,
                                                   small_policy_factory):
        # the masked-weight trick must reproduce d/dtheta of the clipped
        # surrogate (holding the active-branch mask fixed)
        policy, cfg = small_policy_factory(seed=30)
        rng = np.random.default_rng(31)
        obs = rng.standard_normal((6, 3))
        actions = rng.standard_normal((6, 2)) * 0.5
        adv = rng.standard_normal(6)
        old_logp = log_prob(policy, obs, actions, cfg) \
            + rng.normal(0.0, 0.2, 6)
        eps = 0.3

        def surrogate():
            logp = log_prob(policy, obs, actions, cfg)
            ratio = np.exp(logp - old_logp)
            return float(-np.mean(np.minimum(
                ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)))

        logp = log_prob(policy, obs, actions, cfg)
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
        # with the variance path suppressed and noise parameters frozen, the
        # lattice(alpha=0) and diagonal strategies see identical gradients
        # huge clip threshold: the global gradient norm includes the frozen
        # noise parameters, whose raw gradients differ between the strategies
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
        tr_lat.skip |= {"log_std_x", "log_std_a"}
        tr_diag.skip |= {"log_sigma"}

        buf = tr_lat.collect_rollout(8)
        stored = buf.flat(buf.log_probs)
        recheck = log_prob(tr_diag.policy, buf.flat(buf.obs),
                           buf.flat(buf.actions), tr_diag.cfg)
        np.testing.assert_allclose(recheck, stored, atol=1e-10)

        tr_diag._obs = tr_lat._obs.copy()
        # record the gradients reaching the optimizer instead of comparing
        # post-update parameters: the adaptive optimizer normalizes by the
        # gradient magnitude, which amplifies fp noise on near-zero entries
        recorded = {}
        for label, tr in (("lattice", tr_lat), ("diagonal", tr_diag)):
            batches = []

            def recorder(params, grads, skip=frozenset(), _out=batches):
                _out.append({k: g.copy() for k, g in grads.items()})

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

    def test_skip_freezes_parameters(self):
        noise_keys = ("log_std_x", "log_std_a")
        frozen, free = small_trainer(), small_trainer()
        frozen.skip |= set(noise_keys)
        before = {k: v.copy() for k, v in frozen.params.items()}
        for tr in (frozen, free):
            tr.fit(32)  # one iteration: 8 steps x 4 envs
            assert tr.updates == 1
        for k in noise_keys:
            assert frozen.params[k].tobytes() == before[k].tobytes()
            assert not np.array_equal(free.params[k], before[k])
        assert not np.array_equal(frozen.params["pi.w0"], before["pi.w0"])


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

    def test_shape_mismatch(self, tmp_path):
        import json
        tr = small_trainer()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, tr)
        payload = json.loads(path.read_text())
        payload["params"]["pi.b0"] = [0.0]
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(tmp_path / "absent.json")

    @staticmethod
    def _edited_checkpoint(tmp_path, edit):
        import json
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, small_trainer())
        payload = json.loads(path.read_text())
        edit(payload["params"])
        path.write_text(json.dumps(payload))
        return path

    def test_missing_key(self, tmp_path):
        path = self._edited_checkpoint(tmp_path,
                                       lambda p: p.pop("log_std_x"))
        with pytest.raises(CheckpointCorrupt, match="missing.*log_std_x"):
            load_checkpoint(path)

    def test_extra_key(self, tmp_path):
        path = self._edited_checkpoint(
            tmp_path, lambda p: p.update({"pi.w9": [[0.0]]}))
        with pytest.raises(CheckpointCorrupt, match="unexpected.*pi.w9"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_value(self, tmp_path, value):
        def poison(params):
            params["pi.b0"][0] = value

        path = self._edited_checkpoint(tmp_path, poison)
        with pytest.raises(CheckpointCorrupt, match="pi.b0"):
            load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        import json
        import latticerl.trainer as trainer_mod
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
