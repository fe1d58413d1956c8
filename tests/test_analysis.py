"""Diagnostics: paired perturbation simulations, covariance structure,
noise allocation, and PCA dimensionality."""

import numpy as np
import pytest
from scipy.stats import wilcoxon

from latticerl import analysis
from latticerl.analysis import (
    analytic_latent_noise_cov,
    covariance_report,
    dual_sim_experiment,
    matched_dual_sim,
    noise_allocation,
    pca_explained_variance,
)
from latticerl.envs import FlexExtArm, PointReacher
from latticerl.errors import (
    EmptyGroup,
    InsufficientSamples,
    StateSyncUnsupported,
)
from latticerl.exploration import LatticeConfig, resample_perturbations
from latticerl.policy import MlpPolicy, dist_internals

import oracles
from conftest import LinearArmPolicy


def lattice_policy(seed=0, obs_dim=2, action_dim=4, hiddens=(6, 5),
                   cfg=None):
    cfg = cfg or LatticeConfig(alpha=1.0)
    rng = np.random.default_rng(seed)
    return MlpPolicy(obs_dim, action_dim, cfg, strategy="lattice",
                     hiddens=hiddens, rng=rng), cfg


class RowByRowAdapter:
    """Wraps an MlpPolicy so that its batched calls run one 1-row product
    per row, and a batched caller rounds as the one-row oracle does."""

    def __init__(self, policy: MlpPolicy):
        self.policy = policy

    def latent(self, obs):
        return np.concatenate([self.policy.latent(o[None]) for o in obs])

    def action_from_latent(self, lat):
        return np.concatenate([self.policy.action_from_latent(x[None])
                               for x in lat])


class Counting:
    """Forwards to obj, counting the calls of the named methods."""

    def __init__(self, obj, *names):
        self.calls = dict.fromkeys(names, 0)
        self._obj = obj

    def __getattr__(self, name):
        value = getattr(self._obj, name)
        if name not in self.calls:
            return value

        def counted(*args):
            self.calls[name] += 1
            return value(*args)
        return counted


def assert_conditions_equal(got, want):
    for name in ("angle_dev", "accel_dev", "action_noise"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


class TestDualSim:
    def test_zero_noise_no_deviation(self):
        env = FlexExtArm(n_flexors=1, n_extensors=1, seed=0)
        policy = LinearArmPolicy()
        for mode in ("latent", "action"):
            sigma = 0.0 if mode == "latent" else np.zeros(2)
            cond = dual_sim_experiment(env, policy, mode, sigma, 50,
                                       np.random.default_rng(1))
            np.testing.assert_array_equal(cond.angle_dev, 0.0)
            np.testing.assert_array_equal(cond.accel_dev, 0.0)

    @pytest.mark.parametrize("env_cls,obs_dim,action_dim", [
        (FlexExtArm, 2, 6), (PointReacher, 4, 8)])
    @pytest.mark.parametrize("mode", ["latent", "action"])
    def test_paired_step_matches_step_by_step(self, env_cls, obs_dim,
                                              action_dim, mode):
        # 250 steps: two full episodes (max_steps 100) and a partial one
        policy, _ = lattice_policy(seed=8, obs_dim=obs_dim,
                                   action_dim=action_dim, hiddens=(16, 16))
        adapter = RowByRowAdapter(policy)
        sigma = 0.3 if mode == "latent" else np.linspace(0.1, 0.4,
                                                         action_dim)
        envs = [env_cls(seed=4), env_cls(seed=4)]
        got, want = (
            run(env, adapter, mode, sigma, 250, np.random.default_rng(9))
            for run, env in zip((dual_sim_experiment,
                                 oracles.dual_sim_experiment), envs))
        assert_conditions_equal(got, want)
        assert (envs[0].rng.bit_generator.state
                == envs[1].rng.bit_generator.state)

    @pytest.mark.parametrize("env_cls,obs_dim,action_dim", [
        (FlexExtArm, 2, 6), (PointReacher, 4, 8)])
    @pytest.mark.parametrize("mode", ["latent", "action"])
    def test_mlp_adapter_matches_step_by_step(self, env_cls, obs_dim,
                                              action_dim, mode):
        # the batched products round differently from the 1-row ones
        policy, _ = lattice_policy(seed=8, obs_dim=obs_dim,
                                   action_dim=action_dim, hiddens=(16, 16))
        adapter = policy
        sigma = 0.3 if mode == "latent" else np.linspace(0.1, 0.4,
                                                         action_dim)
        got, want = (
            run(env_cls(seed=4), adapter, mode, sigma, 250,
                np.random.default_rng(9))
            for run in (dual_sim_experiment, oracles.dual_sim_experiment))
        for name in ("angle_dev", "accel_dev", "action_noise"):
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(want, name),
                                       rtol=0, atol=1e-12, err_msg=name)

    @pytest.mark.parametrize("n_steps", [60, 50, 7])
    def test_matched_matches_step_by_step_conditions(self, n_steps):
        # max_steps 20: a multiple of it, a partial last episode, and less
        # than one episode; the action condition continues on the env, so
        # it must see the episode starts the oracle's resets see
        policy, _ = lattice_policy(seed=3, obs_dim=2, action_dim=6,
                                   hiddens=(8, 8))
        adapter = RowByRowAdapter(policy)
        env, ref_env = (FlexExtArm(max_steps=20, seed=5) for _ in range(2))
        rng, ref_rng = np.random.default_rng(6), np.random.default_rng(6)
        result = matched_dual_sim(env, adapter, 0.2, n_steps, rng)
        latent = oracles.dual_sim_experiment(ref_env, adapter, "latent", 0.2,
                                             n_steps, ref_rng)
        sigma_match = latent.action_noise.std(axis=0)
        action = oracles.dual_sim_experiment(ref_env, adapter, "action",
                                             sigma_match, n_steps, ref_rng)
        assert_conditions_equal(result.latent, latent)
        assert_conditions_equal(result.action, action)
        assert result.sigma_match.tobytes() == sigma_match.tobytes()
        assert (env.rng.bit_generator.state
                == ref_env.rng.bit_generator.state)
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n_steps", [250, 30])
    @pytest.mark.parametrize("mode", ["latent", "action"])
    def test_one_forward_and_advance_per_time_step(self, n_steps, mode):
        policy, _ = lattice_policy(seed=8, obs_dim=2, action_dim=6,
                                   hiddens=(16, 16))
        counted = Counting(policy, "latent")
        env = Counting(FlexExtArm(seed=4), "advance")
        sigma = 0.3 if mode == "latent" else np.full(6, 0.2)
        dual_sim_experiment(env, counted, mode, sigma, n_steps,
                            np.random.default_rng(9))
        assert counted.calls["latent"] <= env.max_steps
        assert env.calls["advance"] == min(n_steps, env.max_steps)

    @pytest.mark.parametrize("name", [
        "state_fields", "initial_state", "advance", "observation",
        "kinematics", "max_steps", "action_dim", "rng"])
    def test_requires_each_env_attribute(self, name):
        class Without:
            def __init__(self, env):
                self._env = env

            def __getattr__(self, attr):
                if attr == name:
                    raise AttributeError(attr)
                return getattr(self._env, attr)

        with pytest.raises(StateSyncUnsupported, match=name):
            dual_sim_experiment(Without(FlexExtArm(seed=0)),
                                LinearArmPolicy(3, 3), "latent", 0.1, 10,
                                np.random.default_rng(0))

    def test_requires_state_sync(self):
        class NoSync:
            def reset(self):
                return np.zeros(2)

        with pytest.raises(StateSyncUnsupported):
            dual_sim_experiment(NoSync(), LinearArmPolicy(), "latent", 0.1,
                                10, np.random.default_rng(0))

    def test_rejects_unknown_mode(self):
        env = FlexExtArm(n_flexors=1, n_extensors=1, seed=0)
        with pytest.raises(ValueError):
            dual_sim_experiment(env, LinearArmPolicy(), "parameter", 0.1, 10,
                                np.random.default_rng(0))

    @pytest.mark.parametrize("run,mode,sigma,n_steps", [
        ("single", "latent", 0.1, 0),
        ("single", "action", 0.1, -3),
        ("single", "latent", 0.1, 2.5),
        ("single", "latent", 0.1, True),
        ("single", "latent", -0.1, 10),
        ("single", "latent", np.nan, 10),
        ("single", "action", [0.1, np.inf, 0, 0, 0, 0], 10),
        ("single", "action", np.full(3, 0.1), 10),
        ("single", "latent", np.full(3, 0.1), 10),
        ("single", "action", np.full((1, 6), 0.1), 10),
        ("matched", "latent", 0.1, 1),
        ("matched", "latent", 0.1, 2.5),
        ("matched", "latent", -0.1, 10),
        ("matched", "latent", np.nan, 10),
    ])
    def test_bad_arguments_fail_before_drawing(self, run, mode, sigma,
                                               n_steps):
        # 3+3 arm, 16 latents: a (3,) sigma fits neither noise width
        policy, _ = lattice_policy(seed=8, obs_dim=2, action_dim=6,
                                   hiddens=(16, 16))
        adapter = policy
        env = FlexExtArm(seed=4)
        rng = np.random.default_rng(9)
        env_state = env.rng.bit_generator.state
        rng_state = rng.bit_generator.state
        with pytest.raises(ValueError):
            if run == "single":
                dual_sim_experiment(env, adapter, mode, sigma, n_steps, rng)
            else:
                matched_dual_sim(env, adapter, sigma, n_steps, rng)
        assert env.rng.bit_generator.state == env_state
        assert rng.bit_generator.state == rng_state

    def test_matched_ratio_is_two(self):
        env = FlexExtArm(n_flexors=1, n_extensors=1, seed=2)
        result = matched_dual_sim(env, LinearArmPolicy(), 0.05, 20_000,
                                  np.random.default_rng(3))
        assert result.accel_variance_ratio == pytest.approx(2.0, rel=0.1)
        np.testing.assert_allclose(result.sigma_match, 0.05, rtol=0.05)
        # latent and action deviations are distinguishable at 1% significance
        assert result.wilcoxon_p < 0.01
        assert result.angle_variance_ratio > 1.0
        # the p-value is scipy's signed-rank test on the returned conditions
        lat_mag = np.linalg.norm(result.latent.angle_dev, axis=1)
        act_mag = np.linalg.norm(result.action.angle_dev, axis=1)
        assert result.wilcoxon_p == wilcoxon(lat_mag, act_mag).pvalue

    def test_small_noise_p_value_is_not_hidden(self):
        # every deviation is below 2e-9, yet the two conditions still
        # differ: the signed-rank test does not depend on the noise scale
        env = FlexExtArm(n_flexors=1, n_extensors=1, seed=2)
        result = matched_dual_sim(env, LinearArmPolicy(), 1e-8, 200,
                                  np.random.default_rng(3))
        lat_mag = np.linalg.norm(result.latent.angle_dev, axis=1)
        act_mag = np.linalg.norm(result.action.angle_dev, axis=1)
        assert np.max(np.abs(lat_mag - act_mag)) < 2e-9
        assert result.wilcoxon_p == wilcoxon(lat_mag, act_mag).pvalue
        assert result.wilcoxon_p < 1e-3

    def test_no_noise_p_value_is_one(self):
        env = FlexExtArm(n_flexors=1, n_extensors=1, seed=2)
        result = matched_dual_sim(env, LinearArmPolicy(), 0.0, 200,
                                  np.random.default_rng(3))
        assert result.wilcoxon_p == 1.0

    def test_redundancy_amplifies_ratio(self):
        # with n muscles per group the broadcast latent deviation keeps its
        # full effect while independent action noise averages down by 1/n,
        # so the variance ratio grows to 2n (6 for the 3+3 arm)
        env = FlexExtArm(n_flexors=3, n_extensors=3, seed=4)
        policy = LinearArmPolicy(n_extensors=3, n_flexors=3)
        result = matched_dual_sim(env, policy, 0.05, 10_000,
                                  np.random.default_rng(5))
        assert result.accel_variance_ratio == pytest.approx(6.0, rel=0.15)

    def test_mlp_adapter_latent_and_action(self):
        policy, cfg = lattice_policy(seed=6)
        adapter = policy
        obs = np.array([[0.3, -0.1], [-0.2, 0.4], [0.0, 0.05]])
        x, mean = policy.forward(obs)
        lat = adapter.latent(obs)
        np.testing.assert_array_equal(lat, x)
        np.testing.assert_allclose(adapter.action_from_latent(lat), mean,
                                   atol=1e-12)


class TestSignedRankP:
    """analysis._signed_rank_p against scipy's signed-rank test on both
    sides of scipy's switch to the normal approximation above 50 pairs."""

    @staticmethod
    def pairs(n, kind, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        y = rng.standard_normal(n) + 0.2
        if kind in ("ties", "both"):
            # one decimal: |x - y| repeats, across signs too
            x, y = np.round(x, 1), np.round(y, 1)
        if kind in ("zeros", "both"):
            zero = rng.choice(n, size=max(1, n // 10), replace=False)
            y[zero] = x[zero]
        return x, y

    @pytest.mark.parametrize("n", [2, 13, 14, 50, 51, 400, 4000])
    @pytest.mark.parametrize("kind", ["continuous", "ties", "zeros",
                                      "both"])
    def test_bit_equal_to_scipy(self, n, kind):
        # one draw up to 50 pairs, where the value is scipy's own call and
        # a 13-pair permutation test takes over a second
        for seed in range(3 if n > 50 else 1):
            x, y = self.pairs(n, kind, seed)
            assert analysis._signed_rank_p(x, y) == wilcoxon(x, y).pvalue

    def test_zeros_count_toward_the_switch(self):
        # 51 pairs, 3 of them equal: the normal approximation over the 48
        # that differ, as scipy counts the zeros in its 50-pair switch
        x, y = self.pairs(51, "continuous", 0)
        y[[4, 17, 30]] = x[[4, 17, 30]]
        assert analysis._signed_rank_p(x, y) == wilcoxon(x, y).pvalue
        assert wilcoxon(x, y, method="asymptotic").pvalue \
            == wilcoxon(x, y).pvalue

    @pytest.mark.parametrize("n", [2, 51])
    def test_no_pair_differs_is_one(self, n):
        x = np.linspace(0.0, 1.0, n)
        assert analysis._signed_rank_p(x, x.copy()) == 1.0

    @pytest.mark.parametrize("n", [2, 51])
    def test_nan_difference_is_nan(self, n):
        x, y = self.pairs(n, "continuous", 0)
        y[1] = np.nan
        assert np.isnan(analysis._signed_rank_p(x, y))
        assert np.isnan(wilcoxon(x, y).pvalue)


class TestCovarianceReport:
    def test_known_latent_covariance(self):
        # deterministic linear map of Gaussian latents: Cov(a) = W C W^T
        rng = np.random.default_rng(7)
        n_x, n_a, n = 3, 4, 200_000
        W = rng.standard_normal((n_a, n_x))
        c_factor = rng.standard_normal((n_x, n_x))
        cov_x = c_factor @ c_factor.T + 0.2 * np.eye(n_x)
        x = rng.multivariate_normal(np.zeros(n_x), cov_x, size=n)
        report = covariance_report(x @ W.T)
        expected = W @ cov_x @ W.T
        err = np.linalg.norm(report.empirical_cov - expected) \
            / np.linalg.norm(expected)
        assert err < 0.02

    def test_constant_actions_flagged(self):
        report = covariance_report(np.full((50, 3), 0.5))
        assert not report.pca_defined
        np.testing.assert_array_equal(report.empirical_cov, 0.0)

    def test_one_dimensional_explained_variance(self):
        rng = np.random.default_rng(8)
        report = covariance_report(rng.standard_normal((100, 1)))
        np.testing.assert_allclose(report.explained_variance, [1.0])

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            covariance_report(np.zeros((19, 2)))

    def test_correlation_properties(self):
        rng = np.random.default_rng(9)
        report = covariance_report(rng.standard_normal((500, 4)))
        np.testing.assert_allclose(np.diag(report.correlation), 1.0,
                                   atol=1e-10)
        assert np.all(report.correlation <= 1.0 + 1e-12)
        assert np.all(report.correlation >= -1.0 - 1e-12)

    def test_eigenvalue_trace_identity(self):
        rng = np.random.default_rng(10)
        report = covariance_report(rng.standard_normal((300, 5)))
        assert report.eigenvalues.sum() == pytest.approx(
            np.trace(report.empirical_cov), rel=1e-8)
        assert np.all(np.diff(report.eigenvalues) <= 1e-12)
        assert np.all(report.eigenvalues >= -1e-10)

    def test_noise_structure_correlates_with_analytic(self):
        # empirical exploration-noise covariance off-diagonals follow the
        # analytic latent-noise covariance on the same states
        policy, cfg = lattice_policy(seed=13)
        rng = np.random.default_rng(14)
        states = rng.standard_normal((20, 2))
        draws = []
        for s in states:
            x, mean = policy.forward(s[None])
            for _ in range(400):
                p = resample_perturbations(policy.noise_std, cfg, 4, rng)
                noise = p.P_a @ x[0] + cfg.alpha * (
                    policy.W @ (p.P_x @ x[0]))
                draws.append(noise)
        draws = np.asarray(draws)
        emp = draws.T @ draws / len(draws)
        expected = analytic_latent_noise_cov(policy, states, cfg)
        off = ~np.eye(4, dtype=bool)
        r = np.corrcoef(emp[off], expected[off])[0, 1]
        assert r > 0.5

    def test_analytic_noise_cov_oracle(self):
        policy, cfg = lattice_policy(seed=15)
        rng = np.random.default_rng(16)
        states = rng.standard_normal((8, 2))
        got = analytic_latent_noise_cov(policy, states, cfg)
        # brute force: average the per-state closed form
        from oracles import distribution_std
        s_x, _ = distribution_std(policy.noise_std, cfg, 4)
        acc = np.zeros((4, 4))
        for s in states:
            x, _ = policy.forward(s[None])
            diag = np.diag((s_x * s_x) @ (x[0] * x[0]))
            acc += (cfg.alpha ** 2) * policy.W @ diag @ policy.W.T
        np.testing.assert_allclose(got, acc / len(states), atol=1e-10)

    @pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
    def test_analytic_noise_cov_matches_expanded_formula(self, full):
        cfg = LatticeConfig(alpha=0.6, full_std=full)
        policy, _ = lattice_policy(seed=17, hiddens=(6, 7), cfg=cfg)
        rng = np.random.default_rng(18)
        log_std_x = policy.params["log_std_x"]
        log_std_x += rng.normal(0.0, 0.5, log_std_x.shape)
        # past std_max and below std_min after the width rescaling
        log_std_x[0, :2] = [5.0, -9.0]
        states = rng.standard_normal((9, 2))
        got = analytic_latent_noise_cov(policy, states, cfg)
        # the formula over the expanded (N_x, N_x) clipped stds
        from oracles import distribution_std
        x, _ = policy.forward(states)
        s_x, _ = distribution_std(policy.noise_std, cfg, 4)
        c_x = (x * x) @ (s_x * s_x).T
        w = policy.W
        ref = cfg.alpha ** 2 * np.einsum("ak,bk,mk->am", w, c_x, w) / 9
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_analytic_noise_cov_zero_latent_gamma_zero(self):
        # a zero latent makes the action covariance singular at gamma = 0;
        # the latent part is still defined and is zero
        cfg = LatticeConfig(alpha=1.0, gamma=0.0)
        policy, _ = lattice_policy(seed=19, cfg=cfg)
        for name, v in policy.params.items():
            if name.startswith("pi.") and name != policy.net.head_w_name:
                v[...] = 0.0
        got = analytic_latent_noise_cov(policy, np.ones((3, 2)), cfg)
        np.testing.assert_array_equal(got, 0.0)

    def test_analytic_noise_cov_reads_alpha_from_cfg(self):
        # alpha is the given cfg's, not the one the policy was built with
        policy, cfg = lattice_policy(seed=20)
        states = np.random.default_rng(21).standard_normal((6, 2))
        ref = analytic_latent_noise_cov(policy, states, cfg)
        got = analytic_latent_noise_cov(policy, states,
                                        LatticeConfig(alpha=0.3))
        np.testing.assert_allclose(got, 0.09 * ref, rtol=1e-12, atol=0.0)


class TestNoiseAllocation:
    def test_single_group(self):
        policy, cfg = lattice_policy(seed=17)
        states = np.random.default_rng(18).standard_normal((5, 2))
        out = noise_allocation(policy, states, {"all": [0, 1, 2, 3]}, cfg)
        assert out["all"] == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_split(self):
        # two actuators with identical rows of W share the noise equally
        cfg = LatticeConfig(alpha=1.0)
        policy = MlpPolicy(2, 2, cfg, strategy="lattice", hiddens=(4,),
                           rng=np.random.default_rng(19))
        W = policy.params[policy.net.head_w_name]
        W[1] = W[0]
        states = np.random.default_rng(20).standard_normal((10, 2))
        out = noise_allocation(policy, states, {"a": [0], "b": [1]}, cfg)
        assert out["a"] == pytest.approx(0.5, abs=1e-6)
        assert out["b"] == pytest.approx(0.5, abs=1e-6)

    def test_matches_covariance_diagonal(self):
        policy, cfg = lattice_policy(seed=21)
        states = np.random.default_rng(22).standard_normal((12, 2))
        groups = {"left": [0, 1], "right": [2, 3]}
        out = noise_allocation(policy, states, groups, cfg)
        it = dist_internals(policy, states, cfg)
        idx = np.arange(4)
        per_std = np.sqrt(it.cov[:, idx, idx].mean(axis=0))
        for name, members in groups.items():
            expected = per_std[members].sum() / per_std.sum()
            assert out[name] == pytest.approx(expected, abs=1e-12)
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_strategy(self):
        cfg = LatticeConfig()
        policy = MlpPolicy(2, 3, cfg, strategy="diagonal", hiddens=(4,),
                           rng=np.random.default_rng(23))
        policy.params["log_sigma"][...] = np.log([1.0, 2.0, 1.0])
        states = np.zeros((3, 2))
        out = noise_allocation(policy, states,
                               {"a": [0], "b": [1], "c": [2]}, cfg)
        assert out["b"] == pytest.approx(0.5)

    def test_group_errors(self):
        policy, cfg = lattice_policy(seed=24)
        states = np.zeros((2, 2))
        with pytest.raises(EmptyGroup):
            noise_allocation(policy, states, {"a": [0, 1]}, cfg)
        with pytest.raises(EmptyGroup):
            noise_allocation(policy, states,
                             {"a": [0, 1, 2, 3], "b": []}, cfg)


class TestPcaExplainedVariance:
    def test_rank_one(self):
        rng = np.random.default_rng(25)
        direction = np.array([1.0, 2.0, -1.0])
        actions = rng.standard_normal((200, 1)) * direction
        assert pca_explained_variance(actions, 0.9) == 1

    def test_isotropic_needs_all_components(self):
        rng = np.random.default_rng(26)
        actions = rng.standard_normal((10_000, 5))
        assert pca_explained_variance(actions, 0.99) == 5

    def test_zero_threshold_convention(self):
        rng = np.random.default_rng(27)
        assert pca_explained_variance(rng.standard_normal((50, 3)), 0.0) == 1

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples):
            pca_explained_variance(np.zeros((3, 3)), 0.9)

    @pytest.mark.parametrize("threshold", [float("nan"), None, "0.9"])
    def test_threshold_not_a_number_raises(self, threshold):
        # NaN compared False everywhere and counted N_a + 1 components
        actions = np.random.default_rng(29).standard_normal((200, 4))
        with pytest.raises(ValueError, match="threshold"):
            pca_explained_variance(actions, threshold)

    def test_threshold_above_one_clamps(self):
        actions = np.random.default_rng(30).standard_normal((200, 4))
        assert pca_explained_variance(actions, float("inf")) == 4
        assert pca_explained_variance(actions, 2.0) == 4

    def test_exact_boundary(self):
        # two components at 75% / 25%: threshold 0.75 is reached by one
        rng = np.random.default_rng(28)
        a = np.stack([np.sqrt(3.0) * rng.standard_normal(100_000),
                      rng.standard_normal(100_000)], axis=1)
        assert pca_explained_variance(a, 0.74) == 1
        assert pca_explained_variance(a, 0.80) == 2
