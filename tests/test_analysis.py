"""Diagnostics: paired perturbation simulations, covariance structure,
noise allocation, and PCA dimensionality."""

import numpy as np
import pytest

from latticerl import analysis
from latticerl.analysis import (
    LinearArmPolicy,
    MlpPolicyAdapter,
    analytic_latent_noise_cov,
    covariance_report,
    dual_sim_experiment,
    matched_dual_sim,
    noise_allocation,
    pca_explained_variance,
)
from latticerl.envs import FlexExtArm
from latticerl.errors import (
    EmptyGroup,
    InsufficientSamples,
    StateSyncUnsupported,
)
from latticerl.exploration import LatticeConfig, resample_perturbations
from latticerl.policy import MlpPolicy, dist_internals


def lattice_policy(seed=0, obs_dim=2, action_dim=4, hiddens=(6, 5),
                   cfg=None):
    cfg = cfg or LatticeConfig(alpha=1.0)
    rng = np.random.default_rng(seed)
    return MlpPolicy(obs_dim, action_dim, cfg, strategy="lattice",
                     hiddens=hiddens, rng=rng), cfg


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

    def test_matched_ratio_is_two(self):
        env = FlexExtArm(n_flexors=1, n_extensors=1, seed=2)
        result = matched_dual_sim(env, LinearArmPolicy(), 0.05, 20_000,
                                  np.random.default_rng(3))
        assert result.accel_variance_ratio == pytest.approx(2.0, rel=0.1)
        np.testing.assert_allclose(result.sigma_match, 0.05, rtol=0.05)
        # latent and action deviations are distinguishable at 1% significance
        assert result.wilcoxon_p < 0.01
        assert result.angle_variance_ratio > 1.0

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
        adapter = MlpPolicyAdapter(policy)
        obs = np.array([0.3, -0.1])
        lat = adapter.latent(obs)
        np.testing.assert_array_equal(lat, policy.forward(obs[None])[0][0])
        np.testing.assert_allclose(adapter.action_from_latent(lat),
                                   policy.forward(obs[None])[1][0],
                                   atol=1e-12)


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

    def test_analytic_noise_cov_attached_for_lattice(self):
        policy, cfg = lattice_policy(seed=11)
        rng = np.random.default_rng(12)
        states = rng.standard_normal((60, 2))
        actions = rng.standard_normal((60, 4))
        report = covariance_report(actions, policy, states, cfg)
        expected = analytic_latent_noise_cov(policy, states, cfg)
        np.testing.assert_allclose(report.analytic_noise_cov, expected)

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
        from latticerl.exploration import distribution_std
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
        from latticerl.exploration import distribution_std
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

    def test_exact_boundary(self):
        # two components at 75% / 25%: threshold 0.75 is reached by one
        rng = np.random.default_rng(28)
        a = np.stack([np.sqrt(3.0) * rng.standard_normal(100_000),
                      rng.standard_normal(100_000)], axis=1)
        assert pca_explained_variance(a, 0.74) == 1
        assert pca_explained_variance(a, 0.80) == 2
