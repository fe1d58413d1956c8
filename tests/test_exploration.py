"""Exploration strategies: config validation, rescaling, clipping,
perturbation sampling, and the analytic action distribution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticerl.errors import DimensionMismatch, NotPositiveDefinite
from latticerl.exploration import (
    LatticeConfig,
    NoiseStdMatrices,
    PerturbationMatrices,
    action_distribution,
    clip_std,
    distribution_std,
    independent_action_noise,
    lattice_covariance,
    perturbed_action,
    resample_perturbations,
    rescaled_log_std,
    sampling_std,
)
from latticerl.gauss import min_eigenvalue


def make_std(rng, n_actions, n_latent, scale=0.3, full=True):
    shape_x = (n_latent, n_latent) if full else (1, n_latent)
    shape_a = (n_actions, n_latent) if full else (1, n_latent)
    return NoiseStdMatrices(log_std_x=rng.normal(0.0, scale, shape_x),
                            log_std_a=rng.normal(0.0, scale, shape_a))


class TestLatticeConfig:
    def test_defaults(self):
        cfg = LatticeConfig()
        assert cfg.alpha == 1.0
        assert cfg.std_min == 0.001
        assert cfg.std_max == 10.0
        assert cfg.gamma == 0.001
        assert cfg.period_steps == 1

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -0.1}, {"alpha": 1.5}, {"period": 0}, {"period": "weekly"},
        {"std_min": 0.0}, {"std_min": 2.0, "std_max": 1.0}, {"gamma": -1.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LatticeConfig(**kwargs)

    def test_episode_period(self):
        cfg = LatticeConfig(period="episode")
        assert cfg.period_steps is None


class TestRescaledLogStd:
    def test_width_one_is_identity(self):
        std = NoiseStdMatrices(log_std_x=np.zeros((1, 1)),
                               log_std_a=np.zeros((2, 1)))
        out = rescaled_log_std(std, 1)
        np.testing.assert_array_equal(out.log_std_x, 0.0)
        np.testing.assert_array_equal(out.log_std_a, 0.0)

    def test_width_four_shift(self):
        std = NoiseStdMatrices(log_std_x=np.zeros((4, 4)),
                               log_std_a=np.zeros((2, 4)))
        out = rescaled_log_std(std, 4)
        np.testing.assert_allclose(out.log_std_x, -0.5 * np.log(4.0))
        np.testing.assert_allclose(out.log_std_a, -0.5 * np.log(4.0))

    def test_variance_invariant_to_width(self):
        # per-component latent noise variance should not grow with N_x
        rng = np.random.default_rng(0)
        cfg = LatticeConfig(rescale=True)
        variances = []
        for n_x in (64, 128):
            std = NoiseStdMatrices(log_std_x=np.zeros((n_x, n_x)),
                                   log_std_a=np.zeros((1, n_x)))
            s_x, _ = sampling_std(std, cfg, 1)
            n = 100_000
            x = rng.standard_normal((n, n_x))
            z = rng.standard_normal((n, n_x)) * s_x[0]
            eps = np.sum(z * x, axis=1)  # one component of P_x x per draw
            variances.append(eps.var())
        assert variances[1] == pytest.approx(variances[0], rel=0.05)

    def test_rejects_bad_width(self):
        std = NoiseStdMatrices(log_std_x=np.zeros((1, 1)),
                               log_std_a=np.zeros((1, 1)))
        with pytest.raises(ValueError):
            rescaled_log_std(std, 0)


class TestClipStd:
    def test_lower_clamp(self):
        assert clip_std(np.array([0.0005]), 0.001, 10.0)[0] == 0.001

    def test_interior(self):
        assert clip_std(np.array([3.2]), 0.001, 10.0)[0] == 3.2

    def test_upper_clamp(self):
        assert clip_std(np.array([50.0]), 0.001, 10.0)[0] == 10.0

    def test_sampling_path_ignores_clip(self):
        # the distribution clamps stds but drawn perturbations do not
        cfg = LatticeConfig(std_max=2.0, rescale=False)
        std = NoiseStdMatrices(log_std_x=np.full((1, 1), np.log(5.0)),
                               log_std_a=np.full((1, 1), np.log(5.0)))
        s_x_raw, s_a_raw = sampling_std(std, cfg, 1)
        s_x_dist, s_a_dist = distribution_std(std, cfg, 1)
        assert s_x_raw[0, 0] == pytest.approx(5.0)
        assert s_x_dist[0, 0] == 2.0
        rng = np.random.default_rng(1)
        draws = np.array([resample_perturbations(std, cfg, 1, rng).P_x[0, 0]
                          for _ in range(20_000)])
        assert draws.std() == pytest.approx(5.0, rel=0.03)


class TestResamplePerturbations:
    def test_zero_std_gives_zero(self):
        std = NoiseStdMatrices(log_std_x=np.full((3, 3), -np.inf),
                               log_std_a=np.full((2, 3), -np.inf))
        p = resample_perturbations(std, LatticeConfig(), 2,
                                   np.random.default_rng(0))
        np.testing.assert_array_equal(p.P_x, 0.0)
        np.testing.assert_array_equal(p.P_a, 0.0)

    def test_entry_std_monte_carlo(self):
        cfg = LatticeConfig(rescale=False)
        std = NoiseStdMatrices(log_std_x=np.full((1, 1), np.log(2.0)),
                               log_std_a=np.full((1, 1), np.log(2.0)))
        rng = np.random.default_rng(2)
        draws = np.array([resample_perturbations(std, cfg, 1, rng).P_x[0, 0]
                          for _ in range(100_000)])
        assert 1.98 <= draws.std() <= 2.02

    def test_determinism(self):
        std = make_std(np.random.default_rng(3), 2, 4)
        cfg = LatticeConfig()
        a = resample_perturbations(std, cfg, 2, np.random.default_rng(7))
        b = resample_perturbations(std, cfg, 2, np.random.default_rng(7))
        np.testing.assert_array_equal(a.P_x, b.P_x)
        np.testing.assert_array_equal(a.P_a, b.P_a)

    @pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
    def test_bytes_match_expanded_std_scaling(self, full):
        std = make_std(np.random.default_rng(5), 3, 6, full=full)
        cfg = LatticeConfig()
        p = resample_perturbations(std, cfg, 3, np.random.default_rng(9))
        s_x, s_a = sampling_std(std, cfg, 3)
        rng = np.random.default_rng(9)
        ref_x = rng.standard_normal(s_x.shape) * s_x
        ref_a = rng.standard_normal(s_a.shape) * s_a
        assert p.P_x.tobytes() == ref_x.tobytes()
        assert p.P_a.tobytes() == ref_a.tobytes()

    def test_shapes(self):
        std = make_std(np.random.default_rng(4), 3, 5, full=False)
        p = resample_perturbations(std, LatticeConfig(), 3,
                                   np.random.default_rng(0))
        assert p.P_x.shape == (5, 5)
        assert p.P_a.shape == (3, 5)


class TestPerturbedAction:
    def test_zero_perturbation_reduces_to_mean(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        p = PerturbationMatrices(P_x=np.zeros((4, 4)), P_a=np.zeros((2, 4)))
        np.testing.assert_allclose(perturbed_action(x, W, p, 1.0), W @ x)

    def test_alpha_zero_drops_latent_term(self):
        rng = np.random.default_rng(6)
        W = rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        p = PerturbationMatrices(P_x=rng.standard_normal((4, 4)),
                                 P_a=rng.standard_normal((2, 4)))
        np.testing.assert_allclose(perturbed_action(x, W, p, 0.0),
                                   (W + p.P_a) @ x)

    def test_constant_within_window(self):
        rng = np.random.default_rng(7)
        W = rng.standard_normal((3, 5))
        x = rng.standard_normal(5)
        p = PerturbationMatrices(P_x=rng.standard_normal((5, 5)),
                                 P_a=rng.standard_normal((3, 5)))
        np.testing.assert_array_equal(perturbed_action(x, W, p, 0.8),
                                      perturbed_action(x, W, p, 0.8))

    def test_shape_errors(self):
        W = np.zeros((2, 4))
        p = PerturbationMatrices(P_x=np.zeros((4, 4)), P_a=np.zeros((2, 4)))
        with pytest.raises(DimensionMismatch):
            perturbed_action(np.zeros(3), W, p, 1.0)
        bad = PerturbationMatrices(P_x=np.zeros((3, 3)), P_a=np.zeros((2, 4)))
        with pytest.raises(DimensionMismatch):
            perturbed_action(np.zeros(4), W, bad, 1.0)


class TestActionDistribution:
    def test_null_latent_regularized(self):
        rng = np.random.default_rng(8)
        W = rng.standard_normal((3, 4))
        std = make_std(rng, 3, 4)
        dist = action_distribution(np.zeros(4), W, std, LatticeConfig())
        np.testing.assert_array_equal(dist.mean, 0.0)
        np.testing.assert_allclose(dist.cov, 0.001 * np.eye(3))

    def test_null_latent_unregularized_raises(self):
        rng = np.random.default_rng(9)
        W = rng.standard_normal((3, 4))
        std = make_std(rng, 3, 4)
        with pytest.raises(NotPositiveDefinite):
            action_distribution(np.zeros(4), W, std, LatticeConfig(gamma=0.0))

    def test_alpha_zero_diagonal(self):
        rng = np.random.default_rng(10)
        W = rng.standard_normal((3, 4))
        x = rng.standard_normal(4)
        std = make_std(rng, 3, 4)
        cfg = LatticeConfig(alpha=0.0, gamma=0.0)
        cov = action_distribution(x, W, std, cfg).cov
        off = cov - np.diag(np.diag(cov))
        np.testing.assert_array_equal(off, 0.0)
        _, s_a = distribution_std(std, cfg, 3)
        np.testing.assert_allclose(np.diag(cov), (s_a * s_a) @ (x * x))

    def test_offdiagonal_structure(self):
        # off-diagonals come from the latent term only
        rng = np.random.default_rng(11)
        W = rng.standard_normal((4, 5))
        x = rng.standard_normal(5)
        std = make_std(rng, 4, 5)
        cfg = LatticeConfig(alpha=0.7)
        cov = action_distribution(x, W, std, cfg).cov
        s_x, _ = distribution_std(std, cfg, 4)
        latent_term = (cfg.alpha ** 2) * (
            W @ np.diag((s_x * s_x) @ (x * x)) @ W.T)
        off = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(cov[off], latent_term[off], atol=1e-12)

    def test_sampling_path_cross_check(self):
        rng = np.random.default_rng(12)
        W = rng.standard_normal((3, 5))
        x = rng.standard_normal(5)
        std = make_std(rng, 3, 5)
        cfg = LatticeConfig(alpha=1.0, gamma=0.0)
        dist = action_distribution(x, W, std, cfg)
        n = 200_000
        draws = np.empty((n, 3))
        for i in range(n):
            p = resample_perturbations(std, cfg, 3, rng)
            draws[i] = perturbed_action(x, W, p, cfg.alpha)
        np.testing.assert_allclose(draws.mean(axis=0), dist.mean,
                                   atol=4.0 * np.sqrt(dist.cov.max() / n) * 3)
        emp = np.cov(draws.T)
        err = np.linalg.norm(emp - dist.cov) / np.linalg.norm(dist.cov)
        assert err < 0.02

    def test_density_entropy_consistency(self):
        # mean log-density of sampling-path draws matches negated entropy
        rng = np.random.default_rng(13)
        W = rng.standard_normal((2, 4))
        x = rng.standard_normal(4)
        std = make_std(rng, 2, 4)
        cfg = LatticeConfig(alpha=1.0)
        dist = action_distribution(x, W, std, cfg)
        n = 100_000
        s_x, s_a = sampling_std(std, cfg, 2)
        z_x = rng.standard_normal((n, 4, 4))
        z_a = rng.standard_normal((n, 2, 4))
        draws = (dist.mean
                 + np.einsum("bak,k->ba", z_a * s_a, x)
                 + cfg.alpha * np.einsum("ak,bkj,j->ba", W, z_x * s_x, x))
        # the vectorized draw equals the scalar sampling path entry for entry
        p = PerturbationMatrices(P_x=z_x[0] * s_x, P_a=z_a[0] * s_a)
        np.testing.assert_allclose(draws[0], perturbed_action(x, W, p,
                                                              cfg.alpha),
                                   atol=1e-12)
        d = draws - dist.mean
        inv = np.linalg.inv(dist.cov)
        log_det = 2.0 * np.sum(np.log(np.diag(dist.chol)))
        logps = (-0.5 * 2 * np.log(2 * np.pi) - 0.5 * log_det
                 - 0.5 * np.einsum("bi,ij,bj->b", d, inv, d))
        # gamma makes the analytic entropy slightly exceed the sampling
        # entropy, so the match is approximate at the 1% level
        assert -logps.mean() == pytest.approx(dist.entropy(), rel=0.01)


class TestIndependentActionNoise:
    def test_zero_sigma(self):
        mean = np.array([0.2, 0.9])
        out = independent_action_noise(mean, np.zeros(2),
                                       np.random.default_rng(0))
        np.testing.assert_array_equal(out, mean)

    def test_monte_carlo_stds(self):
        rng = np.random.default_rng(14)
        sigma = np.array([1.0, 2.0])
        draws = np.array([independent_action_noise(np.zeros(2), sigma, rng)
                          for _ in range(100_000)])
        np.testing.assert_allclose(draws.std(axis=0), sigma, rtol=0.02)

    def test_cross_component_independence(self):
        rng = np.random.default_rng(15)
        draws = np.array([
            independent_action_noise(np.array([0.5, 0.5]),
                                     np.array([0.1, 0.1]), rng)
            for _ in range(100_000)])
        corr = np.corrcoef(draws.T)[0, 1]
        assert abs(corr) < 0.02

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            independent_action_noise(np.zeros(1), np.array([-1.0]),
                                     np.random.default_rng(0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([0.0, 0.3, 1.0]),
       st.booleans())
def test_covariance_psd_property(seed, alpha, zero_latent):
    rng = np.random.default_rng(seed)
    n_a = int(rng.integers(1, 5))
    n_x = int(rng.integers(1, 6))
    W = rng.standard_normal((n_a, n_x))
    x = np.zeros(n_x) if zero_latent else rng.standard_normal(n_x)
    std = make_std(rng, n_a, n_x)
    cfg = LatticeConfig(alpha=alpha, gamma=0.001)
    s_x, s_a = distribution_std(std, cfg, n_a)
    cov = lattice_covariance(x, W, s_a, s_x, cfg.alpha, cfg.gamma)
    assert min_eigenvalue(cov) >= cfg.gamma - 1e-9
