"""The full-covariance Gaussian oracle: factorization, density, sampling,
entropy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticerl.errors import DimensionMismatch, NotPositiveDefinite
from latticerl.policy import LOG_2PI

from oracles import FullCovGaussian, cholesky


def random_spd(rng, n, jitter=1.0):
    a = rng.standard_normal((n, n))
    return a @ a.T + jitter * np.eye(n)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_diagonal_square_roots(self):
        got = cholesky(np.array([[4.0, 0.0], [0.0, 9.0]]))
        np.testing.assert_allclose(got, np.array([[2.0, 0.0], [0.0, 3.0]]))

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        cov = random_spd(rng, 5)
        L = cholesky(cov)
        err = np.linalg.norm(L @ L.T - cov) / np.linalg.norm(cov)
        assert err < 1e-8
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.5], [0.2, 1.0]])
        with pytest.raises(DimensionMismatch):
            cholesky(bad)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            cholesky(np.ones((2, 3)))


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        g = FullCovGaussian(np.zeros(1), np.eye(1))
        assert g.log_density(np.zeros(1)) == pytest.approx(-0.5 * LOG_2PI)

    def test_diagonal_factorizes(self):
        rng = np.random.default_rng(1)
        var = np.array([0.5, 2.0, 1.3])
        mean = rng.standard_normal(3)
        a = rng.standard_normal(3)
        g = FullCovGaussian(mean, np.diag(var))
        expected = sum(
            -0.5 * LOG_2PI - 0.5 * np.log(v) - 0.5 * (m - x) ** 2 / v
            for v, m, x in zip(var, mean, a))
        assert g.log_density(a) == pytest.approx(expected, abs=1e-12)

    def test_direct_inverse_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 6))
            cov = random_spd(rng, n, jitter=0.5)
            mean = rng.standard_normal(n)
            a = rng.standard_normal(n)
            g = FullCovGaussian(mean, cov)
            d = mean - a
            sign, log_det = np.linalg.slogdet(cov)
            assert sign > 0
            oracle = (-0.5 * n * LOG_2PI - 0.5 * log_det
                      - 0.5 * d @ np.linalg.inv(cov) @ d)
            assert g.log_density(a) == pytest.approx(oracle, abs=1e-8)

    def test_quadrature_normalizes_1d(self):
        g = FullCovGaussian(np.array([0.3]), np.array([[0.7]]))
        xs = np.linspace(0.3 - 8 * np.sqrt(0.7), 0.3 + 8 * np.sqrt(0.7), 4001)
        dens = np.array([np.exp(g.log_density(np.array([x]))) for x in xs])
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-4)

    def test_quadrature_normalizes_2d(self):
        cov = np.array([[1.0, 0.4], [0.4, 0.8]])
        mean = np.array([-0.2, 0.5])
        g = FullCovGaussian(mean, cov)
        sig = np.sqrt(np.diag(cov))
        xs = np.linspace(mean[0] - 8 * sig[0], mean[0] + 8 * sig[0], 301)
        ys = np.linspace(mean[1] - 8 * sig[1], mean[1] + 8 * sig[1], 301)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
        d = pts - mean
        inv = np.linalg.inv(cov)
        quad = np.einsum("bi,ij,bj->b", d, inv, d)
        # vectorized density cross-checked against log_density on a few points
        log_det = np.linalg.slogdet(cov)[1]
        dens = np.exp(-LOG_2PI - 0.5 * log_det - 0.5 * quad)
        for k in (0, 1234, 4567):
            assert dens[k] == pytest.approx(
                np.exp(g.log_density(pts[k])), rel=1e-10)
        total = np.trapezoid(np.trapezoid(dens.reshape(len(xs), len(ys)), ys), xs)
        assert total == pytest.approx(1.0, abs=1e-4)

    def test_dimension_mismatch(self):
        g = FullCovGaussian(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            g.log_density(np.zeros(3))


class TestSample:
    def test_determinism(self):
        g = FullCovGaussian(np.zeros(3), random_spd(np.random.default_rng(3), 3))
        a = g.sample(np.random.default_rng(42))
        b = g.sample(np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_mean_clt_bound(self):
        rng = np.random.default_rng(4)
        g = FullCovGaussian(np.array([1.0, -2.0]), np.diag([0.3, 0.9]))
        n = 10_000
        draws = g.sample(rng, size=n)
        sigma = np.sqrt(np.diag(g.cov))
        assert np.all(np.abs(draws.mean(axis=0) - g.mean)
                      < 4.0 * sigma / np.sqrt(n))

    def test_covariance_monte_carlo(self):
        rng = np.random.default_rng(5)
        g = FullCovGaussian(np.zeros(3), random_spd(rng, 3))
        draws = g.sample(rng, size=1_000_000)
        emp = np.cov(draws.T)
        err = np.linalg.norm(emp - g.cov) / np.linalg.norm(g.cov)
        assert err < 0.02

    def test_density_entropy_consistency(self):
        rng = np.random.default_rng(6)
        g = FullCovGaussian(rng.standard_normal(3), random_spd(rng, 3))
        draws = g.sample(rng, size=100_000)
        d = draws - g.mean
        inv = np.linalg.inv(g.cov)
        log_det = 2.0 * np.sum(np.log(np.diag(g.chol)))
        logps = (-0.5 * 3 * LOG_2PI - 0.5 * log_det
                 - 0.5 * np.einsum("bi,ij,bj->b", d, inv, d))
        assert logps[0] == pytest.approx(g.log_density(draws[0]), abs=1e-10)
        assert -logps.mean() == pytest.approx(g.entropy(), rel=0.01)


class TestEntropy:
    def test_unit_1d(self):
        g = FullCovGaussian(np.zeros(1), np.eye(1))
        assert g.entropy() == pytest.approx(0.5 * (LOG_2PI + 1.0))

    def test_diagonal_sums(self):
        var = np.array([0.2, 3.0])
        g = FullCovGaussian(np.zeros(2), np.diag(var))
        expected = sum(0.5 * (LOG_2PI + 1.0 + np.log(v)) for v in var)
        assert g.entropy() == pytest.approx(expected)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=1, max_value=5))
def test_log_density_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    cov = random_spd(rng, n, jitter=0.3)
    mean = rng.standard_normal(n)
    a = rng.standard_normal(n)
    g = FullCovGaussian(mean, cov)
    d = mean - a
    oracle = (-0.5 * n * LOG_2PI - 0.5 * np.linalg.slogdet(cov)[1]
              - 0.5 * d @ np.linalg.inv(cov) @ d)
    assert g.log_density(a) == pytest.approx(oracle, abs=1e-8)
