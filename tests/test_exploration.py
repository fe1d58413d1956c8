"""Exploration strategies: config validation, rescaling, clipping,
perturbation sampling, the window sampler, and the analytic action
distribution."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticerl import exploration
from latticerl.errors import DimensionMismatch, NotPositiveDefinite
from latticerl.exploration import (
    LatticeConfig,
    NoiseSampler,
    PerturbationMatrices,
    episode_normals,
    resample_perturbations,
)
from latticerl.policy import MlpPolicy, dist_params

from conftest import own_layout, rng_states
from oracles import (
    LogStds,
    action_distribution,
    distribution_std,
    independent_action_noise,
    lattice_covariance,
    perturbation_stds,
    perturbed_action,
    sampling_log_std,
    sampling_std,
)


def make_std(rng, n_actions, n_latent, scale=0.3, full=True):
    shape_x = (n_latent, n_latent) if full else (1, n_latent)
    shape_a = (n_actions, n_latent) if full else (1, n_latent)
    return LogStds(log_std_x=rng.normal(0.0, scale, shape_x),
                   log_std_a=rng.normal(0.0, scale, shape_a))


def std_policy(n_latent, n_actions=2, log_std=None, **cfg_kwargs):
    """A lattice policy of latent width n_latent and its cfg, with the
    log-stds set to log_std (broadcast) when given."""
    cfg = LatticeConfig(**cfg_kwargs)
    policy = own_layout(MlpPolicy, 2, n_actions, cfg, strategy="lattice",
                        hiddens=(n_latent,), activation="relu",
                        rng=np.random.default_rng(0))
    if log_std is not None:
        for k in ("log_std_x", "log_std_a"):
            policy.params[k][...] = log_std
    return policy, cfg


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
    """dist_params draws with exp(log_std - 0.5 log N_x), or exp(log_std)
    without rescaling, in the stored shape of the log-stds."""

    @staticmethod
    def _check(width, rescale):
        for full_std in (False, True):
            policy, cfg = std_policy(width, rescale=rescale,
                                     full_std=full_std)
            rng = np.random.default_rng(1)
            for k in ("log_std_x", "log_std_a"):
                policy.params[k][...] = rng.normal(0.0, 0.5,
                                                   policy.params[k].shape)
            p = dist_params(policy, cfg)
            shift = 0.5 * np.log(width) if rescale else 0.0
            for sd, k in ((p.sd_x, "log_std_x"), (p.sd_a, "log_std_a")):
                assert sd.shape == policy.params[k].shape
                np.testing.assert_array_equal(
                    sd, np.exp(policy.params[k] - shift))

    def test_width_one_is_identity(self):
        self._check(1, rescale=True)

    def test_width_four_shift(self):
        self._check(4, rescale=True)

    def test_no_shift_without_rescale(self):
        self._check(4, rescale=False)

    @pytest.mark.parametrize("rescale", [True, False])
    @pytest.mark.parametrize("full_std", [False, True],
                             ids=["reduced", "full"])
    def test_window_variances_formed_on_first_read(self, rescale, full_std):
        # exp(2 log S) of the rescaled log-stds, byte for byte, formed only
        # when read (an update's builds never read them) and from the
        # log-stds of the build, not the parameters as they are at the read
        policy, cfg = std_policy(4, rescale=rescale, full_std=full_std)
        rng = np.random.default_rng(2)
        shift = 0.5 * np.log(4.0) if rescale else 0.0
        expected = {}
        for k in ("log_std_x", "log_std_a"):
            policy.params[k][...] = rng.normal(0.0, 0.5,
                                               policy.params[k].shape)
            expected[k] = np.exp(2.0 * (policy.params[k] - shift))
        p = dist_params(policy, cfg)
        assert "var_x" not in vars(p) and "var_a" not in vars(p)
        for k in ("log_std_x", "log_std_a"):
            policy.params[k] += 1.0
        assert p.var_x.tobytes() == expected["log_std_x"].tobytes()
        assert p.var_a.tobytes() == expected["log_std_a"].tobytes()
        assert p.var_x is p.var_x

    def test_variance_invariant_to_width(self):
        # per-component latent noise variance should not grow with N_x
        rng = np.random.default_rng(0)
        variances = []
        for n_x in (64, 128):
            policy, cfg = std_policy(n_x, log_std=0.0, rescale=True)
            s_x = dist_params(policy, cfg).sd_x
            n = 100_000
            x = rng.standard_normal((n, n_x))
            z = rng.standard_normal((n, n_x)) * s_x[0]
            eps = np.sum(z * x, axis=1)  # one component of P_x x per draw
            variances.append(eps.var())
        assert variances[1] == pytest.approx(variances[0], rel=0.05)


class TestClipStd:
    """dist_params clamps the stds into [std_min, std_max] for the
    distribution, and only a std inside passes gradient."""

    @staticmethod
    def _check(std, s2, mask):
        policy, cfg = std_policy(1, log_std=np.log(std), std_min=0.001,
                                 std_max=10.0, rescale=False)
        p = dist_params(policy, cfg)
        for got_s2, got_mask in ((p.sx2, p.mask_x), (p.sa2, p.mask_a)):
            assert got_s2.tobytes() == np.full((1, 1), s2).tobytes()
            assert got_mask.tobytes() == np.full((1, 1), mask).tobytes()

    def test_lower_clamp(self):
        self._check(0.0005, 0.001 * 0.001, 0.0)

    def test_interior(self):
        inside = np.exp(np.log(3.2))
        self._check(3.2, inside * inside, 1.0)

    def test_upper_clamp(self):
        self._check(50.0, 10.0 * 10.0, 0.0)

    def test_sampling_path_ignores_clip(self):
        # the distribution clamps stds but drawn perturbations do not
        policy, cfg = std_policy(1, n_actions=1, log_std=np.log(5.0),
                                 std_max=2.0, rescale=False)
        p = dist_params(policy, cfg)
        assert p.sd_x[0, 0] == pytest.approx(5.0)
        assert p.sx2[0, 0] == 4.0
        rng = np.random.default_rng(1)
        draws = np.array([resample_perturbations(p, 1, rng).P_x[0, 0]
                          for _ in range(20_000)])
        assert draws.std() == pytest.approx(5.0, rel=0.03)


class TestResamplePerturbations:
    def test_zero_std_gives_zero(self):
        std = LogStds(log_std_x=np.full((3, 3), -np.inf),
                      log_std_a=np.full((2, 3), -np.inf))
        p = resample_perturbations(perturbation_stds(std, LatticeConfig()), 2,
                                   np.random.default_rng(0))
        np.testing.assert_array_equal(p.P_x, 0.0)
        np.testing.assert_array_equal(p.P_a, 0.0)

    def test_entry_std_monte_carlo(self):
        cfg = LatticeConfig(rescale=False)
        std = LogStds(log_std_x=np.full((1, 1), np.log(2.0)),
                      log_std_a=np.full((1, 1), np.log(2.0)))
        rng = np.random.default_rng(2)
        sds = perturbation_stds(std, cfg)
        draws = np.array([resample_perturbations(sds, 1, rng).P_x[0, 0]
                          for _ in range(100_000)])
        assert 1.98 <= draws.std() <= 2.02

    def test_determinism(self):
        std = make_std(np.random.default_rng(3), 2, 4)
        cfg = LatticeConfig()
        sds = perturbation_stds(std, cfg)
        a = resample_perturbations(sds, 2, np.random.default_rng(7))
        b = resample_perturbations(sds, 2, np.random.default_rng(7))
        np.testing.assert_array_equal(a.P_x, b.P_x)
        np.testing.assert_array_equal(a.P_a, b.P_a)

    @pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
    def test_bytes_match_expanded_std_scaling(self, full):
        std = make_std(np.random.default_rng(5), 3, 6, full=full)
        cfg = LatticeConfig()
        p = resample_perturbations(perturbation_stds(std, cfg), 3,
                                   np.random.default_rng(9))
        s_x, s_a = sampling_std(std, cfg, 3)
        rng = np.random.default_rng(9)
        ref_x = rng.standard_normal(s_x.shape) * s_x
        ref_a = rng.standard_normal(s_a.shape) * s_a
        assert p.P_x.tobytes() == ref_x.tobytes()
        assert p.P_a.tobytes() == ref_a.tobytes()

    def test_shapes(self):
        std = make_std(np.random.default_rng(4), 3, 5, full=False)
        p = resample_perturbations(perturbation_stds(std, LatticeConfig()), 3,
                                   np.random.default_rng(0))
        assert p.P_x.shape == (5, 5)
        assert p.P_a.shape == (3, 5)


N_X, N_A = 5, 3


def window_sampler(period=4, n_envs=3, full_std=False, alpha=0.8,
                   episode_steps=100):
    """A sampler over n_envs rngs, on episodes of episode_steps, for a
    small policy whose stds differ per latent column, so that D_x and D_a
    are not multiples of I. Equal arguments give equal policies and rng
    states."""
    cfg = LatticeConfig(alpha=alpha, period=period, full_std=full_std)
    rng = np.random.default_rng(0)
    policy = own_layout(MlpPolicy, 2, N_A, cfg, strategy="lattice",
                        hiddens=(N_X,), activation="relu", rng=rng)
    for k in ("log_std_x", "log_std_a"):
        policy.params[k][...] = rng.normal(0.0, 0.5, policy.params[k].shape)
    return NoiseSampler(policy, cfg, [np.random.default_rng(100 + i)
                                      for i in range(n_envs)], episode_steps)


def window_noise(sampler, x, step):
    return sampler.sample(x, np.zeros((len(x), N_A)),
                          dist_params(sampler.policy, sampler.cfg), step)


class TestWindowSampler:
    def test_window_is_a_matrix(self):
        # a held window acts as the matrices P_x = sum_j y_j (D q_j)^T and
        # P_a, rebuilt from its state, on every latent it has met: one in
        # the span of earlier ones, a repeat, and one a relative 1e-8 off
        # a latent met before
        s = window_sampler(period=8)
        rng = np.random.default_rng(1)
        x1, x2, x4, x6 = (rng.standard_normal((3, N_X)) for _ in range(4))
        xs = [x1, x2, 0.3 * x1 - 1.7 * x2, x4, x2, x1 + 1e-8 * x6]
        eff = sampling_log_std(LogStds.of(s.policy), s.cfg)
        noise = [window_noise(s, xs[0], 0)]
        # stds that change inside the window do not reach it
        s.policy.params["log_std_x"] += 0.3
        s.policy.params["log_std_a"] -= 0.2
        noise += [window_noise(s, x, t) for t, x in enumerate(xs[1:], 1)]
        w = s.windows
        # slot t holds window step t, the repeat included
        np.testing.assert_array_equal(w.seen[:, :6], np.stack(xs, axis=1))
        assert w.p[:, 4].tobytes() == w.p[:, 1].tobytes()
        np.testing.assert_array_equal(w.n_dir, 4)
        np.testing.assert_array_equal(w.s2[0], np.exp(2.0 * eff.log_std_x)[0])
        np.testing.assert_array_equal(w.s2[1], np.exp(2.0 * eff.log_std_a)[0])
        W, alpha = s.policy.W, dist_params(s.policy, s.cfg).alpha
        for i in range(3):
            k = w.n_dir[i]
            y, q, d = w.y[i, :k], w.q[i, :, :k], w.s2
            p_x = y[:, :N_X].T @ (q[0] * d[0])
            p_a = y[:, N_X:].T @ (q[1] * d[1])
            for x, n in zip(xs, noise):
                np.testing.assert_allclose(
                    n[i], p_a @ x[i] + alpha * (W @ (p_x @ x[i])),
                    rtol=0.0, atol=1e-12)
        # a latent met before gets its noise back byte for byte
        assert noise[4].tobytes() == noise[1].tobytes()

    def test_joint_covariance_and_independent_windows(self):
        # 2e4 windows of 4 steps over 4 fixed distinct latents: the 12 x 12
        # covariance has the blocks (x_s^T D_a x_t) I
        # + alpha^2 (x_s^T D_x x_t) W W^T, with a relative Frobenius
        # standard error near 0.01
        n_envs, n_windows = 2000, 10
        s = window_sampler(period=4, n_envs=n_envs)
        xs = np.random.default_rng(2).standard_normal((4, N_X))
        noise = np.stack([window_noise(s, np.tile(x, (n_envs, 1)), t)
                          for _ in range(n_windows)
                          for t, x in enumerate(xs)])
        blocks = noise.reshape(n_windows, 4, n_envs, N_A).transpose(
            0, 2, 1, 3).reshape(-1, 4 * N_A)
        emp = blocks.T @ blocks / len(blocks)
        eff = sampling_log_std(LogStds.of(s.policy), s.cfg)
        d_x, d_a = np.exp(2.0 * eff.log_std_x[0]), np.exp(2.0 * eff.log_std_a[0])
        W, alpha = s.policy.W, dist_params(s.policy, s.cfg).alpha
        cov = np.block([[(xs[a] * d_a) @ xs[b] * np.eye(N_A)
                         + alpha ** 2 * ((xs[a] * d_x) @ xs[b]) * (W @ W.T)
                         for b in range(4)] for a in range(4)])
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05
        # the same latent opens consecutive windows: no correlation
        first = noise[::4]
        corr = [abs(np.corrcoef(first[:-1, :, k].ravel(),
                                first[1:, :, k].ravel())[0, 1])
                for k in range(N_A)]
        assert max(corr) < 0.05

    def test_window_opens_like_period_one(self):
        x = np.random.default_rng(3).standard_normal((3, N_X))
        s4, s1 = window_sampler(period=4), window_sampler(period=1)
        assert window_noise(s4, x, 0).tobytes() == \
            window_noise(s1, x, 0).tobytes()
        window_noise(s4, x, 1)
        # a step-0 sample mid-window drops the window and opens a fresh one
        s1.rngs = copy.deepcopy(s4.rngs)
        x2 = 2.0 * x + 1.0
        n4, n1 = window_noise(s4, x2, 0), window_noise(s1, x2, 0)
        assert n4.tobytes() == n1.tobytes()
        np.testing.assert_array_equal(s4.windows.seen[:, 0], x2)
        assert not s4.windows.seen[:, 1:].any()
        np.testing.assert_array_equal(s4.windows.n_dir, [1, 1, 1])

    @pytest.mark.parametrize("full_std", [False, True])
    def test_period_one_stream(self, full_std):
        # period 1 draws N_x + N_a normals per env and step and scales them
        # by sd = sqrt(x^2 S^2^T), in this operation order
        s = window_sampler(period=1, full_std=full_std)
        rngs = copy.deepcopy(s.rngs)
        x = np.random.default_rng(4).standard_normal((3, N_X))
        eff = sampling_log_std(LogStds.of(s.policy), s.cfg)
        for t in range(3):
            z = np.stack([r.standard_normal(N_X + N_A) for r in rngs])
            sd_x = np.sqrt((x * x) @ np.exp(2.0 * eff.log_std_x).T)
            sd_a = np.sqrt((x * x) @ np.exp(2.0 * eff.log_std_a).T)
            expected = sd_a * z[:, N_X:] + dist_params(
                s.policy, s.cfg).alpha * ((sd_x * z[:, :N_X]) @ s.policy.W.T)
            assert window_noise(s, x, t).tobytes() == expected.tobytes()
            assert s.windows is None

    def test_draws_only_for_new_directions(self):
        s = window_sampler(period=8, n_envs=2)
        ref = copy.deepcopy(s.rngs)

        def drawn(k):
            # the rngs have advanced by exactly k draws of N_x + N_a normals
            rngs = copy.deepcopy(ref)
            for r in rngs:
                for _ in range(k):
                    r.standard_normal(N_X + N_A)
            return rng_states(rngs) == rng_states(s.rngs)

        rng = np.random.default_rng(5)
        x1, x2, x3 = (rng.standard_normal((2, N_X)) for _ in range(3))
        n1 = window_noise(s, x1, 0)
        assert drawn(1)
        np.testing.assert_array_equal(window_noise(s, np.zeros((2, N_X)), 1),
                                      0.0)
        np.testing.assert_allclose(window_noise(s, 2.0 * x1, 2), 2.0 * n1,
                                   rtol=1e-12, atol=1e-14)
        assert drawn(1)
        window_noise(s, x2, 3)
        assert drawn(2)
        window_noise(s, x1, 4)
        window_noise(s, 0.5 * x1 + 3.0 * x2, 5)
        assert drawn(2)
        window_noise(s, x3, 6)
        assert drawn(3)
        np.testing.assert_array_equal(s.windows.n_dir, 3)

    def test_long_period_holds_episode_steps_slots(self):
        # a window never outlives its episode: past episode_steps the
        # period changes neither the slots a window holds nor its noise
        T = 40
        xs = np.random.default_rng(6).standard_normal((2, T, 2, N_X))
        long = window_sampler(period=10 ** 9, n_envs=2, episode_steps=T)
        whole = window_sampler(period=T, n_envs=2, episode_steps=T)
        for episode in xs:
            for t, x in enumerate(episode):
                assert window_noise(long, x, t).tobytes() == \
                    window_noise(whole, x, t).tobytes()
            assert long.windows.seen.shape[1] == T
            np.testing.assert_array_equal(long.windows.seen,
                                          episode.transpose(1, 0, 2))
            np.testing.assert_array_equal(long.windows.n_dir, N_X)
            assert whole.windows is None
        assert rng_states(long.rngs) == rng_states(whole.rngs)

    def test_slot_t_holds_window_step_t(self):
        # every env writes its latent and products into slot t at window
        # step t, also env 1, which meets its step-1 latent again at step 3
        s = window_sampler(period=8)
        xs = np.random.default_rng(8).standard_normal((8, 3, N_X))
        xs[3, 1] = xs[1, 1]
        alpha = dist_params(s.policy, s.cfg).alpha
        noise = []
        for t, x in enumerate(xs):
            noise.append(window_noise(s, x, t))
            if t == 0:
                w = s.windows
            np.testing.assert_array_equal(w.seen[:, t], x)
            p = w.p[:, t]
            assert noise[t].tobytes() == (np.zeros((3, N_A)) + (
                p[:, N_X:] + alpha * (p[:, :N_X] @ s.policy.W.T))).tobytes()
        assert s.windows is None
        assert noise[3][1].tobytes() == noise[1][1].tobytes()

    def test_zero_first_latent_opens_no_direction(self):
        # the opening step always draws, as at period 1; a zero latent
        # leaves the window without a direction
        s = window_sampler(period=4, n_envs=2)
        ref = copy.deepcopy(s.rngs)
        np.testing.assert_array_equal(window_noise(s, np.zeros((2, N_X)), 0),
                                      0.0)
        np.testing.assert_array_equal(s.windows.n_dir, 0)
        for r in ref:
            r.standard_normal(N_X + N_A)
        assert rng_states(ref) == rng_states(s.rngs)
        window_noise(s, np.ones((2, N_X)), 1)
        np.testing.assert_array_equal(s.windows.n_dir, 1)

    @pytest.mark.parametrize("period,full_std", [("episode", False),
                                                 (4, True)])
    def test_matrices_drawn_when_a_window_opens(self, period, full_std):
        # the matrix path draws every env's P_x and P_a from its own rng at
        # a window's first step, N_x^2 + N_a N_x normals, and nothing at
        # its later steps; a step-0 sample mid-window draws fresh ones
        s = window_sampler(period=period, full_std=full_std)
        x = np.random.default_rng(7).standard_normal((3, N_X))

        def advanced(rngs, windows):
            rngs = copy.deepcopy(rngs)
            for r in rngs:
                r.standard_normal(windows * (N_X * N_X + N_A * N_X))
            return rng_states(rngs)

        ref = copy.deepcopy(s.rngs)
        n0 = window_noise(s, x, 0)
        held = s.perturbations
        assert rng_states(s.rngs) == advanced(ref, 1)
        for p, r in zip(held, copy.deepcopy(ref)):
            expected = resample_perturbations(
                perturbation_stds(LogStds.of(s.policy), s.cfg), N_A, r)
            assert p.P_x.tobytes() == expected.P_x.tobytes()
            assert p.P_a.tobytes() == expected.P_a.tobytes()
        for t in (1, 2):
            assert window_noise(s, x, t).tobytes() == n0.tobytes()
        assert s.perturbations is held
        assert rng_states(s.rngs) == advanced(ref, 1)
        assert window_noise(s, x, 0).tobytes() != n0.tobytes()
        assert s.perturbations is not held
        assert rng_states(s.rngs) == advanced(ref, 2)


class TestDrawnAhead:
    def test_normal_stream_is_chunk_invariant(self):
        # drawing_ahead rests on this: a Generator's normals, and its state
        # after them, do not depend on how the draws are chunked or on
        # drawing into rows of a larger array
        for seed in range(20):
            sizes = np.random.default_rng(seed).integers(0, 40, 25)
            whole = np.random.default_rng(1000 + seed)
            chunked = copy.deepcopy(whole)
            expected = whole.standard_normal(sizes.sum())
            got = np.empty((len(sizes), sizes.max()))
            for k, row in zip(sizes, got):
                if seed % 2:
                    chunked.standard_normal(out=row[:k])
                else:
                    row[:k] = chunked.standard_normal(k)
            got = np.concatenate([row[:k] for k, row in zip(sizes, got)])
            assert got.tobytes() == expected.tobytes()
            assert rng_states([chunked]) == rng_states([whole])

    @pytest.mark.parametrize("period,full_std,block", [
        (1, False, exploration.BLOCK_NORMALS), (1, True, 1), (1, False, 50)])
    def test_rows_and_states_of_step_by_step_drawing(self, period, full_std,
                                                     block, monkeypatch):
        # pieces of one step, of a few steps and of the whole block give
        # the noise of step-by-step drawing and its rng states, also when
        # fewer samples than drawn ahead are read or the block raises
        monkeypatch.setattr(exploration, "BLOCK_NORMALS", block)
        xs = np.random.default_rng(9).standard_normal((7, 3, N_X))
        stepwise = window_sampler(period, full_std=full_std)
        ahead = window_sampler(period, full_std=full_std)
        want = [window_noise(stepwise, x, 0).tobytes() for x in xs]
        with ahead.drawing_ahead(7):
            got = [window_noise(ahead, x, 0).tobytes() for x in xs]
        assert got == want
        assert ahead._ahead is None
        assert rng_states(ahead.rngs) == rng_states(stepwise.rngs)
        with ahead.drawing_ahead(9):
            for x in xs[:3]:
                window_noise(ahead, x, 0)
        with pytest.raises(RuntimeError), ahead.drawing_ahead(5):
            window_noise(ahead, xs[3], 0)
            raise RuntimeError
        for x in xs[:4]:
            window_noise(stepwise, x, 0)
        assert rng_states(ahead.rngs) == rng_states(stepwise.rngs)

    @pytest.mark.parametrize("period,full_std", [(4, False), (4, True),
                                                 ("episode", False)])
    def test_window_and_matrix_paths_draw_per_call(self, period, full_std):
        xs = np.random.default_rng(9).standard_normal((6, 3, N_X))
        stepwise = window_sampler(period, full_std=full_std)
        ahead = window_sampler(period, full_std=full_std)
        with ahead.drawing_ahead(6):
            assert ahead._ahead is None
            got = [window_noise(ahead, x, t).tobytes()
                   for t, x in enumerate(xs)]
        assert got == [window_noise(stepwise, x, t).tobytes()
                       for t, x in enumerate(xs)]
        assert rng_states(ahead.rngs) == rng_states(stepwise.rngs)


class TestStoredStdLayout:
    """The policy's stored log-std shapes, not the cfg a sampler is given,
    pick the sampling path and the normals an episode draws."""

    @pytest.mark.parametrize("full_std", [True, False],
                             ids=["full-policy", "reduced-policy"])
    def test_sampler_follows_the_stored_stds(self, full_std):
        own = window_sampler(period=4, full_std=full_std)
        cfg = dataclasses.replace(own.cfg, full_std=not full_std)
        other = NoiseSampler(own.policy, cfg, [np.random.default_rng(100 + i)
                                               for i in range(3)],
                             own.episode_steps)
        rng = np.random.default_rng(3)
        for step in range(8):
            x = rng.standard_normal((3, N_X))
            assert window_noise(other, x, step).tobytes() == \
                window_noise(own, x, step).tobytes()
        assert rng_states(other.rngs) == rng_states(own.rngs)
        for n_steps in (8, 10):
            assert episode_normals(own.policy, cfg, n_steps) == \
                episode_normals(own.policy, own.cfg, n_steps)

    @pytest.mark.parametrize("n_x,n_a,reduced", [(1, 1, True), (1, 2, False),
                                                 (3, 1, False)])
    def test_full_stds_of_one_row_are_reduced(self, n_x, n_a, reduced):
        # a full-std head stores (N_x, N_x) and (N_a, N_x) log-stds, one
        # row each only at N_x = N_a = 1
        cfg = LatticeConfig(full_std=True)
        policy = own_layout(MlpPolicy, 2, n_a, cfg, strategy="lattice",
                            hiddens=(n_x,), activation="relu",
                            rng=np.random.default_rng(0))
        assert policy.reduced_std is reduced
        assert (dist_params(policy, cfg).basis is not None) is reduced


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
        sds = perturbation_stds(std, cfg)
        for i in range(n):
            p = resample_perturbations(sds, 3, rng)
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
    assert np.linalg.eigvalsh(cov)[0] >= cfg.gamma - 1e-9
