"""Policy networks and hand-derived gradients for log-probability and
entropy, checked against central finite differences."""

import tracemalloc

import numpy as np
import pytest

from latticerl.errors import DimensionMismatch
from latticerl.exploration import (
    LatticeConfig,
    distribution_std,
    lattice_covariance,
)
from latticerl.gauss import LOG_2PI
from latticerl.policy import (
    ACTIVATIONS,
    GradientTape,
    Mlp,
    MlpPolicy,
    dist_internals,
    entropy_and_grad,
    entropy_batch,
    log_prob,
    log_prob_and_grad,
)

from conftest import finite_difference, logp_gradient_check, relative_error


class TestMlpForward:
    def test_zero_weights(self):
        net = Mlp(np.random.default_rng(0), 3, (4,), 2)
        for v in net.params.values():
            v[...] = 0.0
        x, out = net.forward(np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_relu_gating(self):
        net = Mlp(np.random.default_rng(0), 2, (2,), 2, activation="relu")
        net.params["w0"][...] = np.eye(2)
        net.params["b0"][...] = 0.0
        net.params["w1"][...] = np.eye(2)
        net.params["b1"][...] = 0.0
        x, out = net.forward(np.array([[1.0, -1.0]]))
        np.testing.assert_array_equal(x[0], [1.0, 0.0])
        np.testing.assert_array_equal(out[0], [1.0, 0.0])

    def test_duplicate_forward_oracle(self):
        rng = np.random.default_rng(1)
        net = Mlp(rng, 3, (5, 4), 2, activation="tanh")
        obs = rng.standard_normal((7, 3))
        x, out = net.forward(obs)
        # straight-line reimplementation
        h = obs
        for i in range(2):
            h = np.tanh(h @ net.params[f"w{i}"].T + net.params[f"b{i}"])
        ref_out = h @ net.params["w2"].T + net.params["b2"]
        np.testing.assert_allclose(x, h, atol=1e-10)
        np.testing.assert_allclose(out, ref_out, atol=1e-10)

    def test_input_width_check(self):
        net = Mlp(np.random.default_rng(2), 3, (4,), 2)
        with pytest.raises(DimensionMismatch):
            net.forward(np.zeros((1, 5)))

    def test_param_count_closed_form(self):
        net = Mlp(np.random.default_rng(3), 6, (10, 7), 4)
        expected = (6 * 10 + 10) + (10 * 7 + 7) + (7 * 4 + 4)
        assert net.n_params() == expected

    def test_activation_derivatives(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(50)
        for name, (f, fd) in ACTIVATIONS.items():
            h = 1e-6
            num = (f(z + h) - f(z - h)) / (2 * h)
            np.testing.assert_allclose(fd(z), num, atol=1e-6)


class TestLatentExposure:
    def test_internals_reuse_forward_latent(self, small_policy_factory):
        policy, cfg = small_policy_factory()
        obs = np.random.default_rng(5).standard_normal((3, 3))
        x_fwd, mean_fwd = policy.forward(obs)
        it = dist_internals(policy, obs, cfg)
        np.testing.assert_array_equal(it.x, x_fwd)
        np.testing.assert_array_equal(it.mean, mean_fwd)


class TestCovarianceAlgebra:
    @pytest.mark.parametrize("full_std", [False, True])
    def test_rows_match_single_state_oracle(self, full_std,
                                            small_policy_factory):
        # B and N_a both >= 3 and distinct, so a transposed reshape shows
        cfg = LatticeConfig(alpha=0.7, full_std=full_std, init_log_std=-0.3)
        policy, _ = small_policy_factory(cfg=cfg, action_dim=3, seed=31)
        rng = np.random.default_rng(32)
        for name in ("log_std_x", "log_std_a"):
            policy.params[name] += rng.normal(0.0, 0.4,
                                              policy.params[name].shape)
        obs = rng.standard_normal((5, 3))
        it = dist_internals(policy, obs, cfg)
        s_x, s_a = distribution_std(policy.noise_std, cfg, 3)
        for b in range(5):
            ref = lattice_covariance(it.x[b], policy.W, s_a, s_x, cfg.alpha,
                                     cfg.gamma)
            np.testing.assert_allclose(it.cov[b], ref, rtol=1e-12,
                                       atol=1e-15)
            np.testing.assert_allclose(it.cov_inv[b] @ ref, np.eye(3),
                                       atol=1e-10)

    def test_peak_memory_at_analysis_batch(self):
        # 2048 rows at N_x = 256, N_a = 8 as in a covariance analysis: the
        # forward pass and the (B, N_a, N_a) arrays fit in ~16 MiB, while one
        # (B, N_a, N_x) temporary would add 32 MiB
        cfg = LatticeConfig(alpha=1.0)
        policy = MlpPolicy(4, 8, cfg, hiddens=(256, 256),
                           rng=np.random.default_rng(0))
        obs = np.random.default_rng(1).standard_normal((2048, 4))
        tracemalloc.start()
        try:
            it = dist_internals(policy, obs, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert it.cov.shape == (2048, 8, 8)
        assert peak < 24 * 2 ** 20


FD_CASES = [
    dict(strategy="lattice", alpha=1.0, full=True, stop=False, act="tanh"),
    dict(strategy="lattice", alpha=1.0, full=False, stop=False, act="relu"),
    dict(strategy="lattice", alpha=0.6, full=True, stop=True, act="gelu"),
    dict(strategy="lattice", alpha=1.0, full=False, stop=True, act="tanh"),
    dict(strategy="gsde", alpha=0.0, full=False, stop=False, act="tanh"),
    dict(strategy="diagonal", alpha=1.0, full=False, stop=False, act="relu"),
]


class TestLogProbGradients:
    @pytest.mark.parametrize("case", FD_CASES,
                             ids=[f"{c['strategy']}-a{c['alpha']}-"
                                  f"{'stop' if c['stop'] else 'flow'}"
                                  for c in FD_CASES])
    def test_finite_differences(self, case, small_policy_factory):
        cfg = LatticeConfig(alpha=case["alpha"], full_std=case["full"],
                            stop_variance_gradient=case["stop"],
                            init_log_std=-0.2)
        policy, _ = small_policy_factory(strategy=case["strategy"], cfg=cfg,
                                         activation=case["act"], seed=11)
        rng = np.random.default_rng(21)
        # randomize noise parameters so clip masks are exercised
        for name in ("log_std_x", "log_std_a", "log_sigma"):
            if name in policy.params:
                policy.params[name] += rng.normal(0.0, 0.3,
                                                  policy.params[name].shape)
        obs = rng.standard_normal((4, 3))
        actions = rng.standard_normal((4, 2))
        worst = logp_gradient_check(policy, cfg, obs, actions)
        assert worst < 1e-4

    @pytest.mark.parametrize("full", [False, True],
                             ids=["reduced", "full"])
    def test_finite_differences_non_square_batch(self, full,
                                                 small_policy_factory):
        # B = 5 rows and N_a = 3 actions: no reshape of a (B, N_a, N_a) or
        # (B, N_a^2) array can be confused with a square one
        cfg = LatticeConfig(alpha=0.8, full_std=full, init_log_std=-0.2)
        policy, _ = small_policy_factory(cfg=cfg, action_dim=3,
                                         activation="tanh", seed=41)
        rng = np.random.default_rng(42)
        for name in ("log_std_x", "log_std_a"):
            policy.params[name] += rng.normal(0.0, 0.3,
                                              policy.params[name].shape)
        obs = rng.standard_normal((5, 3))
        actions = rng.standard_normal((5, 3))
        worst = logp_gradient_check(policy, cfg, obs, actions)
        assert worst < 1e-4

    def test_mode_is_stationary_in_mean_path(self, small_policy_factory):
        # a = mean: the quadratic term's gradient vanishes, so the head bias
        # (mean path only) receives exactly zero gradient
        policy, cfg = small_policy_factory(seed=3)
        obs = np.random.default_rng(6).standard_normal((2, 3))
        it = dist_internals(policy, obs, cfg, need_cache=True)
        tape = GradientTape(policy.params)
        log_prob_and_grad(policy, obs, it.mean.copy(), cfg, tape,
                          internals=it)
        np.testing.assert_array_equal(tape.grads[policy.net.head_b_name], 0.0)

    def test_weighted_accumulation(self, small_policy_factory):
        policy, cfg = small_policy_factory(seed=4)
        rng = np.random.default_rng(7)
        obs = rng.standard_normal((3, 3))
        actions = rng.standard_normal((3, 2))
        w = np.array([0.5, -1.2, 2.0])
        tape_w = GradientTape(policy.params)
        log_prob_and_grad(policy, obs, actions, cfg, tape_w, weights=w)
        # oracle: sum of per-sample gradients scaled by the weights
        accum = {k: np.zeros_like(v) for k, v in policy.params.items()}
        for b in range(3):
            tape_b = GradientTape(policy.params)
            log_prob_and_grad(policy, obs[b:b + 1], actions[b:b + 1], cfg,
                              tape_b)
            for k in accum:
                accum[k] += w[b] * tape_b.grads[k]
        for k in accum:
            np.testing.assert_allclose(tape_w.grads[k], accum[k], atol=1e-10)

    def test_stop_flag_ablates_only_variance_path(self, small_policy_factory):
        cfg_flow = LatticeConfig(alpha=1.0, stop_variance_gradient=False)
        cfg_stop = LatticeConfig(alpha=1.0, stop_variance_gradient=True)
        policy, _ = small_policy_factory(cfg=cfg_flow, seed=8)
        rng = np.random.default_rng(9)
        obs = rng.standard_normal((3, 3))
        actions = rng.standard_normal((3, 2))
        tape_flow = GradientTape(policy.params)
        log_prob_and_grad(policy, obs, actions, cfg_flow, tape_flow)
        tape_stop = GradientTape(policy.params)
        log_prob_and_grad(policy, obs, actions, cfg_stop, tape_stop)
        # log-std matrices keep their gradients under the stop flag
        for name in ("log_std_x", "log_std_a"):
            np.testing.assert_allclose(tape_stop.grads[name],
                                       tape_flow.grads[name], atol=1e-12)
        # network weights lose exactly the variance-path contribution
        hidden = "pi.w0"
        assert not np.allclose(tape_stop.grads[hidden],
                               tape_flow.grads[hidden])

    def test_stop_flag_is_noop_for_diagonal(self, small_policy_factory):
        policy, _ = small_policy_factory(strategy="diagonal", seed=10)
        rng = np.random.default_rng(11)
        obs = rng.standard_normal((3, 3))
        actions = rng.standard_normal((3, 2))
        grads = []
        for stop in (False, True):
            cfg = LatticeConfig(stop_variance_gradient=stop)
            tape = GradientTape(policy.params)
            log_prob_and_grad(policy, obs, actions, cfg, tape)
            grads.append({k: v.copy() for k, v in tape.grads.items()})
        for k in grads[0]:
            np.testing.assert_array_equal(grads[0][k], grads[1][k])

    def test_determinism(self, small_policy_factory):
        results = []
        for _ in range(2):
            policy, cfg = small_policy_factory(seed=12)
            obs = np.random.default_rng(13).standard_normal((2, 3))
            actions = np.random.default_rng(14).standard_normal((2, 2))
            tape = GradientTape(policy.params)
            logp = log_prob_and_grad(policy, obs, actions, cfg, tape)
            results.append((logp, {k: v.copy()
                                   for k, v in tape.grads.items()}))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        for k in results[0][1]:
            np.testing.assert_array_equal(results[0][1][k], results[1][1][k])


class TestEntropy:
    def test_entropy_batch_matches_distribution(self, small_policy_factory):
        from latticerl.exploration import action_distribution
        policy, cfg = small_policy_factory(seed=15)
        obs = np.random.default_rng(16).standard_normal((3, 3))
        it = dist_internals(policy, obs, cfg)
        h = entropy_batch(policy, it)
        for b in range(3):
            dist = action_distribution(it.x[b], policy.W, policy.noise_std,
                                       cfg)
            assert h[b] == pytest.approx(dist.entropy(), abs=1e-10)

    def test_diagonal_entropy_value(self, small_policy_factory):
        policy, cfg = small_policy_factory(strategy="diagonal", seed=17)
        policy.params["log_sigma"][...] = 0.0
        it = dist_internals(policy, np.zeros((1, 3)), cfg)
        h = entropy_batch(policy, it)
        assert h[0] == pytest.approx(2 * 0.5 * (LOG_2PI + 1.0))

    @pytest.mark.parametrize("strategy,stop", [
        ("lattice", False), ("lattice", True), ("gsde", False),
        ("diagonal", False),
    ])
    def test_entropy_gradient_finite_differences(self, strategy, stop,
                                                 small_policy_factory):
        cfg = LatticeConfig(alpha=0.9 if strategy == "lattice" else 1.0,
                            stop_variance_gradient=stop, full_std=True)
        self._check_entropy_gradient(strategy, stop, cfg,
                                     small_policy_factory)

    @pytest.mark.parametrize("strategy,stop", [
        ("lattice", False), ("lattice", True), ("gsde", False),
    ])
    def test_entropy_gradient_finite_differences_reduced_std(
            self, strategy, stop, small_policy_factory):
        # the (1, N_x) log-std rows, whose gradients sum over the rows of
        # the full matrices they stand for
        cfg = LatticeConfig(alpha=0.9 if strategy == "lattice" else 1.0,
                            stop_variance_gradient=stop, full_std=False)
        self._check_entropy_gradient(strategy, stop, cfg,
                                     small_policy_factory)

    @staticmethod
    def _check_entropy_gradient(strategy, stop, cfg, small_policy_factory):
        policy, _ = small_policy_factory(strategy=strategy, cfg=cfg, seed=18)
        obs = np.random.default_rng(19).standard_normal((2, 3))
        tape = GradientTape(policy.params)
        it = dist_internals(policy, obs, cfg, need_cache=True)
        entropy_and_grad(policy, cfg, tape, it)
        worst = 0.0
        for name, arr in policy.params.items():
            is_noise = name in ("log_std_x", "log_std_a", "log_sigma")
            if stop and not is_noise:
                # variance path suppressed: entropy has no mean dependence,
                # so these gradients must vanish entirely
                np.testing.assert_array_equal(tape.grads[name], 0.0)
                continue

            def objective():
                cur = dist_internals(policy, obs, cfg)
                return float(np.sum(entropy_batch(policy, cur)))

            it_nd = np.nditer(arr, flags=["multi_index"])
            for _ in it_nd:
                idx = it_nd.multi_index
                num = finite_difference(objective, arr, idx)
                worst = max(worst,
                            relative_error(num, tape.grads[name][idx]))
        assert worst < 1e-4


class TestGradientTape:
    def test_clip_global_norm(self):
        params = {"a": np.zeros(3), "b": np.zeros((2, 2))}
        tape = GradientTape(params)
        tape.add("a", np.array([3.0, 0.0, 0.0]))
        tape.add("b", 4.0 * np.eye(2) / np.sqrt(2.0))
        norm = tape.clip_global_norm(1.0)
        assert norm == pytest.approx(5.0)
        assert tape.global_norm() == pytest.approx(1.0)

    def test_clip_noop_below_threshold(self):
        tape = GradientTape({"a": np.zeros(2)})
        tape.add("a", np.array([0.3, 0.4]))
        tape.clip_global_norm(1.0)
        np.testing.assert_allclose(tape.grads["a"], [0.3, 0.4])

    def test_zero_and_finite(self):
        tape = GradientTape({"a": np.zeros(2)})
        tape.add("a", np.array([1.0, np.inf]))
        assert not tape.all_finite()
        tape.zero_()
        np.testing.assert_array_equal(tape.grads["a"], 0.0)
        assert tape.all_finite()
