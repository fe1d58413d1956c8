"""Policy networks and hand-derived gradients for log-probability and
entropy, checked against central finite differences."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from latticerl.errors import DimensionMismatch, NotPositiveDefinite
from latticerl.exploration import LatticeConfig
from latticerl.policy import (
    ACTIVATIONS,
    LOG_2PI,
    DistInternals,
    DistParams,
    GradientTape,
    Mlp,
    MlpPolicy,
    dist_internals,
    dist_params,
    entropy_and_grad,
    entropy_batch,
    flat_layout,
    log_prob,
    log_prob_and_grad,
    log_prob_terms,
    policy_backward,
)

from conftest import finite_difference, logp_gradient_check, relative_error
import oracles
from oracles import LogStds, distribution_std, lattice_covariance


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

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("hiddens", [(), (8,), (64, 64)],
                             ids=["0", "8", "64x64"])
    def test_forward_backward_match_per_layer_reference(self, activation,
                                                        hiddens):
        # bit for bit against the out-of-place layer-by-layer network, with
        # two backward calls, one with a latent seed, accumulating into one
        # tape
        rng = np.random.default_rng(17)
        net = Mlp(rng, 5, hiddens, 3, activation=activation, prefix="v.")
        for k in net.params:
            if k.startswith("v.b"):
                net.params[k][...] = rng.standard_normal(net.params[k].shape)
        tape = GradientTape(net.params)
        ref = {k: np.zeros_like(v) for k, v in net.params.items()}
        for d_latent in (rng.standard_normal((11, net.sizes[-2])), None):
            obs = rng.standard_normal((11, 5))
            x, out, cache = net.forward(obs, need_cache=True)
            hs, zs, ref_out = oracles.mlp_forward(
                net.params, "v.", len(hiddens) + 1, activation, obs)
            assert x.tobytes() == hs[-1].tobytes()
            assert out.tobytes() == ref_out.tobytes()
            d_out = rng.standard_normal(out.shape)
            assert net.backward(cache, d_out, tape, d_latent=d_latent) \
                is None
            oracles.mlp_backward(net.params, "v.", activation, hs, zs, d_out,
                                 ref, d_latent)
        for k in ref:
            assert tape.grads[k].tobytes() == ref[k].tobytes(), k

    def test_input_width_check(self):
        net = Mlp(np.random.default_rng(2), 3, (4,), 2)
        with pytest.raises(DimensionMismatch):
            net.forward(np.zeros((1, 5)))

    def test_param_count_closed_form(self):
        net = Mlp(np.random.default_rng(3), 6, (10, 7), 4)
        expected = (6 * 10 + 10) + (10 * 7 + 7) + (7 * 4 + 4)
        assert sum(v.size for v in net.params.values()) == expected

    def test_initial_weights_drawn_into_given_views(self):
        # the bits of drawing each layer's weights as a new array, in layer
        # order, written into the views a trainer passes
        shapes = Mlp.shapes(3, (5, 4), 2, prefix="v.")
        flat, views = flat_layout(shapes)
        net = Mlp(np.random.default_rng(7), 3, (5, 4), 2, activation="tanh",
                  prefix="v.", params=views)
        assert net.params is views
        assert list(views) == ["v.w0", "v.b0", "v.w1", "v.b1", "v.w2", "v.b2"]
        rng = np.random.default_rng(7)
        for i, (fan_in, fan_out) in enumerate([(3, 5), (5, 4), (4, 2)]):
            w = rng.standard_normal((fan_out, fan_in)) * np.sqrt(1.0 / fan_in)
            assert views[f"v.w{i}"].tobytes() == w.tobytes()
            np.testing.assert_array_equal(views[f"v.b{i}"], 0.0)
        assert np.shares_memory(views["v.w2"], flat)

    @pytest.mark.parametrize("strategy,full_std,noise_shapes", [
        ("diagonal", False, {"log_sigma": (3,)}),
        ("lattice", False, {"log_std_x": (1, 4), "log_std_a": (1, 4)}),
        ("gsde", True, {"log_std_x": (4, 4), "log_std_a": (3, 4)}),
    ])
    def test_policy_shapes_list_network_then_noise(self, strategy, full_std,
                                                   noise_shapes):
        cfg = LatticeConfig(full_std=full_std, init_log_std=-0.5)
        shapes = MlpPolicy.shapes(5, 3, cfg, strategy, (6, 4))
        assert shapes == {**Mlp.shapes(5, (6, 4), 3, "pi."), **noise_shapes}
        policy = MlpPolicy(5, 3, cfg, strategy=strategy, hiddens=(6, 4),
                           rng=np.random.default_rng(0))
        assert policy.net.params is policy.params
        assert {k: v.shape for k, v in policy.params.items()} == shapes
        for k in noise_shapes:
            np.testing.assert_array_equal(policy.params[k], -0.5)

    def test_activation_derivatives(self):
        rng = np.random.default_rng(4)
        z = rng.standard_normal(50)
        for name, (f, fd) in ACTIVATIONS.items():
            h = 1e-6
            num = (f(z + h) - f(z - h)) / (2 * h)
            np.testing.assert_allclose(fd(z, f(z)), num, atol=1e-6)
        # GELU, which imports scipy.special.erf on call, against x Phi(x)
        # and Phi(x) + x phi(x) from erf, tails and zero included
        f, fd = ACTIVATIONS["gelu"]
        z = np.array([-40.0, -3.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0, 40.0])
        cdf = 0.5 * (1.0 + erf(z / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
        np.testing.assert_array_equal(f(z), z * cdf)
        np.testing.assert_allclose(fd(z, f(z)), cdf + z * pdf, rtol=1e-15)
        assert f(np.array(1.0)) == pytest.approx(0.8413447460685429,
                                                 rel=1e-15)


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
        actions = rng.standard_normal((5, 3))
        it = dist_internals(policy, obs, cfg)
        _, d, u = log_prob_terms(it, actions)
        cov, cov_inv, chol = it.cov, it.cov_inv, it.chol
        s_x, s_a = distribution_std(LogStds.of(policy), cfg, 3)
        for b in range(5):
            ref = lattice_covariance(it.x[b], policy.W, s_a, s_x, cfg.alpha,
                                     cfg.gamma)
            np.testing.assert_allclose(cov[b], ref, rtol=1e-12,
                                       atol=1e-15)
            np.testing.assert_allclose(cov_inv[b] @ ref, np.eye(3),
                                       atol=1e-10)
            sign, ref_log_det = np.linalg.slogdet(ref)
            assert sign == 1.0
            assert it.log_det[b] == pytest.approx(ref_log_det, rel=1e-12,
                                                  abs=1e-12)
            np.testing.assert_allclose(u[b], np.linalg.solve(ref, d[b]),
                                       rtol=1e-10)
            np.testing.assert_array_equal(chol[b], np.tril(chol[b]))
            np.testing.assert_allclose(chol[b] @ chol[b].T, ref, rtol=1e-12,
                                       atol=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(batch=st.integers(1, 6), n_a=st.integers(1, 6),
           n_x=st.integers(1, 6), alpha=st.floats(0.0, 1.0),
           log_gamma=st.floats(-4.0, 0.0), full_std=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_log_prob_matches_oracle(self, batch, n_a, n_x, alpha,
                                     log_gamma, full_std, seed):
        # N_a > N_x included: W W^T is then rank-deficient, and its
        # eigenvalues may come out a rounding error below zero
        cfg = LatticeConfig(alpha=alpha, gamma=10.0 ** log_gamma,
                            full_std=full_std, init_log_std=-0.5)
        rng = np.random.default_rng(seed)
        policy = MlpPolicy(3, n_a, cfg, hiddens=(n_x,), activation="tanh",
                           rng=rng)
        for name in ("log_std_x", "log_std_a"):
            policy.params[name] += rng.normal(0.0, 0.5,
                                              policy.params[name].shape)
        obs = rng.standard_normal((batch, 3))
        actions = rng.standard_normal((batch, n_a))
        it = dist_internals(policy, obs, cfg)
        logp, d, u = log_prob_terms(it, actions)
        s_x, s_a = distribution_std(LogStds.of(policy), cfg, n_a)
        for b in range(batch):
            ref = lattice_covariance(it.x[b], policy.W, s_a, s_x, cfg.alpha,
                                     cfg.gamma)
            ref_u = np.linalg.solve(ref, d[b])
            _, ref_log_det = np.linalg.slogdet(ref)
            quad = float(d[b] @ ref_u)
            ref_logp = -0.5 * (n_a * LOG_2PI + ref_log_det + quad)
            scale = 0.5 * (n_a * LOG_2PI + abs(ref_log_det) + quad)
            assert abs(logp[b] - ref_logp) <= 1e-10 * scale
            assert np.linalg.norm(u[b] - ref_u) \
                <= 1e-10 * np.linalg.norm(ref_u)

    @pytest.mark.parametrize("full_std", [False, True],
                             ids=["reduced", "full"])
    def test_zero_latent_without_jitter_is_singular(self, full_std):
        # relu hidden layers with zero biases map obs = 0 to the zero latent,
        # where Sigma = gamma I
        cfg = LatticeConfig(alpha=1.0, gamma=0.0, full_std=full_std)
        policy = MlpPolicy(3, 4, cfg, hiddens=(5,), activation="relu",
                           rng=np.random.default_rng(61))
        with pytest.raises(NotPositiveDefinite):
            dist_internals(policy, np.zeros((2, 3)), cfg)
        with pytest.raises(NotPositiveDefinite):
            dist_internals(policy, np.zeros((2, 3)), cfg,
                           params=dist_params(policy, cfg))

    @pytest.mark.parametrize("strategy,full_std", [
        ("diagonal", False), ("gsde", False), ("lattice", False),
        ("gsde", True), ("lattice", True)])
    def test_given_params_build_the_same_internals(self, strategy, full_std):
        # with stds clipped at both ends, so the masks are not all ones
        cfg = LatticeConfig(alpha=0.7, full_std=full_std)
        policy = MlpPolicy(3, 4, cfg, strategy=strategy, hiddens=(6, 5),
                           rng=np.random.default_rng(64))
        rng = np.random.default_rng(65)
        for k in ("log_std_x", "log_std_a", "log_sigma"):
            if k in policy.params:
                v = policy.params[k]
                v[...] = rng.normal(0.0, 0.5, v.shape)
                v.flat[:2] = [6.0, -9.0]
        obs = rng.standard_normal((7, 3))

        def flat(value):
            if dataclasses.is_dataclass(value):
                return [flat(getattr(value, f.name))
                        for f in dataclasses.fields(value)]
            if isinstance(value, dict):
                return [flat(v) for v in value.values()]
            if isinstance(value, list):
                return [flat(v) for v in value]
            if isinstance(value, np.ndarray):
                return (value.shape, value.tobytes())
            return value

        built = dist_internals(policy, obs, cfg, need_cache=True)
        p = dist_params(policy, cfg)
        given = dist_internals(policy, obs, cfg, need_cache=True, params=p)
        assert given.params is p
        assert given.kind == p.kind and given.sigma is p.sigma
        for f in dataclasses.fields(built):
            assert flat(getattr(given, f.name)) == \
                flat(getattr(built, f.name)), f.name
        if strategy != "diagonal":
            assert 0.0 < built.params.mask_x.mean() < 1.0

    @pytest.mark.parametrize("full_std", [False, True],
                             ids=["reduced", "full"])
    def test_given_params_carry_gamma(self, full_std):
        # given params, the covariance takes gamma from them, as it takes
        # alpha and the stds, not from the cfg passed beside them
        cfg = LatticeConfig(alpha=0.7, gamma=1e-3, full_std=full_std)
        policy = MlpPolicy(3, 4, cfg, hiddens=(6, 5),
                           rng=np.random.default_rng(66))
        obs = np.random.default_rng(67).standard_normal((7, 3))
        want = dist_internals(policy, obs, cfg)
        got = dist_internals(policy, obs, dataclasses.replace(cfg, gamma=0.5),
                             params=dist_params(policy, cfg))
        assert (want.eig is None) == full_std
        for name in ("eig", "log_det", "full_cov"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a is None) == (b is None), name
            if b is not None:
                assert a.tobytes() == b.tobytes(), name

    def test_internals_and_params_share_no_field(self):
        # a value of the distribution has one home: per state in
        # DistInternals, or parameter-only in DistParams
        names = {f.name for f in dataclasses.fields(DistInternals)}
        assert names.isdisjoint(
            f.name for f in dataclasses.fields(DistParams))

    def test_rank_deficient_head_without_jitter_is_regular(self):
        # N_a = 5 > N_x = 2: W W^T has three zero eigenvalues, which eigh
        # may return a rounding error below zero; c_a > 0 keeps Sigma regular
        cfg = LatticeConfig(alpha=1.0, gamma=0.0)
        policy = MlpPolicy(3, 5, cfg, hiddens=(2,), activation="tanh",
                           rng=np.random.default_rng(62))
        obs = np.random.default_rng(63).standard_normal((4, 3))
        it = dist_internals(policy, obs, cfg)
        assert np.max(np.abs(it.params.lam[:3])) < 1e-12
        s_x, s_a = distribution_std(LogStds.of(policy), cfg, 5)
        for b in range(4):
            ref = lattice_covariance(it.x[b], policy.W, s_a, s_x, cfg.alpha,
                                     cfg.gamma)
            assert it.log_det[b] == pytest.approx(np.linalg.slogdet(ref)[1],
                                                  rel=1e-10)

    def test_peak_memory_at_analysis_batch(self):
        # 2048 rows at N_x = 256, N_a = 8 as in a covariance analysis: the
        # forward pass and the (B, N_a) eigenvalues fit in ~16 MiB, as the
        # (B, N_a, N_a) covariance is built only when read, while one
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
        it = dist_internals(policy, obs, cfg)
        tape = GradientTape(policy.params)
        log_prob_and_grad(policy, obs, it.mean.copy(), cfg, tape)
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


class TestAlphaFromCfg:
    """The distribution takes alpha from the cfg it is given, like every
    other noise setting, not from the cfg the policy was built with."""

    @staticmethod
    def _policy(full_std, strategy="lattice"):
        built = LatticeConfig(alpha=1.0, full_std=full_std,
                              init_log_std=-0.3)
        policy = MlpPolicy(3, 3, built, strategy=strategy, hiddens=(5, 4),
                           activation="tanh", rng=np.random.default_rng(71))
        rng = np.random.default_rng(72)
        for name in ("log_std_x", "log_std_a"):
            policy.params[name] += rng.normal(0.0, 0.3,
                                              policy.params[name].shape)
        cfg = LatticeConfig(alpha=0.3, full_std=full_std)
        return policy, cfg, rng.standard_normal((4, 3)), \
            rng.standard_normal((4, 3))

    @pytest.mark.parametrize("full_std", [False, True],
                             ids=["reduced", "full"])
    def test_covariance_and_log_prob(self, full_std):
        policy, cfg, obs, actions = self._policy(full_std)
        it = dist_internals(policy, obs, cfg)
        logp = log_prob_and_grad(policy, obs, actions, cfg,
                                 GradientTape(policy.params))
        s_x, s_a = distribution_std(LogStds.of(policy), cfg, 3)
        for b in range(len(obs)):
            ref = lattice_covariance(it.x[b], policy.W, s_a, s_x, 0.3,
                                     cfg.gamma)
            np.testing.assert_allclose(it.cov[b], ref, rtol=1e-12,
                                       atol=1e-15)
            dist = oracles.FullCovGaussian(it.mean[b], ref)
            assert logp[b] == pytest.approx(dist.log_density(actions[b]),
                                            rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize("full_std", [False, True],
                             ids=["reduced", "full"])
    def test_finite_differences(self, full_std):
        policy, cfg, obs, actions = self._policy(full_std)
        assert logp_gradient_check(policy, cfg, obs, actions) < 1e-4

    def test_gsde_alpha_is_zero(self):
        policy, cfg, _, _ = self._policy(False, strategy="gsde")
        assert dist_params(policy, cfg).alpha == 0.0


class TestEntropy:
    def test_entropy_batch_matches_distribution(self, small_policy_factory):
        from oracles import action_distribution
        policy, cfg = small_policy_factory(seed=15)
        obs = np.random.default_rng(16).standard_normal((3, 3))
        it = dist_internals(policy, obs, cfg)
        h = entropy_batch(it)
        for b in range(3):
            dist = action_distribution(it.x[b], policy.W, LogStds.of(policy),
                                       cfg)
            assert h[b] == pytest.approx(dist.entropy(), abs=1e-10)

    def test_diagonal_entropy_value(self, small_policy_factory):
        policy, cfg = small_policy_factory(strategy="diagonal", seed=17)
        policy.params["log_sigma"][...] = 0.0
        it = dist_internals(policy, np.zeros((1, 3)), cfg)
        h = entropy_batch(it)
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
                return float(np.sum(entropy_batch(cur)))

            it_nd = np.nditer(arr, flags=["multi_index"])
            for _ in it_nd:
                idx = it_nd.multi_index
                num = finite_difference(objective, arr, idx)
                worst = max(worst,
                            relative_error(num, tape.grads[name][idx]))
        assert worst < 1e-4


MERGED_CASES = [
    dict(strategy="lattice", alpha=1.0, full=False, stop=False),
    dict(strategy="lattice", alpha=0.5, full=True, stop=False),
    dict(strategy="lattice", alpha=0.5, full=False, stop=True),
    dict(strategy="gsde", alpha=0.0, full=False, stop=False),
    dict(strategy="diagonal", alpha=1.0, full=False, stop=False),
]


def _merged_setup(case, small_policy_factory, batch=5, action_dim=3):
    cfg = LatticeConfig(alpha=case["alpha"], full_std=case["full"],
                        stop_variance_gradient=case["stop"],
                        init_log_std=-0.2)
    policy, _ = small_policy_factory(strategy=case["strategy"], cfg=cfg,
                                     action_dim=action_dim, seed=51)
    rng = np.random.default_rng(52)
    for name in ("log_std_x", "log_std_a", "log_sigma"):
        if name in policy.params:
            policy.params[name] += rng.normal(0.0, 0.3,
                                              policy.params[name].shape)
    obs = rng.standard_normal((batch, 3))
    actions = rng.standard_normal((batch, action_dim))
    # signed weights of PPO's size: surrogate and entropy bonus
    w_pg = rng.standard_normal(batch) / batch
    w_ent = rng.uniform(-2.0, 2.0, batch) / batch
    return policy, cfg, obs, actions, w_pg, w_ent


class TestMergedBackward:
    @pytest.mark.parametrize("case", MERGED_CASES,
                             ids=[f"{c['strategy']}-a{c['alpha']}-"
                                  f"{'full' if c['full'] else 'reduced'}-"
                                  f"{'stop' if c['stop'] else 'flow'}"
                                  for c in MERGED_CASES])
    def test_equals_sum_of_separate_tapes(self, case, small_policy_factory):
        policy, cfg, obs, actions, w_pg, w_ent = _merged_setup(
            case, small_policy_factory)
        it = dist_internals(policy, obs, cfg, need_cache=True)
        merged = GradientTape(policy.params)
        policy_backward(policy, cfg, merged, it, w_pg=w_pg, w_ent=w_ent,
                        terms=log_prob_terms(it, actions))
        tape_pg = GradientTape(policy.params)
        log_prob_and_grad(policy, obs, actions, cfg, tape_pg, weights=w_pg)
        tape_ent = GradientTape(policy.params)
        entropy_and_grad(policy, cfg, tape_ent, it, weights=w_ent)
        for k in policy.params:
            expected = tape_pg.grads[k] + tape_ent.grads[k]
            if case["strategy"] == "diagonal":
                np.testing.assert_array_equal(merged.grads[k], expected)
            else:
                np.testing.assert_allclose(merged.grads[k], expected,
                                           rtol=1e-12, err_msg=k)

    @pytest.mark.parametrize("full", [False, True], ids=["reduced", "full"])
    def test_finite_differences(self, full, small_policy_factory):
        case = dict(strategy="lattice", alpha=0.8, full=full, stop=False)
        policy, cfg, obs, actions, w_pg, w_ent = _merged_setup(
            case, small_policy_factory)
        it = dist_internals(policy, obs, cfg, need_cache=True)
        tape = GradientTape(policy.params)
        policy_backward(policy, cfg, tape, it, w_pg=w_pg, w_ent=w_ent,
                        terms=log_prob_terms(it, actions))

        def objective():
            cur = dist_internals(policy, obs, cfg)
            return float(np.sum(w_pg * log_prob(cur, actions))
                         + np.sum(w_ent * entropy_batch(cur)))

        worst = 0.0
        for name, arr in policy.params.items():
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

    def test_grads_are_views_of_one_buffer(self):
        params = {"w": np.zeros((2, 3)), "b": np.zeros(3), "s": np.zeros(())}
        tape = GradientTape(params)
        assert tape.flat.size == 10
        for k, v in params.items():
            assert tape.grads[k].shape == v.shape
            assert np.shares_memory(tape.grads[k], tape.flat)
        tape.add("b", np.array([1.0, 2.0, 3.0]))
        tape.add("s", 4.0)
        np.testing.assert_array_equal(tape.flat[6:], [1.0, 2.0, 3.0, 4.0])

    def test_clip_bytes_match_per_key_scaling(self):
        rng = np.random.default_rng(5)
        params = {"w": np.zeros((70, 50)), "b": np.zeros(50),
                  "c": np.zeros(3)}
        tape = GradientTape(params)
        for k, v in params.items():
            tape.add(k, rng.standard_normal(v.shape) * 3.0)
        ref = {k: g.copy() for k, g in tape.grads.items()}
        total = 0.0
        for g in ref.values():
            total += float(np.sum(g * g))
        norm = float(np.sqrt(total))
        scale = 0.7 / norm
        for g in ref.values():
            g *= scale
        assert tape.clip_global_norm(0.7) == norm
        for k in ref:
            np.testing.assert_array_equal(tape.grads[k], ref[k])

    @staticmethod
    def wide_tape(rng) -> GradientTape:
        """A tape of the wide (256x256) lattice layout."""
        policy = MlpPolicy(9, 8, LatticeConfig(), hiddens=(256, 256), rng=rng)
        value = Mlp(rng, 9, (256, 256), 1, prefix="v.")
        return GradientTape({**policy.params, **value.params})

    def test_global_norm_bits_match_per_key_sums(self):
        # gradients of random magnitudes
        rng = np.random.default_rng(12)
        tape = self.wide_tape(rng)
        for _ in range(300):
            for g in tape.grads.values():
                g[...] = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(
                    -8, 2)
            assert tape.global_norm() == oracles.global_norm(tape.grads)

    def test_global_norm_bits_at_pairwise_block_edges(self):
        # numpy's pairwise sum unrolls by 8 and splits above 128 elements;
        # segments around those lengths, at every offset in the tape that
        # the ones before them leave
        rng = np.random.default_rng(13)
        lengths = (1, 7, 8, 9, 127, 128, 129, 1000)
        tape = GradientTape({f"g{n}": np.zeros(n) for n in lengths})
        for _ in range(100):
            for g in tape.grads.values():
                g[...] = rng.standard_normal(g.shape) * 10.0 ** rng.uniform(
                    -8, 2)
            total = 0.0
            for g in tape.grads.values():
                total += float(np.sum(g * g))
            assert tape.global_norm() == float(np.sqrt(total))

    def test_overflowing_square_matches_per_key_sums(self):
        # one square past the float64 range makes both norms inf, and the
        # buffer it was squared into leaves the next norm alone
        rng = np.random.default_rng(14)
        tape = self.wide_tape(rng)
        for g in tape.grads.values():
            g[...] = rng.standard_normal(g.shape)
        tape.grads["pi.w1"][3, 7] = 1e200
        with np.errstate(over="ignore"):
            assert tape.global_norm() == oracles.global_norm(tape.grads) \
                == np.inf
        tape.grads["pi.w1"][3, 7] = 0.5
        norm = tape.global_norm()
        assert np.isfinite(norm) and norm == oracles.global_norm(tape.grads)

    def test_overflowing_square_gives_infinite_norm(self):
        # finite gradients: no NaN, and the clip scales them to zero
        tape = GradientTape({"a": np.zeros(2), "b": np.zeros(1)})
        tape.add("a", np.array([1e200, 1.0]))
        with np.errstate(over="ignore"):
            assert tape.clip_global_norm(0.7) == np.inf
        assert tape.all_finite()
        np.testing.assert_array_equal(tape.flat, 0.0)

    def test_non_finite_names(self):
        tape = GradientTape({"a": np.zeros(2), "b": np.zeros(2),
                             "c": np.zeros(1)})
        assert tape.non_finite() == []
        tape.add("b", np.array([0.0, np.nan]))
        tape.add("c", np.array([-np.inf]))
        assert tape.non_finite() == ["b", "c"]
