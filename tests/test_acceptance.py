"""End-to-end acceptance checks for the latent-exploration stack.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line with the measured quantity and its tolerance. Run with
`pytest tests/test_acceptance.py`; the lines bypass output capture.
"""

import time

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from latticerl.cli import run_training
from latticerl.config import RunConfig
from latticerl.envs import ENV_REGISTRY, FlexExtArm
from latticerl.errors import NotPositiveDefinite
from latticerl.exploration import (
    LatticeConfig,
    NoiseStdMatrices,
    PerturbationMatrices,
    action_distribution,
    distribution_std,
    lattice_covariance,
    perturbed_action,
    resample_perturbations,
    sampling_std,
)
from latticerl.gauss import LOG_2PI, min_eigenvalue
from latticerl.policy import MlpPolicy
from latticerl.trainer import PpoConfig, PPOTrainer, evaluate_policy

from conftest import ConstantObsEnv, logp_gradient_check

TUNED_PPO = PpoConfig(learning_rate=3e-4, batch_size=64, gradient_steps=128,
                      n_epochs=4, gae_lambda=0.9, clip_range=0.3,
                      entropy_coef=3.6e-6, value_coef=0.84, max_grad_norm=0.7,
                      n_envs=16)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capture(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def report(number: int, passed: bool, detail: str):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}"
    if _CAPSYS is not None:
        # bypass output capture so the line is visible in plain pytest runs
        with _CAPSYS.disabled():
            print(f"\n{line}")
    else:
        print(line)
    assert passed, line


def random_instance(rng, n_a=None, n_x=None, alpha=None, gamma=0.0):
    """Random (W, x, S_x, S_a, alpha) tuple with stds far from the clip
    boundaries and latent entries bounded away from zero."""
    n_a = int(rng.integers(2, 4)) if n_a is None else n_a
    n_x = int(rng.integers(3, 5)) if n_x is None else n_x
    W = rng.standard_normal((n_a, n_x))
    std = NoiseStdMatrices(
        log_std_x=rng.normal(0.0, 0.3, (n_x, n_x)),
        log_std_a=rng.normal(0.0, 0.3, (n_a, n_x)),
    )
    x = rng.uniform(0.3, 1.5, n_x) * rng.choice([-1.0, 1.0], n_x)
    cfg = LatticeConfig(
        alpha=float(rng.uniform(0.0, 1.0)) if alpha is None else alpha,
        gamma=gamma, full_std=True)
    return W, x, std, cfg


def test_criterion_01_analytic_variance_ratio():
    # matched-noise Monte Carlo on the 1+1 arm with the ideal linear policy:
    # perturbing the scalar latent (tracking error) doubles the acceleration
    # variance relative to matched independent per-action noise
    t0 = time.perf_counter()
    env = FlexExtArm(n_flexors=1, n_extensors=1, seed=0)
    g = env.gain
    rng = np.random.default_rng(11)
    n = 1_000_000
    sigma = 0.05
    dtheta = rng.uniform(-0.2, 0.2, n)
    base_e = 0.5 + dtheta
    base_f = 0.5 - dtheta

    def accel(a_e, a_f):
        return g * (np.clip(a_e, 0.0, 1.0) - np.clip(a_f, 0.0, 1.0))

    clean = accel(base_e, base_f)
    # the vectorized acceleration matches the environment's own computation
    for k in range(0, n, n // 20):
        assert env.accel_of(np.array([base_e[k], base_f[k]])) \
            == pytest.approx(clean[k], abs=1e-12)

    # latent condition: one noise draw enters both antagonists coherently
    delta = rng.standard_normal(n) * sigma
    dev_lat = accel(base_e + delta, base_f - delta) - clean
    # action condition: independent noise matched to the induced per-action
    # stds of the latent condition
    sigma_e = np.std(np.clip(base_e + delta, 0, 1) - np.clip(base_e, 0, 1))
    sigma_f = np.std(np.clip(base_f - delta, 0, 1) - np.clip(base_f, 0, 1))
    eps_e = rng.standard_normal(n) * sigma_e
    eps_f = rng.standard_normal(n) * sigma_f
    dev_act = accel(base_e + eps_e, base_f + eps_f) - clean

    ratio = np.var(dev_lat) / np.var(dev_act)
    elapsed = time.perf_counter() - t0
    report(1, abs(ratio - 2.0) <= 0.1 and elapsed < 60.0,
           f"latent/action accel variance ratio {ratio:.4f} "
           f"(target 2.0 +/- 5%), {elapsed:.1f}s (< 60s)")


def test_criterion_02_distribution_matches_sampling_path():
    # for 50 random instances, 1e6 actions drawn through the perturbation
    # sampling path agree with the analytic mean/covariance within 2%
    # relative (Frobenius) error
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    n_draws, chunk = 1_000_000, 250_000
    worst_mean, worst_cov = 0.0, 0.0
    for i in range(50):
        W, x, std, cfg = random_instance(rng)
        n_a, n_x = W.shape
        s_x, s_a = sampling_std(std, cfg, n_a)
        dist = action_distribution(x, W, std, cfg)
        total = np.zeros(n_a)
        outer = np.zeros((n_a, n_a))
        first = True
        for start in range(0, n_draws, chunk):
            m = min(chunk, n_draws - start)
            p_a = rng.standard_normal((m, n_a, n_x)) * s_a
            p_x = rng.standard_normal((m, n_x, n_x)) * s_x
            acts = W @ x + p_a @ x + cfg.alpha * ((p_x @ x) @ W.T)
            if first:
                # the vectorized draw reproduces the scalar sampling path
                for k in range(5):
                    P = PerturbationMatrices(P_x=p_x[k], P_a=p_a[k])
                    np.testing.assert_allclose(
                        perturbed_action(x, W, P, cfg.alpha), acts[k],
                        atol=1e-12)
                first = False
            total += acts.sum(axis=0)
            outer += acts.T @ acts
        emp_mean = total / n_draws
        emp_cov = outer / n_draws - np.outer(emp_mean, emp_mean)
        err_mean = np.linalg.norm(emp_mean - dist.mean) \
            / np.linalg.norm(dist.mean)
        err_cov = np.linalg.norm(emp_cov - dist.cov) \
            / np.linalg.norm(dist.cov)
        worst_mean = max(worst_mean, err_mean)
        worst_cov = max(worst_cov, err_cov)
    elapsed = time.perf_counter() - t0
    report(2, worst_mean < 0.02 and worst_cov < 0.02 and elapsed < 300.0,
           f"worst relative error over 50 instances x 1e6 draws: mean "
           f"{worst_mean:.4f}, cov {worst_cov:.4f} (< 0.02), "
           f"{elapsed:.1f}s (< 300s)")


def test_criterion_03_log_density_oracle_and_quadrature():
    # the Cholesky-based log-density agrees with a direct matrix-inverse
    # oracle, and the density integrates to one
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        W, x, std, cfg = random_instance(rng, gamma=1e-3)
        dist = action_distribution(x, W, std, cfg)
        a = dist.sample(rng)
        d = dist.mean - a
        sign, log_det = np.linalg.slogdet(dist.cov)
        assert sign > 0
        oracle = (-0.5 * dist.dim * LOG_2PI - 0.5 * log_det
                  - 0.5 * d @ np.linalg.inv(dist.cov) @ d)
        worst = max(worst, abs(dist.log_density(a) - oracle))

    # 1-D quadrature on a single-action instance
    W, x, std, cfg = random_instance(rng, n_a=1, n_x=3)
    g1 = action_distribution(x, W, std, cfg)
    sig = float(np.sqrt(g1.cov[0, 0]))
    xs = np.linspace(g1.mean[0] - 8 * sig, g1.mean[0] + 8 * sig, 4001)
    dens = np.array([np.exp(g1.log_density(np.array([v]))) for v in xs])
    int_1d = float(np.trapezoid(dens, xs))

    # 2-D quadrature, density evaluated through the cached Cholesky factor
    W, x, std, cfg = random_instance(rng, n_a=2, n_x=3)
    g2 = action_distribution(x, W, std, cfg)
    sd = np.sqrt(np.diag(g2.cov))
    xs = np.linspace(g2.mean[0] - 8 * sd[0], g2.mean[0] + 8 * sd[0], 301)
    ys = np.linspace(g2.mean[1] - 8 * sd[1], g2.mean[1] + 8 * sd[1], 301)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    z = solve_triangular(g2.chol, (g2.mean - pts).T, lower=True)
    log_det = 2.0 * np.sum(np.log(np.diag(g2.chol)))
    dens2 = np.exp(-LOG_2PI - 0.5 * log_det - 0.5 * np.sum(z * z, axis=0))
    for k in (0, 12345, 45678):
        assert dens2[k] == pytest.approx(np.exp(g2.log_density(pts[k])),
                                         rel=1e-10)
    int_2d = float(np.trapezoid(
        np.trapezoid(dens2.reshape(len(xs), len(ys)), ys), xs))

    report(3, worst < 1e-8 and abs(int_1d - 1.0) < 1e-4
           and abs(int_2d - 1.0) < 1e-4,
           f"worst |log_density - inverse oracle| {worst:.2e} (< 1e-8), "
           f"quadrature 1-D {int_1d:.6f}, 2-D {int_2d:.6f} (1 +/- 1e-4)")


def test_criterion_04_alpha_zero_reduction(tmp_path):
    # with alpha = 0 the covariance is diagonal before regularization, and a
    # full training run is byte-identical between the alpha-zero latent
    # strategy and the state-dependent baseline strategy
    rng = np.random.default_rng(44)
    for _ in range(50):
        W, x, std, _ = random_instance(rng)
        s_x, s_a = distribution_std(std, LatticeConfig(full_std=True),
                                    W.shape[0])
        cov = lattice_covariance(x, W, s_a, s_x, alpha=0.0, gamma=0.0)
        off = cov[~np.eye(cov.shape[0], dtype=bool)]
        np.testing.assert_array_equal(off, 0.0)

    ppo = PpoConfig(learning_rate=1e-3, batch_size=32, gradient_steps=32,
                    n_epochs=2, n_envs=4)
    curves = {}
    params = {}
    for strategy in ("lattice", "gsde"):
        config = RunConfig(env={"name": "flex_ext_arm"}, strategy=strategy,
                           lattice=LatticeConfig(alpha=0.0), ppo=ppo,
                           hiddens=[16, 16], critic_hiddens=[16, 16],
                           seed=7, total_steps=1024)
        out = run_training(config, tmp_path / strategy)
        lines = (out / "curves.csv").read_text().splitlines()
        # byte-level comparison of every column except wall clock time
        curves[strategy] = [",".join(line.split(",")[:-1]) for line in lines]
        import json
        params[strategy] = json.loads(
            (out / "checkpoints" / "final.json").read_text())["params"]
    identical = curves["lattice"] == curves["gsde"] \
        and params["lattice"] == params["gsde"]
    report(4, identical,
           "alpha=0 off-diagonals exactly zero pre-regularization; "
           f"training curves ({len(curves['lattice']) - 1} updates) and "
           "final parameters byte-identical between lattice(alpha=0) "
           "and gsde")


def test_criterion_05_positive_semidefinite_guarantee():
    # the regularized covariance never dips below gamma, including at the
    # degenerate zero latent
    rng = np.random.default_rng(55)
    worst_margin = np.inf
    for i in range(10_000):
        n_a = int(rng.integers(2, 5))
        n_x = int(rng.integers(2, 5))
        W = rng.standard_normal((n_a, n_x)) * float(rng.uniform(0.2, 3.0))
        std = NoiseStdMatrices(
            log_std_x=rng.normal(0.0, 1.0, (n_x, n_x)),
            log_std_a=rng.normal(0.0, 1.0, (n_a, n_x)),
        )
        gamma = float(10.0 ** rng.uniform(-4, -1))
        alpha = float(rng.uniform(0.0, 1.0))
        cfg = LatticeConfig(alpha=alpha, gamma=gamma, full_std=True)
        x = np.zeros(n_x) if i % 10 == 0 \
            else rng.standard_normal(n_x) * float(rng.uniform(0.0, 2.0))
        s_x, s_a = distribution_std(std, cfg, n_a)
        cov = lattice_covariance(x, W, s_a, s_x, alpha, gamma)
        worst_margin = min(worst_margin, min_eigenvalue(cov) - gamma)
    degenerate_raises = False
    W, x, std, _ = random_instance(rng)
    try:
        action_distribution(np.zeros(W.shape[1]), W, std,
                            LatticeConfig(gamma=0.0, full_std=True))
    except NotPositiveDefinite:
        degenerate_raises = True
    report(5, worst_margin >= -1e-9 and degenerate_raises,
           f"min eigenvalue - gamma >= {worst_margin:.2e} over 1e4 "
           "instances (>= -1e-9); gamma=0 with x=0 raises "
           "NotPositiveDefinite")


def test_criterion_06_rescaling_invariance():
    # with unit log-stds and i.i.d. unit-variance latents, the per-component
    # noise variance does not depend on the latent width
    rng = np.random.default_rng(66)
    cfg = LatticeConfig()
    n_act = 3
    n_draws, chunk = 40_000, 8_000
    variances = {}
    for n_x in (16, 64, 256):
        std = NoiseStdMatrices.create(n_act, n_x, cfg)
        s_x, s_a = sampling_std(std, cfg, n_act)
        acc_a = np.zeros(n_act)
        acc_x = 0.0
        for start in range(0, n_draws, chunk):
            xs = rng.standard_normal((chunk, n_x))
            p_a = rng.standard_normal((chunk, n_act, n_x)) * s_a
            e_a = np.einsum("bij,bj->bi", p_a, xs)
            acc_a += np.sum(e_a * e_a, axis=0)
            # first component of the latent perturbation P_x @ x
            row = rng.standard_normal((chunk, n_x)) * s_x[0]
            e_x = np.sum(row * xs, axis=1)
            acc_x += float(np.sum(e_x * e_x))
        variances[n_x] = np.append(acc_a / n_draws, acc_x / n_draws)
    stacked = np.stack(list(variances.values()))
    ref = stacked.mean(axis=0)
    worst = float(np.max(np.abs(stacked / ref - 1.0)))
    report(6, worst < 0.05,
           f"per-component noise variance across N_x in (16, 64, 256): "
           f"worst deviation from the cross-width mean {worst:.4f} (< 0.05)")


def test_criterion_07_gradient_fidelity():
    # analytic log-probability gradients match central finite differences for
    # every parameter, with and without the variance-path gradient
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(10):
        for stop in (False, True):
            cfg = LatticeConfig(alpha=float(rng.uniform(0.1, 1.0)),
                                stop_variance_gradient=stop,
                                full_std=bool(rng.integers(0, 2)))
            obs_dim = int(rng.integers(2, 4))
            action_dim = int(rng.integers(2, 4))
            policy = MlpPolicy(obs_dim, action_dim, cfg, strategy="lattice",
                               hiddens=(4, 3), activation="tanh",
                               rng=np.random.default_rng(1000 + i))
            obs = rng.standard_normal((3, obs_dim))
            actions = rng.standard_normal((3, action_dim)) * 0.5
            worst = max(worst,
                        logp_gradient_check(policy, cfg, obs, actions))
    report(7, worst < 1e-4,
           f"worst relative gradient error over 20 instances (both "
           f"stop-variance settings) {worst:.2e} (< 1e-4)")


@pytest.mark.slow
def test_criterion_08_elbow_learning():
    # latent-noise PPO solves the 3+3 elbow: solved fraction >= 0.90
    # averaged over three seeds within the 2e6-step budget
    t0 = time.perf_counter()
    solved = []
    steps = []
    for seed in (0, 1, 2):
        tr = PPOTrainer("flex_ext_arm", strategy="lattice",
                        lattice_cfg=LatticeConfig(alpha=1.0, period=1),
                        ppo_cfg=TUNED_PPO, hiddens=(64, 64),
                        critic_hiddens=(64, 64), seed=seed)
        tr.fit(2_000_000, target_solved=0.93)
        m = evaluate_policy(tr, n_episodes=50, deterministic=False, seed=321)
        solved.append(m["solved_fraction"]["mean"])
        steps.append(tr.env_steps)
    avg = float(np.mean(solved))
    elapsed = time.perf_counter() - t0
    report(8, avg >= 0.90 and max(steps) <= 2_000_000,
           f"elbow solved fraction per seed "
           f"{[round(s, 3) for s in solved]}, average {avg:.3f} (>= 0.90) "
           f"within {max(steps)} steps (<= 2e6), {elapsed:.0f}s")


def test_criterion_09_period_semantics():
    # period T = 4: noise is piecewise constant on windows of exactly 4
    # steps; period T = 1: consecutive noise draws are uncorrelated
    ENV_REGISTRY["constant_obs"] = ConstantObsEnv
    try:
        tr = PPOTrainer("constant_obs",
                        env_kwargs={"max_steps": 64, "action_dim": 3},
                        strategy="lattice",
                        lattice_cfg=LatticeConfig(alpha=1.0, period=4),
                        ppo_cfg=PpoConfig(batch_size=16, gradient_steps=8,
                                          n_epochs=1, n_envs=1),
                        hiddens=(8, 8), critic_hiddens=(8, 8), seed=0)
        buf = tr.collect_rollout(32)
        noise = buf.actions[:, 0, :] - tr.policy.forward(buf.obs[:, 0, :])[1]
        windows_ok = True
        for w in range(8):
            block = noise[4 * w: 4 * w + 4]
            windows_ok &= bool(np.array_equal(
                block, np.broadcast_to(block[0], block.shape)))
            if w < 7:
                windows_ok &= not np.array_equal(noise[4 * w],
                                                 noise[4 * (w + 1)])

        # T = 1 at the exploration level: 1e5 fresh perturbations of a
        # frozen latent state
        cfg1 = LatticeConfig(alpha=1.0, period=1)
        x = tr.policy.forward(np.ones((1, 2)))[0][0]
        W = tr.policy.W
        s_x, s_a = sampling_std(tr.policy.noise_std, cfg1, 3)
        rng = np.random.default_rng(99)
        n = 100_000
        p_a = rng.standard_normal((n, 3, x.size)) * s_a
        p_x = rng.standard_normal((n, x.size, x.size)) * s_x
        draws = p_a @ x + cfg1.alpha * ((p_x @ x) @ W.T)
        # vectorized draw matches the per-step resampling path
        P = resample_perturbations(tr.policy.noise_std, cfg1, 3,
                                   np.random.default_rng(5))
        np.testing.assert_allclose(
            perturbed_action(x, W, P, cfg1.alpha) - W @ x,
            P.P_a @ x + cfg1.alpha * (W @ (P.P_x @ x)), atol=1e-12)
        lag1 = [abs(float(np.corrcoef(draws[:-1, k], draws[1:, k])[0, 1]))
                for k in range(3)]
        worst_r = max(lag1)
        report(9, windows_ok and worst_r < 0.02,
               f"T=4 noise constant on 8 windows of 4 steps and distinct "
               f"across windows; T=1 worst lag-1 autocorrelation "
               f"{worst_r:.4f} over 1e5 draws (< 0.02)")
    finally:
        del ENV_REGISTRY["constant_obs"]


@pytest.mark.slow
def test_criterion_10_energy_at_equal_or_better_solved():
    # directional comparison on the redundant reacher: latent exploration
    # reaches equal-or-better solved fraction with lower energy than
    # independent per-action noise (no fixed margin)
    t0 = time.perf_counter()
    results = {}
    for strategy in ("lattice", "diagonal"):
        solved, energy = [], []
        for seed in (0, 1, 2):
            tr = PPOTrainer("point_reacher", strategy=strategy,
                            lattice_cfg=LatticeConfig(alpha=1.0, period=1),
                            ppo_cfg=TUNED_PPO, hiddens=(64, 64),
                            critic_hiddens=(64, 64), seed=seed)
            tr.fit(150_000, target_solved=None)
            m = evaluate_policy(tr, n_episodes=50, deterministic=False,
                                seed=123)
            solved.append(m["solved_fraction"]["mean"])
            energy.append(m["energy"]["mean"])
        results[strategy] = {
            "solved": (float(np.mean(solved)),
                       float(np.std(solved, ddof=1) / np.sqrt(3))),
            "energy": (float(np.mean(energy)),
                       float(np.std(energy, ddof=1) / np.sqrt(3))),
        }
    lat, diag = results["lattice"], results["diagonal"]
    elapsed = time.perf_counter() - t0
    report(10, lat["solved"][0] >= diag["solved"][0]
           and lat["energy"][0] < diag["energy"][0],
           "reacher over 3 seeds (mean +/- sem): lattice solved "
           f"{lat['solved'][0]:.3f} +/- {lat['solved'][1]:.3f}, energy "
           f"{lat['energy'][0]:.4f} +/- {lat['energy'][1]:.4f}; diagonal "
           f"solved {diag['solved'][0]:.3f} +/- {diag['solved'][1]:.3f}, "
           f"energy {diag['energy'][0]:.4f} +/- {diag['energy'][1]:.4f}; "
           f"{elapsed:.0f}s")
