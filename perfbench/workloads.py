"""The benchmark workloads and the correctness checks they run.

Training workloads are closed loops: 16 environments stepped in lockstep by
one process. A repetition is a fresh trainer built from the workload seed and
trained for a fixed number of PPO iterations, so every repetition of a run
does the same work and ends with the same parameters. The CLI workload
repeats a fixed cycle of subcommands on one checkpoint built from the seed.
"""

import contextlib
import hashlib
import io
import json
import math
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import latticerl.cli
import latticerl.trainer
from latticerl.config import RunConfig
from latticerl.envs import make_env
from latticerl.exploration import LatticeConfig
from latticerl.policy import dist_internals

clock = time.perf_counter

# PpoConfig of acceptance criteria 8 and 10 (tests/test_acceptance.py).
TUNED_PPO = dict(learning_rate=3e-4, batch_size=64, gradient_steps=128,
                 n_epochs=4, gae_lambda=0.9, clip_range=0.3,
                 entropy_coef=3.6e-6, value_coef=0.84, max_grad_norm=0.7,
                 n_envs=16)

# Allowed distance between the whitened action noise's mean square and its
# expected value. Its standard error is below 0.03 on every workload here
# (2048 rows, at most 4 steps per noise draw).
WHITENING_TOL = 0.1

# Reference work timed after every operation: Python-level calls on small
# arrays, the mix of an env step or a per-env policy call; a 256x256 matrix
# product, the mix of a wide network's update; and 256x256 normal draws, the
# mix of a P_x draw. On a shared host the speed of such code drifts by 10-70%
# between runs and within one, while its ratio to the program's timings
# holds much better. After an operation the reference work runs for
# CAL_SHARE of the operation's time, and the operation's time is also
# recorded at the reference host speed: scaled by CAL_REF_S over the median
# reference time of that window.
_rng = np.random.default_rng(0)
CAL_W = _rng.standard_normal((64, 64)) / 8.0
CAL_A = _rng.standard_normal((256, 256)) / 16.0
CAL_LOOPS = 240
CAL_SHARE = 0.05
# median time of calibration_work on the reference host (2-core Intel Xeon,
# Python 3.11.7, numpy 2.4.6, OpenBLAS 0.3.31 on one thread)
CAL_REF_S = 0.006


def calibration_work() -> float:
    x = np.ones(64)
    acc = {}
    for i in range(CAL_LOOPS):
        x = np.tanh(CAL_W @ x) + 0.1
        x = x / (1.0 + float(x[0] * x[0]))
        acc[i & 7] = acc.get(i & 7, 0.0) + float(x[1])
    y = CAL_A
    for _ in range(2):
        y = np.tanh(CAL_A @ y)
    y = y + np.random.default_rng(0).standard_normal(CAL_A.shape)
    return sum(acc.values()) + float(y[0, 0])


EVAL_EPISODES = 10
ANALYZE_EPISODES = 10
DUAL_SIM_STEPS = 4000
CLI_SETUP_REPS = 3


@dataclass(frozen=True)
class TrainingSpec:
    env_name: str
    strategy: str
    period: int
    hiddens: tuple
    ppo: dict
    iterations: int  # PPO iterations per repetition


TRAINING = {
    # criterion 8's path: per-env, per-step P_x draws and the covariance
    # build dominate
    "elbow_lattice_t1": TrainingSpec("flex_ext_arm", "lattice", 1, (64, 64),
                                     TUNED_PPO, 4),
    # criterion 10's baseline arm: bypasses the exploration and covariance
    # layers; env.step, MLP and Adam dominate
    "reacher_diagonal": TrainingSpec("point_reacher", "diagonal", 1,
                                     (64, 64), TUNED_PPO, 8),
    # CLI default width and PpoConfig: bound by the update's covariance
    # algebra at N_x = 256; period 4 draws a quarter of the P matrices
    "reacher_lattice_t4_wide": TrainingSpec("point_reacher", "lattice", 4,
                                            (256, 256), {}, 1),
}


@dataclass
class Recorder:
    """Operations attempted, their failures, timing samples and the
    determinism record of one workload run."""

    ops: list = field(default_factory=list)       # True while op is ok
    failures: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)
    record: dict = field(default_factory=dict)
    # the traced run swaps in a wrapper that records a span
    calibration: object = calibration_work

    def begin_op(self) -> int:
        self.ops.append(True)
        return len(self.ops) - 1

    def check(self, ok: bool, message: str, op: int = -1):
        """A failed check fails the operation whose output it checked (the
        latest one by default), or counts as a failed operation itself."""
        if ok:
            return
        self.failures.append(message)
        if self.ops:
            self.ops[op] = False
        else:
            self.ops.append(False)

    def add(self, name: str, value: float):
        self.samples.setdefault(name, []).append(value)

    def add_timed(self, name: str, wall: float) -> float:
        """Record an operation's wall time as name, then time the reference
        work for CAL_SHARE of it, and at least once; record the wall time at
        the reference host speed as name + "_ref" and return it."""
        window = []
        while sum(window) < CAL_SHARE * wall or not window:
            t0 = clock()
            self.calibration()
            window.append(clock() - t0)
        self.samples.setdefault("cal_s", []).extend(window)
        ref = wall * CAL_REF_S / statistics.median(window)
        self.add(name, wall)
        self.add(name + "_ref", ref)
        return ref

    @property
    def failed(self) -> int:
        return self.ops.count(False)


def params_digest(params: dict) -> str:
    """SHA-256 over parameter names, shapes and float64 bytes."""
    h = hashlib.sha256()
    for name in sorted(params):
        arr = np.ascontiguousarray(params[name], dtype=np.float64)
        h.update(f"{name}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def round_trip_ok(trainer, path: Path) -> bool:
    """save -> load gives bit-identical parameters."""
    latticerl.trainer.save_checkpoint(path, trainer)
    loaded = latticerl.trainer.load_checkpoint(path)
    path.unlink()
    return (loaded.params.keys() == trainer.params.keys()
            and all(loaded.params[k].tobytes() == trainer.params[k].tobytes()
                    for k in trainer.params))


def whitened_noise(trainer, buf, params: dict) -> tuple[float, float]:
    """Mean square of a rollout's action noise whitened by the Cholesky
    factor of its analytic covariance, and the value it should have.

    The sampled noise leaves out the covariance's jitter gamma * I, so its
    expected whitened mean square is 1 - gamma * tr(Sigma^-1) / N_a.
    Overwrites the trainer's parameters with those the rollout used.
    """
    for k, v in params.items():
        trainer.params[k][...] = v
    it = dist_internals(trainer.policy, buf.flat(buf.obs), trainer.cfg)
    noise = buf.flat(buf.actions) - it.mean
    if it.kind == "diagonal":
        return float(np.mean((noise / it.sigma) ** 2)), 1.0
    z = np.linalg.solve(it.chol, noise[..., None])[..., 0]
    n_a = noise.shape[1]
    trace_inv = np.trace(it.cov_inv, axis1=1, axis2=2)
    return (float(np.mean(z * z)),
            float(1.0 - trainer.cfg.gamma * np.mean(trace_inv) / n_a))


def run_training(name: str, seed: int, seconds: float, tracer, rec: Recorder,
                 workdir: Path) -> int:
    """Repeat fixed-budget fits until the time is spent; returns env steps
    per repetition."""
    spec = TRAINING[name]
    ppo = latticerl.trainer.PpoConfig(**spec.ppo)
    steps_per_rep = spec.iterations * ppo.gradient_steps * ppo.n_envs
    deadline = clock() + seconds
    rep = 0
    while True:
        with tracer.segment("setup", rep):
            t0 = clock()
            trainer = latticerl.trainer.PPOTrainer(
                spec.env_name, strategy=spec.strategy,
                lattice_cfg=LatticeConfig(alpha=1.0, period=spec.period),
                ppo_cfg=ppo, hiddens=spec.hiddens,
                critic_hiddens=spec.hiddens, seed=seed)
            rec.add_timed("setup_s", clock() - t0)
        last = _time_phases(trainer, rec)
        with tracer.segment("rep", rep):
            cal_before = len(rec.samples["cal_s"])
            t0 = clock()
            try:
                trainer.fit(steps_per_rep)
            except Exception:
                traceback.print_exc()
                rec.check(False, f"repetition {rep} raised")
                return steps_per_rep
            # the reference work after each rollout and update is not fit
            rec.add("fit_s", clock() - t0
                    - sum(rec.samples["cal_s"][cal_before:]))
        with tracer.paused():
            digest = params_digest(trainer.params)
            rec.record.setdefault("params_sha256", digest)
            rec.check(digest == rec.record["params_sha256"],
                      f"repetition {rep} ended with other parameters")
        rep += 1
        if clock() + statistics.median(rec.samples["fit_s"]) > deadline:
            break
    with tracer.paused():
        rec.check(round_trip_ok(trainer, workdir / "round_trip.json"),
                  "checkpoint round trip changed parameters")
        ms, expected = whitened_noise(trainer, *last)
        rec.record["whitened_noise_ms"] = [ms, expected]
        rec.check(abs(ms - expected) <= WHITENING_TOL,
                  f"whitened noise mean square {ms:.4f}, expected "
                  f"{expected:.4f} +/- {WHITENING_TOL}")
    return steps_per_rep


def _time_phases(trainer, rec: Recorder) -> list:
    """Time rollout and update per iteration on this trainer instance and
    check every PPO stat. Returns a holder for the last rollout's buffer and
    the parameters it was collected with."""
    collect, update = trainer.collect_rollout, trainer.ppo_update
    last = [None, None]

    def timed_collect(n_steps):
        rec.begin_op()
        t0 = clock()
        buf = collect(n_steps)
        rec.add_timed("rollout_s", clock() - t0)
        return buf

    def timed_update(buf):
        last[:] = [buf, {k: v.copy() for k, v in trainer.params.items()}]
        t0 = clock()
        stats = update(buf)
        rec.add_timed("update_s", clock() - t0)
        bad = [k for k, v in stats.items() if not math.isfinite(v)]
        rec.check(not bad, f"non-finite PPO stats {bad}")
        return stats

    trainer.collect_rollout = timed_collect
    trainer.ppo_update = timed_update
    return last


def _cli(rec: Recorder, argv: list) -> tuple[float, float]:
    """One CLI subcommand as an operation; returns its wall time, and that
    at the reference host speed."""
    op = rec.begin_op()
    t0 = clock()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = latticerl.cli.main([str(a) for a in argv])
    except Exception:
        traceback.print_exc()
        code = "an exception"
    wall = clock() - t0
    ref = rec.add_timed("cli_s", wall)
    rec.check(code == 0, f"{argv[0]} exited with {code}", op)
    return wall, ref


def _read(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _check_outputs(rec: Recorder, eval_out, cov_out, dual_out, ops):
    solved = [e["solved_fraction"] for e in eval_out["per_episode"]]
    solved.append(eval_out["solved_fraction"]["mean"])
    rec.check(all(0.0 <= s <= 1.0 for s in solved),
              "evaluate: solved_fraction outside [0, 1]", ops[0])
    energy = [e["energy"] for e in eval_out["per_episode"]]
    energy.append(eval_out["energy"]["mean"])
    rec.check(all(math.isfinite(e) for e in energy),
              "evaluate: non-finite energy", ops[0])
    eig = cov_out["eigenvalues"]
    explained = cov_out["explained_variance"]
    rec.check(all(v >= 0.0 for v in eig),
              "covariance: negative eigenvalue", ops[1])
    rec.check(all(b >= a for a, b in zip(explained, explained[1:]))
              and abs(explained[-1] - 1.0) <= 1e-9,
              "covariance: cumulative explained variance does not end at 1",
              ops[1])
    ratios = (dual_out["accel_variance_ratio"],
              dual_out["angle_variance_ratio"])
    rec.check(all(math.isfinite(r) and r > 0.0 for r in ratios)
              and 0.0 <= dual_out["wilcoxon_p"] <= 1.0,
              "dual-sim: variance ratio or p-value out of range", ops[2])


def run_checkpoint_eval_cli(seed: int, seconds: float, tracer,
                            rec: Recorder, workdir: Path) -> int:
    """Build a checkpoint from the default RunConfig, then repeat
    evaluate + analyze covariance + analyze dual-sim through cli.main.
    Returns env steps per evaluate subcommand."""
    ckpt = workdir / "checkpoint.json"
    config = RunConfig(seed=seed)
    for k in range(CLI_SETUP_REPS):
        with tracer.segment("setup", k):
            t0 = clock()
            trainer = latticerl.cli.trainer_from_config(config)
            latticerl.trainer.save_checkpoint(ckpt, trainer,
                                              config_echo=config.to_dict())
            rec.add_timed("setup_s", clock() - t0)
        with tracer.paused():
            rec.record.setdefault("params_sha256",
                                  params_digest(trainer.params))
            rec.check(round_trip_ok(trainer, workdir / "round_trip.json"),
                      "checkpoint round trip changed parameters")
    env = make_env(config.env_name, **config.env_kwargs)
    steps = EVAL_EPISODES * env.max_steps
    outputs = {"evaluate": workdir / "evaluate.json",
               "covariance": workdir / "reports" / "covariance.json",
               "dual-sim": workdir / "reports" / "dual_sim.json"}
    deadline = clock() + seconds
    cycle = 0
    while True:
        with tracer.segment("rep", cycle):
            t_eval = _cli(rec, ["evaluate", "--checkpoint", ckpt,
                                "--episodes", EVAL_EPISODES, "--seed", seed,
                                "--out", outputs["evaluate"]])
            t_cov = _cli(rec, ["analyze", "--checkpoint", ckpt,
                               "--analysis", "covariance", "--episodes",
                               ANALYZE_EPISODES, "--seed", seed, "--out",
                               workdir / "reports"])
            t_dual = _cli(rec, ["analyze", "--checkpoint", ckpt,
                                "--analysis", "dual-sim", "--steps",
                                DUAL_SIM_STEPS, "--seed", seed, "--out",
                                workdir / "reports"])
        rec.add("eval_s", t_eval[0])
        rec.add("eval_s_ref", t_eval[1])
        rec.add("analyze_s", t_cov[0] + t_dual[0])
        rec.add("analyze_s_ref", t_cov[1] + t_dual[1])
        rec.add("cycle_s", t_eval[0] + t_cov[0] + t_dual[0])
        ops = list(range(len(rec.ops) - 3, len(rec.ops)))
        if all(rec.ops[i] for i in ops):
            outs = [_read(outputs[k]) for k in ("evaluate", "covariance",
                                                "dual-sim")]
            _check_outputs(rec, *outs, ops)
            digest = hashlib.sha256(
                json.dumps(outs, sort_keys=True).encode()).hexdigest()
            rec.record.setdefault("outputs_sha256", digest)
            rec.check(digest == rec.record["outputs_sha256"],
                      f"cycle {cycle} gave other outputs", ops[0])
        else:
            return steps
        cycle += 1
        if clock() + statistics.median(rec.samples["cycle_s"]) > deadline:
            return steps
