"""Command-line entry point: train / evaluate / analyze / compare.

Every subcommand is a deterministic function of (config, seed, checkpoint).
Exit codes: 0 success, 1 config error, 2 runtime error.
"""

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .config import RunConfig
from .envs import make_env
from .errors import (ConfigError, LatticeError, UnknownAnalysisKind,
                     is_number)
from .reports import CurveWriter, read_json, write_json, write_matrix_csv
from .trainer import (
    PPOTrainer,
    evaluate_policy,
    load_checkpoint,
    run_episodes,
    save_checkpoint,
)

ANALYSIS_KINDS = ("dual-sim", "covariance", "pca", "allocation", "energy")


def trainer_from_config(config: RunConfig) -> PPOTrainer:
    return PPOTrainer(
        env_name=config.env_name,
        env_kwargs=config.env_kwargs,
        strategy=config.strategy,
        lattice_cfg=config.lattice,
        ppo_cfg=config.ppo,
        hiddens=config.hiddens,
        critic_hiddens=config.critic_hiddens,
        activation=config.activation,
        seed=config.seed,
    )


def run_training(config: RunConfig, out_dir: Path) -> Path:
    """Execute a training run; writes config echo, checkpoints, learning
    curves and final metrics into the run directory."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "checkpoints").mkdir(exist_ok=True)
    (out_dir / "reports").mkdir(exist_ok=True)
    config.save(out_dir / "config.json")
    echo = config.to_dict()
    trainer = trainer_from_config(config)
    curves = CurveWriter(out_dir / "curves.csv")

    def on_update(row, stats):
        curves.write_row({**row, **stats})
        u = trainer.updates
        if config.checkpoint_every and u % config.checkpoint_every == 0:
            save_checkpoint(out_dir / "checkpoints" / f"update_{u:06d}.json",
                            trainer, config_echo=echo)

    try:
        trainer.fit(config.total_steps, on_update=on_update,
                    target_solved=config.target_solved)
    finally:
        curves.close()
    save_checkpoint(out_dir / "checkpoints" / "final.json", trainer,
                    config_echo=echo)
    metrics = evaluate_policy(trainer, n_episodes=20, deterministic=False,
                              seed=config.seed)
    metrics["env_steps"] = trainer.env_steps
    metrics["updates"] = trainer.updates
    write_json(out_dir / "metrics.json", metrics)
    return out_dir


def collect_action_log(trainer: PPOTrainer, n_episodes: int,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Stochastic rollouts of the checkpoint policy; returns logged actions
    and the observations they were taken from."""
    states, actions, _, _ = run_episodes(trainer, n_episodes, seed,
                                         deterministic=False)
    return (actions.reshape(-1, trainer.action_dim),
            states.reshape(-1, trainer.obs_dim))


def run_analysis(trainer: PPOTrainer, kind: str, out_dir: Path, *,
                 seed: int, episodes: int, sigma_latent: float,
                 n_steps: int, threshold: float) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    if kind == "dual-sim":
        env = make_env(trainer.env_name, seed=seed, **trainer.env_kwargs)
        rng = np.random.default_rng(seed)
        result = analysis.matched_dual_sim(env, trainer.policy, sigma_latent,
                                           n_steps, rng)
        summary = {
            "accel_variance_ratio": result.accel_variance_ratio,
            "angle_variance_ratio": result.angle_variance_ratio,
            "wilcoxon_p": result.wilcoxon_p,
            "sigma_match": result.sigma_match.tolist(),
        }
        write_json(out_dir / "dual_sim.json", summary)
        return summary
    if kind == "covariance":
        actions, states = collect_action_log(trainer, episodes, seed)
        report = analysis.covariance_report(actions)
        write_matrix_csv(out_dir / "empirical_cov.csv", report.empirical_cov)
        write_matrix_csv(out_dir / "correlation.csv", report.correlation)
        if trainer.strategy != "diagonal":
            write_matrix_csv(out_dir / "analytic_noise_cov.csv",
                             analysis.analytic_latent_noise_cov(
                                 trainer.policy, states, trainer.cfg))
        summary = {
            "pca_defined": report.pca_defined,
            "eigenvalues": report.eigenvalues.tolist(),
            "explained_variance": report.explained_variance.tolist(),
        }
        write_json(out_dir / "covariance.json", summary)
        return summary
    if kind == "pca":
        actions, _ = collect_action_log(trainer, episodes, seed)
        count = analysis.pca_explained_variance(actions, threshold)
        summary = {"threshold": threshold, "component_count": count}
        write_json(out_dir / "pca.json", summary)
        return summary
    if kind == "allocation":
        _, states = collect_action_log(trainer, episodes, seed)
        fractions = analysis.noise_allocation(trainer.policy, states,
                                              trainer.envs.env.actuator_groups,
                                              trainer.cfg)
        write_json(out_dir / "allocation.json", {"fractions": fractions})
        return {"fractions": fractions}
    if kind == "energy":
        metrics = evaluate_policy(trainer, n_episodes=episodes,
                                  deterministic=False, seed=seed)
        summary = {
            "energy": metrics["energy"],
            "per_episode_energy": [e["energy"]
                                   for e in metrics["per_episode"]],
        }
        write_json(out_dir / "energy.json", summary)
        return summary
    raise UnknownAnalysisKind(
        f"unknown analysis kind {kind!r}; expected one of {ANALYSIS_KINDS}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticerl",
        description="Latent time-correlated exploration: training, "
                    "evaluation and diagnostics on desk-scale environments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run PPO training from a config")
    p_train.add_argument("--config", required=True, type=Path)
    p_train.add_argument("--seed", type=int, default=None,
                         help="overrides the config seed")
    p_train.add_argument("--out", type=Path, default=None)

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True, type=Path)
    p_eval.add_argument("--episodes", type=int, default=100)
    p_eval.add_argument("--deterministic", action="store_true")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--out", type=Path, default=None)

    p_an = sub.add_parser("analyze", help="run a diagnostic analysis")
    p_an.add_argument("--checkpoint", required=True, type=Path)
    p_an.add_argument("--analysis", required=True, choices=ANALYSIS_KINDS)
    p_an.add_argument("--out", type=Path, default=Path("reports"))
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--episodes", type=int, default=20)
    p_an.add_argument("--sigma-latent", type=float, default=0.1)
    p_an.add_argument("--steps", type=int, default=20_000)
    p_an.add_argument("--threshold", type=float, default=0.9)

    p_cmp = sub.add_parser("compare", help="tabulate metrics across runs")
    p_cmp.add_argument("runs", nargs="+", type=Path)
    p_cmp.add_argument("--out", type=Path, default=None)
    return parser


def _cmd_train(args) -> int:
    config = RunConfig.load(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    out_dir = args.out if args.out is not None else (
        Path(config.out_dir) if config.out_dir else Path("runs") / "run")
    run_training(config, out_dir)
    print(out_dir)
    return 0


def _require(ok: bool, message: str):
    """Refuse a bad argument before any checkpoint is loaded."""
    if not ok:
        raise ConfigError(message)


def _cmd_evaluate(args) -> int:
    _require(args.episodes >= 1, "--episodes must be >= 1")
    _require(args.seed >= 0, "--seed must be >= 0")
    trainer = load_checkpoint(args.checkpoint)
    metrics = evaluate_policy(trainer, n_episodes=args.episodes,
                              deterministic=args.deterministic,
                              seed=args.seed)
    if args.out is not None:
        write_json(args.out, metrics)
    else:
        print(json.dumps({k: v for k, v in metrics.items()
                          if k != "per_episode"}, indent=2, sort_keys=True))
    return 0


def _cmd_analyze(args) -> int:
    _require(args.episodes >= 1, "--episodes must be >= 1")
    _require(args.seed >= 0, "--seed must be >= 0")
    _require(args.steps >= 2, "--steps must be >= 2 (variances need two)")
    _require(0.0 < args.sigma_latent < math.inf,
             "--sigma-latent must be a finite number > 0")
    _require(0.0 < args.threshold <= 1.0, "--threshold must lie in (0, 1]")
    trainer = load_checkpoint(args.checkpoint)
    summary = run_analysis(trainer, args.analysis, args.out, seed=args.seed,
                           episodes=args.episodes,
                           sigma_latent=args.sigma_latent,
                           n_steps=args.steps, threshold=args.threshold)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


# compare's columns from a run's metrics.json, by dotted field
COMPARE_METRICS = (("reward_mean", "reward.mean"),
                   ("reward_sem", "reward.sem"),
                   ("solved_mean", "solved_fraction.mean"),
                   ("solved_sem", "solved_fraction.sem"),
                   ("energy_mean", "energy.mean"),
                   ("energy_sem", "energy.sem"))


def _read_run_file(path: Path) -> dict:
    """A run directory's JSON object; a malformed file is a LatticeError
    that names it."""
    try:
        doc = read_json(path)
    except ValueError as exc:
        raise LatticeError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise LatticeError(f"{path}: expected a JSON object")
    return doc


def _run_field(doc: dict, path: Path, field: str):
    """doc's value at the dotted field, or a LatticeError naming the file
    and the field."""
    value = doc
    for key in field.split("."):
        if not isinstance(value, dict) or key not in value:
            raise LatticeError(f"{path}: missing field {field!r}")
        value = value[key]
    return value


def _cmd_compare(args) -> int:
    rows = []
    for run_dir in args.runs:
        metrics_path = Path(run_dir) / "metrics.json"
        config_path = Path(run_dir) / "config.json"
        metrics = _read_run_file(metrics_path)
        config = _read_run_file(config_path)
        row = {"run": str(run_dir),
               "strategy": _run_field(config, config_path, "strategy"),
               "seed": _run_field(config, config_path, "seed"),
               "env_steps": metrics.get("env_steps")}
        for column, field in COMPARE_METRICS:
            value = _run_field(metrics, metrics_path, field)
            if not is_number(value):
                raise LatticeError(
                    f"{metrics_path}: field {field!r} is not a number")
            row[column] = value
        rows.append(row)
    payload = {"runs": rows}
    if args.out is not None:
        write_json(args.out, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"train": _cmd_train, "evaluate": _cmd_evaluate,
                "analyze": _cmd_analyze, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (LatticeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
