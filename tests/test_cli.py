"""Command-line interface: run directories, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from latticerl import cli
from latticerl.analysis import analytic_latent_noise_cov
from latticerl.cli import (
    ANALYSIS_KINDS,
    collect_action_log,
    main,
    run_analysis,
    run_training,
)
from latticerl.config import RunConfig
from latticerl.errors import UnknownAnalysisKind
from latticerl.exploration import LatticeConfig
from latticerl.reports import read_json
from latticerl.trainer import PpoConfig, load_checkpoint, save_checkpoint

from conftest import SCHEMA1_CHECKPOINT
from report_readers import read_curves, read_matrix_csv


def tiny_config(**overrides):
    base = dict(
        env={"name": "flex_ext_arm"},
        strategy="lattice",
        lattice=LatticeConfig(),
        ppo=PpoConfig(learning_rate=1e-3, batch_size=16, gradient_steps=8,
                      n_epochs=2, n_envs=2),
        hiddens=[8, 8],
        critic_hiddens=[8, 8],
        seed=0,
        total_steps=32,
    )
    base.update(overrides)
    return RunConfig(**base)


def small_budget():
    """A raw config that trains in a moment, so a config check that
    regresses fails a test quickly instead of training for minutes."""
    return {"total_steps": 32, "hiddens": [8], "critic_hiddens": [8],
            "ppo": {"gradient_steps": 8, "n_envs": 2, "batch_size": 16,
                    "n_epochs": 1}}


def write_config(path, config):
    config.save(path)
    return path


def curves_without_walltime(path):
    curves = read_curves(path)
    return {k: v for k, v in curves.items() if k != "wall_time_s"}


class TestRunTraining:
    def test_artifacts_present(self, tmp_path):
        out = run_training(tiny_config(), tmp_path / "run")
        assert (out / "config.json").is_file()
        assert (out / "curves.csv").is_file()
        assert (out / "metrics.json").is_file()
        assert (out / "checkpoints" / "final.json").is_file()
        assert (out / "reports").is_dir()
        metrics = read_json(out / "metrics.json")
        assert metrics["env_steps"] == 32
        assert "reward" in metrics

    def test_deterministic_curves(self, tmp_path):
        a = run_training(tiny_config(), tmp_path / "a")
        b = run_training(tiny_config(), tmp_path / "b")
        ca = curves_without_walltime(a / "curves.csv")
        cb = curves_without_walltime(b / "curves.csv")
        for key in ca:
            np.testing.assert_array_equal(ca[key], cb[key])
        pa = json.loads((a / "checkpoints" / "final.json").read_text())
        pb = json.loads((b / "checkpoints" / "final.json").read_text())
        assert pa["params"] == pb["params"]

    def test_periodic_checkpoints(self, tmp_path):
        # five updates of 16 env steps, a checkpoint after every second; each
        # holds the parameters after the update it names
        config = tiny_config(total_steps=80, checkpoint_every=2)
        out = run_training(config, tmp_path / "run")
        names = sorted(p.name for p in (out / "checkpoints").iterdir())
        assert names == ["final.json", "update_000002.json",
                         "update_000004.json"]
        reference = cli.trainer_from_config(config)
        reference.fit(2 * config.ppo.gradient_steps * config.ppo.n_envs)
        assert reference.updates == 2
        saved = load_checkpoint(out / "checkpoints" / "update_000002.json")
        assert (saved.updates, saved.env_steps) == (2, reference.env_steps)
        for k, v in reference.params.items():
            assert saved.params[k].tobytes() == v.tobytes(), k
        final = read_json(out / "checkpoints" / "final.json")
        for name in names[1:]:
            payload = read_json(out / "checkpoints" / name)
            assert payload["config_echo"] == final["config_echo"]

    def test_curves_carry_ppo_statistics(self, tmp_path):
        config = tiny_config(total_steps=48)
        out = run_training(config, tmp_path / "run")
        curves = read_curves(out / "curves.csv")
        stats = []
        cli.trainer_from_config(config).fit(
            config.total_steps, on_update=lambda row, s: stats.append(s))
        assert len(curves["update"]) == len(stats) == 3
        for key in ("pg_loss", "value_loss", "approx_kl", "clip_fraction",
                    "grad_norm"):
            np.testing.assert_array_equal(curves[key],
                                          [s[key] for s in stats])
        assert (curves["grad_norm"] > 0.0).all()
        # the wall clock stays the last column
        header = (out / "curves.csv").read_text().splitlines()[0]
        assert header.split(",")[-1] == "wall_time_s"

    def test_config_echo_reproduces_trainer(self, tmp_path):
        out = run_training(tiny_config(seed=5), tmp_path / "run")
        echoed = RunConfig.load(out / "config.json")
        assert echoed.seed == 5
        trainer = load_checkpoint(out / "checkpoints" / "final.json")
        assert trainer.seed == 5
        assert trainer.strategy == "lattice"


def train_and_load(out_dir, **overrides):
    """The trainer of the final checkpoint of a tiny_config run."""
    out = run_training(tiny_config(**overrides), out_dir)
    return load_checkpoint(out / "checkpoints" / "final.json")


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    return train_and_load(tmp_path_factory.mktemp("cli") / "run")


class TestAnalyze:
    def test_dual_sim(self, trained, tmp_path):
        summary = run_analysis(trained, "dual-sim", tmp_path, seed=0,
                               n_steps=500)
        assert np.isfinite(summary["accel_variance_ratio"])
        assert (tmp_path / "dual_sim.json").is_file()

    def test_covariance_roundtrip(self, trained, tmp_path):
        summary = run_analysis(trained, "covariance", tmp_path, seed=0,
                               episodes=3)
        emp = read_matrix_csv(tmp_path / "empirical_cov.csv")
        assert emp.shape == (6, 6)
        saved = read_json(tmp_path / "covariance.json")
        assert saved["eigenvalues"] == summary["eigenvalues"]
        analytic = read_matrix_csv(tmp_path / "analytic_noise_cov.csv")
        assert analytic.shape == (6, 6)

    @pytest.mark.parametrize("strategy", ["lattice", "gsde"])
    def test_analytic_noise_cov_csv(self, strategy, tmp_path):
        trainer = train_and_load(tmp_path / "run", strategy=strategy)
        run_analysis(trainer, "covariance", tmp_path, seed=3, episodes=2)
        _, states = collect_action_log(trainer, 2, 3)
        expected = analytic_latent_noise_cov(trainer.policy, states,
                                             trainer.cfg)
        written = read_matrix_csv(tmp_path / "analytic_noise_cov.csv")
        assert written.tobytes() == expected.tobytes()

    def test_diagonal_writes_no_analytic_noise_cov(self, tmp_path):
        trainer = train_and_load(tmp_path / "run", strategy="diagonal")
        run_analysis(trainer, "covariance", tmp_path, seed=3, episodes=2)
        assert (tmp_path / "empirical_cov.csv").is_file()
        assert not (tmp_path / "analytic_noise_cov.csv").exists()

    def test_pca(self, trained, tmp_path):
        summary = run_analysis(trained, "pca", tmp_path, seed=0, episodes=2,
                               threshold=0.9)
        assert summary["component_count"] >= 1
        assert isinstance(summary["component_count"], int)

    def test_allocation(self, trained, tmp_path):
        summary = run_analysis(trained, "allocation", tmp_path, seed=0,
                               episodes=2)
        fractions = summary["fractions"]
        assert set(fractions) == {"extensors", "flexors"}
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-10)

    def test_energy(self, trained, tmp_path):
        summary = run_analysis(trained, "energy", tmp_path, seed=0,
                               episodes=3)
        assert summary["energy"]["mean"] >= 0.0
        assert len(summary["per_episode_energy"]) == 3

    def test_unknown_kind(self, trained, tmp_path):
        with pytest.raises(UnknownAnalysisKind):
            run_analysis(trained, "tsne", tmp_path)


class TestMainEntry:
    def test_train_and_evaluate(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "config.json", tiny_config())
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path),
                     "--out", str(out_dir)]) == 0
        ckpt = out_dir / "checkpoints" / "final.json"
        metrics_path = tmp_path / "eval.json"
        assert main(["evaluate", "--checkpoint", str(ckpt),
                     "--episodes", "3", "--seed", "1",
                     "--out", str(metrics_path)]) == 0
        metrics = read_json(metrics_path)
        assert metrics["n_episodes"] == 3

    def test_seed_override(self, tmp_path):
        cfg_path = write_config(tmp_path / "config.json", tiny_config(seed=0))
        out_dir = tmp_path / "run"
        assert main(["train", "--config", str(cfg_path), "--seed", "9",
                     "--out", str(out_dir)]) == 0
        assert read_json(out_dir / "config.json")["seed"] == 9

    def test_analyze_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path / "config.json", tiny_config())
        out_dir = tmp_path / "run"
        main(["train", "--config", str(cfg_path), "--out", str(out_dir)])
        ckpt = out_dir / "checkpoints" / "final.json"
        rc = main(["analyze", "--checkpoint", str(ckpt), "--analysis", "pca",
                   "--out", str(tmp_path / "reports"), "--episodes", "2"])
        assert rc == 0
        summary = read_json(tmp_path / "reports" / "pca.json")
        assert summary["component_count"] >= 1

    def test_compare_subcommand(self, tmp_path):
        cfg_path = write_config(tmp_path / "config.json", tiny_config())
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["train", "--config", str(cfg_path), "--out", str(a)])
        main(["train", "--config", str(cfg_path), "--seed", "1",
              "--out", str(b)])
        table_path = tmp_path / "table.json"
        assert main(["compare", str(a), str(b),
                     "--out", str(table_path)]) == 0
        table = read_json(table_path)
        assert len(table["runs"]) == 2
        assert table["runs"][0]["strategy"] == "lattice"

    @pytest.mark.parametrize("raw, field", [
        ("{bad", "not valid JSON"),
        ('{"reward": {"mean": 1}}', "missing field 'reward.sem'"),
        ('{"reward": {"mean": 1, "sem": "x"}}',
         "field 'reward.sem' is not a number"),
        ("[1]", "expected a JSON object"),
    ], ids=["json", "missing", "not-number", "not-object"])
    def test_compare_malformed_metrics_exit_code(self, tmp_path, capsys,
                                                 raw, field):
        # a malformed run directory is a runtime error naming file and field
        run = tmp_path / "run"
        run.mkdir()
        write_config(run / "config.json", tiny_config())
        (run / "metrics.json").write_text(raw)
        assert main(["compare", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(run / "metrics.json") in err and field in err

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        assert main(["train", "--config", str(bad)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_invalid_ppo_field_exit_code(self, tmp_path, capsys):
        # a zero batch size used to escape as a range() traceback
        path = tmp_path / "zero_batch.json"
        path.write_text(json.dumps({"ppo": {"batch_size": 0}}))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "batch_size" in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("raw", [
        {"seed": -1}, {"activation": "sigmoid"}, {"hiddens": [0]},
        {"env": {"name": "flex_ext_arm", "max_steps": 0}}, {"env": ["x"]},
        {"out_dir": 5}])
    def test_invalid_run_field_exit_code(self, tmp_path, capsys, raw):
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps({**small_budget(), **raw}))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("raw", [
        {"total_steps": "abc"}, {"checkpoint_every": -1},
        {"target_solved": "x"},
        {"env": {"name": "flex_ext_arm", "n_flexors": 0}},
        {"env": {"name": "point_reacher", "pairs_per_axis": 0}}])
    def test_invalid_budget_or_group_exit_code(self, tmp_path, capsys, raw):
        # these used to write a partial run directory, then die with a
        # traceback, checkpoint at every update, or fail at run time (exit 2)
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps({**small_budget(), **raw}))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section,field,value", [
        ("lattice", "period", 2.5), ("lattice", "period", True),
        ("lattice", "gamma", float("nan")),
        ("lattice", "init_log_std", float("inf")),
        ("lattice", "alpha", True), ("lattice", "full_std", "no"),
        ("ppo", "batch_size", 32.5), ("ppo", "gamma", float("nan")),
        ("ppo", "gae_lambda", float("nan")),
        ("ppo", "max_grad_norm", 0.0), ("lattice", "std_min", True),
        ("lattice", "std_max", True), ("ppo", "clip_range", True)])
    def test_invalid_lattice_or_ppo_value_exit_code(self, tmp_path, capsys,
                                                    section, field, value):
        # these used to train at a truncated period, die with a TypeError
        # traceback, or exit 2 mid-run after writing a partial run directory
        small = small_budget()
        small.setdefault(section, {})[field] = value
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(small))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field '{section}': {field}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("name,field,value", [
        ("flex_ext_arm", "target_range", float("inf")),
        ("flex_ext_arm", "gain", float("nan")),
        ("flex_ext_arm", "max_steps", 2.5), ("flex_ext_arm", "dt", -0.02),
        ("flex_ext_arm", "n_flexors", True),
        ("point_reacher", "pairs_per_axis", "3"),
        ("point_reacher", "solved_radius", 0.0)])
    def test_invalid_env_value_exit_code(self, tmp_path, capsys, name, field,
                                         value):
        # these used to exit 1 with an OverflowError traceback, exit 2 on a
        # "singular" covariance, or train at 2 steps or on reversed time
        path = tmp_path / "bad_env.json"
        path.write_text(json.dumps({**small_budget(),
                                    "env": {"name": name, field: value}}))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: field 'env': {field}")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_invalid_seed_override_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", tiny_config())
        assert main(["train", "--config", str(path), "--seed", "-1",
                     "--out", str(tmp_path / "run")]) == 1
        assert "field 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--episodes", "0"], ["evaluate", "--episodes", "-2"],
        ["evaluate", "--seed", "-1"],
        ["analyze", "--analysis", "dual-sim", "--steps", "10", "--seed",
         "-1"],
        ["analyze", "--analysis", "covariance", "--episodes", "0"],
        ["analyze", "--analysis", "dual-sim", "--steps", "0"],
        ["analyze", "--analysis", "dual-sim", "--steps", "1"],
        ["analyze", "--analysis", "dual-sim", "--steps", "10",
         "--sigma-latent", "-1"],
        ["analyze", "--analysis", "pca", "--threshold", "2"]])
    def test_bad_count_or_range_exit_code(self, tmp_path, capsys,
                                          monkeypatch, argv):
        # these used to print NaN means or variance ratios (and write them
        # with --out), end in a numpy AxisError or ValueError traceback, or
        # run without complaint
        loaded = []

        def spy(path):
            loaded.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(cli, "load_checkpoint", spy)
        out = tmp_path / "out"
        assert main([*argv, "--checkpoint", str(SCHEMA1_CHECKPOINT),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert loaded == [] and not out.exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        assert main(["evaluate", "--checkpoint",
                     str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_corrupt_checkpoint_exit_code(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        payload = json.loads(SCHEMA1_CHECKPOINT.read_text())
        payload["schema_version"] = 99
        ckpt.write_text(json.dumps(payload))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "schema_version 99" in err

    @pytest.mark.parametrize("field", ["hiddens", "critic_hiddens"])
    def test_zero_width_layer_checkpoint_exit_code(self, tmp_path, capsys,
                                                   field):
        # used to end in a ZeroDivisionError traceback from Mlp
        ckpt = tmp_path / "ckpt.json"
        payload = json.loads(SCHEMA1_CHECKPOINT.read_text())
        payload["layout"][field] = [0]
        ckpt.write_text(json.dumps(payload))
        assert main(["evaluate", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err

    def test_schema1_checkpoint_evaluates_as_schema2(self, tmp_path):
        resaved = tmp_path / "schema2.json"
        save_checkpoint(resaved, load_checkpoint(SCHEMA1_CHECKPOINT))
        outputs = []
        for ckpt in (SCHEMA1_CHECKPOINT, resaved):
            out = tmp_path / f"{ckpt.stem}_eval.json"
            assert main(["evaluate", "--checkpoint", str(ckpt),
                         "--episodes", "3", "--seed", "1",
                         "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_analysis_kinds_constant(self):
        assert set(ANALYSIS_KINDS) == {"dual-sim", "covariance", "pca",
                                       "allocation", "energy"}


IMPORT_FOOTPRINT = """
import sys
import latticerl
import latticerl.cli
checkpoint = sys.argv[1]
for kind in sys.argv[2:]:
    argv = (["evaluate", "--checkpoint", checkpoint, "--episodes", "2"]
            if kind == "evaluate" else
            ["analyze", "--checkpoint", checkpoint, "--analysis", kind,
             "--episodes", "2", "--steps", "200", "--out", "reports"])
    assert latticerl.cli.main(argv) == 0, argv
# scipy's own import loads only its private modules and scipy.version
print(sorted({m.split(".")[1] for m in sys.modules
              if m.startswith("scipy.") and not m.startswith("scipy._")}
             - {"version"}) if "scipy" in sys.modules else None)
"""


def scipy_footprint(tmp_path, *kinds) -> str:
    """The scipy subpackages a fresh process has loaded after running the
    given subcommands on the ReLU SCHEMA1_CHECKPOINT, or None."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT, str(SCHEMA1_CHECKPOINT),
         *kinds],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True)
    return done.stdout.strip().splitlines()[-1]


def test_relu_cli_does_not_import_scipy(tmp_path):
    # scipy.special takes ~0.2 s and ~17 MiB to import, scipy.stats most of
    # a second and ~60 MiB more; only GELU activations and the dual sim's
    # p-value use scipy.special, and only a dual sim of 50 steps or fewer
    # scipy.stats
    assert scipy_footprint(tmp_path, "evaluate", "covariance", "pca",
                           "allocation", "energy") == "None"


def test_dual_sim_imports_only_scipy_special(tmp_path):
    assert scipy_footprint(tmp_path, "dual-sim") == "['special']"
