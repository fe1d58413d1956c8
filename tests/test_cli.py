"""Command-line interface: run directories, determinism, exit codes."""

import json

import numpy as np
import pytest

from latticerl.cli import ANALYSIS_KINDS, main, run_analysis, run_training
from latticerl.config import RunConfig
from latticerl.errors import UnknownAnalysisKind
from latticerl.exploration import LatticeConfig
from latticerl.reports import read_curves, read_json, read_matrix_csv
from latticerl.trainer import PpoConfig, load_checkpoint


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
        config = tiny_config(total_steps=64, checkpoint_every=1)
        out = run_training(config, tmp_path / "run")
        names = sorted(p.name for p in (out / "checkpoints").iterdir())
        assert "update_000001.json" in names
        assert "update_000002.json" in names

    def test_config_echo_reproduces_trainer(self, tmp_path):
        out = run_training(tiny_config(seed=5), tmp_path / "run")
        echoed = RunConfig.load(out / "config.json")
        assert echoed.seed == 5
        trainer = load_checkpoint(out / "checkpoints" / "final.json")
        assert trainer.seed == 5
        assert trainer.strategy == "lattice"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    out = run_training(tiny_config(), tmp_path_factory.mktemp("cli") / "run")
    return load_checkpoint(out / "checkpoints" / "final.json")


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
        {"env": {"name": "flex_ext_arm", "max_steps": 0}}])
    def test_invalid_run_field_exit_code(self, tmp_path, capsys, raw):
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(raw))
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "run").exists()

    def test_invalid_seed_override_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "cfg.json", tiny_config())
        assert main(["train", "--config", str(path), "--seed", "-1",
                     "--out", str(tmp_path / "run")]) == 1
        assert "field 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_runtime_error_exit_code(self, tmp_path, capsys):
        assert main(["evaluate", "--checkpoint",
                     str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_analysis_kinds_constant(self):
        assert set(ANALYSIS_KINDS) == {"dual-sim", "covariance", "pca",
                                       "allocation", "energy"}
