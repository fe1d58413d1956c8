"""Run configuration schema and CSV/JSON artifact persistence."""

import json

import numpy as np
import pytest

from latticerl.config import RunConfig
from latticerl.errors import ConfigError
from latticerl.reports import (
    CurveWriter,
    read_curves,
    read_json,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
)


class TestRunConfig:
    def test_defaults_valid(self):
        cfg = RunConfig()
        assert cfg.env_name == "flex_ext_arm"
        assert cfg.strategy == "lattice"
        assert cfg.schema_version == 1

    def test_roundtrip(self, tmp_path):
        cfg = RunConfig(env={"name": "point_reacher", "pairs_per_axis": 3},
                        strategy="gsde", seed=7, total_steps=500)
        path = tmp_path / "config.json"
        cfg.save(path)
        loaded = RunConfig.load(path)
        assert loaded == cfg
        assert loaded.env_kwargs == {"pairs_per_axis": 3}

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            RunConfig.from_dict({"strategy": "lattice", "optimiser": "sgd"})

    def test_bad_strategy(self):
        with pytest.raises(ConfigError, match="strategy"):
            RunConfig.from_dict({"strategy": "ou_noise"})

    def test_bad_env(self):
        with pytest.raises(ConfigError, match="env.name"):
            RunConfig.from_dict({"env": {"name": "cartpole"}})

    def test_bad_nested_lattice(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"lattice": {"alpha": 3.0}})

    @pytest.mark.parametrize("field,value", [
        ("batch_size", 0), ("gradient_steps", 0), ("n_epochs", 0),
        ("n_envs", 0), ("learning_rate", -1e-3), ("learning_rate", float("nan")),
        ("clip_range", 0.0), ("batch_size", 32.5), ("n_envs", True),
        ("gradient_steps", 8.0), ("n_epochs", "2"), ("gamma", float("nan")),
        ("gamma", 1.5), ("gae_lambda", float("nan")), ("gae_lambda", -0.1),
        ("entropy_coef", -1e-3), ("entropy_coef", float("inf")),
        ("value_coef", float("nan")), ("max_grad_norm", 0.0),
        ("max_grad_norm", float("inf")), ("learning_rate", float("inf")),
        ("clip_range", True), ("clip_range", float("nan"))])
    def test_bad_nested_ppo(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig.from_dict({"ppo": {field: value}})

    @pytest.mark.parametrize("field,value", [
        ("period", 2.5), ("period", True), ("gamma", float("nan")),
        ("gamma", float("inf")), ("init_log_std", float("inf")),
        ("init_log_std", float("nan")), ("alpha", True),
        ("rescale", "no"), ("stop_variance_gradient", 1),
        ("full_std", "no"), ("std_min", True), ("std_max", True),
        ("std_min", float("nan")), ("std_max", float("nan"))])
    def test_bad_lattice_value(self, field, value):
        # each of these used to train: at a silently truncated period, or
        # until a non-finite gradient or action stopped the run
        with pytest.raises(ConfigError, match=f"field 'lattice': {field}"):
            RunConfig.from_dict({"lattice": {field: value}})

    def test_integral_values_for_float_fields(self):
        cfg = RunConfig.from_dict({
            "lattice": {"gamma": 0, "init_log_std": -1, "period": 4},
            "ppo": {"gamma": 1, "gae_lambda": 0, "entropy_coef": 0,
                    "max_grad_norm": 1}})
        assert cfg.lattice.period_steps == 4
        assert cfg.ppo.gamma == 1

    def test_infinite_clip_bounds_mean_no_clip(self):
        cfg = RunConfig.from_dict({"lattice": {"std_max": float("inf")},
                                   "ppo": {"clip_range": float("inf")}})
        assert cfg.lattice.std_max == float("inf")
        assert cfg.ppo.clip_range == float("inf")

    @pytest.mark.parametrize("raw,field", [
        ({"seed": -1}, "seed"), ({"activation": "sigmoid"}, "activation"),
        ({"hiddens": [0]}, "hiddens"),
        ({"critic_hiddens": [64, -1]}, "critic_hiddens"),
        ({"env": {"name": "flex_ext_arm", "max_steps": 0}}, "max_steps"),
        ({"env": {"name": "point_reacher", "max_steps": 0}}, "max_steps"),
        ({"env": {"name": "flex_ext_arm", "n_joints": 2}}, "n_joints"),
        ({"env": ["x"]}, "env"), ({"out_dir": 5}, "out_dir"),
        ({"schema_version": 99}, "schema_version")])
    def test_bad_run_field(self, raw, field):
        with pytest.raises(ConfigError, match=field):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("raw,field", [
        ({"total_steps": "abc"}, "total_steps"),
        ({"total_steps": 0}, "total_steps"),
        ({"total_steps": 1.5}, "total_steps"),
        ({"checkpoint_every": -1}, "checkpoint_every"),
        ({"checkpoint_every": True}, "checkpoint_every"),
        ({"target_solved": "x"}, "target_solved"),
        ({"target_solved": 1.5}, "target_solved"),
        ({"target_solved": float("nan")}, "target_solved"),
        ({"env": {"name": "flex_ext_arm", "n_flexors": 0}}, "n_flexors"),
        ({"env": {"name": "flex_ext_arm", "n_extensors": 0}}, "n_extensors"),
        ({"env": {"name": "point_reacher", "pairs_per_axis": 0}},
         "pairs_per_axis")])
    def test_bad_budget_or_group_field(self, raw, field):
        with pytest.raises(ConfigError, match=field):
            RunConfig.from_dict(raw)

    @pytest.mark.parametrize("target", [None, 0, 0.5, 1])
    def test_target_solved_accepted(self, target):
        assert RunConfig.from_dict(
            {"target_solved": target}).target_solved == target

    def test_empty_hiddens_allowed(self):
        assert RunConfig.from_dict({"hiddens": []}).hiddens == []

    def test_invalid_json_diagnostics(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "strategy": lattice\n}\n')
        with pytest.raises(ConfigError, match="line 2"):
            RunConfig.load(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.load(tmp_path / "absent.json")


class TestMatrixCsv:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        mat = rng.standard_normal((4, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, mat)
        np.testing.assert_array_equal(read_matrix_csv(path), mat)

    def test_long_form_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(path, np.array([[1.5, 2.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "row,col,value"
        assert lines[1] == "0,0,1.5"
        assert lines[2] == "0,1,2.0"


class TestJson:
    def test_roundtrip(self, tmp_path):
        payload = {"a": 1, "b": [1.5, 2.5], "c": {"d": "x"}}
        path = tmp_path / "p.json"
        write_json(path, payload)
        assert read_json(path) == payload


class TestCurves:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "curves.csv"
        writer = CurveWriter(path)
        stats = {"pg_loss": -0.01, "value_loss": 2.5, "approx_kl": 1e-4,
                 "clip_fraction": 0.0625, "grad_norm": 0.7}
        rows = [
            {"update": 1, "env_steps": 64, "mean_episode_reward": -3.25,
             "solved_fraction": 0.125, "energy": 0.5,
             "mean_entropy": 1.0 / 3.0, "wall_time_s": 0.01, **stats},
            {"update": 2, "env_steps": 128, "mean_episode_reward": -1.0,
             "solved_fraction": 0.25, "energy": 0.4,
             "mean_entropy": 0.2, "wall_time_s": 0.02, **stats},
        ]
        for row in rows:
            writer.write_row(row)
        writer.close()
        curves = read_curves(path)
        assert list(curves) == CurveWriter.COLUMNS
        np.testing.assert_array_equal(curves["update"], [1, 2])
        # repr-format floats survive the round trip exactly
        assert curves["mean_entropy"][0] == 1.0 / 3.0

    def test_reads_seven_column_files(self, tmp_path):
        # curves.csv as written before the PPO statistics columns
        path = tmp_path / "curves.csv"
        path.write_text(
            "update,env_steps,mean_episode_reward,solved_fraction,energy,"
            "mean_entropy,wall_time_s\n"
            "1,64,-3.25,0.125,0.5,0.3333333333333333,0.01\n"
            "2,128,-1.0,0.25,0.4,0.2,0.02\n")
        curves = read_curves(path)
        assert list(curves) == ["update", "env_steps", "mean_episode_reward",
                                "solved_fraction", "energy", "mean_entropy",
                                "wall_time_s"]
        np.testing.assert_array_equal(curves["env_steps"], [64, 128])
        assert curves["mean_entropy"][0] == 1.0 / 3.0

    def test_header_order(self, tmp_path):
        path = tmp_path / "curves.csv"
        CurveWriter(path).close()
        assert path.read_text().splitlines()[0] == ",".join(
            CurveWriter.COLUMNS)
