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
        ("clip_range", 0.0)])
    def test_bad_nested_ppo(self, field, value):
        with pytest.raises(ConfigError, match=field):
            RunConfig.from_dict({"ppo": {field: value}})

    @pytest.mark.parametrize("raw,field", [
        ({"seed": -1}, "seed"), ({"activation": "sigmoid"}, "activation"),
        ({"hiddens": [0]}, "hiddens"),
        ({"critic_hiddens": [64, -1]}, "critic_hiddens"),
        ({"env": {"name": "flex_ext_arm", "max_steps": 0}}, "max_steps"),
        ({"env": {"name": "point_reacher", "max_steps": 0}}, "max_steps"),
        ({"env": {"name": "flex_ext_arm", "n_joints": 2}}, "n_joints")])
    def test_bad_run_field(self, raw, field):
        with pytest.raises(ConfigError, match=field):
            RunConfig.from_dict(raw)

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
        rows = [
            {"update": 1, "env_steps": 64, "mean_episode_reward": -3.25,
             "solved_fraction": 0.125, "energy": 0.5,
             "mean_entropy": 1.0 / 3.0, "wall_time_s": 0.01},
            {"update": 2, "env_steps": 128, "mean_episode_reward": -1.0,
             "solved_fraction": 0.25, "energy": 0.4,
             "mean_entropy": 0.2, "wall_time_s": 0.02},
        ]
        for row in rows:
            writer.write_row(row)
        writer.close()
        curves = read_curves(path)
        assert list(curves) == CurveWriter.COLUMNS
        np.testing.assert_array_equal(curves["update"], [1, 2])
        # repr-format floats survive the round trip exactly
        assert curves["mean_entropy"][0] == 1.0 / 3.0

    def test_header_order(self, tmp_path):
        path = tmp_path / "curves.csv"
        CurveWriter(path).close()
        assert path.read_text().splitlines()[0] == ",".join(
            CurveWriter.COLUMNS)
