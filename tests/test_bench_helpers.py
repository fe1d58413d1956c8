"""The benchmark's training helpers on tiny trainers, so a library change
that would break a benchmark run (fit, collect_rollout / ppo_update, the
DistInternals fields the noise check reads, checkpoints) fails here."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from latticerl.exploration import LatticeConfig
from latticerl.trainer import PPOTrainer, PpoConfig

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    """perfbench/workloads.py loaded by path, without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location("_perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("strategy,period,full_std", [
    ("lattice", 4, False), ("diagonal", 1, False), ("lattice", 4, True)],
    ids=["lattice-4", "diagonal-1", "lattice-4-full_std"])
def test_training_helpers(strategy, period, full_std, tmp_path):
    # full_std reads the stored factors, reduced stds the eigenbasis ones
    ppo = PpoConfig(batch_size=16, gradient_steps=8, n_epochs=1, n_envs=2)
    cfg = LatticeConfig(alpha=1.0, period=period, full_std=full_std)
    trainer = PPOTrainer("point_reacher", strategy=strategy,
                         lattice_cfg=cfg,
                         ppo_cfg=ppo, hiddens=(8, 8), critic_hiddens=(8, 8),
                         seed=0)
    rec = workloads.Recorder()
    last = workloads._time_phases(trainer, rec)
    trainer.fit(ppo.gradient_steps * ppo.n_envs)
    assert trainer.updates == 1
    assert rec.failures == [] and rec.ops == [True]
    assert len(rec.samples["rollout_s"]) == len(rec.samples["update_s"]) == 1
    ms, expected = workloads.whitened_noise(trainer, *last)
    assert math.isfinite(ms) and ms > 0.0
    assert 0.0 < expected <= 1.0
    assert workloads.round_trip_ok(trainer, tmp_path / "round_trip.json")
