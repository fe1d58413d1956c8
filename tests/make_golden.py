"""Digests of short training, evaluation and analysis runs, and the script
that writes them to tests/data/golden_digests.json:

    PYTHONPATH=src python tests/make_golden.py

Each configuration hashes what its run leaves behind: curve rows (without
wall_time_s), PPO stats, final parameters, Adam's moments, the saved
checkpoint's bytes, a stochastic and a deterministic evaluation and a
stochastic predict; or the rollout, episodes or analysis files it names.
test_golden.py recomputes every digest and names each one that moved.

A digest is a fact about one platform, so the file also records numpy's
version, its BLAS, the SIMD extensions numpy found and the machine; where
any of them differs the test skips. A change that moves bytes on purpose
regenerates the file in the same commit.
"""

import hashlib
import json
import platform
import struct
import tempfile
from pathlib import Path

import numpy as np

from latticerl import exploration
from latticerl import trainer as trainer_mod
from latticerl.cli import run_analysis
from latticerl.exploration import LatticeConfig
from latticerl.trainer import PpoConfig, PPOTrainer, evaluate_policy

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"

EPISODE_STEPS = 20
SMALL_PPO = dict(learning_rate=1e-3, batch_size=32, gradient_steps=30,
                 n_epochs=2, n_envs=4)
TOTAL_STEPS = 1_200

# name: (strategy, LatticeConfig fields, activation); the re-anchor's 13
# noise settings, each run on both envs
VARIANTS = {
    "diagonal": ("diagonal", {}, "relu"),
    "gsde_p1": ("gsde", dict(period=1), "relu"),
    "gsde_episode": ("gsde", dict(period="episode"), "relu"),
    "lattice_p1": ("lattice", dict(period=1), "relu"),
    "lattice_p3": ("lattice", dict(period=3), "relu"),
    "lattice_episode": ("lattice", dict(period="episode"), "relu"),
    "full_std_p1": ("lattice", dict(period=1, full_std=True), "relu"),
    "full_std_p4": ("lattice", dict(period=4, full_std=True), "relu"),
    "full_std_episode": ("lattice", dict(period="episode", full_std=True),
                         "relu"),
    "no_rescale_p3": ("lattice", dict(period=3, rescale=False), "relu"),
    "stop_variance": ("lattice", dict(stop_variance_gradient=True), "relu"),
    "tanh_p3": ("lattice", dict(period=3), "tanh"),
    "gelu": ("lattice", {}, "gelu"),
}
ENVS = ("flex_ext_arm", "point_reacher")


def platform_record() -> dict:
    """What the digests' bytes depend on besides the code."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(k)) for k in
                         ("name", "version", "openblas configuration")),
        "simd": sorted(config["SIMD Extensions"]["found"]),
        "machine": platform.machine(),
    }


def _feed(h, obj):
    """Feed obj's type, shape and bytes to the hash h: arrays by dtype,
    shape and raw bytes, floats by their IEEE bits, containers in order
    (dicts by sorted key)."""
    if isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(f"a{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    elif isinstance(obj, dict):
        h.update(f"d{len(obj)}".encode())
        for k in sorted(obj):
            _feed(h, str(k))
            _feed(h, obj[k])
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for v in obj:
            _feed(h, v)
    elif isinstance(obj, bool):
        h.update(b"b1" if obj else b"b0")
    elif isinstance(obj, float):
        h.update(b"f" + struct.pack("<d", obj))
    elif isinstance(obj, int):
        h.update(f"i{obj}".encode())
    elif isinstance(obj, (str, bytes)):
        raw = obj.encode() if isinstance(obj, str) else obj
        h.update(f"s{len(raw)}:".encode() + raw)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def make_trainer(env_name, strategy, lattice, activation="relu",
                 hiddens=(12, 10), ppo=None, seed=7):
    return PPOTrainer(env_name, strategy=strategy,
                      lattice_cfg=LatticeConfig(**lattice),
                      ppo_cfg=PpoConfig(**(ppo or SMALL_PPO)),
                      hiddens=hiddens, critic_hiddens=(12, 10), seed=seed,
                      activation=activation,
                      env_kwargs={"max_steps": EPISODE_STEPS})


def training_record(tr: PPOTrainer, tmp: Path) -> dict:
    """Everything a short fit of tr leaves behind."""
    curve = []
    tr.fit(TOTAL_STEPS, on_update=lambda row, stats: curve.append(
        ({k: v for k, v in row.items() if k != "wall_time_s"}, stats)))
    trainer_mod.save_checkpoint(tmp / "ckpt.json", tr)
    obs = tr.envs.observe()
    return {
        "curve": curve,
        "params": dict(tr.params),
        "adam": [tr.optimizer.t, tr.optimizer.m_flat, tr.optimizer.v_flat],
        "checkpoint": (tmp / "ckpt.json").read_bytes(),
        "eval": evaluate_policy(tr, n_episodes=4, deterministic=False,
                                seed=3),
        "eval_mean": evaluate_policy(tr, n_episodes=2, deterministic=True,
                                     seed=3),
        "predict": tr.predict(obs, deterministic=False,
                              rng=np.random.default_rng(5)),
    }


def long_window(tmp: Path) -> dict:
    """Lattice at period 40 on 20-step episodes: every window is cut by its
    episode's end, in training and in evaluation."""
    return training_record(
        make_trainer("point_reacher", "lattice", dict(period=40)), tmp)


def eval_chunks(tmp: Path) -> dict:
    """A run_episodes call over two chunks of EVAL_CHUNK_NORMALS: a 256-wide
    latent at "episode" draws its P_x, P_a per episode."""
    tr = make_trainer("point_reacher", "lattice", dict(period="episode"),
                      hiddens=(12, 256))
    width = exploration.episode_normals(tr.policy, tr.cfg, EPISODE_STEPS)
    n = trainer_mod.EVAL_CHUNK_NORMALS // width + 3
    return trainer_mod.run_episodes(tr, n, 11, False)


def block_pieces(tmp: Path) -> dict:
    """A period-1 rollout over three BLOCK_NORMALS pieces of drawn-ahead
    normals, and the env rngs' states after it."""
    tr = make_trainer("point_reacher", "lattice", dict(period=1),
                      hiddens=(12, 256))
    width = exploration.episode_normals(tr.policy, tr.cfg, 1)
    steps = 2 * exploration.BLOCK_NORMALS // (tr.ppo.n_envs * width) + 5
    buf = tr.collect_rollout(steps)
    return {"buffer": vars(buf),
            "rngs": [json.dumps(r.bit_generator.state, sort_keys=True)
                     for r in tr.env_rngs]}


def analyses(tmp: Path) -> dict:
    """Every file each analysis kind writes, after a short lattice fit."""
    tr = make_trainer("point_reacher", "lattice", dict(period=3))
    tr.fit(TOTAL_STEPS)
    out = {}
    for kind in ("dual-sim", "covariance", "pca", "allocation", "energy"):
        run_analysis(tr, kind, tmp / kind, seed=4, episodes=5,
                     sigma_latent=0.1, n_steps=210, threshold=0.9)
        out[kind] = {p.name: p.read_bytes()
                     for p in sorted((tmp / kind).iterdir())}
    return out


def _variant(env_name, strategy, lattice, activation):
    return lambda tmp: training_record(
        make_trainer(env_name, strategy, lattice, activation), tmp)


CONFIGURATIONS = {
    **{f"{env}/{name}": _variant(env, *spec)
       for env in ENVS for name, spec in VARIANTS.items()},
    "long_window_p40": long_window,
    "eval_chunks": eval_chunks,
    "block_pieces": block_pieces,
    "analyses": analyses,
}


def compute(name: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        return digest(CONFIGURATIONS[name](Path(tmp)))


def main():
    record = {"platform": platform_record(),
              "digests": {name: compute(name) for name in CONFIGURATIONS}}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {GOLDEN}")


if __name__ == "__main__":
    main()
