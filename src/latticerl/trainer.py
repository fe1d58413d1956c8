"""PPO with GAE and a clipped surrogate, parameterized by exploration
strategy (diagonal / gsde / lattice).

The trainer exposes a light estimator-style surface: fit / predict /
get_params, plus checkpoint save and load.
"""

import base64
import json
import math
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .buffer import RolloutBuffer, compute_gae
from .envs import BatchedEnv, EpisodeMetrics, make_env
from .errors import (
    CheckpointCorrupt,
    NonFiniteLoss,
    is_finite_number,
    is_int,
    is_number,
)
from .exploration import LatticeConfig, NoiseSampler, episode_normals
from .policy import (
    GradientTape,
    Mlp,
    MlpPolicy,
    dist_internals,
    dist_params,
    entropy_batch,
    flat_layout,
    log_prob,
    log_prob_terms,
    policy_backward,
)

CHECKPOINT_SCHEMA = 2


@dataclass
class PpoConfig:
    """Optimization hyperparameters. gradient_steps is the rollout length per
    environment between updates; clip_range is the surrogate's ratio clip,
    and clip_range = inf turns the clip off."""

    learning_rate: float = 2.5e-5
    batch_size: int = 32
    gradient_steps: int = 128
    n_epochs: int = 10
    gamma: float = 0.99
    gae_lambda: float = 0.9
    clip_range: float = 0.3
    entropy_coef: float = 3.6e-6
    value_coef: float = 0.84
    max_grad_norm: float = 0.7
    n_envs: int = 16

    def __post_init__(self):
        for name in ("batch_size", "gradient_steps", "n_epochs", "n_envs"):
            value = getattr(self, name)
            if not (is_int(value) and value >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got "
                                 f"{value!r}")
        if not (is_finite_number(self.learning_rate)
                and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be a finite number >= 0, "
                             f"got {self.learning_rate!r}")
        if not (is_number(self.clip_range) and self.clip_range > 0.0):
            raise ValueError(f"clip_range must be a number > 0 (inf for no "
                             f"clip), got {self.clip_range!r}")
        for name in ("gamma", "gae_lambda"):
            value = getattr(self, name)
            if not (is_finite_number(value) and 0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be a number in [0, 1], got "
                                 f"{value!r}")
        for name in ("entropy_coef", "value_coef"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0, got "
                                 f"{value!r}")
        if not (is_finite_number(self.max_grad_norm)
                and self.max_grad_norm > 0.0):
            raise ValueError(f"max_grad_norm must be a finite number > 0, got "
                             f"{self.max_grad_norm!r}")


# Elements per pass of Adam's update (256 KiB of float64): a run of
# parameters is updated chunk by chunk, so its scratch stays in cache.
ADAM_CHUNK = 32_768


class Adam:
    """Adam over one flat float64 parameter vector. The moments m_flat and
    v_flat have its layout."""

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, flat: np.ndarray, lr: float):
        self.flat = flat
        self.lr = lr
        self.t = 0
        self.m_flat = np.zeros_like(flat)
        self.v_flat = np.zeros_like(flat)

    def step(self, grad: np.ndarray):
        """One update from the flat gradient grad (the parameters' layout)."""
        if self.lr == 0.0:
            return
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        n = self.flat.size
        scratch = np.empty((2, min(ADAM_CHUNK, n)))
        # in place, in the operation order of
        #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        #   p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        # so the results are bitwise those of the out-of-place formula
        for i in range(0, n, ADAM_CHUNK):
            j = min(i + ADAM_CHUNK, n)
            g, m, v = grad[i:j], self.m_flat[i:j], self.v_flat[i:j]
            step, gg = scratch[0, :j - i], scratch[1, :j - i]
            m *= b1
            np.multiply(g, 1.0 - b1, out=step)
            m += step
            np.multiply(g, 1.0 - b2, out=gg)
            gg *= g
            v *= b2
            v += gg
            np.divide(m, bc1, out=step)
            step *= self.lr
            np.divide(v, bc2, out=gg)
            np.sqrt(gg, out=gg)
            gg += self.EPS
            step /= gg
            self.flat[i:j] -= step


class PPOTrainer:
    """On-policy trainer binding envs, networks and the exploration model."""

    def __init__(self, env_name: str, env_kwargs: dict | None = None,
                 strategy: str = "lattice",
                 lattice_cfg: LatticeConfig | None = None,
                 ppo_cfg: PpoConfig | None = None,
                 hiddens=(256, 256), critic_hiddens=(256, 256),
                 activation: str = "relu", seed: int = 0):
        self.env_name = env_name
        self.env_kwargs = dict(env_kwargs or {})
        self.strategy = strategy
        self.cfg = lattice_cfg if lattice_cfg is not None else LatticeConfig()
        self.ppo = ppo_cfg if ppo_cfg is not None else PpoConfig()
        self.hiddens = tuple(hiddens)
        self.critic_hiddens = tuple(critic_hiddens)
        for name, sizes in (("hiddens", self.hiddens),
                            ("critic_hiddens", self.critic_hiddens)):
            if not all(is_int(n) and n >= 1 for n in sizes):
                raise ValueError(
                    f"{name} must be integers >= 1, got {list(sizes)!r}")
        self.activation = activation
        if not (is_int(seed) and seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
        self.seed = seed

        ss = np.random.SeedSequence(self.seed)
        init_ss, shuffle_ss, *env_ss = ss.spawn(2 + self.ppo.n_envs)
        init_rng = np.random.default_rng(init_ss)
        self.shuffle_rng = np.random.default_rng(shuffle_ss)
        self.env_rngs = [np.random.default_rng(s) for s in env_ss]

        self.envs = BatchedEnv([
            make_env(env_name,
                     seed=int(np.random.default_rng(s).integers(2 ** 31)),
                     **self.env_kwargs)
            for s in ss.spawn(self.ppo.n_envs)
        ])
        self.obs_dim = self.envs.obs_dim
        self.action_dim = self.envs.action_dim

        # every parameter is a view of one flat vector: policy keys, then
        # value keys, each in its network's order. The networks draw their
        # initial weights into the views and share the one dict.
        shapes = {**MlpPolicy.shapes(self.obs_dim, self.action_dim, self.cfg,
                                     strategy, self.hiddens),
                  **Mlp.shapes(self.obs_dim, self.critic_hiddens, 1, "v.")}
        self.flat_params, self.params = flat_layout(shapes)
        self.policy = MlpPolicy(self.obs_dim, self.action_dim, self.cfg,
                                strategy=strategy, hiddens=self.hiddens,
                                activation=activation, rng=init_rng,
                                params=self.params)
        self.value_net = Mlp(init_rng, self.obs_dim, self.critic_hiddens, 1,
                             activation, prefix="v.", params=self.params)

        self.optimizer = Adam(self.flat_params, self.ppo.learning_rate)

        self._obs = self.envs.observe()
        self.noise = NoiseSampler(self.policy, self.cfg, self.env_rngs)
        # episode logs of every env, written at the batch's step count
        n, t_max = self.ppo.n_envs, self.envs.max_steps
        self._ep_rewards = np.zeros((n, t_max))
        self._ep_solved = np.zeros((n, t_max), dtype=bool)
        self._ep_actions = np.zeros((n, t_max, self.action_dim))
        self.recent_episodes: list[EpisodeMetrics] = []
        self.env_steps = 0
        self.updates = 0

    # ------------------------------------------------------------------ API

    def get_params(self) -> dict:
        """Estimator-style hyperparameter echo."""
        return {
            "env_name": self.env_name,
            "env_kwargs": dict(self.env_kwargs),
            "strategy": self.strategy,
            "lattice": asdict(self.cfg),
            "ppo": asdict(self.ppo),
            "hiddens": list(self.hiddens),
            "critic_hiddens": list(self.critic_hiddens),
            "activation": self.activation,
            "seed": self.seed,
        }

    def predict(self, obs: np.ndarray, deterministic: bool = True,
                rng: np.random.Generator | None = None) -> np.ndarray:
        """Mean action, or a draw from the analytic action distribution."""
        obs = np.atleast_2d(np.asarray(obs, dtype=float))
        if deterministic:
            return self.policy.forward(obs)[1]
        if rng is None:
            raise ValueError("stochastic predict needs an rng")
        it = dist_internals(self.policy, obs, self.cfg)
        if it.kind == "diagonal":
            return it.mean + rng.standard_normal(it.mean.shape) * it.sigma
        z = rng.standard_normal(it.mean.shape)
        return it.mean + np.einsum("bij,bj->bi", it.chol, z)

    # ------------------------------------------------------- rollout phase

    def collect_rollout(self, n_steps: int) -> RolloutBuffer:
        buf = RolloutBuffer.allocate(n_steps, self.ppo.n_envs, self.obs_dim,
                                     self.action_dim)
        self.recent_episodes = []
        # the parameters hold still until the update
        params = dist_params(self.policy, self.cfg)
        for t in range(n_steps):
            obs = self._obs
            it = dist_internals(self.policy, obs, self.cfg, params=params)
            actions = self.noise.sample(it.x, it.mean, params,
                                        self.envs.step_count)
            logp = log_prob(it, actions)
            _, values = self.value_net.forward(obs)
            buf.obs[t] = obs
            buf.actions[t] = actions
            buf.log_probs[t] = logp
            buf.values[t] = values[:, 0]
            self._obs, rewards, done, solved = self.envs.step(actions)
            buf.rewards[t] = rewards
            buf.dones[t] = done
            k = self.envs.step_count - 1
            self._ep_rewards[:, k] = rewards
            self._ep_solved[:, k] = solved
            self._ep_actions[:, k] = np.clip(actions, 0.0, 1.0)
            if done:
                self.recent_episodes.extend(map(
                    EpisodeMetrics.from_logs, self._ep_rewards,
                    self._ep_solved, self._ep_actions))
                self._obs = self.envs.reset()
            self.env_steps += self.ppo.n_envs
        return buf

    # -------------------------------------------------------- update phase

    def ppo_update(self, buffer: RolloutBuffer) -> dict:
        _, last_values = self.value_net.forward(self._obs)
        advantages, returns = compute_gae(buffer, last_values[:, 0],
                                          self.ppo.gamma, self.ppo.gae_lambda)
        obs = buffer.flat(buffer.obs)
        actions = buffer.flat(buffer.actions)
        old_logp = buffer.flat(buffer.log_probs)
        adv_flat = buffer.flat(advantages)
        ret_flat = buffer.flat(returns)
        n = obs.shape[0]
        tape = GradientTape(self.params)
        stats = {"pg_loss": 0.0, "value_loss": 0.0, "entropy": 0.0,
                 "approx_kl": 0.0, "clip_fraction": 0.0, "grad_norm": 0.0}
        n_batches = 0
        eps = self.ppo.clip_range
        for epoch in range(self.ppo.n_epochs):
            perm = self.shuffle_rng.permutation(n)
            for start in range(0, n, self.ppo.batch_size):
                idx = perm[start:start + self.ppo.batch_size]
                b = len(idx)
                adv = adv_flat[idx]
                adv = (adv - adv.mean()) / (adv.std() + 1e-8)
                tape.zero_()
                it = dist_internals(self.policy, obs[idx], self.cfg,
                                    need_cache=True)
                terms = log_prob_terms(it, actions[idx])
                logp = terms[0]
                ent = entropy_batch(it)
                # clipped surrogate and entropy bonus in one policy backward
                ratio = np.exp(logp - old_logp[idx])
                inactive = ((adv > 0) & (ratio > 1.0 + eps)) | \
                           ((adv < 0) & (ratio < 1.0 - eps))
                w_pg = np.where(inactive, 0.0, -(adv * ratio) / b)
                w_ent = np.full(b, -self.ppo.entropy_coef / b)
                policy_backward(self.policy, self.cfg, tape, it, terms, w_pg,
                                w_ent)
                # value loss
                _, v_out, v_cache = self.value_net.forward(obs[idx],
                                                           need_cache=True)
                v = v_out[:, 0]
                d_v = (self.ppo.value_coef * 2.0 * (v - ret_flat[idx]) / b)
                self.value_net.backward(v_cache, d_v[:, None], tape)

                surr = np.minimum(ratio * adv,
                                  np.clip(ratio, 1.0 - eps, 1.0 + eps) * adv)
                pg_loss = -float(np.mean(surr))
                value_loss = self.ppo.value_coef * float(
                    np.mean((v - ret_flat[idx]) ** 2))
                total = pg_loss + value_loss \
                    - self.ppo.entropy_coef * float(np.mean(ent))
                # a finite norm means finite gradients; an infinite one can
                # also come from finite gradients whose squares overflow,
                # which the clip has scaled to zero. A NaN norm leaves the
                # gradients unscaled, and an Inf gradient scaled by zero is
                # NaN, so non_finite() names the same keys either way.
                norm = tape.clip_global_norm(self.ppo.max_grad_norm)
                if not np.isfinite(total) or not (math.isfinite(norm)
                                                  or tape.all_finite()):
                    bad = tape.non_finite()
                    culprit = ("gradient of " + ", ".join(bad)) if bad \
                        else "loss"
                    raise NonFiniteLoss(
                        f"non-finite {culprit} in epoch {epoch}, minibatch "
                        f"starting at {start}", epoch=epoch, start=start,
                        last_stats={k: v / n_batches for k, v in stats.items()}
                        if n_batches else {})
                self.optimizer.step(tape.flat)

                with np.errstate(over="ignore"):
                    log_ratio = logp - old_logp[idx]
                stats["pg_loss"] += pg_loss
                stats["value_loss"] += value_loss
                stats["entropy"] += float(np.mean(ent))
                stats["approx_kl"] += float(np.mean(
                    np.expm1(log_ratio) - log_ratio))
                stats["clip_fraction"] += float(
                    np.mean(np.abs(ratio - 1.0) > eps))
                stats["grad_norm"] += norm
                n_batches += 1
        for k in stats:
            stats[k] /= max(n_batches, 1)
        self.updates += 1
        return stats

    # ------------------------------------------------------- training loop

    def fit(self, total_steps: int, on_update=None,
            target_solved: float | None = None):
        """Run PPO until total_steps env steps (or early target); after each
        update, on_update(row, stats) gets the curve row and the PPO
        stats."""
        start = time.monotonic()
        window: list[EpisodeMetrics] = []
        while self.env_steps < total_steps:
            buf = self.collect_rollout(self.ppo.gradient_steps)
            stats = self.ppo_update(buf)
            window.extend(self.recent_episodes)
            window = window[-64:]
            row = {
                "update": self.updates,
                "env_steps": self.env_steps,
                "mean_episode_reward": float(np.mean(
                    [e.cumulative_reward for e in window])) if window else 0.0,
                "solved_fraction": float(np.mean(
                    [e.solved_fraction for e in window])) if window else 0.0,
                "energy": float(np.mean(
                    [e.energy for e in window])) if window else 0.0,
                "mean_entropy": stats["entropy"],
                "wall_time_s": time.monotonic() - start,
            }
            if on_update is not None:
                on_update(row, stats)
            if target_solved is not None and window \
                    and row["solved_fraction"] >= target_solved:
                break
        return self


# Pre-drawn noise normals per chunk of evaluation episodes (8 MiB)
EVAL_CHUNK_NORMALS = 2 ** 20


class _Normals:
    """Pre-drawn normals in a Generator's place, each handed out once."""

    def __init__(self, block: np.ndarray):
        self.block, self.used = block, 0

    def standard_normal(self, size=None, out=None):
        shape = size if out is None else out.shape
        n = math.prod(shape)
        self.used += n
        drawn = self.block[self.used - n:self.used].reshape(shape)
        if out is None:
            return drawn
        out[...] = drawn
        return out


def run_episodes(trainer: PPOTrainer, n_episodes: int, seed: int,
                 deterministic: bool = False):
    """Play fresh episodes of the trainer's policy, seeded from seed, as the
    rows of BatchedEnv([env] * n). Returns states (n, T, obs_dim), the raw
    actions (n, T, action_dim) (the mean ones when deterministic), rewards
    (n, T) and solved (n, T). The env rng draws the starts in episode order;
    episode i reads the i-th block of episode_normals normals of the noise
    rng, drawn ahead in chunks of EVAL_CHUNK_NORMALS. So the noise is that
    of sequential play on one env, except for the reduced-std window
    sampler at period > 1, which uses only part of its block."""
    if not (is_int(n_episodes) and n_episodes >= 1):
        raise ValueError(f"n_episodes must be an int >= 1, got {n_episodes!r}")
    if not (is_int(seed) and seed >= 0):
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    env_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    env = make_env(trainer.env_name,
                   seed=int(np.random.default_rng(env_ss).integers(2 ** 31)),
                   **trainer.env_kwargs)
    noise_rng = np.random.default_rng(noise_ss)
    params = None if deterministic else dist_params(trainer.policy,
                                                     trainer.cfg)
    width = episode_normals(trainer.policy, trainer.cfg, env.max_steps)
    chunk = max(1, EVAL_CHUNK_NORMALS // width)
    states = np.empty((n_episodes, env.max_steps, env.obs_dim))
    actions = np.empty((n_episodes, env.max_steps, env.action_dim))
    rewards = np.empty((n_episodes, env.max_steps))
    solved = np.empty((n_episodes, env.max_steps), dtype=bool)
    for start in range(0, n_episodes, chunk):
        rows = slice(start, min(start + chunk, n_episodes))
        batch = BatchedEnv([env] * (rows.stop - start))
        if not deterministic:
            noise = NoiseSampler(trainer.policy, trainer.cfg, [
                _Normals(block) for block in
                noise_rng.standard_normal((batch.n, width))])
        obs = batch.observe()
        for t in range(env.max_steps):
            states[rows, t] = obs
            x, mean = trainer.policy.forward(obs)
            action = mean if deterministic else noise.sample(x, mean, params,
                                                             t)
            actions[rows, t] = action
            obs, rewards[rows, t], _, solved[rows, t] = batch.step(action)
    return states, actions, rewards, solved


def evaluate_policy(trainer: PPOTrainer, n_episodes: int = 100,
                    deterministic: bool = False, seed: int = 0) -> dict:
    """Roll out fresh episodes and report mean +/- sem of the episode
    metrics, plus the per-episode records used to compute them.

    With deterministic=True all noise is disabled and the mean action is
    taken at every step.
    """
    _, actions, rewards, solved = run_episodes(trainer, n_episodes, seed,
                                               deterministic)
    episodes = [
        EpisodeMetrics.from_logs(r, s, np.clip(a, 0.0, 1.0))
        for a, r, s in zip(actions, rewards, solved)
    ]

    def agg(values):
        values = np.asarray(values, dtype=float)
        sem = float(values.std(ddof=1) / np.sqrt(len(values))) \
            if len(values) > 1 else 0.0
        return {"mean": float(values.mean()), "sem": sem}

    return {
        "n_episodes": n_episodes,
        "deterministic": deterministic,
        "reward": agg([e.cumulative_reward for e in episodes]),
        "solved_fraction": agg([e.solved_fraction for e in episodes]),
        "energy": agg([e.energy for e in episodes]),
        "per_episode": [
            {"reward": e.cumulative_reward,
             "solved_fraction": e.solved_fraction,
             "energy": e.energy}
            for e in episodes
        ],
    }


# ------------------------------------------------------------- checkpoints

def save_checkpoint(path, trainer: PPOTrainer, config_echo: dict | None = None):
    """JSON document with a layout header, config echo and every parameter
    array as its little-endian float64 bytes in base64:
    ``{name: {"shape": [...], "f8": "<base64>"}}``.

    Written to a temporary file in the target's directory and renamed over
    the target, so a failed save never leaves a truncated checkpoint.
    """
    payload = {
        "schema_version": CHECKPOINT_SCHEMA,
        "layout": trainer.get_params(),
        "env_steps": trainer.env_steps,
        "updates": trainer.updates,
        "params": {k: {"shape": list(v.shape),
                       "f8": base64.b64encode(np.ascontiguousarray(
                           v, dtype="<f8").tobytes()).decode("ascii")}
                   for k, v in trainer.params.items()},
    }
    if config_echo is not None:
        payload["config_echo"] = config_echo
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _decode_list(name: str, value, shape: tuple) -> np.ndarray:
    """A schema-1 parameter: nested JSON lists of numbers."""
    arr = np.asarray(value, dtype=object)
    if arr.shape != shape:
        raise CheckpointCorrupt(
            f"parameter {name} has shape {arr.shape}, expected {shape}")
    # bools are ints to Python and numbers to np.asarray; refuse them here
    if not {type(e) for e in arr.flat} <= {int, float}:
        raise CheckpointCorrupt(f"parameter {name} has non-numeric entries")
    return arr.astype(float)


def _decode_f8(name: str, value, shape: tuple) -> np.ndarray:
    """A schema-2 parameter: {"shape": [...], "f8": "<base64>"}."""
    if not (isinstance(value, dict) and value.keys() == {"shape", "f8"}):
        raise CheckpointCorrupt(
            f"parameter {name} is not an object with keys 'shape' and 'f8'")
    saved_shape = value["shape"]
    if not (isinstance(saved_shape, list) and all(map(is_int, saved_shape))
            and tuple(saved_shape) == shape):
        raise CheckpointCorrupt(
            f"parameter {name} has shape {saved_shape!r}, expected "
            f"{list(shape)}")
    try:
        raw = base64.b64decode(value["f8"], validate=True)
    except (TypeError, ValueError) as exc:
        raise CheckpointCorrupt(
            f"parameter {name} is not valid base64: {exc}") from exc
    if len(raw) != 8 * math.prod(shape):
        raise CheckpointCorrupt(
            f"parameter {name} has {len(raw)} bytes, expected "
            f"{8 * math.prod(shape)} for shape {shape}")
    return np.frombuffer(raw, dtype="<f8").reshape(shape)


# how each schema version stores one parameter array
_DECODERS = {1: _decode_list, 2: _decode_f8}


def _non_negative_int(value, field: str) -> int:
    """A checkpoint's seed or counter as it is, or CheckpointCorrupt naming
    the field when it is not an integer >= 0."""
    if not (is_int(value) and value >= 0):
        raise CheckpointCorrupt(
            f"field {field!r}: {value!r} is not an integer >= 0")
    return value


def load_checkpoint(path) -> PPOTrainer:
    """Rebuild a trainer (policy + value nets + config) from a checkpoint.

    Reads schema 2 (base64 float64 bytes) and schema 1 (JSON lists of
    numbers, every checkpoint written before schema 2); refuses any other
    or a missing schema_version.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        if "schema_version" not in payload:
            raise CheckpointCorrupt(f"checkpoint {path} has no schema_version")
        version = payload["schema_version"]
        if not is_int(version) or version not in _DECODERS:
            raise CheckpointCorrupt(
                f"schema_version {version!r} is not one of "
                f"{sorted(_DECODERS)}")
        decode = _DECODERS[version]
        layout = payload["layout"]
        # a missing counter reads 0
        env_steps = _non_negative_int(payload.get("env_steps", 0),
                                      "env_steps")
        updates = _non_negative_int(payload.get("updates", 0), "updates")
        trainer = PPOTrainer(
            env_name=layout["env_name"],
            env_kwargs=layout["env_kwargs"],
            strategy=layout["strategy"],
            lattice_cfg=LatticeConfig(**layout["lattice"]),
            ppo_cfg=PpoConfig(**layout["ppo"]),
            hiddens=layout["hiddens"],
            critic_hiddens=layout["critic_hiddens"],
            activation=layout["activation"],
            seed=_non_negative_int(layout["seed"], "seed"),
        )
        saved = payload["params"]
        if saved.keys() != trainer.params.keys():
            missing = sorted(trainer.params.keys() - saved.keys())
            extra = sorted(saved.keys() - trainer.params.keys())
            raise CheckpointCorrupt(
                f"parameter keys differ from the layout: missing {missing}, "
                f"unexpected {extra}")
        for k, v in saved.items():
            arr = decode(k, v, trainer.params[k].shape)
            if not np.all(np.isfinite(arr)):
                raise CheckpointCorrupt(f"parameter {k} has non-finite values")
            trainer.params[k][...] = arr
        trainer.env_steps = env_steps
        trainer.updates = updates
        return trainer
    except CheckpointCorrupt:
        raise
    except (OSError, KeyError, ValueError, TypeError, AttributeError,
            OverflowError) as exc:
        raise CheckpointCorrupt(f"cannot load checkpoint {path}: {exc}") from exc
