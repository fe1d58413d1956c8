"""PPO with GAE and a clipped surrogate, parameterized by exploration
strategy (diagonal / gsde / lattice).

The trainer exposes a light estimator-style surface: fit / predict /
get_params, plus checkpoint save and load.
"""

import json
import os
import time
from dataclasses import asdict, dataclass

import numpy as np

from .buffer import RolloutBuffer, compute_gae
from .envs import EpisodeMetrics, make_env
from .errors import CheckpointCorrupt, NonFiniteLoss
from .exploration import LatticeConfig, NoiseSampler
from .policy import (
    GradientTape,
    Mlp,
    MlpPolicy,
    dist_internals,
    entropy_batch,
    log_prob,
    log_prob_terms,
    policy_backward,
)

CHECKPOINT_SCHEMA = 1


@dataclass
class PpoConfig:
    """Optimization hyperparameters. gradient_steps is the rollout length per
    environment between updates."""

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
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be >= 0")
        if not self.clip_range > 0.0:
            raise ValueError("clip_range must be > 0")


class Adam:
    """Adaptive first-order optimizer over a named parameter dict."""

    def __init__(self, params: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray], skip: set[str] = frozenset()):
        if self.lr == 0.0:
            return
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        # in place, in the operation order of
        #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        #   p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
        # so the results are bitwise those of the out-of-place formula
        for k, p in params.items():
            if k in skip:
                continue
            g = grads[k]
            m, v = self.m[k], self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            gg = (1.0 - self.beta2) * g
            gg *= g
            v *= self.beta2
            v += gg
            step = m / bc1
            step *= self.lr
            denom = np.divide(v, bc2, out=gg)
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step


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
        self.activation = activation
        self.seed = int(seed)

        ss = np.random.SeedSequence(self.seed)
        init_ss, shuffle_ss, *env_ss = ss.spawn(2 + self.ppo.n_envs)
        init_rng = np.random.default_rng(init_ss)
        self.shuffle_rng = np.random.default_rng(shuffle_ss)
        self.env_rngs = [np.random.default_rng(s) for s in env_ss]

        probe = make_env(env_name, seed=0, **self.env_kwargs)
        self.obs_dim = probe.obs_dim
        self.action_dim = probe.action_dim

        self.policy = MlpPolicy(self.obs_dim, self.action_dim, self.cfg,
                                strategy=strategy, hiddens=self.hiddens,
                                activation=activation, rng=init_rng)
        self.value_net = Mlp(init_rng, self.obs_dim, self.critic_hiddens, 1,
                             activation, prefix="v.")
        self.params = self.policy.params
        self.params.update(self.value_net.params)
        self.value_net.params = self.params
        self.policy.params = self.params
        self.policy.net.params = self.params

        self.optimizer = Adam(self.params, self.ppo.learning_rate)
        self.skip: set[str] = set()

        self.envs = [
            make_env(env_name,
                     seed=int(np.random.default_rng(s).integers(2 ** 31)),
                     **self.env_kwargs)
            for s in ss.spawn(self.ppo.n_envs)
        ]
        self._obs = np.stack([env.reset() for env in self.envs])
        self.noise = NoiseSampler(self.policy, self.cfg, self.env_rngs)
        self._ep_rewards = [[] for _ in range(self.ppo.n_envs)]
        self._ep_solved = [[] for _ in range(self.ppo.n_envs)]
        self._ep_actions = [[] for _ in range(self.ppo.n_envs)]
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
        it = dist_internals(self.policy, obs, self.cfg)
        if rng is None:
            raise ValueError("stochastic predict needs an rng")
        if it.kind == "diagonal":
            return it.mean + rng.standard_normal(it.mean.shape) * it.sigma
        z = rng.standard_normal(it.mean.shape)
        return it.mean + np.einsum("bij,bj->bi", it.chol, z)

    # ------------------------------------------------------- rollout phase

    def collect_rollout(self, n_steps: int) -> RolloutBuffer:
        buf = RolloutBuffer.allocate(n_steps, self.ppo.n_envs, self.obs_dim,
                                     self.action_dim)
        self.recent_episodes = []
        for t in range(n_steps):
            obs = self._obs
            it = dist_internals(self.policy, obs, self.cfg)
            actions = self.noise.sample(it.x, it.mean)
            logp = log_prob(self.policy, obs, actions, self.cfg, internals=it)
            _, values = self.value_net.forward(obs)
            buf.obs[t] = obs
            buf.actions[t] = actions
            buf.log_probs[t] = logp
            buf.values[t] = values[:, 0]
            next_obs = np.empty_like(self._obs)
            for i, env in enumerate(self.envs):
                o, r, done, info = env.step(actions[i])
                buf.rewards[t, i] = r
                buf.dones[t, i] = done
                self._ep_rewards[i].append(r)
                self._ep_solved[i].append(info["solved"])
                self._ep_actions[i].append(np.clip(actions[i], 0.0, 1.0))
                if done:
                    self.recent_episodes.append(EpisodeMetrics.from_logs(
                        self._ep_rewards[i], self._ep_solved[i],
                        self._ep_actions[i], env.max_steps))
                    self._ep_rewards[i] = []
                    self._ep_solved[i] = []
                    self._ep_actions[i] = []
                    o = env.reset()
                    self.noise.reset(i)
                next_obs[i] = o
            self._obs = next_obs
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
                terms = log_prob_terms(self.policy, it, actions[idx])
                logp = terms[0]
                ent = entropy_batch(self.policy, it)
                # clipped surrogate and entropy bonus in one policy backward
                ratio = np.exp(logp - old_logp[idx])
                inactive = ((adv > 0) & (ratio > 1.0 + eps)) | \
                           ((adv < 0) & (ratio < 1.0 - eps))
                w_pg = np.where(inactive, 0.0, -(adv * ratio) / b)
                w_ent = np.full(b, -self.ppo.entropy_coef / b)
                policy_backward(self.policy, self.cfg, tape, it, w_pg=w_pg,
                                w_ent=w_ent, terms=terms)
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
                if not np.isfinite(total) or not tape.all_finite():
                    bad = tape.non_finite()
                    culprit = ("gradient of " + ", ".join(bad)) if bad \
                        else "loss"
                    raise NonFiniteLoss(
                        f"non-finite {culprit} in epoch {epoch}, minibatch "
                        f"starting at {start}")
                norm = tape.clip_global_norm(self.ppo.max_grad_norm)
                self.optimizer.step(self.params, tape.grads, skip=self.skip)

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
            target_solved: float | None = None,
            checkpoint_path_fn=None, checkpoint_every: int = 0):
        """Run PPO until total_steps env steps (or early target)."""
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
            if checkpoint_every and checkpoint_path_fn is not None \
                    and self.updates % checkpoint_every == 0:
                save_checkpoint(checkpoint_path_fn(self.updates), self)
            if target_solved is not None and window \
                    and row["solved_fraction"] >= target_solved:
                break
        return self


def run_episodes(trainer: PPOTrainer, n_episodes: int, seed: int,
                 deterministic: bool = False):
    """Play fresh episodes of the trainer's policy in one env seeded from
    seed. Yields (states, actions, rewards, solved, max_steps) per episode;
    the actions are the raw ones sent to the env, the mean action at every
    step when deterministic."""
    env_ss, noise_ss = np.random.SeedSequence(seed).spawn(2)
    env = make_env(trainer.env_name,
                   seed=int(np.random.default_rng(env_ss).integers(2 ** 31)),
                   **trainer.env_kwargs)
    noise = NoiseSampler(trainer.policy, trainer.cfg,
                         [np.random.default_rng(noise_ss)])
    for _ in range(n_episodes):
        obs = env.reset()
        noise.reset(0)
        states, actions, rewards, solved = [], [], [], []
        done = False
        while not done:
            states.append(obs)
            x, mean = trainer.policy.forward(np.atleast_2d(obs))
            action = mean[0] if deterministic else noise.sample(x, mean)[0]
            actions.append(action)
            obs, r, done, info = env.step(action)
            rewards.append(r)
            solved.append(info["solved"])
        yield states, actions, rewards, solved, env.max_steps


def evaluate_policy(trainer: PPOTrainer, n_episodes: int = 100,
                    deterministic: bool = False, seed: int = 0) -> dict:
    """Roll out fresh episodes and report mean +/- sem of the episode
    metrics, plus the per-episode records used to compute them.

    With deterministic=True all noise is disabled and the mean action is
    taken at every step.
    """
    episodes = [
        EpisodeMetrics.from_logs(rewards, solved, np.clip(actions, 0.0, 1.0),
                                 max_steps)
        for _, actions, rewards, solved, max_steps
        in run_episodes(trainer, n_episodes, seed, deterministic)
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
    """JSON-encoded parameter list with a layout header and config echo.

    Written to a temporary file in the target's directory and renamed over
    the target, so a failed save never leaves a truncated checkpoint.
    """
    payload = {
        "schema_version": CHECKPOINT_SCHEMA,
        "layout": trainer.get_params(),
        "env_steps": trainer.env_steps,
        "updates": trainer.updates,
        "params": {k: v.tolist() for k, v in trainer.params.items()},
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


def load_checkpoint(path) -> PPOTrainer:
    """Rebuild a trainer (policy + value nets + config) from a checkpoint."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        layout = payload["layout"]
        trainer = PPOTrainer(
            env_name=layout["env_name"],
            env_kwargs=layout["env_kwargs"],
            strategy=layout["strategy"],
            lattice_cfg=LatticeConfig(**layout["lattice"]),
            ppo_cfg=PpoConfig(**layout["ppo"]),
            hiddens=layout["hiddens"],
            critic_hiddens=layout["critic_hiddens"],
            activation=layout["activation"],
            seed=layout["seed"],
        )
        saved = payload["params"]
        if saved.keys() != trainer.params.keys():
            missing = sorted(trainer.params.keys() - saved.keys())
            extra = sorted(saved.keys() - trainer.params.keys())
            raise CheckpointCorrupt(
                f"parameter keys differ from the layout: missing {missing}, "
                f"unexpected {extra}")
        for k, v in saved.items():
            arr = np.asarray(v, dtype=float)
            if arr.shape != trainer.params[k].shape:
                raise CheckpointCorrupt(
                    f"parameter {k} has shape {arr.shape}, expected "
                    f"{trainer.params[k].shape}")
            if not np.all(np.isfinite(arr)):
                raise CheckpointCorrupt(f"parameter {k} has non-finite values")
            trainer.params[k][...] = arr
        trainer.env_steps = int(payload.get("env_steps", 0))
        trainer.updates = int(payload.get("updates", 0))
        return trainer
    except CheckpointCorrupt:
        raise
    except (OSError, KeyError, ValueError, TypeError, AttributeError) as exc:
        raise CheckpointCorrupt(f"cannot load checkpoint {path}: {exc}") from exc
