"""Run configuration: JSON schema, parsing diagnostics, serialization."""

import dataclasses
import json
from dataclasses import dataclass, field

from .envs import ENV_REGISTRY, make_env
from .errors import ConfigError, is_int
from .exploration import STRATEGIES, LatticeConfig
from .policy import ACTIVATIONS
from .trainer import PpoConfig

CONFIG_SCHEMA = 1


@dataclass
class RunConfig:
    """Everything needed to reproduce a training run bit-for-bit."""

    env: dict = field(default_factory=lambda: {"name": "flex_ext_arm"})
    strategy: str = "lattice"
    lattice: LatticeConfig = field(default_factory=LatticeConfig)
    ppo: PpoConfig = field(default_factory=PpoConfig)
    hiddens: list = field(default_factory=lambda: [256, 256])
    critic_hiddens: list = field(default_factory=lambda: [256, 256])
    activation: str = "relu"
    seed: int = 0
    total_steps: int = 100_000
    out_dir: str | None = None
    checkpoint_every: int = 0
    target_solved: float | None = None
    schema_version: int = CONFIG_SCHEMA

    def __post_init__(self):
        if not (is_int(self.schema_version)
                and self.schema_version == CONFIG_SCHEMA):
            raise ConfigError(
                f"field 'schema_version': {self.schema_version!r} is not "
                f"{CONFIG_SCHEMA}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"field 'strategy': {self.strategy!r} not in {STRATEGIES}")
        if not isinstance(self.env, dict):
            raise ConfigError(f"field 'env': {self.env!r} is not an object")
        name = self.env.get("name")
        if name not in ENV_REGISTRY:
            raise ConfigError(
                f"field 'env.name': {name!r} not in {sorted(ENV_REGISTRY)}")
        try:
            make_env(name, seed=0, **self.env_kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'env': {exc}") from exc
        if not is_int(self.seed) or self.seed < 0:
            raise ConfigError(
                f"field 'seed': {self.seed!r} is not an integer >= 0")
        for key in ("hiddens", "critic_hiddens"):
            sizes = getattr(self, key)
            if not isinstance(sizes, (list, tuple)) or not all(
                    is_int(n) and n >= 1 for n in sizes):
                raise ConfigError(
                    f"field {key!r}: {sizes!r} is not a list of positive "
                    f"integers")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"field 'activation': {self.activation!r} not in "
                f"{sorted(ACTIVATIONS)}")
        if not is_int(self.total_steps) or self.total_steps < 1:
            raise ConfigError(
                f"field 'total_steps': {self.total_steps!r} is not an "
                f"integer >= 1")
        if not is_int(self.checkpoint_every) or self.checkpoint_every < 0:
            raise ConfigError(
                f"field 'checkpoint_every': {self.checkpoint_every!r} is not "
                f"an integer >= 0")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError(
                f"field 'out_dir': {self.out_dir!r} is not null or a string")
        target = self.target_solved
        if target is not None and not (
                isinstance(target, (int, float))
                and not isinstance(target, bool)
                and 0.0 <= target <= 1.0):
            raise ConfigError(
                f"field 'target_solved': {target!r} is not null or a number "
                f"in [0, 1]")

    @property
    def env_name(self) -> str:
        return self.env["name"]

    @property
    def env_kwargs(self) -> dict:
        return {k: v for k, v in self.env.items() if k != "name"}

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return d

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        kwargs = dict(raw)
        for key, cls_ in (("lattice", LatticeConfig), ("ppo", PpoConfig)):
            if key in kwargs:
                try:
                    kwargs[key] = cls_(**kwargs[key])
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"field {key!r}: {exc}") from exc
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: invalid JSON at line {exc.lineno}, column "
                f"{exc.colno}: {exc.msg}") from exc
        return cls.from_dict(raw)
