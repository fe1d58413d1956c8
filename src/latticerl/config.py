"""Run configuration: JSON schema, parsing diagnostics, serialization."""

import dataclasses
import json
from dataclasses import dataclass, field

from .envs import ENV_REGISTRY, make_env
from .errors import ConfigError
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
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                f"field 'strategy': {self.strategy!r} not in {STRATEGIES}")
        name = self.env.get("name")
        if name not in ENV_REGISTRY:
            raise ConfigError(
                f"field 'env.name': {name!r} not in {sorted(ENV_REGISTRY)}")
        try:
            make_env(name, seed=0, **self.env_kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'env': {exc}") from exc
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError(
                f"field 'seed': {self.seed!r} is not an integer >= 0")
        for key in ("hiddens", "critic_hiddens"):
            sizes = getattr(self, key)
            if not isinstance(sizes, (list, tuple)) or not all(
                    _is_int(n) and n >= 1 for n in sizes):
                raise ConfigError(
                    f"field {key!r}: {sizes!r} is not a list of positive "
                    f"integers")
        if self.activation not in ACTIVATIONS:
            raise ConfigError(
                f"field 'activation': {self.activation!r} not in "
                f"{sorted(ACTIVATIONS)}")

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
        try:
            if "lattice" in kwargs:
                kwargs["lattice"] = LatticeConfig(**kwargs["lattice"])
            if "ppo" in kwargs:
                kwargs["ppo"] = PpoConfig(**kwargs["ppo"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"field 'lattice'/'ppo': {exc}") from exc
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
