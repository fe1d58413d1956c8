"""Exception types shared across the package, and the value checks that
configuration objects raise them from."""

import math


def is_int(value) -> bool:
    """An integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or float (inf and nan included) that is not a bool."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A finite int or float that is not a bool."""
    return is_number(value) and math.isfinite(value)


class LatticeError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefinite(LatticeError):
    """A covariance matrix is not positive definite: its Cholesky
    factorization failed, or an eigenvalue of its shared-eigenbasis form is
    not above zero."""


class DimensionMismatch(LatticeError):
    """Operands have incompatible shapes."""


class NonFiniteAction(LatticeError):
    """An environment received a NaN or infinite action."""


class NonFiniteLoss(LatticeError):
    """A PPO update produced a NaN or infinite loss. epoch and start name
    the failing minibatch; last_stats holds the running means of the
    update's statistics over the minibatches before it (empty if it was
    the first)."""

    def __init__(self, message: str, epoch: int | None = None,
                 start: int | None = None, last_stats: dict | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.start = start
        self.last_stats = dict(last_stats or {})


class InsufficientSamples(LatticeError):
    """Not enough samples for the requested statistical analysis."""


class EmptyGroup(LatticeError):
    """An actuator group in a partition is empty."""


class UnknownAnalysisKind(LatticeError):
    """Unrecognized analysis kind requested."""


class CheckpointCorrupt(LatticeError):
    """A checkpoint file could not be parsed or is inconsistent."""


class ConfigError(LatticeError):
    """A run configuration file is invalid."""


class StateSyncUnsupported(LatticeError):
    """The environment does not expose the state interface paired
    simulation steps copies of its state with (state_fields, initial_state,
    advance, observation, kinematics, max_steps, action_dim, rng)."""
