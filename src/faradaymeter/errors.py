"""Exception hierarchy shared across the package."""

from __future__ import annotations


class FaradaymeterError(Exception):
    """Base class for all package-specific errors."""


class LabelError(FaradaymeterError):
    """A qubit label is unknown to the register being operated on."""


class LabelCollisionError(FaradaymeterError):
    """Two registers (or one register) carry a duplicated qubit label."""


class NonUnitaryError(FaradaymeterError):
    """An operation that must preserve norm was given a non-unitary map."""


class SingularParametersError(FaradaymeterError):
    """Cavity parameters put the reflection denominator at (or under) zero."""


class NumericalFailureError(FaradaymeterError):
    """A numerical routine (eigenvalue iteration, ...) did not converge."""


class NonInvertibleError(FaradaymeterError):
    """Imperfection parameters admit no inversion (a phase error that leaks every trial)."""


class InconsistentObservationError(FaradaymeterError):
    """An observed probability lies outside the range the error model allows."""


class ConfigError(FaradaymeterError):
    """A run configuration is malformed or violates a documented bound."""
