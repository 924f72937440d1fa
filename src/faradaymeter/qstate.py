"""Dense state-vector engine for a small register of labeled two-level systems.

Conventions, fixed package-wide:

* A register is an ordered tuple of unique string labels.  The qubit at
  position ``k`` contributes ``bit_k * 2**k`` to the basis index, so the
  first label is the least significant bit.
* Photon polarization maps ``|R> -> 0`` and ``|L> -> 1``, and atomic
  ground sublevels map ``|g_L> -> 0`` and ``|g_R> -> 1`` (``POL_*`` and
  ``ATOM_*`` in :mod:`faradaymeter.faraday`).

Every operation returns a new :class:`StateVector`; amplitudes are never
mutated in place.  The module holds what the acceptance criteria and
:func:`faradaymeter.protocol.parity_check` use.  The seven-qubit reference
the protocol's exact core is tested against (its register, prepared and
ideal final states, the quarter-wave plate and the helpers only it needs)
lives in ``tests/seven_qubit_reference.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import LabelCollisionError, LabelError, NonUnitaryError
from .protocol import EMPTY_BRANCH_CUTOFF

_UNITARITY_TOL = 1e-10
_BASIS_TOL = 1e-12


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over the computational basis of a labeled register.

    Attributes
    ----------
    amps : numpy.ndarray
        ``2**n`` complex amplitudes, indexed with the first label as the
        least significant bit.
    labels : tuple of str
        Ordered, unique qubit labels.
    empty : bool
        True only for the flagged zero vector returned when a projection
        removed (essentially) all weight.
    """

    amps: np.ndarray
    labels: tuple[str, ...]
    empty: bool = False

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        if len(set(labels)) != len(labels):
            raise LabelCollisionError(f"duplicate qubit labels in {labels!r}")
        amps = np.array(self.amps, dtype=complex)
        if amps.shape != (2 ** len(labels),):
            raise ValueError(
                f"expected {2 ** len(labels)} amplitudes for {len(labels)} "
                f"qubits, got shape {amps.shape}"
            )
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes must be finite")
        amps.flags.writeable = False
        object.__setattr__(self, "amps", amps)
        object.__setattr__(self, "labels", labels)

    @property
    def n_qubits(self) -> int:
        return len(self.labels)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def position(self, label: str) -> int:
        """Bit position of ``label`` (0 = least significant)."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise LabelError(f"no qubit {label!r} in register {self.labels!r}") from None


def from_amplitudes(labels, amps) -> StateVector:
    """Build a state from an explicit amplitude vector of unit norm (to 1e-10)."""
    state = StateVector(np.asarray(amps, dtype=complex), tuple(labels))
    nrm = state.norm()
    if abs(nrm - 1.0) > _UNITARITY_TOL:
        raise ValueError(f"amplitudes have norm {nrm!r}, expected 1")
    return state


def qubit_state(label: str, amp0: complex, amp1: complex) -> StateVector:
    """Single-qubit state ``amp0|0> + amp1|1>`` (must be normalized)."""
    return from_amplitudes((label,), [amp0, amp1])


def empty_branch(labels) -> StateVector:
    """The flagged zero vector standing in for an impossible branch."""
    return StateVector(np.zeros(2 ** len(tuple(labels)), dtype=complex), tuple(labels), empty=True)


def tensor_product(left: StateVector, right: StateVector) -> StateVector:
    """Join two registers; ``left`` keeps the low bit positions."""
    overlap = set(left.labels) & set(right.labels)
    if overlap:
        raise LabelCollisionError(f"labels {sorted(overlap)} appear in both registers")
    # index(left+right) = index(left) + index(right) << n_left, which is
    # exactly kron with the right factor leading.
    return StateVector(
        np.kron(right.amps, left.amps),
        left.labels + right.labels,
        empty=left.empty or right.empty,
    )


def _axes_view(state: StateVector, target: str) -> np.ndarray:
    """Reshape so axis 1 is the target qubit: (high bits, target, low bits)."""
    pos = state.position(target)
    n = state.n_qubits
    return state.amps.reshape(2 ** (n - pos - 1), 2, 2**pos)


def apply_diagonal_phase(state: StateVector, targets, table: dict) -> StateVector:
    """Multiply each basis amplitude by a phase chosen from a bit-pattern table.

    Parameters
    ----------
    targets : sequence of str
        Labels whose joint bit pattern selects the phase.
    table : dict
        Maps bit tuples (ordered as ``targets``) to unit-modulus factors.
        Patterns absent from the table keep their amplitude unchanged.
    """
    targets = tuple(targets)
    positions = [state.position(t) for t in targets]
    if len(set(positions)) != len(positions):
        raise LabelCollisionError(f"repeated target in {targets!r}")
    index = np.arange(state.amps.size)
    bit_columns = [(index >> p) & 1 for p in positions]
    factors = np.ones(state.amps.size, dtype=complex)
    for pattern, phase in table.items():
        if isinstance(pattern, int):
            pattern = (pattern,)
        pattern = tuple(pattern)
        if len(pattern) != len(targets) or any(b not in (0, 1) for b in pattern):
            raise ValueError(f"pattern {pattern!r} does not address targets {targets!r}")
        phase = complex(phase)
        if abs(abs(phase) - 1.0) > _BASIS_TOL:
            raise NonUnitaryError(f"phase factor {phase!r} is not unit modulus")
        selected = np.ones(state.amps.size, dtype=bool)
        for bit, column in zip(pattern, bit_columns):
            selected &= column == bit
        factors[selected] = phase
    return StateVector(state.amps * factors, state.labels, empty=state.empty)


def _check_axis(vec) -> np.ndarray:
    axis = np.asarray(vec, dtype=complex).reshape(-1)
    if axis.shape != (2,):
        raise ValueError("projection axis must be a 2-vector")
    if abs(np.linalg.norm(axis) - 1.0) > _BASIS_TOL:
        raise ValueError("projection axis must be normalized")
    return axis


def project_qubit(state: StateVector, target: str, axis_state) -> tuple[float, StateVector]:
    """Project one qubit onto a pure state and renormalize.

    Returns ``(probability, collapsed_state)``.  Probabilities below
    ``EMPTY_BRANCH_CUTOFF`` yield a flagged empty branch instead of an
    unstable renormalization.
    """
    axis = _check_axis(axis_state)
    cube = _axes_view(state, target)
    overlap = axis[0].conjugate() * cube[:, 0, :] + axis[1].conjugate() * cube[:, 1, :]
    probability = min(1.0, float(np.sum(np.abs(overlap) ** 2)))
    if probability < EMPTY_BRANCH_CUTOFF:
        return 0.0, empty_branch(state.labels)
    scaled = overlap / math.sqrt(probability)
    out = np.empty_like(cube)
    out[:, 0, :] = axis[0] * scaled
    out[:, 1, :] = axis[1] * scaled
    return probability, StateVector(out.reshape(-1), state.labels)
