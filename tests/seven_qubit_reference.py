"""The protocol on the labelled seven-qubit register, atoms included.

Independent of :func:`faradaymeter.protocol.stage_probabilities`: it evolves
two photon pairs and three cavity atoms with the ``qstate`` engine and
projects each atom onto |+>, where the core works on the photons alone.
This file alone knows the register's layout (``FULL_REGISTER``: the four
photons ``a1, a2, b1, b2`` followed by the three cavity atoms), the
prepared and ideal final states on it, the quarter-wave plate and the
engine helpers only the reference needs.
"""

import math

import numpy as np

from faradaymeter.errors import LabelError, NonUnitaryError
from faradaymeter.protocol import ATOM_PLUS, TwoPhotonState, parity_check
from faradaymeter.qstate import (
    _UNITARITY_TOL,
    StateVector,
    _axes_view,
    project_qubit,
    qubit_state,
    tensor_product,
)

PHOTON_LABELS = ("a1", "a2", "b1", "b2")
ATOM_LABELS = ("atom1", "atom2", "atom3")
FULL_REGISTER = PHOTON_LABELS + ATOM_LABELS

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Quarter-wave plate: R -> (R + L)/sqrt2, L -> (R - L)/sqrt2.
QWP_HADAMARD = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)


def reorder(state: StateVector, new_labels) -> StateVector:
    """Permute the register so the same physical state gets new bit positions."""
    new_labels = tuple(new_labels)
    if sorted(new_labels) != sorted(state.labels):
        raise LabelError(f"{new_labels!r} is not a permutation of {state.labels!r}")
    n = state.n_qubits
    cube = state.amps.reshape((2,) * n)
    # Axis j of the C-ordered cube holds the qubit at position n-1-j.
    perm = [n - 1 - state.position(new_labels[n - 1 - j]) for j in range(n)]
    return StateVector(cube.transpose(perm).reshape(-1), new_labels, empty=state.empty)


def apply_single_qubit(state: StateVector, target: str, matrix) -> StateVector:
    """Apply a 2x2 unitary to one qubit."""
    u = np.asarray(matrix, dtype=complex)
    if u.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(2))) > _UNITARITY_TOL:
        raise NonUnitaryError("matrix is not unitary to within 1e-10")
    cube = _axes_view(state, target)
    out = np.empty_like(cube)
    out[:, 0, :] = u[0, 0] * cube[:, 0, :] + u[0, 1] * cube[:, 1, :]
    out[:, 1, :] = u[1, 0] * cube[:, 0, :] + u[1, 1] * cube[:, 1, :]
    return StateVector(out.reshape(-1), state.labels, empty=state.empty)


def basis_amplitude(state: StateVector, bits: dict[str, int]) -> complex:
    """Amplitude of one computational basis state, addressed by label."""
    if set(bits) != set(state.labels):
        raise LabelError(f"bit assignment {sorted(bits)} does not match {state.labels!r}")
    index = 0
    for k, lab in enumerate(state.labels):
        b = bits[lab]
        if b not in (0, 1):
            raise ValueError(f"bit for {lab!r} must be 0 or 1, got {b!r}")
        index |= b << k
    return complex(state.amps[index])


def _pair_state(state: TwoPhotonState, a_label: str, b_label: str) -> StateVector:
    # Register (a, b) with a as the low bit: index = a_bit + 2 * b_bit.
    amps = np.array([state.alpha, state.gamma_c, state.beta, state.delta], dtype=complex)
    return StateVector(amps, (a_label, b_label))


def prepare_joint(state: TwoPhotonState) -> StateVector:
    """Two copies of the pair plus three atoms in |+>, in register order."""
    joint = tensor_product(_pair_state(state, "a1", "b1"), _pair_state(state, "a2", "b2"))
    for atom in ATOM_LABELS:
        joint = tensor_product(joint, qubit_state(atom, _SQRT_HALF, _SQRT_HALF))
    return reorder(joint, FULL_REGISTER)


def target_final_state() -> StateVector:
    """Post-selected state at the ideal operating point.

    The photons end in a product of antisymmetric pairs,
    (|LR> - |RL>)_a1a2 (|RL> - |LR>)_b1b2 / 2, and every atom returns
    to |+>.  The seven-qubit engine's surviving branch is tested against it.
    """
    a_amps = np.array([0.0, _SQRT_HALF, -_SQRT_HALF, 0.0], dtype=complex)
    b_amps = np.array([0.0, -_SQRT_HALF, _SQRT_HALF, 0.0], dtype=complex)
    out = tensor_product(
        StateVector(a_amps, ("a1", "a2")), StateVector(b_amps, ("b1", "b2"))
    )
    for atom in ATOM_LABELS:
        out = tensor_product(out, qubit_state(atom, _SQRT_HALF, _SQRT_HALF))
    return out


def reference_run(state, phases):
    """The three conditional |+> readout probabilities and the final state.

    The final state is the post-selected seven-qubit state, flagged empty
    when a readout cannot pass.
    """
    joint = prepare_joint(state)
    joint = parity_check(joint, ("a1", "a2"), "atom1", phases)
    joint = parity_check(joint, ("b1", "b2"), "atom2", phases)
    q1, joint = project_qubit(joint, "atom1", ATOM_PLUS)
    if joint.empty:
        return 0.0, 0.0, 0.0, joint
    q2, joint = project_qubit(joint, "atom2", ATOM_PLUS)
    if joint.empty:
        return q1, 0.0, 0.0, joint
    joint = apply_single_qubit(joint, "a1", QWP_HADAMARD)
    joint = apply_single_qubit(joint, "a2", QWP_HADAMARD)
    joint = parity_check(joint, ("a1", "a2"), "atom3", phases)
    q3, joint = project_qubit(joint, "atom3", ATOM_PLUS)
    return q1, q2, q3, joint
