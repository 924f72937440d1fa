"""The protocol on the labelled seven-qubit register, atoms included.

Independent of :func:`faradaymeter.protocol.stage_probabilities`: it evolves
two photon pairs and three cavity atoms with the ``qstate`` engine and
projects each atom onto |+>, where the core works on the photons alone.
"""

from faradaymeter.protocol import ATOM_PLUS, QWP_HADAMARD, parity_check
from faradaymeter.qstate import apply_single_qubit, prepare_joint, project_qubit


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
