"""Independent concurrence references used to validate the protocol output.

Three routes of increasing generality: the closed form for the standard
four-amplitude decomposition, the spin-flip overlap for an arbitrary pure
two-qubit vector, and the mixed-state formula built on the square roots of
the eigenvalues of ``rho rho_tilde``.  None of them touch the protocol
machinery, so agreement between a protocol estimate and these numbers is
meaningful evidence.
"""

from __future__ import annotations

import cmath

import numpy as np

from .errors import NumericalFailureError
from .protocol import TwoPhotonState

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)
# SIGMA_YY's anti-diagonal from the top right corner down; the row-major
# positions of each entry on or above the diagonal and of its mirror.
_FLIP_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])
_MIRRORED = [(4 * row + col, 4 * col + row) for row in range(4) for col in range(row, 4)]

_HERMITIAN_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGVAL_FLOOR = -1e-9


def concurrence_pure(state: TwoPhotonState) -> float:
    """Concurrence 2|alpha delta - beta gamma_c| of a pure two-photon state."""
    value = 2.0 * abs(state.alpha * state.delta - state.beta * state.gamma_c)
    return min(1.0, value)


def _pure_vector(psi) -> np.ndarray:
    """``psi`` as a complex 4-vector, rejected unless finite and normalized to within 1e-10."""
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    if vec.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got shape {np.shape(psi)}")
    if not abs(np.linalg.norm(vec) - 1.0) <= _HERMITIAN_TOL:
        raise ValueError("pure-state vector must be normalized")
    return vec


def concurrence_pure_general(psi) -> float:
    """Spin-flip concurrence |psi^T (sigma_y x sigma_y) psi| of a pure 4-vector.

    The vector is ordered |00>, |01>, |10>, |11> with the first qubit in the
    leading slot, and must be normalized to within 1e-10.
    """
    vec = _pure_vector(psi)
    return min(1.0, float(abs(vec @ (SIGMA_YY @ vec))))


def _validated_eigh(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate a density matrix; return its eigenvalues and eigenvectors."""
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    entries = mat.ravel().tolist()
    if not all(map(cmath.isfinite, entries)):
        raise ValueError("density matrix entries must be finite")
    for upper, lower in _MIRRORED:
        if abs(entries[upper] - entries[lower].conjugate()) > _HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian to within 1e-10")
    trace = (entries[0] + entries[5]) + (entries[10] + entries[15])  # numpy's order
    if abs(trace.real - 1.0) > _TRACE_TOL or abs(trace.imag) > _TRACE_TOL:
        raise ValueError(f"density matrix trace is {trace!r}, expected 1")
    evals, evecs = np.linalg.eigh(mat)
    if float(evals[0]) < _EIGVAL_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return evals, evecs


def concurrence_mixed(rho) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    The square roots of the eigenvalues of ``rho rho_tilde`` are the
    singular values of ``X^T (sigma_y x sigma_y) X`` for any factor ``rho =
    X X^dagger``; ``X`` comes from the eigendecomposition that follows the
    checks of the entries, read as Python numbers, with round-off negative
    eigenvalues set to zero.  ``X^T (sigma_y x sigma_y)`` is ``X^T`` with its
    columns reversed and signed.  The roots l1 >= ... >= l4, as Python floats,
    give ``max(0, l1 - l2 - l3 - l4)``; small genuine ones stay exact, where
    their squares, the eigenvalues of ``rho rho_tilde``, sink below round-off.
    """
    evals, evecs = _validated_eigh(rho)
    factor = evecs * np.sqrt(np.maximum(evals, 0.0))
    try:
        roots = np.linalg.svd((factor.T[:, ::-1] * _FLIP_SIGNS) @ factor, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular value iteration failed: {exc}") from exc
    l1, l2, l3, l4 = roots.tolist()
    return max(0.0, min(1.0, l1 - l2 - l3 - l4))


def density_from_pure(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| of a normalized 4-vector."""
    vec = _pure_vector(psi)
    return np.outer(vec, vec.conj())
