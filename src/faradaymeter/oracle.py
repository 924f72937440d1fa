"""Independent concurrence references used to validate the protocol output.

Three routes of increasing generality: the closed form for the standard
four-amplitude decomposition, the spin-flip overlap for an arbitrary pure
two-qubit vector, and the mixed-state formula built on the square roots of
the eigenvalues of ``rho rho_tilde``.  None of them touch the protocol
machinery, so agreement between a protocol estimate and these numbers is
meaningful evidence.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalFailureError
from .protocol import TwoPhotonState

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_YY = np.kron(SIGMA_Y, SIGMA_Y)

_HERMITIAN_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGVAL_FLOOR = -1e-9


def concurrence_pure(state: TwoPhotonState) -> float:
    """Concurrence 2|alpha delta - beta gamma_c| of a pure two-photon state."""
    value = 2.0 * abs(state.alpha * state.delta - state.beta * state.gamma_c)
    return min(1.0, value)


def concurrence_pure_general(psi) -> float:
    """Spin-flip concurrence |psi^T (sigma_y x sigma_y) psi| of a pure 4-vector.

    The vector is ordered |00>, |01>, |10>, |11> with the first qubit in the
    leading slot, and must be normalized to within 1e-10.
    """
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    if vec.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got shape {np.shape(psi)}")
    if abs(np.linalg.norm(vec) - 1.0) > _HERMITIAN_TOL:
        raise ValueError("pure-state vector must be normalized")
    return min(1.0, float(abs(vec @ (SIGMA_YY @ vec))))


def _validated_eigh(rho) -> tuple[np.ndarray, np.ndarray]:
    """Validate a density matrix; return its eigenvalues and eigenvectors."""
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValueError("density matrix entries must be finite")
    if np.max(np.abs(mat - mat.conj().T)) > _HERMITIAN_TOL:
        raise ValueError("density matrix is not Hermitian to within 1e-10")
    if abs(np.trace(mat).real - 1.0) > _TRACE_TOL or abs(np.trace(mat).imag) > _TRACE_TOL:
        raise ValueError(f"density matrix trace is {np.trace(mat)!r}, expected 1")
    evals, evecs = np.linalg.eigh(mat)
    if float(evals[0]) < _EIGVAL_FLOOR:
        raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
    return evals, evecs


def concurrence_mixed(rho) -> float:
    """Concurrence of an arbitrary two-qubit density matrix.

    The square roots of the eigenvalues of ``rho rho_tilde`` are the
    singular values of ``X^T (sigma_y x sigma_y) X`` for any factor
    ``rho = X X^dagger``; ``X`` is taken from the eigendecomposition the
    validation already computes, with round-off negative eigenvalues set to
    zero.  Sorting them as l1 >= ... >= l4 gives ``max(0, l1 - l2 - l3 - l4)``.
    Working with the roots directly keeps small genuine ones exact, where
    the eigenvalues of ``rho rho_tilde`` itself (their squares) would sink
    below round-off for nearly pure inputs.
    """
    evals, evecs = _validated_eigh(rho)
    factor = evecs * np.sqrt(np.maximum(evals, 0.0))
    try:
        roots = np.linalg.svd(factor.T @ SIGMA_YY @ factor, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"singular value iteration failed: {exc}") from exc
    value = roots[0] - roots[1] - roots[2] - roots[3]
    return max(0.0, min(1.0, float(value)))


def density_from_pure(psi) -> np.ndarray:
    """Rank-one density matrix |psi><psi| of a normalized 4-vector."""
    vec = np.asarray(psi, dtype=complex).reshape(-1)
    if vec.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got shape {np.shape(psi)}")
    if abs(np.linalg.norm(vec) - 1.0) > _HERMITIAN_TOL:
        raise ValueError("pure-state vector must be normalized")
    return np.outer(vec, vec.conj())
