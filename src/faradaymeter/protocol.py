"""Two-copy parity-check protocol mapping concurrence onto a success probability.

Two identical photon pairs (a1, b1) and (a2, b2) are prepared; the a photons
interact with one cavity atom, the b photons with another, and each atom is
read out in the |+/-> basis.  Post-selecting both atoms on |+> keeps exactly
the odd-parity part of the joint state (stage 1).  A quarter-wave-plate
rotation on the a photons followed by a third parity check and |+> readout
(stage 2) succeeds with conditional probability p2, and the product
``p_total = p1 * p2`` equals one quarter of the squared concurrence of the
input pair.

A parity check followed by a |+> readout of its atom acts on the photon
pair alone as one diagonal operator, ``K = r r0 Pi_odd + (r^2 + r0^2)/2
Pi_even``, so :func:`stage_probabilities` evaluates the whole protocol on
the 16 photon amplitudes of the two copies, without atoms.  The labelled
seven-qubit evolution, set up in :mod:`faradaymeter.qstate`, is kept as the
independent reference the core is tested against; :func:`parity_check` is
its one step defined here, and it imports :mod:`faradaymeter.qstate` when
called, so the production paths never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .faraday import ATOM_GL, ATOM_GR, POL_L, POL_R, FaradayPhases, interaction_table

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Post-selection branches below this weight are reported as empty rather than
# renormalized, since dividing by such a norm would only amplify noise.
EMPTY_BRANCH_CUTOFF = 1e-15

# Atom readout basis.
ATOM_PLUS = np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex)

# Quarter-wave plate: R -> (R + L)/sqrt2, L -> (R - L)/sqrt2.
QWP_HADAMARD = np.array([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]], dtype=complex)
# The same plate on both a photons, acting on the pair index 2 * a1 + a2.
_QWP_PAIR = np.kron(QWP_HADAMARD, QWP_HADAMARD)

_NORM_TOL = 1e-10
# Distinct phases whose readout factors are kept: a sweep or a workload
# visits only a few operating points.
_READOUT_CACHE_SIZE = 32
# Forgive only rounding-level excess when converting p_total to a concurrence.
_ROUNDING_SLACK = 1e-9


@dataclass(frozen=True)
class TwoPhotonState:
    """Pure polarization state alpha|RR> + beta|RL> + gamma_c|LR> + delta|LL>.

    The first slot is the a photon, the second the b photon.  The third
    amplitude is called ``gamma_c`` so it cannot be confused with the atomic
    decay rate gamma used elsewhere in the package.  Must be normalized to
    within 1e-10; use :meth:`normalized` to build one from raw amplitudes.
    """

    alpha: complex
    beta: complex
    gamma_c: complex
    delta: complex

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma_c", "delta"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        nrm = math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes()))
        # written so that a NaN norm fails the test
        if not abs(nrm - 1.0) <= _NORM_TOL:
            raise ValueError(f"two-photon amplitudes have norm {nrm!r}, expected 1")

    @classmethod
    def normalized(cls, alpha, beta, gamma_c, delta) -> "TwoPhotonState":
        amps = np.array([alpha, beta, gamma_c, delta], dtype=complex)
        nrm = float(np.linalg.norm(amps))
        if not math.isfinite(nrm):
            raise ValueError(f"two-photon amplitudes have norm {nrm!r}, expected a finite one")
        if nrm < EMPTY_BRANCH_CUTOFF:
            raise ValueError("cannot normalize a zero amplitude vector")
        return cls(*(amps / nrm))

    def amplitudes(self) -> tuple[complex, complex, complex, complex]:
        """Amplitudes in |RR>, |RL>, |LR>, |LL> order."""
        return (self.alpha, self.beta, self.gamma_c, self.delta)


@dataclass(frozen=True)
class ProtocolOutcome:
    """Stage probabilities and the resulting concurrence estimate.

    ``p_total`` is always the exact product ``p1 * p2`` and ``c_estimate``
    is ``2 * sqrt(p_total)``.  A run that cannot succeed reports ``p2``,
    ``p_total`` and ``c_estimate`` as zero.
    """

    p1: float
    p2: float
    p_total: float
    c_estimate: float


def parity_check(state, photon_pair: tuple[str, str], atom: str, phases: FaradayPhases):
    """Reflect two photons off the same cavity, one after the other.

    Part of the seven-qubit reference engine, which keeps the atom explicit:
    takes and returns a :class:`~faradaymeter.qstate.StateVector`.
    """
    from .qstate import apply_diagonal_phase

    table = interaction_table(phases)
    first, second = photon_pair
    state = apply_diagonal_phase(state, (first, atom), table)
    return apply_diagonal_phase(state, (second, atom), table)


def _concurrence_estimate(p_total: float) -> float:
    c = 2.0 * math.sqrt(p_total)
    if 1.0 < c <= 1.0 + _ROUNDING_SLACK:
        return 1.0
    return c


def _failed(p1: float) -> ProtocolOutcome:
    return ProtocolOutcome(p1, 0.0, 0.0, 0.0)


@functools.lru_cache(maxsize=_READOUT_CACHE_SIZE)
def _readout_factors(phases: FaradayPhases) -> np.ndarray:
    """Factor ``K[x, y]`` a parity check plus |+> readout puts on photon bits (x, y).

    The atom starts in |+>; each photon multiplies the amplitude by its
    interaction phase with the atom's ground sublevel, and the |+> readout
    averages the two sublevels: ``K[x, y] = (t(x, g_L) t(y, g_L) +
    t(x, g_R) t(y, g_R)) / 2``.  That is ``r r0`` for odd and
    ``(r^2 + r0^2) / 2`` for even photon parity.  Built once per phases
    and shared, so the array is read-only.
    """
    table = interaction_table(phases)
    t = np.array(
        [
            [table[(POL_R, ATOM_GL)], table[(POL_R, ATOM_GR)]],
            [table[(POL_L, ATOM_GL)], table[(POL_L, ATOM_GR)]],
        ]
    )
    factors = 0.5 * (t @ t.T)
    factors.flags.writeable = False
    return factors


def _readout(weight: float, previous: float) -> float:
    """Conditional |+> probability, or 0.0 for an empty branch."""
    probability = min(1.0, weight / previous)
    return 0.0 if probability < EMPTY_BRANCH_CUTOFF else probability


def stage_probabilities(
    state: TwoPhotonState, phases: FaradayPhases
) -> tuple[float, float, float]:
    """The three conditional |+> readout probabilities of the protocol.

    ``q1`` is the chance atom 1 reads |+>, ``q2`` that atom 2 does given
    atom 1 did, and ``q3`` that atom 3 does given both did, so
    ``p1 = q1 q2`` and ``p2 = q3``.  Works on the two copies as a
    ``(2, 2, 2, 2)`` tensor of photon bits (a1, a2, b1, b2), held as a 4x4
    matrix with the a pair on the rows: each parity check plus readout
    multiplies by :func:`_readout_factors` of its pair, and the
    quarter-wave plates act on the rows.  A probability below
    ``EMPTY_BRANCH_CUTOFF`` is reported as 0.0, and the readouts after it
    as 0.0 too.
    """
    k = _readout_factors(phases).reshape(4, 1)
    psi = np.array(state.amplitudes(), dtype=complex).reshape(2, 2)
    pair = np.multiply.outer(psi, psi).transpose(0, 2, 1, 3).reshape(4, 4)
    x = k * pair  # atom 1 on (a1, a2); the input has unit norm
    w1 = float(np.vdot(x, x).real)
    q1 = _readout(w1, 1.0)
    if q1 == 0.0:
        return 0.0, 0.0, 0.0
    x = x * k.T  # atom 2 on (b1, b2)
    w2 = float(np.vdot(x, x).real)
    q2 = _readout(w2, w1)
    if q2 == 0.0:
        return q1, 0.0, 0.0
    x = k * (_QWP_PAIR @ x)  # plates on a1 and a2, then atom 3 on (a1, a2)
    return q1, q2, _readout(float(np.vdot(x, x).real), w2)


def run_analytic(state: TwoPhotonState, phases: FaradayPhases) -> ProtocolOutcome:
    """Exact stage probabilities of the full protocol.

    Stage 1 post-selects atoms 1 and 2 on |+>; stage 2 rotates the a
    photons, runs the third parity check and post-selects atom 3.  When the
    stage-1 weight falls below the empty-branch cutoff the later stages are
    undefined and reported as zero.
    """
    q1, q2, q3 = stage_probabilities(state, phases)
    p1 = q1 * q2
    if p1 < EMPTY_BRANCH_CUTOFF:
        return _failed(p1)
    p_total = p1 * q3
    return ProtocolOutcome(p1, q3, p_total, _concurrence_estimate(p_total))


def closed_form_outcome(state: TwoPhotonState) -> ProtocolOutcome:
    """Stage probabilities from the closed-form expressions.

    ``p1 = 2|alpha delta|^2 + 2|beta gamma_c|^2`` is the odd-parity weight,
    ``p2 = |alpha delta - beta gamma_c|^2 / (2 (|alpha delta|^2 + |beta gamma_c|^2))``
    the conditional stage-2 success, so the product collapses to
    ``|alpha delta - beta gamma_c|^2``, one quarter of the squared
    concurrence.
    """
    ad = state.alpha * state.delta
    bg = state.beta * state.gamma_c
    odd_weight = abs(ad) ** 2 + abs(bg) ** 2
    p1 = 2.0 * odd_weight
    if p1 < EMPTY_BRANCH_CUTOFF:
        return _failed(p1)
    p2 = abs(ad - bg) ** 2 / (2.0 * odd_weight)
    p_total = p1 * p2
    if p_total < EMPTY_BRANCH_CUTOFF:
        return _failed(p1)
    return ProtocolOutcome(p1, p2, p_total, _concurrence_estimate(p_total))

