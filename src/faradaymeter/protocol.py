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
pair alone as the diagonal ``K = r r0 Pi_odd + (r^2 + r0^2)/2 Pi_even``.
Only ``|r r0|^2 = 1`` and ``e = |(r^2 + r0^2)/2|^2 = cos^2(phi - phi0)``
reach the readouts, as the plates send the even and odd parts of each b
column to output pairs that atom 3 weighs equally, so
:func:`stage_probabilities` is three closed-form weights and ``p_total =
C^2/4 + e X2 + e^2 X4 + e^3 X6``.  :func:`parity_check` is the one step of
the seven-qubit reference defined here; the reference's register, its
states and the quarter-wave plate live in ``tests/seven_qubit_reference.py``.
It runs on :mod:`faradaymeter.qstate`, which it imports only when called,
so production never loads that module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .faraday import FaradayPhases, interaction_table

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Post-selection branches below this weight are reported as empty rather than
# renormalized, since dividing by such a norm would only amplify noise.
EMPTY_BRANCH_CUTOFF = 1e-15

# Atom readout basis.
ATOM_PLUS = np.array([_SQRT_HALF, _SQRT_HALF], dtype=complex)

_NORM_TOL = 1e-10
# Forgive only rounding-level excess when converting p_total to a concurrence.
_ROUNDING_SLACK = 1e-9


def _norm(amplitudes) -> float:
    """The 2-norm of four amplitudes, bit for bit ``np.linalg.norm``'s (see TwoPhotonState)."""
    a, b, c, d = amplitudes
    return math.sqrt(((a.real * a.real + c.real * c.real) + (b.real * b.real + d.real * d.real))
                     + ((a.imag * a.imag + c.imag * c.imag) + (b.imag * b.imag + d.imag * d.imag)))


def _scaled(amplitudes, nrm: float) -> list[complex]:
    """``amplitudes / nrm`` bit for bit as numpy divides: times ``1 / nrm``, after
    adding 0.0 times the other part, which turns some -0.0 parts into +0.0.
    """
    scale = 1.0 / nrm
    return [complex((z.real + z.imag * 0.0) * scale, (z.imag - z.real * 0.0) * scale)
            for z in amplitudes]


@dataclass(frozen=True)
class TwoPhotonState:
    """Pure polarization state alpha|RR> + beta|RL> + gamma_c|LR> + delta|LL>.

    The first slot is the a photon, the second the b photon.  The third
    amplitude is called ``gamma_c`` so it cannot be confused with the atomic
    decay rate gamma used elsewhere in the package.  Must be normalized to
    within 1e-10; use :meth:`normalized` to build one from raw amplitudes.
    Both sum the squares of the norm in the order of numpy's strided dot,
    ``((re_a^2 + re_g^2) + (re_b^2 + re_d^2)) + (the same of the imaginary parts)``.
    """

    alpha: complex
    beta: complex
    gamma_c: complex
    delta: complex

    def __post_init__(self) -> None:
        if {type(self.alpha), type(self.beta), type(self.gamma_c), type(self.delta)} != {complex}:
            for name in ("alpha", "beta", "gamma_c", "delta"):
                object.__setattr__(self, name, complex(getattr(self, name)))
        nrm = _norm(self.amplitudes())
        # written so that a NaN norm fails the test
        if not abs(nrm - 1.0) <= _NORM_TOL:
            raise ValueError(f"two-photon amplitudes have norm {nrm!r}, expected 1")

    @classmethod
    def normalized(cls, alpha, beta, gamma_c, delta) -> "TwoPhotonState":
        amps = [complex(a) for a in (alpha, beta, gamma_c, delta)]
        nrm = _norm(amps)
        if not math.isfinite(nrm):
            raise ValueError(f"two-photon amplitudes have norm {nrm!r}, expected a finite one")
        if nrm < EMPTY_BRANCH_CUTOFF:
            raise ValueError("cannot normalize a zero amplitude vector")
        return cls(*_scaled(amps, nrm))

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


def _readout(weight: float, previous: float) -> float:
    """Conditional |+> probability, or 0.0 for an empty branch."""
    probability = min(1.0, weight / previous)
    return 0.0 if probability < EMPTY_BRANCH_CUTOFF else probability


def stage_probabilities(
    state: TwoPhotonState, phases: FaradayPhases
) -> tuple[float, float, float]:
    """The three conditional |+> readout probabilities of the protocol.

    ``q1`` is the chance atom 1 reads |+>, ``q2`` that atom 2 does given
    atom 1 did, and ``q3`` that atom 3 does given both did, so ``p1 = q1 q2``
    and ``p2 = q3``; one below ``EMPTY_BRANCH_CUTOFF`` is reported as 0.0, and
    so are the readouts after it.  They are ``w1``, ``w2 / w1`` and ``w3 / w2``
    with ``e = cos^2(phi - phi0)``, (a, b, c, d) = (alpha, beta, gamma_c,
    delta) and the a-photon marginals ``m_R = |a|^2 + |b|^2``, ``m_L = |c|^2 + |d|^2``:

        w1 = e (m_R^2 + m_L^2) + 2 m_R m_L
        w2 = e^2 (|a|^4 + |b|^4 + |c|^4 + |d|^4) + 2 (|ad|^2 + |bc|^2)
             + 2e (|ab|^2 + |cd|^2 + |ac|^2 + |bd|^2)
        w3 = |ad - bc|^2 + e (|ad + bc|^2 + |ab - cd|^2)
             + e^2 (|ab + cd|^2 + 2|ac|^2 + 2|bd|^2 + |a^2 - c^2|^2 / 2 + |b^2 - d^2|^2 / 2)
             + e^3 (|a^2 + c^2|^2 + |b^2 + d^2|^2) / 2
    """
    e = math.cos(phases.phi - phases.phi0) ** 2
    a, b, c, d = state.amplitudes()
    na, nb, nc, nd = abs(a) ** 2, abs(b) ** 2, abs(c) ** 2, abs(d) ** 2
    m_r, m_l = na + nb, nc + nd
    w1 = e * (m_r * m_r + m_l * m_l) + 2.0 * m_r * m_l  # the input has unit norm
    q1 = _readout(w1, 1.0)
    if q1 == 0.0:
        return 0.0, 0.0, 0.0
    w2 = e * e * (na * na + nb * nb + nc * nc + nd * nd) + 2.0 * (na * nd + nb * nc)
    w2 += 2.0 * e * (na * nb + nc * nd + na * nc + nb * nd)
    q2 = _readout(w2, w1)
    if q2 == 0.0:
        return q1, 0.0, 0.0
    ad, bc, ab, cd, a2, b2, c2, d2 = a * d, b * c, a * b, c * d, a * a, b * b, c * c, d * d
    w3 = abs(ad - bc) ** 2 + e * (abs(ad + bc) ** 2 + abs(ab - cd) ** 2)
    w3 += e * e * (abs(ab + cd) ** 2 + 2.0 * (na * nc + nb * nd)
                   + 0.5 * (abs(a2 - c2) ** 2 + abs(b2 - d2) ** 2))
    w3 += 0.5 * e**3 * (abs(a2 + c2) ** 2 + abs(b2 + d2) ** 2)
    return q1, q2, _readout(w3, w2)


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

