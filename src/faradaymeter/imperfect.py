"""Detection efficiency and phase-error models, with their inversions.

Two imperfections are tracked.  Finite detector efficiency eta_a rescales
the observed coincidence rate by eta_a^3 (three atom readouts) without
touching the quantum probabilities.  A coupled-phase error sigma lets the
wrong parity branch leak through each atom readout with probability
``sin(sigma)^2``, degrading an ideal stage probability p to
``p + (1 - p) * sin(sigma)^2``.  Both effects are invertible as long as the
leak is not total and the efficiency is nonzero.

No record reads the leak model: on most states its inversion lands further
from the true concurrence than the uncorrected number, so records divide
out eta_a^3 only.  The model is kept for library use and for the checks of
its exactness and of the round trip through it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import InconsistentObservationError, NonInvertibleError
from .faraday import ideal_phases, perturbed_phases
from .protocol import TwoPhotonState, run_analytic

_SOFT_SIGMA_BOUND = math.pi / 4.0
# Allow observed frequencies to undershoot the model floor by a little
# statistical noise before declaring the observation inconsistent.
_FLUCTUATION_SLACK = 1e-9


@dataclass(frozen=True)
class ImperfectionParams:
    """Detector efficiency and coupled-phase error for one run.

    ``eta_a`` must lie in (0, 1] and have a nonzero cube (above about
    1.4e-108): the correction divides by eta_a**3.  ``perturbed_phases``
    checks sigma, but no record corrects the phase error and its bias grows
    with sigma (2 sqrt(p_total) is off by up to about 0.6 at sigma 0.5), so
    values at or beyond pi/4 trigger a warning.
    """

    eta_a: float = 1.0
    sigma: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta_a <= 1.0:
            raise ValueError(f"eta_a must lie in (0, 1], got {self.eta_a!r}")
        if self.eta_a**3 == 0.0:
            raise ValueError(f"eta_a is too small: eta_a**3 underflows to 0, got {self.eta_a!r}")
        perturbed_phases(self.sigma)  # raises for a sigma outside its domain
        if abs(self.sigma) >= _SOFT_SIGMA_BOUND:
            # stacklevel 3 skips this method and the generated __init__, so
            # the warning names the line that built the parameters
            warnings.warn(
                f"phase error sigma={self.sigma!r} is outside the small-error "
                "regime |sigma| < pi/4",
                stacklevel=3,
            )


def leak_probability(sigma: float) -> float:
    """Chance the wrong parity branch survives one readout: sin(sigma)^2."""
    return math.sin(sigma) ** 2


def _degraded_parity_probability(p: float, sigma: float) -> float:
    """Ideal stage probability ``p`` observed under a phase error ``sigma``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    leak = leak_probability(sigma)
    return p + (1.0 - p) * leak


def invert_parity_probability(p_observed: float, sigma: float) -> float:
    """Undo the leak: recover the ideal ``p`` from an observed value.

    An observation below the model floor ``sin(sigma)^2`` cannot come from
    any ideal probability and raises; the result is clamped into [0, 1].
    """
    if not 0.0 <= p_observed <= 1.0:
        raise ValueError(f"probability {p_observed!r} outside [0, 1]")
    leak = leak_probability(sigma)
    if leak >= 1.0 - 1e-12:
        raise NonInvertibleError("phase error leaks every trial; nothing to invert")
    if p_observed < leak - _FLUCTUATION_SLACK:
        raise InconsistentObservationError(
            f"observed probability {p_observed!r} is below the leak floor {leak!r}"
        )
    return min(1.0, max(0.0, (p_observed - leak) / (1.0 - leak)))


def recover_concurrence(p1_observed: float, p2_observed: float, params: ImperfectionParams) -> float:
    """Calibrated concurrence from observed stage probabilities.

    Inverts the leak on each stage, divides the three detection factors out
    of the product and maps through ``2 sqrt(p_total)``.  The stage-1
    observation covers two atom readouts, but the leak correction is applied
    to it once: that model is measurably closer to the exact simulation than
    one that treats the two readouts as independently degraded.
    """
    q1 = invert_parity_probability(p1_observed, params.sigma)
    q2 = invert_parity_probability(p2_observed, params.sigma)
    p_total = q1 * q2 / params.eta_a**3
    return min(1.0, 2.0 * math.sqrt(p_total))


def model_observed_probabilities(p1: float, p2: float, sigma: float) -> tuple[float, float]:
    """Forward model: ideal stage probabilities as seen under a phase error."""
    return _degraded_parity_probability(p1, sigma), _degraded_parity_probability(p2, sigma)


def model_deviation(state: TwoPhotonState, sigma: float) -> float:
    """Largest gap between the leak model and the exact perturbed simulation.

    Useful for checking that the model error vanishes quadratically as the
    phase error shrinks.
    """
    ideal = run_analytic(state, ideal_phases())
    m1, m2 = model_observed_probabilities(ideal.p1, ideal.p2, sigma)
    exact = run_analytic(state, perturbed_phases(sigma))
    return max(abs(exact.p1 - m1), abs(exact.p2 - m2))
