"""Cavity reflection coefficients and the Faraday rotation phases they induce.

The physical picture is a single photon reflecting off a one-sided low-Q
cavity that holds a three-level atom.  Each circular polarization couples to
one atomic ground sublevel, so a polarized photon sees either a coupled
cavity (reflection coefficient ``r``) or an effectively empty one (``r0``).
The phase difference between the two cases is the Faraday rotation angle.

All frequencies and rates are angular (rad/s).  Only ratios matter for the
phases, so scaled parameter sets are fine for numerical work.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import SingularParametersError

# Bit values of a photon's polarization and of an atom's ground sublevel.
POL_R = 0
POL_L = 1
ATOM_GL = 0
ATOM_GR = 1

_BRANCH_SNAP = 1e-12


@dataclass(frozen=True)
class CavityParams:
    """One-sided cavity with a single two-level scatterer inside.

    Attributes
    ----------
    omega_c : float
        Cavity resonance frequency.
    omega_p : float
        Frequency of the probe photon.
    omega_0 : float
        Atomic transition frequency.
    kappa : float
        Cavity field damping rate (must be positive).
    gamma : float
        Atomic spontaneous decay rate.
    coupling : float
        Atom-field coupling strength.
    """

    omega_c: float
    omega_p: float
    omega_0: float
    kappa: float
    gamma: float
    coupling: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        for name in ("omega_c", "omega_p", "omega_0"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.kappa <= 0.0:
            raise ValueError("kappa must be positive")
        if self.gamma < 0.0 or self.coupling < 0.0:
            raise ValueError("gamma and coupling must be non-negative")


def reflection_coefficient(params: CavityParams) -> complex:
    """Reflection coefficient seen by the polarization the atom couples to.

    Standard input-output result for a driven one-sided cavity containing a
    two-level emitter, evaluated at the probe frequency.  With ``gamma = 0``
    the numerator and denominator are complex conjugates, so the modulus is
    exactly 1 and only a phase is imprinted.
    """
    delta_c = params.omega_c - params.omega_p
    delta_0 = params.omega_0 - params.omega_p
    atom = 1j * delta_0 + params.gamma / 2.0
    numerator = (1j * delta_c - params.kappa / 2.0) * atom + params.coupling**2
    denominator = (1j * delta_c + params.kappa / 2.0) * atom + params.coupling**2
    scale = (abs(delta_c) + params.kappa / 2.0) * (abs(delta_0) + params.gamma / 2.0)
    scale += params.coupling**2
    if abs(denominator) <= _BRANCH_SNAP * scale:
        raise SingularParametersError(
            "reflection denominator vanishes for these cavity parameters"
        )
    return numerator / denominator


def empty_cavity_coefficient(params: CavityParams) -> complex:
    """Reflection coefficient for the uncoupled polarization (bare cavity)."""
    delta_c = params.omega_c - params.omega_p
    return (1j * delta_c - params.kappa / 2.0) / (1j * delta_c + params.kappa / 2.0)


def principal_phase(z: complex) -> float:
    """Argument of ``z`` on the branch (-pi, pi], with arg(-1) = +pi.

    ``atan2`` returns -pi for a negative real with a signed-zero imaginary
    part; angles within 1e-12 of the cut are snapped onto +pi so that the
    coupled-reflection phase at the operating point is reported as +pi.
    """
    angle = math.atan2(z.imag, z.real)
    if angle <= -math.pi + _BRANCH_SNAP:
        angle = min(math.pi, angle + 2.0 * math.pi)
    return angle


@dataclass(frozen=True)
class FaradayPhases:
    """Reflection phases for the coupled and uncoupled polarizations.

    ``phi`` belongs to the polarization the resident atom couples to,
    ``phi0`` to the other one.  The moduli are carried along so lossy
    parameter sets are visible, but the protocol treats reflection as a
    pure phase.
    """

    phi: float
    phi0: float
    r_modulus: float = 1.0
    r0_modulus: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if name.endswith("modulus"):
                if not -1e-9 <= value <= 1.0 + 1e-9:
                    raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
            elif not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")

    @property
    def rotation_angle(self) -> float:
        """Faraday rotation angle, the difference phi - phi0."""
        return self.phi - self.phi0


def phases_from_params(params: CavityParams) -> FaradayPhases:
    """Evaluate both reflection coefficients and package their phases."""
    r = reflection_coefficient(params)
    r0 = empty_cavity_coefficient(params)
    return FaradayPhases(
        phi=principal_phase(r),
        phi0=principal_phase(r0),
        r_modulus=abs(r),
        r0_modulus=abs(r0),
    )


def ideal_phases() -> FaradayPhases:
    """Operating point (phi, phi0) = (pi, pi/2).

    Reached when the atom and cavity are resonant, the probe sits half a
    linewidth below, the coupling equals half the cavity decay rate and the
    atomic decay is negligible.
    """
    return FaradayPhases(phi=math.pi, phi0=math.pi / 2.0)


# A FaradayPhases is frozen, so one object can serve every call with its
# sigma: a sweep point's run and the check of its config ask for the same one.
# Keyed by type as well, so each call gets the phi its own sigma gives.
@functools.lru_cache(maxsize=64, typed=True)
def perturbed_phases(sigma: float) -> FaradayPhases:
    """Ideal operating point with the coupled phase off by ``sigma``.

    The phases of the last 64 sigmas are kept and returned again; an
    invalid sigma raises on every call.
    """
    if not abs(sigma) < math.pi / 2.0:
        raise ValueError(f"phase error sigma must satisfy |sigma| < pi/2, got {sigma!r}")
    return FaradayPhases(math.pi + sigma, math.pi / 2.0)


def interaction_table(phases: FaradayPhases) -> dict[tuple[int, int], complex]:
    """Photon-atom phase table for one reflection, keyed by (photon, atom) bits.

    An L photon meeting an atom in |g_L>, or an R photon meeting |g_R>,
    drives the cavity transition and picks up ``phi``; the two mismatched
    combinations see the bare cavity and pick up ``phi0``.
    """
    coupled = cmath.exp(1j * phases.phi)
    uncoupled = cmath.exp(1j * phases.phi0)
    return {
        (POL_L, ATOM_GL): coupled,
        (POL_R, ATOM_GR): coupled,
        (POL_R, ATOM_GL): uncoupled,
        (POL_L, ATOM_GR): uncoupled,
    }


def rb87_params() -> CavityParams:
    """Representative rubidium-87 numbers for a low-Q microtoroid.

    The transition frequency is stored as an angular frequency
    (2.42e15 rad/s, the 780 nm line) and kappa as 2 pi x 53 MHz.  The
    operating condition below reproduces the ideal phases to well inside
    a microradian; exact-arithmetic parameter sets do better and are used
    where tolerances are tight.
    """
    omega_0 = 2.42e15
    kappa = 2.0 * math.pi * 53e6
    return CavityParams(
        omega_c=omega_0,
        omega_p=omega_0 - kappa / 2.0,
        omega_0=omega_0,
        kappa=kappa,
        gamma=0.0,
        coupling=kappa / 2.0,
    )
