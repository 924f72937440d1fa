"""Concurrence measurement via cavity-assisted photonic parity checks.

The package simulates a scheme in which the entanglement of an arbitrary
pure two-photon polarization state is read off a post-selection success
probability: two copies of the state interact with cavity atoms through
polarization-dependent reflection phases, the atoms are measured, and the
joint success probability equals one quarter of the squared concurrence.
Alongside the simulator live independent concurrence oracles, an
imperfection model with its inversion, and a deterministic Monte Carlo
estimator.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    FaradaymeterError,
    InconsistentObservationError,
    LabelCollisionError,
    LabelError,
    NonInvertibleError,
    NonUnitaryError,
    NumericalFailureError,
    SingularParametersError,
)
from .estimator import (
    EstimateReport,
    TrialConfig,
    TrialOutcome,
    estimate,
    run_trial,
    trial_stream,
    wilson_interval,
)
from .faraday import (
    CavityParams,
    FaradayPhases,
    empty_cavity_coefficient,
    ideal_phases,
    interaction_table,
    perturbed_phases,
    phases_from_params,
    reflection_coefficient,
)
from .imperfect import (
    ImperfectionParams,
    degraded_parity_probability,
    invert_parity_probability,
    leak_probability,
    model_deviation,
    model_observed_probabilities,
    recover_concurrence,
)
from .oracle import (
    concurrence_mixed,
    concurrence_pure,
    concurrence_pure_general,
)
from .protocol import (
    ProtocolOutcome,
    TwoPhotonState,
    closed_form_outcome,
    run_analytic,
    stage_probabilities,
    target_final_state,
)
from .qstate import StateVector

__all__ = [name for name in dir() if not name.startswith("_")]
