"""Property test: the closed-form stage weights of the core equal the seven-qubit reference."""

import math

import numpy as np
import pytest
from seven_qubit_reference import reference_run

from faradaymeter.faraday import FaradayPhases
from faradaymeter.protocol import EMPTY_BRANCH_CUTOFF, TwoPhotonState, stage_probabilities

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

_UNIT = st.floats(-1.0, 1.0, allow_nan=False)
_ANGLE = st.floats(-math.pi, math.pi, allow_nan=False)
_IDEAL = {"phi": math.pi, "phi0": math.pi / 2}
_ARBITRARY = {"phi": 1.1, "phi0": -0.4}
_PRODUCT_RR = (1, 0, 0, 0, 0, 0, 0, 0)
_LR = (0, 0, 0, 0, 1, 0, 0, 0)
_ZERO_CONCURRENCE = (0.5, 0, 0.5, 0, 0.5, 0, 0.5, 0)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
@hypothesis.given(amps=st.tuples(*[_UNIT] * 8), phi=_ANGLE, phi0=_ANGLE)
@hypothesis.example(amps=_PRODUCT_RR, **_IDEAL)
@hypothesis.example(amps=_LR, **_IDEAL)
@hypothesis.example(amps=_ZERO_CONCURRENCE, **_IDEAL)
@hypothesis.example(amps=_PRODUCT_RR, **_ARBITRARY)
@hypothesis.example(amps=_LR, **_ARBITRARY)
@hypothesis.example(amps=_ZERO_CONCURRENCE, **_ARBITRARY)
def test_core_matches_seven_qubit_reference(amps, phi, phi0):
    vec = np.array(amps[0::2]) + 1j * np.array(amps[1::2])
    hypothesis.assume(np.linalg.norm(vec) > 1e-3)
    state = TwoPhotonState.normalized(*vec)
    phases = FaradayPhases(phi=phi, phi0=phi0)
    q_core = stage_probabilities(state, phases)
    q_ref = reference_run(state, phases)[:3]
    # A readout probability within rounding of the empty-branch cutoff may
    # land on either side of it in the two evaluations, and then the
    # readouts after it differ by design.
    hypothesis.assume(
        not any(0.5 * EMPTY_BRANCH_CUTOFF < q < 2.0 * EMPTY_BRANCH_CUTOFF for q in q_core + q_ref)
    )
    assert q_core == pytest.approx(q_ref, abs=1e-12, rel=0.0)
