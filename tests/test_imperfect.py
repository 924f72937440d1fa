"""Tests for the imperfection model and its inversion."""

import math
import warnings

import numpy as np
import pytest

from faradaymeter.errors import InconsistentObservationError, NonInvertibleError
from faradaymeter.faraday import ideal_phases, perturbed_phases
from faradaymeter.imperfect import (
    ImperfectionParams,
    _degraded_parity_probability,
    invert_parity_probability,
    leak_probability,
    model_deviation,
    model_observed_probabilities,
    recover_concurrence,
)
from faradaymeter.protocol import (
    ATOM_PLUS,
    TwoPhotonState,
    closed_form_outcome,
    parity_check,
    run_analytic,
)
from faradaymeter.qstate import from_amplitudes, project_qubit, qubit_state, tensor_product

SQ2 = 1.0 / math.sqrt(2.0)
BELL = TwoPhotonState(SQ2, 0.0, 0.0, SQ2)


class TestParams:
    def test_bounds(self):
        with pytest.raises(ValueError):
            ImperfectionParams(eta_a=1.2)
        with pytest.raises(ValueError):
            ImperfectionParams(eta_a=-0.1)
        with pytest.raises(ValueError):
            ImperfectionParams(sigma=math.pi / 2)

    @pytest.mark.parametrize("sigma", [math.pi / 2, -2.0, math.inf, math.nan])
    def test_sigma_domain_and_message_are_perturbed_phases(self, sigma):
        with pytest.raises(ValueError) as expected:
            perturbed_phases(sigma)
        with pytest.raises(ValueError) as raised:
            ImperfectionParams(sigma=sigma)
        assert str(raised.value) == str(expected.value)

    def test_large_sigma_warns(self):
        with pytest.warns(UserWarning, match="small-error"):
            ImperfectionParams(sigma=0.9)

    def test_large_sigma_warning_names_sigma_and_caller(self):
        with pytest.warns(UserWarning) as record:
            ImperfectionParams(sigma=0.9)
        (warning,) = record
        assert "sigma" in str(warning.message)
        assert warning.filename == __file__
        formatted = warnings.formatwarning(
            warning.message, warning.category, warning.filename, warning.lineno
        )
        assert "<string>" not in formatted

    def test_defaults_are_ideal(self):
        params = ImperfectionParams()
        assert params.eta_a == 1.0
        assert params.sigma == 0.0


class TestLeak:
    def test_values(self):
        assert leak_probability(0.0) == 0.0
        assert leak_probability(math.pi / 4) == pytest.approx(0.5, abs=1e-15)
        assert leak_probability(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_matches_exponential_form(self):
        # sin^2(sigma) is |1 - e^{2i sigma}|^2 / 4 written without complex arithmetic
        for sigma in np.linspace(-1.2, 1.2, 13):
            direct = abs(1 - np.exp(2j * sigma)) ** 2 / 4
            assert leak_probability(sigma) == pytest.approx(direct, abs=1e-15)

    def test_single_even_pair_through_perturbed_check(self):
        # one even-parity pair against a sigma-perturbed check: the chance of
        # the atom still reading |+> is exactly the leak probability
        for sigma in (0.05, 0.3, 0.7):
            photons = from_amplitudes(("p1", "p2"), [1.0, 0, 0, 0])
            state = tensor_product(photons, qubit_state("atom", SQ2, SQ2))
            out = parity_check(state, ("p1", "p2"), "atom", perturbed_phases(sigma))
            probability, _ = project_qubit(out, "atom", ATOM_PLUS)
            assert probability == pytest.approx(leak_probability(sigma), abs=1e-12)


class TestDegradeInvert:
    def test_degrade_examples(self):
        assert _degraded_parity_probability(0.3, 0.0) == 0.3
        assert _degraded_parity_probability(0.0, math.pi / 4) == pytest.approx(0.5)
        assert _degraded_parity_probability(1.0, 0.7) == 1.0

    def test_degrade_monotone_in_p(self):
        sigma = 0.4
        grid = np.linspace(0.0, 1.0, 21)
        values = [_degraded_parity_probability(p, sigma) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invert_examples(self):
        assert invert_parity_probability(0.5, math.pi / 4) == pytest.approx(0.0)
        assert invert_parity_probability(0.37, 0.0) == 0.37

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(131)
        for _ in range(200):
            p = rng.uniform(0.0, 1.0)
            sigma = rng.uniform(-1.0, 1.0)
            degraded = _degraded_parity_probability(p, sigma)
            assert invert_parity_probability(degraded, sigma) == pytest.approx(p, abs=1e-12)

    def test_total_leak_not_invertible(self):
        with pytest.raises(NonInvertibleError):
            invert_parity_probability(0.5, math.pi / 2)

    def test_inconsistent_observation(self):
        with pytest.raises(InconsistentObservationError):
            invert_parity_probability(0.1, 0.6)


class TestRecover:
    def test_ideal_passthrough(self):
        assert recover_concurrence(0.5, 0.5, ImperfectionParams()) == pytest.approx(1.0)

    def test_detection_roundtrip(self):
        params = ImperfectionParams(eta_a=0.66)
        outcome = closed_form_outcome(TwoPhotonState(0.8, 0, 0, 0.6))
        observed1 = 0.66**2 * outcome.p1
        observed2 = 0.66 * outcome.p2
        recovered = recover_concurrence(observed1, observed2, params)
        assert recovered == pytest.approx(outcome.c_estimate, abs=1e-10)

    def test_leak_roundtrip(self):
        sigma = 0.05
        params = ImperfectionParams(sigma=sigma)
        outcome = closed_form_outcome(BELL)
        observed1, observed2 = model_observed_probabilities(outcome.p1, outcome.p2, sigma)
        recovered = recover_concurrence(observed1, observed2, params)
        assert recovered == pytest.approx(1.0, abs=1e-10)

    def test_zero_efficiency_rejected(self):
        # a zero efficiency is refused when the parameters are built, so the
        # recovery never divides by eta_a**3 == 0
        with pytest.raises(ValueError):
            recover_concurrence(0.5, 0.5, ImperfectionParams(eta_a=0.0))

    def test_detection_correction_order_is_immaterial(self):
        # dividing eta factors out per stage or once on the product must agree
        params = ImperfectionParams(eta_a=0.66, sigma=0.04)
        p1_obs, p2_obs = 0.31, 0.42
        combined = recover_concurrence(p1_obs, p2_obs, params)
        q1 = invert_parity_probability(p1_obs, params.sigma)
        q2 = invert_parity_probability(p2_obs, params.sigma)
        stagewise = 2.0 * math.sqrt((q1 / params.eta_a**2) * (q2 / params.eta_a))
        assert combined == pytest.approx(min(1.0, stagewise), abs=1e-12)

    def test_result_clamped(self):
        params = ImperfectionParams(eta_a=0.5)
        assert recover_concurrence(1.0, 1.0, params) == 1.0


class TestModelAgainstSimulation:
    def test_observed_probabilities_exceed_ideal(self):
        sigma = 0.2
        ideal = closed_form_outcome(BELL)
        exact = run_analytic(BELL, perturbed_phases(sigma))
        assert exact.p1 > ideal.p1 - 1e-12
        assert exact.p2 > ideal.p2

    def test_deviation_shrinks_quadratically(self):
        big = model_deviation(BELL, 0.2)
        small = model_deviation(BELL, 0.1)
        assert small < big
        # quadratic scaling leaves roughly a factor of four
        assert small < 0.5 * big

    def test_single_application_closer_than_compound(self):
        # the model applies the stage-1 leak once; degrading stage 1 twice,
        # once per atom readout, lands farther from the exact perturbed run
        sigma = 0.2
        for state in (BELL, TwoPhotonState(0.8, 0, 0, 0.6)):
            ideal = run_analytic(state, ideal_phases())
            exact = run_analytic(state, perturbed_phases(sigma))
            twice = _degraded_parity_probability(
                _degraded_parity_probability(ideal.p1, sigma), sigma
            )
            double = max(
                abs(exact.p1 - twice),
                abs(exact.p2 - _degraded_parity_probability(ideal.p2, sigma)),
            )
            assert model_deviation(state, sigma) < double
