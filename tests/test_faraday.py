"""Tests for the reflection coefficients and rotation phases."""

import cmath
import math

import numpy as np
import pytest

from faradaymeter.errors import SingularParametersError
from faradaymeter.faraday import (
    ATOM_GL,
    ATOM_GR,
    POL_L,
    POL_R,
    CavityParams,
    FaradayPhases,
    empty_cavity_coefficient,
    ideal_phases,
    interaction_table,
    perturbed_phases,
    phases_from_params,
    principal_phase,
    rb87_params,
    reflection_coefficient,
)

# Exactly representable operating point: detunings and coupling are halves
# of a power of two, so the ideal cancellation happens in exact arithmetic.
IDEAL = CavityParams(omega_c=5.0, omega_p=4.5, omega_0=5.0, kappa=1.0, gamma=0.0, coupling=0.5)


class TestCoefficients:
    def test_ideal_point_values(self):
        assert reflection_coefficient(IDEAL) == pytest.approx(-1.0, abs=1e-12)
        assert empty_cavity_coefficient(IDEAL) == pytest.approx(1j, abs=1e-12)

    def test_detuned_fixture(self):
        # frozen from a direct evaluation of the input-output expressions
        params = CavityParams(
            omega_c=5.0, omega_p=4.7, omega_0=5.2, kappa=1.3, gamma=0.4, coupling=0.8
        )
        r = reflection_coefficient(params)
        r0 = empty_cavity_coefficient(params)
        assert r == pytest.approx(0.22750528045059873 - 0.5686927951185168j, abs=1e-14)
        assert r0 == pytest.approx(-0.6487804878048784 + 0.7609756097560972j, abs=1e-14)

    def test_lossless_atom_gives_unit_modulus(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            params = CavityParams(
                omega_c=10.0,
                omega_p=10.0 + rng.uniform(-3, 3),
                omega_0=10.0 + rng.uniform(-3, 3),
                kappa=rng.uniform(0.2, 4.0),
                gamma=0.0,
                coupling=rng.uniform(0.0, 2.0),
            )
            assert abs(reflection_coefficient(params)) == pytest.approx(1.0, abs=1e-12)
            assert abs(empty_cavity_coefficient(params)) == pytest.approx(1.0, abs=1e-12)

    def test_decoupled_atom_reduces_to_bare_cavity(self):
        params = CavityParams(
            omega_c=5.0, omega_p=4.6, omega_0=5.3, kappa=1.1, gamma=0.2, coupling=0.0
        )
        assert reflection_coefficient(params) == pytest.approx(
            empty_cavity_coefficient(params), abs=1e-14
        )

    def test_singular_parameters(self):
        bad = CavityParams(omega_c=5.0, omega_p=5.0, omega_0=5.0, kappa=1.0, gamma=0.0, coupling=0.0)
        with pytest.raises(SingularParametersError):
            reflection_coefficient(bad)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CavityParams(omega_c=0.0, omega_p=1.0, omega_0=1.0, kappa=1.0, gamma=0.0, coupling=0.0)
        with pytest.raises(ValueError):
            CavityParams(omega_c=1.0, omega_p=1.0, omega_0=1.0, kappa=-1.0, gamma=0.0, coupling=0.0)
        with pytest.raises(ValueError):
            CavityParams(omega_c=1.0, omega_p=1.0, omega_0=1.0, kappa=1.0, gamma=-0.1, coupling=0.0)


class TestPrincipalPhase:
    def test_negative_real_axis_maps_to_plus_pi(self):
        assert principal_phase(complex(-1.0, 0.0)) == math.pi
        assert principal_phase(complex(-1.0, -0.0)) == math.pi

    def test_near_branch_snaps_up(self):
        assert principal_phase(complex(-1.0, -1e-15)) == math.pi

    def test_ordinary_angles_untouched(self):
        assert principal_phase(complex(0.0, -1.0)) == pytest.approx(-math.pi / 2)
        assert principal_phase(cmath.exp(1j * 2.0)) == pytest.approx(2.0)
        just_below = cmath.exp(1j * (math.pi - 1e-9))
        assert principal_phase(just_below) == pytest.approx(math.pi - 1e-9, abs=1e-15)


class TestPhases:
    def test_ideal_operating_point(self):
        phases = phases_from_params(IDEAL)
        assert phases.phi == pytest.approx(math.pi, abs=1e-12)
        assert phases.phi0 == pytest.approx(math.pi / 2, abs=1e-12)
        assert phases.rotation_angle == pytest.approx(math.pi / 2, abs=1e-12)
        assert phases.r_modulus == pytest.approx(1.0, abs=1e-12)

    def test_rubidium_fixture(self):
        # physical-scale parameters lose a few digits to cancellation, which
        # can land the angle on either side of the branch cut at pi, so the
        # comparison is done on the unit circle instead of on raw angles
        phases = phases_from_params(rb87_params())
        assert cmath.exp(1j * phases.phi) == pytest.approx(-1.0, abs=1e-6)
        assert cmath.exp(1j * phases.phi0) == pytest.approx(1j, abs=1e-6)

    def test_ideal_phases_helper(self):
        phases = ideal_phases()
        assert (phases.phi, phases.phi0) == (math.pi, math.pi / 2)

    def test_perturbed_phases(self):
        phases = perturbed_phases(0.3)
        assert phases.phi == pytest.approx(math.pi + 0.3)
        assert phases.phi0 == math.pi / 2
        with pytest.raises(ValueError):
            perturbed_phases(math.pi / 2)

    @pytest.mark.parametrize("sigma", [math.pi / 2, -math.pi / 2, 2.0, math.inf, math.nan])
    def test_invalid_sigma_raises_on_every_call(self, sigma):
        # an error is never kept, so a repeated bad sigma raises again
        for _ in range(3):
            with pytest.raises(ValueError, match="phase error sigma"):
                perturbed_phases(sigma)

    def test_a_repeated_sigma_gets_the_same_phases(self):
        assert perturbed_phases(0.125) is perturbed_phases(0.125)
        assert perturbed_phases(-0.0) == perturbed_phases(0.0) == ideal_phases()
        assert perturbed_phases(-0.0).phi == math.pi

    def test_each_sigma_type_gets_its_own_phi(self):
        # the phases of 0.25 as a numpy float hold a numpy phi, as a fresh
        # build would, whatever was asked for first
        as_float, as_numpy = perturbed_phases(0.25), perturbed_phases(np.float64(0.25))
        assert as_float == as_numpy
        assert type(as_float.phi) is float
        assert type(as_numpy.phi) is np.float64
        assert type(perturbed_phases(1).phi) is float

    def test_more_sigmas_than_are_kept(self):
        sigmas = [k / 1000.0 for k in range(200)]
        for sigma in sigmas + sigmas:
            phases = perturbed_phases(sigma)
            assert (phases.phi, phases.phi0) == (math.pi + sigma, math.pi / 2.0)

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            FaradayPhases(phi=1.0, phi0=0.0, r_modulus=1.5)

    # a NaN phi used to reach run_analytic, which reported p_total 1.0 and c_estimate 2.0
    @pytest.mark.parametrize("field", ["phi", "phi0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_is_rejected(self, field, value):
        fields = {"phi": math.pi, "phi0": math.pi / 2.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite, got {value!r}"):
            FaradayPhases(**fields)


class TestInteractionTable:
    def test_ideal_assignments(self):
        table = interaction_table(ideal_phases())
        assert table[(POL_L, ATOM_GL)] == pytest.approx(-1.0, abs=1e-15)
        assert table[(POL_R, ATOM_GR)] == pytest.approx(-1.0, abs=1e-15)
        assert table[(POL_R, ATOM_GL)] == pytest.approx(1j, abs=1e-15)
        assert table[(POL_L, ATOM_GR)] == pytest.approx(1j, abs=1e-15)

    def test_covers_all_patterns_with_unit_phases(self):
        table = interaction_table(perturbed_phases(0.17))
        assert set(table) == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for value in table.values():
            assert abs(value) == pytest.approx(1.0, abs=1e-15)

    def test_perturbation_only_moves_coupled_entries(self):
        sigma = 0.23
        table = interaction_table(perturbed_phases(sigma))
        assert table[(POL_L, ATOM_GL)] == pytest.approx(cmath.exp(1j * (math.pi + sigma)))
        assert table[(POL_R, ATOM_GL)] == pytest.approx(1j)
