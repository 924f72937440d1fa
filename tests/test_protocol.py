"""Tests for the two-copy parity-check protocol."""

import math

import numpy as np
import pytest
from seven_qubit_reference import (
    FULL_REGISTER,
    QWP_HADAMARD,
    basis_amplitude,
    prepare_joint,
    reference_run,
    target_final_state,
)

from faradaymeter.faraday import ideal_phases, perturbed_phases
from faradaymeter.oracle import concurrence_pure
from faradaymeter.protocol import (
    ATOM_PLUS,
    TwoPhotonState,
    closed_form_outcome,
    parity_check,
    run_analytic,
    stage_probabilities,
)
from faradaymeter.qstate import (
    from_amplitudes,
    project_qubit,
    tensor_product,
    qubit_state,
)

SQ2 = 1.0 / math.sqrt(2.0)
BELL = TwoPhotonState(SQ2, 0.0, 0.0, SQ2)


def random_two_photon(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return TwoPhotonState(*(amps / np.linalg.norm(amps)))


def pair_with_atom(a_bit, b_bit):
    """One photon pair in a definite polarization state plus an atom in |+>."""
    photons = from_amplitudes(
        ("p1", "p2"),
        [
            1.0 if (a_bit, b_bit) == (0, 0) else 0.0,
            1.0 if (a_bit, b_bit) == (1, 0) else 0.0,
            1.0 if (a_bit, b_bit) == (0, 1) else 0.0,
            1.0 if (a_bit, b_bit) == (1, 1) else 0.0,
        ],
    )
    return tensor_product(photons, qubit_state("atom", SQ2, SQ2))


class TestTwoPhotonState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            TwoPhotonState(1.0, 1.0, 0.0, 0.0)

    def test_normalized_constructor(self):
        state = TwoPhotonState.normalized(3.0, 0.0, 0.0, 4.0)
        assert state.alpha == pytest.approx(0.6)
        assert state.delta == pytest.approx(0.8)
        with pytest.raises(ValueError):
            TwoPhotonState.normalized(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("amps", [(math.nan, 0.0, 0.0, 1.0), (SQ2, complex(0.0, math.nan), 0.0, SQ2)])
    def test_non_finite_amplitudes_rejected(self, amps):
        # a NaN norm compares false against any bound
        with pytest.raises(ValueError, match="norm nan"):
            TwoPhotonState(*amps)
        with pytest.raises(ValueError, match="norm nan"):
            TwoPhotonState.normalized(*amps)

    def test_amplitude_order(self):
        state = TwoPhotonState(0.5, 0.5j, -0.5, -0.5j)
        assert state.amplitudes() == (0.5, 0.5j, -0.5, -0.5j)


class TestPreparation:
    def test_bell_joint_amplitudes(self):
        joint = prepare_joint(BELL)
        assert joint.labels == FULL_REGISTER
        all_r = {lab: 0 for lab in FULL_REGISTER}
        # (1/sqrt2)^2 from the two pairs times (1/sqrt2)^3 from the atoms
        assert basis_amplitude(joint, all_r) == pytest.approx(0.1767766952966368)
        one_mixed = dict(all_r, a1=1)  # |LR> on the first pair has amplitude 0
        assert basis_amplitude(joint, one_mixed) == 0.0

    def test_general_joint_amplitude(self):
        state = random_two_photon(np.random.default_rng(101))
        joint = prepare_joint(state)
        bits = {"a1": 0, "b1": 1, "a2": 1, "b2": 1, "atom1": 0, "atom2": 1, "atom3": 0}
        expected = state.beta * state.delta * SQ2**3
        assert basis_amplitude(joint, bits) == pytest.approx(expected, abs=1e-14)

    def test_joint_is_normalized(self):
        joint = prepare_joint(random_two_photon(np.random.default_rng(103)))
        assert joint.norm() == pytest.approx(1.0, abs=1e-12)


class TestParityCheck:
    def test_odd_pair_leaves_atom_alone(self):
        state = pair_with_atom(0, 1)  # |RL>
        out = parity_check(state, ("p1", "p2"), "atom", ideal_phases())
        np.testing.assert_allclose(out.amps, -1j * state.amps, atol=1e-12)

    def test_even_pair_flips_atom_sign_structure(self):
        state = pair_with_atom(0, 0)  # |RR>
        out = parity_check(state, ("p1", "p2"), "atom", ideal_phases())
        probability, _ = project_qubit(out, "atom", ATOM_PLUS)
        assert probability == pytest.approx(0.0, abs=1e-15)

    def test_even_pair_lands_on_minus(self):
        state = pair_with_atom(1, 1)  # |LL>
        out = parity_check(state, ("p1", "p2"), "atom", ideal_phases())
        expected = tensor_product(
            from_amplitudes(("p1", "p2"), [0, 0, 0, 1]), qubit_state("atom", SQ2, -SQ2)
        )
        np.testing.assert_allclose(out.amps, expected.amps, atol=1e-12)


class TestRunAnalytic:
    def test_bell_values(self):
        outcome = run_analytic(BELL, ideal_phases())
        assert outcome.p1 == pytest.approx(0.5, abs=1e-12)
        assert outcome.p2 == pytest.approx(0.5, abs=1e-12)
        assert outcome.p_total == pytest.approx(0.25, abs=1e-12)
        assert outcome.c_estimate == pytest.approx(1.0, abs=1e-12)

    def test_product_state_never_passes(self):
        outcome = run_analytic(TwoPhotonState(1, 0, 0, 0), ideal_phases())
        assert outcome.p1 == 0.0
        assert outcome.p_total == 0.0
        assert outcome.c_estimate == 0.0
        assert outcome.p2 == 0.0

    def test_zero_concurrence_fails_at_stage_two(self):
        state = TwoPhotonState(0.5, 0.5, 0.5, 0.5)
        outcome = run_analytic(state, ideal_phases())
        assert outcome.p1 == pytest.approx(0.25, abs=1e-12)
        assert outcome.p2 == 0.0
        assert outcome.p_total == 0.0

    def test_outcome_identities(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            outcome = run_analytic(random_two_photon(rng), ideal_phases())
            assert outcome.p_total == outcome.p1 * outcome.p2
            assert outcome.c_estimate == pytest.approx(
                2.0 * math.sqrt(outcome.p_total), abs=1e-15
            )

    def test_final_state_is_universal(self):
        # whatever the input, the reference engine's surviving branch is the
        # same product of antisymmetric photon pairs with all atoms back in |+>
        rng = np.random.default_rng(109)
        target = target_final_state()
        for _ in range(10):
            state = random_two_photon(rng)
            *_, final_state = reference_run(state, ideal_phases())
            if final_state.empty:
                continue
            fidelity = abs(np.vdot(target.amps, final_state.amps))
            assert fidelity == pytest.approx(1.0, abs=1e-10)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(113)
        for _ in range(50):
            state = random_two_photon(rng)
            simulated = run_analytic(state, ideal_phases())
            closed = closed_form_outcome(state)
            assert simulated.p1 == pytest.approx(closed.p1, abs=1e-12)
            assert simulated.p2 == pytest.approx(closed.p2, abs=1e-12)
            assert simulated.p_total == pytest.approx(closed.p_total, abs=1e-12)

    def test_matches_concurrence_oracle(self):
        rng = np.random.default_rng(127)
        for _ in range(50):
            state = random_two_photon(rng)
            outcome = run_analytic(state, ideal_phases())
            assert outcome.p_total == pytest.approx(
                concurrence_pure(state) ** 2 / 4.0, abs=1e-12
            )

    def test_perturbed_phases_raise_success_probability(self):
        ideal = run_analytic(BELL, ideal_phases())
        perturbed = run_analytic(BELL, perturbed_phases(0.3))
        assert perturbed.p_total > ideal.p_total


class TestStageProbabilities:
    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.2, 0.3])
    def test_matches_reference_on_haar_states(self, sigma):
        rng = np.random.default_rng(131)
        phases = perturbed_phases(sigma)
        for _ in range(1000):
            state = random_two_photon(rng)
            q_ref = reference_run(state, phases)[:3]
            assert stage_probabilities(state, phases) == pytest.approx(q_ref, abs=1e-12, rel=0.0)

    @pytest.mark.parametrize("concurrence", [1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 1e-2])
    def test_near_product_states_read_the_oracle_to_rounding(self, concurrence):
        # cos t |RR> + sin t |LL> under random local unitaries, so every
        # amplitude is nonzero and alpha delta - beta gamma_c cancels
        rng = np.random.default_rng(17)
        t = 0.5 * math.asin(concurrence)
        schmidt = np.array([[math.cos(t), 0.0], [0.0, math.sin(t)]])
        for _ in range(20):
            u_a, u_b = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                        for _ in range(2))
            state = TwoPhotonState.normalized(*(u_a @ schmidt @ u_b.T).reshape(4))
            expected = concurrence_pure(state)
            assert expected == pytest.approx(concurrence, rel=1e-6)
            assert run_analytic(state, ideal_phases()).c_estimate == pytest.approx(
                expected, rel=1e-13, abs=0.0
            )


class TestClosedForm:
    def test_bell(self):
        outcome = closed_form_outcome(BELL)
        assert outcome.p1 == pytest.approx(0.5, abs=1e-15)
        assert outcome.p2 == pytest.approx(0.5, abs=1e-15)
        assert outcome.p_total == pytest.approx(0.25, abs=1e-15)

    def test_partial_entanglement(self):
        state = TwoPhotonState(0.8, 0.0, 0.0, 0.6)
        outcome = closed_form_outcome(state)
        assert outcome.p_total == pytest.approx((0.8 * 0.6) ** 2, abs=1e-15)
        assert outcome.c_estimate == pytest.approx(0.96, abs=1e-12)

    def test_product_state(self):
        outcome = closed_form_outcome(TwoPhotonState(0, 1, 0, 0))
        assert outcome.p1 == 0.0
        assert outcome.p2 == 0.0
        assert outcome.p_total == 0.0


class TestTargetState:
    def test_structure(self):
        target = target_final_state()
        assert target.norm() == pytest.approx(1.0, abs=1e-12)
        bits = {"a1": 1, "a2": 0, "b1": 0, "b2": 1, "atom1": 0, "atom2": 0, "atom3": 0}
        assert basis_amplitude(target, bits) == pytest.approx(0.5 * SQ2**3)
        bits_same = dict(bits, a1=0, a2=0)
        assert basis_amplitude(target, bits_same) == 0.0


class TestQwp:
    def test_matrix_is_its_own_inverse(self):
        np.testing.assert_allclose(QWP_HADAMARD @ QWP_HADAMARD, np.eye(2), atol=1e-15)

    def test_rotation_convention(self):
        np.testing.assert_allclose(QWP_HADAMARD @ [1, 0], [SQ2, SQ2])
        np.testing.assert_allclose(QWP_HADAMARD @ [0, 1], [SQ2, -SQ2])
