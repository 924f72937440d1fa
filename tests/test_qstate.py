"""Tests for the labeled state-vector engine and the reference's helpers on it."""

import math

import numpy as np
import pytest
from seven_qubit_reference import FULL_REGISTER, apply_single_qubit, basis_amplitude, reorder

from faradaymeter.errors import LabelCollisionError, LabelError, NonUnitaryError
from faradaymeter.qstate import (
    EMPTY_BRANCH_CUTOFF,
    StateVector,
    apply_diagonal_phase,
    empty_branch,
    from_amplitudes,
    project_qubit,
    qubit_state,
    tensor_product,
)

SQ2 = 1.0 / math.sqrt(2.0)
HADAMARD = np.array([[SQ2, SQ2], [SQ2, -SQ2]])


def random_state(rng, labels):
    raw = rng.normal(size=2 ** len(labels)) + 1j * rng.normal(size=2 ** len(labels))
    return from_amplitudes(labels, raw / np.linalg.norm(raw))


class TestConstruction:
    def test_first_label_is_least_significant(self):
        state = tensor_product(qubit_state("x", 0.0, 1.0), qubit_state("y", 1.0, 0.0))
        np.testing.assert_array_equal(state.amps, [0, 1, 0, 0])
        state = tensor_product(qubit_state("x", 1.0, 0.0), qubit_state("y", 0.0, 1.0))
        np.testing.assert_array_equal(state.amps, [0, 0, 1, 0])

    def test_from_amplitudes_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            from_amplitudes(("q",), [1.0, 1.0])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(LabelCollisionError):
            StateVector(np.zeros(4, complex), ("a", "a"))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.ones(3, complex) / math.sqrt(3), ("a", "b"))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0]), ("a",))

    def test_amps_are_immutable(self):
        state = from_amplitudes(("q",), [1.0, 0.0])
        with pytest.raises(ValueError):
            state.amps[0] = 0.0

    def test_empty_branch_flag(self):
        state = empty_branch(("a", "b"))
        assert state.empty
        assert state.norm() == 0.0


class TestTensorAndReorder:
    def test_product_with_second_qubit_in_zero(self):
        # (a|R> + b|L>) x |R> puts the pair amplitudes in the low-bit slots
        a, b = 0.6, 0.8j
        left = from_amplitudes(("p",), [a, b])
        right = from_amplitudes(("q",), [1.0, 0.0])
        joint = tensor_product(left, right)
        assert joint.labels == ("p", "q")
        np.testing.assert_allclose(joint.amps, [a, b, 0, 0])

    def test_label_collision(self):
        one = qubit_state("q", 1.0, 0.0)
        with pytest.raises(LabelCollisionError):
            tensor_product(one, qubit_state("q", 1.0, 0.0))

    def test_reorder_is_relabeling_not_mixing(self):
        rng = np.random.default_rng(7)
        labels = ("a", "b", "c")
        state = random_state(rng, labels)
        swapped = reorder(state, ("c", "a", "b"))
        for bits in range(8):
            assignment = {lab: (bits >> k) & 1 for k, lab in enumerate(labels)}
            assert basis_amplitude(state, assignment) == pytest.approx(
                basis_amplitude(swapped, assignment)
            )

    def test_reorder_roundtrip(self):
        rng = np.random.default_rng(3)
        state = random_state(rng, FULL_REGISTER)
        shuffled = tuple(rng.permutation(FULL_REGISTER))
        back = reorder(reorder(state, shuffled), FULL_REGISTER)
        np.testing.assert_allclose(back.amps, state.amps, atol=0)

    def test_reorder_requires_permutation(self):
        state = from_amplitudes(("a", "b"), [1.0, 0, 0, 0])
        with pytest.raises(LabelError):
            reorder(state, ("a", "c"))


class TestDiagonalPhase:
    def test_two_qubit_table(self):
        state = from_amplitudes(("p", "q"), np.full(4, 0.5))
        out = apply_diagonal_phase(state, ("p", "q"), {(0, 0): 1j, (1, 1): -1.0})
        np.testing.assert_allclose(out.amps, [0.5j, 0.5, 0.5, -0.5])

    def test_missing_patterns_default_to_identity(self):
        state = from_amplitudes(("p", "q"), np.full(4, 0.5))
        out = apply_diagonal_phase(state, ("p",), {(1,): -1.0})
        np.testing.assert_allclose(out.amps, [0.5, -0.5, 0.5, -0.5])

    def test_int_key_for_single_target(self):
        state = from_amplitudes(("p",), [SQ2, SQ2])
        out = apply_diagonal_phase(state, ("p",), {1: 1j})
        np.testing.assert_allclose(out.amps, [SQ2, 1j * SQ2])

    def test_target_order_matters(self):
        state = from_amplitudes(("p", "q"), np.full(4, 0.5))
        out = apply_diagonal_phase(state, ("q", "p"), {(0, 1): -1.0})
        # pattern (q=0, p=1) selects the amplitude at index 1
        np.testing.assert_allclose(out.amps, [0.5, -0.5, 0.5, 0.5])

    def test_non_unit_phase_rejected(self):
        state = qubit_state("p", 1.0, 0.0)
        with pytest.raises(NonUnitaryError):
            apply_diagonal_phase(state, ("p",), {(0,): 0.5})

    def test_unknown_label(self):
        state = qubit_state("p", 1.0, 0.0)
        with pytest.raises(LabelError):
            apply_diagonal_phase(state, ("z",), {(0,): 1.0})

    def test_repeated_target(self):
        state = from_amplitudes(("p", "q"), np.full(4, 0.5))
        with pytest.raises(LabelCollisionError):
            apply_diagonal_phase(state, ("p", "p"), {(0, 0): 1.0})

    def test_wrong_pattern_width(self):
        state = from_amplitudes(("p", "q"), np.full(4, 0.5))
        with pytest.raises(ValueError):
            apply_diagonal_phase(state, ("p", "q"), {(0,): 1.0})

    def test_norm_preserved(self):
        rng = np.random.default_rng(11)
        state = random_state(rng, ("a", "b", "c"))
        out = apply_diagonal_phase(state, ("a", "c"), {(0, 1): 1j, (1, 0): -1j})
        assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestSingleQubit:
    def test_hadamard_on_zero(self):
        state = from_amplitudes(("q",), [1.0, 0.0])
        out = apply_single_qubit(state, "q", HADAMARD)
        np.testing.assert_allclose(out.amps, [SQ2, SQ2])

    def test_acts_only_on_target(self):
        rng = np.random.default_rng(5)
        state = random_state(rng, ("a", "b", "c"))
        out = apply_single_qubit(state, "b", HADAMARD)
        cube_in = state.amps.reshape(2, 2, 2)
        cube_out = out.amps.reshape(2, 2, 2)
        np.testing.assert_allclose(
            cube_out[:, 0, :], (cube_in[:, 0, :] + cube_in[:, 1, :]) * SQ2, atol=1e-14
        )

    def test_non_unitary_rejected(self):
        state = from_amplitudes(("q",), [1.0, 0.0])
        with pytest.raises(NonUnitaryError):
            apply_single_qubit(state, "q", [[1.0, 0.0], [0.0, 0.5]])

    def test_shape_check(self):
        state = from_amplitudes(("q",), [1.0, 0.0])
        with pytest.raises(ValueError):
            apply_single_qubit(state, "q", np.eye(3))

    def test_norm_preserved_random(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            state = random_state(rng, ("a", "b"))
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            unitary, _ = np.linalg.qr(raw)
            out = apply_single_qubit(state, "a", unitary)
            assert out.norm() == pytest.approx(1.0, abs=1e-12)


class TestProjection:
    def test_branch_probabilities_sum_to_one(self):
        rng = np.random.default_rng(23)
        state = random_state(rng, ("a", "b", "c"))
        plus = np.array([SQ2, SQ2])
        minus = np.array([SQ2, -SQ2])
        p_plus, kept = project_qubit(state, "b", plus)
        p_minus, _ = project_qubit(state, "b", minus)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)
        assert kept.norm() == pytest.approx(1.0, abs=1e-12)

    def test_impossible_branch_is_flagged(self):
        state = from_amplitudes(("q", "r"), [0, 0, 1.0, 0])
        probability, branch = project_qubit(state, "q", [0.0, 1.0])
        assert probability == 0.0
        assert branch.empty

    def test_cutoff_value(self):
        # a branch amplitude of 1e-8 squares just below the cutoff
        tiny = 1e-8 * math.sqrt(0.099)
        amps = np.array([math.sqrt(1 - tiny**2), tiny])
        probability, branch = project_qubit(StateVector(amps, ("q",)), "q", [0.0, 1.0])
        assert probability == 0.0
        assert branch.empty
        assert tiny**2 < EMPTY_BRANCH_CUTOFF

    def test_axis_must_be_normalized(self):
        state = from_amplitudes(("q",), [1.0, 0.0])
        with pytest.raises(ValueError):
            project_qubit(state, "q", [1.0, 1.0])


class TestBasisAmplitude:
    def test_addressing(self):
        state = from_amplitudes(("a", "b"), [0.5, 0.5j, -0.5, -0.5j])
        assert basis_amplitude(state, {"a": 1, "b": 0}) == 0.5j
        assert basis_amplitude(state, {"a": 0, "b": 1}) == -0.5

    def test_wrong_labels(self):
        state = from_amplitudes(("a",), [1.0, 0.0])
        with pytest.raises(LabelError):
            basis_amplitude(state, {"b": 0})
