"""Tests for the reference concurrence computations."""

import math

import numpy as np
import pytest

from faradaymeter.oracle import (
    SIGMA_YY,
    _validated_eigh,
    concurrence_mixed,
    concurrence_pure,
    concurrence_pure_general,
    density_from_pure,
)
from faradaymeter.protocol import TwoPhotonState

SQ2 = 1.0 / math.sqrt(2.0)
BELL_PSI = np.array([SQ2, 0.0, 0.0, SQ2], dtype=complex)


def random_pure(rng):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    return psi / np.linalg.norm(psi)


def werner(p):
    return p * density_from_pure(BELL_PSI) + (1.0 - p) * np.eye(4) / 4.0


class TestPureClosedForm:
    def test_bell(self):
        assert concurrence_pure(TwoPhotonState(SQ2, 0, 0, SQ2)) == pytest.approx(1.0)

    def test_product_state(self):
        assert concurrence_pure(TwoPhotonState(1, 0, 0, 0)) == 0.0

    def test_odd_parity_bell_matches_2ab_form(self):
        # for a|RL> + b|LR> the closed form collapses to 2|ab|
        state = TwoPhotonState(0, 0.6, 0.8, 0)
        assert concurrence_pure(state) == pytest.approx(2 * 0.6 * 0.8)

    def test_partial_entanglement(self):
        state = TwoPhotonState(0.8, 0, 0, 0.6)
        assert concurrence_pure(state) == pytest.approx(0.96)


class TestPureGeneral:
    def test_spot_values(self):
        assert concurrence_pure_general([1, 0, 0, 0]) == 0.0
        assert concurrence_pure_general([SQ2, 0, 0, 1j * SQ2]) == pytest.approx(1.0)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            psi = random_pure(rng)
            state = TwoPhotonState(*psi)
            assert concurrence_pure_general(psi) == pytest.approx(
                concurrence_pure(state), abs=1e-12
            )

    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            concurrence_pure_general([1, 1, 0, 0])

    # a NaN norm used to pass the check, and the concurrence read 1.0
    @pytest.mark.parametrize("reference", [concurrence_pure_general, density_from_pure])
    @pytest.mark.parametrize("vector", [[math.nan, 0, 0, 0], [SQ2, 0, 0, complex(0, math.nan)],
                                        [math.inf, 0, 0, 0]], ids=["nan", "nan-imag", "inf"])
    def test_non_finite_vector_is_rejected(self, reference, vector):
        with pytest.raises(ValueError, match="must be normalized"):
            reference(vector)


class TestDensityValidation:
    def test_accepts_valid(self):
        _validated_eigh(np.eye(4) / 4)

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            _validated_eigh(mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            _validated_eigh(np.eye(4) / 2)

    def test_trace_summed_as_numpy_sums_it(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            vecs = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            mat = vecs @ vecs.conj().T
            mat *= (1.0 + 1e-9 * rng.uniform(0.2, 1.0)) / mat.trace().real
            with pytest.raises(ValueError) as caught:
                _validated_eigh(mat)
            expected = f"density matrix trace is {complex(mat.trace())!r}, expected 1"
            assert str(caught.value) == expected

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            _validated_eigh(mat)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            _validated_eigh(np.eye(2) / 2)


def spin_flip(rho):
    """The spin flip (sigma_y x sigma_y) rho* (sigma_y x sigma_y) that concurrence_mixed builds on."""
    return SIGMA_YY @ np.asarray(rho, dtype=complex).conj() @ SIGMA_YY


class TestSpinFlip:
    def test_maximally_mixed_fixed_point(self):
        np.testing.assert_allclose(spin_flip(np.eye(4) / 4), np.eye(4) / 4, atol=1e-15)

    def test_bell_projector_fixed_point(self):
        rho = density_from_pure(BELL_PSI)
        np.testing.assert_allclose(spin_flip(rho), rho, atol=1e-15)

    def test_trace_preserved(self):
        rng = np.random.default_rng(67)
        weights = rng.dirichlet(np.ones(3))
        rho = sum(w * density_from_pure(random_pure(rng)) for w in weights)
        flipped = spin_flip(rho)
        assert np.trace(flipped) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(flipped, flipped.conj().T, atol=1e-12)


class TestMixedConcurrence:
    def test_bell_projector(self):
        assert concurrence_mixed(density_from_pure(BELL_PSI)) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed(self):
        assert concurrence_mixed(np.eye(4) / 4) == 0.0

    def test_pure_projector_agreement(self):
        rng = np.random.default_rng(83)
        for _ in range(50):
            psi = random_pure(rng)
            assert concurrence_mixed(density_from_pure(psi)) == pytest.approx(
                concurrence_pure_general(psi), abs=1e-8
            )

    @pytest.mark.parametrize("p", [0.0, 0.2, 1.0 / 3.0, 0.6, 1.0])
    def test_werner_closed_form(self, p):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence_mixed(werner(p)) == pytest.approx(expected, abs=1e-8)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(89)
        rho = werner(0.7)
        reference = concurrence_mixed(rho)
        for _ in range(25):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            local = np.kron(u, v)
            rotated = local @ rho @ local.conj().T
            assert concurrence_mixed(rotated) == pytest.approx(reference, abs=1e-8)

    def test_random_mixtures_stay_in_range(self):
        rng = np.random.default_rng(97)
        for _ in range(20):
            weights = rng.dirichlet(np.ones(4))
            rho = sum(w * density_from_pure(random_pure(rng)) for w in weights)
            assert 0.0 <= concurrence_mixed(rho) <= 1.0

    # 1 - p down to round-off, where an error of order 1 - p would still
    # pass a tolerance scaled by 1 - p
    @pytest.mark.parametrize("one_minus_p", [1e-4, 1e-6, 1e-8, 1e-10, 0.0])
    def test_near_pure_mixtures_exact(self, one_minus_p):
        rng = np.random.default_rng(29)
        p = 1.0 - one_minus_p
        for _ in range(200):
            psi = random_pure(rng)
            rho = p * density_from_pure(psi) + one_minus_p * np.eye(4) / 4.0
            expected = max(0.0, p * concurrence_pure_general(psi) - one_minus_p / 2.0)
            assert abs(concurrence_mixed(rho) - expected) <= 1e-12

    def test_bit_for_bit_the_sigma_yy_product(self):
        # the reversed, signed columns stand in for the product with SIGMA_YY
        rng = np.random.default_rng(31)
        for index in range(1000):
            rank = 1 + index % 4
            weights = rng.dirichlet(np.ones(rank))
            rho = sum(w * density_from_pure(random_pure(rng)) for w in weights)
            if index % 5 == 0:
                rho = werner(float(rng.uniform(0.0, 1.0)))
            evals, evecs = np.linalg.eigh(rho)
            factor = evecs * np.sqrt(np.maximum(evals, 0.0))
            roots = np.linalg.svd(factor.T @ SIGMA_YY @ factor, compute_uv=False)
            expected = max(0.0, min(1.0, float(roots[0] - roots[1] - roots[2] - roots[3])))
            assert concurrence_mixed(rho) == expected, index

    def test_sigma_yy_constant(self):
        expected = np.array(
            [
                [0, 0, 0, -1],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [-1, 0, 0, 0],
            ],
            dtype=complex,
        )
        np.testing.assert_array_equal(SIGMA_YY, expected)
