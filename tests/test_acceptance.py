"""Acceptance suite: the nine headline checks, one test per criterion.

Each test prints a single PASS or FAIL line (visible with ``pytest -s`` or
in captured output on failure) so the suite doubles as a checklist.
"""

import cmath
import math
import subprocess
import sys

import numpy as np

from faradaymeter.estimator import TrialConfig, estimate
from faradaymeter.faraday import (
    CavityParams,
    ideal_phases,
    interaction_table,
    perturbed_phases,
    phases_from_params,
)
from faradaymeter.imperfect import (
    ImperfectionParams,
    invert_parity_probability,
    leak_probability,
    model_deviation,
    model_observed_probabilities,
    recover_concurrence,
)
from faradaymeter.oracle import (
    concurrence_mixed,
    concurrence_pure,
    concurrence_pure_general,
    density_from_pure,
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


def _report(number: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"criterion {number} FAIL {description}")
        raise
    print(f"criterion {number} PASS {description}")


def _random_states(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        yield TwoPhotonState(*(amps / np.linalg.norm(amps)))


def test_criterion_1_ideal_phase_reproduction():
    def check():
        params = CavityParams(
            omega_c=5.0, omega_p=4.5, omega_0=5.0, kappa=1.0, gamma=0.0, coupling=0.5
        )
        phases = phases_from_params(params)
        assert abs(phases.phi - math.pi) <= 1e-9
        assert abs(phases.phi0 - math.pi / 2) <= 1e-9

    _report(1, "ideal operating point gives phases (pi, pi/2) within 1e-9", check)


def test_criterion_2_central_identity():
    def check():
        for state in _random_states(1000, seed=20240814):
            outcome = run_analytic(state, ideal_phases())
            oracle = concurrence_pure(state)
            assert abs(outcome.p_total - oracle**2 / 4.0) <= 1e-10
            closed = closed_form_outcome(state)
            assert abs(outcome.p1 - closed.p1) <= 1e-10
            assert abs(outcome.p2 - closed.p2) <= 1e-10
            assert abs(outcome.p_total - closed.p_total) <= 1e-10

    _report(2, "p_total equals C^2/4 and closed form over 1000 random states", check)


def test_criterion_3_interaction_rule_reproduction():
    def check():
        for sigma in (0.0, 0.05, 0.3):
            phases = perturbed_phases(sigma)
            coupled = cmath.exp(1j * phases.phi)
            uncoupled = cmath.exp(1j * phases.phi0)
            cases = {
                # photon pair bits -> (factor on |g_L>, factor on |g_R>)
                (0, 0): (uncoupled * uncoupled, coupled * coupled),
                (1, 1): (coupled * coupled, uncoupled * uncoupled),
                (0, 1): (uncoupled * coupled, coupled * uncoupled),
                (1, 0): (coupled * uncoupled, uncoupled * coupled),
            }
            for (bit1, bit2), (factor_gl, factor_gr) in cases.items():
                photons = from_amplitudes(
                    ("p1", "p2"),
                    [
                        1.0 if (bit1, bit2) == (0, 0) else 0.0,
                        1.0 if (bit1, bit2) == (1, 0) else 0.0,
                        1.0 if (bit1, bit2) == (0, 1) else 0.0,
                        1.0 if (bit1, bit2) == (1, 1) else 0.0,
                    ],
                )
                state = tensor_product(photons, qubit_state("atom", SQ2, SQ2))
                out = parity_check(state, ("p1", "p2"), "atom", phases)
                expected = photons.amps[:, None] * np.array([factor_gl, factor_gr]) * SQ2
                np.testing.assert_allclose(
                    out.amps, expected.reshape(-1, order="F"), atol=1e-12
                )

    _report(3, "sequential reflections reproduce all four parity rules at sigma in {0, 0.05, 0.3}", check)


def test_criterion_4_monte_carlo_convergence():
    def check():
        n = 100_000
        band = 4.0 * math.sqrt(0.25 * 0.75 / n)
        for seed in range(20):
            report = estimate(
                TrialConfig(
                    n_trials=n,
                    master_seed=seed,
                    state=BELL,
                    phases=ideal_phases(),
                    imperfections=ImperfectionParams(),
                )
            )
            assert abs(report.p_total_hat - 0.25) <= band
            assert 0.97 <= report.c_hat <= 1.03

    _report(4, "Bell-state estimates stay in the 4-sigma band over 20 seeds", check)


def test_criterion_5_detection_efficiency_scaling():
    def check():
        eta = 0.66
        report = estimate(
            TrialConfig(
                n_trials=1_000_000,
                master_seed=411,
                state=BELL,
                phases=ideal_phases(),
                imperfections=ImperfectionParams(eta_a=eta),
            )
        )
        analytic_ptotal = run_analytic(BELL, ideal_phases()).p_total
        ratio = report.p_total_hat / analytic_ptotal
        assert abs(ratio - 0.287496) / 0.287496 <= 0.03
        assert abs(report.corrected_c_hat - 1.0) <= 0.02

    _report(5, "eta=0.66 scales the observed rate by 0.287496 and is recoverable", check)


def test_criterion_6_leak_probability_exactness():
    def check():
        for sigma in np.linspace(0.05, 0.5, 10):
            photons = from_amplitudes(("p1", "p2"), [0, 0, 0, 1.0])  # |LL>
            state = tensor_product(photons, qubit_state("atom", SQ2, SQ2))
            out = parity_check(state, ("p1", "p2"), "atom", perturbed_phases(sigma))
            probability, _ = project_qubit(out, "atom", ATOM_PLUS)
            assert abs(probability - leak_probability(sigma)) <= 1e-12

    _report(6, "even-parity leakage equals sin^2(sigma) exactly for 10 values", check)


def test_criterion_7_correction_round_trip():
    def check():
        states = [BELL, TwoPhotonState(0.8, 0.0, 0.0, 0.6), TwoPhotonState(0.5, 0.5j, -0.5, 0.5)]
        sigma = 0.05
        for state in states:
            ideal = closed_form_outcome(state)
            if ideal.p1 == 0.0:
                continue
            observed1, observed2 = model_observed_probabilities(ideal.p1, ideal.p2, sigma)
            assert abs(invert_parity_probability(observed1, sigma) - ideal.p1) <= 1e-10
            assert abs(invert_parity_probability(observed2, sigma) - ideal.p2) <= 1e-10
            recovered = recover_concurrence(observed1, observed2, ImperfectionParams(sigma=sigma))
            assert abs(recovered - concurrence_pure(state)) <= 1e-10
        for state in states:
            deviations = [model_deviation(state, s) for s in (0.2, 0.1, 0.05)]
            assert deviations[0] > deviations[1] > deviations[2]

    _report(7, "model-generated observations invert exactly; model error shrinks with sigma", check)


def test_criterion_8_oracle_validity():
    def check():
        for state in _random_states(1000, seed=88):
            psi = np.array(state.amplitudes())
            assert abs(concurrence_pure_general(psi) - concurrence_pure(state)) <= 1e-12
        rng = np.random.default_rng(89)
        for _ in range(100):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            rho = density_from_pure(psi)
            assert abs(concurrence_mixed(rho) - concurrence_pure_general(psi)) <= 1e-8
        bell = density_from_pure(np.array([SQ2, 0, 0, SQ2]))
        for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 1.0):
            werner = p * bell + (1.0 - p) * np.eye(4) / 4.0
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            assert abs(concurrence_mixed(werner) - expected) <= 1e-8
        rho = 0.7 * bell + 0.3 * np.eye(4) / 4.0
        reference = concurrence_mixed(rho)
        for _ in range(100):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
            local = np.kron(u, v)
            assert abs(concurrence_mixed(local @ rho @ local.conj().T) - reference) <= 1e-8

    _report(8, "oracle identities, Werner values and local-unitary invariance hold", check)


def test_oracle_exact_for_nearly_pure_mixtures():
    # rho = p|psi><psi| + (1 - p) I/4 has concurrence max(0, p C - (1 - p)/2);
    # the genuine small eigenvalues must survive however close p is to 1
    rng = np.random.default_rng(90)
    for one_minus_p in np.logspace(-9, np.log10(0.63), 400):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        p = 1.0 - one_minus_p
        rho = p * density_from_pure(psi) + one_minus_p * np.eye(4) / 4.0
        expected = max(0.0, p * concurrence_pure_general(psi) - one_minus_p / 2.0)
        assert abs(concurrence_mixed(rho) - expected) <= 1e-12


def test_criterion_9_determinism():
    def check():
        command = [
            sys.executable,
            "-m",
            "faradaymeter",
            "simulate",
            "--state", str(SQ2), "0", "0", "0", "0", "0", str(SQ2), "0",
            "--trials", "50000",
            "--seed", "7",
        ]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout.startswith(b"{")

    _report(9, "identical simulate configs produce byte-identical records", check)
