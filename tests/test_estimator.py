"""Tests for the Monte Carlo estimator and its deterministic streams."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from serial_estimator_reference import serial_counts

from faradaymeter import estimator
from faradaymeter.estimator import (
    DRAWS_PER_TRIAL,
    EstimateReport,
    TrialConfig,
    TrialSampler,
    estimate,
    run_trial,
    trial_stream,
    wilson_interval,
)
from faradaymeter.faraday import ideal_phases, perturbed_phases
from faradaymeter.imperfect import ImperfectionParams
from faradaymeter.protocol import TwoPhotonState

SQ2 = 1.0 / math.sqrt(2.0)
BELL = TwoPhotonState(SQ2, 0.0, 0.0, SQ2)
IDEAL = ImperfectionParams()
# every stage is non-trivial for this state at sigma 0.1 and eta 0.8
SKEWED = TwoPhotonState(0.6, 0.3j, -0.2, math.sqrt(1.0 - 0.36 - 0.09 - 0.04))
SKEWED_IMPERFECTIONS = ImperfectionParams(eta_a=0.8, sigma=0.1)
# spans several workers and buffers, and is a multiple of neither
SPLIT_TRIALS = 3 * 2**15 + 977


def bell_config(n, seed, imperfections=IDEAL, sigma=0.0):
    phases = perturbed_phases(sigma) if sigma else ideal_phases()
    return TrialConfig(
        n_trials=n, master_seed=seed, state=BELL, phases=phases, imperfections=imperfections
    )


class TestConfigValidation:
    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            bell_config(0, 1)

    def test_seed_range(self):
        with pytest.raises(ValueError):
            bell_config(10, -1)
        with pytest.raises(ValueError):
            bell_config(10, 2**64)

    def test_phases_must_match_sigma(self):
        # the trials' phase error and the one corrected for have one source
        with pytest.raises(ValueError, match="sigma=0.3"):
            bell_config(10, 1, ImperfectionParams(sigma=0.3))
        with pytest.raises(ValueError, match="sigma=0.0"):
            bell_config(10, 1, IDEAL, sigma=0.1)
        matched = bell_config(10, 1, ImperfectionParams(sigma=0.3), sigma=0.3)
        assert matched.phases == perturbed_phases(0.3)

    def test_report_invariants_enforced(self):
        with pytest.raises(ValueError):
            EstimateReport(
                trials=10,
                stage1_successes=3,
                stage2_successes=5,
                p1_hat=0.3,
                p2_hat=0.5,
                p_total_hat=0.5,
                c_hat=1.4,
                c_low=1.0,
                c_high=2.0,
                corrected_c_hat=1.0,
            )


class TestWilson:
    def test_boundaries(self):
        low, _ = wilson_interval(0, 50)
        assert low == 0.0
        _, high = wilson_interval(50, 50)
        assert high == 1.0

    def test_frozen_quarter_case(self):
        low, high = wilson_interval(250, 1000, 0.95)
        assert low == pytest.approx(0.2241530989836914, abs=1e-12)
        assert high == pytest.approx(0.27776028025908617, abs=1e-12)
        assert high - low == pytest.approx(0.0536, abs=5e-4)

    def test_contains_point_estimate(self):
        rng = np.random.default_rng(137)
        for _ in range(100):
            trials = int(rng.integers(1, 500))
            successes = int(rng.integers(0, trials + 1))
            low, high = wilson_interval(successes, trials)
            assert low <= successes / trials <= high
            assert 0.0 <= low <= high <= 1.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, confidence=1.0)


class TestTrialSampler:
    def test_bell_tree_probabilities(self):
        sampler = TrialSampler(BELL, ideal_phases())
        assert sampler.p_plus1 == pytest.approx(0.5, abs=1e-12)
        assert sampler.p_plus2 == pytest.approx(1.0, abs=1e-12)
        assert sampler.p_plus3 == pytest.approx(0.5, abs=1e-12)

    def test_product_state_blocks_stage_one(self):
        # |RR> drives both atoms exactly onto |->, so the first readout
        # can never return |+> and the later conditionals are degenerate
        sampler = TrialSampler(TwoPhotonState(1, 0, 0, 0), ideal_phases())
        assert sampler.p_plus1 == 0.0
        assert sampler.p_plus2 == 0.0
        assert sampler.p_plus3 == 0.0


class TestRunTrial:
    def test_product_state_never_selected(self):
        state = TwoPhotonState(0, 1, 0, 0)
        for i in range(50):
            outcome = run_trial(state, ideal_phases(), IDEAL, trial_stream(5, i))
            assert not outcome.stage1_pass

    def test_stage2_implies_stage1(self):
        for i in range(200):
            outcome = run_trial(BELL, ideal_phases(), IDEAL, trial_stream(11, i))
            assert outcome.stage1_pass or not outcome.stage2_pass

    def test_deterministic_per_stream(self):
        first = run_trial(BELL, ideal_phases(), IDEAL, trial_stream(17, 42))
        second = run_trial(BELL, ideal_phases(), IDEAL, trial_stream(17, 42))
        assert first == second


class TestEstimate:
    def test_single_trial_report_is_well_formed(self):
        report = estimate(bell_config(1, 9))
        assert report.trials == 1
        assert report.stage1_successes in (0, 1)
        assert 0.0 <= report.c_low <= report.c_hat <= report.c_high

    def test_same_seed_identical(self):
        assert estimate(bell_config(5000, 21)) == estimate(bell_config(5000, 21))

    def test_different_seed_differs(self):
        assert estimate(bell_config(5000, 21)) != estimate(bell_config(5000, 22))

    def test_totals_match_per_trial_replay(self):
        # the vectorized path must reproduce the lazy per-trial path exactly
        n = 300
        params = ImperfectionParams(eta_a=0.8, sigma=0.1)
        config = bell_config(n, 55, params, sigma=0.1)
        outcomes = [
            run_trial(BELL, perturbed_phases(0.1), params, trial_stream(55, i)) for i in range(n)
        ]
        report = estimate(config)
        assert report.stage1_successes == sum(o.stage1_pass for o in outcomes)
        assert report.stage2_successes == sum(o.stage2_pass for o in outcomes)

    def test_count_accounting(self):
        report = estimate(bell_config(20_000, 3))
        assert report.p_total_hat == report.stage2_successes / report.trials
        assert report.p1_hat == report.stage1_successes / report.trials
        if report.stage1_successes:
            assert report.p2_hat == report.stage2_successes / report.stage1_successes
        assert report.c_hat == pytest.approx(2 * math.sqrt(report.p_total_hat), abs=1e-15)

    def test_frequency_convergence_over_seeds(self):
        n = 10_000
        bound = 4.0 * math.sqrt(0.25 * 0.75 / n)
        for seed in range(50):
            report = estimate(bell_config(n, seed))
            assert abs(report.p_total_hat - 0.25) <= bound

    def test_stage_consistency(self):
        n = 40_000
        report = estimate(bell_config(n, 71))
        assert abs(report.p1_hat - 0.5) <= 4.0 * math.sqrt(0.25 / n)
        conditional_bound = 4.0 * math.sqrt(0.25 / report.stage1_successes)
        assert abs(report.p2_hat - 0.5) <= conditional_bound

    def test_eta_separability(self):
        n = 200_000
        eta = 0.66
        report = estimate(bell_config(n, 13, ImperfectionParams(eta_a=eta)))
        expected = eta**3 * 0.25
        bound = 4.0 * math.sqrt(expected * (1 - expected) / n)
        assert abs(report.p_total_hat - expected) <= bound
        assert report.corrected_c_hat == pytest.approx(1.0, abs=0.05)

    def test_half_efficiency_example(self):
        report = estimate(bell_config(100_000, 29, ImperfectionParams(eta_a=0.5)))
        assert report.p_total_hat == pytest.approx(0.03125, abs=0.002)

    def test_corrected_estimate_under_phase_error(self):
        report = estimate(bell_config(400_000, 101, ImperfectionParams(sigma=0.05), sigma=0.05))
        assert report.corrected_c_hat == pytest.approx(1.0, abs=0.02)
        assert report.c_hat > report.corrected_c_hat - 0.01

    def test_draw_block_is_padded_to_counter_boundary(self):
        assert DRAWS_PER_TRIAL * 64 % 256 == 0


def skewed_config(n, seed):
    return TrialConfig(
        n_trials=n,
        master_seed=seed,
        state=SKEWED,
        phases=perturbed_phases(0.1),
        imperfections=SKEWED_IMPERFECTIONS,
    )


@pytest.fixture
def spans(monkeypatch):
    """Offer three CPUs to ``estimate`` and record the spans it counts."""
    monkeypatch.setattr(estimator, "_available_cpus", lambda: 3)
    recorded = []
    count_span = estimator._count_span

    def recording(seed, thresholds, lo, hi):
        recorded.append((lo, hi))
        return count_span(seed, thresholds, lo, hi)

    monkeypatch.setattr(estimator, "_count_span", recording)
    return recorded


class TestSpanSplit:
    def test_split_matches_serial_reference(self, spans):
        config = skewed_config(SPLIT_TRIALS, 4242)
        report = estimate(config)
        assert sorted(spans) == [(0, 33093), (33093, 66187), (66187, SPLIT_TRIALS)]
        assert (report.stage1_successes, report.stage2_successes) == serial_counts(config)

    def test_span_streams_replay_per_trial(self, spans):
        seed = 4243
        config = skewed_config(SPLIT_TRIALS, seed)
        estimate(config)
        starts = [lo for lo, _ in spans]
        assert len(starts) == 3
        sampler = TrialSampler(SKEWED, perturbed_phases(0.1))
        eta = SKEWED_IMPERFECTIONS.eta_a
        row = [sampler.p_plus1, eta, sampler.p_plus2, eta, sampler.p_plus3, eta, -1.0, -1.0]
        thresholds = np.tile(row, (16, 1))
        for lo in starts:
            outcomes = [
                run_trial(SKEWED, perturbed_phases(0.1), SKEWED_IMPERFECTIONS, trial_stream(seed, i))
                for i in range(lo, lo + 100)
            ]
            expected = (
                sum(o.stage1_pass for o in outcomes),
                sum(o.stage2_pass for o in outcomes),
            )
            assert estimator._count_span(seed, thresholds, lo, lo + 100) == expected

    def test_concurrent_callers_get_identical_reports(self, spans):
        configs = [skewed_config(SPLIT_TRIALS, seed) for seed in (7, 8)]
        reports = {}

        def call(config):
            reports[config.master_seed] = estimate(config)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(config,)) for config in configs]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(spans) == 6
        for config in configs:
            report = reports[config.master_seed]
            assert report == estimate(config)
            assert (report.stage1_successes, report.stage2_successes) == serial_counts(config)

    def test_short_runs_stay_on_the_calling_thread(self, spans):
        estimate(skewed_config(2 * estimator._MIN_SPAN - 1, 5))
        assert spans == [(0, 2 * estimator._MIN_SPAN - 1)]

    def test_memory_peak_is_bounded_at_the_worker_cap(self, monkeypatch):
        # with every worker the cap allows, 1e6 trials keep only the reused
        # buffers alive, not a draws array per chunk
        monkeypatch.setattr(estimator, "_available_cpus", lambda: 64)
        config = bell_config(1_000_000, 19)
        estimate(config)
        tracemalloc.start()
        try:
            estimate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestTrialStream:
    def test_blocks_tile_the_master_sequence(self):
        # trial blocks must be consecutive slices of one sequential stream
        seed = 77
        sequential = np.random.Generator(np.random.Philox(key=seed)).random(
            5 * DRAWS_PER_TRIAL
        )
        for i in range(5):
            block = trial_stream(seed, i).random(DRAWS_PER_TRIAL)
            np.testing.assert_array_equal(
                block, sequential[i * DRAWS_PER_TRIAL : (i + 1) * DRAWS_PER_TRIAL]
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            trial_stream(-1, 0)
        with pytest.raises(ValueError):
            trial_stream(0, -1)
