"""Tests for the Monte Carlo estimator and its deterministic streams."""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import Future
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from serial_estimator_reference import serial_counts

from faradaymeter import estimator
from faradaymeter.estimator import (
    EstimateReport,
    TrialConfig,
    TrialSampler,
    estimate,
    estimate_all,
    wilson_interval,
)
from faradaymeter.faraday import FaradayPhases, ideal_phases, perturbed_phases
from faradaymeter.imperfect import ImperfectionParams
from faradaymeter.protocol import TwoPhotonState, run_analytic

SQ2 = 1.0 / math.sqrt(2.0)
BELL = TwoPhotonState(SQ2, 0.0, 0.0, SQ2)
IDEAL = ImperfectionParams()
# every stage is non-trivial for this state at sigma 0.1 and eta 0.8
SKEWED = TwoPhotonState(0.6, 0.3j, -0.2, math.sqrt(1.0 - 0.36 - 0.09 - 0.04))
SKEWED_IMPERFECTIONS = ImperfectionParams(eta_a=0.8, sigma=0.1)
# long enough to split across three workers, spans several buffers, and is
# a multiple of neither
SPLIT_TRIALS = 3 * estimator._MIN_SPAN + 977


def replay(sampler, seed, i, eta_a):
    """Trial ``i``'s (stage-1, stage-2) outcome, read off its own uniform."""
    q1, q2 = sampler.thresholds(eta_a)
    u = estimator._stream_at(seed, i).random()
    return u < q1, u < q2


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
        with pytest.raises(ValueError, match="seed"):
            bell_config(10, 5.0)  # a float would pass as seed 5

    def test_bool_trials_and_seed_are_rejected(self):
        # bool is an int subclass, so True and False would pass as 1 and 0
        with pytest.raises(ValueError, match="trials"):
            bell_config(True, 1)
        with pytest.raises(ValueError, match="seed"):
            bell_config(10, False)

    def test_phases_must_match_sigma(self):
        # the trials' phase error and the one the record echoes have one source
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
        low, high = wilson_interval(250, 1000)
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

    def test_z_is_the_two_sided_95_percent_normal_quantile(self):
        assert estimator._WILSON_Z == NormalDist().inv_cdf(0.5 + 0.95 / 2.0)


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


# cos t|RR> + sin t|LL> with C = sin 2t = 0.05
NEAR_SEPARABLE_T = 0.5 * math.asin(0.05)
NEAR_SEPARABLE = TwoPhotonState(math.cos(NEAR_SEPARABLE_T), 0.0, 0.0, math.sin(NEAR_SEPARABLE_T))
# state, sigma, eta_a
LAW_CASES = {"skewed": (SKEWED, 0.1, 0.8), "near_separable": (NEAR_SEPARABLE, 0.05, 0.9)}
LAW_SEEDS = 200
LAW_TRIALS = 20_000
LAW_P_VALUE = 1e-4
MOMENT_SEEDS = 1000
MOMENT_TRIALS = 2000


def chi2_sf_even(x, dof):
    """P(X > x) for X chi-square with an even number ``dof`` of degrees of freedom.

    Exact: the Poisson sum ``exp(-x/2) sum_{j < dof/2} (x/2)^j / j!``,
    each term taken in logs so that large ``x`` does not overflow.
    """
    half = x / 2.0
    if half == 0.0:
        return 1.0
    return math.fsum(
        math.exp(j * math.log(half) - math.lgamma(j + 1) - half) for j in range(dof // 2)
    )


class TestTrialLaw:
    """Each trial is one three-way draw: (fail, stage 1 only, both) ~ (1 - q1, q1 - q2, q2)."""

    @pytest.mark.parametrize("case", sorted(LAW_CASES))
    def test_thresholds_are_the_exact_stage_probabilities(self, case):
        state, sigma, eta = LAW_CASES[case]
        phases = perturbed_phases(sigma)
        outcome = run_analytic(state, phases)
        q1, q2 = TrialSampler(state, phases).thresholds(eta)
        assert q1 == pytest.approx(eta**2 * outcome.p1, rel=1e-15, abs=0.0)
        assert q2 == pytest.approx(eta**3 * outcome.p_total, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("case", sorted(LAW_CASES))
    def test_counts_pass_a_chi_square_test(self, case):
        state, sigma, eta = LAW_CASES[case]
        phases = perturbed_phases(sigma)
        q1, q2 = TrialSampler(state, phases).thresholds(eta)
        configs = [
            TrialConfig(
                n_trials=LAW_TRIALS,
                master_seed=seed,
                state=state,
                phases=phases,
                imperfections=ImperfectionParams(eta_a=eta, sigma=sigma),
            )
            for seed in range(LAW_SEEDS)
        ]
        counts = np.array([
            [r.trials - r.stage1_successes, r.stage1_successes - r.stage2_successes,
             r.stage2_successes]
            for r in estimate_all(configs)
        ])
        expected = LAW_TRIALS * np.array([1.0 - q1, q1 - q2, q2])
        # every seed's own statistic (2 degrees of freedom each), summed, and
        # the statistic of the counts pooled over all seeds
        per_seed = float(((counts - expected) ** 2 / expected).sum())
        pooled_expected = LAW_SEEDS * expected
        pooled = float(((counts.sum(axis=0) - pooled_expected) ** 2 / pooled_expected).sum())
        assert chi2_sf_even(per_seed, 2 * LAW_SEEDS) > LAW_P_VALUE
        assert chi2_sf_even(pooled, 2) > LAW_P_VALUE

    def test_chi_square_test_rejects_a_missing_detector_factor(self):
        # the test has the power to see q2 without its last eta
        state, sigma, eta = LAW_CASES["skewed"]
        sampler = TrialSampler(state, perturbed_phases(sigma))
        q1, q2 = sampler.thresholds(eta)
        n = LAW_SEEDS * LAW_TRIALS
        expected = n * np.array([1.0 - q1, q1 - q2, q2])
        wrong = q2 / eta
        observed = n * np.array([1.0 - q1, q1 - wrong, wrong])
        assert chi2_sf_even(float(((observed - expected) ** 2 / expected).sum()), 2) < LAW_P_VALUE

    def test_count_moments_over_seeds(self):
        # a run's counts are s1 = a + s2 and s2, where (n - s1, a, s2) is multinomial with
        # probabilities (1 - q1, q1 - q2, q2), so E s1 = n q1, E s2 = n q2,
        # Var s2 = n q2 (1 - q2) and Cov(s1, s2) = Var s2 + Cov(a, s2) = n q2 (1 - q1)
        state, sigma, eta = LAW_CASES["skewed"]
        phases = perturbed_phases(sigma)
        q1, q2 = TrialSampler(state, phases).thresholds(eta)
        imperfections = ImperfectionParams(eta_a=eta, sigma=sigma)
        reports = estimate_all([TrialConfig(MOMENT_TRIALS, seed, state, phases, imperfections)
                                for seed in range(MOMENT_SEEDS)])
        n = MOMENT_TRIALS
        stage1 = np.array([report.stage1_successes for report in reports]) - n * q1
        stage2 = np.array([report.stage2_successes for report in reports]) - n * q2
        # each moment is the mean over seeds of one figure per seed, centred on
        # the law's means, so its standard error is that figure's spread over sqrt(seeds)
        moments = {
            "stage-1 mean": (stage1, 0.0),
            "stage-2 mean": (stage2, 0.0),
            "stage-2 variance": (stage2**2, n * q2 * (1.0 - q2)),
            "covariance": (stage1 * stage2, n * q2 * (1.0 - q1)),
        }
        for name, (figure, expected) in moments.items():
            standard_error = figure.std(ddof=1) / math.sqrt(MOMENT_SEEDS)
            assert abs(figure.mean() - expected) < 5.0 * standard_error, name

    def test_chi2_sf_even_matches_known_values(self):
        assert chi2_sf_even(0.0, 2) == 1.0
        assert chi2_sf_even(2.0, 2) == pytest.approx(math.exp(-1.0), rel=1e-15)
        # the 95th percentiles of chi-square with 4 and 400 degrees of freedom
        assert chi2_sf_even(9.487729036781154, 4) == pytest.approx(0.05, rel=1e-12)
        assert chi2_sf_even(447.6324678308084, 400) == pytest.approx(0.05, rel=1e-9)

    def test_product_state_never_passes(self):
        state = TwoPhotonState(1, 0, 0, 0)
        assert TrialSampler(state, ideal_phases()).thresholds(1.0) == (0.0, 0.0)
        report = estimate(TrialConfig(
            n_trials=50_000, master_seed=3, state=state, phases=ideal_phases(), imperfections=IDEAL
        ))
        assert (report.stage1_successes, report.stage2_successes) == (0, 0)

    def test_certain_readouts_always_pass_at_full_efficiency(self):
        # at eta 1 a readout whose p+ is 1 costs a trial nothing
        sampler = TrialSampler(BELL, ideal_phases())
        assert sampler.p_plus2 == 1.0
        assert sampler.thresholds(1.0)[0] == sampler.p_plus1
        sampler.p_plus1 = sampler.p_plus3 = 1.0
        assert sampler.thresholds(1.0) == (1.0, 1.0)
        assert all(replay(sampler, 3, i, 1.0) == (True, True) for i in range(64))
        assert estimator._count_span(3, sampler.thresholds(1.0), 5, 20_000) == (19_995, 19_995)
        # below eta 1 the same readouts fail on detection alone
        assert sampler.thresholds(0.5) == (0.25, 0.125)


class TestRunTrial:
    def test_product_state_never_selected(self):
        state = TwoPhotonState(0, 1, 0, 0)
        for i in range(50):
            stage1, _ = replay(TrialSampler(state, ideal_phases()), 5, i, IDEAL.eta_a)
            assert not stage1

    def test_stage2_implies_stage1(self):
        for i in range(200):
            stage1, stage2 = replay(TrialSampler(BELL, ideal_phases()), 11, i, IDEAL.eta_a)
            assert stage1 or not stage2

    def test_deterministic_per_stream(self):
        first = replay(TrialSampler(BELL, ideal_phases()), 17, 42, IDEAL.eta_a)
        second = replay(TrialSampler(BELL, ideal_phases()), 17, 42, IDEAL.eta_a)
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
        # the vectorized path must reproduce a per-trial replay exactly
        n = 300
        params = ImperfectionParams(eta_a=0.8, sigma=0.1)
        config = bell_config(n, 55, params, sigma=0.1)
        outcomes = [
            replay(TrialSampler(BELL, perturbed_phases(0.1)), 55, i, params.eta_a)
            for i in range(n)
        ]
        report = estimate(config)
        assert report.stage1_successes == sum(stage1 for stage1, _ in outcomes)
        assert report.stage2_successes == sum(stage2 for _, stage2 in outcomes)

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

    def test_trial_i_reads_the_i_th_word_of_the_seeded_stream(self):
        # numpy turns a 64-bit word w into the double (w >> 11) 2^-53
        seed = 303
        words = np.random.PCG64DXSM(seed).random_raw(4098)
        for i in (0, 1, 2, 3, 4, 7, 4097):
            assert estimator._stream_at(seed, i).random() == (int(words[i]) >> 11) * 2.0**-53

    def test_jumps_compose(self):
        # advancing by a then by b lands where advancing by a + b does
        seed, i = 303, 2**40 + 2
        for a in (0, 1, 2**39, 2**40 + 1):
            bits = np.random.PCG64DXSM(seed)
            bits.advance(a)
            bits.advance(i - a)
            assert np.random.Generator(bits).random() == estimator._stream_at(seed, i).random()

    def test_extreme_seeds_are_accepted(self):
        for seed in (0, 2**64 - 1):
            word = int(np.random.PCG64DXSM(seed).random_raw(2)[1])
            assert estimator._stream_at(seed, 1).random() == (word >> 11) * 2.0**-53


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
        assert sorted(spans) == [(0, 262469), (262469, 524939), (524939, SPLIT_TRIALS)]
        assert (report.stage1_successes, report.stage2_successes) == serial_counts(config)

    def test_span_streams_replay_per_trial(self, spans):
        seed = 4243
        config = skewed_config(SPLIT_TRIALS, seed)
        estimate(config)
        starts = [lo for lo, _ in spans]
        assert len(starts) == 3
        sampler = TrialSampler(SKEWED, perturbed_phases(0.1))
        eta = SKEWED_IMPERFECTIONS.eta_a
        thresholds = sampler.thresholds(eta)
        for lo in starts:
            outcomes = [replay(sampler, seed, i, eta) for i in range(lo, lo + 100)]
            expected = (
                sum(stage1 for stage1, _ in outcomes),
                sum(stage2 for _, stage2 in outcomes),
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
        # with every worker the cap allows, a run long enough for all of them
        # keeps only the reused buffers alive, not a draws array per chunk
        monkeypatch.setattr(estimator, "_available_cpus", lambda: 64)
        config = bell_config(estimator._MAX_WORKERS * estimator._MIN_SPAN, 19)
        estimate(config)
        tracemalloc.start()
        try:
            estimate(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


def sweep_configs(steps, n, seed=900):
    """The runs of a sigma sweep of the skewed state, seeded like the CLI's points."""
    sigmas = np.linspace(0.0, 0.3, steps)
    return [
        TrialConfig(
            n_trials=n,
            master_seed=seed + index,
            state=SKEWED,
            phases=perturbed_phases(float(sigma)),
            imperfections=ImperfectionParams(eta_a=0.8, sigma=float(sigma)),
        )
        for index, sigma in enumerate(sigmas)
    ]


def passes(report):
    return report.stage1_successes, report.stage2_successes


@pytest.fixture
def span_log(monkeypatch):
    """Offer two CPUs; record each span's seed, bounds, the thread that counts
    it and the live thread names."""
    monkeypatch.setattr(estimator, "_available_cpus", lambda: 2)
    recorded = []
    count_span = estimator._count_span

    def recording(seed, thresholds, lo, hi):
        live = {thread.name for thread in threading.enumerate()}
        recorded.append((seed, lo, hi, threading.current_thread().name, live))
        return count_span(seed, thresholds, lo, hi)

    monkeypatch.setattr(estimator, "_count_span", recording)
    return recorded


class TestBatch:
    def test_sweep_matches_serial_reference(self, spans):
        configs = sweep_configs(8, 20_000)
        reports = estimate_all(configs)
        assert [passes(report) for report in reports] == [serial_counts(c) for c in configs]
        assert reports == [estimate(config) for config in configs]

    def test_sweep_points_are_one_span_each_on_one_pool_thread(self, span_log, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        caller = threading.get_ident()
        helper_took_a_span = threading.Event()
        record = estimator._count_span

        def held(seed, thresholds, lo, hi):
            if threading.get_ident() != caller:
                helper_took_a_span.set()
            # hold the caller's span until a helper has one, so it cannot
            # take every span itself
            elif not helper_took_a_span.wait(timeout=60):
                raise RuntimeError("no helper took a span")
            return record(seed, thresholds, lo, hi)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(estimator, "_count_span", held)
        # 2 _MIN_SPAN trials in all, one helper's worth on two CPUs
        configs = sweep_configs(8, estimator._MIN_SPAN // 4)
        for _ in range(2):
            span_log.clear()
            helper_took_a_span.clear()
            estimate_all(configs)
            assert sorted((seed, lo, hi) for seed, lo, hi, *_ in span_log) == [
                (config.master_seed, 0, config.n_trials) for config in configs
            ]
            assert any(counter.startswith("faradaymeter-span") for *_, counter, _ in span_log)
        # the pool outlives a batch, so the second starts no thread
        assert len(started) <= 1
        assert all(name.startswith("faradaymeter-span") for name in started)

    def test_the_pool_never_holds_more_than_the_helper_cap(self, monkeypatch):
        monkeypatch.setattr(estimator, "_available_cpus", lambda: 64)
        helpers = []
        counters = []
        count_span = estimator._count_span

        def live_helpers():
            return sum(t.name.startswith("faradaymeter-span") for t in threading.enumerate())

        def recording(seed, thresholds, lo, hi):
            helpers.append(live_helpers())
            counters.append(threading.current_thread().name)
            return count_span(seed, thresholds, lo, hi)

        monkeypatch.setattr(estimator, "_count_span", recording)
        # enough trials in all to wake every helper the cap allows
        configs = sweep_configs(8, estimator._MAX_WORKERS * estimator._MIN_SPAN // 8)
        for _ in range(20):
            estimate_all(configs)
            helpers.append(live_helpers())
        # these batches used a helper, not only a pool earlier tests left
        assert any(name.startswith("faradaymeter-span") for name in counters)
        assert 0 < max(helpers) <= estimator._MAX_WORKERS - 1

    def test_the_caller_counts_every_span_when_no_helper_runs(self, span_log, monkeypatch):
        class Idle:
            def submit(self, work):
                return Future()  # the work is dropped, as if no helper ever woke

        monkeypatch.setattr(estimator, "_pool", Idle())
        # 2 _MIN_SPAN trials in all, so the batch asks for a helper
        configs = sweep_configs(8, estimator._MIN_SPAN // 4)
        reports = estimate_all(configs)
        assert len(span_log) == 8
        assert [passes(report) for report in reports] == [serial_counts(c) for c in configs]

    def test_the_caller_never_waits_for_a_queued_helper(self, span_log, monkeypatch):
        # every pool thread is held, so the helpers a split run asks for stay
        # queued; the caller must count every span and return without them
        monkeypatch.setattr(estimator, "_available_cpus", lambda: estimator._MAX_WORKERS)
        holders = estimator._MAX_WORKERS - 1
        all_held = threading.Barrier(holders + 1)
        release = threading.Event()

        def hold():
            all_held.wait(timeout=30)
            release.wait(timeout=60)

        config = skewed_config(SPLIT_TRIALS, 67)
        reports = []
        caller = threading.Thread(
            target=lambda: reports.append(estimate(config)), name="queued-helpers-caller"
        )
        held = [estimator._helpers().submit(hold) for _ in range(holders)]
        try:
            all_held.wait(timeout=30)
            caller.start()
            caller.join(timeout=30)
            assert not caller.is_alive()
        finally:
            release.set()
            for future in held:
                future.result(timeout=60)
        assert len(span_log) == 3
        assert {counter for *_, counter, _ in span_log} == {caller.name}
        assert passes(reports[0]) == serial_counts(config)

    def test_an_error_on_a_helper_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(estimator, "_available_cpus", lambda: 2)
        caller = threading.get_ident()
        helper_took_a_span = threading.Event()
        count_span = estimator._count_span

        def failing_on_helpers(seed, thresholds, lo, hi):
            if threading.get_ident() != caller:
                helper_took_a_span.set()
                raise RuntimeError("helper failed")
            # hold the caller's span until a helper has one, so it cannot
            # take every span itself
            assert helper_took_a_span.wait(timeout=60)
            return count_span(seed, thresholds, lo, hi)

        monkeypatch.setattr(estimator, "_count_span", failing_on_helpers)
        with pytest.raises(RuntimeError, match="helper failed"):
            estimate_all(sweep_configs(8, estimator._MIN_SPAN // 4))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_pool(self):
        # a child interpreter, so a fork of this threaded test process is
        # never needed; it prints the child's exit code
        code = f"""
import os, sys, threading
sys.path.insert(0, {str(Path(__file__).parent)!r})
from serial_estimator_reference import serial_counts
from test_estimator import skewed_config, SPLIT_TRIALS
from faradaymeter import estimator

estimator._available_cpus = lambda: 2
config = skewed_config(SPLIT_TRIALS, 61)
expected = serial_counts(config)
report = estimator.estimate(config)
assert (report.stage1_successes, report.stage2_successes) == expected
pid = os.fork()
if pid == 0:
    report = estimator.estimate(config)
    helpers = [t for t in threading.enumerate() if t.name.startswith("faradaymeter-span")]
    same = (report.stage1_successes, report.stage2_successes) == expected
    os._exit(0 if same and helpers else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n"

    def test_tiny_batch_stays_on_the_calling_thread(self, span_log, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        configs = sweep_configs(8, 1)
        reports = estimate_all(configs)
        assert len(span_log) == 8
        assert started == []
        assert [passes(report) for report in reports] == [serial_counts(c) for c in configs]

    def test_batches_under_two_min_spans_wake_no_helper(self, span_log, monkeypatch):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        configs = sweep_configs(8, 20_000)
        reports = estimate_all(configs)
        assert started == []
        caller = threading.current_thread().name
        assert [counter for *_, counter, _ in span_log] == [caller] * 8
        assert [passes(report) for report in reports] == [serial_counts(c) for c in configs]
        # a run of 2 _MIN_SPAN trials is the shortest that splits
        span_log.clear()
        n = 2 * estimator._MIN_SPAN
        config = skewed_config(n, 45)
        report = estimate(config)
        assert sorted((lo, hi) for _, lo, hi, *_ in span_log) == [(0, n // 2), (n // 2, n)]
        assert passes(report) == serial_counts(config)

    def test_pool_threads_are_named_while_a_split_run_counts(self, span_log):
        estimate(skewed_config(SPLIT_TRIALS, 12))
        assert len(span_log) == 2
        for *_, live in span_log:
            assert any(name.startswith("faradaymeter-span") for name in live)

    def test_long_run_in_a_batch_of_short_ones_is_split(self, spans):
        short = estimator._MIN_SPAN // 4
        configs = [skewed_config(SPLIT_TRIALS, 31)] + [skewed_config(short, s) for s in (32, 33, 34)]
        reports = estimate_all(configs)
        half = SPLIT_TRIALS // 2
        assert sorted(spans) == sorted([(0, half), (half, SPLIT_TRIALS)] + [(0, short)] * 3)
        assert [passes(report) for report in reports] == [serial_counts(c) for c in configs]

    def test_concurrent_batches_get_serial_counts(self, spans):
        batches = [sweep_configs(3, 20_000, seed) + [skewed_config(SPLIT_TRIALS, seed)] for seed in (70, 80)]
        results = {}

        def call(index):
            results[index] = estimate_all(batches[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(index,)) for index in range(2)]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for index, batch in enumerate(batches):
            assert [passes(report) for report in results[index]] == [serial_counts(c) for c in batch]

    def test_memory_peak_is_flat_in_the_number_of_points(self, monkeypatch):
        # a draw buffer per point would hold 200 x 32 KiB at once
        monkeypatch.setattr(estimator, "_available_cpus", lambda: 64)
        configs = sweep_configs(200, 5000)
        estimate_all(configs)
        tracemalloc.start()
        try:
            estimate_all(configs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_empty_batch(self):
        assert estimate_all([]) == []


def mixed_batch():
    """Runs whose neighbours differ in state, in sigma, in eta_a or in length.

    States A, B, A (the second A an equal copy), one state at two sigmas, a
    theta point, a run of one trial and, last, a run of 2 ``_MIN_SPAN``
    trials, which splits on two CPUs.
    """
    copy = TwoPhotonState(*SKEWED.amplitudes())
    theta = TwoPhotonState(math.cos(0.4), 0.0, 0.0, math.sin(0.4))
    # sigma 0.1 as phases built anew, equal to perturbed_phases(0.1) but not it
    rebuilt = FaradayPhases(math.pi + 0.1, math.pi / 2.0)
    runs = [
        (SKEWED, 0.1, 0.8, 20_000),
        (BELL, 0.1, 0.8, 20_000),
        (copy, 0.1, 0.8, 20_000),
        (SKEWED, 0.2, 0.8, 20_000),
        (SKEWED, 0.2, 0.6, 20_000),
        (theta, 0.2, 0.6, 20_000),
        (SKEWED, 0.2, 0.6, 1),
        (SKEWED, 0.1, 0.9, 2 * estimator._MIN_SPAN),
    ]
    configs = [
        TrialConfig(n, 500 + index, state, perturbed_phases(sigma),
                    ImperfectionParams(eta_a=eta, sigma=sigma))
        for index, (state, sigma, eta, n) in enumerate(runs)
    ]
    configs[2] = TrialConfig(20_000, 502, copy, rebuilt, ImperfectionParams(eta_a=0.8, sigma=0.1))
    return configs


class TestMixedBatch:
    def test_each_run_reports_as_it_would_alone(self, span_log):
        configs = mixed_batch()
        caller = threading.current_thread().name
        half = estimator._MIN_SPAN
        # the short runs count inline; with the long one the batch is dealt
        for batch in (configs[:-1], configs):
            span_log.clear()
            reports = estimate_all(batch)
            spans = [(seed, lo, hi) for seed, lo, hi, *_ in span_log]
            if batch is not configs:
                assert [counter for *_, counter, _ in span_log] == [caller] * len(batch)
            assert reports == [estimate(config) for config in batch]
            assert [passes(report) for report in reports] == [serial_counts(c) for c in batch]
        assert sorted(spans) == sorted(
            [(c.master_seed, 0, c.n_trials) for c in configs[:-1]]
            + [(507, 0, half), (507, half, 2 * half)]
        )

    def test_a_batch_too_short_to_split_counts_inline(self, monkeypatch):
        counted = []
        count_span = estimator._count_span

        def recording(seed, thresholds, lo, hi):
            counted.append((seed, lo, hi, threading.current_thread().name))
            return count_span(seed, thresholds, lo, hi)

        def no_cpu_count():
            raise AssertionError("a batch that cannot split asked for the CPUs")

        monkeypatch.setattr(estimator, "_count_span", recording)
        monkeypatch.setattr(estimator, "_available_cpus", no_cpu_count)
        configs = mixed_batch()[:-1]
        reports = estimate_all(configs)
        caller = threading.current_thread().name
        assert counted == [(c.master_seed, 0, c.n_trials, caller) for c in configs]
        assert [passes(report) for report in reports] == [serial_counts(c) for c in configs]

    def test_consecutive_runs_of_one_state_and_phases_share_a_sampler(self, monkeypatch):
        built = []
        stage_probabilities = estimator.stage_probabilities

        def recording(state, phases):
            built.append((state, phases))
            return stage_probabilities(state, phases)

        monkeypatch.setattr(estimator, "stage_probabilities", recording)
        phases = perturbed_phases(0.05)
        etas = np.linspace(0.6, 1.0, 8)
        configs = [
            TrialConfig(20_000, 40 + index, SKEWED, phases,
                        ImperfectionParams(eta_a=float(eta), sigma=0.05))
            for index, eta in enumerate(etas)
        ]
        reports = estimate_all(configs)
        assert built == [(SKEWED, phases)]
        assert [passes(report) for report in reports] == [serial_counts(c) for c in configs]
        built.clear()
        estimate_all(mixed_batch())
        # A, B, A, then A at sigma 0.2 for two runs, theta, A twice more
        assert len(built) == 7


class TestTrialStream:
    def test_blocks_tile_the_master_sequence(self):
        # trial i's one draw is the i-th double of one sequential stream
        seed = 77
        sequential = np.random.Generator(np.random.PCG64DXSM(seed)).random(13)
        for i in range(13):
            assert estimator._stream_at(seed, i).random() == sequential[i]
