"""Monte Carlo estimation of the protocol success probability.

Each trial consumes at most six uniform draws: a Born-rule draw and a
detector-efficiency draw per atom readout, in protocol order, stopping at
the first failure.  Draws come from a counter-based generator (Philox keyed
by the master seed), and trial ``i`` owns the fixed 8-double block starting
at counter ``2 i``.  That layout makes the estimate a pure function of the
configuration: trials can be replayed individually, batched or split across
workers without changing a single outcome.

``estimate`` cuts the trial range into contiguous spans, one per worker
thread (numpy's Philox fill and ufuncs release the interpreter lock).  A
span is one Philox stream started at counter ``2 lo`` and read on into a
small buffer the worker reuses.  One fused compare per buffer turns a
trial's eight draws into eight mask bytes, draw ``j`` below threshold
``j``; read as one ``uint64`` word, a trial passes stage 1 when its first
four bytes are set and stage 2 when its word equals the six-byte pattern.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .faraday import FaradayPhases, perturbed_phases
from .imperfect import ImperfectionParams, recover_concurrence
from .protocol import TwoPhotonState, stage_probabilities

# Fixed per-trial block: six draws used, padded to 8 so each trial spans
# exactly two Philox counter increments.
DRAWS_PER_TRIAL = 8

_MAX_SEED = 2**64

# Trials per reused draw buffer (256 KiB of draws), the fewest trials worth
# a thread of their own, and the most threads one run starts.
_BUFFER_TRIALS = 1 << 12
_MIN_SPAN = 1 << 13
_MAX_WORKERS = 4


def _mask_word(flags) -> np.uint64:
    """The eight mask bytes of one trial read as a word, in host byte order."""
    return np.array(flags, dtype=np.bool_).view(np.uint64)[0]


# Mask bytes 6 and 7 compare the padding draws against -1 and are never set.
_STAGE1_WORD = _mask_word([1, 1, 1, 1, 0, 0, 0, 0])
_STAGE2_WORD = _mask_word([1, 1, 1, 1, 1, 1, 0, 0])


class TrialOutcome(NamedTuple):
    stage1_pass: bool
    stage2_pass: bool


@dataclass(frozen=True)
class TrialConfig:
    """Everything a reproducible estimation run depends on.

    ``phases`` must be ``perturbed_phases(imperfections.sigma)``: the phase
    error the trials run at is the one the correction divides out.
    """

    n_trials: int
    master_seed: int
    state: TwoPhotonState
    phases: FaradayPhases
    imperfections: ImperfectionParams

    def __post_init__(self) -> None:
        if not isinstance(self.n_trials, int) or self.n_trials < 1:
            raise ValueError(f"n_trials must be a positive integer, got {self.n_trials!r}")
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < _MAX_SEED:
            raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
        if self.phases != perturbed_phases(self.imperfections.sigma):
            raise ValueError(
                f"phases {self.phases!r} do not match the phase error "
                f"sigma={self.imperfections.sigma!r} of the imperfections"
            )


@dataclass(frozen=True)
class EstimateReport:
    """Counts, point estimates and a confidence interval for one run.

    ``c_hat`` is the raw estimate ``2 sqrt(p_total_hat)`` and is not
    clamped, so sampling noise can push it slightly above 1;
    ``corrected_c_hat`` has the imperfection model divided out and is
    clamped to [0, 1].
    """

    trials: int
    stage1_successes: int
    stage2_successes: int
    p1_hat: float
    p2_hat: float
    p_total_hat: float
    c_hat: float
    c_low: float
    c_high: float
    corrected_c_hat: float

    def __post_init__(self) -> None:
        if not 0 <= self.stage2_successes <= self.stage1_successes <= self.trials:
            raise ValueError(
                f"inconsistent counts: {self.stage2_successes} stage-2, "
                f"{self.stage1_successes} stage-1, {self.trials} trials"
            )
        if not self.c_low <= self.c_hat <= self.c_high:
            raise ValueError("confidence interval does not bracket the point estimate")


class TrialSampler:
    """Precomputed readout probabilities for one protocol configuration.

    All trials start from the same prepared state, so the three
    conditional Born probabilities (each given that the earlier readouts
    returned |+>) are computed once up front by
    :func:`~faradaymeter.protocol.stage_probabilities`; sampling a trial
    then costs only comparisons against uniform draws.
    """

    def __init__(self, state: TwoPhotonState, phases: FaradayPhases) -> None:
        self.p_plus1, self.p_plus2, self.p_plus3 = stage_probabilities(state, phases)

    def sample(self, rng, eta_a: float) -> TrialOutcome:
        """Play one trial, drawing lazily and stopping at the first failure."""
        if rng.random() >= self.p_plus1:
            return TrialOutcome(False, False)
        if rng.random() >= eta_a:
            return TrialOutcome(False, False)
        if rng.random() >= self.p_plus2:
            return TrialOutcome(False, False)
        if rng.random() >= eta_a:
            return TrialOutcome(False, False)
        if rng.random() >= self.p_plus3:
            return TrialOutcome(True, False)
        if rng.random() >= eta_a:
            return TrialOutcome(True, False)
        return TrialOutcome(True, True)


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """The private generator for one trial: an 8-double block at counter 2i."""
    if not 0 <= master_seed < _MAX_SEED:
        raise ValueError(f"master_seed must be a 64-bit unsigned integer, got {master_seed!r}")
    if trial_index < 0:
        raise ValueError(f"trial_index must be non-negative, got {trial_index!r}")
    bits = np.random.Philox(key=master_seed, counter=[2 * trial_index, 0, 0, 0])
    return np.random.Generator(bits)


def run_trial(
    state: TwoPhotonState,
    phases: FaradayPhases,
    imperfections: ImperfectionParams,
    rng: np.random.Generator,
) -> TrialOutcome:
    """Reference single-trial path; ``estimate`` is the batched equivalent."""
    return TrialSampler(state, phases).sample(rng, imperfections.eta_a)


def wilson_interval(successes: int, trials: int, confidence: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Well behaved at the boundary counts 0 and ``trials``, unlike the normal
    approximation, which matters here because near-separable states make
    stage-2 success very rare.
    """
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"invalid counts: {successes} successes in {trials} trials")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must lie in (0, 1), got {confidence!r}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    # at the boundary counts the score bound is exactly the point estimate,
    # but center - half only reaches it up to rounding; pin it
    low = 0.0 if successes == 0 else max(0.0, center - half)
    high = 1.0 if successes == trials else min(1.0, center + half)
    return low, high


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _count_span(
    master_seed: int, thresholds: np.ndarray, lo: int, hi: int
) -> tuple[int, int]:
    """Stage-1 and stage-2 passes among trials ``lo <= i < hi``.

    ``thresholds`` is the per-trial threshold row repeated once per buffer
    row; its length sets the buffer size.
    """
    rows = len(thresholds)
    gen = np.random.Generator(np.random.Philox(key=master_seed, counter=[2 * lo, 0, 0, 0]))
    draws = np.empty((rows, DRAWS_PER_TRIAL))
    words = np.empty(rows, dtype=np.uint64)
    mask = words.view(np.bool_).reshape(rows, DRAWS_PER_TRIAL)
    hits = np.empty(rows, dtype=np.bool_)
    stage1 = 0
    stage2 = 0
    for start in range(lo, hi, rows):
        count = min(rows, hi - start)
        block, word, hit = draws[:count], words[:count], hits[:count]
        gen.random(out=block)
        np.less(block, thresholds[:count], out=mask[:count])
        np.equal(word, _STAGE2_WORD, out=hit)
        stage2 += int(np.count_nonzero(hit))
        np.bitwise_and(word, _STAGE1_WORD, out=word)
        np.equal(word, _STAGE1_WORD, out=hit)
        stage1 += int(np.count_nonzero(hit))
    return stage1, stage2


def estimate(config: TrialConfig) -> EstimateReport:
    """Run every trial of the configuration and summarize the counts.

    Each trial's draws sit at a fixed counter offset, so any buffer size
    and any split of the trials across threads produce the identical
    report.  Runs shorter than two minimum spans stay on the calling
    thread.  Statistically awkward data does not raise: the corrected
    estimate is computed with clamping so a noisy run still yields a
    usable report.
    """
    sampler = TrialSampler(config.state, config.phases)
    eta = config.imperfections.eta_a
    n = config.n_trials
    seed = config.master_seed
    workers = max(1, min(_MAX_WORKERS, _available_cpus(), n // _MIN_SPAN))
    bounds = [n * k // workers for k in range(workers + 1)]
    rows = min(_BUFFER_TRIALS, bounds[1])
    row = [sampler.p_plus1, eta, sampler.p_plus2, eta, sampler.p_plus3, eta, -1.0, -1.0]
    # tiled, not broadcast: against a contiguous operand the compare runs
    # in one vector loop instead of one 8-element loop per trial
    thresholds = np.tile(np.array(row), (rows, 1))
    if workers == 1:
        counts = [_count_span(seed, thresholds, 0, n)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers - 1) as pool:
            futures = [
                pool.submit(_count_span, seed, thresholds, lo, hi)
                for lo, hi in zip(bounds[1:-1], bounds[2:])
            ]
            counts = [_count_span(seed, thresholds, 0, bounds[1])]
            counts += [future.result() for future in futures]
    stage1 = sum(passes for passes, _ in counts)
    stage2 = sum(passes for _, passes in counts)
    p1_hat = stage1 / n
    p2_hat = stage2 / stage1 if stage1 > 0 else 0.0
    p_total_hat = stage2 / n
    c_hat = 2.0 * math.sqrt(p_total_hat)
    low, high = wilson_interval(stage2, n)
    corrected = recover_concurrence(p1_hat, p2_hat, config.imperfections, strict=False)
    return EstimateReport(
        trials=n,
        stage1_successes=stage1,
        stage2_successes=stage2,
        p1_hat=p1_hat,
        p2_hat=p2_hat,
        p_total_hat=p_total_hat,
        c_hat=c_hat,
        c_low=2.0 * math.sqrt(low),
        c_high=2.0 * math.sqrt(high),
        corrected_c_hat=corrected,
    )
