"""Monte Carlo estimation of the protocol success probability.

A trial reports only whether it passed stage 1 and whether it passed stage
2, so it is one three-way draw: it passes stage 2 with probability
``q2 = q1 p+3 eta``, stage 1 alone with ``q1 - q2``, and neither with
``1 - q1``, where ``q1 = p+1 eta p+2 eta`` (a Born-rule readout and a
detector click per atom).  Trial ``i`` reads one uniform ``u_i``, the
``i``-th double of the PCG64DXSM stream seeded with the master seed, and
passes stage 2 when ``u_i < q2`` and stage 1 when ``u_i < q1``.  Every
trial owns a fixed draw of the stream, and the stream jumps ahead to draw
``i`` in O(log i) steps (``advance``), so the estimate is a pure function of
the configuration: trials can be batched or split across workers without
changing a single outcome.

``estimate_all`` runs a batch of configurations, such as the points of a
sweep; ``estimate`` is a batch of one.  The runs of one seed read one
stream, each the first ``n_trials`` doubles of it, so the batch fills each
seed's draws once, as many as its longest run reads, and compares each
block against the thresholds of every run that reaches into it: the 8
points of a sweep, which share the sweep's seed, cost one seeding and one
fill.  One sampler, and so one exact evaluation of the protocol, serves
each stretch of consecutive runs of one state and phases: the 8 points of
an ``eta_a`` or ``trials`` sweep share one.  A batch that does not split,
one that reads under ``2 * _MIN_SPAN`` draws in all, such as a sweep of 8
points of 20000 trials, or one on a single CPU, is counted inline: each
seed's runs are one span on the calling thread, in order of first
appearance, and start no thread.  A batch that splits runs on the calling
thread and up to ``_MAX_WORKERS - 1`` helper threads (numpy's PCG64DXSM
fill and ufuncs release the interpreter lock), one per ``_MIN_SPAN``
draws: below that, waking one costs more than it saves.  The helpers
belong to one pool per process, started by the first batch that splits
and kept for the next; a forked child starts its own.  Each seed's stream
is cut into contiguous spans, a long one into more spans than a short
one, and the workers take spans off one shared iterator until it is
empty.  The caller then cancels every helper that has not started, so a
helper that wakes late costs nothing.  A span is the stream advanced to
draw ``lo`` and read on into a small buffer the worker reuses; per buffer
and per run, one compare against ``q1`` and one against ``q2`` give its
two counts.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .faraday import FaradayPhases, perturbed_phases
from .imperfect import ImperfectionParams
from .protocol import TwoPhotonState, stage_probabilities

_MAX_SEED = 2**64
# The generator and draw layout a run's counts depend on; simulate records carry it.
RNG_ID = "pcg64dxsm/1-double-per-trial"
# The normal quantile of a two-sided 95% interval, the repr of
# statistics.NormalDist().inv_cdf(0.975), written out so no run imports
# statistics (and with it fractions and decimal) for one constant.
_WILSON_Z = 1.9599639845400536

# Trials per reused draw buffer (256 KiB of draws), the fewest trials worth
# a thread of their own, and the most threads one call starts.  On 2 CPUs
# a helper made a sweep of 8 runs of 20000 trials slower, while a lone run
# of 524288 to 1e6 trials, cut in two, counted about 1.4x as fast (README).
_BUFFER_TRIALS = 1 << 15
_MIN_SPAN = 1 << 18
_MAX_WORKERS = 4
# The helpers that count spans beside the calling thread; see _helpers.
_pool = None
_pool_lock = threading.Lock()


@dataclass(frozen=True)
class TrialConfig:
    """Everything a reproducible estimation run depends on.

    ``phases`` must be ``perturbed_phases(imperfections.sigma)``, so that the
    phase error the trials run at is the one the record echoes; it feeds no
    correction.
    """

    n_trials: int
    master_seed: int
    state: TwoPhotonState
    phases: FaradayPhases
    imperfections: ImperfectionParams

    def __post_init__(self) -> None:
        # type(), not isinstance(): a bool is an int and would pass as 0 or 1
        if type(self.n_trials) is not int or self.n_trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.n_trials!r}")
        if type(self.master_seed) is not int or not 0 <= self.master_seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
        expected = perturbed_phases(self.imperfections.sigma)
        # perturbed_phases keeps one object per sigma, mostly the very one given
        if self.phases is not expected and self.phases != expected:
            raise ValueError(
                f"phases {self.phases!r} do not match the phase error "
                f"sigma={self.imperfections.sigma!r} of the imperfections"
            )


@dataclass(frozen=True)
class EstimateReport:
    """Counts, point estimates and a confidence interval for one run.

    ``c_hat`` is the raw estimate ``2 sqrt(p_total_hat)`` and is not
    clamped, so sampling noise can push it slightly above 1;
    ``corrected_c_hat`` is ``2 sqrt(p_total_hat / eta_a**3)``, the detection
    efficiency divided out, clamped to at most 1.  Neither corrects the
    phase error.  ``c_low`` and ``c_high`` are the 95% Wilson interval of
    ``p_total_hat`` mapped through ``2 sqrt(p)``: they bracket the raw
    ``c_hat``, not ``corrected_c_hat``, which at ``eta_a < 1`` can lie
    above ``c_high``.
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
    :func:`~faradaymeter.protocol.stage_probabilities`, and
    :meth:`thresholds` turns them into the two bounds a trial's uniform is
    compared against.
    """

    def __init__(self, state: TwoPhotonState, phases: FaradayPhases) -> None:
        self.p_plus1, self.p_plus2, self.p_plus3 = stage_probabilities(state, phases)

    def thresholds(self, eta_a: float) -> tuple[float, float]:
        """``(q1, q2)``: the chances that a trial passes stage 1 and stage 2."""
        q1 = self.p_plus1 * eta_a * self.p_plus2 * eta_a
        return q1, q1 * self.p_plus3 * eta_a


def _stream_at(master_seed: int, draw: int) -> np.random.Generator:
    """``PCG64DXSM(master_seed)`` advanced to its ``draw``-th double."""
    # one 64-bit output per double, so advancing by draw outputs skips draw doubles
    bits = np.random.PCG64DXSM(master_seed)
    if draw:
        bits.advance(draw)
    return np.random.Generator(bits)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion.

    Well behaved at the boundary counts 0 and ``trials``, unlike the normal
    approximation, which matters here because near-separable states make
    stage-2 success very rare.
    """
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"invalid counts: {successes} successes in {trials} trials")
    z = _WILSON_Z
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
    master_seed: int, runs: Sequence[tuple[float, float, int]], lo: int, hi: int
) -> list[tuple[int, int]]:
    """Stage-1 and stage-2 passes of each run of ``master_seed`` among its trials ``lo <= i < hi``.

    A run is ``(q1, q2, n_trials)`` and stops at its own ``n_trials``, so
    the runs share each block of draws: the block is filled once into a
    reused buffer of ``_BUFFER_TRIALS`` trials, but no more than the span,
    and compared against the thresholds of every run that reaches into it.
    """
    rows = min(hi - lo, _BUFFER_TRIALS)
    gen = _stream_at(master_seed, lo)
    draws = np.empty(rows)
    hits = np.empty(rows, dtype=np.bool_)
    counts = [[0, 0] for _ in runs]
    for start in range(lo, hi, rows):
        if hi - start < rows:  # the last block of a span longer than the buffer
            draws, hits = draws[:hi - start], hits[:hi - start]
        gen.random(out=draws)
        for (q1, q2, n), tally in zip(runs, counts):
            block, mask = draws, hits
            if n - start < len(draws):  # the run ends before this block does
                if n <= start:
                    continue
                block, mask = draws[:n - start], hits[:n - start]
            np.less(block, q1, out=mask)
            tally[0] += np.count_nonzero(mask)
            np.less(block, q2, out=mask)
            tally[1] += np.count_nonzero(mask)
    return [(int(stage1), int(stage2)) for stage1, stage2 in counts]


def _helpers():
    """The process's pool of span helpers, started by the first batch that splits."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_MAX_WORKERS - 1, thread_name_prefix="faradaymeter-span")
        return _pool


def _forget_pool() -> None:
    # a forked child inherits the pool but none of its threads
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _count_tasks(tasks: list[tuple], workers: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """``(group index, counts of each of its runs)`` of every span task.

    A task is ``(group index, seed, runs, lo, hi)``, its ``runs`` those of
    one seed as ``_count_span`` takes them.  The calling thread
    and ``workers - 1`` helpers sent to the process's pool each take the
    next task off one shared iterator until it is empty.  The caller then
    cancels the helpers that have not started and waits only for the
    others, so it never waits for a helper that wakes late.  A span's error
    reaches the caller, from its own span or through a helper's future.
    """
    pending = iter(tasks)
    taking = threading.Lock()
    counted = []

    def work() -> None:
        while True:
            with taking:
                task = next(pending, None)
            if task is None:
                return
            group, seed, runs, lo, hi = task
            counted.append((group, _count_span(seed, runs, lo, hi)))

    helpers = [_helpers().submit(work) for _ in range(workers - 1)]
    try:
        work()
    finally:
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    return counted


def _report(config: TrialConfig, stage1: int, stage2: int) -> EstimateReport:
    """Point estimates and the confidence interval of one run's counts."""
    n = config.n_trials
    p_total_hat = stage2 / n
    low, high = wilson_interval(stage2, n)
    # the fields in order: counts, p1_hat, p2_hat, p_total_hat, c_hat, the
    # interval's ends and corrected_c_hat
    return EstimateReport(
        n, stage1, stage2, stage1 / n, stage2 / stage1 if stage1 > 0 else 0.0, p_total_hat,
        2.0 * math.sqrt(p_total_hat), 2.0 * math.sqrt(low), 2.0 * math.sqrt(high),
        min(1.0, 2.0 * math.sqrt(p_total_hat / config.imperfections.eta_a**3)),
    )


def _thresholds(configs: Sequence[TrialConfig]) -> list[tuple[float, float]]:
    """The ``(q1, q2)`` of each run; one sampler serves consecutive runs of one state and phases."""
    thresholds = []
    key = None
    for config in configs:
        # the tuples compare each state and phases by identity before equality
        if (config.state, config.phases) != key:
            key = (config.state, config.phases)
            sampler = TrialSampler(*key)
        thresholds.append(sampler.thresholds(config.imperfections.eta_a))
    return thresholds


def _seed_groups(configs: Sequence[TrialConfig]) -> list[tuple[int, int, list[int], list[tuple]]]:
    """``(seed, draws, run indices, runs)`` of each distinct seed, in order of first appearance.

    A run is ``(q1, q2, n_trials)``, as ``_count_span`` takes it; ``draws``
    is the longest run's ``n_trials``, the part of the stream the runs read.
    """
    groups: dict[int, tuple[list[int], list[tuple]]] = {}
    for index, (config, (q1, q2)) in enumerate(zip(configs, _thresholds(configs))):
        indices, runs = groups.setdefault(config.master_seed, ([], []))
        indices.append(index)
        runs.append((q1, q2, config.n_trials))
    return [(seed, max([n for *_, n in runs]), indices, runs)
            for seed, (indices, runs) in groups.items()]


def _dealt_counts(groups: list[tuple], cpus: int, draws: int) -> list[list[list[int]]]:
    """The counts of each run of each group, the groups' spans dealt out to ``cpus`` workers."""
    tasks = []
    for group, (seed, n, _, runs) in enumerate(groups):
        # spans in proportion to the group's share of the batch's draws, at
        # most one per CPU and per _MIN_SPAN draws, so a batch of one seed
        # splits as far as its longest run allows and a group whose runs
        # are all under 2 _MIN_SPAN never splits
        parts = max(1, min(cpus, n // _MIN_SPAN, round(cpus * n / draws)))
        bounds = [n * k // parts for k in range(parts + 1)]
        tasks += [(group, seed, runs, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    counts = [[[0, 0] for _ in runs] for *_, runs in groups]
    workers = min(cpus, len(tasks), draws // _MIN_SPAN)
    for group, passes in _count_tasks(tasks, workers):
        for tally, (stage1, stage2) in zip(counts[group], passes):
            tally[0] += stage1
            tally[1] += stage2
    return counts


def estimate_all(configs: Sequence[TrialConfig]) -> list[EstimateReport]:
    """Run every trial of each configuration and summarize each one's counts.

    The runs of one seed read one stream: trial ``i`` of each of them reads
    the stream's ``i``-th double, so each block of the stream is filled once
    per batch and compared against the thresholds of every run of that seed
    that reaches into it, and the batch reads, per seed, as many draws as
    its longest run.  One sampler serves each stretch of consecutive runs
    of one state and phases, such as the points of an ``eta_a`` or
    ``trials`` sweep.  A batch that does not split, one under 2
    ``_MIN_SPAN`` draws in all (a sweep of 8 points of 20000 trials) or on
    one CPU, counts each seed's runs as one span on the calling thread, in
    order of first appearance, and asks for no CPU count when it is that
    short.  A batch that splits is cut into contiguous spans of each seed's
    stream, a seed that reads much of the batch's draws into several, and
    all spans are dealt out to the calling thread and the helpers of the
    process's pool, as many workers as the CPUs the process may run on, at
    most ``_MAX_WORKERS``, and no more than there are spans or whole
    ``_MIN_SPAN`` blocks of draws in the batch.
    Each trial's draw sits at a fixed stream offset, so any buffer size,
    split and schedule produce the identical reports, and each report is
    the one its configuration gets alone.  The samplers and the reports are
    built on the calling thread, in order.  No count raises: a corrected
    estimate that noise pushes above 1 is clamped.
    """
    groups = _seed_groups(configs)
    draws = sum([n for _, n, *_ in groups])
    cpus = min(_MAX_WORKERS, _available_cpus()) if draws >= 2 * _MIN_SPAN else 1
    if cpus > 1:
        counted = _dealt_counts(groups, cpus, draws)
    else:
        counted = [_count_span(seed, runs, 0, n) for seed, n, _, runs in groups]
    counts = [None] * len(configs)
    for (_, _, indices, _), group_counts in zip(groups, counted):
        for index, passes in zip(indices, group_counts):
            counts[index] = passes
    return [_report(config, *passes) for config, passes in zip(configs, counts)]


def estimate(config: TrialConfig) -> EstimateReport:
    """The report of one configuration: ``estimate_all([config])[0]``."""
    return estimate_all([config])[0]
