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

``estimate`` runs one configuration through ``_count_runs``, the
per-seed counter, as a run ``(q1, q2, n_trials)``; a sweep hands it the
runs of all its points at once, since they share the sweep's seed.  Each
run reads the first ``n_trials`` doubles of the seed's one stream, so the
counter fills the draws once, as many as its longest run reads: the 8
points of a sweep cost one seeding and one fill.  Each block of draws is
compared once per threshold pair among the runs that reach into it, as
far as the longest of them reaches, and each run of the pair counts the
passes up to its own end: the 8 points of a ``trials`` sweep share one
pair, so two compares per block.  A call that reads under
``2 * _MIN_SPAN`` draws, such as a sweep of 8 points of 20000 trials, or
one on a single CPU, is counted inline: one span on the calling thread,
starting no thread.  A call that splits runs on the calling thread and up
to ``_MAX_WORKERS - 1`` helper threads (numpy's PCG64DXSM fill and ufuncs
release the interpreter lock), one per ``_MIN_SPAN`` draws: below that,
waking one costs more than it saves.  The helpers belong to one pool per
process, started by the first call that splits and kept for the next; a
forked child starts its own.  The stream is cut into contiguous spans and
the workers take spans off one shared iterator until it is empty.  The
caller then cancels every helper that has not started, so a helper that
wakes late costs nothing.  A span is the stream advanced to draw ``lo``
and read on into a small buffer the worker reuses.
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
        _check(self.trials, self.stage1_successes, self.stage2_successes,
               self.c_hat, self.c_low, self.c_high)


def _check(trials: int, stage1: int, stage2: int, c_hat: float, c_low: float,
           c_high: float) -> None:
    """Reject counts out of order and an interval that does not bracket ``c_hat``."""
    if not 0 <= stage2 <= stage1 <= trials:
        raise ValueError(
            f"inconsistent counts: {stage2} stage-2, {stage1} stage-1, {trials} trials"
        )
    if not c_low <= c_hat <= c_high:
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
    reused buffer of ``_BUFFER_TRIALS`` trials, but no more than the span.
    The runs of one threshold pair are compared once per block, as far as
    the longest of them reaches, and count the hits segment by segment
    between their ends, in ascending order, each run the hits up to its own.
    """
    pairs: dict[tuple[float, float], list[tuple[int, int]]] = {}
    for index, (q1, q2, n) in enumerate(runs):
        pairs.setdefault((q1, q2), []).append((n, index))
    for ends in pairs.values():
        ends.sort()
    rows = min(hi - lo, _BUFFER_TRIALS)
    gen = _stream_at(master_seed, lo)
    draws = np.empty(rows)
    hits = np.empty(rows, dtype=np.bool_)
    counts = [[0, 0] for _ in runs]
    for start in range(lo, hi, _BUFFER_TRIALS):
        if hi - start < rows:  # the last block of a span longer than the buffer
            draws, hits = draws[:hi - start], hits[:hi - start]
        gen.random(out=draws)
        for (q1, q2), ends in pairs.items():
            reach = ends[-1][0] - start
            if reach <= 0:  # every run of the pair ends before this block
                continue
            block, mask = (draws, hits) if reach >= len(draws) else (draws[:reach], hits[:reach])
            if len(ends) == 1:  # a lone run counts each whole compare, unsliced
                tally = counts[ends[0][1]]
                np.less(block, q1, out=mask)
                tally[0] += np.count_nonzero(mask)
                np.less(block, q2, out=mask)
                tally[1] += np.count_nonzero(mask)
                continue
            for column, threshold in ((0, q1), (1, q2)):
                np.less(block, threshold, out=mask)
                passed = counted_to = 0
                for n, index in ends:
                    # a slice past the block's end stops at it
                    if n - start > counted_to:
                        passed += np.count_nonzero(mask[counted_to:n - start])
                        counted_to = n - start
                    counts[index][column] += passed
    return [(int(stage1), int(stage2)) for stage1, stage2 in counts]


def _helpers():
    """The process's pool of span helpers, started by the first call that splits."""
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


def _count_tasks(
    master_seed: int, runs: Sequence[tuple], spans: list[tuple[int, int]]
) -> list[list[tuple[int, int]]]:
    """The counts of ``runs`` in each span ``(lo, hi)`` of ``master_seed``'s stream, in any order.

    The calling thread and a helper per further span, sent to the process's
    pool, each take the next span off one shared iterator until it is
    empty.  The caller then cancels the helpers that have not started and
    waits only for the others, so it never waits for a helper that wakes
    late.  A span's error reaches the caller, from its own span or through
    a helper's future.
    """
    pending = iter(spans)
    taking = threading.Lock()
    counted = []

    def work() -> None:
        while True:
            with taking:
                span = next(pending, None)
            if span is None:
                return
            counted.append(_count_span(master_seed, runs, *span))

    helpers = [_helpers().submit(work) for _ in range(len(spans) - 1)]
    try:
        work()
    finally:
        for helper in helpers:
            if not helper.cancel():
                helper.result()
    return counted


def _dealt_counts(master_seed: int, runs: Sequence[tuple], draws: int,
                  cpus: int) -> list[tuple[int, int]]:
    """The counts of each run, the ``draws`` the runs read dealt out to ``cpus`` workers."""
    # one span per CPU and per _MIN_SPAN draws, at most
    parts = min(cpus, draws // _MIN_SPAN)
    bounds = [draws * k // parts for k in range(parts + 1)]
    counted = _count_tasks(master_seed, runs, list(zip(bounds, bounds[1:])))
    # for each run, its passes in every span, summed stage by stage
    return [tuple(map(sum, zip(*passes))) for passes in zip(*counted)]


def _count_runs(
    master_seed: int, runs: Sequence[tuple[float, float, int]]
) -> list[tuple[int, int]]:
    """Stage-1 and stage-2 passes of each run ``(q1, q2, n_trials)`` of ``master_seed``.

    Trial ``i`` of every run reads the ``i``-th double of the seed's one
    stream, so the runs read, together, as many draws as the longest of
    them.  Under 2 ``_MIN_SPAN`` draws (a sweep of 8 points of 20000
    trials), or on one CPU, they are counted as one span on the calling
    thread, and a call that short asks for no CPU count.  A longer call is
    cut into contiguous spans of the stream, dealt out to the calling
    thread and the helpers of the process's pool: as many workers as the
    CPUs the process may run on, at most ``_MAX_WORKERS``, and no more than
    whole ``_MIN_SPAN`` blocks of draws.  Each trial's draw sits at a fixed
    stream offset, so any buffer size, split and schedule give identical
    counts, and each run's counts are the ones it gets alone.
    """
    draws = max([n for *_, n in runs], default=0)
    cpus = min(_MAX_WORKERS, _available_cpus()) if draws >= 2 * _MIN_SPAN else 1
    if cpus > 1:
        return _dealt_counts(master_seed, runs, draws, cpus)
    return _count_span(master_seed, runs, 0, draws)


def _summary(trials: int, stage1: int, stage2: int, eta_a: float) -> tuple:
    """The ``EstimateReport`` fields of a run's counts, in order, checked as a report checks them.

    ``eta_a`` is the run's detection efficiency, which ``corrected_c_hat``
    divides out.
    """
    p_total_hat = stage2 / trials
    low, high = wilson_interval(stage2, trials)
    # the fields in order: counts, p1_hat, p2_hat, p_total_hat, c_hat, the
    # interval's ends and corrected_c_hat
    fields = (
        trials, stage1, stage2, stage1 / trials, stage2 / stage1 if stage1 > 0 else 0.0,
        p_total_hat, 2.0 * math.sqrt(p_total_hat), 2.0 * math.sqrt(low), 2.0 * math.sqrt(high),
        min(1.0, 2.0 * math.sqrt(p_total_hat / eta_a**3)),
    )
    _check(trials, stage1, stage2, *fields[6:9])
    return fields


def estimate(config: TrialConfig) -> EstimateReport:
    """Run every trial of one configuration and summarize its counts.

    No count raises: a corrected estimate that noise pushes above 1 is
    clamped.
    """
    eta_a = config.imperfections.eta_a
    q1, q2 = TrialSampler(config.state, config.phases).thresholds(eta_a)
    (passes,) = _count_runs(config.master_seed, [(q1, q2, config.n_trials)])
    return EstimateReport(*_summary(config.n_trials, *passes, eta_a))
