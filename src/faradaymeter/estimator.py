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
the configuration: trials can be replayed individually, batched or split
across workers without changing a single outcome.

``estimate_all`` runs a batch of configurations, such as the points of a
sweep, on the calling thread and up to ``_MAX_WORKERS - 1`` helper threads
(numpy's PCG64DXSM fill and ufuncs release the interpreter lock);
``estimate`` is a batch of one.  The helpers belong to one pool per
process, started by the first batch that splits and kept for the next; a
forked child starts its own.  Each run is cut into contiguous trial spans,
a long run into more spans than a short one, and the workers take spans
off one shared list until it is empty.  The caller never waits for a
helper that has not started, so a helper that wakes late costs nothing.
A span is the stream advanced to draw ``lo`` and read on into a small
buffer the worker reuses; per buffer, one compare against ``q1`` and one
against ``q2`` give its two counts.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .faraday import FaradayPhases, perturbed_phases
from .imperfect import ImperfectionParams, recover_concurrence
from .protocol import TwoPhotonState, stage_probabilities

_MAX_SEED = 2**64
# The generator and draw layout a run's counts depend on; simulate records carry it.
RNG_ID = "pcg64dxsm/1-double-per-trial"
# The normal quantile of a two-sided 95% interval, the repr of
# statistics.NormalDist().inv_cdf(0.975), written out so no run imports
# statistics (and with it fractions and decimal) for one constant.
_WILSON_Z = 1.9599639845400536

# Trials per reused draw buffer (256 KiB of draws), the fewest trials worth
# a thread of their own, and the most threads one call starts.
_BUFFER_TRIALS = 1 << 15
_MIN_SPAN = 1 << 13
_MAX_WORKERS = 4
# The helpers that count spans beside the calling thread; see _helpers.
_pool = None
_pool_lock = threading.Lock()


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
        # type(), not isinstance(): a bool is an int and would pass as 0 or 1
        if type(self.n_trials) is not int or self.n_trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.n_trials!r}")
        if type(self.master_seed) is not int or not 0 <= self.master_seed < _MAX_SEED:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.master_seed!r}")
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
    then costs one uniform draw and two comparisons.
    """

    def __init__(self, state: TwoPhotonState, phases: FaradayPhases) -> None:
        self.p_plus1, self.p_plus2, self.p_plus3 = stage_probabilities(state, phases)

    def thresholds(self, eta_a: float) -> tuple[float, float]:
        """``(q1, q2)``: the chances that a trial passes stage 1 and stage 2."""
        q1 = self.p_plus1 * eta_a * self.p_plus2 * eta_a
        return q1, q1 * self.p_plus3 * eta_a

    def sample(self, rng, eta_a: float) -> TrialOutcome:
        """Play one trial on the next uniform draw of ``rng``."""
        q1, q2 = self.thresholds(eta_a)
        u = rng.random()
        return TrialOutcome(u < q1, u < q2)


def _stream_at(master_seed: int, draw: int) -> np.random.Generator:
    """``PCG64DXSM(master_seed)`` advanced to its ``draw``-th double."""
    # one 64-bit output per double, so advancing by draw outputs skips draw doubles
    bits = np.random.PCG64DXSM(master_seed)
    bits.advance(draw)
    return np.random.Generator(bits)


def trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """The generator whose next draw is trial ``trial_index``'s uniform.

    That is the ``trial_index``-th double of ``PCG64DXSM(master_seed)``,
    reached by jumping ahead rather than by drawing the doubles before it.
    """
    # type(), not isinstance(): a bool would pass as 0 or 1, and a float
    # such as 2.5 names no draw
    if type(master_seed) is not int or not 0 <= master_seed < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {master_seed!r}")
    if type(trial_index) is not int or trial_index < 0:
        raise ValueError(f"trial_index must be a non-negative integer, got {trial_index!r}")
    return _stream_at(master_seed, trial_index)


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
    master_seed: int, thresholds: tuple[float, float], lo: int, hi: int
) -> tuple[int, int]:
    """Stage-1 and stage-2 passes among trials ``lo <= i < hi``.

    ``thresholds`` is the run's ``(q1, q2)``.  The reused draw buffer holds
    ``_BUFFER_TRIALS`` trials, but no more than the span.
    """
    q1, q2 = thresholds
    rows = min(hi - lo, _BUFFER_TRIALS)
    gen = _stream_at(master_seed, lo)
    draws = np.empty(rows)
    hits = np.empty(rows, dtype=np.bool_)
    stage1 = 0
    stage2 = 0
    for start in range(lo, hi, rows):
        count = min(rows, hi - start)
        block, hit = draws[:count], hits[:count]
        gen.random(out=block)
        np.less(block, q1, out=hit)
        stage1 += int(np.count_nonzero(hit))
        np.less(block, q2, out=hit)
        stage2 += int(np.count_nonzero(hit))
    return stage1, stage2


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


def _count_tasks(tasks: list[tuple], workers: int) -> list[tuple[int, tuple[int, int]]]:
    """``(run index, (stage-1, stage-2 passes))`` of every span task.

    A task is ``(run index, seed, (q1, q2), lo, hi)``.  The calling thread
    and ``workers - 1`` helpers sent to the process's pool each take the
    next task off the one shared list until it is empty.  Once it is, the
    caller waits only for the spans already taken: a helper that starts
    later finds nothing left and is never waited for.  If a span raises,
    no worker takes another and the caller raises the first error.
    """
    pending = iter(tasks)
    counted = []
    errors = []
    in_flight = 0
    done = threading.Condition()

    # work never raises, so no helper's future needs reading: a span's error
    # is kept in errors, stops the other workers and is raised by the caller
    def work() -> None:
        nonlocal in_flight
        while True:
            with done:
                task = None if errors else next(pending, None)
                if task is None:
                    return
                in_flight += 1
            index, seed, thresholds, lo, hi = task
            try:
                counted.append((index, _count_span(seed, thresholds, lo, hi)))
            except BaseException as exc:
                errors.append(exc)
            finally:
                with done:
                    in_flight -= 1
                    if not in_flight:
                        done.notify_all()

    if workers > 1:
        pool = _helpers()
        for _ in range(workers - 1):
            pool.submit(work)
    work()
    with done:
        done.wait_for(lambda: not in_flight)
    if errors:
        raise errors[0]
    return counted


def _report(config: TrialConfig, stage1: int, stage2: int) -> EstimateReport:
    """Point estimates and the confidence interval of one run's counts."""
    n = config.n_trials
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


def estimate_all(configs: Sequence[TrialConfig]) -> list[EstimateReport]:
    """Run every trial of each configuration and summarize each one's counts.

    The runs are cut into contiguous trial spans, a run long relative to
    the batch into several, and all spans of all runs are dealt out to the
    calling thread and the helpers of the process's pool, as many workers
    as the CPUs the process may run on, at most ``_MAX_WORKERS``, and no
    more than there are spans or whole ``_MIN_SPAN`` blocks in the batch,
    so a batch of tiny runs, like a run under 2 ``_MIN_SPAN``, stays on the
    calling thread.  Each trial's draw sits at a fixed stream offset, so any
    buffer size, split and schedule produce the identical reports.  The samplers and the reports are built
    on the calling thread, in order.  Statistically awkward data does not raise:
    the corrected estimate is computed with clamping so a noisy run still
    yields a usable report.
    """
    cpus = min(_MAX_WORKERS, _available_cpus())
    total = sum(config.n_trials for config in configs)
    tasks = []
    for index, config in enumerate(configs):
        sampler = TrialSampler(config.state, config.phases)
        thresholds = sampler.thresholds(config.imperfections.eta_a)
        n = config.n_trials
        # spans in proportion to the run's share of the batch, at most one
        # per CPU and per _MIN_SPAN trials, so a batch of one run splits as
        # far as its length allows and a run under 2 _MIN_SPAN never splits
        parts = max(1, min(cpus, n // _MIN_SPAN, round(cpus * n / total)))
        bounds = [n * k // parts for k in range(parts + 1)]
        seed = config.master_seed
        tasks += [(index, seed, thresholds, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    counts = [[0, 0] for _ in configs]
    workers = min(cpus, len(tasks), total // _MIN_SPAN)
    for index, (stage1, stage2) in _count_tasks(tasks, workers):
        counts[index][0] += stage1
        counts[index][1] += stage2
    return [_report(config, *passes) for config, passes in zip(configs, counts)]


def estimate(config: TrialConfig) -> EstimateReport:
    """The report of one configuration: ``estimate_all([config])[0]``."""
    return estimate_all([config])[0]
