"""faradaymeter benchmark: one client, closed loop, one process, no threads.

    python3 perfbench/run.py --workload exact-scan --seed 1 --seconds 30 --trace 0

The benchmark drives the CLI through its in-process entry points,
``cli.parse_config`` on a generated JSON config document and ``cli.run``
into a ``StringIO``, the way an embedding caller uses it.  Every output it
times is checked outside the timed region.  It prints a readable report and,
as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` runs the workload untraced for ``--seconds`` and reports the
``end_to_end`` metrics of BENCHMARK.json.  ``--trace 1`` runs half the time
untraced and half with every package module traced, and reports the
``per_layer`` metrics.  Workloads are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import numpy as np

from checks import Checker
from program import ROOT, MissingProgram, prepare
from tracer import MODULES, RNG_SPAN, Tracer
from workloads import WORKLOADS

SETUP_PROBES = 5
# On the shared host this benchmark was tuned on, other tenants change the
# speed of the same work by up to a factor of two, for seconds to minutes at
# a time.  A run is therefore cut into windows of at least WINDOW_NS of query
# time, and a fixed reference kernel is timed between windows.  The
# normalized figures rescale each window's query times to a machine on which
# the kernel takes NOMINAL_REFERENCE_NS, using the mean of the kernel times
# just before and just after the window; on that host this cut the spread
# of 30 s throughput figures about threefold.  Raw figures are printed too.
WINDOW_NS = 500_000_000
NOMINAL_REFERENCE_NS = 4_000_000
REFERENCE_LOOP = 20_000
REFERENCE_DRAWS = (32_768, 8)
NOMINAL_SPAWN_S = 0.17
PROBE_TIMEOUT_S = 120
SPANS_DIR = ROOT / ".perfbench"


def reference_ns(repeats: int = 3) -> int:
    """Time of the reference kernel: the best of ``repeats`` for each half.

    The kernel does the two kinds of work the program spends its time on,
    interpreted Python (a float loop) and numpy Philox draws.  It calls no
    program code, so a change to the program cannot move it.
    """
    loop = draws = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        total = 0.0
        for i in range(REFERENCE_LOOP):
            total += i * 0.5
        middle = time.perf_counter_ns()
        np.random.Generator(np.random.Philox(key=1)).random(REFERENCE_DRAWS)
        end = time.perf_counter_ns()
        loop = middle - start if loop is None else min(loop, middle - start)
        draws = end - middle if draws is None else min(draws, end - middle)
    return loop + draws


@dataclass
class Window:
    latencies_ns: list[int] = field(default_factory=list)
    work: int = 0
    busy_ns: int = 0
    reference_ns: float = 0.0

    @property
    def scale(self) -> float:
        """Factor from this window's times to times on the nominal machine."""
        return NOMINAL_REFERENCE_NS / self.reference_ns

    def rate(self, per_query: bool = True, normalized: bool = True) -> float:
        busy = self.busy_ns * (self.scale if normalized else 1.0)
        return (len(self.latencies_ns) if per_query else self.work) * 1e9 / busy


@dataclass
class Phase:
    """Timings and outcomes of one closed-loop phase."""

    windows: list[Window] = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    wall_ns: int = 0
    first_output: tuple | None = None
    first_round_counts: tuple | None = None

    @property
    def attempted(self) -> int:
        return sum(len(window.latencies_ns) for window in self.windows)

    def rate(self, per_query: bool = True, normalized: bool = True) -> float:
        """Median over windows of queries (or work units) per second of query time."""
        return statistics.median(w.rate(per_query, normalized) for w in self.windows)

    def window_p50_ms(self) -> float:
        """Median over windows of each window's normalized median latency.

        Like the rate, a median over windows, so that the few windows a
        neighbour slows more than the reference kernel shows do not move it.
        """
        return statistics.median(
            statistics.median(w.latencies_ns) * w.scale for w in self.windows) / 1e6

    def latency_ms(self, percentile: float, normalized: bool = True) -> float:
        latencies = [
            latency * (window.scale if normalized else 1.0)
            for window in self.windows
            for latency in window.latencies_ns
        ]
        return float(np.percentile(latencies, percentile)) / 1e6


def _execute(cli, text: str, tracer: Tracer | None, errors: tuple):
    start = time.perf_counter_ns()
    try:
        with tracer.span("bench.query") if tracer else nullcontext():
            config = cli.parse_config(text)
            buffer = StringIO()
            cli.run(config, buffer)
        result = (buffer.getvalue(), None)
    except errors as exc:
        result = (None, type(exc).__name__)
    return result, time.perf_counter_ns() - start


def run_phase(cli, workload, round0, checker: Checker, seconds: float, errors: tuple,
              tracer: Tracer | None = None) -> Phase:
    """Closed loop over whole rounds until ``seconds`` have passed.

    A query raising one of ``errors`` counts as failed; anything else is a
    defect of the benchmark or the program and ends the run.
    """
    phase = Phase()
    window = Window()
    before = reference_ns()
    start = time.perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    round_index = 0
    while True:
        with tracer.span("bench.round") if tracer else nullcontext():
            queries = round0 if round_index == 0 else workload.round(round_index)
            for query in queries:
                (output, error), latency = _execute(cli, query.text, tracer, errors)
                if phase.first_output is None:
                    phase.first_output = (output, error)
                window.latencies_ns.append(latency)
                window.work += query.work
                window.busy_ns += latency
                if window.busy_ns >= WINDOW_NS:
                    after = reference_ns()
                    window.reference_ns = (before + after) / 2
                    before = after
                    phase.windows.append(window)
                    window = Window()
                if error is not None:
                    phase.failures[error] += 1
                    continue
                with tracer.paused() if tracer else nullcontext():
                    checker.check(query, output)
        if tracer is not None and round_index == 0:
            phase.first_round_counts = (list(tracer.calls), tracer.draws, tracer.trials, len(queries))
        round_index += 1
        if time.perf_counter_ns() >= deadline:
            break
    if window.latencies_ns:
        window.reference_ns = (before + reference_ns()) / 2
        phase.windows.append(window)
    phase.wall_ns = time.perf_counter_ns() - start
    return phase


@dataclass
class Probe:
    """Outcomes of a workload's untimed probe, by (sigma, eta_a)."""

    attempted: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)

    @property
    def rejected_share(self) -> float:
        return _ratio(sum(self.failures.values()), sum(self.attempted.values()))


def run_probe(cli, workload, checker: Checker, errors: tuple) -> Probe:
    """Run the probe queries once, untimed; they are not operations of the run."""
    probe = Probe()
    for query in workload.probe():
        point = (query.sigma, query.eta_a)
        probe.attempted[point] += 1
        (output, error), _ = _execute(cli, query.text, None, errors)
        if error is not None:
            probe.failures[point + (error,)] += 1
        else:
            checker.check(query, output)
    return probe


def _spawn_ready_s(command: list[str]) -> float:
    """Seconds from spawning ``command`` until it prints its ready time."""
    spawned = time.monotonic_ns()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return (int(done.stdout.strip().splitlines()[-1]) - spawned) / 1e9


def measure_setup(workload_name: str, seed: int) -> list[tuple[float, float]]:
    """Seconds from spawning a fresh interpreter until its first query is ready.

    Each probe comes paired with the time of a reference spawn, a fresh
    interpreter that only imports numpy; ``setup_s`` rescales the probe to a
    host on which that reference takes NOMINAL_SPAWN_S, because the speed of
    starting processes and importing drifts on the shared host independently
    of compute speed.  One discarded warm-up pair, then ``SETUP_PROBES``
    measured ones, as (probe, reference) pairs.
    """
    probe = [sys.executable, str(Path(__file__).with_name("probe.py")),
             "--workload", workload_name, "--seed", str(seed)]
    reference = [sys.executable, "-c", "import time, numpy; print(time.monotonic_ns())"]
    samples = []
    for attempt in range(SETUP_PROBES + 1):
        reference_s = _spawn_ready_s(reference)
        probe_s = _spawn_ready_s(probe)
        if attempt:
            samples.append((probe_s, reference_s))
    return samples


def end_to_end_metrics(phase: Phase, setup: list[tuple[float, float]]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(p * NOMINAL_SPAWN_S / r for p, r in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "norm_queries_per_s": phase.rate(),
        "norm_query_p50_ms": phase.window_p50_ms(),
    }


def _ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0 for a layer the workload never entered."""
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer: Tracer, traced: Phase, untraced: Phase, checker: Checker,
                      probe: Probe) -> dict[str, float]:
    """Per-layer figures from the traced phase's spans, the run's checks and the probe.

    Times come from every span of the traced phase; call counts from its
    first round only, so that they repeat exactly for a seed.
    """
    cols = tracer.columns()
    ids = {name: index for index, name in enumerate(tracer.names)}
    duration = np.bincount(cols["name"], weights=cols["duration"], minlength=len(ids))
    self_ns = np.bincount(cols["name"], weights=cols["self"], minlength=len(ids))
    calls = tracer.calls
    first_calls, first_draws, first_trials, first_queries = traced.first_round_counts

    def us_per_call(name: str, table) -> float:
        return _ratio(float(table[ids[name]]), calls[ids[name]]) / 1e3

    module_self, module_calls = Counter(), Counter()
    for name, index in ids.items():
        module = name.split(".")[0]
        module_self[module] += float(self_ns[index])
        if name != RNG_SPAN:
            module_calls[module] += first_calls[index]

    # Sampling time is estimate's self time plus the draws it makes.
    rng = cols["name"] == ids[RNG_SPAN]
    under_estimate = cols["name"][cols["parent"][rng]] == ids["estimator.estimate"]
    rng_ns = float(cols["duration"][rng][under_estimate].sum())
    sampling_ns = float(self_ns[ids["estimator.estimate"]]) + rng_ns
    wall = traced.wall_ns

    metrics = {
        "cli.parse_config.us_per_call": us_per_call("cli.parse_config", duration),
        "cli.run.self_us_per_call": us_per_call("cli.run", self_ns),
        "protocol.run_analytic.us_per_call": us_per_call("protocol.run_analytic", duration),
        "faraday.interaction_table.calls_per_query":
            first_calls[ids["faraday.interaction_table"]] / first_queries,
        "estimator.sampler_setup_us": us_per_call("estimator.TrialSampler", duration),
        "estimator.sampling_mtrials_per_s": _ratio(tracer.trials, sampling_ns / 1e9) / 1e6,
        "estimator.rng_share": _ratio(rng_ns, sampling_ns),
        "estimator.draws_per_trial": _ratio(first_draws, first_trials),
        "oracle.concurrence_pure.us_per_call": us_per_call("oracle.concurrence_pure", duration),
        "oracle.concurrence_mixed.us_per_call": us_per_call("oracle.concurrence_mixed", duration),
        "imperfect.recover_concurrence.us_per_call":
            us_per_call("imperfect.recover_concurrence", duration),
        "imperfect.rejected_share": probe.rejected_share,
        "imperfect.corrected_worse_share": _ratio(checker.corrected_worse, checker.corrected),
        "imperfect.c_corrected_mae": _ratio(checker.corrected_abs_error, checker.corrected),
    }
    for module in MODULES:
        metrics[f"{module}.self_share"] = module_self[module] / wall
        metrics[f"{module}.calls_per_query"] = module_calls[module] / first_queries
    metrics["bench.self_share"] = module_self["bench"] / wall
    metrics["trace.accounted_share"] = sum(module_self.values()) / wall
    metrics["trace.throughput_ratio"] = traced.rate() / untraced.rate()
    return metrics


def _declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    declared = _declared(trace)

    cli, workload, round0 = prepare(args.workload, args.seed)
    setup = [] if trace else measure_setup(args.workload, args.seed)
    from faradaymeter.errors import FaradaymeterError
    from faradaymeter.faraday import perturbed_phases
    from faradaymeter.protocol import TwoPhotonState, run_analytic

    errors = (FaradaymeterError, ValueError)
    checker = Checker(run_analytic, perturbed_phases, TwoPhotonState)
    budget = args.seconds / 2 if trace else args.seconds
    phases = [run_phase(cli, workload, round0, checker, budget, errors)]
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        tracer.active = True
        try:
            phases.append(run_phase(cli, workload, round0, checker, budget, errors, tracer))
        finally:
            tracer.uninstall()
    probe = run_probe(cli, workload, checker, errors)
    if trace:
        metrics = per_layer_metrics(tracer, phases[1], phases[0], checker, probe)
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.save(SPANS_DIR / f"spans-{workload.name}.npz")
    else:
        metrics = end_to_end_metrics(phases[0], setup)
    if set(metrics) != set(declared):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(declared))} disagree with BENCHMARK.json")

    replay, _ = _execute(cli, round0[0].text, None, errors)
    deterministic = replay == phases[0].first_output
    failures = sum((phase.failures for phase in phases), Counter())
    _report(args, workload, phases, checker, metrics, setup, deterministic, tracer, probe)
    print(json.dumps({
        "correct": checker.ok and deterministic,
        "attempted": sum(phase.attempted for phase in phases),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


def _report(args, workload, phases, checker, metrics, setup, deterministic, tracer, probe) -> None:
    """The readable lines above the JSON, with the workload's own figure names."""
    untraced = phases[0]
    print(f"faradaymeter benchmark: workload {workload.name}, seed {args.seed}, "
          f"{'traced' if tracer else 'untraced'}, {args.seconds:g} s, one client, closed loop")
    p = workload.prefix
    n = len(untraced.windows)
    count = f"{untraced.attempted} queries"
    references = sorted(w.reference_ns for w in untraced.windows)
    lines = [
        (p + "queries_per_s", untraced.rate(normalized=False), "1/s", f"raw, median of {n} windows"),
        (p + "query_p50_ms", untraced.latency_ms(50, normalized=False), "ms", "raw, " + count),
        (p + "query_p90_ms", untraced.latency_ms(90, normalized=False), "ms", "raw, " + count),
        (p + "query_p99_ms", untraced.latency_ms(99, normalized=False), "ms", "raw, " + count),
    ]
    if workload.headline:
        name, unit, scale = workload.headline
        lines.append((name, untraced.rate(per_query=False, normalized=False) * scale, unit,
                      f"raw, {workload.work_unit} per second of query time, median of {n} windows"))
    lines += [
        ("norm_" + p + "queries_per_s", untraced.rate(), "1/s", "normalized, median of windows"),
        ("norm_" + p + "query_p50_ms", untraced.window_p50_ms(), "ms", "normalized, median of windows"),
        ("norm_" + p + "query_p90_ms", untraced.latency_ms(90), "ms", "normalized"),
        ("reference_kernel_ms", statistics.median(references) / 1e6, "ms",
         f"median of {n}, range {references[0] / 1e6:.3f}-{references[-1] / 1e6:.3f}, "
         f"nominal {NOMINAL_REFERENCE_NS / 1e6:g}"),
    ]
    if checker.corrected:
        lines.append((p + "c_corrected_mae", checker.corrected_abs_error / checker.corrected, "C",
                      f"mean |corrected - oracle| over {checker.corrected} sigma > 0 records"))
        lines.append((p + "corrected_worse_share", checker.corrected_worse / checker.corrected, "share",
                      "corrected farther from the oracle than uncorrected"))
    if setup:
        lines.append(("setup_raw_s", statistics.median(p for p, _ in setup), "s",
                      "probes " + ", ".join(f"{p:.3f}" for p, _ in setup)))
        lines.append(("setup_reference_s", statistics.median(r for _, r in setup), "s",
                      "numpy-only spawns " + ", ".join(f"{r:.3f}" for _, r in setup)))
        lines.append(("setup_s", metrics["setup_s"], "s",
                      f"normalized to a {NOMINAL_SPAWN_S:g} s reference spawn"))
        lines.append(("peak_rss_mb", metrics["peak_rss_mb"], "MB", "measuring process"))
    for label, value, unit, note in lines:
        print(f"  {label:<28} {value:14.6g} {unit:<10} {note}")
    for index, phase in enumerate(phases):
        failed = ", ".join(f"{k} {v}" for k, v in sorted(phase.failures.items())) or "none"
        print(f"  {'traced' if index else 'untraced'} phase: {phase.attempted} attempted, "
              f"failed: {failed}, wall {phase.wall_ns / 1e9:.2f} s")
    for (sigma, eta), attempted in sorted(probe.attempted.items()):
        rejected = ", ".join(f"{error} {count}" for (s, e, error), count
                             in sorted(probe.failures.items()) if (s, e) == (sigma, eta))
        print(f"  probe (untimed, not counted as operations): analytic at sigma {sigma:g}, "
              f"eta_a {eta:g}: {attempted} attempted, rejected: {rejected or 'none'}")
    print(f"  checks: {checker.checked} outputs checked, {len(checker.problems)} problems, "
          f"{checker.near_pure_deviations} near-pure oracle deviations, "
          f"replay {'identical' if deterministic else 'DIFFERS'}")
    for problem in checker.problems[:10]:
        print(f"    problem: {problem}")
    if tracer:
        print(f"  spans: {len(tracer.span_name)} kept, written to "
              f"{SPANS_DIR.name}/spans-{workload.name}.npz")
        for label, value in metrics.items():
            print(f"  {label:<44} {value:14.6g}")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
