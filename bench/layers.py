"""Per-layer timings of faradaymeter, written as columns of a BENCH file.

    python3 bench/layers.py --column change --out BENCH_<n>.json
    python3 bench/layers.py --column change --against parent=CHECKOUT --out BENCH_<n>.json

The first form measures the ``src/`` tree of the checkout this script sits
in; the second also measures the ``src/`` tree of CHECKOUT.  Each tree
gets ``PASSES`` passes of about 15 s, every pass in a process of its own,
and two trees take turns, so a slow spell of a shared host falls on both
columns alike; each column holds the median of its passes.  The named
columns of ``--out`` are replaced and the other columns are kept.  The
inputs are fixed (Haar states from ``numpy.random.default_rng(7)``), so
two columns time the same work.
Within a pass each per-call figure is the fastest of many rounds spread
over the whole pass; the Monte Carlo and ``simulate`` figures are medians
of whole calls that take turns, and the exact query figures medians of
single queries.  Every pass also times ``control_us``, a kernel of no
program code; where two columns read it differently, the host ran their
passes at different speeds, and their other figures may differ for that
reason alone.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from functools import partial
from inspect import signature
from io import StringIO
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
# The tree a pass measures, set for each pass's process.
SRC_ENV = "LAYERS_SRC"
SRC = Path(os.environ.get(SRC_ENV, ROOT / "src")).resolve()
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from faradaymeter import cli  # noqa: E402
from faradaymeter import estimator  # noqa: E402
from faradaymeter.estimator import TrialConfig, TrialSampler, estimate  # noqa: E402
from faradaymeter.faraday import perturbed_phases  # noqa: E402
from faradaymeter.imperfect import ImperfectionParams  # noqa: E402
from faradaymeter.oracle import concurrence_mixed  # noqa: E402
from faradaymeter.protocol import TwoPhotonState, run_analytic  # noqa: E402

STATES = 64
ROUNDS = 400
# A sweep-dense query takes about 2 ms, so its passes run the first few documents.
SWEEP_QUERIES = 8
ESTIMATE_TRIALS = 10_000_000
# The fastest of 7 calls of 2e6 trials (about 10 ms each) read 15.7 and 24.7
# Mtrials/s for one tree; the median of 15 whole 1e7-trial calls holds steadier.
ESTIMATE_REPEATS = 15
SIMULATE_TRIALS = {"1e6": 1_000_000, "1e7": 10_000_000}
# The fastest of 5 queries moved 1.7x with no estimator change; the median
# of 15 alternating queries holds steadier.
SIMULATE_REPEATS = 15
# Rounds over the documents of the exact query figures, the two modes taking turns.
QUERY_ROUNDS = 100
# Passes per tree of a comparison; a pass takes about 15 s.
PASSES = 5

# Runs of 2 * estimator._MIN_SPAN trials or more split over two threads.
SPLIT_CAVEAT = ("a two-thread figure, which has skewed by whole passes between two columns "
                "whose control_us agreed, so a change to the split path needs perfbench "
                "pairs, not this figure")

FIGURES = {
    "record_write_us.analytic": "cli._record on an analytic record (eta 0.9, sigma 0), us per record",
    "record_write_us.oracle": "cli._record on a mixed-state oracle record, us per record",
    "record_write_us.simulate": f"cli._record on the results of a parsed simulate document "
                                f"({SIMULATE_TRIALS['1e6']} trials, eta 0.9, sigma 0.05), "
                                "us per record",
    "parse_config_us.analytic": "cli.parse_config on an analytic document, us per call",
    "parse_config_us.oracle": "cli.parse_config on a density-matrix oracle document, us per call",
    "parse_config_us.sweep": "cli.parse_config on a sweep-dense document (8 points of 20000 "
                             "trials, the four axes in turn), us per call",
    "sweep_query_us": "cli.parse_config plus cli.run of a sweep document (8 points of 1 trial, "
                      "the four axes in turn), us per query",
    "sweep_dense_query_us": "cli.parse_config plus cli.run of a sweep-dense document (8 points "
                            "of 20000 trials, the four axes in turn), us per query",
    **{
        f"exact_query_us.{mode}": f"cli.parse_config plus cli.run into a new StringIO of an "
                                  f"{mode} document, timed one query at a time as perfbench "
                                  f"times it, median us of {QUERY_ROUNDS} rounds"
        for mode in ("analytic", "oracle")
    },
    **{
        f"exact_run_us.{mode}": f"cli._run_{mode} on a parsed {mode} document, us per call; "
                                f"with parse_config_us.{mode} and record_write_us.{mode} it "
                                f"splits an exact query into parse, run and record"
        for mode in ("analytic", "oracle")
    },
    "control_us": "a kernel of no program code: json.loads of an oracle document, the reprs of "
                  "its 32 floats and one numpy.linalg.eigh of its matrix, us per call; the "
                  "columns of two trees should read alike, and where they do not, the host "
                  "ran their passes at different speeds",
    "run_analytic_us": "protocol.run_analytic(state, perturbed_phases(0.0)), us per call",
    "concurrence_mixed_us": "oracle.concurrence_mixed on an oracle document's density matrix, "
                            "us per call",
    "sampler_setup_us": "estimator.TrialSampler(state, perturbed_phases(0.05)), us per build",
    "stream_seed_us": f"estimator._stream_at(seed, 0) over {STATES} 64-bit seeds, us per call: "
                      "the seeding each span of the per-seed counter pays before its "
                      "draws, once per sweep, whose points share the sweep's seed",
    "estimate_mtrials_per_s": f"estimator.estimate on {ESTIMATE_TRIALS} trials "
                              "at eta 0.9, sigma 0.05, median Mtrials/s; " + SPLIT_CAVEAT,
    "count_span_fill_share": f"share of one-thread estimator._count_span time, on one run of "
                             f"{ESTIMATE_TRIALS} trials, that filling the same draws from "
                             "estimator._stream_at into a reused buffer takes; the rest "
                             "is the two compares and counts, medians",
    "count_span_mtrials_per_s": f"estimator._count_span on one run of {ESTIMATE_TRIALS} "
                                "trials on the calling thread, median Mtrials/s",
    **{
        f"simulate_query_ms.{label}": f"cli.parse_config plus cli.run of a simulate document "
                                      f"({trials} trials, eta 0.9, sigma 0.05), median ms of "
                                      f"{SIMULATE_REPEATS} queries taking turns with the other "
                                      "size; " + SPLIT_CAVEAT
        for label, trials in SIMULATE_TRIALS.items()
    },
}


def haar_states(count: int) -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    states = []
    for _ in range(count):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(amps / np.linalg.norm(amps))
    return states


# The sweep of each axis as perfbench's sweep-dense workload runs it.
SWEEPS = {
    "sigma": {"axis": "sigma", "start": 0.0, "stop": 0.25, "steps": 8},
    "eta_a": {"axis": "eta_a", "start": 0.6, "stop": 1.0, "steps": 8},
    "theta": {"axis": "theta", "start": 0.0, "stop": math.pi / 2.0, "steps": 8},
    "trials": {"axis": "trials", "start": 1.0e4, "stop": 3.0e4, "steps": 8},
}


def state_section(amps: np.ndarray) -> dict:
    keys = ("alpha", "beta", "gamma", "delta")
    return {key: [float(a.real), float(a.imag)] for key, a in zip(keys, amps)}


def documents(states: list[np.ndarray]) -> dict[str, list[str]]:
    """One analytic, one oracle, one simulate and two sweep documents per state.

    The ``sweep_query`` documents run the sweeps at 1 trial per point, so
    running one times what every point costs before its trials.
    """
    analytic, oracle, simulate, sweep, sweep_query = [], [], [], [], []
    for index, amps in enumerate(states):
        state = state_section(amps)
        analytic.append(json.dumps({"mode": "analytic", "state": state, "eta_a": 0.9}))
        simulate.append(json.dumps({"mode": "simulate", "state": state, "seed": index,
                                    "trials": SIMULATE_TRIALS["1e6"], "eta_a": 0.9,
                                    "sigma": 0.05}))
        rho = 0.7 * np.outer(amps, amps.conj()) + 0.075 * np.eye(4)
        matrix = [[[float(e.real), float(e.imag)] for e in row] for row in rho]
        oracle.append(json.dumps({"mode": "oracle", "density_matrix": matrix}))
        axis = list(SWEEPS)[index % len(SWEEPS)]
        document = {"mode": "sweep", "trials": 20_000, "seed": index, "sigma": 0.05,
                    "eta_a": 0.9, "sweep": SWEEPS[axis]}
        if axis != "theta":  # a theta sweep builds every point's state itself
            document["state"] = state
        sweep.append(json.dumps(document))
        single = {**SWEEPS[axis], "start": 1.0, "stop": 1.0} if axis == "trials" else SWEEPS[axis]
        sweep_query.append(json.dumps({**document, "trials": 1, "sweep": single}))
    return {"analytic": analytic, "oracle": oracle, "simulate": simulate, "sweep": sweep,
            "sweep_query": sweep_query}


def control(text: str, matrix: np.ndarray) -> None:
    """Work of the kinds an exact query spends most on, without the program."""
    data = json.loads(text)
    list(map(float.__repr__, (part for row in data["density_matrix"] for pair in row
                              for part in pair)))
    np.linalg.eigh(matrix)


def query(text: str) -> None:
    cli.run(cli.parse_config(text), StringIO())


def exact_query_figures(docs: dict[str, list[str]]) -> dict[str, float]:
    """Median us of one analytic and one oracle query, each timed as perfbench times one.

    The clock runs from the document text to the finished output, which
    goes into a new ``StringIO``.  The modes take turns, one pass over
    their documents each per round.
    """
    latencies = {mode: [] for mode in ("analytic", "oracle")}
    for _ in range(QUERY_ROUNDS):
        for mode, times in latencies.items():
            for text in docs[mode]:
                start = time.perf_counter_ns()
                query(text)
                times.append(time.perf_counter_ns() - start)
    return {f"exact_query_us.{mode}": median(times) / 1e3 for mode, times in latencies.items()}


def fastest_us(tasks: dict, rounds: int = ROUNDS) -> dict[str, float]:
    """Fastest pass of each task, as the mean us per ``call(*item)`` over its inputs.

    The tasks take turns, one pass each per round, so every figure samples
    the whole run.  Other tenants of a shared host only ever add time, so
    the fastest pass is the steadiest estimate of the work itself.
    """
    best = dict.fromkeys(tasks, float("inf"))
    for _ in range(rounds):
        for name, (call, inputs) in tasks.items():
            start = time.perf_counter_ns()
            for item in inputs:
                call(*item)
            best[name] = min(best[name], (time.perf_counter_ns() - start) / len(inputs) / 1e3)
    return best


def timed_rounds(calls: dict, repeats: int) -> dict[str, list[float]]:
    """Seconds of each call in each of ``repeats`` rounds.

    The calls take turns, one each per round, so a slow spell of the host
    slows each of them alike.
    """
    seconds = {name: [] for name in calls}
    for _ in range(repeats):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            seconds[name].append(time.perf_counter() - start)
    return seconds


def estimate_figures(amps: np.ndarray) -> dict[str, float]:
    """Throughput of ``estimate`` and the fill share of one-thread ``_count_span``.

    The three calls take turns; each figure is a median over
    ``ESTIMATE_REPEATS`` rounds.
    """
    config = TrialConfig(
        n_trials=ESTIMATE_TRIALS,
        master_seed=1,
        state=TwoPhotonState(*amps.tolist()),
        phases=perturbed_phases(0.05),
        imperfections=ImperfectionParams(eta_a=0.9, sigma=0.05),
    )
    thresholds = TrialSampler(config.state, config.phases).thresholds(
        config.imperfections.eta_a
    )
    n = ESTIMATE_TRIALS
    # _count_span takes the runs of one seed, here one run; before sweep
    # points shared their sweep's seed it took the (q1, q2) of one run
    runs = [(*thresholds, n)]
    if "runs" not in signature(estimator._count_span).parameters:
        runs = thresholds
    rows = min(n, estimator._BUFFER_TRIALS)
    buffer = np.empty(rows)

    def fill() -> None:
        # the draws _count_span reads, into one reused buffer, with no compare
        gen = estimator._stream_at(config.master_seed, 0)
        for start in range(0, n, rows):
            gen.random(out=buffer[:min(rows, n - start)])

    calls = {
        "estimate": lambda: estimate(config),
        "count_span": lambda: estimator._count_span(config.master_seed, runs, 0, n),
        "fill": fill,
    }
    seconds = timed_rounds(calls, ESTIMATE_REPEATS)
    fill_shares = [f / c for f, c in zip(seconds["fill"], seconds["count_span"])]
    return {
        "estimate_mtrials_per_s": n / median(seconds["estimate"]) / 1e6,
        "count_span_mtrials_per_s": n / median(seconds["count_span"]) / 1e6,
        "count_span_fill_share": median(fill_shares),
    }


def measure() -> dict:
    states = haar_states(STATES)
    docs = documents(states)
    tasks = {}
    for mode, run_mode in (("analytic", cli._run_analytic), ("oracle", cli._run_oracle)):
        configs = [cli.parse_config(text) for text in docs[mode]]
        tasks[f"record_write_us.{mode}"] = (
            cli._record, [(config, run_mode(config)) for config in configs]
        )
        tasks[f"parse_config_us.{mode}"] = (cli.parse_config, [(text,) for text in docs[mode]])
        tasks[f"exact_run_us.{mode}"] = (run_mode, [(config,) for config in configs])
    simulated = [cli.parse_config(text) for text in docs["simulate"]]
    tasks["record_write_us.simulate"] = (
        cli._record, [(config, cli._run_simulate(config)) for config in simulated]
    )
    matrices = [(cli.parse_config(text).density_matrix,) for text in docs["oracle"]]
    tasks["concurrence_mixed_us"] = (concurrence_mixed, matrices)
    text = docs["oracle"][0]
    matrix = np.array(json.loads(text)["density_matrix"]).view(complex).reshape(4, 4)
    tasks["control_us"] = (control, [(text, matrix)])
    tasks["parse_config_us.sweep"] = (cli.parse_config, [(text,) for text in docs["sweep"]])
    for name, kind in (("sweep_query_us", "sweep_query"), ("sweep_dense_query_us", "sweep")):
        tasks[name] = (query, [(text,) for text in docs[kind][:SWEEP_QUERIES]])
    two_photon = [(TwoPhotonState(*amps.tolist()),) for amps in states]
    tasks["run_analytic_us"] = (
        lambda state: run_analytic(state, perturbed_phases(0.0)), two_photon
    )
    tasks["sampler_setup_us"] = (
        lambda state: TrialSampler(state, perturbed_phases(0.05)), two_photon
    )
    seeds = np.random.default_rng(7).integers(0, 2**64, size=STATES, dtype=np.uint64)
    tasks["stream_seed_us"] = (estimator._stream_at, [(int(seed), 0) for seed in seeds])
    figures = fastest_us(tasks)
    figures.update(exact_query_figures(docs))
    figures.update(estimate_figures(states[0]))
    simulate = {
        f"simulate_query_ms.{label}": partial(query, json.dumps({
            "mode": "simulate", "state": state_section(states[0]), "trials": trials, "seed": 1,
            "eta_a": 0.9, "sigma": 0.05,
        }))
        for label, trials in SIMULATE_TRIALS.items()
    }
    for name, seconds in timed_rounds(simulate, SIMULATE_REPEATS).items():
        figures[name] = median(seconds) * 1e3
    return {key: round(value, 3) for key, value in figures.items()}


def git(checkout: Path, *args: str) -> str:
    try:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True,
                              check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def column_of(checkout: Path, figures: dict) -> dict:
    return {
        "figures": figures,
        "passes": PASSES,
        "git_sha": git(checkout, "rev-parse", "HEAD"),
        "src_modified": git(checkout, "status", "--porcelain", "--", "src") not in ("", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def pass_of(checkout: Path) -> dict[str, float]:
    """The figures of one pass over the ``src/`` tree of ``checkout``, in a new process."""
    env = {**os.environ, SRC_ENV: str(checkout / "src")}
    done = subprocess.run([sys.executable, __file__, "--one-pass"], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def compared(checkouts: dict[str, Path]) -> dict[str, dict]:
    """Columns of ``checkouts`` from ``PASSES`` passes each, the trees taking turns.

    The first tree of a round alternates, so with two trees neither column
    always runs right after the other.
    """
    runs = {name: [] for name in checkouts}
    for index in range(PASSES):
        order = list(checkouts) if index % 2 == 0 else list(checkouts)[::-1]
        for name in order:
            runs[name].append(pass_of(checkouts[name]))
            print(f"pass {index + 1}/{PASSES} {name} done", file=sys.stderr)
    return {
        name: column_of(checkouts[name], {
            key: round(median(figures[key] for figures in runs[name]), 3)
            for key in runs[name][0]
        })
        for name in checkouts
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--column", help="name of the column of this checkout")
    parser.add_argument("--against", metavar="NAME=CHECKOUT",
                        help="also measure CHECKOUT's src/ into column NAME, the passes "
                             "of the two trees taking turns")
    parser.add_argument("--out", default="BENCH.json", help="file to update")
    # the pass of one tree, run in a process of its own
    parser.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one_pass:
        print(json.dumps(measure()))
        return
    if args.column is None:
        parser.error("--column is required")
    checkouts = {args.column: ROOT}
    if args.against is not None:
        name, _, checkout = args.against.partition("=")
        if not name or not checkout or name == args.column:
            parser.error("--against takes NAME=CHECKOUT, NAME another column than --column")
        checkouts[name] = Path(checkout).resolve()
    columns = compared(checkouts)
    path = Path(args.out)
    table = json.loads(path.read_text()) if path.exists() else {}
    table["figures"] = FIGURES
    table.setdefault("columns", {}).update(columns)
    path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(json.dumps({name: column["figures"] for name, column in columns.items()}, indent=2))


if __name__ == "__main__":
    main()
