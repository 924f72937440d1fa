"""Tests of the benchmark itself: determinism, exact counts, checks, tracing.

    python3 -m pytest perfbench/tests -q

They take about half a minute, most of it the two traced mc-long runs.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from io import StringIO
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from checks import Checker, binomial_consistent  # noqa: E402
from program import load_cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

cli = load_cli()
from faradaymeter import protocol  # noqa: E402
from faradaymeter.faraday import perturbed_phases  # noqa: E402
from faradaymeter.protocol import TwoPhotonState, run_analytic  # noqa: E402

COUNT_METRICS = ("faraday.interaction_table.calls_per_query", "estimator.draws_per_trial")


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def result(*args: str) -> dict:
    done = bench(*args)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def output_of(text: str) -> str:
    buffer = StringIO()
    cli.run(cli.parse_config(text), buffer)
    return buffer.getvalue()


def checker() -> Checker:
    return Checker(run_analytic, perturbed_phases, TwoPhotonState)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_documents_follow_the_seed(name):
    first = [q.text for q in WORKLOADS[name](7).round(3)]
    again = [q.text for q in WORKLOADS[name](7).round(3)]
    other = [q.text for q in WORKLOADS[name](8).round(3)]
    assert first == again
    assert first != other


def test_probe_follows_the_seed_and_differs_from_the_rounds():
    probe = [q.text for q in WORKLOADS["exact-scan"](7).probe()]
    assert probe == [q.text for q in WORKLOADS["exact-scan"](7).probe()]
    assert probe != [q.text for q in WORKLOADS["exact-scan"](8).probe()]
    states = {json.dumps(json.loads(text)["state"]) for text in probe}
    assert len(states) == WORKLOADS["exact-scan"].PROBE_STATES
    round0 = {json.dumps(json.loads(q.text).get("state")) for q in WORKLOADS["exact-scan"](7).round(0)}
    assert not states & round0
    assert all(WORKLOADS[name](7).probe() == [] for name in WORKLOADS if name != "exact-scan")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    runs = [result("--workload", name, "--seed", "11", "--seconds", "1", "--trace", "1") for _ in range(2)]
    for run in runs:
        assert run["correct"]
    counts = [
        {key: m["value"] for key, m in run["metrics"].items()
         if key.endswith(".calls_per_query") or key in COUNT_METRICS + ("imperfect.rejected_share",)}
        for run in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["qstate.calls_per_query"] > 0
    if name != "exact-scan":
        assert counts[0]["estimator.draws_per_trial"] == 8


def test_untraced_run_reports_every_end_to_end_metric():
    run = result("--workload", "exact-scan", "--seed", "3", "--seconds", "1", "--trace", "0")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(run["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert run["correct"] and run["attempted"] >= 256 and run["failed"] == 0
    assert all(m["value"] > 0 for m in run["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_checks_accept_true_outputs_and_flag_altered_ones():
    queries = WORKLOADS["exact-scan"](5).round(0)[:4] + WORKLOADS["sweep-dense"](5).round(0)[:1]
    good = checker()
    for query in queries:
        good.check(query, output_of(query.text))
    assert good.ok and good.checked == 5

    analytic, oracle, sweep = queries[0], queries[3], queries[4]
    altered = []
    record = json.loads(output_of(analytic.text))
    record["results"]["oracle_c"] += 1e-9
    altered.append((analytic, json.dumps(record)))
    record = json.loads(output_of(oracle.text))
    record["results"]["concurrence"] += 1e-6
    altered.append((oracle, json.dumps(record)))
    lines = output_of(sweep.text).splitlines()
    cells = lines[2].split(",")
    cells[3] = repr(float(cells[3]) + 0.05)
    lines[2] = ",".join(cells)
    altered.append((sweep, "\n".join(lines) + "\n"))
    for query, output in altered:
        bad = checker()
        bad.check(query, output)
        assert not bad.ok, query.kind


def test_binomial_check_limits():
    assert binomial_consistent(0, 1000, 0.0)
    assert not binomial_consistent(1, 1000, 0.0)
    assert binomial_consistent(5000, 10_000, 0.5)
    sigma = math.sqrt(0.25 / 10_000)
    assert binomial_consistent(round(10_000 * (0.5 + 7 * sigma)), 10_000, 0.5)
    assert not binomial_consistent(round(10_000 * (0.5 + 8 * sigma)), 10_000, 0.5)
    assert binomial_consistent(8, 20_000, 1e-4)


def test_tracer_self_times_add_up_and_uninstall_restores():
    original = protocol.prepare_joint
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        assert protocol.prepare_joint is not original
        for query in WORKLOADS["exact-scan"](2).round(0)[:8]:
            with tracer.span("bench.query"):
                output_of(query.text)
    finally:
        tracer.uninstall()
    assert protocol.prepare_joint is original
    cols = tracer.columns()
    roots = cols["parent"] < 0
    assert roots.sum() == 8
    assert (cols["self"] >= 0).all()
    assert cols["self"].sum() == cols["duration"][roots].sum()
    names = {tracer.names[i] for i in cols["name"]}
    assert {"cli.parse_config", "cli.run", "protocol.run_analytic", "qstate.project_qubit",
            "faraday.interaction_table", "imperfect.recover_concurrence",
            "oracle.concurrence_mixed"} <= names
