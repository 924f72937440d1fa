"""Output checks for every query the benchmark times.

Each check compares a program output against a value the benchmark derives
on its own from the query it generated:

* analytic records: ``oracle_c`` equals the closed form 2|ad - bc| of the
  document's amplitudes, and at sigma = 0 ``c_estimate`` equals it too, as
  does ``c_corrected`` (dividing out the detection efficiency is exact);
* oracle records on rho = p|psi><psi| + (1 - p) I/4: the concurrence equals
  max(0, p C_psi - (1 - p)/2);
* simulate records and sweep rows: the success count is consistent with
  eta^3 * run_analytic(state, perturbed_phases(sigma)).p_total.

The Monte Carlo check uses the Chernoff bound
P(|k/n - p| as large as observed) <= exp(-n KL(k/n || p)) and fails when
that bound drops below 1e-12.  In the normal regime this is a 7.4-sigma
limit; a plain 5-sigma limit would fail about once per 2e6 honest rows and,
for the near-separable rows where counts are a handful, far more often.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from workloads import Query

EXACT_TOL = 1e-12
ORACLE_TOL = 1e-10
# The mixed-state oracle sets eigenvalues of rho rho~ below 1e-12 of the
# largest to zero.  For nearly pure inputs (1 - p below a few 1e-6) the
# genuine small eigenvalues, of order ((1 - p)/4)^2, fall under that floor
# and the returned concurrence is off by O(1 - p).  Such records are
# checked against 10 (1 - p) instead and counted separately.
NEAR_PURE = 1e-4
CHERNOFF_LIMIT = math.log(1e12)

SWEEP_COLUMNS = [
    "axis_value", "p1", "p2", "p_total", "c_est", "c_corrected", "oracle_c", "ci_low", "ci_high",
]


def closed_form_concurrence(amps) -> float:
    alpha, beta, gamma, delta = (complex(a) for a in amps)
    nrm = math.sqrt(sum(abs(a) ** 2 for a in (alpha, beta, gamma, delta)))
    return min(1.0, 2.0 * abs(alpha * delta - beta * gamma) / nrm**2)


def binomial_consistent(successes: int, trials: int, p: float) -> bool:
    """True unless ``successes`` in ``trials`` is a < 1e-12 Chernoff outlier for ``p``."""
    if p <= 0.0:
        return successes == 0
    if p >= 1.0:
        return successes == trials
    rate = successes / trials
    kl = 0.0
    if rate > 0.0:
        kl += rate * math.log(rate / p)
    if rate < 1.0:
        kl += (1.0 - rate) * math.log((1.0 - rate) / (1.0 - p))
    return trials * kl <= CHERNOFF_LIMIT


class Checker:
    """Checks outputs and accumulates accuracy figures across a run.

    ``run_analytic``, ``perturbed_phases`` and ``TwoPhotonState`` are the
    program's own exact path, which the Monte Carlo expectation is built
    from; they are passed in because this module is imported before the
    checkout's ``src/`` is on the path.
    """

    def __init__(self, run_analytic, perturbed_phases, two_photon_state) -> None:
        self._run_analytic = run_analytic
        self._perturbed_phases = perturbed_phases
        self._state = two_photon_state
        self.checked = 0
        self.problems: list[str] = []
        self.near_pure_deviations = 0
        self.corrected = 0
        self.corrected_abs_error = 0.0
        self.corrected_worse = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def _fail(self, message: str) -> None:
        self.problems.append(message)

    def _corrected(self, sigma: float, raw: float, corrected: float, oracle: float) -> None:
        if sigma > 0.0:
            self.corrected += 1
            self.corrected_abs_error += abs(corrected - oracle)
            self.corrected_worse += abs(corrected - oracle) > abs(raw - oracle)

    def _expected_ptotal(self, state, sigma: float, eta: float) -> float:
        outcome = self._run_analytic(state, self._perturbed_phases(sigma))
        return eta**3 * outcome.p_total

    def check(self, query: Query, output: str) -> None:
        """Check one successful query's output; failures are recorded, not raised."""
        self.checked += 1
        try:
            getattr(self, "_check_" + query.kind)(query, output)
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            self._fail(f"{query.kind}: unreadable output ({type(exc).__name__}: {exc})")

    def _results(self, query: Query, output: str) -> dict:
        record = json.loads(output)
        if record["schema"] != "faradaymeter-record/1" or record["mode"] != query.kind:
            self._fail(f"{query.kind}: record header {record['schema']!r}/{record['mode']!r}")
        return record["results"]

    def _check_analytic(self, query: Query, output: str) -> None:
        results = self._results(query, output)
        expected = closed_form_concurrence(query.amps)
        if abs(results["oracle_c"] - expected) > EXACT_TOL:
            self._fail(f"analytic: oracle_c {results['oracle_c']!r} != closed form {expected!r}")
        if query.sigma == 0.0 and abs(results["c_estimate"] - results["oracle_c"]) > EXACT_TOL:
            self._fail(
                f"analytic: c_estimate {results['c_estimate']!r} != oracle_c {results['oracle_c']!r} at sigma 0"
            )
        if query.sigma == 0.0 and abs(results["c_corrected"] - results["oracle_c"]) > EXACT_TOL:
            self._fail(
                f"analytic: c_corrected {results['c_corrected']!r} != oracle_c {results['oracle_c']!r} "
                f"at sigma 0, eta_a {query.eta_a!r}"
            )
        self._corrected(query.sigma, results["c_estimate"], results["c_corrected"], expected)

    def _check_oracle(self, query: Query, output: str) -> None:
        results = self._results(query, output)
        p = query.mixing
        expected = max(0.0, p * closed_form_concurrence(query.amps) - (1.0 - p) / 2.0)
        error = abs(results["concurrence"] - expected)
        if results["input_kind"] != "mixed":
            self._fail(f"oracle: input_kind {results['input_kind']!r}")
        if 1.0 - p < NEAR_PURE and error > ORACLE_TOL:
            self.near_pure_deviations += 1
            if error > 10.0 * (1.0 - p):
                self._fail(f"oracle: concurrence {results['concurrence']!r} != {expected!r} (p = {p!r})")
        elif error > ORACLE_TOL:
            self._fail(f"oracle: concurrence {results['concurrence']!r} != {expected!r} (p = {p!r})")

    def _check_counts(self, kind, successes, trials, state, sigma, eta) -> None:
        expected = self._expected_ptotal(state, sigma, eta)
        if not binomial_consistent(successes, trials, expected):
            self._fail(f"{kind}: {successes} successes in {trials} trials, expected p = {expected!r}")

    def _check_simulate(self, query: Query, output: str) -> None:
        results = self._results(query, output)
        trials = results["trials"]
        successes = results["stage2_successes"]
        if trials != query.trials or results["p_total_hat"] != successes / trials:
            self._fail(f"simulate: trials {trials!r} / p_total_hat {results['p_total_hat']!r} inconsistent")
        state = self._state.normalized(*query.amps)
        self._check_counts("simulate", successes, trials, state, query.sigma, query.eta_a)
        oracle = closed_form_concurrence(query.amps)
        if abs(results["oracle_c"] - oracle) > EXACT_TOL:
            self._fail(f"simulate: oracle_c {results['oracle_c']!r} != closed form {oracle!r}")
        self._corrected(query.sigma, results["c_hat"], results["corrected_c_hat"], oracle)

    def _check_sweep(self, query: Query, output: str) -> None:
        spec = json.loads(query.text)["sweep"]
        axis_values = np.linspace(spec["start"], spec["stop"], spec["steps"])
        rows = list(csv.reader(io.StringIO(output)))
        if rows[0] != SWEEP_COLUMNS or len(rows) != query.steps + 1:
            self._fail(f"sweep: header {rows[0]!r} with {len(rows) - 1} rows")
            return
        for index, (text_row, value) in enumerate(zip(rows[1:], axis_values)):
            row = dict(zip(SWEEP_COLUMNS, map(float, text_row)))
            value = float(value)
            if row["axis_value"] != value:
                self._fail(f"sweep: row {index} axis value {row['axis_value']!r} != {value!r}")
            sigma, eta, trials = query.sigma, query.eta_a, query.trials
            if query.axis == "sigma":
                sigma = value
            elif query.axis == "eta_a":
                eta = value
            elif query.axis == "trials":
                trials = max(1, int(round(value)))
            if query.axis == "theta":
                amps = (math.cos(value), 0.0, 0.0, math.sin(value))
                state = self._state(*amps)
            else:
                amps = query.amps
                state = self._state.normalized(*amps)
            successes = round(row["p_total"] * trials)
            if successes / trials != row["p_total"]:
                self._fail(f"sweep: row {index} p_total {row['p_total']!r} is not a count over {trials}")
            self._check_counts(f"sweep row {index}", successes, trials, state, sigma, eta)
            oracle = closed_form_concurrence(amps)
            if abs(row["oracle_c"] - oracle) > EXACT_TOL:
                self._fail(f"sweep: row {index} oracle_c {row['oracle_c']!r} != closed form {oracle!r}")
            self._corrected(sigma, row["c_est"], row["c_corrected"], oracle)
