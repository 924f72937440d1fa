"""Tests for config parsing, dispatch, records and exit codes."""

import csv
import io
import json
import logging
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from faradaymeter.cli import (
    _EXIT_CODES,
    RunConfig,
    _record_tree,
    _run_analytic,
    _run_oracle,
    SWEEP_COLUMNS,
    SweepSpec,
    main,
    parse_config,
    run,
)
from faradaymeter.errors import ConfigError
from faradaymeter.estimator import TrialConfig, estimate
from faradaymeter.faraday import perturbed_phases, rb87_params
from faradaymeter.imperfect import ImperfectionParams
from faradaymeter.oracle import concurrence_pure
from faradaymeter.protocol import TwoPhotonState

SQ2 = 1.0 / math.sqrt(2.0)

BELL_STATE = {"alpha": [SQ2, 0.0], "beta": [0.0, 0.0], "gamma": [0.0, 0.0], "delta": [SQ2, 0.0]}
BELL_FLAGS = ["--state", str(SQ2), "0", "0", "0", "0", "0", str(SQ2), "0"]

CAVITY_FLAGS = ["--omega-c", "5", "--omega-p", "4.5", "--omega-0", "5",
                "--kappa", "1", "--gamma", "0", "--coupling", "0.5"]
# one flag setting each input that some mode does not read
INPUT_FLAGS = {"state": BELL_FLAGS, "sigma": ["--sigma", "0.3"], "eta_a": ["--eta", "0.5"],
               "trials": ["--trials", "7"], "seed": ["--seed", "3"]}
GOLDEN = Path(__file__).parent / "data"

# a Haar-random state: eight normals from numpy.random.default_rng(2014), normalized
HAAR_FLAGS = ["--state", "-0.3100799017604816", "0.6027928573769098", "0.07666273963675066",
              "-0.16086369782067797", "0.39250207416849453", "-0.553933073245642",
              "0.21053297512168437", "-0.05927106561313009"]

IDEAL_CAVITY = {
    "omega_c": 5.0,
    "omega_p": 4.5,
    "omega_0": 5.0,
    "kappa": 1.0,
    "gamma": 0.0,
    "coupling": 0.5,
}


def werner_like(p: float) -> list:
    """p |psi><psi| + (1 - p) I/4 for the Haar state, as [re, im] pairs."""
    values = [float(v) for v in HAAR_FLAGS[1:]]
    psi = [complex(re, im) for re, im in zip(values[::2], values[1::2])]
    return [
        [[(p * a * b.conjugate() + (1.0 - p) / 4.0 * (i == j)).real,
          (p * a * b.conjugate()).imag] for j, b in enumerate(psi)]
        for i, a in enumerate(psi)
    ]


def quarter_identity(**entries) -> list:
    """I/4 as rows of numbers, with the entries at ``entries`` ("r1c2": value) replaced."""
    rows = [[0.25 * (row == col) for col in range(4)] for row in range(4)]
    for key, value in entries.items():
        rows[int(key[1])][int(key[3])] = value
    return rows


DENSITY_SHAPE = "density_matrix must be a 4x4 array of [re, im] pairs: "
DENSITY_ENTRY = DENSITY_SHAPE + "density_matrix entry must be a number or an [re, im] pair"
# Every error a density_matrix section can give, parsed or run, and its exact text.
DENSITY_ERRORS = {
    "wrong-type": (5, DENSITY_SHAPE + "the section is not a list"),
    "bool": (True, DENSITY_SHAPE + "the section is not a list"),
    "null": (None, DENSITY_SHAPE + "the section is not a list"),
    "flat": ([0.25] * 16, DENSITY_SHAPE + "row 0 is not a list"),
    "number-row": ([[0.25, 0, 0, 0], 0.25, [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
                   DENSITY_SHAPE + "row 1 is not a list"),
    "string": ("abcd", DENSITY_ENTRY),
    "mapping": ({"r0": [1, 0, 0, 0]}, DENSITY_ENTRY),
    "three-element-entry": (quarter_identity(r0c0=[0.25, 0, 0]), DENSITY_ENTRY),
    "bool-entry": (quarter_identity(r1c1=True), DENSITY_ENTRY),
    "string-entry": (quarter_identity(r2c2="0.25"), DENSITY_ENTRY),
    "null-entry": (quarter_identity(r3c3=None), DENSITY_ENTRY),
    "bad-entry-before-ragged-row": ([[None, 0], [0]], DENSITY_ENTRY),
    "ragged": ([[1, 0], [0]], DENSITY_SHAPE + "row 1 has 1 entries, not 2"),
    "ragged-4x4": ([[0.25, 0, 0, 0], [0, 0.25, 0], [0, 0, 0.25, 0], [0, 0, 0, 0.25]],
                   DENSITY_SHAPE + "row 1 has 3 entries, not 4"),
    "3x3": ([[1 / 3 * (row == col) for col in range(3)] for row in range(3)],
            "density_matrix must be 4x4, got shape (3, 3)"),
    "2x8": ([[0.0] * 8] * 2, "density_matrix must be 4x4, got shape (2, 8)"),
    "empty": ([], "density_matrix must be 4x4, got shape (0,)"),
    "empty-rows": ([[], [], [], []], "density_matrix must be 4x4, got shape (4, 0)"),
    "too-large-int": (quarter_identity(r0c1=10**400),
                      DENSITY_SHAPE + "density_matrix entry is too large for a float"),
    "too-large-pair": (quarter_identity(r0c1=[0, 10**400]),
                       DENSITY_SHAPE + "density_matrix entry is too large for a float"),
    "nan": (quarter_identity(r0c0=math.nan),
            "density_matrix: density matrix entries must be finite"),
    "infinity": (quarter_identity(r2c1=[0, -math.inf]),
                 "density_matrix: density matrix entries must be finite"),
    "non-hermitian": (quarter_identity(r0c1=0.1),
                      "density_matrix: density matrix is not Hermitian to within 1e-10"),
    "complex-diagonal": (quarter_identity(r3c3=[0.25, 1e-3]),
                         "density_matrix: density matrix is not Hermitian to within 1e-10"),
    "bad-trace": ([[0.5 * (row == col) for col in range(4)] for row in range(4)],
                  "density_matrix: density matrix trace is (2+0j), expected 1"),
    "complex-trace": (quarter_identity(**{f"r{k}c{k}": [0.25, 4e-11] for k in range(4)}),
                      "density_matrix: density matrix trace is (1+1.6e-10j), expected 1"),
    "negative-eigenvalue": ([[0.6, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, -0.1, 0], [0, 0, 0, 0]],
                            "density_matrix: density matrix has a negative eigenvalue beyond "
                            "tolerance"),
}


# One record per mode, plus an imperfect analytic run and the mixed-state
# oracle: the argv, and the config document it reads, if any.
RECORD_CASES = {
    "analytic_readme": (["analytic", "--state", "0", "0", str(SQ2), "0", str(-SQ2), "0", "0", "0"],
                        None),
    "analytic_haar": (["analytic", *HAAR_FLAGS, "--eta", "0.9", "--sigma", "0.05"], None),
    "simulate": (["simulate", *HAAR_FLAGS, "--trials", "100000", "--eta", "0.8",
                  "--sigma", "0.1", "--seed", "9"], None),
    "oracle_pure": (["oracle", "--state", "0.8", "0", "0", "0", "0", "0", "0.6", "0"], None),
    "oracle_mixed": (["oracle"], {"density_matrix": werner_like(0.7)}),
    "phases_rb87": (["phases", *[item for key, value in vars(rb87_params()).items()
                                 for item in (f"--{key.replace('_', '-')}", repr(value))]],
                    None),
}

# the inputs the mode of each record case reads; an oracle reads one of two
RECORD_INPUTS = {
    "analytic_readme": {"state", "eta_a", "sigma"},
    "analytic_haar": {"state", "eta_a", "sigma"},
    "simulate": {"state", "trials", "seed", "eta_a", "sigma"},
    "oracle_pure": {"state"},
    "oracle_mixed": {"density_matrix"},
    "phases_rb87": {"cavity"},
}


def record_argv(name: str, directory: Path) -> list:
    """The command line of record case ``name``, its document written to ``directory``."""
    argv, document = RECORD_CASES[name]
    if document is None:
        return argv
    path = directory / f"{name}.json"
    path.write_text(json.dumps(document))
    return [*argv, "--config", str(path)]


def capture(config: RunConfig) -> str:
    buffer = io.StringIO()
    assert run(config, buffer) == 0
    return buffer.getvalue()


def record_results(config: RunConfig) -> dict:
    return json.loads(capture(config))["results"]


class TestParseConfig:
    def test_minimal_analytic(self):
        config = parse_config(json.dumps({"mode": "analytic", "state": BELL_STATE}))
        assert config.mode == "analytic"
        assert config.trials == 100_000
        assert config.seed == 0
        assert config.eta_a == 1.0
        assert config.sigma == 0.0
        assert config.state.alpha == pytest.approx(SQ2)

    def test_scalar_amplitudes_accepted(self):
        config = parse_config(
            json.dumps({"mode": "analytic", "state": {"alpha": SQ2, "beta": 0, "gamma": 0, "delta": SQ2}})
        )
        assert config.state.delta == pytest.approx(SQ2)

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="tirals"):
            parse_config(json.dumps({"mode": "analytic", "state": BELL_STATE, "tirals": 5}))

    def test_unknown_state_key_is_named(self):
        bad = dict(BELL_STATE, epsilon=[0.0, 0.0])
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(json.dumps({"mode": "analytic", "state": bad}))

    def test_missing_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(json.dumps({"state": BELL_STATE}))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")

    def test_norm_rejection_reports_norm(self):
        bad = {"alpha": [1.0, 0.0], "beta": [1.0, 0.0], "gamma": [0.0, 0.0], "delta": [0.0, 0.0]}
        with pytest.raises(ConfigError, match="1.41"):
            parse_config(json.dumps({"mode": "analytic", "state": bad}))

    def test_mild_denormalization_is_fixed_with_notice(self, caplog):
        slightly_off = {
            "alpha": [0.7071, 0.0],
            "beta": [0.0, 0.0],
            "gamma": [0.0, 0.0],
            "delta": [0.7071, 0.0],
        }
        with caplog.at_level("WARNING", logger="faradaymeter"):
            config = parse_config(json.dumps({"mode": "analytic", "state": slightly_off}))
        assert "renormalized" in caplog.text
        norm = math.sqrt(sum(abs(a) ** 2 for a in config.state.amplitudes()))
        assert norm == pytest.approx(1.0, abs=1e-12)

    def test_schema_id_checked(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_config(json.dumps({"schema": "other/9", "mode": "analytic", "state": BELL_STATE}))

    def test_sweep_steps_bound(self):
        doc = {
            "mode": "sweep",
            "state": BELL_STATE,
            "sweep": {"axis": "sigma", "start": 0.0, "stop": 0.1, "steps": 1},
        }
        with pytest.raises(ConfigError, match="steps"):
            parse_config(json.dumps(doc))

    def test_oracle_requires_exactly_one_input(self):
        with pytest.raises(ConfigError, match="oracle"):
            parse_config(json.dumps({"mode": "oracle"}))

    def test_phases_requires_cavity(self):
        with pytest.raises(ConfigError, match="cavity"):
            parse_config(json.dumps({"mode": "phases"}))

    def test_bad_sigma_rejected(self):
        doc = {"mode": "analytic", "state": BELL_STATE, "sigma": 1.6}
        with pytest.raises(ConfigError, match="sigma"):
            parse_config(json.dumps(doc))

    def test_wrong_type_rejected(self):
        doc = {"mode": "simulate", "state": BELL_STATE, "trials": "many"}
        with pytest.raises(ConfigError, match="trials"):
            parse_config(json.dumps(doc))


class TestRecords:
    def test_analytic_bell_record(self):
        config = parse_config(json.dumps({"mode": "analytic", "state": BELL_STATE}))
        payload = capture(config)
        record = json.loads(payload)
        assert record["schema"] == "faradaymeter-record/1"
        results = record["results"]
        assert results["p_total"] == pytest.approx(0.25, abs=1e-9)
        assert results["c_estimate"] == pytest.approx(1.0, abs=1e-9)
        assert results["oracle_c"] == pytest.approx(1.0, abs=1e-12)

    # a record echoes exactly the inputs its mode reads, defaults included,
    # so its inputs replay as a config
    @pytest.mark.parametrize("name", sorted(RECORD_CASES))
    def test_record_inputs_allow_replay(self, name, tmp_path, capsys):
        assert main(record_argv(name, tmp_path)) == 0
        payload = capsys.readouterr().out
        inputs = json.loads(payload)["inputs"]
        assert set(inputs) == {"mode", *RECORD_INPUTS[name]}
        path = tmp_path / "replay.json"
        path.write_text(json.dumps(inputs))
        assert main(["--config", str(path)]) == 0
        assert capsys.readouterr().out == payload

    # a simulate record's counts depend on the generator and its draw
    # layout, so the record names them; no other record carries the entry
    @pytest.mark.parametrize("name", sorted(RECORD_CASES))
    def test_only_simulate_records_name_the_generator(self, name, tmp_path, capsys):
        assert main(record_argv(name, tmp_path)) == 0
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        expected = {"tool": "faradaymeter", "version": metadata["version"]}
        if name == "simulate":
            expected["rng"] = "pcg64dxsm/1-double-per-trial"
        assert metadata == expected

    def test_simulate_record_fields(self):
        doc = {"mode": "simulate", "state": BELL_STATE, "trials": 2000, "seed": 4}
        results = record_results(parse_config(json.dumps(doc)))
        for key in (
            "trials",
            "stage1_successes",
            "stage2_successes",
            "p1_hat",
            "p2_hat",
            "p_total_hat",
            "c_hat",
            "c_low",
            "c_high",
            "corrected_c_hat",
            "oracle_c",
        ):
            assert key in results
        assert results["trials"] == 2000

    def test_oracle_pure_record(self):
        doc = {"mode": "oracle", "state": {"alpha": 0.8, "beta": 0, "gamma": 0, "delta": 0.6}}
        results = record_results(parse_config(json.dumps(doc)))
        assert results["input_kind"] == "pure"
        assert results["concurrence"] == pytest.approx(0.96)
        assert results["concurrence_general"] == pytest.approx(0.96, abs=1e-12)

    def test_oracle_mixed_record(self):
        bell = [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]
        matrix = [[[entry, 0.0] for entry in row] for row in bell]
        doc = {"mode": "oracle", "density_matrix": matrix}
        results = record_results(parse_config(json.dumps(doc)))
        assert results["input_kind"] == "mixed"
        assert results["concurrence"] == pytest.approx(1.0, abs=1e-8)

    def test_invalid_density_matrix_is_config_error(self):
        matrix = [[[1.0, 0.0]] * 4] * 4
        doc = {"mode": "oracle", "density_matrix": matrix}
        config = parse_config(json.dumps(doc))
        with pytest.raises(ConfigError):
            run(config, io.StringIO())

    def test_ragged_density_matrix_is_config_error(self):
        with pytest.raises(ConfigError, match="density_matrix must be a 4x4 array"):
            parse_config('{"mode":"oracle","density_matrix":[[1,0],[0]]}')

    @pytest.mark.parametrize("matrix, text", DENSITY_ERRORS.values(), ids=DENSITY_ERRORS)
    def test_density_matrix_error_texts(self, matrix, text):
        with pytest.raises(ConfigError) as caught:
            run(parse_config(json.dumps({"mode": "oracle", "density_matrix": matrix})),
                io.StringIO())
        assert str(caught.value) == text

    def test_phases_record(self):
        doc = {"mode": "phases", "cavity": IDEAL_CAVITY}
        results = record_results(parse_config(json.dumps(doc)))
        assert results["phi"] == pytest.approx(math.pi, abs=1e-9)
        assert results["phi0"] == pytest.approx(math.pi / 2, abs=1e-9)
        assert results["rotation_angle"] == pytest.approx(math.pi / 2, abs=1e-9)

    # each golden is the json.dumps(indent=2, sort_keys=True) form of its
    # record: the record writer must reproduce it byte for byte
    @pytest.mark.parametrize("name", sorted(RECORD_CASES))
    def test_record_matches_golden_output(self, name, tmp_path, capsys):
        assert main(record_argv(name, tmp_path)) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / f"record_{name}.json").read_bytes()

    def test_analytic_with_imperfections(self):
        doc = {"mode": "analytic", "state": BELL_STATE, "eta_a": 0.66, "sigma": 0.02}
        results = record_results(parse_config(json.dumps(doc)))
        assert results["p_total_observed"] == pytest.approx(
            0.66**3 * results["p_total"], abs=1e-12
        )
        assert results["c_corrected"] == pytest.approx(1.0, abs=5e-3)

    # c_corrected divides out eta only: it is 2 sqrt(p_total) clamped to at
    # most 1, and the clamp can only move it toward the oracle
    @pytest.mark.parametrize("eta", [1.0, 0.9])
    @pytest.mark.parametrize("sigma", [0.05, 0.2, 0.5])
    def test_corrected_is_never_further_from_the_oracle(self, sigma, eta):
        for amps in np.random.default_rng(2014).normal(size=(500, 8)):
            amps /= np.linalg.norm(amps)
            state = dict(zip(("alpha", "beta", "gamma", "delta"), zip(amps[::2], amps[1::2])))
            doc = {"mode": "analytic", "state": state, "eta_a": eta, "sigma": sigma}
            results = record_results(parse_config(json.dumps(doc)))
            oracle = results["oracle_c"]
            assert abs(results["c_corrected"] - oracle) <= abs(results["c_estimate"] - oracle)


def layout_states() -> list:
    """Amplitude 4-vectors on which the analytic record layout is checked.

    About 2000 Haar states, then the states whose p2 and p_total are 0.0
    or tiny: products, states near |LR> and products nudged off separability.
    """
    rng = np.random.default_rng(24)
    haar = rng.normal(size=(2000, 4)) + 1j * rng.normal(size=(2000, 4))
    states = list(haar / np.linalg.norm(haar, axis=1, keepdims=True))
    states.extend(np.eye(4, dtype=complex))
    for first, second, phase in rng.uniform(0.0, 2.0 * math.pi, size=(24, 3)):
        product = np.kron([math.cos(first), math.sin(first)],
                          [math.cos(second), math.sin(second) * np.exp(1j * phase)])
        states.append(product)
        for eps in (1e-4, 1e-9, 1e-150):
            nudged = product + eps * (rng.normal(size=4) + 1j * rng.normal(size=4))
            states.append(nudged / np.linalg.norm(nudged))
    for eps in (1e-3, 1e-8, 1e-12, 1e-100):
        near_lr = np.array([eps, eps * 1j, 1.0, -eps])
        states.append(near_lr / np.linalg.norm(near_lr))
    return states


# the analytic record layout is checked at each (eta_a, sigma) pair in turn
LAYOUT_ETAS = (1.0, 0.9, 0.8, 1e-100)
LAYOUT_SIGMAS = (0.0, 0.05, -0.7, 1.5)


def state_section(amps) -> dict:
    return {key: [float(a.real), float(a.imag)]
            for key, a in zip(("alpha", "beta", "gamma", "delta"), amps)}


def analytic_config(amps, index: int, **fields) -> RunConfig:
    return parse_config(json.dumps({
        "mode": "analytic", "state": state_section(amps), "eta_a": LAYOUT_ETAS[index % 4],
        "sigma": LAYOUT_SIGMAS[index // 4 % 4], **fields,
    }))


def dumped(config: RunConfig) -> str:
    results = (_run_analytic if config.mode == "analytic" else _run_oracle)(config)
    return json.dumps(_record_tree(config, results), indent=2, sort_keys=True) + "\n"


# sigma 1.5 warns that it is outside the small-error regime
@pytest.mark.filterwarnings("ignore:phase error sigma:UserWarning")
class TestAnalyticLayout:
    # analytic records are filled into one fixed layout, which must give the
    # bytes json.dumps gives for the record dict of the same results
    def test_layout_matches_json_dumps(self):
        p_totals = []
        for index, amps in enumerate(layout_states()):
            config = analytic_config(amps, index)
            assert capture(config) == dumped(config), index
            p_totals.append(_run_analytic(config)["p_total"])
        # the special states reach the zero and tiny results they are there for
        assert 0.0 in p_totals
        assert any(0.0 < p < 1e-12 for p in p_totals)

    def test_record_with_out_is_unchanged(self, tmp_path):
        for index, amps in enumerate(layout_states()[::100]):
            path = tmp_path / f"record_{index}.json"
            config = analytic_config(amps, index, out=str(path))
            payload = capture(config)
            assert payload == dumped(config)
            assert json.loads(payload)["inputs"]["out"] == str(path)
            assert path.read_text(encoding="utf-8") == payload


def entry(value: complex, spelling: int):
    """A matrix entry as a document may give it: an [re, im] pair, or, where
    that reads back bit for bit, a real number (``spelling`` 1) or an
    integer (``spelling`` 2)."""
    if spelling and value.imag == 0.0 and math.copysign(1.0, value.imag) > 0.0:
        if spelling == 2 and value.real.is_integer() and math.copysign(1.0, value.real) > 0.0:
            return int(value.real)
        return value.real
    return [value.real, value.imag]


def layout_matrices() -> list:
    """Density-matrix sections on which the mixed oracle record layout is checked.

    1200 seeded mixtures of one to four pure states, their entries spelled
    in turn as pairs, real numbers and integers.  Three in seven have an
    exact zero amplitude and one in five is real; their zero parts are set
    to -0.0 in part, so 0, 0.0 and -0.0 all occur.  Then the four basis
    projectors, in integers.
    """
    rng = np.random.default_rng(27)
    matrices = []
    for index in range(1200):
        rank = 1 + index % 4
        vecs = rng.normal(size=(rank, 4)) + 1j * rng.normal(size=(rank, 4))
        if index % 5 == 0:
            vecs = vecs.real + 0j
        zero = rng.integers(4) if index % 7 < 3 else None
        if zero is not None:
            vecs[:, zero] = 0.0
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        rho = sum(w * np.outer(v, v.conj()) for w, v in zip(rng.dirichlet(np.ones(rank)), vecs))
        # zeros of either sign: the real parts of every other zero row and
        # column, the imaginary parts above the diagonal of a real matrix
        if zero is not None and index % 2:
            rho.real[zero, :] = rho.real[:, zero] = -0.0
        if index % 5 == 0:
            rho.imag[np.triu_indices(4, 1)] = -0.0
        matrices.append([[entry(complex(z), index % 3) for z in row] for row in rho])
    matrices.extend([[int(row == col == k) for col in range(4)] for row in range(4)]
                    for k in range(4))
    return matrices


def oracle_config(field: str, value, **fields) -> RunConfig:
    return parse_config(json.dumps({"mode": "oracle", field: value, **fields}))


class TestOracleLayout:
    # oracle records are filled into a fixed layout per input kind, which
    # must give the bytes json.dumps gives for the record dict of the same results
    def test_mixed_layout_matches_json_dumps(self):
        matrices = layout_matrices()
        parts = [part for matrix in matrices for row in matrix for part in row]
        # the sections hold every spelling the layout must reproduce
        zeros = {(type(part), math.copysign(1.0, part)) for part in parts if part == 0}
        zeros |= {(list, math.copysign(1.0, zero)) for part in parts if type(part) is list
                  for zero in part if zero == 0.0}
        assert zeros == {(int, 1.0), (float, 1.0), (float, -1.0), (list, 1.0), (list, -1.0)}
        concurrences = []
        for index, matrix in enumerate(matrices):
            config = oracle_config("density_matrix", matrix)
            assert capture(config) == dumped(config), index
            concurrences.append(_run_oracle(config)["concurrence"])
        assert 0.0 in concurrences
        assert any(c > 0.5 for c in concurrences)

    def test_pure_layout_matches_json_dumps(self):
        for index, amps in enumerate(layout_states()):
            config = oracle_config("state", state_section(amps))
            assert capture(config) == dumped(config), index

    def test_record_with_out_is_unchanged(self, tmp_path):
        cases = [("density_matrix", matrix) for matrix in layout_matrices()[::100]]
        cases += [("state", state_section(amps)) for amps in layout_states()[::100]]
        for index, (field, value) in enumerate(cases):
            path = tmp_path / f"record_{index}.json"
            config = oracle_config(field, value, out=str(path))
            payload = capture(config)
            assert payload == dumped(config)
            assert json.loads(payload)["inputs"]["out"] == str(path)
            assert path.read_text(encoding="utf-8") == payload


def numpy_state(amps) -> tuple[float, list]:
    """Norm and unit amplitudes by the numpy path state parsing used to take:
    ``np.linalg.norm``, then ``amps / nrm``."""
    vec = np.array(amps, dtype=complex)
    nrm = float(np.linalg.norm(vec))
    return nrm, (vec / nrm).tolist()


def parts_of(amps) -> list:
    return [part for amp in amps for part in (amp.real, amp.imag)]


def bits(amps) -> list:
    """Each part with the sign of its zero."""
    return [(part, math.copysign(1.0, part)) for part in parts_of(amps)]


# the states of the golden records and of the README
GOLDEN_STATES = [
    [0.0, SQ2, -SQ2, 0.0],
    [complex(float(re), float(im)) for re, im in zip(HAAR_FLAGS[1::2], HAAR_FLAGS[2::2])],
    [0.8, 0.0, 0.0, 0.6],
    [SQ2, 0.0, 0.0, SQ2],
    [0.0, 1.0, -1.0, 0.0],
]


class TestStateNorm:
    # state parsing and TwoPhotonState.normalized take the norm and divide
    # without numpy; numpy's own path is the reference they must keep to
    @staticmethod
    def parsed(amps) -> tuple:
        return parse_config(json.dumps({"mode": "analytic", "state": state_section(amps)})
                            ).state.amplitudes()

    def test_within_an_ulp_of_numpy(self, caplog):
        rng = np.random.default_rng(27)
        haar = rng.normal(size=(10_000, 4)) + 1j * rng.normal(size=(10_000, 4))
        haar /= np.linalg.norm(haar, axis=1, keepdims=True)
        # off norm by up to 1e-3, inside the renormalization band
        off = haar[:2000] * rng.uniform(1.0 - 0.999e-3, 1.0 + 0.999e-3, size=(2000, 1))
        with caplog.at_level(logging.ERROR, logger="faradaymeter"):
            for amps in (*haar, *off):
                want = parts_of(numpy_state(amps)[1])
                for got in (self.parsed(amps), TwoPhotonState.normalized(*amps).amplitudes()):
                    assert all(abs(g - w) <= math.ulp(w) for g, w in zip(parts_of(got), want))

    def test_golden_states_bit_for_bit(self):
        for amps in GOLDEN_STATES:
            nrm, want = numpy_state(amps)
            assert bits(TwoPhotonState.normalized(*amps).amplitudes()) == bits(want)
            # parsing rejects the unnormalized README singlet
            if abs(nrm - 1.0) <= 1e-3:
                assert bits(self.parsed(amps)) == bits(want)

    @pytest.mark.parametrize("re, im", [(re, im) for re in (0.0, -0.0, 1e-4, -1e-4)
                                        for im in (0.0, -0.0, 1e-4, -1e-4)])
    def test_signed_zeros_as_numpy_gives_them(self, re, im):
        amps = [complex(re, im), 0.6, 0.8j, 0.0]
        want = bits(numpy_state(amps)[1])
        assert bits(self.parsed(amps)) == want
        assert bits(TwoPhotonState.normalized(*amps).amplitudes()) == want

    def test_signed_zero_pinned(self):
        # numpy adds 0.0 times the other part before it scales: a -0.0 real
        # part beside a +0.0 imaginary part becomes +0.0, beside -0.0 it
        # stays, and the -0.0 imaginary part beside it becomes +0.0
        assert bits(self.parsed([complex(-0.0, 0.0), 0.6, 0.8j, 0.0])[:1]) == [
            (0.0, 1.0), (0.0, 1.0)]
        assert bits(self.parsed([complex(-0.0, -0.0), 0.6, 0.8j, 0.0])[:1]) == [
            (0.0, -1.0), (0.0, 1.0)]

    @pytest.mark.parametrize("alpha, norm", [
        ("NaN", "nan"), ("Infinity", "inf"), ("-Infinity", "inf"), ("[1e200, 0]", "inf"),
        ("[0, 1e200]", "inf"),
    ])
    def test_non_finite_norm_rejected(self, alpha, norm):
        document = ('{"mode": "analytic", "state": {"alpha": %s, "beta": 0, "gamma": 0, '
                    '"delta": [0.6, 0.8]}}' % alpha)
        with pytest.raises(ConfigError) as caught:
            parse_config(document)
        assert str(caught.value) == (
            f"state amplitudes have norm {norm}; beyond the 1e-3 auto-normalization band")

    # the Haar state of HAAR_FLAGS scaled to a norm at each edge of the two bands
    @pytest.mark.parametrize("factor, warning, error", [
        (1.0 + 1e-6, None, None),
        (1.0 - 1e-6, "state amplitudes renormalized from norm 0.9999989999999999", None),
        (1.0 + 1e-3, "state amplitudes renormalized from norm 1.001", None),
        (1.0 - 1e-3, None,
         "state amplitudes have norm 0.999; beyond the 1e-3 auto-normalization band"),
    ])
    def test_norm_band_edges(self, factor, warning, error, caplog):
        amps = [amp * factor for amp in GOLDEN_STATES[1]]
        with caplog.at_level(logging.WARNING, logger="faradaymeter"):
            if error is None:
                assert bits(self.parsed(amps)) == bits(numpy_state(amps)[1])
            else:
                with pytest.raises(ConfigError) as caught:
                    self.parsed(amps)
                assert str(caught.value) == error
        assert [record.getMessage() for record in caplog.records] == (
            [warning] if warning else [])


class TestSweep:
    def sweep_config(self, **overrides):
        doc = {
            "mode": "sweep",
            "state": BELL_STATE,
            "trials": 20_000,
            "seed": 5,
            "sweep": {"axis": "sigma", "start": 0.0, "stop": 0.3, "steps": 7},
        }
        doc.update(overrides)
        return parse_config(json.dumps(doc))

    def test_table_shape(self):
        rows = list(csv.reader(io.StringIO(capture(self.sweep_config()))))
        assert rows[0] == list(SWEEP_COLUMNS)
        assert len(rows) == 8
        for row in rows[1:]:
            assert len(row) == len(SWEEP_COLUMNS)
            values = [float(cell) for cell in row]
            assert all(math.isfinite(v) for v in values)

    def test_corrected_column_divides_out_eta_only(self):
        # a partially entangled input keeps the corrected estimate away from
        # the clamp at 1; no row corrects its phase error
        partial = {"alpha": 0.0, "beta": 0.8944271909999159, "gamma": -0.4472135954999579, "delta": 0.0}
        trials, eta = 20_000, 0.9
        rows = list(csv.DictReader(io.StringIO(capture(self.sweep_config(state=partial, eta_a=eta)))))
        corrected = [float(row["c_corrected"]) for row in rows]
        for row, value in zip(rows, corrected):
            stage2 = round(float(row["p_total"]) * trials)
            assert value == pytest.approx(min(1.0, 2.0 * math.sqrt(stage2 / (trials * eta**3))),
                                          rel=1e-14)
        assert max(corrected) < 1.0

    def test_points_are_bit_for_bit_numpy_linspace(self):
        rng = np.random.default_rng(22)
        for _ in range(3000):
            scale = 10.0 ** rng.integers(-6, 7)
            start, stop = (rng.uniform(-scale, scale, size=2) * rng.integers(0, 2, size=2)).tolist()
            if rng.random() < 0.1:
                stop = start
            steps = int(rng.integers(2, 300))
            points = SweepSpec("sigma", start, stop, steps).values()
            expected = np.linspace(start, stop, steps).tolist()
            assert list(map(float.hex, points)) == list(map(float.hex, expected))

    def test_theta_axis_replaces_state(self):
        doc = {
            "mode": "sweep",
            "trials": 5000,
            "seed": 2,
            "sweep": {"axis": "theta", "start": 0.0, "stop": math.pi / 4, "steps": 3},
        }
        rows = list(csv.DictReader(io.StringIO(capture(parse_config(json.dumps(doc))))))
        oracle = [float(r["oracle_c"]) for r in rows]
        assert oracle[0] == pytest.approx(0.0, abs=1e-12)
        assert oracle[-1] == pytest.approx(1.0, abs=1e-12)
        # oracle values follow sin(2 theta) along the grid
        assert oracle[1] == pytest.approx(math.sin(2 * math.pi / 8), abs=1e-12)

    def test_trials_axis(self):
        doc = {
            "mode": "sweep",
            "state": BELL_STATE,
            "seed": 3,
            "sweep": {"axis": "trials", "start": 1000, "stop": 3000, "steps": 3},
        }
        rows = list(csv.DictReader(io.StringIO(capture(parse_config(json.dumps(doc))))))
        widths = [float(r["ci_high"]) - float(r["ci_low"]) for r in rows]
        assert widths[-1] < widths[0]

    def test_eta_axis(self):
        doc = {
            "mode": "sweep",
            "state": BELL_STATE,
            "trials": 40_000,
            "seed": 8,
            "sweep": {"axis": "eta_a", "start": 0.5, "stop": 1.0, "steps": 3},
        }
        rows = list(csv.DictReader(io.StringIO(capture(parse_config(json.dumps(doc))))))
        p_totals = [float(r["p_total"]) for r in rows]
        assert all(b > a for a, b in zip(p_totals, p_totals[1:]))
        for row in rows:
            assert float(row["c_corrected"]) == pytest.approx(1.0, abs=0.05)

    def test_out_file_duplicates_payload(self, tmp_path):
        path = tmp_path / "table.csv"
        doc = {
            "mode": "sweep",
            "state": BELL_STATE,
            "trials": 2000,
            "seed": 1,
            "out": str(path),
            "sweep": {"axis": "sigma", "start": 0.0, "stop": 0.2, "steps": 2},
        }
        payload = capture(parse_config(json.dumps(doc)))
        assert path.read_text(encoding="utf-8") == payload

    # a point i at value v runs the top-level inputs with the axis input
    # replaced, at seed (seed + i) mod 2**64: this seed wraps at point 2
    @pytest.mark.parametrize(
        "axis, start, stop",
        [("sigma", 0.0, 0.3), ("eta_a", 0.6, 1.0), ("trials", 1000, 2500),
         ("theta", 0.0, math.pi / 2)],
        ids=["sigma", "eta_a", "trials", "theta"],
    )
    def test_rows_equal_estimates_of_hand_built_runs(self, axis, start, stop):
        seed, top = 2**64 - 2, {"trials": 2000, "eta_a": 0.9, "sigma": 0.05}
        doc = {"mode": "sweep", "seed": seed, **top,
               "sweep": {"axis": axis, "start": start, "stop": stop, "steps": 4}}
        if axis != "theta":
            doc["state"] = BELL_STATE
        config = parse_config(json.dumps(doc))
        rows = list(csv.reader(io.StringIO(capture(config))))[1:]
        assert len(rows) == 4
        for index, (value, row) in enumerate(zip(np.linspace(start, stop, 4), rows)):
            point = dict(top, state=config.state)
            if axis == "theta":
                point["state"] = TwoPhotonState(math.cos(value), 0.0, 0.0, math.sin(value))
            else:
                point[axis] = int(round(value)) if axis == "trials" else float(value)
            report = estimate(TrialConfig(
                n_trials=point["trials"], master_seed=(seed + index) % 2**64,
                state=point["state"], phases=perturbed_phases(point["sigma"]),
                imperfections=ImperfectionParams(eta_a=point["eta_a"], sigma=point["sigma"]),
            ))
            expected = [float(value), report.p1_hat, report.p2_hat, report.p_total_hat,
                        report.c_hat, report.corrected_c_hat, concurrence_pure(point["state"]),
                        report.c_low, report.c_high]
            assert [float(cell) for cell in row] == expected

    # each row's counts are the serial reference's, one stream per point: however the
    # points are scheduled, the table must not change by a byte
    @pytest.mark.parametrize(
        "name, flags",
        [
            ("sweep_readme.csv",
             ["--state", "0", "0", str(SQ2), "0", str(-SQ2), "0", "0", "0",
              "--sweep-axis", "sigma", "--sweep-start", "0", "--sweep-stop", "0.3",
              "--sweep-steps", "7", "--trials", "20000", "--seed", "5"]),
            ("sweep_theta.csv",
             ["--sweep-axis", "theta", "--sweep-start", "0", "--sweep-stop", str(math.pi / 2),
              "--sweep-steps", "9", "--trials", "30000", "--seed", "17", "--eta", "0.9",
              "--sigma", "0.05"]),
            ("sweep_trials.csv",
             ["--state", "0.6", "0", "0", "0.3", "-0.2", "0", "0", "0.7141428428542850",
              "--eta", "0.9", "--sweep-axis", "trials", "--sweep-start", "1000",
              "--sweep-stop", "300000", "--sweep-steps", "6", "--seed", "23"]),
            # the points of an eta_a sweep share one state and one sigma
            ("sweep_eta.csv",
             ["--state", "0.6", "0", "0", "0.3", "-0.2", "0", "0", "0.7141428428542850",
              "--sweep-axis", "eta_a", "--sweep-start", "0.6", "--sweep-stop", "1",
              "--sweep-steps", "8", "--trials", "20000", "--sigma", "0.05", "--seed", "29"]),
        ],
        ids=["readme", "theta", "trials", "eta"],
    )
    def test_table_matches_golden_output(self, name, flags, capsys):
        assert main(["sweep", *flags]) == 0
        assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


class TestMain:
    def test_flags_only_analytic(self, capsys):
        assert main(["analytic", *BELL_FLAGS]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"]["c_estimate"] == pytest.approx(1.0, abs=1e-9)

    def test_flag_overrides_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"mode": "simulate", "state": BELL_STATE, "trials": 1000, "seed": 6})
        )
        assert main(["--config", str(path), "--trials", "2500"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["results"]["trials"] == 2500
        assert record["inputs"]["trials"] == 2500

    def test_positional_mode_beats_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"mode": "simulate", "state": BELL_STATE}))
        assert main(["analytic", "--config", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mode"] == "analytic"

    # a mode given two ways on the command line would let one silently
    # override the other, so the positional is the only way
    @pytest.mark.parametrize("argv", [["analytic", "--mode", "oracle"], ["--mode", "analytic"]],
                             ids=["with-positional", "alone"])
    def test_mode_flag_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--state", "1", "0", "0", "0", "0", "0", "0", "0"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--mode" in captured.err

    def test_missing_config_file(self, capsys):
        assert main(["analytic", "--config", "/nonexistent.json"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_config_error_exit_code(self, capsys):
        assert main(["analytic", "--state", "1", "0", "1", "0", "1", "0", "1", "0"]) == 2
        assert "norm" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, capsys):
        flags = [
            "phases",
            "--omega-c", "5", "--omega-p", "5", "--omega-0", "5",
            "--kappa", "1", "--gamma", "0", "--coupling", "0",
        ]
        assert main(flags) == 3
        assert "error:" in capsys.readouterr().err

    # a non-finite cavity value used to pass as a bad modulus (nan) or a
    # vanishing reflection denominator (inf, exit 3)
    @pytest.mark.parametrize(
        "flag, value",
        [("--omega-c", "nan"), ("--omega-p", "inf"), ("--omega-0", "-inf"),
         ("--kappa", "inf"), ("--gamma", "nan"), ("--coupling", "inf")],
    )
    def test_non_finite_cavity_value_is_a_config_error(self, flag, value, capsys):
        index = CAVITY_FLAGS.index(flag)
        # the = form, so that argparse takes -inf as a value
        flags = [*CAVITY_FLAGS[:index], f"{flag}={value}", *CAVITY_FLAGS[index + 2:]]
        assert main(["phases", *flags]) == 2
        captured = capsys.readouterr()
        key = flag[2:].replace("-", "_")
        assert f"cavity: {key} must be finite, got {float(value)!r}" in captured.err
        assert captured.out == ""

    # an integer beyond the float range used to escape as an OverflowError
    @pytest.mark.parametrize(
        "document, key",
        [
            ({"mode": "analytic", "state": BELL_STATE, "sigma": 10**400}, "config.sigma"),
            ({"mode": "analytic", "state": {**BELL_STATE, "beta": 10**400}}, "state.beta"),
            ({"mode": "analytic", "state": {**BELL_STATE, "gamma": [0, 10**400]}}, "state.gamma"),
            ({"mode": "oracle", "density_matrix": [[[10**400, 0]] * 4] * 4},
             "density_matrix entry"),
            ({"mode": "sweep", "state": BELL_STATE, "trials": 100,
              "sweep": {"axis": "sigma", "start": 10**400, "stop": 0.1, "steps": 2}},
             "sweep.start"),
            ({"mode": "phases", "cavity": {**IDEAL_CAVITY, "kappa": 10**400}}, "cavity.kappa"),
        ],
        ids=["sigma", "amplitude", "pair", "density-entry", "sweep-start", "cavity"],
    )
    def test_integer_beyond_float_range_is_a_config_error(self, document, key, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main(["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"{key} is too large for a float" in captured.err
        assert captured.out == ""

    # a sweep builds all its points at once; 10**400 steps used to escape as an OverflowError
    @pytest.mark.parametrize("steps", [10**6 + 1, 10**400], ids=["above-cap", "beyond-float"])
    def test_oversized_sweep_steps_is_a_config_error(self, steps, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "mode": "sweep", "state": BELL_STATE, "trials": 100,
            "sweep": {"axis": "sigma", "start": 0.0, "stop": 0.1, "steps": steps},
        }))
        assert main(["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert f"sweep.steps must be at most 1000000, got {steps!r}" in captured.err
        assert captured.out == ""

    def test_inconsistent_observation_exit_code(self, capsys):
        # low efficiency pushes the observed stage-1 value below the leak
        # floor sin(sigma)^2; the record reads no leak model, so the run succeeds
        assert main(["analytic", *BELL_FLAGS, "--eta", "0.3", "--sigma", "0.44"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["c_corrected"] == min(1.0, results["c_estimate"])

    def test_readme_lists_every_exit_code(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
        listed = [int(code) for code in re.findall(r"^\| (\d+) +\|", table, re.MULTILINE)]
        assert sorted(listed) == sorted({0, *(code for _, code in _EXIT_CODES)})

    @pytest.mark.parametrize("mode", ["analytic", "simulate"])
    def test_nan_amplitude_is_a_config_error(self, mode, tmp_path, capsys):
        # a NaN norm used to pass the norm check and give c_estimate 2.0
        assert main([mode, "--state", "nan", "0", "0", "0", "0", "0", "1", "0"]) == 2
        captured = capsys.readouterr()
        assert "norm nan" in captured.err
        assert captured.out == ""
        path = tmp_path / "config.json"
        path.write_text('{"mode": "%s", "state": {"alpha": NaN, "beta": 0, "gamma": 0, '
                        '"delta": 1}}' % mode)
        assert main(["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert "norm nan" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("key, value", [("start", "nan"), ("stop", "inf")])
    def test_theta_sweep_from_nan_is_a_config_error(self, key, value, capsys):
        # a theta point of nan used to pass the state's norm check
        bounds = {"start": "0", "stop": "1", key: value}
        flags = ["sweep", "--trials", "100", "--sweep-axis", "theta", "--sweep-start",
                 bounds["start"], "--sweep-stop", bounds["stop"], "--sweep-steps", "2"]
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert f"sweep.{key} must be finite, got {float(value)!r}" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("mode", ["analytic", "sweep"])
    def test_unwritable_out_is_a_config_error(self, mode, tmp_path, capsys):
        target = tmp_path / "missing" / "x.out"
        sweep = ["--sweep-axis", "sigma", "--sweep-start", "0", "--sweep-stop", "0.1",
                 "--sweep-steps", "2", "--trials", "100"]
        flags = [mode, *BELL_FLAGS, *(sweep if mode == "sweep" else []), "--out", str(target)]
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert f"cannot write out {str(target)!r}" in captured.err
        assert captured.out == ""
        assert not target.exists()

    @pytest.mark.parametrize("mode", ["simulate", "analytic"])
    def test_zero_efficiency_is_a_config_error(self, mode, capsys):
        trials = ["--trials", "100"] if mode == "simulate" else []
        assert main([mode, *BELL_FLAGS, *trials, "--eta", "0"]) == 2
        captured = capsys.readouterr()
        assert "eta_a" in captured.err
        assert captured.out == ""

    # eta_a**3 underflows to 0 below about 1.4e-108, and the correction
    # divides by it
    @pytest.mark.parametrize("mode", ["analytic", "simulate"])
    def test_efficiency_with_a_zero_cube_is_a_config_error(self, mode, capsys):
        trials = ["--trials", "100"] if mode == "simulate" else []
        state = ["--state", "0", "0", str(SQ2), "0", str(-SQ2), "0", "0", "0"]
        assert main([mode, *state, *trials, "--eta", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert "eta_a" in captured.err
        assert "1e-300" in captured.err
        assert captured.out == ""

    # range errors name the config key, not the field of the type that owns the range
    @pytest.mark.parametrize(
        "flags, key, field",
        [(["simulate", *BELL_FLAGS, "--seed", "-1"], "seed", "master_seed"),
         (["simulate", *BELL_FLAGS, "--trials", "0"], "trials", "n_trials"),
         (["sweep", *BELL_FLAGS, "--trials", "100", "--sweep-axis", "trials",
           "--sweep-start", "1000", "--sweep-stop", "-5", "--sweep-steps", "3"],
          "trials", "n_trials"),
         # the points' seeds wrap mod 2**64, the seed as given does not
         (["sweep", *BELL_FLAGS, "--trials", "100", "--seed", "-1", "--sweep-axis", "sigma",
           "--sweep-start", "0", "--sweep-stop", "0.1", "--sweep-steps", "2"],
          "seed", "master_seed")],
        ids=["seed", "trials", "trials_sweep", "seed_sweep"],
    )
    def test_range_errors_name_the_config_key(self, flags, key, field, capsys):
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert key in captured.err
        assert field not in captured.err
        assert captured.out == ""

    # every point of a sweep is range-checked before any point runs: the
    # last point of each of these lies outside its key's range
    @pytest.mark.parametrize(
        "axis, start, stop, offending",
        [("eta_a", "1.0", "0.0", "got 0.0"), ("trials", "1000", "-5", "got -5"),
         ("sigma", "0.0", "2.0", "got 2.0")],
        ids=["eta_a", "trials", "sigma"],
    )
    def test_eta_sweep_reaching_zero_is_a_config_error(self, axis, start, stop, offending, capsys):
        flags = ["sweep", *BELL_FLAGS, "--trials", "100", "--sweep-axis", axis,
                 "--sweep-start", start, "--sweep-stop", stop, "--sweep-steps", "3"]
        assert main(flags) == 2
        captured = capsys.readouterr()
        assert axis in captured.err
        assert offending in captured.err
        assert captured.out == ""

    # no point runs the top-level value of the swept key, so it is reported
    # and not range-checked: each of these lies outside its key's range,
    # or for sigma 1.2 in the large-error regime that warns when run
    @pytest.mark.parametrize(
        "axis, flag, value, start, stop",
        [("sigma", "--sigma", "1.6", "0", "0.1"), ("sigma", "--sigma", "1.2", "0", "0.1"),
         ("eta_a", "--eta", "0.0", "0.5", "1"), ("trials", "--trials", "-3", "100", "300")],
        ids=["sigma", "sigma_large", "eta_a", "trials"],
    )
    def test_sweep_reports_the_top_level_value_of_its_axis(
        self, axis, flag, value, start, stop, capsys, caplog
    ):
        flags = ["sweep", *BELL_FLAGS, "--seed", "4", "--sweep-axis", axis,
                 "--sweep-start", start, "--sweep-stop", stop, "--sweep-steps", "2"]
        if axis != "trials":
            flags += ["--trials", "100"]
        with caplog.at_level("WARNING", logger="faradaymeter"):
            assert main(flags) == 0
            plain = capsys.readouterr().out
            assert not caplog.records
            assert main([*flags, flag, value]) == 0
        assert capsys.readouterr().out == plain
        [record] = caplog.records
        assert f"{axis} = {value} is not run" in record.getMessage()

    def test_library_use_prints_no_warning(self, capfd):
        # as in a process that never configures logging, where a logger with
        # no handler of its own would fall back to logging's last resort
        sweep = {"axis": "sigma", "start": 0.0, "stop": 0.1, "steps": 2}
        text = json.dumps({"mode": "sweep", "state": BELL_STATE, "sigma": 0.3, "sweep": sweep})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(logging.getLogger(), "handlers", [])
            parse_config(text)
        assert capfd.readouterr().err == ""

    # the sweep's points are 0, 0.3, 0.6 and 0.9, the last alone at or beyond pi/4
    @pytest.mark.parametrize(
        "flags, document",
        [(["analytic", "--sigma", "0.9"], {"mode": "analytic", "sigma": 0.9}),
         (["sweep", "--trials", "1000", "--sweep-axis", "sigma", "--sweep-start", "0",
           "--sweep-stop", "0.9", "--sweep-steps", "4"],
          {"mode": "sweep", "trials": 1000,
           "sweep": {"axis": "sigma", "start": 0.0, "stop": 0.9, "steps": 4}})],
        ids=["analytic", "sigma_sweep"],
    )
    def test_large_sigma_warns_once_through_the_logger(self, flags, document):
        command = [sys.executable, "-m", "faradaymeter", *flags, *BELL_FLAGS]
        done = subprocess.run(command, capture_output=True, check=True, text=True)
        assert done.stderr == ("WARNING: phase error sigma=0.9 is outside the small-error "
                               "regime |sigma| < pi/4\n")
        # the library still raises the warning, and the payload is the library's
        with pytest.warns(UserWarning, match="sigma=0.9"):
            payload = capture(parse_config(json.dumps({**document, "state": BELL_STATE})))
        assert done.stdout == payload

    @pytest.mark.parametrize(
        "key, bad, start, stop",
        [("eta_a", 0, 0.0, 0.5), ("trials", 0, 0.4, 1000), ("sigma", 1.6, 0.0, -1.6)],
        ids=["eta_a", "trials", "sigma"],
    )
    def test_zero_efficiency_rejected_in_config_document(self, key, bad, start, stop):
        with pytest.raises(ConfigError, match=key):
            parse_config(json.dumps({"mode": "simulate", "state": BELL_STATE, key: bad}))
        # a trials point of 0.4 rounds to 0 trials
        sweep = {"axis": key, "start": start, "stop": stop, "steps": 2}
        with pytest.raises(ConfigError, match=key):
            parse_config(json.dumps({"mode": "sweep", "state": BELL_STATE, "sweep": sweep}))

    # each of these inputs is read by one mode only; the others reject it
    # instead of echoing it unused
    @pytest.mark.parametrize(
        "mode, section",
        [(mode, section)
         for section, reader in (("sweep", "sweep"), ("cavity", "phases"),
                                 ("density_matrix", "oracle"))
         for mode in ("analytic", "simulate", "oracle", "phases", "sweep")
         if mode != reader],
    )
    def test_section_outside_its_mode_is_a_config_error(self, mode, section, tmp_path, capsys):
        inputs = {
            "sweep": {"axis": "sigma", "start": 0.0, "stop": 0.2, "steps": 3},
            "cavity": IDEAL_CAVITY,
            "density_matrix": [[1.0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        }
        document = {"mode": mode, "state": BELL_STATE, "trials": 100, section: inputs[section]}
        own = {"sweep": "sweep", "phases": "cavity"}.get(mode)
        if own is not None:  # the section the mode needs, so only the extra one is wrong
            document[own] = inputs[own]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(document))
        assert main(["--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{section}'" in captured.err
        assert f"mode '{mode}'" in captured.err

    # phases reads no top-level scalar and no state, oracle no scalar,
    # analytic no trials or seed, and a theta sweep builds every point's
    # state itself
    @pytest.mark.parametrize(
        "mode, needs, name",
        [*[("phases", CAVITY_FLAGS, name) for name in INPUT_FLAGS],
         *[("oracle", BELL_FLAGS, name) for name in INPUT_FLAGS if name != "state"],
         ("sweep", ["--sweep-axis", "theta", "--sweep-start", "0", "--sweep-stop", "1",
                    "--sweep-steps", "2"], "state"),
         ("analytic", BELL_FLAGS, "trials"), ("analytic", BELL_FLAGS, "seed")],
    )
    def test_unread_input_is_a_config_error(self, mode, needs, name, capsys):
        assert main([mode, *needs, *INPUT_FLAGS[name]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"'{name}'" in captured.err
        assert f"mode '{mode}'" in captured.err

    @pytest.mark.parametrize(
        "mode, section, values, names",
        [
            ("phases", "cavity", IDEAL_CAVITY,
             ["--omega-c", "--omega-p", "--omega-0", "--kappa", "--gamma", "--coupling"]),
            ("sweep", "sweep", {"axis": "sigma", "start": 0.0, "stop": 0.2, "steps": 3},
             ["--sweep-axis", "--sweep-start", "--sweep-stop", "--sweep-steps"]),
        ],
        ids=["cavity", "sweep"],
    )
    def test_section_flags_merge_into_partial_section(
        self, mode, section, values, names, tmp_path, capsys
    ):
        # phases reads none of the state, trials and seed, and rejects them
        common = [mode] if mode == "phases" else [mode, *BELL_FLAGS, "--trials", "500", "--seed", "4"]

        def payload(document: dict, flags: list) -> str:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(document))
            assert main([*common, "--config", str(path), *flags]) == 0
            return capsys.readouterr().out

        all_flags = [item for name, value in zip(names, values.values()) for item in (name, str(value))]
        key = list(values)[1]
        override = [names[1], str(values[key])]
        partial = {k: v for k, v in values.items() if k != key}
        whole = payload({section: values}, [])
        assert payload({}, all_flags) == whole
        assert payload({section: partial}, override) == whole
        assert payload({section: dict(partial, **{key: -1.0})}, override) == whole


class TestDeterminism:
    def test_simulate_byte_identical(self):
        command = [
            sys.executable,
            "-m",
            "faradaymeter",
            "simulate",
            *BELL_FLAGS,
            "--trials",
            "20000",
            "--seed",
            "3",
        ]
        first = subprocess.run(command, capture_output=True, check=True)
        second = subprocess.run(command, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout

    def test_cli_import_leaves_out_the_reference_engine(self):
        # the seven-qubit engine is a test reference, not a CLI dependency,
        # statistics would load fractions and decimal on every start, and
        # the span helpers' pool is imported by the first batch that splits
        code = (
            "import sys, faradaymeter.cli; "
            "print('faradaymeter.qstate' in sys.modules, 'statistics' in sys.modules, "
            "'concurrent.futures' in sys.modules)"
        )
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)
        assert result.stdout == b"False False False\n"
