"""Tests for config parsing, dispatch, records and exit codes."""

import csv
import io
import json
import math
import subprocess
import sys

import pytest

from faradaymeter.cli import (
    RunConfig,
    SWEEP_COLUMNS,
    main,
    parse_config,
    run,
)
from faradaymeter.errors import ConfigError

SQ2 = 1.0 / math.sqrt(2.0)

BELL_STATE = {"alpha": [SQ2, 0.0], "beta": [0.0, 0.0], "gamma": [0.0, 0.0], "delta": [SQ2, 0.0]}
BELL_FLAGS = ["--state", str(SQ2), "0", "0", "0", "0", "0", str(SQ2), "0"]

IDEAL_CAVITY = {
    "omega_c": 5.0,
    "omega_p": 4.5,
    "omega_0": 5.0,
    "kappa": 1.0,
    "gamma": 0.0,
    "coupling": 0.5,
}


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

    def test_record_inputs_allow_replay(self):
        doc = {"mode": "simulate", "state": BELL_STATE, "trials": 4000, "seed": 12}
        config = parse_config(json.dumps(doc))
        record = json.loads(capture(config))
        replayed = parse_config(json.dumps(record["inputs"]))
        assert capture(replayed) == capture(config)

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

    def test_phases_record(self):
        doc = {"mode": "phases", "cavity": IDEAL_CAVITY}
        results = record_results(parse_config(json.dumps(doc)))
        assert results["phi"] == pytest.approx(math.pi, abs=1e-9)
        assert results["phi0"] == pytest.approx(math.pi / 2, abs=1e-9)
        assert results["rotation_angle"] == pytest.approx(math.pi / 2, abs=1e-9)

    def test_analytic_with_imperfections(self):
        doc = {"mode": "analytic", "state": BELL_STATE, "eta_a": 0.66, "sigma": 0.02}
        results = record_results(parse_config(json.dumps(doc)))
        assert results["p_total_observed"] == pytest.approx(
            0.66**3 * results["p_total"], abs=1e-12
        )
        assert results["c_corrected"] == pytest.approx(1.0, abs=5e-3)


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

    def test_gap_grows_with_sigma(self):
        # a partially entangled input keeps the corrected estimate away
        # from the clamp at 1, where the gap would saturate
        partial = {"alpha": 0.0, "beta": 0.8944271909999159, "gamma": -0.4472135954999579, "delta": 0.0}
        config = self.sweep_config(trials=400_000, state=partial)
        rows = list(csv.DictReader(io.StringIO(capture(config))))
        gaps = [float(r["c_est"]) - float(r["c_corrected"]) for r in rows]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

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
        path.write_text(json.dumps({"mode": "simulate", "state": BELL_STATE, "trials": 500}))
        assert main(["analytic", "--config", str(path)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["mode"] == "analytic"

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

    def test_inconsistent_observation_exit_code(self, capsys):
        # low efficiency pushes the observed stage-1 value below the leak floor
        assert main(["analytic", *BELL_FLAGS, "--eta", "0.3", "--sigma", "0.44"]) == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["simulate", "analytic"])
    def test_zero_efficiency_is_a_config_error(self, mode, capsys):
        assert main([mode, *BELL_FLAGS, "--trials", "100", "--eta", "0"]) == 2
        captured = capsys.readouterr()
        assert "eta_a" in captured.err
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
        common = [mode, *BELL_FLAGS, "--trials", "500", "--seed", "4"]

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
