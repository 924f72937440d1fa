"""Command-line front end: config ingestion, dispatch, structured output.

One config format (JSON, schema ``faradaymeter-config/1``) and one output
record format (JSON, schema ``faradaymeter-record/1``) are supported.  Five
modes exist: ``analytic`` evaluates the protocol exactly, ``simulate`` runs
the Monte Carlo estimator, ``oracle`` reports reference concurrences,
``phases`` evaluates the cavity reflection phases, and ``sweep`` tabulates
simulation results along one parameter axis as delimited text.

Exit codes: 0 success, 2 configuration problems, 3 numerical failures,
4 observations inconsistent with the imperfection model.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import dataclass, replace
from io import StringIO

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    FaradaymeterError,
    InconsistentObservationError,
    NonInvertibleError,
    NumericalFailureError,
)
from .estimator import EstimateReport, TrialConfig, estimate
from .faraday import CavityParams, perturbed_phases, phases_from_params
from .imperfect import ImperfectionParams, recover_concurrence
from .oracle import concurrence_mixed, concurrence_pure, concurrence_pure_general
from .protocol import TwoPhotonState, run_analytic

log = logging.getLogger("faradaymeter")

CONFIG_SCHEMA = "faradaymeter-config/1"
RECORD_SCHEMA = "faradaymeter-record/1"

MODES = ("analytic", "simulate", "oracle", "phases", "sweep")
SWEEP_AXES = ("sigma", "eta_a", "trials", "theta")
SWEEP_COLUMNS = (
    "axis_value",
    "p1",
    "p2",
    "p_total",
    "c_est",
    "c_corrected",
    "oracle_c",
    "ci_low",
    "ci_high",
)

DEFAULT_TRIALS = 100_000

_EXACT_NORM_TOL = 1e-6
_RENORM_TOL = 1e-3

_AMPLITUDE_KEYS = ("alpha", "beta", "gamma", "delta")
_CAVITY_KEYS = ("omega_c", "omega_p", "omega_0", "kappa", "gamma", "coupling")
_SWEEP_KEYS = ("axis", "start", "stop", "steps")
_TOP_KEYS = {
    "schema",
    "mode",
    "state",
    "density_matrix",
    "trials",
    "seed",
    "eta_a",
    "sigma",
    "cavity",
    "sweep",
    "out",
}


@dataclass(frozen=True, eq=False)
class SweepSpec:
    axis: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"sweep.axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if self.steps < 2:
            raise ConfigError(f"sweep.steps must be at least 2, got {self.steps!r}")
        if self.axis == "eta_a" and not all(0.0 < v <= 1.0 for v in self.values()):
            raise ConfigError(
                f"an eta_a sweep must stay in (0, 1], got {self.start} to {self.stop}: "
                "zero detection efficiency cannot be divided out"
            )

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Fully validated description of one command invocation."""

    mode: str
    state: TwoPhotonState | None
    trials: int
    seed: int
    eta_a: float
    sigma: float
    cavity: CavityParams | None
    density_matrix: np.ndarray | None
    sweep: SweepSpec | None
    out: str | None

    @property
    def imperfections(self) -> ImperfectionParams:
        return ImperfectionParams(eta_a=self.eta_a, sigma=self.sigma)


def _require(data: dict, key: str, kind, context: str):
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{context}.{key} has the wrong type: expected {kind.__name__}")
    return value


def _complex_from(value, context: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(float(value), 0.0)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{context} must be a number or an [re, im] pair")


def _state_from(data, context: str = "state") -> TwoPhotonState:
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a mapping with keys {_AMPLITUDE_KEYS}")
    unknown = set(data) - set(_AMPLITUDE_KEYS)
    if unknown:
        raise ConfigError(f"unknown key {context}.{sorted(unknown)[0]}")
    missing = set(_AMPLITUDE_KEYS) - set(data)
    if missing:
        raise ConfigError(f"missing key {context}.{sorted(missing)[0]}")
    amps = np.array(
        [_complex_from(data[k], f"{context}.{k}") for k in _AMPLITUDE_KEYS], dtype=complex
    )
    nrm = float(np.linalg.norm(amps))
    deviation = abs(nrm - 1.0)
    if deviation > _RENORM_TOL:
        raise ConfigError(
            f"{context} amplitudes have norm {nrm!r}; beyond the 1e-3 auto-normalization band"
        )
    if deviation > _EXACT_NORM_TOL:
        log.warning("state amplitudes renormalized from norm %r", nrm)
    amps = amps / nrm
    return TwoPhotonState(*amps)


def _density_from(data) -> np.ndarray:
    try:
        rows = [[_complex_from(entry, "density_matrix entry") for entry in row] for row in data]
        matrix = np.array(rows, dtype=complex)
    except (TypeError, ConfigError) as exc:
        raise ConfigError(f"density_matrix must be a 4x4 array of [re, im] pairs: {exc}") from None
    if matrix.shape != (4, 4):
        raise ConfigError(f"density_matrix must be 4x4, got shape {matrix.shape}")
    return matrix


def _config_from_mapping(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config document must be a mapping")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    if data.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise ConfigError(f"schema must be {CONFIG_SCHEMA!r}, got {data['schema']!r}")
    if "mode" not in data:
        raise ConfigError("missing key 'mode' (give it in the config or on the command line)")
    mode = data["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    trials = _require(data, "trials", int, "config") if "trials" in data else DEFAULT_TRIALS
    seed = _require(data, "seed", int, "config") if "seed" in data else 0
    eta_a = _require(data, "eta_a", float, "config") if "eta_a" in data else 1.0
    sigma = _require(data, "sigma", float, "config") if "sigma" in data else 0.0
    out = _require(data, "out", str, "config") if "out" in data else None

    state = _state_from(data["state"]) if "state" in data else None
    density = _density_from(data["density_matrix"]) if "density_matrix" in data else None

    cavity = None
    if "cavity" in data:
        section = data["cavity"]
        if not isinstance(section, dict):
            raise ConfigError(f"cavity must be a mapping with keys {_CAVITY_KEYS}")
        unknown = set(section) - set(_CAVITY_KEYS)
        if unknown:
            raise ConfigError(f"unknown key cavity.{sorted(unknown)[0]}")
        missing = set(_CAVITY_KEYS) - set(section)
        if missing:
            raise ConfigError(f"missing key cavity.{sorted(missing)[0]}")
        values = {k: _require(section, k, float, "cavity") for k in _CAVITY_KEYS}
        try:
            cavity = CavityParams(**values)
        except ValueError as exc:
            raise ConfigError(f"cavity: {exc}") from None

    sweep = None
    if "sweep" in data:
        section = data["sweep"]
        if not isinstance(section, dict):
            raise ConfigError(f"sweep must be a mapping with keys {_SWEEP_KEYS}")
        unknown = set(section) - set(_SWEEP_KEYS)
        if unknown:
            raise ConfigError(f"unknown key sweep.{sorted(unknown)[0]}")
        missing = set(_SWEEP_KEYS) - set(section)
        if missing:
            raise ConfigError(f"missing key sweep.{sorted(missing)[0]}")
        sweep = SweepSpec(
            axis=_require(section, "axis", str, "sweep"),
            start=_require(section, "start", float, "sweep"),
            stop=_require(section, "stop", float, "sweep"),
            steps=_require(section, "steps", int, "sweep"),
        )

    if trials < 1:
        raise ConfigError(f"trials must be positive, got {trials}")
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if not 0.0 < eta_a <= 1.0:
        raise ConfigError(
            f"eta_a must lie in (0, 1], got {eta_a}: zero detection efficiency cannot be divided out"
        )
    if not abs(sigma) < math.pi / 2.0:
        raise ConfigError(f"sigma must satisfy |sigma| < pi/2, got {sigma}")

    config = RunConfig(
        mode=mode,
        state=state,
        trials=trials,
        seed=seed,
        eta_a=eta_a,
        sigma=sigma,
        cavity=cavity,
        density_matrix=density,
        sweep=sweep,
        out=out,
    )
    _check_mode_requirements(config)
    return config


def _check_mode_requirements(config: RunConfig) -> None:
    needs_state = config.mode in ("analytic", "simulate") or (
        config.mode == "sweep" and config.sweep is not None and config.sweep.axis != "theta"
    )
    if needs_state and config.state is None:
        raise ConfigError(f"mode {config.mode!r} needs a state (config key 'state' or --state)")
    if config.mode == "oracle":
        if (config.state is None) == (config.density_matrix is None):
            raise ConfigError("mode 'oracle' needs exactly one of 'state' or 'density_matrix'")
    if config.mode == "phases" and config.cavity is None:
        raise ConfigError("mode 'phases' needs the 'cavity' section (or the cavity flags)")
    if config.mode == "sweep" and config.sweep is None:
        raise ConfigError("mode 'sweep' needs the 'sweep' section (or the --sweep-* flags)")


def parse_config(text: str) -> RunConfig:
    """Parse and validate one JSON config document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return _config_from_mapping(data)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _echo_inputs(config: RunConfig) -> dict:
    inputs: dict = {
        "mode": config.mode,
        "trials": config.trials,
        "seed": config.seed,
        "eta_a": config.eta_a,
        "sigma": config.sigma,
    }
    if config.state is not None:
        inputs["state"] = {
            key: _pair(amp)
            for key, amp in zip(_AMPLITUDE_KEYS, config.state.amplitudes())
        }
    if config.density_matrix is not None:
        inputs["density_matrix"] = [
            [_pair(entry) for entry in row] for row in config.density_matrix
        ]
    if config.cavity is not None:
        inputs["cavity"] = {key: getattr(config.cavity, key) for key in _CAVITY_KEYS}
    if config.sweep is not None:
        inputs["sweep"] = {
            "axis": config.sweep.axis,
            "start": config.sweep.start,
            "stop": config.sweep.stop,
            "steps": config.sweep.steps,
        }
    if config.out is not None:
        inputs["out"] = config.out
    return inputs


def _record(config: RunConfig, results: dict) -> str:
    record = {
        "schema": RECORD_SCHEMA,
        "mode": config.mode,
        "inputs": _echo_inputs(config),
        "results": results,
        "metadata": {"tool": "faradaymeter", "version": __version__},
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _run_analytic(config: RunConfig) -> dict:
    outcome = run_analytic(config.state, perturbed_phases(config.sigma))
    eta = config.eta_a
    p1_observed = eta**2 * outcome.p1
    p2_observed = eta * outcome.p2
    return {
        "p1": outcome.p1,
        "p2": outcome.p2,
        "p_total": outcome.p_total,
        "c_estimate": outcome.c_estimate,
        "p1_observed": p1_observed,
        "p2_observed": p2_observed,
        "p_total_observed": eta**3 * outcome.p_total,
        "c_corrected": recover_concurrence(p1_observed, p2_observed, config.imperfections),
        "oracle_c": concurrence_pure(config.state),
    }


def _estimate(config: RunConfig) -> EstimateReport:
    """Monte Carlo estimate for the state, trials, seed, eta_a and sigma of ``config``."""
    return estimate(
        TrialConfig(
            n_trials=config.trials,
            master_seed=config.seed,
            state=config.state,
            phases=perturbed_phases(config.sigma),
            imperfections=config.imperfections,
        )
    )


def _run_simulate(config: RunConfig) -> dict:
    report = _estimate(config)
    return {
        "trials": report.trials,
        "stage1_successes": report.stage1_successes,
        "stage2_successes": report.stage2_successes,
        "p1_hat": report.p1_hat,
        "p2_hat": report.p2_hat,
        "p_total_hat": report.p_total_hat,
        "c_hat": report.c_hat,
        "c_low": report.c_low,
        "c_high": report.c_high,
        "corrected_c_hat": report.corrected_c_hat,
        "oracle_c": concurrence_pure(config.state),
    }


def _run_oracle(config: RunConfig) -> dict:
    if config.state is not None:
        amps = np.array(config.state.amplitudes(), dtype=complex)
        return {
            "input_kind": "pure",
            "concurrence": concurrence_pure(config.state),
            "concurrence_general": concurrence_pure_general(amps),
        }
    try:
        value = concurrence_mixed(config.density_matrix)
    except ValueError as exc:
        raise ConfigError(f"density_matrix: {exc}") from None
    return {"input_kind": "mixed", "concurrence": value}


def _run_phases(config: RunConfig) -> dict:
    phases = phases_from_params(config.cavity)
    return {
        "phi": phases.phi,
        "phi0": phases.phi0,
        "rotation_angle": phases.rotation_angle,
        "r_modulus": phases.r_modulus,
        "r0_modulus": phases.r0_modulus,
    }


def _sweep_point(config: RunConfig, index: int, value: float) -> tuple:
    axis = config.sweep.axis
    if axis == "sigma":
        point = {"sigma": value}
    elif axis == "eta_a":
        point = {"eta_a": value}
    elif axis == "trials":
        point = {"trials": max(1, int(round(value)))}
    else:
        point = {"state": TwoPhotonState(math.cos(value), 0.0, 0.0, math.sin(value))}
    config = replace(config, seed=(config.seed + index) % 2**64, **point)
    report = _estimate(config)
    return (
        value,
        report.p1_hat,
        report.p2_hat,
        report.p_total_hat,
        report.c_hat,
        report.corrected_c_hat,
        concurrence_pure(config.state),
        report.c_low,
        report.c_high,
    )


def _run_sweep(config: RunConfig) -> str:
    buffer = StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    for index, value in enumerate(config.sweep.values()):
        row = _sweep_point(config, index, float(value))
        if not all(math.isfinite(v) for v in row):
            raise NumericalFailureError(f"non-finite value in sweep row {index}: {row!r}")
        writer.writerow(row)
    return buffer.getvalue()


def run(config: RunConfig, stream=None) -> int:
    """Execute one validated config, writing the payload to ``stream``."""
    stream = sys.stdout if stream is None else stream
    if config.mode == "sweep":
        payload = _run_sweep(config)
    else:
        results = {
            "analytic": _run_analytic,
            "simulate": _run_simulate,
            "oracle": _run_oracle,
            "phases": _run_phases,
        }[config.mode](config)
        payload = _record(config, results)
    stream.write(payload)
    if config.out is not None:
        with open(config.out, "w", encoding="utf-8", newline="") as sink:
            sink.write(payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faradaymeter",
        description="Concurrence measurement via cavity-assisted parity checks: "
        "exact protocol evaluation, Monte Carlo estimation and reference oracles.",
    )
    parser.add_argument("mode_positional", nargs="?", choices=MODES, metavar="mode",
                        help="one of: " + ", ".join(MODES))
    parser.add_argument("--config", metavar="PATH", help="JSON config document")
    parser.add_argument("--mode", choices=MODES, help="overrides the config mode")
    parser.add_argument("--trials", type=int, metavar="N")
    parser.add_argument("--seed", type=int, metavar="S")
    parser.add_argument("--eta", type=float, metavar="X", help="detection efficiency in (0, 1]")
    parser.add_argument("--sigma", type=float, metavar="X", help="coupled-phase error in radians")
    parser.add_argument("--out", metavar="PATH", help="also write the payload to this file")
    parser.add_argument(
        "--state", type=float, nargs=8,
        metavar=("aRE", "aIM", "bRE", "bIM", "cRE", "cIM", "dRE", "dIM"),
        help="amplitudes of |RR>, |RL>, |LR>, |LL> as re/im pairs",
    )
    for flag in ("--omega-c", "--omega-p", "--omega-0", "--kappa", "--gamma", "--coupling"):
        parser.add_argument(flag, type=float, metavar="X", help="cavity parameter (phases mode)")
    parser.add_argument("--sweep-axis", choices=SWEEP_AXES)
    parser.add_argument("--sweep-start", type=float, metavar="X")
    parser.add_argument("--sweep-stop", type=float, metavar="X")
    parser.add_argument("--sweep-steps", type=int, metavar="N")
    return parser


def _merge_flags(data: dict, args: argparse.Namespace) -> dict:
    merged = dict(data)
    mode = args.mode_positional or args.mode
    if mode is not None:
        merged["mode"] = mode
    for key, value in (
        ("trials", args.trials),
        ("seed", args.seed),
        ("eta_a", args.eta),
        ("sigma", args.sigma),
        ("out", args.out),
    ):
        if value is not None:
            merged[key] = value
    if args.state is not None:
        re_a, im_a, re_b, im_b, re_c, im_c, re_d, im_d = args.state
        merged["state"] = {
            "alpha": [re_a, im_a],
            "beta": [re_b, im_b],
            "gamma": [re_c, im_c],
            "delta": [re_d, im_d],
        }
    cavity_flags = {
        "omega_c": args.omega_c,
        "omega_p": args.omega_p,
        "omega_0": args.omega_0,
        "kappa": args.kappa,
        "gamma": args.gamma,
        "coupling": args.coupling,
    }
    if any(v is not None for v in cavity_flags.values()):
        section = dict(merged.get("cavity", {}))
        section.update({k: v for k, v in cavity_flags.items() if v is not None})
        merged["cavity"] = section
    sweep_flags = {
        "axis": args.sweep_axis,
        "start": args.sweep_start,
        "stop": args.sweep_stop,
        "steps": args.sweep_steps,
    }
    if any(v is not None for v in sweep_flags.values()):
        section = dict(merged.get("sweep", {}))
        section.update({k: v for k, v in sweep_flags.items() if v is not None})
        merged["sweep"] = section
    return merged


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        data = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
            try:
                loaded = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
            if not isinstance(loaded, dict):
                raise ConfigError("config document must be a mapping")
            data = loaded
        config = _config_from_mapping(_merge_flags(data, args))
        return run(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistentObservationError, NonInvertibleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (NumericalFailureError, FaradaymeterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
