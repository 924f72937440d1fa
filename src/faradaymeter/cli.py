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

# Key tables: each key of a config section and the type its value is read
# as.  Parsing, the command-line flags and the record echo all read these.
_AMPLITUDE_KEYS = dict.fromkeys(("alpha", "beta", "gamma", "delta"), complex)
_CAVITY_KEYS = dict.fromkeys(("omega_c", "omega_p", "omega_0", "kappa", "gamma", "coupling"), float)
_SWEEP_KEYS = {"axis": str, "start": float, "stop": float, "steps": int}

# Top-level scalars: type, default, and the range that the value and every
# point of a sweep along that key must satisfy.
_SCALARS = {
    "trials": (int, DEFAULT_TRIALS, lambda v: v >= 1, "must be positive, got {}"),
    "seed": (int, 0, lambda v: 0 <= v < 2**64, "must be a 64-bit unsigned integer, got {}"),
    "eta_a": (
        float,
        1.0,
        lambda v: 0.0 < v <= 1.0,
        "must lie in (0, 1], got {}: zero detection efficiency cannot be divided out",
    ),
    "sigma": (float, 0.0, lambda v: abs(v) < math.pi / 2.0, "must satisfy |sigma| < pi/2, got {}"),
}
_TOP_KEYS = {"schema", "mode", "state", "density_matrix", "cavity", "sweep", "out", *_SCALARS}


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

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def point(self, value: float) -> dict:
        """The RunConfig fields that the sweep point at ``value`` replaces."""
        if self.axis == "theta":
            return {"state": TwoPhotonState(math.cos(value), 0.0, 0.0, math.sin(value))}
        if self.axis == "trials":
            return {"trials": int(round(value))}
        return {self.axis: value}


# The sections read through a key table, and the prefix of the flags that
# set their keys one for one (cavity.omega_c is --omega-c, sweep.axis is
# --sweep-axis).
_SECTIONS = {"cavity": (_CAVITY_KEYS, "--"), "sweep": (_SWEEP_KEYS, "--sweep-")}

# Inputs that only one mode reads; any other mode rejects them rather than
# ignoring them.
_ONLY_READ_IN = {"sweep": "sweep", "cavity": "phases", "density_matrix": "oracle"}


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
    """``data[key]`` read as ``kind``; complex also takes an [re, im] pair."""
    value = data[key]
    if kind is complex:
        return _complex_from(value, f"{context}.{key}")
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


def _section(data, keys: dict, context: str) -> dict:
    """The values of a section that must hold exactly the keys of its table."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a mapping with keys {tuple(keys)}")
    for problem, names in (("unknown", set(data) - set(keys)), ("missing", set(keys) - set(data))):
        if names:
            raise ConfigError(f"{problem} key {context}.{sorted(names)[0]}")
    return {key: _require(data, key, kind, context) for key, kind in keys.items()}


def _check_range(key: str, value, context: str = "") -> None:
    _, _, in_range, message = _SCALARS[key]
    if not in_range(value):
        raise ConfigError(f"{context}{key} {message.format(value)}")


def _state_from(data) -> TwoPhotonState:
    amps = np.array(list(_section(data, _AMPLITUDE_KEYS, "state").values()), dtype=complex)
    nrm = float(np.linalg.norm(amps))
    deviation = abs(nrm - 1.0)
    if deviation > _RENORM_TOL:
        raise ConfigError(
            f"state amplitudes have norm {nrm!r}; beyond the 1e-3 auto-normalization band"
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

    scalars = {
        key: _require(data, key, kind, "config") if key in data else default
        for key, (kind, default, _, _) in _SCALARS.items()
    }
    out = _require(data, "out", str, "config") if "out" in data else None

    state = _state_from(data["state"]) if "state" in data else None
    density = _density_from(data["density_matrix"]) if "density_matrix" in data else None

    sections = dict.fromkeys(_SECTIONS)
    for name, build in (("cavity", CavityParams), ("sweep", SweepSpec)):
        if name in data:
            try:
                sections[name] = build(**_section(data[name], _SECTIONS[name][0], name))
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from None

    for key, value in scalars.items():
        _check_range(key, value)
    sweep = sections["sweep"]
    if sweep is not None and sweep.axis in _SCALARS:
        for value in sweep.values():
            _check_range(sweep.axis, sweep.point(float(value))[sweep.axis], "sweep: ")

    config = RunConfig(
        mode=mode, state=state, density_matrix=density, out=out, **scalars, **sections
    )
    _check_mode_requirements(config)
    return config


def _check_mode_requirements(config: RunConfig) -> None:
    for name, mode in _ONLY_READ_IN.items():
        if getattr(config, name) is not None and config.mode != mode:
            raise ConfigError(
                f"{name!r} is only read in mode {mode!r}; mode {config.mode!r} would ignore it"
            )
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


def _load_document(text: str) -> dict:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config document must be a mapping")
    return data


def parse_config(text: str) -> RunConfig:
    """Parse and validate one JSON config document."""
    return _config_from_mapping(_load_document(text))


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _echo_inputs(config: RunConfig) -> dict:
    inputs: dict = {"mode": config.mode, **{key: getattr(config, key) for key in _SCALARS}}
    if config.state is not None:
        inputs["state"] = {
            key: _pair(amp)
            for key, amp in zip(_AMPLITUDE_KEYS, config.state.amplitudes())
        }
    if config.density_matrix is not None:
        inputs["density_matrix"] = [
            [_pair(entry) for entry in row] for row in config.density_matrix
        ]
    for name, (keys, _) in _SECTIONS.items():
        section = getattr(config, name)
        if section is not None:
            inputs[name] = {key: getattr(section, key) for key in keys}
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
    config = replace(config, seed=(config.seed + index) % 2**64, **config.sweep.point(value))
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
    parser.add_argument("--eta", dest="eta_a", type=float, metavar="X",
                        help="detection efficiency in (0, 1]")
    parser.add_argument("--sigma", type=float, metavar="X", help="coupled-phase error in radians")
    parser.add_argument("--out", metavar="PATH", help="also write the payload to this file")
    parser.add_argument(
        "--state", type=float, nargs=8,
        metavar=("aRE", "aIM", "bRE", "bIM", "cRE", "cIM", "dRE", "dIM"),
        help="amplitudes of |RR>, |RL>, |LR>, |LL> as re/im pairs",
    )
    for name, (keys, prefix) in _SECTIONS.items():
        for key, kind in keys.items():
            # the one text key, sweep.axis, names one of the sweep axes
            parser.add_argument(
                prefix + key.replace("_", "-"), dest=f"{name}.{key}", type=kind,
                choices=SWEEP_AXES if kind is str else None,
                metavar=None if kind is str else "N" if kind is int else "X",
                help=f"config key {name}.{key}",
            )
    return parser


def _merge_flags(data: dict, args: argparse.Namespace) -> dict:
    merged = dict(data)
    mode = args.mode_positional or args.mode
    if mode is not None:
        merged["mode"] = mode
    for key in (*_SCALARS, "out"):
        if getattr(args, key) is not None:
            merged[key] = getattr(args, key)
    if args.state is not None:
        merged["state"] = dict(zip(_AMPLITUDE_KEYS, zip(args.state[::2], args.state[1::2])))
    for name, (keys, _) in _SECTIONS.items():
        flags = {key: getattr(args, f"{name}.{key}") for key in keys}
        flags = {key: value for key, value in flags.items() if value is not None}
        section = merged.get(name, {})
        # a section that is not a mapping is left for _section to reject
        if flags and isinstance(section, dict):
            merged[name] = {**section, **flags}
    return merged


# The first class an error is an instance of gives the exit code.
_EXIT_CODES = (
    (ConfigError, 2),
    ((InconsistentObservationError, NonInvertibleError), 4),
    (FaradaymeterError, 3),
    (ValueError, 2),
)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        data = {}
        if args.config is not None:
            try:
                with open(args.config, "r", encoding="utf-8") as handle:
                    data = _load_document(handle.read())
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
        return run(_config_from_mapping(_merge_flags(data, args)))
    except (FaradaymeterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
