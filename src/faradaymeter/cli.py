"""Command-line front end: config ingestion, dispatch, structured output.

One config format (JSON, schema ``faradaymeter-config/1``) and one output
record format (JSON, schema ``faradaymeter-record/1``) are supported.  Five
modes exist: ``analytic`` evaluates the protocol exactly, ``simulate`` runs
the Monte Carlo estimator, ``oracle`` reports reference concurrences,
``phases`` evaluates the cavity reflection phases, and ``sweep`` tabulates
simulation results along one parameter axis as delimited text.

Exit codes: 0 success, 2 configuration problems, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .errors import ConfigError, FaradaymeterError, NumericalFailureError
from .estimator import RNG_ID, TrialConfig, estimate, estimate_all
from .faraday import CavityParams, perturbed_phases, phases_from_params
from .imperfect import ImperfectionParams
from .oracle import concurrence_mixed, concurrence_pure, concurrence_pure_general
from .protocol import TwoPhotonState, _norm, _scaled, run_analytic

log = logging.getLogger("faradaymeter")
# used as a library, this logger prints nothing unless its caller configures
# logging; main does, through basicConfig.  A phase-error UserWarning still
# goes through warnings, naming the caller's line, except under main.
log.addHandler(logging.NullHandler())

CONFIG_SCHEMA = "faradaymeter-config/1"
RECORD_SCHEMA = "faradaymeter-record/1"

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
_DENSITY_FORM = "density_matrix must be a 4x4 array of [re, im] pairs"

# Key tables: each key of a config section and the type its value is read
# as.  Parsing, the command-line flags and the record echo all read these.
_AMPLITUDE_KEYS = dict.fromkeys(("alpha", "beta", "gamma", "delta"), complex)
_CAVITY_KEYS = dict.fromkeys(("omega_c", "omega_p", "omega_0", "kappa", "gamma", "coupling"), float)
_SWEEP_KEYS = {"axis": str, "start": float, "stop": float, "steps": int}
# A sweep builds all its points and CSV rows at once.
_MAX_SWEEP_STEPS = 10**6

# Top-level scalars: type and default.  Their ranges belong to the types
# that run them, ImperfectionParams and TrialConfig.
_SCALARS = {"trials": (int, DEFAULT_TRIALS), "seed": (int, 0), "eta_a": (float, 1.0),
            "sigma": (float, 0.0)}
# The inputs some mode reads.  A config that gives several its mode does not
# read is rejected for the first of them in this order.
_INPUTS = ("sweep", "cavity", "density_matrix", "state", *_SCALARS)
_TOP_KEYS = {"schema", "mode", "out", *_INPUTS}


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
        if self.steps > _MAX_SWEEP_STEPS:
            raise ConfigError(f"sweep.steps must be at most {_MAX_SWEEP_STEPS}, got {self.steps!r}")
        for key in ("start", "stop"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"sweep.{key} must be finite, got {getattr(self, key)!r}")

    def values(self) -> list[float]:
        """The ``steps`` evenly spaced points, bit for bit ``np.linspace``'s."""
        step = (self.stop - self.start) / (self.steps - 1)
        return [k * step + self.start for k in range(self.steps - 1)] + [float(self.stop)]


# The sections read through a key table, and the prefix of the flags that
# set their keys one for one (cavity.omega_c is --omega-c, sweep.axis is
# --sweep-axis).
_SECTIONS = {"cavity": (_CAVITY_KEYS, "--"), "sweep": (_SWEEP_KEYS, "--sweep-")}


class RunConfig(NamedTuple):
    """Fully validated description of one command invocation."""

    mode: str
    trials: int
    seed: int
    eta_a: float
    sigma: float
    out: str | None
    state: TwoPhotonState | None
    density_matrix: np.ndarray | None
    cavity: CavityParams | None
    sweep: SweepSpec | None


def _too_large(context: str) -> ConfigError:
    # an integer beyond the float range, which JSON allows
    return ConfigError(f"{context} is too large for a float")


def _require(data: dict, key: str, kind, context: str):
    """``data[key]`` read as ``kind``."""
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise _too_large(f"{context}.{key}") from None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{context}.{key} has the wrong type: expected {kind.__name__}")
    return value


# The number types a document's values come as, bool (a subclass of int) left out.
_REALS = (int, float)


def _parts_from(value, context: str):
    """The real and imaginary parts of a number or an [re, im] pair, as floats."""
    # values come from json.loads or from float flags, so exact types suffice
    if type(value) is list and len(value) == 2 and type(value[0]) is type(value[1]) is float:
        return value  # the form a document mostly gives
    try:
        if type(value) in _REALS:
            return float(value), 0.0
        if (type(value) in (list, tuple) and len(value) == 2
                and type(value[0]) in _REALS and type(value[1]) in _REALS):
            return float(value[0]), float(value[1])
    except OverflowError:
        raise _too_large(context) from None
    raise ConfigError(f"{context} must be a number or an [re, im] pair")


def _section(data, keys: dict, context: str) -> dict:
    """The values of a section that must hold exactly the keys of its table."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a mapping with keys {tuple(keys)}")
    if data.keys() != keys.keys():
        for problem, names in (("unknown", set(data) - set(keys)),
                               ("missing", set(keys) - set(data))):
            if names:
                raise ConfigError(f"{problem} key {context}.{sorted(names)[0]}")
    return {key: _require(data, key, kind, context) for key, kind in keys.items()}


def _state_from(data) -> TwoPhotonState:
    """The state of a ``state`` section, divided by its norm as numpy divides.

    The norm adds the squares in numpy's order, ``((re_a^2 + re_g^2) +
    (re_b^2 + re_d^2)) + (the same of the imaginary parts)``.
    """
    if not isinstance(data, dict) or data.keys() != _AMPLITUDE_KEYS.keys():
        _section(data, _AMPLITUDE_KEYS, "state")  # raises the section's error
    amps = [complex(*_parts_from(data[key], f"state.{key}")) for key in _AMPLITUDE_KEYS]
    nrm = _norm(amps)
    deviation = abs(nrm - 1.0)
    # written so that a NaN norm fails the test
    if not deviation <= _RENORM_TOL:
        raise ConfigError(
            f"state amplitudes have norm {nrm!r}; beyond the 1e-3 auto-normalization band"
        )
    if deviation > _EXACT_NORM_TOL:
        log.warning("state amplitudes renormalized from norm %r", nrm)
    return TwoPhotonState(*_scaled(amps, nrm))


def _density_from(data) -> np.ndarray:
    """The matrix of a ``density_matrix`` section, its [re, im] parts read in one pass."""
    parts: list[float] = []
    starts: list[int] = []
    try:
        for row in data:
            starts.append(len(parts))
            for entry in row:
                parts += _parts_from(entry, "density_matrix entry")
    except TypeError:  # iterating what is not a list
        where = f"row {len(starts) - 1}" if starts else "the section"
        raise ConfigError(f"{_DENSITY_FORM}: {where} is not a list") from None
    except ConfigError as exc:
        raise ConfigError(f"{_DENSITY_FORM}: {exc}") from None
    widths = [(end - start) // 2 for start, end in zip(starts, [*starts[1:], len(parts)])]
    for index, width in enumerate(widths):
        if width != widths[0]:
            raise ConfigError(f"{_DENSITY_FORM}: row {index} has {width} entries, not {widths[0]}")
    shape = (len(widths), widths[0]) if widths else (0,)
    if shape != (4, 4):
        raise ConfigError(f"density_matrix must be 4x4, got shape {shape}")
    return np.array(parts).view(complex).reshape(4, 4)


def _config_from_mapping(data: dict) -> RunConfig:
    if not data.keys() <= _TOP_KEYS:
        raise ConfigError(f"unknown config key {sorted(data.keys() - _TOP_KEYS)[0]!r}")
    if data.get("schema", CONFIG_SCHEMA) != CONFIG_SCHEMA:
        raise ConfigError(f"schema must be {CONFIG_SCHEMA!r}, got {data['schema']!r}")
    if "mode" not in data:
        raise ConfigError("missing key 'mode' (give it in the config or on the command line)")
    mode = data["mode"]
    if mode not in MODES:
        raise ConfigError(f"mode must be one of {MODES}, got {mode!r}")

    # in the order of the fields of RunConfig
    fields = [mode]
    for key, (kind, default) in _SCALARS.items():
        fields.append(_require(data, key, kind, "config") if key in data else default)
    fields.append(_require(data, "out", str, "config") if "out" in data else None)
    fields.append(_state_from(data["state"]) if "state" in data else None)
    fields.append(_density_from(data["density_matrix"]) if "density_matrix" in data else None)
    for name, build in (("cavity", CavityParams), ("sweep", SweepSpec)):
        fields.append(None)
        if name in data:
            try:
                fields[-1] = build(**_section(data[name], _SECTIONS[name][0], name))
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from None

    config = RunConfig(*fields)
    _check_mode_requirements(config, data.keys())
    _check_ranges(config)
    return config


def _check_mode_requirements(config: RunConfig, given) -> None:
    """Reject a config that lacks what its mode needs or gives what it ignores.

    ``given`` holds the top-level keys the document and flags set.
    """
    mode = _MODES[config.mode]
    for name in _INPUTS:
        if name in given and name not in mode.reads:
            raise ConfigError(
                f"{name!r} is not read in mode {config.mode!r}, which would ignore it"
            )
    theta = config.sweep is not None and config.sweep.axis == "theta"
    if theta and "state" in given:
        raise ConfigError(
            "'state' is not read in mode 'sweep' along 'theta', whose points replace it"
        )
    for name in mode.needs:
        if getattr(config, name) is None and not (theta and name == "state"):
            raise ConfigError(f"mode {config.mode!r} needs {name!r} (in the config or by flag)")
    if config.mode == "oracle" and (config.state is None) == (config.density_matrix is None):
        raise ConfigError("mode 'oracle' needs exactly one of 'state' or 'density_matrix'")
    swept = config.sweep.axis if config.sweep is not None else None
    if swept in _SCALARS and swept in given:
        log.warning("%s = %r is not run: the sweep along %r replaces it at every point",
                    swept, getattr(config, swept), swept)


def _check_ranges(config: RunConfig) -> None:
    """Build the types that own the ranges of the scalars the mode of ``config`` reads.

    A sweep along a scalar builds the runs of its end points instead of the
    top-level run, whose value of the axis no point reads: every range is an
    interval, so the end points cover the points between.  Its first end
    point is built at the seed as given, since the points' seeds wrap.
    """
    reads = _MODES[config.mode].reads
    sweep = config.sweep
    context = ""
    try:
        if sweep is not None and sweep.axis in _SCALARS:
            context = "sweep: "
            _trial_config(config, value=sweep.start)
            _trial_config(config, sweep.steps - 1, sweep.stop)
        elif "trials" in reads:
            _trial_config(config)
        elif "eta_a" in reads:
            ImperfectionParams(config.eta_a, config.sigma)
    except ValueError as exc:
        raise ConfigError(f"{context}{exc}") from None


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


def _echo_inputs(config: RunConfig) -> dict:
    """The inputs the mode reads, defaults included, as a config that replays them."""
    inputs: dict = {"mode": config.mode}
    for key in _MODES[config.mode].reads:
        value = getattr(config, key)
        if value is None:
            continue
        if key == "state":
            value = {name: [amp.real, amp.imag]
                     for name, amp in zip(_AMPLITUDE_KEYS, value.amplitudes())}
        elif key == "density_matrix":
            # each complex entry as its [re, im] pair
            value = value.view(float).reshape(4, 4, 2).tolist()
        elif key in _SECTIONS:
            value = {name: getattr(value, name) for name in _SECTIONS[key][0]}
        inputs[key] = value
    if config.out is not None:
        inputs["out"] = config.out
    return inputs


_float_repr = float.__repr__


def _record_tree(config: RunConfig, results: dict) -> dict:
    metadata = {"tool": "faradaymeter", "version": __version__}
    if config.mode == "simulate":
        # the counts depend on the generator and draw layout, so name them
        metadata["rng"] = RNG_ID
    return {
        "schema": RECORD_SCHEMA,
        "mode": config.mode,
        "inputs": _echo_inputs(config),
        "results": results,
        "metadata": metadata,
    }


def _written(record: dict) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _record(config: RunConfig, results: dict) -> str:
    """The record text: ``json.dumps(record, indent=2, sort_keys=True)`` and a newline.

    An analytic or oracle record without ``out`` is filled into its layout,
    which holds those bytes.  Its numbers go in json's order, which sorts
    every key: the scalar inputs (only analytic has any, sorting before
    ``state``), the [re, im] pairs of the state (alpha, beta, delta, gamma)
    or of the matrix, then the results.  Each is a finite float: parsing
    checks the state's norm, eta_a and sigma, the oracle rejects a
    non-finite matrix, and every result is a concurrence or a product,
    ratio, clamp or square root of stage weights.
    """
    if config.out is not None or config.mode not in ("analytic", "oracle"):
        return _written(_record_tree(config, results))
    state = config.state
    if state is None:
        layout, scalars, floats = _layout(config.mode, "density_matrix")
        inputs = config.density_matrix.view(float).ravel().tolist()
    else:
        layout, scalars, floats = _layout(config.mode, "state")
        a, b, c, d = state.alpha, state.beta, state.delta, state.gamma_c
        inputs = (a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag)
    numbers = (*map(config.__getattribute__, scalars), *inputs, *map(results.__getitem__, floats))
    return layout % tuple(map(_float_repr, numbers))


# A string no record holds: the leaf of every number in a placeholder record.
_SLOT = "\x00"
# The input of a placeholder record: a state of unit norm or a matrix of unit trace.
_PLACEHOLDERS = {"state": dict.fromkeys(_AMPLITUDE_KEYS, 0.5),
                 "density_matrix": [[0.25 * (row == col) for col in range(4)] for row in range(4)]}


def _slotted(value):
    """``value`` with every float leaf replaced by ``_SLOT``."""
    kind = type(value)
    if kind is float:
        return _SLOT
    if kind is dict:
        return {key: _slotted(item) for key, item in value.items()}
    if kind is list:
        return [_slotted(item) for item in value]
    return value


@functools.cache
def _layout(mode: str, given: str) -> tuple[str, tuple[str, ...], tuple[str, ...]]:
    """The text of a ``mode`` record of input ``given`` without ``out``, a ``%s`` at each number.

    ``_written`` writes it, from a placeholder record whose every number is
    ``_SLOT``, so ``json.dumps`` is the one JSON spelling of every record.
    Built once per process.  Also returned: the keys of the record's scalar
    inputs and float results, each sorted.
    """
    config = _config_from_mapping({"mode": mode, given: _PLACEHOLDERS[given]})
    results = _MODES[mode].run(config)
    record = _record_tree(config, results)
    text = _written(_slotted(record)).replace("%", "%%").replace(json.dumps(_SLOT), "%s")
    scalars = tuple(key for key in sorted(record["inputs"]) if key in _SCALARS)
    return text, scalars, tuple(key for key in sorted(results) if type(results[key]) is float)


def _run_analytic(config: RunConfig) -> dict:
    outcome = run_analytic(config.state, perturbed_phases(config.sigma))
    eta = config.eta_a
    return {
        **vars(outcome),
        "p1_observed": eta**2 * outcome.p1,
        "p2_observed": eta * outcome.p2,
        "p_total_observed": eta**3 * outcome.p_total,
        # p_total_observed / eta**3 is p_total, so dividing out eta leaves c_estimate
        "c_corrected": min(1.0, outcome.c_estimate),
        "oracle_c": concurrence_pure(config.state),
    }


def _trial_config(
    config: RunConfig, index: int | None = None, value: float | None = None
) -> TrialConfig:
    """The Monte Carlo run of ``simulate`` or, given ``index``, of sweep point ``index``.

    The run takes the state, trials, seed, eta_a and sigma of ``config``.
    A sweep point at ``value`` replaces the input of its axis (theta runs
    cos(theta)|RR> + sin(theta)|LL>) and runs at seed ``(seed + index) mod
    2**64``; without ``index`` the seed is taken as given.
    """
    state, trials, seed = config.state, config.trials, config.seed
    eta_a, sigma = config.eta_a, config.sigma
    if index is not None:
        seed = (seed + index) % 2**64
    if value is not None:
        axis = config.sweep.axis
        if axis == "theta":
            state = TwoPhotonState(math.cos(value), 0.0, 0.0, math.sin(value))
        elif axis == "trials":
            trials = int(round(value))
        elif axis == "eta_a":
            eta_a = value
        else:
            sigma = value
    # the imperfections first, so that a bad sigma raises their error
    imperfections = ImperfectionParams(eta_a, sigma)
    return TrialConfig(trials, seed, state, perturbed_phases(sigma), imperfections)


def _run_simulate(config: RunConfig) -> dict:
    report = estimate(_trial_config(config))
    return {**vars(report), "oracle_c": concurrence_pure(config.state)}


def _run_oracle(config: RunConfig) -> dict:
    if config.state is not None:
        return {
            "input_kind": "pure",
            "concurrence": concurrence_pure(config.state),
            "concurrence_general": concurrence_pure_general(config.state.amplitudes()),
        }
    try:
        value = concurrence_mixed(config.density_matrix)
    except ValueError as exc:
        raise ConfigError(f"density_matrix: {exc}") from None
    return {"input_kind": "mixed", "concurrence": value}


def _run_phases(config: RunConfig) -> dict:
    phases = phases_from_params(config.cavity)
    return {**vars(phases), "rotation_angle": phases.rotation_angle}


def _run_sweep(config: RunConfig) -> str:
    values = config.sweep.values()
    points = [_trial_config(config, index, value) for index, value in enumerate(values)]
    reports = estimate_all(points)
    # every cell is a finite float and no header name needs quoting, so these
    # lines are the ones csv.writer would write
    lines = [",".join(SWEEP_COLUMNS)]
    for index, (value, point, report) in enumerate(zip(values, points, reports)):
        row = (value, report.p1_hat, report.p2_hat, report.p_total_hat, report.c_hat,
               report.corrected_c_hat, concurrence_pure(point.state), report.c_low, report.c_high)
        if not all(map(math.isfinite, row)):
            raise NumericalFailureError(f"non-finite value in sweep row {index}: {row!r}")
        lines.append(",".join(map(float.__repr__, row)))
    return "\n".join(lines) + "\n"


class _Mode(NamedTuple):
    reads: tuple[str, ...]
    needs: tuple[str, ...]
    run: Callable[[RunConfig], dict | str]


# Each mode: the inputs it reads, which are the only ones it accepts and the
# ones its record echoes; the inputs it cannot run without; and its runner,
# which returns the results of a record or, for a sweep, the whole payload.
# Two rules stay in code: an oracle reads exactly one of state and
# density_matrix, and a theta sweep builds the state of every point itself.
_MODES = {
    "analytic": _Mode(("state", "eta_a", "sigma"), ("state",), _run_analytic),
    "simulate": _Mode(("state", *_SCALARS), ("state",), _run_simulate),
    "oracle": _Mode(("state", "density_matrix"), (), _run_oracle),
    "phases": _Mode(("cavity",), ("cavity",), _run_phases),
    "sweep": _Mode(("sweep", "state", *_SCALARS), ("sweep", "state"), _run_sweep),
}
MODES = tuple(_MODES)


def run(config: RunConfig, stream=None) -> int:
    """Execute one validated config, writing the payload to ``stream``."""
    stream = sys.stdout if stream is None else stream
    payload = _MODES[config.mode].run(config)
    if isinstance(payload, dict):
        payload = _record(config, payload)
    if config.out is not None:
        # before stdout, so that a run that cannot keep its payload prints none
        try:
            with open(config.out, "w", encoding="utf-8", newline="") as sink:
                sink.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write out {config.out!r}: {exc}") from None
    stream.write(payload)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faradaymeter",
        description="Concurrence measurement via cavity-assisted parity checks: "
        "exact protocol evaluation, Monte Carlo estimation and reference oracles.",
    )
    parser.add_argument("mode", nargs="?", choices=MODES, metavar="mode",
                        help="one of: " + ", ".join(MODES))
    parser.add_argument("--config", metavar="PATH", help="JSON config document")
    parser.add_argument("--trials", type=int, metavar="N")
    parser.add_argument("--seed", type=int, metavar="S")
    parser.add_argument("--eta", dest="eta_a", type=float, metavar="X",
                        help="detection efficiency")
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
    if args.mode is not None:
        merged["mode"] = args.mode
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
    (FaradaymeterError, 3),
    (ValueError, 2),
)


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, format="%(levelname)s: %(message)s")
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # a warning of the run prints as the logger's other notices do
        warnings.showwarning = lambda message, *_: log.warning("%s", message)
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
