"""Seeded query generators for the three benchmark workloads.

A workload is an endless sequence of rounds.  Round ``r`` of a workload run
with seed ``s`` is built from ``numpy.random.default_rng([s, r])``, so the
same seed always yields the same config documents, and a faster program
simply reaches later rounds instead of seeing repeated inputs.  The program
only ever receives the JSON documents; everything else a query carries is
what the output checks need to know about it.

A workload may also have a fixed-size, untimed probe, built from its own
stream of the seed, for behaviour that must be reported on every run but
cannot be part of the timed loop (see ``ExactScan.probe``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

AMPLITUDE_KEYS = ("alpha", "beta", "gamma", "delta")


@dataclass(frozen=True)
class Query:
    """One config document plus the facts its output is checked against.

    ``amps`` are the |RR>, |RL>, |LR>, |LL> amplitudes exactly as written
    into the document (``None`` for a theta sweep, whose states come from
    the axis).  ``work`` is the query's size in the workload's own unit:
    1 per exact query, trials per simulate query, points per sweep.
    """

    kind: str
    text: str
    work: int
    amps: tuple | None = None
    sigma: float = 0.0
    eta_a: float = 1.0
    trials: int = 0
    mixing: float = 1.0
    axis: str | None = None
    steps: int = 0


def _haar(rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    return vec / np.linalg.norm(vec)


def _pairs(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _state_section(amps) -> dict:
    return {key: _pairs(amp) for key, amp in zip(AMPLITUDE_KEYS, amps)}


def _as_amps(vec) -> tuple:
    return tuple(complex(*_pairs(z)) for z in vec)


def _seed64(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**64, dtype=np.uint64))


def _document(**fields) -> str:
    return json.dumps({"schema": "faradaymeter-config/1", **fields})


class Workload:
    """Base class: ``round(r)`` returns the queries of round ``r``."""

    name = ""
    #: Prefix of the figures the report prints under the workload's own names.
    prefix = ""
    work_unit = "queries"
    #: Name, unit and scale of a throughput figure in the workload's own work
    #: unit (work per second of query time), where that differs from queries.
    headline: tuple[str, str, float] | None = None

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def rng(self, round_index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, round_index])

    def round(self, round_index: int) -> list[Query]:
        raise NotImplementedError

    def probe(self) -> list[Query]:
        """The untimed probe queries of this seed; none by default."""
        return []


def _analytic(amps, sigma: float, eta: float) -> Query:
    text = _document(mode="analytic", state=_state_section(amps), sigma=sigma, eta_a=eta)
    return Query("analytic", text, 1, amps=amps, sigma=sigma, eta_a=eta)


class ExactScan(Workload):
    """Haar states, each with three analytic queries and one mixed-state oracle query.

    The timed queries use sigma = 0 at three detection efficiencies.  With
    sigma > 0 the leak-model inversion rejects the program's own exact
    output (``InconsistentObservationError``) for a small, seed-dependent
    share of Haar states: about 1% at sigma = 0.2; states near |LR> fail at
    any sigma > 0, and near-separable ones too when eta < 1.  A timed loop
    reaches a different number of states on every run, so those rejections
    would make the failure count of two runs of the same code disagree.  The
    sigma > 0 operating points therefore run as a fixed-size probe of every
    run: the same ``PROBE_STATES`` states for a seed, untimed, with their
    rejections reported by operating point and error class.
    """

    name = "exact-scan"
    prefix = "exact_"
    STATES_PER_ROUND = 64
    OPERATING_POINTS = ((0.0, 1.0), (0.0, 0.9), (0.0, 0.8))
    PROBE_POINTS = ((0.05, 0.9), (0.2, 1.0))
    PROBE_STATES = 512

    def round(self, round_index: int) -> list[Query]:
        rng = self.rng(round_index)
        queries = []
        for _ in range(self.STATES_PER_ROUND):
            vec = _haar(rng)
            amps = _as_amps(vec)
            queries += [_analytic(amps, sigma, eta) for sigma, eta in self.OPERATING_POINTS]
            mixing = float(rng.uniform(0.3, 1.0))
            rho = mixing * np.outer(vec, vec.conj()) + (1.0 - mixing) * np.eye(4) / 4.0
            matrix = [[_pairs(entry) for entry in row] for row in rho]
            text = _document(mode="oracle", density_matrix=matrix)
            queries.append(Query("oracle", text, 1, amps=amps, mixing=mixing))
        return queries

    def probe(self) -> list[Query]:
        # A spawn key keeps this stream apart from every round's.
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(1,)))
        queries = []
        for _ in range(self.PROBE_STATES):
            amps = _as_amps(_haar(rng))
            queries += [_analytic(amps, sigma, eta) for sigma, eta in self.PROBE_POINTS]
        return queries


class MonteCarloLong(Workload):
    """Four long simulate queries per round at eta = 0.9, sigma = 0.05."""

    name = "mc-long"
    prefix = "mc_"
    work_unit = "trials"
    headline = ("mc_mtrials_per_s", "Mtrials/s", 1e-6)
    TRIALS = 10_000_000
    SIGMA = 0.05
    ETA = 0.9

    def round(self, round_index: int) -> list[Query]:
        rng = self.rng(round_index)
        half = math.sqrt(0.5)
        # A near-separable state: C = sin(2 theta) close to 0.05, so stage-2
        # successes are rare.
        theta = 0.5 * math.asin(float(rng.uniform(0.045, 0.055)))
        states = [
            (0.0, half, -half, 0.0),
            _as_amps(_haar(rng)),
            _as_amps(_haar(rng)),
            (math.cos(theta), 0.0, 0.0, math.sin(theta)),
        ]
        queries = []
        for amps in states:
            amps = tuple(complex(a) for a in amps)
            text = _document(
                mode="simulate",
                state=_state_section(amps),
                trials=self.TRIALS,
                seed=_seed64(rng),
                sigma=self.SIGMA,
                eta_a=self.ETA,
            )
            queries.append(
                Query("simulate", text, self.TRIALS, amps=amps, sigma=self.SIGMA,
                      eta_a=self.ETA, trials=self.TRIALS)
            )
        return queries


class SweepDense(Workload):
    """One short-point sweep along each of the four axes per round."""

    name = "sweep-dense"
    prefix = "sweep_"
    work_unit = "points"
    headline = ("sweep_points_per_s", "1/s", 1.0)
    TRIALS = 20_000
    STEPS = 8

    def round(self, round_index: int) -> list[Query]:
        rng = self.rng(round_index)
        queries = []
        for axis in ("sigma", "eta_a", "theta", "trials"):
            sigma = float(rng.uniform(0.0, 0.1))
            eta = float(rng.uniform(0.8, 1.0))
            if axis == "sigma":
                sweep = {"axis": axis, "start": 0.0, "stop": float(rng.uniform(0.15, 0.3))}
            elif axis == "eta_a":
                sweep = {"axis": axis, "start": float(rng.uniform(0.5, 0.7)), "stop": 1.0}
            elif axis == "theta":
                sweep = {"axis": axis, "start": 0.0, "stop": math.pi / 2.0}
            else:
                sweep = {"axis": axis, "start": 1.0e4, "stop": 3.0e4}
            sweep["steps"] = self.STEPS
            fields = dict(mode="sweep", trials=self.TRIALS, seed=_seed64(rng), sigma=sigma,
                          eta_a=eta, sweep=sweep)
            amps = None
            if axis != "theta":
                amps = _as_amps(_haar(rng))
                fields["state"] = _state_section(amps)
            queries.append(
                Query("sweep", _document(**fields), self.STEPS, amps=amps, sigma=sigma,
                      eta_a=eta, trials=self.TRIALS, axis=axis, steps=self.STEPS)
            )
        return queries


WORKLOADS = {cls.name: cls for cls in (ExactScan, MonteCarloLong, SweepDense)}
