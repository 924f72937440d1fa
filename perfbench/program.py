"""Loads the program under test from the checkout and builds a workload's set-up.

The benchmark measures the ``src/`` tree next to it and nothing else: an
installed copy of the package elsewhere on the path is never used, and a
checkout without ``src/faradaymeter`` is an error.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingProgram(RuntimeError):
    """The checkout holds no faradaymeter sources to measure."""


def load_cli():
    """Import ``faradaymeter.cli`` from this checkout's ``src/``."""
    if not (SRC / "faradaymeter" / "cli.py").is_file():
        raise MissingProgram(f"no program to measure: {SRC / 'faradaymeter'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("faradaymeter.cli")
    if Path(cli.__file__).resolve().parent != SRC / "faradaymeter":
        raise MissingProgram(f"faradaymeter was imported from {cli.__file__}, not from {SRC}")
    return cli


def prepare(workload_name: str, seed: int):
    """Everything that happens before the first timed query: imports and round 0."""
    cli = load_cli()
    workload = WORKLOADS[workload_name](seed)
    return cli, workload, workload.round(0)
