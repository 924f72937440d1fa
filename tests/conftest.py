"""Make child processes import the package from the tree under test.

``pythonpath`` in ``pyproject.toml`` puts ``src`` on this process's import
path only; the determinism tests run ``python -m faradaymeter`` as a child
process, which reads its import path from the environment instead.
"""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _children_import_src():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", SRC, prepend=os.pathsep)
        yield
