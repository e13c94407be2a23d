"""The docstring examples of every ``repro`` module that has any.

A module is collected when its source holds a ``>>>`` prompt, so a new
example is checked without being listed here.
"""

from __future__ import annotations

import doctest
import importlib
from pathlib import Path

import pytest

import repro

ROOT = Path(repro.__file__).parent


def modules_with_examples() -> list[str]:
    names = []
    for path in sorted(ROOT.rglob("*.py")):
        if ">>>" not in path.read_text(encoding="utf-8"):
            continue
        parts = path.relative_to(ROOT.parent).with_suffix("").parts
        names.append(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    return names


MODULES = modules_with_examples()


def test_examples_are_collected():
    assert {"repro", "repro.sim.engine", "repro.core.granule"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} example(s) failed in {name}"
