"""Import hygiene: each command loads only what it runs.

Package ``__init__`` files are lazy (``repro._lazy``) and the CLI imports
inside its handlers, so ``import repro.cli`` costs a few modules and the
read-side commands never load numpy.  Every check runs in a fresh
interpreter: inside this test process, a module imported by an earlier
test would hide both a leak and a missing import.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])
EXAMPLES = Path(__file__).resolve().parents[1] / "examples"

#: Runs ``repro.cli.main(argv)`` and prints its exit code and every
#: loaded module as one JSON line.
_CLI_PROBE = """
import io, json, sys
from repro.cli import main
rc = main(sys.argv[1:], out=io.StringIO())
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


def _run(args: list[str], cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=120,
    )


def _modules_after(code: str) -> set[str]:
    proc = _run(["-c", f"{code}\nimport json, sys; print(json.dumps(sorted(sys.modules)))"])
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _cli_modules(*argv: str, cwd: Path) -> set[str]:
    proc = _run(["-c", _CLI_PROBE, *argv], cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["rc"] == 0, out
    return set(out["modules"])


def _within(modules: set[str], *names: str) -> list[str]:
    """The ``modules`` that are one of ``names`` or inside one of them."""
    return sorted(
        m for m in modules if m in names or m.startswith(tuple(n + "." for n in names))
    )


@pytest.fixture(scope="module")
def saved_run(tmp_path_factory) -> Path:
    """A small ``repro simulate --save`` file, written by a fresh interpreter."""
    tmp = tmp_path_factory.mktemp("imports")
    proc = _run(
        ["-m", "repro", "simulate", "identity", "--workers", "4", "--save", "run.json"],
        cwd=tmp,
    )
    assert proc.returncode == 0, proc.stderr
    return tmp / "run.json"


def test_cli_import_loads_no_numpy_and_no_simulator():
    modules = _modules_after("import repro.cli")
    assert _within(modules, "numpy") == []
    heavy = [f"repro.{p}" for p in ("sim", "executive", "lang", "lint", "obs", "sweep")]
    assert _within(modules, *heavy) == []
    assert len(_within(modules, "repro")) <= 5


@pytest.mark.parametrize("command", ["profile", "export-trace"])
def test_read_side_commands_load_no_numpy(command, saved_run):
    modules = _cli_modules(command, str(saved_run), cwd=saved_run.parent)
    assert _within(modules, "numpy") == []


def test_simulate_sanitize_loads_no_front_end_and_no_sweep(tmp_path):
    modules = _cli_modules(
        "simulate", "casper", "--sanitize", "--save", "run.json", cwd=tmp_path
    )
    assert _within(modules, "repro.lang", "repro.sweep", "repro.obs") == []


@pytest.mark.parametrize(
    "code",
    [
        "import repro.executive",
        "import repro.executive.scheduler",
        "from repro.executive import run_program",
    ],
)
def test_executive_loads_no_front_end_linter_or_profiler(code):
    modules = _modules_after(code)
    assert _within(modules, "repro.lang", "repro.lint", "repro.obs") == []


def _packages() -> list[str]:
    found = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            found.append(info.name)
    return found


@pytest.mark.parametrize("package", _packages())
def test_lazy_exports_resolve(package):
    pkg = importlib.import_module(package)
    listing = dir(pkg)
    for name in pkg.__all__:
        assert getattr(pkg, name) is not None, name
        assert name in listing, name
    with pytest.raises(AttributeError):
        getattr(pkg, "no_such_export")
    # an export named like a submodule would turn into that module once
    # the submodule is imported, so which one a caller got would depend
    # on import order
    submodules = {info.name for info in pkgutil.iter_modules(pkg.__path__)}
    assert submodules.isdisjoint(pkg.__all__)


def test_forkserver_preload_names_the_modules_workers_run():
    modules = _modules_after(
        "from repro.sweep.pool import _PRELOAD\n"
        "import importlib\n"
        "for name in _PRELOAD: importlib.import_module(name)"
    )
    for needed in ("repro.executive.scheduler", "repro.sweep.grid", "repro.sweep.runner", "numpy"):
        assert needed in modules, needed


@pytest.mark.parametrize(
    "argv",
    [
        ["census"],
        ["leftover", "100", "8"],
        ["simulate", "identity", "--workers", "4"],
        ["stats", "identity", "--workers", "4"],
        ["gantt", "{run}", "--width", "40"],
        ["profile", "{run}"],
        ["export-trace", "{run}", "-o", "trace.json"],
        ["compile", str(EXAMPLES / "pipeline.pax")],
        ["lint", str(EXAMPLES / "pipeline.pax")],
        ["sweep", "identity", "--replications", "2", "--workers", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_runs_in_a_fresh_interpreter(argv, saved_run):
    argv = [a.format(run=saved_run) for a in argv]
    proc = _run(["-m", "repro", *argv], cwd=saved_run.parent)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
