"""Record the golden read-side digests in ``read_digests.json``.

Each case is one saved run, made in process by ``repro simulate ...
--save RUN.json``, and the sha256 of what three read commands make of
it: ``repro profile RUN.json --json`` (standard output), ``repro
export-trace RUN.json`` (the Chrome file) and ``repro export-trace
RUN.json --format jsonl`` (the spans file).  The simulation digests in
``sim_digests.json`` pin what a run writes; these pin what the profiler
and the exporters read back from it.  ``tests/test_read_golden.py``
re-runs every case.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.golden.reads            # re-record all
    PYTHONPATH=src python -m tests.golden.reads --check    # compare only

See ``README.md`` beside this file for when re-recording is legitimate.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli

DIGESTS_PATH = Path(__file__).with_name("read_digests.json")

#: What a case digests, in the order :func:`read_digests` reports them.
OUTPUTS = ("profile", "chrome", "jsonl")


def load_cases(path: Path = DIGESTS_PATH) -> dict[str, dict]:
    """Case id -> ``{"simulate": argv, "digests": {output: sha256}}``."""
    return json.loads(path.read_text(encoding="utf-8"))["cases"]


def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    rc = cli(argv, out=buf)
    if rc != 0:
        raise RuntimeError(f"`repro {' '.join(argv)}` exited {rc}:\n{buf.getvalue()}")
    return buf.getvalue()


def read_digests(simulate: list[str], workdir: Path) -> dict[str, str]:
    """Save the run ``simulate`` describes under ``workdir`` and digest
    each of :data:`OUTPUTS` read from it."""
    run = str(workdir / "RUN.json")
    chrome, jsonl = workdir / "out.trace.json", workdir / "out.spans.jsonl"
    _cli(["simulate", *simulate, "--save", run])
    profile = _cli(["profile", run, "--json"]).encode()
    _cli(["export-trace", run, "-o", str(chrome)])
    _cli(["export-trace", run, "--format", "jsonl", "-o", str(jsonl)])
    outputs = {"profile": profile, "chrome": chrome.read_bytes(), "jsonl": jsonl.read_bytes()}
    return {name: hashlib.sha256(outputs[name]).hexdigest() for name in OUTPUTS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare, write nothing")
    args = parser.parse_args(argv)

    doc = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    changed = []
    for case_id, entry in sorted(doc["cases"].items()):
        with tempfile.TemporaryDirectory() as tmp:
            new = read_digests(entry["simulate"], Path(tmp))
        for name, value in new.items():
            if entry["digests"].get(name) != value:
                changed.append(f"{case_id}:{name}")
                print(f"changed: {case_id}:{name}")
        entry["digests"] = new
    total = len(OUTPUTS) * len(doc["cases"])
    if args.check:
        print(f"{len(changed)} of {total} digest(s) differ")
        return 1 if changed else 0
    DIGESTS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {total} digest(s), {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
