"""Record the golden simulation digests in ``sim_digests.json``.

Each case in ``sim_digests.json`` is a plain-JSON description of one
``run_program`` call (workload, machine, overlap configuration,
extensions, fault plan) and the sha256 of what the run produced: both
result summaries, the recovery counters and the full persisted trace.
``tests/test_fastpath_differential.py`` and the ``simulate_throughput``
benchmark re-run the cases and compare digests.

Usage, from the repository root::

    PYTHONPATH=src python -m tests.golden.record            # re-record all
    PYTHONPATH=src python -m tests.golden.record CASE ...   # re-record some
    PYTHONPATH=src python -m tests.golden.record --check    # compare only

See ``README.md`` beside this file for when re-recording is legitimate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Any

from repro.core.overlap import OverlapConfig, OverlapPolicy, SplitStrategy
from repro.executive.extensions import Extensions
from repro.executive.scheduler import RunResult, run_program
from repro.executive.splitting import TaskSizer
from repro.faults.plan import (
    FaultPlan,
    ProcessorCrash,
    RecoveryPolicy,
    StragglerSlowdown,
    TransientGranuleError,
)
from repro.sim.machine import ExecutivePlacement
from repro.sim.persist import result_summary, trace_to_dict
from repro.sweep.runner import build_workload, sweep_summary

DIGESTS_PATH = Path(__file__).with_name("sim_digests.json")

_FAULT_KINDS = {
    "crash": ProcessorCrash,
    "transient": TransientGranuleError,
    "straggler": StragglerSlowdown,
}


def load_cases(path: Path = DIGESTS_PATH) -> dict[str, dict[str, Any]]:
    """Case id -> ``{"spec": ..., "digest": ...}``."""
    return json.loads(path.read_text(encoding="utf-8"))["cases"]


def run_kwargs(spec: dict[str, Any]) -> dict[str, Any]:
    """Translate a case spec into ``run_program`` keyword arguments."""
    kw: dict[str, Any] = {"seed": spec.get("seed", 0)}
    if "placement" in spec:
        kw["placement"] = ExecutivePlacement(spec["placement"])
    if "config" in spec:
        # policy and split strategy by value; every other key (group size,
        # target fraction, elevation) passes through as is
        cfg = dict(spec["config"])
        kw["config"] = OverlapConfig(
            policy=OverlapPolicy(cfg.pop("policy", OverlapPolicy.NEXT_PHASE.value)),
            split_strategy=SplitStrategy(
                cfg.pop("split_strategy", SplitStrategy.SUCCESSOR_TASK.value)
            ),
            **cfg,
        )
    if "sizer" in spec:
        kw["sizer"] = TaskSizer(**spec["sizer"])
    if "extensions" in spec:
        kw["extensions"] = Extensions(**spec["extensions"])
    if "faults" in spec:
        plan = spec["faults"]
        faults = tuple(
            _FAULT_KINDS[f["kind"]](**{k: v for k, v in f.items() if k != "kind"})
            for f in plan["faults"]
        )
        kw["faults"] = FaultPlan(seed=plan["seed"], faults=faults)
    if "recovery" in spec:
        kw["recovery"] = RecoveryPolicy(**spec["recovery"])
    return kw


def run_case(spec: dict[str, Any], **overrides: Any) -> RunResult:
    """Run one case; ``overrides`` are extra ``run_program`` arguments."""
    program = build_workload(spec["workload"], spec.get("params"))
    return run_program(program, spec.get("workers", 8), **run_kwargs(spec), **overrides)


def canonical(result: RunResult) -> bytes:
    """The byte-exact artifact a run is judged by."""
    doc = {
        "summary": sweep_summary(result),
        "run": result_summary(result),
        "recovery": [
            result.retries,
            result.reassignments,
            result.processor_failures,
            result.stalls,
        ],
        "trace": trace_to_dict(result.trace),
    }
    return json.dumps(doc, sort_keys=True, default=str).encode()


def digest(result: RunResult) -> str:
    return hashlib.sha256(canonical(result)).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", nargs="*", help="case ids to re-record (default: all)")
    parser.add_argument("--check", action="store_true", help="compare, write nothing")
    args = parser.parse_args(argv)

    doc = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    cases = doc["cases"]
    unknown = sorted(set(args.cases) - set(cases))
    if unknown:
        parser.error(f"unknown case id(s): {', '.join(unknown)}")
    changed = []
    for case_id in args.cases or sorted(cases):
        entry = cases[case_id]
        new = digest(run_case(entry["spec"]))
        if new != entry["digest"]:
            changed.append(case_id)
            print(f"changed: {case_id}")
            entry["digest"] = new
    if args.check:
        print(f"{len(changed)} of {len(args.cases or cases)} digest(s) differ")
        return 1 if changed else 0
    DIGESTS_PATH.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"recorded {len(args.cases or cases)} case(s), {len(changed)} changed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
