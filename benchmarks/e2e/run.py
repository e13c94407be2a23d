"""End-to-end benchmark of the rundown simulator.

Run from the repository root::

    python3 benchmarks/e2e/run.py [--seed S] [--out FILE] [--quick]
    python3 benchmarks/e2e/run.py --workload NAME --seed S --seconds T --trace 0|1
    python3 benchmarks/e2e/run.py --record-golden

Without ``--workload`` every workload runs in turn, each in its own fresh
process, followed by a traced pass over every workload for the per-layer
numbers.  With ``--workload`` one measurement runs: ``--trace 0`` gives the
end-to-end metrics, ``--trace 1`` the per-layer ledger.  Either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when any op
failed its check and 2 when the repository's ``src/`` is missing.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OPS = HERE / "e2e_ops.py"
sys.path.insert(0, str(HERE))

from e2e_ops import GOLDEN, WORKLOADS  # noqa: E402

#: Layers whose ledger is in BENCHMARK.json: the ones every workload reaches.
LEDGER_LAYERS = (
    "core.granule",
    "core.mapping",
    "core.enablement",
    "executive",
    "sim.engine",
    "sim.machine",
    "sim.trace",
    "numpy",
)

END_TO_END = {
    "setup_s": "s",
    "sims_per_s": "1/s",
    "tasks_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in LEDGER_LAYERS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "executive.tasks": "count",
    "executive.useful_frac": "fraction",
    "trace.overhead_x": "x",
}

#: Op seeds 0..N-1 recorded in golden.json per workload: enough to cover
#: every op of a full-length run for small ``--seed`` values.
GOLDEN_SEEDS = {"rundown-dispatch": 128, "indirect-enable": 48, "param-grid": 24, "cli-check": 24}

#: Fresh processes per end-to-end measurement; each is one ``setup_s`` sample.
SETUP_LAUNCHES = 3
#: Cold ``import repro.cli`` processes timed for the ``cli-check`` set-up:
#: each takes ~0.3 s, so more of them than launches steady the median.
IMPORT_PROBES = 7
#: Wall-clock limit of one measuring process, seconds.
CHILD_TIMEOUT = 150.0
#: AF_UNIX socket paths (the warm pool's forkserver listens on one under
#: TMPDIR) are limited to 107 bytes; longer scratch paths fall back to the
#: system temporary directory.
MAX_TMP_PATH = 60


class ChildFailed(RuntimeError):
    pass


def _default_seconds() -> int:
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 15


def _env(tmp: Path) -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    if len(str(tmp)) <= MAX_TMP_PATH:
        env["TMPDIR"] = str(tmp)
    return env


def _child(argv: list[str], tmp: Path, timeout: float) -> tuple[float, dict | None]:
    """Launch one process; returns (seconds until READY, RESULT payload)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=_env(tmp), stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    ready, result = None, None
    try:
        assert proc.stdout is not None
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if rc != 0:
        raise ChildFailed(f"{' '.join(argv[1:3])} exited with code {rc}")
    return (ready if ready is not None else time.perf_counter() - t0), result


def _ops_argv(workload: str, seed: int, tmp: Path, *extra: str) -> list[str]:
    return [sys.executable, str(OPS), workload, "--seed", str(seed), "--tmp", str(tmp), *extra]


def _import_probe(tmp: Path) -> float:
    """A cold ``python -c "import repro.cli"``, timed from launch to exit.

    Through ``_child``, whose wait blocks: ``subprocess.run`` with a timeout
    polls for the exit in 50 ms steps, which showed in the readings.
    """
    return _child([sys.executable, "-c", "import repro.cli"], tmp, 60.0)[0]


def tail(latencies: list[float]) -> tuple[int, float, int] | None:
    """The highest percentile with at least ten samples beyond it:
    ``(percentile, value, samples beyond)``."""
    n = len(latencies)
    for pct in (99, 95, 90, 75, 50):
        beyond = int(n * (100 - pct) / 100)
        if beyond >= 10:
            return pct, statistics.quantiles(latencies, n=100)[pct - 1], beyond
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool, tmp: Path) -> dict:
    """One measurement of one workload; the record ``--out`` files hold.

    The end-to-end measurement splits ``seconds`` over ``SETUP_LAUNCHES``
    fresh processes run one after another, numbering ops on from one launch
    to the next, and pools their ops: each launch is one ``setup_s`` sample,
    and a slow spell of the host or one process's memory layout weighs on a
    third of the ops only.
    """
    rec: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    launches = 1 if quick or trace else SETUP_LAUNCHES
    raws, setups = [], []
    try:
        first = 0
        for _ in range(launches):
            args = ["--seconds", str(seconds / launches)] + (["--trace"] if trace else [])
            ready, raw = _child(_ops_argv(workload, seed + first, tmp, *args), tmp, CHILD_TIMEOUT)
            if raw is None:
                raise ChildFailed(f"{workload} printed no result")
            first += raw["attempted"]
            raws.append(raw)
            setups.append(ready)
        if workload == "cli-check" and not trace:
            # a shell user's set-up is the interpreter plus `import repro.cli`
            setups = [_import_probe(tmp) for _ in range(1 if quick else IMPORT_PROBES)]
    except (ChildFailed, subprocess.SubprocessError, OSError) as exc:
        rec.update(attempted=1, failed=1, problems=[str(exc)], correct=False, metrics={}, extras={})
        return rec
    attempted = sum(r["attempted"] for r in raws)
    failed = sum(r["failed"] for r in raws)
    problems = [p for r in raws for p in r["problems"]][:10]
    if trace:
        metrics, extras = _per_layer(raws[0])
    else:
        metrics, extras = _end_to_end(workload, raws, setups)
    rec.update(attempted=attempted, failed=failed, problems=problems, correct=failed == 0,
               metrics=metrics, extras=extras)
    return rec


def _units(values: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _median_rate(facts: list[dict], key: str) -> float:
    """Median over the checked timed ops of ``key`` per second of op time.

    A median, not total work over total time: one op stretched by the host
    moves it no more than it moves ``latency_p50_s``.
    """
    return statistics.median(f[key] / f["seconds"] for f in facts) if facts else 0.0


def _end_to_end(workload: str, raws: list[dict], setups: list[float]) -> tuple[dict, dict]:
    lat = [t for r in raws for t in r["latencies"]]
    facts = [f for r in raws for f in r["facts"]]
    values = {
        "setup_s": statistics.median(setups),
        "sims_per_s": _median_rate(facts, "sims"),
        "tasks_per_s": _median_rate(facts, "tasks"),
        "latency_p50_s": statistics.median(lat),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in raws),
    }
    metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    extras = _units(WORKLOADS[workload].extras(facts)) if facts else {}
    extras["ops"] = {"value": len(lat), "unit": "count"}
    extras["setup_launches"] = {"value": len(setups), "unit": "count"}
    t = tail(lat)
    if t is not None:
        extras[f"latency_p{t[0]}_s"] = {"value": t[1], "unit": "s", "beyond": t[2]}
    if facts and all(f["records"] is not None for f in facts):
        extras["events_per_s"] = {"value": _median_rate(facts, "records"), "unit": "1/s"}
    return metrics, extras


def _per_layer(raw: dict) -> tuple[dict, dict]:
    layers = raw["layers"]
    values = {
        **{f"{l}.{kind}": layers[l][kind] for l in LEDGER_LAYERS for kind in ("self_s", "calls")},
        "executive.tasks": raw["tasks_per_op"],
        "executive.useful_frac": raw["useful_frac"],
        "trace.overhead_x": raw["overhead_x"],
    }
    metrics = {k: {"value": values[k], "unit": PER_LAYER[k]} for k in PER_LAYER}
    extras = _units(raw["extras"])
    for l in layers:
        if l not in LEDGER_LAYERS:
            extras[f"{l}.self_s"] = {"value": layers[l]["self_s"], "unit": "s"}
            extras[f"{l}.calls"] = {"value": layers[l]["calls"], "unit": "count"}
    serial = raw["untraced_round_s"]
    extras["trace.untraced_op_s"] = {"value": serial, "unit": "s"}
    if "sweep.pool_s" in extras:
        extras["sweep.serial_s"] = {"value": serial, "unit": "s"}
        extras["sweep.pool_speedup"] = {"value": serial / extras["sweep.pool_s"]["value"], "unit": "x"}
    return metrics, extras


def result_line(rec: dict) -> dict:
    return {
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": rec["metrics"],
    }


def print_report(rec: dict) -> None:
    kind = "per-layer (traced pass)" if rec["trace"] else "end-to-end"
    print(f"== {rec['workload']}  seed={rec['seed']}  {kind}  "
          f"attempted={rec['attempted']} failed={rec['failed']}")
    for name, m in {**rec["metrics"], **rec["extras"]}.items():
        note = f"  ({m['beyond']} samples beyond)" if "beyond" in m else ""
        print(f"   {name:<32} {m['value']:>16.6g} {m['unit']}{note}")
    if "latency_p50_s" in rec["metrics"]:
        print(f"   latency_p50_s is the median of {rec['extras']['ops']['value']} ops")
    for p in rec["problems"]:
        print(f"   FAILED: {p}")


def host_facts() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_sha": sha,
    }


def record_golden(tmp: Path) -> None:
    digests = {}
    for workload, n in GOLDEN_SEEDS.items():
        print(f"recording {n} golden digests for {workload}", flush=True)
        _ready, raw = _child(
            _ops_argv(workload, 0, tmp, "--record-golden", str(n)), tmp, 900.0
        )
        digests[workload] = raw["golden"]
    doc = {
        "about": "sha256 per op seed: saved run (summary + trace, succ-split labels "
        "renumbered) or, for param-grid, GridReport.to_json() of the serial run",
        "digests": digests,
    }
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="End-to-end benchmark of the rundown simulator")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload only")
    parser.add_argument("--seed", type=int, default=0, help="op i uses seed + i (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed op seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 runs the traced pass")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the run length and one set-up launch")
    parser.add_argument("--out", metavar="FILE", help="write every measurement as JSON")
    parser.add_argument("--record-golden", action="store_true",
                        help="re-record golden.json from the current code")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _default_seconds()
    if args.quick:
        seconds = max(1.0, round(seconds / 10))

    scratch = ROOT / ".bench_e2e"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.record_golden:
            record_golden(tmp)
            return 0
        if args.workload:
            plan = [(args.workload, bool(args.trace))]
        else:
            plan = [(w, False) for w in WORKLOADS] + [(w, True) for w in WORKLOADS]
        records = []
        for workload, trace in plan:
            rec = run_workload(workload, args.seed, seconds, trace, args.quick, tmp)
            print_report(rec)
            records.append(rec)
        if args.out:
            doc = {"host": host_facts(), "seed": args.seed, "seconds": seconds,
                   "quick": args.quick, "runs": records}
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
        if args.workload:
            print(json.dumps(result_line(records[0])))
        else:
            print(json.dumps({
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
            }))
        return 0 if all(r["correct"] for r in records) else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
