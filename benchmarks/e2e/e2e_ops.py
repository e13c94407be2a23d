"""One workload of the end-to-end benchmark, run in a fresh process.

``run.py`` launches this file once per measurement, with ``src`` on
``PYTHONPATH``.  It can also be run by hand from the repository root::

    PYTHONPATH=src python3 benchmarks/e2e/e2e_ops.py rundown-dispatch --seed 0 --seconds 5

Protocol on standard output: the line ``READY`` once set-up is done (the
launcher's clock for ``setup_s`` stops when it reads it), then one line
``RESULT <json>`` with the raw measurements.  All workloads are closed
loops with one client: op *i* of a run uses seed ``--seed + i``.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import io
import json
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"

_SUCC_SPLIT = re.compile(r"succ-split:([^:\"]*):(\d+)")


def renumber_succ_splits(text: str) -> str:
    """Renumber ``succ-split:<phase>:<desc id>`` labels in order of first
    appearance.

    Description ids come from a process-global counter in
    ``repro.executive.descriptions``, so the raw ids in a trace depend on
    how many runs came before it in the same process.
    """
    ids: dict[tuple[str, str], int] = {}

    def sub(m: re.Match) -> str:
        key = (m.group(1), m.group(2))
        ids.setdefault(key, len(ids) + 1)
        return f"succ-split:{m.group(1)}:{ids[key]}"

    return _SUCC_SPLIT.sub(sub, text)


def run_digest(payload: dict) -> str:
    """sha256 of a saved run (``{"summary", "trace"}``), label-renumbered."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(renumber_succ_splits(text).encode()).hexdigest()


def _rss_mb(kib: int) -> float:
    return kib / 1024.0


class Workload:
    """Set-up, one timed op, and the untimed check of its output."""

    name = ""
    #: untimed ops run before timing starts
    warmup = 1
    #: True when the warm-up ops are part of set-up (``setup_s`` covers them)
    warm_in_setup = False
    #: ops profiled by the traced pass
    traced_ops = 1

    def __init__(self, tmp: Path, golden: dict[str, str]) -> None:
        self.tmp = tmp
        self.golden = golden

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seed: int):
        """The timed op."""
        raise NotImplementedError

    def traced(self, seed: int):
        """The op the traced pass profiles (the timed op unless overridden)."""
        return self.run(seed)

    def check(self, seed: int, out) -> tuple[dict | None, list[str]]:
        """Facts of one op (``sims``, ``tasks``, ``compute``, ``mgmt``,
        ``records``) and the problems found in its output."""
        raise NotImplementedError

    def golden_digest(self, seed: int, out) -> str:
        raise NotImplementedError

    def _golden_problems(self, seed: int, got: str) -> list[str]:
        want = self.golden.get(str(seed))
        if want is not None and want != got:
            return [f"seed {seed}: digest {got[:12]} != golden {want[:12]}"]
        return []

    @classmethod
    def extras(cls, facts: list[dict]) -> dict[str, tuple[float, str]]:
        """Workload-specific diagnostics from the facts of the timed ops."""
        return {}

    def traced_extras(self, seeds: list[int]) -> dict[str, tuple[float, str]]:
        """Workload-specific diagnostics of the traced pass."""
        return {}

    def peak_rss_mb(self) -> float:
        return _rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    def close(self) -> None:
        pass


class _InProcessRun(Workload):
    """A single ``run_program`` call on a program built in set-up."""

    workload = ""
    params: dict = {}
    sim_workers = 0
    tasks_per_processor = 0.0

    def setup(self) -> None:
        from repro.executive import TaskSizer, run_program
        from repro.lint import sanitize_result
        from repro.sim.persist import result_summary, trace_to_dict
        from repro.sweep import build_workload

        self._run_program = run_program
        self._sanitize = sanitize_result
        self._summary = result_summary
        self._trace_to_dict = trace_to_dict
        self.program = build_workload(self.workload, self.params)
        self.sizer = TaskSizer(self.tasks_per_processor)

    def run(self, seed: int):
        return self._run_program(self.program, self.sim_workers, seed=seed, sizer=self.sizer)

    def golden_digest(self, seed: int, out) -> str:
        return run_digest({"summary": self._summary(out), "trace": self._trace_to_dict(out.trace)})

    def check(self, seed: int, out) -> tuple[dict, list[str]]:
        problems = self._golden_problems(seed, self.golden_digest(seed, out))
        report = self._sanitize(out, self.program)
        if not report.ok:
            problems.append(f"seed {seed}: sanitizer: {len(report.findings)} finding(s)")
        facts = {
            "sims": 1,
            "tasks": out.tasks_executed,
            "compute": out.compute_time,
            "mgmt": out.mgmt_time,
            "records": len(out.trace.records),
            "mgmt_intervals": sum(1 for iv in out.trace.intervals() if iv.category == "mgmt"),
        }
        return facts, problems


class RundownDispatch(_InProcessRun):
    """Many small tasks: per-event dispatch and trace writing dominate."""

    name = "rundown-dispatch"
    workload = "identity"
    params = {"n": 4096}
    sim_workers = 32
    tasks_per_processor = 32.0
    warmup = 3
    traced_ops = 5

    @classmethod
    def extras(cls, facts):
        return {
            "sim.events": (statistics.median(f["records"] for f in facts), "count"),
            "executive.mgmt_per_task": (
                sum(f["mgmt_intervals"] for f in facts) / sum(f["tasks"] for f in facts),
                "ratio",
            ),
        }


class IndirectEnable(_InProcessRun):
    """Few events, but admitting a phase under an indirect mapping dominates."""

    name = "indirect-enable"
    workload = "reverse-indirect"
    params = {"n": 50_000, "fan_in": 4}
    sim_workers = 16
    tasks_per_processor = 2.0
    warmup = 2
    traced_ops = 2

    def traced_extras(self, seeds):
        """Direct timings of the enablement layer on an IMAP of the op's shape."""
        import numpy as np

        from repro.core.enablement import CompositeGranuleMap, EnablementEngine
        from repro.core.granule import GranuleSet
        from repro.core.mapping import ReverseIndirectMapping
        from repro.core.overlap import OverlapConfig

        n, fan_in = self.params["n"], self.params["fan_in"]
        group_size = OverlapConfig().composite_group_size
        mapping = ReverseIndirectMapping("IMAP", fan_in=fan_in)
        chunk = max(1, n // int(self.sim_workers * self.tasks_per_processor))
        chunks = [GranuleSet.from_ranges([(i, min(i + chunk, n))]) for i in range(0, n, chunk)]
        build, init, notify, groups = [], [], [], 0
        for seed in seeds:
            maps = {"IMAP": self.program.map_generators["IMAP"](np.random.default_rng(seed))}
            t0 = time.perf_counter()
            cmap = CompositeGranuleMap.build(mapping, n, n, maps, group_size=group_size)
            t1 = time.perf_counter()
            engine = EnablementEngine(mapping, n, n, maps, group_size=group_size)
            t2 = time.perf_counter()
            for c in chunks:
                engine.notify(c)
            t3 = time.perf_counter()
            if len(engine.enabled) != n:
                raise RuntimeError("enablement engine left successor granules unenabled")
            build.append(t1 - t0)
            init.append(t2 - t1)
            notify.append(t3 - t2)
            groups = len(cmap.groups)
        return {
            "core.composite_build_s": (statistics.median(build), "s"),
            "core.engine_init_s": (statistics.median(init), "s"),
            "core.notify_s": (statistics.median(notify), "s"),
            "core.groups": (groups, "count"),
        }


class ParamGrid(Workload):
    """The paper's study shape: a 48-cell grid on the two-worker warm pool."""

    name = "param-grid"
    warmup = 1
    warm_in_setup = True
    traced_ops = 1
    pool_workers = 2

    def setup(self) -> None:
        from repro.sweep import (
            GridAxis,
            GridSpec,
            SweepSpec,
            materialize_maps,
            run_grid,
            run_grid_cell,
        )

        self._grid_spec = lambda seed: GridSpec(
            SweepSpec("casper", replications=2, seed=seed),
            axes=(
                GridAxis("sim_workers", (4, 8, 16, 32)),
                GridAxis("tasks_per_processor", (2, 4, 8)),
                GridAxis("overlap", (True, False)),
            ),
        )
        self._materialize = materialize_maps
        self._run_grid = run_grid
        self._run_cell = run_grid_cell
        self.pool_pids: set[int] = set()

    def _grid(self, seed: int, workers: int, profiler=None):
        grid = self._grid_spec(seed)
        return self._run_grid(
            grid, workers=workers, shared_maps=self._materialize(grid), profiler=profiler
        )

    def run(self, seed: int):
        out = self._grid(seed, self.pool_workers)
        from repro.sweep import warm_pool

        self.pool_pids.update(warm_pool().worker_pids())
        return out

    def traced(self, seed: int):
        return self._grid(seed, 1)

    def golden_digest(self, seed: int, out) -> str:
        return hashlib.sha256(out.report.to_json().encode()).hexdigest()

    def check(self, seed: int, out) -> tuple[dict, list[str]]:
        problems = self._golden_problems(seed, self.golden_digest(seed, out))
        cells = out.report.cells
        # one cell per op re-run in this process: the pool must report
        # exactly what a serial run computes, for any seed
        k = seed % len(cells)
        grid = self._grid_spec(seed)
        reps = grid.base.replications
        serial = self._run_cell(
            grid.to_dict()["base"],
            grid.points()[k // reps],
            k % reps,
            shared=self._materialize(grid),
        )
        pooled = {key: v for key, v in cells[k].items() if key != "cell"}
        if json.dumps(serial, sort_keys=True) != json.dumps(pooled, sort_keys=True):
            problems.append(f"seed {seed}: cell {k} differs between pool and serial run")
        facts = {
            "sims": len(cells),
            "tasks": sum(c["tasks_executed"] for c in cells),
            "compute": sum(c["compute_time"] for c in cells),
            "mgmt": sum(c["mgmt_time"] for c in cells),
            "records": None,
            "chunk_size": out.chunk_size,
            "restarts": out.worker_restarts,
            "shared_map_bytes": out.shared_map_bytes,
        }
        return facts, problems

    @classmethod
    def extras(cls, facts):
        return {
            "sweep.chunk_size": (statistics.median(f["chunk_size"] for f in facts), "count"),
            "sweep.worker_restarts": (sum(f["restarts"] for f in facts), "count"),
            "sweep.shared_map_bytes": (facts[-1]["shared_map_bytes"], "B"),
        }

    def traced_extras(self, seeds):
        """Pool-overhead attribution and the parent's own CPU time for one op,
        and the serial baseline the pool is measured against."""
        from repro.obs import PoolProfiler

        seed = seeds[0]
        pool_s = []
        for _ in range(2):
            t0 = time.perf_counter()
            self.check(seed, self.run(seed))
            pool_s.append(time.perf_counter() - t0)
        profiler = PoolProfiler()
        cpu = time.process_time()
        out = self._grid(seed, self.pool_workers, profiler=profiler)
        cpu = time.process_time() - cpu
        _facts, problems = self.check(seed, out)
        if problems:
            raise RuntimeError("; ".join(problems))
        profile = profiler.profile("chunk", self.pool_workers)
        totals = profile.totals()
        return {
            "sweep.compute_s": (totals["compute"], "s"),
            "sweep.queue_wait_s": (totals["queue_wait"], "s"),
            "sweep.serialization_s": (totals["serialization"], "s"),
            "sweep.warmup_s": (totals["warmup"], "s"),
            "sweep.effective_workers": (profile.effective_workers(), "workers"),
            "sweep.pool_tasks": (len(profile.tasks), "count"),
            "sweep.parent_cpu_s": (cpu, "s"),
            "sweep.pool_s": (min(pool_s), "s"),
        }

    def peak_rss_mb(self) -> float:
        """The parent's peak plus every pool worker's ``VmHWM``."""
        total = super().peak_rss_mb()
        for pid in self.pool_pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
        return total

    def close(self) -> None:
        from repro.sweep import audit_shm_segments, shutdown_warm_pool

        shutdown_warm_pool()
        leaked = [s["segment"] for s in audit_shm_segments() if s["live"]]
        if leaked:
            raise RuntimeError(f"shared-memory segments still owned: {leaked}")
        alive = [pid for pid in self.pool_pids if Path(f"/proc/{pid}").exists()]
        if alive:
            raise RuntimeError(f"pool workers still running after shutdown: {alive}")


class CliCheck(Workload):
    """What a shell user waits for: simulate --sanitize --save, profile, export."""

    name = "cli-check"
    warmup = 1
    traced_ops = 1
    commands = ("simulate", "profile", "export")

    def setup(self) -> None:
        self.run_json = self.tmp / "RUN.json"
        self.chrome = self.tmp / "T.json"

    def _argv(self, seed: int) -> dict[str, list[str]]:
        return {
            "simulate": [
                "simulate", "casper", "--workers", "32", "--tasks-per-processor", "8",
                "--seed", str(seed), "--sanitize", "--save", str(self.run_json),
            ],
            "profile": ["profile", str(self.run_json)],
            "export": ["export-trace", str(self.run_json), "-o", str(self.chrome)],
        }

    def run(self, seed: int):
        out = {}
        for name, argv in self._argv(seed).items():
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
            out[name] = (time.perf_counter() - t0, proc.returncode, proc.stdout + proc.stderr)
        return out

    def traced(self, seed: int):
        """The same cycle in this process, through ``repro.cli.main``."""
        from repro.cli import main

        out = {}
        for name, argv in self._argv(seed).items():
            buf = io.StringIO()
            t0 = time.perf_counter()
            rc = main(argv, out=buf)
            out[name] = (time.perf_counter() - t0, rc, buf.getvalue())
        return out

    def golden_digest(self, seed: int, out) -> str:
        with open(self.run_json, encoding="utf-8") as fh:
            return run_digest(json.load(fh))

    def check(self, seed: int, out) -> tuple[dict, list[str]]:
        problems = [
            f"seed {seed}: `repro {name}` exited {rc}: {text.strip()[-200:]}"
            for name, (_t, rc, text) in out.items()
            if rc != 0
        ]
        if problems:
            return None, problems
        with open(self.run_json, encoding="utf-8") as fh:
            data = json.load(fh)
        problems += self._golden_problems(seed, run_digest(data))
        if "sanitizer: OK" not in out["simulate"][2]:
            problems.append(f"seed {seed}: simulate --sanitize did not report OK")
        if "run waterfall:" not in out["profile"][2]:
            problems.append(f"seed {seed}: profile printed no waterfall")
        with open(self.chrome, encoding="utf-8") as fh:
            if not json.load(fh).get("traceEvents"):
                problems.append(f"seed {seed}: export-trace wrote no events")
        summary = data["summary"]
        facts = {
            "sims": 1,
            "tasks": summary["tasks_executed"],
            "compute": summary["compute_time"],
            "mgmt": summary["mgmt_time"],
            "records": len(data["trace"]["records"]),
            "cmd_s": {name: t for name, (t, _rc, _text) in out.items()},
        }
        return facts, problems

    @classmethod
    def extras(cls, facts):
        return {
            f"cli.{name}_s": (statistics.median(f["cmd_s"][name] for f in facts), "s")
            for name in cls.commands
        }

    def traced_extras(self, seeds):
        """Import cost, and the read side timed in-process on one RUN.json."""
        from repro.core.overlap import OverlapConfig
        from repro.executive import ExecutiveCosts, TaskSizer, run_program
        from repro.lint import sanitize_saved
        from repro.obs import (
            analyze_saved,
            instants_from_trace,
            iter_trace_spans,
            write_chrome_trace_streaming,
        )
        from repro.sim.persist import save_result, trace_from_dict
        from repro.sweep import build_workload

        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.cli; print(sum(1 for m in sys.modules "
                "if m.split('.')[0] in ('repro', 'numpy')))",
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
            timeout=60,
        )
        seed = seeds[0]
        program = build_workload("casper")
        # the run `repro simulate casper --workers 32 --tasks-per-processor 8`
        # performs, built from public API (its digest must match the CLI's)
        result = run_program(
            program,
            32,
            config=OverlapConfig(),
            costs=ExecutiveCosts(0.05, 0.05, 0.05, 0.02, 0.02, 0.02, 0.001),
            sizer=TaskSizer(8.0),
            seed=seed,
        )
        path = self.tmp / "inproc.json"
        t0 = time.perf_counter()
        save_result(result, path)
        t1 = time.perf_counter()
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        trace = trace_from_dict(data["trace"])
        t2 = time.perf_counter()
        report = sanitize_saved(data, program)
        t3 = time.perf_counter()
        analyze_saved(data)
        t4 = time.perf_counter()
        write_chrome_trace_streaming(
            lambda: iter_trace_spans(trace), self.tmp / "inproc.trace.json", instants_from_trace(trace)
        )
        t5 = time.perf_counter()
        if not report.ok:
            raise RuntimeError("sanitizer reported findings on the in-process run")
        self.traced(seed)
        with open(self.run_json, encoding="utf-8") as fh:
            if run_digest(json.load(fh)) != run_digest(data):
                raise RuntimeError("in-process run differs from `repro simulate`")
        return {
            "cli.import_modules": (int(probe.stdout.strip()), "count"),
            "sim.persist.save_s": (t1 - t0, "s"),
            "sim.persist.load_s": (t2 - t1, "s"),
            "lint.sanitize_s": (t3 - t2, "s"),
            "obs.profile_s": (t4 - t3, "s"),
            "obs.export_s": (t5 - t4, "s"),
            "sim.trace.records": (len(data["trace"]["records"]), "count"),
            "sim.persist.run_json_bytes": (path.stat().st_size, "B"),
        }

    def peak_rss_mb(self) -> float:
        """The largest ``repro`` child process's peak."""
        return _rss_mb(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


WORKLOADS = {w.name: w for w in (RundownDispatch, IndirectEnable, ParamGrid, CliCheck)}


def _op(w: Workload, seed: int, fn) -> dict:
    """Run one op through ``fn`` and check it; exceptions are failures."""
    t0 = time.perf_counter()
    try:
        out = fn(seed)
    except Exception as exc:  # a failed op is counted, not fatal
        return {"seed": seed, "seconds": time.perf_counter() - t0, "facts": None,
                "problems": [f"seed {seed}: {type(exc).__name__}: {exc}"]}
    dt = time.perf_counter() - t0
    try:
        facts, problems = w.check(seed, out)
    except Exception as exc:
        facts, problems = None, [f"seed {seed}: check raised {type(exc).__name__}: {exc}"]
    return {"seed": seed, "seconds": dt, "facts": facts, "problems": problems}


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, print READY, then run the timed loop or the traced pass."""
    w.setup()
    ops: list[dict] = []
    warm = [seed + j for j in range(w.warmup)]
    if w.warm_in_setup:
        ops += [_op(w, s, w.run) for s in warm]
    print("READY", flush=True)
    if not w.warm_in_setup:
        ops += [_op(w, s, w.run) for s in warm]
    next_seed = seed + w.warmup
    result: dict = {}
    if not trace:
        timed: list[dict] = []
        spent, deadline = 0.0, time.perf_counter() + 3 * seconds + 60
        while (spent < seconds or len(timed) < 3) and time.perf_counter() < deadline:
            op = _op(w, next_seed, w.run)
            next_seed += 1
            timed.append(op)
            spent += op["seconds"]
        ops += timed
        result["latencies"] = [t["seconds"] for t in timed]
        result["facts"] = [
            dict(t["facts"], seconds=t["seconds"])
            for t in timed
            if t["facts"] is not None and not t["problems"]
        ]
    else:
        from e2e_layers import ledger

        seeds = [next_seed + k for k in range(w.traced_ops)]
        rounds: list[float] = []
        spent = 0.0
        while not rounds or spent < seconds / 3:
            batch = [_op(w, s, w.traced) for s in seeds]
            ops += batch
            rounds.append(sum(op["seconds"] for op in batch))
            spent += rounds[-1]
        prof = cProfile.Profile()

        def profiled(s: int):
            prof.enable()
            try:
                return w.traced(s)
            finally:
                prof.disable()

        batch = [_op(w, s, profiled) for s in seeds]
        ops += batch
        facts = [op["facts"] for op in batch if op["facts"] is not None and not op["problems"]]
        if len(facts) < len(batch):
            raise RuntimeError("a traced op failed: " + "; ".join(p for op in batch for p in op["problems"]))
        traced_s = sum(op["seconds"] for op in batch)
        layers = ledger(prof)
        n = len(seeds)
        result["layers"] = {
            name: {"self_s": layers[name]["self_s"] / n, "calls": layers[name]["calls"] / n}
            for name in layers
        }
        result["tasks_per_op"] = sum(f["tasks"] for f in facts) / n
        result["useful_frac"] = sum(f["compute"] for f in facts) / sum(
            f["compute"] + f["mgmt"] for f in facts
        )
        result["overhead_x"] = traced_s / statistics.median(rounds)
        result["untraced_round_s"] = statistics.median(rounds)
        result["extras"] = w.traced_extras(seeds)
    problems = [p for op in ops for p in op["problems"]]
    result.update(
        attempted=len(ops),
        failed=sum(1 for op in ops if op["problems"]),
        problems=problems[:10],
        peak_rss_mb=w.peak_rss_mb(),
    )
    return result


def record_golden(w: Workload, seeds: range) -> dict[str, str]:
    """Digests of ops ``seeds`` from the traced path (in-process, serial),
    each required to equal the timed path's digest and to pass every check."""
    w.setup()
    out = {}
    for s in seeds:
        ref = w.golden_digest(s, w.traced(s))
        timed = w.run(s)
        if w.golden_digest(s, timed) != ref:
            raise RuntimeError(f"seed {s}: the timed op's output differs from the reference")
        _facts, problems = w.check(s, timed)
        if problems:
            raise RuntimeError("; ".join(problems))
        out[str(s)] = ref
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true", help="run the traced pass")
    parser.add_argument("--record-golden", type=int, metavar="N", help="digest op seeds 0..N-1")
    parser.add_argument("--tmp", default=".", help="scratch directory for run files")
    args = parser.parse_args(argv)

    golden = {}
    if GOLDEN.exists() and args.record_golden is None:
        golden = json.loads(GOLDEN.read_text())["digests"].get(args.workload, {})
    w = WORKLOADS[args.workload](Path(args.tmp), golden)
    try:
        if args.record_golden is not None:
            result = {"golden": record_golden(w, range(args.record_golden))}
        else:
            result = measure(w, args.seed, args.seconds, args.trace)
    finally:
        w.close()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
