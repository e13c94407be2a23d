"""Trace-replay rundown sanitizer: validate a run against the static order.

The static analyzer predicts which granule orderings a program needs
(inferred from footprints) and which the executive will enforce
(declared ``ENABLE`` mappings).  This module closes the loop: it replays
a finished run's trace — the executed granule start/finish events every
computation task logs — rebuilds the happens-before order the machine
actually realized, and checks it both ways:

* **order-violation** (error): a successor task started before a
  predecessor granule the *declared* mapping requires had completed —
  the executive broke its own interlock (an executive bug);
* **race** (error): a successor task started before a predecessor
  granule that the *inferred* data flow requires (but the declaration
  does not) had completed — observed-concurrent granules whose
  footprints conflict, the dynamic twin of static RDN001;
* **latent-race** (warning): an inferred-conflicting granule pair whose
  timestamps happened to serialize but which nothing ordered — vector
  clocks rebuilt from per-processor program order plus declared-mapping
  completions show the pair concurrent, so another schedule could race;
* **unexercised** (note, not a finding): a declared mapping permitted
  overlap at a phase boundary but the run never started a successor
  task before the predecessor finished — the interlock's permission was
  never used.

Relation to :class:`~repro.lint.crosscheck.AdmissionGuard`: the guard
checks each admission *decision* against the static verdict while the
run executes; the sanitizer checks the *executed schedule* after the
fact, so it also catches races a too-permissive declaration lets through
without any guard installed, and it works on saved ``RUN.json`` files
(``repro lint --check-run``).  Like the guard, pairs without access
declarations are skipped — there is no inferred order to check against
— and data-dependent (mapped) relations are skipped granule-level with
a note.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter, sub
from typing import Any, Iterable, Sequence

import numpy as np

from repro.core.classifier import (
    PairClassification,
    classification_of,
    classify_pair,
)
from repro.core.phase import PhaseProgram
from repro.lint.hb import GranuleRelation, relation_of
from repro.sim.events import EventKind, parse_task_label
from repro.sim.trace import Trace

__all__ = [
    "ExecutedTask",
    "SanitizerFinding",
    "SanitizerReport",
    "tasks_from_trace",
    "tasks_from_spans",
    "sanitize_result",
    "sanitize_saved",
]

#: Completion at time t gates a start at the same timestamp (the engine
#: processes completions before assignments at equal times).
_EPS = 1e-9

#: Deterministic task order — C-implemented key beats a tuple lambda on
#: the per-sanitize sorts.
_TASK_ORDER = attrgetter("start", "end", "seq")


@dataclass(slots=True)
class ExecutedTask:
    """One computation task reconstructed from the trace.

    Not frozen: tens of thousands of these are built per sanitized run
    and the frozen-dataclass ``__setattr__`` detour is measurable there.
    Treat instances as read-only all the same.
    """

    phase: str
    run: int
    ranges: tuple[tuple[int, int], ...]
    processor: str
    start: float
    end: float
    lost: bool = False
    #: Arrival order in the trace — the deterministic tie-break.
    seq: int = 0

    @property
    def n_granules(self) -> int:
        return sum(hi - lo for lo, hi in self.ranges)

    def label(self) -> str:
        body = ",".join(f"[{lo},{hi})" for lo, hi in self.ranges)
        return f"{self.phase}#{self.run}:GranuleSet({body})"


#: Parsed task labels, shared across sanitize calls: labels are
#: program-stable strings, so repeated runs of one program (the
#: ``--sanitize`` benchmark shape) re-parse nothing.  Cleared wholesale
#: once its labels pass ``_LABEL_MEMO_MAX`` characters in all.  A count
#: cap does not bound it: a successor task of an indirect mapping can
#: cover a hundred ranges, and runs with other maps share no label, so
#: sanitizing each op of the 50,000-granule reverse-indirect benchmark
#: grew the process by 0.37 MB.
_LABEL_MEMO: dict[str, tuple[str, int, tuple[tuple[int, int], ...]] | None] = {}
_LABEL_MEMO_MAX = 250_000


def tasks_from_trace(trace: Trace) -> tuple[list[ExecutedTask], list[str]]:
    """Executed tasks (and parse notes) from a finished :class:`Trace`,
    in one pass over its task rows."""
    open_tasks: dict[tuple[str, str], list[float]] = {}
    out: list[ExecutedTask] = []
    notes: list[str] = []
    label_cache = _LABEL_MEMO
    if sum(map(len, label_cache)) > _LABEL_MEMO_MAX:
        label_cache.clear()
    task_start, task_lost = EventKind.TASK_START, EventKind.TASK_LOST
    for time, kind, subject, label in trace.task_rows():
        try:
            parsed = label_cache[label]
        except KeyError:
            parsed = label_cache[label] = parse_task_label(label)
        if parsed is None:
            notes.append(f"unparseable task label {label!r} on {subject}")
            continue
        if kind is task_start:
            open_tasks.setdefault((subject, label), []).append(time)
            continue
        starts = open_tasks.get((subject, label))
        if not starts:
            notes.append(f"{kind.value} without a start for {label!r} on {subject}")
            continue
        # positional construction: keyword dispatch is measurable at one
        # call per executed task; the arrival index is the tie-break seq
        out.append(
            ExecutedTask(
                parsed[0], parsed[1], parsed[2], subject, starts.pop(0), time,
                kind is task_lost, len(out),
            )
        )
    for (proc, label), starts in open_tasks.items():
        for _ in starts:
            notes.append(f"task {label!r} on {proc} never finished (aborted run?)")
    out.sort(key=_TASK_ORDER)
    return out, notes


def tasks_from_spans(spans: Iterable[Any]) -> tuple[list[ExecutedTask], list[str]]:
    """Executed tasks from obs :class:`~repro.obs.spans.Span` objects.

    Lets exported span files (JSONL/Chrome) feed the sanitizer.  Spans
    carry no loss marker — a failure-truncated task closes its span at
    the failure time — so prefer :func:`tasks_from_trace` when fault
    injection was armed.
    """
    from repro.obs.spans import granule_task_spans

    out = [
        ExecutedTask(
            phase=phase, run=run, ranges=ranges, processor=span.resource,
            start=span.start, end=span.end, seq=seq,
        )
        for seq, (span, phase, run, ranges) in enumerate(granule_task_spans(spans))
    ]
    out.sort(key=lambda t: (t.start, t.end, t.seq))
    return out, []


@dataclass(frozen=True, slots=True)
class SanitizerFinding:
    """One confirmed ordering problem in an executed run."""

    kind: str  # "order-violation" | "race" | "latent-race" | "schedule-mismatch"
    severity: str  # "error" | "warning"
    pred: str
    succ: str
    stream: int
    #: Violating (succ task, pred granule) instances.
    count: int
    message: str

    def render(self) -> str:
        return f"{self.severity} {self.kind}: {self.message}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind, "severity": self.severity,
            "pred": self.pred, "succ": self.succ,
            "stream": self.stream, "count": self.count,
            "message": self.message,
        }


@dataclass
class SanitizerReport:
    """The sanitizer's verdict on one executed run."""

    findings: list[SanitizerFinding] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: Declared overlap permissions the run never used.
    unexercised: list[str] = field(default_factory=list)
    n_tasks: int = 0
    n_pairs: int = 0
    n_task_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "notes": list(self.notes),
            "unexercised": list(self.unexercised),
            "n_tasks": self.n_tasks,
            "n_pairs": self.n_pairs,
            "n_task_pairs": self.n_task_pairs,
        }

    def render_text(self) -> str:
        lines = [
            f"sanitizer: {self.n_tasks} task(s), {self.n_pairs} phase pair(s), "
            f"{self.n_task_pairs} task pair(s) checked"
        ]
        for f in self.findings:
            lines.append(f"  {f.render()}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        for edge in self.unexercised:
            lines.append(f"  unexercised: {edge}")
        lines.append(
            "sanitizer: OK — executed order consistent with the declared "
            "and inferred mappings"
            if self.ok
            else f"sanitizer: {len(self.findings)} finding(s)"
        )
        return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class _RunInfo:
    gid: int
    stream: int
    index: int
    name: str


def _required_mask(
    relation: GranuleRelation, ranges: Sequence[tuple[int, int]], n_pred: int
) -> np.ndarray | None:
    """Boolean mask of predecessor granules the relation makes required.

    ``None`` when the relation gives no granule-level answer (mapped or
    opaque) — the caller skips with a note.
    """
    if relation.kind == "empty":
        return np.zeros(n_pred, dtype=bool)
    if relation.kind == "all":
        return np.ones(n_pred, dtype=bool)
    if relation.kind == "window":
        mask = np.zeros(n_pred, dtype=bool)
        for lo, hi in ranges:
            for o in relation.offsets:
                a, b = max(0, lo + o), min(n_pred, hi + o)
                if a < b:
                    mask[a:b] = True
        return mask
    return None


def _unique_tasks(done_task: np.ndarray, mask: np.ndarray) -> set[int]:
    """Distinct non-negative task seqs selected by ``mask`` (small arrays)."""
    return {int(s) for s in done_task[mask].tolist() if s >= 0}


def _covers(declared: GranuleRelation, inferred: GranuleRelation) -> bool:
    """True when the declared mask contains the inferred mask for every task.

    Required masks are unions of ranges shifted by the relation's offsets,
    so an offset subset implies a mask subset for any task whatsoever.  A
    covered pair can never produce a race or latent-race finding — only
    the executive interlock (order violations) needs checking for it.
    """
    if inferred.kind == "empty" or declared.kind == "all":
        return True
    if declared.kind == "window" and inferred.kind == "window":
        return inferred.offsets <= declared.offsets
    return False


def _segments_from_tasks(
    tasks: Sequence[ExecutedTask], n: int
) -> tuple[list[int], list[float], list[int]] | None:
    """Completion segments straight from task ranges, skipping the arrays.

    Valid only when the executed (non-lost) ranges do not overlap — the
    fault-free common case; returns ``None`` otherwise so the caller can
    fall back to the per-granule tables, whose earliest-completion
    overlap semantics this shortcut cannot reproduce.
    """
    items: list[tuple[int, int, float, int]] = []
    for t in tasks:
        if t.lost:
            continue
        for lo, hi in t.ranges:
            items.append((lo, hi, t.end, t.seq))
    items.sort()
    bounds: list[int] = []
    seg_done: list[float] = []
    seg_task: list[int] = []
    pos = 0
    for lo, hi, end, sq in items:
        if lo < pos or hi > n:
            return None
        if lo > pos:
            bounds.append(pos)
            seg_done.append(np.inf)
            seg_task.append(-1)
        bounds.append(lo)
        seg_done.append(end)
        seg_task.append(sq)
        pos = hi
    if pos < n:
        bounds.append(pos)
        seg_done.append(np.inf)
        seg_task.append(-1)
    bounds.append(n)
    return bounds, seg_done, seg_task


def _segments(
    done: np.ndarray, done_task: np.ndarray
) -> tuple[list[int], list[float], list[int]]:
    """Piecewise-constant view of the completion tables.

    ``done``/``done_task`` are constant over each executed task's granule
    range, so the tables collapse to a handful of segments: ``bounds`` has
    the segment starts plus a final sentinel of ``len(done)``; segment
    ``i`` spans ``[bounds[i], bounds[i+1])`` with completion
    ``seg_done[i]`` by task ``seg_task[i]``.  Checks walk these few
    segments instead of granule-sized boolean masks.
    """
    n = len(done_task)
    if n == 0:
        return [0], [], []
    change = (np.flatnonzero(done_task[1:] != done_task[:-1]) + 1).tolist()
    starts = [0] + change
    return (
        starts + [n],
        done[starts].tolist(),
        done_task[starts].tolist(),
    )


def _interval(
    relation: GranuleRelation, ranges: Sequence[tuple[int, int]], n_pred: int
) -> tuple[int, int] | None:
    """The required mask as a single ``[a, b)`` interval, when contiguous.

    Most tasks cover one contiguous granule range and most windows are
    contiguous seams, so the mask collapses to an interval and the checks
    become slice reductions instead of boolean-mask builds.
    """
    if relation.kind == "all":
        return 0, n_pred
    if relation.kind != "window" or len(ranges) != 1 or not relation.offsets:
        return None
    info = _OFFSET_INFO.get(relation.offsets)
    if info is None:
        offs = sorted(relation.offsets)
        gap = max((o2 - o1 for o1, o2 in zip(offs, offs[1:])), default=0)
        info = _OFFSET_INFO[relation.offsets] = (offs[0], offs[-1], gap)
    lo, hi = ranges[0]
    if info[2] > hi - lo:
        return None
    return max(0, lo + info[0]), min(n_pred, hi + info[1])


#: (min, max, widest gap) per window offset set — tiny and program-stable.
_OFFSET_INFO: dict[frozenset[int], tuple[int, int, int]] = {}


def _iv_params(
    relation: GranuleRelation, n_pred: int
) -> tuple[str, int, int, int] | None:
    """``(kind, min offset, max offset, widest gap)`` for interval math."""
    if relation.kind in ("all", "empty"):
        return (relation.kind, 0, 0, 0)
    if relation.kind != "window" or not relation.offsets:
        return None
    info = _OFFSET_INFO.get(relation.offsets)
    if info is None:
        offs = sorted(relation.offsets)
        gap = max((o2 - o1 for o1, o2 in zip(offs, offs[1:])), default=0)
        info = _OFFSET_INFO[relation.offsets] = (offs[0], offs[-1], gap)
    return ("window", info[0], info[1], info[2])


def _vectorized_covered(
    succ_tasks: Sequence[ExecutedTask],
    bounds: list[int],
    seg_done: list[float],
    seg_task: list[int],
    declared_rel: GranuleRelation,
    inferred_rel: GranuleRelation,
    n_pred: int,
) -> tuple[int, tuple[int, int, float] | None, int] | None:
    """Order-violation count + checked-pair count for a covered pair.

    One broadcast over (succ task, completion segment) replaces the
    per-task segment walk.  Returns ``(violations, example, n_task_pairs)``
    with ``example`` the first ``(task index, granule, completion)``
    triple, or ``None`` when a precondition fails (multi-range task,
    non-contiguous window, duplicate segment tasks) so the caller falls
    back to the per-task path.
    """
    dp = _iv_params(declared_rel, n_pred)
    ip = _iv_params(inferred_rel, n_pred)
    if dp is None or ip is None:
        return None
    n_tasks = len(succ_tasks)
    if n_tasks == 0:
        return 0, None, 0
    # plain lists first: per-element numpy stores cost more than the
    # arrays built from them at these sizes
    if any(len(b.ranges) != 1 for b in succ_tasks):
        return None
    los = [b.ranges[0][0] for b in succ_tasks]
    his = [b.ranges[0][1] for b in succ_tasks]
    width = min(map(sub, his, los))
    if dp[3] > width or ip[3] > width:
        return None
    done_tasks = [s for s in seg_task if s >= 0]
    n_nonneg = len(done_tasks)
    if len(set(done_tasks)) != n_nonneg:
        return None  # a task split across segments: sets needed for dedup
    lo = np.array(los, dtype=np.int64)
    hi = np.array(his, dtype=np.int64)
    st = np.array([b.start for b in succ_tasks]) + _EPS
    B = np.asarray(bounds, dtype=np.int64)
    D = np.asarray(seg_done)

    # no clamping needed: every min/max below is against bounds already
    # inside [0, n_pred], so out-of-range interval ends are harmless
    if dp[0] == "window":
        a0 = (lo + dp[1])[:, None]
        a1 = (hi + dp[2])[:, None]
    elif dp[0] == "all":
        a0, a1 = 0, n_pred
    else:  # empty
        a0 = a1 = 0
    overlap = (B[None, :-1] < a1) & (B[None, 1:] > a0)
    late = overlap & (D[None, :] > st[:, None])
    violations = 0
    example: tuple[int, int, float] | None = None
    if late.any():
        ti, si = np.nonzero(late)
        win = dp[0] == "window"
        hi_clip = np.minimum(B[si + 1], a1[ti, 0] if win else a1)
        lo_clip = np.maximum(B[si], a0[ti, 0] if win else a0)
        violations = int((hi_clip - lo_clip).sum())
        example = (int(ti[0]), int(lo_clip[0]), float(D[si[0]]))

    if ip[0] == "empty":
        n_task_pairs = 0
    elif ip[0] == "all":
        # [0, n_pred) overlaps every segment of the partition
        n_task_pairs = n_tasks * n_nonneg
    else:
        i0 = (lo + ip[1])[:, None]
        i1 = (hi + ip[2])[:, None]
        nonneg = np.asarray(seg_task, dtype=np.int64) >= 0
        iov = (B[None, :-1] < i1) & (B[None, 1:] > i0) & nonneg[None, :]
        n_task_pairs = int(iov.sum())
    return violations, example, n_task_pairs


class _VectorClocks:
    """Happens-before over executed tasks: processor chains + sync edges."""

    def __init__(self, tasks: list[ExecutedTask]) -> None:
        procs = sorted({t.processor for t in tasks})
        self._proc_index = {p: i for i, p in enumerate(procs)}
        self._n_procs = len(procs)
        # per-task: (proc index, 1-based sequence on that processor)
        self._coord: dict[int, tuple[int, int]] = {}
        self._clock: dict[int, list[int]] = {}
        self._pending_sources: dict[int, set[int]] = {}
        self._tasks = tasks  # already sorted by (start, end, seq)

    def add_sync_edge(self, src_seq: int, dst_seq: int) -> None:
        """Order task ``src`` before task ``dst`` (a declared completion)."""
        self._pending_sources.setdefault(dst_seq, set()).add(src_seq)

    def build(self) -> None:
        per_proc_count = [0] * self._n_procs
        last_on_proc: list[int | None] = [None] * self._n_procs
        for t in self._tasks:
            p = self._proc_index[t.processor]
            per_proc_count[p] += 1
            clock = [0] * self._n_procs
            prev = last_on_proc[p]
            if prev is not None:
                prev_clock = self._clock[prev]
                for i in range(self._n_procs):
                    if prev_clock[i] > clock[i]:
                        clock[i] = prev_clock[i]
            for src in self._pending_sources.get(t.seq, ()):
                src_clock = self._clock.get(src)
                if src_clock is None:
                    continue
                for i in range(self._n_procs):
                    if src_clock[i] > clock[i]:
                        clock[i] = src_clock[i]
            clock[p] = per_proc_count[p]
            self._clock[t.seq] = clock
            self._coord[t.seq] = (p, per_proc_count[p])
            last_on_proc[p] = t.seq

    def happens_before(self, a: ExecutedTask, b: ExecutedTask) -> bool:
        pa, sa = self._coord[a.seq]
        return self._clock[b.seq][pa] >= sa


#: Pair classifications per (live) program: compiled programs are
#: immutable, so the classification of an adjacent pair never changes —
#: repeated sanitizes of runs of one program skip the classifier.
_PAIR_MEMO: "weakref.WeakKeyDictionary[PhaseProgram, dict]" = (
    weakref.WeakKeyDictionary()
)


def _pair_relations(
    program: PhaseProgram, pred: str, succ: str, serial: bool
) -> tuple[
    PairClassification, PairClassification | None, GranuleRelation, GranuleRelation | None
]:
    """(declared, inferred) classifications and their granule relations;
    the inferred pair is ``None`` sans footprints."""
    memo = _PAIR_MEMO.get(program)
    if memo is None:
        try:
            memo = _PAIR_MEMO[program] = {}
        except TypeError:  # duck-typed program without weakref support
            memo = None
    key = (pred, succ, serial)
    if memo is not None:
        got = memo.get(key)
        if got is not None:
            return got
    pred_spec, succ_spec = program.phases[pred], program.phases[succ]
    declared = classification_of(program.mapping_between(pred, succ), pred, succ)
    if pred_spec.access is None or succ_spec.access is None:
        inferred = None
    else:
        inferred = classify_pair(pred_spec, succ_spec, serial)
    result = (
        declared,
        inferred,
        relation_of(declared),
        relation_of(inferred) if inferred is not None else None,
    )
    if memo is not None:
        memo[key] = result
    return result


def _sanitize_stream(
    report: SanitizerReport,
    stream: int,
    program: PhaseProgram,
    runs: list[_RunInfo],
    tasks_by_run: dict[int, list[ExecutedTask]],
) -> None:
    seq = program.phase_sequence()
    names = [r.name for r in runs]
    if names != seq:
        report.findings.append(SanitizerFinding(
            "schedule-mismatch", "error", "", "", stream, 1,
            f"stream {stream}: executed schedule {names} does not match the "
            f"compiled program {seq}; wrong program for this run?",
        ))
        return

    pairs = program.adjacent_pairs()

    # the same (relation, ranges) mask is needed in both passes and the
    # relation set per pair is tiny — memoise instead of rebuilding
    mask_cache: dict[tuple, np.ndarray | None] = {}

    def required_mask(relation, ranges, n_pred):
        key = (relation, ranges, n_pred)
        try:
            return mask_cache[key]
        except KeyError:
            mask = _required_mask(relation, ranges, n_pred)
            mask_cache[key] = mask
            return mask

    # ---- per-granule completion tables, built lazily: the covered fast
    # path works on completion segments straight from the task ranges
    array_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def arrays_for(info: _RunInfo) -> tuple[np.ndarray, np.ndarray]:
        got = array_cache.get(info.gid)
        if got is None:
            n = program.phases[info.name].n_granules
            done = np.full(n, np.inf)
            done_task = np.full(n, -1, dtype=np.int64)
            # reverse=True is stable like the old -end key: equal-end
            # attempts keep their original relative order either way
            for t in sorted(
                tasks_by_run.get(info.gid, []), key=attrgetter("end"), reverse=True
            ):
                if t.lost:
                    continue
                for lo, hi in t.ranges:
                    done[lo:hi] = t.end
                    done_task[lo:hi] = t.seq
            got = array_cache[info.gid] = (done, done_task)
        return got

    seg_cache: dict[int, tuple[list[int], list[float], list[int]]] = {}

    def segments_for(info: _RunInfo) -> tuple[list[int], list[float], list[int]]:
        got = seg_cache.get(info.gid)
        if got is None:
            n = program.phases[info.name].n_granules
            got = _segments_from_tasks(tasks_by_run.get(info.gid, []), n)
            if got is None:
                got = _segments(*arrays_for(info))
            seg_cache[info.gid] = got
        return got

    # ---- pass 1: pair classifications
    pair_meta = []
    needs_clocks = False
    for i, (pred_name, succ_name, serial) in enumerate(pairs):
        pred_info, succ_info = runs[i], runs[i + 1]
        declared_cls, inferred_cls, declared_rel, inferred_rel = _pair_relations(
            program, pred_name, succ_name, serial
        )
        declared_known = declared_rel.kind in ("empty", "all", "window")
        inferred_known = inferred_rel is not None and inferred_rel.kind in (
            "empty", "all", "window"
        )
        covered = (
            declared_known and inferred_known and _covers(declared_rel, inferred_rel)
        )
        if declared_known and inferred_known and not covered:
            needs_clocks = True
        pair_meta.append((pred_info, succ_info, pred_name, succ_name,
                          declared_cls, declared_rel, inferred_cls, inferred_rel,
                          declared_known, inferred_known, covered))

    # vector clocks feed only the latent-race check; when every pair is
    # statically covered no such check can fire, so skip the whole build
    clocks: _VectorClocks | None = None
    task_by_seq: dict[int, ExecutedTask] = {}
    if needs_clocks:
        stream_tasks = sorted(
            (t for r in runs for t in tasks_by_run.get(r.gid, [])), key=_TASK_ORDER
        )
        clocks = _VectorClocks(stream_tasks)
        task_by_seq = {t.seq: t for t in stream_tasks}
        for meta in pair_meta:
            pred_info, succ_info, pred_name, declared_rel = (
                meta[0], meta[1], meta[2], meta[5]
            )
            n_pred = program.phases[pred_name].n_granules
            done, done_task = arrays_for(pred_info)
            for b in tasks_by_run.get(succ_info.gid, []):
                req = required_mask(declared_rel, b.ranges, n_pred)
                if req is None:
                    continue
                for src in _unique_tasks(done_task, req & (done <= b.start + _EPS)):
                    clocks.add_sync_edge(src, b.seq)
        clocks.build()

    # ---- pass 2: the checks
    for (pred_info, succ_info, pred_name, succ_name,
         declared_cls, declared_rel, inferred_cls, inferred_rel,
         declared_known, inferred_known, covered) in pair_meta:
        report.n_pairs += 1
        n_pred = program.phases[pred_name].n_granules
        succ_tasks = tasks_by_run.get(succ_info.gid, [])
        pred_tasks = tasks_by_run.get(pred_info.gid, [])

        if not declared_known:
            report.notes.append(
                f"{pred_name} -> {succ_name}: declared mapping is "
                f"data-dependent ({declared_rel.describe()}); granule-level "
                f"order checks skipped for it"
            )
        if inferred_cls is None:
            report.notes.append(
                f"{pred_name} -> {succ_name}: no access declarations; "
                f"inferred-conflict checks skipped (as AdmissionGuard does)"
            )
        if inferred_rel is not None and not inferred_known:
            report.notes.append(
                f"{pred_name} -> {succ_name}: inferred relation is "
                f"data-dependent ({inferred_rel.describe()}); granule-level "
                f"conflict checks skipped for it"
            )

        violations = 0
        races = 0
        latent = 0
        example_violation = example_race = example_latent = ""
        succ_iter: Sequence[ExecutedTask] = succ_tasks
        if covered:
            # fast path: declared ⊇ inferred for every task, so no race or
            # latent-race can exist — only the executive interlock needs
            # checking.  One broadcast over (task, completion segment)
            # handles the whole pair; the per-task segment walk below is
            # the fallback for shapes the broadcast cannot express.
            bounds, seg_done, seg_task = segments_for(pred_info)
            n_seg = len(seg_done)
            fast = _vectorized_covered(
                succ_tasks, bounds, seg_done, seg_task,
                declared_rel, inferred_rel, n_pred,
            )
            if fast is not None:
                violations, ex, n_tp = fast
                report.n_task_pairs += n_tp
                if ex is not None:
                    bi, g, dv = ex
                    bx = succ_tasks[bi]
                    example_violation = (
                        f"e.g. {bx.label()} started at {bx.start:g} but "
                        f"declared-required granule {pred_name}[{g}] "
                        f"completed at {dv:g}"
                    )
                succ_iter = ()
        else:
            done, done_task = arrays_for(pred_info)
        for b in succ_iter:
            if covered:
                div = _interval(declared_rel, b.ranges, n_pred)
                iiv = _interval(inferred_rel, b.ranges, n_pred)
                if div is None or iiv is None:
                    # non-contiguous window or multi-range task
                    done, done_task = arrays_for(pred_info)
                    req = required_mask(declared_rel, b.ranges, n_pred)
                    late = req & (done > b.start + _EPS)
                    k = int(late.sum())
                    if k:
                        violations += k
                        if not example_violation:
                            g = int(np.flatnonzero(late)[0])
                            example_violation = (
                                f"e.g. {b.label()} started at {b.start:g} but "
                                f"declared-required granule {pred_name}[{g}] "
                                f"completed at {done[g]:g}"
                            )
                    report.n_task_pairs += len(_unique_tasks(
                        done_task, required_mask(inferred_rel, b.ranges, n_pred)
                    ))
                    continue
                t_start = b.start + _EPS
                a0, a1 = div
                ia0, ia1 = iiv
                srcs: set[int] = set()
                if a0 < a1:
                    i = bisect_right(bounds, a0) - 1
                    while i < n_seg and bounds[i] < a1:
                        lo = bounds[i] if bounds[i] > a0 else a0
                        hi = bounds[i + 1] if bounds[i + 1] < a1 else a1
                        if lo < hi and seg_done[i] > t_start:
                            violations += hi - lo
                            if not example_violation:
                                example_violation = (
                                    f"e.g. {b.label()} started at {b.start:g} "
                                    f"but declared-required granule "
                                    f"{pred_name}[{lo}] completed at "
                                    f"{seg_done[i]:g}"
                                )
                        st = seg_task[i]
                        if (st >= 0 and ia0 < ia1
                                and bounds[i] < ia1 and bounds[i + 1] > ia0):
                            srcs.add(st)
                        i += 1
                report.n_task_pairs += len(srcs)
                continue
            req_decl = (
                required_mask(declared_rel, b.ranges, n_pred)
                if declared_known else None
            )
            if req_decl is not None:
                late = req_decl & (done > b.start + _EPS)
                k = int(late.sum())
                if k:
                    violations += k
                    if not example_violation:
                        g = int(np.flatnonzero(late)[0])
                        example_violation = (
                            f"e.g. {b.label()} started at {b.start:g} but "
                            f"declared-required granule {pred_name}[{g}] "
                            f"completed at {done[g]:g}"
                        )
            if not inferred_known:
                continue
            req_inf = required_mask(inferred_rel, b.ranges, n_pred)
            extra = req_inf if req_decl is None else (req_inf & ~req_decl)
            report.n_task_pairs += len(_unique_tasks(done_task, req_inf))
            late = extra & (done > b.start + _EPS)
            k = int(late.sum())
            if k:
                races += k
                if not example_race:
                    g = int(np.flatnonzero(late)[0])
                    when = f"completed at {done[g]:g}" if np.isfinite(done[g]) else "never completed"
                    example_race = (
                        f"e.g. {b.label()} started at {b.start:g} while "
                        f"conflicting granule {pred_name}[{g}] {when}"
                    )
            # serialized in time, but was anything *ordering* them?
            if declared_known:
                serialized = extra & (done <= b.start + _EPS)
                for src in sorted(_unique_tasks(done_task, serialized)):
                    a = task_by_seq[src]
                    if not clocks.happens_before(a, b):
                        n_g = int((serialized & (done_task == src)).sum())
                        latent += n_g
                        if not example_latent:
                            example_latent = (
                                f"e.g. {a.label()} and {b.label()} are "
                                f"concurrent under vector clocks; the "
                                f"timestamps only serialized by luck"
                            )

        if violations:
            report.findings.append(SanitizerFinding(
                "order-violation", "error", pred_name, succ_name,
                stream, violations,
                f"{pred_name} -> {succ_name}: {violations} declared-required "
                f"granule(s) incomplete when a successor task started "
                f"(executive interlock broken); {example_violation}",
            ))
        if races:
            report.findings.append(SanitizerFinding(
                "race", "error", pred_name, succ_name, stream, races,
                f"{pred_name} -> {succ_name}: {races} observed-concurrent "
                f"granule pair(s) whose footprints conflict — the declared "
                f"mapping admits overlap the data flow does not support; "
                f"{example_race}",
            ))
        if latent:
            report.findings.append(SanitizerFinding(
                "latent-race", "warning", pred_name, succ_name, stream, latent,
                f"{pred_name} -> {succ_name}: {latent} inferred-conflicting "
                f"granule pair(s) ran serialized but unordered — another "
                f"schedule could overlap them; {example_latent}",
            ))

        # ---- unexercised declared overlap (a note, not a finding)
        if declared_rel.kind != "all" and pred_tasks and succ_tasks:
            completed = [t.end for t in pred_tasks if not t.lost]
            if completed:
                pred_done = max(completed)
                first_succ = min(t.start for t in succ_tasks)
                if first_succ >= pred_done - _EPS:
                    report.unexercised.append(
                        f"{pred_name} -> {succ_name}: declared "
                        f"MAPPING={declared_cls.kind.value.upper()} permits "
                        f"overlap, but no successor task started before the "
                        f"predecessor completed"
                    )


def _sanitize(
    tasks: list[ExecutedTask],
    parse_notes: list[str],
    runs: list[_RunInfo],
    programs: Sequence[PhaseProgram],
) -> SanitizerReport:
    report = SanitizerReport(notes=list(parse_notes), n_tasks=len(tasks))
    run_by_gid = {r.gid: r for r in runs}
    tasks_by_run: dict[int, list[ExecutedTask]] = {}
    for t in tasks:
        info = run_by_gid.get(t.run)
        if info is None or info.name != t.phase:
            report.notes.append(
                f"task {t.label()} does not match any scheduled phase run; skipped"
            )
            continue
        tasks_by_run.setdefault(t.run, []).append(t)
    lost = sum(1 for t in tasks if t.lost)
    if lost:
        report.notes.append(
            f"{lost} task(s) lost to processor failures; their attempts are "
            f"excluded from completion times"
        )

    streams = sorted({r.stream for r in runs})
    for stream in streams:
        stream_runs = sorted(
            (r for r in runs if r.stream == stream), key=lambda r: r.index
        )
        program = programs[stream] if stream < len(programs) else programs[-1]
        _sanitize_stream(report, stream, program, stream_runs, tasks_by_run)
    report.findings.sort(
        key=lambda f: (0 if f.severity == "error" else 1, f.stream, f.pred, f.succ)
    )
    return report


def _as_programs(
    program: PhaseProgram | Sequence[PhaseProgram],
) -> list[PhaseProgram]:
    if isinstance(program, PhaseProgram):
        return [program]
    return list(program)


def sanitize_result(
    result, program: PhaseProgram | Sequence[PhaseProgram]
) -> SanitizerReport:
    """Sanitize a live :class:`~repro.executive.scheduler.RunResult`.

    ``program`` is the compiled program the run executed (one per stream,
    or a single program shared by all streams).
    """
    tasks, notes = tasks_from_trace(result.trace)
    runs = [
        _RunInfo(gid, s.stream, s.index, s.name)
        for gid, s in enumerate(result.phase_stats)
    ]
    return _sanitize(tasks, notes, runs, _as_programs(program))


def sanitize_saved(
    data: dict[str, Any], program: PhaseProgram | Sequence[PhaseProgram]
) -> SanitizerReport:
    """Sanitize a saved run (the ``RUN.json`` of ``simulate --save``).

    Raises ``ValueError`` when the payload carries no trace — the
    sanitizer needs the executed task events.
    """
    from repro.sim.persist import trace_from_dict

    if "trace" not in data:
        raise ValueError(
            "saved run has no trace; re-run `repro simulate --save RUN.json` "
            "(traces are included by default)"
        )
    summary = data.get("summary", {})
    phases = summary.get("phases", [])
    if not phases:
        raise ValueError("saved run has no phase summary; not a simulate --save file?")
    runs = [
        _RunInfo(gid, int(p["stream"]), int(p["index"]), str(p["name"]))
        for gid, p in enumerate(phases)
    ]
    tasks, notes = tasks_from_trace(trace_from_dict(data["trace"]))
    return _sanitize(tasks, notes, runs, _as_programs(program))
