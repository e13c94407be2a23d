"""Whole-program happens-before engine over phases and granules.

The per-pair analyzer races one declared mapping against one inferred
mapping; this module sees the *whole* program.  It builds a graph whose
nodes are phases and whose edges carry :class:`GranuleRelation` labels —
compact interval/offset descriptions of which predecessor granules each
successor granule must wait for:

* control flow (dispatch sequencing on every reachable GOTO/IFGOTO path,
  ``SERIAL`` statements, implicit barriers where no ``ENABLE`` names the
  follower) contributes *effective* edges — orderings the executive will
  actually enforce;
* every declared ``ENABLE`` item contributes a *declared* edge, whether
  or not any adjacency realizes it (branch-dependent DEFINE-time lists
  and dispatch-site lists may name phases that never follow).

Relations compose: if successor granule ``h`` waits for middle granules
``h + o1`` and each of those waits for predecessor granules ``m + o2``,
the transitive wait offsets are the sumset ``{o1 + o2}``.  Keeping the
labels as small offset windows (degrading to ``all``/``opaque`` beyond
:data:`MAX_OFFSETS`) makes granule-level reachability queries cheap even
at 10k-granule scale: a query never enumerates granules, it tests
membership in a composed window.

On top of the graph the engine answers the three whole-program questions
the analyzer's rules RDN007–RDN009 need:

* :meth:`HappensBeforeEngine.cycles` — declared interlocks that order a
  granule after itself (guaranteed deadlock/stall);
* :meth:`HappensBeforeEngine.redundant_declared_edges` — declared
  mappings fully implied by the transitive order (dead sync cost);
* :meth:`HappensBeforeEngine.happens_before` — the granule-level query
  the trace sanitizer cross-checks at runtime.

Cycle semantics: a declared cycle only proves a deadlock when honoring
*all* its interlocks simultaneously is contradictory, i.e. the composed
relation makes some granule wait (transitively) for itself.  A cycle in
which every edge is realized by a forward schedule adjacency is software
pipelining across loop iterations — distinct occurrences, not a
contradiction — so RDN007 requires at least one edge that no forward
adjacency realizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.classifier import (
    PairClassification,
    classification_of,
    classify_pair,
    wait_deltas,
)
from repro.core.mapping import MappingKind
from repro.core.phase import PhaseSpec

# The trace sanitizer needs only the relation algebra; the PAX front end
# (repro.lang) is imported by the static-analysis functions that walk a
# parsed program, so replaying a run never loads it.
if TYPE_CHECKING:  # pragma: no cover
    from repro.lang.ast import Dispatch, Program
    from repro.lang.semantics import VerifiedProgram

__all__ = [
    "MAX_OFFSETS",
    "GranuleRelation",
    "EMPTY_RELATION",
    "ALL_RELATION",
    "relation_of",
    "compose",
    "HBEdge",
    "HBCycle",
    "HappensBeforeEngine",
    "reachable_statements",
    "followers_with_serial",
    "declared_span",
]

#: Composed offset windows wider than this degrade to ``opaque`` — the
#: engine then makes no claim rather than an expensive or wrong one.
MAX_OFFSETS = 64

_MAX_PATH_DEPTH = 32
_MAX_PATH_STEPS = 20_000
_MAX_CYCLE_LEN = 8


# --------------------------------------------------------------------------
# control-flow walks (shared with the analyzer — one source of truth)


def reachable_statements(program: Program) -> set[int]:
    """Statement indexes reachable from the program entry."""
    from repro.lang.ast import Goto, IfGoto

    labels = program.labels()
    statements = program.statements
    seen: set[int] = set()
    stack = [0]
    while stack:
        i = stack.pop()
        while 0 <= i < len(statements) and i not in seen:
            seen.add(i)
            s = statements[i]
            if isinstance(s, Goto):
                i = labels[s.target]
                continue
            if isinstance(s, IfGoto):
                stack.append(labels[s.target])
            i += 1
    return seen


def followers_with_serial(
    program: Program, dispatch_index: int
) -> list[tuple[str, bool]]:
    """``(phase, serial_on_every_path)`` for each follower of a dispatch.

    Like :func:`repro.lang.semantics.next_dispatch_phases` but tracks
    whether a ``SERIAL`` statement separates the pair.  When a follower
    is reachable both with and without an intervening serial action, the
    serial-free path governs — that is the path overlap could occur on.
    """
    from repro.lang.ast import Dispatch, Goto, IfGoto, SerialStmt

    labels = program.labels()
    statements = program.statements
    found: dict[str, bool] = {}
    seen_states: set[tuple[int, bool]] = set()
    stack: list[tuple[int, bool]] = [(dispatch_index + 1, False)]
    while stack:
        i, serial = stack.pop()
        while i < len(statements):
            if (i, serial) in seen_states:
                break
            seen_states.add((i, serial))
            s = statements[i]
            if isinstance(s, Dispatch):
                found[s.phase] = found.get(s.phase, True) and serial
                break
            if isinstance(s, SerialStmt):
                serial = True
            elif isinstance(s, Goto):
                i = labels[s.target]
                continue
            elif isinstance(s, IfGoto):
                stack.append((labels[s.target], serial))
            i += 1
    return sorted(found.items())


def declared_span(
    dispatch: Dispatch, succ: str, verified: VerifiedProgram
) -> tuple[int, int]:
    """Best source span for the declaration governing ``dispatch -> succ``."""
    from repro.lang.ast import EnableClauseKind

    clause = dispatch.enable
    if clause is not None:
        if clause.kind in (EnableClauseKind.LIST, EnableClauseKind.BRANCH_INDEPENDENT):
            for item in clause.items:
                if item.phase == succ:
                    return item.line or clause.line, item.col or clause.col
            return clause.line, clause.col
        if clause.kind is EnableClauseKind.INLINE:
            return clause.line, clause.col
    for item in verified.definitions[dispatch.phase].enables:
        if item.phase == succ:
            return item.line or dispatch.line, item.col or dispatch.col
    return dispatch.line, dispatch.col


# --------------------------------------------------------------------------
# granule-level relation labels


@dataclass(frozen=True, slots=True)
class GranuleRelation:
    """Which predecessor granules each successor granule waits for.

    ``kind`` is one of:

    * ``"empty"`` — no granule waits for anything (UNIVERSAL);
    * ``"all"`` — every successor granule waits for every predecessor
      granule (NULL / barrier / serial);
    * ``"window"`` — successor granule ``h`` waits exactly for
      predecessor granules ``h + o`` over ``offsets`` (IDENTITY = {0},
      SEAM = its offsets), in the classifier's unbounded granule space;
    * ``"mapped"`` — data-dependent wait pairs through a named
      information-selection map (reverse/forward indirect);
    * ``"opaque"`` — the engine lost precision composing; no claim.
    """

    kind: str
    offsets: frozenset[int] = frozenset()
    map_name: str = ""
    fan: int = 1
    direction: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("empty", "all", "window", "mapped", "opaque"):
            raise ValueError(f"unknown relation kind {self.kind!r}")

    @property
    def nonempty(self) -> bool:
        return self.kind != "empty"

    def describe(self) -> str:
        if self.kind == "window":
            offs = ",".join(str(o) for o in sorted(self.offsets))
            return f"window({offs})"
        if self.kind == "mapped":
            return f"{self.direction}({self.map_name})"
        return self.kind


EMPTY_RELATION = GranuleRelation("empty")
ALL_RELATION = GranuleRelation("all")
OPAQUE_RELATION = GranuleRelation("opaque")


def relation_of(c: PairClassification) -> GranuleRelation:
    """The granule-level wait relation of a classification verdict."""
    if c.kind is MappingKind.UNIVERSAL:
        return EMPTY_RELATION
    if c.kind is MappingKind.NULL:
        return ALL_RELATION
    deltas = wait_deltas(c)
    if deltas is not None:
        return GranuleRelation("window", offsets=deltas)
    if c.kind is MappingKind.REVERSE_INDIRECT:
        return GranuleRelation(
            "mapped", map_name=c.map_name or "", fan=c.fan_in or 1, direction="reverse"
        )
    if c.kind is MappingKind.FORWARD_INDIRECT:
        return GranuleRelation("mapped", map_name=c.map_name or "", direction="forward")
    return OPAQUE_RELATION


def compose(r1: GranuleRelation, r2: GranuleRelation) -> GranuleRelation:
    """The wait relation of ``P -> Q -> R`` given ``P -> Q`` and ``Q -> R``.

    Soundness direction: the result only claims wait pairs that *must*
    hold whenever both inputs hold; anything uncertain degrades to
    ``opaque`` (no claim), never to a stronger relation.
    """
    if r1.kind == "empty" or r2.kind == "empty":
        # one hop imposes no waits, so nothing is transitively certain
        return EMPTY_RELATION
    if r1.kind == "opaque" or r2.kind == "opaque":
        return OPAQUE_RELATION
    if r1.kind == "all":
        # every Q granule waits for every P granule; the composition is
        # "all" as long as every R granule provably waits for >= 1 Q
        # granule.  A forward map only guarantees that for Q granules
        # (each has an image), not for R granules (columns may be empty).
        if r2.kind == "all" or r2.kind == "window":
            return ALL_RELATION
        if r2.kind == "mapped" and r2.direction == "reverse":
            return ALL_RELATION  # fan-in >= 1: every R granule has sources
        return OPAQUE_RELATION
    if r2.kind == "all":
        # every R granule waits for every Q granule; "all" as long as
        # every P granule provably has >= 1 dependent Q granule.
        if r1.kind == "window":
            return ALL_RELATION
        if r1.kind == "mapped" and r1.direction == "forward":
            return ALL_RELATION  # the map is total: every P granule maps on
        return OPAQUE_RELATION
    if r1.kind == "window" and r2.kind == "window":
        summed = frozenset(o1 + o2 for o1 in r1.offsets for o2 in r2.offsets)
        if len(summed) > MAX_OFFSETS:
            return OPAQUE_RELATION
        return GranuleRelation("window", offsets=summed)
    if r1.kind == "mapped" and r2.kind == "window" and r2.offsets == {0}:
        return r1
    if r2.kind == "mapped" and r1.kind == "window" and r1.offsets == {0}:
        return r2
    return OPAQUE_RELATION


class _Certain:
    """Union of relations certain over *some* path — a lower bound on order."""

    __slots__ = ("all", "offsets", "mapped", "truncated")

    def __init__(self) -> None:
        self.all = False
        self.offsets: set[int] = set()
        self.mapped: set[tuple[str, int, str]] = set()
        self.truncated = False

    def add(self, r: GranuleRelation) -> None:
        if r.kind == "all":
            self.all = True
        elif r.kind == "window":
            self.offsets |= r.offsets
        elif r.kind == "mapped":
            self.mapped.add((r.map_name, r.fan, r.direction))

    def implies(self, declared: GranuleRelation) -> bool:
        """Does the certain order already enforce ``declared``'s waits?"""
        if self.truncated:
            return False  # the search gave up; make no claim
        if declared.kind == "empty":
            return True
        if self.all:
            return True
        if declared.kind == "window":
            return bool(declared.offsets) and declared.offsets <= self.offsets
        if declared.kind == "mapped":
            return (declared.map_name, declared.fan, declared.direction) in self.mapped
        return False


def _implies_alone(composed: GranuleRelation, declared: GranuleRelation) -> bool:
    single = _Certain()
    single.add(composed)
    return single.implies(declared)


# --------------------------------------------------------------------------
# the graph


@dataclass(frozen=True, slots=True)
class HBEdge:
    """One ordering edge of the happens-before graph."""

    pred: str
    succ: str
    relation: GranuleRelation
    #: True when a programmer wrote this ordering (an ENABLE item);
    #: False for control-flow orderings (serial/implicit barriers, AUTO).
    declared: bool
    #: True when some forward schedule adjacency realizes the edge —
    #: the executive will actually enforce it between those occurrences.
    effective: bool
    origin: str
    option_desc: str = ""
    line: int = 0
    col: int = 0


@dataclass(frozen=True, slots=True)
class HBCycle:
    """A contradictory declared wait cycle (the RDN007 witness)."""

    phases: tuple[str, ...]
    edges: tuple[HBEdge, ...]
    relation: GranuleRelation

    def describe(self) -> str:
        return " -> ".join(self.phases + (self.phases[0],))


def _option_desc(c: PairClassification) -> str:
    kind = c.kind
    if kind is MappingKind.SEAM:
        return "SEAM(" + ",".join(str(o) for o in sorted(c.offsets)) + ")"
    if kind is MappingKind.REVERSE_INDIRECT:
        return f"REVERSE({c.map_name},{c.fan_in})"
    if kind is MappingKind.FORWARD_INDIRECT:
        return f"FORWARD({c.map_name})"
    return kind.value.upper()


class HappensBeforeEngine:
    """The whole-program granule-level partial order of a PAX program."""

    def __init__(
        self,
        program: Program,
        verified: VerifiedProgram,
        specs: dict[str, PhaseSpec] | None = None,
    ) -> None:
        self.program = program
        self.verified = verified
        if specs is None:
            from repro.lang.compiler import access_pattern_of

            map_decls = program.map_decls()
            specs = {
                name: PhaseSpec(
                    name, d.granules, access=access_pattern_of(d, map_decls)
                )
                for name, d in verified.definitions.items()
            }
        self.specs = specs
        self.edges: list[HBEdge] = []
        self._build()
        # adjacency over effective, wait-imposing edges — the transitive base
        self._adj: dict[str, list[HBEdge]] = {}
        for e in self.edges:
            if e.effective and e.relation.nonempty:
                self._adj.setdefault(e.pred, []).append(e)
        self._certain_cache: dict[tuple[str, str], _Certain] = {}
        self._closure: dict[str, int] | None = None
        self._phase_bits = {name: 1 << i for i, name in enumerate(sorted(specs))}

    # ---------------------------------------------------------------- build

    def _build(self) -> None:
        from repro.lang.ast import Dispatch, EnableClauseKind
        from repro.lang.compiler import mapping_from_option, select_option

        program, verified = self.program, self.verified
        statements = program.statements
        reachable = reachable_statements(program)
        seen_keys: set[tuple] = set()
        effective_pairs: set[tuple[str, str]] = set()
        dispatched_live: set[str] = set()

        def add(edge: HBEdge) -> None:
            key = (
                edge.pred, edge.succ, edge.relation, edge.declared,
                edge.effective, edge.origin, edge.line, edge.col,
            )
            if key not in seen_keys:
                seen_keys.add(key)
                self.edges.append(edge)

        for idx, s in enumerate(statements):
            if not isinstance(s, Dispatch) or idx not in reachable:
                continue
            dispatched_live.add(s.phase)
            followers = followers_with_serial(program, idx)
            follower_names = {name for name, _ in followers}
            for succ, serial_between in followers:
                line, col = declared_span(s, succ, verified)
                if serial_between:
                    add(HBEdge(s.phase, succ, ALL_RELATION, False, True,
                               "serial barrier", "", s.line, s.col))
                    effective_pairs.add((s.phase, succ))
                    continue
                option = select_option(s, succ, verified)
                if option is None:
                    add(HBEdge(s.phase, succ, ALL_RELATION, False, True,
                               "implicit barrier", "", s.line, s.col))
                    effective_pairs.add((s.phase, succ))
                    continue
                if option.kind == "AUTO":
                    inferred = classify_pair(self.specs[s.phase], self.specs[succ])
                    add(HBEdge(s.phase, succ, relation_of(inferred), False, True,
                               "AUTO mapping", "AUTO", line, col))
                    effective_pairs.add((s.phase, succ))
                    continue
                declared = classification_of(mapping_from_option(option), s.phase, succ)
                add(HBEdge(s.phase, succ, relation_of(declared), True, True,
                           "ENABLE", _option_desc(declared), line, col))
                effective_pairs.add((s.phase, succ))
            # dispatch-site list items naming phases that never follow this
            # dispatch: declared but unrealized orderings
            clause = s.enable
            if clause is not None and clause.kind in (
                EnableClauseKind.LIST, EnableClauseKind.BRANCH_INDEPENDENT
            ):
                for item in clause.items:
                    if item.phase in follower_names:
                        continue
                    if item.phase not in verified.definitions:
                        continue
                    declared = classification_of(
                        mapping_from_option(item.mapping), s.phase, item.phase
                    )
                    add(HBEdge(s.phase, item.phase, relation_of(declared), True, False,
                               "ENABLE list", _option_desc(declared),
                               item.line or clause.line, item.col or clause.col))

        # DEFINE-time ENABLE items of live phases not realized by any
        # adjacency (shadowed items — where an effective declared edge
        # already covers the pair — are treated as covered by it)
        for name in sorted(dispatched_live):
            d = verified.definitions[name]
            for item in d.enables:
                if item.phase not in verified.definitions:
                    continue
                if (name, item.phase) in effective_pairs:
                    continue
                declared = classification_of(
                    mapping_from_option(item.mapping), name, item.phase
                )
                add(HBEdge(name, item.phase, relation_of(declared), True, False,
                           "DEFINE-time ENABLE", _option_desc(declared),
                           item.line or d.line, item.col or d.col))

    # -------------------------------------------------------------- queries

    def _closure_masks(self) -> dict[str, int]:
        """Per-phase bitmask of phases reachable through effective edges."""
        if self._closure is None:
            names = sorted(self._phase_bits)
            index = {name: i for i, name in enumerate(names)}
            masks = [0] * len(names)
            for pred, edges in self._adj.items():
                for e in edges:
                    masks[index[pred]] |= 1 << index[e.succ]
            changed = True
            while changed:
                changed = False
                for i in range(len(names)):
                    mask = masks[i]
                    extra = 0
                    m = mask
                    while m:
                        low = m & -m
                        m ^= low
                        extra |= masks[low.bit_length() - 1]
                    new = mask | extra
                    if new != mask:
                        masks[i] = new
                        changed = True
            self._closure = {name: masks[index[name]] for name in names}
        return self._closure

    def reaches(self, pred: str, succ: str) -> bool:
        """Is some wait ordered from ``pred`` to ``succ`` transitively?"""
        return bool(self._closure_masks()[pred] & self._phase_bits[succ])

    def certain_between(
        self, pred: str, succ: str, *, exclude_direct: bool = False
    ) -> _Certain:
        """Lower bound on the transitive order from ``pred`` to ``succ``.

        With ``exclude_direct`` the direct ``pred -> succ`` edges are
        removed first, so the result is what the *rest* of the program
        already enforces — the RDN008 question.
        """
        if not exclude_direct and (pred, succ) in self._certain_cache:
            return self._certain_cache[(pred, succ)]
        certain, _ = self._search(pred, succ, exclude_direct, witness_for=None)
        if not exclude_direct:
            self._certain_cache[(pred, succ)] = certain
        return certain

    def _search(
        self,
        pred: str,
        succ: str,
        exclude_direct: bool,
        witness_for: GranuleRelation | None,
    ) -> tuple[_Certain, list[str] | None]:
        certain = _Certain()
        witness: list[str] | None = None
        steps = 0

        def edges_from(node: str) -> list[HBEdge]:
            out = self._adj.get(node, [])
            if exclude_direct and node == pred:
                out = [e for e in out if e.succ != succ]
            return out

        # iterative DFS over simple paths, composing relations as we go
        stack: list[tuple[str, GranuleRelation | None, tuple[str, ...]]] = [
            (pred, None, (pred,))
        ]
        while stack:
            node, rel, path = stack.pop()
            steps += 1
            if steps > _MAX_PATH_STEPS or len(path) > _MAX_PATH_DEPTH:
                certain.truncated = True
                break
            for e in edges_from(node):
                nxt = compose(rel, e.relation) if rel is not None else e.relation
                if nxt.kind in ("empty", "opaque"):
                    continue  # this path proves nothing further
                if e.succ == succ:
                    certain.add(nxt)
                    if (
                        witness is None
                        and witness_for is not None
                        and _implies_alone(nxt, witness_for)
                    ):
                        witness = list(path) + [succ]
                    continue
                if e.succ in path:
                    continue
                stack.append((e.succ, nxt, path + (e.succ,)))
        return certain, witness

    def happens_before(self, pred: str, i: int, succ: str, j: int) -> bool:
        """Must predecessor granule ``i`` complete before ``succ``'s ``j`` starts?

        Answers from the certain (lower-bound) transitive order, so a
        ``False`` means "not provably ordered", not "provably racy".
        """
        certain = self.certain_between(pred, succ)
        if certain.all:
            return True
        return (i - j) in certain.offsets

    # ---------------------------------------------------------------- rules

    def cycles(self) -> list[HBCycle]:
        """Declared wait cycles that are contradictory (RDN007 witnesses).

        Only declared edges participate; a cycle fires only when (a) at
        least one edge is unrealized by any forward adjacency (an all-
        forward cycle is pipelining across loop iterations, not a
        contradiction) and (b) the composed relation makes a granule wait
        for itself — ``all``, or a window containing offset 0.
        """
        declared = [e for e in self.edges if e.declared and e.relation.nonempty]
        adj: dict[str, list[HBEdge]] = {}
        for e in declared:
            adj.setdefault(e.pred, []).append(e)
        out: list[HBCycle] = []
        steps = 0
        for start in sorted(adj):
            # canonical form: `start` is the smallest phase in the cycle
            stack: list[tuple[str, tuple[HBEdge, ...]]] = [(start, ())]
            while stack:
                node, path_edges = stack.pop()
                steps += 1
                if steps > _MAX_PATH_STEPS:
                    return out
                if len(path_edges) >= _MAX_CYCLE_LEN:
                    continue
                for e in adj.get(node, []):
                    if e.succ == start:
                        cycle_edges = path_edges + (e,)
                        if all(c.effective for c in cycle_edges):
                            continue
                        rel: GranuleRelation | None = None
                        for c in cycle_edges:
                            rel = compose(rel, c.relation) if rel is not None else c.relation
                        if rel.kind == "all" or (
                            rel.kind == "window" and 0 in rel.offsets
                        ):
                            out.append(HBCycle(
                                phases=(start,) + tuple(c.pred for c in cycle_edges[1:]),
                                edges=cycle_edges,
                                relation=rel,
                            ))
                        continue
                    if e.succ < start or any(c.pred == e.succ for c in path_edges):
                        continue
                    stack.append((e.succ, path_edges + (e,)))
        out.sort(key=lambda c: (c.edges[0].line, c.edges[0].col, c.phases))
        return out

    def redundant_declared_edges(self) -> list[tuple[HBEdge, list[str] | None]]:
        """Declared edges the rest of the order already implies (RDN008).

        Each result carries a witness path (phase names) whose composed
        relation alone implies the declared one, when a single such path
        exists; redundancy established only by a union of paths has a
        ``None`` witness.
        """
        out: list[tuple[HBEdge, list[str] | None]] = []
        for e in self.edges:
            if not e.declared or not e.relation.nonempty:
                continue
            if e.relation.kind == "opaque":
                continue
            certain, witness = self._search(
                e.pred, e.succ, exclude_direct=True, witness_for=e.relation
            )
            if certain.implies(e.relation):
                out.append((e, witness))
        out.sort(key=lambda pair: (pair[0].line, pair[0].col, pair[0].succ))
        return out

    def stats(self) -> dict[str, int]:
        """Graph size counters (used by the HB-build benchmark)."""
        return {
            "phases": len(self.specs),
            "edges": len(self.edges),
            "effective_edges": sum(1 for e in self.edges if e.effective),
            "declared_edges": sum(1 for e in self.edges if e.declared),
        }
