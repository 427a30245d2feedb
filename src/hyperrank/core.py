"""Directed-hypergraph data model: validation, incidence, degrees, pruning.

A hypergraph here is a fixed vertex order plus a fixed arc order. Every
matrix produced downstream (incidence, transition, Laplacians) follows
these orders, so all layouts and rankings are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .sparse import SparseRealMatrix

EMPTY_TAIL = "EmptyTail"
EMPTY_HEAD = "EmptyHead"
TAIL_HEAD_OVERLAP = "TailHeadOverlap"
NONPOSITIVE_WEIGHT = "NonpositiveWeight"
UNKNOWN_VERTEX = "UnknownVertex"
DUPLICATE_VERTEX_ID = "DuplicateVertexId"
DUPLICATE_ARC_ID = "DuplicateArcId"


@dataclass(frozen=True)
class Violation:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def codes(self) -> set[str]:
        return {v.code for v in self.violations}

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


@dataclass(frozen=True)
class HyperArc:
    """One directed hyperedge: a weighted (tail set, head set) pair.

    Sides are stored as sorted index tuples with set semantics, i.e.
    duplicate mentions collapse.
    """

    id: str
    tail: tuple[int, ...]
    head: tuple[int, ...]
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "tail", tuple(sorted(set(self.tail))))
        object.__setattr__(self, "head", tuple(sorted(set(self.head))))
        object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class DirectedHypergraph:
    """Ordered vertices plus ordered hyper-arcs over their indices."""

    vertices: tuple[str, ...] = ()
    arcs: tuple[HyperArc, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arcs", tuple(self.arcs))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @cached_property
    def index_of(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @property
    def arc_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.arcs)

    @classmethod
    def from_named_arcs(cls, named_arcs: Iterable[Sequence],
                        vertices: Sequence[str] | None = None) -> "DirectedHypergraph":
        """Build from (id, tail names, head names[, weight]) rows.

        Vertex ids are interned in first-mention order (tail before head,
        rows in order) unless an explicit vertex list is given.
        """
        rows = [tuple(r) for r in named_arcs]
        if vertices is None:
            seen: dict[str, None] = {}
            for r in rows:
                for name in list(r[1]) + list(r[2]):
                    seen.setdefault(name)
            vertex_list = list(seen)
        else:
            vertex_list = list(vertices)
        index = {v: i for i, v in enumerate(vertex_list)}
        arcs = []
        for r in rows:
            arc_id, tail, head = r[0], r[1], r[2]
            weight = float(r[3]) if len(r) > 3 else 1.0
            for name in list(tail) + list(head):
                if name not in index:
                    report = ValidationReport((Violation(
                        UNKNOWN_VERTEX, str(arc_id), f"unknown vertex id {name!r}"),))
                    raise ValidationError(report)
            arcs.append(HyperArc(str(arc_id),
                                 tuple(index[v] for v in tail),
                                 tuple(index[v] for v in head),
                                 weight))
        return cls(tuple(vertex_list), tuple(arcs))


def validate(hg: DirectedHypergraph) -> ValidationReport:
    """Check every structural invariant; report all violations, not just one."""
    violations: list[Violation] = []
    seen: set[str] = set()
    for v in hg.vertices:
        if v in seen:
            violations.append(Violation(DUPLICATE_VERTEX_ID, v,
                                        "vertex id occurs more than once"))
        seen.add(v)
    n = hg.n_vertices
    seen_arcs: set[str] = set()
    for arc in hg.arcs:
        if arc.id in seen_arcs:
            violations.append(Violation(DUPLICATE_ARC_ID, arc.id,
                                        "arc id occurs more than once"))
        seen_arcs.add(arc.id)
        bad_index = [i for i in arc.tail + arc.head if not 0 <= i < n]
        if bad_index:
            violations.append(Violation(UNKNOWN_VERTEX, arc.id,
                                        f"vertex index {bad_index[0]} out of range"))
            continue
        if not arc.tail:
            violations.append(Violation(EMPTY_TAIL, arc.id, "tail is empty"))
        if not arc.head:
            violations.append(Violation(EMPTY_HEAD, arc.id, "head is empty"))
        overlap = set(arc.tail) & set(arc.head)
        if overlap:
            names = ", ".join(hg.vertices[i] for i in sorted(overlap))
            violations.append(Violation(TAIL_HEAD_OVERLAP, arc.id,
                                        f"tail and head share: {names}"))
        if not (arc.weight > 0.0) or not np.isfinite(arc.weight):
            violations.append(Violation(NONPOSITIVE_WEIGHT, arc.id,
                                        f"weight {arc.weight!r} is not a positive real"))
    return ValidationReport(tuple(violations))


def ensure_valid(hg: DirectedHypergraph) -> DirectedHypergraph:
    report = validate(hg)
    if not report.ok:
        raise ValidationError(report)
    return hg


@dataclass(frozen=True, eq=False)
class DegreeTables:
    """The four degree maps, aligned to canonical vertex/arc order.

    Vertex degrees are weight-summed reals; arc degrees are plain
    cardinalities. The arrays double as the diagonals of the four
    degree matrices.
    """

    vertices: tuple[str, ...]
    arc_ids: tuple[str, ...]
    vertex_tail: np.ndarray
    vertex_head: np.ndarray
    arc_tail: np.ndarray
    arc_head: np.ndarray

    @cached_property
    def _vertex_index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _arc_index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.arc_ids)}

    def tail_degree(self, vertex: str) -> float:
        return float(self.vertex_tail[self._vertex_index[vertex]])

    def head_degree(self, vertex: str) -> float:
        return float(self.vertex_head[self._vertex_index[vertex]])

    def arc_tail_degree(self, arc_id: str) -> int:
        return int(self.arc_tail[self._arc_index[arc_id]])

    def arc_head_degree(self, arc_id: str) -> int:
        return int(self.arc_head[self._arc_index[arc_id]])


def compute_degrees(hg: DirectedHypergraph) -> DegreeTables:
    ensure_valid(hg)
    nv, na = hg.n_vertices, hg.n_arcs
    vertex_tail = np.zeros(nv)
    vertex_head = np.zeros(nv)
    arc_tail = np.zeros(na, dtype=np.int64)
    arc_head = np.zeros(na, dtype=np.int64)
    for j, arc in enumerate(hg.arcs):
        arc_tail[j] = len(arc.tail)
        arc_head[j] = len(arc.head)
        for u in arc.tail:
            vertex_tail[u] += arc.weight
        for v in arc.head:
            vertex_head[v] += arc.weight
    for arr in (vertex_tail, vertex_head, arc_tail, arc_head):
        arr.setflags(write=False)
    return DegreeTables(hg.vertices, hg.arc_ids,
                        vertex_tail, vertex_head, arc_tail, arc_head)


def build_incidence(hg: DirectedHypergraph) -> tuple[SparseRealMatrix, SparseRealMatrix]:
    """The |V|x|E| 0/1 tail and head membership matrices, in that order."""
    ensure_valid(hg)
    nv, na = hg.n_vertices, hg.n_arcs
    tail_entries = [(u, j, 1.0) for j, arc in enumerate(hg.arcs) for u in arc.tail]
    head_entries = [(v, j, 1.0) for j, arc in enumerate(hg.arcs) for v in arc.head]
    return (SparseRealMatrix.from_coo(nv, na, tail_entries),
            SparseRealMatrix.from_coo(nv, na, head_entries))


@dataclass(frozen=True)
class PruneEvent:
    round: int
    kind: str  # "vertex" | "arc"
    identifier: str
    reason: str


def prune_to_core(hg: DirectedHypergraph) -> tuple[DirectedHypergraph, list[PruneEvent]]:
    """Iteratively remove degree-zero vertices and emptied arcs to a fixed point.

    A vertex survives only with positive tail AND head degree; an arc
    survives only with nonempty tail AND head after vertex removals. The
    cascade repeats until stable, so the result is idempotent. The empty
    hypergraph is a legal output.
    """
    ensure_valid(hg)
    n = hg.n_vertices
    alive_vertex = [True] * n
    tails = [set(a.tail) for a in hg.arcs]
    heads = [set(a.head) for a in hg.arcs]
    alive_arc = [True] * hg.n_arcs
    events: list[PruneEvent] = []
    rnd = 0
    while True:
        rnd += 1
        tail_deg = [0] * n
        head_deg = [0] * n
        for k in range(hg.n_arcs):
            if not alive_arc[k]:
                continue
            for u in tails[k]:
                tail_deg[u] += 1
            for v in heads[k]:
                head_deg[v] += 1
        doomed = set()
        for v in range(n):
            if not alive_vertex[v]:
                continue
            no_tail = tail_deg[v] == 0
            no_head = head_deg[v] == 0
            if no_tail or no_head:
                if no_tail and no_head:
                    reason = "zero tail and head degree"
                elif no_tail:
                    reason = "zero tail degree"
                else:
                    reason = "zero head degree"
                events.append(PruneEvent(rnd, "vertex", hg.vertices[v], reason))
                alive_vertex[v] = False
                doomed.add(v)
        if not doomed:
            break
        for k in range(hg.n_arcs):
            if not alive_arc[k]:
                continue
            tails[k] -= doomed
            heads[k] -= doomed
            if not tails[k] or not heads[k]:
                if not tails[k] and not heads[k]:
                    reason = "tail and head emptied"
                elif not tails[k]:
                    reason = "tail emptied"
                else:
                    reason = "head emptied"
                events.append(PruneEvent(rnd, "arc", hg.arcs[k].id, reason))
                alive_arc[k] = False
    keep = [v for v in range(n) if alive_vertex[v]]
    remap = {old: new for new, old in enumerate(keep)}
    vertices = tuple(hg.vertices[v] for v in keep)
    arcs = tuple(
        HyperArc(hg.arcs[k].id,
                 tuple(remap[u] for u in tails[k]),
                 tuple(remap[v] for v in heads[k]),
                 hg.arcs[k].weight)
        for k in range(hg.n_arcs) if alive_arc[k]
    )
    return DirectedHypergraph(vertices, arcs), events
