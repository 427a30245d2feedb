"""Directed-hypergraph data model: validation, incidence, degrees, pruning.

A hypergraph here is a fixed vertex order plus a fixed arc order. Every
matrix produced downstream (incidence, transition, Laplacians) follows
these orders, so all layouts and rankings are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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


@dataclass(frozen=True, eq=False)
class ArcLayout:
    """The arcs as two CSR blocks over the vertex indices, plus their weights.

    Arc j's tail is ``tail_idx[tail_ptr[j]:tail_ptr[j + 1]]`` and its head
    is the same slice of ``head_idx``; both are sorted. Arrays are frozen.
    """

    tail_ptr: np.ndarray
    tail_idx: np.ndarray
    head_ptr: np.ndarray
    head_idx: np.ndarray
    weight: np.ndarray

    @property
    def tail_arc(self) -> np.ndarray:
        """The arc of each entry of ``tail_idx``."""
        return np.repeat(np.arange(self.weight.size), np.diff(self.tail_ptr))

    @property
    def head_arc(self) -> np.ndarray:
        """The arc of each entry of ``head_idx``."""
        return np.repeat(np.arange(self.weight.size), np.diff(self.head_ptr))


def _csr(sides: list[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    ptr = np.zeros(len(sides) + 1, dtype=np.int64)
    np.cumsum([len(side) for side in sides], out=ptr[1:])
    idx = np.fromiter(chain.from_iterable(sides), dtype=np.int64, count=ptr[-1])
    return ptr, idx


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

    @cached_property
    def layout(self) -> ArcLayout:
        """The flat arrays every degree, matrix and pruning pass runs over."""
        tail_ptr, tail_idx = _csr([a.tail for a in self.arcs])
        head_ptr, head_idx = _csr([a.head for a in self.arcs])
        weight = np.fromiter((a.weight for a in self.arcs), dtype=np.float64,
                             count=len(self.arcs))
        arrays = (tail_ptr, tail_idx, head_ptr, head_idx, weight)
        for arr in arrays:
            arr.setflags(write=False)
        return ArcLayout(*arrays)

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
    lay = hg.layout
    nv = hg.n_vertices
    arc_tail = np.diff(lay.tail_ptr)
    arc_head = np.diff(lay.head_ptr)
    # bincount adds each vertex's weights in arc order, like a running sum
    vertex_tail = np.bincount(lay.tail_idx, weights=np.repeat(lay.weight, arc_tail),
                              minlength=nv).astype(np.float64, copy=False)
    vertex_head = np.bincount(lay.head_idx, weights=np.repeat(lay.weight, arc_head),
                              minlength=nv).astype(np.float64, copy=False)
    for arr in (vertex_tail, vertex_head, arc_tail, arc_head):
        arr.setflags(write=False)
    return DegreeTables(hg.vertices, hg.arc_ids,
                        vertex_tail, vertex_head, arc_tail, arc_head)


def build_incidence(hg: DirectedHypergraph) -> tuple[SparseRealMatrix, SparseRealMatrix]:
    """The |V|x|E| 0/1 tail and head membership matrices, in that order."""
    ensure_valid(hg)
    lay = hg.layout
    nv, na = hg.n_vertices, hg.n_arcs
    return (SparseRealMatrix.from_coo(nv, na, lay.tail_idx, lay.tail_arc,
                                      np.ones(lay.tail_idx.size)),
            SparseRealMatrix.from_coo(nv, na, lay.head_idx, lay.head_arc,
                                      np.ones(lay.head_idx.size)))


@dataclass(frozen=True)
class PruneEvent:
    round: int
    kind: str  # "vertex" | "arc"
    identifier: str
    reason: str


# indexed by (zero tail degree, zero head degree) and (tail emptied, head emptied)
_VERTEX_REASONS = {(True, True): "zero tail and head degree",
                   (True, False): "zero tail degree",
                   (False, True): "zero head degree"}
_ARC_REASONS = {(True, True): "tail and head emptied",
                (True, False): "tail emptied",
                (False, True): "head emptied"}


def prune_to_core(hg: DirectedHypergraph) -> tuple[DirectedHypergraph, list[PruneEvent]]:
    """Iteratively remove degree-zero vertices and emptied arcs to a fixed point.

    A vertex survives only with positive tail AND head degree; an arc
    survives only with nonempty tail AND head after vertex removals. The
    cascade repeats until stable, so the result is idempotent. The empty
    hypergraph is a legal output.
    """
    ensure_valid(hg)
    lay = hg.layout
    n, m = hg.n_vertices, hg.n_arcs
    tail_arc, head_arc = lay.tail_arc, lay.head_arc
    alive_vertex = np.ones(n, dtype=bool)
    alive_arc = np.ones(m, dtype=bool)
    events: list[PruneEvent] = []
    rnd = 0
    while True:
        rnd += 1
        # a removed vertex is stripped from every live arc, so counting the
        # live arcs' original sides is exact for the vertices still alive
        no_tail = np.bincount(lay.tail_idx[alive_arc[tail_arc]], minlength=n) == 0
        no_head = np.bincount(lay.head_idx[alive_arc[head_arc]], minlength=n) == 0
        doomed = alive_vertex & (no_tail | no_head)
        if not doomed.any():
            break
        for v in np.flatnonzero(doomed).tolist():
            events.append(PruneEvent(rnd, "vertex", hg.vertices[v],
                                     _VERTEX_REASONS[no_tail[v], no_head[v]]))
        alive_vertex &= ~doomed
        emptied_tail = np.bincount(tail_arc[alive_vertex[lay.tail_idx]], minlength=m) == 0
        emptied_head = np.bincount(head_arc[alive_vertex[lay.head_idx]], minlength=m) == 0
        dying = alive_arc & (emptied_tail | emptied_head)
        for k in np.flatnonzero(dying).tolist():
            events.append(PruneEvent(rnd, "arc", hg.arcs[k].id,
                                     _ARC_REASONS[emptied_tail[k], emptied_head[k]]))
        alive_arc &= ~dying
    remap = np.cumsum(alive_vertex) - 1
    tails = _surviving_sides(lay.tail_ptr, lay.tail_idx, alive_vertex, remap)
    heads = _surviving_sides(lay.head_ptr, lay.head_idx, alive_vertex, remap)
    vertices = tuple(hg.vertices[v] for v in np.flatnonzero(alive_vertex).tolist())
    arcs = tuple(HyperArc(hg.arcs[k].id, tails[k], heads[k], hg.arcs[k].weight)
                 for k in np.flatnonzero(alive_arc).tolist())
    return DirectedHypergraph(vertices, arcs), events


def _surviving_sides(ptr, idx, alive_vertex, remap) -> list[tuple[int, ...]]:
    """Every arc's side restricted to the live vertices, in the new numbering."""
    keep = alive_vertex[idx]
    bounds = np.concatenate(([0], np.cumsum(keep)))[ptr].tolist()
    flat = remap[idx[keep]].tolist()
    return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]
