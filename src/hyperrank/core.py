"""Directed-hypergraph data model: validation, incidence, degrees, pruning.

A hypergraph here is a fixed vertex order plus a fixed arc order. Every
matrix produced downstream (incidence, transition, Laplacians) follows
these orders, so all layouts and rankings are reproducible run to run.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, NamedTuple, NoReturn, Sequence

import numpy as np

from .errors import ValidationError
from .sparse import SparseRealMatrix, _firsts, _ptr

EMPTY_TAIL = "EmptyTail"
EMPTY_HEAD = "EmptyHead"
TAIL_HEAD_OVERLAP = "TailHeadOverlap"
NONPOSITIVE_WEIGHT = "NonpositiveWeight"
UNKNOWN_VERTEX = "UnknownVertex"
DUPLICATE_VERTEX_ID = "DuplicateVertexId"
DUPLICATE_ARC_ID = "DuplicateArcId"
TAIL_WEIGHT_OVERFLOW = "TailWeightOverflow"


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
class ArcLayout:
    """The arcs as two CSR blocks over the vertex indices, plus their weights.

    Arc j's tail is ``tail_idx[tail_ptr[j]:tail_ptr[j + 1]]`` and its head
    is the same slice of ``head_idx``; both are sorted and hold each vertex
    once. Arrays are frozen, and layouts compare by value.
    """

    tail_ptr: np.ndarray
    tail_idx: np.ndarray
    head_ptr: np.ndarray
    head_idx: np.ndarray
    weight: np.ndarray

    def __post_init__(self):
        for arr in self._arrays():
            arr.setflags(write=False)

    @classmethod
    def from_sides(cls, tail_len, tail_idx, head_len, head_idx, weight) -> "ArcLayout":
        """The layout of arcs given as side lengths plus concatenated vertex indices.

        Each side is sorted and its repeated vertices dropped.
        """
        return cls(*_side(tail_len, tail_idx), *_side(head_len, head_idx),
                   np.array(weight, dtype=np.float64))

    def _arrays(self) -> tuple[np.ndarray, ...]:
        return (self.tail_ptr, self.tail_idx, self.head_ptr, self.head_idx, self.weight)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArcLayout):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._arrays(), other._arrays()))

    def __hash__(self) -> int:
        return hash((self.tail_idx.size, self.head_idx.size, self.weight.size))

    @property
    def tail_arc(self) -> np.ndarray:
        """The arc of each entry of ``tail_idx``."""
        return np.repeat(np.arange(self.weight.size), np.diff(self.tail_ptr))

    @property
    def head_arc(self) -> np.ndarray:
        """The arc of each entry of ``head_idx``."""
        return np.repeat(np.arange(self.weight.size), np.diff(self.head_ptr))


def _side(lengths, idx) -> tuple[np.ndarray, np.ndarray]:
    """CSR (ptr, idx) of one side of every arc, each slice sorted and deduplicated."""
    lengths = np.asarray(lengths, dtype=np.int64)
    idx = np.asarray(idx, dtype=np.int64)
    lo = int(idx.min(initial=0))
    span = int(idx.max(initial=0)) - lo + 1
    if span * lengths.size <= np.iinfo(np.int64).max:
        # each (arc, vertex) pair packed into one integer, arc j's from
        # j * span to j * span + span - 1, sorted and deduplicated in place
        key = np.repeat(np.arange(lengths.size) * span - lo, lengths)
        key += idx
        del idx
        key.sort()
        key = key[_firsts(key)]
        arc = key // span
        ptr = _ptr(arc, lengths.size)
        arc *= span
        key -= arc
        key += lo
        return ptr, key
    arc = np.repeat(np.arange(lengths.size), lengths)
    # indices too far apart to pack; arc is nondecreasing, so it stays aligned
    idx = idx[np.lexsort((idx, arc))]
    first = _firsts(idx) | _firsts(arc)
    return _ptr(arc[first], lengths.size), idx[first]


@dataclass(frozen=True)
class DirectedHypergraph:
    """Ordered vertices plus ordered hyper-arcs over their indices.

    The state is the vertex ids, the arc ids and the flat ``layout``, whose
    sides must already be normalised, as ``ArcLayout.from_sides`` leaves
    them; ``from_named_arcs`` builds one from names. Instances are immutable
    and compare by value.
    """

    vertices: tuple[str, ...]
    arc_ids: tuple[str, ...]
    layout: ArcLayout

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arc_ids", tuple(self.arc_ids))
        if len(self.arc_ids) != self.layout.weight.size:
            raise ValueError(f"{len(self.arc_ids)} arc ids for "
                             f"{self.layout.weight.size} arcs")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_arcs(self) -> int:
        return len(self.arc_ids)

    @cached_property
    def _report(self) -> "ValidationReport":
        return _check(self)

    @classmethod
    def from_named_arcs(cls, named_arcs: Iterable[Sequence],
                        vertices: Sequence[str] | None = None) -> "DirectedHypergraph":
        """Build from (id, tail names, head names[, weight]) rows.

        Vertex ids are interned in first-mention order (tail before head,
        rows in order) unless an explicit vertex list is given. Names and
        weights are read as ``load_canonical`` reads them, and a name that
        does not resolve raises its ``ValidationError``, with every violation.
        """
        rows = [tuple(r) for r in named_arcs]
        ids = [str(r[0]) for r in rows]
        tails, heads = [list(r[1]) for r in rows], [list(r[2]) for r in rows]
        weight = _weight_column([r[3] if len(r) > 3 else 1.0 for r in rows])
        if vertices is None:
            vertices = list(dict.fromkeys(chain.from_iterable(chain(*zip(tails, heads)))))
        index = _positions(vertices)
        try:
            sides = *_resolved(index, tails), *_resolved(index, heads)
        except KeyError:
            _reject_unknown(vertices, index, ids, tails, heads, weight)
        return cls(vertices, ids, ArcLayout.from_sides(*sides, weight))


def _float(weight: int | float) -> float:
    """The weight as a float; an integer beyond the float range is inf of
    its sign."""
    try:
        return float(weight)
    except OverflowError:
        return np.inf if weight > 0 else -np.inf


def _weight_column(weights: list) -> np.ndarray:
    try:
        return np.array(weights, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return np.array(list(map(_float, weights)), dtype=np.float64)


def _positions(vertices: Sequence[str]) -> dict[str, int]:
    """Each vertex id's position, the first one where an id repeats."""
    return dict(zip(reversed(vertices), range(len(vertices) - 1, -1, -1)))


def _resolved(index: dict[str, int], sides: list) -> tuple[np.ndarray, np.ndarray]:
    """Each side's length, and the vertex indices of all sides concatenated.
    A name that is unknown, or unhashable, raises KeyError or TypeError."""
    lengths = np.fromiter(map(len, sides), dtype=np.int64, count=len(sides))
    return lengths, np.fromiter(map(index.__getitem__, chain.from_iterable(sides)),
                                dtype=np.int64, count=int(lengths.sum()))


def _reject_unknown(vertices: Sequence[str], index: dict[str, int], ids: list,
                    tails: list, heads: list, weight: np.ndarray) -> NoReturn:
    """Raise the report of named arcs some of whose names do not resolve.

    An unknown name stands for index n, out of range, so every arc is
    checked in order and an arc with an unknown name still counts toward
    ``DuplicateArcId``; its other checks are skipped. Its out-of-range line
    gives way to one line per unknown name, after all the others.
    """
    known = defaultdict(lambda: len(vertices), index)
    hg = DirectedHypergraph(vertices, ids, ArcLayout.from_sides(
        *_resolved(known, tails), *_resolved(known, heads), weight))
    unknown = tuple(Violation(UNKNOWN_VERTEX, arc_id, f"unknown vertex id {name!r}")
                    for arc_id, tail, head in zip(ids, tails, heads)
                    for name in chain(tail, head) if name not in index)
    raise ValidationError(ValidationReport(tuple(
        v for v in validate(hg).violations if v.code != UNKNOWN_VERTEX) + unknown))


def validate(hg: DirectedHypergraph) -> ValidationReport:
    """Check every structural invariant; report all violations, not just one.

    The report is worked out once per hypergraph, which is immutable, and
    reused by every later call.
    """
    return hg._report


def _check(hg: DirectedHypergraph) -> ValidationReport:
    """Masks over the layout flag the offending arcs; only those are
    described, each with its violations in a fixed order. Then each vertex
    whose tail weights sum beyond the float range is described."""
    violations: list[Violation] = []
    if len(set(hg.vertices)) < hg.n_vertices:
        seen: set[str] = set()
        for v in hg.vertices:
            if v in seen:
                violations.append(Violation(DUPLICATE_VERTEX_ID, v,
                                            "vertex id occurs more than once"))
            seen.add(v)
    lay = hg.layout
    n, m = hg.n_vertices, hg.n_arcs
    tail_arc, head_arc = lay.tail_arc, lay.head_arc
    repeated = np.zeros(m, dtype=bool)
    if len(set(hg.arc_ids)) < m:
        seen_arcs: set[str] = set()
        for j, arc_id in enumerate(hg.arc_ids):
            repeated[j] = arc_id in seen_arcs
            seen_arcs.add(arc_id)
    out_of_range = np.zeros(m, dtype=bool)
    out_of_range[tail_arc[(lay.tail_idx < 0) | (lay.tail_idx >= n)]] = True
    out_of_range[head_arc[(lay.head_idx < 0) | (lay.head_idx >= n)]] = True
    no_tail = np.diff(lay.tail_ptr) == 0
    no_head = np.diff(lay.head_ptr) == 0
    # a side holds each vertex once, so an (arc, vertex) key met twice is in both
    tail_ok, head_ok = ~out_of_range[tail_arc], ~out_of_range[head_arc]
    keys = np.sort(np.concatenate((tail_arc[tail_ok] * n + lay.tail_idx[tail_ok],
                                   head_arc[head_ok] * n + lay.head_idx[head_ok])))
    overlap = np.zeros(m, dtype=bool)
    overlap[keys[1:][keys[1:] == keys[:-1]] // max(n, 1)] = True
    del keys, tail_ok, head_ok
    bad_weight = ~((lay.weight > 0.0) & np.isfinite(lay.weight))
    flagged = repeated | out_of_range | no_tail | no_head | overlap | bad_weight
    for j in np.flatnonzero(flagged).tolist():
        arc_id = hg.arc_ids[j]
        tail = lay.tail_idx[lay.tail_ptr[j]:lay.tail_ptr[j + 1]].tolist()
        head = lay.head_idx[lay.head_ptr[j]:lay.head_ptr[j + 1]].tolist()
        if repeated[j]:
            violations.append(Violation(DUPLICATE_ARC_ID, arc_id,
                                        "arc id occurs more than once"))
        if out_of_range[j]:
            bad = next(i for i in tail + head if not 0 <= i < n)
            violations.append(Violation(UNKNOWN_VERTEX, arc_id,
                                        f"vertex index {bad} out of range"))
            continue
        if no_tail[j]:
            violations.append(Violation(EMPTY_TAIL, arc_id, "tail is empty"))
        if no_head[j]:
            violations.append(Violation(EMPTY_HEAD, arc_id, "head is empty"))
        if overlap[j]:
            names = ", ".join(hg.vertices[i] for i in sorted(set(tail) & set(head)))
            violations.append(Violation(TAIL_HEAD_OVERLAP, arc_id,
                                        f"tail and head share: {names}"))
        if bad_weight[j]:
            weight = float(lay.weight[j])
            violations.append(Violation(NONPOSITIVE_WEIGHT, arc_id,
                                        f"weight {weight!r} is not a positive real"))
    # the tail-weight sum divides its vertex's row of P and of the walk
    # tables; an arc flagged above, whose indices or weight may be bad, is
    # left out of it
    counted = ~flagged[tail_arc]
    tail_sum = np.bincount(lay.tail_idx[counted], weights=lay.weight[tail_arc[counted]],
                           minlength=n)
    for v in np.flatnonzero(~np.isfinite(tail_sum)).tolist():
        violations.append(Violation(TAIL_WEIGHT_OVERFLOW, hg.vertices[v],
                                    "tail weights sum beyond the float range"))
    return ValidationReport(tuple(violations))


def ensure_valid(hg: DirectedHypergraph) -> DirectedHypergraph:
    report = validate(hg)
    if not report.ok:
        raise ValidationError(report)
    return hg


@dataclass(frozen=True, eq=False)
class DegreeTables:
    """The paper's four degree maps, aligned to canonical vertex/arc order.

    Vertex degrees are weight-summed reals (H_tail·w and H_head·w for the
    incidence matrices of build_incidence); arc degrees are plain
    cardinalities. The arrays are the diagonals of the four degree matrices.
    """

    vertex_tail: np.ndarray
    vertex_head: np.ndarray
    arc_tail: np.ndarray
    arc_head: np.ndarray


def compute_degrees(hg: DirectedHypergraph) -> DegreeTables:
    ensure_valid(hg)
    lay = hg.layout
    nv = hg.n_vertices
    arc_tail = np.diff(lay.tail_ptr)
    arc_head = np.diff(lay.head_ptr)
    # add.at adds each vertex's weights in arc order from zero, like a
    # running sum, and reads the frozen index arrays without copying them;
    # a head-weight sum may overflow, as it may in the paper's D_head
    vertex_tail, vertex_head = np.zeros(nv), np.zeros(nv)
    with np.errstate(over="ignore"):
        np.add.at(vertex_tail, lay.tail_idx, np.repeat(lay.weight, arc_tail))
        np.add.at(vertex_head, lay.head_idx, np.repeat(lay.weight, arc_head))
    for arr in (vertex_tail, vertex_head, arc_tail, arc_head):
        arr.setflags(write=False)
    return DegreeTables(vertex_tail, vertex_head, arc_tail, arc_head)


def build_incidence(hg: DirectedHypergraph) -> tuple[SparseRealMatrix, SparseRealMatrix]:
    """The paper's |V|x|E| 0/1 incidence matrices H_tail and H_head, in that
    order: H_tail[v, e] is 1 exactly when v is in the tail of arc e."""
    ensure_valid(hg)
    lay = hg.layout
    nv, na = hg.n_vertices, hg.n_arcs
    return (SparseRealMatrix.from_coo(nv, na, lay.tail_idx, lay.tail_arc,
                                      np.ones(lay.tail_idx.size)),
            SparseRealMatrix.from_coo(nv, na, lay.head_idx, lay.head_arc,
                                      np.ones(lay.head_idx.size)))


class PruneEvent(NamedTuple):
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
        v = np.flatnonzero(doomed)
        events += [PruneEvent(rnd, "vertex", name, _VERTEX_REASONS[reason])
                   for name, reason in zip(_gather(hg.vertices, v),
                                           zip(no_tail[v].tolist(), no_head[v].tolist()))]
        alive_vertex &= ~doomed
        emptied_tail = np.bincount(tail_arc[alive_vertex[lay.tail_idx]], minlength=m) == 0
        emptied_head = np.bincount(head_arc[alive_vertex[lay.head_idx]], minlength=m) == 0
        dying = alive_arc & (emptied_tail | emptied_head)
        k = np.flatnonzero(dying)
        events += [PruneEvent(rnd, "arc", name, _ARC_REASONS[reason])
                   for name, reason in zip(_gather(hg.arc_ids, k),
                                           zip(emptied_tail[k].tolist(), emptied_head[k].tolist()))]
        alive_arc &= ~dying
    remap = np.cumsum(alive_vertex) - 1
    keep = np.flatnonzero(alive_arc)
    layout = ArcLayout(*_surviving_side(lay.tail_idx, tail_arc, alive_vertex, alive_arc, remap),
                       *_surviving_side(lay.head_idx, head_arc, alive_vertex, alive_arc, remap),
                       lay.weight[keep])
    core = DirectedHypergraph(_gather(hg.vertices, np.flatnonzero(alive_vertex)),
                              _gather(hg.arc_ids, keep), layout)
    # pruning a valid hypergraph leaves it valid, so the input's (empty)
    # report is the core's, stored where validate memoises it
    core.__dict__["_report"] = hg._report
    return core, events


def _gather(seq: tuple[str, ...], idx: np.ndarray) -> tuple[str, ...]:
    return tuple(map(seq.__getitem__, idx.tolist()))


def _take(ptr, idx, rows) -> tuple[np.ndarray, np.ndarray]:
    """CSR (ptr, idx) of the given rows of a CSR block, in the order of ``rows``."""
    start, stop = ptr[rows], ptr[1:][rows]
    taken = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(stop - start, out=taken[1:])
    # each entry's position in idx, as a running sum of steps: one within a
    # row, and at a row's first entry the jump from the end of the row
    # before it (an empty row's jump adds to the next row's), so that one
    # entry-sized index array is held
    start[1:] -= stop[:-1]
    start[:1] -= 1
    del stop
    pos = np.ones(taken[-1] + 1, dtype=np.int64)
    np.add.at(pos, taken[:-1], start)
    del start
    np.cumsum(pos, out=pos)
    return taken, idx[pos[:-1]]


def _surviving_side(idx, arc, alive_vertex, alive_arc, remap):
    """CSR of one side of the live arcs, restricted to the live vertices and
    renumbered; the renumbering is monotone, so each slice stays sorted."""
    keep = alive_vertex[idx] & alive_arc[arc]
    new_ptr = np.zeros(np.count_nonzero(alive_arc) + 1, dtype=np.int64)
    np.cumsum(np.bincount(arc[keep], minlength=alive_arc.size)[alive_arc], out=new_ptr[1:])
    return new_ptr, remap[idx[keep]]
