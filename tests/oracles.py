"""Plain-loop reference implementations the vectorised code is tested against.

Each one is the straightforward loop the library replaced, kept here so
that the fast path can be compared with it bit for bit.
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_right
from typing import NamedTuple

import numpy as np

from hyperrank import (DirectedHypergraph, PruneEvent, SparseRealMatrix,
                       ValidationReport, Violation)
from hyperrank import validate as validate_layout
from hyperrank.core import (DUPLICATE_ARC_ID, DUPLICATE_VERTEX_ID, EMPTY_HEAD,
                            EMPTY_TAIL, NONPOSITIVE_WEIGHT, TAIL_HEAD_OVERLAP,
                            TAIL_WEIGHT_OVERFLOW, UNKNOWN_VERTEX, ArcLayout,
                            ensure_valid)
from hyperrank.errors import (BadWeightError, ReactionSyntaxError, SchemaError,
                              TailHeadOverlapError, ValidationError)
from hyperrank.ingest import (REVERSIBLE_POLICIES, SPLIT, IngestReport,
                              ReactionColumns)


class ArcRow(NamedTuple):
    """One arc as the loop oracles read it."""

    id: str
    tail: tuple[int, ...]
    head: tuple[int, ...]
    weight: float


def arc_rows(hg: DirectedHypergraph) -> list[ArcRow]:
    """Each arc read back from the arc ids and the layout slices."""
    lay = hg.layout
    tail_ptr, tail_idx = lay.tail_ptr.tolist(), lay.tail_idx.tolist()
    head_ptr, head_idx = lay.head_ptr.tolist(), lay.head_idx.tolist()
    return [ArcRow(arc_id, tuple(tail_idx[tail_ptr[j]:tail_ptr[j + 1]]),
                   tuple(head_idx[head_ptr[j]:head_ptr[j + 1]]), weight)
            for j, (arc_id, weight) in enumerate(zip(hg.arc_ids, lay.weight.tolist()))]


def arc_layout(tails, heads, weights) -> ArcLayout:
    """The layout of the given sides, arc by arc, each side taken as a set:
    sorted, each vertex once."""
    def csr(sides):
        sides = [tuple(sorted(set(s))) for s in sides]
        ptr = np.zeros(len(sides) + 1, dtype=np.int64)
        for j, s in enumerate(sides):
            ptr[j + 1] = ptr[j] + len(s)
        return ptr, np.array([i for s in sides for i in s], dtype=np.int64)

    return ArcLayout(*csr(tails), *csr(heads), np.array(weights, dtype=np.float64))


def hypergraph(vertices, arcs) -> DirectedHypergraph:
    """The hypergraph of (id, tail indices, head indices, weight) rows, laid
    out by ``arc_layout``."""
    return DirectedHypergraph(vertices, [a[0] for a in arcs], arc_layout(
        [a[1] for a in arcs], [a[2] for a in arcs], [a[3] for a in arcs]))


def csr_left_multiply(indptr, indices, data, x, out) -> None:
    """y = xᵀA into ``out`` by a row-major scatter, the former compiled loop."""
    ptr, cols, vals, xs = indptr.tolist(), indices.tolist(), data.tolist(), x.tolist()
    acc = [0.0] * out.size
    for i in range(len(ptr) - 1):
        xi = xs[i]
        for j in range(ptr[i], ptr[i + 1]):
            acc[cols[j]] += vals[j] * xi
    out[:] = acc


def row_sums(indptr, data) -> np.ndarray:
    """Each row's stored values summed left to right."""
    ptr, vals = indptr.tolist(), data.tolist()
    acc = [0.0] * (len(ptr) - 1)
    for i in range(len(ptr) - 1):
        for j in range(ptr[i], ptr[i + 1]):
            acc[i] += vals[j]
    return np.array(acc, dtype=np.float64)


def walk_steps(arc_ptr, arc_cum, arc_of_slot, head_ptr, head_verts,
               start, r_arc, r_head, counts) -> int:
    """The walk stepper over whole lists of draws, one transition at a time."""
    ptr, cum, arc_of = arc_ptr.tolist(), arc_cum.tolist(), arc_of_slot.tolist()
    hptr, hv = head_ptr.tolist(), head_verts.tolist()
    ra, rh = r_arc.tolist(), r_head.tolist()
    u = int(start)
    for t in range(len(ra)):
        slot = min(bisect_right(cum, ra[t], ptr[u], ptr[u + 1]), ptr[u + 1] - 1)
        hs = hptr[arc_of[slot]]
        hn = hptr[arc_of[slot] + 1] - hs
        u = hv[hs + min(int(rh[t] * hn), hn - 1)]
        counts[u] += 1
    return u


def walk_draws(seed: int, steps: int, chunk: int):
    """The draws of a seeded walk of ``steps`` steps, chunk by chunk: per
    chunk of ``size`` steps, ``(r_arc, r_head)``, the next ``size`` doubles
    of PCG64(seed) and the ``size`` after them."""
    rng = np.random.default_rng(seed)
    for a in range(0, steps, chunk):
        yield rng.random((2, min(chunk, steps - a)))


def csr_bytes(m: SparseRealMatrix):
    """Shape and the raw bytes of the three CSR arrays, for bitwise comparison."""
    return (m.rows, m.cols, m.indptr.tobytes(), m.indices.tobytes(), m.data.tobytes())


def to_dense(m: SparseRealMatrix) -> np.ndarray:
    """The dense matrix, written one row's slices at a time."""
    out = np.zeros((m.rows, m.cols))
    for i in range(m.rows):
        a, b = m.indptr[i], m.indptr[i + 1]
        out[i, m.indices[a:b]] = m.data[a:b]
    return out


def from_dense(dense) -> SparseRealMatrix:
    """A sparse copy of a 2-d array's nonzero entries, for building test cases."""
    dense = np.asarray(dense, dtype=np.float64)
    rows, cols = dense.shape
    ii, jj = np.nonzero(dense)
    return SparseRealMatrix.from_coo(rows, cols, ii, jj, dense[ii, jj])


def from_coo(rows, cols, row, col, value) -> SparseRealMatrix:
    """COO to CSR through a dict of running sums; duplicates sum, zeros drop."""
    acc: dict[tuple[int, int], float] = {}
    for i, j, v in zip(row, col, value):
        i = int(i)
        j = int(j)
        if not (0 <= i < rows and 0 <= j < cols):
            raise IndexError(f"entry ({i}, {j}) outside {rows}x{cols}")
        acc[i, j] = acc.get((i, j), 0.0) + float(v)
    kept = sorted((ij, v) for ij, v in acc.items() if v != 0.0)
    indptr = np.zeros(rows + 1, dtype=np.int64)
    for (i, _), _ in kept:
        indptr[i + 1] += 1
    return SparseRealMatrix(rows, cols, np.cumsum(indptr),
                            [j for (_, j), _ in kept], [v for _, v in kept])


def from_coo_packed(rows, cols, row, col, value) -> SparseRealMatrix:
    """COO to CSR as the library built it before its build freed each array
    once consumed: the key row·cols + col formed from a separate row array,
    a stable argsort grouping the keys, the values gathered in that order
    and summed per key by ``np.bincount``; duplicates sum in input order,
    zeros drop."""
    row = np.asarray(row, dtype=np.int64)
    col = np.asarray(col, dtype=np.int64)
    value = np.asarray(value, dtype=np.float64)
    key = row * cols + col
    pos = np.argsort(key, kind="stable")
    key = key[pos]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    slot = np.cumsum(first) - 1
    keys = key[first]
    sums = np.bincount(slot, weights=value[pos], minlength=keys.size)
    kept = sums != 0.0
    keys, sums = keys[kept], sums[kept]
    indptr = np.zeros(rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // cols, minlength=rows), out=indptr[1:])
    return SparseRealMatrix(rows, cols, indptr, keys % cols, sums)


def transition_coo(hg: DirectedHypergraph, uniform_jump: bool = False):
    """P's (row, col, value) entries before they are summed, in the order
    the library sums them: arc by arc, tail by tail, head by head, then
    under ``uniform_jump`` each dangling vertex's uniform row. A step is
    w/|head|/d_tail(u), or w/d_tail(u)/|head| on every arc once some
    w/|head| is subnormal."""
    with np.errstate(over="ignore"):  # a head-weight sum may overflow; none is used
        vertex_tail, _, _, arc_head = compute_degrees(hg)
    n = hg.n_vertices
    arcs = arc_rows(hg)
    tiny = np.finfo(np.float64).tiny
    subnormal = any(arc.weight / arc_head[j] < tiny for j, arc in enumerate(arcs))
    row, col, value = [], [], []
    for j, arc in enumerate(arcs):
        for u in arc.tail:
            if subnormal:
                step = arc.weight / vertex_tail[u] / arc_head[j]
            else:
                step = arc.weight / arc_head[j] / vertex_tail[u]
            for v in arc.head:
                row.append(u)
                col.append(v)
                value.append(step)
    if uniform_jump:
        for u in np.flatnonzero(vertex_tail == 0.0).tolist():
            row += [u] * n
            col += range(n)
            value += [1.0 / n] * n
    return row, col, value


def compute_degrees(hg: DirectedHypergraph):
    """(vertex tail, vertex head, arc tail, arc head) degrees, arc by arc."""
    nv, na = hg.n_vertices, hg.n_arcs
    vertex_tail = np.zeros(nv)
    vertex_head = np.zeros(nv)
    arc_tail = np.zeros(na, dtype=np.int64)
    arc_head = np.zeros(na, dtype=np.int64)
    for j, arc in enumerate(arc_rows(hg)):
        arc_tail[j] = len(arc.tail)
        arc_head[j] = len(arc.head)
        for u in arc.tail:
            vertex_tail[u] += arc.weight
        for v in arc.head:
            vertex_head[v] += arc.weight
    return vertex_tail, vertex_head, arc_tail, arc_head


def build_incidence(hg: DirectedHypergraph):
    """The tail and head 0/1 membership matrices from per-arc entry lists."""
    nv, na = hg.n_vertices, hg.n_arcs
    arcs = arc_rows(hg)
    pairs = ([(u, j) for j, arc in enumerate(arcs) for u in arc.tail],
             [(v, j) for j, arc in enumerate(arcs) for v in arc.head])
    return tuple(from_coo(nv, na, [i for i, _ in p], [j for _, j in p], [1.0] * len(p))
                 for p in pairs)


def prune_to_core(hg: DirectedHypergraph):
    """The pruning cascade on per-arc vertex sets, one round at a time."""
    n = hg.n_vertices
    arcs = arc_rows(hg)
    alive_vertex = [True] * n
    tails = [set(a.tail) for a in arcs]
    heads = [set(a.head) for a in arcs]
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
                events.append(PruneEvent(rnd, "arc", arcs[k].id, reason))
                alive_arc[k] = False
    keep = [v for v in range(n) if alive_vertex[v]]
    remap = {old: new for new, old in enumerate(keep)}
    vertices = tuple(hg.vertices[v] for v in keep)
    live = [k for k in range(hg.n_arcs) if alive_arc[k]]
    layout = arc_layout([[remap[u] for u in tails[k]] for k in live],
                        [[remap[v] for v in heads[k]] for k in live],
                        [arcs[k].weight for k in live])
    return DirectedHypergraph(vertices, [arcs[k].id for k in live], layout), events


def build_transition(hg: DirectedHypergraph,
                     uniform_jump: bool = False) -> SparseRealMatrix:
    """P as a dict of running sums per row, arc by arc, tail by tail, head by head.

    With ``uniform_jump`` a row with no outgoing arc becomes uniform.
    """
    vertex_tail, _, _, arc_head = compute_degrees(hg)
    n = hg.n_vertices
    rows: list[dict[int, float]] = [{} for _ in range(n)]
    for j, arc in enumerate(arc_rows(hg)):
        share = arc.weight / arc_head[j]
        for u in arc.tail:
            step = share / vertex_tail[u]
            row = rows[u]
            for v in arc.head:
                row[v] = row.get(v, 0.0) + step
    if uniform_jump:
        for u in np.flatnonzero(vertex_tail == 0.0):
            rows[u] = {v: 1.0 / n for v in range(n)}
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices: list[int] = []
    data: list[float] = []
    for u in range(n):
        cols = sorted(rows[u])
        indices.extend(cols)
        data.extend(rows[u][c] for c in cols)
        indptr[u + 1] = len(indices)
    return SparseRealMatrix(n, n, indptr, indices, data)


def walk_tables(hg: DirectedHypergraph):
    """(arc_ptr, arc_cum, arc_of_slot, head_ptr, head_verts), vertex by vertex."""
    vertex_tail = compute_degrees(hg)[0]
    n = hg.n_vertices
    arcs = arc_rows(hg)
    outgoing: list[list[int]] = [[] for _ in range(n)]
    for j, arc in enumerate(arcs):
        for u in arc.tail:
            outgoing[u].append(j)
    arc_ptr = np.zeros(n + 1, dtype=np.int64)
    arc_cum: list[float] = []
    arc_of_slot: list[int] = []
    for u in range(n):
        total = vertex_tail[u]
        acc = 0.0
        for j in outgoing[u]:
            acc += arcs[j].weight / total
            arc_cum.append(acc)
            arc_of_slot.append(j)
        arc_ptr[u + 1] = len(arc_of_slot)
    head_ptr = np.zeros(hg.n_arcs + 1, dtype=np.int64)
    head_verts: list[int] = []
    for j, arc in enumerate(arcs):
        head_verts.extend(arc.head)
        head_ptr[j + 1] = len(head_verts)
    return (arc_ptr, np.array(arc_cum, dtype=np.float64),
            np.array(arc_of_slot, dtype=np.int64), head_ptr,
            np.array(head_verts, dtype=np.int64))


def stationary_lstsq(P) -> np.ndarray:
    """pi from the least-squares solve of (Pᵀ - I)·pi = 0 with sum(pi) = 1,
    clipped at zero; accurate to about 1e-16 absolute, not relative."""
    n = P.n
    aug = np.vstack([P.to_dense().T - np.eye(n), np.ones((1, n))])
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    pi, *_ = np.linalg.lstsq(aug, rhs, rcond=None)
    pi = np.clip(pi, 0.0, None)
    return pi / pi.sum()


def _symmetrize(raw: np.ndarray) -> tuple[np.ndarray, float]:
    return 0.5 * (raw + raw.T), float(np.abs(raw - raw.T).max())


def laplacians(P, pi) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(L, L_sym, raw defect of L, raw defect of L_sym), built densely from
    P and the values of pi, formula by formula, as the library once did."""
    values = pi.values
    dense = P.to_dense()
    n = P.n
    S = np.diag(values)
    SP = values[:, None] * dense
    PtS = dense.T * values[None, :]
    unnormalized, defect_u = _symmetrize(S - 0.5 * (SP + PtS))

    root = np.sqrt(values)
    A = (root[:, None] * dense) / root[None, :]
    B = (dense.T * root[None, :]) / root[:, None]
    normalized, defect_n = _symmetrize(np.eye(n) - 0.5 * (A + B))
    return unnormalized, normalized, defect_u, defect_n


def min_eigenvalue(symmetric: np.ndarray) -> float:
    """The smallest eigenvalue of a dense symmetric matrix."""
    return float(np.linalg.eigvalsh(symmetric)[0])


def validate(hg: DirectedHypergraph) -> ValidationReport:
    """Every violation, found by walking the vertices, then the arcs one by
    one, then each vertex's sum of the weights of the arcs leaving it."""
    violations: list[Violation] = []
    seen: set[str] = set()
    for v in hg.vertices:
        if v in seen:
            violations.append(Violation(DUPLICATE_VERTEX_ID, v,
                                        "vertex id occurs more than once"))
        seen.add(v)
    n = hg.n_vertices
    seen_arcs: set[str] = set()
    tail_sum = [0.0] * n
    for arc in arc_rows(hg):
        found = len(violations)
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
        if len(violations) == found:  # an arc with a violation is in no sum
            for i in arc.tail:
                tail_sum[i] += arc.weight
    violations += [Violation(TAIL_WEIGHT_OVERFLOW, hg.vertices[i],
                             "tail weights sum beyond the float range")
                   for i, total in enumerate(tail_sum) if not math.isfinite(total)]
    return ValidationReport(tuple(violations))


def save_canonical(hg: DirectedHypergraph) -> str:
    """The canonical JSON text through the standard encoder."""
    doc = {
        "vertices": list(hg.vertices),
        "arcs": [
            {
                "id": arc.id,
                "tail": [hg.vertices[i] for i in arc.tail],
                "head": [hg.vertices[i] for i in arc.head],
                "weight": arc.weight,
            }
            for arc in arc_rows(hg)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


_TOP_KEYS = ("vertices", "arcs")
_ARC_KEYS = ("id", "tail", "head", "weight")


def _string_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{where} must be an array of strings")
    return value


def _checked_arc(pos: int, raw) -> tuple[str, list[str], list[str], float]:
    """One arc's fields after every schema check, in document order of the checks."""
    where = f"arcs[{pos}]"
    if not isinstance(raw, dict):
        raise SchemaError(f"{where} must be an object")
    for key in raw:
        if key not in _ARC_KEYS:
            raise SchemaError(f"{where}: unknown key {key!r}")
    for key in _ARC_KEYS:
        if key not in raw:
            raise SchemaError(f"{where}: missing key {key!r}")
    if not isinstance(raw["id"], str):
        raise SchemaError(f"{where}: \"id\" must be a string")
    tail_names = _string_list(raw["tail"], f'{where}."tail"')
    head_names = _string_list(raw["head"], f'{where}."head"')
    weight = raw["weight"]
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise SchemaError(f"{where}: \"weight\" must be a number")
    try:
        weight = float(weight)
    except OverflowError:  # an integer beyond the float range
        weight = math.inf if weight > 0 else -math.inf
    return raw["id"], tail_names, head_names, weight


def load_canonical(text: str) -> DirectedHypergraph:
    """The canonical JSON format checked and laid out one arc at a time, the
    loader the column-wise one replaced."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc.msg}",
                          line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise SchemaError("invalid JSON: nesting is too deep") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise SchemaError(f"unknown key {key!r}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise SchemaError(f"missing key {key!r}")
    vertices = _string_list(doc["vertices"], '"vertices"')
    if not isinstance(doc["arcs"], list):
        raise SchemaError('"arcs" must be an array')

    # a name stands for its first position in the vertex list
    index: dict[str, int] = {}
    for pos, v in enumerate(vertices):
        index.setdefault(v, pos)

    # an unknown name stands for index n, out of range, so that its arc is
    # still checked for a repeated id; the out-of-range line of that arc
    # gives way to one line per unknown name, after all the others
    n = len(vertices)
    unknown: list[Violation] = []
    rows = []
    for pos, raw in enumerate(doc["arcs"]):
        arc_id, tail_names, head_names, weight = _checked_arc(pos, raw)
        rows.append((arc_id, [index.get(name, n) for name in tail_names],
                     [index.get(name, n) for name in head_names], weight))
        unknown += [Violation(UNKNOWN_VERTEX, arc_id, f"unknown vertex id {name!r}")
                    for name in tail_names + head_names if name not in index]
    hg = hypergraph(vertices, rows)
    if unknown:
        found = [v for v in validate_layout(hg).violations if v.code != UNKNOWN_VERTEX]
        raise ValidationError(ValidationReport(tuple(found + unknown)))
    return ensure_valid(hg)


def top_k(values, k: int, round_to: int | None = None) -> list[int]:
    """Indices of the k highest values, ties by index, by a keyed sort."""
    keys = values if round_to is None else np.round(values, round_to)
    return sorted(range(len(values)), key=lambda i: (-keys[i], i))[:k]


class ReactionRecord(NamedTuple):
    """One parsed reaction line; duplicates and token order preserved."""

    id: str
    substrates: tuple[str, ...]
    products: tuple[str, ...]
    reversible: bool = False
    weight: float = 1.0


# '-' is an identifier character except when it opens an '->' arrow
_TOKEN_RE = re.compile(r"(?P<arrow><->|->)|(?P<punct>[:+])|(?P<ident>(?:[A-Za-z0-9_]|-(?!>))+)")


def _tokenize(body: str, line_no: int | None):
    tokens = []
    pos = 0
    while pos < len(body):
        if body[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(body, pos)
        if m is None:
            raise ReactionSyntaxError(
                f"unexpected character {body[pos]!r}", line=line_no, column=pos + 1)
        kind = m.lastgroup
        tokens.append((kind, m.group(), m.start() + 1))
        pos = m.end()
    return tokens


def parse_reaction_line(line: str, line_no: int | None = None) -> ReactionRecord | None:
    """One reaction line by a tokenizer and a recursive-descent walk, the
    parser the whole-line grammar replaced; None for blank/comment-only lines."""
    comment = line.find("#")
    body = line if comment < 0 else line[:comment]
    if not body.strip():
        return None

    weight = 1.0
    at = body.find("@")
    if at >= 0:
        wtext = body[at + 1:].strip()
        wcol = at + 2
        if not wtext:
            raise BadWeightError("missing weight after '@'", line=line_no, column=wcol)
        try:
            weight = float(wtext)
        except ValueError:
            raise BadWeightError(f"invalid weight {wtext!r}",
                                 line=line_no, column=wcol) from None
        if not math.isfinite(weight) or weight <= 0.0:
            raise BadWeightError(f"weight must be a positive real, got {wtext}",
                                 line=line_no, column=wcol)
        body = body[:at]

    tokens = _tokenize(body, line_no)
    cursor = 0

    def peek():
        return tokens[cursor] if cursor < len(tokens) else (None, "", len(body) + 1)

    def take(kind, what):
        nonlocal cursor
        tok_kind, text, col = peek()
        if tok_kind != kind:
            raise ReactionSyntaxError(f"expected {what}", line=line_no, column=col)
        cursor += 1
        return text, col

    def take_side(side_name):
        nonlocal cursor
        items = []
        kind, text, _ = peek()
        if kind == "ident":
            cursor += 1
            items.append(text)
            while True:
                kind, text, _ = peek()
                if kind != "punct" or text != "+":
                    break
                cursor += 1
                items.append(take("ident", f"identifier after '+' in the {side_name}")[0])
        return tuple(items)

    rid, _ = take("ident", "reaction identifier")
    text, col = take("punct", "':' after the reaction identifier")
    if text != ":":
        raise ReactionSyntaxError("expected ':' after the reaction identifier",
                                  line=line_no, column=col)
    substrates = take_side("substrate side")
    arrow, _ = take("arrow", "'->' or '<->'")
    products = take_side("product side")
    kind, text, col = peek()
    if kind is not None:
        raise ReactionSyntaxError(f"unexpected trailing input {text!r}",
                                  line=line_no, column=col)
    return ReactionRecord(rid, substrates, products, arrow == "<->", weight)


def parse_reactions_text(text: str) -> list[ReactionRecord]:
    """A reaction file parsed one line at a time: the record of every
    reaction line, in file order."""
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        rec = parse_reaction_line(line, line_no=i)
        if rec is not None:
            records.append(rec)
    return records


def reaction_columns(records: list[ReactionRecord]) -> ReactionColumns:
    """The records as the columns that the library parses a text into."""
    names = [name for rec in records for name in rec.substrates + rec.products]
    index = {name: k for k, name in enumerate(dict.fromkeys(names))}
    return ReactionColumns(
        [rec.id for rec in records], list(index),
        np.array([index[name] for name in names], dtype=np.int64),
        np.array([len(rec.substrates) for rec in records], dtype=np.int64),
        np.array([len(rec.products) for rec in records], dtype=np.int64),
        np.array([rec.reversible for rec in records], dtype=bool),
        np.array([rec.weight for rec in records], dtype=np.float64))


def reactions_to_hypergraph(records: list[ReactionRecord], reversible_policy: str = SPLIT
                            ) -> tuple[DirectedHypergraph, IngestReport]:
    """Reaction records turned into arcs one record at a time, each side
    taken as a set by ``arc_layout``: the converter the column-wise one
    replaced."""
    if reversible_policy not in REVERSIBLE_POLICIES:
        raise ValueError(f"unknown reversible policy {reversible_policy!r}")
    report = IngestReport(records=len(records))
    index: dict[str, int] = {}
    intern = index.setdefault
    arcs = []
    for rec in records:
        substrates, products = rec.substrates, rec.products
        tail_set, head_set = set(substrates), set(products)
        collapsed = (len(substrates) - len(tail_set)
                     + len(products) - len(head_set))
        if collapsed:
            report.collapsed_duplicates += collapsed
            report.collapsed.append((rec.id, collapsed))
        if not tail_set.isdisjoint(head_set):
            raise TailHeadOverlapError(rec.id, sorted(tail_set & head_set))
        if not substrates or not products:
            report.dropped.append((rec.id, f"empty {'tail' if not substrates else 'head'}"))
            continue
        tail = [intern(s, len(index)) for s in substrates]
        head = [intern(p, len(index)) for p in products]
        if rec.reversible:
            report.reversible_records += 1
            if reversible_policy == SPLIT:
                arcs.append((f"{rec.id}_fwd", tail, head, rec.weight))
                arcs.append((f"{rec.id}_rev", head, tail, rec.weight))
                report.split_arcs += 2
                continue
        arcs.append((rec.id, tail, head, rec.weight))
    hg = hypergraph(tuple(index), arcs)
    ensure_valid(hg)
    report.vertices = hg.n_vertices
    report.arcs = hg.n_arcs
    return hg, report
