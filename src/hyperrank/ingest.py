"""Reaction-equation text parsing and the canonical JSON interchange format.

Reaction grammar, one reaction per line ('#' starts a comment):

    ID ':' side ARROW side ['@' WEIGHT]

side is an optional '+'-separated list of identifiers, each one or more of
[A-Za-z0-9_] and '-', where a '-' directly before '>' opens the arrow
instead; ARROW is '->' (irreversible) or '<->' (reversible), WEIGHT a
positive number. Lines end where ``str.splitlines`` ends them. One regular
expression, matched over the whole text at once, is the grammar; a text it
rejects is read again line by line only to raise the first error. An empty
side (a boundary exchange reaction) parses, and conversion drops the
record, as core pruning would.
"""

from __future__ import annotations

import gc
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple, NoReturn

import numpy as np

from .core import (UNKNOWN_VERTEX, ArcLayout, DirectedHypergraph,
                   ValidationReport, Violation, _take, ensure_valid, validate)
from .errors import (BadWeightError, ReactionSyntaxError, SchemaError,
                     TailHeadOverlapError, ValidationError)

SPLIT = "split"
FORWARD_ONLY = "forward-only"
REVERSIBLE_POLICIES = (SPLIT, FORWARD_ONLY)

# Within a whole line a name is a plain run of [A-Za-z0-9_-]: nothing
# that may follow a name starts with '>', so a match gives a '-' before '>'
# back to the arrow. Whitespace is any but '\n', the one line break left
# once the others that str.splitlines knows are replaced.
_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_NAME, _WS = r"[A-Za-z0-9_-]+", r"[^\S\n]*"
_SIDE = rf"{_NAME}(?:{_WS}\+{_WS}{_NAME})*"
# One match per line, blank, comment or reaction: the ID, the substrates, the
# '<' of '<->', the products and the stripped weight text. No two runs of
# whitespace touch, so a rejected line costs linear time.
_LINE_RE = re.compile(
    rf"^{_WS}(?:({_NAME}){_WS}:{_WS}(?:({_SIDE}){_WS})?(<?)->{_WS}(?:({_SIDE}){_WS})?"
    rf"(?:@{_WS}([^\s#](?:[^#\n]*[^\s#])?){_WS})?)?(?:#.*)?$", re.M)
# a name token is one or more of [A-Za-z0-9_] or '-' not directly before '>'
_TOKEN_RE = re.compile(r"\s+|(?P<arrow><?->)|(?P<colon>:)|(?P<plus>\+)"
                       r"|(?P<ident>(?:[A-Za-z0-9_]|-(?!>))+)|(?P<other>.)", re.S)
# The same grammar over tokens, walked only to locate a rejected line's
# error: per state, the next state for each token it accepts ("end" closes
# the line) and the error for any other token.
_WALK = (
    ({"ident": 1}, "expected reaction identifier"),
    ({"colon": 2}, "expected ':' after the reaction identifier"),
    ({"ident": 3, "arrow": 5}, "expected '->' or '<->'"),
    ({"plus": 4, "arrow": 5}, "expected '->' or '<->'"),
    ({"ident": 3}, "expected identifier after '+' in the substrate side"),
    ({"ident": 6, "end": None}, "unexpected trailing input {text!r}"),
    ({"plus": 7, "end": None}, "unexpected trailing input {text!r}"),
    ({"ident": 6}, "expected identifier after '+' in the product side"),
)


@contextmanager
def _collector_paused():
    """Turn the cyclic garbage collector off for the block, then restore its
    prior state, also on error.

    The loaders build hundreds of thousands of containers that form no
    cycles; with the collector on, its passes traverse them again and again
    while they are built.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _fresh(strings: list[str]) -> list[str]:
    """Equal strings as new objects, allocated together.

    A string kept from a parse pins the 1 MiB allocator arena it sits in,
    and with it the rest of the parse's garbage there; copies made while
    the parse is alive land in arenas of their own, so dropping the parse
    hands its arenas back to the OS.
    """
    joined = "\x00".join(strings)
    if joined.count("\x00") == len(strings) - 1:  # no string holds a NUL
        return joined.split("\x00")
    return [(s + "\x00")[:-1] for s in strings]


class ReactionColumns(NamedTuple):
    """The records of a reaction text as columns, in file order.

    ``names`` holds every record's substrates and then its products, as
    written (repeats kept); ``tail_len`` and ``head_len`` count how many of
    a record's names are substrates and how many products.
    """

    ids: list[str]
    names: list[str]
    tail_len: np.ndarray
    head_len: np.ndarray
    reversible: np.ndarray
    weight: np.ndarray


def _parse_reaction_line(line: str, *, line_no: int | None = None) -> None:
    """Raise the error of a malformed reaction line, with its column: a bad
    weight first, then an unexpected character anywhere, then the first
    token the grammar cannot take. A well-formed, blank or comment-only
    line passes."""
    comment = line.find("#")
    body = line if comment < 0 else line[:comment]
    if not body or body.isspace():
        return
    at = body.find("@")
    if at >= 0:
        wtext, wcol, body = body[at + 1:].strip(), at + 2, body[:at]
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
    tokens = [(m.lastgroup, m.group(), m.start() + 1)
              for m in _TOKEN_RE.finditer(body) if m.lastgroup]
    for kind, text, col in tokens:
        if kind == "other":
            raise ReactionSyntaxError(f"unexpected character {text!r}",
                                      line=line_no, column=col)
    state = 0
    for kind, text, col in tokens + [("end", "", len(body) + 1)]:
        accepts, error = _WALK[state]
        if kind not in accepts:
            raise ReactionSyntaxError(error.format(text=text), line=line_no, column=col)
        state = accepts[kind]


@_collector_paused()
def parse_reactions_text(text: str) -> ReactionColumns:
    """Parse a whole reaction file; raises on the first malformed line."""
    if any(map(text.__contains__, _BREAKS)):
        text = "\n".join(text.splitlines())
    lines = _LINE_RE.findall(text)
    columns = list(zip(*lines)) or [()] * 5
    kept = list(map(bool, columns[0]))  # blank and comment-only lines have no ID
    ids, substrates, reversible, products, weights = (
        list(compress(column, kept)) for column in columns)
    try:
        weight = np.array([float(w or 1) for w in weights], dtype=np.float64)
        # a text has one line more than '\n's, the last one empty after a
        # final '\n', and each line that the grammar takes matches once
        if (len(lines) != text.count("\n") + 1
                or not ((weight > 0.0) & (weight < math.inf)).all()):
            raise ValueError
    except ValueError:
        for line_no, line in enumerate(text.splitlines(), start=1):
            _parse_reaction_line(line, line_no=line_no)
        raise AssertionError(
            "the whole-text scan rejects a text whose every line parses") from None
    # a side is its names with '+' and whitespace between them
    names = " ".join(chain.from_iterable(zip(substrates, products))).replace("+", " ").split()
    tail_len, head_len = (np.array([s.count("+") + 1 if s else 0 for s in sides], dtype=np.int64)
                          for sides in (substrates, products))
    return ReactionColumns(_fresh(ids), names, tail_len, head_len,
                           np.array(list(map(bool, reversible)), dtype=bool), weight)


@dataclass
class IngestReport:
    """Counts and notes of a conversion; the CLI writes them to standard error."""

    records: int = 0
    vertices: int = 0
    arcs: int = 0
    reversible_records: int = 0
    split_arcs: int = 0
    collapsed_duplicates: int = 0
    collapsed: list[tuple[str, int]] = field(default_factory=list)
    dropped: list[tuple[str, str]] = field(default_factory=list)


def reactions_to_hypergraph(parsed: ReactionColumns, reversible_policy: str = SPLIT
                            ) -> tuple[DirectedHypergraph, IngestReport]:
    """Turn parsed reactions into a hypergraph.

    Irreversible records map to one arc (tail=substrates, head=products).
    Under the `split` policy a reversible record becomes two arcs, ID_fwd
    and ID_rev, with the same weight; under `forward-only` it becomes one
    arc as written. Species are interned as vertices in first-mention
    order, and a species mentioned twice on one side counts once (noted in
    ``report.collapsed``). A record whose sides share a species is rejected
    outright; a record with an empty side is dropped (noted in
    ``report.dropped``).

    The parse, its names and their index are dropped once the names are
    numbered, before the records are laid out and the result validated.
    """
    if reversible_policy not in REVERSIBLE_POLICIES:
        raise ValueError(f"unknown reversible policy {reversible_policy!r}")
    with _collector_paused():
        ids, names, (tail_len, head_len, reversible, weight) = (
            parsed.ids, parsed.names, map(np.asarray, parsed[2:]))
        del parsed
        sizes = tail_len + head_len
        kept = (tail_len > 0) & (head_len > 0)
        # the kept records' names are the vertices, in first-mention order; the
        # names that only dropped records mention are numbered after them
        kept_name = np.repeat(kept, sizes)
        index = dict(zip(dict.fromkeys(chain(compress(names, kept_name.tolist()),
                                             compress(names, (~kept_name).tolist()))),
                         count()))
        code = np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))
        vertices = _fresh(list(islice(index, int(code[kept_name].max(initial=-1)) + 1)))
        span = len(index) + 1
        del names, index
        in_tail = (np.arange(code.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
                   < np.repeat(tail_len, sizes))
        lay = ArcLayout.from_sides(tail_len, code[in_tail], head_len, code[~in_tail], weight)

        # every record laid out as one arc holds a name once per side, so a
        # (record, name) key met on both sides is shared
        shared = np.isin(lay.head_arc * span + lay.head_idx,
                         lay.tail_arc * span + lay.tail_idx, assume_unique=True)
        if shared.any():
            r = lay.head_arc[shared][0]
            raise TailHeadOverlapError(ids[r], sorted(
                vertices[v] for v in lay.head_idx[shared & (lay.head_arc == r)].tolist()))
        collapsed = (sizes - np.diff(lay.tail_ptr) - np.diff(lay.head_ptr)).tolist()

        rec = np.flatnonzero(kept)
        twice = reversible[rec] & (reversible_policy == SPLIT)
        arc_rec = np.repeat(rec, 1 + twice)
        back = np.diff(arc_rec, prepend=-1) == 0  # a split record's second arc
        arc_ids = np.array(ids, dtype=object)[arc_rec]
        arc_ids[back] += "_rev"
        arc_ids[np.flatnonzero(back) - 1] += "_fwd"
        # rows 0..R-1 are the records' tails, rows R..2R-1 their heads
        sides = (np.concatenate((lay.tail_ptr, lay.head_ptr[1:] + lay.tail_idx.size)),
                 np.concatenate((lay.tail_idx, lay.head_idx)))
        hg = ensure_valid(DirectedHypergraph(vertices, arc_ids.tolist(), ArcLayout(
            *_take(*sides, arc_rec + len(ids) * back),
            *_take(*sides, arc_rec + len(ids) * ~back), lay.weight[arc_rec])))
        return hg, IngestReport(
            records=len(ids), vertices=hg.n_vertices, arcs=hg.n_arcs,
            reversible_records=int(reversible[rec].sum()), split_arcs=2 * int(twice.sum()),
            collapsed_duplicates=sum(collapsed),
            collapsed=[(ids[r], collapsed[r]) for r in np.flatnonzero(collapsed).tolist()],
            dropped=[(ids[r], "empty head" if tail_len[r] else "empty tail")
                     for r in np.flatnonzero(~kept).tolist()])


_TOP_KEYS = ("vertices", "arcs")
_ARC_KEYS = ("id", "tail", "head", "weight")
_ARC_FIELDS = tuple(map(itemgetter, _ARC_KEYS))


def _string_list(value, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{where} must be an array of strings")
    return value


def _float(weight: int | float) -> float:
    """The weight as a float; an integer beyond the float range is inf."""
    try:
        return float(weight)
    except OverflowError:
        return math.inf


def _check_arc(pos: int, raw) -> None:
    """Raise the arc's first schema error, if it has one, in the order of the checks."""
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
    _string_list(raw["tail"], f'{where}."tail"')
    _string_list(raw["head"], f'{where}."head"')
    weight = raw["weight"]
    if isinstance(weight, bool) or not isinstance(weight, (int, float)):
        raise SchemaError(f"{where}: \"weight\" must be a number")


def _arc_columns(arcs: list) -> tuple[list, list, list, list] | None:
    """The arcs' id, tail, head and weight columns, or None if an arc breaks
    the schema. json.loads makes only exact built-in types, so a set of
    types stands for the isinstance checks of ``_check_arc``; the names on
    the sides are checked by resolving them."""
    if not (set(map(type, arcs)) <= {dict} and set(map(len, arcs)) <= {len(_ARC_KEYS)}):
        return None
    try:
        ids, tails, heads, weights = [list(map(get, arcs)) for get in _ARC_FIELDS]
    except KeyError:  # with four keys, a missing one means an unknown one
        return None
    if (set(map(type, ids)) <= {str}
            and set(map(type, tails)) | set(map(type, heads)) <= {list}
            and set(map(type, weights)) <= {int, float}):
        return ids, tails, heads, weights
    return None


def _resolved(index: dict[str, int], sides: list[list]) -> tuple[np.ndarray, np.ndarray]:
    """Each side's length, and the vertex indices of all sides concatenated.
    A name that is unknown, or no string, raises KeyError or TypeError."""
    lengths = np.fromiter(map(len, sides), dtype=np.int64, count=len(sides))
    return lengths, np.fromiter(map(index.__getitem__, chain.from_iterable(sides)),
                                dtype=np.int64, count=int(lengths.sum()))


def _weight_column(weights: list) -> np.ndarray:
    try:
        return np.array(weights, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        return np.array(list(map(_float, weights)), dtype=np.float64)


def _reject_names(vertices: list[str], index: dict[str, int], ids: list, tails: list,
                  heads: list, weights: list) -> NoReturn:
    """Raise the error of arcs whose names do not all resolve. A name that is
    no string breaks the schema, first arc first, tail before head. Unknown
    names are violations, after those of the arcs whose names all resolve."""
    for pos, (tail, head) in enumerate(zip(tails, heads)):
        _string_list(tail, f'arcs[{pos}]."tail"')
        _string_list(head, f'arcs[{pos}]."head"')
    known = [all(map(index.__contains__, chain(t, h))) for t, h in zip(tails, heads)]
    unknown = tuple(Violation(UNKNOWN_VERTEX, arc_id, f"unknown vertex id {name!r}")
                    for arc_id, t, h, ok in zip(ids, tails, heads, known) if not ok
                    for name in t + h if name not in index)
    ids, tails, heads, weights = (list(compress(column, known))
                                  for column in (ids, tails, heads, weights))
    hg = DirectedHypergraph(vertices, ids, ArcLayout.from_sides(
        *_resolved(index, tails), *_resolved(index, heads), _weight_column(weights)))
    raise ValidationError(ValidationReport(validate(hg).violations + unknown))


def load_canonical(text: str) -> DirectedHypergraph:
    """Parse the canonical JSON format; reports every semantic violation.

    The arcs are read a field at a time across all of them, their names
    resolved in one pass per side, and handed to ``ArcLayout.from_sides``
    as columns. Only a document that a bulk check rejects, or with a name
    that does not resolve, is scanned arc by arc, to raise its error.

    The text is dropped once parsed, and the document before the layout is
    built and validated; what the hypergraph keeps of it holds none of its
    memory (see ``_fresh``), so the load peaks while the document is alive,
    not after it on top of the layout's temporaries.
    """
    with _collector_paused():
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc.msg}",
                              line=exc.lineno, column=exc.colno) from None
        except RecursionError:
            raise SchemaError("invalid JSON: nesting is too deep") from None
        del text
        if not isinstance(doc, dict):
            raise SchemaError("top level must be an object")
        for key in doc:
            if key not in _TOP_KEYS:
                raise SchemaError(f"unknown key {key!r}")
        for key in _TOP_KEYS:
            if key not in doc:
                raise SchemaError(f"missing key {key!r}")
        vertices = _string_list(doc["vertices"], '"vertices"')
        arcs = doc["arcs"]
        if not isinstance(arcs, list):
            raise SchemaError('"arcs" must be an array')
        columns = _arc_columns(arcs)
        if columns is None:
            for pos, raw in enumerate(arcs):
                _check_arc(pos, raw)
            raise AssertionError("the bulk checks reject arcs that every arc's checks accept")
        ids, tails, heads, weights = columns

        # a name stands for its first position in the vertex list: the
        # positions are entered last to first, so the first one stays
        index = dict(zip(reversed(vertices), range(len(vertices) - 1, -1, -1)))
        try:
            # every key is a string, so a name that resolves is one
            tail_len, tail_idx = _resolved(index, tails)
            head_len, head_idx = _resolved(index, heads)
        except (KeyError, TypeError):
            _reject_names(vertices, index, ids, tails, heads, weights)
        weight = _weight_column(weights)
        del columns, tails, heads, weights, index
        # each arc id lies among its arc's objects and would keep their
        # arena; the vertex names lie together, so they are kept as they are
        ids = _fresh(ids)
        del doc, arcs
        return ensure_valid(DirectedHypergraph(vertices, ids, ArcLayout.from_sides(
            tail_len, tail_idx, head_len, head_idx, weight)))


@_collector_paused()
def save_canonical(hg: DirectedHypergraph) -> str:
    """Serialize in canonical index order; load(save(hg)) == hg.

    The text is json.dumps(doc, indent=2) plus a newline, joined once from
    pieces placed into one array at positions worked out from the layout.
    """
    ensure_valid(hg)
    lay = hg.layout
    names = np.array(list(map(encode_basestring_ascii, hg.vertices)), dtype=object)
    n = names.size
    t, h = np.diff(lay.tail_ptr), np.diff(lay.head_ptr)
    # the opening, a separator and a name per vertex, the text up to the
    # first arc; per arc its id, its tail's and head's names between texts
    # and separators, its weight and the text after it
    size = 2 * (t + h) + 4
    start = 2 * n + 2 + np.cumsum(size) - size
    pieces = np.empty(2 * n + 2 + int(size.sum()), dtype=object)
    pieces[:] = ",\n        "  # np.full would build the array as text first
    pieces[0] = '{\n  "vertices": ['
    pieces[1:2 * n:2] = ",\n    "
    pieces[1:2] = "\n    "
    pieces[2:2 * n + 1:2] = names
    pieces[2 * n + 1] = ("\n  ]" if n else "]") + ',\n  "arcs": [' + (
        '\n    {\n      "id": ' if hg.n_arcs else "]\n}\n")
    if hg.n_arcs:
        pieces[start] = np.array(list(map(encode_basestring_ascii, hg.arc_ids)), dtype=object)
        pieces[start + 1] = ',\n      "tail": [\n        '
        pieces[start + 2 * t + 1] = '\n      ],\n      "head": [\n        '
        for first, ptr, idx in ((start + 2, lay.tail_ptr, lay.tail_idx),
                                (start + 2 * t + 2, lay.head_ptr, lay.head_idx)):
            pieces[np.repeat(first - 2 * ptr[:-1], np.diff(ptr))
                   + 2 * np.arange(idx.size)] = names[idx]
        pieces[start + size - 3] = '\n      ],\n      "weight": '
        pieces[start + size - 2] = np.array(list(map(repr, lay.weight.tolist())), dtype=object)
        pieces[start + size - 1] = '\n    },\n    {\n      "id": '
        pieces[-1] = "\n    }\n  ]\n}\n"
    pieces = pieces.tolist()  # the array is dropped before the text is built
    return "".join(pieces)
