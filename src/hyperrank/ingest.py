"""Reaction-equation text parsing and the canonical JSON interchange format.

Reaction grammar, one reaction per line ('#' starts a comment):

    ID ':' side ARROW side ['@' WEIGHT]

side is an optional '+'-separated list of identifiers, each one or more of
[A-Za-z0-9_] and '-', where a '-' directly before '>' opens the arrow
instead; ARROW is '->' (irreversible) or '<->' (reversible), WEIGHT a
positive number. One whole-line regular expression is the grammar. An
empty side (a boundary exchange reaction) parses, and conversion drops the
record, as core pruning would.
"""

from __future__ import annotations

import gc
import json
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import NamedTuple, NoReturn

import numpy as np

from .core import (UNKNOWN_VERTEX, ArcLayout, DirectedHypergraph, FlatArcs,
                   ValidationReport, Violation, ensure_valid, validate)
from .errors import (BadWeightError, ReactionSyntaxError, SchemaError,
                     TailHeadOverlapError, ValidationError)

SPLIT = "split"
FORWARD_ONLY = "forward-only"
REVERSIBLE_POLICIES = (SPLIT, FORWARD_ONLY)

# one or more of [A-Za-z0-9_] or '-' not directly before '>', as runs
# between the dashes, which the regex engine steps through faster
_IDENT = r"(?:[A-Za-z0-9_]|-(?!>))[A-Za-z0-9_]*(?:-(?!>)[A-Za-z0-9_]*)*"
_SIDE = rf"{_IDENT}(?:\s*\+\s*{_IDENT})*"
# a line's body, its comment and weight cut off: ID, substrates, arrow, products
_REACTION_RE = re.compile(rf"\s*({_IDENT})\s*:\s*({_SIDE})?\s*(<?->)\s*({_SIDE})?\s*")
_TOKEN_RE = re.compile(rf"(?P<arrow><?->)|(?P<colon>:)|(?P<plus>\+)|(?P<ident>{_IDENT})")
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


class ReactionRecord(NamedTuple):
    """One parsed reaction line; duplicates and token order preserved."""

    id: str
    substrates: tuple[str, ...]
    products: tuple[str, ...]
    reversible: bool = False
    weight: float = 1.0


def _side_names(side: str | None) -> tuple[str, ...]:
    return () if side is None else tuple(map(str.strip, side.split("+")))


def _raise_line_error(body: str, line_no: int | None) -> NoReturn:
    """Raise the error of a line, its comment cut off, that the grammar or
    the weight rule rejects, with its column: a bad weight first, then an
    unexpected character anywhere, then the first token the grammar cannot
    take."""
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
        tokens.append((m.lastgroup, m.group(), pos + 1))
        pos = m.end()
    tokens.append(("end", "", len(body) + 1))

    state = 0
    for kind, text, col in tokens:
        accepts, error = _WALK[state]
        if kind not in accepts:
            raise ReactionSyntaxError(error.format(text=text), line=line_no, column=col)
        state = accepts[kind]
    raise AssertionError(f"the reaction grammar rejects a line its tokens accept: {body!r}")


def parse_reaction_line(line: str, *, line_no: int | None = None) -> ReactionRecord | None:
    """Parse one reaction line; returns None for blank/comment-only lines."""
    comment = line.find("#")
    code = line if comment < 0 else line[:comment]
    if not code or code.isspace():
        return None
    body, weight = code, 1.0
    at = code.find("@")
    if at >= 0:
        body = code[:at]
        try:
            weight = float(code[at + 1:])
        except ValueError:
            weight = math.nan
    m = _REACTION_RE.fullmatch(body)
    if m is None or not 0.0 < weight < math.inf:
        _raise_line_error(code, line_no)
    rid, substrates, arrow, products = m.groups()
    return ReactionRecord(rid, _side_names(substrates), _side_names(products),
                          arrow == "<->", weight)


@_collector_paused()
def parse_reactions_text(text: str) -> list[ReactionRecord]:
    """Parse a whole reaction file; raises on the first malformed line."""
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        rec = parse_reaction_line(line, line_no=i)
        if rec is not None:
            records.append(rec)
    return records


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


@_collector_paused()
def reactions_to_hypergraph(records, reversible_policy: str = SPLIT
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
    """
    if reversible_policy not in REVERSIBLE_POLICIES:
        raise ValueError(f"unknown reversible policy {reversible_policy!r}")
    report = IngestReport(records=len(records))
    index: dict[str, int] = {}
    intern = index.setdefault
    arcs = FlatArcs()
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
        # the layout drops a side's repeated vertices
        tail = [intern(s, len(index)) for s in substrates]
        head = [intern(p, len(index)) for p in products]
        if rec.reversible:
            report.reversible_records += 1
            if reversible_policy == SPLIT:
                arcs.add(f"{rec.id}_fwd", tail, head, rec.weight)
                arcs.add(f"{rec.id}_rev", head, tail, rec.weight)
                report.split_arcs += 2
                continue
        arcs.add(rec.id, tail, head, rec.weight)
    hg = arcs.hypergraph(tuple(index))
    ensure_valid(hg)
    report.vertices = hg.n_vertices
    report.arcs = hg.n_arcs
    return hg, report


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
    types stands for the isinstance checks of ``_check_arc``."""
    if not (set(map(type, arcs)) <= {dict} and set(map(len, arcs)) <= {len(_ARC_KEYS)}):
        return None
    try:
        ids, tails, heads, weights = [list(map(get, arcs)) for get in _ARC_FIELDS]
    except KeyError:  # with four keys, a missing one means an unknown one
        return None
    # each test runs only once the one before it holds: a string side
    # would chain into its characters
    if (set(map(type, ids)) <= {str}
            and set(map(type, tails)) | set(map(type, heads)) <= {list}
            and set(map(type, chain.from_iterable(tails)))
            | set(map(type, chain.from_iterable(heads))) <= {str}
            and set(map(type, weights)) <= {int, float}):
        return ids, tails, heads, weights
    return None


def _side_columns(index: dict[str, int], sides: list[list[str]]
                  ) -> tuple[list[int], list[int | None]]:
    """Each side's length, and the vertex indices of all sides concatenated;
    None stands for an unknown name."""
    return list(map(len, sides)), list(map(index.get, chain.from_iterable(sides)))


@_collector_paused()
def load_canonical(text: str) -> DirectedHypergraph:
    """Parse the canonical JSON format; reports every semantic violation.

    The arcs are read a field at a time across all of them and handed to
    ``ArcLayout.from_sides`` as columns. Only a document that a bulk check
    rejects is scanned arc by arc, to raise its first schema error.
    """
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
    arcs = doc["arcs"]
    if not isinstance(arcs, list):
        raise SchemaError('"arcs" must be an array')
    columns = _arc_columns(arcs)
    if columns is None:
        for pos, raw in enumerate(arcs):
            _check_arc(pos, raw)
        raise AssertionError("the bulk checks reject arcs that every arc's checks accept")
    ids, tails, heads, weights = columns
    # the arc objects go; their fields live on in the columns
    del doc, arcs, columns

    index: dict[str, int] = {}
    for v in vertices:
        index.setdefault(v, len(index))
    tail_len, tail_idx = _side_columns(index, tails)
    head_len, head_idx = _side_columns(index, heads)
    # names must resolve to build an arc at all; validate checks the rest
    unknown: list[Violation] = []
    if None in tail_idx or None in head_idx:
        known = [all(map(index.__contains__, chain(t, h))) for t, h in zip(tails, heads)]
        unknown = [Violation(UNKNOWN_VERTEX, arc_id, f"unknown vertex id {name!r}")
                   for arc_id, t, h, ok in zip(ids, tails, heads, known) if not ok
                   for name in t + h if name not in index]
        ids, tails, heads, weights = (list(compress(column, known))
                                      for column in (ids, tails, heads, weights))
        tail_len, tail_idx = _side_columns(index, tails)
        head_len, head_idx = _side_columns(index, heads)
    del tails, heads
    try:
        weight = np.array(weights, dtype=np.float64)
    except OverflowError:  # an integer beyond the float range
        weight = np.array(list(map(_float, weights)), dtype=np.float64)
    hg = DirectedHypergraph(vertices, ids, ArcLayout.from_sides(
        tail_len, tail_idx, head_len, head_idx, weight))
    if unknown:
        raise ValidationError(ValidationReport(validate(hg).violations + tuple(unknown)))
    return ensure_valid(hg)


def _json_array(items: list[str], depth: int) -> str:
    """Encoded items as a JSON array, laid out as json.dumps(indent=2) lays
    out an array nested ``depth`` levels deep."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * depth + "]"


def save_canonical(hg: DirectedHypergraph) -> str:
    """Serialize in canonical index order; load(save(hg)) == hg.

    The text is json.dumps(doc, indent=2) plus a newline, assembled from
    the layout without building the document.
    """
    ensure_valid(hg)
    names = [encode_basestring_ascii(v) for v in hg.vertices]
    lay = hg.layout

    def sides(ptr, idx) -> list[str]:
        members = [names[i] for i in idx.tolist()]
        bounds = ptr.tolist()
        return [_json_array(members[a:b], 3) for a, b in zip(bounds, bounds[1:])]

    arcs = [f'{{\n      "id": {encode_basestring_ascii(arc_id)},\n      "tail": {tail},'
            f'\n      "head": {head},\n      "weight": {weight!r}\n    }}'
            for arc_id, tail, head, weight
            in zip(hg.arc_ids, sides(lay.tail_ptr, lay.tail_idx),
                   sides(lay.head_ptr, lay.head_idx), lay.weight.tolist())]
    return ('{\n  "vertices": ' + _json_array(names, 1)
            + ',\n  "arcs": ' + _json_array(arcs, 1) + "\n}\n")
