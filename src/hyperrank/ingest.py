"""Reaction-equation text parsing and the canonical JSON interchange format.

Reaction grammar, one reaction per line ('#' starts a comment):

    ID ':' side ARROW side ['@' WEIGHT]

side is a '+'-separated list of identifiers ([A-Za-z0-9_-]+), ARROW is
'->' (irreversible) or '<->' (reversible), WEIGHT a positive number.
Permissive parsing accepts an empty side (boundary exchange reactions),
leaving removal to the core-pruning step; strict parsing rejects it.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from .core import (UNKNOWN_VERTEX, DirectedHypergraph, FlatArcs,
                   ValidationReport, Violation, ensure_valid, validate)
from .errors import (BadWeightError, EmptySideError, ReactionSyntaxError,
                     SchemaError, TailHeadOverlapError, ValidationError)

logger = logging.getLogger(__name__)

SPLIT = "split"
FORWARD_ONLY = "forward-only"
REVERSIBLE_POLICIES = (SPLIT, FORWARD_ONLY)

# '-' is an identifier character except when it opens an '->' arrow
_TOKEN_RE = re.compile(r"(?P<arrow><->|->)|(?P<punct>[:+])|(?P<ident>(?:[A-Za-z0-9_]|-(?!>))+)")


@dataclass(frozen=True)
class ReactionRecord:
    """One parsed reaction line; duplicates and token order preserved."""

    id: str
    substrates: tuple[str, ...]
    products: tuple[str, ...]
    reversible: bool = False
    weight: float = 1.0


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


def parse_reaction_line(line: str, strict: bool = False,
                        line_no: int | None = None) -> ReactionRecord | None:
    """Parse one reaction line; returns None for blank/comment-only lines."""
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
    arrow, arrow_col = take("arrow", "'->' or '<->'")
    products = take_side("product side")
    kind, text, col = peek()
    if kind is not None:
        raise ReactionSyntaxError(f"unexpected trailing input {text!r}",
                                  line=line_no, column=col)
    if strict and (not substrates or not products):
        side = "substrate" if not substrates else "product"
        raise EmptySideError(f"reaction {rid}: empty {side} side",
                             line=line_no, column=arrow_col)
    return ReactionRecord(rid, substrates, products, arrow == "<->", weight)


def parse_reactions_text(text: str, strict: bool = False) -> list[ReactionRecord]:
    """Parse a whole reaction file; raises on the first malformed line."""
    records = []
    for i, line in enumerate(text.splitlines(), start=1):
        rec = parse_reaction_line(line, strict=strict, line_no=i)
        if rec is not None:
            records.append(rec)
    return records


@dataclass
class IngestReport:
    """Counts the conversion surfaces on standard error for the CLI."""

    records: int = 0
    vertices: int = 0
    arcs: int = 0
    reversible_records: int = 0
    split_arcs: int = 0
    collapsed_duplicates: int = 0
    dropped: list[tuple[str, str]] = field(default_factory=list)


def reactions_to_hypergraph(records, reversible_policy: str = SPLIT,
                            permissive: bool = True
                            ) -> tuple[DirectedHypergraph, IngestReport]:
    """Turn parsed reactions into a hypergraph.

    Irreversible records map to one arc (tail=substrates, head=products).
    Under the `split` policy a reversible record becomes two arcs, ID_fwd
    and ID_rev, with the same weight; under `forward-only` it becomes one
    arc as written. Species are interned as vertices in first-mention
    order. A record whose sides share a species is rejected outright; a
    record with an empty side is dropped (permissive) or rejected (strict).
    """
    if reversible_policy not in REVERSIBLE_POLICIES:
        raise ValueError(f"unknown reversible policy {reversible_policy!r}")
    report = IngestReport(records=len(records))
    index: dict[str, int] = {}

    def intern(name: str) -> int:
        return index.setdefault(name, len(index))

    arcs = FlatArcs()
    for rec in records:
        substrates = list(dict.fromkeys(rec.substrates))
        products = list(dict.fromkeys(rec.products))
        collapsed = (len(rec.substrates) - len(substrates)
                     + len(rec.products) - len(products))
        if collapsed:
            report.collapsed_duplicates += collapsed
            logger.warning("reaction %s: %d duplicate species mention(s) collapsed",
                           rec.id, collapsed)
        shared = sorted(set(substrates) & set(products))
        if shared:
            raise TailHeadOverlapError(rec.id, shared)
        if not substrates or not products:
            side = "tail" if not substrates else "head"
            if permissive:
                report.dropped.append((rec.id, f"empty {side}"))
                continue
            raise EmptySideError(f"reaction {rec.id}: empty {side}")
        tail = [intern(s) for s in substrates]
        head = [intern(p) for p in products]
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
        weight = math.inf
    return raw["id"], tail_names, head_names, weight


def load_canonical(text: str) -> DirectedHypergraph:
    """Parse the canonical JSON format; reports every semantic violation."""
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

    index: dict[str, int] = {}
    for v in vertices:
        index.setdefault(v, len(index))

    # names must resolve to build an arc at all; validate checks the rest
    unknown: list[Violation] = []
    arcs = FlatArcs()
    for pos, raw in enumerate(doc["arcs"]):
        arc_id, tail_names, head_names, weight = _checked_arc(pos, raw)
        tail = [index.get(name) for name in tail_names]
        head = [index.get(name) for name in head_names]
        if None in tail or None in head:
            unknown += [Violation(UNKNOWN_VERTEX, arc_id, f"unknown vertex id {name!r}")
                        for name in tail_names + head_names if name not in index]
            continue
        arcs.add(arc_id, tail, head, weight)
    hg = arcs.hypergraph(vertices)
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
