"""Reaction-equation text parsing and the canonical JSON interchange format.

Reaction grammar, one reaction per line ('#' starts a comment):

    ID ':' side ARROW side ['@' WEIGHT]

side is an optional '+'-separated list of identifiers, each one or more of
[A-Za-z0-9_] and '-', where a '-' directly before '>' opens the arrow
instead; ARROW is '->' (irreversible) or '<->' (reversible), WEIGHT a
positive number. Lines end where ``str.splitlines`` ends them. One regular
expression, matched over a slice of lines at a time, is the grammar; a text
it rejects is read again line by line only to raise the first error. An
empty side (a boundary exchange reaction) parses, and conversion drops the
record, as core pruning would.
"""

from __future__ import annotations

import gc
import json
import math
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count, filterfalse
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterator, NamedTuple, NoReturn

import numpy as np

from . import _fork
from .core import (ArcLayout, DirectedHypergraph, _positions, _reject_unknown, _resolved,
                   _side, _take, _weight_column, ensure_valid)
from .errors import (BadWeightError, ReactionSyntaxError, SchemaError,
                     TailHeadOverlapError)
from .sparse import _firsts

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


def _trim_heap() -> None:
    """Hand the free pages inside glibc's heap back to the system.

    A freed block below the mmap threshold stays in the heap, and its pages
    stay resident until they are reused. ``reactions_to_hypergraph`` calls
    this before it validates, and the CLI after each load and after
    pruning: the freed temporaries would otherwise lie under the next
    stage, where how many of them it reuses depends on the order of every
    earlier allocation, down to the length of the input's path. Over 48
    such paths (both ``rank_prune_20k`` seeds), ``rank --prune`` peaked at
    60.2 to 66.2 MB, median 63.6, without the trims and at 59.7 to 63.8 MB,
    median 62.1, with them (2-vCPU x86-64 host, Python 3.11, NumPy 2.4).
    """
    trim = _libc("malloc_trim")
    if trim is not None:
        trim(0)


def _libc(name: str):
    """The C library's function ``name`` on Linux, where it has one."""
    if not sys.platform.startswith("linux"):
        return None
    import ctypes  # here, so that a command that does not call it pays nothing
    return getattr(ctypes.CDLL(None), name, None)


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


# A text is split over processes only into parts of this many characters
# or more: below that, a fork costs more than it saves.
_PART_CHARS = 1 << 19
# A part is read in slices, each ending at the first cut (a '\n' of a
# reaction text, a '}, {' of the arcs array) this many characters or more
# past its start.
_SLICE_CHARS = 1 << 17


def _parts(text: str, pos: int, cut: re.Pattern) -> list[tuple[int, int | None]]:
    """The text from ``pos`` cut into one part per worker process (see
    ``_fork.worker_count``), each of ``_PART_CHARS`` or more: per part its
    start and end, None for the last part, which runs to the end. A part
    ends where the first match of ``cut`` past an equal share of the text
    starts, and the next part starts where that match ends."""
    span = len(text) - pos
    workers = _fork.worker_count(span // _PART_CHARS)
    parts, first = [], pos
    for k in range(1, workers):
        found = cut.search(text, max(first, pos + k * span // workers))
        if found is None:
            break
        parts.append((first, found.start()))
        first = found.end()
    return parts + [(first, None)]


class ReactionColumns(NamedTuple):
    """The records of a reaction text as columns, in file order.

    ``species`` holds the distinct species names in the order of their
    first mention in the text. ``code`` holds one position in ``species``
    per mention: every record's substrates and then its products, as
    written (repeats kept). ``tail_len`` and ``head_len`` count how many of
    a record's mentions are substrates and how many products.
    """

    ids: list[str]
    species: list[str]
    code: np.ndarray
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


_LINE_BREAK = re.compile("\n")


@_collector_paused()
def parse_reactions_text(text: str) -> ReactionColumns:
    """Parse a whole reaction file; raises on the first malformed line.

    The text is cut at line breaks into parts (see ``_parts``), which are
    scanned over processes (see ``_fork.split``), each in slices (see
    ``_scan``), so a process holds the temporaries of one slice, not of its
    part. The parts' species are then numbered in text order. A part that
    the scan does not take sends the whole text to the line-by-line error
    locator, which alone raises errors, so a diagnostic never depends on
    the cuts or the slices.
    """
    if any(map(text.__contains__, _BREAKS)):
        text = "\n".join(text.splitlines())
    try:
        scans = _fork.split(_parts(text, 0, _LINE_BREAK), partial(_scan, text))
    except _fork.Declined:
        for line_no, line in enumerate(text.splitlines(), start=1):
            _parse_reaction_line(line, line_no=line_no)
        raise AssertionError(
            "the whole-text scan rejects a text whose every line parses") from None
    index = dict(zip(dict.fromkeys(chain.from_iterable(species for (_, species), _ in scans)),
                     count()))
    # each slice's codes, from its part's species to the text's
    code = np.concatenate([
        number[s[0]] for (_, species), part in scans
        for number in [np.fromiter(map(index.__getitem__, species), dtype=np.int64,
                                   count=len(species))]
        for s in part])
    slices = list(chain.from_iterable(part for _, part in scans))
    tail_len, head_len, weight, reversible = map(np.concatenate, list(zip(*slices))[1:])
    return ReactionColumns(list(chain.from_iterable(ids for (ids, _), _ in scans)), list(index),
                           code, tail_len, head_len, reversible, weight)


def _scan(text: str, pos: int, end: int | None, fresh: bool = True
          ) -> tuple[tuple[list[str], list[str]], list[tuple[np.ndarray, ...]]]:
    """The records of the lines from ``pos`` to ``end`` (None: to the end
    of the text): their ids and the part's distinct species in the order of
    first mention; and per slice, as columns, the position among those
    species of each mention, the records' side lengths, weights and arrows.
    With ``fresh`` the ids and species are copied (see ``_fresh``). Raises
    ``_fork.Declined`` where a line does not match or a weight is no
    positive real.

    The lines are matched a slice at a time, each slice ending at the first
    line break ``_SLICE_CHARS`` or more past its start: a slice's matches
    are checked, its ids and new species copied out, and its matches and
    names dropped before the next slice is matched, so no more than one
    slice of them is held.
    """
    end = len(text) if end is None else end
    ids, index, slices = [], {}, []
    while True:
        stop = text.find("\n", pos + _SLICE_CHARS, end)
        stop = end if stop < 0 else stop
        lines = _LINE_RE.findall(text, pos, stop)
        columns = list(zip(*lines)) or [()] * 5
        kept = list(map(bool, columns[0]))  # blank and comment-only lines have no ID
        named, substrates, reversible, products, weights = (
            list(compress(column, kept)) for column in columns)
        try:
            weight = np.array([float(w or 1) for w in weights], dtype=np.float64)
        except ValueError:
            raise _fork.Declined from None
        # a slice has one line more than '\n's, the last one empty after a
        # final '\n', and each line that the grammar takes matches once
        if (len(lines) != text.count("\n", pos, stop) + 1
                or not ((weight > 0.0) & (weight < math.inf)).all()):
            raise _fork.Declined
        del lines, columns, kept, weights
        ids += _fresh(named) if fresh else named
        # a side is its names with '+' and whitespace between them
        names = " ".join(chain.from_iterable(zip(substrates, products))).replace("+", " ").split()
        new = list(filterfalse(index.__contains__, dict.fromkeys(names)))
        index.update(zip(_fresh(new) if fresh else new, count(len(index))))
        slices.append((
            np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names)),
            *(np.array([s.count("+") + 1 if s else 0 for s in sides], dtype=np.int64)
              for sides in (substrates, products)),
            weight, np.array(list(map(bool, reversible)), dtype=bool)))
        del named, substrates, reversible, products, weight, names, new
        if stop == end:
            return (ids, list(index)), slices
        pos = stop + 1


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

    The parse's columns are dropped once read, and the layout's scratch is
    dropped and trimmed from the heap (see ``_trim_heap``) before the result
    is validated.
    """
    if reversible_policy not in REVERSIBLE_POLICIES:
        raise ValueError(f"unknown reversible policy {reversible_policy!r}")
    held = [parsed]
    del parsed
    hg, report = _converted(held, reversible_policy)
    _trim_heap()
    return ensure_valid(hg), report


@_collector_paused()
def _converted(held: list, policy: str) -> tuple[DirectedHypergraph, IngestReport]:
    """``reactions_to_hypergraph`` before validation; ``held``'s parse is
    freed once laid out.

    The records' sides are laid out as one CSR block of rows 2r (record r's
    substrates) and 2r + 1 (its products), each sorted and deduplicated;
    the arcs' sides are rows of that block. Each temporary is dropped as
    soon as it has been read, so no two mention-sized ones outlive a step.
    """
    parsed = held.pop()
    ids, species, (code, tail_len, head_len, reversible, weight) = (
        parsed.ids, parsed.species, map(np.asarray, parsed[2:]))
    del parsed
    kept = (tail_len > 0) & (head_len > 0)
    # the kept records' species are the vertices, in the order of their
    # first kept mention; the species that only dropped records mention
    # are numbered after them, in the order of their first mention
    at = np.arange(code.size)
    at[np.repeat(~kept, tail_len + head_len)] = code.size
    first = np.full(len(species), code.size)
    np.minimum.at(first, code, at)
    del at
    order = np.argsort(first, kind="stable")
    vertices = list(map(species.__getitem__,
                        order[:np.count_nonzero(first < code.size)].tolist()))
    span = len(species) + 1
    del first, species
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    del order
    ptr, idx = _side(np.stack((tail_len, head_len), axis=1).ravel(), number[code])
    del number, code
    sides = np.diff(ptr)
    distinct = sides[0::2] + sides[1::2]
    collapsed = (tail_len + head_len - distinct).tolist()

    # a record holds a name once per side, so a (record, name) key met
    # twice is on both sides
    key = np.repeat(np.arange(len(ids)) * span, distinct)
    del sides, distinct
    key += idx
    key.sort()
    shared = key[~_firsts(key)]
    del key
    if shared.size:
        r = int(shared[0] // span)
        raise TailHeadOverlapError(ids[r], sorted(
            vertices[v] for v in (shared[shared // span == r] % span).tolist()))

    rec = np.flatnonzero(kept)
    twice = reversible[rec] & (policy == SPLIT)
    arc_rec = np.repeat(rec, 1 + twice)
    back = np.diff(arc_rec, prepend=-1) == 0  # a split record's second arc
    arc_ids = np.array(ids, dtype=object)[arc_rec]
    arc_ids[back] += "_rev"
    arc_ids[np.flatnonzero(back) - 1] += "_fwd"
    arc_ids = arc_ids.tolist()
    tail = _take(ptr, idx, 2 * arc_rec + back)
    head = _take(ptr, idx, 2 * arc_rec + ~back)
    del ptr, idx
    hg = DirectedHypergraph(vertices, arc_ids, ArcLayout(*tail, *head, weight[arc_rec]))
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


def _reject_names(vertices: list[str], index: dict[str, int], ids: list, tails: list,
                  heads: list, weights: list) -> NoReturn:
    """Raise the error of arcs whose names do not all resolve. A name that is
    no string breaks the schema, first arc first, tail before head; unknown
    names are reported by ``core._reject_unknown``."""
    for pos, (tail, head) in enumerate(zip(tails, heads)):
        _string_list(tail, f'arcs[{pos}]."tail"')
        _string_list(head, f'arcs[{pos}]."head"')
    _reject_unknown(vertices, index, ids, tails, heads, _weight_column(weights))


# a cut of the arcs array lies between a '}' and a '{'
_CUT = re.compile(r"(?<=\})[ \t\n\r]*,[ \t\n\r]*(?=\{)")
_SPACE = json.decoder.WHITESPACE
_DECODER = json.JSONDecoder()


def _expect(text: str, pos: int, token: str) -> int:
    """The position after ``token``, which must follow ``pos`` past JSON
    whitespace."""
    pos = _SPACE.match(text, pos).end()
    if not text.startswith(token, pos):
        raise _fork.Declined
    return pos + len(token)


def _key(text: str, pos: int, key: str) -> int:
    """The position of the value after the object key ``key`` and its ':';
    the key is decoded, so an escaped spelling of it is the key too."""
    found, pos = json.decoder.scanstring(text, _expect(text, pos, '"'))
    if found != key:
        raise _fork.Declined
    return _SPACE.match(text, _expect(text, pos, ":")).end()


def _sliced(text: str) -> tuple[list[str], list[str], tuple[np.ndarray, ...]] | None:
    """The vertices, arc ids and resolved sides and weights of a document
    laid out as ``{"vertices": [...], "arcs": [...]}``, or None.

    The vertices are decoded first. The arcs array is cut between arcs into
    parts (see ``_parts``), which are decoded over processes (see
    ``_fork.split``), each in slices (see ``_part``). Anything else than a
    valid slice, a resolved name and the two keys in this order with
    nothing after them gives None, also where a child meets it: the whole
    document is then decoded again, which alone raises errors.
    """
    try:
        vertices, pos = _DECODER.raw_decode(text, _key(text, _expect(text, 0, "{"), "vertices"))
        if type(vertices) is not list or not set(map(type, vertices)) <= {str}:
            raise _fork.Declined
        pos = _expect(text, _key(text, _expect(text, pos, ","), "arcs"), "[")
        index = _positions(vertices)
        (ids, slices), *rest = _fork.split(_parts(text, pos, _CUT), partial(_part, text, index))
    except _fork.DECLINED:
        return None
    for part_ids, part_slices in rest:
        ids += part_ids
        slices += part_slices
    return vertices, ids, tuple(map(np.concatenate, zip(*slices)))


def _part(text: str, index: dict[str, int], pos: int, end: int | None, fresh: bool = True
          ) -> tuple[list[str], list[tuple[np.ndarray, ...]]]:
    """The arc ids, and per slice the resolved sides and weights, of the
    arcs from ``pos`` to ``end``; with ``end`` None, to the end of the arcs
    array, and then nothing but the document's closing '}' may follow.

    A slice ends at the first '}' that a ',' and a '{' follow
    ``_SLICE_CHARS`` or more past its start. Each slice is decoded inside
    '[' ']', its columns extracted, its names resolved and, with ``fresh``,
    its ids copied (see ``_fresh``), and dropped before the next one is
    decoded. A cut inside a string leaves the string unterminated, and one
    inside an arc leaves it unclosed, so a wrong cut never decodes.
    """
    ids, slices = [], []
    while True:
        cut = _CUT.search(text, pos + _SLICE_CHARS, len(text) if end is None else end)
        if cut is not None:
            arcs = json.loads("[" + text[pos:cut.start()] + "]")
        elif end is not None:
            arcs = json.loads("[" + text[pos:end] + "]")
        else:  # decoding finds where the array ends
            arcs, stop = _DECODER.raw_decode("[" + text[pos:])
            if _SPACE.match(text, _expect(text, pos + stop - 1, "}")).end() != len(text):
                raise _fork.Declined
        columns = _arc_columns(arcs)
        if columns is None:
            raise _fork.Declined
        del arcs
        slices.append((*_resolved(index, columns[1]), *_resolved(index, columns[2]),
                       _weight_column(columns[3])))
        ids += _fresh(columns[0]) if fresh else columns[0]
        del columns
        if cut is None:
            return ids, slices
        pos = cut.end()


def load_canonical(text: str) -> DirectedHypergraph:
    """Parse the canonical JSON format; reports every semantic violation.

    The arcs are decoded in slices, a part of the array per available CPU
    (see ``_sliced``), read a field at a time across each slice, their
    names resolved in one pass per side, and handed to
    ``ArcLayout.from_sides`` as columns. The text is held until the last
    slice is decoded and dropped before the layout is built, so each
    process peaks at the text plus one slice's objects and its part's
    columns, not at a whole document.

    A text that the sliced decode does not take is decoded whole, and that
    decode alone raises errors: only a document that a bulk check rejects,
    or with a name that does not resolve, is scanned arc by arc, to raise
    its error. The text is dropped once parsed there, and the document
    before the layout is built and validated; what the hypergraph keeps of
    either holds none of their memory (see ``_fresh``).
    """
    with _collector_paused():
        held = [text]
        del text
        vertices, ids, sides = _sliced(held[0]) or _whole(held)
        del held
        return ensure_valid(DirectedHypergraph(vertices, ids, ArcLayout.from_sides(*sides)))


def _whole(held: list[str]) -> tuple[list[str], list[str], tuple[np.ndarray, ...]]:
    """``_sliced``'s result from one decode of the whole text, or the
    document's first schema error, or the report of its unknown names.

    The text is taken out of ``held``, so that it is freed once decoded.
    """
    text = held.pop()
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

    index = _positions(vertices)
    try:
        # every key is a string, so a name that resolves is one
        sides = *_resolved(index, tails), *_resolved(index, heads), _weight_column(weights)
    except (KeyError, TypeError):
        _reject_names(vertices, index, ids, tails, heads, weights)
    del columns, tails, heads, weights, index
    # each arc id lies among its arc's objects and would keep their
    # arena; the vertex names lie together, so they are kept as they are
    return vertices, _fresh(ids), sides


# the most arcs one block of the canonical text holds
_BLOCK_ARCS = 1 << 12


def save_canonical(hg: DirectedHypergraph) -> str:
    """Serialize in canonical index order; load(save(hg)) == hg.

    The text is json.dumps(doc, indent=2) plus a newline: the blocks of
    ``canonical_blocks`` joined."""
    return "".join(canonical_blocks(hg))


def canonical_blocks(hg: DirectedHypergraph) -> Iterator[str]:
    """The text of ``save_canonical`` in blocks: the vertex list first,
    then ``_BLOCK_ARCS`` arcs a block, so no more than one block of it is
    held at once. The hypergraph is validated before this returns.
    """
    ensure_valid(hg)
    return _blocks(hg)


def _blocks(hg: DirectedHypergraph) -> Iterator[str]:
    lay, m = hg.layout, hg.n_arcs
    names = np.array(list(map(encode_basestring_ascii, hg.vertices)), dtype=object)
    listed = "[\n    " + ",\n    ".join(names.tolist()) + "\n  ]" if names.size else "[]"
    opened = '[\n    {\n      "id": ' if m else "[]\n}\n"
    yield '{\n  "vertices": ' + listed + ',\n  "arcs": ' + opened
    for a, b in zip(range(0, m, _BLOCK_ARCS), range(_BLOCK_ARCS, m + _BLOCK_ARCS, _BLOCK_ARCS)):
        t, h = np.diff(lay.tail_ptr[a:b + 1]), np.diff(lay.head_ptr[a:b + 1])
        # per arc its id, its tail's and head's names between texts and
        # separators, its weight and the text after it
        size = 2 * (t + h) + 4
        start = np.cumsum(size) - size
        pieces = np.empty(int(size.sum()), dtype=object)
        pieces[:] = ",\n        "  # np.full would build the array as text first
        pieces[start] = list(map(encode_basestring_ascii, hg.arc_ids[a:b]))
        pieces[start + 1] = ',\n      "tail": [\n        '
        pieces[start + 2 * t + 1] = '\n      ],\n      "head": [\n        '
        for first, ptr, idx in ((start + 2, lay.tail_ptr[a:b + 1], lay.tail_idx),
                                (start + 2 * t + 2, lay.head_ptr[a:b + 1], lay.head_idx)):
            pieces[np.repeat(first - 2 * (ptr[:-1] - ptr[0]), np.diff(ptr))
                   + 2 * np.arange(ptr[-1] - ptr[0])] = names[idx[ptr[0]:ptr[-1]]]
        pieces[start + size - 3] = '\n      ],\n      "weight": '
        pieces[start + size - 2] = list(map(repr, lay.weight[a:b].tolist()))
        pieces[start + size - 1] = '\n    },\n    {\n      "id": '
        if b >= m:
            pieces[-1] = "\n    }\n  ]\n}\n"
        yield "".join(pieces.tolist())
