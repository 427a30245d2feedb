"""Reaction-equation text parsing and the canonical JSON interchange format.

Reaction grammar, one reaction per line ('#' starts a comment):

    ID ':' side ARROW side ['@' WEIGHT]

side is an optional '+'-separated list of identifiers, each one or more of
[A-Za-z0-9_] and '-', where a '-' directly before '>' opens the arrow
instead; ARROW is '->' (irreversible) or '<->' (reversible), WEIGHT a
positive number. Lines end where ``str.splitlines`` ends them. One regular
expression, matched over whole parts of the text at once, is the grammar; a
text it rejects is read again line by line only to raise the first error. An
empty side (a boundary exchange reaction) parses, and conversion drops the
record, as core pruning would.
"""

from __future__ import annotations

import gc
import json
import marshal
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from itertools import chain, compress, count
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from . import _fork
from .core import (ArcLayout, DirectedHypergraph, _positions, _reject_unknown,
                   _resolved, _take, _weight_column, ensure_valid)
from .errors import (BadWeightError, ReactionSyntaxError, SchemaError,
                     TailHeadOverlapError)

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


class _Surprise(Exception):
    """A part is not what the fast path reads: the text is read again the
    slow way, which alone raises errors."""


# A text is split over processes only into parts of this many characters
# or more: below that, a fork costs more than it saves.
_PART_CHARS = 1 << 19
# what the fast path over a part that it does not take may raise
_DECLINED = (_Surprise, ValueError, KeyError, TypeError, RecursionError)


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


def _send(write: int, job: Callable[[], tuple[object, Sequence[np.ndarray]]]) -> None:
    """In a forked child: write to the pipe ``write`` one buffer of what
    ``job()`` gives, some strings and some columns. That is the int64 word
    0 and each column's length; the columns' bytes; and the strings,
    marshalled. Where the job does not take its part, it is the word 1
    alone."""
    try:
        strings, columns = job()
        buffers = [np.array([0, *map(len, columns)], dtype=np.int64), *columns,
                   marshal.dumps(strings)]
    except _DECLINED:
        buffers = [np.array([1], dtype=np.int64)]
    with open(write, "wb") as pipe:
        pipe.writelines(buffers)


def _received(data: bytes | None, dtypes: tuple) -> tuple[object, list[np.ndarray]] | None:
    """The strings and the columns, of the ``dtypes`` in order, of the
    buffer a child sent (see ``_send``); None where the child failed.
    Raises ``_Surprise`` where the child did not take its part."""
    if data is None:
        return None
    if np.frombuffer(data, dtype=np.int64, count=1)[0]:
        raise _Surprise
    sizes = np.frombuffer(data, dtype=np.int64, count=len(dtypes), offset=8).tolist()
    columns, at = [], 8 * (len(dtypes) + 1)
    for size, dtype in zip(sizes, dtypes):
        columns.append(np.frombuffer(data, dtype=dtype, count=size, offset=at))
        at += size * np.dtype(dtype).itemsize
    return marshal.loads(memoryview(data)[at:]), columns


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
# the dtypes of the columns that ``_scan`` gives, in order
_SCAN_DTYPES = (np.int64, np.int64, np.int64, np.float64, bool)


@_collector_paused()
def parse_reactions_text(text: str) -> ReactionColumns:
    """Parse a whole reaction file; raises on the first malformed line.

    The text is cut at line breaks into parts (see ``_parts``); a forked
    child scans each later part (see ``_scan``) while this process scans
    the first, and a part whose child failed is scanned here. The parts'
    species are then numbered in text order. A part that the scan does not
    take sends the whole text to the line-by-line error locator, which
    alone raises errors, so a diagnostic never depends on the cuts.
    """
    if any(map(text.__contains__, _BREAKS)):
        text = "\n".join(text.splitlines())
    parts = _parts(text, 0, _LINE_BREAK)
    try:
        with _fork.Children(apart=True) as children:
            for k in range(1, len(parts)):
                scan = partial(_scan, text, *parts[k], fresh=False)
                if not children.fork(k, lambda write: _send(write, scan)):
                    break  # no process to spare: the rest is scanned here
            scans = [_scan(text, *parts[0])]
            for k in range(1, len(parts)):
                scans.append(_received(children.collect(k), _SCAN_DTYPES)
                             or _scan(text, *parts[k]))
    except _Surprise:
        for line_no, line in enumerate(text.splitlines(), start=1):
            _parse_reaction_line(line, line_no=line_no)
        raise AssertionError(
            "the whole-text scan rejects a text whose every line parses") from None
    strings, columns = zip(*scans)
    index = dict(zip(dict.fromkeys(chain.from_iterable(species for _, species in strings)),
                     count()))
    # each part's codes, from the part's species to the text's
    code = np.concatenate([
        np.fromiter(map(index.__getitem__, species), dtype=np.int64, count=len(species))[part[0]]
        for (_, species), part in scans])
    tail_len, head_len, weight, reversible = map(np.concatenate, list(zip(*columns))[1:])
    return ReactionColumns(list(chain.from_iterable(ids for ids, _ in strings)), list(index),
                           code, tail_len, head_len, reversible, weight)


def _scan(text: str, pos: int, end: int | None, fresh: bool = True
          ) -> tuple[tuple[list[str], list[str]], tuple[np.ndarray, ...]]:
    """The records of the lines from ``pos`` to ``end`` (None: to the end
    of the text), matched at once: their ids and the part's distinct
    species in the order of first mention; and as columns the position
    among those species of each mention, the records' side lengths,
    weights and arrows. With ``fresh`` the ids and species are copied (see
    ``_fresh``). Raises ``_Surprise`` where a line does not match or a
    weight is no positive real.
    """
    end = len(text) if end is None else end
    lines = _LINE_RE.findall(text, pos, end)
    columns = list(zip(*lines)) or [()] * 5
    kept = list(map(bool, columns[0]))  # blank and comment-only lines have no ID
    ids, substrates, reversible, products, weights = (
        list(compress(column, kept)) for column in columns)
    try:
        weight = np.array([float(w or 1) for w in weights], dtype=np.float64)
    except ValueError:
        raise _Surprise from None
    # a part has one line more than '\n's, the last one empty after a
    # final '\n', and each line that the grammar takes matches once
    if (len(lines) != text.count("\n", pos, end) + 1
            or not ((weight > 0.0) & (weight < math.inf)).all()):
        raise _Surprise
    del lines, columns
    # a side is its names with '+' and whitespace between them
    names = " ".join(chain.from_iterable(zip(substrates, products))).replace("+", " ").split()
    index = dict(zip(dict.fromkeys(names), count()))
    code = np.fromiter(map(index.__getitem__, names), dtype=np.int64, count=len(names))
    tail_len, head_len = (np.array([s.count("+") + 1 if s else 0 for s in sides], dtype=np.int64)
                          for sides in (substrates, products))
    species = list(index)
    return ((_fresh(ids), _fresh(species)) if fresh else (ids, species),
            (code, tail_len, head_len, weight, np.array(list(map(bool, reversible)), dtype=bool)))


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

    The parse, and with it the species that no kept record mentions, is
    dropped before the records are laid out and the result validated.
    """
    if reversible_policy not in REVERSIBLE_POLICIES:
        raise ValueError(f"unknown reversible policy {reversible_policy!r}")
    with _collector_paused():
        ids, species, (code, tail_len, head_len, reversible, weight) = (
            parsed.ids, parsed.species, map(np.asarray, parsed[2:]))
        del parsed
        sizes = tail_len + head_len
        kept = (tail_len > 0) & (head_len > 0)
        # the kept records' species are the vertices, in the order of their
        # first kept mention; the species that only dropped records mention
        # are numbered after them, in the order of their first mention
        kept_name = np.repeat(kept, sizes)
        first = np.full(len(species), code.size)
        np.minimum.at(first, code[kept_name], np.flatnonzero(kept_name))
        order = np.argsort(first, kind="stable")
        number = np.empty_like(order)
        number[order] = np.arange(order.size)
        code = number[code]
        vertices = list(map(species.__getitem__,
                            order[:np.count_nonzero(first < code.size)].tolist()))
        span = len(species) + 1
        del species
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


# A slice of the arcs array ends at the first '}, {' this many characters
# or more past its start; a cut lies between the '}' and the '{'.
_SLICE_CHARS = 1 << 17
_CUT = re.compile(r"(?<=\})[ \t\n\r]*,[ \t\n\r]*(?=\{)")
# the dtypes of the columns that ``_send_part`` sends, in order
_PART_DTYPES = (np.int64,) * 4 + (np.float64,)
_SPACE = json.decoder.WHITESPACE
_DECODER = json.JSONDecoder()


def _expect(text: str, pos: int, token: str) -> int:
    """The position after ``token``, which must follow ``pos`` past JSON
    whitespace."""
    pos = _SPACE.match(text, pos).end()
    if not text.startswith(token, pos):
        raise _Surprise
    return pos + len(token)


def _key(text: str, pos: int, key: str) -> int:
    """The position of the value after the object key ``key`` and its ':';
    the key is decoded, so an escaped spelling of it is the key too."""
    found, pos = json.decoder.scanstring(text, _expect(text, pos, '"'))
    if found != key:
        raise _Surprise
    return _SPACE.match(text, _expect(text, pos, ":")).end()


def _sliced(text: str) -> tuple[list[str], list[str], tuple[np.ndarray, ...]] | None:
    """The vertices, arc ids and resolved sides and weights of a document
    laid out as ``{"vertices": [...], "arcs": [...]}``, or None.

    The vertices are decoded first. The arcs array is cut between arcs into
    parts (see ``_parts``); a forked child decodes each later part (see
    ``_send_part``) while this process decodes the first, and a part whose
    child failed is decoded here. Each part is decoded in slices (see
    ``_part``). Anything else than a valid slice, a resolved name and the
    two keys in this order with nothing after them gives None, also where a
    child meets it: the whole document is then decoded again, which alone
    raises errors.
    """
    try:
        vertices, pos = _DECODER.raw_decode(text, _key(text, _expect(text, 0, "{"), "vertices"))
        if type(vertices) is not list or not set(map(type, vertices)) <= {str}:
            raise _Surprise
        pos = _expect(text, _key(text, _expect(text, pos, ","), "arcs"), "[")
        index = _positions(vertices)
        parts = _parts(text, pos, _CUT)
        with _fork.Children(apart=True) as children:
            for k in range(1, len(parts)):
                if not children.fork(k, lambda write: _send_part(write, text, index, *parts[k])):
                    break  # no process to spare: the rest is decoded here
            ids, slices = _part(text, index, *parts[0])
            for k in range(1, len(parts)):
                received = _received(children.collect(k), _PART_DTYPES)
                part_ids, part_slices = (_part(text, index, *parts[k]) if received is None
                                         else (received[0], [received[1]]))
                ids += part_ids
                slices += part_slices
    except _DECLINED:
        return None
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
                raise _Surprise
        columns = _arc_columns(arcs)
        if columns is None:
            raise _Surprise
        del arcs
        slices.append((*_resolved(index, columns[1]), *_resolved(index, columns[2]),
                       _weight_column(columns[3])))
        ids += _fresh(columns[0]) if fresh else columns[0]
        del columns
        if cut is None:
            return ids, slices
        pos = cut.end()


def _send_part(write: int, text: str, index: dict[str, int], pos: int, end: int | None):
    """In a forked child: send the ids and the five joined columns of a
    part as ``_part`` decodes it (see ``_send``). The ids are not copied:
    marshalling copies them anyway."""
    def decoded():
        ids, slices = _part(text, index, pos, end, fresh=False)
        return ids, list(map(np.concatenate, zip(*slices)))
    _send(write, decoded)


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
