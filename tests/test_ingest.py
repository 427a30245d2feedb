import copy
import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperrank import (DirectedHypergraph, ReactionColumns, _fork, build_transition,
                       ensure_valid, ingest, load_canonical, parse_reactions_text,
                       prune_to_core, reactions_to_hypergraph, save_canonical)
from hyperrank import core
from hyperrank.errors import (BadWeightError, IngestError, ReactionSyntaxError,
                              SchemaError, TailHeadOverlapError, ValidationError)
from hyperrank.ingest import REVERSIBLE_POLICIES, _parse_reaction_line

import oracles
import randgen
from randgen import latin1_lines, random_hypergraph
from test_fork import forks_reaped


# ---------------------------------------------------------------- parsing

def _plain(parsed):
    """Parsed columns as lists, with the dtypes of the numeric ones, so two
    parses compare with ==."""
    return (parsed.ids, parsed.species,
            *((column.dtype.str, column.tolist())
              for column in (parsed.code, parsed.tail_len, parsed.head_len,
                             parsed.reversible, parsed.weight)))


def _names(parsed):
    """Every mention's species name, in file order."""
    return [parsed.species[c] for c in parsed.code.tolist()]


def test_parse_basic_irreversible():
    parsed = parse_reactions_text("R1: ATP + H2O -> ADP + Pi + H")
    assert parsed.ids == ["R1"]
    assert parsed.species == ["ATP", "H2O", "ADP", "Pi", "H"]
    assert parsed.code.tolist() == [0, 1, 2, 3, 4] and parsed.code.dtype == np.int64
    assert parsed.tail_len.tolist() == [2] and parsed.head_len.tolist() == [3]
    assert parsed.reversible.tolist() == [False]
    assert parsed.weight.tolist() == [1.0]


def test_parse_reversible_with_weight():
    parsed = parse_reactions_text("R2: A <-> B @ 2.0")
    assert parsed.reversible.tolist() == [True]
    assert parsed.weight.tolist() == [2.0]


def test_parse_preserves_token_order_and_duplicates():
    parsed = parse_reactions_text("R: b + a + a -> c")
    assert parsed.species == ["b", "a", "c"] and parsed.code.tolist() == [0, 1, 1, 2]
    assert parsed.tail_len.tolist() == [3]


def test_parsed_record_is_immutable():
    parsed = parse_reactions_text("R1: A -> B")
    for name in ReactionColumns._fields:
        with pytest.raises(AttributeError):
            setattr(parsed, name, getattr(parsed, name))


def test_parse_empty_side():
    parsed = parse_reactions_text("R3: A ->\nR4: -> A")
    assert parsed.tail_len.tolist() == [1, 0]
    assert parsed.head_len.tolist() == [0, 1]
    assert parsed.species == ["A"] and parsed.code.tolist() == [0, 0]


def test_parse_comments_and_blanks():
    for text in ("", "\n", "   # just a comment", " \t\n# a\n\n"):
        parsed = parse_reactions_text(text)
        assert _plain(parsed) == _plain(oracles.reaction_columns([])), repr(text)
    parsed = parse_reactions_text("R: A -> B  # bodies end at the comment")
    assert _names(parsed) == ["A", "B"] and parsed.head_len.tolist() == [1]


def test_parse_arrow_without_spaces():
    parsed = parse_reactions_text("R:A->B\nR:A<->B")
    assert parsed.species == ["A", "B"] and parsed.code.tolist() == [0, 1, 0, 1]
    assert parsed.reversible.tolist() == [False, True]


def test_parse_hyphenated_identifiers():
    parsed = parse_reactions_text("R: Coenzyme-A -> Acetyl-CoA\nR-2: A-->B")
    assert parsed.ids == ["R", "R-2"]
    assert _names(parsed) == ["Coenzyme-A", "Acetyl-CoA", "A-", "B"]


def test_parse_syntax_errors_carry_positions():
    with pytest.raises(ReactionSyntaxError) as exc:
        _parse_reaction_line("R1 A -> B", line_no=3)
    assert exc.value.line == 3
    assert exc.value.column is not None
    with pytest.raises(ReactionSyntaxError):
        _parse_reaction_line(": A -> B")
    with pytest.raises(ReactionSyntaxError):
        _parse_reaction_line("R: A -> B extra ->")
    with pytest.raises(ReactionSyntaxError):
        _parse_reaction_line("R: A + -> B")
    with pytest.raises(ReactionSyntaxError):
        _parse_reaction_line("R: A -> B !")


def test_parse_bad_weights():
    for text in ("R: A -> B @ zero", "R: A -> B @ -1", "R: A -> B @ 0",
                 "R: A -> B @", "R: A -> B @ inf", "R: A -> B @ nan"):
        with pytest.raises(BadWeightError):
            _parse_reaction_line(text)
        with pytest.raises(BadWeightError):
            parse_reactions_text(text)


def test_parse_reactions_text_reports_line():
    text = "R1: A -> B\nR2: B -> C\nR3 C -> D\n"
    with pytest.raises(ReactionSyntaxError) as exc:
        parse_reactions_text(text)
    assert exc.value.line == 3


def _outcome(call):
    """The call's result, or the error it raises as its type, text and position."""
    try:
        return call()
    except (IngestError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def _oracle_parse(text):
    return oracles.reaction_columns(oracles.parse_reactions_text(text))


def assert_text_parses_as_oracle(text):
    assert (_outcome(lambda: _plain(parse_reactions_text(text)))
            == _outcome(lambda: _plain(_oracle_parse(text)))), repr(text)


def assert_parses_as_oracle(line, line_no=None):
    """The error locator raises the oracle parser's error for the line, or
    passes where the oracle parses it; and the whole-text scan of the line
    agrees with the oracle's line-by-line parse."""
    expected = _outcome(lambda: oracles.parse_reaction_line(line, line_no=line_no))
    if isinstance(expected, oracles.ReactionRecord):
        expected = None
    assert _outcome(lambda: _parse_reaction_line(line, line_no=line_no)) == expected, repr(line)
    assert_text_parses_as_oracle(line)


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120))
def test_parser_totality_on_text(line):
    try:
        _parse_reaction_line(line)
    except IngestError as exc:
        assert exc.column is None or exc.column >= 1
    assert_parses_as_oracle(line)


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=120))
def test_parser_totality_on_bytes(payload):
    line = payload.decode("latin-1")
    try:
        _parse_reaction_line(line)
    except IngestError:
        pass
    assert_parses_as_oracle(line)


# ------------------------------------------- the grammar against the oracle

EDGE_LINES = [
    "A-->B", "R: A-->B", "-A -> B", "R: -A -> B", "R: A ->-B", "R:A<->B",
    "R: A <-->B", "R: A -<-> B", "R: A - > B", "R: A- -> B-", "R-: --x -> y--",
    "R: A -> B -> C", "R: A + -> B", "R: A -> B +", "R: + A -> B", "R A -> B",
    ": A -> B", "R: A B -> C", "R: A -> B C", "R: A -> B :", "R: A <- B",
    "R:", "R", "->", "R: ->", "R: <->", "R:->", "R: A -> B !", "R: A -> é",
    "R:\x1cA\x1d->\x1eB\x1f", "R:\x85A -> B\x85", "R: A\xa0->\xa0B",
    "R:\u3000A + B\u3000->C", "R: A ->\u2028B", "\x0bR: A -> B\x0c",
    "\u3000", " \t\x85 ", "R: A -> B @ 1_0", "R: A -> B @ inf", "R: A -> B @ nan",
    "R: A -> B @ 1e400", "R: A -> B @ 0", "R: A -> B @ -1", "R: A -> B @",
    "R: A -> B @ ", "R: A -> B @\u3000", "R: A -> B @\x852.5\x85",
    "R: A -> B @ \u0662", "R: A -> B @ 1e-400", "R: A -> B @ 1 @ 2",
    "R: A -> B @ 2 # note", "R: A -> B @ #2", "R: A -> B # @ 2", "R: A -> B #@",
    "# R: A -> B @ nan", "@ 1", "@", " @ 1 # c", "R: A -> B @ 3 junk",
    "R: A -> B @ .5", "R: A -> B @ +7", "R: A -> B @ 0x10", "R: A !-> B @ 0",
]


@pytest.mark.parametrize("line", EDGE_LINES)
def test_parse_edge_lines_as_the_oracle(line):
    assert_parses_as_oracle(line, line_no=7)


def test_parse_fuzz_corpus_as_the_oracle():
    # criterion 8's 2,000 lines: seed 1008, after its 1,000 round-trip draws
    rng = np.random.default_rng(1008)
    for _ in range(1000):
        random_hypergraph(rng, max_vertices=12, max_arcs=20)
    lines = latin1_lines(rng, 2000)
    for i, line in enumerate(lines, start=1):
        assert_parses_as_oracle(line, line_no=i)
    assert_text_parses_as_oracle("\n".join(lines))


# fragments that land near the grammar, so most drawn lines are almost reactions
FRAGMENTS = ["R1", "A", "b_2", "-", "--", "->", "<->", "<", ">", ":", "+", "@",
             "#", " ", "  ", "\t", "\x1c", "\x85", "\xa0", "\u3000", "\n",
             "1.5", "0", "-1", "1_0", "inf", "nan", "1e400", "x!", "é"]


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=14))
def test_parse_fragment_lines_as_the_oracle(fragments):
    assert_parses_as_oracle("".join(fragments), line_no=3)


# every line break of str.splitlines; "\r\n" is one
LINE_BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
               "\u2028", "\u2029"]


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=[f"U+{ord(b[-1]):04X}" for b in LINE_BREAKS])
def test_every_line_break_ends_a_line(brk):
    text = brk.join(["R1: A -> B", "", "R2: B -> A @ 2", "R3 A -> C", "R4: C -> A"])
    assert_text_parses_as_oracle(text.replace("R3 ", "R3: ") + brk)
    with pytest.raises(ReactionSyntaxError) as exc:
        parse_reactions_text(text)
    assert (exc.value.line, exc.value.column) == (4, 4)


def test_valid_text_never_enters_the_error_walk(monkeypatch):
    def locate(line, line_no):
        raise AssertionError(f"line {line_no} left the grammar: {line!r}")

    monkeypatch.setattr(ingest, "_parse_reaction_line", locate)
    text = ("# a header comment\r\n\r\n   \n"
            "R1: A + B -> C @ 2.5\n"
            "R2: C <-> A  # reversible\x0c"
            "R-3:Coenzyme-A+H2O->Acetyl-CoA@1e-3\u2028"
            "\tEX_glc: glc ->\x85"
            "EX_out: -> pyr @ 7 # weighted boundary\r"
            "R4 :\xa0a + a + b<->c\u3000@\u30001_0\n"
            "R5: x -> y @ 1e300 # @ in a comment\n")
    parsed = parse_reactions_text(text)
    assert len(parsed.ids) == 7
    assert _plain(parsed) == _plain(_oracle_parse(text))
    # a rejected text is read again from its first line
    with pytest.raises(AssertionError, match="line 1 left the grammar: 'R1: A -> B'"):
        parse_reactions_text("R1: A -> B\nR2 B -> C\n")


# ------------------------------------------------------------- conversion

def test_reactions_to_hypergraph_basic():
    parsed = parse_reactions_text("R1: ATP + H2O -> ADP + Pi + H\n")
    hg, report = reactions_to_hypergraph(parsed)
    assert hg.n_arcs == 1
    assert hg.n_vertices == 5
    assert report.arcs == 1 and report.vertices == 5


def test_split_policy_doubles_reversible():
    parsed = parse_reactions_text("R2: A <-> B\n")
    hg, report = reactions_to_hypergraph(parsed, "split")
    assert [(a.id, a.tail, a.head) for a in oracles.arc_rows(hg)] == [
        ("R2_fwd", (0,), (1,)), ("R2_rev", (1,), (0,))]
    assert report.split_arcs == 2

    hg, _ = reactions_to_hypergraph(parsed, "forward-only")
    assert hg.arc_ids == ("R2",)


def test_split_policy_count_property():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n_irr = int(rng.integers(0, 6))
        n_rev = int(rng.integers(0, 6))
        lines = [f"I{k}: a{k} -> b{k}" for k in range(n_irr)]
        lines += [f"V{k}: c{k} <-> d{k}" for k in range(n_rev)]
        parsed = parse_reactions_text("\n".join(lines))
        hg, _ = reactions_to_hypergraph(parsed, "split")
        assert hg.n_arcs == n_irr + 2 * n_rev


def test_overlap_rejected_with_record_id():
    parsed = parse_reactions_text("R4: A + B -> B + C\n")
    with pytest.raises(TailHeadOverlapError) as exc:
        reactions_to_hypergraph(parsed)
    assert exc.value.record_id == "R4"
    assert "B" in str(exc.value)


def test_first_overlapping_record_is_reported():
    text = ("EX: q ->\nR1: z + a -> b\nR2: b + y + c -> c + y\n"
            "R3: a -> a\nR4: x + x -> x\n")
    for policy in REVERSIBLE_POLICIES:
        with pytest.raises(TailHeadOverlapError) as exc:
            reactions_to_hypergraph(parse_reactions_text(text), policy)
        assert str(exc.value) == "reaction R2: species on both sides: c, y"
        assert_converts_as_oracle(text)


def test_duplicates_collapse_with_count():
    text = ("Z: a + a + a -> b\nR1: b -> c\nY: c -> d + d\n"
            "EX: d + d ->\nA: a + d + a -> b + b\n")
    hg, report = reactions_to_hypergraph(parse_reactions_text(text))
    assert report.collapsed == [("Z", 2), ("Y", 1), ("EX", 1), ("A", 2)]
    assert sum(n for _, n in report.collapsed) == report.collapsed_duplicates == 6
    assert hg.vertices == ("a", "b", "c", "d")
    assert [(a.id, a.tail, a.head) for a in oracles.arc_rows(hg)] == [
        ("Z", (0,), (1,)), ("R1", (1,), (2,)), ("Y", (2,), (3,)),
        ("A", (0, 3), (1,))]


def test_empty_side_dropped():
    parsed = parse_reactions_text("EX1: glc ->\nR: glc -> pyr\nEX2: -> pyr\n")
    hg, report = reactions_to_hypergraph(parsed)
    assert hg.arc_ids == ("R",)
    assert report.dropped == [("EX1", "empty head"), ("EX2", "empty tail")]


def test_vertices_in_first_mention_order_over_kept_records():
    # names only a dropped record mentions are no vertices; a kept record's
    # substrates come before its products
    text = "EX: q + r ->\nR1: b + a -> c + q\nR2: d <-> a\nEX2: -> s + d\n"
    for policy in REVERSIBLE_POLICIES:
        hg, _ = reactions_to_hypergraph(parse_reactions_text(text), policy)
        assert hg.vertices == ("b", "a", "c", "q", "d")
    assert_converts_as_oracle(text)


def test_unknown_reversible_policy():
    with pytest.raises(ValueError):
        reactions_to_hypergraph(parse_reactions_text(""), "both-ways")


@pytest.mark.parametrize("text", [
    "R1: A -> B\nX1: Q ->\nX2: -> P + P\nR2: B -> C\nX3: -> Q\n",
    "X1: -> D\nR1: A -> B\nR2: B + D -> A\nX2: E + E ->\nR3: E -> D\n",
    "R1: A + A -> B + B + B\nR2: C <-> A + C2 + C2\nX1: F + F ->\nR3: C2 + C2 <-> C2x\n",
    "R1: A -> B\nX1: Z ->\nR2: Z + b + C <-> C + Z\nR3: A -> A\n"],
    ids=["dropped-species-only-there", "dropped-first-then-kept", "collapsed", "overlap"])
def test_convert_edge_cases_as_the_oracle(text):
    assert_converts_as_oracle(text)


def test_an_overlapping_record_is_named_as_the_oracle_names_it():
    text = "R1: A -> B\nX1: Z ->\nR2: Z + b + C <-> C + Z\nR3: A -> A\n"
    for policy in REVERSIBLE_POLICIES:
        with pytest.raises(TailHeadOverlapError) as want:
            oracles.reactions_to_hypergraph(oracles.parse_reactions_text(text), policy)
        with pytest.raises(TailHeadOverlapError) as got:
            reactions_to_hypergraph(parse_reactions_text(text), policy)
        assert ((got.value.record_id, got.value.species)
                == (want.value.record_id, want.value.species) == ("R2", ("C", "Z")))


def assert_converts_as_oracle(text):
    """Both policies give the oracle's hypergraph and report, or its error."""
    for policy in REVERSIBLE_POLICIES:
        assert (_outcome(lambda: reactions_to_hypergraph(parse_reactions_text(text), policy))
                == _outcome(lambda: oracles.reactions_to_hypergraph(
                    oracles.parse_reactions_text(text), policy))), (policy, text)


_species = st.sampled_from(["A", "B", "c", "glc__D", "x-1", "h2o", "NAD_p", "9", "-q-"])
# whitespace that may surround a token; float() does not strip U+001F
_blank = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003", "\u3000", "\x1f"])
_break = st.sampled_from(LINE_BREAKS)


@st.composite
def reaction_lines(draw):
    """A reaction line as the grammar takes it: any whitespace around the
    tokens, repeated and shared species, empty sides, both arrows, weights
    and comments; or a blank or comment-only line."""
    kind = draw(st.sampled_from(["reaction"] * 6 + ["blank", "comment"]))
    if kind == "blank":
        return draw(_blank)
    if kind == "comment":
        return draw(_blank) + "# " + draw(st.sampled_from(["note", "R: A -> B @ 0", "@"]))

    def side():
        names = draw(st.lists(_species, max_size=4))
        sep = draw(_blank) + "+" + draw(_blank)
        return sep.join(names)

    line = (draw(_blank) + draw(st.sampled_from(["R1", "R2", "r-3", "EX_a", "R1_fwd"]))
            + draw(_blank) + ":" + draw(_blank) + side() + draw(_blank)
            + draw(st.sampled_from(["->", "<->"])) + draw(_blank) + side() + draw(_blank))
    if draw(st.booleans()):
        line += "@" + draw(_blank) + draw(st.sampled_from(
            ["2", "0.5", "1e-3", "1_0", "7.25", "3e300"])) + draw(_blank)
    if draw(st.booleans()):
        line += "# " + draw(st.sampled_from(["a comment", "@ 0", "x # y"]))
    return line


@st.composite
def reaction_texts(draw):
    """Lines between drawn line breaks, a break after the last one or not."""
    lines = draw(st.lists(reaction_lines(), max_size=10))
    text = "".join(line + draw(_break) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, deadline=None)
@given(reaction_texts())
def test_convert_matches_the_oracle_on_generated_texts(text):
    assert_text_parses_as_oracle(text)
    assert_converts_as_oracle(text)


@st.composite
def mutated_texts(draw):
    """A generated text with one to three lines spliced with grammar
    fragments, or with a species put on both sides of a line."""
    lines = draw(reaction_texts()).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        line = lines[k]
        if draw(st.booleans()) and "->" in line:
            a = draw(_species)
            lines[k] = line.replace("->", f" + {a} -> {a} + ", 1)
        else:
            at = draw(st.integers(0, len(line)))
            lines[k] = line[:at] + draw(st.sampled_from(FRAGMENTS)) + line[at:]
    return "".join(line + draw(_break) for line in lines)


@settings(max_examples=600, deadline=None)
@given(mutated_texts())
def test_convert_matches_the_oracle_on_mutated_texts(text):
    assert_text_parses_as_oracle(text)
    assert_converts_as_oracle(text)


# ---------------------------------------------------------- canonical JSON

def test_round_trip_hg3(hg3):
    assert load_canonical(save_canonical(hg3)) == hg3


def test_round_trip_randomized():
    rng = np.random.default_rng(29)
    for _ in range(50):
        hg = random_hypergraph(rng, max_vertices=10, max_arcs=15)
        assert load_canonical(save_canonical(hg)) == hg


@st.composite
def hypergraphs(draw):
    n = draw(st.integers(2, 6))
    names = draw(st.lists(st.text(st.characters(blacklist_categories=("Cs",)),
                                  min_size=1, max_size=6),
                          min_size=n, max_size=n, unique=True))
    m = draw(st.integers(1, 8))
    arcs = []
    for j in range(m):
        perm = draw(st.permutations(range(n)))
        ts = draw(st.integers(1, max(1, min(3, n - 1))))
        hs = draw(st.integers(1, max(1, min(3, n - ts))))
        weight = draw(st.floats(min_value=1e-6, max_value=10.0,
                                allow_nan=False, allow_infinity=False))
        arcs.append((f"arc{j}", perm[:ts], perm[ts:ts + hs], weight))
    return oracles.hypergraph(names, arcs)


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_round_trip_property(hg):
    assert load_canonical(save_canonical(hg)) == hg


@settings(max_examples=150, deadline=None)
@given(hypergraphs())
def test_save_matches_the_json_encoder(hg):
    # names range over all of Unicode, so quotes, backslashes, control
    # characters and non-ASCII text all need escaping
    assert save_canonical(hg) == oracles.save_canonical(hg)


def test_save_matches_the_json_encoder_on_edge_cases():
    escaped = oracles.hypergraph(("a\"b", "c\\d", "\u00e9\U0001f600", "\x00\n"),
                                 [("\u2192", [0, 2], [1, 3], 1e-300), ("x", [1], [0], 12345678.9)])
    for hg in (oracles.hypergraph((), []), oracles.hypergraph(("only",), []), escaped):
        assert save_canonical(hg) == oracles.save_canonical(hg)


@settings(max_examples=100, deadline=None)
@given(st.one_of(randgen.hypergraphs(), hypergraphs()), st.sampled_from([1, 2, 3]))
def test_blocks_join_to_the_json_encoders_text(hg, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_BLOCK_ARCS", block)
        blocks = list(ingest.canonical_blocks(hg))
    assert "".join(blocks) == oracles.save_canonical(hg)
    # the vertex list, then one block per started run of `block` arcs
    assert len(blocks) == 1 + -(-hg.n_arcs // block)


def test_blocks_on_edge_cases(monkeypatch):
    six = oracles.hypergraph(("a", "b", "c"), [(f"e{j}", [j % 3], [(j + 1) % 3, (j + 2) % 3],
                                                 1.0 + j) for j in range(6)])
    for block in (1, 2, 3, 6, 7):  # 2, 3 and 6 end a block exactly at the last arc
        monkeypatch.setattr(ingest, "_BLOCK_ARCS", block)
        blocks = list(ingest.canonical_blocks(six))
        assert "".join(blocks) == oracles.save_canonical(six)
        assert len(blocks) == 1 + -(-6 // block)
    for hg in (oracles.hypergraph((), []), oracles.hypergraph(("only",), [])):
        assert list(ingest.canonical_blocks(hg)) == [oracles.save_canonical(hg)]


def test_blocks_validate_before_they_are_drawn():
    invalid = oracles.hypergraph(("a", "a"), [("e", [0], [1], 1.0)])
    with pytest.raises(ValidationError):
        ingest.canonical_blocks(invalid)  # raises on the call, not at the first block


def test_json_pipeline_builds_no_arc_records():
    rng = np.random.default_rng(31)
    text = save_canonical(random_hypergraph(rng, max_vertices=40, max_arcs=80))
    hg = load_canonical(text)
    core, _ = prune_to_core(hg)
    build_transition(core)
    assert save_canonical(core)
    assert load_canonical(save_canonical(hg)) == hg
    converted, _ = reactions_to_hypergraph(
        parse_reactions_text("R1: A + B -> C\nR2: C <-> A\n"))
    assert converted.vertices == ("A", "B", "C")
    assert converted.arc_ids == ("R1", "R2_fwd", "R2_rev")
    assert converted.layout.tail_idx.tolist() == [0, 1, 2, 0]
    assert converted.layout.head_idx.tolist() == [2, 0, 2]


def test_load_rejects_unknown_vertex():
    doc = {"vertices": ["a"],
           "arcs": [{"id": "e", "tail": ["a"], "head": ["zz"], "weight": 1}]}
    with pytest.raises(ValidationError) as exc:
        load_canonical(json.dumps(doc))
    assert exc.value.report.codes() == {"UnknownVertex"}


def test_load_rejects_nonpositive_weight():
    doc = {"vertices": ["a", "b"],
           "arcs": [{"id": "e", "tail": ["a"], "head": ["b"], "weight": -1}]}
    with pytest.raises(ValidationError) as exc:
        load_canonical(json.dumps(doc))
    assert exc.value.report.codes() == {"NonpositiveWeight"}


def test_load_reports_every_violation():
    doc = {"vertices": ["a", "b", "b"],
           "arcs": [{"id": "e1", "tail": ["a"], "head": ["a"], "weight": 1},
                    {"id": "e2", "tail": [], "head": ["b"], "weight": 0},
                    {"id": "e1", "tail": ["a"], "head": ["b"], "weight": 1}]}
    with pytest.raises(ValidationError) as exc:
        load_canonical(json.dumps(doc))
    assert exc.value.report.codes() == {"DuplicateVertexId", "TailHeadOverlap",
                                        "EmptyTail", "NonpositiveWeight",
                                        "DuplicateArcId"}


def test_repeated_vertex_id_names_its_first_position():
    # a name stands for its first position in "vertices", so the overlap
    # names "c", not the vertex one slot before it
    text = ('{"vertices": ["a", "b", "b", "c"], "arcs": [{"id": "e", "tail": ["c"],'
            ' "head": ["c"], "weight": 1}]}')
    for load in (load_canonical, oracles.load_canonical):
        with pytest.raises(ValidationError) as exc:
            load(text)
        assert str(exc.value) == ("DuplicateVertexId: b: vertex id occurs more than once\n"
                                  "TailHeadOverlap: e: tail and head share: c")
    # by its last position "a" would sort after "b"
    text = ('{"vertices": ["a", "b", "a"], "arcs": [{"id": "e", "tail": ["a", "b"],'
            ' "head": ["b", "a"], "weight": 1}]}')
    for load in (load_canonical, oracles.load_canonical):
        with pytest.raises(ValidationError) as exc:
            load(text)
        assert str(exc.value) == ("DuplicateVertexId: a: vertex id occurs more than once\n"
                                  "TailHeadOverlap: e: tail and head share: a, b")


def test_load_reports_unknown_vertices_with_every_other_violation():
    doc = {"vertices": ["a", "b"],
           "arcs": [{"id": "e1", "tail": ["a"], "head": ["zz"], "weight": 1},
                    {"id": "e2", "tail": ["a"], "head": ["a"], "weight": 1}]}
    with pytest.raises(ValidationError) as exc:
        load_canonical(json.dumps(doc))
    assert [(v.code, v.subject) for v in exc.value.report.violations] == [
        ("TailHeadOverlap", "e2"), ("UnknownVertex", "e1")]


def test_load_treats_an_integer_beyond_float_range_as_nonpositive_weight():
    text = ('{"vertices": ["a", "b"], "arcs": [{"id": "e", "tail": ["a"], '
            '"head": ["b"], "weight": 1' + "0" * 400 + "}]}")
    with pytest.raises(ValidationError) as exc:
        load_canonical(text)
    assert exc.value.report.codes() == {"NonpositiveWeight"}
    assert str(exc.value) == "NonpositiveWeight: e: weight inf is not a positive real"


SCHEMA_CASES = [
    ("[]", "top level must be an object"),
    ('{"vertices": ["a"]}', "missing key 'arcs'"),
    ('{"vertices": ["a"], "arcs": [], "extra": 1}', "unknown key 'extra'"),
    ('{"vertices": "a", "arcs": []}', '"vertices" must be an array of strings'),
    ('{"vertices": ["a", 2], "arcs": []}', '"vertices" must be an array of strings'),
    ('{"vertices": ["a"], "arcs": {"e": 1}}', '"arcs" must be an array'),
    ('{"vertices": ["a"], "arcs": [["e", ["a"], ["a"], 1]]}', "arcs[0] must be an object"),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": ["a"], "head": ["a"]}]}',
     "arcs[0]: missing key 'weight'"),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": ["a"], "head": ["a"],'
     ' "weight": 1, "color": "red"}]}', "arcs[0]: unknown key 'color'"),
    ('{"vertices": ["a"], "arcs": [{"id": 3, "tail": ["a"], "head": ["a"],'
     ' "weight": 1}]}', 'arcs[0]: "id" must be a string'),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": ["a"], "head": ["a"],'
     ' "weight": true}]}', 'arcs[0]: "weight" must be a number'),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": [1], "head": ["a"],'
     ' "weight": 1}]}', 'arcs[0]."tail" must be an array of strings'),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": "a", "head": ["a"],'
     ' "weight": 1}]}', 'arcs[0]."tail" must be an array of strings'),
    # an unknown name is no schema error: the schema error of a later arc wins
    ('{"vertices": ["a", "b"], "arcs": [{"id": "e", "tail": ["a"], "head": ["zz"],'
     ' "weight": 1}, {"id": "f", "tail": ["a"], "head": ["b"], "weight": "1"}]}',
     'arcs[1]: "weight" must be a number'),
    ("{not json", "invalid JSON: Expecting property name enclosed in double quotes"
                  " (line 1, column 2)"),
    # names that do not resolve: unhashable, null and true
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": [["a"]], "head": ["a"],'
     ' "weight": 1}]}', 'arcs[0]."tail" must be an array of strings'),
    ('{"vertices": ["a", "b"], "arcs": [{"id": "e", "tail": ["a"], "head": ["b", {"a": 1}],'
     ' "weight": 1}]}', 'arcs[0]."head" must be an array of strings'),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": [null], "head": ["a"],'
     ' "weight": 1}]}', 'arcs[0]."tail" must be an array of strings'),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": ["a"], "head": [true],'
     ' "weight": 1}]}', 'arcs[0]."head" must be an array of strings'),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": [null], "head": [1],'
     ' "weight": 1}]}', 'arcs[0]."tail" must be an array of strings'),
    # a name that is no string in a later arc outranks an earlier unknown name
    ('{"vertices": ["a", "b"], "arcs": [{"id": "e", "tail": ["zz"], "head": ["b"],'
     ' "weight": 1}, {"id": "f", "tail": ["a", 1], "head": ["b"], "weight": 1}]}',
     'arcs[1]."tail" must be an array of strings'),
    ('{"vertices": ["a", "b"], "arcs": [{"id": "e", "tail": ["a"], "head": [null],'
     ' "weight": 1}, {"id": "f", "tail": [false], "head": ["b"], "weight": 1}]}',
     'arcs[0]."head" must be an array of strings'),
]


def test_load_schema_errors():
    for text, message in SCHEMA_CASES:
        with pytest.raises(SchemaError) as exc:
            load_canonical(text)
        assert str(exc.value) == message, text


def _load_outcome(load, text):
    """The loader's hypergraph, or its error's type, text and violations."""
    try:
        return load(text)
    except ValidationError as exc:
        return ValidationError, str(exc), exc.report.violations
    except SchemaError as exc:
        return SchemaError, str(exc)


def assert_loads_as_oracle(text):
    assert (_load_outcome(load_canonical, text)
            == _load_outcome(oracles.load_canonical, text)), text


_any_hypergraphs = st.one_of(randgen.hypergraphs(), hypergraphs())


@st.composite
def relaid_docs(draw):
    """The document of a generated hypergraph laid out as save_canonical
    never writes it: keys in any order, integer weights, a vertex name
    listed twice, a name repeated on one side."""
    hg = draw(_any_hypergraphs)

    def shuffled(fields):
        return dict(draw(st.permutations(list(fields.items()))))

    names = hg.vertices
    vertices = list(names)
    for name in draw(st.lists(st.sampled_from(names), max_size=2)):
        vertices.insert(draw(st.integers(0, len(vertices))), name)
    arcs = []
    for arc in oracles.arc_rows(hg):
        tail = [names[i] for i in arc.tail]
        head = [names[i] for i in arc.head]
        if draw(st.booleans()):
            tail.append(draw(st.sampled_from(tail)))
        weight = draw(st.one_of(st.just(arc.weight), st.integers(1, 2**64)))
        arcs.append(shuffled({"id": arc.id, "tail": tail, "head": head, "weight": weight}))
    return shuffled({"vertices": vertices, "arcs": arcs})


WRONG_TYPES = [3, 1.5, True, None, "a", [], ["a"], [1], {}, {"a": 1}]
# A fresh copy on every draw: a later fault may insert into a list or add a
# key to a dict it placed, and that must not leak into the next example.
_wrong_values = st.sampled_from(WRONG_TYPES).map(copy.deepcopy)


@st.composite
def mutated_docs(draw):
    """A generated document with one to three faults: a key dropped or added,
    a field of another type, an arc that is no object, an unknown name, a
    name of any JSON type, a name on both sides, an integer weight beyond the float range or a true
    weight."""
    doc = draw(st.one_of(relaid_docs(),
                         _any_hypergraphs.map(save_canonical).map(json.loads)))
    for _ in range(draw(st.integers(1, 3))):
        arcs = doc.get("arcs")
        arc = {}
        if isinstance(arcs, list) and arcs:
            j = draw(st.integers(0, len(arcs) - 1))
            arc = arcs[j] if isinstance(arcs[j], dict) else {}
        fault = draw(st.sampled_from(["drop", "add", "retype", "no object",
                                      "unknown name", "odd name", "overlap",
                                      "huge weight", "true weight"]))
        target = arc
        if fault in ("drop", "add", "retype"):
            target = draw(st.sampled_from([doc, arc]))
        if fault == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif fault == "add":
            target[draw(st.sampled_from(["color", "id", "weight"]))] = "red"
        elif fault == "retype" and target:
            key = draw(st.sampled_from(sorted(target)))
            target[key] = draw(_wrong_values)
        elif fault == "no object" and arc:
            arcs[j] = draw(_wrong_values)
        elif fault == "unknown name":
            side = arc.get(draw(st.sampled_from(["tail", "head"])))
            if isinstance(side, list):
                name = draw(st.sampled_from(["zz", "@"]))
                side.insert(draw(st.integers(0, len(side))), name)
        elif fault == "odd name":
            side = arc.get(draw(st.sampled_from(["tail", "head"])))
            if isinstance(side, list):
                side.insert(draw(st.integers(0, len(side))), draw(_wrong_values))
        elif (fault == "overlap" and isinstance(arc.get("tail"), list) and arc["tail"]
                and isinstance(arc.get("head"), list)):
            arc["head"].append(draw(st.sampled_from(arc["tail"])))
        elif fault == "huge weight" and arc:
            arc["weight"] = draw(st.sampled_from([10**400, -10**400]))
        elif fault == "true weight" and arc:
            arc["weight"] = True
    return doc


@settings(max_examples=400, deadline=None)
@given(st.one_of(_any_hypergraphs.map(save_canonical), relaid_docs().map(json.dumps)))
def test_load_matches_the_oracle_on_generated_documents(text):
    assert_loads_as_oracle(text)


@settings(max_examples=600, deadline=None)
@given(mutated_docs())
def test_load_matches_the_oracle_on_mutated_documents(doc):
    assert_loads_as_oracle(json.dumps(doc))


def test_load_matches_the_oracle_on_the_fixed_cases():
    for text, _ in SCHEMA_CASES:
        for cpus in (1, 3):
            with _split_into(cpus):
                assert_loads_as_oracle(text)
    assert_loads_as_oracle(
        '{"vertices": ["a", "b", "a", "c"], "arcs": ['
        '{"id": "e", "tail": ["yy", "c"], "head": ["c", "zz"], "weight": 2},'
        '{"id": "f", "tail": ["c", "c"], "head": ["b"], "weight": -1},'
        '{"id": "g", "tail": ["c", "a"], "head": ["b", "c"], "weight": 1e999}]}')


@contextmanager
def _slices_of(chars):
    """Cut the arcs array at the first '}, {' ``chars`` characters or more
    past each slice's start while the block runs."""
    saved, ingest._SLICE_CHARS = ingest._SLICE_CHARS, chars
    try:
        yield
    finally:
        ingest._SLICE_CHARS = saved


# reaction text in slices of a line each, of a few lines, of a line or two,
# and of the default size
_SLICES = [1, 7, 64, ingest._SLICE_CHARS]


@contextmanager
def _split_into(cpus, part_chars=1, fork=os.fork):
    """While the block runs, cut the arcs array or the reaction text into
    parts of ``part_chars`` characters or more, one per each of ``cpus``
    CPUs, and fork with ``fork``; yields the pids of the children forked,
    as the parent sees them, with the checks of ``forks_reaped``."""
    saved = ingest._PART_CHARS, _fork._cpu_count
    ingest._PART_CHARS, _fork._cpu_count = part_chars, lambda: cpus
    try:
        with forks_reaped(fork) as pids:
            yield pids
    finally:
        ingest._PART_CHARS, _fork._cpu_count = saved


# json.dumps layouts: the default, indented, and whitespace around every ','
# and ':', so that the cuts meet '}\n ,\t{'
_LAYOUTS = [{}, {"indent": 2}, {"separators": ("\n ,\t", " :\r\n")},
            {"separators": (",", ":")}]


@settings(max_examples=400, deadline=None)
@given(st.one_of(mutated_docs(), relaid_docs(),
                 _any_hypergraphs.map(save_canonical).map(json.loads)),
       st.sampled_from(_LAYOUTS), st.sampled_from([1, 40, 1 << 17]), st.integers(1, 4))
def test_sliced_load_matches_the_whole_document_oracle(doc, layout, chars, cpus):
    with _slices_of(chars), _split_into(cpus):
        assert_loads_as_oracle(json.dumps(doc, **layout))


def test_documents_in_key_order_are_decoded_in_slices(monkeypatch):
    decoded = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s: decoded.append(s) or loads(s))
    rng = np.random.default_rng(47)
    for _ in range(10):
        hg = random_hypergraph(rng, max_vertices=12, max_arcs=20)
        for layout in _LAYOUTS:
            text = json.dumps(json.loads(save_canonical(hg)), **layout)
            for chars in (1, 40, 1 << 17):
                with _slices_of(chars):
                    assert ingest._sliced(text) is not None
                    decoded.clear()
                    assert load_canonical(text) == hg
                # one slice per arc but the last, which is decoded in place
                if chars == 1:
                    assert len(decoded) == max(hg.n_arcs - 1, 0)


_ARC = '{"id": "%s", "tail": ["a"], "head": ["b"], "weight": %s}'
# (text, whether the sliced decode takes it when every arc is its own slice)
SLICE_CASES = [
    # names that hold '}, {', '"arcs"' and escaped quotes: a cut inside one
    # leaves a string unterminated, so the whole document is decoded
    (json.dumps({"vertices": ["}, {", "arcs", 'q"}, {"', "a"], "arcs": [
        {"id": "e}, {1", "tail": ["}, {"], "head": ["arcs"], "weight": 1},
        {"id": 'x\\"}, {"y', "tail": ['q"}, {"'], "head": ["a", "}, {"], "weight": 2},
        {"id": "f", "tail": ["a"], "head": ['q"}, {"'], "weight": 0.5}]}), False),
    ('{"vertices": ["a", "b"], "arcs": [%s, %s, %s]}'
     % (_ARC % ("e}, {", 1), _ARC % ("f", 2), _ARC % ("g", 3)), False),
    (json.dumps({"vertices": ["arcs", "vertices"], "arcs": [
        {"id": "arcs", "tail": ["arcs"], "head": ["vertices"], "weight": 1},
        {"id": "vertices", "tail": ["vertices"], "head": ["arcs"], "weight": 1}]}), True),
    ('{"vert\\u0069ces": ["a", "b"], "\\u0061rcs": [%s, %s]}'
     % (_ARC % ("e", 1), _ARC % ("f", 2)), True),
    # other keys, the other key order, and repeated keys
    ('{"vertices": ["a", "b"], "arcz": [%s]}' % (_ARC % ("e", 1)), False),
    ('{"vertex": ["a", "b"], "arcs": [%s]}' % (_ARC % ("e", 1)), False),
    ('{"arcs": [%s], "vertices": ["a", "b"]}' % (_ARC % ("e", 1)), False),
    ('{"vertices": ["a", "b"], "arcs": [], "arcs": [%s]}' % (_ARC % ("e", 1)), False),
    ('{"vertices": ["a"], "vertices": ["a", "b"], "arcs": [%s]}' % (_ARC % ("e", 1)), False),
    ('{"vertices": ["a", "b"], "arcs": [%s], "vertices": ["b", "a"]}' % (_ARC % ("e", 1)),
     False),
    # whitespace around the cuts and everywhere else
    (' \n{ "vertices" :["a", "b"]\r,"arcs":\t[ %s}\n ,\t{%s ] }\n\n'
     % ((_ARC % ("e", 1))[:-1], (_ARC % ("f", 2))[1:]), True),
    # empty arcs, and weights that are no positive real
    ('{"vertices": [], "arcs": []}', True),
    ('{"vertices": ["a"], "arcs": [ \n ]}', True),
    ('{"vertices": ["a", "b"], "arcs": [%s, %s, %s]}'
     % (_ARC % ("e", "NaN"), _ARC % ("f", "-Infinity"), _ARC % ("g", "Infinity")), True),
    ('{"vertices": ["a", "b"], "arcs": [%s]}' % (_ARC % ("e", "-1" + "0" * 400)), True),
    # trailing data, and arrays that do not end
    ('{"vertices": [], "arcs": []} x', False),
    ('{"vertices": [], "arcs": []}}', False),
    ('{"vertices": [], "arcs": []]}', False),
    ('{"vertices": ["a", "b"], "arcs": [%s, %s' % (_ARC % ("e", 1), _ARC % ("f", 1)), False),
    ('{"vertices": ["a", "b"], "arcs": [%s, {"id": "f"' % (_ARC % ("e", 1)), False),
    ('\ufeff{"vertices": [], "arcs": []}', False),
    # errors in a later slice: a schema error, an unknown name, a name that is
    # no string, and objects nested in an arc, which a cut leaves unclosed
    ('{"vertices": ["a", "b"], "arcs": [%s, %s, {"id": 3, "tail": [], "head": [],'
     ' "weight": 1}]}' % (_ARC % ("e", 1), _ARC % ("f", 1)), False),
    ('{"vertices": ["a", "b"], "arcs": [%s, %s]}'
     % (_ARC % ("e", 1), _ARC.replace('"b"', '"zz"') % ("f", 1)), False),
    ('{"vertices": ["a", "b"], "arcs": [%s, %s]}'
     % (_ARC % ("e", 1), _ARC.replace('"b"', "null") % ("f", 1)), False),
    ('{"vertices": ["a", "b"], "arcs": [%s, {"id": "f", "tail": [{"a": 1}, {"b": 2}],'
     ' "head": ["b"], "weight": 1}]}' % (_ARC % ("e", 1)), False),
    # nesting too deep for the decoder, in the vertices and in an arc
    ('{"vertices": ' + "[" * 100_000 + "]" * 100_000 + ', "arcs": []}', False),
    ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": ' + "[" * 100_000, False),
]


@pytest.mark.parametrize("text, sliced", SLICE_CASES, ids=range(len(SLICE_CASES)))
def test_sliced_load_matches_the_oracle_on_the_fixed_cases(text, sliced):
    for chars in (1, 1 << 17):
        for cpus in (1, 3):
            with _slices_of(chars), _split_into(cpus):
                assert_loads_as_oracle(text)
    for cpus in (1, 3):
        with _slices_of(1), _split_into(cpus):
            assert (ingest._sliced(text) is not None) is sliced


# ------------------------------------------------- the arcs split over processes

def test_documents_in_key_order_are_split_over_processes():
    rng = np.random.default_rng(53)
    forked = 0
    for _ in range(10):
        hg = random_hypergraph(rng, max_vertices=12, max_arcs=20)
        for layout in _LAYOUTS:
            text = json.dumps(json.loads(save_canonical(hg)), **layout)
            with _slices_of(40), _split_into(3) as forks:
                assert ingest._sliced(text) is not None
                assert load_canonical(text) == hg
            assert len(forks) <= 2 * min(2, hg.n_arcs - 1)
            forked += len(forks)
    assert forked > 0
    # an arc longer than a share of the text: every part still holds arcs
    hg = DirectedHypergraph.from_named_arcs(
        [("x" * 5000, ["a"], ["b"], 1.0)] + [(f"e{k}", ["b"], ["a"], 1.0) for k in range(20)])
    text = save_canonical(hg)
    with _split_into(4) as forks:
        parts = ingest._parts(text, text.index('"arcs": [') + 9, ingest._CUT)
        assert load_canonical(text) == hg
    assert len(forks) == len(parts) - 1 == 3
    assert all(first < end for first, end in parts[:-1])


def _later_part(last):
    """2000 arcs whose last one is ``last``, the text of an arc's fields."""
    arcs = [_ARC % (f"e{k}", 1) for k in range(1999)] + ["{" + last + "}"]
    return '{"vertices": ["a", "b"], "arcs": [%s]}' % ", ".join(arcs)


# documents whose one error lies in the last part of the arcs array
_LATER_PART_ERRORS = [
    _later_part('"id": "z", "tail": ["a"], "head": ["zz"], "weight": 1'),
    _later_part('"id": "z", "tail": ["a", 1], "head": ["b"], "weight": 1'),
    _later_part('"id": "z", "tail": ["a"], "head": ["b"], "weight": "1"'),
    _later_part('"id": "z')[:-4],
    _later_part('"id": "z", "tail": ["a"], "head": ["b"], "weight": 1') + " x",
    _later_part('"id": "z", "tail": ["a"], "head": ' + "[" * 5_000 + "]" * 5_000
                + ', "weight": 1'),
]


@pytest.mark.parametrize("text", _LATER_PART_ERRORS,
                         ids=["unknown-name", "name-no-string", "weight-type",
                              "unterminated-string", "trailing-text", "deep-nesting"])
def test_an_error_in_a_later_part_is_reported_as_in_one_process(text):
    for cpus in (1, 2, 4):
        with _split_into(cpus) as forks:
            assert_loads_as_oracle(text)
            assert ingest._sliced(text) is None
        assert len(forks) == 2 * (cpus - 1)


def test_ids_with_a_nul_or_a_lone_surrogate_cross_the_pipe(monkeypatch):
    parent, part, here = os.getpid(), ingest._part, []

    def counted(*args, **kwargs):
        if os.getpid() == parent:
            here.append(args[2])
        return part(*args, **kwargs)
    monkeypatch.setattr(ingest, "_part", counted)
    arcs = [(f"e{k}", ["a"], ["b"], 1.0) for k in range(30)]
    arcs += [("n\x00ul", ["b"], ["a"], 2.0), ("\x00", ["a"], ["b"], 1.0),
             ("\ud800", ["b"], ["a"], 1.0), ("x\udfff\U0001f600", ["a"], ["b"], 1.0)]
    hg = DirectedHypergraph.from_named_arcs(arcs)
    text = save_canonical(hg)
    for cpus in (1, 3):
        here.clear()
        with _split_into(cpus) as forks:
            assert ingest._sliced(text)[1] == [a[0] for a in arcs]
        assert len(forks) == cpus - 1
        assert len(here) == 1  # every later part came through a pipe
        with _split_into(cpus):
            assert_loads_as_oracle(text)


def _arcs_text(arcs):
    return save_canonical(DirectedHypergraph.from_named_arcs(
        [(f"e{k}", [f"v{k % 97}"], [f"v{(k + 1) % 97}"], 1.0) for k in range(arcs)]))


def test_a_failed_fork_leaves_the_load_in_one_process():
    def failing():
        raise OSError("no process to spare")
    text = _arcs_text(200)
    with _split_into(4, fork=failing) as forks:
        assert load_canonical(text) == oracles.load_canonical(text)
    assert forks == []


def test_a_failed_child_is_decoded_again_here(monkeypatch):
    monkeypatch.setattr(_fork, "_send", lambda *args: os._exit(1))
    text = _arcs_text(200)
    with _split_into(3) as forks:
        assert load_canonical(text) == oracles.load_canonical(text)
    assert len(forks) == 2


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_the_load_reaps_its_children_when_it_raises(monkeypatch, error):
    parent, part = os.getpid(), ingest._part

    def failing(*args):
        if os.getpid() == parent:
            raise error("part failed")
        return part(*args)
    monkeypatch.setattr(ingest, "_part", failing)
    with _split_into(4) as forks:
        with pytest.raises(error, match="part failed"):
            load_canonical(_arcs_text(200))
    assert len(forks) == 3


def test_a_second_thread_keeps_the_load_in_one_process():
    text = _arcs_text(200)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with _split_into(4) as forks:
            assert load_canonical(text) == oracles.load_canonical(text)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_only_documents_of_several_slices_a_part_are_split():
    # a 141 KB document, the size of a 1500-arc ring, stays in one process;
    # one of 2.6 MB is split in two on two CPUs, in four parts on four
    for arcs, cpus, parts in ((1075, 4, 1), (20000, 2, 2), (20000, 4, 4)):
        text = _arcs_text(arcs)
        with _split_into(cpus, part_chars=ingest._PART_CHARS) as forks:
            assert load_canonical(text).n_arcs == arcs
        assert len(forks) == parts - 1, (len(text), parts)


# ------------------------------------------- the reaction text split over processes

@settings(max_examples=300, deadline=None)
@given(st.one_of(reaction_texts(), mutated_texts()), st.integers(1, 4))
def test_split_parse_matches_the_oracle(text, cpus):
    with _split_into(cpus):
        assert_text_parses_as_oracle(text)
        assert_converts_as_oracle(text)


def _reactions(lines, last=""):
    """``lines`` reactions over 97 species, then the line ``last``."""
    return "".join(f"R{k}: a{k % 97} + b{k % 89} -> c{k % 83} @ 2\n"
                   for k in range(lines)) + last


@pytest.mark.parametrize("last", [
    "R: A -> B extra ->", "R A -> B", "R: A -> B @ 0", "R: A -> B @ zero", "R: A -> B !",
    "R: A -> B @ inf\n", "R: A -> B\r\nS: A + -> B", "R: A -> B\n\x85R: ->- B"],
    ids=["trailing", "no-colon", "zero-weight", "weight-text", "character", "inf-weight",
         "after-a-crlf", "after-a-nel"])
def test_an_error_in_a_later_part_of_the_text_is_reported_as_in_one_process(last):
    text = _reactions(300, last)
    expected = _outcome(lambda: _plain(_oracle_parse(text)))
    assert expected[0] in (ReactionSyntaxError, BadWeightError) and expected[2] > 300
    for chars in _SLICES:
        for cpus in (1, 2, 4):
            with _slices_of(chars), _split_into(cpus) as forks:
                assert _outcome(lambda: _plain(parse_reactions_text(text))) == expected
            assert len(forks) == cpus - 1


def test_a_failed_fork_leaves_the_parse_in_one_process():
    def failing():
        raise OSError("no process to spare")
    text = _reactions(200)
    with _split_into(4, fork=failing) as forks:
        assert _plain(parse_reactions_text(text)) == _plain(_oracle_parse(text))
    assert forks == []


def test_a_failed_child_is_scanned_again_here(monkeypatch):
    monkeypatch.setattr(_fork, "_send", lambda *args: os._exit(1))
    text = _reactions(200)
    with _split_into(3) as forks:
        assert _plain(parse_reactions_text(text)) == _plain(_oracle_parse(text))
    assert len(forks) == 2


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_the_parse_reaps_its_children_when_it_raises(monkeypatch, error):
    parent, scan = os.getpid(), ingest._scan

    def failing(*args, **kwargs):
        if os.getpid() == parent:
            raise error("part failed")
        return scan(*args, **kwargs)
    monkeypatch.setattr(ingest, "_scan", failing)
    with _split_into(4) as forks:
        with pytest.raises(error, match="part failed"):
            parse_reactions_text(_reactions(200))
    assert len(forks) == 3


def test_a_second_thread_keeps_the_parse_in_one_process():
    text = _reactions(200)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        with _split_into(4) as forks:
            assert _plain(parse_reactions_text(text)) == _plain(_oracle_parse(text))
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []


def test_only_texts_of_two_parts_or_more_are_split():
    # a text under twice the part size stays in one process; one of 1.1 MB
    # is split in two on two CPUs and on four
    for lines, cpus, parts in ((30000, 4, 1), (40000, 2, 2), (40000, 4, 2)):
        text = _reactions(lines)
        with _split_into(cpus, part_chars=ingest._PART_CHARS) as forks:
            parsed = parse_reactions_text(text)
        assert len(parsed.ids) == lines and len(parsed.species) == 97 + 89 + 83
        assert len(forks) == parts - 1, (len(text), parts)


# ------------------------------------------------- the reaction text in slices

def assert_columns_as_oracle(text):
    """The parse gives the oracle's columns, each field equal and each
    array of the same dtype and bytes, or raises the oracle's error at its
    line and column."""
    expected = _outcome(lambda: _oracle_parse(text))
    parsed = _outcome(lambda: parse_reactions_text(text))
    if not isinstance(expected, ReactionColumns):
        assert parsed == expected, repr(text)
        return
    for name, got, want in zip(ReactionColumns._fields, parsed, expected):
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (name, text)
        else:
            assert got == want, (name, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(reaction_texts(), mutated_texts()), st.sampled_from(_SLICES),
       st.integers(1, 3))
def test_sliced_parse_matches_the_oracle(text, chars, cpus):
    with _slices_of(chars), _split_into(cpus):
        assert_columns_as_oracle(text)
        assert_converts_as_oracle(text)


class _Spans:
    """``ingest._LINE_RE`` with each span it is matched over recorded."""

    def __init__(self):
        self.pattern, self.spans = ingest._LINE_RE, []

    def findall(self, text, pos, end):
        self.spans.append((pos, end))
        return self.pattern.findall(text, pos, end)


# blank, blank-looking and comment-only lines between reactions, and a last
# line with no line break
_EDGES = ("R1: A + B -> C @ 2\n\n# only a comment\nR2: C <-> A + D\n   \n  # indented\n"
          "R3: D -> E + A\nR4: -> E\nR5: E + F -> G")


@pytest.mark.parametrize("text", [_EDGES, _EDGES + "\n", _EDGES + "\n\n# end\n"],
                         ids=["no-final-break", "final-break", "final-comment"])
def test_every_cut_between_slices_parses_as_the_oracle(text, monkeypatch):
    spans = _Spans()
    monkeypatch.setattr(ingest, "_LINE_RE", spans)
    for chars in range(1, len(text) + 2):
        for cpus in (1, 2):
            with _slices_of(chars), _split_into(cpus):
                assert_columns_as_oracle(text)
    # some slice, matched here, ends right after a blank line and some
    # right after a comment-only line
    last_lines = {text[pos:end].rsplit("\n", 1)[-1].strip()[:1]
                  for pos, end in spans.spans if end < len(text)}
    assert {"", "#"} <= last_lines


def test_a_species_first_mentioned_in_a_later_slice_of_a_later_part():
    # the second part of the text, and several slices into it, names new1
    # and new2 first; the parts' other species are all met in the first
    text = _reactions(300) + "Rn: a1 + new1 -> new2 + c4 @ 3\n" + _reactions(20)
    for chars in _SLICES:
        for cpus in (1, 2, 3):
            with _slices_of(chars), _split_into(cpus) as forks:
                assert_columns_as_oracle(text)
                assert_converts_as_oracle(text)
            assert len(forks) == 3 * (cpus - 1)  # a parse here, one per policy there
    parsed = parse_reactions_text(text)
    assert parsed.species[-2:] == ["new1", "new2"] and len(parsed.species) == 97 + 89 + 83 + 2


def _doc(vertices, *arcs):
    return {"vertices": vertices, "arcs": [dict(zip(("id", "tail", "head", "weight"), arc))
                                           for arc in arcs]}


@pytest.mark.parametrize("doc, report", [
    (_doc(["a", "b"], ("e", ["a"], ["zz"], -1.0), ("f", ["a"], ["a", "qq"], 1.0),
          ("g", ["a"], ["a"], 1.0), ("g", ["b"], [], 0.0)),
     ["TailHeadOverlap: g: tail and head share: a",
      "DuplicateArcId: g: arc id occurs more than once",
      "EmptyHead: g: head is empty",
      "NonpositiveWeight: g: weight 0.0 is not a positive real",
      "UnknownVertex: e: unknown vertex id 'zz'",
      "UnknownVertex: f: unknown vertex id 'qq'"]),
    # an arc with an unknown name still counts toward a repeated arc id
    (_doc(["a", "b"], ("e", ["a"], ["zz"], 1.0), ("e", ["a"], ["b"], 1.0)),
     ["DuplicateArcId: e: arc id occurs more than once",
      "UnknownVertex: e: unknown vertex id 'zz'"]),
], ids=["every-violation", "repeated-id"])
def test_named_arcs_report_unknown_names_as_the_loader_does(doc, report):
    rows = [tuple(arc.values()) for arc in doc["arcs"]]
    for build in (lambda: load_canonical(json.dumps(doc)),
                  lambda: DirectedHypergraph.from_named_arcs(rows, doc["vertices"]),
                  lambda: oracles.load_canonical(json.dumps(doc))):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value).splitlines() == report


@settings(max_examples=300, deadline=None)
@given(mutated_docs())
def test_named_arcs_build_as_the_loader_on_mutated_documents(doc):
    # on a schema-valid document, from_named_arcs over its vertex list and
    # arcs, then ensure_valid, builds what the loader builds or raises its error
    text = json.dumps(doc)
    loaded = _load_outcome(load_canonical, text)
    if isinstance(loaded, tuple) and loaded[0] is SchemaError:
        return
    rows = [tuple(arc[key] for key in ("id", "tail", "head", "weight")) for arc in doc["arcs"]]
    named = DirectedHypergraph.from_named_arcs
    assert (_load_outcome(lambda _: ensure_valid(named(rows, doc["vertices"])), text)
            == loaded), text


def test_valid_documents_never_enter_the_per_arc_scan(monkeypatch):
    def scan(pos, raw):
        raise AssertionError(f"arc {pos} left the bulk checks: {raw!r}")

    monkeypatch.setattr(ingest, "_check_arc", scan)
    rng = np.random.default_rng(37)
    for _ in range(20):
        hg = random_hypergraph(rng, max_vertices=12, max_arcs=20)
        assert load_canonical(save_canonical(hg)) == hg
    empty = DirectedHypergraph.from_named_arcs([])
    assert load_canonical('{"arcs": [], "vertices": []}') == empty
    # unknown names and bad weights are no schema errors
    text = ('{"arcs": [{"weight": 1' + "0" * 400 + ', "head": ["b", "b"], "id": "e",'
            ' "tail": ["a"]}, {"tail": ["zz"], "id": "f", "head": ["a"], "weight": 2}],'
            ' "vertices": ["a", "b"]}')
    with pytest.raises(ValidationError) as exc:
        load_canonical(text)
    assert [(v.code, v.subject) for v in exc.value.report.violations] == [
        ("NonpositiveWeight", "e"), ("UnknownVertex", "f")]
    with pytest.raises(AssertionError, match="arc 0 left the bulk checks"):
        load_canonical('{"vertices": ["a"], "arcs": [{"id": "e", "tail": ["a"],'
                       ' "head": ["a"], "weight": 1, "color": 1}]}')


def test_resolvable_documents_never_enter_the_name_scan(monkeypatch):
    def scan(*columns):
        raise AssertionError("a name left the bulk lookup")

    monkeypatch.setattr(ingest, "_reject_names", scan)
    rng = np.random.default_rng(41)
    for _ in range(20):
        hg = random_hypergraph(rng, max_vertices=12, max_arcs=20)
        assert load_canonical(save_canonical(hg)) == hg
    # a repeated vertex id resolves to its first position; validate rejects it
    with pytest.raises(ValidationError) as exc:
        load_canonical('{"vertices": ["a", "b", "a"], "arcs": [{"id": "e", "tail": ["a"],'
                       ' "head": ["b", "b"], "weight": 1e999}]}')
    assert exc.value.report.codes() == {"DuplicateVertexId", "NonpositiveWeight"}
    for text in ('{"vertices": ["a"], "arcs": [{"id": "e", "tail": ["zz"], "head": ["a"],'
                 ' "weight": 1}]}',
                 '{"vertices": ["a"], "arcs": [{"id": "e", "tail": [["a"]], "head": ["a"],'
                 ' "weight": 1}]}'):
        with pytest.raises(AssertionError, match="a name left the bulk lookup"):
            load_canonical(text)


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_loaders_leave_the_collector_as_they_found_it(enabled, monkeypatch):
    valid = save_canonical(DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], 1.0)]))
    # each load that builds a layout sorts its sides with the collector off
    # (the JSON loads one side at a time, the reaction converter every
    # record's two sides at once, before it checks them)
    build, collecting = core._side, []
    for module in (core, ingest):
        monkeypatch.setattr(module, "_side",
                            lambda *side: collecting.append(gc.isenabled()) or build(*side))
    loads = [(lambda: load_canonical(valid), None),
             (lambda: load_canonical('{"vertices": ["a"], "arcs": [1]}'), SchemaError),
             (lambda: load_canonical('{"vertices": ["a"], "arcs": [{"id": "e",'
                                     ' "tail": ["a"], "head": ["a"], "weight": 1}]}'),
              ValidationError),
             (lambda: reactions_to_hypergraph(parse_reactions_text("R: A -> B\n")), None),
             (lambda: parse_reactions_text("R A -> B\n"), ReactionSyntaxError),
             (lambda: reactions_to_hypergraph(parse_reactions_text("R: A -> A\n")),
              TailHeadOverlapError),
             (lambda: save_canonical(load_canonical(valid)), None)]
    was_enabled = gc.isenabled()
    try:
        for load, error in loads:
            gc.enable() if enabled else gc.disable()
            if error is None:
                load()
            else:
                with pytest.raises(error):
                    load()
            assert gc.isenabled() is enabled
        assert collecting == [False] * 8
    finally:
        gc.enable() if was_enabled else gc.disable()


def test_fresh_strings_are_equal_new_objects():
    for strings in ([], [""], ["e1", "e22", "", "\u00e9\U0001f600"], ["a\x00b", "cd"],
                    ["\ud800", "x\udfff"], ["\x00", ""]):
        copies = ingest._fresh(strings)
        assert copies == strings and type(copies) is list
        # the empty and one-Latin-1-character strings are the interpreter's
        # singletons, so only they may come back as themselves
        assert all(c is not s or (len(s) <= 1 and s <= "\xff")
                   for c, s in zip(copies, strings))
    kept = ["a\x00b", "\ud800x", "ab"]
    assert not any(c is s for c, s in zip(ingest._fresh(kept), kept))


_KIB = """
import re, sys
from pathlib import Path

def kib(key):
    return int(re.search(key + r":\\s+(\\d+) kB", Path("/proc/self/status").read_text()).group(1))
"""
_LOAD_RSS = _KIB + """
import ctypes
from hyperrank import load_canonical

# glibc's M_MMAP_THRESHOLD fixed at its initial 128 KiB: else the layout's
# freed temporaries stay in the heap
mallopt = ctypes.CDLL(None).mallopt
mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
mallopt(-3, 128 * 1024)
before = kib("VmRSS")
hg = load_canonical(Path(sys.argv[1]).read_text())
print(before, kib("VmRSS"), kib("VmHWM"), hg.n_arcs)
"""
_INGEST_RSS = _KIB + """
from hyperrank import cli

before = kib("VmRSS")
status = cli.main(["ingest", sys.argv[1], "-o", sys.argv[2]])
print(before, kib("VmHWM"), status)
"""


def _run_snippet(snippet: str, *args: str) -> list[int]:
    """The integers a snippet prints, run in a fresh interpreter on this package."""
    src = str(Path(ingest.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", snippet, *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return list(map(int, proc.stdout.split()))


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_load_peaks_at_a_few_times_its_text(tmp_path):
    # 20,000 arcs of up to 5 names a side on 5,000 vertices: reading and
    # loading the 2.1 MB text grows the process by about 5 times the text,
    # and about 6 MB of that is what the hypergraph keeps; decoding the
    # whole document at once grew it by nearly 10 times the text
    n, m = 5000, 20000
    sizes = np.random.default_rng(43).integers(1, 6, (m, 2)).tolist()
    text = json.dumps({"vertices": [f"v{v}" for v in range(n)], "arcs": [
        {"id": f"e{a}", "tail": [f"v{(a + k) % n}" for k in range(t)],
         "head": [f"v{(a + 5 + k) % n}" for k in range(h)], "weight": 1.5}
        for a, (t, h) in enumerate(sizes)]})
    path = tmp_path / "doc.json"
    path.write_text(text)
    before, after, peak, arcs = _run_snippet(_LOAD_RSS, str(path))
    assert arcs == m
    assert peak - before <= 7 * len(text) / 1024, (before, after, peak)


def _seeded_reactions(n: int, m: int, seed: int) -> str:
    """``m`` reactions of 1 to 5 species a side among ``n``, every fifth
    reversible, their side lengths drawn from ``seed``."""
    sizes = np.random.default_rng(seed).integers(1, 6, (m, 2)).tolist()
    return "".join(
        f"R{a}: {' + '.join(f's{(a + k) % n}' for k in range(t))} "
        f"{'<->' if a % 5 == 0 else '->'} "
        f"{' + '.join(f's{(a + 7 + k) % n}' for k in range(h))} @ {1 + a % 9 / 8!r}\n"
        for a, (t, h) in enumerate(sizes))


def test_parse_and_conversion_trace_a_few_times_their_text():
    # 16,000 reactions, a 0.96 MB text that one process parses: the parse's
    # traced peak is 4.5 times the text, and the conversion's, validation
    # included, 5.1 times; matching a whole part at once traced 14.3 times,
    # and laying the sides out one at a time 6.9 times
    text = _seeded_reactions(4000, 16000, 53)
    tracemalloc.start()
    try:
        parsed = parse_reactions_text(text)
        parse_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the parse is not traced now, so that freeing it counts for nothing
    tracemalloc.start()
    try:
        hg, _ = reactions_to_hypergraph(parsed)
        convert_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hg.n_arcs == 19200
    assert parse_peak <= 6 * len(text), parse_peak / len(text)
    assert convert_peak <= 6 * len(text), convert_peak / len(text)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_ingest_peaks_at_a_few_times_its_text(tmp_path):
    # 40,000 reactions of up to 5 species a side among 10,000, every fifth
    # reversible: ingesting the 2.5 MB text grows the process by 7.6 to 7.8
    # times the text on a 2-vCPU host; matching each part of the text at
    # once grew it by 11.4 times, and serializing the whole document at
    # once, with glibc's mmap threshold pinned, by 15.0 times
    text = _seeded_reactions(10000, 40000, 47)
    path = tmp_path / "in.reactions"
    path.write_text(text)
    before, peak, status = _run_snippet(_INGEST_RSS, str(path), str(tmp_path / "out.json"))
    assert status == 0
    assert peak - before <= 9 * len(text) / 1024, (before, peak)


def test_load_rejects_deep_nesting_as_schema_error():
    for text in ("[" * 200_000, '{"vertices": ' + "[" * 200_000 + "]" * 200_000 + "}"):
        with pytest.raises(SchemaError, match="nesting is too deep"):
            load_canonical(text)


def test_duplicate_arc_ids_rejected_on_both_ingest_paths():
    doc = {"vertices": ["a", "b"],
           "arcs": [{"id": "e", "tail": ["a"], "head": ["b"], "weight": 1},
                    {"id": "e", "tail": ["b"], "head": ["a"], "weight": 1}]}
    with pytest.raises(ValidationError) as exc:
        load_canonical(json.dumps(doc))
    assert exc.value.report.codes() == {"DuplicateArcId"}
    for text in ("R1: A -> B\nR1: B -> A\n", "R1: A <-> B\nR1_fwd: A -> B\n"):
        with pytest.raises(ValidationError) as exc:
            reactions_to_hypergraph(parse_reactions_text(text))
        assert exc.value.report.codes() == {"DuplicateArcId"}


def test_save_uses_full_precision():
    hg = DirectedHypergraph.from_named_arcs([("e", ["a"], ["b"], 0.1234567890123456789)])
    again = load_canonical(save_canonical(hg))
    assert again.layout.weight.tolist() == hg.layout.weight.tolist()
