import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hyperrank
import hyperrank.cli
from hyperrank import (SparseRealMatrix, TransitionMatrix, build_transition,
                       load_canonical, pagerank_power, parse_reactions_text,
                       reactions_to_hypergraph, save_canonical)
from hyperrank.cli import main

import oracles
import randgen
from test_ingest import mutated_docs

HG3_JSON = json.dumps({
    "vertices": ["v1", "v2", "v3"],
    "arcs": [
        {"id": "e1", "tail": ["v1"], "head": ["v2", "v3"], "weight": 1.0},
        {"id": "e2", "tail": ["v2"], "head": ["v3"], "weight": 2.0},
        {"id": "e3", "tail": ["v3"], "head": ["v1"], "weight": 1.0},
    ],
}) + "\n"

PERIODIC_JSON = json.dumps({
    "vertices": ["a", "b", "c"],
    "arcs": [
        {"id": "e1", "tail": ["a"], "head": ["b", "c"], "weight": 1.0},
        {"id": "e2", "tail": ["b"], "head": ["a"], "weight": 1.0},
        {"id": "e3", "tail": ["c"], "head": ["a"], "weight": 1.0},
    ],
}) + "\n"


@pytest.fixture
def hg3_path(tmp_path):
    path = tmp_path / "hg3.json"
    path.write_text(HG3_JSON)
    return str(path)


def test_rank_hg3_table(hg3_path, capsys):
    assert main(["rank", hg3_path, "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "rank\tvertex\tvalue",
        "1\tv1\t0.4000",
        "2\tv3\t0.4000",
        "3\tv2\t0.2000",
    ]


def test_the_heap_is_trimmed_after_the_load_and_after_pruning(hg3_path, monkeypatch, capsys,
                                                               tmp_path):
    calls = []
    monkeypatch.setattr(hyperrank.cli, "_trim_heap", lambda: calls.append(1))
    for argv, trims in ((["validate", hg3_path], 0), (["rank", hg3_path], 1),
                        (["rank", hg3_path, "--prune"], 3),
                        (["ingest", hg3_path, "--format", "json", "-o",
                          str(tmp_path / "hg3.json")], 4)):
        assert main(argv) == 0
        assert len(calls) == trims, argv
    assert hyperrank.ingest._libc("no_such_function") is None


def test_rank_full_precision(hg3_path, capsys):
    assert main(["rank", hg3_path, "--top", "3", "--precision", "full"]) == 0
    out = capsys.readouterr().out
    values = [float(line.split("\t")[2]) for line in out.splitlines()[1:]]
    assert max(abs(v - e) for v, e in zip(sorted(values, reverse=True),
                                          [0.4, 0.4, 0.2])) < 1e-9


def test_rank_is_byte_deterministic(hg3_path, capsys):
    main(["rank", hg3_path, "--norm", "l2", "--top", "3"])
    first = capsys.readouterr().out
    main(["rank", hg3_path, "--norm", "l2", "--top", "3"])
    second = capsys.readouterr().out
    assert first == second


def test_rank_dangling_hints_prune(tmp_path, capsys):
    doc = {"vertices": ["a", "b"],
           "arcs": [{"id": "e", "tail": ["a"], "head": ["b"], "weight": 1.0}]}
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(doc))
    assert main(["rank", str(path)]) == 1
    err = capsys.readouterr().err
    assert "dangling" in err
    assert "--prune" in err
    # with --prune the graph empties out, which is its own diagnostic
    assert main(["rank", str(path), "--prune"]) == 1


def test_rank_no_convergence_hints_damping(tmp_path, capsys):
    path = tmp_path / "periodic.json"
    path.write_text(PERIODIC_JSON)
    assert main(["rank", str(path), "--max-iters", "200"]) == 1
    err = capsys.readouterr().err
    assert "no convergence" in err
    assert "--damping 0.85" in err
    assert main(["rank", str(path), "--damping", "0.85", "--top", "3"]) == 0


def test_ingest_reaction_file(tmp_path, capsys):
    src = tmp_path / "net.reactions"
    src.write_text("R1: A -> B\nR2: B <-> C\nR3: C -> A\n")
    out_path = tmp_path / "net.json"
    assert main(["ingest", str(src), "-o", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert "vertices: 3" in err
    assert "arcs: 4" in err
    doc = json.loads(out_path.read_text())
    assert [a["id"] for a in doc["arcs"]] == ["R1", "R2_fwd", "R2_rev", "R3"]


def test_ingest_forward_only(tmp_path, capsys):
    src = tmp_path / "net.reactions"
    src.write_text("R2: A <-> B\n")
    assert main(["ingest", str(src), "--reversible", "forward-only"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert [a["id"] for a in doc["arcs"]] == ["R2"]


def test_ingest_malformed_line_cites_position(tmp_path, capsys):
    src = tmp_path / "net.reactions"
    src.write_text("R1: A -> B\nR2: B -> C\nR3 C -> D\n")
    assert main(["ingest", str(src)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err


@pytest.mark.parametrize("command", ["ingest", "validate", "rank"])
def test_overlap_after_collapsed_mentions_is_one_error_line(tmp_path, capsys, command):
    # the collapse notes are written from the finished report, so a record
    # rejected later leaves only the error line on standard error
    src = tmp_path / "net.reactions"
    src.write_text("R1: A + A -> B\nR2: C + C -> D\nR3: X + Y -> Y + Z\n")
    assert main([command, str(src), "--format", "reactions"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hyperrank: reaction R3: species on both sides: Y\n"


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 8.00 GiB for an array"),
     "hyperrank: Unable to allocate 8.00 GiB for an array\n"),
    (MemoryError(), "hyperrank: out of memory\n"),
])
def test_out_of_memory_is_one_error_line(hg3_path, capsys, monkeypatch, error, line):
    def exhausted(text):
        raise error

    monkeypatch.setattr(hyperrank.cli, "load_canonical", exhausted)
    assert main(["rank", hg3_path]) == 1
    assert capsys.readouterr().err == line


def test_output_is_written_in_slices(tmp_path, monkeypatch):
    monkeypatch.setattr(hyperrank.cli, "_SLICE", 4)
    chunks = ["", "abc", "d\u00e9f\U0001f600gh\n", "0123456789"]
    path = tmp_path / "out.txt"
    hyperrank.cli._write_output(iter(chunks), str(path))
    assert path.read_bytes() == "".join(chunks).encode("utf-8")
    written = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"writelines": written.extend})())
    hyperrank.cli._write_output(chunks, None)
    assert "".join(written) == "".join(chunks)
    assert max(map(len, written)) == 4


# a collapsed mention, a dropped record and two reversible records
_REACTIONS = ("R1: A + B -> C @ 2\nR2: C <-> A\nx1: A ->\nR3: B + B -> D\n"
              "R4: D <-> B @ 0.5\nR5: C + D -> A\n")


@pytest.mark.parametrize("args", [["--reversible", "split"], ["--reversible", "forward-only"],
                                  ["--format", "json"]])
def test_ingest_in_tiny_blocks_writes_what_save_canonical_returns(tmp_path, capsys,
                                                                   monkeypatch, args):
    path = tmp_path / "in"
    if args[0] == "--format":
        path.write_text(HG3_JSON)
        hg = load_canonical(HG3_JSON)
    else:
        path.write_text(_REACTIONS)
        hg, _ = reactions_to_hypergraph(parse_reactions_text(_REACTIONS), args[1])
    expected = save_canonical(hg)
    monkeypatch.setattr(hyperrank.ingest, "_BLOCK_ARCS", 2)
    out = tmp_path / "out.json"
    assert main(["ingest", str(path), "-o", str(out), *args]) == 0
    assert out.read_bytes() == expected.encode("utf-8")
    assert main(["ingest", str(path), *args]) == 0
    assert capsys.readouterr().out == expected


def test_ingest_of_an_invalid_network_leaves_the_output_file_as_it_was(tmp_path, capsys,
                                                                       monkeypatch):
    invalid = oracles.hypergraph(("a", "a"), [("e", [0], [1], 1.0)])
    monkeypatch.setattr(hyperrank.cli, "_load", lambda ns: (invalid, None))
    out = tmp_path / "out.json"
    out.write_text("kept\n")
    assert main(["ingest", str(tmp_path / "in"), "-o", str(out)]) == 1
    assert out.read_text() == "kept\n"
    assert capsys.readouterr().err.splitlines()[-1].startswith("hyperrank: ")


def test_ingest_json_passthrough_normalizes(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(HG3_JSON)
    assert main(["ingest", str(path), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == json.loads(HG3_JSON)


def test_validate_ok_and_violations(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(HG3_JSON)
    assert main(["validate", str(good)]) == 0
    assert capsys.readouterr().out == "ok\n"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": ["a", "b"],
        "arcs": [{"id": "e", "tail": ["a"], "head": ["a"], "weight": -1}],
    }))
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "TailHeadOverlap" in out
    assert "NonpositiveWeight" in out


def test_validate_reaction_format(tmp_path, capsys):
    src = tmp_path / "net.reactions"
    src.write_text("R1: A -> B\nR2: B -> A\n")
    assert main(["validate", str(src), "--format", "reactions"]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_laplacian_symmetric_tsv(tmp_path, hg3_path, capsys):
    out_path = tmp_path / "lap.tsv"
    assert main(["laplacian", hg3_path, "--kind", "symmetric",
                 "-o", str(out_path)]) == 0
    err = capsys.readouterr().err
    assert "lower bound on eigenvalues of L_sym" in err
    matrix = np.array([[float(x) for x in line.split("\t")]
                       for line in out_path.read_text().splitlines()])
    assert matrix.shape == (3, 3)
    np.testing.assert_array_equal(matrix, matrix.T)
    pi = np.sqrt([0.4, 0.2, 0.4])
    assert np.abs(matrix @ pi).max() <= 1e-9


def test_laplacian_damped_on_a_nonuniform_chain_hints_at_the_damping(hg3_path, capsys):
    assert main(["laplacian", hg3_path, "--damping", "0.85"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error, hint = captured.err.splitlines()
    assert error.startswith("hyperrank: rank vector is not stationary")
    assert hint == ("hint: the Laplacians need the undamped stationary vector; "
                    "drop --damping")


def test_laplacian_unnormalized_two_cycle(tmp_path, capsys):
    doc = {"vertices": ["a", "b"],
           "arcs": [{"id": "f", "tail": ["a"], "head": ["b"], "weight": 1.0},
                    {"id": "g", "tail": ["b"], "head": ["a"], "weight": 1.0}]}
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    assert main(["laplacian", str(path), "--kind", "unnormalized",
                 "--damping", "0.85"]) == 0
    out = capsys.readouterr().out
    matrix = np.array([[float(x) for x in line.split("\t")]
                       for line in out.splitlines()])
    np.testing.assert_array_equal(matrix, matrix.T)
    np.testing.assert_allclose(matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=0.1)


def test_simulate_deterministic_output(hg3_path, capsys):
    argv = ["simulate", hg3_path, "--steps", "20000", "--seed", "4"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert len(lines) == 4
    assert lines[-1].startswith("# tv_distance\t")
    assert float(lines[-1].split("\t")[1]) <= 0.05


def test_simulate_periodic_falls_back_to_oracle(tmp_path, capsys):
    path = tmp_path / "periodic.json"
    path.write_text(PERIODIC_JSON)
    assert main(["simulate", str(path), "--steps", "50000", "--seed", "1",
                 "--max-iters", "100"]) == 0
    captured = capsys.readouterr()
    assert "dense solve" in captured.err
    assert float(captured.out.splitlines()[-1].split("\t")[1]) <= 0.05


def test_simulate_as_lanes_prints_what_one_path_prints(tmp_path, capsys, monkeypatch):
    # a fresh CLI process walks a walk of lane length as lanes; here, with
    # the threshold out of reach, the same walk goes step by step
    path = tmp_path / "hg3.json"
    path.write_text(HG3_JSON)
    argv = ["simulate", str(path), "--steps", str(hyperrank.walk._LANE_WALK + 5000),
            "--seed", "1"]
    src = str(Path(hyperrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "hyperrank.cli", *argv], env=env,
                          capture_output=True, timeout=120)
    lanes = []
    monkeypatch.setattr(hyperrank.walk, "_lane_walk", lambda *a: lanes.append(a))
    monkeypatch.setattr(hyperrank.walk, "_LANE_WALK", hyperrank.walk._LANE_WALK + 5001)
    assert main(argv) == 0
    assert lanes == []
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        0, captured.out, captured.err)


def test_simulate_beyond_the_dense_limit_reports_the_nonconvergence(
        tmp_path, capsys, monkeypatch):
    n = 600
    doc = {"vertices": [f"v{i}" for i in range(n)],
           "arcs": [{"id": f"e{i}", "tail": [f"v{i}"], "head": [f"v{(i + 1) % n}"],
                     "weight": 1.0} for i in range(n)]}
    doc["arcs"].append({"id": "back", "tail": ["v1"], "head": ["v0"], "weight": 1.0})
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(doc))

    def walk(*args):
        raise AssertionError("the walk ran before the stationary vector")

    monkeypatch.setattr(hyperrank.cli, "simulate_walk", walk)
    assert main(["simulate", str(path), "--max-iters", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    error, hint = captured.err.splitlines()
    assert error.startswith("hyperrank: no convergence after 5 iterations")
    assert hint == "hint: try --damping 0.85"


def test_simulate_notes_the_fallback_before_a_failed_dense_solve(tmp_path, capsys):
    # two components, one periodic: power iteration oscillates, and the
    # stationary space has dimension 2
    path = tmp_path / "two.reactions"
    path.write_text("R1: A -> B\nR2: B -> A\nR3: B -> C\nR4: C -> B\n"
                    "R5: D -> E\nR6: E -> D\n")
    assert main(["simulate", str(path), "--format", "reactions",
                 "--steps", "100", "--seed", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-2:] == [
        "power iteration did not converge; comparing against the dense solve",
        "hyperrank: stationary distribution is not unique (solution space has dimension 2)"]


def test_simulate_rejects_a_negative_seed(hg3_path, capsys):
    assert main(["simulate", hg3_path, "--steps", "10", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "hyperrank: seed must be a non-negative integer\n"


def test_simulate_custom_start(hg3_path, capsys):
    assert main(["simulate", hg3_path, "--steps", "1000", "--seed", "2",
                 "--start", "v2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("v1\t")


@pytest.mark.parametrize("doc, extra", [
    ({"vertices": [], "arcs": []}, []),
    ({"vertices": ["a", "b"],
      "arcs": [{"id": "e", "tail": ["a"], "head": ["b"], "weight": 1.0}]}, ["--prune"]),
])
def test_simulate_without_vertices_is_diagnosed(tmp_path, capsys, doc, extra):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", str(path), "--steps", "10"] + extra) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == "hyperrank: the network has no vertices to walk on"


def test_validate_reports_duplicate_arc_ids(tmp_path, capsys):
    src = tmp_path / "net.reactions"
    src.write_text("R1: A -> B\nR1: B -> A\n")
    assert main(["validate", str(src), "--format", "reactions"]) == 1
    assert capsys.readouterr().out == "DuplicateArcId: R1: arc id occurs more than once\n"
    src.write_text("R1: A <-> B\nR1_fwd: A -> B\n")
    assert main(["ingest", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "DuplicateArcId: R1_fwd" in captured.err


def test_validate_reports_a_repeated_arc_id_beside_an_unknown_name(tmp_path, capsys):
    src = tmp_path / "net.json"
    src.write_text(json.dumps({"vertices": ["a", "b"], "arcs": [
        {"id": "e", "tail": ["a"], "head": ["zz"], "weight": 1},
        {"id": "e", "tail": ["a"], "head": ["b"], "weight": 1}]}))
    assert main(["validate", str(src)]) == 1
    assert capsys.readouterr().out == ("DuplicateArcId: e: arc id occurs more than once\n"
                                       "UnknownVertex: e: unknown vertex id 'zz'\n")


def test_missing_file_is_diagnosed(capsys):
    assert main(["rank", "/nonexistent/net.json"]) == 1
    assert "hyperrank:" in capsys.readouterr().err


def test_prune_log_goes_to_stderr(tmp_path, capsys):
    src = tmp_path / "net.reactions"
    src.write_text("R1: A -> B\nR2: B -> A\nEX: A ->\nORPHAN: X -> Y\n")
    assert main(["ingest", str(src), "-o", str(tmp_path / "out.json")]) == 0
    capsys.readouterr()
    assert main(["rank", str(tmp_path / "out.json"), "--prune", "--top", "2"]) == 0
    captured = capsys.readouterr()
    assert "prune round 1" in captured.err
    assert "removed vertex X" in captured.err
    assert captured.out.splitlines()[0] == "rank\tvertex\tvalue"


def test_every_call_writes_the_clamp_notice_to_its_own_stderr(capsys):
    # the notice is a plain write to the current stderr, so a second call in
    # the same process shows it as the first did
    argv = ["rank", str(Path(__file__).parent / "data" / "small_net.json"),
            "--prune", "--top", "50"]
    notice = "WARNING top_k clamped from 50 to the 30 available vertices\n"
    errs = []
    for _ in range(2):
        assert main(argv) == 0
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].endswith(notice)


@pytest.mark.parametrize("argv", [["laplacian", "--norm", "l2"],
                                  ["laplacian", "--precision", "full"],
                                  ["simulate", "--norm", "l2"]])
def test_options_the_command_does_not_read_are_usage_errors(hg3_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([argv[0], hg3_path, *argv[1:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hyperrank")
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


def test_the_cli_does_not_import_logging():
    src = str(Path(hyperrank.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, hyperrank.cli; print('logging' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_integer_weight_beyond_float_range_is_a_violation(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": ["a", "b"], "arcs": [{"id": "e", "tail": ["a"], '
                    '"head": ["b"], "weight": 1' + "0" * 400 + "}]}")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "NonpositiveWeight: e: weight inf is not a positive real\n"
    assert captured.err == ""
    assert main(["rank", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("hyperrank: NonpositiveWeight: e: weight inf "
                            "is not a positive real\n")


def test_negative_integer_weight_beyond_float_range_keeps_its_sign(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"vertices": ["a", "b"], "arcs": [{"id": "e", "tail": ["a"], '
                    '"head": ["b"], "weight": -1' + "0" * 400 + "}]}")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "NonpositiveWeight: e: weight -inf is not a positive real\n"
    assert captured.err == ""


OVERFLOW_JSON = json.dumps({
    "vertices": ["a", "b"],
    "arcs": [
        {"id": "e1", "tail": ["a"], "head": ["b"], "weight": 1e308},
        {"id": "e2", "tail": ["a"], "head": ["b"], "weight": 1e308},
        {"id": "e3", "tail": ["b"], "head": ["a"], "weight": 1.0},
    ],
})


@pytest.mark.parametrize("fmt, text, vertex", [
    ("json", OVERFLOW_JSON, "a"),
    ("reactions", "R1: A -> B @ 1e308\nR2: A -> B @ 1e308\nR3: B -> A\n", "A"),
])
def test_tail_weights_summing_beyond_float_range_are_a_violation(tmp_path, capsys, fmt,
                                                                text, vertex):
    # each weight is finite, but the walk divides by their sum, which is inf
    path = tmp_path / f"overflow.{fmt}"
    path.write_text(text)
    line = f"TailWeightOverflow: {vertex}: tail weights sum beyond the float range\n"
    assert main(["validate", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (line, "")
    assert main(["rank", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "hyperrank: " + line)


def test_a_step_that_underflows_to_zero_still_ranks(tmp_path, capsys):
    # a's step to b is 5e-324 / 1e300, which is 0: that entry is not stored
    text = json.dumps({
        "vertices": ["a", "b", "c"],
        "arcs": [
            {"id": "tiny", "tail": ["a"], "head": ["b"], "weight": 5e-324},
            {"id": "huge", "tail": ["a"], "head": ["c"], "weight": 1e300},
            {"id": "b_a", "tail": ["b"], "head": ["a"], "weight": 1.0},
            {"id": "c_a", "tail": ["c"], "head": ["a"], "weight": 1.0},
        ],
    })
    P = build_transition(load_canonical(text))
    assert P.matrix.nnz == 3
    assert np.abs(P.matrix.row_sums() - 1.0).max() <= 1e-12
    path = tmp_path / "underflow.json"
    path.write_text(text)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == "ok\n"
    assert main(["rank", str(path), "--damping", "0.85"]) == 0


@pytest.mark.parametrize("flags, message", [
    (["--damping", "0"], "damping must be in (0, 1]"),
    (["--damping", "1.5"], "damping must be in (0, 1]"),
    (["--damping", "nan"], "damping must be in (0, 1]"),
    (["--tol", "0"], "tolerance must be positive"),
    (["--max-iters", "0"], "max_iterations must be at least 1"),
])
def test_power_settings_out_of_range_are_one_error_line(hg3_path, capsys, flags, message):
    assert main(["rank", hg3_path, "--prune", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"hyperrank: {message}"
    assert "Traceback" not in captured.err


def _triplets(out: str, n: int) -> np.ndarray:
    """The dense matrix of a ``row col value`` TSV, checking the entries
    come row-major with ascending columns."""
    header, *lines = out.splitlines()
    assert header == "row\tcol\tvalue"
    cells = [line.split("\t") for line in lines]
    keys = [(int(u), int(v)) for u, v, _ in cells]
    assert keys == sorted(set(keys))
    matrix = np.zeros((n, n))
    for (u, v), (_, _, x) in zip(keys, cells):
        matrix[u, v] = float(x)
    return matrix


def test_laplacian_beyond_the_dense_limit_writes_triplets(tmp_path, capsys, monkeypatch):
    # each vertex leaves by a two-head arc and a one-head arc, so P is
    # doubly stochastic and the uniform start is already stationary
    n = 600
    doc = {"vertices": [f"v{i}" for i in range(n)],
           "arcs": [{"id": f"a{i}", "tail": [f"v{i}"],
                     "head": [f"v{(i + 1) % n}", f"v{(i + 2) % n}"], "weight": 1.0}
                    for i in range(n)]
           + [{"id": f"b{i}", "tail": [f"v{i}"], "head": [f"v{(i + 3) % n}"],
               "weight": 1.0} for i in range(n)]}
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(doc))
    P = build_transition(load_canonical(path.read_text()))
    L, L_sym, _, _ = oracles.laplacians(P, pagerank_power(P))

    def densify(self):
        raise AssertionError("densified")

    monkeypatch.setattr(TransitionMatrix, "to_dense", densify)
    monkeypatch.setattr(SparseRealMatrix, "to_dense", densify)
    for kind, expected in (("unnormalized", L), ("symmetric", L_sym)):
        assert main(["laplacian", str(path), "--kind", kind]) == 0
        captured = capsys.readouterr()
        assert "lower bound on eigenvalues of L:" in captured.err
        assert len(captured.out.splitlines()) == 1 + 7 * n
        assert _triplets(captured.out, n).tobytes() == expected.tobytes()


def test_laplacian_triplets_match_the_dense_table(hg3_path, capsys, monkeypatch):
    assert main(["laplacian", hg3_path, "--kind", "symmetric"]) == 0
    dense = np.array([[float(x) for x in line.split("\t")]
                      for line in capsys.readouterr().out.splitlines()])
    monkeypatch.setattr(hyperrank.cli, "DENSE_LIMIT", 2)
    assert main(["laplacian", hg3_path, "--kind", "symmetric"]) == 0
    assert _triplets(capsys.readouterr().out, 3).tobytes() == dense.tobytes()


# names recur, so sides repeat vertices and reactions share them
_names = st.sampled_from(["A", "B", "c", "glc__D", "x-1", "h2o", "NAD_p", "9"])
_weights = st.one_of(st.none(), st.integers(1, 1000).map(str),
                     st.floats(min_value=1e-300, max_value=1e300).map(repr))


@st.composite
def reaction_texts(draw):
    """Reaction files with duplicate mentions, reversible records, boundary
    (empty-side) reactions, '@' weights, comments and blank lines."""
    lines = []
    for k in range(draw(st.integers(0, 8))):
        substrates = draw(st.lists(_names, max_size=4))
        products = draw(st.lists(_names.filter(lambda v: v not in substrates),
                                 max_size=4))
        arrow = draw(st.sampled_from(["->", "<->"]))
        line = f"R{k}: {' + '.join(substrates)} {arrow} {' + '.join(products)}"
        weight = draw(_weights)
        if weight is not None:
            line += f" @ {weight}"
        lines.append(line)
        lines += draw(st.sampled_from([[], [""], ["# a comment"]]))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reaction_texts())
def test_reaction_text_round_trips_through_the_cli(tmp_path, capsys, text):
    src = tmp_path / "net.reactions"
    src.write_text(text)
    canonical = tmp_path / "net.json"
    assert main(["ingest", str(src)]) == 0
    first = capsys.readouterr().out
    canonical.write_text(first)
    assert main(["ingest", str(canonical), "--format", "json"]) == 0
    assert capsys.readouterr().out == first
    assert main(["validate", str(canonical)]) == 0
    assert capsys.readouterr().out == "ok\n"


# weights over the whole positive float range, subnormals and 1e308 included
_wide_weights = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                          st.sampled_from([5e-324, 1e-300, 1e300, 1e308]))


@st.composite
def wide_weight_docs(draw):
    hg = draw(randgen.hypergraphs())
    weight = draw(st.lists(_wide_weights, min_size=hg.n_arcs, max_size=hg.n_arcs))
    return oracles.save_canonical(dataclasses.replace(hg, layout=dataclasses.replace(
        hg.layout, weight=np.array(weight, dtype=np.float64))))


_COMMANDS = {"validate": [], "ingest": [], "rank": ["--prune", "--damping", "0.85"],
             "laplacian": ["--prune"], "simulate": ["--prune", "--steps", "2000"]}


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(wide_weight_docs().map(lambda text: (text, "json")),
                 mutated_docs().map(lambda doc: (json.dumps(doc), "json")),
                 reaction_texts().map(lambda text: (text, "reactions"))))
def test_every_command_exits_0_or_1_and_what_validates_ranks(tmp_path, capsys, case):
    text, fmt = case
    src = tmp_path / "net"
    src.write_text(text, encoding="utf-8")
    status, err = {}, {}
    for command, flags in _COMMANDS.items():
        status[command] = main([command, str(src), "--format", fmt, *flags])
        err[command] = capsys.readouterr().err
    assert set(status.values()) <= {0, 1}, (status, err)
    if status["validate"] == 0:
        assert status["rank"] == 0 or err["rank"].splitlines()[-1] == (
            "hyperrank: cannot build a transition matrix for an empty hypergraph"), err
