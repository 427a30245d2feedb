"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py

Every workload runs through both harnesses and passes its checks; corrupted
outputs and failing commands are counted as failures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

sys.path.insert(0, str(run.SRC))

import hyperrank.cli as cli  # noqa: E402

TINY = {
    "rank_prune_20k": {"core_vertices": 200, "core_arcs": 600, "chains": 10},
    "ingest_reactions_20k": {"core_vertices": 200, "core_arcs": 600, "chains": 10,
                             "boundary": 20},
    "crosscheck_500": {"vertices": 60, "arcs": 180, "window": 5, "steps": 200000},
}


def _setup(name, tmp_path, seed=3):
    workload = workloads.WORKLOADS[name](TINY[name])
    inputs = workload.generate(seed, tmp_path)
    return workload, inputs, workload.commands(inputs, tmp_path)


def _first_results(workload, inputs, cmds):
    results = [run.run_in_process(cmd, cli.main) for cmd in cmds]
    for cmd, res in zip(cmds, results):
        assert res.returncode == 0, res.stderr
        assert workload.check(cmd, res, inputs) == [], cmd.name
    return results


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_untraced(name):
    record = run.run_workload(name, 3, 0.0, 0, TINY[name])
    assert record["failures"] == [] and record["error_rate"] == 0
    shared = {"wall_s", "setup_s", "start_ref_s", "peak_rss_mb", "wall_rel"}
    n_cmds = len(set(record["metrics"]) - shared)
    assert record["attempted"] == n_cmds * (1 + run.MIN_PASSES)
    assert set(run.END_TO_END) <= set(record["metrics"])
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert len(record["inputs"]["sha256"]) == 64


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_clean_traced(name):
    record = run.run_workload(name, 3, 0.0, 1, TINY[name])
    assert record["failures"] == []
    assert record["samples"]["spans_first_traced_pass"]
    metrics = {n: m["value"] for n, m in record["metrics"].items()}
    assert set(metrics) == set(run.per_layer_units())
    assert all(m["samples"] == run.MIN_PASSES for m in record["metrics"].values())
    # every call stays inside a span: the pass's time is all self time
    assert abs(metrics["trace.unaccounted_s"]) < 0.05 * metrics["trace.wall_s"]
    if name == "rank_prune_20k":
        assert metrics["core.validate.calls"] == 4
        assert metrics["core.prune_to_core.rounds"] == 4
        assert metrics["core.prune_to_core.removed"] == 2 * 2 * 10 * 4
    if name == "crosscheck_500":
        assert metrics["kernels.walk_steps.steps"] == 200000
        assert metrics["walk.pagerank_power.iterations"] > 0
        assert metrics["laplacian.dense_mb"] > 0


def test_rank_corruption_is_caught(tmp_path):
    workload, inputs, cmds = _setup("rank_prune_20k", tmp_path)
    (res,) = _first_results(workload, inputs, cmds)
    lines = res.stdout.decode().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    swapped = workloads.Result(0, ("\n".join(lines) + "\n").encode(), res.stderr)
    assert workload.check(cmds[0], swapped, inputs)
    truncated = workloads.Result(0, res.stdout[:-20], res.stderr)
    assert workload.check(cmds[0], truncated, inputs)
    no_prune = workloads.Result(0, res.stdout, b"")
    assert workload.check(cmds[0], no_prune, inputs)


def test_ingest_corruption_is_caught(tmp_path):
    workload, inputs, cmds = _setup("ingest_reactions_20k", tmp_path)
    (res,) = _first_results(workload, inputs, cmds)
    truncated = workloads.Result(0, res.stdout, res.stderr, res.output[:-40])
    assert workload.check(cmds[0], truncated, inputs)
    doc = json.loads(res.output)
    doc["arcs"].pop()
    short = workloads.Result(0, res.stdout, res.stderr,
                             (json.dumps(doc, indent=2) + "\n").encode())
    assert workload.check(cmds[0], short, inputs)


def test_crosscheck_corruption_is_caught(tmp_path):
    workload, inputs, cmds = _setup("crosscheck_500", tmp_path)
    rank, lap, sim = _first_results(workload, inputs, cmds)
    lines = rank.stdout.decode().splitlines()
    lines[3] = lines[3].rsplit("\t", 1)[0] + "\t0.5"
    bad_rank = workloads.Result(0, ("\n".join(lines) + "\n").encode(), b"")
    assert workload.check(cmds[0], bad_rank, inputs)
    rows = lap.stdout.decode().splitlines()
    rows[0] = rows[0].replace("\t", "\t1", 1)
    bad_lap = workloads.Result(0, ("\n".join(rows) + "\n").encode(), b"")
    assert workload.check(cmds[1], bad_lap, inputs)
    bad_sim = workloads.Result(0, b"\n".join(sim.stdout.splitlines()[1:]) + b"\n", b"")
    assert workload.check(cmds[2], bad_sim, inputs)


def test_ledger_counts_exits_and_nondeterminism(tmp_path):
    workload, inputs, cmds = _setup("rank_prune_20k", tmp_path)
    (res,) = _first_results(workload, inputs, cmds)
    ledger = run.Ledger(workload, inputs)
    ledger.record(0, cmds[0], res, "pass 1")
    ledger.record(0, cmds[0], workloads.Result(1, b"", b"boom\n"), "pass 2")
    other = workloads.Result(0, res.stdout, res.stderr + b"extra\n")
    ledger.record(0, cmds[0], other, "pass 3")
    assert ledger.attempted == 3
    assert len(ledger.failures) == 2
    assert "exit 1" in ledger.failures[0]
    assert "differs from the first pass" in ledger.failures[1]


def test_refuses_to_run_without_sources(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, f"{bench.name}/run.py", "--workload",
                           "crosscheck_500", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
