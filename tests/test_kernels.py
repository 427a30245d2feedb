"""Kernel checks: the SpMV against its loop oracle, and backend parity of
the walk stepper where the compiled extension is built."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperrank
from hyperrank import _kernels, simulate_walk
from hyperrank._kernels import _pykernels
from hyperrank.walk import _walk_tables

import oracles
from randgen import random_pruned_hypergraph

try:
    from hyperrank._kernels import _ckernels
except ImportError:
    _ckernels = None

needs_ckernels = pytest.mark.skipif(
    _ckernels is None, reason="compiled kernels unavailable; install built the pure fallback")


def _random_csr_arrays(rng, rows, cols, density=0.4):
    dense = rng.random((rows, cols))
    dense[dense > density] = 0.0
    indptr = [0]
    indices = []
    data = []
    for i in range(rows):
        js = np.flatnonzero(dense[i])
        indices.extend(int(j) for j in js)
        data.extend(float(x) for x in dense[i, js])
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(data), dense)


def test_csr_left_multiply_matches_loop_oracle_bitwise():
    rng = np.random.default_rng(61)
    for _ in range(30):
        rows = int(rng.integers(1, 40))
        cols = int(rng.integers(1, 40))
        indptr, indices, data, dense = _random_csr_arrays(rng, rows, cols)
        x = rng.random(rows)
        out = np.full(cols, np.nan)
        expected = np.zeros(cols)
        _kernels.csr_left_multiply(indptr, indices, data, x, out)
        oracles.csr_left_multiply(indptr, indices, data, x, expected)
        assert out.tobytes() == expected.tobytes()
        np.testing.assert_allclose(out, x @ dense, rtol=0, atol=1e-13)


def test_python_walk_steps_match_the_loop_oracle_across_blocks():
    rng = np.random.default_rng(67)
    hg = random_pruned_hypergraph(rng)
    t = _walk_tables(hg)
    tables = (t.arc_ptr, t.arc_cum, t.arc_of_slot, t.head_ptr, t.head_verts)
    n = 2 * _pykernels._BLOCK + 123
    draws = rng.random((2, n))
    draws[:, ::97] = 1.0  # past every cumulative bound, so both clamps run
    counts = np.zeros(hg.n_vertices, dtype=np.int64)
    expected = np.zeros(hg.n_vertices, dtype=np.int64)
    end = _pykernels.walk_steps(*tables, 0, draws[0], draws[1], counts)
    assert end == oracles.walk_steps(*tables, 0, draws[0], draws[1], expected)
    assert counts.tolist() == expected.tolist()


@needs_ckernels
def test_walk_steps_parity():
    rng = np.random.default_rng(67)
    for _ in range(10):
        hg = random_pruned_hypergraph(rng, max_vertices=12, max_arcs=25)
        tables = _walk_tables(hg)
        draws = rng.random((2, 5000))
        counts_c = np.zeros(hg.n_vertices, dtype=np.int64)
        counts_py = np.zeros(hg.n_vertices, dtype=np.int64)
        final_c = _ckernels.walk_steps(tables.arc_ptr, tables.arc_cum,
                                       tables.arc_of_slot, tables.head_ptr,
                                       tables.head_verts, 0, draws[0], draws[1],
                                       counts_c)
        final_py = _pykernels.walk_steps(tables.arc_ptr, tables.arc_cum,
                                         tables.arc_of_slot, tables.head_ptr,
                                         tables.head_verts, 0, draws[0], draws[1],
                                         counts_py)
        assert final_c == final_py
        np.testing.assert_array_equal(counts_c, counts_py)
        assert counts_c.sum() == 5000


@needs_ckernels
def test_walk_steps_handles_boundary_draws():
    # draws of exactly 0.0 and values just below 1.0 must stay in range
    hg = random_pruned_hypergraph(np.random.default_rng(71), max_vertices=6,
                                  max_arcs=10)
    tables = _walk_tables(hg)
    edge = np.full(64, np.nextafter(1.0, 0.0))
    zero = np.zeros(64)
    for r_arc, r_head in ((edge, edge), (zero, zero), (edge, zero), (zero, edge)):
        counts_c = np.zeros(hg.n_vertices, dtype=np.int64)
        counts_py = np.zeros(hg.n_vertices, dtype=np.int64)
        fc = _ckernels.walk_steps(tables.arc_ptr, tables.arc_cum,
                                  tables.arc_of_slot, tables.head_ptr,
                                  tables.head_verts, 0, r_arc, r_head, counts_c)
        fp = _pykernels.walk_steps(tables.arc_ptr, tables.arc_cum,
                                   tables.arc_of_slot, tables.head_ptr,
                                   tables.head_verts, 0, r_arc, r_head, counts_py)
        assert fc == fp
        np.testing.assert_array_equal(counts_c, counts_py)


def test_backend_is_compiled_exactly_when_the_extension_imports():
    assert hyperrank.KERNEL_BACKEND == ("python" if _ckernels is None else "cython")
    expected = _pykernels if _ckernels is None else _ckernels
    assert _kernels.walk_steps is expected.walk_steps


@needs_ckernels
def test_simulation_identical_across_backends(hg3, monkeypatch):
    runs = []
    for backend in (_ckernels, _pykernels):
        monkeypatch.setattr(_kernels, "walk_steps", backend.walk_steps)
        runs.append(simulate_walk(hg3, "v1", 50000, seed=3))
    assert runs[0] == runs[1]


def test_bench_kernels_runs_at_tiny_size():
    script = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_kernels.py"
    src = str(Path(hyperrank.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, str(script), "--vertices", "50",
                           "--arcs", "150", "--steps", "1000"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "network: 50 vertices, 150 arcs" in proc.stdout
