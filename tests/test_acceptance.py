"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report lines; plain ``pytest`` shows the same information through the test
names and outcomes.
"""

import os
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from hyperrank import (DirectedHypergraph, build_laplacians, build_transition,
                       pagerank_power, parse_reactions_text, prune_to_core,
                       reactions_to_hypergraph, save_canonical, simulate_walk,
                       spectral_report, stationary_dense_oracle,
                       load_canonical, top_k, tv_distance)
from hyperrank.cli import main
from hyperrank.errors import IngestError, NoConvergenceError
from hyperrank.ingest import _parse_reaction_line

import oracles
from randgen import (latin1_lines, random_ergodic_hypergraph, random_hypergraph,
                     random_pruned_hypergraph)


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


@lru_cache(maxsize=1)
def _ergodic_fixtures() -> tuple:
    rng = np.random.default_rng(90210)
    return tuple(random_ergodic_hypergraph(rng) for _ in range(200))


def test_criterion_1_row_stochasticity():
    rng = np.random.default_rng(1001)
    failures = 0
    for _ in range(1000):
        hg = random_pruned_hypergraph(rng)  # 2-30 vertices, 1-60 arcs, w in (0,10]
        P = build_transition(hg)
        if P.row_sum_defect() > 1e-12 or P.matrix.data.min() < 0.0:
            failures += 1
    _criterion("criterion 1 (row stochasticity, 1000 pruned instances)",
               failures == 0, f"{failures} failures")


def test_criterion_2_oracle_equivalence():
    worst = 0.0
    for hg in _ergodic_fixtures():
        P = build_transition(hg)
        power = pagerank_power(P)  # damping 1, tol 1e-10
        oracle = stationary_dense_oracle(P)
        worst = max(worst, float(np.abs(power.values - oracle.values).max()))
    _criterion("criterion 2 (power vs dense oracle, 200 ergodic instances)",
               worst <= 1e-8, f"worst inf-norm gap {worst:.3e}")


def test_criterion_3_hg3_fixture(hg3, tmp_path, capsys):
    rank = pagerank_power(build_transition(hg3))
    gap = float(np.abs(rank.values - np.array([0.4, 0.2, 0.4])).max())

    path = tmp_path / "hg3.json"
    path.write_text(save_canonical(hg3))
    code = main(["rank", str(path), "--top", "3"])
    out = capsys.readouterr().out
    expected_rows = ["1\tv1\t0.4000", "2\tv3\t0.4000", "3\tv2\t0.2000"]
    rows_ok = out.splitlines()[1:] == expected_rows
    _criterion("criterion 3 (HG3 stationary vector and CLI table)",
               gap <= 1e-9 and code == 0 and rows_ok,
               f"max gap {gap:.2e}")


def test_criterion_4_monte_carlo_consistency(hg3):
    fixture_b = DirectedHypergraph.from_named_arcs([
        ("c0", ["v0"], ["v1"], 1.0),
        ("c1", ["v1"], ["v2"], 2.0),
        ("c2", ["v2"], ["v3"], 1.0),
        ("c3", ["v3"], ["v0"], 3.0),
        ("b2", ["v1"], ["v0"], 1.5),
        ("b3", ["v2"], ["v0"], 0.5),
    ])
    fixture_c = DirectedHypergraph.from_named_arcs([
        ("e1", ["a"], ["b", "c"], 2.0),
        ("e2", ["b"], ["c"], 1.0),
        ("e3", ["c"], ["d", "e"], 1.0),
        ("e4", ["d"], ["a"], 1.0),
        ("e5", ["e"], ["a", "b"], 3.0),
    ])
    worst = 0.0
    for hg in (hg3, fixture_b, fixture_c):
        P = build_transition(hg)
        pi = pagerank_power(P)
        for seed in (101, 202, 303):
            freq = simulate_walk(hg, hg.vertices[0], 10 ** 6, seed=seed)
            worst = max(worst, tv_distance(freq, pi))
    _criterion("criterion 4 (Monte Carlo vs analytic, 3 fixtures x 3 seeds)",
               worst <= 0.01, f"worst TV {worst:.4f}")


def test_criterion_5_laplacian_invariants(two_cycle):
    worst_defect = worst_null = 0.0
    worst_bound = worst_eig = np.inf
    for hg in _ergodic_fixtures():
        P = build_transition(hg)
        pair = build_laplacians(P, pagerank_power(P))
        report = spectral_report(pair)
        worst_defect = max(worst_defect, report.symmetry_defect_unnormalized,
                           report.symmetry_defect_normalized)
        worst_null = max(worst_null, report.ones_residual,
                         report.sqrt_pi_residual)
        worst_bound = min(worst_bound, report.lower_bound_unnormalized,
                          report.lower_bound_normalized)
        worst_eig = min(worst_eig,
                        oracles.min_eigenvalue(pair.unnormalized.to_dense()),
                        oracles.min_eigenvalue(pair.symmetric_normalized.to_dense()))
    random_ok = (worst_defect <= 1e-12 and worst_null <= 1e-10
                 and worst_bound >= -1e-9 and worst_eig >= -1e-9)

    P2 = build_transition(two_cycle)
    pair2 = build_laplacians(P2, pagerank_power(P2))
    closed_ok = (np.abs(pair2.unnormalized.to_dense()
                        - np.array([[0.5, -0.5], [-0.5, 0.5]])).max() <= 1e-12
                 and np.abs(pair2.symmetric_normalized.to_dense()
                            - np.array([[1.0, -1.0], [-1.0, 1.0]])).max() <= 1e-12)
    _criterion("criterion 5 (Laplacian invariants and 2-cycle closed forms)",
               random_ok and closed_ok,
               f"defect {worst_defect:.1e}, null {worst_null:.1e}, "
               f"eigenvalue lower bound {worst_bound:.1e}, min eig {worst_eig:.1e}")


def test_criterion_6_pruning(chain, three_cycle):
    chain_core, _ = prune_to_core(chain)
    cycle_core, cycle_events = prune_to_core(three_cycle)
    rng = np.random.default_rng(1006)
    idempotent = True
    for _ in range(1000):
        hg = random_hypergraph(rng)
        once, _ = prune_to_core(hg)
        twice, _ = prune_to_core(once)
        if twice != once:
            idempotent = False
            break
    _criterion("criterion 6 (pruning: cascade, no-op, idempotence x1000)",
               chain_core.n_vertices == 0 and chain_core.n_arcs == 0
               and cycle_core == three_cycle and cycle_events == []
               and idempotent)


TABLE_VALUES = (0.6366, 0.2640, 0.2321, 0.2180, 0.2087,
                0.2039, 0.2006, 0.1941, 0.1798, 0.1701)
TABLE_NAMES = ("H", "Nicotinamide-adenine-dinucleotide-reduced", "ADP",
               "Phosphate", "ATP", "Nicotinamide-adenine-dinucleotide-phosphate",
               "H", "Pyruvate", "Nicotinamide-adenine-dinucleotide",
               "Coenzyme-A")


def _normalize_name(name: str) -> str:
    return "".join(c for c in name.lower() if c.isalnum())


def test_criterion_7_metabolic_network_reproduction():
    path = os.environ.get("HYPERRANK_ECOLI_REACTIONS", "")
    if not path or not Path(path).exists():
        print("[acceptance] criterion 7 (metabolic-network reproduction): "
              "UNMET-EXTERNAL (reaction file not provided; set "
              "HYPERRANK_ECOLI_REACTIONS to a converted dataset)")
        pytest.skip("unmet-external: upstream metabolic dataset not available")
    records = parse_reactions_text(Path(path).read_text(encoding="utf-8"))
    attempts = {}
    for policy in ("split", "forward-only"):
        hg, _ = reactions_to_hypergraph(records, policy)
        pruned, _ = prune_to_core(hg)
        reactions = {arc_id.removesuffix("_fwd").removesuffix("_rev")
                     for arc_id in pruned.arc_ids}
        P = build_transition(pruned)
        try:
            rank = pagerank_power(P).with_normalization("l2")
        except NoConvergenceError:
            rank = stationary_dense_oracle(P).with_normalization("l2")
        rows = top_k(rank, 10, round_to=4)
        values_ok = all(abs(v - e) <= 0.01
                        for (_, v), e in zip(rows, TABLE_VALUES))
        got = Counter(_normalize_name(name) for name, _ in rows)
        want = Counter(_normalize_name(name) for name in TABLE_NAMES)
        matched = sum((got & want).values())
        ok = (pruned.n_vertices == 50 and len(reactions) == 75
              and values_ok and matched >= 8
              and _normalize_name(rows[0][0]) == "h")
        attempts[policy] = (ok, pruned.n_vertices, len(reactions),
                            rows[0][1], matched)
        if ok:
            break
    ok = any(flag for flag, *_ in attempts.values())
    detail = "; ".join(
        f"{policy}: core {nv}v/{nr}r, top {top:.4f}, names {m}/10"
        for policy, (flag, nv, nr, top, m) in attempts.items())
    _criterion("criterion 7 (metabolic-network reproduction)", ok, detail)


def test_criterion_8_parser_suite():
    rng = np.random.default_rng(1008)
    round_trip_failures = 0
    for _ in range(1000):
        hg = random_hypergraph(rng, max_vertices=12, max_arcs=20)
        if load_canonical(save_canonical(hg)) != hg:
            round_trip_failures += 1

    fuzz_failures = 0
    for i, line in enumerate(latin1_lines(rng, 2000)):
        try:
            _parse_reaction_line(line, line_no=i + 1)
        except IngestError as exc:
            if exc.line != i + 1 or (exc.column is not None and exc.column < 1):
                fuzz_failures += 1
        except Exception:
            fuzz_failures += 1
    _criterion("criterion 8 (round-trip x1000 and parser fuzz x2000)",
               round_trip_failures == 0 and fuzz_failures == 0,
               f"{round_trip_failures} round-trip, {fuzz_failures} fuzz failures")
