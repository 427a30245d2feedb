import numpy as np
import pytest
from hypothesis import assume, given, settings

from hyperrank import (DirectedHypergraph, RankVector,
                       SparseRealMatrix, TransitionMatrix, build_laplacians,
                       build_transition, pagerank_power, prune_to_core,
                       spectral_report, stationary_dense_oracle)
from hyperrank.errors import (DenseLimitExceededError, MultipleSolutionsError,
                              NonpositivePiError, NotStationaryError)

import oracles
from randgen import hypergraphs, random_ergodic_hypergraph

EPS = np.finfo(float).eps


def _check_against_dense_oracle(P, pi) -> None:
    """The sparse pair equals the dense construction bit for bit, and each
    certificate bound lies below the smallest eigenvalue, up to a slack of
    64·n·eps (every entry of either matrix is at most 1 in magnitude)."""
    pair = build_laplacians(P, pi)
    L, L_sym, defect_u, defect_n = oracles.laplacians(P, pi)
    assert oracles.to_dense(pair.unnormalized).tobytes() == L.tobytes()
    assert oracles.to_dense(pair.symmetric_normalized).tobytes() == L_sym.tobytes()
    assert (pair.raw_defect_unnormalized, pair.raw_defect_normalized) == (defect_u, defect_n)
    report = spectral_report(pair)
    slack = 64 * P.n * EPS
    assert report.lower_bound_unnormalized <= oracles.min_eigenvalue(L) + slack
    assert report.lower_bound_normalized <= oracles.min_eigenvalue(L_sym) + slack


def test_two_cycle_closed_forms(two_cycle):
    P = build_transition(two_cycle)
    pi = pagerank_power(P)
    pair = build_laplacians(P, pi)
    np.testing.assert_allclose(pair.unnormalized.to_dense(),
                               [[0.5, -0.5], [-0.5, 0.5]], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair.symmetric_normalized.to_dense(),
                               [[1.0, -1.0], [-1.0, 1.0]], rtol=0, atol=1e-12)
    report = spectral_report(pair)
    assert report.symmetry_defect_unnormalized == 0.0
    assert report.symmetry_defect_normalized == 0.0
    assert report.ones_residual == 0.0
    assert report.sqrt_pi_residual == 0.0
    # eigenvalues of the closed forms are {0, 1} and {0, 2}; pi is exact
    assert abs(report.lower_bound_unnormalized) <= 1e-15
    assert abs(report.lower_bound_normalized) <= 1e-15


def test_null_vectors_on_hg3(hg3):
    P = build_transition(hg3)
    pi = stationary_dense_oracle(P)
    pair = build_laplacians(P, pi)
    n = pair.n
    assert np.abs(pair.unnormalized.to_dense() @ np.ones(n)).max() <= 1e-10
    assert np.abs(pair.symmetric_normalized.to_dense() @ np.sqrt(pi.values)).max() <= 1e-10
    report = spectral_report(pair)
    assert report.lower_bound_unnormalized >= -1e-9
    assert report.lower_bound_normalized >= -1e-9


def test_invariants_on_random_ergodic_fixtures():
    rng = np.random.default_rng(59)
    for _ in range(30):
        hg = random_ergodic_hypergraph(rng)
        P = build_transition(hg)
        pi = pagerank_power(P)
        pair = build_laplacians(P, pi)
        report = spectral_report(pair)
        assert report.symmetry_defect_unnormalized <= 1e-12
        assert report.symmetry_defect_normalized <= 1e-12
        assert report.ones_residual <= 1e-10
        assert report.sqrt_pi_residual <= 1e-10
        assert report.lower_bound_unnormalized >= -1e-9
        assert report.lower_bound_normalized >= -1e-9
        assert report.within()
        _check_against_dense_oracle(P, pi)


@settings(max_examples=300, deadline=None)
@given(hypergraphs())
def test_invariants_on_generated_cores(hg):
    # weights span 1e-9..1e9, so pi often has entries far below 1e-16
    core, _ = prune_to_core(hg)
    assume(core.n_vertices > 0)
    P = build_transition(core)
    try:
        pi = stationary_dense_oracle(P)
    except MultipleSolutionsError:
        assume(False)
    assume(pi.values.min() > 0.0)
    pair = build_laplacians(P, pi)
    assert spectral_report(pair).within()
    # an entry and its transpose take the same two products, added in
    # swapped order, so the matrices are exactly symmetric as built
    assert (pair.raw_defect_unnormalized, pair.raw_defect_normalized) == (0.0, 0.0)
    _check_against_dense_oracle(P, pi)


def test_matrices_are_symmetric_and_frozen(hg3):
    P = build_transition(hg3)
    pair = build_laplacians(P, pagerank_power(P))
    unnormalized = pair.unnormalized.to_dense()
    symmetric_normalized = pair.symmetric_normalized.to_dense()
    np.testing.assert_array_equal(unnormalized, unnormalized.T)
    np.testing.assert_array_equal(symmetric_normalized, symmetric_normalized.T)
    for frozen in (pair.unnormalized.data, pair.symmetric_normalized.data,
                   pair.ones_image):
        with pytest.raises(ValueError):
            frozen[0] = 9.0


def test_rejects_pi_with_zero_entry(two_disjoint_two_cycles):
    P = build_transition(two_disjoint_two_cycles)
    # stationary for the first block only; c and d carry zero mass
    pi = RankVector(P.vertex_order, np.array([0.5, 0.5, 0.0, 0.0]))
    with pytest.raises(NonpositivePiError) as exc:
        build_laplacians(P, pi)
    assert exc.value.vertex == "c"


def test_rejects_non_stationary_pi(hg3):
    P = build_transition(hg3)
    uniform = RankVector(P.vertex_order, np.full(3, 1 / 3))
    with pytest.raises(NotStationaryError) as exc:
        build_laplacians(P, uniform)
    assert exc.value.residual > 1e-2


def test_rejects_non_l1_pi(hg3):
    P = build_transition(hg3)
    pi = pagerank_power(P).with_normalization("l2")
    with pytest.raises(ValueError, match="L1"):
        build_laplacians(P, pi)


def test_rejects_mismatched_vertex_order(hg3, two_cycle):
    P = build_transition(hg3)
    other = pagerank_power(build_transition(two_cycle), damping=0.85)
    with pytest.raises(ValueError, match="vertex order"):
        build_laplacians(P, other)


def test_spectral_report_dense_limit(hg3, monkeypatch):
    # with the dense-solve limit below hg3's three vertices the dense
    # oracle refuses, while the Laplacians and their report are unlimited
    P = build_transition(hg3)
    pair = build_laplacians(P, pagerank_power(P))
    monkeypatch.setattr("hyperrank.walk.DENSE_LIMIT", 2)
    with pytest.raises(DenseLimitExceededError) as exc:
        stationary_dense_oracle(P)
    assert (exc.value.size, exc.value.limit) == (3, 2)
    assert spectral_report(pair).within()


def test_build_refuses_more_than_the_dense_limit_before_densifying(monkeypatch):
    # of the Laplacian pipeline only the dense stationary solve keeps the
    # limit: it refuses a 600-vertex cycle before densifying, and
    # build_laplacians takes the same cycle without densifying
    n = 600
    cycle = DirectedHypergraph.from_named_arcs(
        [(f"e{i}", [f"v{i}"], [f"v{(i + 1) % n}"], 1.0) for i in range(n)])
    P = build_transition(cycle)
    pi = RankVector(P.vertex_order, np.full(n, 1.0 / n))  # stationary: P is a permutation

    def densify(self):
        raise AssertionError("densified before the size check")

    monkeypatch.setattr(TransitionMatrix, "to_dense", densify)
    monkeypatch.setattr(SparseRealMatrix, "to_dense", densify)
    with pytest.raises(DenseLimitExceededError) as exc:
        stationary_dense_oracle(P)
    assert (exc.value.size, exc.value.limit) == (600, 512)
    pair = build_laplacians(P, pi)
    # diagonal plus the two cycle neighbours per row
    assert pair.unnormalized.nnz == pair.symmetric_normalized.nnz == 3 * n
    assert spectral_report(pair).within()


def test_build_beyond_the_dense_limit_never_densifies(monkeypatch):
    # each vertex leaves by a two-head arc and a one-head arc, so P is
    # doubly stochastic and the uniform start is already stationary
    n = 600
    hg = DirectedHypergraph.from_named_arcs(
        [(f"a{i}", [f"v{i}"], [f"v{(i + 1) % n}", f"v{(i + 2) % n}"], 1.0)
         for i in range(n)]
        + [(f"b{i}", [f"v{i}"], [f"v{(i + 3) % n}"], 1.0) for i in range(n)])
    P = build_transition(hg)
    pi = pagerank_power(P)
    L, L_sym, _, _ = oracles.laplacians(P, pi)

    def densify(self):
        raise AssertionError("densified")

    monkeypatch.setattr(TransitionMatrix, "to_dense", densify)
    monkeypatch.setattr(SparseRealMatrix, "to_dense", densify)
    pair = build_laplacians(P, pi)
    report = spectral_report(pair)
    assert pair.n == n
    # diagonal plus 6 neighbours per row: ±1, ±2, ±3
    assert pair.unnormalized.nnz == pair.symmetric_normalized.nnz == 7 * n
    assert oracles.to_dense(pair.unnormalized).tobytes() == L.tobytes()
    assert oracles.to_dense(pair.symmetric_normalized).tobytes() == L_sym.tobytes()
    assert report.within()


def test_uniform_pi_on_symmetric_chain(three_cycle):
    # a plain cycle is periodic, so take pi from the oracle; the resulting
    # Laplacians are circulant and exactly symmetric
    P = build_transition(three_cycle)
    pi = stationary_dense_oracle(P)
    pair = build_laplacians(P, pi)
    report = spectral_report(pair)
    assert report.ones_residual <= 1e-12
    assert report.sqrt_pi_residual <= 1e-12
