import numpy as np
import pytest
from hypothesis import assume, given, settings

from hyperrank import (DirectedHypergraph, PowerOptions, RankVector,
                       TransitionMatrix, build_laplacians, build_transition,
                       pagerank_power, prune_to_core, spectral_report,
                       stationary_dense_oracle)
from hyperrank.errors import (DenseLimitExceededError, MultipleSolutionsError,
                              NonpositivePiError, NotStationaryError)

from randgen import hypergraphs, random_ergodic_hypergraph


def test_two_cycle_closed_forms(two_cycle):
    P = build_transition(two_cycle)
    pi = pagerank_power(P)
    pair = build_laplacians(P, pi)
    np.testing.assert_allclose(pair.unnormalized,
                               [[0.5, -0.5], [-0.5, 0.5]], rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair.symmetric_normalized,
                               [[1.0, -1.0], [-1.0, 1.0]], rtol=0, atol=1e-12)
    report = spectral_report(pair)
    assert report.symmetry_defect_unnormalized == 0.0
    assert report.symmetry_defect_normalized == 0.0
    assert report.ones_residual == 0.0
    assert report.sqrt_pi_residual == 0.0
    # eigenvalues of the closed forms are {0, 1} and {0, 2}
    assert abs(report.min_eigenvalue_unnormalized) <= 1e-15
    assert abs(report.min_eigenvalue_normalized) <= 1e-15


def test_null_vectors_on_hg3(hg3):
    P = build_transition(hg3)
    pi = stationary_dense_oracle(P)
    pair = build_laplacians(P, pi)
    n = pair.n
    assert np.abs(pair.unnormalized @ np.ones(n)).max() <= 1e-10
    assert np.abs(pair.symmetric_normalized @ np.sqrt(pi.values)).max() <= 1e-10
    report = spectral_report(pair)
    assert report.min_eigenvalue_unnormalized >= -1e-9
    assert report.min_eigenvalue_normalized >= -1e-9


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
        assert report.min_eigenvalue_unnormalized >= -1e-9
        assert report.min_eigenvalue_normalized >= -1e-9
        assert report.within()


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
    assert spectral_report(build_laplacians(P, pi)).within()


def test_matrices_are_symmetric_and_frozen(hg3):
    P = build_transition(hg3)
    pair = build_laplacians(P, pagerank_power(P))
    np.testing.assert_array_equal(pair.unnormalized, pair.unnormalized.T)
    np.testing.assert_array_equal(pair.symmetric_normalized,
                                  pair.symmetric_normalized.T)
    with pytest.raises(ValueError):
        pair.unnormalized[0, 0] = 9.0


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
    pi = pagerank_power(P, PowerOptions(normalization="l2"))
    with pytest.raises(ValueError, match="L1"):
        build_laplacians(P, pi)


def test_rejects_mismatched_vertex_order(hg3, two_cycle):
    P = build_transition(hg3)
    other = pagerank_power(build_transition(two_cycle), PowerOptions(damping=0.85))
    with pytest.raises(ValueError, match="vertex order"):
        build_laplacians(P, other)


def test_spectral_report_dense_limit(hg3, monkeypatch):
    P = build_transition(hg3)
    pair = build_laplacians(P, pagerank_power(P))
    monkeypatch.setattr("hyperrank.laplacian.DENSE_LIMIT", 2)
    with pytest.raises(DenseLimitExceededError) as exc:
        spectral_report(pair)
    assert (exc.value.size, exc.value.limit) == (3, 2)


def test_build_refuses_more_than_the_dense_limit_before_densifying(monkeypatch):
    n = 600
    cycle = DirectedHypergraph.from_named_arcs(
        [(f"e{i}", [f"v{i}"], [f"v{(i + 1) % n}"], 1.0) for i in range(n)])
    P = build_transition(cycle)
    pi = RankVector(P.vertex_order, np.full(n, 1.0 / n))  # stationary: P is a permutation

    def densify(self):
        raise AssertionError("densified before the size check")

    monkeypatch.setattr(TransitionMatrix, "to_dense", densify)
    with pytest.raises(DenseLimitExceededError) as exc:
        build_laplacians(P, pi)
    assert (exc.value.size, exc.value.limit) == (600, 512)


def test_uniform_pi_on_symmetric_chain(three_cycle):
    # a plain cycle is periodic, so take pi from the oracle; the resulting
    # Laplacians are circulant and exactly symmetric
    P = build_transition(three_cycle)
    pi = stationary_dense_oracle(P)
    pair = build_laplacians(P, pi)
    report = spectral_report(pair)
    assert report.ones_residual <= 1e-12
    assert report.sqrt_pi_residual <= 1e-12
