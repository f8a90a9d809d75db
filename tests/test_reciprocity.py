import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkgraph import (
    DirectedGraph,
    Direction,
    GeneratorConfig,
    PoissonDegreeLaw,
    ReciprocalKnnVariant,
    UndefinedStatisticError,
    avg_clustering_by_degree,
    clustering,
    conditional_means_nr,
    crossed_one_point_nr,
    decompose,
    degree_histogram,
    generate,
    r_degree_stats,
    reciprocal_knn,
    reciprocal_scatter,
    reciprocal_subgraph,
    undirected_view,
)

import oracles
from conftest import graph_of

# one mutual pair plus a detour: a <-> b, a -> c, c -> b
FIX_N = 3
FIX_EDGES = [(0, 1), (1, 0), (0, 2), (2, 1)]

R_VARIANT_AXES = {
    ReciprocalKnnVariant.IN_NN_OF_IN: ("in", "in"),
    ReciprocalKnnVariant.OUT_NN_OF_IN: ("in", "out"),
    ReciprocalKnnVariant.IN_NN_OF_OUT: ("out", "in"),
    ReciprocalKnnVariant.OUT_NN_OF_OUT: ("out", "out"),
}


def fixture_decomposition():
    return decompose(graph_of(FIX_N, FIX_EDGES))


class TestDecompose:
    def test_fixture_split(self):
        g = graph_of(FIX_N, FIX_EDGES)
        d = decompose(g)
        assert d.q_in.tolist() == [0, 1, 1]
        assert d.q_out.tolist() == [1, 0, 1]
        assert d.q_r.tolist() == [1, 1, 0]
        assert d.reciprocal_pairs.tolist() == [[0, 1]]
        one_way = ~g.mutual
        assert list(zip(g.fwd_rows[one_way].tolist(), g.fwd_targets[one_way].tolist())) == [
            (0, 2),
            (2, 1),
        ]
        assert d.reciprocity_fraction() == pytest.approx(0.5)

    def test_degree_split_identity(self, toy8):
        d = decompose(toy8)
        assert (d.q_in + d.q_r == toy8.in_degrees).all()
        assert (d.q_out + d.q_r == toy8.out_degrees).all()

    def test_no_mutual_edges(self, toy8):
        d = decompose(toy8)
        assert d.q_r.sum() == 0
        assert len(d.reciprocal_pairs) == 0
        assert d.reciprocity_fraction() == 0.0

    def test_all_mutual(self, make_graph):
        g = make_graph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        d = decompose(g)
        assert d.reciprocity_fraction() == 1.0
        assert d.q_r.tolist() == [1, 2, 1]

    def test_edgeless_fraction_raises(self, make_graph):
        with pytest.raises(UndefinedStatisticError):
            decompose(make_graph(2, [])).reciprocity_fraction()

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 40))
            edges = oracles.random_digraph(rng, n, 0.25)
            if not edges:
                continue
            d = decompose(graph_of(n, edges))
            q_in, q_out, q_r, pairs = oracles.reciprocity_bruteforce(n, edges)
            assert d.q_in.tolist() == q_in
            assert d.q_out.tolist() == q_out
            assert d.q_r.tolist() == q_r
            assert {tuple(p) for p in d.reciprocal_pairs.tolist()} == pairs

    def test_r_degree_stats(self):
        d = fixture_decomposition()
        hist, summary = r_degree_stats(d)
        assert hist.direction is Direction.RECIPROCAL
        assert summary.mean == pytest.approx(2 / 3)


def random_graphs(seed=41, count=20):
    """Random digraphs with sparse 40-bit ids on every other one, after
    the empty and the edgeless graph."""
    rng = np.random.default_rng(seed)
    yield DirectedGraph.from_edges(0, [], []), []
    yield graph_of(5, []), []
    for i in range(count):
        n = int(rng.integers(2, 40))
        edges = oracles.random_digraph(rng, n, float(rng.uniform(0.02, 0.4)))
        ids = np.sort(rng.choice(2**40, size=n, replace=False)) if i % 2 else None
        src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        yield DirectedGraph.from_edges(n, src, dst, ids), edges


class TestMutualMask:
    def test_matches_reverse_edge_presence(self):
        for g, edges in random_graphs():
            es = set(edges)
            forward = zip(g.fwd_rows.tolist(), g.fwd_targets.tolist())
            assert g.mutual.tolist() == [(v, u) in es for u, v in forward]

    def test_subgraph_is_the_view_of_the_mutual_edges(self):
        for g, edges in random_graphs():
            es = set(edges)
            mutual = [(u, v) for u, v in edges if (v, u) in es]
            src, dst = np.array(mutual, dtype=np.int64).reshape(-1, 2).T
            want = undirected_view(DirectedGraph.from_edges(g.node_count, src, dst))
            d = decompose(g)
            assert np.array_equal(d.subgraph.offsets, want.offsets)
            assert np.array_equal(d.subgraph.targets, want.targets)
            assert d.subgraph.original_ids is g.original_ids
            assert np.array_equal(d.subgraph.degrees, d.q_r)
            assert reciprocal_subgraph(d) is d.subgraph

    def test_computed_once_and_read_only(self):
        g, _ = generate(GeneratorConfig(500, PoissonDegreeLaw(4.0), PoissonDegreeLaw(4.0), 0.3, 3))
        left = g._mutual  # the realized reciprocity of the report read it
        assert left is not None
        decompose(g)
        degree_histogram(g, Direction.RECIPROCAL)
        assert g.mutual is left
        with pytest.raises(ValueError, match="read-only"):
            left[0] = not left[0]


class TestCrossedRatios:
    def test_fixture_all_three(self):
        ratios = crossed_one_point_nr(fixture_decomposition())
        for name in ("q_in_q_out", "q_in_q_r", "q_out_q_r"):
            assert ratios[name].value == pytest.approx(0.75)
            assert ratios[name].note is None

    def test_zero_mean_flagged(self, toy8):
        # toy8 has no mutual edges at all, so <q_r> = 0
        ratios = crossed_one_point_nr(decompose(toy8))
        assert ratios["q_in_q_r"].value is None
        assert ratios["q_in_q_r"].note is not None
        assert ratios["q_in_q_out"].value is not None


class TestConditionalMeans:
    def test_fixture_profiles(self):
        profs = conditional_means_nr(fixture_decomposition())
        qo = profs["q_out_given_q_in"]
        assert dict(zip(qo.degrees.tolist(), qo.mean_raw.tolist())) == {0: 1.0, 1: 0.5}
        assert qo.normalization == pytest.approx(2 / 3)
        qr_in = profs["q_r_given_q_in"]
        assert dict(zip(qr_in.degrees.tolist(), qr_in.mean_raw.tolist())) == {
            0: 1.0,
            1: 0.5,
        }
        qr_out = profs["q_r_given_q_out"]
        got = dict(zip(qr_out.degrees.tolist(), qr_out.mean_normalized.tolist()))
        assert got[0] == pytest.approx(1.5)
        assert got[1] == pytest.approx(0.75)

    def test_class_zero_participates(self):
        profs = conditional_means_nr(fixture_decomposition())
        assert 0 in profs["q_out_given_q_in"].degrees.tolist()


class TestReciprocalSubgraph:
    def test_degrees_equal_q_r(self):
        rng = np.random.default_rng(32)
        edges = oracles.random_digraph(rng, 30, 0.3)
        d = decompose(graph_of(30, edges))
        sub = reciprocal_subgraph(d)
        assert (sub.degrees == d.q_r).all()


class TestReciprocalKnn:
    @pytest.mark.parametrize("variant", list(ReciprocalKnnVariant))
    def test_matches_bruteforce(self, variant):
        cond, qty = R_VARIANT_AXES[variant]
        rng = np.random.default_rng(33)
        checked = 0
        for _ in range(12):
            n = int(rng.integers(4, 35))
            edges = oracles.random_digraph(rng, n, 0.3)
            d = decompose(graph_of(n, edges))
            if d.q_r.sum() == 0:
                continue
            p = reciprocal_knn(d, variant)
            want = oracles.reciprocal_knn_bruteforce(n, edges, cond, qty)
            got = dict(zip(p.degrees.tolist(), p.mean_raw.tolist()))
            assert got.keys() == want.keys()
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-12)
            checked += 1
        assert checked > 5

    def test_planted_assortative_profile_increases(self):
        # mutually paired nodes share their q_in level; levels span two
        # orders of magnitude, so the profile must climb monotonically
        edges = []
        n = 0
        levels = [2**j for j in range(8)]
        for level in levels:
            a, b = n, n + 1
            n += 2
            edges += [(a, b), (b, a)]
            for node in (a, b):
                for _ in range(level):
                    edges.append((n, node))
                    n += 1
        d = decompose(graph_of(n, edges))
        p = reciprocal_knn(d, ReciprocalKnnVariant.IN_NN_OF_IN)
        got = dict(zip(p.degrees.tolist(), p.mean_raw.tolist()))
        assert sorted(got) == levels
        for level in levels:
            assert got[level] == pytest.approx(level)

    def test_no_mutual_links_flagged(self, toy8):
        p = reciprocal_knn(decompose(toy8), ReciprocalKnnVariant.IN_NN_OF_IN)
        assert p.mean_normalized is None
        assert len(p.degrees) == 0

    def test_normalizer_value(self):
        d = fixture_decomposition()
        p = reciprocal_knn(d, ReciprocalKnnVariant.IN_NN_OF_IN)
        # <q_r q_in>/<q_r> = (0*1 + 1*1 + 0*1) / 2
        assert p.normalization == pytest.approx(0.5)


class TestClustering:
    def test_mutual_triangle_fully_clustered(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0)]
        d = decompose(graph_of(3, edges))
        sub = reciprocal_subgraph(d)
        for node in range(3):
            assert clustering(sub, node) == pytest.approx(1.0)
        p = avg_clustering_by_degree(sub)
        assert dict(zip(p.degrees.tolist(), p.mean_raw.tolist())) == {2: 1.0}

    def test_mutual_star_hub_unclustered(self):
        edges = []
        for leaf in range(1, 5):
            edges += [(0, leaf), (leaf, 0)]
        d = decompose(graph_of(5, edges))
        sub = reciprocal_subgraph(d)
        assert clustering(sub, 0) == pytest.approx(0.0)
        with pytest.raises(UndefinedStatisticError):
            clustering(sub, 1)  # leaves have q_r = 1

    def test_out_of_range_node(self):
        d = fixture_decomposition()
        with pytest.raises(IndexError):
            clustering(reciprocal_subgraph(d), 99)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            n = int(rng.integers(4, 30))
            edges = oracles.random_digraph(rng, n, 0.35)
            d = decompose(graph_of(n, edges))
            sub = reciprocal_subgraph(d)
            pairs = [tuple(p) for p in d.reciprocal_pairs.tolist()]
            want = oracles.clustering_bruteforce(n, pairs)
            for node, c in want.items():
                assert clustering(sub, node) == pytest.approx(c, abs=1e-12)

    def test_profile_is_unnormalized(self):
        d = fixture_decomposition()
        p = avg_clustering_by_degree(reciprocal_subgraph(d))
        assert p.normalization is None
        assert p.mean_normalized is None


class TestScatter:
    def test_shares_the_subgraph_triangle_count(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (2, 3), (3, 2)]
        d = decompose(graph_of(4, edges))
        sub = reciprocal_subgraph(d)
        avg_clustering_by_degree(sub)
        counted = sub.triangles
        reciprocal_scatter(d)
        assert sub.triangles is counted
        assert counted.tolist() == [1, 1, 1, 0]

    def test_columns_and_membership(self):
        rng = np.random.default_rng(35)
        edges = oracles.random_digraph(rng, 25, 0.3)
        d = decompose(graph_of(25, edges))
        sub = reciprocal_subgraph(d)
        rows = reciprocal_scatter(d)
        members = np.flatnonzero(d.q_r >= 1)
        assert rows.shape == (len(members), 4)
        assert rows[:, 0].astype(int).tolist() == members.tolist()
        assert (rows[:, 1] == d.q_r[members]).all()
        want_c = oracles.clustering_bruteforce(
            25, [tuple(p) for p in d.reciprocal_pairs.tolist()]
        )
        for node, q_r, _, c in rows.tolist():
            if q_r < 2:
                assert np.isnan(c)
            else:
                assert c == pytest.approx(want_c[int(node)], abs=1e-12)


def hub_heavy(clique=8, fan=2000):
    """Hub 0 joined to every node of a clique and of a long path (a fan)."""
    pairs = [(u, v) for u in range(1, clique + 1) for v in range(u + 1, clique + 1)]
    pairs += [(0, v) for v in range(1, clique + fan + 1)]
    first = clique + 1
    pairs += [(v, v + 1) for v in range(first, first + fan - 1)]
    return clique + fan + 1, pairs


# triangular prism: every degree is 3, so the orientation rests on ids alone
PRISM = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]


class TestTriangleKernel:
    @pytest.mark.parametrize(
        "n, pairs",
        [
            (0, []),
            (3, []),
            (2, [(0, 1)]),
            (6, [(0, leaf) for leaf in range(1, 6)]),
            (6, [(u, v) for u in range(6) for v in range(u + 1, 6)]),
            (6, PRISM),
            hub_heavy(),
        ],
        ids=["empty", "edgeless", "edge", "star", "clique", "ties", "hub"],
    )
    def test_matches_bruteforce(self, n, pairs):
        sub = undirected_view(graph_of(n, pairs))
        assert sub.triangles.tolist() == oracles.triangles_bruteforce(n, pairs)

    def test_hub_costs_no_more_than_its_edges(self):
        # wedges are listed only in degree-ordered rows; listed in the hub's
        # row they would number fan^2 / 2, about 2M here
        n, pairs = hub_heavy()
        sub = undirected_view(graph_of(n, pairs))
        tracemalloc.start()
        try:
            counts = sub.triangles
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert int(counts[0]) == 28 + 1999  # clique pairs, then path links
        assert peak < 256 * len(sub.targets)


@st.composite
def undirected_pair_lists(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    if n < 2:
        return n, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pair, max_size=120))


@given(undirected_pair_lists())
@settings(max_examples=50, deadline=None)
def test_triangles_match_bruteforce(case):
    n, pairs = case
    sub = undirected_view(graph_of(n, pairs))
    assert sub.triangles.tolist() == oracles.triangles_bruteforce(n, pairs)


@st.composite
def digraph_edge_sets(draw):
    n = draw(st.integers(min_value=2, max_value=20))
    m = draw(st.integers(min_value=1, max_value=60))
    edges = {
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    }
    return n, sorted((u, v) for u, v in edges if u != v)


@given(digraph_edge_sets())
@settings(max_examples=60, deadline=None)
def test_decomposition_identities(case):
    n, edges = case
    if not edges:
        return
    g = graph_of(n, edges)
    d = decompose(g)
    assert (d.q_in + d.q_r == g.in_degrees).all()
    assert (d.q_out + d.q_r == g.out_degrees).all()
    assert int(d.q_r.sum()) == 2 * len(d.reciprocal_pairs)
    es = set(edges)
    one_way = {(u, v) for u, v in es if (v, u) not in es}
    got = set(zip(g.fwd_rows[~g.mutual].tolist(), g.fwd_targets[~g.mutual].tolist()))
    assert got == one_way
    assert d.reciprocal_edge_count + len(one_way) == g.edge_count
