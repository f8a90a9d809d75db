import dataclasses
import tracemalloc

import numpy as np
import pytest

from linkgraph import (
    DirectedGraph,
    KnnVariant,
    UndefinedStatisticError,
    avg_out_given_in,
    crossed_one_point,
    decompose,
    directed_knn,
    knn_undirected,
    undirected_view,
)
from linkgraph import correlations
from linkgraph.correlations import class_profile, normalized_product_ratio

import oracles
from conftest import graph_of

VARIANT_AXES = {
    KnnVariant.IN_NN_OF_IN: ("in", "in"),
    KnnVariant.OUT_NN_OF_IN: ("in", "out"),
    KnnVariant.IN_NN_OF_OUT: ("out", "in"),
    KnnVariant.OUT_NN_OF_OUT: ("out", "out"),
}


def profile_as_dict(profile, normalized=False):
    ys = profile.mean_normalized if normalized else profile.mean_raw
    return dict(zip(profile.degrees.tolist(), ys.tolist()))


class TestClassProfile:
    X = np.array([3, 1, 3, 3, 0, 1])
    V = np.array([1.0, 2.0, 4.0, 7.0, 5.0, 6.0])

    def test_classes_means_and_stderr(self):
        mask = np.array([True, True, True, True, True, False])
        p = class_profile(self.X, self.V, mask, 2.0, "k", "y")
        assert p.degrees.tolist() == [0, 1, 3] and p.degrees.dtype == np.int64
        assert p.n_k.tolist() == [1, 1, 3] and p.n_k.dtype == np.int64
        assert p.mean_raw.tolist() == [5.0, 2.0, 4.0]
        assert p.mean_normalized.tolist() == [2.5, 1.0, 2.0]
        assert p.normalization == 2.0 and p.note is None
        # singleton classes have no spread to estimate
        assert np.isnan(p.stderr[:2]).all()
        assert p.stderr[2] == pytest.approx(np.std([1.0, 4.0, 7.0], ddof=1) / np.sqrt(3))

    @pytest.mark.parametrize("normalization", [None, 0, 0.0])
    def test_missing_normalizer(self, normalization):
        p = class_profile(self.X, self.V, self.X >= 0, normalization, "k", "y")
        assert p.mean_raw.tolist() == [5.0, 4.0, 4.0]
        assert p.mean_normalized is None and p.normalization is None
        assert p.note == "normalization undefined"

    def test_empty_mask_keeps_normalizer(self):
        p = class_profile(self.X, self.V, self.X < 0, 2.0, "k", "y")
        for arr in (p.degrees, p.n_k):
            assert arr.shape == (0,) and arr.dtype == np.int64
        for arr in (p.mean_raw, p.mean_normalized, p.stderr):
            assert arr.shape == (0,) and arr.dtype == np.float64
        assert p.normalization == 2.0
        assert p.note == "no qualifying nodes"

    @pytest.mark.parametrize("normalization", [None, 0])
    def test_empty_mask_without_normalizer(self, normalization):
        p = class_profile(self.X, self.V, self.X < 0, normalization, "k", "y")
        assert len(p.degrees) == 0 and len(p.mean_raw) == 0
        assert p.mean_normalized is None and p.normalization is None
        # the empty mask is named, not the normalizer
        assert p.note == "no qualifying nodes"

    @pytest.mark.parametrize(
        "empty, normalization", [(True, 2.0), (True, None), (False, None), (False, 2.0)]
    )
    def test_given_note_wins(self, empty, normalization):
        mask = self.X < 0 if empty else self.X >= 0
        p = class_profile(self.X, self.V, mask, normalization, "k", "y", note="caller")
        assert p.note == "caller"


class TestAvgOutGivenIn:
    # two hubs receive from two brokers; one broker fans out broadly
    FIX_N = 6
    FIX_EDGES = [(2, 0), (3, 0), (2, 1), (3, 1), (1, 2), (1, 3), (1, 4), (1, 5)]

    def test_fixture_values(self):
        p = avg_out_given_in(graph_of(self.FIX_N, self.FIX_EDGES))
        raw = profile_as_dict(p)
        assert raw == {1: 1.0, 2: 2.0}
        assert p.normalization == pytest.approx(8 / 6)
        norm = profile_as_dict(p, normalized=True)
        assert norm[2] == pytest.approx(1.5)
        assert norm[1] == pytest.approx(0.75)

    def test_zero_in_degree_class_included(self):
        p = avg_out_given_in(graph_of(3, [(0, 1)]))
        raw = profile_as_dict(p)
        assert raw[0] == pytest.approx(0.5)  # nodes 0 and 2
        assert raw[1] == pytest.approx(0.0)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            n = int(rng.integers(2, 40))
            edges = oracles.random_digraph(rng, n, 0.1)
            if not edges:
                continue
            got = profile_as_dict(avg_out_given_in(graph_of(n, edges)))
            want = oracles.avg_out_given_in_bruteforce(n, edges)
            assert got.keys() == want.keys()
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-12)

    def test_edgeless_graph_flagged_not_raised(self, make_graph):
        p = avg_out_given_in(make_graph(3, []))
        assert p.mean_normalized is None
        assert p.note is not None

    def test_stderr_nan_for_singleton_class(self):
        p = avg_out_given_in(graph_of(3, [(0, 1)]))
        by_class = dict(zip(p.degrees.tolist(), p.stderr.tolist()))
        assert np.isnan(by_class[1])
        assert not np.isnan(by_class[0])


class TestCrossedOnePoint:
    def test_fixture_value(self):
        g = graph_of(5, [(1, 0), (2, 0), (0, 3), (0, 4)])
        assert crossed_one_point(g) == pytest.approx(1.25)

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(22)
        for _ in range(15):
            n = int(rng.integers(2, 50))
            edges = oracles.random_digraph(rng, n, 0.08)
            if not edges:
                continue
            got = crossed_one_point(graph_of(n, edges))
            want = oracles.crossed_one_point_bruteforce(n, edges)
            assert got == pytest.approx(want, abs=1e-12)

    def test_edgeless_raises(self, make_graph):
        with pytest.raises(UndefinedStatisticError):
            crossed_one_point(make_graph(4, []))


class TestNormalizedProductRatio:
    def test_independent_constant_arrays(self):
        x = np.array([2.0, 2.0, 2.0, 2.0])
        y = np.array([3.0, 3.0, 3.0, 3.0])
        ratio, stderr = normalized_product_ratio(x, y)
        assert ratio == pytest.approx(1.0)
        assert stderr == pytest.approx(0.0)

    def test_correlated_arrays_exceed_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        ratio, _ = normalized_product_ratio(x, x)
        mean = x.mean()
        assert ratio == pytest.approx((x * x).mean() / (mean * mean))
        assert ratio > 1

    def test_zero_mean_raises(self):
        with pytest.raises(UndefinedStatisticError):
            normalized_product_ratio(np.zeros(3), np.ones(3))

    def test_empty_raises(self):
        with pytest.raises(UndefinedStatisticError):
            normalized_product_ratio(np.array([]), np.array([]))

    def test_stderr_scales_down_with_n(self):
        rng = np.random.default_rng(23)
        x_small = rng.poisson(5.0, 100).astype(float) + 1
        y_small = rng.poisson(5.0, 100).astype(float) + 1
        x_big = rng.poisson(5.0, 10000).astype(float) + 1
        y_big = rng.poisson(5.0, 10000).astype(float) + 1
        _, se_small = normalized_product_ratio(x_small, y_small)
        _, se_big = normalized_product_ratio(x_big, y_big)
        assert se_big < se_small / 3


class TestKnnUndirected:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            n = int(rng.integers(3, 30))
            mat = np.triu(rng.random((n, n)) < 0.2, k=1)
            pairs = np.argwhere(mat)
            if len(pairs) == 0:
                continue
            ug = undirected_view(graph_of(n, pairs))
            p = knn_undirected(ug)
            want, kappa = oracles.knn_undirected_bruteforce(
                n, [tuple(r) for r in pairs.tolist()]
            )
            got = profile_as_dict(p)
            assert got.keys() == want.keys()
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-12)
            assert p.normalization == pytest.approx(kappa)

    def test_star_profile(self):
        # hub degree n-1 sees only leaves (degree 1); leaves see the hub
        n = 6
        pairs = np.array([[0, i] for i in range(1, n)])
        p = knn_undirected(undirected_view(graph_of(n, pairs)))
        got = profile_as_dict(p)
        assert got[n - 1] == pytest.approx(1.0)
        assert got[1] == pytest.approx(n - 1)

    def test_edgeless_raises(self):
        with pytest.raises(UndefinedStatisticError):
            knn_undirected(undirected_view(graph_of(3, [])))

    def test_takes_the_in_neighbor_sum_only_over_one_way_edges(self, monkeypatch):
        # a mutual in-neighbor is an out-neighbor already: with every edge
        # mutual the transposed pass would skip them all, and is not taken
        passes = []
        sums = correlations._neighbor_sums

        def spy(*args, transpose=False, **kwargs):
            passes.append(transpose)
            return sums(*args, transpose=transpose, **kwargs)

        monkeypatch.setattr(correlations, "_neighbor_sums", spy)
        pairs = [(0, 1), (1, 2), (2, 0), (2, 3)]
        mutual = pairs + [(v, u) for u, v in pairs]
        want, _ = oracles.knn_undirected_bruteforce(4, pairs)
        for g, taken in [
            (undirected_view(graph_of(4, pairs)), [False]),
            (decompose(graph_of(4, mutual)).subgraph, [False]),
            (graph_of(4, mutual), [False]),
            (graph_of(4, mutual[:-1]), [False, True]),
        ]:
            passes.clear()
            assert profile_as_dict(knn_undirected(g)) == pytest.approx(want)
            assert passes == taken

    def test_mutual_subgraph_peaks_at_a_few_bytes_per_node_and_edge(self):
        # the subgraph's degrees and mask are filled in when it is made: every
        # degree is its out-degree, so no degree array of n is derived here
        # (deriving q_r and the projection's degrees read 16.8 B per node
        # and edge on this graph, against 11.8)
        rng = np.random.default_rng(11)
        n, m = 100_000, 450_000
        src, dst = rng.integers(0, n, (2, m))
        back = rng.random(m) < 0.25
        g = DirectedGraph.from_edges(
            n, np.concatenate([src, dst[back]]), np.concatenate([dst, src[back]])
        )
        sub = decompose(g).subgraph
        tracemalloc.start()
        try:
            knn_undirected(sub)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14 * (n + sub.edge_count), peak / (n + sub.edge_count)


def digraphs_with_mutual_pairs(seed=23, count=30):
    """Random digraphs where some edges get their reverse and up to three
    nodes have no edge, with sparse 40-bit ids on every other one."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 60))
        linked = n - int(rng.integers(0, 4)) if n > 4 else n
        m = int(rng.integers(1, 4 * n))
        src, dst = rng.integers(0, linked, (2, m))
        back = rng.random(m) < rng.uniform(0, 0.8)
        src, dst = np.concatenate([src, dst[back]]), np.concatenate([dst, src[back]])
        ids = np.sort(rng.choice(2**40, size=n, replace=False)) if i % 2 else None
        yield DirectedGraph.from_edges(n, src, dst, ids)


class TestKnnUndirectedOfDirected:
    """A directed input is read as its undirected projection without
    building it: the profile equals the one of ``undirected_view``."""

    def test_every_field_equals_the_view_path(self):
        seen_mutual = seen_isolated = 0
        for g in digraphs_with_mutual_pairs():
            if g.edge_count == 0:
                continue
            seen_mutual += bool(g.mutual.any())
            seen_isolated += bool(np.any(g.undirected_degrees == 0))
            got = dataclasses.asdict(knn_undirected(g))
            want = dataclasses.asdict(knn_undirected(undirected_view(g)))
            assert got.keys() == want.keys()
            for key, value in want.items():
                if isinstance(value, np.ndarray):
                    assert got[key].dtype == value.dtype, key
                    assert np.array_equal(got[key], value, equal_nan=True), key
                else:
                    assert got[key] == value, key
        assert seen_mutual > 10 and seen_isolated > 5

    def test_matches_bruteforce_with_mutual_pairs_counted_once(self):
        # 0 <-> 1 is one neighbor each way, 0 -> 2 another
        g = graph_of(4, [(0, 1), (1, 0), (0, 2)])
        p = knn_undirected(g)
        want, kappa = oracles.knn_undirected_bruteforce(4, [(0, 1), (0, 2)])
        assert profile_as_dict(p) == want
        assert p.normalization == kappa == 1.5

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_raises_as_the_view_path(self, n):
        g = DirectedGraph.from_edges(n, [], [])
        messages = []
        for graph in (g, undirected_view(g)):
            with pytest.raises(UndefinedStatisticError) as info:
                knn_undirected(graph)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    def test_peaks_below_half_of_the_view_path(self):
        # the view sorts 2m keys into a symmetric CSR that is read once
        rng = np.random.default_rng(11)
        n, m = 100_000, 450_000
        src, dst = rng.integers(0, n, (2, m))
        back = rng.random(m) < 0.25
        g = DirectedGraph.from_edges(
            n, np.concatenate([src, dst[back]]), np.concatenate([dst, src[back]])
        )
        g.mutual  # built by any earlier reciprocal statistic
        peaks = []
        for run in (lambda: knn_undirected(g), lambda: knn_undirected(undirected_view(g))):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 2, peaks


class TestDirectedKnn:
    def test_fixture_hub_sees_sources_with_zero_in(self):
        # a -> c, b -> c, c -> d, c -> e
        g = graph_of(5, [(0, 2), (1, 2), (2, 3), (2, 4)])
        p = directed_knn(g, KnnVariant.IN_NN_OF_IN)
        raw = profile_as_dict(p)
        assert raw[2] == pytest.approx(0.0)  # c's sources have no in-links
        assert raw[1] == pytest.approx(2.0)  # d and e see c
        assert p.normalization == pytest.approx(1.0)

    @pytest.mark.parametrize("variant", list(KnnVariant))
    def test_matches_bruteforce(self, variant):
        cond, qty = VARIANT_AXES[variant]
        rng = np.random.default_rng(25)
        # an edgeless graph, then sources feeding sinks: no mutual pair and no
        # node with both in- and out-links, so the crossed normalizer is 0
        cases = [(4, []), (6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5)])]
        for _ in range(12):
            n = int(rng.integers(3, 40))
            cases.append((n, oracles.random_digraph(rng, n, 0.1)))
        checked = 0
        for n, edges in cases:
            if not edges:
                with pytest.raises(UndefinedStatisticError, match="edgeless"):
                    directed_knn(graph_of(n, edges), variant)
                continue
            p = directed_knn(graph_of(n, edges), variant)
            want = oracles.directed_knn_bruteforce(n, edges, cond, qty)
            got = profile_as_dict(p)
            assert got.keys() == want.keys()
            for k in want:
                assert got[k] == pytest.approx(want[k], abs=1e-12)
            norm = oracles.directed_knn_norm_bruteforce(n, edges, cond, qty)
            if norm > 0:
                assert p.normalization == pytest.approx(norm, abs=1e-12)
                assert p.note is None
            else:
                assert p.normalization is None and p.mean_normalized is None
                assert p.note == "normalizing ratio is zero"
            checked += 1
        assert checked > 5

    def test_axis_labels(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        p = directed_knn(g, KnnVariant.OUT_NN_OF_IN)
        assert p.x_kind == "k_in"
        assert p.y_label == "mean_nn_k_out"

    def test_edgeless_raises(self, make_graph):
        with pytest.raises(UndefinedStatisticError):
            directed_knn(make_graph(3, []), KnnVariant.IN_NN_OF_IN)

    def test_flat_on_uncorrelated_blocks(self):
        # disjoint copies of one motif cannot carry degree correlations
        # beyond the motif itself; profile values repeat exactly
        base = [(0, 2), (1, 2), (2, 3), (2, 4)]
        one = graph_of(5, base)
        many = graph_of(
            15, [(u + off, v + off) for off in (0, 5, 10) for u, v in base]
        )
        p1 = profile_as_dict(directed_knn(one, KnnVariant.OUT_NN_OF_OUT))
        p3 = profile_as_dict(directed_knn(many, KnnVariant.OUT_NN_OF_OUT))
        assert p1.keys() == p3.keys()
        for k in p1:
            assert p1[k] == pytest.approx(p3[k])
