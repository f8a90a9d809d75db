import numpy as np
import pytest

from linkgraph import (
    KnnVariant,
    UndefinedStatisticError,
    avg_out_given_in,
    crossed_one_point,
    directed_knn,
    knn_undirected,
    undirected_view,
)
from linkgraph.correlations import normalized_product_ratio

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
        checked = 0
        for _ in range(12):
            n = int(rng.integers(3, 40))
            edges = oracles.random_digraph(rng, n, 0.1)
            if not edges:
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
