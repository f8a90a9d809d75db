"""Golden bytes for every export writer.

Each expected string is the exact output of a writer on a small
hand-built input, covering NaN, None and inf cells, an absent
normalized column, empty tables, edgeless graphs, the undirected
``u < v`` rule and sparse input ids.
"""
import json
import tracemalloc

import numpy as np

from linkgraph import export
from linkgraph.cli import main
from linkgraph.components import bowtie_decompose
from linkgraph.correlations import CorrelationProfile
from linkgraph.crawl_sim import BiasEntry, BiasReport
from linkgraph.degree_stats import DegreeHistogram, Direction, cumulative
from linkgraph.graph import DirectedGraph, undirected_view
from linkgraph.reciprocity import decompose, reciprocal_scatter, reciprocal_subgraph

from conftest import TOY8_EDGES, TOY8_N, graph_of

# q_r split: node 0 (1, 1, 1), node 1 (0, 0, 2), node 2 (1, 0, 1), node 3 (0, 1, 0)
MIXED_EDGES = [(0, 1), (1, 0), (0, 2), (2, 1), (1, 2), (3, 0)]
SPARSE4 = np.array([5, 17, 2**40, 123456789012], dtype=np.int64)


def with_ids(g: DirectedGraph, ids: np.ndarray) -> DirectedGraph:
    return DirectedGraph.from_edges(g.node_count, g.fwd_rows, g.fwd_targets, ids)


class TestHistogram:
    def test_rows(self):
        h = DegreeHistogram.from_values(np.array([0, 1, 1, 3, 3, 3, 7]), Direction.IN)
        assert export.histogram_csv(h, cumulative(h)) == (
            "# direction=in total_nodes=7\n"
            "degree,count,p,pc\n"
            "0,1,0.14285714285714285,1.0\n"
            "1,2,0.2857142857142857,0.8571428571428571\n"
            "3,3,0.42857142857142855,0.5714285714285714\n"
            "7,1,0.14285714285714285,0.14285714285714285\n"
        )


class TestProfile:
    def test_nan_inf_and_metadata(self):
        p = CorrelationProfile(
            "k_in",
            "mean_k_out",
            np.array([1, 2, 5]),
            np.array([0.5, np.inf, 1 / 3]),
            np.array([0.25, np.nan, 1 / 6]),
            np.array([4, 1, 2]),
            np.array([0.1, np.nan, 0.0]),
            2.0,
            "some note",
        )
        assert export.profile_csv(p) == (
            "# x=k_in y=mean_k_out\n"
            "# normalization=2.0\n"
            "# note: some note\n"
            "k,mean_raw,mean_normalized,n_k,stderr\n"
            "1,0.5,0.25,4,0.1\n"
            "2,inf,nan,1,nan\n"
            "5,0.3333333333333333,0.16666666666666666,2,0.0\n"
        )

    def test_no_normalized_column(self):
        p = CorrelationProfile(
            "q_r",
            "mean_clustering",
            np.array([2, 3]),
            np.array([1.0, 0.2]),
            None,
            np.array([2, 3]),
            np.array([0.0, np.nan]),
            None,
        )
        assert export.profile_csv(p) == (
            "# x=q_r y=mean_clustering\n"
            "k,mean_raw,mean_normalized,n_k,stderr\n"
            "2,1.0,,2,0.0\n"
            "3,0.2,,3,nan\n"
        )

    def test_empty(self):
        e = np.empty(0)
        p = CorrelationProfile(
            "k", "y", e.astype(np.int64), e, e, e.astype(np.int64), e, None, "empty"
        )
        assert export.profile_csv(p) == (
            "# x=k y=y\n# note: empty\nk,mean_raw,mean_normalized,n_k,stderr\n"
        )


class TestPerNodeTables:
    def test_classes_dense_and_sparse(self):
        g = graph_of(TOY8_N, TOY8_EDGES)
        names = ["IN", "SCC", "SCC", "SCC", "OUT", "TENDRIL", "TUBE", "DISCONNECTED"]
        assert export.partition_classes_csv(bowtie_decompose(g), g) == "".join(
            ["node,class\n"] + [f"{v},{c}\n" for v, c in enumerate(names)]
        )
        ids = np.arange(1, TOY8_N + 1, dtype=np.int64) * 100_000_000_000 + 7
        gs = with_ids(g, ids)
        assert export.partition_classes_csv(bowtie_decompose(gs), gs) == "".join(
            ["node,class\n"] + [f"{i},{c}\n" for i, c in zip(ids.tolist(), names)]
        )

    def test_decomposition_dense_and_sparse(self):
        g = graph_of(4, MIXED_EDGES)
        assert export.decomposition_csv(decompose(g), g) == (
            "node,q_in,q_out,q_r\n0,1,1,1\n1,0,0,2\n2,1,0,1\n3,0,1,0\n"
        )
        gs = with_ids(g, SPARSE4)
        assert export.decomposition_csv(decompose(gs), gs) == (
            "node,q_in,q_out,q_r\n"
            "5,1,1,1\n17,0,0,2\n1099511627776,1,0,1\n123456789012,0,1,0\n"
        )

    def test_scatter_blank_clustering_below_degree_two(self):
        # mutual triangle 0-1-2 with a mutual pendant 2-3, plus one-way 4->3
        g = graph_of(
            5, [(0, 1), (1, 0), (1, 2), (2, 1), (0, 2), (2, 0), (2, 3), (3, 2), (4, 3)]
        )
        d = decompose(g)
        assert export.scatter_csv(reciprocal_scatter(d), g) == (
            "node,q_r,mean_neighbor_q_r,clustering\n"
            "0,2,2.5,1.0\n"
            "1,2,2.5,1.0\n"
            "2,3,1.6666666666666667,0.3333333333333333\n"
            "3,1,3.0,\n"
        )
        gs = with_ids(g, np.array([9, 8, 7, 6, 5]))
        assert export.scatter_csv(reciprocal_scatter(d), gs) == (
            "node,q_r,mean_neighbor_q_r,clustering\n"
            "9,2,2.5,1.0\n"
            "8,2,2.5,1.0\n"
            "7,3,1.6666666666666667,0.3333333333333333\n"
            "6,1,3.0,\n"
        )


class TestEdgeList:
    def test_directed_dense_and_sparse(self):
        g = graph_of(4, MIXED_EDGES)
        assert export.edge_list_text(g) == "0 1\n0 2\n1 0\n1 2\n2 1\n3 0\n"
        assert export.edge_list_text(with_ids(g, SPARSE4)) == (
            "5 17\n5 1099511627776\n17 5\n17 1099511627776\n"
            "1099511627776 17\n123456789012 5\n"
        )

    def test_undirected_each_edge_once_with_lower_dense_id_first(self):
        g = graph_of(4, MIXED_EDGES)
        assert export.edge_list_text(undirected_view(g)) == "0 1\n0 2\n0 3\n1 2\n"
        # the u < v rule compares dense ids, so 2**40 may print before a smaller id
        assert export.edge_list_text(undirected_view(with_ids(g, SPARSE4))) == (
            "5 17\n5 1099511627776\n5 123456789012\n17 1099511627776\n"
        )
        assert export.edge_list_text(reciprocal_subgraph(decompose(g))) == "0 1\n1 2\n"
        assert export.edge_list_text(reciprocal_subgraph(decompose(with_ids(g, SPARSE4)))) == (
            "5 17\n17 1099511627776\n"
        )

    def test_edgeless_is_empty(self):
        g = graph_of(3, [])
        assert export.edge_list_text(g) == ""
        assert export.edge_list_text(undirected_view(g)) == ""


def test_bias_report_cells():
    report = BiasReport(
        (
            BiasEntry("scc_pct", 50.0, 25.5, -0.49),
            BiasEntry("gamma_in", None, 2.1, None, "fit failed, too few"),
            BiasEntry("mean_q_r", 0.0, float("nan"), float("inf"), "zero true"),
        )
    )
    assert export.bias_report_csv(report) == (
        "name,true,observed,relative_deviation,note\n"
        "scc_pct,50.0,25.5,-0.49,\n"
        "gamma_in,,2.1,,fit failed; too few\n"
        "mean_q_r,0.0,nan,inf,zero true\n"
    )


def test_json_text_sorts_keys_and_nulls_nan():
    doc = {
        "b": [np.int64(3), np.float64(0.1), float("nan")],
        "a": np.array([1.5, np.nan]),
        2: (None, "x"),
    }
    assert json.loads(export.json_text(doc)) == {
        "2": [None, "x"],
        "a": [1.5, None],
        "b": [3, 0.1, None],
    }
    assert export.json_text(doc).startswith('{\n  "2": [\n    null,')


def test_json_format_folds_tables_with_input_ids(tmp_path, capsys):
    src = tmp_path / "sparse.txt"
    src.write_text("100 200\n200 300\n300 100\n300 400\n")
    assert main(["bowtie", "--input", str(src), "--classes", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["tables"] == {
        "bowtie_classes": ["node,class", "100,SCC", "200,SCC", "300,SCC", "400,OUT"],
        "bowtie_summary": [
            "nodes: 4",
            "scc_pct: 75.00",
            "in_pct: 0.00",
            "out_pct: 25.00",
            "tendril_pct: 0.00",
            "tube_pct: 0.00",
            "disconnected_pct: 0.00",
            "main_pct: 100.00",
        ],
    }
    assert main(["degrees", "--input", str(src), "--direction", "in", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["tables"] == {
        "degrees_in": ["# direction=in total_nodes=4", "degree,count,p,pc", "1,4,1.0,1.0"]
    }


def test_tables_match_a_per_row_reference():
    rng = np.random.default_rng(7)
    n = 60
    edges = sorted({(int(a), int(b)) for a, b in rng.integers(0, n, (400, 2)) if a != b})
    ids = np.sort(rng.choice(2**50, n, replace=False))
    g = with_ids(graph_of(n, edges), ids)
    ref = "".join(f"{ids[a]} {ids[b]}\n" for a, b in edges)
    assert export.edge_list_text(g) == ref
    pairs = sorted({(min(a, b), max(a, b)) for a, b in edges})
    assert export.edge_list_text(undirected_view(g)) == "".join(
        f"{ids[a]} {ids[b]}\n" for a, b in pairs
    )
    d = decompose(g)
    assert export.decomposition_csv(d, g) == "node,q_in,q_out,q_r\n" + "".join(
        f"{ids[v]},{d.q_in[v]},{d.q_out[v]},{d.q_r[v]}\n" for v in range(n)
    )
    rows = reciprocal_scatter(d)
    assert export.scatter_csv(rows, g) == "node,q_r,mean_neighbor_q_r,clustering\n" + "".join(
        f"{ids[int(v)]},{int(q)},{k!r},{'' if c != c else repr(c)}\n"
        for v, q, k, c in rows.tolist()
    )


def test_columns_longer_than_one_block():
    b = export._BLOCK
    n = 3 * b // 2
    g = graph_of(n, [(v, v + 1) for v in range(n - 1)])
    assert export.edge_list_text(g) == "".join(f"{v} {v + 1}\n" for v in range(n - 1))
    d = decompose(g)
    assert export.decomposition_csv(d, g) == "node,q_in,q_out,q_r\n" + "".join(
        f"{v},{int(v > 0)},{int(v < n - 1)},0\n" for v in range(n)
    )
    # two mutual paths split at the block edge: the larger is the SCC, and
    # rows b - 1 and b, one on each side, have q_r 1 and blank clustering
    links = [(v, v + 1) for v in range(n - 1) if v != b - 1]
    m = graph_of(n, links + [(v, u) for u, v in links])
    nbrs = [[] for _ in range(n)]
    for u, v in links:
        nbrs[u].append(v)
        nbrs[v].append(u)
    assert export.scatter_csv(reciprocal_scatter(decompose(m)), m) == (
        "node,q_r,mean_neighbor_q_r,clustering\n"
        + "".join(
            f"{v},{len(a)},{sum(len(nbrs[u]) for u in a) / len(a)!r},"
            f"{'0.0' if len(a) == 2 else ''}\n"
            for v, a in enumerate(nbrs)
        )
    )
    assert export.partition_classes_csv(bowtie_decompose(m), m) == "node,class\n" + "".join(
        f"{v},{'SCC' if v < b else 'DISCONNECTED'}\n" for v in range(n)
    )


def test_per_node_tables_peak_at_a_few_times_their_text():
    # one string per row, held until the final join, peaked at 4.5-5.8x
    rng = np.random.default_rng(3)
    n, m = 100_000, 400_000
    ids = (1 << 39) + np.arange(n, dtype=np.int64) * 5_000_011  # 13-digit input ids
    g = DirectedGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), ids)
    d, part = decompose(g), bowtie_decompose(g)
    writers = {
        "edge_list_text": lambda: export.edge_list_text(g),
        "decomposition_csv": lambda: export.decomposition_csv(d, g),
        "partition_classes_csv": lambda: export.partition_classes_csv(part, g),
    }
    for name, write in writers.items():
        tracemalloc.start()
        try:
            size = len(write())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * size, (name, peak / size)
