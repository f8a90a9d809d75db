import gzip
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkgraph import (
    CacheFormatError,
    DirectedGraph,
    EdgeListParseError,
    UndirectedGraph,
    build_from_edge_list,
    degrees,
    induced_subgraph,
    load_cache,
    save_cache,
    undirected_view,
)
from linkgraph.graph import sorted_unique

from conftest import TOY8_EDGES


def build(text):
    return build_from_edge_list(io.StringIO(text))


class TestIngest:
    def test_basic_parse(self):
        g, rep = build("0 1\n1 2\n")
        assert g.node_count == 3
        assert g.edge_count == 2
        assert rep.nodes == 3 and rep.edges == 2

    def test_comments_and_blanks_skipped(self):
        g, rep = build("# header\n\n0 1\n   \n# tail\n1 0\n")
        assert g.edge_count == 2
        assert rep.skipped_lines == 4
        assert rep.raw_lines == 6

    def test_self_loops_removed_and_counted(self):
        g, rep = build("0 0\n0 1\n1 1\n")
        assert g.edge_count == 1
        assert rep.self_loops_removed == 2

    def test_duplicates_removed_and_counted(self):
        g, rep = build("0 1\n0 1\n0 1\n1 0\n")
        assert g.edge_count == 2
        assert rep.duplicates_removed == 2

    def test_report_balance(self):
        _, rep = build("# c\n5 5\n1 2\n1 2\n3 4\n\n")
        assert rep.balanced()
        assert rep.raw_lines == rep.edges + rep.self_loops_removed + rep.duplicates_removed + rep.skipped_lines

    def test_node_universe_excludes_pure_self_loop_nodes(self):
        # node 9 appears only in a removed self-loop, so it is not a node
        g, rep = build("9 9\n0 1\n")
        assert g.node_count == 2
        assert rep.nodes == 2

    def test_sparse_ids_compacted_in_sorted_order(self):
        g, _ = build("100 7\n7 4000\n")
        assert g.node_count == 3
        assert g.original_ids.tolist() == [7, 100, 4000]
        # edge 100 -> 7 becomes 1 -> 0
        assert g.has_edge(1, 0)
        assert g.has_edge(0, 2)

    def test_dense_ids_keep_no_mapping(self):
        g, _ = build("0 1\n1 2\n2 0\n")
        assert g.original_ids is None

    def test_tabs_and_multiple_spaces(self):
        g, _ = build("0\t1\n1   2\n")
        assert g.edge_count == 2

    def test_gzip_sniffed_by_magic(self, tmp_path):
        raw = b"0 1\n1 2\n"
        p = tmp_path / "edges.dat"  # wrong extension on purpose
        p.write_bytes(gzip.compress(raw))
        g, _ = build_from_edge_list(p)
        assert g.edge_count == 2

    def test_plain_file_path(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_text("0 1\n")
        g, _ = build_from_edge_list(str(p))
        assert g.edge_count == 1

    def test_bad_field_count_raises_with_line_number(self):
        with pytest.raises(EdgeListParseError, match="line 2"):
            build("0 1\n0 1 2\n")

    def test_non_integer_raises(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            build("a b\n")

    @pytest.mark.parametrize(
        "line",
        ["\u0661 \u0662", "1_0 2", "+5 2", "\uff11 2"],
        ids=["arabic-indic", "underscore", "plus-sign", "fullwidth"],
    )
    def test_only_ascii_digit_ids(self, line):
        # int() would read each of these as a number
        with pytest.raises(EdgeListParseError, match="line 2: non-integer node id"):
            build(f"0 1\n{line}\n")

    def test_id_beyond_int_digit_limit_raises(self):
        with pytest.raises(EdgeListParseError, match="line 1: node id outside"):
            build("1" * 5000 + " 2\n")

    def test_id_beyond_int64_raises(self):
        with pytest.raises(EdgeListParseError, match="line 2: node id outside"):
            build("0 1\n1 99999999999999999999\n")

    @pytest.mark.parametrize("compress", [False, True])
    @pytest.mark.parametrize(
        "raw, line",
        [
            (b"\xff\xfe1\x00 \x002\x00\n\x00", 1),  # UTF-16 with a byte-order mark
            (b"0 1\n1 2\xff\n", 2),
        ],
        ids=["utf16-bom", "bad-byte-on-line-2"],
    )
    def test_non_utf8_raises_with_line_number(self, tmp_path, raw, line, compress):
        p = tmp_path / "edges.txt"
        p.write_bytes(gzip.compress(raw) if compress else raw)
        with pytest.raises(EdgeListParseError, match=f"line {line}: not UTF-8"):
            build_from_edge_list(p)

    def test_negative_id_raises(self):
        with pytest.raises(EdgeListParseError, match="line 1"):
            build("-1 2\n")

    def test_empty_input(self):
        g, rep = build("")
        assert g.node_count == 0
        assert g.edge_count == 0
        assert rep.balanced()


class TestGraphStructure:
    def test_neighbor_rows_sorted(self, toy8):
        for v in range(toy8.node_count):
            row = toy8.out_neighbors(v)
            assert (np.diff(row) > 0).all() if len(row) > 1 else True

    def test_in_out_neighbors_inverse(self, toy8):
        edges = set(TOY8_EDGES)
        for v in range(toy8.node_count):
            for w in toy8.out_neighbors(v):
                assert (v, int(w)) in edges
            for u in toy8.in_neighbors(v):
                assert (int(u), v) in edges

    def test_degrees_helper(self, toy8):
        # node 3 has in-edge from 2 and out-edges to 1 and 4
        assert degrees(toy8, 3) == (1, 2)
        with pytest.raises(IndexError):
            degrees(toy8, 8)

    def test_degree_sums_match_edge_count(self, toy8):
        assert int(toy8.in_degrees.sum()) == toy8.edge_count
        assert int(toy8.out_degrees.sum()) == toy8.edge_count

    def test_has_edge(self, toy8):
        assert toy8.has_edge(0, 1)
        assert not toy8.has_edge(1, 0)

    def test_arrays_immutable(self, toy8):
        with pytest.raises(ValueError):
            toy8.fwd_targets[0] = 5

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            DirectedGraph.from_edges(2, np.array([0]), np.array([2]))

    def test_undirected_view_symmetric(self, toy8):
        ug = undirected_view(toy8)
        assert ug.edge_count == len(TOY8_EDGES)  # no mutual edges in toy8
        for v in range(ug.node_count):
            for w in ug.neighbors(v):
                assert v in ug.neighbors(int(w)).tolist()

    def test_undirected_view_merges_mutual_edges(self, make_graph):
        g = make_graph(2, [(0, 1), (1, 0)])
        ug = undirected_view(g)
        assert ug.edge_count == 1

    def test_induced_subgraph_keeps_internal_edges(self, toy8):
        sub, members = induced_subgraph(toy8, np.array([1, 2, 3]))
        assert sub.node_count == 3
        assert sub.edge_count == 3  # the 3-cycle
        assert members.tolist() == [1, 2, 3]
        assert sub.original_ids.tolist() == [1, 2, 3]

    def test_undirected_from_pairs_dedups(self):
        ug = UndirectedGraph.from_pairs(3, np.array([[0, 1], [1, 0], [2, 2]]))
        assert ug.edge_count == 1
        assert ug.degrees.tolist() == [1, 1, 0]


class TestCache:
    def test_round_trip(self, toy8):
        blob = save_cache(toy8)
        g2 = load_cache(blob)
        assert g2.same_structure(toy8)
        assert save_cache(g2) == blob

    def test_round_trip_with_original_ids(self):
        g, _ = build("10 20\n20 30\n")
        g2 = load_cache(save_cache(g))
        assert g2.original_ids.tolist() == [10, 20, 30]

    def test_magic_rejected(self, toy8):
        blob = bytearray(save_cache(toy8))
        blob[:4] = b"XXXX"
        with pytest.raises(CacheFormatError):
            load_cache(bytes(blob))

    def test_truncation_rejected(self, toy8):
        blob = save_cache(toy8)
        with pytest.raises(CacheFormatError):
            load_cache(blob[:-3])

    def test_trailing_garbage_rejected(self, toy8):
        blob = save_cache(toy8)
        with pytest.raises(CacheFormatError):
            load_cache(blob + b"\x00")

    @pytest.mark.parametrize("value", [8, -1])
    def test_node_id_out_of_range_rejected(self, toy8, value):
        blob = bytearray(save_cache(toy8))
        first_target = 32 + 2 * 8 * (toy8.node_count + 1)
        blob[first_target:first_target + 4] = value.to_bytes(4, "little", signed=True)
        with pytest.raises(CacheFormatError):
            load_cache(bytes(blob))

    def test_decreasing_offsets_rejected(self, toy8):
        blob = bytearray(save_cache(toy8))
        assert toy8.fwd_offsets[2] < 6
        blob[40:48] = (6).to_bytes(8, "little")  # fwd_offsets[1]
        with pytest.raises(CacheFormatError):
            load_cache(bytes(blob))

    def test_empty_graph_round_trip(self):
        g, _ = build("")
        g2 = load_cache(save_cache(g))
        assert g2.node_count == 0 and g2.edge_count == 0


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=80))
    edges = [
        (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))) for _ in range(m)
    ]
    return n, edges


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_ingest_matches_set_semantics(case):
    n, edges = case
    text = "".join(f"{u} {v}\n" for u, v in edges)
    g, rep = build(text)
    clean = {(u, v) for u, v in edges if u != v}
    assert g.edge_count == len(clean)
    assert rep.balanced()
    ids = g.original_ids.tolist() if g.original_ids is not None else list(range(g.node_count))
    back = {(ids[u], ids[v]) for u in range(g.node_count) for v in g.out_neighbors(u).tolist()}
    assert back == clean

    # the same raw arrays, duplicates and self-loops included, straight
    # into the CSR kernel, and its undirected projection
    src = np.array([u for u, _ in edges], dtype=np.int64)
    dst = np.array([v for _, v in edges], dtype=np.int64)
    dg = DirectedGraph.from_edges(n, src, dst)
    ug = undirected_view(dg)
    assert dg.edge_count == len(clean)
    for x in range(n):
        assert dg.out_neighbors(x).tolist() == sorted(v for u, v in clean if u == x)
        assert dg.in_neighbors(x).tolist() == sorted(u for u, v in clean if v == x)
        both = {v for u, v in clean if u == x} | {u for u, v in clean if v == x}
        assert ug.neighbors(x).tolist() == sorted(both)


_NEAR_2_62 = st.one_of(
    st.integers(-50, 50),
    st.integers(2**62 - 3, 2**62 + 3),
    st.integers(-(2**62) - 3, -(2**62) + 3),
)


@given(st.lists(_NEAR_2_62, max_size=60))
@settings(max_examples=100, deadline=None)
def test_sorted_unique_matches_numpy_unique(values):
    keys = np.array(values, dtype=np.int64)
    got = sorted_unique(keys)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.unique(keys))


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_cache_byte_identical_after_round_trip(case):
    n, edges = case
    text = "".join(f"{u} {v}\n" for u, v in edges)
    g, _ = build(text)
    blob = save_cache(g)
    assert save_cache(load_cache(blob)) == blob
