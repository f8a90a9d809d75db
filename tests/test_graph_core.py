import gzip
import io
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkgraph import (
    CacheFormatError,
    DirectedGraph,
    EdgeListParseError,
    LinkGraphError,
    UndirectedGraph,
    build_from_edge_list,
    load_cache,
    save_cache,
    undirected_view,
)
from linkgraph import graph as graph_module
from linkgraph.graph import _filter_csr, _in_sorted, _restrict, sorted_unique

from conftest import CACHE_HEADER, TOY8_EDGES, cache_targets_at, graph_of, reseal, v1_cache
from oracles import random_digraph, same_structure


def _outcome(source):
    try:
        return build_from_edge_list(source)
    except LinkGraphError as exc:
        return exc


def _assert_same_outcome(a, b):
    if isinstance(a, Exception) or isinstance(b, Exception):
        assert (type(a), str(a)) == (type(b), str(b))
        assert a.line_number == b.line_number
    else:
        assert same_structure(a[0], b[0])
        assert a[1] == b[1]


def _row(offsets, targets, v):
    """Row ``v`` of a CSR: the in-neighbours of ``v`` in a reverse CSR,
    its neighbours in an undirected one."""
    return targets[offsets[v] : offsets[v + 1]]


def _both_ends_in(g, nodes):
    """Mask of the forward edges of ``g`` with both ends in ``nodes``."""
    member = np.zeros(g.node_count, dtype=bool)
    member[nodes] = True
    return member[g.fwd_rows] & member[g.fwd_targets]


def build(text):
    """Ingest ``text`` from a StringIO, a plain file and a gzip file:
    the line parser reads the first, the vectorised path the files when
    they are in its grammar. All three must give the same graph and
    report, or the same error, which is then raised."""
    raw = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        plain, packed = Path(tmp) / "edges.txt", Path(tmp) / "edges.dat"
        plain.write_bytes(raw)
        packed.write_bytes(gzip.compress(raw))
        first, *others = [_outcome(s) for s in (io.StringIO(text), plain, packed)]
    for other in others:
        _assert_same_outcome(first, other)
    if isinstance(first, Exception):
        raise first
    return first


def _fast_and_loop(path):
    """The outcome of ingesting ``path``, after checking that the line
    parser alone gives the same one."""
    fast = _outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_parse_fast", lambda path: None)
        loop = _outcome(path)
    _assert_same_outcome(fast, loop)
    return fast


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
        assert 0 in g.out_neighbors(1)
        assert 2 in g.out_neighbors(0)

    def test_small_ids_with_gaps_compacted(self):
        # every id is below 2 * edges, so the presence table compacts them
        g, _ = build("3 0\n0 3\n5 3\n")
        assert g.node_count == 3
        assert g.original_ids.tolist() == [0, 3, 5]
        assert 0 in g.out_neighbors(1) and 1 in g.out_neighbors(0) and 1 in g.out_neighbors(2)

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
        assert rep.raw_lines == rep.edges + rep.self_loops_removed + rep.duplicates_removed + rep.skipped_lines

    def test_corrupt_gzip_raises(self, tmp_path):
        packed = gzip.compress(b"0 1\n" * 50_000)
        p = tmp_path / "edges.gz"
        for raw in (packed[: len(packed) // 2], b"\x1f\x8bjunk"):
            p.write_bytes(raw)
            with pytest.raises(EdgeListParseError, match="corrupt gzip stream"):
                build_from_edge_list(p)


class TestFastPath:
    """Files the vectorised path takes, and files it hands to the line
    parser: both must give the line parser's outcome exactly."""

    @pytest.mark.parametrize(
        "raw, fast",
        [
            (b"0 1\r\n1 2\r\n", False),  # CRLF
            (b"0 1\r1 2\n", False),  # a lone CR is a line break
            (b"# a\rb\n0 1\n", False),  # ... inside a comment too: line 2 is "b"
            (b"# a \xff b\n\t # c\n0 1\n", True),
            (b"0\x0b1\n1\x1c2\n", False),
            (b"9223372036854775807 0\n", False),
            (b"9223372036854775808 0\n", False),
            (b"0 1\n1  2", True),  # no final newline
            (b"", True),
            (b"# only\n  # comments", True),
            (b"0 1\n\n  \n007\t8\n", True),
            (b"0 1 2\n", False),
            (b"0 1 # tail\n", False),
        ],
        ids=[
            "crlf", "lone-cr", "cr-in-comment", "0xff-in-comment", "vt-fs-separators",
            "int64-max", "beyond-int64", "no-final-newline", "empty", "comments-only",
            "blanks-tab-leading-zeros", "three-tokens", "trailing-comment",
        ],
    )
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_matches_line_parser(self, tmp_path, raw, fast, compress):
        p = tmp_path / "edges.txt"
        p.write_bytes(gzip.compress(raw) if compress else raw)
        assert (graph_module._parse_fast(p) is not None) == fast
        _fast_and_loop(p)

    def test_results_of_pinned_cases(self, tmp_path):
        p = tmp_path / "edges.txt"
        p.write_bytes(b"0 1\r1 2\n")
        _, rep = build_from_edge_list(p)
        assert (rep.raw_lines, rep.edges) == (2, 2)
        p.write_bytes(b"9223372036854775807 0\n")
        g, _ = build_from_edge_list(p)
        assert g.original_ids.tolist() == [0, 2**63 - 1]
        p.write_bytes(b"# a\rb\n0 1\n")
        with pytest.raises(EdgeListParseError, match="line 2: expected two"):
            build_from_edge_list(p)
        p.write_bytes(b"9223372036854775808 0\n")
        with pytest.raises(EdgeListParseError, match="line 1: node id outside"):
            build_from_edge_list(p)

    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_line_numbers_carry_across_chunks(self, tmp_path, monkeypatch, compress):
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 16)
        clean = b"# head\n" + b"".join(b"%d %d\n" % (i, i + 1) for i in range(40))
        p = tmp_path / "edges.txt"
        p.write_bytes(gzip.compress(clean) if compress else clean)
        assert graph_module._parse_fast(p) is not None
        g, rep = _fast_and_loop(p)
        assert (rep.raw_lines, rep.edges, g.node_count) == (41, 40, 41)

        bad = clean + b"1 2 3\n" + b"5 6\n" * 3
        p.write_bytes(gzip.compress(bad) if compress else bad)
        err = _fast_and_loop(p)
        assert isinstance(err, EdgeListParseError) and err.line_number == 42


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
            for u in _row(toy8.rev_offsets, toy8.rev_sources, v):
                assert (int(u), v) in edges

    def test_degrees_helper(self, toy8):
        # node 3 has in-edge from 2 and out-edges to 1 and 4
        assert (int(toy8.in_degrees[3]), int(toy8.out_degrees[3])) == (1, 2)
        with pytest.raises(IndexError):
            toy8.in_degrees[8]

    def test_degree_sums_match_edge_count(self, toy8):
        assert int(toy8.in_degrees.sum()) == toy8.edge_count
        assert int(toy8.out_degrees.sum()) == toy8.edge_count

    def test_has_edge(self, toy8):
        assert 1 in toy8.out_neighbors(0)
        assert 0 not in toy8.out_neighbors(1)

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
            for w in _row(ug.offsets, ug.targets, v):
                assert v in _row(ug.offsets, ug.targets, int(w)).tolist()

    def test_undirected_view_merges_mutual_edges(self, make_graph):
        g = make_graph(2, [(0, 1), (1, 0)])
        ug = undirected_view(g)
        assert ug.edge_count == 1

    def test_induced_subgraph_keeps_internal_edges(self, toy8):
        members = sorted_unique(np.array([1, 2, 3]))
        sub = _restrict(toy8, members, _both_ends_in(toy8, members))
        assert sub.node_count == 3
        assert sub.edge_count == 3  # the 3-cycle
        assert members.tolist() == [1, 2, 3]
        assert sub.original_ids.tolist() == [1, 2, 3]

    def test_undirected_view_dedups(self):
        ug = undirected_view(graph_of(3, [(0, 1), (1, 0), (2, 2)]))
        assert ug.edge_count == 1
        assert ug.degrees.tolist() == [1, 1, 0]

    def test_induced_subgraph_matches_bruteforce_on_sparse_ids(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            edges = random_digraph(rng, n, float(rng.uniform(0.05, 0.3)))
            ids = np.sort(rng.choice(2**40, size=n, replace=False))
            src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
            g = DirectedGraph.from_edges(n, src, dst, ids)
            pick = rng.integers(0, n, size=int(rng.integers(0, n + 1)))  # repeats, any order
            members = sorted_unique(pick.astype(np.int64))
            sub = _restrict(g, members, _both_ends_in(g, members))
            keep = sorted(set(pick.tolist()))
            assert members.tolist() == keep
            assert sub.original_ids.tolist() == [int(ids[x]) for x in keep]
            oid = sub.original_ids.tolist()
            got = {(oid[a], oid[b]) for a, b in zip(sub.fwd_rows.tolist(), sub.fwd_targets.tolist())}
            want = {(int(ids[u]), int(ids[v])) for u, v in edges if u in keep and v in keep}
            assert got == want


@pytest.mark.parametrize("cls", [DirectedGraph, UndirectedGraph])
class TestConstructorChecks:
    # a 4-node CSR whose edges all leave node 0
    @pytest.mark.parametrize(
        "offsets, row0, message",
        [
            ([0, 3, 2, 3, 3], [1, 2, 3], "inconsistent offset array"),
            ([0, 3, 3, 3, 4], [1, 2, 3], "inconsistent offset array"),
            ([1, 3, 3, 3, 3], [1, 2, 3], "inconsistent offset array"),
            ([0, 3, 3, 3], [1, 2, 3], "inconsistent offset array"),
            ([0, 3, 3, 3, 3], [1, 2, 4], "node id out of range"),
            ([0, 3, 3, 3, 3], [-1, 2, 3], "node id out of range"),
            ([0, 3, 3, 3, 3], [2, 1, 3], "not strictly ascending"),
            # unchecked, a repeated target stalled bowtie in scipy's SCC search
            ([0, 3, 3, 3, 3], [1, 2, 2], "duplicate edge"),
            ([0, 3, 3, 3, 3], [0, 2, 3], "self-loop"),
        ],
        ids=["decreasing", "past-m", "not-from-0", "short", "above-n", "negative",
             "unsorted", "duplicate", "self-loop"],
    )
    def test_faulty_csr_rejected(self, cls, offsets, row0, message):
        with pytest.raises(ValueError, match=message):
            cls(4, np.array(offsets), np.array(row0, dtype=np.int32))

    def test_rows_ascend_each_on_its_own(self, cls):
        # rows [2, 3], [], [1] and []: targets fall where a row starts
        g = cls(4, np.array([0, 2, 2, 3, 3]), np.array([2, 3, 1], dtype=np.int32))
        assert g.node_count == 4

    def test_empty_graph_accepted(self, cls):
        assert cls(0, np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32)).node_count == 0

    def test_negative_node_count_rejected(self, cls):
        with pytest.raises(ValueError, match="inconsistent offset array"):
            cls(-1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))

    @pytest.mark.parametrize(
        "ids",
        # unchecked, one id for three nodes made edge_list_text raise IndexError
        [np.array([7]), np.array([7, 8, 9, 10]), np.zeros((3, 1), dtype=np.int64),
         np.array([1.0, 2.0, 3.0]), np.array([True, False, True]), [7, 8, 9]],
        ids=["short", "long", "2-d", "float", "bool", "list"],
    )
    def test_faulty_ids_rejected(self, cls, ids):
        # the path 0 -> 1 -> 2: a valid CSR for both classes, as symmetry is not checked
        with pytest.raises(ValueError, match="original ids"):
            cls(3, np.array([0, 1, 2, 2]), np.array([1, 2], dtype=np.int32), original_ids=ids)

    @pytest.mark.parametrize("ids", [None, np.array([5, 17, 2**40]), np.arange(3, dtype=np.uint32)])
    def test_integer_ids_accepted(self, cls, ids):
        g = cls(3, np.array([0, 1, 2, 2]), np.array([1, 2], dtype=np.int32), original_ids=ids)
        assert g.original_ids is ids


def test_undirected_constructor_rejects_reversed_rows():
    # the triangle count searches the sorted rows: unchecked, these
    # reversed rows counted 16 triangles in place of 315
    rng = np.random.default_rng(0)
    ug = undirected_view(graph_of(40, rng.integers(0, 40, size=(300, 2))))
    assert int(ug.triangles.sum()) // 3 == 315
    rev = np.concatenate([_row(ug.offsets, ug.targets, v)[::-1] for v in range(40)])
    with pytest.raises(ValueError, match="not strictly ascending"):
        UndirectedGraph(40, ug.offsets.copy(), rev)


def _filter_bruteforce(offsets, targets, keep):
    rows = [
        [t for t, k in zip(targets[a:b], keep[a:b]) if k]
        for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())
    ]
    return [0, *np.cumsum([len(r) for r in rows]).tolist()], [t for r in rows for t in r]


class TestFilterCsr:
    @pytest.mark.parametrize(
        "offsets, targets, keep",
        [
            ([0], [], []),  # n = 0
            ([0, 0, 0, 0], [], []),  # m = 0
            ([0, 0, 2, 3, 3], [2, 3, 1], [True, False, True]),  # empty first and last rows
            ([0, 2, 2, 3], [1, 2, 0], [True, True, True]),  # all kept
            ([0, 2, 2, 3], [1, 2, 0], [False, False, False]),  # none kept
        ],
        ids=["n=0", "m=0", "empty-ends", "all-kept", "none-kept"],
    )
    def test_pinned_cases(self, offsets, targets, keep):
        offsets, targets = np.array(offsets, dtype=np.int64), np.array(targets, dtype=np.int32)
        keep = np.array(keep, dtype=bool)
        off, tgt = _filter_csr(offsets, targets, keep)
        want_off, want_tgt = _filter_bruteforce(offsets, targets, keep)
        assert off.tolist() == want_off and off.dtype == np.int64
        assert tgt.tolist() == want_tgt and tgt.dtype == np.int32

    def test_random_masks_match_bruteforce(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            g = graph_of(n, random_digraph(rng, n, float(rng.uniform(0.0, 0.4))))
            keep = rng.random(g.edge_count) < rng.uniform(0.0, 1.0)
            off, tgt = _filter_csr(g.fwd_offsets, g.fwd_targets, keep)
            want_off, want_tgt = _filter_bruteforce(g.fwd_offsets, g.fwd_targets.tolist(), keep)
            assert off.tolist() == want_off
            assert tgt.tolist() == want_tgt
            DirectedGraph(n, off, tgt)  # still a sorted, checked CSR


@pytest.mark.parametrize(
    "cls, name",
    [
        (DirectedGraph, "out_degrees"),
        (DirectedGraph, "in_degrees"),
        (DirectedGraph, "fwd_rows"),
        (DirectedGraph, "rev_offsets"),
        (DirectedGraph, "rev_sources"),
        (DirectedGraph, "mutual"),
        (DirectedGraph, "original_ids"),
        (UndirectedGraph, "degrees"),
        (UndirectedGraph, "rows"),
        (UndirectedGraph, "triangles"),
        (UndirectedGraph, "original_ids"),
    ],
)
def test_derived_arrays_are_kept_and_read_only(cls, name):
    g = graph_of(5, [(0, 1), (1, 0), (1, 2), (2, 0), (3, 4), (4, 2)])
    if cls is UndirectedGraph:
        g = undirected_view(g)
    if name == "original_ids":  # a caller's writable array is frozen on the way in
        csr = (g.fwd_offsets, g.fwd_targets) if cls is DirectedGraph else (g.offsets, g.targets)
        g = cls(g.node_count, *csr, np.arange(10, 15))
    first = getattr(g, name)
    assert getattr(g, name) is first
    assert not first.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        first[0] = first[0]


def test_pickled_graph_is_its_checked_read_only_csr():
    src, dst = np.array([0, 1, 1, 2, 3, 4]), np.array([1, 0, 2, 0, 4, 2])
    g = DirectedGraph.from_edges(5, src, dst, np.array([10, 3, 700, 2**40, 5]))
    mutual, _ = g.mutual, g._reverse
    back = pickle.loads(pickle.dumps(g))
    assert (back.node_count, back.edge_count) == (g.node_count, g.edge_count)
    for name in ("fwd_offsets", "fwd_targets", "original_ids"):
        assert np.array_equal(getattr(back, name), getattr(g, name))
        assert not getattr(back, name).flags.writeable
    assert "mutual" not in vars(back) and "_reverse" not in vars(back)  # only the CSR crossed
    assert np.array_equal(back.mutual, mutual) and not back.mutual.flags.writeable

    forged = object.__new__(DirectedGraph)  # a CSR the constructor never saw
    vars(forged).update(vars(g), fwd_targets=np.array([1, 2, 0, 0, 4, 2], dtype=np.int32))
    blob = pickle.dumps(forged)
    with pytest.raises(ValueError, match="not strictly ascending"):
        pickle.loads(blob)


@pytest.mark.parametrize(
    "keys, values, found",
    [
        ([], [], []),
        ([], [3, 1], [False, False]),
        ([2, 5, 9], [], []),
        ([2, 5, 9], [1, 2, 6, 9, 10], [False, True, False, True, False]),
    ],
)
def test_in_sorted_is_membership(keys, values, found):
    got = _in_sorted(np.array(keys, dtype=np.int64), np.array(values, dtype=np.int64))
    assert got.dtype == bool and got.tolist() == found


class TestCache:
    def test_round_trip(self, toy8):
        blob = save_cache(toy8)
        g2 = load_cache(blob)
        assert same_structure(g2, toy8)
        assert save_cache(g2) == blob

    def test_round_trip_with_original_ids(self):
        g, _ = build("10 20\n20 30\n")
        g2 = load_cache(save_cache(g))
        assert g2.original_ids.tolist() == [10, 20, 30]

    def test_loads_read_only_views_of_the_bytes(self, toy8):
        blob = save_cache(toy8)
        g2 = load_cache(blob)
        for arr in (g2.fwd_offsets, g2.fwd_targets, g2.rev_offsets, g2.rev_sources):
            assert not arr.flags.writeable
        assert g2.fwd_targets.base is not None  # a view, not a copy

    def test_stores_only_the_forward_csr(self, toy8):
        n, m = toy8.node_count, toy8.edge_count
        assert len(save_cache(toy8)) == CACHE_HEADER + 8 * (n + 1) + 4 * m

    def test_magic_rejected(self, toy8):
        blob = bytearray(save_cache(toy8))
        blob[:4] = b"XXXX"
        with pytest.raises(CacheFormatError, match="bad magic"):
            load_cache(bytes(blob))

    def test_truncation_rejected(self, toy8):
        blob = save_cache(toy8)
        with pytest.raises(CacheFormatError, match="truncated"):
            load_cache(blob[:-3])

    def test_trailing_garbage_rejected(self, toy8):
        blob = save_cache(toy8)
        with pytest.raises(CacheFormatError, match="trailing bytes"):
            load_cache(blob + b"\x00")

    def test_version_1_rejected_naming_ingest(self, toy8):
        with pytest.raises(CacheFormatError, match="version 1.*linkgraph ingest"):
            load_cache(v1_cache(toy8))

    def test_unknown_flags_rejected(self, toy8):
        blob = bytearray(save_cache(toy8))
        blob[8] |= 2
        with pytest.raises(CacheFormatError, match="unknown cache flags"):
            load_cache(bytes(blob))

    @pytest.mark.parametrize("at", [12, -1], ids=["crc-field", "payload"])
    def test_bad_checksum_rejected(self, toy8, at):
        blob = bytearray(save_cache(toy8))
        blob[at] ^= 1
        with pytest.raises(CacheFormatError, match="checksum"):
            load_cache(bytes(blob))

    @pytest.mark.parametrize("value", [8, -1])
    def test_node_id_out_of_range_rejected(self, toy8, value):
        blob = bytearray(save_cache(toy8))
        at = cache_targets_at(toy8.node_count)
        blob[at:at + 4] = value.to_bytes(4, "little", signed=True)
        with pytest.raises(CacheFormatError, match="out of range"):
            load_cache(reseal(blob))

    def test_decreasing_offsets_rejected(self, toy8):
        blob = bytearray(save_cache(toy8))
        assert toy8.fwd_offsets[2] < 6
        blob[40:48] = (6).to_bytes(8, "little")  # fwd_offsets[1]
        with pytest.raises(CacheFormatError, match="offset"):
            load_cache(reseal(blob))

    # row 0 of toy8 is [1, 5, 6]
    @pytest.mark.parametrize(
        "row0, message",
        [
            ([5, 1, 6], "not strictly ascending"),
            ([1, 5, 5], "duplicate edge"),
            ([0, 5, 6], "self-loop"),
        ],
    )
    def test_row_faults_rejected(self, toy8, row0, message):
        assert toy8.out_neighbors(0).tolist() == [1, 5, 6]
        blob = bytearray(save_cache(toy8))
        at = cache_targets_at(toy8.node_count)
        blob[at:at + 12] = np.array(row0, dtype="<i4").tobytes()
        with pytest.raises(CacheFormatError, match=message):
            load_cache(reseal(blob))

    def test_repeated_original_id_rejected(self):
        g, _ = build("10 20\n20 30\n")
        blob = bytearray(save_cache(g))
        blob[-16:-8] = (10).to_bytes(8, "little")  # ids [10, 20, 30] -> [10, 10, 30]
        with pytest.raises(CacheFormatError, match="original ids"):
            load_cache(reseal(blob))

    def test_rewired_row_loads_as_one_consistent_graph(self, toy8):
        # forward row 0 rewired from 0->1 to 0->3: a v1 cache kept the
        # old reverse CSR and loaded a graph whose two directions disagreed
        blob = bytearray(save_cache(toy8))
        at = cache_targets_at(toy8.node_count)
        blob[at:at + 4] = (3).to_bytes(4, "little")
        g = load_cache(reseal(blob))
        assert g.out_neighbors(0).tolist() == [3, 5, 6]
        assert np.array_equal(g.in_degrees, np.bincount(g.fwd_targets, minlength=8))
        assert np.array_equal(g.in_degrees, np.diff(g.rev_offsets))
        assert _row(g.rev_offsets, g.rev_sources, 3).tolist() == [0, 2]
        assert _row(g.rev_offsets, g.rev_sources, 1).tolist() == [3]
        edges = set(zip(g.fwd_rows.tolist(), g.fwd_targets.tolist()))
        for v in range(8):
            assert _row(g.rev_offsets, g.rev_sources, v).tolist() == sorted(
                u for u, w in edges if w == v
            )

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
    assert rep.raw_lines == rep.edges + rep.self_loops_removed + rep.duplicates_removed + rep.skipped_lines
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
        assert _row(dg.rev_offsets, dg.rev_sources, x).tolist() == sorted(
            u for u, v in clean if v == x
        )
        both = {v for u, v in clean if u == x} | {u for u, v in clean if v == x}
        assert _row(ug.offsets, ug.targets, x).tolist() == sorted(both)


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


# A file in the fast grammar with at most one edit that may take it
# out, so that both paths run and a single byte decides between them.
_DIGITS = st.sampled_from(
    ["0", "1", "7", "42", "123456789012345678", "0", "1", "9223372036854775808"]
)
_CLEAN_LINE = st.one_of(
    st.tuples(
        st.sampled_from(["", " ", "\t"]),
        _DIGITS,
        st.sampled_from([" ", "\t", " \t "]),
        _DIGITS,
        st.sampled_from(["", " ", "\t"]),
    ).map("".join),
    st.sampled_from(["", " ", "\t", "# c", " \t# c \udcff"]),
)
_EDIT = st.sampled_from(
    ["#", "+", "-", "_", "\x0b", "\x1c", "\u0661", "\udcff", "\r", "\r\n",
     "\n", " ", "3", "9223372036854775808"]
)


@given(
    lines=st.lists(_CLEAN_LINE, max_size=12),
    ending=st.sampled_from(["\n", ""]),
    edit=st.one_of(st.none(), _EDIT),
    compress=st.booleans(),
    chunk=st.sampled_from([4, 32, 1 << 20]),
    data=st.data(),
)
@settings(max_examples=200, deadline=None)
def test_fast_path_agrees_with_line_parser(lines, ending, edit, compress, chunk, data):
    text = "\n".join(lines) + ending
    if edit is not None:
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + edit + text[at:]
    raw = text.encode("utf-8", "surrogateescape")  # "\udcff" is the byte 0xff
    with tempfile.TemporaryDirectory() as tmp:
        p = Path(tmp) / "edges.txt"
        p.write_bytes(gzip.compress(raw) if compress else raw)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_CHUNK_BYTES", chunk)
            _fast_and_loop(p)
