import gzip
import io
import os
import pickle
import tempfile
import threading
import time
import tracemalloc
import zlib
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
    build_from_edge_list,
    load_cache,
    save_cache,
    undirected_view,
)
from linkgraph import graph as graph_module
from linkgraph.correlations import _neighbor_sums
from linkgraph.graph import (
    _csr_from_keys,
    _filter_csr,
    _in_sorted,
    _restrict,
    _row_blocks,
    _symmetric,
    sorted_unique,
)
from linkgraph.reciprocity import triangles

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
    """Ingest ``text`` from a StringIO, a BytesIO, a plain file and a gzip
    file: the line parser reads the first, the piece reader the others,
    in numpy where a piece is in the common grammar. All four must give
    the same graph and report, or the same error, which is then raised."""
    raw = text.encode()
    with tempfile.TemporaryDirectory() as tmp:
        plain, packed = Path(tmp) / "edges.txt", Path(tmp) / "edges.dat"
        plain.write_bytes(raw)
        packed.write_bytes(gzip.compress(raw))
        sources = (io.StringIO(text), io.BytesIO(raw), plain, packed)
        first, *others = [_outcome(s) for s in sources]
    for other in others:
        _assert_same_outcome(first, other)
    if isinstance(first, Exception):
        raise first
    return first


def _fast_and_loop(path):
    """The outcome of ingesting ``path``, after checking that the line
    parser alone, given every piece, gives the same one."""
    fast = _outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph_module, "_parse_chunk", lambda chunk: None)
        loop = _outcome(path)
    _assert_same_outcome(fast, loop)
    return fast


def _pieces(path):
    """The pieces the reader cuts from ``path``, decompressed."""
    with graph_module._open_decompressed(path) as fh:
        return list(graph_module._newline_chunks(fh))


def _in_grammar(path):
    """Whether numpy parses every piece of ``path``."""
    return all(graph_module._parse_chunk(chunk) is not None for chunk in _pieces(path))


def _chunk_case(case):
    """A seeded edge list of about 120 lines for the chunk-boundary tests."""
    rng = np.random.default_rng(17)
    small, big = np.arange(40), (1 << 39) + rng.choice(1 << 39, 40, replace=False)
    pairs = rng.integers(0, 40, (120, 2))
    if case == "40-bit":
        ids = big[pairs]
    elif case == "dense-then-40-bit":
        # the later lines mix new 40-bit ids with ids of the dense lines
        ids = np.concatenate([small[pairs[:60]], np.where(pairs[60:] % 2, big[pairs[60:]], pairs[60:])])
    elif case == "int32-edge":
        ids = np.array([0, 1, 2, 2**31 - 2, 2**31 - 1, 2**31, 2**31 + 1])[pairs % 7]
    else:
        ids = small[pairs]
    lines = [f"{a} {b}" for a, b in ids]
    if case == "duplicate":
        lines = ["3 5", *lines[:60], "3 5", *lines[60:], "3 5"]
    elif case == "self-loop-only":
        lines[50:50] = ["99 99"] * 6 + ["7 7"]  # 99 is on no other line
    elif case == "comments":
        lines[50:50] = ["# a comment line of some length"] * 8 + ["", "   ", "\t# and another"]
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("dense", [True, False])
    def test_peaks_at_a_few_times_its_id_columns(self, tmp_path, dense):
        # 16 bytes a line hold its two int64 ids; checking the cleaned edges
        # again before the CSR kernel peaked at 4.66x on both files
        rng = np.random.default_rng(5)
        lines, n = 200_000, 20_000
        names = np.arange(n) if dense else (1 << 39) + rng.choice(1 << 39, n, replace=False)
        path = tmp_path / "edges.txt"
        np.savetxt(path, names[rng.integers(0, n, (lines, 2))], fmt="%d")
        tracemalloc.start()
        try:
            g, _ = build_from_edge_list(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (g.original_ids is None) == dense
        # one 1 MiB chunk's parse sets the dense file's peak; whole-file id
        # columns and one argsort of them read 3.18x on the sparse one
        assert peak <= (3.25 if dense else 2.5) * 16 * lines, peak / (16 * lines)

    @pytest.mark.parametrize("chunk", [24, 40])
    @pytest.mark.parametrize(
        "case",
        ["dense", "40-bit", "dense-then-40-bit", "int32-edge", "duplicate", "self-loop-only", "comments"],
    )
    def test_chunks_build_the_cache_of_one_read(self, tmp_path, case, chunk):
        p = tmp_path / "edges.txt"
        p.write_text(_chunk_case(case))
        whole = _fast_and_loop(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_module, "_CHUNK_BYTES", chunk)
            assert len(_pieces(p)) > 1
            cut = _fast_and_loop(p)
        assert save_cache(cut[0]) == save_cache(whole[0])
        assert cut[1] == whole[1]

    @pytest.mark.parametrize(
        "extra", ["4 0", "14 10", "3 99"], ids=["presence-table", "id-table", "ids-then-table"]
    )
    def test_too_many_distinct_ids_raise(self, monkeypatch, extra):
        monkeypatch.setattr(graph_module, "_MAX_NODES", 4)
        four = "0 1\n2 3\n" if extra != "14 10" else "10 11\n12 13\n"
        assert build(four)[0].node_count == 4
        with pytest.raises(EdgeListParseError, match=r"too many distinct node ids \(5\)"):
            build(f"{four}{extra}\n")

    def test_corrupt_gzip_raises(self, tmp_path):
        packed = gzip.compress(b"0 1\n" * 50_000)
        p = tmp_path / "edges.gz"
        for raw in (packed[: len(packed) // 2], b"\x1f\x8bjunk"):
            p.write_bytes(raw)
            with pytest.raises(EdgeListParseError, match="corrupt gzip stream"):
                build_from_edge_list(p)


class TestFastPath:
    """Pieces numpy parses, and pieces it hands to the line parser: both
    must give the line parser's outcome exactly."""

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
        assert _in_grammar(p) == fast
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
        assert _in_grammar(p)
        g, rep = _fast_and_loop(p)
        assert (rep.raw_lines, rep.edges, g.node_count) == (41, 40, 41)

        bad = clean + b"1 2 3\n" + b"5 6\n" * 3
        p.write_bytes(gzip.compress(bad) if compress else bad)
        err = _fast_and_loop(p)
        assert isinstance(err, EdgeListParseError) and err.line_number == 42

    def test_only_the_piece_outside_the_grammar_goes_to_the_line_parser(self, tmp_path, monkeypatch):
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 16)
        last = "5 9223372036854775807\n"  # a 19-digit id
        p = tmp_path / "edges.txt"
        p.write_text("".join(f"{i} {i + 1}\n" for i in range(40)) + last)
        taken, parse_lines = [], graph_module._parse_lines

        def spy(lines, edges):
            lines = list(lines)
            taken.append(lines)
            parse_lines(lines, edges)

        with monkeypatch.context() as mp:
            mp.setattr(graph_module, "_parse_lines", spy)
            g, rep = build_from_edge_list(p)
        assert taken == [[last]]
        _assert_same_outcome((g, rep), _fast_and_loop(p))
        assert (rep.raw_lines, rep.edges, g.original_ids[-1]) == (41, 41, 2**63 - 1)

    def test_cut_gzip_stream_names_a_line_no_later_than_the_first_lost(self, tmp_path, monkeypatch):
        chunk = 4096
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", chunk)
        pairs = np.random.default_rng(29).integers(0, 10**6, (20_000, 2))
        packed = gzip.compress(b"".join(b"%d %d\n" % (a, b) for a, b in pairs))
        p = tmp_path / "edges.gz"
        p.write_bytes(packed[: len(packed) // 2])
        read = zlib.decompressobj(31).decompress(p.read_bytes())  # all the cut stream holds
        assert len(read) > 4 * chunk
        with pytest.raises(EdgeListParseError, match="corrupt gzip stream") as err:
            build_from_edge_list(p)
        # a failed read loses at most one block and the line it cut
        assert read.count(b"\n", 0, len(read) - 2 * chunk) < err.value.line_number
        assert err.value.line_number <= read.count(b"\n") + 1

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("first_byte_alone", [False, True], ids=["whole", "first-byte-alone"])
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_pipe_reads_as_the_file(self, tmp_path, monkeypatch, compress, first_byte_alone):
        monkeypatch.setattr(graph_module, "_CHUNK_BYTES", 64)
        raw = (_chunk_case("dense-then-40-bit") + "3 4\r\n" + _chunk_case("40-bit")).encode()
        data = gzip.compress(raw) if compress else raw
        p, fifo = tmp_path / "edges.txt", tmp_path / "edges.fifo"
        p.write_bytes(data)
        os.mkfifo(fifo)

        def write():
            with open(fifo, "wb", buffering=0) as fh:
                if first_byte_alone:  # a gzip sniff that decides on one byte reads text
                    fh.write(data[:1])
                    time.sleep(0.3)
                    fh.write(data[1:])
                else:
                    fh.write(data)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()  # blocks in open until the reader opens the pipe
        g, rep = build_from_edge_list(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        want_g, want_rep = build_from_edge_list(p)
        assert save_cache(g) == save_cache(want_g) and rep == want_rep

    @pytest.mark.parametrize(
        "stream",
        [lambda p: io.BytesIO(p.read_bytes()), lambda p: open(p, "rb"), lambda p: open(p, "rb", buffering=0)],
        ids=["bytesio", "buffered", "raw"],
    )
    @pytest.mark.parametrize("compress", [False, True], ids=["plain", "gzip"])
    def test_binary_streams_read_as_the_path(self, tmp_path, stream, compress):
        raw = (_chunk_case("40-bit") + "1 2\r\n").encode()
        p = tmp_path / "edges.txt"
        p.write_bytes(gzip.compress(raw) if compress else raw)
        want_g, want_rep = build_from_edge_list(p)
        with stream(p) as fh:
            g, rep = build_from_edge_list(fh)
            assert not fh.closed  # the caller's stream is left open
        assert save_cache(g) == save_cache(want_g) and rep == want_rep


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

    @pytest.mark.parametrize("src, dst", [([0, 1, 2], [1]), ([0, 1], [1, 2, 0])])
    def test_from_edges_rejects_columns_of_two_lengths(self, src, dst):
        with pytest.raises(ValueError, match=r"src and dst differ in length \(\d and \d\)"):
            DirectedGraph.from_edges(3, src, dst)

    @pytest.mark.parametrize(
        "src, dst", [([0.5, 1.2], [1.7, 2.9]), (np.array([True]), np.array([False]))], ids=["float", "bool"]
    )
    def test_from_edges_rejects_non_integer_endpoints(self, src, dst):
        # unchecked, the floats were cut to the edges 0->1 and 1->2
        with pytest.raises(ValueError, match="edge endpoints are not integers"):
            DirectedGraph.from_edges(3, src, dst)

    @pytest.mark.parametrize(
        "build",
        [lambda n, empty: DirectedGraph.from_edges(n, empty, empty), _csr_from_keys],
        ids=["from_edges", "_csr_from_keys"],
    )
    def test_node_count_beyond_int32_targets_raises_before_allocating(self, build):
        empty = np.empty(0, dtype=np.int64)
        tracemalloc.start()
        try:
            for n in (2**31, 2**63):  # n * id past int64 must not be formed first
                with pytest.raises(ValueError, match="exceeds supported maximum"):
                    build(n, empty)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the offsets alone would take 16 GiB

    def test_undirected_view_symmetric(self, toy8):
        ug = undirected_view(toy8)
        assert ug.edge_count == 2 * len(TOY8_EDGES)  # no mutual edges in toy8
        for v in range(ug.node_count):
            for w in _row(ug.fwd_offsets, ug.fwd_targets, v):
                assert v in _row(ug.fwd_offsets, ug.fwd_targets, int(w)).tolist()

    def test_undirected_view_merges_mutual_edges(self, make_graph):
        g = make_graph(2, [(0, 1), (1, 0)])
        ug = undirected_view(g)
        assert ug.edge_count == 2  # one pair, one edge each way

    def test_induced_subgraph_keeps_internal_edges(self, toy8):
        members = sorted_unique(np.array([1, 2, 3]))
        sub = _restrict(toy8, members, _both_ends_in(toy8, members))
        assert sub.node_count == 3
        assert sub.edge_count == 3  # the 3-cycle
        assert members.tolist() == [1, 2, 3]
        assert sub.original_ids.tolist() == [1, 2, 3]

    def test_undirected_view_dedups(self):
        ug = undirected_view(graph_of(3, [(0, 1), (1, 0), (2, 2)]))
        assert ug.edge_count == 2
        assert ug.out_degrees.tolist() == [1, 1, 0]

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


def _symmetric_graph(n, offsets, targets, original_ids=None):
    return _symmetric(n, offsets, targets, original_ids)


# ``_symmetric`` builds the mutual subgraph and the undirected view; it must
# reject every CSR that ``DirectedGraph`` rejects before it fills anything in
@pytest.mark.parametrize("cls", [DirectedGraph, _symmetric_graph], ids=["DirectedGraph", "symmetric"])
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

    @pytest.mark.parametrize(
        "offsets, targets",
        [([0, 1, 1], [1.0]), ([0, 1, 1], [True]), ([0.0, 1.0, 1.0], np.array([1], dtype=np.int32))],
        ids=["float-targets", "bool-targets", "float-offsets"],
    )
    def test_non_integer_csr_rejected(self, cls, offsets, targets):
        # unchecked, float targets failed later in in_degrees and float
        # offsets raised TypeError from a slice
        with pytest.raises(ValueError, match="offsets and targets are not integer arrays"):
            cls(2, np.array(offsets), np.array(targets))

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
        # the path 0 -> 1 -> 2: a valid CSR, as symmetry is not checked
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
    assert int(triangles(ug).sum()) // 3 == 315
    rev = np.concatenate([_row(ug.fwd_offsets, ug.fwd_targets, v)[::-1] for v in range(40)])
    with pytest.raises(ValueError, match="not strictly ascending"):
        DirectedGraph(40, ug.fwd_offsets.copy(), rev)


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


def _sparse_id_graph(rng, n, m):
    """A seeded random graph ingested from 40-bit ids, with about a third
    of its edges reciprocated, one out-hub and one in-hub."""
    names = (1 << 39) + rng.choice(1 << 39, n, replace=False)
    u, v = rng.integers(0, n, m), rng.integers(0, n, m)
    back = rng.random(m) < 0.3
    everyone = np.arange(n)
    src = np.concatenate([u, v[back], np.zeros(n, dtype=np.int64), everyone])
    dst = np.concatenate([v, u[back], everyone, np.full(n, n // 2)])
    g, _ = build_from_edge_list(f"{names[a]} {names[b]}" for a, b in zip(src, dst))
    return g


def _block_cases():
    rng = np.random.default_rng(29)
    yield "n=0", DirectedGraph.from_edges(0, [], [])
    yield "edgeless", DirectedGraph.from_edges(6, [], [])
    # rows 1, 2, 5 and 6 are empty, next to the cuts of blocks of 1, 3 and 7 entries
    yield "empty-rows", graph_of(9, [(0, 1), (0, 2), (0, 3), (3, 0), (3, 4), (3, 8),
                                     (4, 0), (7, 3), (7, 8), (8, 7)])
    hub = [(0, v) for v in range(1, 20)] + [(v, 0) for v in range(5, 20, 2)] + [(3, 4), (4, 3)]
    yield "hub", graph_of(20, hub)  # row 0 spans several blocks
    for seed, (n, m) in enumerate([(12, 40), (40, 300), (90, 900)]):
        yield f"sparse-ids-{seed}", _sparse_id_graph(rng, n, m)


class TestBlocks:
    """Every block loop, cut into blocks of a few entries, against brute force."""

    @pytest.fixture(params=[1, 3, 7], autouse=True)
    def size(self, request, monkeypatch):
        monkeypatch.setattr(graph_module, "_BLOCK_EDGES", request.param)
        return request.param

    @pytest.fixture(params=list(_block_cases()), ids=lambda case: case[0])
    def g(self, request):
        # a fresh graph for each block size: derived arrays are kept on the graph
        g = request.param[1]
        return DirectedGraph(g.node_count, g.fwd_offsets, g.fwd_targets, g.original_ids)

    @staticmethod
    def _edges(g):
        return [(u, int(v)) for u in range(g.node_count) for v in g.out_neighbors(u)]

    def test_blocks_tile_the_rows(self, g, size):
        offsets = g.fwd_offsets
        blocks = list(_row_blocks(offsets))
        assert [lo for lo, _ in blocks] + [g.node_count] == [0] + [hi for _, hi in blocks]
        for lo, hi in blocks:
            rows = np.diff(offsets[lo : hi + 1])
            assert hi > lo and rows.sum() - rows.max() < size  # one row may run long

    @pytest.mark.parametrize(
        "row, message",
        [([9, 8], "not strictly ascending"), ([8, 8], "not strictly ascending"), ([8, 9], "self-loop")],
    )
    def test_constructor_finds_a_fault_in_the_last_block(self, row, message):
        offsets = np.array([*range(10), 11])  # rows 0..8 hold one entry, row 9 two
        targets = np.array([1, 2, 3, 4, 5, 6, 7, 8, 0, *row], dtype=np.int32)
        with pytest.raises(ValueError, match=message):
            DirectedGraph(10, offsets, targets)

    def test_csr_kernel_matches_bruteforce(self, g):
        edges = self._edges(g)
        rng = np.random.default_rng(len(edges))
        # each edge one to three times, shuffled: duplicates meet inside
        # blocks and across their edges
        pick = rng.permutation(np.repeat(np.arange(len(edges)), rng.integers(1, 4, len(edges))))
        src = np.array([edges[i][0] for i in pick], dtype=np.int64)
        dst = np.array([edges[i][1] for i in pick], dtype=np.int32)
        off, tgt = _csr_from_keys(g.node_count, src * g.node_count + dst)
        distinct = sorted(set(edges))
        rows = np.bincount([u for u, _ in distinct], minlength=g.node_count)
        assert off.tolist() == [0, *np.cumsum(rows, dtype=int).tolist()]
        assert tgt.tolist() == [v for _, v in distinct]
        assert tgt.dtype == np.int32

    def test_reverse_csr_and_mutual_match_bruteforce(self, g):
        edges = self._edges(g)
        ins = [sorted(u for u, v in edges if v == w) for w in range(g.node_count)]
        assert g.rev_offsets.tolist() == [0, *np.cumsum([len(r) for r in ins], dtype=int).tolist()]
        assert g.rev_sources.tolist() == [u for r in ins for u in r]
        assert g.rev_sources.dtype == np.int32
        assert g.in_degrees.tolist() == [len(r) for r in ins]
        present = set(edges)
        assert g.mutual.tolist() == [(v, u) in present for u, v in edges]
        assert g.mutual_degrees.tolist() == [
            sum((v, u) in present for v in g.out_neighbors(u).tolist()) for u in range(g.node_count)
        ]

    def test_neighbor_sums_and_cuts_match_bruteforce(self, g):
        n, edges = g.node_count, self._edges(g)
        qty = np.random.default_rng(3).integers(0, 1000, n)
        present = set(edges)
        out_sums, in_sums, one_way = [0] * n, [0] * n, [0] * n
        for u, v in edges:
            out_sums[u] += qty[v]
            in_sums[v] += qty[u]
            one_way[v] += qty[u] * ((v, u) not in present)
        csr = g.fwd_offsets, g.fwd_targets
        assert _neighbor_sums(*csr, qty).tolist() == out_sums
        assert _neighbor_sums(*csr, qty, transpose=True).tolist() == in_sums
        assert _neighbor_sums(*csr, qty, transpose=True, skip=g.mutual).tolist() == one_way
        off, tgt = _filter_csr(*csr, g.mutual)
        assert (off.tolist(), tgt.tolist()) == _filter_bruteforce(*csr, g.mutual)


def test_reverse_csr_and_mutual_mask_hold_a_few_bytes_an_edge():
    # the reverse CSR (4 bytes an entry) and the mask (1) are kept; whole-array
    # int64 keys for the transpose and the mask took about 46 bytes an edge
    rng = np.random.default_rng(11)
    n, m = 100_000, 1_000_000
    g = DirectedGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    tracemalloc.start()
    try:
        g.rev_sources, g.mutual
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20 * g.edge_count, peak / g.edge_count


def test_mutual_keeps_only_a_reverse_csr_made_before_it():
    edges = [(0, 1), (1, 0), (1, 2), (2, 0), (3, 4), (4, 2)]
    g, h = graph_of(5, edges), graph_of(5, edges)
    assert g.mutual.tolist() == [True, True, False, False, False, False]
    assert "_reverse" not in vars(g)  # the transpose it made is let go
    rev = h.rev_sources
    assert np.array_equal(h.mutual, g.mutual) and h.rev_sources is rev


@pytest.mark.parametrize(
    "name",
    ["out_degrees", "in_degrees", "fwd_rows", "rev_offsets", "rev_sources", "mutual",
     "mutual_degrees", "undirected_degrees", "original_ids"],
)
@pytest.mark.parametrize("view", [False, True], ids=["DirectedGraph", "undirected_view"])
def test_derived_arrays_are_kept_and_read_only(view, name):
    g = graph_of(5, [(0, 1), (1, 0), (1, 2), (2, 0), (3, 4), (4, 2)])
    if view:  # the arrays that symmetry fixes are filled in, and frozen too
        g = undirected_view(g)
    if name == "original_ids":  # a caller's writable array is frozen on the way in
        g = DirectedGraph(g.node_count, g.fwd_offsets, g.fwd_targets, np.arange(10, 15))
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

    def test_writes_the_bytes_once(self):
        # a copy of each array, the joined payload and the header's
        # concatenation held three caches at once
        rng = np.random.default_rng(2)
        n, m = 50_000, 400_000
        g = DirectedGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m), np.arange(n) * 3)
        tracemalloc.start()
        try:
            blob = save_cache(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * len(blob), peak / len(blob)
        assert load_cache(blob).original_ids.tolist() == (np.arange(n) * 3).tolist()

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
        assert _row(ug.fwd_offsets, ug.fwd_targets, x).tolist() == sorted(both)


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
