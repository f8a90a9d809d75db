"""Compacted directed graphs stored as one sorted forward CSR.

Edge lists are cleaned on ingest (self-loops and duplicate edges are
dropped and counted), sparse node ids are compacted to a dense
``0..n-1`` range, and adjacency is stored as a sorted forward CSR. The
reverse CSR is its transpose, derived on first use, so the two
directions can never disagree.
"""
from __future__ import annotations

import gzip
import io
import math
import re
import struct
import zlib
from array import array
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Union

import numpy as np

from .errors import CacheFormatError, EdgeListParseError

_CACHE_MAGIC = b"WGLB"
_CACHE_VERSION = 2
_MAX_NODES = 2**31 - 1  # adjacency targets are stored as int32

EdgeListSource = Union[str, Path, io.IOBase, Iterable[str]]


@dataclass(frozen=True)
class IngestReport:
    """Line accounting for one edge-list ingest.

    ``raw_lines = edges + self_loops_removed + duplicates_removed +
    skipped_lines`` always holds: every physical input line is either a
    kept edge, a removed self-loop or duplicate, or a skipped
    comment/blank line.
    """

    raw_lines: int
    skipped_lines: int
    self_loops_removed: int
    duplicates_removed: int
    nodes: int
    edges: int

    def to_dict(self) -> dict:
        return asdict(self)


class DirectedGraph:
    """Immutable simple directed graph over dense node ids ``0..n-1``.

    The forward (out-neighbor) CSR with ascending rows is the graph; the
    reverse CSR is derived from it on first use. ``original_ids`` maps
    each dense id back to the id it carried in the source data; it is
    ``None`` when the ids were already dense. A faulty CSR or id array
    raises ValueError.
    """

    def __init__(
        self,
        node_count: int,
        fwd_offsets: np.ndarray,
        fwd_targets: np.ndarray,
        original_ids: np.ndarray | None = None,
    ):
        _check_csr(int(node_count), fwd_offsets, fwd_targets, original_ids)
        self.node_count = int(node_count)
        self.edge_count = int(len(fwd_targets))
        self.fwd_offsets = _frozen(fwd_offsets)
        self.fwd_targets = _frozen(fwd_targets)
        self.original_ids = original_ids if original_ids is None else _frozen(original_ids)

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        src: np.ndarray,
        dst: np.ndarray,
        original_ids: np.ndarray | None = None,
    ) -> "DirectedGraph":
        """Build a graph from dense-id edge arrays given from outside: ids
        are range-checked, self-loops and duplicate edges are dropped."""
        n = int(node_count)
        if n > _MAX_NODES:  # before n * src, which numpy cannot form past int64
            raise ValueError(f"node count {n} exceeds supported maximum {_MAX_NODES}")
        src, dst = np.asarray(src), np.asarray(dst)
        if src.shape != dst.shape:
            raise ValueError(f"src and dst differ in length ({src.size} and {dst.size})")
        if src.size and (src.dtype.kind not in "iu" or dst.dtype.kind not in "iu"):
            raise ValueError(f"edge endpoints are not integers ({src.dtype} and {dst.dtype})")
        src, dst = src.astype(np.int64, copy=False), dst.astype(np.int64, copy=False)
        if src.size:
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= n:
                raise ValueError("edge endpoint outside 0..node_count-1")
        keep = src != dst
        return cls(n, *_csr_from_keys(n, src[keep] * n + dst[keep]), original_ids)

    # -- basic accessors ----------------------------------------------

    def out_neighbors(self, node: int) -> np.ndarray:
        return self.fwd_targets[self.fwd_offsets[node] : self.fwd_offsets[node + 1]]

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.fwd_offsets))

    @cached_property
    def in_degrees(self) -> np.ndarray:
        n, offsets = self.node_count, self.fwd_offsets
        counts = np.zeros(n, dtype=np.int64)
        for lo, hi in _row_blocks(offsets, n):  # bincount copies int32 targets to int64
            counts += np.bincount(self.fwd_targets[offsets[lo] : offsets[hi]], minlength=n)
        return _frozen(counts)

    @property
    def rev_offsets(self) -> np.ndarray:
        return self._reverse[0]

    @property
    def rev_sources(self) -> np.ndarray:
        """In-neighbors of every node, ascending within each row."""
        return self._reverse[1]

    @cached_property
    def _reverse(self) -> tuple[np.ndarray, np.ndarray]:
        return self._transpose()

    def _transpose(self) -> tuple[np.ndarray, np.ndarray]:
        """The reverse CSR: the one place it is made. Each row block's
        keys, the target above the local row's bits, are sorted, then
        scattered through a cursor per target; blocks come in row order,
        so every reverse row ascends."""
        offsets, targets = self.fwd_offsets, self.fwd_targets
        rev_offsets = np.zeros(self.node_count + 1, dtype=np.int64)
        np.cumsum(self.in_degrees, out=rev_offsets[1:])
        cursor = rev_offsets[:-1].copy()
        sources = np.empty(self.edge_count, dtype=np.int32)
        for lo, hi in _row_blocks(offsets):
            shift = (hi - lo).bit_length()  # shifts and masks: no int64 division
            keys = targets[offsets[lo] : offsets[hi]].astype(np.int64)
            keys <<= shift
            keys |= _local_rows(offsets, lo, hi)
            keys.sort()
            heads = keys >> shift
            keys &= (1 << shift) - 1
            keys += lo  # each entry's source, in (head, source) order
            fresh = np.empty(len(keys), dtype=bool)
            fresh[:1] = True
            np.not_equal(heads[1:], heads[:-1], out=fresh[1:])
            starts = np.flatnonzero(fresh)
            counts = np.diff(starts, append=len(keys))
            heads = heads[starts]
            # entry i of a run goes to its head's cursor plus i less the run's start
            sources[np.arange(len(keys)) + np.repeat(cursor[heads] - starts, counts)] = keys
            cursor[heads] += counts
        return _frozen(rev_offsets), _frozen(sources)

    @cached_property
    def fwd_rows(self) -> np.ndarray:
        """Source node of every forward CSR entry (length = edge_count),
        as int32 like the targets: n is below 2**31."""
        return _frozen(np.repeat(np.arange(self.node_count, dtype=np.int32), self.out_degrees))

    @cached_property
    def mutual(self) -> np.ndarray:
        """Whether each forward CSR edge u->v has its reverse v->u: tested on
        first use and kept, the one place the mutual test is made. v->u is
        the entry (row u, source v) of the reverse CSR, so each row block's
        ``local row * n + neighbor`` keys, ascending on both CSRs, meet. A
        reverse CSR made here is not kept: only the bow-tie reads it again."""
        n = self.node_count
        rev, sources = self.__dict__.get("_reverse") or self._transpose()
        fwd = self.fwd_offsets
        mask = np.empty(self.edge_count, dtype=bool)
        # blocks cut on both CSRs' entries at once, so neither side runs long
        for lo, hi in _row_blocks(fwd + rev):
            keys = _local_rows(fwd, lo, hi) * n
            keys += self.fwd_targets[fwd[lo] : fwd[hi]]
            rev_keys = _local_rows(rev, lo, hi) * n
            rev_keys += sources[rev[lo] : rev[hi]]
            mask[fwd[lo] : fwd[hi]] = _in_sorted(rev_keys, keys)
        return _frozen(mask)

    @cached_property
    def mutual_degrees(self) -> np.ndarray:
        """q_r, each node's mutual partners: its out-edges in ``mutual``."""
        return _frozen(_row_counts(self.fwd_offsets, self.mutual))

    @cached_property
    def undirected_degrees(self) -> np.ndarray:
        """Each node's neighbors in the undirected projection, k_in + k_out
        - q_r: a mutual pair is one neighbor."""
        return _frozen(self.in_degrees + self.out_degrees - self.mutual_degrees)

    def __reduce__(self):
        # pickled as the CSR only and loaded through the constructor: checked,
        # read-only, and without the derived arrays, which are rebuilt on use
        return DirectedGraph, (self.node_count, self.fwd_offsets, self.fwd_targets, self.original_ids)

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


def _symmetric(
    n: int, offsets: np.ndarray, targets: np.ndarray, ids: np.ndarray | None
) -> DirectedGraph:
    """The graph on a CSR that is its own transpose, as the mutual subgraph's
    and the undirected view's are; symmetry is not checked. Each mutual pair
    is two entries, one per row. What symmetry fixes is filled in, not
    computed: the reverse CSR is the forward one, every edge is mutual, and
    every degree is the out-degree."""
    g = DirectedGraph(n, offsets, targets, ids)
    deg = g.out_degrees
    vars(g).update(
        _reverse=(g.fwd_offsets, g.fwd_targets),
        in_degrees=deg,
        mutual=np.broadcast_to(True, g.edge_count),  # read-only, and one byte in all
        mutual_degrees=deg,
        undirected_degrees=deg,
    )
    return g


# -- CSR construction and shared array kernels ------------------------


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """Ascending distinct values of ``keys`` by one sort and an
    adjacent-difference mask, which skips numpy's hashing ``unique``."""
    keys = np.sort(keys)
    if keys.size == 0:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


# Block loops take about this many CSR entries at a time, so that their
# int64 keys and gathers hold a few bytes per edge, not 8 to 40.
_BLOCK_EDGES = 1 << 16


def _row_blocks(offsets: np.ndarray, least: int = 0) -> Iterator[tuple[int, int]]:
    """Consecutive row ranges ``[lo, hi)`` covering every row of the CSR
    ``offsets``: the one block iterator of every kernel that passes over
    a CSR's entries. Each holds about ``size = max(_BLOCK_EDGES, least)``
    entries past the rest of its first row; a loop that makes an array
    of n per block asks for ``least = n``, so that those arrays cost
    O(m + n) in all. A block starts at the row holding each multiple of
    ``size``, so a row longer than ``size`` is cut only once."""
    n = len(offsets) - 1
    if n <= 0:
        return
    size = max(_BLOCK_EDGES, least)
    if offsets[-1] <= size:  # the common one-block case, without the searches
        yield 0, n
        return
    cuts = np.searchsorted(offsets, np.arange(size, int(offsets[-1]), size), side="right") - 1
    bounds = sorted_unique(np.concatenate([[0], cuts, [n]])).tolist()
    yield from zip(bounds[:-1], bounds[1:])


def _local_rows(offsets: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """int64 row of every entry of rows ``lo..hi-1``, counted from ``lo``."""
    return np.repeat(np.arange(hi - lo, dtype=np.int64), np.diff(offsets[lo : hi + 1]))


def _row_counts(offsets: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Entries of each row of the CSR ``offsets`` where the mask ``keep`` is set."""
    counts = np.empty(len(offsets) - 1, dtype=np.int64)
    for lo, hi in _row_blocks(offsets):
        kept = _local_rows(offsets, lo, hi)[keep[offsets[lo] : offsets[hi]]]
        counts[lo:hi] = np.bincount(kept, minlength=hi - lo)
    return counts


def _in_sorted(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Whether each of ``values`` occurs in the ascending array ``keys``."""
    if len(keys) == 0:
        return np.zeros(len(values), dtype=bool)
    return keys[np.minimum(np.searchsorted(keys, values), len(keys) - 1)] == values


def _check_csr(n: int, offsets: np.ndarray, targets: np.ndarray, ids: np.ndarray | None) -> None:
    """Raise ValueError unless ``(offsets, targets)`` is a simple graph's
    sorted CSR: offsets run from 0 to m and never decrease, targets lie in
    ``0..n-1``, rows strictly ascend and no row holds its own node; and
    unless ``ids`` is None or one integer per node."""
    if ids is not None and (getattr(ids, "shape", None) != (n,) or ids.dtype.kind not in "iu"):
        raise ValueError("original ids are not a 1-D integer array of one id per node")
    if offsets.dtype.kind not in "iu" or targets.dtype.kind not in "iu":
        raise ValueError("offsets and targets are not integer arrays")
    m = len(targets)
    sizes = np.diff(offsets)
    if n < 0 or len(offsets) != n + 1 or offsets[0] != 0 or offsets[-1] != m or np.any(sizes < 0):
        raise ValueError("inconsistent offset array")
    if m and (targets.min() < 0 or targets.max() >= n):
        raise ValueError("node id out of range in graph")
    unsorted = looped = False
    for lo, hi in _row_blocks(offsets):
        rows = targets[offsets[lo] : offsets[hi]]
        ascending = rows[1:] > rows[:-1]
        starts = offsets[lo + 1 : hi] - offsets[lo]
        ascending[starts[(starts > 0) & (starts < len(rows))] - 1] = True  # each row starts afresh
        unsorted = unsorted or not ascending.all()
        looped = looped or bool(np.any(_local_rows(offsets, lo, hi) + lo == rows))
    if unsorted:
        raise ValueError("graph row not strictly ascending: unsorted or duplicate edge")
    if looped:
        raise ValueError("self-loop in graph")


def _filter_csr(
    offsets: np.ndarray, targets: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR of the entries where ``keep`` is set: the one place a sub-CSR
    is cut. A subsequence of a sorted CSR, so its rows stay ascending."""
    kept_offsets = np.zeros(len(offsets), dtype=np.int64)
    np.cumsum(_row_counts(offsets, keep), out=kept_offsets[1:])
    return kept_offsets, targets[keep]


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: every array a graph holds or derives is."""
    a.setflags(write=False)
    return a


def _csr_from_keys(n: int, keys: np.ndarray):
    """Sorted CSR (offsets, targets) of the distinct edges whose keys
    ``src*n+dst`` fill ``keys``, an int64 array that no one else holds:
    the one CSR kernel. The keys are sorted and deduplicated in place,
    then each target is written over bytes of keys already read, and the
    buffer is cut to the targets' length; so the kernel holds 8 bytes an
    edge and, once done, 4."""
    if n > _MAX_NODES:
        raise ValueError(f"node count {n} exceeds supported maximum {_MAX_NODES}")
    keys.sort()
    m = last = 0
    for lo in range(0, len(keys), _BLOCK_EDGES):  # a block's first keys move down to m
        block = keys[lo : lo + _BLOCK_EDGES]
        fresh = np.empty(len(block), dtype=bool)
        fresh[0] = lo == 0 or block[0] != last
        np.not_equal(block[1:], block[:-1], out=fresh[1:])
        last = block[-1]
        kept = block[fresh]
        keys[m : m + len(kept)] = kept
        m += len(kept)
    offsets = np.searchsorted(keys[:m], np.arange(n + 1, dtype=np.int64) * n)
    targets = keys.view(np.int32)
    for lo in range(0, m, _BLOCK_EDGES):
        hi = min(lo + _BLOCK_EDGES, m)
        # target i sits in the bytes of key i // 2, read in this block or before
        targets[lo:hi] = keys[lo:hi] % n
    del targets
    keys.resize((m + 1) // 2, refcheck=False)
    return offsets, keys.view(np.int32)[:m]


def exact_product_sum(*factors: np.ndarray) -> int:
    """Exact ``sum(f1 * f2 * ...)`` over parallel integer arrays: in
    int64 when ``len * prod(max|f|)`` proves it cannot overflow, in
    Python integers otherwise."""
    factors = [np.asarray(f, dtype=np.int64) for f in factors]
    bound = len(factors[0])
    for f in factors:
        bound *= max(-int(f.min(initial=0)), int(f.max(initial=0)))
    if bound < 2**63:
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        return int(prod.sum())
    return sum(math.prod(t) for t in zip(*(f.tolist() for f in factors)))


# -- edge-list ingest --------------------------------------------------

# Files are read as decompressed bytes in pieces of about this size, cut
# at a newline, so the numpy parse's per-byte temporaries stay small.
_CHUNK_BYTES = 1 << 20
_FAST_BYTES = b"0123456789 \t\n"
_COMMENT_LINE = re.compile(rb"^[ \t]*#[^\n]*", re.MULTILINE)
_MAX_FAST_DIGITS = 18  # 10**18 - 1 < 2**63: no such token overflows int64
_GZIP_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile)


def build_from_edge_list(source: EdgeListSource) -> tuple[DirectedGraph, IngestReport]:
    """Parse a whitespace-separated edge list into a compacted graph.

    Each data line holds two ids ``src dst``, each an ASCII ``[0-9]+``
    token within the 64-bit range. Blank lines and lines starting with
    ``#`` are skipped. A path, a pipe included, or a binary stream is
    decompressed transparently when it holds gzip data (sniffed by magic
    bytes, not extension); a corrupt or truncated gzip stream raises
    :class:`EdgeListParseError` naming the first line not read whole.
    Bytes are read as UTF-8: a data line holding other bytes raises
    :class:`EdgeListParseError` naming that line, while a comment line
    is skipped whatever it holds. Self-loops and duplicate edges are
    removed; the returned report accounts for every input line.

    A path or binary stream is read once, in pieces of whole lines. A
    piece whose bytes are all in the common grammar (digits, space, tab
    and ``\n``; comment lines are ``#`` after spaces or tabs; two tokens
    of at most 18 digits per data line) is parsed in numpy. Any other
    piece, and every text source (a text stream or an iterable of
    lines), goes through the line parser, which gives the same result on
    the common grammar and is the spec for everything else, errors
    included. A caller's stream is not closed.
    """
    edges = _EdgeColumns()
    if isinstance(source, (str, Path, io.BufferedIOBase, io.RawIOBase)):
        _read_pieces(source, edges)
    else:
        _parse_lines(source, edges)
    return edges.build()


def _read_pieces(source, edges: _EdgeColumns) -> None:
    """Give ``edges`` every line of a path or binary stream, a piece at a
    time: by numpy where the piece is in the common grammar, else by the
    line parser. A function of its own, so that the last piece and its
    ids are let go before the graph is built."""
    try:
        with _open_decompressed(source) as fh:
            for chunk in _newline_chunks(fh):
                ids = _parse_chunk(chunk)
                if ids is None:
                    text = io.TextIOWrapper(io.BytesIO(chunk), encoding="utf-8", errors="surrogateescape")
                    _parse_lines(text, edges)
                else:
                    edges.add(ids, chunk.count(b"\n") + (not chunk.endswith(b"\n")))
    except _GZIP_ERRORS as exc:
        raise EdgeListParseError(edges.raw + 1, f"corrupt gzip stream: {exc}") from None


class _EdgeColumns:
    """An edge list's endpoints, taken piece by piece as a parser reads
    them, so that no column of the file's int64 ids is ever made. Each
    piece drops its self-loops and is kept as one int32 column, its
    sources then its targets: its ids while every id so far fits int32,
    else its indices in an :class:`_IdTable`."""

    def __init__(self):
        self.raw = self.lines = 0  # physical lines, and data lines among them
        self.pieces: list[np.ndarray] = []
        self.hi = -1  # the largest id, while the pieces hold ids
        self.table: _IdTable | None = None  # set once the pieces hold indices

    def add(self, ids: np.ndarray, raw: int) -> None:
        """Take ``raw`` more lines, whose ids ``ids`` are flattened as
        ``src, dst, src, ...``."""
        self.raw += raw
        self.lines += len(ids) // 2
        src, dst = ids[0::2], ids[1::2]
        keep = src != dst
        ends = np.concatenate([src[keep], dst[keep]])
        if not ends.size:
            return
        top = int(ends.max())
        if self.table is None and top <= _MAX_NODES:  # each id fits int32
            self.hi = max(self.hi, top)
            self.pieces.append(ends.astype(np.int32))
            return
        self._index_pieces()
        self.pieces.append(self.table.index(ends))

    def _index_pieces(self) -> None:
        """Move the pieces that hold ids onto table indices."""
        if self.table is None:
            self.table = _IdTable()
            for piece in self.pieces:
                piece[:] = self.table.index(piece)

    def build(self) -> tuple[DirectedGraph, IngestReport]:
        """The compacted graph and the report of every line taken. Each
        id's rank among the distinct ids comes from a presence table when
        every id is below the endpoint count, which needs no sort, else
        from the id table. Then each piece's keys fill one column for the
        CSR kernel, and the piece is let go."""
        ends = sum(len(piece) for piece in self.pieces)
        if self.table is None and self.hi >= ends:
            self._index_pieces()
        if self.table is None:
            present = np.zeros(self.hi + 1, dtype=bool)
            for piece in self.pieces:
                present[piece] = True
            n = np.count_nonzero(present)
            _check_node_count(n)
            rank = None  # the ids are 0..n-1 already
            if n <= self.hi:
                rank = np.cumsum(present, dtype=np.int32)
                rank -= 1
            ids = np.flatnonzero(present)
            del present
        else:
            ids, rank = self.table.ranks()
        n = len(ids)
        original_ids = ids if n and (ids[0] != 0 or ids[-1] != n - 1) else None
        m = ends // 2
        keys = np.empty(m, dtype=np.int64)
        at = 0
        self.pieces.reverse()
        while self.pieces:
            piece = self.pieces.pop()
            if rank is not None:
                piece = rank[piece]
            h = len(piece) // 2
            np.multiply(piece[:h], n, out=keys[at : at + h], dtype=np.int64)
            keys[at : at + h] += piece[h:]
            at += h
        graph = DirectedGraph(n, *_csr_from_keys(n, keys), original_ids)
        report = IngestReport(
            raw_lines=self.raw,
            skipped_lines=self.raw - self.lines,
            self_loops_removed=self.lines - m,
            duplicates_removed=m - graph.edge_count,
            nodes=n,
            edges=graph.edge_count,
        )
        return graph, report


def _check_node_count(n: int) -> None:
    if n > _MAX_NODES:
        raise EdgeListParseError(0, f"too many distinct node ids ({n})")


class _IdTable:
    """Distinct node ids in the order first seen, each with a lasting
    int32 index, so that every endpoint is indexed once, as its piece is
    read. The ids sit in sorted runs, each at least twice as long as the
    next: a new run is merged into the last while that one is less than
    twice as long. So the table holds O(n) bytes in O(log n) runs,
    whatever the number of pieces, and a piece's sorted distinct ids are
    looked up with one sorted-query search of each run."""

    def __init__(self):
        self.runs: list[tuple[np.ndarray, np.ndarray]] = []  # (sorted ids, their indices)
        self.size = 0

    def index(self, ends: np.ndarray) -> np.ndarray:
        """The int32 index of each of ``ends``; ids not seen before take
        the next indices."""
        local, uniq = _compact(ends)
        uniq = uniq.astype(np.int64, copy=False)
        index = np.empty(len(uniq), dtype=np.int32)
        new = np.arange(len(uniq))  # the ids not found yet, looked up in the longest run first
        for ids, at in self.runs:
            pos = np.searchsorted(ids, uniq[new])
            np.minimum(pos, len(ids) - 1, out=pos)
            hit = ids[pos] == uniq[new]
            index[new[hit]] = at[pos[hit]]
            new = new[~hit]
        _check_node_count(self.size + len(new))
        index[new] = np.arange(self.size, self.size + len(new), dtype=np.int32)
        self.size += len(new)
        run = uniq[new], index[new]
        while self.runs and len(self.runs[-1][0]) < 2 * len(run[0]):
            run = _merged_runs(self.runs.pop(), run)
        if len(run[0]):
            self.runs.append(run)
        return index[local]

    def ranks(self) -> tuple[np.ndarray, np.ndarray]:
        """The sorted distinct ids, and the int32 rank among them of the
        id at each index."""
        while len(self.runs) > 1:
            last = self.runs.pop()
            self.runs.append(_merged_runs(self.runs.pop(), last))
        ids, at = self.runs.pop()
        rank = np.empty(self.size, dtype=np.int32)
        rank[at] = np.arange(self.size, dtype=np.int32)
        return ids, rank


def _merged_runs(a: tuple, b: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Two sorted runs of ``(ids, indices)`` as one: a stable argsort of
    two ascending runs is one linear merge."""
    ids = np.concatenate([a[0], b[0]])
    order = np.argsort(ids, kind="stable")
    return ids[order], np.concatenate([a[1], b[1]])[order]


def _compact(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense int32 ids ``0..n-1`` for ``keys`` in ascending key order,
    and the ``n`` distinct keys, by one argsort."""
    # np.unique(keys, return_inverse=True) does the same, a little slower
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    uniq = keys[first]
    rank = np.cumsum(first, dtype=np.int32)
    del first
    rank -= 1
    dense = np.empty(order.size, dtype=np.int32)
    dense[order] = rank
    return dense, uniq


def _newline_chunks(fh) -> Iterator[bytes]:
    """The stream's bytes in pieces of whole lines; only the last piece
    may lack its final newline."""
    pending = []
    while block := fh.read(_CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut == 0:
            pending.append(block)
            continue
        chunk = b"".join([*pending, memoryview(block)[:cut]])
        pending = [block[cut:]]
        del block  # only the chunk is held while it is parsed
        yield chunk
    tail = b"".join(pending)
    if tail:
        yield tail


def _parse_chunk(chunk: bytes) -> np.ndarray | None:
    """Flattened ids of whole lines in the common grammar, or None."""
    if b"\r" in chunk:  # a line break to the line parser
        return None
    if b"#" in chunk:
        chunk = _COMMENT_LINE.sub(b"", chunk)
    if chunk.translate(None, _FAST_BYTES):
        return None
    buf = np.frombuffer(chunk, dtype=np.uint8)
    digit = np.zeros(buf.size + 2, dtype=bool)
    np.greater(buf, ord(" "), out=digit[1:-1])  # only digits lie above the space
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    del digit
    starts, ends = bounds[0::2], bounds[1::2]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    if int((ends - starts).max()) > _MAX_FAST_DIGITS:
        return None
    # tokens on each line: the difference of the token counts before
    # consecutive newlines, the part after the last newline included
    before = np.searchsorted(starts, np.flatnonzero(buf == ord("\n")))
    per_line = np.diff(before, prepend=0, append=starts.size)
    if not np.all((per_line == 0) | (per_line == 2)):
        return None
    ids = np.fromstring(chunk, dtype=np.int64, sep=" ")
    return ids if ids.size == starts.size else None


def _parse_lines(lines: Iterable[str], edges: _EdgeColumns) -> None:
    """Give ``edges`` the ids of ``lines``, numbered on from the lines it
    has taken, by the per-line grammar: the spec for every input. A byte
    that is not UTF-8, decoded as a lone surrogate, is in no integer
    token, so the data line holding it fails under its own number. Ids go
    to the columns about every ``_CHUNK_BYTES`` of them."""
    ids = array("q")
    raw = taken = edges.raw
    for raw, line in enumerate(lines, start=edges.raw + 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise _line_error(
                raw, "expected two whitespace-separated integers, got", stripped
            )
        if not (stripped.isascii() and parts[0].isdigit() and parts[1].isdigit()):
            raise _line_error(raw, "non-integer node id in", stripped)
        try:
            ids.append(int(parts[0]))
            ids.append(int(parts[1]))
        except (OverflowError, ValueError):  # ValueError: beyond int()'s digit limit
            raise EdgeListParseError(
                raw, f"node id outside the 64-bit range in {stripped!r}"
            ) from None
        if 8 * len(ids) >= _CHUNK_BYTES:
            edges.add(np.asarray(ids, dtype=np.int64), raw - taken)
            ids, taken = array("q"), raw
    edges.add(np.asarray(ids, dtype=np.int64), raw - taken)


def _line_error(lineno: int, problem: str, line: str) -> EdgeListParseError:
    """The parse error for one data line, naming a line that holds bytes
    which are not UTF-8 (decoded as lone surrogates) as such."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return EdgeListParseError(lineno, f"not UTF-8 text: {line!r}")
    return EdgeListParseError(lineno, f"{problem} {line!r}")


@contextmanager
def _open_decompressed(source) -> Iterator[io.BufferedIOBase]:
    """A path or binary stream as a binary stream, gunzipped when it
    starts with the gzip magic bytes, read once, a pipe included. A caller's
    stream is read through a buffer of its own, detached, not closed, at the end."""
    with ExitStack() as stack:
        if isinstance(source, (str, Path)):
            fh = stack.enter_context(open(source, "rb"))
        else:
            fh = io.BufferedReader(source)
            stack.callback(fh.detach)
        head = fh.read(2)  # not a peek, which reads once: a pipe may hold one byte so far
        fh = io.BufferedReader(_Prefixed(head, fh))
        if head == b"\x1f\x8b":
            fh = stack.enter_context(gzip.GzipFile(fileobj=fh))
        yield fh


class _Prefixed(io.RawIOBase):
    """The bytes ``head``, then the rest of ``fh``, which closing this leaves open."""

    def __init__(self, head: bytes, fh: io.BufferedIOBase):
        self.head, self.fh = head, fh

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        k = min(len(buffer), len(self.head))
        buffer[:k], self.head = self.head[:k], self.head[k:]
        return k or self.fh.readinto(buffer)


# -- binary cache ------------------------------------------------------

# Layout (all little-endian):
#   magic[4] version:u32 flags:u32 crc32(payload):u32 node_count:u64 edge_count:u64
#   payload: fwd_offsets:(n+1)*i64  fwd_targets:m*i32
#            [original_ids:n*i64 when flags bit 0 is set]
# Only the forward CSR is stored: the reverse one is derived from it.
_HEADER = struct.Struct("<4sIIIQQ")


def save_cache(g: DirectedGraph) -> bytes:
    """Serialize a graph to the binary cache format (deterministic bytes)."""
    arrays = [(g.fwd_offsets, "<i8"), (g.fwd_targets, "<i4")]
    flags = int(g.original_ids is not None)  # bit 0: the ids follow
    if flags:
        arrays.append((g.original_ids, "<i8"))
    # joined once from the arrays' own bytes: the cache is held once
    parts = [memoryview(np.ascontiguousarray(a, dtype=t)) for a, t in arrays]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    fields = (flags, crc, g.node_count, g.edge_count)
    return b"".join([_HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, *fields), *parts])


def load_cache(data: bytes) -> DirectedGraph:
    """Deserialize :func:`save_cache` output as read-only views of ``data``,
    after checking magic, version, flags, exact length and checksum, then
    a simple graph's forward CSR (offsets from 0 to m never decreasing,
    targets in ``0..n-1``, strictly ascending rows, no self-loop) and ids."""
    if len(data) < _HEADER.size:
        raise CacheFormatError("cache shorter than header")
    magic, version, flags, crc, n, m = _HEADER.unpack_from(data, 0)
    if magic != _CACHE_MAGIC:
        raise CacheFormatError(f"bad magic {magic!r}")
    if version != _CACHE_VERSION:
        raise CacheFormatError(
            f"cache version {version} is not read, only {_CACHE_VERSION}: "
            "rebuild the cache with `linkgraph ingest`"
        )
    if flags & ~1:
        raise CacheFormatError(f"unknown cache flags {flags:#x}")
    has_ids = bool(flags & 1)
    expected = _HEADER.size + 8 * (n + 1) + 4 * m + (8 * n if has_ids else 0)
    if len(data) != expected:
        what = "truncated" if len(data) < expected else "trailing bytes in"
        raise CacheFormatError(f"{what} cache: {len(data)} bytes, header says {expected}")
    if zlib.crc32(memoryview(data)[_HEADER.size:]) != crc:
        raise CacheFormatError("cache checksum mismatch")
    off = np.frombuffer(data, dtype="<i8", count=n + 1, offset=_HEADER.size)
    tgt = np.frombuffer(data, dtype="<i4", count=m, offset=_HEADER.size + 8 * (n + 1))
    original_ids = None
    if has_ids:
        original_ids = np.frombuffer(data, dtype="<i8", count=n, offset=len(data) - 8 * n)
        if np.any(np.diff(original_ids) <= 0):
            raise CacheFormatError("original ids in cache not strictly ascending")
    try:
        return DirectedGraph(n, off, tgt, original_ids)
    except ValueError as exc:  # the constructor's CSR checks, named for the cache
        raise CacheFormatError(str(exc).replace("graph", "cache")) from None


# -- derived graphs ----------------------------------------------------


def undirected_view(g: DirectedGraph) -> DirectedGraph:
    """Undirected projection as a symmetric graph: neighbors are the union
    of in- and out-neighbors, and a mutual pair collapses to one pair."""
    n, u, v = g.node_count, g.fwd_rows, g.fwd_targets
    keys = np.multiply(np.concatenate([u, v]), n, dtype=np.int64) + np.concatenate([v, u])
    return _symmetric(n, *_csr_from_keys(n, keys), g.original_ids)


def _restrict(g: DirectedGraph, nodes: np.ndarray, keep_edges: np.ndarray) -> DirectedGraph:
    """The graph on the sorted ids ``nodes``, compacted, of the edges of ``g``
    where ``keep_edges`` is set (both ends in ``nodes``); input ids carry over.
    Relabelling by rank keeps every row ascending, so nothing is sorted."""
    off, tgt = _filter_csr(g.fwd_offsets, g.fwd_targets, keep_edges)
    offsets = np.append(off[nodes], off[-1])  # the rows outside ``nodes`` are empty
    orig = g.original_ids[nodes] if g.original_ids is not None else nodes.copy()
    return DirectedGraph(len(nodes), offsets, np.searchsorted(nodes, tgt).astype(np.int32), orig)
