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
import os
import re
import struct
import zlib
from array import array
from contextlib import contextmanager
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
        """Build a graph from dense-id edge arrays; self-loops and
        duplicate edges are dropped."""
        n = int(node_count)
        if n > _MAX_NODES:
            raise ValueError(f"node count {n} exceeds supported maximum {_MAX_NODES}")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.size:
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= n:
                raise ValueError("edge endpoint outside 0..node_count-1")
        keep = src != dst
        fwd_off, fwd_tgt = _csr_from_edges(n, src[keep], dst[keep])
        return cls(n, fwd_off, fwd_tgt, original_ids)

    # -- basic accessors ----------------------------------------------

    def out_neighbors(self, node: int) -> np.ndarray:
        return self.fwd_targets[self.fwd_offsets[node] : self.fwd_offsets[node + 1]]

    @cached_property
    def out_degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.fwd_offsets))

    @cached_property
    def in_degrees(self) -> np.ndarray:
        return _frozen(np.bincount(self.fwd_targets, minlength=self.node_count))

    @property
    def rev_offsets(self) -> np.ndarray:
        return self._reverse[0]

    @property
    def rev_sources(self) -> np.ndarray:
        """In-neighbors of every node, ascending within each row."""
        return self._reverse[1]

    @cached_property
    def _reverse(self) -> tuple[np.ndarray, np.ndarray]:
        """The forward CSR transposed on first use: the one place a reverse CSR is made."""
        off, src = _csr_from_edges(self.node_count, self.fwd_targets, self.fwd_rows)
        return _frozen(off), _frozen(src)

    @cached_property
    def fwd_rows(self) -> np.ndarray:
        """Source node of every forward CSR entry (length = edge_count)."""
        return _frozen(np.repeat(np.arange(self.node_count, dtype=np.int64), self.out_degrees))

    @cached_property
    def mutual(self) -> np.ndarray:
        """Whether each forward CSR edge u->v has its reverse v->u: tested on
        first use and kept, the one place the mutual test is made."""
        n = self.node_count
        keys = self.fwd_rows * n + self.fwd_targets  # ascending
        # v->u is the entry (row u, source v) of the reverse CSR
        rev_keys = np.repeat(np.arange(n, dtype=np.int64) * n, self.in_degrees)
        rev_keys += self.rev_sources
        return _frozen(_in_sorted(rev_keys, keys))

    def __reduce__(self):
        # pickled as the CSR only and loaded through the constructor: checked,
        # read-only, and without the derived arrays, which are rebuilt on use
        return DirectedGraph, (self.node_count, self.fwd_offsets, self.fwd_targets, self.original_ids)

    def __repr__(self) -> str:
        return f"DirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


class UndirectedGraph:
    """Simple undirected graph as a symmetric sorted CSR.

    Every edge is stored in both endpoint rows, so ``len(targets)`` is
    twice the edge count. A faulty CSR or id array raises ValueError;
    symmetry is not checked.
    """

    def __init__(
        self,
        node_count: int,
        offsets: np.ndarray,
        targets: np.ndarray,
        original_ids: np.ndarray | None = None,
    ):
        _check_csr(int(node_count), offsets, targets, original_ids)
        self.node_count = int(node_count)
        self.offsets = _frozen(offsets)
        self.targets = _frozen(targets)
        self.original_ids = original_ids if original_ids is None else _frozen(original_ids)

    @property
    def edge_count(self) -> int:
        return len(self.targets) // 2

    @cached_property
    def degrees(self) -> np.ndarray:
        return _frozen(np.diff(self.offsets))

    @cached_property
    def rows(self) -> np.ndarray:
        return _frozen(np.repeat(np.arange(self.node_count, dtype=np.int64), self.degrees))

    @cached_property
    def triangles(self) -> np.ndarray:
        """Triangles through each node, counted on first use and kept: each
        edge is kept from its lower (degree, id) end, so the wedges inside
        the oriented rows number O(m^1.5) whatever the hubs (Chiba &
        Nishizeki 1985), and each triangle closes once, at its lowest end."""
        n = self.node_count
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(self.degrees, kind="stable")] = np.arange(n)
        up = rank[self.rows] < rank[self.targets]
        # a subsequence of the sorted CSR: rows ascend, and heads within a row
        src, dst = self.rows[up], self.targets[up].astype(np.int64)
        keys = src * n + dst
        idx = np.arange(len(src))
        later = np.cumsum(np.bincount(src, minlength=n))[src] - idx - 1
        # wedge (dst[a], dst[b]) for every b after a in a's row
        a = np.repeat(idx, later)
        b = a + 1 + np.arange(len(a)) - np.repeat(np.cumsum(later) - later, later)
        x, y = dst[a], dst[b]
        wedge = np.where(rank[x] < rank[y], x * n + y, y * n + x)
        closed = _in_sorted(keys, wedge)
        t = np.bincount(np.concatenate([src[a[closed]], x[closed], y[closed]]), minlength=n)
        return _frozen(t)

    def __repr__(self) -> str:
        return f"UndirectedGraph(nodes={self.node_count}, edges={self.edge_count})"


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
    m = len(targets)
    sizes = np.diff(offsets)
    if n < 0 or len(offsets) != n + 1 or offsets[0] != 0 or offsets[-1] != m or np.any(sizes < 0):
        raise ValueError("inconsistent offset array")
    if m and (targets.min() < 0 or targets.max() >= n):
        raise ValueError("node id out of range in graph")
    ascending = targets[1:] > targets[:-1]
    starts = offsets[1:-1]
    ascending[starts[(starts > 0) & (starts < m)] - 1] = True  # each row starts afresh
    if not ascending.all():
        raise ValueError("graph row not strictly ascending: unsorted or duplicate edge")
    if np.any(np.repeat(np.arange(n, dtype=targets.dtype), sizes) == targets):
        raise ValueError("self-loop in graph")


def _filter_csr(
    offsets: np.ndarray, targets: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR of the entries where ``keep`` is set: the one place a sub-CSR
    is cut. A subsequence of a sorted CSR, so its rows stay ascending."""
    kept_before = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return kept_before[offsets], targets[keep]


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: every array a graph holds or derives is."""
    a.setflags(write=False)
    return a


def _csr_from_edges(n: int, src: np.ndarray, dst: np.ndarray):
    """Sorted CSR (offsets, targets) of the distinct edges given by
    parallel arrays: one sort of the ``src*n+dst`` keys orders the rows
    and drops duplicates."""
    if src.size == 0:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32)
    keys = sorted_unique(np.asarray(src, dtype=np.int64) * n + dst)
    rows = keys // n
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return offsets, (keys - rows * n).astype(np.int32)


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

# The fast path reads decompressed bytes in pieces of about this size,
# cut at a newline, so its per-byte temporaries stay small.
_CHUNK_BYTES = 1 << 20
_FAST_BYTES = b"0123456789 \t\n"
_COMMENT_LINE = re.compile(rb"^[ \t]*#[^\n]*", re.MULTILINE)
_MAX_FAST_DIGITS = 18  # 10**18 - 1 < 2**63: no such token overflows int64
_GZIP_ERRORS = (EOFError, zlib.error, gzip.BadGzipFile)


def build_from_edge_list(source: EdgeListSource) -> tuple[DirectedGraph, IngestReport]:
    """Parse a whitespace-separated edge list into a compacted graph.

    Each data line holds two ids ``src dst``, each an ASCII ``[0-9]+``
    token within the 64-bit range. Blank lines and lines starting with
    ``#`` are skipped. Paths ending in gzip data (sniffed by magic
    bytes, not extension) are decompressed transparently; a corrupt or
    truncated gzip stream raises :class:`EdgeListParseError`. Files are
    read as UTF-8: a data line holding other bytes raises
    :class:`EdgeListParseError` naming that line, while a comment line
    is skipped whatever it holds. Self-loops and duplicate edges are
    removed; the returned report accounts for every input line.

    Files whose bytes are all in the common grammar (digits, space, tab
    and ``\n``; comment lines are ``#`` after spaces or tabs; two tokens
    of at most 18 digits per data line) are parsed whole in numpy. Any
    other file, and every in-memory source, goes through the line parser,
    which gives the same result on the common grammar and is the spec
    for everything else, errors included.
    """
    # the line parser reads again from the start: a pipe cannot be re-read
    regular = isinstance(source, (str, Path)) and os.path.isfile(source)
    fast = _parse_fast(source) if regular else None
    ids, raw = fast or _parse_lines(source)
    del fast
    total = len(ids) // 2
    s, d = ids[0::2], ids[1::2]
    keep = s != d
    s, d = s[keep], d[keep]
    del ids, keep
    m = len(s)

    keys = np.concatenate([s, d])
    del s, d
    dense, uniq = _compact(keys)
    del keys
    n = len(uniq)
    if n > _MAX_NODES:
        raise EdgeListParseError(0, f"too many distinct node ids ({n})")
    original_ids = None
    if n and (uniq[0] != 0 or uniq[-1] != n - 1):
        original_ids = uniq
    graph = DirectedGraph.from_edges(n, dense[:m], dense[m:], original_ids)
    report = IngestReport(
        raw_lines=raw,
        skipped_lines=raw - total,
        self_loops_removed=total - m,
        duplicates_removed=m - graph.edge_count,
        nodes=n,
        edges=graph.edge_count,
    )
    return graph, report


def _compact(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids ``0..n-1`` for ``keys`` in ascending key order, and the
    ``n`` distinct keys: by a presence table when the keys are
    non-negative and below ``len(keys)``, else by one argsort. The table
    skips the sort, which took 3 of the 7.5 s of a 10.9M-edge dense-id
    ingest. The dense ids are int32, so they are only meaningful for
    ``n <= _MAX_NODES``."""
    if keys.size == 0:
        return keys, keys
    hi = int(keys.max())
    if int(keys.min()) >= 0 and hi < keys.size:
        present = np.zeros(hi + 1, dtype=bool)
        present[keys] = True
        rank = np.cumsum(present, dtype=np.int32)
        rank -= 1
        return rank[keys], np.flatnonzero(present)
    # np.unique(keys, return_inverse=True) does the same, but its intp
    # inverse raised the 10.9M-edge ingest peak from 730 to 1090 MiB
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    uniq = keys[first]
    del keys
    dense = np.empty(order.size, dtype=np.int32)
    dense[order] = np.cumsum(first, dtype=np.int32) - 1
    return dense, uniq


def _parse_fast(path: str | Path) -> tuple[np.ndarray, int] | None:
    """``(ids, raw_lines)`` of a file in the common grammar, with ids
    flattened as ``src, dst, src, ...``; None when any piece of it falls
    outside that grammar or its gzip stream breaks, so that the line
    parser reads it from the start."""
    parts = []
    raw = 0
    try:
        with _open_decompressed(path) as fh:
            for chunk in _newline_chunks(fh):
                raw += chunk.count(b"\n") + (not chunk.endswith(b"\n"))
                ids = _parse_chunk(chunk)
                if ids is None:
                    return None
                parts.append(ids)
    except _GZIP_ERRORS:
        return None  # the line parser names the line where the stream breaks
    ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
    return ids, raw


def _newline_chunks(fh) -> Iterator[bytes]:
    """The stream's bytes in pieces of whole lines; only the last piece
    may lack its final newline."""
    pending = []
    while block := fh.read(_CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut == 0:
            pending.append(block)
            continue
        yield b"".join([*pending, block[:cut]])
        pending = [block[cut:]]
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


def _parse_lines(source: EdgeListSource) -> tuple[np.ndarray, int]:
    """``(ids, raw_lines)`` by the per-line grammar: the spec for every
    input, and the parser of every input the fast path does not take."""
    ids = array("q")
    raw = 0
    for raw, line in _iter_lines(source):
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
    return np.asarray(ids, dtype=np.int64), raw


def _line_error(lineno: int, problem: str, line: str) -> EdgeListParseError:
    """The parse error for one data line, naming a line that holds bytes
    which are not UTF-8 (decoded as lone surrogates) as such."""
    try:
        line.encode("utf-8")
    except UnicodeEncodeError:
        return EdgeListParseError(lineno, f"not UTF-8 text: {line!r}")
    return EdgeListParseError(lineno, f"{problem} {line!r}")


@contextmanager
def _open_decompressed(path: str | Path) -> Iterator[io.BufferedIOBase]:
    """The file as a binary stream, gunzipped when it starts with the
    gzip magic bytes; sniffed without a seek, so a pipe reads whole."""
    with open(path, "rb") as fh:
        if fh.peek(2)[:2] == b"\x1f\x8b":
            with gzip.GzipFile(fileobj=fh) as gz:
                yield gz
        else:
            yield fh


def _iter_lines(source: EdgeListSource) -> Iterator[tuple[int, str]]:
    if isinstance(source, (str, Path)):
        # Bytes that are not UTF-8 decode to lone surrogates, which no
        # integer token accepts: the data line holding them fails to
        # parse under its own number, at no cost to clean lines.
        lineno = 0
        try:
            with _open_decompressed(source) as raw, io.TextIOWrapper(
                raw, encoding="utf-8", errors="surrogateescape"
            ) as text:
                for lineno, line in enumerate(text, start=1):
                    yield lineno, line
        except _GZIP_ERRORS as exc:
            raise EdgeListParseError(
                lineno + 1, f"corrupt gzip stream: {exc}"
            ) from None
        return
    yield from enumerate(source, start=1)  # type: ignore[arg-type]


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
    payload = b"".join(np.ascontiguousarray(a, dtype=t).tobytes() for a, t in arrays)
    fields = (flags, zlib.crc32(payload), g.node_count, g.edge_count)
    return _HEADER.pack(_CACHE_MAGIC, _CACHE_VERSION, *fields) + payload


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


def undirected_view(g: DirectedGraph) -> UndirectedGraph:
    """Undirected projection: neighbors are the union of in- and
    out-neighbors, mutual pairs collapse to one edge."""
    u, v = g.fwd_rows, g.fwd_targets
    off, tgt = _csr_from_edges(g.node_count, np.concatenate([u, v]), np.concatenate([v, u]))
    return UndirectedGraph(g.node_count, off, tgt, g.original_ids)


def _restrict(g: DirectedGraph, nodes: np.ndarray, keep_edges: np.ndarray) -> DirectedGraph:
    """The graph on the sorted ids ``nodes``, compacted, of the edges of ``g``
    where ``keep_edges`` is set (both ends in ``nodes``); input ids carry over.
    Relabelling by rank keeps every row ascending, so nothing is sorted."""
    off, tgt = _filter_csr(g.fwd_offsets, g.fwd_targets, keep_edges)
    offsets = np.append(off[nodes], off[-1])  # the rows outside ``nodes`` are empty
    orig = g.original_ids[nodes] if g.original_ids is not None else nodes.copy()
    return DirectedGraph(len(nodes), offsets, np.searchsorted(nodes, tgt).astype(np.int32), orig)
