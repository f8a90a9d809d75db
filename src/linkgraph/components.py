"""Bow-tie decomposition of directed graphs.

Partitions every node into one of six classes around the largest
strongly connected component: the core itself (SCC), the upstream
region that can reach it (IN), the downstream region it reaches (OUT),
corridor nodes on SCC-avoiding paths from IN to OUT (TUBE), the rest of
the weakly connected body (TENDRIL), and everything else
(DISCONNECTED). MAIN is SCC + IN + OUT.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph, _row_blocks


class BowTieClass(enum.Enum):
    SCC = "SCC"
    IN = "IN"
    OUT = "OUT"
    TENDRIL = "TENDRIL"
    TUBE = "TUBE"
    DISCONNECTED = "DISCONNECTED"


_CLASS_ORDER = list(BowTieClass)
_CLASS_CODE = {c: i for i, c in enumerate(_CLASS_ORDER)}


@dataclass(frozen=True)
class BowTiePartition:
    """Node-level bow-tie classification plus aggregate shares.

    ``class_of[v]`` is a small integer code; use :meth:`nodes_in` for
    the enum view. Percentages are node shares in [0, 100]; ``main_pct``
    is the SCC + IN + OUT share.
    """

    node_count: int
    class_of: np.ndarray
    sizes: dict
    percentages: dict
    main_pct: float

    def nodes_in(self, cls: BowTieClass) -> np.ndarray:
        return np.flatnonzero(self.class_of == _CLASS_CODE[cls])

    def to_dict(self) -> dict:
        shares = {f"{c.value.lower()}_pct": self.percentages[c] for c in _CLASS_ORDER}
        return {**shares, "main_pct": self.main_pct}


def strongly_connected_components(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Label array and component sizes.

    Labels are canonical: components are numbered by the smallest node
    id they contain, in ascending node order. The underlying search is
    iterative (compiled), so recursion depth never scales with the
    graph.
    """
    from scipy.sparse.csgraph import connected_components as _cc

    n = g.node_count
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    k, labels = _cc(_adjacency(g.fwd_offsets, g.fwd_targets), connection="strong")
    # renumber by first occurrence so labels are deterministic, in O(n)
    first = np.full(k, n, dtype=np.int64)
    np.minimum.at(first, labels, np.arange(n))
    rank = np.empty(k, dtype=np.int64)
    rank[np.argsort(first)] = np.arange(k)
    labels = rank[labels]
    sizes = np.bincount(labels)
    return labels, sizes


def _adjacency(offsets: np.ndarray, targets: np.ndarray):
    """The CSR as a scipy matrix; scipy loads on a command's first traversal.
    Its weights are one float64 with stride 0: the traversals read none,
    and scipy takes it without a copy (a bool or narrow column is copied
    to float64)."""
    from scipy.sparse import csr_matrix

    n = len(offsets) - 1
    ones = np.broadcast_to(np.float64(1.0), targets.shape)
    return csr_matrix((ones, targets, offsets), shape=(n, n))


def _largest_core(g: DirectedGraph) -> np.ndarray:
    """Mask of the largest strong component, ties to the one holding the
    smallest node id: from scipy's raw labels, with no renumbering."""
    from scipy.sparse.csgraph import connected_components as _cc

    _, labels = _cc(_adjacency(g.fwd_offsets, g.fwd_targets), connection="strong")
    sizes = np.bincount(labels)
    tied = sizes == sizes.max()
    return labels == labels[np.argmax(tied[labels])]


def _reach_mask(offsets: np.ndarray, targets: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes reachable from ``seeds`` along one CSR
    direction, seeds included.

    One compiled breadth-first search: from the seed itself when there
    is one, else from a virtual super-source, node ``n``, whose row lists
    the seeds. The cost is linear in nodes plus edges whatever the
    graph's depth.
    """
    from scipy.sparse.csgraph import breadth_first_order

    n = len(offsets) - 1
    if len(seeds) == 1:
        start = seeds[0]
    else:
        start = n
        offsets = np.append(offsets, offsets[-1] + len(seeds))
        targets = np.concatenate([targets, seeds], dtype=targets.dtype)
    order = breadth_first_order(_adjacency(offsets, targets), start, return_predecessors=False)
    reached = np.zeros(len(offsets) - 1, dtype=bool)
    reached[order] = True
    return reached[:n]


def _both_ways(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """The CSR whose row i is node i's out-row followed by its in-row:
    its reach from a node is the node's weak component."""
    fwd, rev = g.fwd_offsets, g.rev_offsets
    offsets = fwd + rev
    targets = np.empty(offsets[-1], dtype=np.int32)
    for lo, hi in _row_blocks(offsets):
        # an out-entry moves on by the in-rows before it, an in-entry by
        # the out-rows up to and including its own
        at = np.repeat(rev[lo:hi], np.diff(fwd[lo : hi + 1]))
        at += np.arange(fwd[lo], fwd[hi])
        targets[at] = g.fwd_targets[fwd[lo] : fwd[hi]]
        at = np.repeat(fwd[lo + 1 : hi + 1], np.diff(rev[lo : hi + 1]))
        at += np.arange(rev[lo], rev[hi])
        targets[at] = g.rev_sources[rev[lo] : rev[hi]]
    return offsets, targets


# Steps a numpy frontier search takes before it gives way. A step is a
# few passes over n booleans plus the frontier's rows, so a search costs
# at most 64 such passes plus its edges, whatever the graph's depth.
# Web-like graphs with a majority core finish in a few dozen steps (at
# most 27 on the benchmark's graphs); a deep graph gives way after
# milliseconds and is classified again with the compiled kernel.
_LEVELS = 64


class _TooDeep(Exception):
    """A numpy search is still going after ``_LEVELS`` steps."""


def _search(g: DirectedGraph, way: str, blocked, seeds: np.ndarray) -> np.ndarray:
    """Mask of the nodes ``seeds`` reach along ``way`` ("out", "in" or
    "both" directions), seeds included, never passing through a node of
    the mask ``blocked`` (None blocks none), whose nodes it includes.
    Raises :class:`_TooDeep` after ``_LEVELS`` steps. Each step marks the
    targets of the frontier's rows, gathered by index arithmetic in
    blocks of about ``_BLOCK_EDGES`` entries; those not reached before are
    the next frontier.
    """
    fwd, rev = (g.fwd_offsets, g.fwd_targets), (g.rev_offsets, g.rev_sources)
    reached = np.zeros(g.node_count, dtype=bool) if blocked is None else blocked.copy()
    reached[seeds] = True
    frontier = seeds
    for _ in range(_LEVELS):
        fresh = np.zeros_like(reached)
        for offsets, targets in {"out": [fwd], "in": [rev], "both": [fwd, rev]}[way]:
            starts = offsets[frontier]
            counts = offsets[frontier + 1] - starts
            # the frontier's rows as one CSR: row i's entries are ends[i]..ends[i+1]-1
            ends = np.zeros(len(frontier) + 1, dtype=np.int64)
            np.cumsum(counts, out=ends[1:])
            starts -= ends[:-1]  # each gathered entry: its place plus its row's shift
            for lo, hi in _row_blocks(ends):
                shift = np.repeat(starts[lo:hi], counts[lo:hi])
                shift += np.arange(ends[lo], ends[hi])
                fresh[targets[shift]] = True
        fresh &= ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
        if not frontier.size:
            return reached
    raise _TooDeep


def _compiled_search(g: DirectedGraph, way: str, blocked, seeds: np.ndarray) -> np.ndarray:
    """:func:`_search` by one compiled scipy traversal, at any depth, that
    walks through ``blocked``: equal when nothing else is reached only
    through it. Over "both" directions: the first seed's weak component."""
    if way == "both":
        return _reach_mask(*_both_ways(g), seeds[:1])
    fwd, rev = (g.fwd_offsets, g.fwd_targets), (g.rev_offsets, g.rev_sources)
    reached = _reach_mask(*(fwd if way == "out" else rev), seeds)
    return reached if blocked is None else reached | blocked


def _classes(g: DirectedGraph, search):
    """SCC, IN, OUT, TUBE and weak-body masks, every reach taken by
    ``search``: :func:`_search` or :func:`_compiled_search`.

    The reaches start from the node with the largest ``k_out * k_in``.
    Every other strong component lies inside its forward reach less its
    core, inside its backward reach less its core, or outside both, so a
    core larger than each of those three counts is the largest. Else one
    strong-component pass names the largest, and the reaches are taken
    again from its first node when the pivot lies outside it: one core
    node reaches what the whole core reaches.
    """
    # degrees from the offsets: the cached degree arrays would outlive the call
    seeds = np.argmax(np.diff(g.fwd_offsets) * np.diff(g.rev_offsets), keepdims=True)
    fwd_reach, rev_reach = search(g, "out", None, seeds), search(g, "in", None, seeds)
    scc = fwd_reach & rev_reach
    out_, in_ = fwd_reach & ~scc, rev_reach & ~scc
    outside = g.node_count - np.count_nonzero(fwd_reach | rev_reach)
    if np.count_nonzero(scc) <= max(np.count_nonzero(out_), np.count_nonzero(in_), outside):
        core = _largest_core(g)
        if not core[seeds[0]]:
            scc, seeds = core, np.argmax(core, keepdims=True)
            fwd_reach, rev_reach = search(g, "out", None, seeds), search(g, "in", None, seeds)
            out_, in_ = fwd_reach & ~scc, rev_reach & ~scc
    main = scc | in_ | out_
    tube = np.zeros_like(main)
    if in_.any() and out_.any():
        # paths from IN to OUT that never enter the core; blocking all of main
        # is the same: past the core or OUT a path stays in OUT; IN are seeds
        from_in = search(g, "out", main, np.flatnonzero(in_))
        tube = from_in & search(g, "in", main, np.flatnonzero(out_)) & ~main
    return scc, in_, out_, tube, search(g, "both", None, np.flatnonzero(main))


def bowtie_decompose(g: DirectedGraph) -> BowTiePartition:
    """Full six-class partition around the largest SCC.

    The core is the largest strong component, ties broken by smallest
    contained node id; on an edgeless graph that leaves the single node
    with the smallest id as the core. An empty graph yields an all-empty
    partition with zero percentages.

    The classifier runs on capped numpy searches, and again on compiled
    scipy traversals when a search gives way.
    """
    n = g.node_count
    if n == 0:
        zeros = {c: 0 for c in _CLASS_ORDER}
        pcts = {c: 0.0 for c in _CLASS_ORDER}
        return BowTiePartition(0, np.empty(0, dtype=np.uint8), zeros, pcts, 0.0)

    try:
        masks = _classes(g, _search)
    except _TooDeep:  # rerun past the clause, whose traceback holds the first run's arrays
        masks = None
    scc, in_, out_, tube, weak = masks or _classes(g, _compiled_search)

    # each class is painted over the last: TENDRIL is the weak body's rest
    class_of = np.full(n, _CLASS_CODE[BowTieClass.DISCONNECTED], dtype=np.uint8)
    class_of[weak] = _CLASS_CODE[BowTieClass.TENDRIL]
    class_of[tube] = _CLASS_CODE[BowTieClass.TUBE]
    class_of[out_] = _CLASS_CODE[BowTieClass.OUT]
    class_of[in_] = _CLASS_CODE[BowTieClass.IN]
    class_of[scc] = _CLASS_CODE[BowTieClass.SCC]

    counts = np.bincount(class_of, minlength=len(_CLASS_ORDER))
    sizes = {c: int(counts[_CLASS_CODE[c]]) for c in _CLASS_ORDER}
    pcts = {c: 100.0 * sizes[c] / n for c in _CLASS_ORDER}
    main_pct = pcts[BowTieClass.SCC] + pcts[BowTieClass.IN] + pcts[BowTieClass.OUT]
    return BowTiePartition(n, class_of, sizes, pcts, main_pct)
