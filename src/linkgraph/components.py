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
# most 27 on the benchmark's graphs), and a chain of one-in, one-out
# nodes is crossed in one step; a search deep in other ways hands over
# to the compiled kernel after milliseconds, and the bow-tie's later
# searches start there.
_LEVELS = 64


@dataclass
class _Runs:
    """What the classifier reads off a graph's degrees, taken once per
    bow-tie: the pivot, the nodes that can lie on a cycle, and the runs.

    A run is a maximal path of one-in, one-out nodes; its entry is the
    first node's predecessor and its exit the last node's successor.
    Run r is ``nodes[offsets[r]:offsets[r + 1]]`` in path order, and
    ``slot[v]`` is v's place in ``nodes``, -1 off a run; those three are
    int32, and None once a search has handed over to the compiled kernel.
    """

    pivot: np.ndarray  # the node with the largest k_out * k_in, as one seed
    cyclic: np.ndarray  # mask: the nodes a strong component of 2+ nodes can hold
    offsets: np.ndarray
    nodes: np.ndarray
    slot: np.ndarray


def _runs(g: DirectedGraph) -> _Runs:
    """The run index of ``g``, found by pointer jumping over each one-in,
    one-out node's predecessor: at most 31 rounds over those nodes. A
    cycle of such nodes alone has no first node and is left off the runs.

    A node with no in- or out-edge lies on no cycle, nor does a run whose
    entry has no in-edge or whose exit has no out-edge: ``cyclic`` holds
    the other nodes.
    """
    n = g.node_count
    fwd, rev = g.fwd_offsets, g.rev_offsets
    # degrees from the offsets: the cached degree arrays would outlive the call
    k_out = np.subtract(fwd[1:], fwd[:-1], dtype=np.int32)
    k_in = np.subtract(rev[1:], rev[:-1], dtype=np.int32)
    pivot = np.argmax(np.multiply(k_out, k_in, dtype=np.int64), keepdims=True)
    ones = np.flatnonzero((k_in == 1) & (k_out == 1)).astype(np.int32)
    count = len(ones)
    slot = np.full(n, -1, dtype=np.int32)  # first each one's place in ones
    slot[ones] = np.arange(count, dtype=np.int32)
    up = slot[g.rev_sources[rev[ones]]]  # the predecessor's place, -1 off the ones
    head = np.where(up < 0, np.arange(count, dtype=np.int32), up)
    depth = (up >= 0).astype(np.int32)
    for _ in range(count.bit_length()):  # each round doubles the distance covered
        depth += depth[head]
        head = head[head]
    on = up[head] < 0  # off: a cycle's pointers never reach a first node
    last = np.flatnonzero(slot[g.fwd_targets[fwd[ones]]] < 0)
    size = np.zeros(count, dtype=np.int32)  # each run's length at its first node
    size[head[last]] = depth[last] + 1
    first = np.flatnonzero(up < 0)
    offsets = np.zeros(len(first) + 1, dtype=np.int32)
    np.cumsum(size[first], out=offsets[1:])
    size[first] = offsets[:-1]  # now each run's start
    place = size[head] + depth
    slot[ones] = np.where(on, place, -1)
    nodes = np.empty(offsets[-1], dtype=np.int32)
    nodes[place[on]] = ones[on]

    cyclic = (k_in > 0) & (k_out > 0)
    entry = g.rev_sources[rev[nodes[offsets[:-1]]]]
    exit_ = g.fwd_targets[fwd[nodes[offsets[1:] - 1]]]
    dead = (k_in[entry] == 0) | (k_out[exit_] == 0)
    cyclic[nodes[np.repeat(dead, np.diff(offsets))]] = False
    return _Runs(pivot, cyclic, offsets, nodes, slot)


def _mark(fresh: np.ndarray, values: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> None:
    """Set ``fresh`` at the entries of ``values[starts[i]:ends[i + 1]]``
    for every i, gathered by index arithmetic in blocks of about
    ``_BLOCK_EDGES`` entries. ``ends[0]`` is 0. Both arrays, int64, are
    overwritten."""
    # the slices as one CSR: slice i's entries are ends[i]..ends[i+1]-1
    ends[1:] -= starts
    np.cumsum(ends, out=ends)
    starts -= ends[:-1]  # each gathered entry: its place plus its slice's shift
    for lo, hi in _row_blocks(ends):
        shift = np.repeat(starts[lo:hi], np.diff(ends[lo : hi + 1]))
        shift += np.arange(ends[lo], ends[hi])
        fresh[values[shift]] = True


def _leap(fresh: np.ndarray, way: str, runs: _Runs, free) -> bool:
    """Add to ``fresh`` what its nodes on a run reach along that run:
    the suffix from the first of them going "out", the prefix up to the
    last going "in", the whole run going "both". Runs outside the mask
    ``free`` (None frees all) are left. Returns whether any run leapt."""
    at = runs.slot[np.flatnonzero(fresh)]
    at = np.sort(at[at >= 0])
    run = np.searchsorted(runs.offsets, at, side="right") - 1
    keep = np.ones(len(at), dtype=bool)  # one node a run: its first, or its last going in
    if way == "in":
        np.not_equal(run[1:], run[:-1], out=keep[:-1])
    else:
        np.not_equal(run[1:], run[:-1], out=keep[1:])
    if free is not None:
        keep &= free[run]
    at, run = at[keep], run[keep]
    if not at.size:
        return False
    starts = (at if way == "out" else runs.offsets[run]).astype(np.int64)
    ends = np.zeros(len(at) + 1, dtype=np.int64)
    ends[1:] = at + 1 if way == "in" else runs.offsets[run + 1]
    _mark(fresh, runs.nodes, starts, ends)
    return True


def _search(g: DirectedGraph, way: str, blocked, seeds: np.ndarray, runs: _Runs) -> np.ndarray:
    """Mask of the nodes ``seeds`` reach along ``way`` ("out", "in" or
    "both" directions), seeds included, never passing through a node of
    the mask ``blocked`` (None blocks none), whose nodes it includes.
    Each step marks the targets of the frontier's rows; those not reached
    before, with what they reach along their runs that hold no blocked
    node, are the next frontier. Past ``_LEVELS`` steps the search lets
    its arrays and the runs go and finishes in :func:`_compiled_search`,
    where every later search on ``runs`` starts.
    """
    if runs.slot is None:
        return _compiled_search(g, way, blocked, seeds)
    rows = {"out": [(g.fwd_offsets, g.fwd_targets)], "in": [(g.rev_offsets, g.rev_sources)]}
    rows["both"] = rows["out"] + rows["in"]
    free = None
    if blocked is not None:
        free = np.ones(len(runs.offsets) - 1, dtype=bool)
        hit = np.flatnonzero(blocked[runs.nodes])
        free[np.searchsorted(runs.offsets, hit, side="right") - 1] = False
    reached = np.zeros(g.node_count, dtype=bool) if blocked is None else blocked.copy()
    reached[seeds] = True
    frontier = seeds
    for _ in range(_LEVELS):
        fresh = np.zeros_like(reached)
        for offsets, targets in rows[way]:
            ends = np.zeros(len(frontier) + 1, dtype=np.int64)
            ends[1:] = offsets[1:][frontier]
            _mark(fresh, targets, offsets[frontier], ends)
        fresh &= ~reached
        if _leap(fresh, way, runs, free):
            fresh &= ~reached
        reached |= fresh
        frontier = np.flatnonzero(fresh)
        if not frontier.size:
            return reached
    # the compiled kernel leaps along no run: its arrays are the only ones left
    reached = fresh = frontier = ends = free = hit = runs.offsets = runs.nodes = runs.slot = None
    return _compiled_search(g, way, blocked, seeds)


def _compiled_search(g: DirectedGraph, way: str, blocked, seeds: np.ndarray) -> np.ndarray:
    """:func:`_search` by one compiled scipy traversal, at any depth, that
    walks through ``blocked``: equal when nothing else is reached only
    through it. Over "both" directions: the first seed's weak component."""
    if way == "both":
        return _reach_mask(*_both_ways(g), seeds[:1])
    fwd, rev = (g.fwd_offsets, g.fwd_targets), (g.rev_offsets, g.rev_sources)
    reached = _reach_mask(*(fwd if way == "out" else rev), seeds)
    return reached if blocked is None else reached | blocked


def _holds_at_most(region: np.ndarray, cyclic: np.ndarray) -> int:
    """A bound on the largest strong component inside ``region``: its
    nodes that can lie on a cycle, and 1 for a single node."""
    return max(np.count_nonzero(region & cyclic), int(region.any()))


def _classes(g: DirectedGraph, runs: _Runs):
    """SCC, IN, OUT, TUBE and weak-body masks, every reach taken by
    :func:`_search` on ``runs``.

    The reaches start from the node with the largest ``k_out * k_in``.
    Every other strong component lies inside its forward reach less its
    core, inside its backward reach less its core, or outside both, so a
    core larger than what each of those three can hold is the largest.
    Else one strong-component pass names the largest, and the reaches
    are taken again from its first node when the pivot lies outside it:
    one core node reaches what the whole core reaches.
    """
    seeds = runs.pivot
    fwd_reach, rev_reach = _search(g, "out", None, seeds, runs), _search(g, "in", None, seeds, runs)
    scc = fwd_reach & rev_reach
    out_, in_ = fwd_reach & ~scc, rev_reach & ~scc
    others = (out_, in_, ~(fwd_reach | rev_reach))
    if np.count_nonzero(scc) <= max(_holds_at_most(r, runs.cyclic) for r in others):
        core = _largest_core(g)
        if not core[seeds[0]]:
            scc, seeds = core, np.argmax(core, keepdims=True)
            fwd_reach = _search(g, "out", None, seeds, runs)
            rev_reach = _search(g, "in", None, seeds, runs)
            out_, in_ = fwd_reach & ~scc, rev_reach & ~scc
    main = scc | in_ | out_
    tube = np.zeros_like(main)
    if in_.any() and out_.any():
        # paths from IN to OUT that never enter the core; blocking all of main
        # is the same: past the core or OUT a path stays in OUT; IN are seeds
        from_in = _search(g, "out", main, np.flatnonzero(in_), runs)
        tube = from_in & _search(g, "in", main, np.flatnonzero(out_), runs) & ~main
    return scc, in_, out_, tube, _search(g, "both", None, np.flatnonzero(main), runs)


def bowtie_decompose(g: DirectedGraph) -> BowTiePartition:
    """Full six-class partition around the largest SCC.

    The core is the largest strong component, ties broken by smallest
    contained node id; on an edgeless graph that leaves the single node
    with the smallest id as the core. An empty graph yields an all-empty
    partition with zero percentages.

    The classifier runs on capped numpy searches; one that gives way
    finishes on a compiled scipy traversal, where the later ones start.
    """
    n = g.node_count
    if n == 0:
        zeros = {c: 0 for c in _CLASS_ORDER}
        pcts = {c: 0.0 for c in _CLASS_ORDER}
        return BowTiePartition(0, np.empty(0, dtype=np.uint8), zeros, pcts, 0.0)

    scc, in_, out_, tube, weak = _classes(g, _runs(g))

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
