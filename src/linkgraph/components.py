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

from .graph import DirectedGraph, _filter_csr


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
    """The CSR as a scipy matrix; scipy loads on a command's first traversal."""
    from scipy.sparse import csr_matrix

    n = len(offsets) - 1
    return csr_matrix((np.ones(len(targets)), targets, offsets), shape=(n, n))


def _reach_mask(offsets: np.ndarray, targets: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes reachable from ``seeds`` along one CSR
    direction, seeds included.

    One compiled breadth-first search from a virtual super-source, node
    ``n``, whose row lists the seeds: the cost is linear in nodes plus
    edges whatever the graph's depth.
    """
    from scipy.sparse.csgraph import breadth_first_order

    n = len(offsets) - 1
    mat = _adjacency(
        np.append(offsets, offsets[-1] + len(seeds)), np.concatenate([targets, seeds])
    )
    reached = np.zeros(n + 1, dtype=bool)
    reached[breadth_first_order(mat, n, return_predecessors=False)] = True
    return reached[:n]


def bowtie_decompose(g: DirectedGraph) -> BowTiePartition:
    """Full six-class partition around the largest SCC.

    The core is the largest strong component, ties broken by smallest
    contained node id; on an edgeless graph that leaves the single node
    with the smallest id as the core. An empty graph yields an all-empty
    partition with zero percentages.
    """
    from scipy.sparse.csgraph import connected_components as _cc

    n = g.node_count
    if n == 0:
        zeros = {c: 0 for c in _CLASS_ORDER}
        pcts = {c: 0.0 for c in _CLASS_ORDER}
        return BowTiePartition(0, np.empty(0, dtype=np.uint8), zeros, pcts, 0.0)

    labels, comp_sizes = strongly_connected_components(g)
    # labels are numbered by first occurrence, so argmax's first largest
    # label is the tied component containing the smallest node id
    scc = labels == np.argmax(comp_sizes)

    scc_nodes = np.flatnonzero(scc)
    fwd_reach = _reach_mask(g.fwd_offsets, g.fwd_targets, scc_nodes)
    rev_reach = _reach_mask(g.rev_offsets, g.rev_sources, scc_nodes)
    out_ = fwd_reach & ~scc
    in_ = rev_reach & ~scc

    main = scc | in_ | out_

    tube = np.zeros(n, dtype=bool)
    in_nodes = np.flatnonzero(in_)
    out_nodes = np.flatnonzero(out_)
    if in_nodes.size and out_nodes.size:
        # paths that never enter the core
        from_in = _reach_mask(
            *_filter_csr(g.fwd_offsets, g.fwd_targets, ~scc[g.fwd_targets]), in_nodes
        )
        to_out = _reach_mask(
            *_filter_csr(g.rev_offsets, g.rev_sources, ~scc[g.rev_sources]), out_nodes
        )
        tube = from_in & to_out & ~main

    _, weak_labels = _cc(_adjacency(g.fwd_offsets, g.fwd_targets), connection="weak")
    weak = weak_labels == weak_labels[scc_nodes[0]]
    tendril = weak & ~main & ~tube

    class_of = np.full(n, _CLASS_CODE[BowTieClass.DISCONNECTED], dtype=np.uint8)
    class_of[tendril] = _CLASS_CODE[BowTieClass.TENDRIL]
    class_of[tube] = _CLASS_CODE[BowTieClass.TUBE]
    class_of[out_] = _CLASS_CODE[BowTieClass.OUT]
    class_of[in_] = _CLASS_CODE[BowTieClass.IN]
    class_of[scc] = _CLASS_CODE[BowTieClass.SCC]

    counts = np.bincount(class_of, minlength=len(_CLASS_ORDER))
    sizes = {c: int(counts[_CLASS_CODE[c]]) for c in _CLASS_ORDER}
    pcts = {c: 100.0 * sizes[c] / n for c in _CLASS_ORDER}
    main_pct = pcts[BowTieClass.SCC] + pcts[BowTieClass.IN] + pcts[BowTieClass.OUT]
    return BowTiePartition(n, class_of, sizes, pcts, main_pct)
