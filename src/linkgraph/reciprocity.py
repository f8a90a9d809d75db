"""Reciprocal-link structure: degree decomposition, correlations, and
clustering on the mutual-link subgraph.

Every directed edge is either half of a mutual pair or one-way. That
splits each node's degrees exactly: k_in = q_in + q_r and
k_out = q_out + q_r, where q_r counts mutual partners and q_in/q_out
count one-way links. All statistics here are phrased in those three
quantities.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .correlations import (
    CorrelationProfile,
    _conditional_mean,
    _knn_sides,
    _neighbor_means,
    class_profile,
    normalized_product_ratio,
)
from .degree_stats import DegreeHistogram, DegreeSummary, Direction, summarize
from .errors import UndefinedStatisticError, value_or_note
from .graph import DirectedGraph, _filter_csr, _frozen, _in_sorted, _symmetric, exact_product_sum


@dataclass(frozen=True)
class ReciprocalDecomposition:
    """Per-node split of degrees into reciprocal and one-way parts.

    ``subgraph`` is the graph of the mutual edges, symmetric (each pair
    is two edges, one each way), with the directed graph's input ids;
    its out-degrees are ``q_r``. The one-way edges are the forward edges
    outside ``DirectedGraph.mutual``.
    """

    node_count: int
    q_in: np.ndarray
    q_out: np.ndarray
    q_r: np.ndarray
    subgraph: DirectedGraph

    @property
    def reciprocal_pairs(self) -> np.ndarray:
        """Each mutual pair once as (u, v) with u < v, in CSR order."""
        rows, targets = self.subgraph.fwd_rows, self.subgraph.fwd_targets
        half = rows < targets
        return np.stack([rows[half].astype(np.int64), targets[half].astype(np.int64)], axis=1)

    @property
    def reciprocal_edge_count(self) -> int:
        """Directed edges that belong to mutual pairs."""
        return self.subgraph.edge_count

    def reciprocity_fraction(self) -> float:
        m = self.reciprocal_edge_count + int(self.q_in.sum())  # one-way edges: one q_in each
        if m == 0:
            raise UndefinedStatisticError("reciprocity of an edgeless graph")
        return self.reciprocal_edge_count / m


def decompose(g: DirectedGraph) -> ReciprocalDecomposition:
    """Split each node's degrees by ``g.mutual``. The mutual edges, cut from
    the forward CSR, are the subgraph's sorted, symmetric CSR, so it is made
    without a sort, and its out-degrees are q_r."""
    n = g.node_count
    sub = _symmetric(n, *_filter_csr(g.fwd_offsets, g.fwd_targets, g.mutual), g.original_ids)
    q_r = sub.out_degrees
    return ReciprocalDecomposition(n, g.in_degrees - q_r, g.out_degrees - q_r, q_r, sub)


def r_degree_stats(
    d: ReciprocalDecomposition,
) -> tuple[DegreeHistogram, DegreeSummary]:
    """Histogram and moment summary of the reciprocal degree q_r."""
    hist = DegreeHistogram.from_values(d.q_r, Direction.RECIPROCAL)
    return hist, summarize(hist)


@dataclass(frozen=True)
class RatioStat:
    """A scalar ratio with a delta-method standard error; ``value`` is
    None (and ``note`` set) when a denominator mean vanishes."""

    value: float | None
    stderr: float | None
    note: str | None = None


def crossed_one_point_nr(d: ReciprocalDecomposition) -> dict[str, RatioStat]:
    """The three one-point ratios over the (q_in, q_out, q_r) split.

    Each is <xy>/(<x><y>), equal to 1 when the two quantities are
    independent across nodes. Ratios with a zero-mean denominator are
    flagged, not zeroed.
    """
    out = {}
    for name, x, y in (
        ("q_in_q_out", d.q_in, d.q_out),
        ("q_in_q_r", d.q_in, d.q_r),
        ("q_out_q_r", d.q_out, d.q_r),
    ):
        ratio, note = value_or_note(normalized_product_ratio, x, y)
        out[name] = RatioStat(*(ratio or (None, None)), note)
    return out


def conditional_means_nr(
    d: ReciprocalDecomposition,
) -> dict[str, CorrelationProfile]:
    """One-point conditional profiles over the decomposition:
    mean q_out per q_in class, and mean q_r per q_in and per q_out
    class, each normalized by the corresponding global mean."""
    return {
        key: _conditional_mean(x, y, x_kind, f"mean_{y_name}", f"mean {y_name} is zero")
        for key, x, y, x_kind, y_name in (
            ("q_out_given_q_in", d.q_in, d.q_out, "q_in", "q_out"),
            ("q_r_given_q_in", d.q_in, d.q_r, "q_in", "q_r"),
            ("q_r_given_q_out", d.q_out, d.q_r, "q_out", "q_r"),
        )
    }


class ReciprocalKnnVariant(enum.Enum):
    """Nearest-neighbor profiles over reciprocal links only.

    Named by averaged neighbor quantity then conditioning quantity;
    e.g. IN_NN_OF_IN averages neighbor q_in over mutual partners as a
    function of the node's own q_in.
    """

    IN_NN_OF_IN = "r_in_nn_of_in"
    OUT_NN_OF_IN = "r_out_nn_of_in"
    IN_NN_OF_OUT = "r_in_nn_of_out"
    OUT_NN_OF_OUT = "r_out_nn_of_out"


def reciprocal_subgraph(d: ReciprocalDecomposition) -> DirectedGraph:
    """Symmetric graph of the mutual pairs on the full id space; the
    out-degree of node v is exactly q_r(v). It carries the directed
    graph's input ids, so exports print them."""
    return d.subgraph


def reciprocal_knn(d: ReciprocalDecomposition, variant: ReciprocalKnnVariant) -> CorrelationProfile:
    """Average neighbor q_in or q_out over mutual partners, conditioned
    on the node's own q_in or q_out.

    Per-node value: (sum of the neighbor quantity over reciprocal
    neighbors) / q_r. Nodes with q_r = 0 have no reciprocal neighbors
    and are excluded. Normalizers are <q_r q_in>/<q_r> for neighbor
    q_in and <q_r q_out>/<q_r> for neighbor q_out; when <q_r> or the
    normalizer is zero the profile is flagged undefined.
    """
    averaged, conditioning = _knn_sides(variant, ReciprocalKnnVariant)
    q = {"in": d.q_in, "out": d.q_out}
    qty = q[averaged]
    s_r = int(d.q_r.sum())
    if s_r == 0:
        norm, note = None, "no reciprocal links; normalizer undefined"
    else:
        norm = exact_product_sum(d.q_r, qty) / s_r
        note = None if norm > 0 else "zero reciprocal-crossed normalizer"
    sub = d.subgraph
    return class_profile(
        q[conditioning],
        _neighbor_means(sub.fwd_offsets, sub.fwd_targets, qty, d.q_r),
        d.q_r > 0,
        norm,
        f"q_{conditioning}",
        f"mean_rnn_q_{averaged}",
        note=note,
    )


# -- clustering on the reciprocal subgraph ------------------------------


def triangles(sub: DirectedGraph) -> np.ndarray:
    """Triangles through each node of the symmetric graph ``sub``, counted
    on first use and kept on it, as its derived arrays are: each edge is
    kept from its lower (degree, id) end, so the wedges inside the
    oriented rows number O(m^1.5) whatever the hubs (Chiba & Nishizeki
    1985), and each triangle closes once, at its lowest end."""
    if "_triangles" in vars(sub):
        return vars(sub)["_triangles"]
    n, deg, targets = sub.node_count, sub.out_degrees, sub.fwd_targets
    rows = np.repeat(np.arange(n, dtype=np.int32), deg)  # let go: the subgraph keeps no rows
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(deg, kind="stable")] = np.arange(n)
    up = rank[rows] < rank[targets]
    # a subsequence of the sorted CSR: rows ascend, and heads within a row
    src, dst = rows[up].astype(np.int64), targets[up].astype(np.int64)
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
    vars(sub)["_triangles"] = _frozen(t)
    return t


def clustering(sub: DirectedGraph, node: int) -> float:
    """Fraction of realized links among one node's mutual partners:
    2 n_link / (q_r (q_r - 1)), from the subgraph's shared triangle
    count. Undefined below degree 2."""
    if not 0 <= node < sub.node_count:
        raise IndexError(f"node id {node} out of range")
    d = int(sub.out_degrees[node])
    if d < 2:
        raise UndefinedStatisticError(
            f"clustering undefined for node {node} with reciprocal degree {d}"
        )
    return 2 * int(triangles(sub)[node]) / (d * (d - 1))


def _clustering_values(sub: DirectedGraph) -> np.ndarray:
    """Per-node clustering 2 t / (q_r (q_r - 1)) from the subgraph's
    triangle count; NaN below degree 2."""
    deg = sub.out_degrees.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        values = 2.0 * triangles(sub) / (deg * (deg - 1.0))
    values[deg < 2] = np.nan
    return values


def avg_clustering_by_degree(sub: DirectedGraph) -> CorrelationProfile:
    """Mean clustering per reciprocal-degree class, over nodes with
    q_r >= 2. No normalization applies; ``mean_normalized`` is None."""
    deg = sub.out_degrees
    return class_profile(
        deg, _clustering_values(sub), deg >= 2, None, "q_r", "mean_clustering", note="unnormalized"
    )


def reciprocal_scatter(d: ReciprocalDecomposition) -> np.ndarray:
    """Raw per-node scatter rows (node, q_r, mean neighbor q_r,
    clustering) over nodes with q_r >= 1; clustering is NaN below
    degree 2. Exposes the full point cloud so multi-modal patterns are
    not averaged away."""
    sub = d.subgraph
    deg = sub.out_degrees
    members = np.flatnonzero(deg >= 1)
    knn = _neighbor_means(sub.fwd_offsets, sub.fwd_targets, deg, deg)
    columns = members, deg[members], knn[members], _clustering_values(sub)[members]
    return np.stack(columns, axis=1)  # the int columns promote to float64
