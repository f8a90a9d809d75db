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

from .correlations import CorrelationProfile, class_profile, normalized_product_ratio
from .degree_stats import DegreeHistogram, DegreeSummary, Direction, summarize
from .errors import UndefinedStatisticError
from .graph import DirectedGraph, UndirectedGraph, neighbor_value_sums


@dataclass(frozen=True)
class ReciprocalDecomposition:
    """Per-node split of degrees into reciprocal and one-way parts.

    ``subgraph`` is the undirected graph of the mutual pairs, with the
    directed graph's input ids; its degrees are ``q_r``. The one-way
    edges are the forward edges outside ``DirectedGraph.mutual``.
    """

    node_count: int
    q_in: np.ndarray
    q_out: np.ndarray
    q_r: np.ndarray
    subgraph: UndirectedGraph

    @property
    def reciprocal_pairs(self) -> np.ndarray:
        """Each mutual pair once as (u, v) with u < v, in CSR order."""
        rows, targets = self.subgraph.rows, self.subgraph.targets
        half = rows < targets
        return np.stack([rows[half], targets[half].astype(np.int64)], axis=1)

    @property
    def reciprocal_edge_count(self) -> int:
        """Directed edges that belong to mutual pairs."""
        return len(self.subgraph.targets)

    def reciprocity_fraction(self) -> float:
        m = self.reciprocal_edge_count + int(self.q_in.sum())  # one-way edges: one q_in each
        if m == 0:
            raise UndefinedStatisticError("reciprocity of an edgeless graph")
        return self.reciprocal_edge_count / m


def decompose(g: DirectedGraph) -> ReciprocalDecomposition:
    """Count each node's mutual and one-way edges from ``g.mutual``. The
    mutual edges in forward CSR order are the subgraph's sorted,
    symmetric CSR, so it is made without a sort."""
    n = g.node_count
    q_r = np.bincount(g.fwd_rows[g.mutual], minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(q_r, out=offsets[1:])
    sub = UndirectedGraph(n, offsets, g.fwd_targets[g.mutual], g.original_ids)
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
        try:
            value, stderr = normalized_product_ratio(x, y)
            out[name] = RatioStat(value, stderr)
        except UndefinedStatisticError as exc:
            out[name] = RatioStat(None, None, str(exc))
    return out


def conditional_means_nr(
    d: ReciprocalDecomposition,
) -> dict[str, CorrelationProfile]:
    """One-point conditional profiles over the decomposition:
    mean q_out per q_in class, and mean q_r per q_in and per q_out
    class, each normalized by the corresponding global mean."""
    profiles = {}
    all_nodes = np.ones(d.node_count, dtype=bool)
    for key, x, y, x_kind, y_label in (
        ("q_out_given_q_in", d.q_in, d.q_out, "q_in", "mean_q_out"),
        ("q_r_given_q_in", d.q_in, d.q_r, "q_in", "mean_q_r"),
        ("q_r_given_q_out", d.q_out, d.q_r, "q_out", "mean_q_r"),
    ):
        mean_y = float(np.asarray(y, dtype=np.float64).mean()) if d.node_count else 0.0
        profiles[key] = class_profile(
            x,
            y.astype(np.float64),
            all_nodes,
            mean_y if mean_y > 0 else None,
            x_kind,
            y_label,
            note=None if mean_y > 0 else f"mean {y_label[5:]} is zero",
        )
    return profiles


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


def reciprocal_subgraph(d: ReciprocalDecomposition) -> UndirectedGraph:
    """Undirected graph of mutual pairs on the full id space; the degree
    of node v is exactly q_r(v). It carries the directed graph's input
    ids, so exports print them."""
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
    q_r = d.q_r
    s_r = int(q_r.sum())
    if variant in (ReciprocalKnnVariant.IN_NN_OF_IN, ReciprocalKnnVariant.IN_NN_OF_OUT):
        qty = d.q_in
        qty_name = "q_in"
    else:
        qty = d.q_out
        qty_name = "q_out"
    if variant in (ReciprocalKnnVariant.IN_NN_OF_IN, ReciprocalKnnVariant.OUT_NN_OF_IN):
        cond = d.q_in
        cond_name = "q_in"
    else:
        cond = d.q_out
        cond_name = "q_out"

    if s_r == 0:
        norm = None
        note = "no reciprocal links; normalizer undefined"
    else:
        norm_val = float(np.dot(q_r.astype(np.float64), qty.astype(np.float64)) / s_r)
        norm = norm_val if norm_val > 0 else None
        note = None if norm is not None else "zero reciprocal-crossed normalizer"

    sums = neighbor_value_sums(
        d.subgraph.rows, d.subgraph.targets, qty.astype(np.float64), d.node_count
    )
    mask = q_r > 0
    values = np.zeros(d.node_count)
    values[mask] = sums[mask] / q_r[mask]
    return class_profile(
        cond, values, mask, norm, cond_name, f"mean_rnn_{qty_name}", note=note
    )


# -- clustering on the reciprocal subgraph ------------------------------


def clustering(sub: UndirectedGraph, node: int) -> float:
    """Fraction of realized links among one node's mutual partners:
    2 n_link / (q_r (q_r - 1)), from the subgraph's shared triangle
    count. Undefined below degree 2."""
    if not 0 <= node < sub.node_count:
        raise IndexError(f"node id {node} out of range")
    d = int(sub.degrees[node])
    if d < 2:
        raise UndefinedStatisticError(
            f"clustering undefined for node {node} with reciprocal degree {d}"
        )
    return 2 * int(sub.triangles[node]) / (d * (d - 1))


def avg_clustering_by_degree(sub: UndirectedGraph) -> CorrelationProfile:
    """Mean clustering per reciprocal-degree class, over nodes with
    q_r >= 2. No normalization applies; ``mean_normalized`` is None."""
    deg = sub.degrees.astype(np.int64)
    mask = deg >= 2
    tri = sub.triangles
    values = np.zeros(sub.node_count)
    dd = deg[mask].astype(np.float64)
    values[mask] = 2.0 * tri[mask] / (dd * (dd - 1.0))
    return class_profile(
        deg, values, mask, None, "q_r", "mean_clustering", note="unnormalized"
    )


def reciprocal_scatter(d: ReciprocalDecomposition) -> np.ndarray:
    """Raw per-node scatter rows (node, q_r, mean neighbor q_r,
    clustering) over nodes with q_r >= 1; clustering is NaN below
    degree 2. Exposes the full point cloud so multi-modal patterns are
    not averaged away."""
    sub = d.subgraph
    deg = sub.degrees.astype(np.int64)
    members = np.flatnonzero(deg >= 1)
    sums = neighbor_value_sums(
        sub.rows, sub.targets, deg.astype(np.float64), sub.node_count
    )
    knn = sums[members] / deg[members]
    tri = sub.triangles
    cvals = np.full(len(members), np.nan)
    big = deg[members] >= 2
    dd = deg[members][big].astype(np.float64)
    cvals[big] = 2.0 * tri[members][big] / (dd * (dd - 1.0))
    out = np.empty((len(members), 4), dtype=np.float64)
    out[:, 0] = members
    out[:, 1] = deg[members]
    out[:, 2] = knn
    out[:, 3] = cvals
    return out
