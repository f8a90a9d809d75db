"""Degree-degree correlation profiles for directed graphs.

All profiles are computed per degree class with no binning; every class
reports its population and the standard error of the class mean, so
presentation layers can bin or thin without touching the statistics.
Directed nearest-neighbor profiles come in four variants, one per
combination of the conditioning degree (in or out) and the averaged
neighbor degree (in or out), each divided by the ratio that makes an
uncorrelated graph sit flat at 1.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedStatisticError
from .graph import DirectedGraph, _local_rows, _row_blocks, exact_product_sum


@dataclass(frozen=True)
class CorrelationProfile:
    """One per-degree-class profile.

    ``mean_raw[i]`` is the class average of the per-node quantity for
    nodes whose conditioning degree equals ``degrees[i]``;
    ``mean_normalized`` is ``mean_raw / normalization`` (``None`` when
    the normalizer is undefined, with ``note`` saying why). ``stderr``
    is the sample standard deviation of per-node values over the class
    divided by sqrt(N_k); it is NaN for singleton classes.
    """

    x_kind: str
    y_label: str
    degrees: np.ndarray
    mean_raw: np.ndarray
    mean_normalized: np.ndarray | None
    n_k: np.ndarray
    stderr: np.ndarray
    normalization: float | None
    note: str | None = None


class KnnVariant(enum.Enum):
    """Directed nearest-neighbor profile selector.

    Named by averaged-neighbor-degree then conditioning-degree; e.g.
    IN_NN_OF_IN averages neighbor in-degrees (over in-neighbors) as a
    function of the node's own in-degree.
    """

    IN_NN_OF_IN = "in_nn_of_in"
    OUT_NN_OF_IN = "out_nn_of_in"
    IN_NN_OF_OUT = "in_nn_of_out"
    OUT_NN_OF_OUT = "out_nn_of_out"


def class_profile(
    x: np.ndarray,
    values: np.ndarray,
    mask: np.ndarray,
    normalization: float | None,
    x_kind: str,
    y_label: str,
    note: str | None = None,
) -> CorrelationProfile:
    """Group per-node ``values`` into classes of ``x`` over ``mask``.

    Shared by every profile in this module and the reciprocal ones. A
    normalizer of None or 0 leaves ``mean_normalized`` None; an empty
    mask gives empty arrays. Unless ``note`` is given, those cases are
    noted "no qualifying nodes", then "normalization undefined".
    """
    x = np.asarray(x, dtype=np.int64)[mask]
    v = np.asarray(values, dtype=np.float64)[mask]
    counts = np.bincount(x)
    sums = np.bincount(x, weights=v)
    sqsums = np.bincount(x, weights=v * v)
    present = np.flatnonzero(counts)
    n_k = counts[present]
    mean = sums[present] / n_k
    with np.errstate(invalid="ignore", divide="ignore"):
        var = (sqsums[present] - n_k * mean * mean) / np.maximum(n_k - 1, 0)
        var = np.maximum(var, 0.0)
        stderr = np.sqrt(var / n_k)
    stderr[n_k < 2] = np.nan
    normalization = float(normalization) if normalization else None
    if not note and len(x) == 0:
        note = "no qualifying nodes"
    elif not note and normalization is None:
        note = "normalization undefined"
    return CorrelationProfile(
        x_kind,
        y_label,
        present.astype(np.int64),
        mean,
        None if normalization is None else mean / normalization,
        n_k.astype(np.int64),
        stderr,
        normalization,
        note,
    )


def _conditional_mean(
    x: np.ndarray, y: np.ndarray, x_kind: str, y_label: str, zero_note: str
) -> CorrelationProfile:
    """Class mean of ``y`` over the classes of ``x``, every node counted,
    divided by the mean of ``y``; ``zero_note`` when that mean is zero."""
    mean_y = float(np.asarray(y, dtype=np.float64).mean()) if len(y) else 0.0
    everyone = np.ones(len(x), dtype=bool)
    note = None if mean_y > 0 else zero_note
    return class_profile(x, y, everyone, mean_y, x_kind, y_label, note=note)


def avg_out_given_in(g: DirectedGraph) -> CorrelationProfile:
    """Average out-degree of nodes in each in-degree class, normalized
    by the global mean out-degree. Degree-zero classes participate:
    nothing here divides by a node's own degree."""
    if g.node_count == 0:
        raise UndefinedStatisticError("profile of an empty graph")
    return _conditional_mean(
        g.in_degrees, g.out_degrees, "k_in", "mean_k_out", "mean out-degree is zero"
    )


def crossed_one_point(g: DirectedGraph) -> float:
    """<k_in k_out> / (<k_in><k_out>): 1 on degree-independent graphs."""
    m = g.edge_count  # the sum of either degree
    if m == 0:
        raise UndefinedStatisticError("one-point ratio of an edgeless graph")
    return exact_product_sum(g.in_degrees, g.out_degrees) * g.node_count / (m * m)


def normalized_product_ratio(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """<xy>/(<x><y>) over parallel per-node arrays, with a delta-method
    standard error. Raises when either mean is zero."""
    n = len(x)
    if n == 0:
        raise UndefinedStatisticError("ratio over an empty population")
    # one (3, n) array holds xy, x and y
    rows = np.empty((3, n))
    rows[1], rows[2] = x, y
    np.multiply(rows[1], rows[2], out=rows[0])
    mxy, mx, my = (row.mean() for row in rows)
    if mx == 0 or my == 0:
        raise UndefinedStatisticError("ratio denominator mean is zero")
    ratio = mxy / (mx * my)
    if n < 2:
        return float(ratio), float("nan")
    grad = np.array(
        [1.0 / (mx * my), -mxy / (mx * mx * my), -mxy / (mx * my * my)]
    )
    # the steps of np.cov(rows, ddof=1), in place, so its bits are kept
    rows -= rows.mean(axis=1)[:, None]
    cov = np.dot(rows, rows.T)
    cov *= np.true_divide(1, n - 1)
    cov /= n
    var = float(grad @ cov @ grad)
    return float(ratio), float(np.sqrt(max(var, 0.0)))


def _knn_sides(variant: enum.Enum, kind: type) -> tuple[str, str]:
    """(averaged side, conditioning side) of a ``kind`` member, each "in"
    or "out", read from the member name that both knn enums share:
    ``OUT_NN_OF_IN`` gives ("out", "in")."""
    if not isinstance(variant, kind):
        raise ValueError(f"unknown variant {variant!r}")
    averaged, _, _, conditioning = variant.name.lower().split("_")
    return averaged, conditioning


def _neighbor_sums(
    offsets: np.ndarray,
    targets: np.ndarray,
    qty: np.ndarray,
    transpose: bool = False,
    skip: np.ndarray | None = None,
) -> np.ndarray:
    """Per-node float64 sum of ``qty`` over the neighbors along the edges
    u -> v of the CSR ``(offsets, targets)``: at u of qty[v], or, with
    ``transpose``, at v of qty[u]; the entries where the mask ``skip`` is
    set are left out. Summed one row block at a time, each transposed
    block into an array of n; integer terms sum exactly in any order
    while every sum stays below 2**53."""
    n = len(offsets) - 1
    qty = np.asarray(qty, dtype=np.float64)
    sums = np.zeros(n)
    for lo, hi in _row_blocks(offsets, n if transpose else 0):
        heads = targets[offsets[lo] : offsets[hi]]
        if transpose:  # each row's own quantity, once per entry
            tails = np.repeat(qty[lo:hi], np.diff(offsets[lo : hi + 1]))
        else:
            tails = _local_rows(offsets, lo, hi)
        if skip is not None:
            keep = ~skip[offsets[lo] : offsets[hi]]
            heads, tails = heads[keep], tails[keep]
        if transpose:
            sums += np.bincount(heads, weights=tails, minlength=n)
        else:
            sums[lo:hi] = np.bincount(tails, weights=qty[heads], minlength=hi - lo)
    return sums


def _neighbor_means(
    offsets: np.ndarray,
    targets: np.ndarray,
    qty: np.ndarray,
    count: np.ndarray,
    transpose: bool = False,
) -> np.ndarray:
    """Per-node mean of ``qty`` over the neighbors that
    :func:`_neighbor_sums` sums; ``count`` is each node's neighbor count.
    NaN where a node has no neighbor."""
    with np.errstate(invalid="ignore"):
        return _neighbor_sums(offsets, targets, qty, transpose) / count


def knn_undirected(graph: DirectedGraph) -> CorrelationProfile:
    """Average neighbor degree per degree class of the undirected
    projection of ``graph``, where a node's neighbors are its in- and
    out-neighbors and a mutual pair is one neighbor.

    Per-node value: mean degree over the node's neighbors. Normalized
    by kappa = <d^2>/<d>, the flat level of an uncorrelated graph.
    Degree-zero nodes are excluded (their neighbor average is
    undefined). The projection is read off the forward CSR and the
    ``mutual`` mask, with no symmetric CSR built: a node's neighbor sum
    is the out-neighbor sum over every forward edge plus the
    in-neighbor sum over the one-way edges. The sums are of integers, so
    the profile equals the one of ``undirected_view(graph)`` bit for
    bit; on a symmetric graph every edge is mutual, the projection is
    the graph itself, and the in-neighbor sum is not taken.
    """
    if graph.edge_count == 0:
        raise UndefinedStatisticError("neighbor profile of an edgeless graph")
    deg = graph.undirected_degrees
    csr = graph.fwd_offsets, graph.fwd_targets
    sums = _neighbor_sums(*csr, deg)
    # a mutual in-neighbor is already an out-neighbor, so a graph whose every
    # edge is mutual, as a symmetric one, has no other
    if int(graph.mutual_degrees.sum()) < graph.edge_count:
        sums += _neighbor_sums(*csr, deg, transpose=True, skip=graph.mutual)
    with np.errstate(invalid="ignore"):
        knn = sums / deg
    kappa = exact_product_sum(deg, deg) / int(deg.sum())
    return class_profile(deg, knn, deg > 0, kappa, "degree", "mean_neighbor_degree")


def directed_knn(g: DirectedGraph, variant: KnnVariant) -> CorrelationProfile:
    """One of the four directed average-nearest-neighbor profiles.

    For a node i the per-node value is the sum of the chosen neighbor
    degree over the chosen neighbor set, divided by i's conditioning
    degree (the size of that set); the class mean is then divided by
    sum(qty * w)/m, w = k_out over in-neighbors and k_in over out-neighbors
    (kappa_out, kappa_in, or the crossed sum(k_in k_out)/m), so an
    uncorrelated graph reads 1 at every class. Nodes whose conditioning
    degree is zero have no neighbor set and are excluded.
    """
    if g.edge_count == 0:
        raise UndefinedStatisticError("neighbor profile of an edgeless graph")
    averaged, conditioning = _knn_sides(variant, KnnVariant)
    deg = {"in": g.in_degrees, "out": g.out_degrees}
    cond, qty = deg[conditioning], deg[averaged]
    w = deg["out" if conditioning == "in" else "in"]
    norm = exact_product_sum(qty, w) / g.edge_count
    # in-neighbor sums read the forward edges head first, with no reverse CSR
    means = _neighbor_means(g.fwd_offsets, g.fwd_targets, qty, cond, conditioning == "in")
    return class_profile(
        cond,
        means,
        cond > 0,
        norm,
        f"k_{conditioning}",
        f"mean_nn_k_{averaged}",
        note=None if norm > 0 else "normalizing ratio is zero",
    )
