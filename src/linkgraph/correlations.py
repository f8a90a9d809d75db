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
from .graph import (
    DirectedGraph,
    UndirectedGraph,
    exact_product_sum,
    neighbor_value_sums,
)


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

    Shared by every profile in this module and the reciprocal ones.
    """
    x = np.asarray(x, dtype=np.int64)[mask]
    v = np.asarray(values, dtype=np.float64)[mask]
    if len(x) == 0:
        empty = np.empty(0)
        return CorrelationProfile(
            x_kind,
            y_label,
            np.empty(0, dtype=np.int64),
            empty,
            empty if normalization else None,
            np.empty(0, dtype=np.int64),
            empty,
            normalization,
            note or "no qualifying nodes",
        )
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
    if normalization is None or normalization == 0:
        return CorrelationProfile(
            x_kind,
            y_label,
            present.astype(np.int64),
            mean,
            None,
            n_k.astype(np.int64),
            stderr,
            None,
            note or "normalization undefined",
        )
    return CorrelationProfile(
        x_kind,
        y_label,
        present.astype(np.int64),
        mean,
        mean / normalization,
        n_k.astype(np.int64),
        stderr,
        float(normalization),
        note,
    )


def _mean(values: np.ndarray) -> float:
    return float(np.asarray(values, dtype=np.float64).mean())


def avg_out_given_in(g: DirectedGraph) -> CorrelationProfile:
    """Average out-degree of nodes in each in-degree class, normalized
    by the global mean out-degree. Degree-zero classes participate:
    nothing here divides by a node's own degree."""
    if g.node_count == 0:
        raise UndefinedStatisticError("profile of an empty graph")
    kin = g.in_degrees
    kout = g.out_degrees.astype(np.float64)
    mean_out = _mean(kout)
    mask = np.ones(g.node_count, dtype=bool)
    return class_profile(
        kin,
        kout,
        mask,
        mean_out if mean_out > 0 else None,
        "k_in",
        "mean_k_out",
        note=None if mean_out > 0 else "mean out-degree is zero",
    )


def crossed_one_point(g: DirectedGraph) -> float:
    """<k_in k_out> / (<k_in><k_out>): 1 on degree-independent graphs."""
    if g.edge_count == 0:
        raise UndefinedStatisticError("one-point ratio of an edgeless graph")
    kin = np.asarray(g.in_degrees, dtype=np.int64)
    kout = np.asarray(g.out_degrees, dtype=np.int64)
    n = g.node_count
    num = exact_product_sum(kin, kout)
    s_in = int(kin.sum())
    s_out = int(kout.sum())
    return (num * n) / (s_in * s_out)


def normalized_product_ratio(
    x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """<xy>/(<x><y>) over parallel per-node arrays, with a delta-method
    standard error. Raises when either mean is zero."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(x)
    if n == 0:
        raise UndefinedStatisticError("ratio over an empty population")
    mx, my = x.mean(), y.mean()
    if mx == 0 or my == 0:
        raise UndefinedStatisticError("ratio denominator mean is zero")
    xy = x * y
    mxy = xy.mean()
    ratio = mxy / (mx * my)
    if n < 2:
        return float(ratio), float("nan")
    grad = np.array(
        [1.0 / (mx * my), -mxy / (mx * mx * my), -mxy / (mx * my * my)]
    )
    cov = np.cov(np.stack([xy, x, y]), ddof=1) / n
    var = float(grad @ cov @ grad)
    return float(ratio), float(np.sqrt(max(var, 0.0)))


def knn_undirected(ug: UndirectedGraph) -> CorrelationProfile:
    """Average neighbor degree per degree class of an undirected graph.

    Per-node value: mean degree over the node's neighbors. Normalized
    by kappa = <d^2>/<d>, the flat level of an uncorrelated graph.
    Degree-zero nodes are excluded (their neighbor average is
    undefined).
    """
    deg = ug.degrees.astype(np.int64)
    total = int(deg.sum())
    if total == 0:
        raise UndefinedStatisticError("neighbor profile of an edgeless graph")
    kappa = exact_product_sum(deg, deg) / total
    sums = neighbor_value_sums(ug.rows, ug.targets, deg.astype(np.float64), ug.node_count)
    mask = deg > 0
    values = np.zeros(ug.node_count)
    values[mask] = sums[mask] / deg[mask]
    return class_profile(deg, values, mask, kappa, "degree", "mean_neighbor_degree")


def directed_knn(g: DirectedGraph, variant: KnnVariant) -> CorrelationProfile:
    """One of the four directed average-nearest-neighbor profiles.

    For a node i the per-node value is the sum of the chosen neighbor
    degree over the chosen neighbor set, divided by i's conditioning
    degree; the class mean is then divided by the matching ratio
    (kappa_out, kappa_in, or the crossed sum(k_in k_out)/sum(k_in)) so
    an uncorrelated graph reads 1 at every class. Nodes whose
    conditioning degree is zero have no neighbor set and are excluded.
    """
    kin = g.in_degrees.astype(np.int64)
    kout = g.out_degrees.astype(np.int64)
    if g.edge_count == 0:
        raise UndefinedStatisticError("neighbor profile of an edgeless graph")

    s_in = int(kin.sum())  # == s_out == edge count
    kappa_in = exact_product_sum(kin, kin) / s_in
    kappa_out = exact_product_sum(kout, kout) / s_in
    kappa_cross = exact_product_sum(kin, kout) / s_in

    # in-neighbor sums read the forward edges head first: each head's
    # tails arrive in ascending order, as a reverse CSR would give them
    if variant is KnnVariant.IN_NN_OF_IN:
        cond, qty, rows, tgts, norm = kin, kin, g.fwd_targets, g.fwd_rows, kappa_cross
    elif variant is KnnVariant.OUT_NN_OF_IN:
        cond, qty, rows, tgts, norm = kin, kout, g.fwd_targets, g.fwd_rows, kappa_out
    elif variant is KnnVariant.IN_NN_OF_OUT:
        cond, qty, rows, tgts, norm = kout, kin, g.fwd_rows, g.fwd_targets, kappa_in
    elif variant is KnnVariant.OUT_NN_OF_OUT:
        cond, qty, rows, tgts, norm = kout, kout, g.fwd_rows, g.fwd_targets, kappa_cross
    else:
        raise ValueError(f"unknown variant {variant!r}")

    sums = neighbor_value_sums(rows, tgts, qty.astype(np.float64), g.node_count)
    mask = cond > 0
    values = np.zeros(g.node_count)
    values[mask] = sums[mask] / cond[mask]
    x_kind = "k_in" if cond is kin else "k_out"
    y_label = f"mean_nn_{'k_in' if qty is kin else 'k_out'}"
    return class_profile(
        cond,
        values,
        mask,
        norm if norm > 0 else None,
        x_kind,
        y_label,
        note=None if norm > 0 else "normalizing ratio is zero",
    )
