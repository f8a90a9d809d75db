"""Brute-force reference implementations for cross-checking the fast
library code on small graphs.

Everything here favors obviousness over speed: full reachability
matrices, python dict loops, direct double sums. Nothing imports from
linkgraph, so agreement between the two is meaningful.
"""
from __future__ import annotations

import numpy as np


def reachability(n, edges):
    """Boolean closure matrix R with R[i, j] true when a directed path
    (possibly empty) runs from i to j."""
    r = np.eye(n, dtype=bool)
    for u, v in edges:
        r[u, v] = True
    while True:
        step = r | ((r.astype(np.uint8) @ r.astype(np.uint8)) > 0)
        if (step == r).all():
            return r
        r = step


def bowtie_bruteforce(n, edges):
    """Classify every node via the reachability matrix. Returns a dict
    of label -> set of node indices."""
    labels = {
        "SCC": set(),
        "IN": set(),
        "OUT": set(),
        "TENDRIL": set(),
        "TUBE": set(),
        "DISCONNECTED": set(),
    }
    if n == 0:
        return labels
    r = reachability(n, edges)
    mutual = r & r.T
    comps = {}
    for i in range(n):
        comps.setdefault(frozenset(np.flatnonzero(mutual[i]).tolist()), i)
    core = set(max(comps, key=lambda c: (len(c), -min(c))))
    rep = min(core)
    out = {x for x in range(n) if r[rep, x]} - core
    into = {x for x in range(n) if r[x, rep]} - core
    main = core | into | out
    tube = {
        x
        for x in range(n)
        if x not in main
        and any(r[i, x] for i in into)
        and any(r[x, o] for o in out)
    }
    undirected = edges + [(v, u) for u, v in edges]
    weak = reachability(n, undirected)
    weak_side = {x for x in range(n) if weak[rep, x]}
    tendril = weak_side - main - tube
    labels["SCC"] = core
    labels["IN"] = into
    labels["OUT"] = out
    labels["TUBE"] = tube
    labels["TENDRIL"] = tendril
    labels["DISCONNECTED"] = set(range(n)) - weak_side - tube
    return labels


def degree_counts(n, edges):
    kin = [0] * n
    kout = [0] * n
    for u, v in edges:
        kout[u] += 1
        kin[v] += 1
    return kin, kout


def kappa_direct(degree_list):
    """<k^2>/<k> by direct summation; None when every degree is zero."""
    s1 = sum(degree_list)
    if s1 == 0:
        return None
    return sum(d * d for d in degree_list) / s1


def class_means(xs, ys):
    """Group values by integer class; dict class -> mean."""
    agg = {}
    for x, y in zip(xs, ys):
        agg.setdefault(x, []).append(y)
    return {k: sum(v) / len(v) for k, v in agg.items()}


def avg_out_given_in_bruteforce(n, edges):
    kin, kout = degree_counts(n, edges)
    return class_means(kin, kout)


def crossed_one_point_bruteforce(n, edges):
    kin, kout = degree_counts(n, edges)
    num = sum(a * b for a, b in zip(kin, kout))
    return num * n / (sum(kin) * sum(kout))


def directed_knn_bruteforce(n, edges, cond, qty):
    """Raw class means for the four directed neighbor profiles.

    ``cond`` and ``qty`` are "in" or "out". The neighbor set follows
    the conditioning degree: conditioning on in-degree walks the
    in-neighbors, conditioning on out-degree the out-neighbors.
    """
    kin, kout = degree_counts(n, edges)
    deg = {"in": kin, "out": kout}
    xs, ys = [], []
    for node in range(n):
        c = deg[cond][node]
        if c == 0:
            continue
        if cond == "in":
            neigh = [u for u, v in edges if v == node]
        else:
            neigh = [v for u, v in edges if u == node]
        xs.append(c)
        ys.append(sum(deg[qty][b] for b in neigh) / c)
    return class_means(xs, ys)


def directed_knn_norm_bruteforce(n, edges, cond, qty):
    kin, kout = degree_counts(n, edges)
    m = sum(kin)
    if cond == "in" and qty == "in":
        return sum(a * b for a, b in zip(kin, kout)) / m
    if cond == "in" and qty == "out":
        return sum(d * d for d in kout) / m
    if cond == "out" and qty == "in":
        return sum(d * d for d in kin) / m
    return sum(a * b for a, b in zip(kin, kout)) / m


def knn_undirected_bruteforce(n, pairs):
    """pairs: undirected edges given once. Raw class means plus kappa."""
    adj = {i: set() for i in range(n)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    deg = {i: len(adj[i]) for i in range(n)}
    xs, ys = [], []
    for node in range(n):
        if deg[node] == 0:
            continue
        xs.append(deg[node])
        ys.append(sum(deg[b] for b in adj[node]) / deg[node])
    return class_means(xs, ys), kappa_direct(list(deg.values()))


def reciprocity_bruteforce(n, edges):
    """Per-node (q_in, q_out, q_r) plus the set of mutual pairs."""
    es = set(edges)
    q_r = [0] * n
    for u, v in es:
        if (v, u) in es:
            q_r[u] += 1
    kin, kout = degree_counts(n, sorted(es))
    q_in = [kin[i] - q_r[i] for i in range(n)]
    q_out = [kout[i] - q_r[i] for i in range(n)]
    pairs = {(min(u, v), max(u, v)) for u, v in es if (v, u) in es}
    return q_in, q_out, q_r, pairs


def reciprocal_knn_bruteforce(n, edges, cond, qty):
    """Raw class means of mean-partner-q over mutual links."""
    q_in, q_out, q_r, pairs = reciprocity_bruteforce(n, edges)
    q = {"in": q_in, "out": q_out}
    partners = {i: set() for i in range(n)}
    for u, v in pairs:
        partners[u].add(v)
        partners[v].add(u)
    xs, ys = [], []
    for node in range(n):
        if q_r[node] == 0:
            continue
        xs.append(q[cond][node])
        ys.append(sum(q[qty][b] for b in partners[node]) / q_r[node])
    return class_means(xs, ys)


def reciprocal_knn_norm_bruteforce(n, edges, qty):
    """<q_r q>/<q_r> for q = q_in or q_out; None without a mutual pair."""
    q_in, q_out, q_r, _ = reciprocity_bruteforce(n, edges)
    q = {"in": q_in, "out": q_out}[qty]
    s_r = sum(q_r)
    return sum(a * b for a, b in zip(q_r, q)) / s_r if s_r else None


def clustering_bruteforce(n, pairs):
    """Per-node clustering over an undirected pair list; dict over
    nodes of degree >= 2."""
    adj = {i: set() for i in range(n)}
    for u, v in pairs:
        adj[u].add(v)
        adj[v].add(u)
    out = {}
    for node in range(n):
        d = len(adj[node])
        if d < 2:
            continue
        links = 0
        neigh = sorted(adj[node])
        for i, a in enumerate(neigh):
            for b in neigh[i + 1 :]:
                if b in adj[a]:
                    links += 1
        out[node] = 2.0 * links / (d * (d - 1))
    return out


def triangles_bruteforce(n, pairs):
    """Triangles through each node: half the common neighbours summed
    over the node's edges."""
    adj = [set() for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sum(len(adj[u] & adj[v]) for v in adj[u]) // 2 for u in range(n)]


def same_structure(a, b):
    """Whether two directed graphs have the same forward CSR and ids; the
    reverse CSR follows from them. Reads only the graphs' arrays."""
    x, y = a.original_ids, b.original_ids
    return (
        a.node_count == b.node_count
        and np.array_equal(a.fwd_offsets, b.fwd_offsets)
        and np.array_equal(a.fwd_targets, b.fwd_targets)
        and (x is None) == (y is None)
        and (x is None or np.array_equal(x, y))
    )


def cumulative_bruteforce(degree_list, k):
    """Fraction of nodes with degree >= k, by direct count."""
    if not degree_list:
        return 0.0
    return sum(1 for d in degree_list if d >= k) / len(degree_list)


def random_digraph(rng, n, p):
    """Edge list of a G(n, p) digraph without self-loops."""
    mat = rng.random((n, n)) < p
    np.fill_diagonal(mat, False)
    src, dst = np.nonzero(mat)
    return list(zip(src.tolist(), dst.tolist()))
