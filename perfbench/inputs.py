"""Seeded benchmark inputs and their reference values, numpy only.

Neither generator imports ``linkgraph``: the analysis workloads must not
change when the package's own graph generator changes. Every reference
value is computed here from the generated edges, independently of the
code under test.
"""
from __future__ import annotations

import gzip
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _rng(seed: int, stream: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *stream.encode()]))


def _edge_lines(src: np.ndarray, dst: np.ndarray) -> list[str]:
    return [f"{a} {b}" for a, b in zip(src.tolist(), dst.tolist())]


def histogram_csv(direction: str, degrees: np.ndarray) -> str:
    """The ``degree,count,p,pc`` table the ``degrees`` command writes,
    rebuilt from a per-node degree array."""
    n = len(degrees)
    degs, counts = np.unique(degrees, return_counts=True)
    suffix = np.cumsum(counts[::-1])[::-1]
    lines = [f"# direction={direction} total_nodes={n}", "degree,count,p,pc"]
    for d, c, s in zip(degs.tolist(), counts.tolist(), suffix.tolist()):
        lines.append(f"{d},{c},{c / n!r},{s / n!r}")
    return "\n".join(lines) + "\n"


def _powerlaw_degrees(rng, size: int, gamma: float, cutoff: int) -> np.ndarray:
    """Discrete power law on 1..cutoff by stratified inverse-CDF sampling:
    one uniform draw in each of ``size`` equal slices of [0, 1), in
    shuffled order. Every value still follows the law, but the total
    (and so the work a workload does) varies far less between seeds."""
    ks = np.arange(1, cutoff + 1, dtype=np.float64)
    cum = np.cumsum(ks**-gamma)
    cum /= cum[-1]
    u = (np.arange(size) + rng.random(size)) / size
    return 1 + rng.permutation(np.searchsorted(cum, u, side="right")).astype(np.int64)


# -- webgraph -------------------------------------------------------------


@dataclass
class WebgraphInput:
    path: Path
    ingest: dict  # the exact IngestReport the ingest command must print
    histograms: dict  # direction -> expected degrees_<direction>.csv text
    reciprocity_fraction: float
    normalizations: dict  # directed knn variant -> expected normalizer
    crossed_one_point: float


def make_webgraph(workdir: Path, seed: int, nodes: int) -> WebgraphInput:
    """A web-like edge list with noise, gzip-compressed.

    In-degrees follow a discrete power law (gamma 1.9, cutoff nodes/10);
    sources are drawn in proportion to Poisson out-weights of the same
    mean, and one edge in nine gets its reverse added, so about 20% of
    the kept edges are reciprocal. Ids are distinct random 40-bit
    integers. A comment header, blank lines, self-loops and repeated
    lines are planted on top.
    """
    rng = _rng(seed, "webgraph")
    k_in = _powerlaw_degrees(rng, nodes, 1.9, max(10, nodes // 10))
    m0 = int(k_in.sum())
    weights = rng.poisson(m0 / nodes, nodes).astype(np.float64)
    dst = np.repeat(np.arange(nodes, dtype=np.int64), k_in)
    src = rng.choice(nodes, size=m0, p=weights / weights.sum())
    back = rng.random(m0) < 1.0 / 9.0
    src, dst = np.concatenate([src, dst[back]]), np.concatenate([dst, src[back]])

    loops = rng.integers(0, nodes, size=max(1, len(src) // 200))
    dups = rng.integers(0, len(src), size=max(1, len(src) // 100))
    src = np.concatenate([src, loops, src[dups]])
    dst = np.concatenate([dst, loops, dst[dups]])
    order = rng.permutation(len(src))
    src, dst = src[order], dst[order]

    ids = rng.choice(1 << 40, size=nodes, replace=False)
    lines = _edge_lines(ids[src], ids[dst])
    blank_at = np.sort(rng.choice(len(lines), size=max(1, len(lines) // 500), replace=False))
    for i in blank_at[::-1].tolist():
        lines.insert(i, "")
    header = [
        "# linkgraph benchmark input: webgraph",
        f"# seed={seed} nodes={nodes} gamma_in=1.9",
        "# columns: source target",
    ]
    text = "\n".join(header + lines) + "\n"
    path = workdir / "webgraph.txt.gz"
    path.write_bytes(gzip.compress(text.encode(), compresslevel=6, mtime=0))

    data_lines = len(src)
    keep = src != dst
    s, d = src[keep], dst[keep]
    used = np.unique(np.concatenate([s, d]))
    n = len(used)
    su, du = np.searchsorted(used, s), np.searchsorted(used, d)
    keys = np.unique(su * n + du)
    m = len(keys)
    eu, ev = keys // n, keys % n
    kin = np.bincount(ev, minlength=n)
    kout = np.bincount(eu, minlength=n)
    mutual = int(np.count_nonzero(np.isin(keys, ev * n + eu, assume_unique=True)))

    s_kk = int(np.dot(kin, kout))
    s_in2 = int(np.dot(kin, kin))
    s_out2 = int(np.dot(kout, kout))
    skipped = len(header) + len(blank_at)
    return WebgraphInput(
        path=path,
        ingest={
            "raw_lines": data_lines + skipped,
            "skipped_lines": skipped,
            "self_loops_removed": int(data_lines - len(s)),
            "duplicates_removed": int(len(s) - m),
            "nodes": n,
            "edges": m,
        },
        histograms={"in": histogram_csv("in", kin), "out": histogram_csv("out", kout)},
        reciprocity_fraction=mutual / m,
        normalizations={
            "in_nn_of_in": s_kk / m,
            "out_nn_of_in": s_out2 / m,
            "in_nn_of_out": s_in2 / m,
            "out_nn_of_out": s_kk / m,
        },
        crossed_one_point=(s_kk * n) / (m * m),
    )


# -- deep-bowtie ----------------------------------------------------------

CLASS_NAMES = ("SCC", "IN", "OUT", "TENDRIL", "TUBE", "DISCONNECTED")


@dataclass
class DeepBowtieInput:
    path: Path
    nodes: int
    edges: int
    labels: np.ndarray  # planted class (index into CLASS_NAMES) per node id
    sizes: dict  # class name -> planted node count


def make_deep_bowtie(workdir: Path, seed: int, core: int) -> DeepBowtieInput:
    """A deep, narrow bow-tie: every non-core class is one long chain.

    The core is a Hamiltonian cycle plus four random chords per node.
    IN is a chain of ``core`` nodes ending in the core, OUT a chain of
    ``core`` nodes leaving it, TUBE a chain of ``core/2`` nodes from the
    head of IN to the tail of OUT, and the two TENDRILs chains of
    ``core/2`` nodes hanging off IN and feeding into OUT. DISCONNECTED
    is a separate chain of ``core/2`` nodes. A bow-tie search therefore
    needs one frontier step per chain node. Ids are dense and shuffled.
    """
    rng = _rng(seed, "deep-bowtie")
    half = core // 2
    plan = [("SCC", core), ("IN", core), ("OUT", core), ("TUBE", half),
            ("TENDRIL", half), ("TENDRIL", half), ("DISCONNECTED", half)]
    n = sum(size for _, size in plan)
    ids = rng.permutation(n).astype(np.int64)  # ids[i] is node i's label in the file
    blocks = np.split(np.arange(n, dtype=np.int64), np.cumsum([size for _, size in plan])[:-1])
    scc, in_, out, tube, tend_a, tend_b, disc = blocks

    cyc = rng.permutation(scc)
    src = [cyc, np.repeat(scc, 4)]
    dst = [np.roll(cyc, -1), rng.choice(scc, size=4 * core)]
    for chain in (in_, out, tube, tend_a, tend_b, disc):
        src.append(chain[:-1])
        dst.append(chain[1:])
    # in_[-1] -> core, core -> out[0], in_[0] -> tube -> out[-1],
    # in_[0] -> tendril a, tendril b -> out[-1]
    links = [(in_[-1], scc[0]), (scc[-1], out[0]), (in_[0], tube[0]),
             (tube[-1], out[-1]), (in_[0], tend_a[0]), (tend_b[-1], out[-1])]
    src.append(np.array([a for a, _ in links], dtype=np.int64))
    dst.append(np.array([b for _, b in links], dtype=np.int64))
    src, dst = np.concatenate(src), np.concatenate(dst)
    keep = src != dst  # random chords may draw a self-pair
    src, dst = src[keep], dst[keep]
    keys = np.unique(src * n + dst)
    src, dst = keys // n, keys % n
    order = rng.permutation(len(src))
    src, dst = ids[src[order]], ids[dst[order]]

    path = workdir / "deep_bowtie.txt"
    path.write_text("\n".join(_edge_lines(src, dst)) + "\n")

    labels = np.empty(n, dtype=np.int64)
    for (name, _), block in zip(plan, blocks):
        labels[ids[block]] = CLASS_NAMES.index(name)
    sizes = {c: int(np.count_nonzero(labels == i)) for i, c in enumerate(CLASS_NAMES)}
    return DeepBowtieInput(path=path, nodes=n, edges=len(src), labels=labels, sizes=sizes)
