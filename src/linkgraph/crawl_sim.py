"""Synthetic directed graphs with controlled reciprocity, crawl
simulation, and true-versus-observed bias reporting.

The generator is a directed configuration model by stub matching.
Reciprocity is injected by reserving the mutual stubs up front: the
stubs for the target number of mutual pairs are drawn from what each
node can offer on both sides, wired by undirected stub matching, and
only the stubs left over are placed as one-way edges. Self-loops and
duplicates arising from matching are discarded and reported, never
resampled. A second constructor wires independently drawn one-way and
mutual degree sequences with the same two matchers, which is the
uncorrelated null for statistics over the reciprocal decomposition.

Crawls only follow out-links: a simulated crawler cannot navigate
backwards, which is exactly the exploration asymmetry whose footprint
the bias report quantifies.
"""
from __future__ import annotations

import enum
import hashlib
import os
import struct
from dataclasses import asdict, dataclass, replace
from functools import partial
from typing import Iterator, Union

import numpy as np

from .components import BowTieClass, bowtie_decompose
from .degree_stats import (
    Direction,
    _hurwitz_zeta,
    degree_histogram,
    sample_zeta,
    select_fit_range,
    summarize,
)
from .errors import GenerationError, ProvenanceError, value_or_note
from .graph import DirectedGraph, _restrict, sorted_unique
from .reciprocity import decompose

# -- degree laws --------------------------------------------------------


@dataclass(frozen=True)
class ZetaDegreeLaw:
    """Discrete power law k^-gamma on k >= k_min, optionally truncated."""

    gamma: float
    k_min: int = 1
    cutoff: int | None = None


@dataclass(frozen=True)
class PoissonDegreeLaw:
    lam: float


@dataclass(frozen=True)
class ExplicitDegreeLaw:
    """A caller-supplied degree sequence, one entry per node."""

    values: tuple


DegreeLaw = Union[ZetaDegreeLaw, PoissonDegreeLaw, ExplicitDegreeLaw]


def draw_degree_sequence(
    law: DegreeLaw, n: int, rng: np.random.Generator, max_degree: int
) -> tuple[np.ndarray, int]:
    """Realize a law as an int64 sequence; draws above ``max_degree``
    are clipped (count returned) since a simple graph cannot host them."""
    if isinstance(law, ExplicitDegreeLaw):
        seq = np.asarray(law.values, dtype=np.int64)
        if len(seq) != n:
            raise GenerationError(
                f"explicit sequence has {len(seq)} entries for {n} nodes"
            )
        if seq.min(initial=0) < 0:
            raise GenerationError("negative degree in explicit sequence")
    elif isinstance(law, PoissonDegreeLaw):
        seq = rng.poisson(law.lam, n).astype(np.int64)
    elif isinstance(law, ZetaDegreeLaw):
        seq = sample_zeta(law.gamma, n, rng, k_min=law.k_min, cutoff=law.cutoff)
    else:
        raise TypeError(f"unknown degree law {law!r}")
    clipped = int(np.count_nonzero(seq > max_degree))
    if clipped:
        seq = np.minimum(seq, max_degree)
    return seq, clipped


def law_mean(law: DegreeLaw, max_degree: int | None = None) -> float:
    """Expected value of a law (used to pair laws with matching totals)."""
    if isinstance(law, PoissonDegreeLaw):
        return float(law.lam)
    if isinstance(law, ExplicitDegreeLaw):
        return float(np.mean(np.asarray(law.values, dtype=np.float64)))
    if isinstance(law, ZetaDegreeLaw):
        hi = law.cutoff if law.cutoff is not None else max_degree
        if hi is not None:
            ks = np.arange(law.k_min, hi + 1, dtype=np.float64)
            w = ks**-law.gamma
            return float(np.dot(ks, w) / w.sum())
        if law.gamma <= 2.0:
            raise GenerationError(
                "unbounded zeta law with gamma <= 2 has no finite mean; set a cutoff"
            )
        return float(
            _hurwitz_zeta(law.gamma - 1.0, law.k_min) / _hurwitz_zeta(law.gamma, law.k_min)
        )
    raise TypeError(f"unknown degree law {law!r}")


# -- generator -----------------------------------------------------------


@dataclass(frozen=True)
class GeneratorConfig:
    node_count: int
    in_law: DegreeLaw
    out_law: DegreeLaw
    target_reciprocity: float = 0.0
    rng_seed: int = 0


@dataclass(frozen=True)
class GenerationReport:
    """Everything discarded or adjusted while realizing the request.

    Discards are counted in requested edges, so a mutual pair lost to
    self-pairing or repetition counts two."""

    node_count: int
    requested_edges: int
    edge_count: int
    target_reciprocity: float | None
    realized_reciprocity: float | None
    mutual_target_pairs: int
    mutual_pairs_placed: int
    conversion_shortfall: int
    self_loops_discarded: int
    duplicates_discarded: int
    clipped_draws: int
    balance_adjustments: int
    stubs_dropped: int

    def to_dict(self) -> dict:
        return asdict(self)


def _balance_sequences(
    kin: np.ndarray, kout: np.ndarray, in_law, out_law, rng: np.random.Generator
) -> int:
    """Equalize stub totals by adjusting a drawn side; explicit pairs
    that disagree are an error."""
    in_explicit = isinstance(in_law, ExplicitDegreeLaw)
    out_explicit = isinstance(out_law, ExplicitDegreeLaw)
    diff = int(kin.sum() - kout.sum())
    if diff == 0:
        return 0
    if in_explicit and out_explicit:
        raise GenerationError(
            f"explicit sequences cannot be matched: sum(in) - sum(out) = {diff}"
        )

    def add(seq: np.ndarray, amount: int) -> None:
        idx = rng.integers(0, len(seq), size=amount)
        np.add.at(seq, idx, 1)

    def remove(seq: np.ndarray, amount: int) -> None:
        stubs = np.repeat(np.arange(len(seq), dtype=np.int64), seq)
        pick = rng.choice(len(stubs), size=amount, replace=False)
        np.subtract.at(seq, stubs[pick], 1)

    if diff > 0:  # out side is short
        if not out_explicit:
            add(kout, diff)
        else:
            remove(kin, diff)
    else:
        if not in_explicit:
            add(kin, -diff)
        else:
            remove(kout, -diff)
    return abs(diff)


def _match_undirected(rng: np.random.Generator, deg: np.ndarray):
    """Undirected stub matching of an even stub total: shuffle the stubs
    of ``deg`` and pair adjacent slots. Self-pairs and repeated pairs are
    dropped; returns the kept pairs as ``(lo, hi)`` with ``lo < hi``, then
    the number of self pairs and of duplicate pairs."""
    n = len(deg)
    slots = np.repeat(np.arange(n, dtype=np.int64), deg)
    rng.shuffle(slots)
    a, b = slots[0::2], slots[1::2]
    keep = a != b
    a, b = a[keep], b[keep]
    pair_keys = sorted_unique(np.minimum(a, b) * n + np.maximum(a, b))
    return pair_keys // n, pair_keys % n, len(keep) - len(a), len(a) - len(pair_keys)


def _match_directed(rng: np.random.Generator, rem_in: np.ndarray, rem_out: np.ndarray):
    """Plain stub matching of whatever stubs remain; self-loops dropped."""
    n = len(rem_in)
    out_stream = np.repeat(np.arange(n, dtype=np.int64), rem_out)
    in_stream = np.repeat(np.arange(n, dtype=np.int64), rem_in)
    rng.shuffle(out_stream)
    rng.shuffle(in_stream)
    m = min(len(out_stream), len(in_stream))
    u, v = out_stream[:m], in_stream[:m]
    keep = u != v
    return u[keep], v[keep], int(m - keep.sum())


def _wire(
    rng: np.random.Generator, qin: np.ndarray, qout: np.ndarray, qr: np.ndarray, **fields
) -> tuple[DirectedGraph, GenerationReport]:
    """Both generators' last step, and the one place a report is made:
    pair the mutual stubs ``qr`` (an even total) by undirected stub
    matching, then match the one-way stubs ``qin`` and ``qout``.
    ``fields`` are the report fields fixed before wiring."""
    lo, hi, self_m, dup_m = _match_undirected(rng, qr)
    du, dv, self_d = _match_directed(rng, qin, qout)
    n = len(qr)
    u, v = np.concatenate([lo, hi, du]), np.concatenate([hi, lo, dv])
    graph = DirectedGraph.from_edges(n, u, v)
    realized = np.count_nonzero(graph.mutual) / graph.edge_count if graph.edge_count else None
    return graph, GenerationReport(
        node_count=n,
        edge_count=graph.edge_count,
        realized_reciprocity=realized,
        mutual_target_pairs=int(qr.sum()) // 2,
        mutual_pairs_placed=len(lo),
        conversion_shortfall=0,
        self_loops_discarded=2 * self_m + self_d,
        duplicates_discarded=2 * dup_m + len(u) - graph.edge_count,
        **fields,
    )


def generate(cfg: GeneratorConfig) -> tuple[DirectedGraph, GenerationReport]:
    """Directed configuration model with a reciprocity target.

    The ``round(target * edges / 2)`` mutual pairs take their stubs
    first, sampled without replacement from ``min(k_in, k_out)`` stubs
    per node and paired by undirected stub matching; the remaining
    in- and out-stubs are matched as one-way edges. Mutual pairs lost
    to self-pairing or repetition are discarded and reported, never
    re-drawn; ``conversion_shortfall`` is always 0.

    Raises :class:`GenerationError` when the target is infeasible for
    the drawn sequences (the message carries the maximum feasible
    fraction). At target 1.0 every placed edge is mutual; unmatched
    leftovers are dropped and reported as ``stubs_dropped``.
    """
    if not 0.0 <= cfg.target_reciprocity <= 1.0:
        raise GenerationError("target_reciprocity must lie in [0, 1]")
    if cfg.node_count <= 0:
        raise GenerationError("node_count must be positive")
    n = cfg.node_count
    rng = np.random.default_rng(cfg.rng_seed)
    kin, clip_in = draw_degree_sequence(cfg.in_law, n, rng, n - 1)
    kout, clip_out = draw_degree_sequence(cfg.out_law, n, rng, n - 1)
    adjustments = _balance_sequences(kin, kout, cfg.in_law, cfg.out_law, rng)
    total = int(kin.sum())

    target_pairs = int(round(cfg.target_reciprocity * total / 2.0))
    offer = np.minimum(kin, kout)
    feasible_pairs = int(offer.sum()) // 2
    if target_pairs > feasible_pairs:
        max_frac = 2.0 * feasible_pairs / total if total else 0.0
        raise GenerationError(
            f"reciprocity target {cfg.target_reciprocity} infeasible for these "
            f"sequences; maximum feasible fraction is {max_frac:.4f}"
        )

    stubs = np.repeat(np.arange(n, dtype=np.int64), offer)
    qr = np.bincount(rng.choice(stubs, size=2 * target_pairs, replace=False), minlength=n)
    kin -= qr
    kout -= qr
    stubs_dropped = 0
    if cfg.target_reciprocity == 1.0:
        stubs_dropped = int(kin.sum() + kout.sum())
        kin = kout = np.zeros(n, dtype=np.int64)
    return _wire(
        rng, kin, kout, qr, requested_edges=total, target_reciprocity=cfg.target_reciprocity,
        clipped_draws=clip_in + clip_out, balance_adjustments=adjustments,
        stubs_dropped=stubs_dropped,
    )


def generate_decomposed(
    node_count: int,
    one_way_in_law: DegreeLaw,
    one_way_out_law: DegreeLaw,
    mutual_law: DegreeLaw,
    rng_seed: int = 0,
) -> tuple[DirectedGraph, GenerationReport]:
    """Wire three independently drawn sequences: one-way in, one-way
    out, and mutual-pair degrees.

    One-way edges come from directed stub matching on the first two;
    mutual pairs from undirected stub matching on the third. Because
    the mutual sequence is drawn independently of the one-way ones,
    the result is the natural uncorrelated reference for statistics
    over the reciprocal decomposition.
    """
    n = node_count
    if n <= 0:
        raise GenerationError("node_count must be positive")
    rng = np.random.default_rng(rng_seed)
    qin, clip_a = draw_degree_sequence(one_way_in_law, n, rng, n - 1)
    qout, clip_b = draw_degree_sequence(one_way_out_law, n, rng, n - 1)
    adjustments = _balance_sequences(qin, qout, one_way_in_law, one_way_out_law, rng)
    qr, clip_c = draw_degree_sequence(mutual_law, n, rng, n - 1)
    if int(qr.sum()) % 2 == 1:  # the matcher pairs every mutual stub
        qr[rng.integers(0, n)] += 1
        adjustments += 1
    return _wire(
        rng, qin, qout, qr, requested_edges=int(qin.sum() + qr.sum()), target_reciprocity=None,
        clipped_draws=clip_a + clip_b + clip_c, balance_adjustments=adjustments,
        stubs_dropped=0,
    )


# -- crawling ------------------------------------------------------------


class CrawlStrategy(enum.Enum):
    BFS = "bfs"
    DFS = "dfs"
    RANDOM_FRONTIER = "random_frontier"


class FrontierMode(enum.Enum):
    """What the observed graph keeps.

    FETCHED_ONLY: fetched nodes and the edges among them.
    FRONTIER_INCLUSIVE: additionally every discovered-but-unfetched
    node and the edges from fetched nodes into them.
    """

    FETCHED_ONLY = "fetched_only"
    FRONTIER_INCLUSIVE = "frontier_inclusive"


@dataclass(frozen=True)
class CrawlConfig:
    seeds: tuple
    strategy: CrawlStrategy
    page_budget: int | None = None
    frontier_mode: FrontierMode = FrontierMode.FETCHED_ONLY
    rng_seed: int = 0


@dataclass(frozen=True)
class CrawlOutcome:
    """Observed graph plus the raw crawl trace.

    ``observed_to_true[i]`` maps observed node i back to its id in the
    crawled graph; ``fetched`` is in fetch order.
    """

    observed: DirectedGraph
    fetched: np.ndarray
    discovered: np.ndarray
    observed_to_true: np.ndarray
    config: CrawlConfig
    true_fingerprint: str


def graph_fingerprint(g: DirectedGraph) -> str:
    """Digest of the sizes and of every entry of the forward CSR, used to
    pair outcomes with their source graph."""
    h = hashlib.blake2b()
    h.update(struct.pack("<QQ", g.node_count, g.edge_count))
    h.update(np.ascontiguousarray(g.fwd_offsets, dtype="<i8"))
    h.update(np.ascontiguousarray(g.fwd_targets, dtype="<i4"))
    return h.hexdigest()


def simulate_crawl(g: DirectedGraph, cfg: CrawlConfig) -> CrawlOutcome:
    """Crawl along out-links from the seeds under a page budget.

    BFS fetches oldest-first, DFS newest-first (out-neighbors are
    pushed in ascending id order, so DFS descends through the highest
    id first), RANDOM_FRONTIER fetches a uniformly random frontier
    entry using the config seed. Fetching a node reveals its out-links;
    in-links of unfetched nodes are invisible, so the crawl can never
    walk upstream.
    """
    n = g.node_count
    if n == 0:
        raise ValueError("cannot crawl an empty graph")
    seeds = list(dict.fromkeys(int(s) for s in cfg.seeds))  # first occurrences, in order
    for s in seeds:
        if not 0 <= s < n:
            raise IndexError(f"seed {s} out of range")
    if not seeds:
        raise ValueError("at least one seed is required")
    budget = cfg.page_budget if cfg.page_budget is not None else n
    if budget < len(seeds):
        raise ValueError("page_budget smaller than the number of seeds")

    discovered = np.zeros(n, dtype=bool)
    fetched_mask = np.zeros(n, dtype=bool)
    fetch_order: list[int] = []
    frontier: list[int] = list(seeds)
    discovered[seeds] = True
    rng = np.random.default_rng(cfg.rng_seed)  # drawn from by RANDOM_FRONTIER only
    pop_head = 0  # BFS reads the list left to right without popping

    while len(fetch_order) < budget:
        if cfg.strategy is CrawlStrategy.BFS:
            if pop_head >= len(frontier):
                break
            u = frontier[pop_head]
            pop_head += 1
        elif cfg.strategy is CrawlStrategy.DFS:
            if not frontier:
                break
            u = frontier.pop()
        else:
            if not frontier:
                break
            i = int(rng.integers(len(frontier)))
            frontier[i], frontier[-1] = frontier[-1], frontier[i]
            u = frontier.pop()
        fetch_order.append(u)
        fetched_mask[u] = True
        for v in g.out_neighbors(u).tolist():
            if not discovered[v]:
                discovered[v] = True
                frontier.append(v)

    # every head of a fetched page's edge is discovered; the mode picks which the graph keeps
    universe = fetched_mask if cfg.frontier_mode is FrontierMode.FETCHED_ONLY else discovered
    nodes = np.flatnonzero(universe)
    observed = _restrict(g, nodes, fetched_mask[g.fwd_rows] & universe[g.fwd_targets])
    return CrawlOutcome(
        observed=observed,
        fetched=np.array(fetch_order, dtype=np.int64),
        discovered=np.flatnonzero(discovered),
        observed_to_true=nodes,
        config=cfg,
        true_fingerprint=graph_fingerprint(g),
    )


# -- bias report ----------------------------------------------------------


@dataclass(frozen=True)
class BiasEntry:
    name: str
    true_value: float | None
    observed_value: float | None
    relative_deviation: float | None
    note: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "true": self.true_value,
            "observed": self.observed_value,
            "relative_deviation": self.relative_deviation,
            "note": self.note,
        }


@dataclass(frozen=True)
class BiasReport:
    entries: tuple

    def entry(self, name: str) -> BiasEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"entries": [e.to_dict() for e in self.entries]}


def graph_statistics(g: DirectedGraph) -> dict:
    """The summary statistics the bias report compares, in its order, each
    as (value or None, note or None)."""
    out: dict = {}
    part = bowtie_decompose(g)
    out["scc_pct"] = (part.percentages[BowTieClass.SCC], None)
    out["in_pct"] = (part.percentages[BowTieClass.IN], None)
    out["out_pct"] = (part.percentages[BowTieClass.OUT], None)

    hist_in = degree_histogram(g, Direction.IN)
    hist_out = degree_histogram(g, Direction.OUT)
    fit, note = value_or_note(select_fit_range, hist_in)
    out["gamma_in"] = (None if fit is None else fit.gamma, note)
    for key, hist in (("kappa_in", hist_in), ("kappa_out", hist_out)):
        summ = summarize(hist)
        out[key] = (summ.kappa, summ.note)

    dec = decompose(g)
    out["reciprocity_fraction"] = value_or_note(dec.reciprocity_fraction)
    out["mean_q_r"] = (float(dec.q_r.mean()), None)
    return out


def bias_report(true_graph: DirectedGraph, outcome: CrawlOutcome) -> BiasReport:
    """Paired true-versus-observed statistics with relative deviations.

    Undefined observed statistics stay None with an explanatory note;
    they are never silently zeroed. Raises :class:`ProvenanceError`
    when the outcome was not produced from ``true_graph``.
    """
    if graph_fingerprint(true_graph) != outcome.true_fingerprint:
        raise ProvenanceError(
            "crawl outcome does not belong to the supplied true graph"
        )
    true_stats = graph_statistics(true_graph)
    obs_stats = graph_statistics(outcome.observed)
    entries = []
    for name, (t, t_note) in true_stats.items():
        o, o_note = obs_stats[name]
        notes = []
        if t_note:
            notes.append(f"true: {t_note}")
        if o_note:
            notes.append(f"observed: {o_note}")
        rel = None
        if t is None or o is None:
            notes.append("deviation undefined")
        elif t == 0:
            if o != 0:
                notes.append("true value is zero; deviation undefined")
            else:
                rel = 0.0
        else:
            rel = (o - t) / abs(t)
        entries.append(
            BiasEntry(name, t, o, rel, "; ".join(notes) if notes else None)
        )
    return BiasReport(tuple(entries))


# -- ensembles -------------------------------------------------------------


@dataclass(frozen=True)
class CrawlProto:
    """Crawl settings applied to every replica; seeds are drawn per
    replica. ``page_budget`` wins over ``budget_fraction``; both unset
    means unlimited."""

    strategy: CrawlStrategy = CrawlStrategy.BFS
    frontier_mode: FrontierMode = FrontierMode.FETCHED_ONLY
    seed_count: int = 1
    page_budget: int | None = None
    budget_fraction: float | None = None


@dataclass(frozen=True)
class ReplicaResult:
    index: int
    generation: GenerationReport
    outcome: CrawlOutcome
    bias: BiasReport


def replica_seed(master_seed: int, index: int, stream: int) -> int:
    """Counter-mode derivation: one independent seed per (replica,
    purpose) pair, stable across runs and worker counts."""
    ss = np.random.SeedSequence((master_seed, index, stream))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _replica(
    gen_cfg: GeneratorConfig, proto: CrawlProto, master_seed: int, index: int
) -> ReplicaResult:
    """Generate, crawl, and bias-report replica ``index``."""
    cfg_i = replace(gen_cfg, rng_seed=replica_seed(master_seed, index, 0))
    graph, gen_report = generate(cfg_i)
    n = graph.node_count
    rng = np.random.default_rng(replica_seed(master_seed, index, 1))
    seed_count = min(proto.seed_count, n)
    seeds = tuple(int(s) for s in rng.choice(n, size=seed_count, replace=False))
    if proto.page_budget is not None:
        budget = proto.page_budget
    elif proto.budget_fraction is not None:
        budget = max(seed_count, int(round(proto.budget_fraction * n)))
    else:
        budget = None
    crawl_cfg = CrawlConfig(
        seeds=seeds,
        strategy=proto.strategy,
        page_budget=budget,
        frontier_mode=proto.frontier_mode,
        rng_seed=replica_seed(master_seed, index, 2),
    )
    outcome = simulate_crawl(graph, crawl_cfg)
    return ReplicaResult(index, gen_report, outcome, bias_report(graph, outcome))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_ensemble(
    gen_cfg: GeneratorConfig,
    proto: CrawlProto,
    replicas: int,
    master_seed: int,
    workers: int = 1,
) -> Iterator[ReplicaResult]:
    """Generate, crawl, and bias-report ``replicas`` times with seeds
    derived from ``master_seed`` in counter mode.

    The replicas run on ``min(workers, replicas, usable CPUs)`` forked
    processes, or in this process when that is one or the platform
    cannot fork. Results are yielded in index order, each once it is
    done, and never depend on ``workers``; in this process a replica
    runs only when the next result is asked for. Closing the iterator
    early cancels the replicas that have not started and waits for the
    running ones. An error a replica raises is re-raised here; a worker
    that dies raises ``concurrent.futures.process.BrokenProcessPool``.
    """
    job = partial(_replica, gen_cfg, proto, master_seed)
    processes = min(workers, replicas, _usable_cpus())
    if processes > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor

            # fork, not spawn: a worker starts with the package imported.
            # This process has built no graph and loaded no scipy, so each
            # worker's peak RSS, which counts its parent's, starts low.
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(processes, mp_context=context) as pool:
                yield from pool.map(job, range(replicas))
            return
    yield from map(job, range(replicas))
