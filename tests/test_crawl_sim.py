import multiprocessing
import time
import tracemalloc

import numpy as np
import pytest

from linkgraph import (
    CrawlConfig,
    CrawlProto,
    CrawlStrategy,
    DirectedGraph,
    ExplicitDegreeLaw,
    FrontierMode,
    GenerationError,
    GeneratorConfig,
    PoissonDegreeLaw,
    ProvenanceError,
    ZetaDegreeLaw,
    bias_report,
    decompose,
    generate,
    generate_decomposed,
    run_ensemble,
    simulate_crawl,
)
from linkgraph import crawl_sim
from linkgraph.crawl_sim import (
    draw_degree_sequence,
    graph_fingerprint,
    law_mean,
    replica_seed,
)

from conftest import graph_of
from oracles import random_digraph, reachability, same_structure

# diamond with a drain: 0 -> {1,2} -> 3 -> 4
DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]


class TestDegreeLaws:
    def test_poisson_mean(self):
        rng = np.random.default_rng(1)
        seq, clipped = draw_degree_sequence(PoissonDegreeLaw(7.0), 50000, rng, 10**6)
        assert abs(seq.mean() - 7.0) < 0.1
        assert clipped == 0

    def test_zeta_respects_k_min_and_cutoff(self):
        rng = np.random.default_rng(2)
        seq, _ = draw_degree_sequence(ZetaDegreeLaw(2.0, 2, 30), 10000, rng, 10**6)
        assert seq.min() >= 2
        assert seq.max() <= 30

    def test_explicit_length_checked(self):
        rng = np.random.default_rng(3)
        with pytest.raises(GenerationError):
            draw_degree_sequence(ExplicitDegreeLaw((1, 2, 3)), 4, rng, 10**6)

    def test_clipping_counted(self):
        rng = np.random.default_rng(4)
        seq, clipped = draw_degree_sequence(PoissonDegreeLaw(50.0), 5000, rng, 40)
        assert seq.max() <= 40
        assert clipped > 0

    def test_law_mean_zeta_matches_samples(self):
        # gamma above 3 keeps the sampling variance finite, so the
        # empirical mean is a sharp check of the analytic one
        law = ZetaDegreeLaw(3.5, 1, None)
        rng = np.random.default_rng(5)
        seq, _ = draw_degree_sequence(law, 200000, rng, 10**9)
        assert abs(law_mean(law) - seq.mean()) < 0.01

    def test_law_mean_diverging_tail_rejected(self):
        with pytest.raises(GenerationError):
            law_mean(ZetaDegreeLaw(1.8, 1, None))


class TestGenerate:
    def test_reciprocity_close_to_target(self):
        cfg = GeneratorConfig(
            node_count=5000,
            in_law=PoissonDegreeLaw(6.0),
            out_law=PoissonDegreeLaw(6.0),
            target_reciprocity=0.4,
            rng_seed=11,
        )
        g, rep = generate(cfg)
        assert abs(rep.realized_reciprocity - 0.4) < 0.05
        # the report must measure honestly, from the built graph itself
        assert rep.realized_reciprocity == pytest.approx(
            decompose(g).reciprocity_fraction()
        )

    def test_graph_is_transposed_once_for_the_mask_and_the_bowtie(self, monkeypatch):
        # the bias report's bow-tie reads the reverse CSR the mask was tested on
        calls = []
        transpose = DirectedGraph._transpose
        monkeypatch.setattr(DirectedGraph, "_transpose", lambda g: calls.append(g) or transpose(g))
        cfg = GeneratorConfig(2000, PoissonDegreeLaw(4.0), PoissonDegreeLaw(4.0), 0.3, rng_seed=5)
        g, _ = generate(cfg)
        crawl_sim.graph_statistics(g)
        assert calls == [g]

    def test_zero_reciprocity(self):
        cfg = GeneratorConfig(
            node_count=3000,
            in_law=PoissonDegreeLaw(4.0),
            out_law=PoissonDegreeLaw(4.0),
            target_reciprocity=0.0,
            rng_seed=12,
        )
        g, rep = generate(cfg)
        assert rep.realized_reciprocity < 0.01

    def test_full_reciprocity_strict(self):
        # target 1.0 needs k_in == k_out at every node to be feasible
        n = 2000
        cfg = GeneratorConfig(
            node_count=n,
            in_law=ExplicitDegreeLaw((3,) * n),
            out_law=ExplicitDegreeLaw((3,) * n),
            target_reciprocity=1.0,
            rng_seed=13,
        )
        g, rep = generate(cfg)
        assert rep.realized_reciprocity == 1.0
        assert g.edge_count > 0

    def test_no_self_loops_or_duplicates(self):
        cfg = GeneratorConfig(
            node_count=500,
            in_law=PoissonDegreeLaw(8.0),
            out_law=PoissonDegreeLaw(8.0),
            target_reciprocity=0.5,
            rng_seed=14,
        )
        g, _ = generate(cfg)
        u = g.fwd_rows
        v = g.fwd_targets.astype(np.int64)
        assert (u != v).all()
        keys = u * g.node_count + v
        assert len(np.unique(keys)) == len(keys)

    @pytest.mark.parametrize("target", [0.0, 0.3, pytest.param(None, id="decomposed")])
    def test_every_requested_edge_accounted_for(self, target):
        in_law, out_law = ZetaDegreeLaw(2.1, 1, 150), PoissonDegreeLaw(4.0)
        for seed in range(4):
            if target is None:  # mutual degrees drawn from the in-law
                _, rep = generate_decomposed(1500, in_law, out_law, in_law, rng_seed=seed)
            else:
                cfg = GeneratorConfig(
                    node_count=1500,
                    in_law=in_law,
                    out_law=out_law,
                    target_reciprocity=target,
                    rng_seed=seed,
                )
                _, rep = generate(cfg)
            assert rep.duplicates_discarded > 0
            assert rep.requested_edges == (
                rep.edge_count + rep.self_loops_discarded + rep.duplicates_discarded
            )

    def test_every_requested_edge_accounted_for_strict(self):
        n = 1000
        for seed in range(4):
            cfg = GeneratorConfig(
                node_count=n,
                in_law=ExplicitDegreeLaw((4,) * n),
                out_law=ExplicitDegreeLaw((4,) * n),
                target_reciprocity=1.0,
                rng_seed=seed,
            )
            _, rep = generate(cfg)
            assert rep.requested_edges == (
                rep.edge_count
                + rep.self_loops_discarded
                + rep.duplicates_discarded
                + rep.conversion_shortfall
                + rep.stubs_dropped // 2
            )

    def test_explicit_short_side_keeps_its_degrees(self):
        # the drawn out side is long, so it loses stubs and the in side stays
        n = 2000
        for seed in range(4):
            cfg = GeneratorConfig(n, ExplicitDegreeLaw((1,) * n), PoissonDegreeLaw(3.0), 0.3, seed)
            g, rep = generate(cfg)
            assert rep.requested_edges == n
            assert rep.requested_edges == (
                rep.edge_count + rep.self_loops_discarded + rep.duplicates_discarded
            )
            assert rep.balance_adjustments > 0
            assert g.in_degrees.max() <= 1

    def test_mutual_target_is_met(self):
        # heavy-tailed in-degrees: hubs must place many mutual pairs
        in_law = ZetaDegreeLaw(2.1, 1, 3000)
        out_law = PoissonDegreeLaw(law_mean(in_law))
        for seed in range(6):
            _, rep = generate(GeneratorConfig(30000, in_law, out_law, 0.3, seed))
            assert rep.mutual_pairs_placed >= 0.99 * rep.mutual_target_pairs
            assert abs(rep.realized_reciprocity - 0.3) < 0.01

    def test_deterministic_by_seed(self):
        cfg = GeneratorConfig(
            node_count=800,
            in_law=PoissonDegreeLaw(5.0),
            out_law=PoissonDegreeLaw(5.0),
            target_reciprocity=0.3,
            rng_seed=15,
        )
        g1, r1 = generate(cfg)
        g2, r2 = generate(cfg)
        assert same_structure(g1, g2)
        assert r1 == r2

    def test_infeasible_target_rejected(self):
        # in-stubs and out-stubs never meet at the same node
        cfg = GeneratorConfig(
            node_count=4,
            in_law=ExplicitDegreeLaw((2, 2, 0, 0)),
            out_law=ExplicitDegreeLaw((0, 0, 2, 2)),
            target_reciprocity=1.0,
            rng_seed=0,
        )
        with pytest.raises(GenerationError, match="feasible"):
            generate(cfg)

    def test_explicit_sum_mismatch_rejected(self):
        cfg = GeneratorConfig(
            node_count=3,
            in_law=ExplicitDegreeLaw((1, 1, 1)),
            out_law=ExplicitDegreeLaw((2, 2, 2)),
            target_reciprocity=0.0,
            rng_seed=0,
        )
        with pytest.raises(GenerationError):
            generate(cfg)

    def test_bad_target_rejected(self):
        cfg = GeneratorConfig(
            node_count=10,
            in_law=PoissonDegreeLaw(2.0),
            out_law=PoissonDegreeLaw(2.0),
            target_reciprocity=1.5,
            rng_seed=0,
        )
        with pytest.raises(GenerationError):
            generate(cfg)


class TestGenerateDecomposed:
    def test_mean_levels(self):
        g, rep = generate_decomposed(
            30000,
            PoissonDegreeLaw(3.0),
            PoissonDegreeLaw(3.0),
            PoissonDegreeLaw(2.0),
            rng_seed=21,
        )
        d = decompose(g)
        assert abs(d.q_r.mean() - 2.0) < 0.1
        assert abs(d.q_in.mean() - 3.0) < 0.1
        assert abs(d.q_out.mean() - 3.0) < 0.1

    def test_q_components_uncorrelated(self):
        from linkgraph import crossed_one_point_nr

        g, _ = generate_decomposed(
            50000,
            PoissonDegreeLaw(4.0),
            PoissonDegreeLaw(4.0),
            PoissonDegreeLaw(3.0),
            rng_seed=22,
        )
        ratios = crossed_one_point_nr(decompose(g))
        for name, stat in ratios.items():
            assert abs(stat.value - 1.0) < 0.02, name

    def test_deterministic(self):
        a, _ = generate_decomposed(
            2000, PoissonDegreeLaw(2.0), PoissonDegreeLaw(2.0), PoissonDegreeLaw(1.0), rng_seed=23
        )
        b, _ = generate_decomposed(
            2000, PoissonDegreeLaw(2.0), PoissonDegreeLaw(2.0), PoissonDegreeLaw(1.0), rng_seed=23
        )
        assert same_structure(a, b)


class TestDraws:
    """The generator's random draws, each against the distribution it
    must sample, over many seeds."""

    def test_directed_matching_is_uniform(self):
        # three out-stubs at nodes 0-2 meet three in-stubs at nodes 3-5
        out_stubs = np.array([1, 1, 1, 0, 0, 0])
        in_stubs = out_stubs[::-1].copy()
        counts = {}
        for seed in range(6000):
            keys, loops = crawl_sim._match_directed(np.random.default_rng(seed), in_stubs, out_stubs)
            assert loops == 0
            assert list(keys // 6) == [0, 1, 2]  # the out-stubs stay in node order
            matching = tuple(keys % 6)
            counts[matching] = counts.get(matching, 0) + 1
        sd = np.sqrt(6000 * (1 / 6) * (5 / 6))
        assert len(counts) == 6
        assert all(abs(c - 1000) < 5 * sd for c in counts.values()), counts

    def test_undirected_matching_is_uniform(self):
        # four single stubs pair up in three ways, {01, 23}, {02, 13} and {03, 12}
        counts = {}
        for seed in range(6000):
            keys, self_pairs, dups = crawl_sim._match_undirected(
                np.random.default_rng(seed), np.ones(4, dtype=np.int64)
            )
            assert (self_pairs, dups) == (0, 0)
            counts[tuple(keys)] = counts.get(tuple(keys), 0) + 1
        sd = np.sqrt(6000 * (1 / 3) * (2 / 3))
        assert set(counts) == {(1, 11), (2, 7), (3, 6)}
        assert all(abs(c - 2000) < 5 * sd for c in counts.values()), counts

    @staticmethod
    def _within(draws: np.ndarray, total: int, weights: np.ndarray) -> None:
        """Per-node means of ``draws`` (one row per seed) within 5 standard
        errors of a hypergeometric sample of ``total`` from ``weights``."""
        pool = weights.sum()
        p = weights / pool
        var = total * p * (1 - p) * (pool - total) / (pool - 1)
        err = np.abs(draws.mean(axis=0) - total * p)
        assert (err <= 5 * np.sqrt(var / len(draws)) + 1e-12).all(), err

    def test_reservation_is_proportional_to_the_offer(self, monkeypatch):
        kin = (4, 3, 2, 1, 0, 6, 5)
        kout = (2, 3, 4, 1, 6, 0, 5)
        offer = np.minimum(kin, kout)  # 2 3 2 1 0 0 5: 13 stubs
        monkeypatch.setattr(crawl_sim, "_wire", lambda rng, qin, qout, qr, **fields: qr)
        draws = np.array([
            generate(GeneratorConfig(7, ExplicitDegreeLaw(kin), ExplicitDegreeLaw(kout), 0.4, seed))
            for seed in range(3000)
        ])
        assert (draws.sum(axis=1) == 8).all()  # round(0.4 * 21 / 2) pairs
        assert (draws <= offer).all()
        self._within(draws, 8, offer)

    def test_removal_is_proportional_to_the_drawn_degree(self):
        drawn = np.array([0, 1, 2, 3, 4, 5, 9])  # 24 out-stubs against 7 in-stubs
        removed = []
        for seed in range(3000):
            kin, kout = np.ones(7, dtype=np.int64), drawn.copy()
            adjustments = crawl_sim._balance_sequences(
                kin, kout, ExplicitDegreeLaw((1,) * 7), PoissonDegreeLaw(3.0), np.random.default_rng(seed)
            )
            assert adjustments == 17 and kout.sum() == 7 and (kin == 1).all()
            removed.append(drawn - kout)
        removed = np.array(removed)
        assert (removed >= 0).all()
        self._within(removed, 17, drawn)


class TestSimulateCrawl:
    def test_bfs_order(self):
        g = graph_of(5, DIAMOND)
        out = simulate_crawl(g, CrawlConfig(seeds=(0,), strategy=CrawlStrategy.BFS))
        assert out.fetched.tolist() == [0, 1, 2, 3, 4]

    def test_dfs_descends_highest_id_first(self):
        g = graph_of(5, DIAMOND)
        out = simulate_crawl(g, CrawlConfig(seeds=(0,), strategy=CrawlStrategy.DFS))
        assert out.fetched.tolist() == [0, 2, 3, 4, 1]

    def test_budget_stops_fetching(self):
        g = graph_of(5, DIAMOND)
        out = simulate_crawl(
            g, CrawlConfig(seeds=(0,), strategy=CrawlStrategy.BFS, page_budget=3)
        )
        assert out.fetched.tolist() == [0, 1, 2]
        assert set(out.discovered.tolist()) == {0, 1, 2, 3}

    def test_fetched_only_mode_induces_edges(self):
        g = graph_of(5, DIAMOND)
        out = simulate_crawl(
            g,
            CrawlConfig(
                seeds=(0,),
                strategy=CrawlStrategy.BFS,
                page_budget=3,
                frontier_mode=FrontierMode.FETCHED_ONLY,
            ),
        )
        assert out.observed.node_count == 3
        assert out.observed.edge_count == 2

    def test_frontier_inclusive_keeps_boundary(self):
        g = graph_of(5, DIAMOND)
        out = simulate_crawl(
            g,
            CrawlConfig(
                seeds=(0,),
                strategy=CrawlStrategy.BFS,
                page_budget=3,
                frontier_mode=FrontierMode.FRONTIER_INCLUSIVE,
            ),
        )
        assert out.observed.node_count == 4
        assert out.observed.edge_count == 4

    def test_observed_mapping_is_edge_consistent(self):
        g = graph_of(5, DIAMOND)
        out = simulate_crawl(
            g, CrawlConfig(seeds=(0,), strategy=CrawlStrategy.BFS, page_budget=4)
        )
        true_edges = set(DIAMOND)
        m = out.observed_to_true
        for i in range(out.observed.node_count):
            for j in out.observed.out_neighbors(i).tolist():
                assert (int(m[i]), int(m[j])) in true_edges

    def test_random_frontier_deterministic_by_seed(self):
        g = graph_of(5, DIAMOND)
        cfg = CrawlConfig(
            seeds=(0,), strategy=CrawlStrategy.RANDOM_FRONTIER, rng_seed=5
        )
        a = simulate_crawl(g, cfg)
        b = simulate_crawl(g, cfg)
        assert a.fetched.tolist() == b.fetched.tolist()

    def test_seed_dedup_preserves_order(self):
        g = graph_of(5, DIAMOND)
        out = simulate_crawl(
            g,
            CrawlConfig(seeds=(2, 2, 0), strategy=CrawlStrategy.BFS, page_budget=2),
        )
        assert out.fetched.tolist()[:2] == [2, 0]

    def test_validation(self):
        g = graph_of(5, DIAMOND)
        with pytest.raises(IndexError):
            simulate_crawl(g, CrawlConfig(seeds=(9,), strategy=CrawlStrategy.BFS))
        with pytest.raises(ValueError):
            simulate_crawl(g, CrawlConfig(seeds=(), strategy=CrawlStrategy.BFS))
        with pytest.raises(ValueError):
            simulate_crawl(
                g,
                CrawlConfig(seeds=(0, 1, 2), strategy=CrawlStrategy.BFS, page_budget=2),
            )

    def test_crawl_cannot_walk_upstream(self):
        # 1 -> 0: a crawl seeded at 0 must never discover 1
        g = graph_of(2, [(1, 0)])
        out = simulate_crawl(g, CrawlConfig(seeds=(0,), strategy=CrawlStrategy.BFS))
        assert out.discovered.tolist() == [0]
        assert out.observed.node_count == 1


@pytest.mark.parametrize("budget", [None, 4])
@pytest.mark.parametrize("mode", list(FrontierMode))
@pytest.mark.parametrize("strategy", list(CrawlStrategy))
def test_observed_graph_matches_bruteforce(strategy, mode, budget):
    for trial in range(25):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(1, 40))
        edges = random_digraph(rng, n, float(rng.uniform(0.02, 0.3)))
        ids = np.sort(rng.choice(2**40, size=n, replace=False)) if trial % 3 else None
        src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
        g = DirectedGraph.from_edges(n, src, dst, ids)
        seeds = tuple(rng.choice(n, size=min(2, n), replace=False).tolist())
        out = simulate_crawl(g, CrawlConfig(seeds, strategy, budget, mode, trial))

        fetched = set(out.fetched.tolist())
        assert len(fetched) == len(out.fetched) <= (budget or n)
        discovered = set(seeds) | {v for u, v in edges if u in fetched}
        assert out.discovered.tolist() == sorted(discovered)
        if budget is None:  # an unlimited crawl fetches all the seeds reach
            reach = reachability(n, edges)
            assert fetched == {int(v) for s in seeds for v in np.flatnonzero(reach[s])}
        kept = sorted(fetched if mode is FrontierMode.FETCHED_ONLY else discovered)
        input_id = (lambda x: int(ids[x])) if ids is not None else int
        assert out.observed_to_true.tolist() == kept
        assert out.observed.original_ids.tolist() == [input_id(x) for x in kept]
        obs, oid = out.observed, out.observed.original_ids.tolist()
        got = {(oid[a], oid[b]) for a, b in zip(obs.fwd_rows.tolist(), obs.fwd_targets.tolist())}
        want = {(input_id(u), input_id(v)) for u, v in edges if u in fetched and v in kept}
        assert got == want


class TestBiasReport:
    def test_full_crawl_of_cycle_shows_zero_deviation(self):
        g = graph_of(3, [(0, 1), (1, 2), (2, 0)])
        out = simulate_crawl(g, CrawlConfig(seeds=(0,), strategy=CrawlStrategy.BFS))
        rep = bias_report(g, out)
        assert rep.entry("scc_pct").relative_deviation == 0.0
        assert rep.entry("kappa_in").relative_deviation == 0.0
        assert rep.entry("reciprocity_fraction").relative_deviation == 0.0
        # one distinct positive degree: no tail fit on either side
        assert rep.entry("gamma_in").relative_deviation is None
        assert rep.entry("gamma_in").note is not None

    def test_partial_crawl_skews_out_component(self):
        # star-of-cycles: crawl sees the core but cuts OUT short
        edges = [(0, 1), (1, 2), (2, 0)]
        nxt = 3
        for anchor in (0, 1, 2):
            edges.append((anchor, nxt))
            nxt += 1
        g = graph_of(nxt, edges)
        out = simulate_crawl(
            g,
            CrawlConfig(seeds=(0,), strategy=CrawlStrategy.BFS, page_budget=4),
        )
        rep = bias_report(g, out)
        assert rep.entry("scc_pct").observed_value > rep.entry("scc_pct").true_value

    def test_fingerprint_mismatch_rejected(self):
        g = graph_of(3, [(0, 1), (1, 2), (2, 0)])
        other = graph_of(3, [(0, 1), (1, 0)])
        out = simulate_crawl(g, CrawlConfig(seeds=(0,), strategy=CrawlStrategy.BFS))
        with pytest.raises(ProvenanceError):
            bias_report(other, out)

    def test_fingerprint_distinguishes_graphs(self):
        a = graph_of(3, [(0, 1), (1, 2)])
        b = graph_of(3, [(0, 1), (2, 1)])
        assert graph_fingerprint(a) != graph_fingerprint(b)
        assert graph_fingerprint(a) == graph_fingerprint(graph_of(3, [(0, 1), (1, 2)]))

    def test_fingerprint_covers_every_edge(self):
        # rewire one edge at a CSR position that a sample of every
        # (m // 1024)-th entry would skip
        rng = np.random.default_rng(11)
        n, m = 50_000, 200_000
        a = DirectedGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
        src = np.repeat(np.arange(n), a.out_degrees)
        dst = a.fwd_targets.astype(np.int64)
        same_row = src[1:] == src[:-1]
        gap = np.flatnonzero(same_row & (dst[1:] - dst[:-1] > 1)) + 1
        i = int(gap[gap % (a.edge_count // 1024) != 0][0])
        dst[i] -= 1
        b = DirectedGraph.from_edges(n, src, dst)
        assert np.array_equal(a.fwd_offsets, b.fwd_offsets)
        assert np.count_nonzero(a.fwd_targets != b.fwd_targets) == 1
        assert not same_structure(a, b)
        out = simulate_crawl(
            a, CrawlConfig(seeds=(0,), strategy=CrawlStrategy.BFS, page_budget=10)
        )
        with pytest.raises(ProvenanceError):
            bias_report(b, out)


def test_generate_holds_a_few_bytes_an_edge():
    # the stub lists and the edge columns took about 47 bytes an edge
    n = 200_000
    in_law = ZetaDegreeLaw(1.9, 1, n // 30)
    cfg = GeneratorConfig(n, in_law, PoissonDegreeLaw(law_mean(in_law)), 0.2, rng_seed=7)
    tracemalloc.start()
    try:
        g, _ = generate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * g.edge_count, peak / g.edge_count


class TestEnsemble:
    def test_replica_seeds_differ_by_index_and_stream(self):
        seen = {replica_seed(9, i, s) for i in range(10) for s in range(3)}
        assert len(seen) == 30

    def test_reproducible(self):
        cfg = GeneratorConfig(
            node_count=600,
            in_law=PoissonDegreeLaw(4.0),
            out_law=PoissonDegreeLaw(4.0),
            target_reciprocity=0.2,
            rng_seed=0,
        )
        proto = CrawlProto(strategy=CrawlStrategy.BFS, budget_fraction=0.5)
        a = run_ensemble(cfg, proto, replicas=2, master_seed=77)
        b = run_ensemble(cfg, proto, replicas=2, master_seed=77)
        for ra, rb in zip(a, b):
            assert ra.bias.to_dict() == rb.bias.to_dict()
            assert ra.outcome.fetched.tolist() == rb.outcome.fetched.tolist()

    def test_workers_return_what_one_process_returns(self, replica_pools):
        cfg = GeneratorConfig(
            node_count=600,
            in_law=ZetaDegreeLaw(2.3, cutoff=60),
            out_law=PoissonDegreeLaw(4.0),
            target_reciprocity=0.3,
            rng_seed=0,
        )
        proto = CrawlProto(strategy=CrawlStrategy.BFS, seed_count=3, budget_fraction=0.5)
        serial = list(run_ensemble(cfg, proto, replicas=3, master_seed=12, workers=1))
        pooled = list(run_ensemble(cfg, proto, replicas=3, master_seed=12, workers=2))
        assert replica_pools == [2]
        assert [r.index for r in pooled] == [0, 1, 2]
        for a, b in zip(serial, pooled, strict=True):
            assert a.generation == b.generation
            assert a.outcome.config == b.outcome.config
            assert a.outcome.true_fingerprint == b.outcome.true_fingerprint
            for name in ("fetched", "discovered", "observed_to_true"):
                assert np.array_equal(getattr(a.outcome, name), getattr(b.outcome, name))
            g, h = a.outcome.observed, b.outcome.observed
            assert g.node_count == h.node_count
            for name in ("fwd_offsets", "fwd_targets", "original_ids"):
                assert np.array_equal(getattr(g, name), getattr(h, name))
                assert not getattr(h, name).flags.writeable
            assert a.bias.entries == b.bias.entries

    def test_a_replica_runs_only_when_asked_for(self, monkeypatch):
        ran, real = [], crawl_sim._replica

        def recorded(gen_cfg, proto, master_seed, index):
            ran.append(index)
            return real(gen_cfg, proto, master_seed, index)

        monkeypatch.setattr(crawl_sim, "_replica", recorded)
        cfg = GeneratorConfig(300, PoissonDegreeLaw(3.0), PoissonDegreeLaw(3.0), 0.0, rng_seed=0)
        results = run_ensemble(cfg, CrawlProto(), replicas=3, master_seed=4, workers=1)
        assert ran == []
        assert next(results).index == 0
        assert ran == [0]

    def test_closing_early_cancels_the_replicas_not_started(
        self, tmp_path, monkeypatch, replica_pools
    ):
        real = crawl_sim.generate

        def marked(cfg):  # runs in a worker: a file marks each replica begun
            (tmp_path / str(cfg.rng_seed)).touch()
            time.sleep(0.05)
            return real(cfg)

        monkeypatch.setattr(crawl_sim, "generate", marked)
        cfg = GeneratorConfig(50, PoissonDegreeLaw(2.0), PoissonDegreeLaw(2.0), 0.0, rng_seed=0)
        results = run_ensemble(cfg, CrawlProto(), replicas=50, master_seed=4, workers=2)
        assert next(results).index == 0
        results.close()
        assert replica_pools == [2]
        assert 1 <= len(list(tmp_path.iterdir())) < 50
        assert multiprocessing.active_children() == []

    def test_replicas_vary(self):
        cfg = GeneratorConfig(
            node_count=600,
            in_law=PoissonDegreeLaw(4.0),
            out_law=PoissonDegreeLaw(4.0),
            target_reciprocity=0.2,
            rng_seed=0,
        )
        proto = CrawlProto(strategy=CrawlStrategy.BFS, budget_fraction=0.5)
        res = list(run_ensemble(cfg, proto, replicas=2, master_seed=78))
        assert not same_structure(res[0].outcome.observed, res[1].outcome.observed)

    def test_page_budget_wins_over_fraction(self):
        cfg = GeneratorConfig(
            node_count=300,
            in_law=PoissonDegreeLaw(3.0),
            out_law=PoissonDegreeLaw(3.0),
            target_reciprocity=0.0,
            rng_seed=0,
        )
        proto = CrawlProto(
            strategy=CrawlStrategy.BFS, page_budget=10, budget_fraction=0.9
        )
        res = list(run_ensemble(cfg, proto, replicas=1, master_seed=5))
        assert len(res[0].outcome.fetched) <= 10
