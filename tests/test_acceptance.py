"""End-to-end acceptance checks, one test per shipping criterion.

Each test is self-contained and deterministic: fixed seeds, frozen
tolerances, and independent brute-force oracles from ``oracles.py``
wherever a second route to the answer exists. Run with ``pytest -v``
to get one pass/fail line per criterion.
"""

import json
import math
import resource
import time
from dataclasses import asdict

import numpy as np
import pytest

from linkgraph import (
    BowTieClass,
    CrawlConfig,
    CrawlProto,
    CrawlStrategy,
    Direction,
    ExplicitDegreeLaw,
    FrontierMode,
    GeneratorConfig,
    KnnVariant,
    PoissonDegreeLaw,
    PowerLawFitError,
    ReciprocalKnnVariant,
    UndefinedStatisticError,
    ZetaDegreeLaw,
    avg_clustering_by_degree,
    avg_out_given_in,
    bias_report,
    bowtie_decompose,
    clustering,
    conditional_means_nr,
    crossed_one_point,
    crossed_one_point_nr,
    cumulative,
    decompose,
    degree_histogram,
    directed_knn,
    generate,
    generate_decomposed,
    knn_undirected,
    law_mean,
    mle_powerlaw,
    reciprocal_knn,
    reciprocal_subgraph,
    run_ensemble,
    sample_zeta,
    select_fit_range,
    simulate_crawl,
    summarize,
    undirected_view,
)
from linkgraph.cli import main as cli_main
from linkgraph.degree_stats import DegreeHistogram

import oracles
from conftest import TOY8_EDGES, TOY8_N, graph_of

REL = 1e-12

DIRECTED_AXES = {
    KnnVariant.IN_NN_OF_IN: ("in", "in"),
    KnnVariant.OUT_NN_OF_IN: ("in", "out"),
    KnnVariant.IN_NN_OF_OUT: ("out", "in"),
    KnnVariant.OUT_NN_OF_OUT: ("out", "out"),
}

RECIPROCAL_AXES = {
    ReciprocalKnnVariant.IN_NN_OF_IN: ("in", "in"),
    ReciprocalKnnVariant.OUT_NN_OF_IN: ("in", "out"),
    ReciprocalKnnVariant.IN_NN_OF_OUT: ("out", "in"),
    ReciprocalKnnVariant.OUT_NN_OF_OUT: ("out", "out"),
}


def profile_dict(profile, normalized=False):
    ys = profile.mean_normalized if normalized else profile.mean_raw
    return dict(zip(profile.degrees.tolist(), ys.tolist()))


def assert_profile_equals(profile, want, rel=REL):
    got = profile_dict(profile)
    assert got.keys() == want.keys()
    for k, v in want.items():
        assert got[k] == pytest.approx(v, rel=rel, abs=1e-15)


def test_criterion_01_bowtie_matches_bruteforce_on_random_digraphs():
    """Component classification agrees with a closure-matrix oracle on
    100 random digraphs spanning sparse to dense regimes."""
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        p = rng.uniform(0.3, 4.0) / n
        edges = oracles.random_digraph(rng, n, p)
        part = bowtie_decompose(graph_of(n, edges))
        want = oracles.bowtie_bruteforce(n, edges)
        for cls in BowTieClass:
            got = set(part.nodes_in(cls).tolist())
            assert got == want[cls.value], f"n={n} class={cls.value}"


def test_criterion_02_bowtie_toy_fixture_exact_shares():
    """The eight-node worked example lands every node in its documented
    class with exact percentage shares."""
    part = bowtie_decompose(graph_of(TOY8_N, TOY8_EDGES))
    by_class = {c: set(part.nodes_in(c).tolist()) for c in BowTieClass}
    assert by_class[BowTieClass.SCC] == {1, 2, 3}
    assert by_class[BowTieClass.IN] == {0}
    assert by_class[BowTieClass.OUT] == {4}
    assert by_class[BowTieClass.TUBE] == {6}
    assert by_class[BowTieClass.TENDRIL] == {5}
    assert by_class[BowTieClass.DISCONNECTED] == {7}
    assert part.percentages[BowTieClass.SCC] == 37.5
    for cls in (BowTieClass.IN, BowTieClass.OUT, BowTieClass.TUBE,
                BowTieClass.TENDRIL, BowTieClass.DISCONNECTED):
        assert part.percentages[cls] == 12.5
    assert part.main_pct == 62.5


def test_criterion_03_exponent_recovery_within_tenth():
    """The discrete maximum-likelihood fit recovers known exponents from
    synthetic power-law samples to within 0.1 in at least 95 of 100
    trials, inside a minute."""
    start = time.perf_counter()
    hits = 0
    trial = 0
    for gamma0 in (1.6, 1.9, 2.2, 2.6):
        for _ in range(25):
            rng = np.random.default_rng(1000 + trial)
            values = sample_zeta(gamma0, 100_000, rng)
            fit = mle_powerlaw(
                DegreeHistogram.from_values(values, Direction.IN), k_min=1)
            hits += abs(fit.gamma - gamma0) <= 0.1
            trial += 1
    elapsed = time.perf_counter() - start
    assert hits >= 95, f"only {hits}/100 recoveries within 0.1"
    assert elapsed < 60.0, f"recovery sweep took {elapsed:.1f}s"


def test_criterion_04_powerlaw_flag_discriminates():
    """The goodness-of-fit flag accepts genuine power-law samples and
    rejects geometric samples, 95 times out of 100 on each side."""
    plausible = 0
    rejected = 0
    for i in range(100):
        zeta_vals = sample_zeta(2.3, 100_000, np.random.default_rng(4000 + i))
        fit = mle_powerlaw(
            DegreeHistogram.from_values(zeta_vals, Direction.IN), k_min=1)
        plausible += fit.powerlaw_plausible

        geo_vals = np.random.default_rng(3000 + i).geometric(0.25, size=100_000)
        try:
            fit = mle_powerlaw(
                DegreeHistogram.from_values(geo_vals, Direction.IN), k_min=1)
            rejected += not fit.powerlaw_plausible
        except PowerLawFitError:
            rejected += 1
    assert plausible >= 95, f"only {plausible}/100 power-law samples accepted"
    assert rejected >= 95, f"only {rejected}/100 geometric samples rejected"


def test_criterion_05_moment_and_split_identities():
    """Structural identities hold exactly on every generated graph:
    equal in/out edge totals, per-node degree splits, unit histogram
    mass, and integer histogram/cumulative duality."""
    lam = law_mean(ZetaDegreeLaw(2.3, 1, 1000))
    battery = [
        generate(GeneratorConfig(2000, PoissonDegreeLaw(4.0),
                                 PoissonDegreeLaw(4.0), 0.0, rng_seed=11))[0],
        generate(GeneratorConfig(2000, PoissonDegreeLaw(4.0),
                                 PoissonDegreeLaw(4.0), 0.35, rng_seed=12))[0],
        generate(GeneratorConfig(2000, PoissonDegreeLaw(4.0),
                                 PoissonDegreeLaw(4.0), 0.7, rng_seed=13))[0],
        generate(GeneratorConfig(2000, ZetaDegreeLaw(2.3, 1, 1000),
                                 PoissonDegreeLaw(lam), 0.3, rng_seed=14))[0],
        generate(GeneratorConfig(400, ExplicitDegreeLaw((3,) * 400),
                                 ExplicitDegreeLaw((3,) * 400), 1.0,
                                 rng_seed=15))[0],
        generate_decomposed(2000, PoissonDegreeLaw(3.0), PoissonDegreeLaw(3.0),
                            PoissonDegreeLaw(2.0), rng_seed=16)[0],
    ]
    for g in battery:
        k_in = np.asarray(g.in_degrees, dtype=np.int64)
        k_out = np.asarray(g.out_degrees, dtype=np.int64)
        assert int(k_in.sum()) == int(k_out.sum()) == g.edge_count
        assert k_in.mean() == k_out.mean()

        d = decompose(g)
        assert np.array_equal(d.q_in + d.q_r, k_in)
        assert np.array_equal(d.q_out + d.q_r, k_out)
        assert int(d.q_r.sum()) == 2 * len(d.reciprocal_pairs)
        es = set(zip(g.fwd_rows.tolist(), g.fwd_targets.tolist()))
        one_way = sorted((u, v) for u, v in es if (v, u) not in es)
        assert list(zip(g.fwd_rows[~g.mutual].tolist(), g.fwd_targets[~g.mutual].tolist())) == one_way
        assert d.reciprocal_edge_count + len(one_way) == g.edge_count

        for direction in (Direction.IN, Direction.OUT, Direction.RECIPROCAL):
            h = degree_histogram(g, direction)
            assert abs(h.probabilities.sum() - 1.0) <= 1e-12
            curve = cumulative(h)
            ext = np.append(curve.suffix_counts, 0)
            assert np.array_equal(ext[:-1] - ext[1:], h.counts)
            assert curve.suffix_counts[0] == h.total_nodes == g.node_count


def test_criterion_06_uncorrelated_null_is_flat():
    """On a graph wired from independent Poisson sequences, every
    normalized neighbor-degree profile sits at 1 within noise, and the
    three one-point ratios are 1 within three standard errors."""
    start = time.perf_counter()
    g, _ = generate_decomposed(100_000, PoissonDegreeLaw(3.0),
                               PoissonDegreeLaw(3.0), PoissonDegreeLaw(2.0),
                               rng_seed=60)
    for variant in KnnVariant:
        prof = directed_knn(g, variant)
        mask = prof.n_k >= 50
        assert mask.sum() >= 10, f"{variant.value}: too few populated classes"
        z = np.abs(prof.mean_normalized[mask] - 1.0) / (
            prof.stderr[mask] / prof.normalization)
        frac_flat = float((z <= 3.0).mean())
        assert frac_flat >= 0.95, f"{variant.value}: flat fraction {frac_flat}"

    ratios = crossed_one_point_nr(decompose(g))
    assert set(ratios) == {"q_in_q_out", "q_in_q_r", "q_out_q_r"}
    for name, stat in ratios.items():
        assert stat.value is not None
        assert abs(stat.value - 1.0) <= 3.0 * stat.stderr, (
            f"{name}: {stat.value} +- {stat.stderr}")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"null sweep took {elapsed:.1f}s"


def test_criterion_07_profiles_match_double_loop_oracle():
    """Every correlation and clustering profile agrees with a naive
    double-loop oracle to 1e-12 relative on small random digraphs."""
    rng = np.random.default_rng(777)
    checked_mutual = 0
    for _ in range(12):
        n = int(rng.integers(10, 101))
        p = rng.uniform(0.05, 0.25)
        edges = oracles.random_digraph(rng, n, p)
        if not edges:
            continue
        g = graph_of(n, edges)

        assert_profile_equals(avg_out_given_in(g),
                              oracles.avg_out_given_in_bruteforce(n, edges))
        assert crossed_one_point(g) == pytest.approx(
            oracles.crossed_one_point_bruteforce(n, edges), rel=REL)

        for variant, (cond, qty) in DIRECTED_AXES.items():
            prof = directed_knn(g, variant)
            assert_profile_equals(
                prof, oracles.directed_knn_bruteforce(n, edges, cond, qty))
            assert prof.normalization == pytest.approx(
                oracles.directed_knn_norm_bruteforce(n, edges, cond, qty),
                rel=REL)

        pairs_all = sorted({(min(u, v), max(u, v)) for u, v in edges})
        want_knn, want_kappa = oracles.knn_undirected_bruteforce(n, pairs_all)
        prof = knn_undirected(undirected_view(g))
        assert_profile_equals(prof, want_knn)
        assert prof.normalization == pytest.approx(want_kappa, rel=REL)

        q_in, q_out, q_r, mutual_pairs = oracles.reciprocity_bruteforce(n, edges)
        d = decompose(g)
        conds = conditional_means_nr(d)
        assert_profile_equals(conds["q_out_given_q_in"],
                              oracles.class_means(q_in, q_out))
        assert_profile_equals(conds["q_r_given_q_in"],
                              oracles.class_means(q_in, q_r))
        assert_profile_equals(conds["q_r_given_q_out"],
                              oracles.class_means(q_out, q_r))

        for name, xs, ys in (("q_in_q_out", q_in, q_out),
                             ("q_in_q_r", q_in, q_r),
                             ("q_out_q_r", q_out, q_r)):
            stat = crossed_one_point_nr(d)[name]
            mx = sum(xs) / n
            my = sum(ys) / n
            if mx == 0.0 or my == 0.0:
                assert stat.value is None
            else:
                want = (sum(x * y for x, y in zip(xs, ys)) / n) / (mx * my)
                assert stat.value == pytest.approx(want, rel=REL)

        sub = reciprocal_subgraph(d)
        for variant, (cond, qty) in RECIPROCAL_AXES.items():
            want = oracles.reciprocal_knn_bruteforce(n, edges, cond, qty)
            assert_profile_equals(reciprocal_knn(d, variant), want)

        if mutual_pairs:
            checked_mutual += 1
            want_c = oracles.clustering_bruteforce(n, sorted(mutual_pairs))
            for node, value in want_c.items():
                assert clustering(sub, node) == pytest.approx(value, rel=REL)
            want_by_class = oracles.class_means(
                [q_r[v] for v in want_c], [want_c[v] for v in want_c])
            assert_profile_equals(avg_clustering_by_degree(sub), want_by_class)
    assert checked_mutual >= 5, "random sweep exercised too few mutual webs"


def test_criterion_08_mutual_clique_and_star_signatures():
    """A fully mutual clique has clustering exactly 1 everywhere; a
    mutual star has exactly 0 at the hub and no value at the leaves."""
    n = 6
    clique = [(i, j) for i in range(n) for j in range(n) if i != j]
    sub = reciprocal_subgraph(decompose(graph_of(n, clique)))
    for v in range(n):
        assert clustering(sub, v) == 1.0
    prof = avg_clustering_by_degree(sub)
    assert profile_dict(prof) == {n - 1: 1.0}

    star = [(0, leaf) for leaf in range(1, 6)] + [(leaf, 0) for leaf in range(1, 6)]
    sub = reciprocal_subgraph(decompose(graph_of(6, star)))
    assert clustering(sub, 0) == 0.0
    for leaf in range(1, 6):
        with pytest.raises(UndefinedStatisticError):
            clustering(sub, leaf)
    assert profile_dict(avg_clustering_by_degree(sub)) == {5: 0.0}


def test_criterion_09_crawl_never_sees_upstream():
    """Out-link crawls seeded in the core and output side observe an
    empty upstream class even with unlimited budget, while the true
    graph's upstream share stays positive."""
    for graph_seed in (101, 102, 103, 104, 105):
        cfg = GeneratorConfig(4000, PoissonDegreeLaw(1.8),
                              PoissonDegreeLaw(1.8), 0.2, rng_seed=graph_seed)
        g, _ = generate(cfg)
        part = bowtie_decompose(g)
        assert part.percentages[BowTieClass.IN] > 0.0
        scc_nodes = part.nodes_in(BowTieClass.SCC)
        reachable = np.concatenate([scc_nodes, part.nodes_in(BowTieClass.OUT)])
        for trial in range(2):
            rng = np.random.default_rng(9000 + graph_seed * 10 + trial)
            seeds = {int(rng.choice(scc_nodes))}
            seeds.update(int(v) for v in rng.choice(reachable, size=4))
            for strategy in CrawlStrategy:
                outcome = simulate_crawl(g, CrawlConfig(
                    seeds=tuple(sorted(seeds)), strategy=strategy,
                    page_budget=None, frontier_mode=FrontierMode.FETCHED_ONLY,
                    rng_seed=5))
                report = bias_report(g, outcome)
                entry = report.entry("in_pct")
                assert entry.true_value > 0.0
                assert entry.observed_value == 0.0, (
                    f"seed={graph_seed} {strategy.value}: "
                    f"observed upstream {entry.observed_value}")
                observed_part = bowtie_decompose(outcome.observed)
                assert observed_part.percentages[BowTieClass.IN] == 0.0


def _pipeline_snapshot(seed):
    cfg = GeneratorConfig(3000, PoissonDegreeLaw(2.5), PoissonDegreeLaw(2.5),
                          0.3, rng_seed=seed)
    g, report = generate(cfg)
    hist = degree_histogram(g, Direction.IN)
    fit = mle_powerlaw(hist, k_min=1)
    prof = directed_knn(g, KnnVariant.OUT_NN_OF_IN)
    results = list(run_ensemble(
        cfg,
        CrawlProto(strategy=CrawlStrategy.RANDOM_FRONTIER,
                   frontier_mode=FrontierMode.FETCHED_ONLY,
                   seed_count=3, budget_fraction=0.5),
        replicas=3, master_seed=seed))
    return {
        "generation": asdict(report),
        "bowtie": bowtie_decompose(g).to_dict(),
        "fit": (fit.gamma, fit.stderr, fit.ks, fit.powerlaw_plausible),
        "profile": (prof.degrees.tolist(), prof.mean_raw.tolist(),
                    prof.n_k.tolist(), prof.normalization),
        "bias": [r.bias.to_dict() for r in results],
        "fetched": [r.outcome.fetched.tolist() for r in results],
    }


def test_criterion_10_determinism_and_worker_invariance(tmp_path, capsys, replica_pools):
    """Identical seeds give identical results end to end, through the
    library and through the command line at any worker count."""
    assert _pipeline_snapshot(31) == _pipeline_snapshot(31)

    def run_cli(out_dir, workers):
        rc = cli_main(["simulate", "--n", "2000", "--lambda-in", "2.0",
                       "--lambda-out", "2.0", "--reciprocity", "0.2",
                       "--replicas", "2", "--strategy", "bfs",
                       "--budget-fraction", "0.5", "--seed", "7",
                       "--workers", str(workers), "--out", str(out_dir)])
        capsys.readouterr()
        assert rc == 0
        return {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}

    first = run_cli(tmp_path / "a", 1)
    again = run_cli(tmp_path / "b", 1)
    wide = run_cli(tmp_path / "c", 4)
    assert replica_pools == [2], "the replicas did not run in worker processes"
    assert first.keys() == again.keys() == wide.keys()
    assert first == again, "rerun with the same seed changed some output file"
    assert first == wide, "worker count leaked into the results"
    doc = json.loads(first["simulate.json"])
    assert len(doc["replicas"]) == 2


def test_criterion_11_million_node_pipeline_within_budget():
    """A million-node, ten-million-edge graph flows through generation
    and the full statistics stack in under five minutes and 4 GB."""
    start = time.perf_counter()
    in_law = ZetaDegreeLaw(1.9, 1, 30000)
    cfg = GeneratorConfig(1_000_000, in_law, PoissonDegreeLaw(law_mean(in_law)),
                          0.2, rng_seed=424242)
    g, report = generate(cfg)
    assert g.node_count == 1_000_000
    assert g.edge_count > 5_000_000
    assert report.realized_reciprocity > 0.1

    part = bowtie_decompose(g)
    assert part.main_pct > 50.0

    hist_in = degree_histogram(g, Direction.IN)
    summary = summarize(hist_in)
    assert summary.kappa > 100.0
    fit = select_fit_range(hist_in)
    assert fit.gamma == pytest.approx(1.9, abs=0.1)

    assert crossed_one_point(g) > 0.0
    assert avg_out_given_in(g).degrees.size > 0
    for variant in KnnVariant:
        assert directed_knn(g, variant).degrees.size > 0

    d = decompose(g)
    assert d.reciprocity_fraction() > 0.1
    sub = reciprocal_subgraph(d)
    for variant in ReciprocalKnnVariant:
        assert reciprocal_knn(d, variant).degrees.size > 0
    assert avg_clustering_by_degree(sub).degrees.size > 0

    elapsed = time.perf_counter() - start
    peak_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    assert elapsed < 300.0, f"pipeline took {elapsed:.1f}s"
    assert peak_bytes < 4 * 1024**3, f"peak memory {peak_bytes / 1e9:.2f} GB"
