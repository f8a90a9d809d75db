import tracemalloc

import numpy as np
import pytest

from linkgraph import BowTieClass, DirectedGraph, bowtie_decompose, components
from linkgraph import graph as graph_module
from linkgraph.components import strongly_connected_components

import oracles
from conftest import TOY8_EDGES, TOY8_N, graph_of


def classes_as_sets(part):
    return {c.value: set(part.nodes_in(c).tolist()) for c in BowTieClass}


def spied(fn, name, calls):
    """``fn``, appending ``name`` to ``calls`` on every call."""

    def spy(*args):
        calls.append(name)
        return fn(*args)

    return spy


@pytest.fixture
def taken(monkeypatch):
    """The kernel that classified each non-empty graph, in call order:
    "searches" for the numpy searches, "fallback" for the compiled one."""
    runs = []
    classes = components._classes

    def spy(g, search, *rest):
        masks = classes(g, search, *rest)
        runs.append("fallback" if search is components._compiled_search else "searches")
        return masks

    monkeypatch.setattr(components, "_classes", spy)
    return runs


@pytest.fixture(params=["searches", "fallback"])
def paths(request, monkeypatch, taken):
    """Each bow-tie as it runs, or through the compiled fallback alone,
    forced by a zero step cap; returns the parameter."""
    if request.param == "fallback":
        monkeypatch.setattr(components, "_LEVELS", 0)
    yield request.param
    if request.param == "fallback":
        assert set(taken) <= {"fallback"}


@pytest.mark.usefixtures("paths")
class TestToyFixture:
    def test_exact_partition(self, toy8):
        part = bowtie_decompose(toy8)
        got = classes_as_sets(part)
        assert got["SCC"] == {1, 2, 3}
        assert got["IN"] == {0}
        assert got["OUT"] == {4}
        assert got["TENDRIL"] == {5}
        assert got["TUBE"] == {6}
        assert got["DISCONNECTED"] == {7}

    def test_exact_percentages(self, toy8):
        d = bowtie_decompose(toy8).to_dict()
        assert d["scc_pct"] == 37.5
        for key in ("in_pct", "out_pct", "tendril_pct", "tube_pct", "disconnected_pct"):
            assert d[key] == 12.5
        assert d["main_pct"] == 62.5


@pytest.mark.usefixtures("paths")
class TestEdgeCases:
    def test_empty_graph(self, make_graph):
        part = bowtie_decompose(make_graph(0, []))
        assert part.sizes == {c: 0 for c in BowTieClass}
        assert part.to_dict()["scc_pct"] == 0.0

    def test_edgeless_graph_smallest_id_wins(self, make_graph):
        # every node is its own component; the tie-break picks node 0
        part = bowtie_decompose(make_graph(4, []))
        got = classes_as_sets(part)
        assert got["SCC"] == {0}
        assert got["DISCONNECTED"] == {1, 2, 3}

    def test_single_node(self, make_graph):
        part = bowtie_decompose(make_graph(1, []))
        assert classes_as_sets(part)["SCC"] == {0}
        assert part.main_pct == 100.0

    def test_all_one_cycle(self, make_graph):
        n = 6
        part = bowtie_decompose(make_graph(n, [(i, (i + 1) % n) for i in range(n)]))
        assert part.sizes[BowTieClass.SCC] == n
        assert part.main_pct == 100.0

    def test_pure_chain_tie_break(self, make_graph):
        # chain 0->1->2: all singleton components, smallest id becomes core
        part = bowtie_decompose(make_graph(3, [(0, 1), (1, 2)]))
        got = classes_as_sets(part)
        assert got["SCC"] == {0}
        assert got["OUT"] == {1, 2}
        assert got["IN"] == set()

    def test_two_sccs_largest_wins(self, make_graph):
        edges = [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)]
        part = bowtie_decompose(make_graph(5, edges))
        assert classes_as_sets(part)["SCC"] == {2, 3, 4}

    def test_size_tie_smallest_contained_id(self, make_graph):
        edges = [(2, 3), (3, 2), (0, 1), (1, 0)]
        part = bowtie_decompose(make_graph(4, edges))
        assert classes_as_sets(part)["SCC"] == {0, 1}

    def test_percentages_sum_to_100(self, make_graph):
        rng = np.random.default_rng(5)
        edges = oracles.random_digraph(rng, 40, 0.05)
        d = bowtie_decompose(graph_of(40, edges)).to_dict()
        total = sum(d[k] for k in d if k.endswith("pct") and k != "main_pct")
        assert total == pytest.approx(100.0, abs=1e-9)


class TestSccLabels:
    def test_labels_canonical_first_occurrence(self, make_graph):
        g = make_graph(5, [(3, 4), (4, 3), (0, 1), (1, 0)])
        labels, sizes = strongly_connected_components(g)
        # components numbered by first node appearance: {0,1} -> 0, 2 -> 1, {3,4} -> 2
        assert labels.tolist() == [0, 0, 1, 2, 2]
        assert sizes.tolist() == [2, 1, 2]

    def test_matches_mutual_reachability(self, make_graph):
        rng = np.random.default_rng(9)
        for trial in range(20):
            n = int(rng.integers(2, 35))
            edges = oracles.random_digraph(rng, n, float(rng.uniform(0.02, 0.2)))
            g = graph_of(n, edges)
            labels, _ = strongly_connected_components(g)
            reach = oracles.reachability(n, edges)
            mutual = reach & reach.T
            for i in range(n):
                for j in range(n):
                    assert (labels[i] == labels[j]) == bool(mutual[i, j])


def test_oracle_agrees_on_toy8():
    got = oracles.bowtie_bruteforce(TOY8_N, TOY8_EDGES)
    assert got["SCC"] == {1, 2, 3}
    assert got["IN"] == {0}
    assert got["OUT"] == {4}
    assert got["TENDRIL"] == {5}
    assert got["TUBE"] == {6}
    assert got["DISCONNECTED"] == {7}


def test_oracle_reaches_along_256_paths():
    # 0 -> k -> 257 for 256 middle nodes k: a count of paths that wraps in uint8
    edges = [(0, k) for k in range(1, 257)] + [(k, 257) for k in range(1, 257)]
    assert oracles.bowtie_bruteforce(258, edges)["OUT"] == set(range(1, 258))


def test_matches_bruteforce_on_random_graphs(paths, taken, monkeypatch):
    if paths == "searches":
        # no graph this small runs 64 steps deep; at 6, some of them give
        # way at each stage of the classifier
        monkeypatch.setattr(components, "_LEVELS", 6)
    rng = np.random.default_rng(42)
    for trial in range(30):
        n = int(rng.integers(1, 60))
        p = float(rng.uniform(0.01, 0.15))
        edges = oracles.random_digraph(rng, n, p)
        part = bowtie_decompose(graph_of(n, edges))
        got = classes_as_sets(part)
        want = oracles.bowtie_bruteforce(n, edges)
        assert got == want, f"trial {trial}: n={n} p={p:.3f}"
    assert len(taken) == 30
    if paths == "searches":
        assert set(taken) == {"searches", "fallback"}


def test_deterministic_across_runs(make_graph):
    rng = np.random.default_rng(3)
    edges = oracles.random_digraph(rng, 50, 0.06)
    a = bowtie_decompose(graph_of(50, edges))
    b = bowtie_decompose(graph_of(50, edges))
    assert a.class_of.tolist() == b.class_of.tolist()


def planted_chain_bowtie(seed, core=20_000, chain=20_000):
    """A bow-tie whose classes are long chains, with ids shuffled.

    The core is a Hamiltonian cycle plus random chords. IN and OUT are
    chains into and out of it; the TUBE chain runs from the head of IN
    to the tail of OUT; one TENDRIL chain leaves the head of IN, the
    other enters the tail of OUT; the DISCONNECTED chain touches
    nothing. Returns the graph and every node's planted class name.
    """
    rng = np.random.default_rng(seed)
    sizes = [("SCC", core), ("IN", chain), ("OUT", chain), ("TUBE", chain // 2),
             ("TENDRIL", chain // 2), ("TENDRIL", chain // 2),
             ("DISCONNECTED", chain // 2)]
    n = sum(k for _, k in sizes)
    ids = rng.permutation(n)
    blocks, pos = [], 0
    for _, k in sizes:
        blocks.append(ids[pos:pos + k])
        pos += k
    scc, in_, out, tube, tendril_a, tendril_b, disc = blocks
    pairs = [
        (scc, np.roll(scc, -1)),
        (np.repeat(scc, 3), rng.choice(scc, 3 * core)),
    ]
    for chain_ids in (in_, out, tube, tendril_a, tendril_b, disc):
        pairs.append((chain_ids[:-1], chain_ids[1:]))
    links = [
        (in_[-1], scc[0]),
        (scc[-1], out[0]),
        (in_[0], tube[0]),
        (tube[-1], out[-1]),
        (in_[0], tendril_a[0]),
        (tendril_b[-1], out[-1]),
    ]
    pairs += [(np.array([u]), np.array([v])) for u, v in links]
    src = np.concatenate([p[0] for p in pairs])
    dst = np.concatenate([p[1] for p in pairs])
    planted = np.empty(n, dtype=object)
    for (name, _), block in zip(sizes, blocks):
        planted[block] = name
    return DirectedGraph.from_edges(n, src, dst), planted


def test_deep_chain_bowtie_matches_planted_classes():
    # one BFS level per chain node: a per-level loop would take seconds
    g, planted = planted_chain_bowtie(seed=2024)
    assert g.node_count >= 100_000
    part = bowtie_decompose(g)
    for cls in BowTieClass:
        assert np.array_equal(part.nodes_in(cls), np.flatnonzero(planted == cls.value))


def test_tube_never_passes_through_core(make_graph, paths):
    # 3 -> core {0,1,2} -> 4 is the IN -> SCC -> OUT path; the true tube
    # 3 -> 5 -> 6 -> 4 runs beside it, and 7 only hangs off IN
    edges = [(0, 1), (1, 2), (2, 0), (3, 0), (2, 4), (4, 8),
             (3, 5), (5, 6), (6, 4), (3, 7)]
    got = classes_as_sets(bowtie_decompose(make_graph(9, edges)))
    assert got == {
        "SCC": {0, 1, 2},
        "IN": {3},
        "OUT": {4, 8},
        "TUBE": {5, 6},
        "TENDRIL": {7},
        "DISCONNECTED": set(),
    }


def test_equal_cores_fall_back_to_the_smallest_id(make_graph, taken, monkeypatch):
    # the pivot, node 3, sits in {3,4,5}; {0,1,2} is as large, so the
    # searches cannot show their core is the largest: one strong-component
    # pass names {0,1,2}, and the numpy searches take its reaches
    calls = []
    for name in ("_largest_core", "_reach_mask"):
        monkeypatch.setattr(components, name, spied(getattr(components, name), name, calls))
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (4, 3)]
    got = classes_as_sets(bowtie_decompose(make_graph(6, edges)))
    assert got["SCC"] == {0, 1, 2}
    assert got["DISCONNECTED"] == {3, 4, 5}
    assert taken == ["searches"]
    assert calls == ["_largest_core"]


def tied_cores(seed, trials):
    """Seeded digraphs whose largest strong components tie: two or three
    equal cycles among single nodes, every other edge running forward in
    a random order of those components, so that none of them merge."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        ties, size = 2 + trial % 2, int(rng.integers(2, 6))
        n = ties * size + int(rng.integers(0, 30))
        ids = rng.permutation(n)
        cycles = np.split(ids[: ties * size], ties)
        edges = [(int(c[i]), int(c[(i + 1) % size])) for c in cycles for i in range(size)]
        rank = np.empty(n, dtype=np.int64)  # each node's component's place in the order
        order = rng.permutation(n - ties * (size - 1))
        for c, place in zip(cycles, order):
            rank[c] = place
        rank[ids[ties * size :]] = order[ties:]
        p = float(rng.uniform(0.0, 0.2))
        edges += [(u, v) for u, v in oracles.random_digraph(rng, n, p) if rank[u] < rank[v]]
        yield n, edges


@pytest.mark.parametrize("levels", [0, 64])
def test_core_is_the_largest_strong_component(monkeypatch, levels):
    # ties go to the component holding the smallest id, on either kernel
    monkeypatch.setattr(components, "_LEVELS", levels)
    rng = np.random.default_rng(23)
    cases = list(tied_cores(seed=22, trials=40))
    for _ in range(40):
        n = int(rng.integers(1, 40))
        cases.append((n, oracles.random_digraph(rng, n, float(rng.uniform(0.0, 0.15)))))
    for n, edges in cases:
        g = graph_of(n, edges)
        labels, sizes = strongly_connected_components(g)
        want = labels == np.argmax(sizes)
        assert np.array_equal(components._largest_core(g), want), (n, edges)
        assert np.array_equal(bowtie_decompose(g).nodes_in(BowTieClass.SCC), np.flatnonzero(want))
        assert set(np.flatnonzero(want).tolist()) == oracles.bowtie_bruteforce(n, edges)["SCC"]


@pytest.mark.parametrize("side", ["IN", "OUT"])
def test_deep_chain_leaps_in_the_searches(make_graph, taken, monkeypatch, side):
    # 0 -> 1 -> ... -> 300 -> 298: the core {298, 299, 300} is the largest,
    # and IN is a chain 298 steps deep: 1..297 is one run, crossed in one
    # step, entered from node 0, which has no in-edge, so no cycle holds it
    # and the core is shown the largest with no SCC pass; reversed, OUT is
    # the chain and its run leaves to node 0, which has no out-edge
    calls = []
    for name in ("_largest_core", "_reach_mask"):
        monkeypatch.setattr(components, name, spied(getattr(components, name), name, calls))
    edges = [(i, i + 1) for i in range(300)] + [(300, 298)]
    if side == "OUT":
        edges = [(v, u) for u, v in edges]
    got = classes_as_sets(bowtie_decompose(make_graph(301, edges)))
    assert got.pop("SCC") == {298, 299, 300}
    assert got.pop(side) == set(range(298))
    assert not any(got.values())
    assert taken == ["searches"]
    assert calls == []


def test_leap_adds_the_run_along_its_way():
    # the path p0 -> ... -> p9, ids shuffled: its run is p1..p8, and p3 and
    # p6 are fresh on it
    path = np.random.default_rng(34).permutation(10)
    g = graph_of(10, list(zip(path[:-1].tolist(), path[1:].tolist())))
    runs = components._runs(g)
    assert runs.nodes.tolist() == path[1:9].tolist()
    for way, want, free in [
        ("out", path[3:9], None),
        ("in", path[1:7], None),
        ("both", path[1:9], None),
        ("both", path[[3, 6]], np.zeros(1, dtype=bool)),
    ]:
        fresh = np.zeros(10, dtype=bool)
        fresh[path[[3, 6]]] = True
        assert components._leap(fresh, way, runs, free) == (free is None)
        assert np.array_equal(np.flatnonzero(fresh), np.sort(want)), way


def test_mutual_chain_falls_back(make_graph, taken):
    # 0 <-> 1 <-> ... <-> 299 is one strong component, 298 steps across
    # from its pivot, node 1: its only runs are its two end nodes
    edges = [(i, i + 1) for i in range(299)] + [(i + 1, i) for i in range(299)]
    part = bowtie_decompose(make_graph(300, edges))
    assert part.sizes[BowTieClass.SCC] == 300
    assert taken == ["fallback"]


def test_lasso_as_large_as_the_core_takes_the_pass(make_graph, taken, monkeypatch):
    # the pivot, node 3 (k_out * k_in = 4), sits in the cycle {3, 4, 5}
    # between IN 7 and OUT 8; the lasso 0 -> 1 -> 2 -> 0 is as large, its
    # run {1, 2} entered and left at 0, so the bound must count the run
    # and one strong-component pass name {0, 1, 2}, which holds node 0
    calls = []
    monkeypatch.setattr(components, "_largest_core", spied(components._largest_core, "pass", calls))
    edges = [(0, 1), (1, 2), (2, 0), (0, 9), (3, 4), (4, 5), (5, 3), (7, 3), (3, 8)]
    got = classes_as_sets(bowtie_decompose(make_graph(10, edges)))
    assert got["SCC"] == {0, 1, 2}
    assert got == oracles.bowtie_bruteforce(10, edges)
    assert calls == ["pass"]
    assert taken == ["searches"]


def test_shallow_majority_core_takes_the_searches(make_graph, taken, monkeypatch):
    # core 0..5 with chords; IN 7 -> 6 -> 0; OUT 1 -> 8 -> 9; TUBE 7 -> 10 -> 9;
    # a tendril 6 -> 11; 12 is disconnected
    edges = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3), (3, 0), (2, 5)]
    edges += [(7, 6), (6, 0), (1, 8), (8, 9), (7, 10), (10, 9), (6, 11)]
    g = make_graph(13, edges)
    part = bowtie_decompose(g)
    assert classes_as_sets(part) == {
        "SCC": set(range(6)),
        "IN": {6, 7},
        "OUT": {8, 9},
        "TUBE": {10},
        "TENDRIL": {11},
        "DISCONNECTED": {12},
    }
    assert classes_as_sets(part) == oracles.bowtie_bruteforce(13, edges)
    monkeypatch.setattr(components, "_LEVELS", 0)
    assert np.array_equal(bowtie_decompose(g).class_of, part.class_of)
    assert taken == ["searches", "fallback"]


def test_tendril_past_the_cap_gives_way_part_way(make_graph, taken, monkeypatch):
    # a star core of 400 around hub 0; IN 400, OUT 401, TUBE 400 -> 402 -> 401;
    # a 300-node TENDRIL off IN whose edges alternate direction, so only the
    # weak-body search walks it, one node a step; 703 is disconnected
    edges = [(0, i) for i in range(1, 400)] + [(i, 0) for i in range(1, 400)]
    edges += [(400, 0), (0, 401), (400, 402), (402, 401), (400, 403)]
    edges += [(i + 1, i) if i % 2 else (i, i + 1) for i in range(403, 702)]
    ways = []
    search = components._search

    def spy(g, way, blocked, seeds, *rest):
        ways.append(way)
        return search(g, way, blocked, seeds, *rest)

    monkeypatch.setattr(components, "_search", spy)
    got = classes_as_sets(bowtie_decompose(make_graph(704, edges)))
    assert ways == ["out", "in", "out", "in", "both"]
    assert taken == ["fallback"]
    assert got == {
        "SCC": set(range(400)),
        "IN": {400},
        "OUT": {401},
        "TUBE": {402},
        "TENDRIL": set(range(403, 703)),
        "DISCONNECTED": {703},
    }
    assert got == oracles.bowtie_bruteforce(704, edges)


def kernel_cases(seed, trials):
    """Seeded small digraphs: random ones (with isolated nodes), two equal
    cycles (a tied core), and a cycle with only OUT or only IN around it."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(1, 40))
        edges = oracles.random_digraph(rng, n, float(rng.uniform(0.0, 0.12)))
        kind = trial % 4
        if kind == 1 and n >= 6:
            # two 3-cycles tie for the core unless the rest holds a larger one
            edges = [(u, v) for u, v in edges if min(u, v) >= 6]
            edges += [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        elif kind >= 2 and n >= 3:
            # edges only run up in id from the cycle {0,1,2}: no IN, or no OUT
            edges = [(min(u, v), max(u, v)) for u, v in edges if min(u, v) >= 2]
            edges = sorted(set(edges + [(0, 1), (1, 2), (2, 0)]))
            if kind == 3:
                edges = [(v, u) for u, v in edges]
        yield n, edges


def test_kernels_agree():
    rng = np.random.default_rng(12)
    for n, edges in kernel_cases(seed=11, trials=80):
        g = graph_of(n, edges)
        want = oracles.bowtie_bruteforce(n, edges)
        in_, out_, scc = (np.isin(np.arange(n), list(want[c])) for c in ("IN", "OUT", "SCC"))
        weak = oracles.reachability(n, edges + [(v, u) for u, v in edges])
        # the classifier blocks only in its TUBE searches: the main body,
        # from all of IN forward and from all of OUT backward
        main = scc | in_ | out_
        cases = [("out", main, np.flatnonzero(in_)), ("in", main, np.flatnonzero(out_))]
        for way in ("out", "in", "both"):
            # the classifier seeds the weak body inside one component
            pool = np.flatnonzero(weak[rng.integers(n)]) if way == "both" else np.arange(n)
            size = int(rng.integers(way == "both", pool.size + 1))
            cases.append((way, None, np.sort(rng.choice(pool, size, replace=False))))
        for way, blocked, seeds in cases:
            assert np.array_equal(
                components._search(g, way, blocked, seeds),
                components._compiled_search(g, way, blocked, seeds),
            ), (n, edges, way, blocked, seeds)
        runs = components._runs(g)
        masks = components._classes(g, components._search, runs)
        for got, want in zip(masks, components._classes(g, components._compiled_search, runs)):
            assert np.array_equal(got, want), (n, edges)


@pytest.mark.parametrize("size", [1, 3, 7])
def test_searches_in_small_blocks_match_bruteforce(monkeypatch, taken, size):
    monkeypatch.setattr(graph_module, "_BLOCK_EDGES", size)
    # node 0's rows, out and in, are longer than every block
    hub = [(0, v) for v in range(1, 20)] + [(v, 0) for v in range(5, 20, 2)] + [(20, 0), (3, 21)]
    cases = [*kernel_cases(seed=5, trials=24), (22, hub)]
    for n, edges in cases:
        g = graph_of(n, edges)
        assert classes_as_sets(bowtie_decompose(g)) == oracles.bowtie_bruteforce(n, edges)
        blocked, none = np.arange(n) % 3 == 0, np.empty(0, dtype=np.int64)
        for way in ("out", "in", "both"):
            assert components._search(g, way, blocked, none).tolist() == blocked.tolist()
        # the weak body's CSR: each node's out-row, then its in-row
        offsets, targets = components._both_ways(g)
        rev, sources = g.rev_offsets, g.rev_sources
        for v in range(n):
            row = g.out_neighbors(v).tolist() + sources[rev[v] : rev[v + 1]].tolist()
            assert targets[offsets[v] : offsets[v + 1]].tolist() == row
    assert taken == ["searches"] * len(cases)


def test_bowtie_holds_a_few_bytes_an_edge():
    # the reverse CSR (4 bytes an entry) is kept; gathering each frontier's
    # rows whole took about 29 bytes an edge on this graph
    rng = np.random.default_rng(11)
    n, m = 100_000, 1_000_000
    g = DirectedGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    tracemalloc.start()
    try:
        bowtie_decompose(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * g.edge_count, peak / g.edge_count


def peak_per_item(g, items):
    """``tracemalloc`` peak of one bow-tie, per item, on a graph whose
    reverse CSR, kept on the graph, is built beforehand, with scipy's
    traversals already imported."""
    import scipy.sparse.csgraph  # noqa: F401

    g.rev_offsets
    tracemalloc.start()
    try:
        bowtie_decompose(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / items


def test_compiled_bowtie_holds_no_weights_and_no_copied_csr(monkeypatch, taken):
    # float64 weights, a super-source copy of every reach and scipy's weak
    # pass took about 23 bytes an edge here
    monkeypatch.setattr(components, "_LEVELS", 0)
    rng = np.random.default_rng(11)
    n, m = 100_000, 1_000_000
    g = DirectedGraph.from_edges(n, rng.integers(0, n, m), rng.integers(0, n, m))
    peak = peak_per_item(g, g.edge_count)
    assert peak <= 16, peak
    assert taken == ["fallback"]


def test_deep_bowtie_holds_a_few_bytes_a_node_and_edge(taken):
    # the strong-component pass, the TUBE searches and the weak body took
    # about 28 bytes a node and edge with the same copies; the numpy
    # searches leap along its chains
    g, _ = planted_chain_bowtie(seed=2024)
    peak = peak_per_item(g, g.node_count + g.edge_count)
    assert peak <= 21, peak
    assert taken == ["searches"]


def test_compiled_deep_bowtie_holds_a_few_bytes_a_node_and_edge(monkeypatch, taken):
    # the compiled kernel keeps no run index beside its own arrays
    monkeypatch.setattr(components, "_LEVELS", 0)
    g, _ = planted_chain_bowtie(seed=2024)
    peak = peak_per_item(g, g.node_count + g.edge_count)
    assert peak <= 21, peak
    assert taken == ["fallback"]


def run_cases(seed, trials):
    """Seeded digraphs built around runs of one-in, one-out nodes, ids
    shuffled: chains between random nodes or hanging off nothing, cycles
    of such nodes alone, lassos (a chain whose entry is its exit) and
    random edges among the rest. Each fifth case is a tied core from
    :func:`tied_cores` with chains attached."""
    rng = np.random.default_rng(seed)
    ties = tied_cores(seed + 1, trials)
    for trial in range(trials):
        n, edges = next(ties)
        if trial % 5:
            n = int(rng.integers(2, 30))
            edges = oracles.random_digraph(rng, n, float(rng.uniform(0.0, 0.12)))
        ends = n
        for piece in range(int(rng.integers(1, 5))):
            size, kind = int(rng.integers(1, 9)), rng.choice(["chain", "cycle", "lasso"])
            if not piece:  # a run in every case: its middle node at least
                size, kind = size + 2, "chain"
            chain = list(range(n, n + size))
            n += size
            edges += list(zip(chain, chain[1:]))
            if kind == "cycle":
                edges.append((chain[-1], chain[0]))
                continue
            entry, exit_ = (int(v) for v in rng.integers(-1, ends, 2))
            if kind == "lasso":
                exit_ = entry = max(entry, 0)
            if entry >= 0:
                edges.append((entry, chain[0]))
            if exit_ >= 0:
                edges.append((chain[-1], exit_))
        ids = rng.permutation(n)
        yield n, sorted({(int(ids[u]), int(ids[v])) for u, v in edges if u != v})


def reach_oracle(n, edges, way, blocked, seeds):
    """``_search``'s mask by the brute-force closure: the rows of blocked
    nodes that are not seeds are cut, and the blocked nodes added."""
    steps = {"out": edges, "in": [(v, u) for u, v in edges]}
    steps["both"] = steps["out"] + steps["in"]
    cut = blocked.copy()
    cut[seeds] = False
    reach = oracles.reachability(n, [(u, v) for u, v in steps[way] if not cut[u]])
    return reach[seeds].any(axis=0) | blocked


@pytest.mark.parametrize("levels", [3, 64])
def test_runs_match_bruteforce(monkeypatch, taken, levels):
    # runs, seeds and blocked nodes anywhere; at 3 steps some graphs still
    # give way, and the compiled kernel classifies them with no run index
    monkeypatch.setattr(components, "_LEVELS", levels)
    for n, edges in run_cases(seed=31, trials=60):
        g = graph_of(n, edges)
        want = oracles.bowtie_bruteforce(n, edges)
        assert classes_as_sets(bowtie_decompose(g)) == want, (n, edges)
    assert len(taken) == 60
    assert set(taken) == ({"searches", "fallback"} if levels == 3 else {"searches"})


def test_searches_leap_as_the_compiled_kernel_and_the_closure_reach():
    rng = np.random.default_rng(32)
    pivots_on_runs = 0
    for n, edges in run_cases(seed=33, trials=60):
        g = graph_of(n, edges)
        runs = components._runs(g)
        on_run = np.flatnonzero(runs.slot >= 0)
        assert on_run.size
        pivots_on_runs += runs.slot[runs.pivot[0]] >= 0
        none = np.zeros(n, dtype=bool)
        for way in ("out", "in", "both"):
            # a seed on a run and a few anywhere; the weak body's in one component
            seeds = rng.choice(on_run, 1)
            pool = reach_oracle(n, edges, "both", none, seeds) if way == "both" else ~none
            seeds = np.union1d(seeds, rng.choice(np.flatnonzero(pool), int(rng.integers(0, 4))))
            want = components._compiled_search(g, way, None, seeds)
            assert np.array_equal(components._search(g, way, None, seeds), want), (n, edges, way)
            # blocked nodes anywhere, one of them on a run
            blocked = rng.random(n) < 0.15
            blocked[rng.choice(on_run)] = True
            want = reach_oracle(n, edges, way, blocked, seeds)
            got = components._search(g, way, blocked, seeds, runs)
            assert np.array_equal(got, want), (n, edges, way, blocked, seeds)
    assert pivots_on_runs
