"""The benchmark's workloads: inputs, command sequence, output checks and
per-layer counts for each.

webgraph     The paper's analysis path on a web-like input: ingest, then
             bowtie, degrees, corr and recip on the cache ingest wrote.
             graph, degree_stats, correlations, reciprocity and export do
             most of their work here; components does little.
crawl-deep   The paper's simulation half (generate, crawl and report
             bias over three replicas in one simulate command), then
             the same components layer as webgraph on a deep, narrow
             graph: long chains make the bow-tie search take one
             frontier step per chain node, so bowtie_decompose
             dominates that command and a traversal change shows here
             without moving webgraph much.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from proc import Spawner, cli_argv

WEBGRAPH_NODES = 50_000
DEEP_BOWTIE_CORE = 20_000
CRAWL_NODES = 30_000
CRAWL_REPLICAS = 3
CRAWL_TARGET_RECIPROCITY = 0.3
RECIPROCITY_TOLERANCE = 0.05  # as in the realized-reciprocity tests
NORMALIZATION_RTOL = 1e-12


@dataclass
class State:
    """One run's inputs and findings: input sizes for the context line,
    the generator's reference values, the workload seed, any set-up
    cache and its ingest report, set-up failures, and trace targets
    found missing."""

    sizes: dict
    data: object = None
    seed: int = 0
    cache: Path | None = None
    ingest: dict | None = None
    setup_failures: list[str] = field(default_factory=list)
    missing: set[str] = field(default_factory=set)


def _json(stem: Path, name: str) -> dict:
    return json.loads((stem / name).read_text())


def _csv_rows(path: Path) -> list[list[str]]:
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def _rel_close(a, b) -> bool:
    return a is not None and math.isclose(a, b, rel_tol=NORMALIZATION_RTOL, abs_tol=0.0)


def _ingest_counts(doc: dict) -> dict:
    data_lines = doc["raw_lines"] - doc["skipped_lines"]
    return {
        "graph.raw_lines": doc["raw_lines"],
        "graph.kept_edge_ratio": doc["edges"] / data_lines if data_lines else 0.0,
    }


class Webgraph:
    @staticmethod
    def setup(work: Path, seed: int, spawner: Spawner) -> State:
        ref = inputs.make_webgraph(work, seed, WEBGRAPH_NODES)
        sizes = {
            "nodes": ref.ingest["nodes"],
            "edges": ref.ingest["edges"],
            "lines": ref.ingest["raw_lines"],
            "gzip_bytes": ref.path.stat().st_size,
        }
        return State(sizes, ref)

    @staticmethod
    def commands(state: State, out: Path) -> list[tuple[str, list[str]]]:
        cache = str(out / "ingest" / "graph.wgl")
        return [
            ("ingest", ["ingest", "--input", str(state.data.path), "--cache", cache,
                        "--out", str(out / "ingest")]),
            ("bowtie", ["bowtie", "--cache", cache, "--out", str(out / "bowtie"), "--classes"]),
            ("degrees", ["degrees", "--cache", cache, "--out", str(out / "degrees"),
                         "--direction", "all"]),
            ("corr", ["corr", "--cache", cache, "--out", str(out / "corr")]),
            ("recip", ["recip", "--cache", cache, "--out", str(out / "recip"),
                       "--per-node", "--scatter", "--export-subgraph"]),
        ]

    @staticmethod
    def check(state: State, name: str, stem: Path) -> list[str]:
        ref = state.data
        if name == "ingest":
            doc = _json(stem, "ingest.json")["ingest"]
            return [] if doc == ref.ingest else [f"ingest report {doc} != {ref.ingest}"]
        if name == "bowtie":
            doc = _json(stem, "bowtie.json")
            rows = _csv_rows(stem / "bowtie_classes.csv")
            n = ref.ingest["nodes"]
            if len(rows) != n:
                return [f"{len(rows)} class rows for {n} nodes"]
            labels = [r[1] for r in rows]
            bad = [
                c for c in inputs.CLASS_NAMES
                if doc[f"{c.lower()}_pct"] != 100.0 * labels.count(c) / n
            ]
            return [f"class shares {bad} disagree with the class rows"] if bad else []
        if name == "degrees":
            return [
                f"degrees_{d}.csv differs from the reference histogram"
                for d, text in ref.histograms.items()
                if (stem / f"degrees_{d}.csv").read_text() != text
            ]
        if name == "corr":
            doc = _json(stem, "corr.json")
            failures = [
                f"normalization {v}: {doc['normalizations'].get(v)} != {want}"
                for v, want in ref.normalizations.items()
                if not _rel_close(doc["normalizations"].get(v), want)
            ]
            if not _rel_close(doc["crossed_one_point"]["value"], ref.crossed_one_point):
                failures.append(f"crossed_one_point {doc['crossed_one_point']}")
            return failures
        got = _json(stem, "recip.json")["reciprocity_fraction"]
        want = ref.reciprocity_fraction
        return [] if got == want else [f"reciprocity_fraction {got} != {want}"]

    @staticmethod
    def layer_counts(state: State, first_pass: Path) -> dict:
        counts = _ingest_counts(state.data.ingest)
        q_r = np.loadtxt(first_pass / "recip" / "recip_decomposition.csv", delimiter=",",
                         skiprows=1, usecols=3, dtype=np.int64)
        counts["reciprocity.wedges"] = int((q_r * (q_r - 1) // 2).sum())
        counts["reciprocity.mutual_pairs"] = int(q_r.sum() // 2)
        return counts

    @staticmethod
    def scc_graph(state: State, first_pass: Path):
        return "cache", first_pass / "ingest" / "graph.wgl"


class CrawlDeep:
    """The simulate command, then bowtie on a deep chain bow-tie whose
    cache set-up builds. The crawl's own seed is the workload seed."""

    @staticmethod
    def setup(work: Path, seed: int, spawner: Spawner) -> State:
        ref = inputs.make_deep_bowtie(work, seed, DEEP_BOWTIE_CORE)
        sizes = {"crawl_nodes": CRAWL_NODES, "replicas": CRAWL_REPLICAS,
                 "nodes": ref.nodes, "edges": ref.edges, "lines": ref.edges}
        state = State(sizes, ref, seed=seed)
        state.cache = work / "deep_bowtie.wgl"
        args = ["ingest", "--input", str(ref.path), "--cache", str(state.cache)]
        code = spawner.run(cli_argv(args), work, work / "setup_ingest").code
        if code != 0:
            state.setup_failures.append(f"setup ingest exited with {code}")
            return state
        state.ingest = json.loads(Path(f"{work / 'setup_ingest'}.stdout").read_text())["ingest"]
        if (state.ingest["nodes"], state.ingest["edges"]) != (ref.nodes, ref.edges):
            state.setup_failures.append(f"setup ingest report {state.ingest}")
        return state

    @staticmethod
    def commands(state: State, out: Path) -> list[tuple[str, list[str]]]:
        return [
            ("simulate", [
                "simulate", "--n", str(CRAWL_NODES), "--gamma-in", "2.1",
                "--reciprocity", str(CRAWL_TARGET_RECIPROCITY),
                "--replicas", str(CRAWL_REPLICAS), "--strategy", "bfs",
                "--budget-fraction", "0.5", "--seed-count", "8", "--seed", str(state.seed),
                "--workers", "2", "--export-observed", "--out", str(out / "simulate"),
            ]),
            ("bowtie", ["bowtie", "--cache", str(state.cache), "--out",
                        str(out / "bowtie"), "--classes"]),
        ]

    @staticmethod
    def check(state: State, name: str, stem: Path) -> list[str]:
        if name == "simulate":
            return CrawlDeep._check_simulate(stem)
        ref = state.data
        doc = _json(stem, "bowtie.json")
        failures = []
        pcts = {c: 100.0 * ref.sizes[c] / ref.nodes for c in inputs.CLASS_NAMES}
        for c, want in pcts.items():
            if doc[f"{c.lower()}_pct"] != want:
                failures.append(f"{c} share {doc[f'{c.lower()}_pct']} != planted {want}")
        if doc["main_pct"] != pcts["SCC"] + pcts["IN"] + pcts["OUT"]:
            failures.append(f"main share {doc['main_pct']}")
        rows = _csv_rows(stem / "bowtie_classes.csv")
        nodes = np.array([int(r[0]) for r in rows])
        labels = np.array([inputs.CLASS_NAMES.index(r[1]) for r in rows])
        if len(nodes) != ref.nodes or not np.array_equal(labels, ref.labels[nodes]):
            failures.append("per-node classes differ from the planted classes")
        counts = np.bincount(labels, minlength=len(inputs.CLASS_NAMES))
        for i, c in enumerate(inputs.CLASS_NAMES):
            if counts[i] != ref.sizes[c]:
                failures.append(f"{counts[i]} {c} rows, planted {ref.sizes[c]}")
        return failures

    @staticmethod
    def _check_simulate(stem: Path) -> list[str]:
        doc = _json(stem, "simulate.json")
        failures = []
        budget = round(0.5 * CRAWL_NODES)
        if len(doc["replicas"]) != CRAWL_REPLICAS:
            failures.append(f"{len(doc['replicas'])} replicas")
        for rep in doc["replicas"]:
            i = rep["index"]
            realized = rep["generation"]["realized_reciprocity"]
            if abs(realized - CRAWL_TARGET_RECIPROCITY) > RECIPROCITY_TOLERANCE:
                failures.append(f"replica {i}: realized reciprocity {realized}")
            fetched, discovered = rep["crawl"]["fetched"], rep["crawl"]["discovered"]
            if fetched != budget or fetched > discovered:
                failures.append(f"replica {i}: fetched {fetched}, discovered {discovered}")
            edges = np.loadtxt(stem / f"observed_{i}.txt", dtype=np.int64, ndmin=2)
            mutual = 0
            if len(edges):
                keys = edges[:, 0] * CRAWL_NODES + edges[:, 1]
                swapped = edges[:, 1] * CRAWL_NODES + edges[:, 0]
                mutual = int(np.count_nonzero(np.isin(keys, swapped)))
            observed = {e["name"]: e["observed"] for e in rep["bias"]["entries"]}
            want = {
                "reciprocity_fraction": mutual / len(edges) if len(edges) else None,
                "mean_q_r": mutual / fetched,
            }
            for key, value in want.items():
                if observed[key] != value:
                    failures.append(f"replica {i}: observed {key} {observed[key]} != {value}")
        return failures

    @staticmethod
    def layer_counts(state: State, first_pass: Path) -> dict:
        counts = _ingest_counts(state.ingest) if state.ingest else {}
        reps = _json(first_pass / "simulate", "simulate.json")["replicas"]
        gen = [r["generation"] for r in reps]
        crawl = [r["crawl"] for r in reps]
        fetched = sum(c["fetched"] for c in crawl)
        counts.update({
            "crawl_sim.mutual_placed_ratio": sum(g["mutual_pairs_placed"] for g in gen)
            / sum(g["mutual_target_pairs"] for g in gen),
            "crawl_sim.edge_yield": sum(g["edge_count"] for g in gen)
            / sum(g["requested_edges"] for g in gen),
            "crawl_sim.pages_fetched": fetched,
            "crawl_sim.fetched_per_discovered": fetched / sum(c["discovered"] for c in crawl),
        })
        return counts

    @staticmethod
    def scc_graph(state: State, first_pass: Path):
        return "cache", state.cache


WORKLOADS = {"webgraph": Webgraph, "crawl-deep": CrawlDeep}
