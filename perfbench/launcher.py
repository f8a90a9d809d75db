"""Run one ``linkgraph`` CLI command with spans around the package's
public functions.

    python3 perfbench/launcher.py SPANS_JSON COMMAND_ID CLI_ARG...
    python3 perfbench/launcher.py --scc cache|edges GRAPH_FILE

The first form imports ``linkgraph.cli``, wraps every function named in
``TARGETS`` on its defining module and on every package module that
imported it, then calls ``linkgraph.cli.main`` with the CLI arguments,
so the traced path is exactly the CLI's. Spans stay in memory and are
written to SPANS_JSON when the command returns. A target that no longer
exists is listed as missing and the command still runs.

The second form times one extra ``strongly_connected_components`` call
on a graph and prints its duration and component counts as JSON.
"""
from __future__ import annotations

import time

# taken before any other import: interpreter start-up ends here
STARTED = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# module -> public functions whose calls become spans
TARGETS = {
    "graph": ("build_from_edge_list", "save_cache", "load_cache", "undirected_view"),
    "components": ("bowtie_decompose", "strongly_connected_components"),
    "degree_stats": (
        "degree_histogram",
        "cumulative",
        "summarize",
        "select_fit_range",
        "mle_powerlaw",
    ),
    "correlations": ("crossed_one_point", "avg_out_given_in", "knn_undirected", "directed_knn"),
    "reciprocity": (
        "decompose",
        "r_degree_stats",
        "crossed_one_point_nr",
        "conditional_means_nr",
        "reciprocal_subgraph",
        "reciprocal_knn",
        "avg_clustering_by_degree",
        "reciprocal_scatter",
    ),
    "crawl_sim": ("run_ensemble", "generate", "simulate_crawl", "bias_report"),
    "export": (
        "json_text",
        "partition_text",
        "partition_classes_csv",
        "histogram_csv",
        "summary_dict",
        "profile_csv",
        "ratios_dict",
        "decomposition_csv",
        "scatter_csv",
        "edge_list_text",
        "bias_report_csv",
    ),
}


# spans that also count the work their input implies: the undirected view
# sorts one key per direction of every edge
COUNTS = {"graph.undirected_view": ("keys", lambda g: 2 * g.edge_count)}


class Tracer:
    """Collects one span per wrapped call: name, start, end, parent span
    index (-1 at top level), command id, whether it raised, the length
    of a returned string (the bytes an export writer produced) and any
    COUNTS entry."""

    def __init__(self, command_id: int):
        self.command_id = command_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {
                "name": name,
                "parent": self._stack[-1] if self._stack else -1,
                "command": self.command_id,
                "failed": True,
                "bytes": 0,
            }
            if name in COUNTS:
                key, count = COUNTS[name]
                span[key] = count(*args, **kwargs)
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                span["failed"] = False
                if isinstance(result, str):
                    span["bytes"] = len(result)
                return result
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the names that could not be found."""
    package = [
        module
        for name, module in sys.modules.items()
        if name == "linkgraph" or name.startswith("linkgraph.")
    ]
    missing = []
    for module_name, names in TARGETS.items():
        module = sys.modules.get(f"linkgraph.{module_name}")
        for name in names:
            original = getattr(module, name, None)
            if not callable(original):
                missing.append(f"{module_name}.{name}")
                continue
            traced = tracer.wrap(f"{module_name}.{name}", original)
            for holder in package:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, traced)
    return missing


def run_traced(spans_path: str, command_id: str, cli_args: list[str]) -> int:
    import linkgraph.cli as cli

    marks = {"started": STARTED, "imported": time.perf_counter()}
    tracer = Tracer(int(command_id))
    missing = install(tracer)
    marks["installed"] = time.perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        marks["returned"] = time.perf_counter()
        Path(spans_path).write_text(
            json.dumps({"spans": tracer.spans, "missing": missing, "marks": marks})
        )


def run_scc(kind: str, path: str) -> int:
    from linkgraph.components import strongly_connected_components
    from linkgraph.graph import build_from_edge_list, load_cache

    if kind == "cache":
        graph = load_cache(Path(path).read_bytes())
    else:
        graph, _ = build_from_edge_list(path)
    start = time.perf_counter()
    _, sizes = strongly_connected_components(graph)
    seconds = time.perf_counter() - start
    print(json.dumps({"s": seconds, "count": len(sizes), "largest": int(sizes.max())}))
    return 0


if __name__ == "__main__":
    if sys.argv[1] == "--scc":
        sys.exit(run_scc(sys.argv[2], sys.argv[3]))
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[3:]))
