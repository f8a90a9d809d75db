"""Command-line interface: one executable, one subcommand per analysis.

Subcommands: ingest, bowtie, degrees, corr, recip, simulate, report.
Every flag can also be supplied through an environment variable named
``LINKGRAPH_<FLAG>`` (dashes become underscores, upper-cased);
explicit flags win. All randomness flows from ``--seed`` with a fixed
default of 1, never from the clock, and no statistic is computed in
this layer; commands only orchestrate library calls and serialize
results. Exit codes: 0 success, 2 usage, 3 unreadable or malformed
input, 4 numeric or generation failure.
"""
from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import export
from .components import bowtie_decompose
from .correlations import (
    KnnVariant,
    avg_out_given_in,
    crossed_one_point,
    directed_knn,
    knn_undirected,
)
from .crawl_sim import (
    CrawlProto,
    CrawlStrategy,
    FrontierMode,
    GeneratorConfig,
    PoissonDegreeLaw,
    ZetaDegreeLaw,
    law_mean,
    run_ensemble,
)
from .degree_stats import (
    Direction,
    cumulative,
    degree_histogram,
    mle_powerlaw,
    select_fit_range,
    summarize,
)
from .errors import (
    CacheFormatError,
    EdgeListParseError,
    GenerationError,
    PowerLawFitError,
    ProvenanceError,
    UndefinedStatisticError,
)
from .graph import _MAX_NODES, build_from_edge_list, load_cache, save_cache
from .reciprocity import (
    ReciprocalKnnVariant,
    avg_clustering_by_degree,
    conditional_means_nr,
    crossed_one_point_nr,
    decompose,
    r_degree_stats,
    reciprocal_knn,
    reciprocal_scatter,
    reciprocal_subgraph,
)

DEFAULT_SEED = 1
ENV_PREFIX = "LINKGRAPH_"
_TRUE = ("1", "true", "yes", "on")
_FALSE = ("", "0", "false", "no", "off")

log = logging.getLogger("linkgraph")


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


def _env_key(long_opt: str) -> str:
    return ENV_PREFIX + long_opt.lstrip("-").replace("-", "_").upper()


def _add(parser: argparse.ArgumentParser, *names, **kw) -> None:
    """add_argument with environment-variable default injection."""
    long_opt = names[-1]
    key = _env_key(long_opt)
    if key in os.environ:
        raw = os.environ[key]
        if kw.get("action") == "store_true":
            flag = raw.strip().lower()
            if flag not in _TRUE + _FALSE:
                raise _UsageError(f"environment variable {key}={raw!r} is not a boolean")
            kw["default"] = flag in _TRUE
        else:
            caster = kw.get("type", str)
            try:
                val = caster(raw)
            except ValueError:
                raise _UsageError(f"environment variable {key}={raw!r} is invalid")
            choices = kw.get("choices")
            if choices is not None and val not in choices:
                raise _UsageError(
                    f"environment variable {key}={raw!r} not one of {sorted(choices)}"
                )
            kw["default"] = val
        kw.pop("required", None)
    parser.add_argument(*names, **kw)


def _common_flags(p: argparse.ArgumentParser, source: bool = True) -> None:
    if source:
        _add(p, "--input", type=str, default=None, help="edge-list file (may be gzip)")
        _add(p, "--cache", type=str, default=None, help="binary graph cache file")
    _add(p, "--out", type=str, default=None, help="directory for output files")
    _add(
        p,
        "--format",
        type=str,
        choices=("csv", "json"),
        default="csv",
        help="tabular output format (default csv)",
    )
    _add(p, "--workers", type=int, default=1, help="must be >= 1; unused, commands run serially")
    _add(p, "--seed", type=int, default=DEFAULT_SEED, help="master RNG seed (default 1)")
    _add(p, "--verbose", action="store_true", default=False, help="progress on stderr")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="linkgraph",
        description="Structural analysis of directed link graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an edge list and write a binary cache")
    _add(p, "--input", type=str, required=True, help="edge-list file (may be gzip)")
    _add(p, "--cache", type=str, default=None, help="cache file to write")
    _common_flags(p, source=False)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("bowtie", help="bow-tie decomposition")
    _common_flags(p)
    _add(p, "--classes", action="store_true", default=False, help="write per-node class CSV")
    p.set_defaults(fn=cmd_bowtie)

    p = sub.add_parser("degrees", help="degree histograms, moments, tail fits")
    _common_flags(p)
    _add(
        p,
        "--direction",
        type=str,
        choices=[d.value for d in Direction] + ["all"],
        default="all",
    )
    _add(p, "--kmin", type=int, default=None, help="fixed lower fit cutoff (default: scan)")
    p.set_defaults(fn=cmd_degrees)

    p = sub.add_parser("corr", help="degree-degree correlation profiles")
    _common_flags(p)
    p.set_defaults(fn=cmd_corr)

    p = sub.add_parser("recip", help="reciprocity decomposition and statistics")
    _common_flags(p)
    _add(p, "--per-node", action="store_true", default=False, help="write per-node q CSV")
    _add(p, "--scatter", action="store_true", default=False, help="write raw scatter CSV")
    _add(p, "--export-subgraph", action="store_true", default=False)
    _add(p, "--kmin", type=int, default=None, help="fixed lower fit cutoff for q_r")
    p.set_defaults(fn=cmd_recip)

    p = sub.add_parser("simulate", help="generate, crawl, and report bias")
    _common_flags(p, source=False)
    _add(p, "--n", type=int, default=10000, help="node count")
    _add(p, "--gamma-in", type=float, default=None, help="power-law in-degree exponent")
    _add(p, "--kmin-in", type=int, default=1)
    _add(p, "--cutoff-in", type=int, default=None)
    _add(p, "--lambda-in", type=float, default=None, help="Poisson in-degree mean")
    _add(p, "--gamma-out", type=float, default=None)
    _add(p, "--kmin-out", type=int, default=1)
    _add(p, "--cutoff-out", type=int, default=None)
    _add(p, "--lambda-out", type=float, default=None)
    _add(p, "--reciprocity", type=float, default=0.0, help="target reciprocal fraction")
    _add(p, "--replicas", type=int, default=1)
    _add(
        p,
        "--strategy",
        type=str,
        choices=tuple(s.value for s in CrawlStrategy),
        default=CrawlStrategy.BFS.value,
    )
    _add(p, "--budget", type=int, default=None, help="pages fetched per crawl")
    _add(p, "--budget-fraction", type=float, default=None)
    _add(p, "--seed-count", type=int, default=1, help="crawl seeds per replica")
    _add(
        p,
        "--frontier-mode",
        type=str,
        choices=tuple(m.value for m in FrontierMode),
        default=FrontierMode.FETCHED_ONLY.value,
    )
    _add(p, "--export-observed", action="store_true", default=False)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("report", help="merge JSON outputs into one document")
    _add(p, "--dir", type=str, required=True, help="directory of prior outputs")
    _common_flags(p, source=False)
    p.set_defaults(fn=cmd_report)

    return ap


# -- helpers ----------------------------------------------------------------


def _load_graph(args):
    if args.input and args.cache:
        raise _UsageError("give either --input or --cache, not both")
    if args.cache:
        data = Path(args.cache).read_bytes()
        return load_cache(data)
    if args.input:
        graph, _ = build_from_edge_list(args.input)
        return graph
    raise _UsageError("a graph source is required (--input or --cache)")


def _outdir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _out_ok(args) -> None:
    """A --out that names a file or lies under one fails before any work;
    the directory itself is made only when the command writes to it."""
    if args.out is None:
        return
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise _UsageError(f"--out {out} is not a directory: {path} is a file")
            return


def _write(out: Path | None, name: str, text: str) -> None:
    if out is not None:
        (out / name).write_text(text, encoding="utf-8")


def _emit(args, doc: dict, files: dict[str, str]) -> None:
    """Print the JSON document; write it and the tabular files under
    --out. With --format json the tables are folded into the JSON
    document instead of standalone CSV files."""
    out = _outdir(args)
    if args.format == "json":
        doc = dict(doc)
        doc["tables"] = {
            name.rsplit(".", 1)[0]: table.splitlines() for name, table in files.items()
        }
        files = {}
    text = export.json_text(doc)
    sys.stdout.write(text)
    if out is not None:
        _write(out, f"{args.command}.json", text)
        for name, content in files.items():
            _write(out, name, content)


def _settings_ok(args) -> None:
    if getattr(args, "workers", 1) < 1:
        raise _UsageError("--workers must be >= 1")
    if getattr(args, "seed", 0) < 0:
        raise _UsageError("--seed must be >= 0")
    if getattr(args, "kmin", None) is not None and args.kmin < 1:
        raise _UsageError("--kmin must be >= 1")


# -- commands ----------------------------------------------------------------


def cmd_ingest(args) -> int:
    graph, report = build_from_edge_list(args.input)
    _outdir(args)  # made before the cache, which may live under it
    if args.cache:
        Path(args.cache).write_bytes(save_cache(graph))
        log.info("cache written to %s", args.cache)
    _emit(args, {"ingest": report.to_dict()}, {})
    return 0


def cmd_bowtie(args) -> int:
    graph = _load_graph(args)
    part = bowtie_decompose(graph)
    files = {"bowtie_summary.txt": export.partition_text(part)}
    if args.classes:
        files["bowtie_classes.csv"] = export.partition_classes_csv(part, graph)
    _emit(args, part.to_dict(), files)
    return 0


def _fit_or_error(hist, kmin):
    try:
        if kmin is not None:
            return mle_powerlaw(hist, k_min=kmin), None
        return select_fit_range(hist), None
    except PowerLawFitError as exc:
        return None, str(exc)


def cmd_degrees(args) -> int:
    graph = _load_graph(args)
    wanted = list(Direction) if args.direction == "all" else [Direction(args.direction)]
    doc = {}
    files = {}
    for direction in wanted:
        name = direction.value
        hist = degree_histogram(graph, direction)
        curve = cumulative(hist)
        summary = summarize(hist)
        fit, fit_error = _fit_or_error(hist, args.kmin)
        doc[name] = export.summary_dict(summary, fit, fit_error)
        files[f"degrees_{name}.csv"] = export.histogram_csv(hist, curve)
    _emit(args, doc, files)
    return 0


def cmd_corr(args) -> int:
    graph = _load_graph(args)
    doc = {}
    files = {}
    try:
        ratio = crossed_one_point(graph)
        doc["crossed_one_point"] = {"value": ratio, "note": None}
    except UndefinedStatisticError as exc:
        doc["crossed_one_point"] = {"value": None, "note": str(exc)}
    try:
        files["corr_out_given_in.csv"] = export.profile_csv(avg_out_given_in(graph))
    except UndefinedStatisticError as exc:
        doc["out_given_in"] = {"note": str(exc)}
    try:
        from .graph import undirected_view

        files["corr_knn_undirected.csv"] = export.profile_csv(
            knn_undirected(undirected_view(graph))
        )
    except UndefinedStatisticError as exc:
        doc["knn_undirected"] = {"note": str(exc)}
    for variant in KnnVariant:
        try:
            profile = directed_knn(graph, variant)
            files[f"corr_knn_{variant.value}.csv"] = export.profile_csv(profile)
            doc.setdefault("normalizations", {})[variant.value] = profile.normalization
        except UndefinedStatisticError as exc:
            doc.setdefault("normalizations", {})[variant.value] = None
            doc.setdefault("profile_notes", {})[variant.value] = str(exc)
    _emit(args, doc, files)
    return 0


def cmd_recip(args) -> int:
    graph = _load_graph(args)
    d = decompose(graph)
    hist, summary = r_degree_stats(d)
    fit, fit_error = _fit_or_error(hist, args.kmin)
    doc = {
        "q_r": export.summary_dict(summary, fit, fit_error),
        "ratios": export.ratios_dict(crossed_one_point_nr(d)),
    }
    try:
        doc["reciprocity_fraction"] = d.reciprocity_fraction()
    except UndefinedStatisticError as exc:
        doc["reciprocity_fraction"] = None
        doc["reciprocity_note"] = str(exc)
    files = {"recip_qr_histogram.csv": export.histogram_csv(hist, cumulative(hist))}
    for key, profile in conditional_means_nr(d).items():
        files[f"recip_{key}.csv"] = export.profile_csv(profile)
    sub = reciprocal_subgraph(d)
    for variant in ReciprocalKnnVariant:
        files[f"recip_knn_{variant.value}.csv"] = export.profile_csv(reciprocal_knn(d, variant))
    try:
        files["recip_subgraph_knn.csv"] = export.profile_csv(knn_undirected(sub))
    except UndefinedStatisticError as exc:
        doc["subgraph_knn_note"] = str(exc)
    files["recip_clustering.csv"] = export.profile_csv(avg_clustering_by_degree(sub))
    if args.per_node:
        files["recip_decomposition.csv"] = export.decomposition_csv(d, graph)
    if args.scatter:
        files["recip_scatter.csv"] = export.scatter_csv(reciprocal_scatter(d), sub)
    if args.export_subgraph:
        files["recip_subgraph_edges.txt"] = export.edge_list_text(sub)
    _emit(args, doc, files)
    return 0


def _zeta_law(side: str, gamma: float, k_min: int, cutoff: int | None, n: int):
    if not gamma > 1.0:
        raise _UsageError(f"--gamma-{side} must be > 1")
    if k_min < 1:
        raise _UsageError(f"--kmin-{side} must be >= 1")
    if cutoff is None:
        cutoff = max(10, n // 10)
    if cutoff < k_min:
        raise _UsageError(f"--cutoff-{side} must be >= --kmin-{side}")
    return ZetaDegreeLaw(gamma, k_min, cutoff)


def _poisson_law(side: str, lam: float, n: int):
    top = max(n - 1, 0)  # no node of a simple n-node graph has more neighbors
    if not 0 <= lam <= top:
        raise _UsageError(f"--lambda-{side} must lie in [0, n - 1] = [0, {top}]")
    return PoissonDegreeLaw(lam)


def _resolve_laws(args):
    if args.gamma_in is not None and args.lambda_in is not None:
        raise _UsageError("give either --gamma-in or --lambda-in, not both")
    if args.gamma_out is not None and args.lambda_out is not None:
        raise _UsageError("give either --gamma-out or --lambda-out, not both")
    if args.gamma_in is not None:
        in_law = _zeta_law("in", args.gamma_in, args.kmin_in, args.cutoff_in, args.n)
    elif args.lambda_in is not None:
        in_law = _poisson_law("in", args.lambda_in, args.n)
    else:
        in_law = ZetaDegreeLaw(2.1, 1, max(10, args.n // 10))
    if args.gamma_out is not None:
        out_law = _zeta_law("out", args.gamma_out, args.kmin_out, args.cutoff_out, args.n)
    elif args.lambda_out is not None:
        out_law = _poisson_law("out", args.lambda_out, args.n)
    else:
        out_law = PoissonDegreeLaw(law_mean(in_law, max_degree=args.n - 1))
    return in_law, out_law


def cmd_simulate(args) -> int:
    if not 1 <= args.n <= _MAX_NODES:  # the generator stores ids as int32
        raise _UsageError(f"--n must lie in [1, {_MAX_NODES}]")
    for side, cutoff in (("in", args.cutoff_in), ("out", args.cutoff_out)):
        if cutoff is not None and cutoff > args.n - 1:  # no node has more neighbors
            raise _UsageError(f"--cutoff-{side} must be <= n - 1 = {args.n - 1}")
    if not 0 <= args.reciprocity <= 1:  # NaN included
        raise _UsageError("--reciprocity must lie in [0, 1]")
    in_law, out_law = _resolve_laws(args)
    if args.replicas < 1:
        raise _UsageError("--replicas must be >= 1")
    if args.seed_count < 1:
        raise _UsageError("--seed-count must be >= 1")
    if args.budget_fraction is not None and not 0 < args.budget_fraction <= 1:
        raise _UsageError("--budget-fraction must lie in (0, 1]")
    if args.budget is not None and args.budget < min(args.seed_count, args.n):
        raise _UsageError("--budget must be >= --seed-count")
    gen_cfg = GeneratorConfig(
        node_count=args.n,
        in_law=in_law,
        out_law=out_law,
        target_reciprocity=args.reciprocity,
        rng_seed=0,  # replaced per replica by the ensemble runner
    )
    proto = CrawlProto(
        strategy=CrawlStrategy(args.strategy),
        frontier_mode=FrontierMode(args.frontier_mode),
        seed_count=args.seed_count,
        page_budget=args.budget,
        budget_fraction=args.budget_fraction,
    )
    results = run_ensemble(gen_cfg, proto, args.replicas, args.seed)
    doc = {"replicas": []}
    files = {}
    for res in results:
        doc["replicas"].append(
            {
                "index": res.index,
                "generation": res.generation.to_dict(),
                "crawl": {
                    "seeds": [int(s) for s in res.outcome.config.seeds],
                    "strategy": res.outcome.config.strategy.value,
                    "page_budget": res.outcome.config.page_budget,
                    "frontier_mode": res.outcome.config.frontier_mode.value,
                    "fetched": int(len(res.outcome.fetched)),
                    "discovered": int(len(res.outcome.discovered)),
                },
                "bias": res.bias.to_dict(),
            }
        )
        files[f"bias_report_{res.index}.csv"] = export.bias_report_csv(res.bias)
        if args.export_observed:
            files[f"observed_{res.index}.txt"] = export.edge_list_text(
                res.outcome.observed
            )
        log.info("replica %d: fetched %d nodes", res.index, len(res.outcome.fetched))
    _emit(args, doc, files)
    return 0


def cmd_report(args) -> int:
    import json

    base = Path(args.dir)
    if not base.is_dir():
        raise FileNotFoundError(f"not a directory: {base}")
    merged = {}
    for path in sorted(base.glob("*.json")):
        if path.name == "report.json":
            continue
        try:
            merged[path.stem] = json.loads(path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _InputError(f"{path}: not a JSON document: {exc}") from None
    out = _outdir(args)
    text = export.json_text(merged)
    sys.stdout.write(text)
    if out is not None:
        _write(out, "report.json", text)
    return 0


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    logging.basicConfig(
        level=logging.INFO if getattr(args, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        _settings_ok(args)
        _out_ok(args)
        np.seterr(all="ignore")
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (
        _InputError,
        EdgeListParseError,
        CacheFormatError,
        FileNotFoundError,
        IsADirectoryError,
        PermissionError,
    ) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except (
        GenerationError,
        PowerLawFitError,
        UndefinedStatisticError,
        ProvenanceError,
    ) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a size every check admits can still not fit
        reason = str(exc) or "allocation failed"
        print(f"computation error: out of memory: {reason}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
