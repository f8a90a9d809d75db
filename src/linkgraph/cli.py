"""Command-line interface: one executable, one subcommand per analysis.

Subcommands: ingest, bowtie, degrees, corr, recip, simulate, report.
Each flag is declared only on the commands that read it, and argparse
checks every flag's value. A flag can also be supplied through an
environment variable named ``LINKGRAPH_<FLAG>`` (dashes become
underscores, upper-cased); it is read only for the command that runs,
as a ``--flag=value`` token before the command line's own, so explicit
flags win and both pass the same checks. All randomness is
``simulate``'s and flows from its ``--seed`` with a fixed default of 1,
never from the clock, and no statistic is computed in this layer;
commands only orchestrate library calls, hand each table to one output
path as soon as it is made, and return their JSON document. Exit
codes: 0 success, 2 usage, 3 unreadable or malformed input, 4 numeric
or generation failure; each failure is one error line on stderr,
after any --verbose lines of the work already done.
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
    value_or_note,
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


class _ArgumentParser(argparse.ArgumentParser):
    """An argparse error is a one-line usage error, not a usage block and
    a SystemExit; subparsers are made of this class too."""

    def error(self, message: str):
        raise _UsageError(message)


def _ranged(cast, lo=None, hi=None, above=None):
    """An argparse type: ``cast`` the text, then require ``lo <= value``
    (or ``value > above``) and ``value <= hi`` for each bound given; NaN
    fails every bound. The error states the whole allowed range."""
    if hi is None:
        rule = f"must be >= {lo}" if above is None else f"must be > {above}"
    else:
        rule = f"must lie in [{lo}, {hi}]" if above is None else f"must lie in ({above}, {hi}]"

    def convert(text: str):
        value = cast(text)
        if (lo is None or value >= lo) and (hi is None or value <= hi) and (
            above is None or value > above
        ):
            return value
        raise argparse.ArgumentTypeError(rule)

    convert.__name__ = cast.__name__  # argparse names it in "invalid int value"
    return convert


_AT_LEAST_1 = _ranged(int, lo=1)


def _common_flags(p: argparse.ArgumentParser, source: bool = True, tables: bool = True) -> None:
    if source:
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", type=str, help="edge-list file (may be gzip)")
        group.add_argument("--cache", type=str, help="binary graph cache file")
    p.add_argument("--out", type=str, help="directory for output files")
    if tables:
        p.add_argument(
            "--format",
            type=str,
            choices=("csv", "json"),
            default="csv",
            help="tabular output format (default csv)",
        )
    p.add_argument("--verbose", action="store_true", help="progress on stderr")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="linkgraph",
        description="Structural analysis of directed link graphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse an edge list and write a binary cache")
    p.add_argument("--input", type=str, required=True, help="edge-list file (may be gzip)")
    p.add_argument("--cache", type=str, help="cache file to write")
    _common_flags(p, source=False, tables=False)
    p.set_defaults(fn=cmd_ingest, format="csv")  # no tables to fold; not a flag

    p = sub.add_parser("bowtie", help="bow-tie decomposition")
    _common_flags(p)
    p.add_argument("--classes", action="store_true", help="write per-node class CSV")
    p.set_defaults(fn=cmd_bowtie)

    p = sub.add_parser("degrees", help="degree histograms, moments, tail fits")
    _common_flags(p)
    p.add_argument(
        "--direction",
        type=str,
        choices=[d.value for d in Direction] + ["all"],
        default="all",
    )
    p.add_argument("--kmin", type=_AT_LEAST_1, help="fixed lower fit cutoff (default: scan)")
    p.set_defaults(fn=cmd_degrees)

    p = sub.add_parser("corr", help="degree-degree correlation profiles")
    _common_flags(p)
    p.set_defaults(fn=cmd_corr)

    p = sub.add_parser("recip", help="reciprocity decomposition and statistics")
    _common_flags(p)
    p.add_argument("--per-node", action="store_true", help="write per-node q CSV")
    p.add_argument("--scatter", action="store_true", help="write raw scatter CSV")
    p.add_argument("--export-subgraph", action="store_true")
    p.add_argument("--kmin", type=_AT_LEAST_1, help="fixed lower fit cutoff for q_r")
    p.set_defaults(fn=cmd_recip)

    p = sub.add_parser("simulate", help="generate, crawl, and report bias")
    _common_flags(p, source=False)
    p.add_argument(
        "--workers",
        type=_AT_LEAST_1,
        default=1,
        help="forked processes the replicas run on, at most one per replica and usable CPU"
        " (default 1); results never depend on it, and a worker that dies exits 4",
    )
    p.add_argument(
        "--seed", type=_ranged(int, lo=0), default=DEFAULT_SEED, help="master RNG seed (default 1)"
    )
    # the generator stores ids as int32
    p.add_argument("--n", type=_ranged(int, lo=1, hi=_MAX_NODES), default=10000, help="node count")
    for side in ("in", "out"):
        exponent = f"power-law {side}-degree exponent"
        p.add_argument(f"--gamma-{side}", type=_ranged(float, above=1), help=exponent)
        p.add_argument(f"--kmin-{side}", type=_AT_LEAST_1)
        p.add_argument(f"--cutoff-{side}", type=int)
        p.add_argument(f"--lambda-{side}", type=float, help=f"Poisson {side}-degree mean")
    share = _ranged(float, lo=0, hi=1)
    p.add_argument("--reciprocity", type=share, default=0.0, help="target reciprocal fraction")
    p.add_argument("--replicas", type=_AT_LEAST_1, default=1)
    p.add_argument(
        "--strategy",
        type=str,
        choices=tuple(s.value for s in CrawlStrategy),
        default=CrawlStrategy.BFS.value,
    )
    budget = p.add_mutually_exclusive_group()
    budget.add_argument("--budget", type=int, help="pages fetched per crawl")
    budget.add_argument("--budget-fraction", type=_ranged(float, above=0, hi=1))
    p.add_argument("--seed-count", type=_AT_LEAST_1, default=1, help="crawl seeds per replica")
    p.add_argument(
        "--frontier-mode",
        type=str,
        choices=tuple(m.value for m in FrontierMode),
        default=FrontierMode.FETCHED_ONLY.value,
    )
    p.add_argument("--export-observed", action="store_true")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("report", help="merge JSON outputs into one document")
    p.add_argument("--dir", type=str, required=True, help="directory of prior outputs")
    _common_flags(p, source=False, tables=False)
    p.set_defaults(fn=cmd_report, format="csv")  # no tables to fold; not a flag

    return ap


def _env_argv(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``argv`` with one ``--flag=value`` token for each ``LINKGRAPH_<FLAG>``
    set for a flag of the command ``argv[0]`` names, placed before the
    command line's own flags: argparse checks both alike, and an explicit
    flag, parsed later, wins. A switch's variable is a boolean word."""
    # argparse has no public list of a parser's subcommands or of their
    # flags, so its _actions are read here and nowhere else
    commands = next(a for a in parser._actions if a.dest == "command").choices
    if not argv or argv[0] not in commands:
        return argv
    tokens = []
    for action in commands[argv[0]]._actions:
        flag = action.option_strings[-1]  # a subcommand takes flags only
        key = ENV_PREFIX + flag.lstrip("-").replace("-", "_").upper()
        raw = os.environ.get(key)
        if raw is None or action.dest == "help":
            continue
        if action.nargs != 0:
            tokens.append(f"{flag}={raw}")
        elif raw.strip().lower() in _TRUE:
            tokens.append(flag)
        elif raw.strip().lower() not in _FALSE:
            raise _UsageError(f"environment variable {key}={raw!r} is not a boolean")
    return [argv[0], *tokens, *argv[1:]]


# -- helpers ----------------------------------------------------------------


def _load_graph(args):
    if args.cache is not None:
        graph = load_cache(Path(args.cache).read_bytes())
    else:
        graph, _ = build_from_edge_list(args.input)
    if graph.node_count == 0:  # one rule for every analysis command
        raise UndefinedStatisticError("the graph has no nodes")
    return graph


def _outdir(args) -> Path | None:
    if args.out is None:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# the switches that only add a table to the command's output
_TABLE_SWITCHES = ("classes", "per_node", "scatter", "export_subgraph", "export_observed")


def _out_ok(args) -> None:
    """A --out that names a file or lies under one fails before any work;
    the directory itself is made only when the command writes to it. A
    table switch with neither --out nor --format json fails too: its
    table would go nowhere."""
    if args.out is None:
        for dest in _TABLE_SWITCHES:
            if args.format == "csv" and getattr(args, dest, False):
                flag = "--" + dest.replace("_", "-")
                raise _UsageError(
                    f"{flag} writes a table: give --out DIR, or --format json to print it"
                )
        return
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists():
            if not path.is_dir():
                raise _UsageError(f"--out {out} is not a directory: {path} is a file")
            return


def _run(args) -> None:
    """Run the command and print its document. Each table goes out through
    ``put`` as soon as it is made: with --format json it is folded into
    the document's ``tables``, otherwise it is written under --out, or
    dropped when there is none. ``<command>.json`` is written last, so
    it marks a complete run."""
    tables = {}

    def put(name: str, table: str) -> None:
        data = table.encode("utf-8")
        log.info("%s: %d bytes", name, len(data))
        if args.format == "json":
            tables[name.rsplit(".", 1)[0]] = table.splitlines()
        elif args.out is not None:
            (_outdir(args) / name).write_bytes(data)

    doc = args.fn(args, put)
    if args.format == "json":
        doc = {**doc, "tables": tables}
    out = _outdir(args)
    text = export.json_text(doc)
    sys.stdout.write(text)
    if out is not None:
        (out / f"{args.command}.json").write_text(text, encoding="utf-8")


# -- commands ----------------------------------------------------------------


def cmd_ingest(args, put) -> dict:
    graph, report = build_from_edge_list(args.input)
    _outdir(args)  # made before the cache, which may live under it
    if args.cache:
        Path(args.cache).write_bytes(save_cache(graph))
        log.info("cache written to %s", args.cache)
    return {"ingest": report.to_dict()}


def cmd_bowtie(args, put) -> dict:
    graph = _load_graph(args)
    part = bowtie_decompose(graph)
    put("bowtie_summary.txt", export.partition_text(part))
    if args.classes:
        put("bowtie_classes.csv", export.partition_classes_csv(part, graph))
    return part.to_dict()


def _degree_block(put, name, hist, curve, summary, kmin) -> dict:
    """The summary entry of one degree sequence, after its histogram
    table goes out as ``name``; a tail that cannot be fitted is a
    ``fit_error`` note. The caller makes ``curve`` and ``summary``, so
    each command keeps its own call order."""
    if kmin is None:
        fit, note = value_or_note(select_fit_range, hist)
    else:
        fit, note = value_or_note(mle_powerlaw, hist, k_min=kmin)
    put(name, export.histogram_csv(hist, curve))
    return export.summary_dict(summary, fit, note)


def cmd_degrees(args, put) -> dict:
    graph = _load_graph(args)
    wanted = list(Direction) if args.direction == "all" else [Direction(args.direction)]
    doc = {}
    for direction in wanted:
        name = direction.value
        hist = degree_histogram(graph, direction)
        doc[name] = _degree_block(
            put, f"degrees_{name}.csv", hist, cumulative(hist), summarize(hist), args.kmin
        )
    return doc


def cmd_corr(args, put) -> dict:
    graph = _load_graph(args)
    ratio, note = value_or_note(crossed_one_point, graph)
    doc = {"crossed_one_point": {"value": ratio, "note": note}}
    profile, note = value_or_note(avg_out_given_in, graph)
    if note is None:
        put("corr_out_given_in.csv", export.profile_csv(profile))
    else:
        doc["out_given_in"] = {"note": note}
    profile, note = value_or_note(knn_undirected, graph)
    if note is None:
        put("corr_knn_undirected.csv", export.profile_csv(profile))
    else:
        doc["knn_undirected"] = {"note": note}
    norms = doc["normalizations"] = {}
    for variant in KnnVariant:
        profile, note = value_or_note(directed_knn, graph, variant)
        if note is None:
            put(f"corr_knn_{variant.value}.csv", export.profile_csv(profile))
            norms[variant.value] = profile.normalization
        else:
            norms[variant.value] = None
            doc.setdefault("profile_notes", {})[variant.value] = note
    return doc


def cmd_recip(args, put) -> dict:
    graph = _load_graph(args)
    d = decompose(graph)
    hist, summary = r_degree_stats(d)
    doc = {
        "q_r": _degree_block(
            put, "recip_qr_histogram.csv", hist, cumulative(hist), summary, args.kmin
        )
    }
    doc["ratios"] = export.ratios_dict(crossed_one_point_nr(d))
    doc["reciprocity_fraction"], note = value_or_note(d.reciprocity_fraction)
    if note is not None:
        doc["reciprocity_note"] = note
    for key, profile in conditional_means_nr(d).items():
        put(f"recip_{key}.csv", export.profile_csv(profile))
    sub = reciprocal_subgraph(d)
    for variant in ReciprocalKnnVariant:
        put(f"recip_knn_{variant.value}.csv", export.profile_csv(reciprocal_knn(d, variant)))
    profile, note = value_or_note(knn_undirected, sub)
    if note is None:
        put("recip_subgraph_knn.csv", export.profile_csv(profile))
    else:
        doc["subgraph_knn_note"] = note
    put("recip_clustering.csv", export.profile_csv(avg_clustering_by_degree(sub)))
    if args.per_node:
        put("recip_decomposition.csv", export.decomposition_csv(d, graph))
    if args.scatter:
        put("recip_scatter.csv", export.scatter_csv(reciprocal_scatter(d), sub))
    if args.export_subgraph:
        put("recip_subgraph_edges.txt", export.edge_list_text(sub, half=True))
    return doc


def _zeta_law(side: str, gamma: float, k_min: int | None, cutoff: int | None, n: int):
    """A given ``k_min`` is at most n - 1 and a given ``cutoff`` lies in
    [k_min, n - 1]: no node of a simple n-node graph has more neighbors.
    The defaults are k_min 1 and cutoff ``max(k_min, min(max(10, n // 10),
    n - 1))``, which is n - 1 for n <= 10 (and k_min 1 when n is 1)."""
    if k_min is None:
        k_min = 1
    elif k_min > n - 1:
        raise _UsageError(f"--kmin-{side} must be <= n - 1 = {n - 1}")
    if cutoff is None:
        cutoff = max(k_min, min(max(10, n // 10), n - 1))
    elif not k_min <= cutoff <= n - 1:
        rule = f"[--kmin-{side}, n - 1] = [{k_min}, {n - 1}]"
        raise _UsageError(f"--cutoff-{side} must lie in {rule}")
    return ZetaDegreeLaw(gamma, k_min, cutoff)


def _poisson_law(side: str, lam: float, n: int):
    top = max(n - 1, 0)  # no node of a simple n-node graph has more neighbors
    if not 0 <= lam <= top:
        raise _UsageError(f"--lambda-{side} must lie in [0, n - 1] = [0, {top}]")
    return PoissonDegreeLaw(lam)


def _resolve_laws(args):
    """The in and out degree laws. A side is zeta when its --gamma-* is
    given, or by default for the in side (gamma 2.1), and only a zeta side
    reads --kmin-* and --cutoff-*; the default out law is Poisson with the
    in law's mean."""
    flag, laws = vars(args), []
    for side in ("in", "out"):
        gamma, lam = flag[f"gamma_{side}"], flag[f"lambda_{side}"]
        k_min, cutoff = flag[f"kmin_{side}"], flag[f"cutoff_{side}"]
        if gamma is not None and lam is not None:
            raise _UsageError(f"give either --gamma-{side} or --lambda-{side}, not both")
        if gamma is None and lam is None and side == "in":
            gamma = 2.1
        if gamma is not None:
            laws.append(_zeta_law(side, gamma, k_min, cutoff, args.n))
        elif k_min is not None or cutoff is not None:
            name = "kmin" if k_min is not None else "cutoff"
            raise _UsageError(f"--{name}-{side} sets a power law; the {side} law is Poisson")
        elif lam is not None:
            laws.append(_poisson_law(side, lam, args.n))
        else:
            laws.append(PoissonDegreeLaw(law_mean(laws[0], max_degree=args.n - 1)))
    return laws


def cmd_simulate(args, put) -> dict:
    if args.seed_count > args.n:
        raise _UsageError(f"--seed-count must be <= --n = {args.n}")
    if args.budget is not None and args.budget < args.seed_count:
        raise _UsageError("--budget must be >= --seed-count")
    in_law, out_law = _resolve_laws(args)
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
    doc = {"replicas": []}
    for res in run_ensemble(gen_cfg, proto, args.replicas, args.seed, args.workers):
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
        put(f"bias_report_{res.index}.csv", export.bias_report_csv(res.bias))
        if args.export_observed:
            put(f"observed_{res.index}.txt", export.edge_list_text(res.outcome.observed))
        log.info("replica %d: fetched %d nodes", res.index, len(res.outcome.fetched))
        del res  # so the next replica is made without this one held
    return doc


def cmd_report(args, put) -> dict:
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
        log.info("merged %s", path.name)
    return merged


# -- entry point --------------------------------------------------------------


def _broken_pool() -> tuple:
    """The error of a replica pool whose worker died (killed for memory,
    say), once a pool has run: only ``run_ensemble`` loads its module."""
    process = sys.modules.get("concurrent.futures.process")
    return (process.BrokenProcessPool,) if process else ()


def _log_to_stderr(verbose: bool) -> None:
    """Send the package's log records to the current stderr, at INFO with
    --verbose and WARNING without, on every call: a later ``main()`` in
    the same process takes its own setting, and the root logger of a
    program that embeds the CLI is left alone."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.handlers[:] = [handler]
    log.setLevel(logging.INFO if verbose else logging.WARNING)
    log.propagate = False


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        parser = build_parser()
        args = parser.parse_args(_env_argv(parser, argv))
        _log_to_stderr(args.verbose)
        _out_ok(args)
        np.seterr(all="ignore")
        _run(args)
        return 0
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
        *_broken_pool(),
    ) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a size every check admits can still not fit
        reason = str(exc) or "allocation failed"
        print(f"computation error: out of memory: {reason}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
