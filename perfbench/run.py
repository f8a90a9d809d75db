"""Benchmark of the ``linkgraph`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout. Each command runs
in a fresh ``python3 -m linkgraph.cli`` process with ``src/`` on the
path, one after another: a closed loop with one client. A pass is the
workload's command sequence; a pass starts while at least half of it is
expected to fall within ``--seconds``. ``total_s`` is the mean pass time (the
reciprocal of passes per second over the measured window); the other
timings are medians over passes or set-up rounds. Every output is
checked against reference values computed from the generated inputs and
must be byte-identical across the passes of a run. An operation (one
command invocation) fails on a non-zero exit, a timeout or a failed
check.

With ``--trace 0`` the last line reports the end-to-end metrics of
BENCHMARK.json. With ``--trace 1`` untraced passes alternate with passes
run through ``launcher.py``, and the last line reports the per-layer
metrics. The lines before it give the context and readable tables.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import launcher  # noqa: E402
from proc import Child, Spawner, cli_argv  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_ROUNDS = 3
IMPORT_SAMPLES = 3
RUN_LIMIT_S = 150.0  # start no pass that could end after this
KILL_AT_S = 170.0  # children still running then are killed


@dataclass
class Command:
    name: str
    child: Child
    failures: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    marks: dict = field(default_factory=dict)  # launcher timestamps, traced only

    @property
    def wall_s(self) -> float:
        return self.child.wall_s

    def top_level_s(self) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["parent"] < 0)

    def phases(self) -> dict:
        """Split a traced command's wall time: interpreter start and exit,
        import of linkgraph.cli, top-level spans, and the rest (CLI code
        outside every span, plus installing the wrappers)."""
        m = self.marks
        interpreter = (m["started"] - self.child.start) + (self.child.end - m["returned"])
        imported = m["imported"] - m["started"]
        top = self.top_level_s()
        return {
            "interpreter": interpreter,
            "import": imported,
            "top": top,
            "glue": self.wall_s - interpreter - imported - top,
        }


def digest_tree(path: Path) -> dict[str, str]:
    return {
        str(p.relative_to(path)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.rglob("*"))
        if p.is_file() and p.suffix != ".stderr"
    }


def run_pass(wl, state, work: Path, index: int, traced: bool, digests: dict,
             spawner: Spawner) -> list[Command]:
    """One pass of the workload's commands; checks every output. Only the
    first pass's files are kept, for the per-layer counts."""
    out = work / f"pass{index}"
    out.mkdir()
    results = []
    for cid, (name, args) in enumerate(wl.commands(state, out)):
        stem = out / name
        stem.mkdir(exist_ok=True)
        spans_path = out / f"{name}.spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "launcher.py"), str(spans_path), str(cid), *args]
        else:
            argv = cli_argv(args)
        cmd = Command(name, spawner.run(argv, work, stem / name))
        if cmd.child.code != 0:
            err = Path(f"{stem / name}.stderr").read_text(errors="replace").strip()
            cmd.failures.append(f"exit code {cmd.child.code}: {err[-400:]}")
        else:
            try:
                cmd.failures += wl.check(state, name, stem)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                cmd.failures.append(f"check raised {exc!r}")
        digest = digest_tree(stem)
        if digests.setdefault(name, digest) != digest:
            cmd.failures.append("outputs differ from the first pass of this run")
        if traced and spans_path.exists():
            record = json.loads(spans_path.read_text())
            cmd.spans, cmd.marks = record["spans"], record["marks"]
            state.missing.update(record["missing"])
        results.append(cmd)
    if index > 0:
        shutil.rmtree(out)
    return results


def median(values):
    return statistics.median(values) if values else 0.0


# -- per-layer metrics ------------------------------------------------------------


def span_table(commands: list[Command]) -> dict[str, dict]:
    """Per span name: inclusive seconds, self seconds, calls, raised
    calls, bytes returned and any counts, summed over the commands."""
    table: dict[str, dict] = {}
    for cmd in commands:
        spans = cmd.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] >= 0:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, covered in zip(spans, child_time):
            row = table.setdefault(
                span["name"], {"s": 0.0, "self_s": 0.0, "calls": 0, "failed": 0, "bytes": 0}
            )
            duration = span["end"] - span["start"]
            row["s"] += duration
            row["self_s"] += duration - covered
            row["calls"] += 1
            row["failed"] += int(span["failed"])
            row["bytes"] += span["bytes"]
            if span["name"] in launcher.COUNTS:
                key = launcher.COUNTS[span["name"]][0]
                row[key] = row.get(key, 0) + span[key]
    return table


def pass_layers(commands: list[Command]) -> dict:
    values = {
        f"{name}.{key}": value
        for name, row in span_table(commands).items()
        for key, value in row.items()
    }
    phases = [(c.wall_s, c.phases()) for c in commands if c.marks]
    values["cli.interpreter_s"] = sum(p["interpreter"] for _, p in phases)
    values["cli.glue_s"] = sum(p["glue"] for _, p in phases)
    values["trace.coverage_min"] = min((1.0 - p["glue"] / w for w, p in phases), default=0.0)
    values["trace.traced_total_s"] = sum(c.wall_s for c in commands)
    return values


def layer_metrics(wl, state, work: Path, plain, traced, spawner: Spawner) -> dict:
    """Per-layer values: medians over the traced passes, plus the
    out-of-band measurements and the workload's output counts."""
    per_pass = [pass_layers(commands) for commands in traced]
    names = set().union(*per_pass)
    metrics = {n: median([p.get(n, 0.0) for p in per_pass]) for n in names}
    metrics["trace.overhead_s"] = metrics.pop("trace.traced_total_s") - median(
        [sum(c.wall_s for c in p) for p in plain]
    )
    for name in dict.fromkeys(c.name for c in plain[0]):
        metrics[f"cmd.{name}_s"] = median([c.wall_s for p in plain for c in p if c.name == name])
    metrics["cli.import_s"] = median(
        [import_time(work, i, spawner) for i in range(IMPORT_SAMPLES)]
    )
    try:
        metrics.update(wl.layer_counts(state, work / "pass0"))
        metrics.update(oob_scc(work, *wl.scc_graph(state, work / "pass0"), spawner))
    except (OSError, ValueError, KeyError) as exc:
        print(f"per-layer counts unavailable: {exc!r}", file=sys.stderr)
    metrics["trace.missing_targets"] = len(state.missing)
    return metrics


def import_time(work: Path, index: int, spawner: Spawner) -> float:
    """Wall time of a fresh interpreter that imports linkgraph.cli."""
    argv = [sys.executable, "-c", "import linkgraph.cli"]
    child = spawner.run(argv, work, work / f"import{index}")
    if child.code != 0:
        print(f"import linkgraph.cli exited with {child.code}", file=sys.stderr)
        return 0.0
    return child.wall_s


def oob_scc(work: Path, kind: str, path: Path, spawner: Spawner) -> dict:
    """One extra strongly_connected_components call on the workload's
    graph, outside any command."""
    argv = [sys.executable, str(HERE / "launcher.py"), "--scc", kind, str(path)]
    child = spawner.run(argv, work, work / "scc")
    if child.code != 0:
        print(f"out-of-band SCC call failed with exit code {child.code}", file=sys.stderr)
        return {}
    doc = json.loads(Path(f"{work / 'scc'}.stdout").read_text())
    return {
        "components.strongly_connected_components.s": doc["s"],
        "components.scc_count": doc["count"],
        "components.largest_scc": doc["largest"],
    }


# -- context ------------------------------------------------------------------------


def context(wl_name: str, seed: int, sizes: dict) -> dict:
    llc = "unknown"
    levels = list(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/level"))
    if levels:
        top = max(levels, key=lambda p: int(p.read_text()))
        llc = (top.parent / "size").read_text().strip()
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "workload": wl_name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "llc": llc,
        "python": sys.version.split()[0],
        **versions,
        "input": sizes,
        "src_lines": {
            p.name: len(p.read_text().splitlines())
            for p in sorted((SRC / "linkgraph").glob("*.py"))
        },
    }


# -- main -----------------------------------------------------------------------------


def measure(wl, state, work: Path, seconds: float, trace: bool, started: float,
            spawner: Spawner):
    """Start passes (untraced, or untraced then traced) while at least
    half of the next one, taking the median time of those before it,
    would fall within ``seconds``, so that the measured window lasts
    ``seconds`` on average. At least one pass runs, and none starts that
    could end after RUN_LIMIT_S."""
    plain: list[list[Command]] = []
    traced: list[list[Command]] = []
    digests: dict = {}
    begin = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        # traced and untraced passes take turns going first
        order = ((False, True) if len(plain) % 2 == 0 else (True, False)) if trace else (False,)
        for tracing in order:
            index = len(plain) + len(traced)
            (traced if tracing else plain).append(
                run_pass(wl, state, work, index, tracing, digests, spawner)
            )
        now = time.perf_counter()
        durations.append(now - t0)
        if (now - begin + median(durations) / 2 > seconds
                or now - started + max(durations) > RUN_LIMIT_S):
            return plain, traced


def report(setup_times, plain, traced, values, wanted) -> dict:
    print(f"setup rounds: {len(setup_times)}, passes: {len(plain)}, traced passes: {len(traced)}")
    print("  pass totals: " + " ".join(f"{sum(c.wall_s for c in p):.3f}" for p in plain))
    for name in dict.fromkeys(c.name for c in plain[0]):
        walls = [c.wall_s for p in plain for c in p if c.name == name]
        print(f"  {name:10s} median {median(walls):8.3f} s  min {min(walls):8.3f}  "
              f"max {max(walls):8.3f}  n={len(walls)}")
    if traced:
        for cmd in traced[-1]:
            if cmd.marks:
                ph = cmd.phases()
                print(f"  traced {cmd.name:10s} wall {cmd.wall_s:7.3f} s = interpreter "
                      f"{ph['interpreter']:.3f} + import {ph['import']:.3f} + spans "
                      f"{ph['top']:.3f} + glue {ph['glue']:.3f}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
    return metrics


def run_workload(args, wl, spec: dict, work: Path, started: float, spawner: Spawner) -> dict:
    """Set up, measure and check one workload; return the result object."""
    setup_times = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        state = wl.setup(work, args.seed, spawner)
        code = spawner.run(cli_argv(["--help"]), work, work / "warmup").code
        if code != 0:
            state.setup_failures.append(f"linkgraph.cli --help exited with {code}")
        setup_times.append(time.perf_counter() - t0)
    print("context: " + json.dumps(context(args.workload, args.seed, state.sizes)))

    plain, traced = measure(wl, state, work, args.seconds, bool(args.trace), started, spawner)
    commands = [c for p in plain + traced for c in p]
    for failure in state.setup_failures:
        print(f"FAILED setup: {failure}", file=sys.stderr)
    for cmd in commands:
        for failure in cmd.failures:
            print(f"FAILED {cmd.name}: {failure}", file=sys.stderr)
    failed = sum(1 for c in commands if c.failures) + len(state.setup_failures)

    if args.trace:
        values = layer_metrics(wl, state, work, plain, traced, spawner)
        wanted = spec["per_layer"]
        for name in sorted(state.missing):
            print(f"missing trace target: {name}", file=sys.stderr)
    else:
        values = {
            "setup_s": median(setup_times),
            "total_s": statistics.fmean([sum(c.wall_s for c in p) for p in plain]),
            "peak_rss_mb": median([max(c.child.max_rss_kb for c in p) for p in plain]) / 1024,
        }
        wanted = spec["end_to_end"]
    return {
        "correct": failed == 0,
        "attempted": len(commands),
        "failed": failed,
        "metrics": report(setup_times, plain, traced, values, wanted),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    started = time.perf_counter()

    if not (SRC / "linkgraph" / "cli.py").is_file():
        print(f"no linkgraph sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with Spawner(started + KILL_AT_S) as spawner:
            result = run_workload(args, wl, spec, work, started, spawner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
