"""Serialization of results to CSV and JSON documents.

All writers are deterministic: keys are sorted, floats use shortest
round-trip repr, and nothing emits wall-clock values, so re-running a
command on the same input produces byte-identical files.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict
from itertools import chain
from typing import Iterable

import numpy as np

from .components import _CLASS_ORDER, BowTiePartition
from .correlations import CorrelationProfile
from .crawl_sim import BiasReport
from .degree_stats import CumulativeCurve, DegreeHistogram, DegreeSummary, PowerLawFit
from .graph import DirectedGraph, UndirectedGraph
from .reciprocity import RatioStat, ReciprocalDecomposition


def _fmt(x) -> str:
    """Stable scalar formatting for CSV cells: None is blank, floats
    use repr (which reads ``nan`` for NaN)."""
    if x is None:
        return ""
    return repr(x) if isinstance(x, float) else str(x)


def json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        v = float(obj)
        return None if math.isnan(v) else v
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _table(head: list[str], *columns: Iterable[str], sep: str = ",") -> str:
    """``head`` lines, then one ``sep``-joined row per position of the
    string columns; no rows and no head give the empty string. Columns
    may be lazy, so that each cell is freed once its row is built."""
    lines = [*head, *map(sep.join, zip(*columns))]
    if lines:
        lines.append("")  # the final newline, without copying the text
    return "\n".join(lines)


_BLOCK = 1 << 16  # values per .tolist(), so no column is held as one whole list


def _cells(fmt, values: np.ndarray) -> Iterable[str]:
    blocks = (values[i : i + _BLOCK].tolist() for i in range(0, len(values), _BLOCK))
    return map(fmt, chain.from_iterable(blocks))


def _ints(values: np.ndarray) -> Iterable[str]:
    return _cells(str, np.asarray(values, dtype=np.int64))


def _floats(values: np.ndarray, nan: str = "nan") -> Iterable[str]:
    """Shortest round-trip repr of each value, and ``nan`` in NaN cells."""
    values = np.asarray(values, dtype=np.float64)
    cells = _cells(repr, values)  # repr(math.nan) is "nan"
    if nan != "nan":
        cells = np.where(np.isnan(values), nan, np.array(list(cells), dtype=object)).tolist()
    return cells


def _node_ids(g: DirectedGraph | UndirectedGraph, dense: np.ndarray) -> Iterable[str]:
    """The input ids of dense node ids: every per-node table prints these."""
    return _ints(dense if g.original_ids is None else g.original_ids[dense])


def histogram_csv(h: DegreeHistogram, curve: CumulativeCurve) -> str:
    """`degree,count,p,pc` rows over the observed degrees."""
    head = f"# direction={h.direction.value} total_nodes={h.total_nodes}"
    cols = _ints(h.degrees), _ints(h.counts), _floats(h.probabilities), _floats(curve.pc)
    return _table([head, "degree,count,p,pc"], *cols)


def summary_dict(s: DegreeSummary, fit: PowerLawFit | None, fit_error: str | None):
    return {**asdict(s), "fit": None if fit is None else asdict(fit), "fit_error": fit_error}


def profile_csv(p: CorrelationProfile) -> str:
    """`k,mean_raw,mean_normalized,n_k,stderr` rows with `#` metadata."""
    head = [f"# x={p.x_kind} y={p.y_label}"]
    if p.normalization is not None:
        head.append(f"# normalization={_fmt(p.normalization)}")
    if p.note:
        head.append(f"# note: {p.note}")
    head.append("k,mean_raw,mean_normalized,n_k,stderr")
    norm = [""] * len(p.degrees) if p.mean_normalized is None else _floats(p.mean_normalized)
    cols = _ints(p.degrees), _floats(p.mean_raw), norm, _ints(p.n_k), _floats(p.stderr)
    return _table(head, *cols)


def partition_text(part: BowTiePartition) -> str:
    """Human-facing two-decimal percentage lines."""
    pcts = [f"{key}: {pct:.2f}" for key, pct in part.to_dict().items()]
    return _table([f"nodes: {part.node_count}"], pcts)


def partition_classes_csv(part: BowTiePartition, g: DirectedGraph) -> str:
    names = _cells([c.value for c in _CLASS_ORDER].__getitem__, part.class_of)
    return _table(["node,class"], _node_ids(g, np.arange(part.node_count)), names)


def decomposition_csv(d: ReciprocalDecomposition, g: DirectedGraph) -> str:
    """`node,q_in,q_out,q_r` per node."""
    ids = _node_ids(g, np.arange(d.node_count))
    return _table(["node,q_in,q_out,q_r"], ids, _ints(d.q_in), _ints(d.q_out), _ints(d.q_r))


def ratios_dict(ratios: dict[str, RatioStat]) -> dict:
    return {name: asdict(r) for name, r in ratios.items()}


def scatter_csv(rows: np.ndarray, g: DirectedGraph | UndirectedGraph) -> str:
    """`node,q_r,mean_neighbor_q_r,clustering` per row of
    :func:`reciprocal_scatter`; clustering is blank where undefined."""
    ids = _node_ids(g, rows[:, 0].astype(np.int64))
    cols = _ints(rows[:, 1]), _floats(rows[:, 2]), _floats(rows[:, 3], nan="")
    return _table(["node,q_r,mean_neighbor_q_r,clustering"], ids, *cols)


def edge_list_text(g: DirectedGraph | UndirectedGraph) -> str:
    """Edge list in the ingestable text format. Undirected graphs emit
    each edge once as `u v` with u < v in dense ids."""
    if isinstance(g, DirectedGraph):
        u, v = g.fwd_rows, g.fwd_targets
    else:
        half = g.rows < g.targets
        u, v = g.rows[half], g.targets[half]
    return _table([], _node_ids(g, u), _node_ids(g, v), sep=" ")


def bias_report_csv(report: BiasReport) -> str:
    entries = report.entries
    return _table(
        ["name,true,observed,relative_deviation,note"],
        [e.name for e in entries],
        [_fmt(e.true_value) for e in entries],
        [_fmt(e.observed_value) for e in entries],
        [_fmt(e.relative_deviation) for e in entries],
        [(e.note or "").replace(",", ";") for e in entries],
    )
