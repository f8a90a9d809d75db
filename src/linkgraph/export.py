"""Serialization of results to CSV and JSON documents.

All writers are deterministic: keys are sorted, floats use shortest
round-trip repr, and nothing emits wall-clock values, so re-running a
command on the same input produces byte-identical files.
"""
from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .components import _CLASS_ORDER, BowTiePartition
from .correlations import CorrelationProfile
from .crawl_sim import BiasReport
from .degree_stats import CumulativeCurve, DegreeHistogram, DegreeSummary, PowerLawFit
from .graph import DirectedGraph, UndirectedGraph
from .reciprocity import RatioStat, ReciprocalDecomposition


def _fmt(x) -> str:
    """A scalar's CSV cell: None is blank, anything else ``str``."""
    return "" if x is None else str(x)


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


_BLOCK = 1 << 12  # rows per block: all of a block's cells are alive at once


def _table(head: list[str], *columns, sep: str = ",") -> str:
    """``head`` lines, then one ``sep``-joined row per position of the
    columns; no rows and no head give the empty string. A column is a
    numpy array or a short list of ready strings, and each cell is
    ``str`` of its value: a float's shortest round-trip repr, ``nan`` for
    NaN. Rows are built and joined one block at a time, so the table is
    never held as one string per row."""
    parts = [f"{line}\n" for line in head]
    for start in range(0, len(columns[0]), _BLOCK):
        blocks = [c[start : start + _BLOCK] for c in columns]
        cells = [map(str, b.tolist() if isinstance(b, np.ndarray) else b) for b in blocks]
        parts.append("\n".join(map(sep.join, zip(*cells))) + "\n")
    return "".join(parts)


def _node_ids(g: DirectedGraph | UndirectedGraph, dense: np.ndarray) -> np.ndarray:
    """The input ids of dense node ids: every per-node table prints these."""
    return dense if g.original_ids is None else g.original_ids[dense]


def histogram_csv(h: DegreeHistogram, curve: CumulativeCurve) -> str:
    """`degree,count,p,pc` rows over the observed degrees."""
    head = f"# direction={h.direction.value} total_nodes={h.total_nodes}"
    cols = h.degrees, h.counts, h.probabilities, curve.pc
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
    norm = [""] * len(p.degrees) if p.mean_normalized is None else p.mean_normalized
    return _table(head, p.degrees, p.mean_raw, norm, p.n_k, p.stderr)


def partition_text(part: BowTiePartition) -> str:
    """Human-facing two-decimal percentage lines."""
    pcts = [f"{key}: {pct:.2f}" for key, pct in part.to_dict().items()]
    return _table([f"nodes: {part.node_count}"], pcts)


def partition_classes_csv(part: BowTiePartition, g: DirectedGraph) -> str:
    names = np.array([c.value for c in _CLASS_ORDER], dtype=object)[part.class_of]
    return _table(["node,class"], _node_ids(g, np.arange(part.node_count)), names)


def decomposition_csv(d: ReciprocalDecomposition, g: DirectedGraph) -> str:
    """`node,q_in,q_out,q_r` per node."""
    ids = _node_ids(g, np.arange(d.node_count))
    return _table(["node,q_in,q_out,q_r"], ids, d.q_in, d.q_out, d.q_r)


def ratios_dict(ratios: dict[str, RatioStat]) -> dict:
    return {name: asdict(r) for name, r in ratios.items()}


def scatter_csv(rows: np.ndarray, g: DirectedGraph | UndirectedGraph) -> str:
    """`node,q_r,mean_neighbor_q_r,clustering` per row of
    :func:`reciprocal_scatter`; clustering is blank where undefined."""
    ids = _node_ids(g, rows[:, 0].astype(np.int64))
    clustering = rows[:, 3].astype(object)
    clustering[np.isnan(rows[:, 3])] = ""
    cols = rows[:, 1].astype(np.int64), rows[:, 2], clustering
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
