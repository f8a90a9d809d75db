"""Serialization of results to CSV and JSON documents.

All writers are deterministic: keys are sorted, floats use shortest
round-trip repr, and nothing emits wall-clock values, so re-running a
command on the same input produces byte-identical files.
"""
from __future__ import annotations

import json
import math

import numpy as np

from .components import BowTiePartition
from .correlations import CorrelationProfile
from .crawl_sim import BiasReport
from .degree_stats import (
    CumulativeCurve,
    DegreeHistogram,
    DegreeSummary,
    PowerLawFit,
)
from .graph import DirectedGraph, UndirectedGraph
from .reciprocity import RatioStat, ReciprocalDecomposition


def _fmt(x) -> str:
    """Stable scalar formatting for CSV cells."""
    if x is None:
        return ""
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return repr(x)
    return str(x)


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


def histogram_csv(h: DegreeHistogram, curve: CumulativeCurve) -> str:
    """`degree,count,p,pc` rows over the observed degrees."""
    lines = [f"# direction={h.direction.value} total_nodes={h.total_nodes}"]
    lines.append("degree,count,p,pc")
    p = h.probabilities
    pc = curve.pc
    for i in range(len(h.degrees)):
        lines.append(
            f"{int(h.degrees[i])},{int(h.counts[i])},{_fmt(float(p[i]))},{_fmt(float(pc[i]))}"
        )
    return "\n".join(lines) + "\n"


def summary_dict(s: DegreeSummary, fit: PowerLawFit | None, fit_error: str | None):
    out = {
        "mean": s.mean,
        "max_degree": s.max_degree,
        "std": s.std,
        "kappa": s.kappa,
        "total_nodes": s.total_nodes,
        "note": s.note,
        "fit": fit.to_dict() if fit is not None else None,
        "fit_error": fit_error,
    }
    return out


def profile_csv(p: CorrelationProfile) -> str:
    """`k,mean_raw,mean_normalized,n_k,stderr` rows with `#` metadata."""
    head = [f"# x={p.x_kind} y={p.y_label}"]
    if p.normalization is not None:
        head.append(f"# normalization={_fmt(p.normalization)}")
    if p.note:
        head.append(f"# note: {p.note}")
    lines = head + ["k,mean_raw,mean_normalized,n_k,stderr"]
    norm = p.mean_normalized
    for i in range(len(p.degrees)):
        nval = None if norm is None else float(norm[i])
        lines.append(
            f"{int(p.degrees[i])},{_fmt(float(p.mean_raw[i]))},{_fmt(nval)},"
            f"{int(p.n_k[i])},{_fmt(float(p.stderr[i]))}"
        )
    return "\n".join(lines) + "\n"


def partition_text(part: BowTiePartition) -> str:
    """Human-facing two-decimal percentage lines."""
    d = part.to_dict()
    lines = [f"nodes: {part.node_count}"]
    for key in (
        "scc_pct",
        "in_pct",
        "out_pct",
        "tendril_pct",
        "tube_pct",
        "disconnected_pct",
        "main_pct",
    ):
        lines.append(f"{key}: {d[key]:.2f}")
    return "\n".join(lines) + "\n"


def partition_classes_csv(part: BowTiePartition, g: DirectedGraph) -> str:
    lines = ["node,class"]
    ids = (
        g.original_ids
        if g.original_ids is not None
        else np.arange(part.node_count, dtype=np.int64)
    )
    for v in range(part.node_count):
        lines.append(f"{int(ids[v])},{part.label_of(v).value}")
    return "\n".join(lines) + "\n"


def decomposition_csv(d: ReciprocalDecomposition, g: DirectedGraph) -> str:
    """`node,q_in,q_out,q_r` per node (original ids when present)."""
    ids = (
        g.original_ids
        if g.original_ids is not None
        else np.arange(d.node_count, dtype=np.int64)
    )
    lines = ["node,q_in,q_out,q_r"]
    for v in range(d.node_count):
        lines.append(
            f"{int(ids[v])},{int(d.q_in[v])},{int(d.q_out[v])},{int(d.q_r[v])}"
        )
    return "\n".join(lines) + "\n"


def ratios_dict(ratios: dict[str, RatioStat]) -> dict:
    return {
        name: {"value": r.value, "stderr": r.stderr, "note": r.note}
        for name, r in ratios.items()
    }


def scatter_csv(rows: np.ndarray) -> str:
    lines = ["node,q_r,mean_neighbor_q_r,clustering"]
    for node, qr, knn, c in rows.tolist():
        cell = "" if math.isnan(c) else _fmt(c)
        lines.append(f"{int(node)},{int(qr)},{_fmt(knn)},{cell}")
    return "\n".join(lines) + "\n"


def edge_list_text(g: DirectedGraph | UndirectedGraph) -> str:
    """Edge list in the ingestable text format (original ids when
    present). Undirected graphs emit each edge once as `u v` with
    u < v."""
    ids = g.original_ids
    out = []
    if isinstance(g, DirectedGraph):
        u = g.fwd_rows
        v = g.fwd_targets
        for i in range(len(v)):
            a, b = int(u[i]), int(v[i])
            if ids is not None:
                a, b = int(ids[a]), int(ids[b])
            out.append(f"{a} {b}")
    else:
        u = g.rows
        v = g.targets
        for i in range(len(v)):
            a, b = int(u[i]), int(v[i])
            if a >= b:
                continue
            if ids is not None:
                a, b = int(ids[a]), int(ids[b])
            out.append(f"{a} {b}")
    return "\n".join(out) + ("\n" if out else "")


def bias_report_csv(report: BiasReport) -> str:
    lines = ["name,true,observed,relative_deviation,note"]
    for e in report.entries:
        note = (e.note or "").replace(",", ";")
        lines.append(
            f"{e.name},{_fmt(e.true_value)},{_fmt(e.observed_value)},"
            f"{_fmt(e.relative_deviation)},{note}"
        )
    return "\n".join(lines) + "\n"
