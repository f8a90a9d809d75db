"""Degree distributions, exact moments, and discrete power-law fits.

Histograms are stored sparsely (distinct degree values with counts), so
heavy-tailed samples with huge maxima stay cheap. Moments use exact
integer sums; the tail exponent is fit by maximum likelihood on the
truncated discrete zeta model with a bisection search on the score
function, following the standard discrete-MLE recipe, and goodness is
summarized by a Kolmogorov-Smirnov distance against the fitted model.
The bisection runs on arrays, so the scan over lower cutoffs in
``select_fit_range`` is one solve for all of them.
"""
from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import (
    FitConvergenceError,
    PowerLawFitError,
    UndefinedStatisticError,
)
from .graph import DirectedGraph, exact_product_sum

# Fixed plausibility threshold for the KS goodness flag.
KS_PLAUSIBLE_THRESHOLD = 0.05

_GAMMA_LO = 1.0 + 1e-4
_GAMMA_HI = 50.0
_GAMMA_XTOL = 1e-6
_GAMMA_RTOL = 4 * np.finfo(float).eps  # scipy.optimize.bisect's default
_DIFF_STEP = 1e-5
_CURV_STEP = 1e-4

# Lower cutoffs select_fit_range tries: each leaves at least _MIN_TAIL
# nodes and _MIN_DISTINCT distinct degrees above it.
_MIN_TAIL = 50
_MIN_DISTINCT = 10
_MAX_CANDIDATES = 120


class Direction(enum.Enum):
    IN = "in"
    OUT = "out"
    UNDIRECTED = "undirected"
    RECIPROCAL = "reciprocal"


@dataclass(frozen=True)
class DegreeHistogram:
    """Sparse exact histogram: distinct degrees (ascending) and counts.

    Degree-zero nodes are included; probabilities sum to 1 over the
    node population.
    """

    direction: Direction
    degrees: np.ndarray
    counts: np.ndarray
    total_nodes: int

    @classmethod
    def from_values(cls, values: np.ndarray, direction: Direction) -> "DegreeHistogram":
        values = np.asarray(values, dtype=np.int64)
        degs, counts = np.unique(values, return_counts=True)
        return cls(direction, degs, counts.astype(np.int64), int(len(values)))

    @classmethod
    def from_mapping(cls, mapping: dict, direction: Direction) -> "DegreeHistogram":
        degs = np.array(sorted(mapping), dtype=np.int64)
        counts = np.array([mapping[int(d)] for d in degs], dtype=np.int64)
        return cls(direction, degs, counts, int(counts.sum()))

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / self.total_nodes

    @property
    def max_degree(self) -> int:
        return int(self.degrees[-1]) if len(self.degrees) else 0

    def count_at(self, degree: int) -> int:
        i = np.searchsorted(self.degrees, degree)
        if i < len(self.degrees) and self.degrees[i] == degree:
            return int(self.counts[i])
        return 0


@dataclass(frozen=True)
class CumulativeCurve:
    """Upper-cumulative distribution P_c(k) = P(degree >= k).

    ``suffix_counts[i]`` is the exact integer number of nodes with
    degree >= degrees[i]; differencing suffix counts reproduces the
    histogram counts exactly, which keeps the histogram/cumulative
    duality free of rounding.
    """

    degrees: np.ndarray
    suffix_counts: np.ndarray
    total_nodes: int

    @property
    def pc(self) -> np.ndarray:
        return self.suffix_counts / self.total_nodes

    def at(self, degree) -> np.ndarray:
        """P_c evaluated at arbitrary integer degree(s)."""
        k = np.asarray(degree)
        idx = np.searchsorted(self.degrees, k, side="left")
        ext = np.concatenate([self.suffix_counts, [0]])
        out = ext[idx] / self.total_nodes
        return float(out) if np.isscalar(degree) else out


def degree_histogram(g: DirectedGraph, direction: Direction) -> DegreeHistogram:
    """Histogram of in-, out-, undirected, or reciprocal degrees. The
    undirected degree is k_in + k_out - q_r: a mutual pair is one
    neighbor."""
    if direction is Direction.IN:
        return DegreeHistogram.from_values(g.in_degrees, direction)
    if direction is Direction.OUT:
        return DegreeHistogram.from_values(g.out_degrees, direction)
    if direction not in (Direction.UNDIRECTED, Direction.RECIPROCAL):
        raise ValueError(f"unknown direction {direction!r}")
    from .reciprocity import decompose  # local import avoids a module cycle

    q_r = decompose(g).q_r
    if direction is Direction.UNDIRECTED:
        return DegreeHistogram.from_values(g.in_degrees + g.out_degrees - q_r, direction)
    return DegreeHistogram.from_values(q_r, direction)


def cumulative(h: DegreeHistogram) -> CumulativeCurve:
    if h.total_nodes == 0:
        raise UndefinedStatisticError("cumulative curve of an empty histogram")
    suffix = np.cumsum(h.counts[::-1])[::-1]
    return CumulativeCurve(h.degrees.copy(), suffix, h.total_nodes)


@dataclass(frozen=True)
class DegreeSummary:
    """First moments plus the heterogeneity ratio.

    ``kappa`` is <k^2>/<k>; it is ``None`` (with ``note`` set) when the
    degree sequence is all-zero, where the ratio has no value.
    """

    mean: float
    max_degree: int
    std: float
    kappa: float | None
    total_nodes: int
    note: str | None = None


def summarize(h: DegreeHistogram) -> DegreeSummary:
    if h.total_nodes == 0:
        raise UndefinedStatisticError("summary of an empty histogram")
    n = h.total_nodes
    s1 = exact_product_sum(h.degrees, h.counts)
    s2 = exact_product_sum(h.degrees, h.degrees, h.counts)
    mean = s1 / n
    var = s2 / n - mean * mean
    std = math.sqrt(max(var, 0.0))
    if s1 == 0:
        return DegreeSummary(
            mean, h.max_degree, std, None, n, note="all degrees zero; kappa undefined"
        )
    kappa = s2 / s1
    return DegreeSummary(mean, h.max_degree, std, kappa, n)


def crossed_heterogeneity(g: DirectedGraph) -> float:
    """Mixed second-moment ratio sum(k_in*k_out) / sum(k_in) across nodes."""
    kin = np.asarray(g.in_degrees, dtype=np.int64)
    kout = np.asarray(g.out_degrees, dtype=np.int64)
    denom = int(kin.sum())
    if denom == 0:
        raise UndefinedStatisticError("crossed heterogeneity of an edgeless graph")
    return exact_product_sum(kin, kout) / denom


# -- truncated discrete power-law model --------------------------------


def _hurwitz_zeta(s, q):
    """sum_{k>=0} (k+q)^-s; scipy.special loads on the first call."""
    from scipy.special import zeta

    return zeta(s, q)


def _zeta_range(gamma, lo, hi: int | None):
    """sum_{k=lo..hi} k^-gamma; hi=None means an unbounded tail."""
    if hi is None:
        return _hurwitz_zeta(gamma, lo)
    return _hurwitz_zeta(gamma, lo) - _hurwitz_zeta(gamma, hi + 1)


@dataclass(frozen=True)
class PowerLawFit:
    """Result of a truncated discrete power-law fit.

    ``gamma`` maximizes the truncated zeta likelihood on degrees in
    [k_min, k_max_fit]; ``stderr`` comes from the observed Fisher
    information; ``ks`` is the KS distance between the empirical and
    fitted tail CDFs and drives the fixed-threshold plausibility flag.
    """

    gamma: float
    stderr: float
    k_min: int
    k_max_fit: int | None
    n_tail: int
    ks: float
    powerlaw_plausible: bool

    def to_dict(self) -> dict:
        return asdict(self)


def mle_powerlaw(
    h: DegreeHistogram, k_min: int = 1, k_max_fit: int | None = None
) -> PowerLawFit:
    """Maximum-likelihood exponent of the truncated discrete zeta model.

    Degree zero never participates; the histogram is restricted to
    [k_min, k_max_fit] (unbounded above when k_max_fit is None). The
    score function is solved by bisection to high precision and the
    standard error uses the observed Fisher information at the optimum.
    """
    if k_min < 1:
        raise PowerLawFitError("k_min must be >= 1")
    if k_max_fit is not None and k_max_fit < k_min:
        raise PowerLawFitError("empty fit range: k_max_fit < k_min")
    (fit,) = _fit_tails(h, [k_min], k_max_fit)
    if isinstance(fit, PowerLawFitError):
        raise fit
    return fit


def _fit_tails(
    h: DegreeHistogram, k_mins: list, k_max_fit: int | None
) -> list[PowerLawFit | PowerLawFitError]:
    """Fit the model at every lower cutoff in ``k_mins`` in one array solve.

    Entry i is the fit at ``k_mins[i]``, or the error that fit raises.
    The bisection takes the steps of ``scipy.optimize.bisect`` on arrays,
    so every entry equals a one-cutoff solve bit for bit.
    """
    end = len(h.degrees)
    if k_max_fit is not None:
        end = np.searchsorted(h.degrees, k_max_fit, side="right")
    starts = np.searchsorted(h.degrees, k_mins)
    # n_tail, sum_log and the KS cumsum are taken on each cutoff's own
    # slice: a zero-padded matrix product would change the last bits
    degs_of = [h.degrees[s:end].astype(np.float64) for s in starts]
    counts_of = [h.counts[s:end].astype(np.float64) for s in starts]
    n_tail = np.array([c.sum() for c in counts_of])
    sum_log = np.array([np.dot(c, np.log(d)) for d, c in zip(degs_of, counts_of)])
    lo = np.array(k_mins, dtype=np.float64)
    results: list = [None] * len(k_mins)
    alive = np.ones(len(k_mins), dtype=bool)

    def fail(mask, error):  # error: an exception, or j -> exception
        for j in np.flatnonzero(mask & alive):
            results[j] = error(j) if callable(error) else error
        alive[mask] = False

    def log_norm(gamma, live):
        z = _zeta_range(gamma, lo, k_max_fit)
        fail(live & ~(np.isfinite(z) & (z > 0)), lambda j: FitConvergenceError(
            f"degenerate normalization at gamma={float(gamma[j])}"
        ))
        return np.log(z)

    def score(gamma, live):
        up = log_norm(gamma + _DIFF_STEP, live)
        dlog_z = (up - log_norm(gamma - _DIFF_STEP, live)) / (2 * _DIFF_STEP)
        return -sum_log - n_tail * dlog_z

    fail(n_tail == 0, PowerLawFitError("no observations in the fit range"))
    fail(end - starts < 2, PowerLawFitError(
        "degenerate support: need at least two distinct degrees in range"
    ))
    with np.errstate(all="ignore"):  # failed cutoffs carry on as garbage
        s_lo = score(np.full(len(lo), _GAMMA_LO), alive)
        s_hi = score(np.full(len(lo), _GAMMA_HI), alive)
        fail(s_lo <= 0, PowerLawFitError(
            "tail heavier than exponent 1; no interior likelihood maximum"
        ))
        fail(s_hi >= 0, FitConvergenceError(
            f"score does not change sign below gamma={_GAMMA_HI}"
        ))

        xa = np.full(len(lo), _GAMMA_LO)
        gamma = np.full(len(lo), np.nan)
        dm = _GAMMA_HI - _GAMMA_LO
        running = alive.copy()
        while running.any():
            dm *= 0.5
            xm = xa + dm
            fm = score(xm, running)
            running &= alive
            xa = np.where(fm * s_lo >= 0, xm, xa)
            done = (fm == 0) | (abs(dm) < _GAMMA_XTOL + _GAMMA_RTOL * np.abs(xm))
            done &= running
            gamma[done] = xm[done]
            running &= ~done

        # observed Fisher information: n * d^2/dgamma^2 log Z
        up = log_norm(gamma + _CURV_STEP, alive)
        mid = log_norm(gamma, alive)
        down = log_norm(gamma - _CURV_STEP, alive)
        d2 = (up - 2 * mid + down) / (_CURV_STEP * _CURV_STEP)
        fail(d2 <= 0, FitConvergenceError(
            "non-positive curvature at the fitted exponent"
        ))
        stderr = 1.0 / np.sqrt(n_tail * d2)

    for j in np.flatnonzero(alive):
        g, n = float(gamma[j]), int(n_tail[j])
        ks = _ks_distance(degs_of[j], counts_of[j], n, g, k_mins[j], k_max_fit)
        results[j] = PowerLawFit(
            gamma=g,
            stderr=float(stderr[j]),
            k_min=int(k_mins[j]),
            k_max_fit=None if k_max_fit is None else int(k_max_fit),
            n_tail=n,
            ks=ks,
            powerlaw_plausible=bool(ks <= KS_PLAUSIBLE_THRESHOLD),
        )
    return results


def _ks_distance(
    degs: np.ndarray,
    counts: np.ndarray,
    n_tail: int,
    gamma: float,
    k_min: int,
    k_max_fit: int | None,
) -> float:
    z_total = _zeta_range(gamma, k_min, k_max_fit)
    # model CDF at each observed degree k: P(K <= k)
    upper = _hurwitz_zeta(gamma, degs + 1.0)
    if k_max_fit is not None:
        upper = upper - _hurwitz_zeta(gamma, k_max_fit + 1.0)
        upper = np.maximum(upper, 0.0)
    model_cdf = 1.0 - upper / z_total
    emp_cdf = np.cumsum(counts) / n_tail
    return float(np.max(np.abs(emp_cdf - model_cdf)))


def select_fit_range(h: DegreeHistogram) -> PowerLawFit:
    """The tail fit whose lower cutoff has the smallest KS distance.

    Candidate ``k_min`` values are the distinct positive degrees that
    leave enough distinct values and tail mass above them, evenly
    thinned to at most ``_MAX_CANDIDATES``. Every candidate is fit
    unbounded above in one solve; the fit with the smallest KS distance
    wins (smallest k_min on ties) and is returned as scored, so its
    ``k_min`` and ``k_max_fit=None`` are the window its KS was taken on.
    """
    positive = h.degrees[h.degrees >= 1]
    if len(positive) < 2:
        raise PowerLawFitError("need at least two distinct positive degrees")

    counts_pos = h.counts[h.degrees >= 1]
    tail_from = np.cumsum(counts_pos[::-1])[::-1]
    distinct_from = np.arange(len(positive), 0, -1)
    ok = (tail_from >= _MIN_TAIL) & (distinct_from >= _MIN_DISTINCT)
    candidates = positive[ok]
    if len(candidates) == 0:
        # fall back to whatever lower cutoffs keep two distinct values
        candidates = positive[distinct_from >= 2]
    if len(candidates) == 0:
        raise PowerLawFitError("no viable lower cutoff for fitting")
    if len(candidates) > _MAX_CANDIDATES:
        # more candidates than slots: the evenly spaced indices are distinct
        idx = np.linspace(0, len(candidates) - 1, _MAX_CANDIDATES).astype(np.int64)
        candidates = candidates[idx]

    best = None
    for fit in _fit_tails(h, candidates.tolist(), None):
        if isinstance(fit, PowerLawFit) and (best is None or fit.ks < best.ks - 1e-15):
            best = fit
    if best is None:
        raise PowerLawFitError("no candidate cutoff produced a valid fit")
    return best


# -- sampling from the discrete model -----------------------------------

_TABLE_SPAN = 1_000_000
_INT64_MAX = 2**63 - 1


def sample_zeta(
    gamma: float,
    size: int,
    rng: np.random.Generator,
    k_min: int = 1,
    cutoff: int | None = None,
) -> np.ndarray:
    """Draw integers from the (possibly truncated) discrete zeta law.

    Inverse-CDF sampling against an exact probability table; for an
    unbounded tail, the rare draws beyond the table are resolved
    exactly with a doubling-then-bisection search on the survival
    function.
    """
    if gamma <= 1.0:
        raise ValueError("zeta law requires gamma > 1")
    if k_min < 1:
        raise ValueError("k_min must be >= 1")
    if cutoff is not None:
        if cutoff < k_min:
            raise ValueError("cutoff below k_min")
        ks = np.arange(k_min, cutoff + 1, dtype=np.float64)
        weights = ks**-gamma
        cum = np.cumsum(weights)
        cum /= cum[-1]
        u = rng.random(size)
        return k_min + np.searchsorted(cum, u, side="right").astype(np.int64)

    z_total = _hurwitz_zeta(gamma, k_min)
    span = _TABLE_SPAN
    ks = np.arange(k_min, k_min + span, dtype=np.float64)
    cum = np.cumsum(ks**-gamma) / z_total
    body_top = cum[-1]
    u = rng.random(size)
    out = np.empty(size, dtype=np.int64)
    body = u < body_top
    out[body] = k_min + np.searchsorted(cum, u[body], side="right")
    tail_idx = np.flatnonzero(~body)
    for i in tail_idx.tolist():
        out[i] = _tail_quantile(gamma, k_min, z_total, u[i])
    return out


def _tail_quantile(gamma: float, k_min: int, z_total: float, u: float) -> int:
    """Smallest k with P(K >= k+1) <= 1-u, via doubling then bisection."""
    target = 1.0 - u

    def surv(k: int) -> float:  # P(K >= k)
        return _hurwitz_zeta(gamma, k) / z_total

    lo = k_min + _TABLE_SPAN
    if surv(lo) <= target:
        return lo - 1
    hi = lo * 2
    while surv(hi) > target:
        if hi >= _INT64_MAX:
            raise ValueError("zeta draw beyond the int64 range: pass a cutoff")
        lo, hi = hi, min(hi * 2, _INT64_MAX)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if surv(mid) > target:
            lo = mid
        else:
            hi = mid
    # surv(lo) > target >= surv(lo+1) -> value lo
    return lo
