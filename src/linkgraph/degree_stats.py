"""Degree distributions, exact moments, and discrete power-law fits.

Histograms are stored sparsely (distinct degree values with counts), so
heavy-tailed samples with huge maxima stay cheap. Moments use exact
integer sums; the tail exponent is fit by maximum likelihood on the
truncated discrete zeta model with a bisection search on the score
function, following the standard discrete-MLE recipe, and goodness is
summarized by a Kolmogorov-Smirnov distance against the fitted model.
The bisection runs on arrays, so the scan over lower cutoffs in
``select_fit_range`` is one solve for all of them. The Hurwitz zeta of
the normalization is a numpy port of the cephes routine that scipy
runs, called once per bisection step for every cutoff and both sides
of the score's difference quotient, so no process loads scipy's
special functions.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

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

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / self.total_nodes

    @property
    def max_degree(self) -> int:
        return int(self.degrees[-1]) if len(self.degrees) else 0


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


def degree_histogram(g: DirectedGraph, direction: Direction) -> DegreeHistogram:
    """Histogram of in-, out-, undirected, or reciprocal degrees. The
    undirected degree is k_in + k_out - q_r: a mutual pair is one
    neighbor."""
    if direction is Direction.IN:
        return DegreeHistogram.from_values(g.in_degrees, direction)
    if direction is Direction.OUT:
        return DegreeHistogram.from_values(g.out_degrees, direction)
    if direction is Direction.UNDIRECTED:
        return DegreeHistogram.from_values(g.undirected_degrees, direction)
    if direction is Direction.RECIPROCAL:
        return DegreeHistogram.from_values(g.mutual_degrees, direction)
    raise ValueError(f"unknown direction {direction!r}")


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


# -- truncated discrete power-law model --------------------------------


# Euler-Maclaurin correction denominators (2j)!/B_2j, as in cephes zeta.c
_ZETA_A = np.array([
    12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
    -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
    1.1646782814350067249e14, -4.5979787224074726105e15,
    1.8152105401943546773e17, -7.1661652561756670113e18,
])
_MACHEP = 2.0**-53
# addends that may end the sum: the direct terms after the first, and
# the corrections, but not the two pieces of the integral remainder
_ZETA_CAN_STOP = np.ones(24, dtype=bool)
_ZETA_CAN_STOP[[0, 10, 11]] = False
_ZETA_ASYMPTOTIC_Q = 1e8
# elements per term block: each holds about 100 float64 temporaries, so
# a block peaks near 0.8 MiB; larger blocks were no faster
_ZETA_BLOCK = 1 << 10


def _hurwitz_zeta(x, q):
    """sum_{k>=0} (k+q)^-x, element-wise over broadcast x and q >= 1.

    A numpy port of cephes' ``zeta(x, q)``, the algorithm behind scipy's
    Hurwitz zeta: ten direct terms, then up to twelve
    Euler-Maclaurin corrections, stopping at the first term below 2**-53
    of the running sum; q above 1e8 takes the leading terms of the
    asymptotic series. For integer-valued q the arithmetic is the same
    step for step, so values differ from scipy's only where numpy's
    ``power`` and libm's ``pow`` round differently. x == 1 gives inf and
    x < 1 gives nan; scalar inputs return a float.
    """
    x, q = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(q, dtype=np.float64))
    if not (q >= 1.0).all():
        raise ValueError("Hurwitz zeta needs q >= 1")
    shape = x.shape
    x, q = x.ravel(), q.ravel()
    out = np.empty(len(x))
    with np.errstate(all="ignore"):
        far = q > _ZETA_ASYMPTOTIC_Q
        if far.any():
            xf, qf = x[far], q[far]
            out[far] = (1.0 / (xf - 1.0) + 1.0 / (2.0 * qf)) * np.power(qf, 1.0 - xf)
        near = np.flatnonzero(~far)
        for start in range(0, len(near), _ZETA_BLOCK):
            rows = near[start:start + _ZETA_BLOCK]
            out[rows] = _euler_maclaurin(x[rows], q[rows])
    pole = x <= 1.0
    if pole.any():
        out[pole] = np.where(x[pole] == 1.0, np.inf, np.nan)
    return float(out[0]) if shape == () else out.reshape(shape)


def _euler_maclaurin(x: np.ndarray, q: np.ndarray) -> np.ndarray:
    """cephes' sum for 1 <= q <= 1e8, one column per element.

    Rows are cephes' addends in its order: (q+i)^-x for i < 10, the two
    pieces of the integral remainder, then the twelve corrections. Row i
    of the running sums adds addend i to row i - 1, and each column
    takes its sum at the first direct term or correction below 2**-53 of
    it. The products and sums step row by row: numpy's accumulate along
    an axis runs one short inner loop per column, which made the KS call
    of a tail fit, 10^4-10^5 columns, about twice as slow.
    """
    n = len(x)
    terms = np.empty((24, n))
    np.power(q + np.arange(10.0)[:, None], -x, out=terms[:10])
    b, w = terms[9], q + 9.0
    terms[10] = b * w / (x - 1.0)
    terms[11] = -0.5 * b
    # correction j: prod_{k<=2j} (x+k) * b / w^(2j+1) / A_j, so k steps by 2
    a = x + np.arange(23.0)[:, None]
    bw = np.empty((24, n))
    bw[0] = b
    a_rows, bw_rows = list(a), list(bw)
    for prev, row in zip(a_rows, a_rows[1:]):
        row *= prev
    for prev, row in zip(bw_rows, bw_rows[1:]):
        np.divide(prev, w, out=row)
    np.multiply(a[::2], bw[1::2], out=terms[12:])
    terms[12:] /= _ZETA_A[:, None]
    sums = terms.copy()
    sum_rows = list(sums)
    for prev, row in zip(sum_rows, sum_rows[1:]):
        row += prev
    ratio = np.divide(terms, sums, out=terms)
    stop = np.abs(ratio, out=ratio) < _MACHEP
    stop &= _ZETA_CAN_STOP[:, None]
    stop[-1] = True  # no early stop: the sum after every correction
    return sums[stop.argmax(axis=0), np.arange(n)]


def _zeta_range(gamma, lo, hi: int | None):
    """sum_{k=lo..hi} k^-gamma; hi=None means an unbounded tail."""
    if hi is None:
        return _hurwitz_zeta(gamma, lo)
    gamma, lo = np.broadcast_arrays(gamma, lo)
    z = _hurwitz_zeta(np.stack([gamma, gamma]), np.stack([lo, np.full(lo.shape, hi + 1.0)]))
    return z[0] - z[1]


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

    def norms(live, *gammas):
        """The normalization at each exponent array, from one zeta call; a
        cutoff fails at the first array where it degenerates."""
        z = _zeta_range(np.concatenate(gammas), np.tile(lo, len(gammas)), k_max_fit)
        z = z.reshape(len(gammas), len(lo))
        for gamma, z_at in zip(gammas, z):
            fail(live & ~(np.isfinite(z_at) & (z_at > 0)), lambda j, gamma=gamma: (
                FitConvergenceError(f"degenerate normalization at gamma={float(gamma[j])}")
            ))
        return z

    def score(gamma, live):
        up, down = np.log(norms(live, gamma + _DIFF_STEP, gamma - _DIFF_STEP))
        dlog_z = (up - down) / (2 * _DIFF_STEP)
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
        z_curve = norms(alive, gamma + _CURV_STEP, gamma, gamma - _CURV_STEP)
        up, mid, down = np.log(z_curve)
        d2 = (up - 2 * mid + down) / (_CURV_STEP * _CURV_STEP)
        fail(d2 <= 0, FitConvergenceError(
            "non-positive curvature at the fitted exponent"
        ))
        stderr = 1.0 / np.sqrt(n_tail * d2)

    live = np.flatnonzero(alive)
    ks_of = _ks_distances(
        [degs_of[j] for j in live], [counts_of[j] for j in live],
        n_tail[live], gamma[live], z_curve[1, live], k_max_fit,
    )
    for j, ks in zip(live, ks_of):
        g, n = float(gamma[j]), int(n_tail[j])
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


def _ks_distances(
    degs_of: list,
    counts_of: list,
    n_tail: np.ndarray,
    gamma: np.ndarray,
    z_total: np.ndarray,
    k_max_fit: int | None,
) -> list[float]:
    """KS distance of each fitted tail; ``z_total`` is its normalization.

    The model CDFs of all tails come from one zeta call; each empirical
    CDF is a cumsum over its own tail's counts.
    """
    sizes = [len(d) for d in degs_of]
    if not sizes:
        return []
    # model CDF at each observed degree k: P(K <= k)
    x = np.repeat(gamma, sizes)
    upper = np.maximum(_zeta_range(x, np.concatenate(degs_of) + 1.0, k_max_fit), 0.0)
    model_cdf = np.split(1.0 - upper / np.repeat(z_total, sizes), np.cumsum(sizes)[:-1])
    return [
        float(np.max(np.abs(np.cumsum(counts) / n - model)))
        for counts, n, model in zip(counts_of, n_tail, model_cdf)
    ]


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
    if cutoff is not None and cutoff < k_min:
        raise ValueError("cutoff below k_min")
    top = k_min + _TABLE_SPAN - 1 if cutoff is None else cutoff
    cum = np.cumsum(np.arange(k_min, top + 1, dtype=np.float64) ** -gamma)
    z_total = _hurwitz_zeta(gamma, k_min) if cutoff is None else cum[-1]
    cum /= z_total
    u = rng.random(size)
    out = k_min + np.searchsorted(cum, u, side="right").astype(np.int64)
    tail = u >= cum[-1]  # draws past the table: none when it ends at the cutoff, at 1
    if tail.any():
        out[tail] = _tail_quantiles(gamma, k_min, z_total, u[tail])
    return out


def _tail_quantiles(gamma: float, k_min: int, z_total: float, u: np.ndarray) -> np.ndarray:
    """Smallest k with P(K >= k+1) <= 1-u for each u, via doubling then
    bisection. The doubling points are the same for every draw, and the
    bisection steps all draws at once, so each step is one zeta call."""
    target = 1.0 - u

    def surv(k):  # P(K >= k)
        return _hurwitz_zeta(gamma, k) / z_total

    points = [k_min + _TABLE_SPAN]
    values = [surv(points[0])]
    while values[-1] > target.min():
        if points[-1] >= _INT64_MAX:
            raise ValueError("zeta draw beyond the int64 range: pass a cutoff")
        points.append(min(points[-1] * 2, _INT64_MAX))
        values.append(surv(points[-1]))
    # each draw's bracket ends at the first point its survival is below
    first = np.argmax(np.array(values) <= target[:, None], axis=1)
    points = np.array(points, dtype=np.int64)
    lo = np.where(first > 0, points[first - 1], points[0] - 1)
    hi = points[first]
    while (open_ := hi - lo > 1).any():
        mid = lo[open_] + (hi[open_] - lo[open_]) // 2
        above = surv(mid) > target[open_]
        lo[open_] = np.where(above, mid, lo[open_])
        hi[open_] = np.where(above, hi[open_], mid)
    # surv(lo) > target >= surv(lo+1) -> value lo
    return lo
