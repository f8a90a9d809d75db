import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import bisect
from scipy.special import zeta as hurwitz

from linkgraph import (
    DegreeHistogram,
    Direction,
    PowerLawFitError,
    UndefinedStatisticError,
    crossed_one_point,
    cumulative,
    degree_histogram,
    mle_powerlaw,
    sample_zeta,
    select_fit_range,
    summarize,
)
from linkgraph import degree_stats as ds
from linkgraph.graph import exact_product_sum

import oracles
from conftest import graph_of


def hist_of(values, direction=Direction.IN):
    return DegreeHistogram.from_values(np.asarray(values, dtype=np.int64), direction)


class TestHistogram:
    def test_includes_zero_degree(self, toy8):
        h = degree_histogram(toy8, Direction.IN)
        assert h.counts[h.degrees == 0].tolist() == [2]  # nodes 0 and 7
        assert h.total_nodes == 8

    def test_counts_sum_to_nodes(self, toy8):
        for d in (Direction.IN, Direction.OUT):
            h = degree_histogram(toy8, d)
            assert int(h.counts.sum()) == toy8.node_count

    def test_undirected_and_reciprocal_match_bruteforce(self):
        # a mutual pair is one undirected neighbor and one reciprocal one
        rng = np.random.default_rng(26)
        cases = [(0, []), (3, []), (2, [(0, 1), (1, 0)])]
        for _ in range(10):
            n = int(rng.integers(2, 40))
            cases.append((n, oracles.random_digraph(rng, n, float(rng.choice([0.05, 0.3])))))
        for n, edges in cases:
            g = graph_of(n, edges)
            und = [len({v for u, v in edges if u == i} | {u for u, v in edges if v == i})
                   for i in range(n)]
            _, _, q_r, _ = oracles.reciprocity_bruteforce(n, edges)
            for direction, want in ((Direction.UNDIRECTED, und), (Direction.RECIPROCAL, q_r)):
                h = degree_histogram(g, direction)
                ref = hist_of(want, direction)
                assert h.degrees.tolist() == ref.degrees.tolist()
                assert h.counts.tolist() == ref.counts.tolist()
                assert h.total_nodes == n

    def test_sparse_support(self):
        h = hist_of([0, 0, 1000000])
        assert h.degrees.tolist() == [0, 1000000]
        assert h.counts.tolist() == [2, 1]

    def test_probabilities_normalized(self):
        h = hist_of([1, 1, 2, 5])
        assert h.probabilities.sum() == pytest.approx(1.0)

    def test_from_values_matches_hand_built(self):
        a = hist_of([3, 3, 7])
        b = DegreeHistogram(Direction.IN, np.array([3, 7]), np.array([2, 1]), 3)
        assert a.degrees.tolist() == b.degrees.tolist()
        assert a.counts.tolist() == b.counts.tolist()


class TestCumulative:
    def test_exact_duality(self):
        rng = np.random.default_rng(0)
        values = rng.integers(0, 40, size=500)
        h = hist_of(values)
        c = cumulative(h)
        # differencing the integer suffix counts recovers the histogram exactly
        ext = np.append(c.suffix_counts, 0)
        assert (ext[:-1] - ext[1:] == h.counts).all()

    def test_at_matches_direct_count(self):
        rng = np.random.default_rng(1)
        values = rng.integers(0, 25, size=300).tolist()
        c = cumulative(hist_of(values))
        for k in range(-1, 30):
            assert float(c.at(k)) == pytest.approx(
                oracles.cumulative_bruteforce(values, k)
            )

    def test_starts_at_one_for_degree_zero(self):
        c = cumulative(hist_of([0, 1, 2]))
        assert float(c.at(0)) == 1.0


class TestSummary:
    def test_against_direct_sums(self):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 50, size=400).tolist()
        s = summarize(hist_of(values))
        assert s.mean == pytest.approx(sum(values) / len(values))
        assert s.std == pytest.approx(float(np.std(values)))
        assert s.kappa == pytest.approx(oracles.kappa_direct(values))
        assert s.max_degree == max(values)

    def test_kappa_exact_beyond_int64(self):
        # sum k^2 c = 3 * 2**80 + 5 needs the Python-integer fallback
        degs, counts = np.array([1, 2**40], dtype=np.int64), np.array([5, 3], dtype=np.int64)
        s = summarize(DegreeHistogram(Direction.IN, degs, counts, 8))
        assert s.kappa == (3 * 2**80 + 5) / (3 * 2**40 + 5)
        assert s.mean == (3 * 2**40 + 5) / 8

    def test_all_zero_degrees_flags_kappa(self):
        s = summarize(hist_of([0, 0, 0]))
        assert s.kappa is None
        assert s.note is not None
        assert s.mean == 0.0

    def test_in_out_means_equal(self, toy8):
        s_in = summarize(degree_histogram(toy8, Direction.IN))
        s_out = summarize(degree_histogram(toy8, Direction.OUT))
        assert s_in.mean == s_out.mean == 1.0


class TestCrossedHeterogeneity:
    """sum(k_in k_out) / m, read through crossed_one_point, which is that
    ratio times n / m."""

    def test_toy8_value(self, toy8):
        assert crossed_one_point(toy8) == pytest.approx(6 / 8)  # n = m = 8

    def test_edgeless_raises(self, make_graph):
        with pytest.raises(UndefinedStatisticError):
            crossed_one_point(make_graph(3, []))

    def test_large_degrees_no_overflow(self, make_graph):
        # star graphs stress the product sum; exact integers required
        n = 5000
        edges = [(0, i) for i in range(1, n)] + [(i, 0) for i in range(1, n)]
        g = make_graph(n, edges)
        # node 0: k_in = k_out = n-1; leaves: 1 and 1; m = 2(n-1)
        want = ((n - 1) ** 2 + (n - 1)) * n / (2 * (n - 1)) ** 2
        assert crossed_one_point(g) == pytest.approx(want)

    def test_exact_product_sum_beyond_int64(self):
        a = np.array([2**40, -(2**41) + 1, 3, 0], dtype=np.int64)
        b = np.array([2**30, 2**35, -7, 2**62], dtype=np.int64)
        want = sum(int(x) * int(y) * int(x) for x, y in zip(a, b))
        assert abs(want) > 2**63
        assert exact_product_sum(a, b, a) == want
        small = np.array([-3, 4, 5], dtype=np.int64)
        assert exact_product_sum(small, small) == 50
        assert exact_product_sum(small[:0], small[:0]) == 0


class TestMle:
    def test_gamma_maximizes_likelihood_on_grid(self):
        # independent check: the returned exponent beats a dense grid
        rng = np.random.default_rng(11)
        values = sample_zeta(2.3, 30000, rng)
        h = hist_of(values)
        fit = mle_powerlaw(h, k_min=1)
        degs = h.degrees.astype(np.float64)
        cnts = h.counts.astype(np.float64)

        def loglike(gamma):
            z = hurwitz(gamma, 1)
            return -gamma * float(cnts @ np.log(degs)) - cnts.sum() * np.log(z)

        grid = np.linspace(fit.gamma - 0.05, fit.gamma + 0.05, 201)
        best = grid[int(np.argmax([loglike(g) for g in grid]))]
        assert abs(best - fit.gamma) < 1e-3

    def test_bounded_range_normalization(self):
        # with a hard upper cutoff the normalizer is a plain finite sum
        rng = np.random.default_rng(3)
        values = sample_zeta(2.0, 40000, rng, k_min=2, cutoff=50)
        fit = mle_powerlaw(hist_of(values), k_min=2, k_max_fit=50)
        assert fit.k_max_fit == 50
        assert abs(fit.gamma - 2.0) < 0.1

    def test_recovers_exponent(self):
        rng = np.random.default_rng(7)
        values = sample_zeta(2.6, 100000, rng)
        fit = mle_powerlaw(hist_of(values), k_min=1)
        assert abs(fit.gamma - 2.6) < 0.05
        assert fit.n_tail == 100000
        assert fit.stderr < 0.02

    def test_stderr_shrinks_with_sample_size(self):
        rng = np.random.default_rng(8)
        small = mle_powerlaw(hist_of(sample_zeta(2.2, 2000, rng)), k_min=1)
        big = mle_powerlaw(hist_of(sample_zeta(2.2, 200000, rng)), k_min=1)
        assert big.stderr < small.stderr / 5

    def test_ks_small_for_true_model(self):
        rng = np.random.default_rng(9)
        fit = mle_powerlaw(hist_of(sample_zeta(2.4, 50000, rng)), k_min=1)
        assert fit.ks < 0.05
        assert fit.powerlaw_plausible

    def test_geometric_rejected(self):
        rng = np.random.default_rng(10)
        values = rng.geometric(0.25, size=50000)
        fit = mle_powerlaw(hist_of(values), k_min=1)
        assert fit.ks > 0.05
        assert not fit.powerlaw_plausible

    def test_k_min_below_one_rejected(self):
        with pytest.raises(PowerLawFitError):
            mle_powerlaw(hist_of([1, 2, 3]), k_min=0)

    def test_empty_tail_rejected(self):
        with pytest.raises(PowerLawFitError):
            mle_powerlaw(hist_of([1, 2, 3]), k_min=10)

    def test_single_support_point_rejected(self):
        with pytest.raises(PowerLawFitError):
            mle_powerlaw(hist_of([4] * 100), k_min=2)

    def test_k_min_excludes_lighter_head(self):
        rng = np.random.default_rng(12)
        tail = sample_zeta(2.1, 40000, rng, k_min=10)
        head = rng.integers(1, 10, size=20000)
        fit = mle_powerlaw(hist_of(np.concatenate([head, tail])), k_min=10)
        assert fit.n_tail == 40000
        assert abs(fit.gamma - 2.1) < 0.1


class TestSelectFitRange:
    def test_finds_spliced_tail_start(self):
        rng = np.random.default_rng(13)
        body = rng.integers(1, 50, size=30000)
        tail = sample_zeta(2.2, 30000, rng, k_min=50)
        h = hist_of(np.concatenate([body, tail]))
        fit = select_fit_range(h)
        assert 40 <= fit.k_min <= 70
        assert fit.k_max_fit is None
        assert abs(fit.gamma - 2.2) < 0.15

    def test_pure_sample_selects_near_origin(self):
        rng = np.random.default_rng(14)
        h = hist_of(sample_zeta(2.5, 50000, rng))
        assert select_fit_range(h).k_min <= 3

    def test_single_distinct_degree_rejected(self):
        with pytest.raises(PowerLawFitError):
            select_fit_range(hist_of([5] * 100))

    def test_small_histogram_uses_fallback_window(self):
        # too little mass for the usual thresholds, but still fittable
        fit = select_fit_range(hist_of([1, 2, 3]))
        assert fit.k_min >= 1
        assert fit.k_max_fit is None

    @pytest.mark.parametrize(
        "seed,size,gamma,thin", [(15, 500, 2.5, False), (16, 2000, 1.9, True)]
    )
    def test_returns_lowest_ks_single_fit(self, seed, size, gamma, thin):
        # the batch solve must agree with one mle_powerlaw per candidate,
        # with and without thinning the candidates
        rng = np.random.default_rng(seed)
        values = np.concatenate(
            [rng.integers(1, 30, size=size), sample_zeta(gamma, size, rng, k_min=30)]
        )
        h = hist_of(values)
        tail_from = np.cumsum(h.counts[::-1])[::-1]
        distinct_from = np.arange(len(h.degrees), 0, -1)
        ok = (h.degrees >= 1) & (tail_from >= ds._MIN_TAIL)
        candidates = h.degrees[ok & (distinct_from >= ds._MIN_DISTINCT)]
        assert (len(candidates) > ds._MAX_CANDIDATES) == thin
        if thin:
            idx = np.linspace(0, len(candidates) - 1, ds._MAX_CANDIDATES)
            candidates = candidates[idx.astype(np.int64)]
        best = None
        for k_min in candidates.tolist():
            try:
                fit = mle_powerlaw(h, k_min=k_min)
            except PowerLawFitError:
                continue
            if best is None or fit.ks < best.ks - 1e-15:
                best = fit
        assert select_fit_range(h) == best


def _bisect_reference_gamma(h, k_min, k_max_fit=None):
    """The exponent solved one cutoff at a time with scipy's bisect on
    the score function, as the scalar fit did."""
    mask = h.degrees >= k_min
    if k_max_fit is not None:
        mask &= h.degrees <= k_max_fit
    degs = h.degrees[mask].astype(np.float64)
    counts = h.counts[mask].astype(np.float64)
    n_tail = int(counts.sum())
    sum_log = float(np.dot(counts, np.log(degs)))

    def log_norm(gamma):
        z = hurwitz(gamma, k_min)
        if k_max_fit is not None:
            z = z - hurwitz(gamma, k_max_fit + 1)
        return float(np.log(z))

    def score(gamma):
        dlog_z = (log_norm(gamma + 1e-5) - log_norm(gamma - 1e-5)) / (2 * 1e-5)
        return -sum_log - n_tail * dlog_z

    return float(bisect(score, 1.0 + 1e-4, 50.0, xtol=1e-6, maxiter=200))


@pytest.mark.parametrize("k_max_fit", [None, 100, 400])
@pytest.mark.parametrize("k_min", [1, 2, 5, 12])
def test_gamma_equals_scipy_bisect(k_min, k_max_fit):
    rng = np.random.default_rng(17)
    samples = [
        sample_zeta(2.3, 20000, rng),
        sample_zeta(1.8, 5000, rng, cutoff=3000),
        rng.geometric(0.1, size=8000),
    ]
    for values in samples:
        h = hist_of(values)
        fit = mle_powerlaw(h, k_min=k_min, k_max_fit=k_max_fit)
        assert fit.gamma == _bisect_reference_gamma(h, k_min, k_max_fit)


class TestHurwitzZeta:
    """The numpy port of cephes' Hurwitz zeta: near scipy's, which runs
    the same algorithm on libm's pow, and equal to the scalar cephes
    loop in ``oracles``, which takes its powers from numpy."""

    @given(
        st.floats(min_value=1.00009, max_value=60.0),
        st.integers(min_value=1, max_value=2**53),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, x, q):
        got, want = ds._hurwitz_zeta(x, float(q)), float(hurwitz(x, float(q)))
        # above q = 1e8 an older scipy may sum where the port takes the
        # asymptotic series; below the normal range only absolute error counts
        rtol = 1e-15 if q <= 1e8 else 1e-13
        assert abs(got - want) <= rtol * abs(want) + np.finfo(float).tiny

    def test_pole_and_domain(self):
        assert ds._hurwitz_zeta(1.0, 3.0) == np.inf
        assert np.isnan(ds._hurwitz_zeta(0.5, 2.0))
        assert np.isnan(ds._hurwitz_zeta(np.nan, 2.0))
        got = ds._hurwitz_zeta(np.array([1.0, 0.99, 2.0]), 1.0)
        assert got[0] == np.inf and np.isnan(got[1])
        assert got[2] == pytest.approx(np.pi**2 / 6, rel=1e-15)

    @pytest.mark.parametrize("q", [0.5, 0.0, -3.0, np.nan])
    def test_q_below_one_rejected(self, q):
        with pytest.raises(ValueError, match="q >= 1"):
            ds._hurwitz_zeta(2.0, q)
        with pytest.raises(ValueError, match="q >= 1"):
            ds._hurwitz_zeta(np.array([2.0, 3.0]), np.array([1.0, q]))

    def test_scalar_returns_float(self):
        assert type(ds._hurwitz_zeta(2.0, 1)) is float
        assert ds._hurwitz_zeta(2.0, 1) == pytest.approx(np.pi**2 / 6, rel=1e-15)

    def test_broadcast_shape_kept(self):
        x = np.array([[1.5], [2.0], [3.5]])
        q = np.array([1.0, 7.0, 1e5, 3e9])
        got = ds._hurwitz_zeta(x, q)
        assert got.shape == (3, 4)
        np.testing.assert_allclose(got, hurwitz(x, q), rtol=1e-13)

    def test_equals_the_cephes_loop_across_blocks(self):
        # the arithmetic order, not only the value: every element of a
        # call longer than one term block, with far and near q mixed and
        # x from the pole to where the direct sum stops early
        rng = np.random.default_rng(21)
        n = ds._ZETA_BLOCK * 2 + 5
        x = np.concatenate([[1.0, 0.5], rng.uniform(1.00009, 60.0, n - 2)])
        near = np.floor(10.0 ** rng.uniform(0.0, 6.0, n))  # q = 1 as often as q = 10**5
        q = np.where(rng.random(n) < 0.1, rng.integers(10**8 + 1, 2**53, n), near).astype(float)
        got = ds._hurwitz_zeta(x, q)
        for i in [0, 1, *rng.choice(n, 400, replace=False)]:
            want = oracles.hurwitz_zeta_cephes(float(x[i]), float(q[i]))
            assert got[i] == want or np.isnan(got[i]) and np.isnan(want)


def test_fits_with_scipy_zeta_agree(monkeypatch):
    # the fit run on scipy's zeta picks the same exponents and cutoffs;
    # ks and stderr move by at most the rounding of power
    rng = np.random.default_rng(17)
    samples = [
        sample_zeta(2.3, 20000, rng),
        sample_zeta(1.8, 5000, rng, cutoff=3000),
        rng.geometric(0.1, size=8000),
        np.concatenate([rng.integers(1, 30, size=500), sample_zeta(2.5, 500, rng, k_min=30)]),
        np.concatenate([rng.integers(1, 30, size=2000), sample_zeta(1.9, 2000, rng, k_min=30)]),
    ]
    hists = [hist_of(v) for v in samples]

    def fits():
        out = [select_fit_range(h) for h in hists]
        for h in hists[:3]:
            for k_min, k_max_fit in ((1, None), (5, None), (2, 400)):
                out.append(mle_powerlaw(h, k_min=k_min, k_max_fit=k_max_fit))
        return out

    ours = fits()
    monkeypatch.setattr(ds, "_hurwitz_zeta", hurwitz)
    theirs = fits()
    for a, b in zip(ours, theirs):
        assert (a.gamma, a.k_min, a.n_tail, a.k_max_fit, a.powerlaw_plausible) == (
            b.gamma, b.k_min, b.n_tail, b.k_max_fit, b.powerlaw_plausible
        )
        assert a.ks == pytest.approx(b.ks, rel=1e-12, abs=0)
        assert a.stderr == pytest.approx(b.stderr, rel=1e-12, abs=0)


class TestSampleZeta:
    def test_frequencies_match_pmf(self):
        rng = np.random.default_rng(15)
        gamma = 2.5
        n = 200000
        values = sample_zeta(gamma, n, rng)
        z = hurwitz(gamma, 1)
        for k in (1, 2, 3, 5):
            p = k ** -gamma / z
            got = float((values == k).mean())
            assert abs(got - p) < 4 * np.sqrt(p * (1 - p) / n)

    def test_cutoff_respected(self):
        rng = np.random.default_rng(16)
        values = sample_zeta(1.8, 20000, rng, k_min=3, cutoff=40)
        assert values.min() >= 3
        assert values.max() <= 40

    def test_heavy_tail_reaches_past_table(self):
        # gamma this small pushes a visible fraction of mass beyond the
        # inverse-CDF table, exercising the exact tail expansion
        rng = np.random.default_rng(17)
        values = sample_zeta(1.3, 20000, rng)
        frac_beyond = float((values > 1_000_000).mean())
        z = hurwitz(1.3, 1)
        want = hurwitz(1.3, 1_000_001) / z
        assert frac_beyond > 0
        assert abs(frac_beyond - want) < 5 * np.sqrt(want * (1 - want) / 20000)

    @pytest.mark.parametrize("gamma,k_min,size", [(1.3, 1, 3000), (1.6, 5, 20000)])
    def test_tail_draws_equal_one_search_per_draw(self, gamma, k_min, size):
        # the draws beyond the table step together; each must equal its
        # own doubling-then-bisection search on the survival function
        values = sample_zeta(gamma, size, np.random.default_rng(19), k_min=k_min)
        u = np.random.default_rng(19).random(size)
        z_total = ds._hurwitz_zeta(gamma, k_min)
        ks = np.arange(k_min, k_min + ds._TABLE_SPAN, dtype=np.float64)
        tail = np.flatnonzero(u >= (np.cumsum(ks**-gamma) / z_total)[-1])
        assert len(tail) > 0

        def surv(k):
            return ds._hurwitz_zeta(gamma, k) / z_total

        for i in tail:
            target, lo = 1.0 - u[i], k_min + ds._TABLE_SPAN
            if surv(lo) <= target:
                assert values[i] == lo - 1
                continue
            hi = lo * 2
            while surv(hi) > target:
                lo, hi = hi, hi * 2
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if surv(mid) > target else (lo, mid)
            assert values[i] == lo

    def test_deterministic_for_seed(self):
        a = sample_zeta(2.2, 1000, np.random.default_rng(18))
        b = sample_zeta(2.2, 1000, np.random.default_rng(18))
        assert (a == b).all()

    def test_bad_gamma_rejected(self):
        with pytest.raises(ValueError):
            sample_zeta(1.0, 10, np.random.default_rng(0))

    def test_tail_beyond_int64_asks_for_cutoff(self):
        # gamma near 1 puts draws past 2**63 within reach of 20000 samples
        with pytest.raises(ValueError, match="pass a cutoff"):
            sample_zeta(1.1, 20000, np.random.default_rng(0), k_min=100)


@given(
    st.lists(st.integers(min_value=0, max_value=60), min_size=1, max_size=200)
)
@settings(max_examples=80, deadline=None)
def test_cumulative_property(values):
    c = cumulative(hist_of(values))
    ks = sorted(set(values)) + [max(values) + 1]
    for k in ks:
        assert float(c.at(k)) == pytest.approx(
            oracles.cumulative_bruteforce(values, k)
        )


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=100)
)
@settings(max_examples=80, deadline=None)
def test_summary_moments_property(values):
    s = summarize(hist_of(values))
    assert s.mean == pytest.approx(np.mean(values))
    kd = oracles.kappa_direct(values)
    if kd is None:
        assert s.kappa is None
    else:
        assert s.kappa == pytest.approx(kd)
