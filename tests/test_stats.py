"""Tests for the analysis toolkit.

The Shapiro-Wilk, Spearman and normal-quantile oracle values live in
``reference_tables``, precomputed with a reference statistical
implementation on the deterministically regenerated input vectors of its
``make_vector``.
"""

import math

import numpy as np
import pytest

from episampler import stats, streams
from reference_tables import PPF_ORACLE, SHAPIRO_ORACLE, SPEARMAN_ORACLE, make_vector


class TestNormPpf:
    def test_matches_reference_grid(self):
        for p, expected in PPF_ORACLE:
            assert stats.norm_ppf(p) == pytest.approx(expected, abs=1e-9)

    def test_round_trip_with_cdf(self):
        for p in np.linspace(0.001, 0.999, 200):
            assert stats.norm_cdf(stats.norm_ppf(p)) == pytest.approx(p, abs=1e-13)

    def test_out_of_range_rejected(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(stats.StatsError):
                stats.norm_ppf(p)


class TestSpearman:
    def test_identical_orderings(self):
        assert stats.spearman([1, 5, 9], [2, 4, 100]) == 1.0

    def test_reversed_orderings(self):
        assert stats.spearman([1, 2, 3, 4], [9, 6, 4, 1]) == -1.0

    def test_hand_value(self):
        assert stats.spearman([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5, abs=1e-15)

    def test_zero_rank_variance_rejected(self):
        with pytest.raises(stats.StatsError):
            stats.spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_matches_reference_implementation(self):
        for seed, n, kx, ky, expected in SPEARMAN_ORACLE:
            x = make_vector(100 + seed, n, kx)
            y = 0.6 * x + 0.8 * make_vector(200 + seed, n, ky)
            assert stats.spearman(x, y) == pytest.approx(expected, abs=1e-9)

    def test_invariant_under_monotone_transforms(self):
        rng = streams.stream(0, streams.STATS)
        transforms = [np.exp, np.arctan, lambda v: v**3, lambda v: 3.0 * v + 2.0]
        for i in range(20):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            base = stats.spearman(x, y)
            fx = transforms[i % len(transforms)]
            fy = transforms[(i + 1) % len(transforms)]
            assert stats.spearman(fx(x), fy(y)) == pytest.approx(base, abs=1e-12)


class TestShapiroWilk:
    def test_statistic_bounded_by_one(self):
        rng = streams.stream(1, streams.STATS)
        for _ in range(30):
            w, _ = stats.shapiro_wilk(rng.normal(size=int(rng.integers(3, 200))))
            assert 0.0 < w <= 1.0

    def test_near_one_on_exact_normal_order_statistics(self):
        n = 500
        quantiles = np.array([stats.norm_ppf((i - 0.5) / n) for i in range(1, n + 1)])
        w, p = stats.shapiro_wilk(quantiles)
        assert w > 0.999
        assert p > 0.5

    def test_matches_reference_implementation(self):
        for seed, n, kind, w_ref, p_ref in SHAPIRO_ORACLE:
            w, p = stats.shapiro_wilk(make_vector(seed, n, kind))
            assert w == pytest.approx(w_ref, abs=1e-3)
            assert p == pytest.approx(p_ref, abs=1e-3)

    def test_uniform_data_rejected_often(self):
        # Uniform data departs from normality: with n=50 the test should
        # reject at 5% in well over 20% of repetitions.
        rng = streams.stream(2, streams.STATS)
        rejections = sum(stats.shapiro_wilk(rng.uniform(size=50))[1] < 0.05 for _ in range(100))
        assert rejections > 20

    def test_affine_invariance(self):
        rng = streams.stream(3, streams.STATS)
        x = rng.normal(size=80)
        w0, _ = stats.shapiro_wilk(x)
        for a, b in ((2.0, 1.0), (0.001, -5.0), (1e6, 3.0)):
            w1, _ = stats.shapiro_wilk(a * x + b)
            assert w1 == pytest.approx(w0, abs=1e-9)

    def test_size_limits(self):
        with pytest.raises(stats.StatsError):
            stats.shapiro_wilk([1.0, 2.0])
        with pytest.raises(stats.StatsError):
            stats.shapiro_wilk(np.arange(5001, dtype=float))

    def test_constant_sample_rejected(self):
        with pytest.raises(stats.StatsError):
            stats.shapiro_wilk([2.0, 2.0, 2.0, 2.0])


class TestNormalityRejectionRate:
    def test_normal_data_near_alpha(self):
        rng_data = streams.stream(4, streams.STATS)
        omegas = rng_data.normal(size=5000)
        rate = stats.normality_rejection_rate(omegas, streams.stream(5, streams.STATS))
        assert 0.0 <= rate < 0.15

    def test_two_point_distribution_always_rejected(self):
        rng = streams.stream(6, streams.STATS)
        omegas = rng.choice([0.0, 1.0], size=1000)
        rate = stats.normality_rejection_rate(omegas, streams.stream(7, streams.STATS))
        assert rate == 1.0

    def test_zero_repetitions_rejected(self):
        with pytest.raises(stats.StatsError):
            stats.normality_rejection_rate(np.zeros(100), streams.stream(0, 0), repetitions=0)

    def test_pure_function_of_inputs_and_seed(self):
        omegas = streams.stream(8, streams.STATS).normal(size=500)
        a = stats.normality_rejection_rate(omegas, streams.stream(9, streams.STATS))
        b = stats.normality_rejection_rate(omegas, streams.stream(9, streams.STATS))
        assert a == b


class TestDensityAndQQ:
    def test_histogram_normalization(self):
        omegas = streams.stream(10, streams.STATS).normal(2.0, 0.5, size=4000)
        hist, _ = stats.export_density_and_qq(omegas, bins=40)
        width = hist[1][0] - hist[0][0]
        total = sum(d for _, d in hist) * width
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_exact_quantile_sample_lies_on_identity(self):
        # The reference normal is the sample's own fit (mean, ddof-1 std), so
        # the points lie on the identity once the theoretical column is
        # standardised by that fit.
        n = 1000
        sample = np.array([stats.norm_ppf((i - 0.5) / n) for i in range(1, n + 1)])
        _, qq = stats.export_density_and_qq(sample, bins=10)
        loc, scale = float(sample.mean()), float(sample.std(ddof=1))
        for i, (theo, samp) in enumerate(qq, start=1):
            assert theo == loc + scale * stats.norm_ppf((i - 0.5) / n)
            assert samp == pytest.approx((theo - loc) / scale, abs=1e-9)

    def test_qq_columns_sorted_ascending(self):
        omegas = streams.stream(11, streams.STATS).exponential(size=500)
        _, qq = stats.export_density_and_qq(omegas, bins=5)
        theos = [t for t, _ in qq]
        samps = [s for _, s in qq]
        assert theos == sorted(theos)
        assert samps == sorted(samps)

    def test_minimum_sizes_enforced(self):
        with pytest.raises(stats.StatsError):
            stats.export_density_and_qq([1.0], bins=5)
        with pytest.raises(stats.StatsError):
            stats.export_density_and_qq([1.0, 2.0], bins=0)


class TestTrackExtremes:
    def test_groups_partition_pool_when_m_is_half(self):
        initial = np.array([3.0, 1.0, 4.0, 2.0])
        rows = stats.track_extremes(initial, [("c0", initial)], m=2)
        (_, easy_mean, hard_mean) = rows[0]
        assert easy_mean == pytest.approx(1.5)
        assert hard_mean == pytest.approx(3.5)

    def test_constant_model_gives_flat_trajectories(self):
        initial = streams.stream(12, streams.STATS).normal(size=200)
        history = [(f"c{i}", initial) for i in range(4)]
        rows = stats.track_extremes(initial, history, m=50)
        easy = [r[1] for r in rows]
        hard = [r[2] for r in rows]
        assert len(set(easy)) == 1 and len(set(hard)) == 1

    def test_pool_too_small_rejected(self):
        with pytest.raises(stats.StatsError):
            stats.track_extremes(np.arange(5.0), [], m=3)

    def test_mismatched_pool_rejected(self):
        with pytest.raises(stats.StatsError):
            stats.track_extremes(np.arange(10.0), [("c0", np.arange(8.0))], m=2)


class TestWeightedLossStd:
    def test_constant_batches_give_zero(self):
        batches = [[(1.0, 2.0), (1.0, 2.0)], [(0.5, 4.0), (0.5, 4.0)]]
        assert stats.weighted_loss_std(batches) == 0.0

    def test_hand_value(self):
        # w*NLL = {1, 3} -> sample std = sqrt(2)
        assert stats.weighted_loss_std([[(1.0, 1.0), (1.0, 3.0)]]) == pytest.approx(
            math.sqrt(2.0), abs=1e-15
        )

    def test_batch_of_one_rejected(self):
        with pytest.raises(stats.StatsError):
            stats.weighted_loss_std([[(1.0, 1.0)]])
