"""Tests for the importance-sampling machinery.

Closed forms, numerical quadrature, and direct Monte-Carlo sampling from
the target distributions serve as the oracles.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from episampler import sampling, streams
from episampler.sampling import DifficultyModel, SamplingScheme


def _ready_model(mu=0.0, var=1.0, lam=0.9):
    return DifficultyModel(mu=mu, var=var, lam=lam, warmup_remaining=0)


def _trapezoid_mass(f, lo, hi, points=200_001):
    xs = np.linspace(lo, hi, points)
    ys = np.array([f(x) for x in xs])
    return float(np.trapezoid(ys, xs))


class TestNormalPdf:
    def test_standard_normal_at_zero(self):
        assert sampling.normal_pdf(0.0, 0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-12)
        assert sampling.normal_pdf(0.0, 0.0, 1.0) == pytest.approx(0.398942, abs=1e-6)

    def test_symmetry(self):
        for t in (0.3, 1.7, 2.2):
            left = sampling.normal_pdf(1.0 - t, 1.0, 2.5)
            right = sampling.normal_pdf(1.0 + t, 1.0, 2.5)
            assert right == pytest.approx(left, rel=1e-12)

    def test_integrates_to_one(self):
        mu, var = 0.7, 1.3
        sigma = math.sqrt(var)
        mass = _trapezoid_mass(lambda x: sampling.normal_pdf(x, mu, var), mu - 5 * sigma, mu + 5 * sigma)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(sampling.SamplerError):
            sampling.normal_pdf(0.0, 0.0, 0.0)


class TestTargetDensity:
    def test_uniform_density_at_mu(self):
        model = _ready_model(mu=2.0, var=4.0)
        expected = 1.0 / (2 * sampling.TRUNCATION_SIGMAS * 2.0)
        assert sampling.target_density(2.0, SamplingScheme("uniform"), model, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_easy_zero_above_mu(self):
        model = _ready_model(mu=1.0, var=1.0)
        assert sampling.target_density(1.5, SamplingScheme("easy"), model, 0.0) == 0.0
        assert sampling.target_density(0.5, SamplingScheme("easy"), model, 0.0) > 0.0

    def test_hard_zero_below_mu(self):
        model = _ready_model(mu=1.0, var=1.0)
        assert sampling.target_density(0.5, SamplingScheme("hard"), model, 0.0) == 0.0

    def test_curriculum_midpoint_normalizer(self):
        model = _ready_model(mu=0.0, var=1.0)
        scheme = SamplingScheme("curriculum")
        z = 2 * (0.5 * (1 + math.erf(sampling.TRUNCATION_SIGMAS / math.sqrt(2)))) - 1
        assert z == pytest.approx(0.99012, abs=5e-6)
        got = sampling.target_density(0.3, scheme, model, 0.5)
        assert got == pytest.approx(sampling.normal_pdf(0.3, 0.0, 1.0) / z, rel=1e-12)

    @pytest.mark.parametrize(
        "kind, progress",
        [
            ("easy", None),
            ("hard", None),
            ("uniform", None),
            ("curriculum", 0.0),
            ("curriculum", 0.3),
            ("curriculum", 1.0),
        ],
    )
    def test_densities_integrate_to_one(self, kind, progress):
        # Only the curriculum reads progress; None shows the others ignore it.
        model = _ready_model(mu=1.3, var=0.49)
        scheme = SamplingScheme(kind)
        lo, hi = model.support_bounds()
        if kind == "easy":
            lo, hi = lo, model.mu
        elif kind == "hard":
            lo, hi = model.mu, hi
        mass = _trapezoid_mass(lambda x: sampling.target_density(x, scheme, model, progress), lo, hi)
        assert mass == pytest.approx(1.0, abs=1e-6)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(
        mu=st.floats(-50.0, 50.0),
        var=st.floats(1e-4, 1e4),
        progress=st.floats(0.0, 1.0),
    )
    def test_curriculum_integrates_to_one_for_any_progress(self, mu, var, progress):
        model = _ready_model(mu=mu, var=var)
        lo, hi = model.support_bounds()
        scheme = SamplingScheme("curriculum")
        mass = _trapezoid_mass(lambda x: sampling.target_density(x, scheme, model, progress), lo, hi, 4001)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_baseline_is_the_proposal(self):
        model = _ready_model(mu=0.4, var=2.0)
        got = sampling.target_density(1.0, SamplingScheme("baseline"), model, 0.0)
        assert got == sampling.normal_pdf(1.0, 0.4, 2.0)


class TestImportanceWeight:
    def test_uniform_weight_at_mu_closed_form(self):
        for sigma in (0.3, 1.0, 4.0):
            model = _ready_model(mu=1.0, var=sigma**2)
            w = sampling.importance_weight(1.0, SamplingScheme("uniform"), model, 0.0)
            assert w == pytest.approx(math.sqrt(2 * math.pi) / 5.16, abs=1e-9)
            assert w == pytest.approx(0.48578, abs=1e-5)

    def test_baseline_weight_is_one(self):
        model = _ready_model(mu=0.0, var=1.0)
        for omega in (-3.0, 0.0, 5.0):
            assert sampling.importance_weight(omega, SamplingScheme("baseline"), model, 0.0) == 1.0

    def test_hard_weight_zero_below_mu(self):
        model = _ready_model(mu=1.0, var=1.0)
        w = sampling.importance_weight(0.0, SamplingScheme("hard"), model, 0.0)
        assert w == 0.0

    def test_warmup_weight_is_one(self):
        model = DifficultyModel(warmup_remaining=5)
        w = sampling.importance_weight(3.0, SamplingScheme("uniform"), model, 0.0)
        assert w == 1.0

    def test_proposal_underflow_flagged_not_nan(self):
        # Far outside the support the proposal underflows to 0.0; the target
        # is zero there too, so the weight is a clean zero, not 0/0.
        model = _ready_model(mu=0.0, var=sampling.VARIANCE_FLOOR)
        assert sampling.normal_pdf(1.0, model.mu, model.var) == 0.0
        w = sampling.importance_weight(1.0, SamplingScheme("uniform"), model, 0.0)
        assert w == 0.0 and math.isfinite(w)

    @settings(derandomize=True, deadline=None)
    @given(
        mu=st.floats(0.0, 50.0),
        var=st.floats(sampling.VARIANCE_FLOOR, 1e6),
        z=st.floats(-40.0, 40.0),
        kind=st.sampled_from(["easy", "hard", "uniform", "curriculum"]),
        progress=st.floats(0.0, 1.0),
    )
    def test_weight_is_bounded_and_zero_exactly_off_target(self, mu, var, z, kind, progress):
        model = _ready_model(mu=mu, var=var)
        omega = mu + z * math.sqrt(var)
        scheme = SamplingScheme(kind)
        w = sampling.importance_weight(omega, scheme, model, progress)
        assert math.isfinite(w)
        assert 0.0 <= w <= sampling.WEIGHT_CAP
        assert (w == 0.0) == (sampling.target_density(omega, scheme, model, progress) == 0.0)

    def test_curriculum_progress_outside_unit_interval_rejected(self):
        model = _ready_model()
        for progress in (-0.1, 1.5):
            with pytest.raises(sampling.SamplerError, match="progress"):
                sampling.importance_weight(0.0, SamplingScheme("curriculum"), model, progress)

    def test_proposal_variance_whose_normaliser_overflows_rejected(self):
        # 2*pi*1e308 overflows, so the proposal density is 0.0 inside the
        # support; the weight would divide by zero.
        model = DifficultyModel(var=1e308, warmup_remaining=0)
        with pytest.raises(sampling.SamplerError, match="variance"):
            sampling.importance_weight(0.0, SamplingScheme("uniform"), model, 0.0)


class TestEffectiveSampleSize:
    def test_constant_weights_give_batch_size(self):
        assert sampling.effective_sample_size([1.0, 1.0, 1.0, 1.0]) == 4.0

    def test_single_effective_sample(self):
        assert sampling.effective_sample_size([1.0, 0.0, 0.0, 0.0]) == 1.0

    def test_hand_value(self):
        assert sampling.effective_sample_size([2.0, 1.0]) == pytest.approx(1.8, abs=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(sampling.SamplerError):
            sampling.effective_sample_size([0.0, 0.0])

    def test_rescaling_invariance(self):
        rng = streams.stream(0, streams.STATS)
        for _ in range(1000):
            w = rng.uniform(0.01, 5.0, size=rng.integers(2, 20))
            c = float(rng.uniform(1e-3, 1e3))
            a = sampling.effective_sample_size(w)
            b = sampling.effective_sample_size(c * w)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_bounds_and_equality_condition(self):
        rng = streams.stream(1, streams.STATS)
        for _ in range(1000):
            w = rng.uniform(0.0, 3.0, size=rng.integers(1, 16))
            if w.sum() == 0:
                continue
            ess = sampling.effective_sample_size(w)
            assert 1.0 - 1e-12 <= ess <= len(w) + 1e-12
            if ess >= len(w) - 1e-12:
                positive = w[w > 0]
                assert np.allclose(positive, positive[0], rtol=1e-9)

    @pytest.mark.parametrize(
        "w, expected", [([1e-200], 1.0), ([1e-200, 1e-200], 2.0), ([1e300, 1e300], 2.0)]
    )
    def test_squares_that_underflow_or_overflow(self, w, expected):
        assert sampling.effective_sample_size(w) == expected

    # Any non-negative finite weights, not all zero, subnormals included.
    @settings(derandomize=True, deadline=None)
    @given(
        w=st.lists(st.floats(0.0, allow_infinity=False), min_size=1, max_size=32).filter(any),
        c=st.floats(1e-3, 1e3),
    )
    def test_bounds_and_scale_invariance_property(self, w, c):
        ess = sampling.effective_sample_size(w)
        assert 1.0 - 1e-12 <= ess <= len(w) * (1.0 + 1e-12)
        # Scaling is exact up to rounding only while every scaled weight
        # stays a finite normal float.
        tiny = np.finfo(np.float64).tiny
        scaled = [c * v for v in w]
        assume(all(v == 0.0 or (v >= tiny and tiny <= s < math.inf) for v, s in zip(w, scaled)))
        assert sampling.effective_sample_size(scaled) == pytest.approx(ess, rel=1e-12)


class TestOnlineModel:
    def test_hand_ema_step(self):
        model = _ready_model(mu=1.0, var=1.0)
        sampling.update_online(model, 2.0)
        assert model.mu == pytest.approx(1.1, abs=1e-15)
        assert model.var == pytest.approx(0.9 * 1.0 + 0.1 * (2.0 - 1.1) ** 2, abs=1e-15)
        assert model.var == pytest.approx(0.981, abs=1e-12)

    def test_constant_stream_reaches_fixed_point(self):
        model = _ready_model(mu=0.0, var=1.0)
        for _ in range(2000):
            sampling.update_online(model, 2.5)
        assert model.mu == pytest.approx(2.5, abs=1e-9)
        assert model.var == sampling.VARIANCE_FLOOR

    def test_lambda_one_freezes_model(self):
        model = _ready_model(mu=1.0, var=2.0, lam=1.0)
        for omega in (0.0, 5.0, -3.0):
            sampling.update_online(model, omega)
        assert model.mu == 1.0 and model.var == 2.0

    def test_overflowing_variance_rejected_and_model_kept(self):
        model = DifficultyModel(var=1.0, warmup_remaining=0, lam=0.5)
        with pytest.raises(sampling.SamplerError, match="variance"):
            sampling.update_online(model, 1e200)
        assert model.mu == 0.0 and model.var == 1.0

    def test_warmup_buffers_then_seeds(self):
        model = DifficultyModel(warmup_remaining=4)
        for omega in (0.0, 2.0, 4.0):
            sampling.update_online(model, omega)
            assert not model.ready
        sampling.update_online(model, 6.0)
        assert model.ready
        values = np.array([0.0, 2.0, 4.0, 6.0])
        assert model.mu == pytest.approx(values.mean())
        assert model.var == pytest.approx(values.var(ddof=1))
        assert model.warmup_buffer == []


class TestOfflineEstimate:
    def test_hand_mean_and_unbiased_variance(self):
        model = sampling.estimate_offline([0.0, 2.0])
        assert model.mu == 1.0
        assert model.var == 2.0
        assert model.ready

    def test_constant_list_floors_variance(self):
        model = sampling.estimate_offline([1.5, 1.5, 1.5])
        assert model.var == sampling.VARIANCE_FLOOR

    def test_fewer_than_two_rejected(self):
        with pytest.raises(sampling.SamplerError):
            sampling.estimate_offline([1.0])

    @pytest.mark.parametrize("values", [[5e153, -5e153], [1e300, -1e300], [1.7e308, 1.7e308]])
    def test_variance_whose_density_overflows_rejected_at_the_fit(self, values):
        # [5e153, -5e153] has the finite variance 5e307, but 2*pi*var
        # overflows, so normal_pdf could never weigh an episode.
        with pytest.raises(sampling.SamplerError, match="estimate_offline: variance"):
            sampling.estimate_offline(values)
        model = DifficultyModel(warmup_remaining=2)
        sampling.update_online(model, values[0])
        with pytest.raises(sampling.SamplerError, match="update_online: variance"):
            sampling.update_online(model, values[1])
        assert not model.ready

    def test_monte_carlo_recovery(self):
        rng = streams.stream(123, streams.STATS)
        draws = rng.normal(3.0, 2.0, size=1000)
        model = sampling.estimate_offline(draws)
        assert abs(model.mu - 3.0) < 0.2
        assert abs(model.var - 4.0) < 0.6


class TestImportanceSamplingSelfConsistency:
    def test_uniform_target_moments(self):
        # Weighting proposal draws toward the UNIFORM target must
        # reproduce the uniform distribution's mean and variance; direct
        # sampling from U[mu +- 2.58 sigma] is the oracle.
        mu, sigma = 1.7, 0.6
        model = _ready_model(mu=mu, var=sigma**2)
        scheme = SamplingScheme("uniform")
        rng = streams.stream(7, streams.STATS)
        xs = rng.normal(mu, sigma, size=100_000)
        ws = np.array([sampling.importance_weight(x, scheme, model, 0.0) for x in xs])
        weighted_mean = float((ws * xs).sum() / ws.sum())
        assert abs(weighted_mean - mu) < 0.01 * sigma
        m2 = float((ws * (xs - mu) ** 2).sum() / ws.sum())
        expected_m2 = (2 * sampling.TRUNCATION_SIGMAS * sigma) ** 2 / 12.0
        assert abs(m2 - expected_m2) / expected_m2 < 0.02

    def test_curriculum_weighted_median_sweeps_upward(self):
        mu, sigma = 0.5, 1.2
        model = _ready_model(mu=mu, var=sigma**2)
        rng = streams.stream(8, streams.STATS)
        xs = np.sort(rng.normal(mu, sigma, size=50_000))
        medians = []
        for progress in (0.0, 0.25, 0.5, 0.75, 1.0):
            scheme = SamplingScheme("curriculum")
            ws = np.array([sampling.importance_weight(x, scheme, model, progress) for x in xs])
            cdf = np.cumsum(ws) / ws.sum()
            medians.append(float(xs[np.searchsorted(cdf, 0.5)]))
        assert all(a < b for a, b in zip(medians, medians[1:]))
        assert medians[0] < mu < medians[-1]
