"""Tests for the total-arrival estimators (Section 5.1)."""

import numpy as np
import pytest

from repro.core.estimation import (
    ArrivalEstimator,
    ConstantEstimator,
    EwmaEstimator,
    OracleTotal,
    ScaledOwnArrivals,
    make_estimator,
)


class TestScaledOwnArrivals:
    def test_paper_formula(self):
        est = ScaledOwnArrivals()
        assert est.estimate(own_arrivals=7, num_dispatchers=10) == 70.0

    def test_clamped_to_one(self):
        est = ScaledOwnArrivals()
        assert est.estimate(0, 10) == 1.0

    def test_mean_of_estimates_equals_total(self):
        """Eq. (19): the average dispatcher estimate equals true arrivals."""
        rng = np.random.default_rng(0)
        m = 8
        est = ScaledOwnArrivals()
        batches = rng.poisson(12.0, size=m)
        estimates = [est.estimate(int(b), m) for b in batches]
        if all(b >= 1 for b in batches):  # clamping only bites at zero
            assert np.mean(estimates) == pytest.approx(batches.sum())


class TestOracle:
    def test_returns_observed_total(self):
        est = OracleTotal()
        est.observe_total(42)
        assert est.estimate(3, 5) == 42.0

    def test_reset_clears_state(self):
        est = OracleTotal()
        est.observe_total(42)
        est.reset()
        assert est.estimate(3, 5) == 1.0

    def test_never_below_one(self):
        est = OracleTotal()
        est.observe_total(0)
        assert est.estimate(0, 5) == 1.0


class TestConstant:
    def test_fixed_value(self):
        est = ConstantEstimator(55.0)
        assert est.estimate(1, 2) == 55.0
        assert est.estimate(99, 2) == 55.0

    def test_rejects_below_one(self):
        with pytest.raises(ValueError):
            ConstantEstimator(0.5)


class TestEwma:
    def test_first_sample_initializes(self):
        est = EwmaEstimator(alpha=0.5)
        assert est.estimate(10, 2) == 20.0

    def test_smoothing(self):
        est = EwmaEstimator(alpha=0.5)
        est.estimate(10, 2)  # value = 20
        assert est.estimate(20, 2) == pytest.approx(0.5 * 20 + 0.5 * 40)

    def test_alpha_one_tracks_immediately(self):
        est = EwmaEstimator(alpha=1.0)
        est.estimate(10, 2)
        assert est.estimate(3, 2) == 6.0

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=1.5)

    def test_reset(self):
        est = EwmaEstimator(alpha=0.25)
        est.estimate(100, 2)
        est.reset()
        assert est.estimate(10, 2) == 20.0

    def test_estimate_ignores_other_dispatchers_batches(self):
        """Dispatchers decide independently: d's smoothed value follows
        d's own batches only, whatever the others received."""
        own = np.random.default_rng(0).integers(0, 10, size=30)
        runs = []
        for seed in (1, 2):
            est = EwmaEstimator(alpha=0.3)
            others = np.random.default_rng(seed).integers(0, 50, size=(30, 3))
            runs.append(
                [
                    est.estimate_many(np.concatenate(([a], row)), 4)[0]
                    for a, row in zip(own, others)
                ]
            )
        alone = EwmaEstimator(alpha=0.3)
        expected = [alone.estimate(int(a), 4) if a else 1.0 for a in own]
        assert runs[0] == runs[1] == expected


class TestEstimateMany:
    @pytest.mark.parametrize(
        "make", [ScaledOwnArrivals, OracleTotal, lambda: ConstantEstimator(9.0)]
    )
    def test_matches_per_dispatcher_estimates(self, make):
        batch = np.array([3, 0, 1, 7, 0])
        looped, many = make(), make()
        for est in (looped, many):
            est.observe_total(int(batch.sum()))
        expected = [
            looped.estimate(int(k), batch.size, d) if k else 1.0
            for d, k in enumerate(batch)
        ]
        out = many.estimate_many(batch, batch.size)
        assert out.dtype == np.float64
        assert out.tolist() == expected

    def test_skips_empty_batches(self):
        calls = []

        class Recording(ScaledOwnArrivals):
            def estimate(self, own_arrivals, num_dispatchers, dispatcher=0):
                calls.append((dispatcher, own_arrivals))
                return super().estimate(own_arrivals, num_dispatchers, dispatcher)

        Recording().estimate_many(np.array([2, 0, 5]), 3)  # vectorized override
        assert calls == []
        ArrivalEstimator.estimate_many(Recording(), np.array([2, 0, 5]), 3)
        assert calls == [(0, 2), (2, 5)]


class TestFactory:
    def test_names(self):
        assert isinstance(make_estimator("scaled"), ScaledOwnArrivals)
        assert isinstance(make_estimator("oracle"), OracleTotal)
        assert isinstance(make_estimator("ewma", alpha=0.5), EwmaEstimator)
        assert isinstance(make_estimator("constant", value=9), ConstantEstimator)

    def test_number_becomes_constant(self):
        est = make_estimator(25)
        assert isinstance(est, ConstantEstimator)
        assert est.value == 25.0

    def test_instance_passthrough(self):
        est = OracleTotal()
        assert make_estimator(est) is est

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_estimator("psychic")
