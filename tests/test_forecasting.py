from dataclasses import replace

import numpy as np
import pytest

from microdispatch.domain import HOURS_PER_DAY, DayProfile
from microdispatch.forecasting import HISTORY_DEPTH, ColdForecasterError, LoadPvForecaster


def with_history(pairs, kappa=0.7):
    """A forecaster whose every average is 1 and whose every hour has folded
    the same (predicted, actual) `pairs`, newest first, in both series, each
    actual observed while the average equalled its prediction; its one-hour
    forecast is then the scaling factor itself."""
    f = LoadPvForecaster.fresh(0.8, kappa)
    ones = np.ones((2, HOURS_PER_DAY))
    seen = np.ones(HOURS_PER_DAY, dtype=int)
    for y, x in reversed(pairs):
        f = replace(f, averages=y * ones, observations=seen)._fold(slice(None), x * ones)
    return replace(f, averages=ones, observations=seen)


def scaling_factors(pairs, kappa=0.7):
    load, pv = with_history(pairs, kappa).forecast_profile(0, 1)
    return load[0], pv[0]


def constant_days(load=7000.0, pv=3000.0, n=30):
    pv_profile = np.zeros(HOURS_PER_DAY)
    pv_profile[6:20] = pv
    return [DayProfile(load_kw=np.full(HOURS_PER_DAY, load), pv_kw=pv_profile)
            for _ in range(n)]


def random_days(n, seed):
    rng = np.random.default_rng(seed)
    days = []
    for _ in range(n):
        pv = rng.uniform(0, 4000, HOURS_PER_DAY)
        pv[:6] = pv[20:] = 0.0
        days.append(DayProfile(load_kw=rng.uniform(3000, 9000, HOURS_PER_DAY), pv_kw=pv))
    return days


def state(f):
    return (f.averages, f.ratios, f.observations)


class TestMovingAverage:
    def test_golden_value(self):
        f = LoadPvForecaster.fresh(0.8, 0.7).observe(5, 100.0, 10.0).observe(5, 50.0, 5.0)
        assert f.averages[0, 5] == 90.0
        assert f.averages[1, 5] == 9.0

    def test_theta_one_keeps_average(self):
        f = LoadPvForecaster.fresh(1.0, 0.7).observe(2, 42.0, 4.0).observe(2, 7.0, 0.0)
        assert f.averages[:, 2].tolist() == [42.0, 4.0]

    @pytest.mark.parametrize("theta, kappa", [(0.0, 0.7), (1.5, 0.7), (0.8, 0.0), (0.8, 2.0)])
    def test_theta_and_kappa_must_be_in_0_1(self, theta, kappa):
        with pytest.raises(ValueError):
            LoadPvForecaster.fresh(theta, kappa)

    def test_result_between_inputs(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            y, x = rng.uniform(0, 100, size=2)
            theta = rng.uniform(0.01, 1)
            f = LoadPvForecaster.fresh(theta, 0.7).observe(0, y, x).observe(0, x, y)
            assert min(y, x) - 1e-12 <= f.averages[0, 0] <= max(y, x) + 1e-12
            assert min(y, x) - 1e-12 <= f.averages[1, 0] <= max(y, x) + 1e-12

    def test_five_observations_match_closed_form(self):
        theta = 0.8
        xs = [10.0, 14.0, 9.0, 20.0, 16.0]
        f = LoadPvForecaster.fresh(theta, 0.7)
        for x in xs:
            f = f.observe(7, x, 2 * x)
        # straight-line recursion, seeded with the first observation
        y = xs[0]
        for x in xs[1:]:
            y = theta * y + (1 - theta) * x
        assert f.averages[0, 7] == y
        assert f.observations[7] == 5

    def test_observing_the_average_is_a_fixed_point(self):
        f = LoadPvForecaster.fresh(0.8, 0.7).observe(5, 123.0, 45.0).observe(5, 99.0, 3.0)
        before = f.averages[:, 5].copy()
        f = f.observe(5, before[0], before[1])
        assert np.array_equal(f.averages[:, 5], before)

    def test_slot_isolation(self):
        f = LoadPvForecaster.fresh(0.8, 0.7).observe(3, 100.0, 1.0).observe(9, 50.0, 2.0)
        untouched = [h for h in range(HOURS_PER_DAY) if h not in (3, 9)]
        assert not f.averages[:, untouched].any()
        assert (f.ratios[:, untouched] == 1.0).all()
        assert not f.observations[untouched].any()


class TestScalingFactor:
    def test_perfect_history_is_one(self):
        assert scaling_factors(((50.0, 50.0), (80.0, 80.0), (10.0, 10.0))) == (1.0, 1.0)

    def test_golden_value(self):
        # ratios (2, 1, 1) newest first with kappa 0.7
        expected = (0.7 * 2 + 0.49 * 1 + 0.343 * 1) / (0.7 + 0.49 + 0.343)
        for sf in scaling_factors(((100.0, 200.0), (100.0, 100.0), (100.0, 100.0))):
            assert sf == pytest.approx(expected, abs=1e-9)
            assert sf == pytest.approx(2.233 / 1.533, abs=1e-9)

    def test_nonpositive_predictions_guarded(self):
        assert scaling_factors(((0.0, 55.0), (-3.0, 10.0), (0.0, 0.0))) == (1.0, 1.0)

    def test_missing_entries_count_as_one(self):
        assert scaling_factors(()) == (1.0, 1.0)
        for sf in scaling_factors(((100.0, 200.0),)):
            assert sf == pytest.approx((0.7 * 2 + 0.49 + 0.343) / 1.533, abs=1e-12)

    def test_invariant_under_uniform_scaling(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            history = tuple((float(rng.uniform(1, 50)), float(rng.uniform(0, 50)))
                            for _ in range(HISTORY_DEPTH))
            scale = float(rng.uniform(0.1, 10))
            scaled = tuple((y * scale, x * scale) for y, x in history)
            assert scaling_factors(scaled, 0.6) == pytest.approx(
                scaling_factors(history, 0.6), rel=1e-12)


class TestForecaster:
    def test_cold_forecaster_errors(self):
        f = LoadPvForecaster.fresh(0.8, 0.7)
        with pytest.raises(ColdForecasterError):
            f.forecast_profile(0, 4)
        with pytest.raises(ColdForecasterError):
            f.observe(0, 1.0, 1.0).observe(1, 1.0, 1.0).forecast_profile(0, 3)

    def test_constant_dataset_fixed_point(self):
        pair = LoadPvForecaster.fresh(0.8, 0.7).warm_up(constant_days(n=30))
        load_fc, pv_fc = pair.forecast_profile(0, 24)
        assert np.allclose(load_fc, 7000.0, atol=1e-9)
        assert np.allclose(pv_fc[:6], 0.0)
        assert np.allclose(pv_fc[6:20], 3000.0, atol=1e-9)

    def test_forecast_nonnegative(self):
        rng = np.random.default_rng(3)
        f = LoadPvForecaster.fresh(0.5, 0.7)
        for day in range(4):
            for h in range(24):
                f = f.observe(h, float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
        for values in f.forecast_profile(0, 24):
            assert (values >= 0).all() and np.isfinite(values).all()

    def test_two_day_ramp_matches_straight_line_reimplementation(self):
        theta, kappa = 0.8, 0.7
        loads = [[100.0 + h * 10 for h in range(24)],
                 [200.0 + h * 5 for h in range(24)],
                 [150.0 + h * 8 for h in range(24)]]
        pvs = [[max(0.0, 40.0 - abs(h - 12) * 6) for h in range(24)],
               [max(0.0, 50.0 - abs(h - 13) * 7) for h in range(24)],
               [max(0.0, 30.0 - abs(h - 11) * 4) for h in range(24)]]

        def reimplementation(days, start, length):
            # per-hour EMA seeded on day one plus newest-first ratio history,
            # exactly three entries max
            averages = [0.0] * 24
            history = [[] for _ in range(24)]
            seen = [0] * 24
            for day in days:
                for h in range(24):
                    prior = averages[h]
                    history[h].insert(0, (prior if seen[h] else 0.0, day[h]))
                    history[h] = history[h][:3]
                    averages[h] = (day[h] if seen[h] == 0
                                   else theta * prior + (1 - theta) * day[h])
                    seen[h] += 1
            num = den = 0.0
            for j in range(3):
                w = kappa ** (j + 1)
                if j < len(history[start]) and history[start][j][0] > 0:
                    num += w * history[start][j][1] / history[start][j][0]
                else:
                    num += w
                den += w
            sf = num / den
            return [max(0.0, averages[(start + k) % 24] * sf) for k in range(length)]

        f = LoadPvForecaster.fresh(theta, kappa)
        for load, pv in zip(loads, pvs):
            for h in range(24):
                f = f.observe(h, load[h], pv[h])

        for start in (0, 5, 12, 23):
            load_fc, pv_fc = f.forecast_profile(start, 6)
            assert np.array_equal(load_fc, reimplementation(loads, start, 6))
            assert np.array_equal(pv_fc, reimplementation(pvs, start, 6))

    def test_scaling_factor_adapts_within_day(self):
        # warm on sunny days, then a cloudy morning must drag the horizon down
        pair = LoadPvForecaster.fresh(0.8, 0.7).warm_up(constant_days(pv=5000.0, n=10))
        cloudy = pair.observe(8, 7000.0, 1000.0)
        sunny_fc = pair.forecast_profile(8, 6)[1]
        cloudy_fc = cloudy.forecast_profile(8, 6)[1]
        assert (cloudy_fc < sunny_fc).all()

    def test_warm_up_equals_hour_by_hour_observe(self):
        days = random_days(5, seed=4)
        warmed = LoadPvForecaster.fresh(0.8, 0.7).warm_up(days)
        observed = LoadPvForecaster.fresh(0.8, 0.7)
        for day in days:
            for h in range(HOURS_PER_DAY):
                observed = observed.observe(h, float(day.load_kw[h]), float(day.pv_kw[h]))
        for a, b in zip(state(warmed), state(observed)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_observe_leaves_the_receiver_unchanged(self):
        f = LoadPvForecaster.fresh(0.8, 0.7).warm_up(random_days(2, seed=5))
        before = [a.copy() for a in state(f)]
        f.observe(4, 1.0, 2.0)
        f.warm_up(random_days(1, seed=6))
        for a, b in zip(state(f), before):
            assert np.array_equal(a, b)

    def test_state_is_read_only(self):
        f = LoadPvForecaster.fresh(0.8, 0.7).observe(0, 1.0, 2.0)
        for array in state(f):
            with pytest.raises(ValueError):
                array[0] = 5

    def test_forecast_profile_returns_new_arrays(self):
        f = LoadPvForecaster.fresh(0.8, 0.7).warm_up(constant_days(n=2))
        first = f.forecast_profile(3, 5)
        expected = [a.copy() for a in first]
        for array in first:
            array[:] = -1.0
        for a, b in zip(f.forecast_profile(3, 5), expected):
            assert np.array_equal(a, b)
