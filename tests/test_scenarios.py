import numpy as np
import pytest

import microdispatch.scenarios as scenarios
from microdispatch.domain import DayProfile
from microdispatch.scenarios import (
    ScenarioSet,
    build_dayahead_scenarios,
    build_realtime_scenarios,
    kmeans,
)


def nearest(heads, days):
    """The index of each day's nearest head."""
    return ((np.asarray(days)[:, None, :] - heads[None, :, :]) ** 2).sum(axis=2).argmin(axis=1)


def inertia_of(heads, days):
    """Sum of squared distances of each day to its nearest head."""
    return float(((np.asarray(days) - heads[nearest(heads, days)]) ** 2).sum())


def day(load, pv):
    return DayProfile(load_kw=np.full(24, float(load)), pv_kw=np.full(24, float(pv)))


class TestKmeans:
    def test_heads_are_read_only_24_vectors(self):
        rng = np.random.default_rng(0)
        heads = kmeans(rng.uniform(0, 100, size=(12, 24)), k=3, seed=3)
        assert heads.shape == (3, 24) and heads.dtype == float
        with pytest.raises(ValueError):
            heads[0, 0] = 1.0

    def test_k1_head_is_global_mean(self):
        rng = np.random.default_rng(0)
        days = rng.uniform(0, 100, size=(12, 24))
        heads = kmeans(days, k=1, seed=3)
        assert np.allclose(heads[0], days.mean(axis=0), atol=1e-9)

    def test_two_separated_bands(self):
        rng = np.random.default_rng(1)
        low = rng.uniform(0, 2, size=(15, 24))
        high = 100.0 + rng.uniform(0, 2, size=(15, 24))
        days = np.vstack([low, high])
        heads = kmeans(days, k=2, seed=5)
        means = sorted(heads.mean(axis=1))
        assert means[0] == pytest.approx(low.mean(), abs=1.0)
        assert means[1] == pytest.approx(100.0 + 1.0, abs=1.0)
        # every day sits with its band
        assignments = nearest(heads, days)
        bands = assignments[:15], assignments[15:]
        assert len(set(bands[0])) == 1 and len(set(bands[1])) == 1
        assert bands[0][0] != bands[1][0]

    def test_determinism(self):
        rng = np.random.default_rng(2)
        days = rng.uniform(0, 50, size=(40, 24))
        a = kmeans(days, k=5, seed=9)
        b = kmeans(days.copy(), k=5, seed=9)
        assert np.array_equal(a, b)
        assert np.array_equal(nearest(a, days), nearest(b, days))
        assert inertia_of(a, days) == inertia_of(b, days)

    def test_needs_k_distinct_days(self):
        days = np.zeros((5, 24))
        with pytest.raises(ValueError):
            kmeans(days, k=2, seed=0)

    @pytest.mark.parametrize("k, seed", [(3, 11), (4, 7)])
    def test_converged_heads_are_means_of_their_nearest_days(self, k, seed):
        # Lloyd's fixed point: every head is the mean of the days nearest to it
        rng = np.random.default_rng(k)
        days = rng.uniform(0, 50, size=(30, 24))
        heads = kmeans(days, k=k, seed=seed)
        assignments = nearest(heads, days)
        for c in range(k):
            assert np.array_equal(heads[c], days[assignments == c].mean(axis=0)), c

    def test_inertia_nonincreasing_across_iterations(self, monkeypatch):
        rng = np.random.default_rng(5)
        days = rng.uniform(0, 50, size=(40, 24))
        previous = np.inf
        for iterations in range(1, 8):
            monkeypatch.setattr(scenarios, "KMEANS_ITERATIONS", iterations)
            heads = kmeans(days, k=4, seed=13)
            inertia = inertia_of(heads, days)
            assert inertia <= previous + 1e-9
            previous = inertia


class TestDayAheadScenarios:
    def test_single_day_degenerates(self):
        d = day(7000, 2000)
        s = build_dayahead_scenarios([d])
        assert len(s) == 3
        for profile in s.profiles:
            assert np.array_equal(profile.load_kw, d.load_kw)
            assert np.array_equal(profile.pv_kw, d.pv_kw)

    def test_two_band_statistics(self):
        s = build_dayahead_scenarios([day(5000, 0), day(5000, 10000)])
        assert np.allclose(s.profiles[0].pv_kw, 10000.0)
        assert np.allclose(s.profiles[1].pv_kw, 5000.0)
        assert np.allclose(s.profiles[2].pv_kw, 0.0)

    def test_pointwise_dominance(self):
        rng = np.random.default_rng(6)
        days = [DayProfile(load_kw=rng.uniform(5000, 10000, 24),
                           pv_kw=rng.uniform(0, 15000, 24)) for _ in range(40)]
        s = build_dayahead_scenarios(days)
        hi, mid, lo = s.profiles
        assert (hi.pv_kw >= mid.pv_kw - 1e-12).all()
        assert (mid.pv_kw >= lo.pv_kw - 1e-12).all()
        assert (hi.load_kw >= mid.load_kw - 1e-12).all()
        assert (mid.load_kw >= lo.load_kw - 1e-12).all()

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            build_dayahead_scenarios([])

    def test_probabilities_uniform(self):
        s = build_dayahead_scenarios([day(6000, 1000)])
        assert np.allclose(s.probabilities, 1 / 3)
        assert abs(s.probabilities.sum() - 1.0) < 1e-12


class TestRealtimeScenarios:
    def make_heads(self, seed=0):
        rng = np.random.default_rng(seed)
        load_days = rng.uniform(5000, 10000, size=(60, 24))
        pv_days = rng.uniform(0, 15000, size=(60, 24))
        return kmeans(load_days, 5, seed=1), kmeans(pv_days, 5, seed=2)

    def test_heads_sorted_by_pv_energy(self):
        s = build_realtime_scenarios(*self.make_heads())
        pv_energy = [p.pv_kw.sum() for p in s.profiles]
        assert pv_energy == sorted(pv_energy)
        load_energy = [p.load_kw.sum() for p in s.profiles]
        assert load_energy == sorted(load_energy)

    def test_probabilities_are_fifths(self):
        s = build_realtime_scenarios(*self.make_heads())
        assert np.allclose(s.probabilities, 0.2)

    def test_k_must_be_five(self):
        rng = np.random.default_rng(7)
        days = rng.uniform(0, 10, size=(20, 24))
        bad = kmeans(days, 4, seed=0)
        good = kmeans(days, 5, seed=0)
        with pytest.raises(ValueError):
            build_realtime_scenarios(bad, good)

    def test_scenario_set_validation(self):
        with pytest.raises(ValueError):
            ScenarioSet(profiles=(day(1, 1),), probabilities=np.array([0.5]))
