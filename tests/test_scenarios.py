import numpy as np
import pytest

from microdispatch.domain import DayProfile
from microdispatch.scenarios import (
    ScenarioSet,
    build_dayahead_scenarios,
    build_realtime_scenarios,
    kmeans,
)


def inertia_of(model, days):
    """Sum of squared distances of each day to its assigned head."""
    return float(((np.asarray(days) - model.heads[model.assignments]) ** 2).sum())


def day(load, pv):
    return DayProfile(load_kw=np.full(24, float(load)), pv_kw=np.full(24, float(pv)))


class TestKmeans:
    def test_k1_head_is_global_mean(self):
        rng = np.random.default_rng(0)
        days = rng.uniform(0, 100, size=(12, 24))
        model = kmeans(days, k=1, seed=3)
        assert np.allclose(model.heads[0], days.mean(axis=0), atol=1e-9)

    def test_two_separated_bands(self):
        rng = np.random.default_rng(1)
        low = rng.uniform(0, 2, size=(15, 24))
        high = 100.0 + rng.uniform(0, 2, size=(15, 24))
        days = np.vstack([low, high])
        model = kmeans(days, k=2, seed=5)
        means = sorted(model.heads.mean(axis=1))
        assert means[0] == pytest.approx(low.mean(), abs=1.0)
        assert means[1] == pytest.approx(100.0 + 1.0, abs=1.0)
        # every day sits with its band
        bands = model.assignments[:15], model.assignments[15:]
        assert len(set(bands[0])) == 1 and len(set(bands[1])) == 1
        assert bands[0][0] != bands[1][0]

    def test_determinism(self):
        rng = np.random.default_rng(2)
        days = rng.uniform(0, 50, size=(40, 24))
        a = kmeans(days, k=5, seed=9)
        b = kmeans(days.copy(), k=5, seed=9)
        assert np.array_equal(a.heads, b.heads)
        assert np.array_equal(a.assignments, b.assignments)
        assert a.inertia == b.inertia

    def test_needs_k_distinct_days(self):
        days = np.zeros((5, 24))
        with pytest.raises(ValueError):
            kmeans(days, k=2, seed=0)

    def test_inertia_matches_recomputation(self):
        rng = np.random.default_rng(3)
        days = rng.uniform(0, 50, size=(30, 24))
        model = kmeans(days, k=4, seed=7)
        assert model.inertia == pytest.approx(inertia_of(model, days), rel=1e-9)

    def test_assignment_optimality(self):
        rng = np.random.default_rng(4)
        days = rng.uniform(0, 50, size=(25, 24))
        model = kmeans(days, k=3, seed=11)
        for i, point in enumerate(days):
            own = ((point - model.heads[model.assignments[i]]) ** 2).sum()
            for c in range(model.k):
                other = ((point - model.heads[c]) ** 2).sum()
                assert own <= other + 1e-9

    def test_inertia_nonincreasing_across_iterations(self):
        rng = np.random.default_rng(5)
        days = rng.uniform(0, 50, size=(40, 24))
        previous = np.inf
        for iterations in range(1, 8):
            model = kmeans(days, k=4, seed=13, max_iterations=iterations)
            inertia = inertia_of(model, days)
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
    def make_models(self, seed=0):
        rng = np.random.default_rng(seed)
        load_days = rng.uniform(5000, 10000, size=(60, 24))
        pv_days = rng.uniform(0, 15000, size=(60, 24))
        return kmeans(load_days, 5, seed=1), kmeans(pv_days, 5, seed=2)

    def test_heads_sorted_by_pv_energy(self):
        load_m, pv_m = self.make_models()
        s = build_realtime_scenarios(load_m, pv_m)
        pv_energy = [p.pv_kw.sum() for p in s.profiles]
        assert pv_energy == sorted(pv_energy)
        load_energy = [p.load_kw.sum() for p in s.profiles]
        assert load_energy == sorted(load_energy)

    def test_probabilities_are_fifths(self):
        load_m, pv_m = self.make_models()
        s = build_realtime_scenarios(load_m, pv_m)
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
