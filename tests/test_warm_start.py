"""Warm starts of the hourly MPC windows from the previous hour's plan.

The start may change which optimal point HiGHS returns, never the optimal
window objective; it is offered only where the data of consecutive windows
repeat, and a reused controller repeats a fresh one.
"""

import numpy as np
import pytest

import microdispatch.controllers as controllers
from microdispatch.controllers import MpcController, SimulationOptions, run_simulation
from microdispatch.dataio import SyntheticParams, generate_dataset, split_train_test
from microdispatch.dispatch import FORECAST, PERFECT, STOCHASTIC
from microdispatch.domain import MicrogridConfig, TariffSchedule
from microdispatch.forecasting import LoadPvForecaster
from microdispatch.milp import solve_milp
from microdispatch.scenarios import (
    build_dayahead_scenarios,
    build_realtime_scenarios,
    kmeans,
)

CFG = MicrogridConfig()
TARIFF = TariffSchedule()
RESET = SimulationOptions(initial_soc_kwh=12500.0, reset_soc_kwh=12500.0)


@pytest.fixture(scope="module")
def seed0():
    """Two seed-0 test days, the fitted artifacts and one shared commitment."""
    train, test = split_train_test(generate_dataset(SyntheticParams(seed=0)))
    load_model = kmeans([d.load_kw for d in train], 5, seed=0)
    pv_model = kmeans([d.pv_kw for d in train], 5, seed=1)
    forecaster = LoadPvForecaster.fresh(CFG.forecast_theta, CFG.forecast_kappa)
    return {"days": test[:2], "scen_d": build_dayahead_scenarios(train),
            "scen_r": build_realtime_scenarios(load_model, pv_model),
            "forecaster": forecaster.warm_up(train[-40:]), "cache": {}}


def controller(seed0, mode):
    return MpcController(mode, forecaster=seed0["forecaster"], scenarios=seed0["scen_r"])


def recorded_solves(seed0, mode, monkeypatch, days=None):
    """(hour, model, start, solution) of every window solve of a reset run."""
    solves = []
    hours = iter(range(10 ** 6))

    def recording(model, **kwargs):
        solution = solve_milp(model, **kwargs)
        solves.append((next(hours) % 24, model, kwargs.get("start"), solution))
        return solution

    monkeypatch.setattr(controllers, "solve_milp", recording)
    run_simulation(controller(seed0, mode), days or seed0["days"], TARIFF, CFG,
                   seed0["scen_d"], RESET, commitment_cache=seed0["cache"])
    monkeypatch.undo()
    assert all(solution.ok for *_, solution in solves)  # no elastic re-solves
    return solves


@pytest.mark.parametrize("mode", [PERFECT, STOCHASTIC])
def test_warm_and_cold_windows_have_equal_objectives(seed0, mode, monkeypatch):
    solves = recorded_solves(seed0, mode, monkeypatch)
    warm = [(hour, model, start, sol) for hour, model, start, sol in solves if start]
    # every hour but midnight and the single-hour last window gets a start
    assert sorted({hour for hour, *_ in warm}) == list(range(1, 23))
    assert all(start is None for hour, _, start, _ in solves if hour == 0)
    for hour, model, start, sol in warm:
        assert all(model.is_binary[idx] for idx in start)
        cold = solve_milp(model)
        assert sol.objective == pytest.approx(cold.objective, rel=1e-9), hour


def test_forecast_windows_get_no_start(seed0, monkeypatch):
    solves = recorded_solves(seed0, FORECAST, monkeypatch, days=seed0["days"][:1])
    assert len(solves) == 24
    assert all(start is None for _, _, start, _ in solves)


def test_start_from_another_days_plan_keeps_the_cold_objective(seed0, monkeypatch):
    # perfect windows of one hour share their variable layout across days, so
    # day 1's start fits day 0's model: a start for the wrong data
    solves = recorded_solves(seed0, PERFECT, monkeypatch)
    day0, day1 = solves[:24], solves[24:]
    for hour in (1, 6, 12, 18):
        _, model, _, _ = day0[hour]
        _, _, foreign, _ = day1[hour]
        assert foreign
        warm = solve_milp(model, start=foreign)
        cold = solve_milp(model)
        assert warm.ok
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


@pytest.mark.parametrize("mode", [PERFECT, FORECAST, STOCHASTIC])
def test_reused_controller_repeats_a_fresh_one(seed0, mode):
    # the first run is a fresh object's; the second must not see the first's
    # plan, nor a forecaster that has observed its days
    reused = controller(seed0, mode)
    fresh, again = (run_simulation(reused, seed0["days"], TARIFF, CFG, seed0["scen_d"],
                                   RESET, commitment_cache=seed0["cache"])
                    for _ in range(2))
    assert np.array_equal(again.step_costs, fresh.step_costs)
    assert [r.setpoint for r in again.records] == [r.setpoint for r in fresh.records]
