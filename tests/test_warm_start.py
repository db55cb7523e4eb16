"""The plans an MPC controller holds: warm starts and perfect-mode replay.

A window starts from a held plan's binaries where its data repeat the
plan's at the same clock hours: the previous hour's plan, or at a midnight
with the same commitment and boundary state an earlier day's midnight plan.
The start may change which optimal point HiGHS returns, never the optimal
window objective. In perfect mode an hour the held plan covers, with the
plant on the plan, is read off it without a solve; a state off the plan
solves. A reused controller repeats a fresh one.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest

import microdispatch.controllers as controllers
from microdispatch.controllers import (
    PLANNING_CONTRACT_END,
    PLANNING_MEASURED,
    MpcController,
    SimulationOptions,
    run_simulation,
)
from microdispatch.dataio import SyntheticParams, generate_dataset, split_train_test
from microdispatch.dispatch import (
    FORECAST,
    PERFECT,
    STOCHASTIC,
    RealTimeContext,
    build_realtime,
    extract_setpoint,
    shifted_start,
)
from microdispatch.domain import (
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
    advance_state,
    step_plant,
    validate_trajectory,
)
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


def recorded_solves(seed0, mode, monkeypatch, days=None, options=RESET):
    """(hour, model, start, solution) of every window solve of a run, by
    default in reset mode."""
    solves = []

    def recording(model, **kwargs):
        solution = solve_milp(model, **kwargs)
        # the window runs to midnight: its first row has one `dg` per hour
        hours = sum(name.startswith("dg[0") for name in model.names)
        solves.append((24 - hours, model, kwargs.get("start"), solution))
        return solution

    monkeypatch.setattr(controllers, "solve_milp", recording)
    run_simulation(controller(seed0, mode), days or seed0["days"], TARIFF, CFG,
                   seed0["scen_d"], options, commitment_cache=seed0["cache"])
    monkeypatch.undo()
    assert all(solution.ok for *_, solution in solves)  # no elastic re-solves
    return solves


def perfect_windows(seed0):
    """(hour, model, start, solution) of the perfect window of every hour of a
    reset run, built directly and started as a rolling re-solve would: from
    the previous hour's plan, and at midnight from none."""
    report = run_simulation(controller(seed0, PERFECT), seed0["days"], TARIFF, CFG,
                            seed0["scen_d"], RESET, commitment_cache=seed0["cache"])
    windows, plan = [], None
    for record in report.records:
        h = record.state.hour_of_day
        day = seed0["days"][record.day_index]
        context = RealTimeContext(state=record.state, start_hour=h, hours=24 - h,
                                  commitment=report.commitments[record.day_index],
                                  load_kw=day.load_kw[h:], pv_kw=day.pv_kw[h:])
        model = build_realtime(context, TARIFF, CFG, PERFECT)
        start = (shifted_start(model, context, *plan) or None) if h else None
        solution = solve_milp(model, start=start)
        assert solution.ok
        windows.append((h, model, start, solution))
        plan = (solution, context)
    return windows


@pytest.mark.parametrize("mode", [PERFECT, STOCHASTIC])
def test_warm_and_cold_windows_have_equal_objectives(seed0, mode, monkeypatch):
    solves = (perfect_windows(seed0) if mode == PERFECT
              else recorded_solves(seed0, mode, monkeypatch))
    # every hour but the single-hour last window gets a start; a stochastic
    # midnight gets one from the previous reset midnight's plan
    first_day, later_day = list(range(1, 23)), list(range(23))
    expected = {PERFECT: 2 * first_day, STOCHASTIC: first_day + later_day}[mode]
    assert [hour for hour, _, start, _ in solves if start] == expected
    for hour, model, start, sol in solves:
        if start:
            assert all(model.is_binary[idx] for idx in start)
            cold = solve_milp(model)
            assert sol.objective == pytest.approx(cold.objective, rel=1e-9), hour


def test_forecast_windows_get_no_start(seed0, monkeypatch):
    solves = recorded_solves(seed0, FORECAST, monkeypatch, days=seed0["days"][:1])
    assert len(solves) == 24
    assert all(start is None for _, _, start, _ in solves)


def test_start_from_another_days_plan_keeps_the_cold_objective(seed0):
    # perfect windows of one hour share their variable layout across days, so
    # day 1's start fits day 0's model: a start for the wrong data
    windows = perfect_windows(seed0)
    day0, day1 = windows[:24], windows[24:]
    for hour in (1, 6, 12, 18):
        _, model, _, _ = day0[hour]
        _, _, foreign, _ = day1[hour]
        assert foreign
        warm = solve_milp(model, start=foreign)
        cold = solve_milp(model)
        assert warm.ok
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def test_perfect_mode_solves_one_window_a_day(seed0, monkeypatch):
    # the other 23 hours of each day are read off the midnight plan
    solves = recorded_solves(seed0, PERFECT, monkeypatch)
    assert [hour for hour, *_ in solves] == [0, 0]


def test_a_state_off_the_plan_is_a_guard_hit(seed0, monkeypatch):
    day, commitment = seed0["days"][0], seed0["cache"][round(CFG.ess_energy_end, 6)]
    mpc = controller(seed0, PERFECT)
    state = MicrogridState(hour_of_day=0, soc_kwh=12500.0, soc_midnight_kwh=12500.0)
    setpoint = mpc.decide(state, day, commitment, TARIFF, CFG)
    outcome = step_plant(state, setpoint, commitment.hour(0), float(day.load_kw[0]),
                         float(day.pv_kw[0]), TARIFF.price(0), CFG)
    on_plan = advance_state(state, outcome)
    off_plan = replace(on_plan, soc_kwh=on_plan.soc_kwh + 1.0)

    solves = []

    def recording(model, **kwargs):
        solves.append(solve_milp(model, **kwargs))
        return solves[-1]

    monkeypatch.setattr(controllers, "solve_milp", recording)
    copy.copy(mpc).decide(on_plan, day, commitment, TARIFF, CFG)
    assert solves == []
    # a plan solved for other inputs is not replayed, even on its state
    copy.copy(mpc).decide(on_plan, day, commitment, TARIFF, replace(CFG))
    assert len(solves) == 1
    setpoint = mpc.decide(off_plan, day, commitment, TARIFF, CFG)
    assert len(solves) == 2
    assert setpoint == extract_setpoint(solves[1], off_plan, CFG, 0)


def test_a_carried_over_midnight_gets_no_start(seed0, monkeypatch):
    # the battery and generator carry over, so day 1's midnight window has
    # another boundary state than day 0's; in reset mode it gets a start
    solves = recorded_solves(seed0, STOCHASTIC, monkeypatch,
                             options=SimulationOptions(initial_soc_kwh=12500.0))
    assert [hour for hour, _, start, _ in solves if start] == 2 * list(range(1, 23))


def test_a_guard_hit_later_in_the_day_starts_from_the_plan_at_its_shift(seed0, monkeypatch):
    day, commitment = seed0["days"][0], seed0["cache"][round(CFG.ess_energy_end, 6)]
    solves = []

    def recording(model, **kwargs):
        solves.append((model, kwargs.get("start"), solve_milp(model, **kwargs)))
        return solves[-1][2]

    monkeypatch.setattr(controllers, "solve_milp", recording)
    mpc = controller(seed0, PERFECT)
    state = MicrogridState(hour_of_day=0, soc_kwh=12500.0, soc_midnight_kwh=12500.0)
    for hour in range(6):
        setpoint = mpc.decide(state, day, commitment, TARIFF, CFG)
        outcome = step_plant(state, setpoint, commitment.hour(hour),
                             float(day.load_kw[hour]), float(day.pv_kw[hour]),
                             TARIFF.price(hour), CFG)
        state = advance_state(state, outcome)
    assert len(solves) == 1  # hours 1-5 are replayed
    off_plan = replace(state, soc_kwh=state.soc_kwh + 1.0)
    mpc.decide(off_plan, day, commitment, TARIFF, CFG)
    assert len(solves) == 2
    (_, _, plan), (model, start, warm) = solves
    # hour k of the hour-6 window is hour k + 6 of the midnight plan
    expected = {model.index(f"{key}[0,{k}]"): plan.value(f"{key}[0,{k + 6}]")
                for k in range(1, 18) for key in ("udg", "uess")}
    assert start == expected
    assert warm.objective == pytest.approx(solve_milp(model).objective, rel=1e-9)


@pytest.fixture(scope="module")
def carry_over():
    """Days 30-39 of a 40-day seed-0 dataset, planned from days 0-29, with
    the battery and generator carried over every midnight."""
    days = generate_dataset(SyntheticParams(seed=0, days=40))
    return days[30:], build_dayahead_scenarios(days[:30])


@pytest.mark.parametrize("planning, total", [(PLANNING_CONTRACT_END, 188165.95989508345),
                                             (PLANNING_MEASURED, 189038.00745623256)])
def test_carried_over_perfect_runs_keep_the_rolling_totals(carry_over, planning, total,
                                                           monkeypatch):
    # the totals are those of a perfect controller that solved every hour
    days, scenarios = carry_over
    solves = []

    def counting(model, **kwargs):
        solves.append(model)
        return solve_milp(model, **kwargs)

    monkeypatch.setattr(controllers, "solve_milp", counting)
    report = run_simulation(MpcController(PERFECT), days, TARIFF, CFG, scenarios,
                            SimulationOptions(initial_soc_kwh=12500.0, planning_soc=planning))
    assert report.total_cost == pytest.approx(total, rel=1e-9)
    assert report.blackout_count == 0
    assert validate_trajectory(report.trajectory(), report.commitments, CFG) == []
    assert len(solves) == len(days)


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
