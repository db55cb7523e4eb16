import numpy as np
import pytest
from test_dispatch import assert_same_standard_form

import microdispatch.controllers as controllers
from microdispatch.controllers import (
    ControllerError,
    MpcController,
    RuleBasedController,
    SimulationOptions,
    compare_controllers,
    rule_based_decide,
    run_simulation,
    scenario_window,
)
from microdispatch.dataio import SyntheticParams, generate_dataset, split_train_test
from microdispatch.dispatch import (
    FORECAST,
    PERFECT,
    STOCHASTIC,
    RealTimeContext,
    build_realtime,
    extract_setpoint,
)
from microdispatch.domain import (
    CommittedHour,
    DayProfile,
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
    validate_trajectory,
)
from microdispatch.forecasting import LoadPvForecaster
from microdispatch.milp import SolverError, solve_milp
from microdispatch.scenarios import (
    ScenarioSet,
    build_dayahead_scenarios,
    build_realtime_scenarios,
    kmeans,
)

CFG = MicrogridConfig()
TARIFF = TariffSchedule()


@pytest.fixture(scope="module")
def pipeline():
    """Shared year of data plus the trained artifacts every controller needs."""
    year = generate_dataset(SyntheticParams(seed=42))
    train, test = split_train_test(year)
    scen_d = build_dayahead_scenarios(train)
    load_model = kmeans([d.load_kw for d in train], 5, seed=1)
    pv_model = kmeans([d.pv_kw for d in train], 5, seed=2)
    scen_r = build_realtime_scenarios(load_model, pv_model)
    forecaster = LoadPvForecaster.fresh(CFG.forecast_theta, CFG.forecast_kappa)
    forecaster = forecaster.warm_up(train[-40:])
    return {"train": train, "test": test, "scen_d": scen_d, "scen_r": scen_r,
            "forecaster": forecaster}


@pytest.fixture(scope="module")
def perfect_reset(pipeline):
    """Two reset-mode days of perfect MPC, and the commitment cache it filled."""
    cache = {}
    options = SimulationOptions(initial_soc_kwh=12500.0, reset_soc_kwh=12500.0)
    report = run_simulation(MpcController(PERFECT), pipeline["test"][:2], TARIFF, CFG,
                            pipeline["scen_d"], options, commitment_cache=cache)
    return report, cache


def state_at(hour=0, soc=12500.0, dg_prev=0.0):
    return MicrogridState(hour_of_day=hour, soc_kwh=soc, soc_midnight_kwh=soc,
                          dg_prev_kw=dg_prev)


def flat_day(load, pv):
    return DayProfile(load_kw=np.full(24, float(load)), pv_kw=np.full(24, float(pv)))


class TestRuleBased:
    def test_low_soc_starts_at_startup_ramp(self):
        # target is 75% of nameplate but the first hour is startup-ramp capped
        sp = rule_based_decide(state_at(soc=9000.0), 5000.0, 4800.0,
                               CommittedHour(), CFG)
        assert sp.dg_kw == pytest.approx(min(0.75 * CFG.dg_power_max,
                                             CFG.dg_startup_ramp))
        assert sp.dg_kw == pytest.approx(4000.0)
        assert not sp.dg_stop  # a start needs no flag

    def test_high_soc_stops_within_shutdown_ramp(self):
        sp = rule_based_decide(state_at(soc=21000.0, dg_prev=3000.0), 5000.0, 5000.0,
                               CommittedHour(), CFG)
        assert sp.dg_kw == 0.0
        assert sp.dg_stop

    def test_high_soc_ramps_down_when_stop_unreachable(self):
        sp = rule_based_decide(state_at(soc=21000.0, dg_prev=9000.0), 5000.0, 5000.0,
                               CommittedHour(), CFG)
        assert sp.dg_kw == pytest.approx(9000.0 - CFG.dg_ramp_down)
        assert not sp.dg_stop

    def test_dead_band_keeps_generator_off(self):
        sp = rule_based_decide(state_at(soc=15000.0), 6000.0, 1000.0,
                               CommittedHour(grid_buy_kw=5000.0), CFG)
        assert sp.dg_kw == 0.0
        assert sp.ess_discharge_kw == pytest.approx(0.0, abs=1e-9)

    def test_running_generator_tracks_big_requirement(self):
        # requirement above the 75% target pulls the setpoint up to it
        sp = rule_based_decide(state_at(soc=8000.0, dg_prev=8250.0), 10000.0, 0.0,
                               CommittedHour(), CFG)
        assert sp.dg_kw == pytest.approx(10000.0)
        assert sp.ess_discharge_kw == pytest.approx(0.0, abs=1e-9)

    def test_surplus_curtailed_to_battery_headroom(self):
        # near-full battery cannot absorb the cycle-charge surplus, so the
        # 75% target is trimmed to requirement plus what the battery takes
        state = state_at(soc=24500.0, dg_prev=5000.0)
        cfg = MicrogridConfig(dg_stop_soc=24900.0)
        sp = rule_based_decide(state, 4000.0, 0.0, CommittedHour(), cfg)
        absorb = (cfg.ess_energy_max - state.soc_kwh) / cfg.eta_charge
        assert sp.dg_kw == pytest.approx(4000.0 + absorb)
        assert sp.ess_charge_kw == pytest.approx(absorb)

    def test_ess_absorbs_residual(self):
        sp = rule_based_decide(state_at(soc=9000.0), 9000.0, 0.0,
                               CommittedHour(grid_buy_kw=5000.0), CFG)
        # deficit 4000, dg starts at 4000 -> residual 0
        assert sp.dg_kw == pytest.approx(4000.0)
        assert sp.ess_discharge_kw == pytest.approx(0.0, abs=1e-9)


class TestRunSimulation:
    def test_one_day_bookkeeping(self, pipeline):
        report = run_simulation(RuleBasedController(), pipeline["test"][:1],
                                TARIFF, CFG, pipeline["scen_d"])
        assert report.hours == 24
        assert len(report.daily_costs) == 1
        assert report.daily_costs[0] == pytest.approx(report.total_cost, rel=1e-12)
        assert report.total_cost == pytest.approx(sum(report.step_costs), rel=1e-9)

    def test_perfect_trajectory_validates_clean(self, pipeline):
        report = run_simulation(MpcController(PERFECT), pipeline["test"][:2],
                                TARIFF, CFG, pipeline["scen_d"])
        violations = validate_trajectory(report.trajectory(), report.commitments, CFG)
        assert violations == []

    def test_determinism(self, pipeline):
        kwargs = dict(days=pipeline["test"][:1], tariff=TARIFF, config=CFG,
                      day_ahead_scenarios=pipeline["scen_d"])
        a = run_simulation(RuleBasedController(), **kwargs)
        b = run_simulation(RuleBasedController(), **kwargs)
        assert np.array_equal(a.step_costs, b.step_costs)
        for ra, rb in zip(a.records, b.records):
            assert ra.outcome.soc_kwh == rb.outcome.soc_kwh
            assert ra.setpoint == rb.setpoint

    def test_commitment_adherence_exact(self, pipeline):
        report = run_simulation(RuleBasedController(), pipeline["test"][:2],
                                TARIFF, CFG, pipeline["scen_d"])
        for record in report.records:
            commitment = report.commitments[record.day_index]
            h = record.state.hour_of_day
            assert record.outcome.ledger.grid_buy_kw == commitment.grid_buy_kw[h]
            assert record.outcome.ledger.grid_sell_kw == commitment.grid_sell_kw[h]

    def test_energy_conservation_per_hour(self, pipeline):
        report = run_simulation(RuleBasedController(), pipeline["test"][:2],
                                TARIFF, CFG, pipeline["scen_d"])
        for r in report.records:
            led = r.outcome.ledger
            supply = (led.pv_kw + led.grid_buy_kw + led.dg_kw + led.ess_discharge_kw)
            use = (led.load_kw - r.outcome.shortfall_kw + led.grid_sell_kw
                   + led.ess_charge_kw + r.outcome.curtailed_kw)
            assert supply == pytest.approx(use, abs=1e-6)

    def test_reset_mode_pins_midnight_soc(self, pipeline):
        options = SimulationOptions(reset_soc_kwh=9000.0)
        report = run_simulation(RuleBasedController(), pipeline["test"][:3],
                                TARIFF, CFG, pipeline["scen_d"], options)
        midnights = [r.state.soc_kwh for r in report.records
                     if r.state.hour_of_day == 0]
        assert midnights == [9000.0] * 3

    def test_perfect_day_costs_its_hour_zero_objective(self, pipeline, perfect_reset):
        # with exact information, re-planning every hour realizes the plan
        # the midnight window already found
        report, _ = perfect_reset
        for d, day in enumerate(pipeline["test"][:2]):
            context = RealTimeContext(state=state_at(0, soc=12500.0), start_hour=0, hours=24,
                                      commitment=report.commitments[d],
                                      load_kw=day.load_kw, pv_kw=day.pv_kw)
            solution = solve_milp(build_realtime(context, TARIFF, CFG, PERFECT))
            assert solution.ok
            assert report.daily_costs[d] == pytest.approx(solution.objective, rel=1e-6)

    def test_int_state_options_cost_the_same(self, pipeline, perfect_reset):
        report, cache = perfect_reset
        options = SimulationOptions(initial_soc_kwh=12500, reset_soc_kwh=12500)
        again = run_simulation(MpcController(PERFECT), pipeline["test"][:2], TARIFF, CFG,
                               pipeline["scen_d"], options, commitment_cache=cache)
        assert np.array_equal(again.step_costs, report.step_costs)

    def test_abort_names_the_controller_day_and_hour(self, pipeline):
        class Flaky:
            kind = "flaky"

            def __init__(self):
                self.count = 0

            def decide(self, *args):
                self.count += 1
                if self.count > 30:
                    raise ControllerError("boom")
                return RuleBasedController().decide(*args)

        with pytest.raises(ControllerError) as exc_info:
            run_simulation(Flaky(), pipeline["test"][:2], TARIFF, CFG,
                           pipeline["scen_d"])
        assert str(exc_info.value) == "flaky failed at day 1 hour 6: boom"

    def test_empty_dataset_rejected(self, pipeline):
        with pytest.raises(ValueError):
            run_simulation(RuleBasedController(), [], TARIFF, CFG, pipeline["scen_d"])


def window_setpoint(context, mode):
    """The model of `context` labelled `mode`, and its optimal setpoint."""
    model = build_realtime(context, TARIFF, CFG, mode)
    solution = solve_milp(model)
    assert solution.ok
    return model, extract_setpoint(solution, context.state, CFG, 0)


class TestModeEquivalences:
    """The modes differ only in the profiles they believe: contexts built
    from the same beliefs give the same window, whatever the mode."""

    def test_forecast_with_oracle_forecaster_equals_perfect(self, pipeline, perfect_reset):
        # a forecast that is a copy of the actual day, measured hour included
        report, _ = perfect_reset
        day = pipeline["test"][0]
        for record in report.records[:24]:
            h = record.state.hour_of_day
            common = dict(state=record.state, start_hour=h, hours=24 - h,
                          commitment=report.commitments[0])
            perfect = RealTimeContext(**common, load_kw=day.load_kw[h:], pv_kw=day.pv_kw[h:])
            oracle = RealTimeContext(**common, load_kw=day.load_kw[h:].copy(),
                                     pv_kw=day.pv_kw[h:].copy())
            model_p, sp_p = window_setpoint(perfect, PERFECT)
            model_f, sp_f = window_setpoint(oracle, FORECAST)
            assert_same_standard_form(model_f, model_p)
            assert sp_f == sp_p, h

    def test_stochastic_with_identical_scenarios_equals_forecast(self, pipeline,
                                                                 perfect_reset):
        # five copies of the forecast merge into the forecast window itself
        report, _ = perfect_reset
        day = pipeline["test"][0]
        forecaster = pipeline["forecaster"]
        for record in report.records[:24]:
            h = record.state.hour_of_day
            load_now, pv_now = float(day.load_kw[h]), float(day.pv_kw[h])
            forecaster = forecaster.observe(h, load_now, pv_now)
            load, pv = forecaster.forecast_profile(h, 24 - h)
            load[0], pv[0] = load_now, pv_now
            common = dict(state=record.state, start_hour=h, hours=24 - h,
                          commitment=report.commitments[0])
            forecast = RealTimeContext(**common, load_kw=load, pv_kw=pv)
            full_load, full_pv = np.zeros(24), np.zeros(24)
            full_load[h:], full_pv[h:] = load, pv
            copies = ScenarioSet(profiles=(DayProfile(load_kw=full_load, pv_kw=full_pv),) * 5,
                                 probabilities=np.full(5, 0.2))
            rows_load, rows_pv, probabilities = scenario_window(copies, h, load_now, pv_now)
            assert probabilities == (1.0,)
            stochastic = RealTimeContext(**common, load_kw=rows_load, pv_kw=rows_pv,
                                         probabilities=probabilities)
            model_f, sp_f = window_setpoint(forecast, FORECAST)
            model_s, sp_s = window_setpoint(stochastic, STOCHASTIC)
            assert_same_standard_form(model_s, model_f)
            assert sp_s == sp_f, h


class TestScenarioWindow:
    def test_identical_heads_merge_into_one_row(self):
        a, b = flat_day(6000, 1000), flat_day(6000, 2000)
        scenarios = ScenarioSet(profiles=(a, b, a, a),
                                probabilities=np.array([0.1, 0.2, 0.3, 0.4]))
        load, pv, probabilities = scenario_window(scenarios, 5, 6100.0, 900.0)
        # the merged row stays where its first head was, with the sum in
        # head order
        assert probabilities == (0.1 + 0.3 + 0.4, 0.2)
        assert load.shape == pv.shape == (2, 19)
        assert (load[:, 0] == 6100.0).all() and (pv[:, 0] == 900.0).all()
        assert (load[:, 1:] == 6000.0).all()
        assert (pv[0, 1:] == 1000.0).all() and (pv[1, 1:] == 2000.0).all()

    def test_heads_that_differ_only_in_the_measured_hour_merge(self):
        a = flat_day(6000, 1000)
        b = DayProfile(load_kw=np.where(np.arange(24) == 7, 9000.0, 6000.0),
                       pv_kw=a.pv_kw)
        scenarios = ScenarioSet(profiles=(a, b), probabilities=np.array([0.5, 0.5]))
        assert scenario_window(scenarios, 7, 6100.0, 900.0)[2] == (1.0,)
        assert scenario_window(scenarios, 6, 6100.0, 900.0)[2] == (0.5, 0.5)

    def test_only_the_last_hour_merges_the_seed0_heads(self):
        # a one-hour window holds only the measurement, so all five heads
        # merge there and nowhere else: 6 of the 144 stochastic decisions of
        # six seed-0 days
        train, test = split_train_test(generate_dataset(SyntheticParams(seed=0)))
        scenarios = build_realtime_scenarios(kmeans([d.load_kw for d in train], 5, seed=0),
                                             kmeans([d.pv_kw for d in train], 5, seed=1))
        merged = []
        for d, day in enumerate(test[:6]):
            for h in range(24):
                load, pv, probabilities = scenario_window(
                    scenarios, h, float(day.load_kw[h]), float(day.pv_kw[h]))
                assert load.shape == pv.shape == (len(probabilities), 24 - h)
                if len(probabilities) < 5:
                    merged.append((d, h, probabilities))
        assert merged == [(d, 23, (1.0,)) for d in range(6)]


class TestCompare:
    def test_shared_commitments_and_dominance(self, pipeline):
        options = SimulationOptions(reset_soc_kwh=12500.0)
        reports, failures = compare_controllers(
            {"mpc-perfect": MpcController(PERFECT),
             "rule-based": RuleBasedController(),
             "mpc-forecast": MpcController(FORECAST, forecaster=pipeline["forecaster"]),
             "mpc-stochastic": MpcController(STOCHASTIC, scenarios=pipeline["scen_r"])},
            pipeline["test"][:2], TARIFF, CFG, pipeline["scen_d"], options)
        assert not failures
        base = reports["mpc-perfect"]
        for name, rep in reports.items():
            for ca, cb in zip(rep.commitments, base.commitments):
                assert ca is cb  # literally the same cached object
            assert rep.blackout_count == 0, name
        for name in ("rule-based", "mpc-forecast", "mpc-stochastic"):
            assert (reports[name].daily_costs
                    >= base.daily_costs - 1e-6).all(), name

    def test_an_aborted_controller_does_not_stop_the_next(self, pipeline):
        class Broken:
            kind = "broken"

            def decide(self, *args):
                raise ControllerError("boom")

        reports, failures = compare_controllers(
            {"broken": Broken(), "rule-based": RuleBasedController()},
            pipeline["test"][:1], TARIFF, CFG, pipeline["scen_d"])
        assert list(failures) == ["broken"]
        assert failures["broken"] == "broken failed at day 0 hour 0: boom"
        assert list(reports) == ["rule-based"]
        assert reports["rule-based"].hours == 24

    def test_a_solver_error_names_the_controller_and_the_next_still_runs(self, pipeline,
                                                                          monkeypatch):
        def failing(*args, **kwargs):
            raise SolverError("boom")

        monkeypatch.setattr(controllers, "solve_milp", failing)
        reports, failures = compare_controllers(
            {"mpc-perfect": MpcController(PERFECT), "rule-based": RuleBasedController()},
            pipeline["test"][:1], TARIFF, CFG, pipeline["scen_d"])
        assert failures == {"mpc-perfect": "mpc-perfect failed at day 0 hour 0: boom"}
        assert list(reports) == ["rule-based"]
        assert reports["rule-based"].hours == 24

    def test_mean_decision_seconds_recorded(self, pipeline):
        report = run_simulation(RuleBasedController(), pipeline["test"][:1],
                                TARIFF, CFG, pipeline["scen_d"])
        seconds = [r.decision_seconds for r in report.records]
        assert min(seconds) >= 0.0
        assert report.max_decision_seconds == max(seconds)
        assert report.mean_decision_seconds <= report.max_decision_seconds
        assert report.p95_decision_seconds <= report.max_decision_seconds
