import numpy as np
import pytest

from microdispatch.controllers import (
    ControllerError,
    MpcController,
    RuleBasedController,
    SimulationOptions,
    compare_controllers,
    rule_based_decide,
    run_simulation,
)
from microdispatch.dataio import SyntheticParams, generate_dataset, split_train_test
from microdispatch.dispatch import (
    FORECAST,
    PERFECT,
    STOCHASTIC,
    RealTimeContext,
    build_realtime,
)
from microdispatch.domain import (
    CommittedHour,
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
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
                          dg_prev_kw=dg_prev, dg_on=dg_prev > 0)


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


class TestModeEquivalences:
    def test_forecast_with_oracle_forecaster_equals_perfect(self, pipeline):
        day = pipeline["test"][0]

        class Oracle(MpcController):
            """Forecast-mode controller whose forecaster is clairvoyant."""

            def __init__(self):
                super().__init__(PERFECT)
                self.mode = PERFECT  # build identical models
                self.kind = "mpc-forecast-oracle"

        p = run_simulation(MpcController(PERFECT), [day], TARIFF, CFG,
                           pipeline["scen_d"])
        f = run_simulation(Oracle(), [day], TARIFF, CFG, pipeline["scen_d"])
        for rp, rf in zip(p.records, f.records):
            assert rp.setpoint == rf.setpoint

    def test_stochastic_with_identical_scenarios_equals_forecast(self, pipeline):
        day = pipeline["test"][0]
        forecaster = pipeline["forecaster"]

        f = run_simulation(MpcController(FORECAST, forecaster=forecaster),
                           [day], TARIFF, CFG, pipeline["scen_d"])

        class CollapsedStochastic(MpcController):
            """Stochastic mode fed five copies of the forecast each hour."""

            kind = "mpc-stochastic-collapsed"

            def __init__(self, fc):
                super().__init__(STOCHASTIC, scenarios=pipeline["scen_r"])
                self.fc = fc

            def decide(self, state, day, commitment, tariff, config):
                from microdispatch.dispatch import RealTimeContext, build_realtime, extract_setpoint
                from microdispatch.milp import solve_milp
                from microdispatch.scenarios import ScenarioSet
                from microdispatch.domain import DayProfile
                h = state.hour_of_day
                self.fc = self.fc.observe(h, float(day.load_kw[h]), float(day.pv_kw[h]))
                load_fc, pv_fc = self.fc.forecast_profile(h, 24 - h)
                full_load = np.zeros(24)
                full_pv = np.zeros(24)
                full_load[h:] = load_fc
                full_pv[h:] = pv_fc
                profile = DayProfile(load_kw=full_load, pv_kw=full_pv)
                scen = ScenarioSet(profiles=(profile,) * 5, probabilities=np.full(5, 0.2))
                ctx = RealTimeContext(
                    state=state, start_hour=h, hours=24 - h, commitment=commitment,
                    scenarios=scen, measured_load_kw=float(day.load_kw[h]),
                    measured_pv_kw=float(day.pv_kw[h]))
                sol = solve_milp(build_realtime(ctx, tariff, config, STOCHASTIC))
                return extract_setpoint(sol, state, config)

        s = run_simulation(CollapsedStochastic(forecaster), [day], TARIFF, CFG,
                           pipeline["scen_d"])
        for rf, rs in zip(f.records, s.records):
            assert rs.setpoint.dg_kw == pytest.approx(rf.setpoint.dg_kw, abs=1e-6)
            assert rs.setpoint.ess_charge_kw == pytest.approx(
                rf.setpoint.ess_charge_kw, abs=1e-6)
            assert rs.setpoint.ess_discharge_kw == pytest.approx(
                rf.setpoint.ess_discharge_kw, abs=1e-6)


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

    def test_mean_decision_seconds_recorded(self, pipeline):
        report = run_simulation(RuleBasedController(), pipeline["test"][:1],
                                TARIFF, CFG, pipeline["scen_d"])
        assert report.mean_decision_seconds >= 0.0
        assert all(r.decision_seconds >= 0.0 for r in report.records)
