import copy

import numpy as np
import pytest

from microdispatch.dataio import SyntheticParams, generate_dataset, split_train_test
from microdispatch.dispatch import (
    FORECAST,
    PERFECT,
    ROUND_TOL,
    STOCHASTIC,
    ExtractionError,
    ModelBuildError,
    RealTimeContext,
    build_day_ahead,
    build_realtime,
    extract_commitment,
    extract_setpoint,
    extract_slack,
    solve_day_ahead,
)
from microdispatch.domain import (
    Commitment,
    CommittedHour,
    DayProfile,
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
    step_cost,
    step_plant,
)
from microdispatch.forecasting import LoadPvForecaster
from microdispatch.milp import MilpSolution, SolveStatus, dump_lp, solve_milp
from microdispatch.scenarios import (
    ScenarioSet,
    build_dayahead_scenarios,
    build_realtime_scenarios,
    kmeans,
)

CFG = MicrogridConfig()
TARIFF = TariffSchedule()


def flat_day(load, pv):
    return DayProfile(load_kw=np.full(24, float(load)), pv_kw=np.full(24, float(pv)))


def scenario_set(profiles, role="day-ahead"):
    n = len(profiles)
    return ScenarioSet(profiles=tuple(profiles), probabilities=np.full(n, 1.0 / n),
                       role=role)


def state_at(hour=0, soc=12500.0, dg_prev=0.0):
    return MicrogridState(hour_of_day=hour, soc_kwh=soc, soc_midnight_kwh=soc,
                          dg_prev_kw=dg_prev, dg_on=dg_prev > 0)


def point_feasible(model, x, tol=1e-6):
    if (x < np.array(model.lower) - tol).any() or (x > np.array(model.upper) + tol).any():
        return False
    for terms, rel, rhs in model.rows:
        val = sum(coef * x[idx] for idx, coef in terms)
        if rel == "<=" and val > rhs + tol:
            return False
        if rel == ">=" and val < rhs - tol:
            return False
        if rel == "=" and abs(val - rhs) > tol:
            return False
    return True


def perfect_context(day, hour=0, soc=12500.0, commitment=None, dg_prev=0.0):
    h = hour
    return RealTimeContext(
        state=state_at(h, soc, dg_prev), start_hour=h, hours=24 - h,
        commitment=commitment or Commitment.zero(),
        load_kw=day.load_kw[h:], pv_kw=day.pv_kw[h:])


class TestDayAheadBuilder:
    def test_variable_count_audit(self):
        scenarios = scenario_set([flat_day(6000, 2000)] * 3)
        model = build_day_ahead(scenarios, TARIFF, 12500.0, CFG)
        assert model.num_vars == 24 * 5 + 3 * 24 * 8

    def test_null_microgrid_all_zero_point_is_feasible(self):
        cfg = MicrogridConfig(reserve_revenue=0.0)
        scenarios = scenario_set([flat_day(0, 0)])
        model = build_day_ahead(scenarios, TARIFF, cfg.ess_energy_end, cfg)
        # the do-nothing assignment satisfies every row (SOC pinned at the floor)
        x = np.zeros(model.num_vars)
        for i, name in enumerate(model.names):
            if name.startswith("soc["):
                x[i] = cfg.ess_energy_end
        assert point_feasible(model, x)
        # the optimum itself is a net revenue: the battery arbitrages the tariff
        solution = solve_milp(model)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective <= 1e-9
        commitment = extract_commitment(solution, cfg)
        commitment.check(cfg)

    def test_surplus_microgrid_sells_and_reserves(self):
        # pv exceeds load by exactly the grid cap: sell flat out, and the
        # idle ESS headroom is all sold as down-reserve
        scenarios = scenario_set([flat_day(3000, 8000)])
        commitment, solution = solve_day_ahead(scenarios, TARIFF, 2500.0, CFG)
        assert solution.objective < 0.0
        assert np.allclose(commitment.grid_sell_kw, CFG.grid_power_cap)
        assert np.allclose(commitment.grid_buy_kw, 0.0)
        assert np.allclose(commitment.reserve_down_kw, CFG.ess_power_cap)
        assert np.allclose(commitment.reserve_up_kw, 0.0)

    def test_reserves_respect_rated_power(self):
        scenarios = scenario_set([flat_day(6000, 3000), flat_day(8000, 1000),
                                  flat_day(5000, 6000)])
        commitment, _ = solve_day_ahead(scenarios, TARIFF, 12500.0, CFG)
        assert (commitment.reserve_down_kw <= CFG.ess_power_cap + 1e-9).all()
        assert (commitment.reserve_up_kw <= CFG.ess_power_cap + 1e-9).all()

    def test_extract_requires_optimal(self):
        scenarios = scenario_set([flat_day(0, 0)])
        model = build_day_ahead(scenarios, TARIFF, 2500.0, CFG)
        bad = solve_milp(model, node_limit=0)
        if bad.status is SolveStatus.OPTIMAL:
            pytest.skip("model solved at the root; cannot produce a non-optimal status")
        with pytest.raises(ExtractionError):
            extract_commitment(bad, CFG)

    def test_scenario_length_checked(self):
        short = DayProfile(load_kw=np.zeros(24), pv_kw=np.zeros(24))
        cfg = MicrogridConfig(horizon_hours=12)
        with pytest.raises(ModelBuildError):
            build_day_ahead(scenario_set([short]), TARIFF, 12500.0, cfg)

    def test_bad_initial_soc_rejected(self):
        with pytest.raises(ModelBuildError):
            build_day_ahead(scenario_set([flat_day(0, 0)]), TARIFF, 100.0, CFG)

    def test_power_with_generator_off_rejected(self):
        with pytest.raises(ModelBuildError, match="dg_prev_kw.*dg_on"):
            build_day_ahead(scenario_set([flat_day(0, 0)]), TARIFF, 12500.0, CFG,
                            dg_prev_kw=500.0, dg_on=False)

    def test_generator_on_without_power_rejected(self):
        with pytest.raises(ModelBuildError, match="dg_on.*dg_prev_kw"):
            build_day_ahead(scenario_set([flat_day(0, 0)]), TARIFF, 12500.0, CFG,
                            dg_prev_kw=0.0, dg_on=True)

    def test_commitment_exclusivity_from_any_optimal_solution(self):
        scenarios = scenario_set([flat_day(7000, 1000), flat_day(5500, 9000),
                                  flat_day(6000, 4000)])
        commitment, _ = solve_day_ahead(scenarios, TARIFF, 12500.0, CFG)
        product = commitment.grid_buy_kw * commitment.grid_sell_kw
        assert np.allclose(product, 0.0)
        commitment.check(CFG)


class TestRealtimeBuilder:
    def test_commitment_symbols_are_not_variables(self):
        ctx = perfect_context(flat_day(6000, 2000))
        model = build_realtime(ctx, TARIFF, CFG, PERFECT)
        for name in model.names:
            assert not name.startswith(("gb[", "gs[", "rd[", "rc[", "ug["))

    def test_stochastic_shares_exactly_seven_first_hour_variables(self):
        profiles = [flat_day(6000, 1000 * i) for i in range(5)]
        ctx = RealTimeContext(
            state=state_at(0), start_hour=0, hours=24,
            commitment=Commitment.zero(),
            scenarios=scenario_set(profiles, role="real-time"),
            measured_load_kw=6100.0, measured_pv_kw=500.0)
        model = build_realtime(ctx, TARIFF, CFG, STOCHASTIC)
        shared = [n for n in model.names
                  if n in ("dg[0]", "ch[0]", "dis[0]", "uess[0]", "udg[0]",
                           "start[0]", "stop[0]")]
        assert len(shared) == 7
        # no scenario-indexed copies of the first hour exist
        assert not [n for n in model.names if n.startswith("dg[") and n.endswith(",0]")]
        # per-scenario copies exist for later hours
        assert "dg[0,1]" in model.names and "dg[4,23]" in model.names

    def test_balanced_hours_need_no_dispatch(self):
        commitment = Commitment(
            grid_buy_kw=np.full(24, 2000.0), grid_sell_kw=np.zeros(24),
            reserve_down_kw=np.zeros(24), reserve_up_kw=np.zeros(24),
            buying=np.ones(24, dtype=bool))
        day = flat_day(6000, 4000)  # load - pv == committed import
        ctx = perfect_context(day, commitment=commitment, soc=2500.0)
        model = build_realtime(ctx, TARIFF, CFG, PERFECT)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.OPTIMAL
        expected = sum(TARIFF.price(t) * 2000.0 for t in range(24))
        assert solution.objective == pytest.approx(expected, rel=1e-9)
        assert extract_setpoint(solution, CFG) == pytest.approx_setpoint_zero \
            if hasattr(pytest, "approx_setpoint_zero") else True
        sp = extract_setpoint(solution, CFG)
        assert sp.dg_kw == 0.0 and sp.ess_charge_kw == 0.0 and sp.ess_discharge_kw == 0.0

    def test_objective_equals_cost_of_full_plan(self):
        rng = np.random.default_rng(8)
        day = DayProfile(load_kw=rng.uniform(5000, 9000, 24),
                         pv_kw=np.clip(rng.uniform(-2000, 12000, 24), 0, None))
        commitment = Commitment(
            grid_buy_kw=np.where(np.arange(24) < 12, 3000.0, 0.0),
            grid_sell_kw=np.where(np.arange(24) >= 12, 1000.0, 0.0),
            reserve_down_kw=np.where(np.arange(24) >= 12, 500.0, 0.0),
            reserve_up_kw=np.where(np.arange(24) < 12, 500.0, 0.0),
            buying=np.arange(24) < 12)
        ctx = perfect_context(day, commitment=commitment, soc=15000.0)
        model = build_realtime(ctx, TARIFF, CFG, PERFECT)
        solution = solve_milp(model)
        assert solution.status is SolveStatus.OPTIMAL
        total = 0.0
        for k in range(24):
            sp_terms = dict(
                dg=solution.value(f"dg[{k}]"),
                ch=solution.value(f"ch[{k}]"),
                dis=solution.value(f"dis[{k}]"))
            from microdispatch.domain import DispatchSetpoint
            sp = DispatchSetpoint(dg_kw=max(0, sp_terms["dg"]),
                                  ess_charge_kw=max(0, sp_terms["ch"]),
                                  ess_discharge_kw=max(0, sp_terms["dis"])) \
                if min(sp_terms["ch"], sp_terms["dis"]) <= 1e-9 else None
            total += (TARIFF.price(k) * (commitment.grid_buy_kw[k] - commitment.grid_sell_kw[k])
                      - CFG.reserve_revenue * (commitment.reserve_down_kw[k]
                                               + commitment.reserve_up_kw[k])
                      + CFG.ess_unit_cost * (sp_terms["ch"] + sp_terms["dis"])
                      + CFG.dg_unit_cost * sp_terms["dg"])
        assert solution.objective == pytest.approx(total, rel=1e-6)

    def test_forecast_with_actuals_equals_perfect(self):
        rng = np.random.default_rng(9)
        day = DayProfile(load_kw=rng.uniform(5000, 9000, 24),
                         pv_kw=np.clip(rng.uniform(-2000, 12000, 24), 0, None))
        for hour in (0, 7, 18, 23):
            soc = 9000.0
            ctx_p = perfect_context(day, hour=hour, soc=soc)
            ctx_f = perfect_context(day, hour=hour, soc=soc)
            sol_p = solve_milp(build_realtime(ctx_p, TARIFF, CFG, PERFECT))
            sol_f = solve_milp(build_realtime(ctx_f, TARIFF, CFG, FORECAST))
            sp_p = extract_setpoint(sol_p, CFG)
            sp_f = extract_setpoint(sol_f, CFG)
            assert sp_p == sp_f

    def test_stochastic_with_identical_scenarios_collapses(self):
        rng = np.random.default_rng(10)
        day = DayProfile(load_kw=rng.uniform(5000, 9000, 24),
                         pv_kw=np.clip(rng.uniform(-2000, 12000, 24), 0, None))
        for hour in (0, 9, 21):
            soc = 11000.0
            ctx_f = perfect_context(day, hour=hour, soc=soc)
            sol_f = solve_milp(build_realtime(ctx_f, TARIFF, CFG, FORECAST))
            sp_f = extract_setpoint(sol_f, CFG)

            ctx_s = RealTimeContext(
                state=state_at(hour, soc), start_hour=hour, hours=24 - hour,
                commitment=Commitment.zero(),
                scenarios=scenario_set([day] * 5, role="real-time"),
                measured_load_kw=float(day.load_kw[hour]),
                measured_pv_kw=float(day.pv_kw[hour]))
            sol_s = solve_milp(build_realtime(ctx_s, TARIFF, CFG, STOCHASTIC))
            sp_s = extract_setpoint(sol_s, CFG)
            assert sp_s.dg_kw == pytest.approx(sp_f.dg_kw, abs=1e-6)
            assert sp_s.ess_charge_kw == pytest.approx(sp_f.ess_charge_kw, abs=1e-6)
            assert sp_s.ess_discharge_kw == pytest.approx(sp_f.ess_discharge_kw, abs=1e-6)

    def test_feasibility_closure_of_day_ahead_commitment(self):
        profiles = [flat_day(7000, 1000), flat_day(5500, 9000), flat_day(6000, 4000)]
        scenarios = scenario_set(profiles)
        soc0 = 12500.0
        commitment, _ = solve_day_ahead(scenarios, TARIFF, soc0, CFG)
        for profile in profiles:
            ctx = perfect_context(profile, soc=soc0, commitment=commitment)
            solution = solve_milp(build_realtime(ctx, TARIFF, CFG, PERFECT))
            assert solution.status is SolveStatus.OPTIMAL

    def test_unreachable_commitment_goes_elastic(self):
        # committed to sell the full cap all day from an empty battery at night
        commitment = Commitment(
            grid_buy_kw=np.zeros(24), grid_sell_kw=np.full(24, 5000.0),
            reserve_down_kw=np.zeros(24), reserve_up_kw=np.zeros(24),
            buying=np.zeros(24, dtype=bool))
        day = flat_day(10000, 0)
        ctx = perfect_context(day, soc=2500.0, commitment=commitment)
        base = solve_milp(build_realtime(ctx, TARIFF, CFG, PERFECT))
        assert base.status is SolveStatus.INFEASIBLE
        elastic = solve_milp(build_realtime(ctx, TARIFF, CFG, PERFECT, elastic=True))
        assert elastic.status is SolveStatus.OPTIMAL
        assert extract_slack(elastic) > 0.0

    def test_int_state_builds_the_float_model(self):
        # an int SOC or generator power is a value, never a variable index
        day = flat_day(7000, 0)
        for soc, dg_prev in ((12500, 0), (9000, 6000)):
            models = []
            for cast in (int, float):
                state = MicrogridState(hour_of_day=20, soc_kwh=cast(soc),
                                       soc_midnight_kwh=cast(soc),
                                       dg_prev_kw=cast(dg_prev), dg_on=dg_prev > 0)
                ctx = RealTimeContext(state=state, start_hour=20, hours=4,
                                      commitment=Commitment.zero(),
                                      load_kw=day.load_kw[20:], pv_kw=day.pv_kw[20:])
                models.append(dump_lp(build_realtime(ctx, TARIFF, CFG, PERFECT)))
            assert models[0] == models[1]

    def test_empty_horizon_rejected(self):
        with pytest.raises(ModelBuildError):
            RealTimeContext(state=state_at(0), start_hour=0, hours=0,
                            commitment=Commitment.zero(),
                            load_kw=np.zeros(0), pv_kw=np.zeros(0))

    def test_missing_measurement_rejected(self):
        ctx = RealTimeContext(
            state=state_at(0), start_hour=0, hours=24,
            commitment=Commitment.zero(),
            scenarios=scenario_set([flat_day(6000, 1000)] * 5, role="real-time"))
        with pytest.raises(ModelBuildError):
            build_realtime(ctx, TARIFF, CFG, STOCHASTIC)

    def test_setpoint_dg_within_capacity_window(self):
        # heavy flat load from an empty battery: a cold DG cannot cover hour
        # zero, so this is exactly the elastic path
        day = flat_day(9000, 0)
        ctx = perfect_context(day, soc=2500.0)
        solution = solve_milp(build_realtime(ctx, TARIFF, CFG, PERFECT, elastic=True))
        sp = extract_setpoint(solution, CFG)
        assert sp.dg_kw > 0
        assert CFG.dg_power_min <= sp.dg_kw <= CFG.dg_power_max
        assert sp.ess_charge_kw * sp.ess_discharge_kw == 0.0


def first_hour_solution(**values):
    """An optimal real-time solution with only first-hour values, zero by default."""
    names = ("dg[0]", "ch[0]", "dis[0]", "uess[0]", "udg[0]", "start[0]", "stop[0]")
    x = np.array([values.get(name[:-3], 0.0) for name in names])
    return MilpSolution(status=SolveStatus.OPTIMAL, objective=0.0, values=x, names=names)


class TestStartStopFlags:
    @pytest.mark.parametrize("values, flags", [
        # a start that uses a quarter of the startup ramp; the stray stop
        # value is feasible in a start hour and must not reach the plant
        (dict(udg=1.0, dg=1000.0, start=0.25, stop=0.5), (True, False)),
        # a running hour that uses part of the shutdown ramp
        (dict(udg=1.0, dg=2000.0, stop=0.3), (False, True)),
        # a shut-down
        (dict(udg=0.0, stop=1.0), (False, True)),
        # solver dust is no flag
        (dict(udg=1.0, dg=5000.0, start=0.5 * ROUND_TOL, stop=0.5 * ROUND_TOL),
         (False, False)),
    ])
    def test_flags_from_continuous_values(self, values, flags):
        sp = extract_setpoint(first_hour_solution(**values), CFG)
        assert (sp.dg_start, sp.dg_stop) == flags

    def test_plant_applies_a_plan_on_the_shutdown_ramp(self):
        # running at 8000 kW with an empty battery and 3000 kW to cover: the
        # plan drops 5000 kW, past dg_ramp_down, which only a stop allows
        day = flat_day(3000, 0)
        state = MicrogridState(hour_of_day=20, soc_kwh=CFG.ess_energy_min,
                               soc_midnight_kwh=CFG.ess_energy_min,
                               dg_prev_kw=8000.0, dg_on=True)
        commitment = Commitment.zero()
        ctx = RealTimeContext(state=state, start_hour=20, hours=4, commitment=commitment,
                              load_kw=day.load_kw[20:], pv_kw=day.pv_kw[20:])
        solution = solve_milp(build_realtime(ctx, TARIFF, CFG, PERFECT))
        sp = extract_setpoint(solution, CFG)
        assert sp.dg_kw == pytest.approx(3000.0, abs=1e-6)
        assert sp.dg_stop and not sp.dg_start
        outcome = step_plant(state, sp, commitment.hour(20), 3000.0, 0.0,
                             TARIFF.price(20), CFG)
        assert outcome.applied.dg_kw == sp.dg_kw
        assert not outcome.blackout


@pytest.fixture(scope="module")
def fitted_inputs():
    """Day-ahead scenarios, real-time heads, a warm forecaster, a test day
    and the contract-end commitment, all from the seed-42 year."""
    train, test = split_train_test(generate_dataset(SyntheticParams(seed=42)))
    day_ahead = build_dayahead_scenarios(train)
    realtime = build_realtime_scenarios(kmeans([d.load_kw for d in train], 5, seed=0),
                                        kmeans([d.pv_kw for d in train], 5, seed=1))
    forecaster = LoadPvForecaster.fresh(CFG.forecast_theta, CFG.forecast_kappa)
    commitment, _ = solve_day_ahead(day_ahead, TARIFF, CFG.ess_energy_end, CFG)
    return {"day_ahead": day_ahead, "realtime": realtime,
            "forecaster": forecaster.warm_up(train[-7:]), "day": test[0],
            "commitment": commitment}


def realtime_window(inputs, mode, hour, soc=12500.0, dg_prev=0.0):
    day = inputs["day"]
    state = state_at(hour, soc, dg_prev)
    common = dict(state=state, start_hour=hour, hours=24 - hour,
                  commitment=inputs["commitment"])
    if mode == PERFECT:
        ctx = RealTimeContext(**common, load_kw=day.load_kw[hour:], pv_kw=day.pv_kw[hour:])
    elif mode == FORECAST:
        load, pv = inputs["forecaster"].forecast_profile(hour, 24 - hour)
        load[0], pv[0] = day.load_kw[hour], day.pv_kw[hour]
        ctx = RealTimeContext(**common, load_kw=load, pv_kw=pv)
    else:
        ctx = RealTimeContext(**common, scenarios=inputs["realtime"],
                              measured_load_kw=float(day.load_kw[hour]),
                              measured_pv_kw=float(day.pv_kw[hour]))
    return build_realtime(ctx, TARIFF, CFG, mode)


def with_binary_start_stop(model):
    """A copy of `model` whose start/stop variables are binary again."""
    binary = copy.deepcopy(model)
    for idx, name in enumerate(binary.names):
        if name.startswith(("start[", "stop[")):
            binary.is_binary[idx] = True
    return binary


class TestContinuousStartStop:
    def corpus(self, inputs):
        for soc in (2500.0, 12500.0):
            yield f"day-ahead soc {soc}", build_day_ahead(inputs["day_ahead"], TARIFF, soc, CFG)
        for mode in (PERFECT, FORECAST, STOCHASTIC):
            for hour in (0, 8, 16, 22):
                yield f"{mode} hour {hour}", realtime_window(inputs, mode, hour)
                # running above dg_ramp_down: a stop needs the shutdown ramp
                yield (f"{mode} hour {hour} running",
                       realtime_window(inputs, mode, hour, soc=9000.0, dg_prev=6000.0))

    def test_binary_counts(self, fitted_inputs):
        day_ahead = build_day_ahead(fitted_inputs["day_ahead"], TARIFF, 2500.0, CFG)
        assert sum(day_ahead.is_binary) == 24 + 3 * 24 * 2
        assert sum(realtime_window(fitted_inputs, PERFECT, 0).is_binary) == 24 * 2
        # five scenarios sharing the first hour
        assert sum(realtime_window(fitted_inputs, STOCHASTIC, 0).is_binary) == 2 + 5 * 23 * 2

    def test_objectives_equal_the_binary_model(self, fitted_inputs):
        for label, model in self.corpus(fitted_inputs):
            binary = with_binary_start_stop(model)
            assert sum(binary.is_binary) > sum(model.is_binary), label
            relaxed = solve_milp(model)
            exact = solve_milp(binary)
            assert relaxed.ok and exact.ok, label
            assert relaxed.objective == pytest.approx(exact.objective, rel=1e-9, abs=0.0), label

    def test_stochastic_window_solves_bit_for_bit(self, fitted_inputs):
        model = realtime_window(fitted_inputs, STOCHASTIC, 0)
        a = solve_milp(model)
        b = solve_milp(copy.deepcopy(model))
        assert a.ok and b.ok
        assert a.objective == b.objective
        assert np.array_equal(a.values, b.values)
