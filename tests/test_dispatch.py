import copy

import numpy as np
import pytest

from microdispatch.controllers import scenario_window
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
    solve_day_ahead,
)
from microdispatch.domain import (
    Commitment,
    DayProfile,
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
    step_plant,
)
from microdispatch.forecasting import LoadPvForecaster
from microdispatch.milp import MilpSolution, SolveStatus, _Standard, solve_milp
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


def scenario_set(profiles):
    n = len(profiles)
    return ScenarioSet(profiles=tuple(profiles), probabilities=np.full(n, 1.0 / n))


def state_at(hour=0, soc=12500.0, dg_prev=0.0):
    return MicrogridState(hour_of_day=hour, soc_kwh=soc, soc_midnight_kwh=soc,
                          dg_prev_kw=dg_prev)


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


def assert_same_standard_form(a, b):
    """The two models hand the solver equal arrays, names included."""
    assert a.names == b.names
    sa, sb = _Standard(a), _Standard(b)
    assert sa.offset == sb.offset
    for field in ("c", "lb", "ub", "binaries", "rels", "rhs"):
        assert np.array_equal(getattr(sa, field), getattr(sb, field)), field
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(sa.rows, field), getattr(sb.rows, field)), field


def stochastic_context(scenarios, hour, load_kw, pv_kw, soc=12500.0, dg_prev=0.0,
                       commitment=None):
    """The stochastic window of `scenarios` at `hour` with the measurement
    (`load_kw`, `pv_kw`) in slot 0."""
    load, pv, probabilities = scenario_window(scenarios, hour, load_kw, pv_kw)
    return RealTimeContext(state=state_at(hour, soc, dg_prev), start_hour=hour,
                           hours=24 - hour, commitment=commitment or Commitment.zero(),
                           load_kw=load, pv_kw=pv, probabilities=probabilities)


def perfect_context(day, hour=0, soc=12500.0, commitment=None, dg_prev=0.0):
    h = hour
    return RealTimeContext(
        state=state_at(h, soc, dg_prev), start_hour=h, hours=24 - h,
        commitment=commitment or Commitment.zero(),
        load_kw=day.load_kw[h:], pv_kw=day.pv_kw[h:])


def assert_valid_commitment(commitment, config):
    """Each hour's mode forbids two schedules, which are exactly zero; every
    value lies in [0, cap]."""
    buying = commitment.buying
    assert (commitment.grid_sell_kw[buying] == 0.0).all()
    assert (commitment.reserve_down_kw[buying] == 0.0).all()
    assert (commitment.grid_buy_kw[~buying] == 0.0).all()
    assert (commitment.reserve_up_kw[~buying] == 0.0).all()
    for values, cap in ((commitment.grid_buy_kw, config.grid_power_cap),
                        (commitment.grid_sell_kw, config.grid_power_cap),
                        (commitment.reserve_down_kw, config.ess_power_cap),
                        (commitment.reserve_up_kw, config.ess_power_cap)):
        assert ((0.0 <= values) & (values <= cap)).all()


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
        assert_valid_commitment(extract_commitment(solution), cfg)

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
            extract_commitment(bad)

    def test_scenario_length_checked(self):
        # the builder plans 24 hours; a scenario is a DayProfile, which
        # refuses any other length
        with pytest.raises(ValueError, match="24"):
            scenario_set([DayProfile(load_kw=np.zeros(12), pv_kw=np.zeros(12))])

    def test_bad_initial_soc_rejected(self):
        with pytest.raises(ModelBuildError):
            build_day_ahead(scenario_set([flat_day(0, 0)]), TARIFF, 100.0, CFG)

    def test_commitment_exclusivity_from_any_optimal_solution(self):
        scenarios = scenario_set([flat_day(7000, 1000), flat_day(5500, 9000),
                                  flat_day(6000, 4000)])
        commitment, _ = solve_day_ahead(scenarios, TARIFF, 12500.0, CFG)
        product = commitment.grid_buy_kw * commitment.grid_sell_kw
        assert np.allclose(product, 0.0)
        assert_valid_commitment(commitment, CFG)

    def test_mode_masks_solver_dust(self):
        # a selling hour's buy value of 3e-3 kW survives rounding, and the
        # solver's residual check lets it through: the row gb - cap * ug <= 0,
        # scaled by the cap of 5000 kW, admits about 5e-3 kW. The mask still
        # zeroes it.
        names = [f"{key}[{t}]" for key in ("gb", "gs", "rd", "rc", "ug")
                 for t in range(24)]
        x = np.zeros(len(names))
        x[names.index("ug[0]"):] = 1.0  # buying at every hour ...
        x[names.index("ug[5]")] = 0.0   # ... but hour 5
        x[names.index("gb[5]")] = 3e-3
        x[names.index("gs[5]")] = 1200.0
        solution = MilpSolution(status=SolveStatus.OPTIMAL, objective=0.0, values=x,
                                columns={name: i for i, name in enumerate(names)})
        commitment = extract_commitment(solution)
        assert commitment.grid_buy_kw[5] == 0.0
        assert commitment.grid_sell_kw[5] == 1200.0
        assert list(np.flatnonzero(~commitment.buying)) == [5]
        assert_valid_commitment(commitment, CFG)


class TestRealtimeBuilder:
    def test_commitment_symbols_are_not_variables(self):
        ctx = perfect_context(flat_day(6000, 2000))
        model = build_realtime(ctx, TARIFF, CFG, PERFECT)
        for name in model.names:
            assert not name.startswith(("gb[", "gs[", "rd[", "rc[", "ug["))

    def test_stochastic_shares_exactly_seven_first_hour_variables(self):
        # the seven first-hour decisions and the SOC they leave are written
        # once; each of the five distinct scenarios chains its own later hours
        profiles = [flat_day(6000, 1000 * i) for i in range(5)]
        first_hour = ("dg[0]", "ch[0]", "dis[0]", "uess[0]", "udg[0]", "start[0]",
                      "stop[0]", "soc[0]")
        for hour in (0, 12, 22):
            ctx = stochastic_context(scenario_set(profiles), hour, 6100.0, 500.0)
            model = build_realtime(ctx, TARIFF, CFG, STOCHASTIC)
            later = 23 - hour
            assert [n for n in model.names if n in first_hour] == list(first_hour)
            # no scenario-indexed copies of the first hour exist
            assert not [n for n in model.names if n.endswith(",0]")]
            # per-scenario copies exist for later hours
            assert "dg[0,1]" in model.names and f"dg[4,{later}]" in model.names
            assert model.num_vars == 8 + 8 * 5 * later
            assert model.num_rows == 14 + 14 * 5 * later + 5
            rows = [(tuple(terms), rel, rhs) for terms, rel, rhs in model.rows]
            assert len(set(rows)) == len(rows)

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
        sp = extract_setpoint(solution, ctx.state, CFG)
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
            label = "0" if k == 0 else f"0,{k}"  # the first hour, then profile 0
            sp_terms = dict(
                dg=solution.value(f"dg[{label}]"),
                ch=solution.value(f"ch[{label}]"),
                dis=solution.value(f"dis[{label}]"))
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
            sp_p = extract_setpoint(sol_p, ctx_p.state, CFG)
            sp_f = extract_setpoint(sol_f, ctx_f.state, CFG)
            assert sp_p == sp_f

    def test_stochastic_with_identical_scenarios_collapses(self):
        # five identical heads merge into one window of probability 1, which
        # is the forecast model itself: same names, same arrays
        rng = np.random.default_rng(10)
        day = DayProfile(load_kw=rng.uniform(5000, 9000, 24),
                         pv_kw=np.clip(rng.uniform(-2000, 12000, 24), 0, None))
        for hour in (0, 9, 21):
            soc = 11000.0
            for dg_prev in (0.0, 6000.0):
                ctx_f = perfect_context(day, hour=hour, soc=soc, dg_prev=dg_prev)
                model_f = build_realtime(ctx_f, TARIFF, CFG, FORECAST)
                ctx_s = stochastic_context(scenario_set([day] * 5), hour,
                                           float(day.load_kw[hour]), float(day.pv_kw[hour]),
                                           soc, dg_prev)
                assert ctx_s.probabilities == (1.0,)
                model_s = build_realtime(ctx_s, TARIFF, CFG, STOCHASTIC)
                assert_same_standard_form(model_s, model_f)
                sp_f = extract_setpoint(solve_milp(model_f), ctx_f.state, CFG)
                assert extract_setpoint(solve_milp(model_s), ctx_s.state, CFG) == sp_f

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
        assert elastic.value("slack[0]") > 0.0

    def test_int_state_builds_the_float_model(self):
        # an int SOC or generator power is a value, never a variable index
        scenarios = scenario_set([flat_day(7000, 0), flat_day(5000, 3000)])
        for soc in (12500, 9000):
            assert_same_standard_form(
                *(build_day_ahead(scenarios, TARIFF, cast(soc), CFG) for cast in (int, float)))
        day = flat_day(7000, 0)
        for soc, dg_prev in ((12500, 0), (9000, 6000)):
            models = []
            for cast in (int, float):
                state = MicrogridState(hour_of_day=20, soc_kwh=cast(soc),
                                       soc_midnight_kwh=cast(soc),
                                       dg_prev_kw=cast(dg_prev))
                ctx = RealTimeContext(state=state, start_hour=20, hours=4,
                                      commitment=Commitment.zero(),
                                      load_kw=day.load_kw[20:], pv_kw=day.pv_kw[20:])
                models.append(build_realtime(ctx, TARIFF, CFG, PERFECT))
            assert_same_standard_form(*models)

    def test_empty_horizon_rejected(self):
        with pytest.raises(ModelBuildError):
            RealTimeContext(state=state_at(0), start_hour=0, hours=0,
                            commitment=Commitment.zero(),
                            load_kw=np.zeros(0), pv_kw=np.zeros(0))

    def test_rows_must_share_the_measurement(self):
        # the first hour is written once, so every row must hold the same
        # live values in slot 0: a load or a PV that differs is refused
        load = np.full((2, 24), 6000.0)
        pv = np.full((2, 24), 1000.0)
        common = dict(state=state_at(0), start_hour=0, hours=24,
                      commitment=Commitment.zero(), probabilities=(0.5, 0.5))
        RealTimeContext(**common, load_kw=load, pv_kw=pv)
        for which in ("load_kw", "pv_kw"):
            rows = {"load_kw": load.copy(), "pv_kw": pv.copy()}
            rows[which][1, 0] += 1.0
            with pytest.raises(ModelBuildError, match="live measurement"):
                RealTimeContext(**common, **rows)
        # later hours may differ
        load[1, 5] = 7000.0
        RealTimeContext(**common, load_kw=load, pv_kw=pv)

    def test_one_probability_per_row(self):
        common = dict(state=state_at(20), start_hour=20, hours=4,
                      commitment=Commitment.zero())
        rows = np.full((3, 4), 5000.0)
        for probabilities in ((0.5, 0.5), (0.25,) * 4):
            with pytest.raises(ModelBuildError, match="one probability per profile row"):
                RealTimeContext(**common, load_kw=rows, pv_kw=rows,
                                probabilities=probabilities)
        # a 1-D profile is one row, with the default probability 1
        ctx = RealTimeContext(**common, load_kw=rows[0], pv_kw=rows[0])
        assert ctx.load_kw.shape == (1, 4) and ctx.probabilities == (1.0,)
        with pytest.raises(ModelBuildError, match="one probability per profile row"):
            RealTimeContext(**common, load_kw=rows[0], pv_kw=rows[0],
                            probabilities=(0.5, 0.5))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ModelBuildError, match="unknown mode"):
            build_realtime(perfect_context(flat_day(6000, 1000)), TARIFF, CFG, "oracle")

    def test_setpoint_dg_within_capacity_window(self):
        # heavy flat load from an empty battery: a cold DG cannot cover hour
        # zero, so this is exactly the elastic path
        day = flat_day(9000, 0)
        ctx = perfect_context(day, soc=2500.0)
        solution = solve_milp(build_realtime(ctx, TARIFF, CFG, PERFECT, elastic=True))
        sp = extract_setpoint(solution, ctx.state, CFG)
        assert sp.dg_kw > 0
        assert CFG.dg_power_min <= sp.dg_kw <= CFG.dg_power_max
        assert sp.ess_charge_kw * sp.ess_discharge_kw == 0.0


def first_hour_solution(**values):
    """An optimal real-time solution with only first-hour values, zero by default."""
    names = ("dg[0]", "ch[0]", "dis[0]", "uess[0]", "udg[0]", "start[0]", "stop[0]")
    x = np.array([values.get(name[:-3], 0.0) for name in names])
    return MilpSolution(status=SolveStatus.OPTIMAL, objective=0.0, values=x,
                        columns={name: i for i, name in enumerate(names)})


class TestStartStopFlags:
    # flags: the generator runs at the window's boundary, and dg_stop
    @pytest.mark.parametrize("values, flags", [
        # a start that uses a quarter of the startup ramp; the stray stop
        # value is feasible in a start hour and must not reach the plant
        (dict(udg=1.0, dg=1000.0, start=0.25, stop=0.5), (False, False)),
        # a running hour that uses part of the shutdown ramp
        (dict(udg=1.0, dg=2000.0, stop=0.3), (True, True)),
        # a shut-down
        (dict(udg=0.0, stop=1.0), (True, True)),
        # solver dust is no flag
        (dict(udg=1.0, dg=5000.0, start=0.5 * ROUND_TOL, stop=0.5 * ROUND_TOL),
         (True, False)),
        # an idle hour, where the model leaves stop[0] free
        (dict(udg=0.0, stop=1.0), (False, False)),
    ])
    def test_flags_from_continuous_values(self, values, flags):
        running, stop = flags
        state = state_at(12, 12500.0, 3000.0 if running else 0.0)
        assert extract_setpoint(first_hour_solution(**values), state, CFG).dg_stop == stop

    def test_plant_applies_a_plan_on_the_shutdown_ramp(self):
        # running at 8000 kW with an empty battery and 3000 kW to cover: the
        # plan drops 5000 kW, past dg_ramp_down, which only a stop allows
        day = flat_day(3000, 0)
        state = MicrogridState(hour_of_day=20, soc_kwh=CFG.ess_energy_min,
                               soc_midnight_kwh=CFG.ess_energy_min,
                               dg_prev_kw=8000.0)
        commitment = Commitment.zero()
        ctx = RealTimeContext(state=state, start_hour=20, hours=4, commitment=commitment,
                              load_kw=day.load_kw[20:], pv_kw=day.pv_kw[20:])
        solution = solve_milp(build_realtime(ctx, TARIFF, CFG, PERFECT))
        sp = extract_setpoint(solution, state, CFG)
        assert sp.dg_kw == pytest.approx(3000.0, abs=1e-6)
        assert sp.dg_stop
        outcome = step_plant(state, sp, commitment.hour(20), 3000.0, 0.0,
                             TARIFF.price(20), CFG)
        assert outcome.ledger.dg_kw == sp.dg_kw
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


def realtime_context(inputs, mode, hour, soc=12500.0, dg_prev=0.0):
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
        ctx = stochastic_context(inputs["realtime"], hour, float(day.load_kw[hour]),
                                 float(day.pv_kw[hour]), soc, dg_prev, inputs["commitment"])
    return ctx


def realtime_window(inputs, mode, hour, soc=12500.0, dg_prev=0.0):
    return build_realtime(realtime_context(inputs, mode, hour, soc, dg_prev), TARIFF, CFG, mode)


class TestStochasticFirstHour:
    """The stochastic window is a two-stage program: one first hour, then
    each scenario's recourse on its own."""

    @pytest.mark.parametrize("hour", (0, 8, 16, 22))
    @pytest.mark.parametrize("soc, dg_prev", ((12500.0, 0.0), (9000.0, 6000.0)))
    def test_optimum_is_first_hour_plus_expected_recourse(self, fitted_inputs, hour, soc,
                                                          dg_prev):
        commitment = fitted_inputs["commitment"]
        ctx = realtime_context(fitted_inputs, STOCHASTIC, hour, soc, dg_prev)
        solution = solve_milp(build_realtime(ctx, TARIFF, CFG, STOCHASTIC))
        assert solution.ok
        dg, ch, dis = (solution.value(f"{key}[0]") for key in ("dg", "ch", "dis"))
        on = solution.value("udg[0]") > 0.5
        committed = commitment.hour(hour)
        expected = (TARIFF.price(hour) * (committed.grid_buy_kw - committed.grid_sell_kw)
                    - CFG.reserve_revenue * (committed.reserve_down_kw
                                             + committed.reserve_up_kw)
                    + CFG.dg_unit_cost * dg + CFG.ess_unit_cost * (ch + dis))
        soc_next = soc - CFG.eta_discharge * dis + CFG.eta_charge * ch
        state = MicrogridState(hour_of_day=hour + 1, soc_kwh=soc_next,
                               soc_midnight_kwh=soc_next, dg_prev_kw=dg if on else 0.0)
        assert len(ctx.probabilities) > 1
        for load, pv, prob in zip(ctx.load_kw, ctx.pv_kw, ctx.probabilities):
            recourse = RealTimeContext(state=state, start_hour=hour + 1, hours=23 - hour,
                                       commitment=commitment, load_kw=load[1:], pv_kw=pv[1:])
            tail = solve_milp(build_realtime(recourse, TARIFF, CFG, PERFECT))
            assert tail.ok
            expected += prob * tail.objective
        assert solution.objective == pytest.approx(expected, rel=1e-9, abs=0.0)

    def test_hour_23_window_is_the_perfect_one(self, fitted_inputs):
        # one hour left: every scenario holds only the measurement
        for soc, dg_prev in ((12500.0, 0.0), (9000.0, 6000.0)):
            assert_same_standard_form(
                realtime_window(fitted_inputs, STOCHASTIC, 23, soc, dg_prev),
                realtime_window(fitted_inputs, PERFECT, 23, soc, dg_prev))


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
