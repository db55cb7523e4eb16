import numpy as np
import pytest

from microdispatch.domain import (
    Commitment,
    CommittedHour,
    DayProfile,
    DispatchSetpoint,
    MicrogridConfig,
    MicrogridState,
    PowerLedger,
    TariffSchedule,
    TrajectoryError,
    advance_state,
    step_cost,
    step_plant,
    validate_trajectory,
)

CFG = MicrogridConfig()
TARIFF = TariffSchedule()


def make_state(hour=0, soc=10000.0, dg_prev=0.0):
    return MicrogridState(hour_of_day=hour, soc_kwh=soc, soc_midnight_kwh=soc,
                          dg_prev_kw=dg_prev)


def ledger(**powers):
    """A realized hour with every power zero except `powers`."""
    fields = dict.fromkeys(("load_kw", "pv_kw", "grid_buy_kw", "grid_sell_kw",
                            "reserve_down_kw", "reserve_up_kw", "dg_kw",
                            "ess_discharge_kw", "ess_charge_kw"), 0.0)
    return PowerLedger(**{**fields, **powers})


class TestStepCost:
    def test_pure_grid_buy_at_evening_peak(self):
        # import 1000 kW at the hour-20 price
        cost = step_cost(ledger(grid_buy_kw=1000.0), TARIFF.price(20), CFG)
        assert cost == pytest.approx(330.0, abs=1e-12)

    def test_all_zero_is_free(self):
        assert step_cost(ledger(), 0.144, CFG) == 0.0

    def test_mixed_terms(self):
        # -288 (sell) - 40 (reserve) + 10 (ESS) + 650 (DG) = 332
        hour = ledger(grid_sell_kw=2000.0, reserve_down_kw=1000.0,
                      dg_kw=1000.0, ess_discharge_kw=500.0)
        assert step_cost(hour, 0.144, CFG) == pytest.approx(332.0, abs=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            step_cost(ledger(grid_buy_kw=-5.0), 0.144, CFG)


class TestTypes:
    def test_config_rejects_bad_efficiency(self):
        with pytest.raises(ValueError):
            MicrogridConfig(eta_charge=1.2)
        with pytest.raises(ValueError):
            MicrogridConfig(eta_discharge=0.9)

    def test_tariff_needs_24_positive_prices(self):
        with pytest.raises(ValueError):
            TariffSchedule(hourly_price=(0.1,) * 23)
        with pytest.raises(ValueError):
            TariffSchedule(hourly_price=(0.0,) + (0.1,) * 23)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_config_fields_must_be_finite(self, value):
        for name in ("dg_unit_cost", "ess_power_cap", "forecast_kappa"):
            with pytest.raises(ValueError, match=f"^{name} must be finite$"):
                MicrogridConfig(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_tariff_prices_must_be_finite(self, value):
        with pytest.raises(ValueError, match="hour 5 must be finite"):
            TariffSchedule(hourly_price=(0.1,) * 5 + (value,) + (0.1,) * 18)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_profile_values_must_be_finite(self, value):
        flat = np.full(24, 100.0)
        for load, pv in ((np.where(np.arange(24) == 3, value, flat), flat),
                         (flat, np.where(np.arange(24) == 12, value, flat))):
            with pytest.raises(ValueError, match="must be finite"):
                DayProfile(load_kw=load, pv_kw=pv)

    def test_setpoint_complementarity(self):
        with pytest.raises(ValueError):
            DispatchSetpoint(ess_charge_kw=10.0, ess_discharge_kw=10.0)

    def test_state_dg_consistency(self):
        # the generator status is read from the previous power, which must
        # not be negative
        for dg_prev in (-500.0, float("nan")):
            with pytest.raises(ValueError, match="dg_prev_kw must be nonnegative"):
                MicrogridState(hour_of_day=0, soc_kwh=5000, soc_midnight_kwh=5000,
                               dg_prev_kw=dg_prev)
        assert not make_state(dg_prev=0.0).dg_on
        assert make_state(dg_prev=500.0).dg_on


class TestStepPlant:
    def test_discharge_soc_update(self):
        state = make_state(soc=10000.0)
        out = step_plant(state, DispatchSetpoint(ess_discharge_kw=1000.0),
                         CommittedHour(), load_kw=1000.0, pv_kw=0.0,
                         price=0.144, config=CFG)
        assert out.soc_kwh == pytest.approx(10000.0 - 1000.0 / 0.95, abs=1e-6)
        assert not out.blackout

    def test_charge_soc_update(self):
        state = make_state(soc=10000.0)
        out = step_plant(state, DispatchSetpoint(ess_charge_kw=1000.0),
                         CommittedHour(), load_kw=0.0, pv_kw=1000.0,
                         price=0.144, config=CFG)
        assert out.soc_kwh == pytest.approx(10950.0, abs=1e-9)

    def test_balanced_zero_setpoint(self):
        state = make_state(soc=10000.0)
        out = step_plant(state, DispatchSetpoint(), CommittedHour(),
                         load_kw=4000.0, pv_kw=4000.0, price=0.2, config=CFG)
        assert out.curtailed_kw == 0.0
        assert out.step_cost == 0.0
        assert not out.blackout

    def test_deficit_is_blackout_not_exception(self):
        state = make_state(soc=CFG.ess_energy_min)
        out = step_plant(state, DispatchSetpoint(), CommittedHour(),
                         load_kw=5000.0, pv_kw=0.0, price=0.2, config=CFG)
        assert out.blackout
        assert out.shortfall_kw == pytest.approx(5000.0)
        assert out.soc_kwh == pytest.approx(CFG.ess_energy_min)

    def test_surplus_is_curtailed(self):
        state = make_state(soc=CFG.ess_energy_max)
        out = step_plant(state, DispatchSetpoint(), CommittedHour(),
                         load_kw=2000.0, pv_kw=9000.0, price=0.2, config=CFG)
        assert out.curtailed_kw == pytest.approx(7000.0)
        assert not out.blackout

    def test_discharge_clipped_by_soc_floor(self):
        state = make_state(soc=CFG.ess_energy_min + 95.0)
        out = step_plant(state, DispatchSetpoint(ess_discharge_kw=8000.0),
                         CommittedHour(), load_kw=8000.0, pv_kw=0.0,
                         price=0.2, config=CFG)
        # only 95 kWh above the floor: 95 * 0.95 kW deliverable
        assert out.ledger.ess_discharge_kw == pytest.approx(95.0 * 0.95)
        assert out.soc_kwh == pytest.approx(CFG.ess_energy_min)

    def test_charge_clipped_by_reserve_headroom(self):
        state = make_state(soc=10000.0)
        committed = CommittedHour(reserve_up_kw=6000.0, buying=True)
        out = step_plant(state, DispatchSetpoint(ess_charge_kw=5000.0), committed,
                         load_kw=0.0, pv_kw=5000.0, price=0.2, config=CFG)
        assert out.ledger.ess_charge_kw == pytest.approx(2000.0)

    def test_dg_start_clamped_to_startup_ramp(self):
        state = make_state(soc=9000.0)
        out = step_plant(state, DispatchSetpoint(dg_kw=8250.0), CommittedHour(),
                         load_kw=5000.0, pv_kw=0.0, price=0.2, config=CFG)
        assert out.ledger.dg_kw == pytest.approx(CFG.dg_startup_ramp)
        assert not state.dg_on and advance_state(state, out).dg_on

    def test_dg_stop_allowed_only_under_shutdown_ramp(self):
        state = make_state(soc=21000.0, dg_prev=3000.0)
        out = step_plant(state, DispatchSetpoint(dg_kw=0.0), CommittedHour(),
                         load_kw=0.0, pv_kw=3000.0, price=0.2, config=CFG)
        assert out.ledger.dg_kw == 0.0
        assert out.dg_stop

        state = make_state(soc=21000.0, dg_prev=9000.0)
        out = step_plant(state, DispatchSetpoint(dg_kw=0.0), CommittedHour(),
                         load_kw=9000.0, pv_kw=0.0, price=0.2, config=CFG)
        assert out.ledger.dg_kw == pytest.approx(9000.0 - CFG.dg_ramp_down)
        assert not out.dg_stop

    def test_dg_run_ramp_window(self):
        state = make_state(soc=15000.0, dg_prev=5000.0)
        out = step_plant(state, DispatchSetpoint(dg_kw=11000.0), CommittedHour(),
                         load_kw=9000.0, pv_kw=0.0, price=0.2, config=CFG)
        assert out.ledger.dg_kw == pytest.approx(8000.0)

    def test_stop_flag_widens_down_ramp(self):
        state = make_state(soc=15000.0, dg_prev=10000.0)
        sp = DispatchSetpoint(dg_kw=3000.0, dg_stop=True)
        out = step_plant(state, sp, CommittedHour(), load_kw=3000.0, pv_kw=0.0,
                         price=0.2, config=CFG)
        assert out.ledger.dg_kw == pytest.approx(3000.0)
        assert out.dg_stop

    def test_stop_flag_on_an_idle_generator_is_ignored(self):
        state = make_state(soc=15000.0)
        out = step_plant(state, DispatchSetpoint(dg_stop=True), CommittedHour(),
                         load_kw=0.0, pv_kw=0.0, price=0.2, config=CFG)
        assert out.ledger.dg_kw == 0.0
        assert not out.dg_stop


def run_steps(state, decisions, commitment, loads, pvs, cfg=CFG):
    """Apply a list of setpoints through the plant, returning the trajectory."""
    steps = []
    for sp, load, pv in zip(decisions, loads, pvs):
        out = step_plant(state, sp, commitment.hour(state.hour_of_day),
                         load, pv, TARIFF.price(state.hour_of_day), cfg)
        steps.append((state, sp, out))
        state = advance_state(state, out)
    return steps


class TestValidateTrajectory:
    def test_zero_commitment_surplus_day_is_clean(self):
        commitment = Commitment.zero()
        steps = run_steps(make_state(), [DispatchSetpoint()] * 24, commitment,
                          loads=[1000.0] * 24, pvs=[1500.0] * 24)
        assert validate_trajectory(steps, [commitment], CFG) == []

    def test_blackout_hour_reports_balance_violation(self):
        commitment = Commitment.zero()
        state = make_state(soc=CFG.ess_energy_min)
        steps = run_steps(state, [DispatchSetpoint()], commitment,
                          loads=[4000.0], pvs=[0.0])
        tags = {v.constraint for v in validate_trajectory(steps, [commitment], CFG)}
        assert "power-balance" in tags

    def test_hand_built_ramp_violation(self):
        # forge an outcome whose DG jumps 5000 kW mid-run
        commitment = Commitment.zero()
        state = make_state(soc=12000.0, dg_prev=2000.0)
        good = step_plant(state, DispatchSetpoint(dg_kw=2000.0), commitment.hour(0),
                          2000.0, 0.0, TARIFF.price(0), CFG)
        forged_sp = DispatchSetpoint(dg_kw=7000.0)
        forged = step_plant(state, forged_sp, commitment.hour(0), 7000.0, 0.0,
                            TARIFF.price(0), CFG)
        object.__setattr__(forged.ledger, "dg_kw", 7000.0)
        violations = validate_trajectory([(state, forged_sp, forged)], [commitment], CFG)
        assert [v.constraint for v in violations] == ["dg-ramp-up"]
        assert violations[0].magnitude == pytest.approx(2000.0)
        # sanity: the unforged step is clean
        assert validate_trajectory([(state, DispatchSetpoint(dg_kw=2000.0), good)],
                                   [commitment], CFG) == []

    def test_stop_flag_on_an_idle_generator_is_a_finding(self):
        commitment = Commitment.zero()
        idle_stop = DispatchSetpoint(dg_stop=True)
        steps = run_steps(make_state(), [DispatchSetpoint(), idle_stop], commitment,
                          loads=[1000.0] * 2, pvs=[1500.0] * 2)
        violations = validate_trajectory(steps, [commitment], CFG)
        assert [(v.step, v.constraint) for v in violations] == [(1, "dg-stop-idle")]

    def test_stop_flag_on_a_running_generator_is_clean(self):
        commitment = Commitment.zero()
        steps = run_steps(make_state(soc=15000.0, dg_prev=10000.0),
                          [DispatchSetpoint(dg_kw=3000.0, dg_stop=True)], commitment,
                          loads=[3000.0], pvs=[0.0])
        assert steps[0][2].dg_stop
        assert validate_trajectory(steps, [commitment], CFG) == []

    def test_non_consecutive_hours_rejected(self):
        commitment = Commitment.zero()
        steps = run_steps(make_state(), [DispatchSetpoint()] * 2, commitment,
                          loads=[0.0, 0.0], pvs=[0.0, 0.0])
        with pytest.raises(TrajectoryError):
            validate_trajectory([steps[0], steps[0]], [commitment], CFG)
        with pytest.raises(TrajectoryError):
            validate_trajectory([], [commitment], CFG)

    def test_one_commitment_per_day(self):
        # two days need two commitments: the second day is checked against
        # its own, and a missing one is an error rather than a reuse of the
        # first
        zero = Commitment.zero()
        buying = Commitment(
            grid_buy_kw=np.full(24, 100.0), grid_sell_kw=np.zeros(24),
            reserve_down_kw=np.zeros(24), reserve_up_kw=np.zeros(24),
            buying=np.ones(24, dtype=bool))
        day0 = run_steps(make_state(hour=22), [DispatchSetpoint()] * 2, zero,
                         loads=[1000.0] * 2, pvs=[1500.0] * 2)
        state, _, outcome = day0[-1]
        day1 = run_steps(advance_state(state, outcome), [DispatchSetpoint()] * 2, buying,
                         loads=[1000.0] * 2, pvs=[1500.0] * 2)
        assert validate_trajectory(day0 + day1, [zero, buying], CFG) == []
        assert validate_trajectory(day0 + day1, [zero, buying, zero], CFG) == []
        with pytest.raises(TrajectoryError, match="spans 2 days but 1 commitments"):
            validate_trajectory(day0 + day1, [zero], CFG)
        with pytest.raises(TrajectoryError, match="spans 1 days but 0 commitments"):
            validate_trajectory(day0, [], CFG)

    def test_grid_adherence_checked_against_commitment(self):
        commitment = Commitment.zero()
        followed = Commitment(
            grid_buy_kw=np.full(24, 100.0), grid_sell_kw=np.zeros(24),
            reserve_down_kw=np.zeros(24), reserve_up_kw=np.zeros(24),
            buying=np.ones(24, dtype=bool))
        steps = run_steps(make_state(), [DispatchSetpoint()], followed,
                          loads=[100.0], pvs=[0.0])
        tags = {v.constraint for v in validate_trajectory(steps, [commitment], CFG)}
        assert "grid-adherence" in tags


class TestPlantProperties:
    def test_random_steps_respect_invariants(self):
        rng = np.random.default_rng(42)
        commitment = Commitment.zero()
        state = make_state(soc=12000.0)
        total_cost = 0.0
        steps = []
        for _ in range(500):
            dg_req = float(rng.uniform(0, 12000)) if rng.random() < 0.5 else 0.0
            if rng.random() < 0.5:
                sp = DispatchSetpoint(dg_kw=dg_req, ess_charge_kw=float(rng.uniform(0, 9000)))
            else:
                sp = DispatchSetpoint(dg_kw=dg_req, ess_discharge_kw=float(rng.uniform(0, 9000)))
            load = float(rng.uniform(0, 10000))
            pv = float(rng.uniform(0, 15000))
            out = step_plant(state, sp, commitment.hour(state.hour_of_day),
                             load, pv, TARIFF.price(state.hour_of_day), CFG)
            # SOC recursion is exact and bounded
            expected = (state.soc_kwh - CFG.eta_discharge * out.ledger.ess_discharge_kw
                        + CFG.eta_charge * out.ledger.ess_charge_kw)
            assert out.soc_kwh == pytest.approx(expected, rel=1e-9)
            assert CFG.ess_energy_min - 1e-9 <= out.soc_kwh <= CFG.ess_energy_max + 1e-9
            assert out.ledger.ess_charge_kw * out.ledger.ess_discharge_kw == 0.0
            assert out.ledger.ess_charge_kw <= CFG.ess_power_cap
            assert out.ledger.ess_discharge_kw <= CFG.ess_power_cap
            assert out.ledger.dg_kw <= CFG.dg_power_max
            total_cost += out.step_cost
            steps.append((state, sp, out))
            state = advance_state(state, out)
        # cost additivity
        assert total_cost == pytest.approx(sum(s[2].step_cost for s in steps), rel=1e-9)
        # the clamped trajectory never violates physics (balance may fail: the
        # random controller is allowed to black out)
        physical = {"dg-ramp-up", "dg-ramp-down", "dg-capacity", "dg-min-power",
                    "ess-power-cap", "ess-exclusive", "soc-bounds", "soc-recursion",
                    "reserve-headroom", "grid-adherence"}
        violations = validate_trajectory(steps, [commitment] * 21, CFG)  # 500 h
        assert not [v for v in violations if v.constraint in physical]
