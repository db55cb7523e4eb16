"""Microgrid domain types, per-step cost accounting, and the plant simulator.

All quantities are hourly: the time step is exactly one hour, so kW and kWh
are numerically interchangeable within a step. Every type here is an
immutable value; `step_plant` is a pure function, so trajectories can be
evaluated concurrently without shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

HOURS_PER_DAY = 24

# Feasibility tolerance used by the trajectory validator (kW / kWh).
VALIDATION_TOL = 1e-6


@dataclass(frozen=True)
class MicrogridConfig:
    """Physical and economic parameters of the microgrid."""

    grid_power_cap: float = 5000.0          # kW, max import/export
    ess_energy_max: float = 25000.0         # kWh
    ess_energy_min: float = 2500.0          # kWh
    ess_energy_end: float = 2500.0          # kWh, contracted end-of-window SOC
    ess_power_cap: float = 8000.0           # kW, rated charge/discharge power
    eta_discharge: float = 1.0 / 0.95       # kWh drawn per kWh delivered
    eta_charge: float = 0.95                # kWh stored per kWh absorbed
    reserve_revenue: float = 0.04           # $/kWh
    ess_unit_cost: float = 0.02             # $/kWh of throughput
    dg_power_max: float = 11000.0           # kW
    dg_power_min: float = 1000.0            # kW, minimum stable power
    dg_ramp_up: float = 3000.0              # kW/h while running
    dg_ramp_down: float = 3000.0            # kW/h while running
    dg_startup_ramp: float = 4000.0         # kW, cap on the first hour after start
    dg_shutdown_ramp: float = 4000.0        # kW, max power from which a stop is allowed
    dg_unit_cost: float = 0.65              # $/kWh
    dg_start_soc: float = 10000.0           # kWh, rule-based start threshold
    dg_stop_soc: float = 20000.0            # kWh, rule-based stop threshold
    forecast_kappa: float = 0.7
    forecast_theta: float = 0.8
    drl_cost_weight: float = 1.0 / 1000.0
    drl_blackout_weight: float = 100.0
    drl_action_count: int = 40

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if not (0.0 < self.eta_charge <= 1.0):
            raise ValueError(f"eta_charge must be in (0, 1], got {self.eta_charge}")
        if self.eta_discharge < 1.0:
            raise ValueError(f"eta_discharge must be >= 1, got {self.eta_discharge}")
        if not (self.ess_energy_min <= self.ess_energy_end <= self.ess_energy_max):
            raise ValueError("ESS energy bounds must satisfy min <= end <= max")
        if not (0.0 < self.dg_power_min <= self.dg_power_max):
            raise ValueError("DG power bounds must satisfy 0 < min <= max")
        for name in ("grid_power_cap", "ess_power_cap", "dg_ramp_up", "dg_ramp_down",
                     "dg_startup_ramp", "dg_shutdown_ramp", "dg_unit_cost",
                     "ess_unit_cost", "reserve_revenue"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if not (0.0 < self.forecast_theta <= 1.0):
            raise ValueError("forecast_theta must be in (0, 1]")
        if not (0.0 < self.forecast_kappa <= 1.0):
            raise ValueError("forecast_kappa must be in (0, 1]")
        if self.drl_action_count < 2:
            raise ValueError("drl_action_count must be at least 2")


#: Hour-of-day import/export price, $/kWh.
DEFAULT_HOURLY_PRICES = (
    0.144, 0.151, 0.142, 0.130, 0.117, 0.116, 0.121, 0.136,
    0.138, 0.144, 0.198, 0.144, 0.144, 0.144, 0.144, 0.150,
    0.210, 0.197, 0.240, 0.321, 0.330, 0.315, 0.244, 0.260,
)


@dataclass(frozen=True)
class TariffSchedule:
    """Hour-of-day grid exchange price."""

    hourly_price: tuple = DEFAULT_HOURLY_PRICES

    def __post_init__(self):
        object.__setattr__(self, "hourly_price", tuple(float(p) for p in self.hourly_price))
        if len(self.hourly_price) != HOURS_PER_DAY:
            raise ValueError(f"tariff needs {HOURS_PER_DAY} prices, got {len(self.hourly_price)}")
        for h, p in enumerate(self.hourly_price):
            if not math.isfinite(p):
                raise ValueError(f"tariff price at hour {h} must be finite, got {p}")
        if any(p <= 0 for p in self.hourly_price):
            raise ValueError("all tariff prices must be strictly positive")

    def price(self, hour: int) -> float:
        return self.hourly_price[hour % HOURS_PER_DAY]


@dataclass(frozen=True)
class DayProfile:
    """One day of hourly load and PV power."""

    load_kw: np.ndarray
    pv_kw: np.ndarray

    def __post_init__(self):
        load = np.asarray(self.load_kw, dtype=float)
        pv = np.asarray(self.pv_kw, dtype=float)
        if load.shape != (HOURS_PER_DAY,) or pv.shape != (HOURS_PER_DAY,):
            raise ValueError("profiles need exactly 24 hourly slots")
        if not (np.isfinite(load).all() and np.isfinite(pv).all()):
            raise ValueError("load and pv must be finite")
        if (load < 0).any() or (pv < 0).any():
            raise ValueError("load and pv must be nonnegative")
        load.setflags(write=False)
        pv.setflags(write=False)
        object.__setattr__(self, "load_kw", load)
        object.__setattr__(self, "pv_kw", pv)


@dataclass(frozen=True)
class CommittedHour:
    """The four day-ahead values binding at one hour, plus the buy/sell mode."""

    grid_buy_kw: float = 0.0
    grid_sell_kw: float = 0.0
    reserve_down_kw: float = 0.0
    reserve_up_kw: float = 0.0
    buying: bool = True


@dataclass(frozen=True)
class Commitment:
    """Day-ahead schedules fixed by stage one and binding in real time."""

    grid_buy_kw: np.ndarray
    grid_sell_kw: np.ndarray
    reserve_down_kw: np.ndarray
    reserve_up_kw: np.ndarray
    buying: np.ndarray  # per-hour buy/sell mode committed alongside the schedules

    def __post_init__(self):
        for name in ("grid_buy_kw", "grid_sell_kw", "reserve_down_kw", "reserve_up_kw"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (HOURS_PER_DAY,):
                raise ValueError(f"{name} needs 24 hourly values")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        buying = np.asarray(self.buying, dtype=bool)
        if buying.shape != (HOURS_PER_DAY,):
            raise ValueError("buying needs 24 hourly values")
        buying.setflags(write=False)
        object.__setattr__(self, "buying", buying)

    @classmethod
    def zero(cls) -> "Commitment":
        z = np.zeros(HOURS_PER_DAY)
        return cls(z, z.copy(), z.copy(), z.copy(), np.ones(HOURS_PER_DAY, dtype=bool))

    def hour(self, h: int) -> CommittedHour:
        h = h % HOURS_PER_DAY
        return CommittedHour(
            grid_buy_kw=float(self.grid_buy_kw[h]),
            grid_sell_kw=float(self.grid_sell_kw[h]),
            reserve_down_kw=float(self.reserve_down_kw[h]),
            reserve_up_kw=float(self.reserve_up_kw[h]),
            buying=bool(self.buying[h]),
        )

    def check(self, config: MicrogridConfig) -> None:
        """Raise if any committed hour breaks the grid/reserve contract rules,
        by more than `VALIDATION_TOL`."""
        for h in range(HOURS_PER_DAY):
            ch = self.hour(h)
            if min(ch.grid_buy_kw, ch.grid_sell_kw) > VALIDATION_TOL:
                raise ValueError(f"hour {h}: buy and sell both nonzero")
            for v, cap in ((ch.grid_buy_kw, config.grid_power_cap),
                           (ch.grid_sell_kw, config.grid_power_cap)):
                if not (-VALIDATION_TOL <= v <= cap + VALIDATION_TOL):
                    raise ValueError(f"hour {h}: grid value {v} outside [0, {cap}]")
            if min(ch.reserve_down_kw, ch.reserve_up_kw) < -VALIDATION_TOL:
                raise ValueError(f"hour {h}: negative reserve")
            if ch.buying and ch.reserve_down_kw > VALIDATION_TOL:
                raise ValueError(f"hour {h}: down-reserve scheduled in a buying hour")
            if not ch.buying and ch.reserve_up_kw > VALIDATION_TOL:
                raise ValueError(f"hour {h}: up-reserve scheduled in a selling hour")


@dataclass(frozen=True)
class MicrogridState:
    """Coupling state between hourly steps; the generator is on iff dg_prev_kw > 0."""

    hour_of_day: int
    soc_kwh: float
    soc_midnight_kwh: float
    dg_prev_kw: float = 0.0

    def __post_init__(self):
        if not (0 <= self.hour_of_day < HOURS_PER_DAY):
            raise ValueError("hour_of_day must be in 0..23")
        if not self.dg_prev_kw >= 0:
            raise ValueError(f"dg_prev_kw must be nonnegative, got {self.dg_prev_kw}")

    @property
    def dg_on(self) -> bool:
        return self.dg_prev_kw > 0


@dataclass(frozen=True)
class DispatchSetpoint:
    """Controllable per-hour decisions: DG power and one-sided ESS power.

    The stop flag lets a running generator use its shutdown ramp. A start
    needs no flag."""

    dg_kw: float = 0.0
    ess_charge_kw: float = 0.0
    ess_discharge_kw: float = 0.0
    dg_stop: bool = False

    def __post_init__(self):
        if min(self.dg_kw, self.ess_charge_kw, self.ess_discharge_kw) < 0:
            raise ValueError("setpoint powers must be nonnegative")
        if self.ess_charge_kw > 0 and self.ess_discharge_kw > 0:
            raise ValueError("ESS cannot charge and discharge in the same hour")


@dataclass(frozen=True)
class PowerLedger:
    """Per-source power bookkeeping for one realized hour (all kW)."""

    load_kw: float
    pv_kw: float
    grid_buy_kw: float
    grid_sell_kw: float
    reserve_down_kw: float
    reserve_up_kw: float
    dg_kw: float
    ess_discharge_kw: float
    ess_charge_kw: float


@dataclass(frozen=True)
class StepOutcome:
    """The plant's realized response to one setpoint: the powers applied are
    in `ledger`, and `dg_stop` is the stop flag applied."""

    dg_stop: bool
    soc_kwh: float
    step_cost: float
    curtailed_kw: float
    blackout: bool
    shortfall_kw: float
    ledger: PowerLedger


def step_cost(ledger: PowerLedger, price: float, config: MicrogridConfig) -> float:
    """One-hour operation cost of a realized ledger.

    Grid revenue and reserve revenue enter negatively, so the result may be
    negative (a net-revenue hour).
    """
    values = (ledger.dg_kw, ledger.ess_charge_kw, ledger.ess_discharge_kw,
              ledger.grid_buy_kw, ledger.grid_sell_kw,
              ledger.reserve_down_kw, ledger.reserve_up_kw)
    if min(values) < 0:
        raise ValueError(f"negative power in cost evaluation: {values}")
    return (price * (ledger.grid_buy_kw - ledger.grid_sell_kw)
            - config.reserve_revenue * (ledger.reserve_down_kw + ledger.reserve_up_kw)
            + config.ess_unit_cost * (ledger.ess_discharge_kw + ledger.ess_charge_kw)
            + config.dg_unit_cost * ledger.dg_kw)


def clamp_dg(state: MicrogridState, setpoint: DispatchSetpoint,
             config: MicrogridConfig) -> tuple[float, bool]:
    """Clip the DG request into the feasible start/run/stop window.

    Returns (applied_kw, stopped). An idle generator asked for power starts.
    A stop flag on a running setpoint widens the down-ramp window by the
    shutdown ramp, which the dispatch models may legitimately schedule; an
    idle generator ignores it. Discrete decisions get a 1e-6 kW tolerance so
    solver-rounded plans at exactly-tight limits are honored rather than
    derailed.
    """
    req = setpoint.dg_kw
    prev = state.dg_prev_kw
    if state.dg_on:
        if req <= 0.0:
            if prev <= config.dg_shutdown_ramp + VALIDATION_TOL:
                return 0.0, True
            # cannot stop from this power level: stay on, ramp down
            return max(config.dg_power_min, prev - config.dg_ramp_down), False
        down = config.dg_ramp_down + (config.dg_shutdown_ramp if setpoint.dg_stop else 0.0)
        lo = max(config.dg_power_min, prev - down)
        hi = min(config.dg_power_max, prev + config.dg_ramp_up)
        return min(max(req, lo), hi), bool(setpoint.dg_stop)
    if req <= 0.0:
        return 0.0, False
    hi = min(config.dg_power_max, config.dg_startup_ramp)
    return min(max(req, config.dg_power_min), hi), False


def generator_setpoint(state: MicrogridState, dg_request_kw: float,
                       load_kw: float, pv_kw: float, committed: CommittedHour,
                       config: MicrogridConfig, stop: bool) -> DispatchSetpoint:
    """Clamp the generator request into its ramp window, with `stop` as its
    stop flag; the battery takes the residual `load - pv - (buy - sell) - dg`,
    discharging when it is positive and charging when it is negative."""
    probe = DispatchSetpoint(dg_kw=max(dg_request_kw, 0.0), dg_stop=stop)
    dg_kw, stopped = clamp_dg(state, probe, config)
    residual = load_kw - pv_kw - (committed.grid_buy_kw - committed.grid_sell_kw) - dg_kw
    return DispatchSetpoint(dg_kw=dg_kw,
                            ess_discharge_kw=max(residual, 0.0),
                            ess_charge_kw=max(-residual, 0.0),
                            dg_stop=stopped)


def step_plant(state: MicrogridState, setpoint: DispatchSetpoint,
               committed: CommittedHour, load_kw: float, pv_kw: float,
               price: float, config: MicrogridConfig) -> StepOutcome:
    """Realize one hour of operation against actual load and PV.

    Infeasible setpoints are clamped rather than rejected: DG first (ramp
    window, then capacity), then ESS power against the rated power net of the
    committed reserve headroom, then ESS energy against the SOC bounds. Any
    remaining surplus is curtailed; any remaining deficit is a blackout. The
    SOC is always advanced with the powers actually applied, and the step
    cost accrues for those powers.
    """
    dg_kw, stopped = clamp_dg(state, setpoint, config)

    discharge = setpoint.ess_discharge_kw
    charge = setpoint.ess_charge_kw
    # rated power net of the reserve committed this hour
    discharge = min(discharge, max(0.0, config.ess_power_cap - committed.reserve_down_kw))
    charge = min(charge, max(0.0, config.ess_power_cap - committed.reserve_up_kw))
    # energy headroom
    discharge = min(discharge, max(0.0, (state.soc_kwh - config.ess_energy_min) / config.eta_discharge))
    charge = min(charge, max(0.0, (config.ess_energy_max - state.soc_kwh) / config.eta_charge))

    soc = state.soc_kwh - config.eta_discharge * discharge + config.eta_charge * charge

    residual = (pv_kw + committed.grid_buy_kw - committed.grid_sell_kw
                + discharge - charge + dg_kw - load_kw)
    curtailed = max(0.0, residual)
    shortfall = max(0.0, -residual)
    blackout = shortfall > VALIDATION_TOL

    ledger = PowerLedger(
        load_kw=load_kw, pv_kw=pv_kw,
        grid_buy_kw=committed.grid_buy_kw, grid_sell_kw=committed.grid_sell_kw,
        reserve_down_kw=committed.reserve_down_kw, reserve_up_kw=committed.reserve_up_kw,
        dg_kw=dg_kw, ess_discharge_kw=discharge, ess_charge_kw=charge,
    )
    return StepOutcome(dg_stop=stopped, soc_kwh=soc,
                       step_cost=step_cost(ledger, price, config),
                       curtailed_kw=curtailed, blackout=blackout,
                       shortfall_kw=shortfall, ledger=ledger)


def advance_state(state: MicrogridState, outcome: StepOutcome) -> MicrogridState:
    """Next-hour state implied by a realized step."""
    next_hour = (state.hour_of_day + 1) % HOURS_PER_DAY
    dg_kw = outcome.ledger.dg_kw
    soc_midnight = outcome.soc_kwh if next_hour == 0 else state.soc_midnight_kwh
    return MicrogridState(
        hour_of_day=next_hour,
        soc_kwh=outcome.soc_kwh,
        soc_midnight_kwh=soc_midnight,
        dg_prev_kw=dg_kw if dg_kw > 0 else 0.0,
    )


@dataclass(frozen=True)
class Violation:
    """One constraint breach found in a realized trajectory."""

    step: int
    hour_of_day: int
    constraint: str
    magnitude: float


class TrajectoryError(ValueError):
    """Structurally malformed trajectory (not a constraint violation)."""


TrajectoryStep = tuple[MicrogridState, DispatchSetpoint, StepOutcome]


def validate_trajectory(trajectory: Sequence[TrajectoryStep],
                        commitments: Sequence[Commitment],
                        config: MicrogridConfig) -> list[Violation]:
    """Check every physical and contractual constraint over a realized run.

    Returns one Violation per breached constraint-hour; an empty list means
    the whole trajectory is feasible within `VALIDATION_TOL`. Hours must be
    consecutive. Grid adherence is checked against each day's own entry of
    `commitments`, one per day from the first; a trajectory that spans more
    days is a TrajectoryError. A stop flag on an idle generator is a
    `dg-stop-idle` finding.
    """
    if len(trajectory) == 0:
        raise TrajectoryError("empty trajectory")
    first_hour = trajectory[0][0].hour_of_day
    days = (first_hour + len(trajectory) - 1) // HOURS_PER_DAY + 1
    if days > len(commitments):
        raise TrajectoryError(f"the trajectory spans {days} days but "
                              f"{len(commitments)} commitments were given")
    violations: list[Violation] = []

    def add(step, hour, constraint, magnitude):
        if magnitude > VALIDATION_TOL:
            violations.append(Violation(step, hour, constraint, float(magnitude)))

    for i, (state, setpoint, outcome) in enumerate(trajectory):
        expected_hour = (first_hour + i) % HOURS_PER_DAY
        if state.hour_of_day != expected_hour:
            raise TrajectoryError(
                f"non-consecutive hours at step {i}: expected {expected_hour}, "
                f"got {state.hour_of_day}")
        h = state.hour_of_day
        led = outcome.ledger
        ch = commitments[(first_hour + i) // HOURS_PER_DAY].hour(h)

        # grid adherence and committed-mode gating
        add(i, h, "grid-adherence", abs(led.grid_buy_kw - ch.grid_buy_kw))
        add(i, h, "grid-adherence", abs(led.grid_sell_kw - ch.grid_sell_kw))
        add(i, h, "grid-cap", led.grid_buy_kw - config.grid_power_cap)
        add(i, h, "grid-cap", led.grid_sell_kw - config.grid_power_cap)
        add(i, h, "grid-exclusive", min(led.grid_buy_kw, led.grid_sell_kw))
        if not ch.buying:
            add(i, h, "grid-mode", led.grid_buy_kw)
            add(i, h, "reserve-gating", led.reserve_up_kw)
        else:
            add(i, h, "grid-mode", led.grid_sell_kw)
            add(i, h, "reserve-gating", led.reserve_down_kw)

        # power balance (a blackout hour is a balance violation by definition)
        supply = (led.pv_kw + led.grid_buy_kw - led.grid_sell_kw + led.dg_kw
                  + led.ess_discharge_kw - led.ess_charge_kw)
        add(i, h, "power-balance", led.load_kw - supply)

        # ESS power, complementarity, reserve headroom
        add(i, h, "ess-power-cap", led.ess_discharge_kw - config.ess_power_cap)
        add(i, h, "ess-power-cap", led.ess_charge_kw - config.ess_power_cap)
        add(i, h, "ess-exclusive", min(led.ess_discharge_kw, led.ess_charge_kw))
        add(i, h, "reserve-headroom",
            led.reserve_down_kw + led.ess_discharge_kw - led.ess_charge_kw - config.ess_power_cap)
        add(i, h, "reserve-headroom",
            led.reserve_up_kw - led.ess_discharge_kw + led.ess_charge_kw - config.ess_power_cap)

        # SOC recursion and bounds
        expected_soc = (state.soc_kwh - config.eta_discharge * led.ess_discharge_kw
                        + config.eta_charge * led.ess_charge_kw)
        add(i, h, "soc-recursion", abs(outcome.soc_kwh - expected_soc))
        add(i, h, "soc-bounds", config.ess_energy_min - outcome.soc_kwh)
        add(i, h, "soc-bounds", outcome.soc_kwh - config.ess_energy_max)
        if h == HOURS_PER_DAY - 1:
            add(i, h, "soc-end", config.ess_energy_end - outcome.soc_kwh)

        # DG commitment logic and ramps; a start is an idle generator that runs
        dg_kw = led.dg_kw
        on_now = dg_kw > VALIDATION_TOL
        on_prev = state.dg_on
        start = 1.0 if on_now and not on_prev else 0.0
        stop = 1.0 if outcome.dg_stop else 0.0
        add(i, h, "dg-stop-idle", 1.0 if setpoint.dg_stop and not on_prev else 0.0)
        add(i, h, "dg-start-stop", start + stop - 1.0)
        add(i, h, "dg-status", start - stop - (1.0 if on_now else 0.0) + (1.0 if on_prev else 0.0))
        add(i, h, "dg-capacity", dg_kw - (config.dg_power_max if on_now else 0.0))
        add(i, h, "dg-min-power", (config.dg_power_min if on_now else 0.0) - dg_kw)
        ramp_up_cap = (config.dg_ramp_up if on_prev else 0.0) + start * config.dg_startup_ramp
        add(i, h, "dg-ramp-up", dg_kw - state.dg_prev_kw - ramp_up_cap)
        ramp_down_cap = (config.dg_ramp_down if on_now else 0.0) + stop * config.dg_shutdown_ramp
        add(i, h, "dg-ramp-down", state.dg_prev_kw - dg_kw - ramp_down_cap)

    return violations
