"""Real-time controllers and the rolling day-ahead/hourly simulation loop.

Each controller maps the current plant state and today's data to a dispatch
setpoint; what slice of the day a controller may read encodes its
information set (the clairvoyant MPC sees the whole remaining day, everyone
else only the current hour). `MpcController.decide` is the one place that
turns an MPC mode into the profiles the window believes; the model builders
in `dispatch` read only those. An MPC controller holds two plans between
calls, its last window's and, outside perfect mode, its last midnight
window's: they give later windows a warm start, and in perfect mode the held
day plan is replayed hour by hour, without a solve, while the plant follows
it (a guard on the realized state sends any other hour to a solve).
`run_simulation` drives the two-stage protocol: a commitment fixed at each
midnight, then one controller decision and one plant step per hour, with
coupling state carried across days.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from microdispatch.dispatch import (
    FORECAST,
    PERFECT,
    STOCHASTIC,
    ExtractionError,
    RealTimeContext,
    build_realtime,
    extract_setpoint,
    plan_value,
    shifted_start,
    solve_day_ahead,
)
from microdispatch.domain import (
    HOURS_PER_DAY,
    VALIDATION_TOL,
    Commitment,
    CommittedHour,
    DayProfile,
    DispatchSetpoint,
    MicrogridConfig,
    MicrogridState,
    StepOutcome,
    TariffSchedule,
    advance_state,
    generator_setpoint,
    step_plant,
)
from microdispatch.forecasting import LoadPvForecaster
from microdispatch.milp import MilpSolution, SolverError, SolveStatus, solve_milp
from microdispatch.scenarios import ScenarioSet

RULE_BASED = "rule-based"
MPC_PERFECT = "mpc-perfect"
MPC_FORECAST = "mpc-forecast"
MPC_STOCHASTIC = "mpc-stochastic"
DRL = "drl"
CONTROLLER_KINDS = (RULE_BASED, MPC_PERFECT, MPC_FORECAST, MPC_STOCHASTIC, DRL)

#: how the midnight commitment's starting SOC is chosen; "contract-end" uses
#: the contracted end-of-day SOC so every controller shares one commitment,
#: "measured" uses the controller's own battery state
PLANNING_CONTRACT_END = "contract-end"
PLANNING_MEASURED = "measured"


class ControllerError(RuntimeError):
    """Fatal controller failure (solver breakdown, missing artifacts)."""


def rule_based_decide(state: MicrogridState, load_kw: float, pv_kw: float,
                      committed: CommittedHour, config: MicrogridConfig) -> DispatchSetpoint:
    """Cycle-charging hysteresis on the battery SOC.

    The generator starts when the SOC falls to the start threshold and runs
    at 75% of nameplate, trimmed down when the battery cannot absorb the
    surplus and pushed up when the hour's requirement exceeds it; it begins
    its stop sequence once the SOC recovers to the stop threshold. The ESS
    picks up whatever residual remains.
    """
    requirement = load_kw - pv_kw - (committed.grid_buy_kw - committed.grid_sell_kw)

    dg_request = 0.0
    stop_flag = False
    if state.dg_on:
        if state.soc_kwh >= config.dg_stop_soc:
            # stop sequence: ramp toward zero, flag the stop once reachable
            if state.dg_prev_kw <= config.dg_shutdown_ramp:
                dg_request, stop_flag = 0.0, True
            else:
                dg_request = state.dg_prev_kw - config.dg_ramp_down
        else:
            dg_request = _cycle_charge_target(state, requirement, committed, config)
    elif state.soc_kwh <= config.dg_start_soc:
        dg_request = _cycle_charge_target(state, requirement, committed, config)

    return generator_setpoint(state, dg_request, load_kw, pv_kw, committed, config,
                              stop_flag)


def _cycle_charge_target(state, requirement, committed, config):
    target = 0.75 * config.dg_power_max
    if requirement > target:
        return requirement
    surplus = target - max(requirement, 0.0)
    absorb = min(config.ess_power_cap - committed.reserve_up_kw,
                 (config.ess_energy_max - state.soc_kwh) / config.eta_charge)
    absorb = max(absorb, 0.0)
    if surplus > absorb:
        target = max(requirement, 0.0) + absorb
    return target


class RuleBasedController:
    kind = RULE_BASED

    def decide(self, state, day: DayProfile, commitment: Commitment,
               tariff: TariffSchedule, config: MicrogridConfig) -> DispatchSetpoint:
        h = state.hour_of_day
        return rule_based_decide(state, float(day.load_kw[h]), float(day.pv_kw[h]),
                                 commitment.hour(h), config)


def scenario_window(scenarios: ScenarioSet, hour: int, load_kw: float,
                    pv_kw: float) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The stochastic window from `hour` to midnight: (load rows, pv rows,
    probabilities).

    Each scenario's remaining day holds the live measurement in slot 0.
    Scenarios that are then identical over the window merge into the first
    of them, their probabilities summed: an exact reduction, which collapses
    the program onto the deterministic one when all heads agree.
    """
    rows: list[list] = []  # [load, pv, probability]
    for profile, prob in zip(scenarios.profiles, scenarios.probabilities):
        load = np.array(profile.load_kw[hour:], dtype=float)
        pv = np.array(profile.pv_kw[hour:], dtype=float)
        load[0], pv[0] = load_kw, pv_kw
        same = next((row for row in rows if np.array_equal(row[0], load)
                     and np.array_equal(row[1], pv)), None)
        if same is None:
            rows.append([load, pv, float(prob)])
        else:
            same[2] += prob
    loads, pvs, probabilities = zip(*rows)
    return np.array(loads), np.array(pvs), probabilities


class _HeldPlan(NamedTuple):
    """An optimal window plan with the context and inputs it was solved for."""

    solution: MilpSolution
    context: RealTimeContext
    tariff: TariffSchedule
    config: MicrogridConfig


class MpcController:
    """Rolling-horizon MPC in perfect, forecast, or stochastic mode.

    `decide` is the only code that branches on the mode, and it builds one
    `RealTimeContext` of what the mode believes: perfect mode the remaining
    day; forecast mode the current hour extended by the held forecaster
    (which it also feeds); stochastic mode the current hour substituted into
    the scenario heads (`scenario_window`). Infeasible windows are re-solved
    with an elastic balance whose first-hour slack will surface as a plant
    blackout.

    The controller holds two plans, each with the context and the inputs it
    was solved for: its last optimal, non-elastic window's plan, and, outside
    perfect mode, its last optimal, non-elastic midnight plan.

    - Replay. Under perfect information the tail of an optimal day plan is
      optimal for every later hour, as long as the plant realizes the plan.
      So in perfect mode an hour is read off the held plan (`extract_setpoint`
      at the plan's hour), with no model built or solved, when the plan is of
      the same day and inputs and the plant has followed it: the same
      commitment, tariff and config objects, the day's remaining load and PV
      equal to the plan's row at the same clock hours, and the state's
      `soc_kwh` and `dg_prev_kw` each within `VALIDATION_TOL` of the plan's
      previous hour (the generator's on flag follows from its power). Any
      mismatch is a guard hit: the hour solves its window, and that solution
      becomes the plan. A reset-mode perfect run so solves one window a day.
    - Starts. A window whose data repeat a held plan's at the same clock
      hours starts from its binaries (`shifted_start`). Every hour but
      midnight starts from the last window's plan. A midnight window, which
      no plan of its own day precedes, starts from the held midnight plan
      when the two share their commitment and boundary state, as every
      reset-mode midnight does; then only the measured hour and the
      scenario merges tell them apart. Stochastic scenario rows repeat every
      day, so they pair; forecast rows move with the forecaster, so they do
      not. A carried-over midnight gets no start: on a 40-day carry-over run
      an earlier midnight's plan cut the simplex iterations of 2 of 18
      stochastic midnight windows, raised them on 2 and left 14 unchanged. A
      start changes which of several optimal points HiGHS may return, never
      the optimal window objective.

    The plans are held here rather than passed through `decide`, because
    callers, the benchmark's timing wrapper among them, call `decide` with
    the five arguments every controller takes. They, and the forecaster, are
    what an explicit carry threaded through `decide` would take over.
    """

    def __init__(self, mode: str, forecaster: LoadPvForecaster | None = None,
                 scenarios: ScenarioSet | None = None):
        if mode not in (PERFECT, FORECAST, STOCHASTIC):
            raise ControllerError(f"unknown MPC mode {mode!r}")
        self.mode = mode
        self.kind = {PERFECT: MPC_PERFECT, FORECAST: MPC_FORECAST,
                     STOCHASTIC: MPC_STOCHASTIC}[mode]
        self.forecaster = forecaster
        self.scenarios = scenarios
        if mode == FORECAST and forecaster is None:
            raise ControllerError("forecast mode needs a warmed-up forecaster")
        if mode == STOCHASTIC and scenarios is None:
            raise ControllerError("stochastic mode needs a real-time scenario set")
        self._plan: _HeldPlan | None = None
        self._midnight_plan: _HeldPlan | None = None

    def decide(self, state, day: DayProfile, commitment: Commitment,
               tariff: TariffSchedule, config: MicrogridConfig) -> DispatchSetpoint:
        h = state.hour_of_day
        if self.mode == PERFECT:
            setpoint = self._replay(state, day, commitment, tariff, config)
            if setpoint is not None:
                return setpoint
        hours = HOURS_PER_DAY - h
        load_now = float(day.load_kw[h])
        pv_now = float(day.pv_kw[h])
        probabilities = (1.0,)
        if self.mode == PERFECT:
            load, pv = day.load_kw[h:], day.pv_kw[h:]
        elif self.mode == FORECAST:
            self.forecaster = self.forecaster.observe(h, load_now, pv_now)
            load, pv = self.forecaster.forecast_profile(h, hours)
            load[0], pv[0] = load_now, pv_now
        else:
            load, pv, probabilities = scenario_window(self.scenarios, h, load_now, pv_now)
        context = RealTimeContext(state=state, start_hour=h, hours=hours,
                                  commitment=commitment, load_kw=load, pv_kw=pv,
                                  probabilities=probabilities)

        model = build_realtime(context, tariff, config, self.mode)
        held = self._plan
        if h == 0:
            held = self._midnight_plan
            if held is not None and (held.context.state != state
                                     or held.context.commitment is not commitment):
                held = None
        start = None
        if held is not None:
            start = shifted_start(model, context, held.solution, held.context) or None
        solution = solve_milp(model, start=start)
        if solution.status is SolveStatus.OPTIMAL:
            self._plan = _HeldPlan(solution, context, tariff, config)
            if h == 0 and self.mode != PERFECT:
                self._midnight_plan = self._plan
        else:
            self._plan = None
            solution = solve_milp(build_realtime(context, tariff, config, self.mode,
                                                 elastic=True))
        if solution.status is not SolveStatus.OPTIMAL:
            raise ControllerError(
                f"{self.kind}: window solve failed even with elastic balance "
                f"({solution.status.value})")
        return extract_setpoint(solution, state, config, 0)

    def _replay(self, state, day: DayProfile, commitment: Commitment,
                tariff: TariffSchedule, config: MicrogridConfig) -> DispatchSetpoint | None:
        """The held plan's setpoint for this hour, or None on a guard hit."""
        held = self._plan
        if held is None:
            return None
        h = state.hour_of_day
        k = h - held.context.start_hour
        if (k < 1 or held.context.commitment is not commitment
                or held.tariff is not tariff or held.config is not config
                or not np.array_equal(held.context.load_kw[0, k:], day.load_kw[h:])
                or not np.array_equal(held.context.pv_kw[0, k:], day.pv_kw[h:])):
            return None
        planned = [plan_value(held.solution, key, k - 1) for key in ("soc", "dg")]
        if any(abs(a - b) > VALIDATION_TOL
               for a, b in zip(planned, [state.soc_kwh, state.dg_prev_kw])):
            return None
        return extract_setpoint(held.solution, state, config, k)


@dataclass(frozen=True)
class HourRecord:
    day_index: int
    state: MicrogridState
    setpoint: DispatchSetpoint
    outcome: StepOutcome
    decision_seconds: float


@dataclass
class SimulationReport:
    """Full ledger of one controller's run plus the derived aggregates."""

    controller: str
    dg_unit_cost: float = 0.65
    records: list[HourRecord] = field(default_factory=list)
    commitments: list[Commitment] = field(default_factory=list)

    @property
    def hours(self) -> int:
        return len(self.records)

    @property
    def step_costs(self) -> np.ndarray:
        return np.array([r.outcome.step_cost for r in self.records])

    @property
    def daily_costs(self) -> np.ndarray:
        costs = self.step_costs
        days = self.hours // HOURS_PER_DAY
        return costs[:days * HOURS_PER_DAY].reshape(days, HOURS_PER_DAY).sum(axis=1)

    @property
    def total_cost(self) -> float:
        return float(self.step_costs.sum())

    @property
    def average_hourly_cost(self) -> float:
        return self.total_cost / self.hours

    @property
    def average_hourly_dg_cost(self) -> float:
        dg_kwh = sum(r.outcome.ledger.dg_kw for r in self.records)
        return self.dg_unit_cost * dg_kwh / self.hours

    @property
    def blackout_count(self) -> int:
        return sum(1 for r in self.records if r.outcome.blackout)

    @property
    def curtailed_kwh(self) -> float:
        return float(sum(r.outcome.curtailed_kw for r in self.records))

    @property
    def decision_seconds(self) -> np.ndarray:
        return np.array([r.decision_seconds for r in self.records])

    @property
    def mean_decision_seconds(self) -> float:
        return float(np.mean(self.decision_seconds))

    @property
    def p95_decision_seconds(self) -> float:
        """The 95th percentile of the decision latencies, by linear
        interpolation. A mean hides rare slow decisions, such as the one
        window a day a perfect-mode run solves."""
        return float(np.percentile(self.decision_seconds, 95))

    @property
    def max_decision_seconds(self) -> float:
        return float(np.max(self.decision_seconds))

    def trajectory(self):
        return [(r.state, r.setpoint, r.outcome) for r in self.records]


@dataclass(frozen=True)
class SimulationOptions:
    initial_soc_kwh: float = 12500.0
    reset_soc_kwh: float | None = None
    planning_soc: str | float = PLANNING_CONTRACT_END


def _planning_soc_value(policy, state: MicrogridState, config: MicrogridConfig) -> float:
    if policy == PLANNING_MEASURED:
        return state.soc_kwh
    if policy == PLANNING_CONTRACT_END:
        return config.ess_energy_end
    return float(policy)


def run_simulation(controller, days, tariff: TariffSchedule, config: MicrogridConfig,
                   day_ahead_scenarios: ScenarioSet,
                   options: SimulationOptions = SimulationOptions(),
                   commitment_cache: dict | None = None) -> SimulationReport:
    """Drive one controller through consecutive days without algorithm resets.

    At each midnight the day-ahead program is solved from the planning SOC
    (cached per distinct value, so shared-commitment comparisons reuse one
    solve) and fixes the day's commitment; each hour the controller decides
    and the plant realizes. With `reset_soc_kwh` set, the battery state is
    forced to that value and the generator switched off at every midnight;
    without it both carry over. A controller, extraction or solver error in
    `decide` is re-raised as a ControllerError that names the controller,
    day and hour.

    The run drives a shallow copy of `controller`, so whatever state the
    controller reassigns from hour to hour, an MPC controller's forecaster
    and two held plans among it, ends with the run: a reused controller repeats a
    fresh one.
    """
    if len(days) == 0:
        raise ValueError("empty dataset")
    report = SimulationReport(controller=getattr(controller, "kind", "unknown"),
                              dg_unit_cost=config.dg_unit_cost)
    cache = commitment_cache if commitment_cache is not None else {}
    controller = copy.copy(controller)

    state = MicrogridState(
        hour_of_day=0, soc_kwh=options.initial_soc_kwh,
        soc_midnight_kwh=options.initial_soc_kwh)
    commitment = None

    for day_index, day in enumerate(days):
        if options.reset_soc_kwh is not None:
            # evaluation mode: pin the whole coupling state at midnight so
            # every controller faces the identical initial-value problem,
            # generator included (otherwise a pre-ramped generator can
            # legitimately undercut the clairvoyant optimum)
            state = MicrogridState(
                hour_of_day=0, soc_kwh=options.reset_soc_kwh,
                soc_midnight_kwh=options.reset_soc_kwh)
        planning_soc = _planning_soc_value(options.planning_soc, state, config)
        key = round(planning_soc, 6)
        if key not in cache:
            cache[key] = solve_day_ahead(day_ahead_scenarios, tariff,
                                         planning_soc, config)[0]
        commitment = cache[key]
        report.commitments.append(commitment)

        for hour in range(HOURS_PER_DAY):
            began = time.perf_counter()
            try:
                setpoint = controller.decide(state, day, commitment, tariff, config)
            except (ControllerError, ExtractionError, SolverError) as exc:
                raise ControllerError(f"{report.controller} failed at day {day_index} "
                                      f"hour {hour}: {exc}") from exc
            elapsed = time.perf_counter() - began
            outcome = step_plant(state, setpoint, commitment.hour(hour),
                                 float(day.load_kw[hour]), float(day.pv_kw[hour]),
                                 tariff.price(hour), config)
            report.records.append(HourRecord(day_index=day_index, state=state,
                                             setpoint=setpoint, outcome=outcome,
                                             decision_seconds=elapsed))
            state = advance_state(state, outcome)
    return report


def compare_controllers(controllers: dict, days, tariff: TariffSchedule,
                        config: MicrogridConfig, day_ahead_scenarios: ScenarioSet,
                        options: SimulationOptions = SimulationOptions()
                        ) -> tuple[dict, dict]:
    """Run several controllers over the same days with shared commitments.

    Returns ({name: SimulationReport}, {name: message}). A controller that
    aborts is recorded with its message in the second map, and the ones
    after it still run.
    """
    cache: dict = {}
    reports, failures = {}, {}
    for name, controller in controllers.items():
        try:
            reports[name] = run_simulation(controller, days, tariff, config,
                                           day_ahead_scenarios, options,
                                           commitment_cache=cache)
        except ControllerError as exc:
            failures[name] = str(exc)
    return reports, failures
