"""Optimization model builders for the two dispatch stages.

`build_day_ahead` assembles the commitment program: one shared copy of the
grid-exchange and reserve schedule, plus per-scenario recourse copies of all
plant variables, each obeying the full constraint set. `build_realtime`
assembles the rolling-window models the MPC controllers solve each hour,
with the committed schedule folded in as constants (they enter the objective
as a fixed offset, so solver objectives equal true window costs). Its first
hour is written once, and each profile row of its `RealTimeContext` chains
its own recourse from it. The builders know no MPC mode: what a mode
believes about the rest of the day reaches them as those rows, which
`MpcController.decide` fills in.

All builders are pure; extraction helpers turn optimal solutions back into
domain values, rounding at 1e-6 and enforcing the domain invariants exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from microdispatch.domain import (
    HOURS_PER_DAY,
    Commitment,
    DispatchSetpoint,
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
)
from microdispatch.milp import LinearProgram, MilpSolution, SolveStatus, solve_milp
from microdispatch.scenarios import ScenarioSet

PERFECT = "perfect"
FORECAST = "forecast"
STOCHASTIC = "stochastic"

ROUND_TOL = 1e-6
ELASTIC_PENALTY_FACTOR = 10.0  # times the DG unit cost, per kW of unmet balance
ELASTIC_SLACK_CAP = 1e5        # kW, comfortably above any physical deficit


class ModelBuildError(ValueError):
    """Raised for structurally invalid builder inputs."""


class ExtractionError(RuntimeError):
    """Raised when values are extracted from a non-optimal solution."""


@dataclass(frozen=True)
class RealTimeContext:
    """Everything a real-time solve needs at one decision hour.

    The window always runs to midnight, where the next commitment takes
    over. `load_kw` and `pv_kw` hold one row per profile the controller
    believes, each `hours` long and weighted by `probabilities`; a 1-D
    profile is one row of probability 1. Every row holds the live
    measurement in slot 0. Which rows an MPC mode believes is decided in
    `MpcController.decide` alone.
    """

    state: MicrogridState
    start_hour: int
    hours: int
    commitment: Commitment
    load_kw: np.ndarray
    pv_kw: np.ndarray
    probabilities: tuple = (1.0,)

    def __post_init__(self):
        if self.hours < 1:
            raise ModelBuildError("empty horizon")
        if self.start_hour != self.state.hour_of_day:
            raise ModelBuildError("context start hour disagrees with the state")
        if self.start_hour + self.hours != HOURS_PER_DAY:
            raise ModelBuildError("window must end at midnight")
        load = np.atleast_2d(np.asarray(self.load_kw, dtype=float))
        pv = np.atleast_2d(np.asarray(self.pv_kw, dtype=float))
        if load.shape[1:] != (self.hours,) or pv.shape != load.shape:
            raise ModelBuildError("profile length must equal hours remaining")
        if len(self.probabilities) != len(load):
            raise ModelBuildError("one probability per profile row required")
        if (load[:, 0] != load[0, 0]).any() or (pv[:, 0] != pv[0, 0]).any():
            raise ModelBuildError("profile rows disagree on the live measurement")
        object.__setattr__(self, "load_kw", load)
        object.__setattr__(self, "pv_kw", pv)


def _var(idx: int):
    """A variable as a linear expression `(terms, constant)`."""
    return [(idx, 1.0)], 0.0


def _const(value: float):
    """A constant as a linear expression `(terms, constant)`."""
    return [], float(value)


_ZERO = _const(0.0)


def _add_row(lp: LinearProgram, terms: list, rel: str, rhs: float,
             coef: float, expr, coef2: float = 0.0, expr2=_ZERO) -> None:
    """The row `terms + coef * expr + coef2 * expr2 rel rhs`, with the
    expressions' constants moved to the right-hand side."""
    for idx, a in expr[0]:
        terms.append((idx, coef * a))
    for idx, a in expr2[0]:
        terms.append((idx, coef2 * a))
    lp.add_row(terms, rel, rhs - coef * expr[1] - coef2 * expr2[1])


def _add_hour_block(lp: LinearProgram, cfg: MicrogridConfig, label: str, prev: dict,
                    weight: float, *, reserve_down, reserve_up, net_load: float,
                    grid=_ZERO, elastic: bool = False) -> dict:
    """Declare one hour's plant variables, named `dg[label]` etc., their
    costs times `weight`, and the hour's constraint rows.

    Everything the hour couples to is a linear expression `(terms,
    constant)` made by `_var` or `_const`: the previous hour's `prev["soc"]`,
    `prev["udg"]` and `prev["dg"]`, the two reserves, and the grid exchange
    `grid`, which is a pair of variables in the day-ahead program and zero
    otherwise (the committed values are then folded into `net_load`). So a
    value is a constant and a variable is an index whatever its Python type.
    With `elastic`, the balance row gains a penalized shortfall variable.
    Returns the hour's variable indices.

    The status `udg` and the ESS mode `uess` are binary; `start` and `stop`
    are continuous in [0, 1], as in tight-and-compact unit commitment, and
    the model stays exact. They appear in no objective term, only in the
    four start/stop logic rows and the two ramp rows. Fix every other
    variable, with `udg_prev` and `udg` integral. The ramp rows ask
    `start` >= a / dg_startup_ramp and `stop` >= b / dg_shutdown_ramp, with
    a = dg - dg_prev - dg_ramp_up * udg_prev and
    b = dg_prev - dg_ramp_down * udg - dg, so a + b <= 0 and at most one is
    positive. If a > 0, a feasible `start` > 0 means the logic rows allow a
    start (`udg_prev` = 0, `udg` = 1), and (start, stop) = (1, 0) meets every
    row. Otherwise (0, 1) does, which the logic rows admit for every status
    pair. So each feasible fractional pair has an integral one beside it,
    and every other variable has the same feasible set as with binary
    `start`/`stop`.
    """
    v = {
        "dg": lp.add_var(f"dg[{label}]", 0.0, cfg.dg_power_max),
        "ch": lp.add_var(f"ch[{label}]", 0.0, cfg.ess_power_cap),
        "dis": lp.add_var(f"dis[{label}]", 0.0, cfg.ess_power_cap),
        "uess": lp.add_binary(f"uess[{label}]"),
        "udg": lp.add_binary(f"udg[{label}]"),
        "start": lp.add_var(f"start[{label}]", 0.0, 1.0),
        "stop": lp.add_var(f"stop[{label}]", 0.0, 1.0),
    }
    if elastic:
        v["slack"] = lp.add_var(f"slack[{label}]", 0.0, ELASTIC_SLACK_CAP)
        lp.set_objective(v["slack"], weight * ELASTIC_PENALTY_FACTOR * cfg.dg_unit_cost)
    v["soc"] = lp.add_var(f"soc[{label}]", cfg.ess_energy_min, cfg.ess_energy_max)
    lp.set_objective(v["dg"], weight * cfg.dg_unit_cost)
    lp.set_objective(v["ch"], weight * cfg.ess_unit_cost)
    lp.set_objective(v["dis"], weight * cfg.ess_unit_cost)

    dg, ch, dis = v["dg"], v["ch"], v["dis"]
    uess, udg, start, stop = v["uess"], v["udg"], v["start"], v["stop"]
    soc = v["soc"]

    # power balance
    balance = [(dis, 1.0), (ch, -1.0), (dg, 1.0)]
    if elastic:
        balance.append((v["slack"], 1.0))
    _add_row(lp, balance, ">=", net_load, 1.0, grid)

    # ESS mode gating and rated power
    lp.add_row([(dis, 1.0), (uess, -cfg.ess_power_cap)], "<=", 0.0)
    lp.add_row([(ch, 1.0), (uess, cfg.ess_power_cap)], "<=", cfg.ess_power_cap)

    # SOC recursion
    _add_row(lp, [(soc, 1.0), (dis, cfg.eta_discharge), (ch, -cfg.eta_charge)], "=", 0.0,
             -1.0, prev["soc"])

    # reserve headroom around the rated power
    _add_row(lp, [(dis, 1.0), (ch, -1.0)], "<=", cfg.ess_power_cap, 1.0, reserve_down)
    _add_row(lp, [(dis, -1.0), (ch, 1.0)], "<=", cfg.ess_power_cap, 1.0, reserve_up)

    # DG start/stop logic
    lp.add_row([(start, 1.0), (stop, 1.0)], "<=", 1.0)
    _add_row(lp, [(start, 1.0), (stop, -1.0), (udg, -1.0)], "<=", 0.0,
             1.0, prev["udg"])
    _add_row(lp, [(start, 1.0)], "<=", 1.0, 1.0, prev["udg"])
    lp.add_row([(start, 1.0), (udg, -1.0)], "<=", 0.0)

    # DG capacity window and ramps
    lp.add_row([(dg, 1.0), (udg, -cfg.dg_power_max)], "<=", 0.0)
    lp.add_row([(dg, -1.0), (udg, cfg.dg_power_min)], "<=", 0.0)
    _add_row(lp, [(dg, 1.0), (start, -cfg.dg_startup_ramp)], "<=", 0.0,
             -1.0, prev["dg"], -cfg.dg_ramp_up, prev["udg"])
    _add_row(lp, [(dg, -1.0), (udg, -cfg.dg_ramp_down), (stop, -cfg.dg_shutdown_ramp)],
             "<=", 0.0, 1.0, prev["dg"])
    return v


def _carried(v: dict) -> dict:
    """The coupling expressions an hour hands to the next one."""
    return {"soc": _var(v["soc"]), "udg": _var(v["udg"]), "dg": _var(v["dg"])}


def build_day_ahead(scenarios: ScenarioSet, tariff: TariffSchedule,
                    initial_soc_kwh: float, config: MicrogridConfig) -> LinearProgram:
    """Commitment program: shared schedule, per-scenario recourse copies.

    Every day is planned from midnight with the generator off.
    """
    if not (config.ess_energy_min <= initial_soc_kwh <= config.ess_energy_max):
        raise ModelBuildError(f"initial SOC {initial_soc_kwh} outside the ESS bounds")

    lp = LinearProgram()
    schedule = []  # per hour: the grid exchange and the two reserves
    for t in range(HOURS_PER_DAY):
        gb = lp.add_var(f"gb[{t}]", 0.0, config.grid_power_cap)
        gs = lp.add_var(f"gs[{t}]", 0.0, config.grid_power_cap)
        rd = lp.add_var(f"rd[{t}]", 0.0, config.ess_power_cap)
        rc = lp.add_var(f"rc[{t}]", 0.0, config.ess_power_cap)
        ug = lp.add_binary(f"ug[{t}]")
        price = tariff.price(t)
        lp.set_objective(gb, price)
        lp.set_objective(gs, -price)
        lp.set_objective(rd, -config.reserve_revenue)
        lp.set_objective(rc, -config.reserve_revenue)
        # buy/sell exclusivity and reserve gating by the committed mode
        lp.add_row([(gb, 1.0), (ug, -config.grid_power_cap)], "<=", 0.0)
        lp.add_row([(gs, 1.0), (ug, config.grid_power_cap)], "<=", config.grid_power_cap)
        lp.add_row([(rd, 1.0), (ug, config.ess_power_cap)], "<=", config.ess_power_cap)
        lp.add_row([(rc, 1.0), (ug, -config.ess_power_cap)], "<=", 0.0)
        schedule.append((([(gb, 1.0), (gs, -1.0)], 0.0), _var(rd), _var(rc)))

    boundary = {"soc": _const(initial_soc_kwh), "udg": _ZERO, "dg": _ZERO}
    for s, (profile, prob) in enumerate(zip(scenarios.profiles,
                                            scenarios.probabilities.tolist())):
        net_load = (profile.load_kw - profile.pv_kw).tolist()
        prev = boundary
        for t, (grid, reserve_down, reserve_up) in enumerate(schedule):
            v = _add_hour_block(
                lp, config, f"{s},{t}", prev, prob,
                reserve_down=reserve_down, reserve_up=reserve_up,
                net_load=net_load[t], grid=grid)
            prev = _carried(v)
        lp.add_row([(v["soc"], 1.0)], ">=", config.ess_energy_end)
    return lp


def build_realtime(context: RealTimeContext, tariff: TariffSchedule,
                   config: MicrogridConfig, mode: str,
                   *, elastic: bool = False) -> LinearProgram:
    """Rolling-window model with the committed schedule folded in as data.

    The first hour is written once from the live measurement, with its
    variables named `dg[0]` ... `soc[0]`. Each profile row of the context
    then chains its own recourse from it, weighted by its probability: hours
    k >= 1 of row `s` are named `dg[s,k]`. The model depends on the
    context alone; `mode` names the window and must be a known mode. With
    `elastic`, the balance rows gain a penalized shortfall variable so an
    unreachable commitment produces a plan instead of an infeasibility.
    """
    if mode not in (PERFECT, FORECAST, STOCHASTIC):
        raise ModelBuildError(f"unknown mode {mode!r}")
    state = context.state
    h0 = context.start_hour
    committed = [context.commitment.hour(h0 + k) for k in range(context.hours)]

    lp = LinearProgram()
    offset = 0.0
    for k, ch in enumerate(committed):
        offset += (tariff.price(h0 + k) * (ch.grid_buy_kw - ch.grid_sell_kw)
                   - config.reserve_revenue * (ch.reserve_down_kw + ch.reserve_up_kw))
    lp.objective_offset = offset

    def hour(label, prev, weight, load, pv, k):
        ch = committed[k]
        return _add_hour_block(
            lp, config, label, prev, weight,
            reserve_down=_const(ch.reserve_down_kw),
            reserve_up=_const(ch.reserve_up_kw),
            net_load=float(load[k] - pv[k] - ch.grid_buy_kw + ch.grid_sell_kw),
            elastic=elastic)

    boundary = {"soc": _const(state.soc_kwh), "udg": _const(state.dg_on),
                "dg": _const(state.dg_prev_kw)}
    # every row holds the same live measurement in slot 0
    first = hour("0", boundary, 1.0, context.load_kw[0], context.pv_kw[0], 0)
    for s, (load, pv, prob) in enumerate(zip(context.load_kw, context.pv_kw,
                                             context.probabilities)):
        v = first
        for k in range(1, context.hours):
            v = hour(f"{s},{k}", _carried(v), prob, load, pv, k)
        lp.add_row([(v["soc"], 1.0)], ">=", config.ess_energy_end)
    return lp


def shifted_start(model: LinearProgram, context: RealTimeContext, plan: MilpSolution,
                  plan_context: RealTimeContext) -> dict[int, float]:
    """A start for the real-time `model` of `context` from the optimal plan
    of `plan_context`, the window one hour earlier: {variable index: value}.

    Each row of `context` is paired by its data with the first earlier row
    whose data one hour later equal its own from its second hour on; the
    first hour is the live measurement, which no earlier row holds. The
    start takes the binaries `udg` and `uess` of the earlier row's hour k+1
    as hour k, for every k >= 1. The first hour, which all rows share, is
    left to the solver, as are the continuous values. A row without a pair
    gets nothing, as a forecast row does once the forecaster re-scales.
    """
    start: dict[int, float] = {}
    plan_rows = list(zip(plan_context.load_kw, plan_context.pv_kw))
    for s, (load, pv) in enumerate(zip(context.load_kw, context.pv_kw)):
        paired = next((p for p, (old_load, old_pv) in enumerate(plan_rows)
                       if np.array_equal(load[1:], old_load[2:])
                       and np.array_equal(pv[1:], old_pv[2:])), None)
        if paired is None:
            continue
        for k in range(1, len(load)):
            for key in ("udg", "uess"):
                start[model.index(f"{key}[{s},{k}]")] = plan.value(
                    f"{key}[{paired},{k + 1}]")
    return start


def extract_commitment(solution: MilpSolution) -> Commitment:
    """Read the committed schedule out of an optimal day-ahead solution.

    Each hour's mode `ug` zeroes the two schedules it forbids: selling and
    down-reserve in a buying hour, buying and up-reserve in a selling one.
    The masks keep the contract exact whatever dust the solver leaves on a
    forbidden schedule, so every commitment this returns is valid by
    construction. The grid cap needs no clamp: `solve_milp` clips every
    optimal value into its variable's bounds, `[0, grid_power_cap]` here.
    """
    if solution.status is not SolveStatus.OPTIMAL:
        raise ExtractionError(f"cannot extract from a {solution.status.value} solution")

    def hourly(key: str) -> np.ndarray:
        return np.array([_round_clip(solution.value(f"{key}[{t}]"))
                         for t in range(HOURS_PER_DAY)])

    buying = hourly("ug") > 0.5
    return Commitment(grid_buy_kw=np.where(buying, hourly("gb"), 0.0),
                      grid_sell_kw=np.where(buying, 0.0, hourly("gs")),
                      reserve_down_kw=np.where(buying, 0.0, hourly("rd")),
                      reserve_up_kw=np.where(buying, hourly("rc"), 0.0),
                      buying=buying)


def extract_setpoint(solution: MilpSolution, state: MicrogridState,
                     config: MicrogridConfig) -> DispatchSetpoint:
    """First-hour decision of an optimal real-time solution from the window's
    boundary `state`; the rest is discarded.

    `stop[0]` is continuous, and an optimum may use any fraction of the
    shutdown ramp. With the generator running, a `stop[0]` above ROUND_TOL
    sets the stop flag, so a plan that leans on the shutdown ramp gets it
    from the plant. With it idle, `stop[0]` is free and sets nothing.
    """
    if solution.status is not SolveStatus.OPTIMAL:
        raise ExtractionError(f"cannot extract from a {solution.status.value} solution")
    on = solution.value("udg[0]") > 0.5
    dg = _round_clip(solution.value("dg[0]"))
    dg = min(max(dg, config.dg_power_min), config.dg_power_max) if on else 0.0
    dis = _round_clip(solution.value("dis[0]"))
    chg = _round_clip(solution.value("ch[0]"))
    if dis >= chg:
        dis, chg = dis - chg, 0.0
    else:
        dis, chg = 0.0, chg - dis
    return DispatchSetpoint(
        dg_kw=dg, ess_charge_kw=chg, ess_discharge_kw=dis,
        dg_stop=state.dg_on and solution.value("stop[0]") > ROUND_TOL,
    )


def solve_day_ahead(scenarios: ScenarioSet, tariff: TariffSchedule,
                    initial_soc_kwh: float, config: MicrogridConfig
                    ) -> tuple[Commitment, MilpSolution]:
    """Build and solve the commitment program, returning both artifacts."""
    model = build_day_ahead(scenarios, tariff, initial_soc_kwh, config)
    solution = solve_milp(model)
    if solution.status is not SolveStatus.OPTIMAL:
        raise ExtractionError(f"day-ahead solve ended {solution.status.value}")
    return extract_commitment(solution), solution


def _round_clip(value: float) -> float:
    """Zero out sub-tolerance dust and clamp tiny negatives.

    Values are deliberately NOT quantized onto a grid: plans often leave the
    battery exactly the headroom a later hour needs, and shifting flows by
    half a rounding step makes the successor model infeasible at the dust
    scale. The plant instead tolerates ~1e-6 in its discrete decisions.
    """
    value = float(value)
    return 0.0 if abs(value) < ROUND_TOL else max(0.0, value)
