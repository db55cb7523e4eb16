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

Both builders write their hour blocks through one writer,
`_add_hour_blocks`, which declares a whole grid of blocks as arrays: one
`LinearProgram.add_vars` call and one `add_rows` call, with no Python loop
over terms. The coupling to the previous hour is an index array and the
boundary state a constant. `tests/oracles.py` keeps the same formulation
written one term at a time, and the tests require that both give HiGHS
equal arrays.

All builders are pure; extraction helpers turn optimal solutions back into
domain values, rounding at 1e-6 and enforcing the domain invariants exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from microdispatch.domain import (
    HOURS_PER_DAY,
    Commitment,
    DispatchSetpoint,
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
)
from microdispatch.milp import EQ, GE, LE, LinearProgram, MilpSolution, SolveStatus, solve_milp
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


class _Expr(NamedTuple):
    """A linear expression per hour block: the variable `cols[b]`, none
    where it is -1, plus the constant `const[b]`."""

    cols: np.ndarray
    const: np.ndarray


def _var(cols) -> _Expr:
    cols = np.asarray(cols, dtype=np.int64)
    return _Expr(cols, np.zeros(len(cols)))


def _const(values) -> _Expr:
    const = np.asarray(values, dtype=float)
    return _Expr(np.full(len(const), -1), const)


#: an hour block's variables in declaration order; `slack` only when elastic
_KEYS = ("dg", "ch", "dis", "uess", "udg", "start", "stop", "slack", "soc")


def _add_hour_blocks(lp: LinearProgram, cfg: MicrogridConfig, labels: list[str],
                     prev: np.ndarray, weight: np.ndarray, *, boundary: tuple,
                     net_load: np.ndarray, reserve_down: _Expr, reserve_up: _Expr,
                     ends: np.ndarray, grid: tuple[_Expr, _Expr] | None = None,
                     elastic: bool = False) -> None:
    """Declare a grid of hour blocks in one call: block `b` gets the plant
    variables named `dg[labels[b]]` etc., their costs times `weight[b]`, and
    the hour's 14 constraint rows.

    Block `b` follows block `prev[b]`, which comes before it, or the boundary
    state `(soc, udg, dg)`, a constant, where `prev[b]` is -1. The two
    reserves and the grid exchange `grid`, a (buy, sell) pair, are `_Expr`s:
    variables in the day-ahead program, constants otherwise (the committed
    exchange is then folded into `net_load`). Each entry of `ends`, in
    ascending order, is the last block of one chain of hours, which gets the
    row `soc >= ess_energy_end` after its own rows. With `elastic`, the
    balance rows gain a penalized shortfall variable. Variables and rows
    come out in block order, so the model is the one a loop over the blocks
    writes, term for term (`tests/oracles.py` keeps that loop).

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
    keys = tuple(key for key in _KEYS if elastic or key != "slack")
    bounds = {"dg": (0.0, cfg.dg_power_max), "ch": (0.0, cfg.ess_power_cap),
              "dis": (0.0, cfg.ess_power_cap), "uess": (0.0, 1.0), "udg": (0.0, 1.0),
              "start": (0.0, 1.0), "stop": (0.0, 1.0), "slack": (0.0, ELASTIC_SLACK_CAP),
              "soc": (cfg.ess_energy_min, cfg.ess_energy_max)}
    blocks = len(labels)
    low, high = np.array([bounds[key] for key in keys]).T
    index = lp.add_vars([f"{key}[{label}]" for label in labels for key in keys],
                        np.tile(low, blocks), np.tile(high, blocks),
                        np.tile([key in ("uess", "udg") for key in keys], blocks))
    v = dict(zip(keys, index.reshape(blocks, len(keys)).T))
    costs = {"dg": weight * cfg.dg_unit_cost, "ch": weight * cfg.ess_unit_cost,
             "dis": weight * cfg.ess_unit_cost}
    if elastic:
        costs["slack"] = weight * ELASTIC_PENALTY_FACTOR * cfg.dg_unit_cost
    lp.add_costs(np.concatenate([v[key] for key in costs]), np.concatenate(list(costs.values())))

    follows = prev >= 0

    def carried(key: str, value: float) -> _Expr:
        """The previous hour's variable `key`, or the boundary `value`."""
        return _Expr(np.where(follows, v[key][prev], -1), np.where(follows, 0.0, value))

    soc_prev, udg_prev, dg_prev = (carried(key, value)
                                   for key, value in zip(("soc", "udg", "dg"), boundary))
    cap = cfg.ess_power_cap
    balance = [("dis", 1.0), ("ch", -1.0), ("dg", 1.0)] + [("slack", 1.0)] * elastic
    # (relation, rhs, own terms, coupled terms) of each row, in the order a
    # block writes them
    template = [
        # power balance
        (GE, net_load, balance, [(grid[0], 1.0), (grid[1], -1.0)] if grid else []),
        # ESS mode gating and rated power
        (LE, 0.0, [("dis", 1.0), ("uess", -cap)], []),
        (LE, cap, [("ch", 1.0), ("uess", cap)], []),
        # SOC recursion
        (EQ, 0.0, [("soc", 1.0), ("dis", cfg.eta_discharge), ("ch", -cfg.eta_charge)],
         [(soc_prev, -1.0)]),
        # reserve headroom around the rated power
        (LE, cap, [("dis", 1.0), ("ch", -1.0)], [(reserve_down, 1.0)]),
        (LE, cap, [("dis", -1.0), ("ch", 1.0)], [(reserve_up, 1.0)]),
        # DG start/stop logic
        (LE, 1.0, [("start", 1.0), ("stop", 1.0)], []),
        (LE, 0.0, [("start", 1.0), ("stop", -1.0), ("udg", -1.0)], [(udg_prev, 1.0)]),
        (LE, 1.0, [("start", 1.0)], [(udg_prev, 1.0)]),
        (LE, 0.0, [("start", 1.0), ("udg", -1.0)], []),
        # DG capacity window and ramps
        (LE, 0.0, [("dg", 1.0), ("udg", -cfg.dg_power_max)], []),
        (LE, 0.0, [("dg", -1.0), ("udg", cfg.dg_power_min)], []),
        (LE, 0.0, [("dg", 1.0), ("start", -cfg.dg_startup_ramp)],
         [(dg_prev, -1.0), (udg_prev, -cfg.dg_ramp_up)]),
        (LE, 0.0, [("dg", -1.0), ("udg", -cfg.dg_ramp_down), ("stop", -cfg.dg_shutdown_ramp)],
         [(dg_prev, 1.0)]),
    ]

    # a block's rows follow the rows of the blocks before it and their ends
    width = len(template)
    tails = np.bincount(ends, minlength=blocks)
    first = width * np.arange(blocks) + np.cumsum(tails) - tails
    block_rows = (first[:, None] + np.arange(width)).ravel()
    terminal = first[ends] + width + np.arange(len(ends)) - np.searchsorted(ends, ends)
    rels = np.empty(len(block_rows) + len(ends), dtype="<U2")
    rels[block_rows] = np.tile([rel for rel, _, _, _ in template], blocks)
    rels[terminal] = GE
    # each row's constants move to the right-hand side in the template's order
    side = np.empty((blocks, width))
    for r, (_, base, _, coupled) in enumerate(template):
        side[:, r] = base
        for expr, coef in coupled:
            side[:, r] -= coef * expr.const
    rhs = np.empty(len(rels))
    rhs[block_rows] = side.ravel()
    rhs[terminal] = cfg.ess_energy_end

    r_own, k_own, c_own = zip(*[(r, key, coef) for r, (_, _, terms, _) in enumerate(template)
                                for key, coef in terms])
    r_var, exprs, c_var = zip(*[(r, expr, coef) for r, (_, _, _, coupled) in enumerate(template)
                                for expr, coef in coupled])
    coupled_cols = np.array([expr.cols for expr in exprs])
    on = coupled_cols >= 0
    rows = [(first[:, None] + np.array(r_own)).ravel(),
            (np.array(r_var)[:, None] + first)[on], terminal]
    cols = [np.array([v[key] for key in k_own]).T.ravel(), coupled_cols[on], v["soc"][ends]]
    coefs = [np.tile(c_own, blocks), np.broadcast_to(np.array(c_var)[:, None], on.shape)[on],
             np.ones(len(ends))]
    lp.add_rows(np.concatenate(rows), np.concatenate(cols), np.concatenate(coefs), rels, rhs)


def build_day_ahead(scenarios: ScenarioSet, tariff: TariffSchedule,
                    initial_soc_kwh: float, config: MicrogridConfig) -> LinearProgram:
    """Commitment program: shared schedule, per-scenario recourse copies.

    Every day is planned from midnight with the generator off.
    """
    if not (config.ess_energy_min <= initial_soc_kwh <= config.ess_energy_max):
        raise ModelBuildError(f"initial SOC {initial_soc_kwh} outside the ESS bounds")

    lp = LinearProgram()
    hours = np.arange(HOURS_PER_DAY)
    # per hour: the grid exchange, the two reserves and the buy/sell mode
    grid_cap, ess_cap = config.grid_power_cap, config.ess_power_cap
    keys = ("gb", "gs", "rd", "rc", "ug")
    index = lp.add_vars([f"{key}[{t}]" for t in hours for key in keys], 0.0,
                        np.tile([grid_cap, grid_cap, ess_cap, ess_cap, 1.0], HOURS_PER_DAY),
                        np.tile([False] * 4 + [True], HOURS_PER_DAY))
    gb, gs, rd, rc, ug = index.reshape(HOURS_PER_DAY, len(keys)).T
    price = np.array(tariff.hourly_price)
    revenue = np.full(HOURS_PER_DAY, -config.reserve_revenue)
    lp.add_costs(np.concatenate([gb, gs, rd, rc]),
                 np.concatenate([price, -price, revenue, revenue]))
    # buy/sell exclusivity and reserve gating by the committed mode, four
    # rows an hour
    first = 4 * hours
    lp.add_rows(np.concatenate([first, first, first + 1, first + 1, first + 2, first + 2,
                                first + 3, first + 3]),
                np.concatenate([gb, ug, gs, ug, rd, ug, rc, ug]),
                np.repeat([1.0, -grid_cap, 1.0, grid_cap, 1.0, ess_cap, 1.0, -ess_cap],
                          HOURS_PER_DAY),
                LE, np.tile([0.0, grid_cap, ess_cap, 0.0], HOURS_PER_DAY))

    # scenario s's hour t is block s * 24 + t
    count = len(scenarios.profiles)
    t = np.tile(hours, count)
    blocks = np.arange(count * HOURS_PER_DAY)
    net_load = np.concatenate([profile.load_kw - profile.pv_kw
                               for profile in scenarios.profiles])
    _add_hour_blocks(
        lp, config, [f"{s},{h}" for s in range(count) for h in hours],
        np.where(t == 0, -1, blocks - 1), np.repeat(scenarios.probabilities, HOURS_PER_DAY),
        boundary=(initial_soc_kwh, 0.0, 0.0), net_load=net_load,
        reserve_down=_var(rd[t]), reserve_up=_var(rc[t]), grid=(_var(gb[t]), _var(gs[t])),
        ends=blocks[t == HOURS_PER_DAY - 1])
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
    commitment = context.commitment
    buy, sell = commitment.grid_buy_kw[h0:], commitment.grid_sell_kw[h0:]
    down, up = commitment.reserve_down_kw[h0:], commitment.reserve_up_kw[h0:]

    lp = LinearProgram()
    # summed in hour order; np.sum adds pairwise, which can move the last bit
    lp.objective_offset = float(np.cumsum(
        np.array(tariff.hourly_price[h0:]) * (buy - sell)
        - config.reserve_revenue * (down + up))[-1])

    # block 0 is the first hour, which every row shares; row s's hour k >= 1
    # is block 1 + s * (hours - 1) + k - 1
    rows, later = len(context.probabilities), context.hours - 1
    k = np.concatenate(([0], np.tile(np.arange(1, context.hours), rows)))
    blocks = np.arange(len(k))
    net_load = context.load_kw - context.pv_kw - buy + sell
    _add_hour_blocks(
        lp, config, ["0"] + [f"{s},{h}" for s in range(rows) for h in range(1, context.hours)],
        np.where(k == 1, 0, blocks - 1),
        np.concatenate(([1.0], np.repeat(context.probabilities, later))),
        boundary=(state.soc_kwh, state.dg_on, state.dg_prev_kw),
        net_load=np.concatenate((net_load[0, :1], net_load[:, 1:].ravel())),
        reserve_down=_const(down[k]), reserve_up=_const(up[k]),
        ends=later * np.arange(1, rows + 1), elastic=elastic)
    return lp


def _binaries(index, rows: int, hours: int) -> np.ndarray:
    """The indices of `udg[s,k]` and `uess[s,k]` in a real-time model of
    `rows` profile rows and `hours` >= 2 hours, at `[s, k - 1, 0]` and
    `[s, k - 1, 1]` for every hour k >= 1; `index` maps a name to its index.
    `build_realtime` declares its blocks `0`, `0,1`, `0,2`, ... in order,
    each with the same variables, so block b's variable is b block widths
    past the first hour's."""
    first = index("udg[0]")
    width = index("udg[0,1]") - first
    blocks = np.arange(1, rows * (hours - 1) + 1).reshape(rows, hours - 1, 1)
    return first + width * blocks + np.array([0, index("uess[0]") - first])


def shifted_start(model: LinearProgram, context: RealTimeContext, plan: MilpSolution,
                  plan_context: RealTimeContext) -> dict[int, float]:
    """A start for the real-time `model` of `context` from the optimal plan
    of `plan_context`: {variable index: value}.

    The plan's window began `shift = context.start_hour -
    plan_context.start_hour` hours earlier, so hour k of `context` is hour
    k + shift of the plan, at the same clock hour. A plan that begins later
    gives nothing. Shift 1 is the previous hour's window; shift 0 is a window
    of the same hour, such as an earlier day's midnight window. Each row of
    `context` is paired by its data with the first plan row whose data at the
    same clock hours equal its own from its second hour on; the first hour is
    the live measurement, which no earlier row holds. The start takes the
    binaries `udg` and `uess` of the plan row's hour k + shift as hour k, for
    every k >= 1, in the order row, hour, then `udg` before `uess`. The first
    hour, which all rows share, is left to the solver, as are the continuous
    values. A row without a pair gets nothing, as a forecast row does once
    the forecaster re-scales, or a perfect row on another day.
    """
    shift = context.start_hour - plan_context.start_hour
    if shift < 0 or context.hours == 1:
        return {}
    load, pv = context.load_kw[:, None, 1:], context.pv_kw[:, None, 1:]
    same = ((load == plan_context.load_kw[None, :, shift + 1:])
            & (pv == plan_context.pv_kw[None, :, shift + 1:])).all(axis=2)
    rows = np.flatnonzero(same.any(axis=1))
    if not len(rows):
        return {}
    cols = _binaries(model.index, len(context.load_kw), context.hours)[rows]
    plan_cols = _binaries(plan.columns.__getitem__, len(plan_context.load_kw),
                          plan_context.hours)[same.argmax(axis=1)[rows], shift:]
    return dict(zip(cols.ravel().tolist(), plan.values[plan_cols.ravel()].tolist()))


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


def plan_value(solution: MilpSolution, key: str, hour: int) -> float:
    """The value of variable `key` at `hour` of a real-time plan's first
    profile row: `key[0]` at hour 0, which all rows share, and `key[0,k]` at
    hour k >= 1."""
    return solution.value(f"{key}[0]" if hour == 0 else f"{key}[0,{hour}]")


def extract_setpoint(solution: MilpSolution, state: MicrogridState,
                     config: MicrogridConfig, hour: int) -> DispatchSetpoint:
    """The decision at `hour` of an optimal real-time plan's first profile
    row, taken from the boundary `state` of that hour.

    Hour 0 is the window's own decision, read from `dg[0]` etc.; the rest is
    discarded. Hour k >= 1 reads `dg[0,k]` etc., which is how a plan made
    under perfect information is replayed while the plant follows it.

    `stop` is continuous, and an optimum may use any fraction of the
    shutdown ramp. With the generator running, a `stop` above ROUND_TOL
    sets the stop flag, so a plan that leans on the shutdown ramp gets it
    from the plant. With it idle, `stop` is free and sets nothing.
    """
    if solution.status is not SolveStatus.OPTIMAL:
        raise ExtractionError(f"cannot extract from a {solution.status.value} solution")

    def value(key: str) -> float:
        return plan_value(solution, key, hour)

    on = value("udg") > 0.5
    dg = _round_clip(value("dg"))
    dg = min(max(dg, config.dg_power_min), config.dg_power_max) if on else 0.0
    dis = _round_clip(value("dis"))
    chg = _round_clip(value("ch"))
    if dis >= chg:
        dis, chg = dis - chg, 0.0
    else:
        dis, chg = 0.0, chg - dis
    return DispatchSetpoint(
        dg_kw=dg, ess_charge_kw=chg, ess_discharge_kw=dis,
        dg_stop=state.dg_on and value("stop") > ROUND_TOL,
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
