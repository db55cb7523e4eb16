"""Optimization model builders for the two dispatch stages.

`build_day_ahead` assembles the commitment program: one shared copy of the
grid-exchange and reserve schedule, plus per-scenario recourse copies of all
plant variables, each obeying the full constraint set. `build_realtime`
assembles the rolling-window models the MPC controllers solve each hour,
with the committed schedule folded in as constants (they enter the objective
as a fixed offset, so solver objectives equal true window costs).

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
    over. Profiles carry the live measurement in slot 0; the tail is
    clairvoyant, forecast, or scenario data depending on the mode.
    """

    state: MicrogridState
    start_hour: int
    hours: int
    commitment: Commitment
    load_kw: np.ndarray | None = None       # deterministic modes, length == hours
    pv_kw: np.ndarray | None = None
    scenarios: ScenarioSet | None = None    # stochastic mode, full-day heads
    measured_load_kw: float | None = None   # stochastic hour-1 live values
    measured_pv_kw: float | None = None

    def __post_init__(self):
        if self.hours < 1:
            raise ModelBuildError("empty horizon")
        if self.start_hour != self.state.hour_of_day:
            raise ModelBuildError("context start hour disagrees with the state")
        if self.start_hour + self.hours != HOURS_PER_DAY:
            raise ModelBuildError("window must end at midnight")
        if self.load_kw is not None:
            load = np.asarray(self.load_kw, dtype=float)
            pv = np.asarray(self.pv_kw, dtype=float)
            if load.shape != (self.hours,) or pv.shape != (self.hours,):
                raise ModelBuildError("profile length must equal hours remaining")
            object.__setattr__(self, "load_kw", load)
            object.__setattr__(self, "pv_kw", pv)


def _add_hour_block(lp: LinearProgram, cfg: MicrogridConfig, tag: str, hour_label,
                    *, soc_prev, udg_prev, dg_prev,
                    reserve_down, reserve_up, net_load,
                    grid_buy=None, grid_sell=None,
                    shared: dict | None = None,
                    elastic: bool = False) -> dict:
    """Declare one hour's plant variables and constraint rows.

    `soc_prev`/`udg_prev`/`dg_prev` are variable indices or float constants.
    `grid_buy`/`grid_sell` are variable indices in the day-ahead program and
    folded into `net_load` otherwise. When `shared` is given, its variables
    are reused instead of declaring new ones (stochastic first hour).

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
    if shared is None:
        v = {
            "dg": lp.add_var(f"dg[{hour_label}]", 0.0, cfg.dg_power_max),
            "ch": lp.add_var(f"ch[{hour_label}]", 0.0, cfg.ess_power_cap),
            "dis": lp.add_var(f"dis[{hour_label}]", 0.0, cfg.ess_power_cap),
            "uess": lp.add_binary(f"uess[{hour_label}]"),
            "udg": lp.add_binary(f"udg[{hour_label}]"),
            "start": lp.add_var(f"start[{hour_label}]", 0.0, 1.0),
            "stop": lp.add_var(f"stop[{hour_label}]", 0.0, 1.0),
        }
        if elastic:
            v["slack"] = lp.add_var(f"slack[{hour_label}]", 0.0, ELASTIC_SLACK_CAP)
    else:
        v = dict(shared)
    v["soc"] = lp.add_var(f"soc[{tag}{hour_label}]", cfg.ess_energy_min, cfg.ess_energy_max)

    dg, ch, dis = v["dg"], v["ch"], v["dis"]
    uess, udg, start, stop = v["uess"], v["udg"], v["start"], v["stop"]
    soc = v["soc"]

    # power balance (grid committed values already inside net_load if constant)
    balance = [(dis, 1.0), (ch, -1.0), (dg, 1.0)]
    if grid_buy is not None:
        balance += [(grid_buy, 1.0), (grid_sell, -1.0)]
    if elastic:
        balance.append((v["slack"], 1.0))
    lp.add_row(balance, ">=", net_load)

    # ESS mode gating and rated power
    lp.add_row([(dis, 1.0), (uess, -cfg.ess_power_cap)], "<=", 0.0)
    lp.add_row([(ch, 1.0), (uess, cfg.ess_power_cap)], "<=", cfg.ess_power_cap)

    # SOC recursion
    soc_terms = [(soc, 1.0), (dis, cfg.eta_discharge), (ch, -cfg.eta_charge)]
    if isinstance(soc_prev, (int, np.integer)):
        soc_terms.append((int(soc_prev), -1.0))
        lp.add_row(soc_terms, "=", 0.0)
    else:
        lp.add_row(soc_terms, "=", float(soc_prev))

    # reserve headroom around the rated power
    if isinstance(reserve_down, (int, np.integer)):
        lp.add_row([(int(reserve_down), 1.0), (dis, 1.0), (ch, -1.0)],
                   "<=", cfg.ess_power_cap)
        lp.add_row([(int(reserve_up), 1.0), (dis, -1.0), (ch, 1.0)],
                   "<=", cfg.ess_power_cap)
    else:
        lp.add_row([(dis, 1.0), (ch, -1.0)], "<=", cfg.ess_power_cap - float(reserve_down))
        lp.add_row([(dis, -1.0), (ch, 1.0)], "<=", cfg.ess_power_cap - float(reserve_up))

    # DG start/stop logic
    lp.add_row([(start, 1.0), (stop, 1.0)], "<=", 1.0)
    status_terms = [(start, 1.0), (stop, -1.0), (udg, -1.0)]
    if isinstance(udg_prev, (int, np.integer)):
        lp.add_row(status_terms + [(int(udg_prev), 1.0)], "<=", 0.0)
        lp.add_row([(start, 1.0), (int(udg_prev), 1.0)], "<=", 1.0)
    else:
        lp.add_row(status_terms, "<=", -float(udg_prev))
        lp.add_row([(start, 1.0)], "<=", 1.0 - float(udg_prev))
    lp.add_row([(start, 1.0), (udg, -1.0)], "<=", 0.0)

    # DG capacity window and ramps
    lp.add_row([(dg, 1.0), (udg, -cfg.dg_power_max)], "<=", 0.0)
    lp.add_row([(dg, -1.0), (udg, cfg.dg_power_min)], "<=", 0.0)
    up_terms = [(dg, 1.0), (start, -cfg.dg_startup_ramp)]
    down_terms = [(dg, -1.0), (udg, -cfg.dg_ramp_down), (stop, -cfg.dg_shutdown_ramp)]
    if isinstance(dg_prev, (int, np.integer)):
        up_terms += [(int(dg_prev), -1.0)]
        down_terms += [(int(dg_prev), 1.0)]
        rhs_up, rhs_down = 0.0, 0.0
    else:
        rhs_up, rhs_down = float(dg_prev), -float(dg_prev)
    if isinstance(udg_prev, (int, np.integer)):
        up_terms += [(int(udg_prev), -cfg.dg_ramp_up)]
    else:
        rhs_up += cfg.dg_ramp_up * float(udg_prev)
    lp.add_row(up_terms, "<=", rhs_up)
    lp.add_row(down_terms, "<=", rhs_down)
    return v


def build_day_ahead(scenarios: ScenarioSet, tariff: TariffSchedule,
                    initial_soc_kwh: float, config: MicrogridConfig,
                    *, dg_prev_kw: float = 0.0, dg_on: bool = False) -> LinearProgram:
    """Commitment program: shared schedule, per-scenario recourse copies."""
    T = config.horizon_hours
    if not (config.ess_energy_min <= initial_soc_kwh <= config.ess_energy_max):
        raise ModelBuildError(f"initial SOC {initial_soc_kwh} outside the ESS bounds")
    # the boundary rule of MicrogridState
    if dg_on and dg_prev_kw <= 0:
        raise ModelBuildError(f"dg_on requires a positive dg_prev_kw, got {dg_prev_kw}")
    if not dg_on and dg_prev_kw != 0.0:
        raise ModelBuildError(f"dg_prev_kw must be 0 while dg_on is False, got {dg_prev_kw}")
    for profile in scenarios.profiles:
        if len(profile.load_kw) != T:
            raise ModelBuildError("scenario length must equal the horizon")

    lp = LinearProgram()
    gb, gs, rd, rc, ug = [], [], [], [], []
    for t in range(T):
        gb.append(lp.add_var(f"gb[{t}]", 0.0, config.grid_power_cap))
        gs.append(lp.add_var(f"gs[{t}]", 0.0, config.grid_power_cap))
        rd.append(lp.add_var(f"rd[{t}]", 0.0, config.ess_power_cap))
        rc.append(lp.add_var(f"rc[{t}]", 0.0, config.ess_power_cap))
        ug.append(lp.add_binary(f"ug[{t}]"))
        price = tariff.price(t)
        lp.set_objective(gb[t], price)
        lp.set_objective(gs[t], -price)
        lp.set_objective(rd[t], -config.reserve_revenue)
        lp.set_objective(rc[t], -config.reserve_revenue)
        # buy/sell exclusivity and reserve gating by the committed mode
        lp.add_row([(gb[t], 1.0), (ug[t], -config.grid_power_cap)], "<=", 0.0)
        lp.add_row([(gs[t], 1.0), (ug[t], config.grid_power_cap)], "<=",
                   config.grid_power_cap)
        lp.add_row([(rd[t], 1.0), (ug[t], config.ess_power_cap)], "<=",
                   config.ess_power_cap)
        lp.add_row([(rc[t], 1.0), (ug[t], -config.ess_power_cap)], "<=", 0.0)

    for s, (profile, prob) in enumerate(zip(scenarios.profiles, scenarios.probabilities)):
        prev = {"soc": float(initial_soc_kwh),
                "udg": 1.0 if dg_on else 0.0,
                "dg": float(dg_prev_kw)}
        for t in range(T):
            v = _add_hour_block(
                lp, config, tag=f"{s},", hour_label=f"{s},{t}",
                soc_prev=prev["soc"], udg_prev=prev["udg"], dg_prev=prev["dg"],
                reserve_down=rd[t], reserve_up=rc[t],
                net_load=float(profile.load_kw[t] - profile.pv_kw[t]),
                grid_buy=gb[t], grid_sell=gs[t])
            lp.set_objective(v["dg"], prob * config.dg_unit_cost)
            lp.set_objective(v["ch"], prob * config.ess_unit_cost)
            lp.set_objective(v["dis"], prob * config.ess_unit_cost)
            prev = {"soc": v["soc"], "udg": v["udg"], "dg": v["dg"]}
        lp.add_row([(prev["soc"], 1.0)], ">=", config.ess_energy_end)
    return lp


def _scenario_window(profile, start_hour: int, hours: int,
                     measured_load: float, measured_pv: float):
    load = np.array(profile.load_kw[start_hour:start_hour + hours], dtype=float)
    pv = np.array(profile.pv_kw[start_hour:start_hour + hours], dtype=float)
    load[0] = measured_load
    pv[0] = measured_pv
    return load, pv


def build_realtime(context: RealTimeContext, tariff: TariffSchedule,
                   config: MicrogridConfig, mode: str,
                   *, elastic: bool = False) -> LinearProgram:
    """Rolling-window model with the committed schedule folded in as data.

    Deterministic modes optimize one profile; stochastic mode carries one
    recourse copy per scenario with the seven first-hour decision variables
    shared, and the live measurement replacing every scenario's first hour.
    With `elastic`, the balance rows gain a penalized shortfall variable so
    an unreachable commitment produces a plan instead of an infeasibility.
    """
    if mode not in (PERFECT, FORECAST, STOCHASTIC):
        raise ModelBuildError(f"unknown mode {mode!r}")
    state = context.state
    H = context.hours
    h0 = context.start_hour
    commitment = context.commitment

    lp = LinearProgram()
    offset = 0.0
    for k in range(H):
        t = h0 + k
        ch = commitment.hour(t)
        offset += (tariff.price(t) * (ch.grid_buy_kw - ch.grid_sell_kw)
                   - config.reserve_revenue * (ch.reserve_down_kw + ch.reserve_up_kw))
    lp.objective_offset = offset

    def block(k: int, tag: str, label: str, weight: float, *, prev,
              load_k: float, pv_k: float, shared=None):
        t = h0 + k
        ch = commitment.hour(t)
        net = float(load_k - pv_k - ch.grid_buy_kw + ch.grid_sell_kw)
        v = _add_hour_block(
            lp, config, tag=tag, hour_label=label,
            soc_prev=prev["soc"], udg_prev=prev["udg"], dg_prev=prev["dg"],
            reserve_down=ch.reserve_down_kw, reserve_up=ch.reserve_up_kw,
            net_load=net, shared=shared, elastic=elastic)
        # objective coefficients accumulate, so per-scenario weights on the
        # shared first-hour variables sum back to an unweighted hour
        lp.set_objective(v["dg"], weight * config.dg_unit_cost)
        lp.set_objective(v["ch"], weight * config.ess_unit_cost)
        lp.set_objective(v["dis"], weight * config.ess_unit_cost)
        if elastic:
            lp.set_objective(v["slack"],
                             weight * ELASTIC_PENALTY_FACTOR * config.dg_unit_cost)
        return v

    # floats, because _add_hour_block reads an int as a variable index
    boundary = {"soc": float(state.soc_kwh),
                "udg": 1.0 if state.dg_on else 0.0,
                "dg": float(state.dg_prev_kw)}

    if mode in (PERFECT, FORECAST):
        if context.load_kw is None:
            raise ModelBuildError(f"{mode} mode needs a profile in the context")
        prev = boundary
        for k in range(H):
            v = block(k, tag="", label=str(k), weight=1.0, prev=prev,
                      load_k=context.load_kw[k], pv_k=context.pv_kw[k])
            prev = {"soc": v["soc"], "udg": v["udg"], "dg": v["dg"]}
        lp.add_row([(prev["soc"], 1.0)], ">=", config.ess_energy_end)
        return lp

    if context.scenarios is None or context.measured_load_kw is None:
        raise ModelBuildError("stochastic mode needs scenarios and a live measurement")
    scen = context.scenarios

    # merge scenarios that are identical over the remaining window (the live
    # measurement already replaced their first hour): an exact reduction that
    # collapses the program onto the deterministic one when all heads agree
    windows: list[list] = []
    for profile, prob in zip(scen.profiles, scen.probabilities):
        load, pv = _scenario_window(profile, h0, H,
                                    context.measured_load_kw, context.measured_pv_kw)
        for existing in windows:
            if np.array_equal(existing[0], load) and np.array_equal(existing[1], pv):
                existing[2] += prob
                break
        else:
            windows.append([load, pv, float(prob)])

    shared_first: dict | None = None
    for s, (load, pv, prob) in enumerate(windows):
        prev = boundary
        for k in range(H):
            shared = shared_first if k == 0 else None
            label = "0" if k == 0 else f"{s},{k}"
            v = block(k, tag=f"{s},", label=label, weight=prob, prev=prev,
                      load_k=load[k], pv_k=pv[k], shared=shared)
            if k == 0 and shared_first is None:
                keys = ["dg", "ch", "dis", "uess", "udg", "start", "stop"]
                if elastic:
                    keys.append("slack")
                shared_first = {key: v[key] for key in keys}
            prev = {"soc": v["soc"], "udg": v["udg"], "dg": v["dg"]}
        lp.add_row([(prev["soc"], 1.0)], ">=", config.ess_energy_end)
    return lp


def extract_commitment(solution: MilpSolution, config: MicrogridConfig) -> Commitment:
    """Read the committed schedule out of an optimal day-ahead solution."""
    if solution.status is not SolveStatus.OPTIMAL:
        raise ExtractionError(f"cannot extract from a {solution.status.value} solution")
    T = HOURS_PER_DAY
    gb = np.zeros(T)
    gs = np.zeros(T)
    rd = np.zeros(T)
    rc = np.zeros(T)
    buying = np.zeros(T, dtype=bool)
    for t in range(T):
        buying[t] = solution.value(f"ug[{t}]") > 0.5
        gb[t] = _round_clip(solution.value(f"gb[{t}]"))
        gs[t] = _round_clip(solution.value(f"gs[{t}]"))
        rd[t] = _round_clip(solution.value(f"rd[{t}]"))
        rc[t] = _round_clip(solution.value(f"rc[{t}]"))
        if buying[t]:
            gs[t] = 0.0
            rd[t] = 0.0
        else:
            gb[t] = 0.0
            rc[t] = 0.0
        gb[t] = min(gb[t], config.grid_power_cap)
        gs[t] = min(gs[t], config.grid_power_cap)
    commitment = Commitment(grid_buy_kw=gb, grid_sell_kw=gs, reserve_down_kw=rd,
                            reserve_up_kw=rc, buying=buying)
    commitment.check(config)
    return commitment


def extract_setpoint(solution: MilpSolution, config: MicrogridConfig) -> DispatchSetpoint:
    """First-hour decision of an optimal real-time solution; the rest is discarded.

    `start[0]` and `stop[0]` are continuous, and an optimum may use any
    fraction of a ramp allowance. A `start[0]` above ROUND_TOL with the
    generator on is a start; otherwise a `stop[0]` above ROUND_TOL sets the
    stop flag, so a plan that leans on the shutdown ramp gets it from the
    plant. At most one flag is set.
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
    start = on and solution.value("start[0]") > ROUND_TOL
    return DispatchSetpoint(
        dg_kw=dg, ess_charge_kw=chg, ess_discharge_kw=dis,
        dg_start=start,
        dg_stop=not start and solution.value("stop[0]") > ROUND_TOL,
    )


def extract_slack(solution: MilpSolution) -> float:
    """First-hour balance shortfall of an elastic re-solve (0 when absent)."""
    try:
        return _round_clip(solution.value("slack[0]"))
    except KeyError:
        return 0.0


def solve_day_ahead(scenarios: ScenarioSet, tariff: TariffSchedule,
                    initial_soc_kwh: float, config: MicrogridConfig,
                    **solve_kwargs) -> tuple[Commitment, MilpSolution]:
    """Build and solve the commitment program, returning both artifacts."""
    model = build_day_ahead(scenarios, tariff, initial_soc_kwh, config)
    solution = solve_milp(model, **solve_kwargs)
    if solution.status is not SolveStatus.OPTIMAL:
        raise ExtractionError(f"day-ahead solve ended {solution.status.value}")
    return extract_commitment(solution, config), solution


def _round_clip(value: float) -> float:
    """Zero out sub-tolerance dust and clamp tiny negatives.

    Values are deliberately NOT quantized onto a grid: plans often leave the
    battery exactly the headroom a later hour needs, and shifting flows by
    half a rounding step makes the successor model infeasible at the dust
    scale. The plant instead tolerates ~1e-6 in its discrete decisions.
    """
    value = float(value)
    return 0.0 if abs(value) < ROUND_TOL else max(0.0, value)
