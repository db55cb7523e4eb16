"""Correctness checks the benchmark applies to every run.

Each check recomputes what it verifies with this file's own arithmetic from
the public report fields; nothing is compared against a stored copy of an
earlier output. A check returns a list of problem strings, empty when the
check passes, so the caller can count each check as one operation.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from microdispatch.domain import validate_trajectory

HOURS_PER_DAY = 24
#: absolute tolerance on powers and energies (kW, kWh), as in the plant
POWER_TOL = 1e-6
#: relative tolerance on costs and objectives
COST_RTOL = 1e-6


def _cost_close(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(1.0, abs(a), abs(b))


def check_hour(state, outcome, price: float, config) -> list[str]:
    """Recompute one realized hour from its ledger.

    Covers the balance identity ``supply - load = curtailed - shortfall``,
    the blackout flag, the SOC recursion with both efficiencies, the SOC
    and power bounds (ESS power net of the committed reserve), and the
    step cost from the tariff price and the config.
    """
    led = outcome.ledger
    problems = []

    supply = (led.pv_kw + led.grid_buy_kw - led.grid_sell_kw + led.dg_kw
              + led.ess_discharge_kw - led.ess_charge_kw)
    net = supply - led.load_kw
    if abs(net - (outcome.curtailed_kw - outcome.shortfall_kw)) > POWER_TOL:
        problems.append(f"balance: supply - load = {net:.6f} but curtailed - shortfall = "
                        f"{outcome.curtailed_kw - outcome.shortfall_kw:.6f}")
    if min(outcome.curtailed_kw, outcome.shortfall_kw) < -POWER_TOL:
        problems.append("balance: negative curtailment or shortfall")
    if outcome.blackout != (outcome.shortfall_kw > POWER_TOL):
        problems.append(f"blackout flag {outcome.blackout} with shortfall "
                        f"{outcome.shortfall_kw:.6f}")

    soc = (state.soc_kwh - config.eta_discharge * led.ess_discharge_kw
           + config.eta_charge * led.ess_charge_kw)
    if abs(outcome.soc_kwh - soc) > POWER_TOL:
        problems.append(f"soc recursion: reported {outcome.soc_kwh:.6f}, expected {soc:.6f}")
    if not (config.ess_energy_min - POWER_TOL <= outcome.soc_kwh
            <= config.ess_energy_max + POWER_TOL):
        problems.append(f"soc bounds: {outcome.soc_kwh:.6f}")

    dis_cap = max(0.0, config.ess_power_cap - led.reserve_down_kw)
    ch_cap = max(0.0, config.ess_power_cap - led.reserve_up_kw)
    if not (-POWER_TOL <= led.ess_discharge_kw <= dis_cap + POWER_TOL):
        problems.append(f"discharge {led.ess_discharge_kw:.6f} outside [0, {dis_cap}]")
    if not (-POWER_TOL <= led.ess_charge_kw <= ch_cap + POWER_TOL):
        problems.append(f"charge {led.ess_charge_kw:.6f} outside [0, {ch_cap}]")
    if min(led.ess_discharge_kw, led.ess_charge_kw) > POWER_TOL:
        problems.append("ESS charges and discharges in one hour")
    if led.dg_kw > POWER_TOL and not (config.dg_power_min - POWER_TOL <= led.dg_kw
                                      <= config.dg_power_max + POWER_TOL):
        problems.append(f"generator power {led.dg_kw:.6f} outside its stable range")
    for value in (led.grid_buy_kw, led.grid_sell_kw):
        if not (-POWER_TOL <= value <= config.grid_power_cap + POWER_TOL):
            problems.append(f"grid exchange {value:.6f} outside [0, cap]")

    cost = (price * (led.grid_buy_kw - led.grid_sell_kw)
            - config.reserve_revenue * (led.reserve_down_kw + led.reserve_up_kw)
            + config.ess_unit_cost * (led.ess_discharge_kw + led.ess_charge_kw)
            + config.dg_unit_cost * led.dg_kw)
    if not _cost_close(cost, outcome.step_cost):
        problems.append(f"step cost: reported {outcome.step_cost!r}, expected {cost!r}")
    return problems


def check_ledger(report, tariff, config, reset_soc_kwh: float | None) -> list[list[str]]:
    """One problem list per realized hour of a report.

    Besides `check_hour`, each hour's starting SOC must be the previous
    hour's realized SOC, or the reset value at a midnight in reset mode.
    """
    results = []
    previous = None
    for record in report.records:
        state = record.state
        problems = check_hour(state, record.outcome, tariff.price(state.hour_of_day), config)
        if previous is not None:
            expected = previous.outcome.soc_kwh
            if state.hour_of_day == 0 and reset_soc_kwh is not None:
                expected = reset_soc_kwh
            if state.soc_kwh != expected:
                problems.append(f"hour starts at SOC {state.soc_kwh!r}, expected {expected!r}")
        results.append(problems)
        previous = record
    return results


def check_validator(report, config) -> list[str]:
    """`validate_trajectory` may flag only power balance, and exactly on blackouts."""
    violations = validate_trajectory(report.trajectory(), report.commitments, config)
    blackouts = {i for i, r in enumerate(report.records) if r.outcome.blackout}
    balance = set()
    problems = []
    for v in violations:
        if v.constraint == "power-balance":
            balance.add(v.step)
        else:
            problems.append(f"step {v.step}: {v.constraint} by {v.magnitude:.6g}")
    if balance != blackouts:
        problems.append(f"power-balance violations on steps {sorted(balance)} "
                        f"but blackouts on {sorted(blackouts)}")
    return problems


def daily_costs(report) -> list[float]:
    costs = [r.outcome.step_cost for r in report.records]
    return [float(sum(costs[d * HOURS_PER_DAY:(d + 1) * HOURS_PER_DAY]))
            for d in range(len(costs) // HOURS_PER_DAY)]


def blackout_days(report) -> set[int]:
    return {r.day_index for r in report.records if r.outcome.blackout}


def check_perfect_identity(realized: float, objective: float | None) -> list[str]:
    """A perfect-information day realizes exactly its hour-0 window optimum."""
    if objective is None:
        return ["the hour-0 perfect window has no optimal solution"]
    if not _cost_close(realized, objective):
        return [f"realized {realized!r} but the hour-0 optimum is {objective!r}"]
    return []


def check_dominance(cost: float, perfect_cost: float) -> list[str]:
    """No controller beats perfect information on a day without blackouts."""
    if cost < perfect_cost - COST_RTOL * max(1.0, abs(perfect_cost)):
        return [f"day cost {cost!r} below the perfect-information cost {perfect_cost!r}"]
    return []


def scipy_objective(model) -> float | None:
    """Solve a `LinearProgram` with scipy's MILP from its public fields.

    Returns the objective including the model's constant offset, or None
    when scipy finds no optimum. The gap is closed exactly, so the result
    is a reference optimum, not a heuristic bound.
    """
    n = len(model.names)
    c = np.zeros(n)
    for idx, coefficient in model.objective.items():
        c[idx] += coefficient
    rows, cols, vals = [], [], []
    row_lb = np.empty(len(model.rows))
    row_ub = np.empty(len(model.rows))
    for r, (terms, rel, rhs) in enumerate(model.rows):
        for idx, coefficient in terms:
            rows.append(r)
            cols.append(idx)
            vals.append(coefficient)
        row_lb[r] = rhs if rel in (">=", "=") else -np.inf
        row_ub[r] = rhs if rel in ("<=", "=") else np.inf
    matrix = coo_matrix((vals, (rows, cols)), shape=(len(model.rows), n)).tocsr()
    result = milp(c, constraints=LinearConstraint(matrix, row_lb, row_ub),
                  integrality=np.asarray(model.is_binary, dtype=int),
                  bounds=Bounds(np.asarray(model.lower), np.asarray(model.upper)),
                  options={"mip_rel_gap": 0.0})
    if result.status != 0:
        return None
    return float(result.fun) + model.objective_offset


def check_crosscheck(model, objective: float) -> list[str]:
    """The in-house optimum agrees with scipy's within 1e-6 relative."""
    reference = scipy_objective(model)
    if reference is None:
        return [f"scipy finds no optimum where the in-house solver found {objective!r}"]
    if not _cost_close(objective, reference):
        return [f"in-house objective {objective!r}, scipy {reference!r}"]
    return []
