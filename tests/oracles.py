"""Independent brute-force oracles, random instance generators and the
per-term reference builders for the solver and model tests, the column-wise
reference solve and the reference DQN training loop.

The brute-force oracles share no code with `milp.py` beyond the model
container: LPs are checked by enumerating every basic point, MILPs by
enumerating every binary assignment and solving the LP left by each with
scipy's `linprog` on the dense rows. `reference_day_ahead` and
`reference_realtime` write the dispatch models one variable and one row at a
time through the container's scalar calls; `dispatch` writes them as arrays,
and the tests require equal standard forms. `reference_shifted_start` builds
a warm start by name, one variable at a time; `dispatch.shifted_start`
builds it from index arrays, and the tests require equal dicts.
`reference_train_agent` runs the target network over every sampled batch;
`drl` keeps per-slot target values, and the tests require bit-identical
weights and curves. `reference_colwise_solve` hands HiGHS the standard form
as CSC arrays; `solve_milp` passes the CSR arrays row-wise, and the tests
require bit-identical solutions.
"""

from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog
from scipy.optimize._highspy import _core as highs_core

import microdispatch.drl as drl
import microdispatch.milp as milp
from microdispatch.dispatch import (
    ELASTIC_PENALTY_FACTOR,
    ELASTIC_SLACK_CAP,
    FORECAST,
    PERFECT,
    STOCHASTIC,
    ModelBuildError,
)
from microdispatch.domain import HOURS_PER_DAY
from microdispatch.milp import (
    _OPTIONS,
    _STATUS,
    LinearProgram,
    MilpSolution,
    SolveStatus,
    _Standard,
    _quiet_run,
)


def dense_rows(model):
    n = model.num_vars
    A = np.zeros((model.num_rows, n))
    rels, rhs = [], []
    for r, (terms, rel, b) in enumerate(model.rows):
        for idx, coef in terms:
            A[r, idx] += coef
        rels.append(rel)
        rhs.append(b)
    return A, rels, np.array(rhs)


def point_feasible(model, x, tol=1e-7):
    lb = np.array(model.lower)
    ub = np.array(model.upper)
    if (x < lb - tol).any() or (x > ub + tol).any():
        return False
    A, rels, rhs = dense_rows(model)
    ax = A @ x
    for i, rel in enumerate(rels):
        if rel == "<=" and ax[i] > rhs[i] + tol:
            return False
        if rel == ">=" and ax[i] < rhs[i] - tol:
            return False
        if rel == "=" and abs(ax[i] - rhs[i]) > tol:
            return False
    return True


def vertex_enumeration_minimum(model):
    """Brute-force LP oracle: every basic point from every square subsystem.

    A vertex activates k constraint rows and pins the other n-k variables at
    one of their bounds; all such systems are solved and filtered for
    feasibility. Returns the best objective, or None if no feasible point.
    """
    n = model.num_vars
    A, _, rhs = dense_rows(model)
    m = A.shape[0]
    lb = np.array(model.lower)
    ub = np.array(model.upper)
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] = coef
    best = None
    for k in range(0, min(m, n) + 1):
        for active_rows in combinations(range(m), k):
            for pinned in combinations(range(n), n - k):
                free = [j for j in range(n) if j not in pinned]
                for bits in product((0, 1), repeat=len(pinned)):
                    x = np.zeros(n)
                    for j, bit in zip(pinned, bits):
                        x[j] = ub[j] if bit else lb[j]
                    if free:
                        sub = A[np.ix_(active_rows, free)]
                        target = rhs[list(active_rows)]
                        if pinned:
                            target = target - A[np.ix_(active_rows, pinned)] @ x[list(pinned)]
                        if abs(np.linalg.det(sub)) < 1e-10:
                            continue
                        x[free] = np.linalg.solve(sub, target)
                    if point_feasible(model, x):
                        obj = float(c @ x + model.objective_offset)
                        if best is None or obj < best:
                            best = obj
    return best


def binary_enumeration_minimum(model):
    """Brute-force MILP oracle: every binary assignment, then an LP cleanup.

    Returns the best objective, or None if no assignment is feasible.
    """
    A, rels, rhs = dense_rows(model)
    rels = np.array(rels, dtype=object)
    # linprog takes A_ub @ x <= b_ub, so >= rows are negated
    sign = np.where(rels == ">=", -1.0, 1.0)
    ineq = rels != "="
    rows = {"A_ub": sign[ineq, None] * A[ineq], "b_ub": sign[ineq] * rhs[ineq],
            "A_eq": A[~ineq], "b_eq": rhs[~ineq]}
    rows = {key: value for key, value in rows.items() if len(value)}
    c = np.zeros(model.num_vars)
    for idx, coef in model.objective.items():
        c[idx] = coef
    bins = [i for i, b in enumerate(model.is_binary) if b]
    best = None
    for bits in product((0.0, 1.0), repeat=len(bins)):
        bounds = list(zip(model.lower, model.upper))
        for idx, bit in zip(bins, bits):
            bounds[idx] = (bit, bit)
        res = linprog(c, bounds=bounds, method="highs", **rows,
                      options={"primal_feasibility_tolerance": 1e-9,
                               "dual_feasibility_tolerance": 1e-9})
        if res.status == 0:
            objective = float(res.fun) + model.objective_offset
            if best is None or objective < best:
                best = objective
    return best


def random_lp(rng, max_vars=5, max_rows=6):
    model = LinearProgram()
    n = int(rng.integers(2, max_vars + 1))
    for j in range(n):
        lo = float(rng.uniform(-5, 0))
        hi = lo + float(rng.uniform(0.5, 8))
        model.add_var(f"x{j}", lo, hi)
        model.set_objective(j, float(rng.normal()))
    mid = (np.array(model.lower) + np.array(model.upper)) / 2
    for _ in range(int(rng.integers(1, max_rows + 1))):
        coefs = rng.normal(size=n)
        rel = ("<=", ">=", "=")[int(rng.integers(0, 3))]
        # equality rows pass through the box midpoint so that most instances
        # stay feasible; inequalities get noise and may cut the box away
        noise = 0.0 if rel == "=" else float(rng.normal()) * 2
        rhs = float(coefs @ mid) + noise
        model.add_row([(j, float(coefs[j])) for j in range(n)], rel, rhs)
    return model


def random_milp(rng, max_binaries=6, max_cont=8, max_rows=8):
    model = LinearProgram()
    nb = int(rng.integers(1, max_binaries + 1))
    nc = int(rng.integers(1, max_cont + 1))
    for j in range(nb):
        b = model.add_binary(f"u{j}")
        model.set_objective(b, float(rng.normal() * 3))
    for j in range(nc):
        lo = float(rng.uniform(-4, 0))
        hi = lo + float(rng.uniform(0.5, 6))
        v = model.add_var(f"x{j}", lo, hi)
        model.set_objective(v, float(rng.normal()))
    n = model.num_vars
    mid = (np.array(model.lower) + np.array(model.upper)) / 2
    for _ in range(int(rng.integers(1, max_rows + 1))):
        coefs = rng.normal(size=n)
        rel = ("<=", ">=")[int(rng.integers(0, 2))]
        rhs = float(coefs @ mid + rng.normal())
        model.add_row([(j, float(coefs[j])) for j in range(n)], rel, rhs)
    return model


# ---------------------------------------------------------------------------
# per-term reference builders


def _var(idx: int):
    """A variable as a linear expression `(terms, constant)`."""
    return [(idx, 1.0)], 0.0


def _const(value: float):
    """A constant as a linear expression `(terms, constant)`."""
    return [], float(value)


_ZERO = _const(0.0)


def _add_row(lp, terms, rel, rhs, coef, expr, coef2=0.0, expr2=_ZERO):
    """The row `terms + coef * expr + coef2 * expr2 rel rhs`, with the
    expressions' constants moved to the right-hand side."""
    for idx, a in expr[0]:
        terms.append((idx, coef * a))
    for idx, a in expr2[0]:
        terms.append((idx, coef2 * a))
    lp.add_row(terms, rel, rhs - coef * expr[1] - coef2 * expr2[1])


def _add_hour_block(lp, cfg, label, prev, weight, *, reserve_down, reserve_up, net_load,
                    grid=_ZERO, elastic=False):
    """One hour's plant variables, costs and 14 rows, one term at a time.
    Everything the hour couples to is a `(terms, constant)` expression."""
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

    balance = [(dis, 1.0), (ch, -1.0), (dg, 1.0)]
    if elastic:
        balance.append((v["slack"], 1.0))
    _add_row(lp, balance, ">=", net_load, 1.0, grid)
    lp.add_row([(dis, 1.0), (uess, -cfg.ess_power_cap)], "<=", 0.0)
    lp.add_row([(ch, 1.0), (uess, cfg.ess_power_cap)], "<=", cfg.ess_power_cap)
    _add_row(lp, [(soc, 1.0), (dis, cfg.eta_discharge), (ch, -cfg.eta_charge)], "=", 0.0,
             -1.0, prev["soc"])
    _add_row(lp, [(dis, 1.0), (ch, -1.0)], "<=", cfg.ess_power_cap, 1.0, reserve_down)
    _add_row(lp, [(dis, -1.0), (ch, 1.0)], "<=", cfg.ess_power_cap, 1.0, reserve_up)
    lp.add_row([(start, 1.0), (stop, 1.0)], "<=", 1.0)
    _add_row(lp, [(start, 1.0), (stop, -1.0), (udg, -1.0)], "<=", 0.0, 1.0, prev["udg"])
    _add_row(lp, [(start, 1.0)], "<=", 1.0, 1.0, prev["udg"])
    lp.add_row([(start, 1.0), (udg, -1.0)], "<=", 0.0)
    lp.add_row([(dg, 1.0), (udg, -cfg.dg_power_max)], "<=", 0.0)
    lp.add_row([(dg, -1.0), (udg, cfg.dg_power_min)], "<=", 0.0)
    _add_row(lp, [(dg, 1.0), (start, -cfg.dg_startup_ramp)], "<=", 0.0,
             -1.0, prev["dg"], -cfg.dg_ramp_up, prev["udg"])
    _add_row(lp, [(dg, -1.0), (udg, -cfg.dg_ramp_down), (stop, -cfg.dg_shutdown_ramp)],
             "<=", 0.0, 1.0, prev["dg"])
    return v


def _carried(v):
    return {"soc": _var(v["soc"]), "udg": _var(v["udg"]), "dg": _var(v["dg"])}


def reference_day_ahead(scenarios, tariff, initial_soc_kwh, config):
    """`dispatch.build_day_ahead`, written one term at a time."""
    if not (config.ess_energy_min <= initial_soc_kwh <= config.ess_energy_max):
        raise ModelBuildError(f"initial SOC {initial_soc_kwh} outside the ESS bounds")
    lp = LinearProgram()
    schedule = []
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
            v = _add_hour_block(lp, config, f"{s},{t}", prev, prob,
                                reserve_down=reserve_down, reserve_up=reserve_up,
                                net_load=net_load[t], grid=grid)
            prev = _carried(v)
        lp.add_row([(v["soc"], 1.0)], ">=", config.ess_energy_end)
    return lp


def reference_realtime(context, tariff, config, mode, *, elastic=False):
    """`dispatch.build_realtime`, written one term at a time."""
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
            reserve_down=_const(ch.reserve_down_kw), reserve_up=_const(ch.reserve_up_kw),
            net_load=float(load[k] - pv[k] - ch.grid_buy_kw + ch.grid_sell_kw),
            elastic=elastic)

    boundary = {"soc": _const(state.soc_kwh), "udg": _const(state.dg_on),
                "dg": _const(state.dg_prev_kw)}
    first = hour("0", boundary, 1.0, context.load_kw[0], context.pv_kw[0], 0)
    for s, (load, pv, prob) in enumerate(zip(context.load_kw, context.pv_kw,
                                             context.probabilities)):
        v = first
        for k in range(1, context.hours):
            v = hour(f"{s},{k}", _carried(v), prob, load, pv, k)
        lp.add_row([(v["soc"], 1.0)], ">=", config.ess_energy_end)
    return lp


# ---------------------------------------------------------------------------
# warm start by name


def reference_shifted_start(model, context, plan, plan_context):
    """`dispatch.shifted_start`, looking up two names per later hour and row."""
    shift = context.start_hour - plan_context.start_hour
    if shift < 0:
        return {}
    start = {}
    plan_rows = list(zip(plan_context.load_kw, plan_context.pv_kw))
    for s, (load, pv) in enumerate(zip(context.load_kw, context.pv_kw)):
        paired = next((p for p, (old_load, old_pv) in enumerate(plan_rows)
                       if np.array_equal(load[1:], old_load[shift + 1:])
                       and np.array_equal(pv[1:], old_pv[shift + 1:])), None)
        if paired is None:
            continue
        for k in range(1, len(load)):
            for key in ("udg", "uess"):
                start[model.index(f"{key}[{s},{k}]")] = plan.value(
                    f"{key}[{paired},{k + shift}]")
    return start


# ---------------------------------------------------------------------------
# DQN training without per-slot target values


def reference_train_agent(environment, config):
    """`drl.train_agent` as it ran before the replay kept target values:
    every training step runs the target network over its sampled next
    states. The module constants are read at call time, so a test that
    patches them patches both loops."""
    rng = np.random.default_rng(config.seed)
    sizes = [drl.STATE_DIMENSION, *drl.HIDDEN_LAYERS, config.action_count]
    network = drl.MlpNetwork.initialize(sizes, rng)
    target = network.copy()
    capacity, dimension = drl.REPLAY_CAPACITY, drl.STATE_DIMENSION
    states, next_states = np.empty((capacity, dimension)), np.empty((capacity, dimension))
    actions, rewards = np.empty(capacity, dtype=np.int64), np.empty(capacity)
    episodes = len(environment.days) if config.episodes is None else config.episodes
    curve, pushes = [], 0
    bound = environment.reward_magnitude_bound() / (1.0 - drl.DISCOUNT)
    obs = environment.observe()
    for _ in range(episodes):
        episode_reward = 0.0
        day_finished = False
        while not day_finished:
            if rng.random() < drl._epsilon(pushes, config):
                action = int(rng.integers(config.action_count))
            else:
                action = int(np.argmax(drl.forward(network, obs)))
            step_reward, day_finished = environment.step(action)
            episode_reward += step_reward
            next_obs = environment.observe()
            i = pushes % capacity
            states[i], actions[i], rewards[i], next_states[i] = (obs, action, step_reward,
                                                                 next_obs)
            obs = next_obs
            pushes += 1
            if min(pushes, capacity) >= drl.BATCH_SIZE:
                idx = rng.integers(0, min(pushes, capacity), size=drl.BATCH_SIZE)
                next_q = target.forward_batch(next_states[idx])[-1]
                batch = (states[idx], actions[idx], rewards[idx], next_q.max(axis=1))
                drl.train_step(network, batch, bound)
            if pushes % drl.TARGET_SYNC_INTERVAL == 0:
                target = network.copy()
        curve.append(episode_reward)
    return network, curve


# ---------------------------------------------------------------------------
# column-wise solve


def reference_colwise_solve(model, start=None):
    """`milp.solve_milp` as it ran before it passed the matrix row-wise: the
    canonical CSR arrays re-sorted into CSC, passed with `kColwise`. The
    module's NODE_LIMIT is read at call time."""
    std = _Standard(model)
    highs = highs_core._Highs()
    for name, value in (*_OPTIONS.items(), ("mip_max_nodes", milp.NODE_LIMIT)):
        assert highs.setOptionValue(name, value) != highs_core.HighsStatus.kError, name
    order = np.argsort(std.indices, kind="stable")
    indptr = np.zeros(std.n + 1, dtype=np.int32)
    np.cumsum(np.bincount(std.indices, minlength=std.n), out=indptr[1:])
    integrality = np.zeros(std.n, dtype=np.int32)
    integrality[std.binaries] = 1
    assert highs.passModel(std.n, std.m, len(std.data), int(highs_core.MatrixFormat.kColwise),
                           int(highs_core.ObjSense.kMinimize), 0.0, std.c, std.lb, std.ub,
                           std.row_lb, std.row_ub, indptr, std._row[order].astype(np.int32),
                           std.data[order], integrality) != highs_core.HighsStatus.kError
    if start:
        assert highs.setSolution(len(start), np.array(list(start), dtype=np.int32),
                                 np.array(list(start.values()))) != highs_core.HighsStatus.kError
    _quiet_run(highs)
    info = highs.getInfo()
    status = _STATUS.get(highs.getModelStatus(), SolveStatus.ITERATION_LIMIT)
    x = obj = None
    if status is SolveStatus.OPTIMAL:
        x = np.array(highs.getSolution().col_value, dtype=float)
        x[std.binaries] = np.round(x[std.binaries])
        np.clip(x, std.lb, std.ub, out=x)
        x = std.verified(x)
        obj = float(std.c @ x + std.offset)
    return MilpSolution(status=status, objective=obj, values=x, columns=model._index,
                        node_count=max(int(info.mip_node_count), 0),
                        iterations=int(info.simplex_iteration_count))
