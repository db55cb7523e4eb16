"""Independent brute-force oracles and random instance generators for the
solver tests. Nothing here shares code with `milp.py` beyond the model
container: LPs are checked by enumerating every basic point, MILPs by
enumerating every binary assignment and solving the LP left by each with
scipy's `linprog` on the dense rows."""

from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog

from microdispatch.milp import LinearProgram


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
