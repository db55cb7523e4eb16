"""Linear programs and binary MILPs, solved by HiGHS.

The model container is a plain list of finitely-bounded variables, a minimize
objective, and sparse constraint rows. `solve_milp` runs HiGHS's
branch-and-cut in one session of the `_Highs` class that scipy bundles, with
a zero relative gap, so an optimal result is proven optimal, not merely near
it. A model with no binaries is an LP, and HiGHS solves it as one through the
same call. HiGHS is deterministic for a given model and start, so identical
calls give identical results bit for bit.

Every optimal result is re-verified against the original rows before it is
returned; the solver's own bookkeeping is never trusted for feasibility.
HiGHS writes some progress lines from native code straight to file
descriptor 1, whatever its options say, so each call runs with that
descriptor pointed at the null device.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy
from scipy import sparse
from scipy.optimize._highspy import _core as highs_core

RESIDUAL_TOL = 1e-6      # independent post-solve constraint check
DEFAULT_NODE_LIMIT = 100_000
# selects no engine: every model goes to HiGHS. The benchmark's trace still
# labels real-time solves with at most this many binaries as `rt_bnb`.
BNB_BINARY_LIMIT = 40

LE, GE, EQ = "<=", ">=", "="
_RELS = (LE, GE, EQ)

_libc = ctypes.CDLL(None)
_libc.fflush.argtypes = [ctypes.c_void_p]
_libc.fflush.restype = ctypes.c_int

#: the `_Highs` methods `solve_milp` calls beyond the basic run and getters
REQUIRED_HIGHS_METHODS = ("passModel", "setSolution", "getInfo")


def check_highs_bindings(highs_class) -> None:
    """Raise ImportError unless `highs_class` has every method in
    REQUIRED_HIGHS_METHODS; the message names the scipy version."""
    missing = [name for name in REQUIRED_HIGHS_METHODS if not hasattr(highs_class, name)]
    if missing:
        raise ImportError(
            f"scipy {scipy.__version__} bundles HiGHS bindings without "
            f"{', '.join(missing)}; microdispatch needs a scipy whose "
            f"_highspy._Highs has {', '.join(REQUIRED_HIGHS_METHODS)}")


check_highs_bindings(highs_core._Highs)


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


#: HiGHS model statuses as `SolveStatus`; every other status (node limit,
#: "unbounded or infeasible", solver errors) reads as ITERATION_LIMIT
_STATUS = {highs_core.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
           highs_core.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
           highs_core.HighsModelStatus.kModelError: SolveStatus.INFEASIBLE,
           highs_core.HighsModelStatus.kUnbounded: SolveStatus.UNBOUNDED}


class SolverError(RuntimeError):
    """Model construction or numerical failure (not an infeasible status)."""


class LinearProgram:
    """A minimize LP/MILP with named, finitely-bounded variables.

    Integrality is restricted to binary variables (bounds [0, 1]); rows are
    sparse lists of (variable index, coefficient).
    """

    def __init__(self):
        self.names: list[str] = []
        self.lower: list[float] = []
        self.upper: list[float] = []
        self.is_binary: list[bool] = []
        self.objective: dict[int, float] = {}
        self.objective_offset: float = 0.0
        self.rows: list[tuple[list[tuple[int, float]], str, float]] = []
        self._index: dict[str, int] = {}

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    def add_var(self, name: str, lower: float, upper: float) -> int:
        if name in self._index:
            raise SolverError(f"duplicate variable {name!r}")
        if not (math.isfinite(lower) and math.isfinite(upper)):
            raise SolverError(f"variable {name!r} needs finite bounds")
        if lower > upper:
            raise SolverError(f"variable {name!r} has empty bound range")
        idx = len(self.names)
        self.names.append(name)
        self.lower.append(float(lower))
        self.upper.append(float(upper))
        self.is_binary.append(False)
        self._index[name] = idx
        return idx

    def add_binary(self, name: str) -> int:
        idx = self.add_var(name, 0.0, 1.0)
        self.is_binary[idx] = True
        return idx

    def index(self, name: str) -> int:
        return self._index[name]

    def set_objective(self, idx: int, coefficient: float) -> None:
        if coefficient:
            self.objective[idx] = self.objective.get(idx, 0.0) + float(coefficient)

    def add_row(self, terms: list[tuple[int, float]], rel: str, rhs: float) -> int:
        if rel not in _RELS:
            raise SolverError(f"unknown relation {rel!r}")
        n = self.num_vars
        for idx, _ in terms:
            if not (0 <= idx < n):
                raise SolverError(f"row references undeclared variable index {idx}")
        self.rows.append((list(terms), rel, float(rhs)))
        return len(self.rows) - 1


@dataclass
class MilpSolution:
    status: SolveStatus
    objective: float | None
    values: np.ndarray | None
    columns: dict[str, int] = field(repr=False)  # the solved model's name -> index
    node_count: int = 0
    iterations: int = 0

    def value(self, name: str) -> float:
        return float(self.values[self.columns[name]])

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


# ---------------------------------------------------------------------------
# standard form


class _Standard:
    """The model as arrays: objective, bounds and one sparse row matrix. A
    non-finite objective coefficient, row coefficient or right-hand side
    raises SolverError naming the variable or the row."""

    def __init__(self, model: LinearProgram):
        n = model.num_vars
        m = model.num_rows
        self.n = n
        self.m = m
        self.lb = np.array(model.lower, dtype=float)
        self.ub = np.array(model.upper, dtype=float)
        self.binaries = np.flatnonzero(model.is_binary)
        self.c = np.zeros(n)
        for idx, coef in model.objective.items():
            self.c[idx] = coef
        self.offset = model.objective_offset

        rows_i, cols_i, data = [], [], []
        for r, (terms, _, _) in enumerate(model.rows):
            for idx, coef in terms:
                rows_i.append(r)
                cols_i.append(idx)
                data.append(coef)
        # the constructor sums repeated (row, variable) terms
        self.rows = sparse.csr_array((data, (rows_i, cols_i)), shape=(m, n))
        self.rows.eliminate_zeros()
        self.rels = np.array([rel for _, rel, _ in model.rows], dtype="<U2")
        self.rhs = np.array([b for _, _, b in model.rows], dtype=float)

        bad = np.flatnonzero(~np.isfinite(self.c))
        if bad.size:
            raise SolverError(
                f"variable {model.names[bad[0]]!r} has objective coefficient {self.c[bad[0]]}")
        bad = np.flatnonzero(~np.isfinite(self.rows.data))
        if bad.size:
            row = int(np.searchsorted(self.rows.indptr, bad[0], side="right")) - 1
            raise SolverError(f"row {row} has coefficient {self.rows.data[bad[0]]} on "
                              f"variable {model.names[self.rows.indices[bad[0]]]!r}")
        bad = np.flatnonzero(~np.isfinite(self.rhs))
        if bad.size:
            raise SolverError(f"row {bad[0]} has right-hand side {self.rhs[bad[0]]}")

    def columns(self):
        """The row matrix in the CSC arrays HiGHS's `passModel` takes, and
        each row's lower and upper bound."""
        matrix = sparse.csc_array(self.rows)
        row_lb = np.where(self.rels == LE, -np.inf, self.rhs)
        row_ub = np.where(self.rels == GE, np.inf, self.rhs)
        return (matrix.indptr.astype(np.int32), matrix.indices.astype(np.int32),
                matrix.data.astype(float), row_lb, row_ub)

    def verified(self, x: np.ndarray) -> np.ndarray:
        """`x`, after checking every bound and row, each row scaled by its
        largest coefficient; raises when the worst violation passes
        RESIDUAL_TOL."""
        worst = max(float(np.max(self.lb - x, initial=0.0)),
                    float(np.max(x - self.ub, initial=0.0)))
        if self.m:
            scale = np.maximum(abs(self.rows).max(axis=1).toarray().ravel(), 1.0)
            resid = (self.rows @ x - self.rhs) / scale
            for sel, sign in ((self.rels == LE, 1.0), (self.rels == GE, -1.0)):
                if sel.any():
                    worst = max(worst, float(np.max(sign * resid[sel], initial=0.0)))
            eq = self.rels == EQ
            if eq.any():
                worst = max(worst, float(np.max(np.abs(resid[eq]), initial=0.0)))
        if worst > RESIDUAL_TOL:
            raise SolverError(f"HiGHS returned an infeasible point (residual {worst:.3e})")
        return x


# ---------------------------------------------------------------------------
# solves


#: HiGHS options of every solve; `solve_milp` adds `mip_max_nodes`
_OPTIONS = {"output_flag": False, "log_to_console": False, "presolve": "on",
            "mip_rel_gap": 0.0,
            "primal_feasibility_tolerance": 1e-9,
            "dual_feasibility_tolerance": 1e-9,
            "mip_feasibility_tolerance": 1e-9,
            "mip_heuristic_run_feasibility_jump": False,
            "mip_allow_restart": False,
            "mip_heuristic_run_rins": False}


def _quiet_run(highs) -> None:
    """Run HiGHS with file descriptor 1 on the null device.

    HiGHS prints some MIP progress lines from native code, past every
    option. C stdio buffers are flushed on both sides of the swap, so
    nothing printed before the call is lost and nothing HiGHS buffered
    leaks out after the descriptor is restored. The descriptor is shared by
    the whole process, so solves must not run on two threads at once.
    """
    _libc.fflush(None)
    saved = os.dup(1)
    try:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), 1)
            try:
                highs.run()
            finally:
                _libc.fflush(None)
                os.dup2(saved, 1)
    finally:
        os.close(saved)


def solve_milp(model: LinearProgram, *, node_limit: int = DEFAULT_NODE_LIMIT,
               start: dict[int, float] | None = None) -> MilpSolution:
    """Solve the MILP with HiGHS's branch-and-cut to a proven optimum.

    The relative gap is zero and the feasibility tolerances are 1e-9, two
    decades inside the residual check. An optimal point has its binaries
    rounded and its values clipped to their bounds, then every row is
    checked again. A search that hits `node_limit` nodes reports
    ITERATION_LIMIT. `node_count` and `iterations` are HiGHS's branch-and-
    bound nodes and simplex iterations (0 nodes for an LP).

    `start` maps variable indices to values of a known or guessed point,
    typically some of the binaries. HiGHS completes it and, when it is
    feasible, starts from it as the incumbent. The proof of optimality is
    the same, so the optimal objective does not depend on the start; where
    several points attain it, the one returned may.

    HiGHS's feasibility-jump heuristic is off. It only hunts for feasible
    points, so the zero-gap proof of optimality is unchanged, but it runs
    on every call. On the 432 real-time windows of a seed-0 compare-reset
    round (2 vCPUs), turning it off kept every node count, kept objectives
    within 3e-15 relative, and cut the total solve time from 3.9 to 1.9 s
    (perfect), 4.4 to 1.9 s (forecast) and 18.7 to 13.6 s (stochastic).

    Root restarts and the RINS sub-MIP are off too; like feasibility jump,
    they steer the search, not the proof. On the benchmark's day-ahead model
    (history seed 0, planning SOC 2500) they spent 4389 of 7223 simplex
    iterations in sub-MIPs and redid presolve twice after the optimum was
    found. Without them it takes 3455 iterations and 15 nodes instead of 13,
    and about 1 s instead of 3 s (2 vCPUs). Over 39 day-ahead models
    (history seeds 0-11 and 42, planning SOC 2500, 12500 and 20000) the
    iterations fell from 136068 to 72385 and the time from 55.7 to 21.4 s,
    with objectives within 9e-15 relative. The 864 real-time windows of
    seed-0 and seed-3 compare-reset rounds took 2% more iterations (64572 to
    66049) and 3% less time, with objectives within 3e-15 relative. Turning
    RENS off as well slowed the stochastic windows.
    """
    std = _Standard(model)
    highs = highs_core._Highs()
    for name, value in (*_OPTIONS.items(), ("mip_max_nodes", node_limit)):
        if highs.setOptionValue(name, value) == highs_core.HighsStatus.kError:
            raise SolverError(f"HiGHS rejects option {name}={value!r}")
    indptr, indices, data, row_lb, row_ub = std.columns()
    integrality = np.zeros(std.n, dtype=np.int32)
    integrality[std.binaries] = 1
    if highs.passModel(std.n, std.m, len(data), int(highs_core.MatrixFormat.kColwise),
                       int(highs_core.ObjSense.kMinimize), 0.0, std.c, std.lb, std.ub,
                       row_lb, row_ub, indptr, indices, data,
                       integrality) == highs_core.HighsStatus.kError:
        raise SolverError("HiGHS rejects the model")
    if start and highs.setSolution(
            len(start), np.fromiter(start, dtype=np.int32, count=len(start)),
            np.fromiter(start.values(), dtype=float, count=len(start))
    ) == highs_core.HighsStatus.kError:
        raise SolverError("HiGHS rejects the start (a variable index out of range)")
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
