"""Linear programs and binary MILPs, solved by HiGHS.

The model container holds finitely-bounded variables, a minimize objective
and sparse constraint rows as blocks of numpy arrays; model builders append
whole blocks (`add_vars`, `add_rows`), and tests may still write one
variable or row at a time. `_Standard` joins the blocks and builds, with
numpy, the one CSR matrix and row bounds that HiGHS takes row-wise and the
residual check reads, so no solve walks the terms in Python. `solve_milp`
runs HiGHS's branch-and-cut in one session of the `_Highs` class that scipy
bundles, with a zero relative gap, so an optimal result is proven optimal,
not merely near it. A model with no binaries is an LP, and HiGHS solves it
as one through the same call. HiGHS is deterministic for a given model and
start, so identical calls give identical results bit for bit.

Every optimal result is re-verified against the original rows before it is
returned; the solver's own bookkeeping is never trusted for feasibility.
HiGHS writes some progress lines from native code straight to file
descriptor 1, whatever its options say, so each call runs with that
descriptor pointed at the null device.
"""

from __future__ import annotations

import ctypes
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy
from scipy.optimize._highspy import _core as highs_core

RESIDUAL_TOL = 1e-6      # independent post-solve constraint check
NODE_LIMIT = 100_000     # branch-and-bound nodes; read at each solve
# selects no engine: every model goes to HiGHS. The benchmark's trace still
# labels real-time solves with at most this many binaries as `rt_bnb`.
BNB_BINARY_LIMIT = 40

LE, GE, EQ = "<=", ">=", "="

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
    ITERATION_LIMIT = "iteration_limit"


#: HiGHS model statuses as `SolveStatus`; every other status (node limit,
#: solver errors) reads as ITERATION_LIMIT. No model is unbounded:
#: `LinearProgram.add_var` refuses infinite bounds.
_STATUS = {highs_core.HighsModelStatus.kOptimal: SolveStatus.OPTIMAL,
           highs_core.HighsModelStatus.kInfeasible: SolveStatus.INFEASIBLE,
           highs_core.HighsModelStatus.kModelError: SolveStatus.INFEASIBLE}


class SolverError(RuntimeError):
    """Model construction or numerical failure (not an infeasible status)."""


class LinearProgram:
    """A minimize LP/MILP with named, finitely-bounded variables.

    Integrality is restricted to binary variables (bounds [0, 1]). Variables
    and rows are kept as blocks of numpy arrays: `add_vars` and `add_rows`
    append a whole block, and `add_var`, `add_binary` and `add_row` a block
    of one. `lower`, `upper`, `objective` and `rows` read the blocks back;
    `rows` and `objective` are built on demand, for tests and traces, and the
    solver reads the arrays through `_Standard`. `is_binary` stays a list, so
    an entry can be reassigned.
    """

    def __init__(self):
        self.names: list[str] = []
        self.is_binary: list[bool] = []
        self.objective_offset: float = 0.0
        self._index: dict[str, int] = {}
        # each list starts with an empty block, which fixes the dtypes
        index, value = np.empty(0, dtype=np.int64), np.empty(0)
        self._bounds = [(value, value)]                # (lower, upper) per variable
        self._costs = [(index, value)]                 # (index, coefficient)
        self._terms = [(index, index, value)]          # (row, index, coefficient)
        self._sides = [(np.empty(0, dtype="<U2"), value)]  # (relation, rhs) per row
        self._num_rows = 0

    @property
    def num_vars(self) -> int:
        return len(self.names)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    def add_vars(self, names: list[str], lower, upper, binary=False) -> np.ndarray:
        """Declare one variable per name, with its bounds (arrays or scalars)
        and binary flag; returns their indices."""
        k = len(names)
        lower = np.broadcast_to(np.asarray(lower, dtype=float), (k,)).copy()
        upper = np.broadcast_to(np.asarray(upper, dtype=float), (k,)).copy()
        first = self.num_vars
        index = dict(zip(names, range(first, first + k)))
        if len(index) < k or not self._index.keys().isdisjoint(index):
            seen = set(self._index)
            for name in names:
                if name in seen:
                    raise SolverError(f"duplicate variable {name!r}")
                seen.add(name)
        bad = np.flatnonzero(~(np.isfinite(lower) & np.isfinite(upper)))
        if bad.size:
            raise SolverError(f"variable {names[bad[0]]!r} needs finite bounds")
        bad = np.flatnonzero(lower > upper)
        if bad.size:
            raise SolverError(f"variable {names[bad[0]]!r} has empty bound range")
        self.names.extend(names)
        self.is_binary.extend(np.broadcast_to(np.asarray(binary, dtype=bool), (k,)).tolist())
        self._index.update(index)
        self._bounds.append((lower, upper))
        return np.arange(first, first + k)

    def add_var(self, name: str, lower: float, upper: float) -> int:
        return int(self.add_vars([name], lower, upper)[0])

    def add_binary(self, name: str) -> int:
        return int(self.add_vars([name], 0.0, 1.0, binary=True)[0])

    def index(self, name: str) -> int:
        return self._index[name]

    def add_costs(self, indices, coefficients) -> None:
        """Add `coefficients[i]` to the objective coefficient of variable
        `indices[i]`."""
        indices = np.asarray(indices, dtype=np.int64)
        bad = np.flatnonzero((indices < 0) | (indices >= self.num_vars))
        if bad.size:
            raise SolverError(f"objective references undeclared variable index {indices[bad[0]]}")
        self._costs.append((indices, np.broadcast_to(
            np.asarray(coefficients, dtype=float), indices.shape).copy()))

    def set_objective(self, idx: int, coefficient: float) -> None:
        if coefficient:
            self.add_costs([idx], [coefficient])

    def add_rows(self, rows, cols, coefs, rels, rhs) -> np.ndarray:
        """Append a block of `len(rhs)` rows, each `terms rel rhs`: term `i`
        is `coefs[i]` times variable `cols[i]` in row `rows[i]` of the block,
        counted from 0. Terms may come in any order, and repeated (row,
        variable) terms sum. `rels` is one relation or one per row; returns
        the rows' indices."""
        rhs = np.array(rhs, dtype=float).reshape(-1)
        k = len(rhs)
        rels = np.broadcast_to(np.asarray(rels), (k,))
        bad = np.flatnonzero(~((rels == LE) | (rels == GE) | (rels == EQ)))
        if bad.size:
            raise SolverError(f"unknown relation {rels.tolist()[bad[0]]!r}")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        coefs = np.array(coefs, dtype=float)
        bad = np.flatnonzero((cols < 0) | (cols >= self.num_vars))
        if bad.size:
            raise SolverError(f"row references undeclared variable index {cols[bad[0]]}")
        if ((rows < 0) | (rows >= k)).any() or not (rows.shape == cols.shape == coefs.shape):
            raise SolverError("row terms do not match the block's rows")
        first = self._num_rows
        self._terms.append((rows + first, cols, coefs))
        self._sides.append((rels.astype("<U2"), rhs))
        self._num_rows += k
        return np.arange(first, first + k)

    def add_row(self, terms: list[tuple[int, float]], rel: str, rhs: float) -> int:
        return int(self.add_rows([0] * len(terms), [idx for idx, _ in terms],
                                 [coef for _, coef in terms], rel, [rhs])[0])

    @property
    def lower(self) -> np.ndarray:
        return _joined(self._bounds)[0]

    @property
    def upper(self) -> np.ndarray:
        return _joined(self._bounds)[1]

    def _objective_array(self) -> np.ndarray:
        """The dense objective: each variable's coefficients summed in the
        order they were added."""
        indices, coefs = _joined(self._costs)
        return np.bincount(indices, weights=coefs, minlength=self.num_vars)

    @property
    def objective(self) -> dict[int, float]:
        """{variable index: coefficient} of every nonzero objective coefficient."""
        c = self._objective_array()
        return {int(i): float(c[i]) for i in np.flatnonzero(c)}

    def _row_arrays(self) -> tuple[np.ndarray, ...]:
        """(row, variable index, coefficient) of every term in the order
        added, then each row's relation and right-hand side."""
        return (*_joined(self._terms), *_joined(self._sides))

    @property
    def rows(self) -> list[tuple[list[tuple[int, float]], str, float]]:
        """Each row as (terms, relation, rhs), its terms in the order added."""
        row, col, coef, rels, rhs = self._row_arrays()
        order = np.argsort(row, kind="stable")
        bounds = np.searchsorted(row[order], np.arange(self._num_rows + 1)).tolist()
        terms = list(zip(col[order].tolist(), coef[order].tolist()))
        return [(terms[a:b], rel, side) for a, b, rel, side
                in zip(bounds[:-1], bounds[1:], rels.tolist(), rhs.tolist())]


def _joined(blocks: list) -> tuple[np.ndarray, ...]:
    """The blocks' arrays joined field by field. The list is left holding
    the one joined block, so the next read joins nothing."""
    if len(blocks) > 1:
        blocks[:] = [tuple(np.concatenate(field) for field in zip(*blocks))]
    return blocks[0]


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
    """The model as arrays: objective, bounds and one sparse row matrix in
    canonical CSR form (rows in order, each row's columns ascending,
    repeated terms summed in the order they were added, zeros dropped), with
    each row's lower and upper bound. Row `i` holds
    `data[indptr[i]:indptr[i + 1]]` in the columns
    `indices[indptr[i]:indptr[i + 1]]`; HiGHS's `passModel` takes these
    arrays row-wise. A non-finite objective coefficient, row coefficient or
    right-hand side raises SolverError naming the variable or the row."""

    def __init__(self, model: LinearProgram):
        n = model.num_vars
        m = model.num_rows
        self.n = n
        self.m = m
        self.lb = model.lower
        self.ub = model.upper
        self.binaries = np.flatnonzero(model.is_binary)
        self.c = model._objective_array()
        self.offset = model.objective_offset
        row, col, data, rels, rhs = model._row_arrays()

        # indices held in 8 or 16 bits sort by radix, so on every dispatch
        # model the sort is linear in the terms
        index_type = np.min_scalar_type(max(n, m))
        order = np.lexsort((col.astype(index_type), row.astype(index_type)))
        row, col, data = row[order], col[order], data[order]
        new = np.ones(len(row), dtype=bool)
        new[1:] = (row[1:] != row[:-1]) | (col[1:] != col[:-1])
        if not new.all():
            data = np.add.reduceat(data, np.flatnonzero(new))
            row, col = row[new], col[new]
        kept = data != 0
        self._row, col, self.data = row[kept], col[kept], data[kept]
        self.indices = col.astype(np.int32)
        self.indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(np.bincount(self._row, minlength=m), out=self.indptr[1:])
        self.row_lb = np.where(rels == LE, -np.inf, rhs)
        self.row_ub = np.where(rels == GE, np.inf, rhs)

        bad = np.flatnonzero(~np.isfinite(self.c))
        if bad.size:
            raise SolverError(
                f"variable {model.names[bad[0]]!r} has objective coefficient {self.c[bad[0]]}")
        bad = np.flatnonzero(~np.isfinite(self.data))
        if bad.size:
            raise SolverError(f"row {self._row[bad[0]]} has coefficient {self.data[bad[0]]} "
                              f"on variable {model.names[col[bad[0]]]!r}")
        bad = np.flatnonzero(~np.isfinite(rhs))
        if bad.size:
            raise SolverError(f"row {bad[0]} has right-hand side {rhs[bad[0]]}")

    def verified(self, x: np.ndarray) -> np.ndarray:
        """`x`, after checking every bound and row, each row scaled by its
        largest coefficient; raises when the worst violation passes
        RESIDUAL_TOL."""
        worst = max(float(np.max(self.lb - x, initial=0.0)),
                    float(np.max(x - self.ub, initial=0.0)))
        if self.m:
            scale = np.ones(self.m)
            filled = np.diff(self.indptr) > 0
            if filled.any():
                scale[filled] = np.maximum(np.maximum.reduceat(
                    np.abs(self.data), self.indptr[:-1][filled]), 1.0)
            ax = np.bincount(self._row, weights=self.data * x[self.indices], minlength=self.m)
            resid = np.maximum(self.row_lb - ax, ax - self.row_ub) / scale
            worst = max(worst, float(np.max(resid, initial=0.0)))
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


def solve_milp(model: LinearProgram, *,
               start: dict[int, float] | None = None) -> MilpSolution:
    """Solve the MILP with HiGHS's branch-and-cut to a proven optimum.

    The relative gap is zero and the feasibility tolerances are 1e-9, two
    decades inside the residual check. An optimal point has its binaries
    rounded and its values clipped to their bounds, then every row is
    checked again. A search that hits NODE_LIMIT nodes reports
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
    for name, value in (*_OPTIONS.items(), ("mip_max_nodes", NODE_LIMIT)):
        if highs.setOptionValue(name, value) == highs_core.HighsStatus.kError:
            raise SolverError(f"HiGHS rejects option {name}={value!r}")
    integrality = np.zeros(std.n, dtype=np.int32)
    integrality[std.binaries] = 1
    if highs.passModel(std.n, std.m, len(std.data), int(highs_core.MatrixFormat.kRowwise),
                       int(highs_core.ObjSense.kMinimize), 0.0, std.c, std.lb, std.ub,
                       std.row_lb, std.row_ub, std.indptr, std.indices, std.data,
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
