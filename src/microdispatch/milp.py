"""Linear programs and binary MILPs, solved by HiGHS.

The model container is a plain list of finitely-bounded variables, a minimize
objective, and sparse constraint rows. `solve_lp` solves the relaxation
(binaries treated as continuous in [0, 1]) with HiGHS's dual simplex through
scipy's `linprog`; `solve_milp` runs HiGHS's branch-and-cut through scipy's
`milp` with a zero relative gap, so an optimal result is proven optimal, not
merely near it. HiGHS is deterministic for a given model, so identical models
give identical results bit for bit.

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
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, linprog
from scipy.optimize import milp as scipy_milp

RESIDUAL_TOL = 1e-6      # independent post-solve constraint check
# HiGHS tolerances, two decades inside the residual check
_HIGHS_TOLERANCES = {"primal_feasibility_tolerance": 1e-9,
                     "dual_feasibility_tolerance": 1e-9}
DEFAULT_NODE_LIMIT = 100_000
# selects no engine: every model goes to HiGHS. The benchmark's trace still
# labels real-time solves with at most this many binaries as `rt_bnb`.
BNB_BINARY_LIMIT = 40

LE, GE, EQ = "<=", ">=", "="
_RELS = (LE, GE, EQ)

_libc = ctypes.CDLL(None)
_libc.fflush.argtypes = [ctypes.c_void_p]
_libc.fflush.restype = ctypes.c_int


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


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
    names: tuple[str, ...] = ()
    node_count: int = 0
    iterations: int = 0
    _by_name: dict = field(default_factory=dict, repr=False)

    def value(self, name: str) -> float:
        if not self._by_name:
            self._by_name.update({n: i for i, n in enumerate(self.names)})
        return float(self.values[self._by_name[name]])

    @property
    def ok(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


# ---------------------------------------------------------------------------
# standard form


class _Standard:
    """The model as arrays: objective, bounds and one sparse row matrix."""

    def __init__(self, model: LinearProgram):
        n = model.num_vars
        m = model.num_rows
        self.n = n
        self.m = m
        self.names = tuple(model.names)
        self.lb = np.array(model.lower, dtype=float)
        self.ub = np.array(model.upper, dtype=float)
        self.binaries = np.flatnonzero(model.is_binary)
        self.c = np.zeros(n)
        for idx, coef in model.objective.items():
            self.c[idx] = coef
        self.offset = model.objective_offset

        rows_i, cols_i, data = [], [], []
        rels, rhs = [], []
        for r, (terms, rel, b) in enumerate(model.rows):
            merged: dict[int, float] = {}
            for idx, coef in terms:
                merged[idx] = merged.get(idx, 0.0) + coef
            for idx, coef in merged.items():
                if coef:
                    rows_i.append(r)
                    cols_i.append(idx)
                    data.append(coef)
            rels.append(rel)
            rhs.append(b)
        self.rows = sparse.csr_array(
            (data, (rows_i, cols_i)), shape=(m, n)) if m else None
        self.rels = np.array(rels) if m else np.empty(0, dtype="<U2")
        self.rhs = np.array(rhs, dtype=float)

    def inequality_form(self):
        """(A_ub, b_ub, A_eq, b_eq) for `linprog`, with >= rows negated."""
        le = self.rels == LE
        ge = self.rels == GE
        eq = self.rels == EQ
        A_ub = b_ub = A_eq = b_eq = None
        if le.any() or ge.any():
            parts, rhs_parts = [], []
            if le.any():
                parts.append(self.rows[le])
                rhs_parts.append(self.rhs[le])
            if ge.any():
                parts.append(-self.rows[ge])
                rhs_parts.append(-self.rhs[ge])
            A_ub = sparse.vstack(parts, format="csr")
            b_ub = np.concatenate(rhs_parts)
        if eq.any():
            A_eq = self.rows[eq]
            b_eq = self.rhs[eq]
        return A_ub, b_ub, A_eq, b_eq

    def range_form(self):
        """One `LinearConstraint` for `milp`: every row as lower <= Ax <= upper."""
        if not self.m:
            return []
        row_lb = np.where(self.rels == LE, -np.inf, self.rhs)
        row_ub = np.where(self.rels == GE, np.inf, self.rhs)
        return LinearConstraint(self.rows, row_lb, row_ub)

    def verified(self, x: np.ndarray, what: str) -> np.ndarray:
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
            raise SolverError(f"{what} returned an infeasible point (residual {worst:.3e})")
        return x


# ---------------------------------------------------------------------------
# solves


def _highs(solver, **kwargs):
    """Call a scipy HiGHS entry point with file descriptor 1 on the null device.

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
                return solver(**kwargs)
            finally:
                _libc.fflush(None)
                os.dup2(saved, 1)
    finally:
        os.close(saved)


def _status(res) -> SolveStatus:
    return {0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE,
            3: SolveStatus.UNBOUNDED}.get(res.status, SolveStatus.ITERATION_LIMIT)


def solve_lp(model: LinearProgram, *, max_iterations: int | None = None) -> MilpSolution:
    """Solve the LP relaxation (binaries treated as continuous in [0, 1])."""
    std = _Standard(model)
    A_ub, b_ub, A_eq, b_eq = std.inequality_form()
    options = {"presolve": True, **_HIGHS_TOLERANCES}
    if max_iterations is not None:
        options["maxiter"] = max_iterations
    res = _highs(linprog, c=std.c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                 bounds=np.column_stack([std.lb, std.ub]), method="highs-ds",
                 options=options)
    iters = int(np.sum(res.nit)) if res.nit is not None else 0
    status = _status(res)
    x = obj = None
    if status is SolveStatus.OPTIMAL:
        x = std.verified(np.asarray(res.x, dtype=float), "LP solve")
        obj = float(std.c @ x + std.offset)
    return MilpSolution(status=status, objective=obj, values=x,
                        names=std.names, node_count=0, iterations=iters)


def solve_milp(model: LinearProgram, *,
               node_limit: int = DEFAULT_NODE_LIMIT) -> MilpSolution:
    """Solve the MILP with HiGHS's branch-and-cut to a proven optimum.

    The relative gap is zero and the feasibility tolerances are 1e-9, two
    decades inside the residual check. An optimal point has its binaries
    rounded and its values clipped to their bounds, then every row is
    checked again. A search that hits `node_limit` nodes reports
    ITERATION_LIMIT. `iterations` is always 0: scipy does not report
    HiGHS's simplex iterations for a MILP.

    HiGHS's feasibility-jump heuristic is off. It only hunts for feasible
    points, so the zero-gap proof of optimality is unchanged, but it runs
    on every call. On the 432 real-time windows of a seed-0 compare-reset
    round (2 vCPUs), turning it off kept every node count, kept objectives
    within 3e-15 relative, and cut the total solve time from 3.9 to 1.9 s
    (perfect), 4.4 to 1.9 s (forecast) and 18.7 to 13.6 s (stochastic).
    """
    std = _Standard(model)
    integrality = np.zeros(std.n)
    integrality[std.binaries] = 1
    options = {"mip_rel_gap": 0.0, "node_limit": node_limit, "presolve": True,
               **_HIGHS_TOLERANCES, "mip_feasibility_tolerance": 1e-9,
               "mip_heuristic_run_feasibility_jump": False}
    with warnings.catch_warnings():
        # scipy forwards the HiGHS tolerance and heuristic options verbatim
        # but warns; that pass-through is exactly what we want
        warnings.filterwarnings("ignore", message="Unrecognized options",
                                category=RuntimeWarning)
        res = _highs(scipy_milp, c=std.c, constraints=std.range_form(),
                     integrality=integrality, bounds=Bounds(std.lb, std.ub),
                     options=options)
    nodes = int(getattr(res, "mip_node_count", 0) or 0)
    status = _status(res)
    x = obj = None
    if status is SolveStatus.OPTIMAL:
        x = np.asarray(res.x, dtype=float)
        x[std.binaries] = np.round(x[std.binaries])
        np.clip(x, std.lb, std.ub, out=x)
        x = std.verified(x, "MIP solve")
        obj = float(std.c @ x + std.offset)
    return MilpSolution(status=status, objective=obj, values=x,
                        names=std.names, node_count=nodes, iterations=0)


# ---------------------------------------------------------------------------
# textual dump (round-trippable)
#
# Grammar, one declaration per line; '#' starts a comment:
#   minimize: <term> {<term>} [offset <float>] ;
#   row: <term> {<term>} (<=|>=|=) <float> ;
#   var: <name> in [<float>, <float>] ;
#   binary: <name> ;
# where <term> is '+ <float> <name>' or '- <float> <name>' (sign always
# explicit, coefficient always present). Variable declarations precede use.


def dump_lp(model: LinearProgram) -> str:
    def terms(pairs):
        chunks = []
        for idx, coef in pairs:
            sign = "-" if coef < 0 else "+"
            chunks.append(f"{sign} {abs(coef):.12g} {model.names[idx]}")
        return " ".join(chunks) if chunks else "+ 0 _zero_"

    lines = []
    for i, name in enumerate(model.names):
        if model.is_binary[i]:
            lines.append(f"binary: {name} ;")
        else:
            lines.append(f"var: {name} in [{model.lower[i]:.12g}, {model.upper[i]:.12g}] ;")
    obj = sorted(model.objective.items())
    offset = f" offset {model.objective_offset:.12g}" if model.objective_offset else ""
    lines.append(f"minimize: {terms(obj)}{offset} ;")
    for row_terms, rel, rhs in model.rows:
        lines.append(f"row: {terms(row_terms)} {rel} {rhs:.12g} ;")
    return "\n".join(lines) + "\n"


def parse_lp(text: str) -> LinearProgram:
    model = LinearProgram()

    def parse_terms(tokens):
        pairs = []
        i = 0
        while i < len(tokens):
            sign, coef, name = tokens[i], tokens[i + 1], tokens[i + 2]
            if sign not in "+-":
                raise SolverError(f"expected sign, got {sign!r}")
            value = float(coef) * (-1.0 if sign == "-" else 1.0)
            if name != "_zero_":
                pairs.append((model.index(name), value))
            i += 3
        return pairs

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.endswith(";"):
            raise SolverError(f"line {lineno}: missing ';'")
        head, _, body = line[:-1].partition(":")
        tokens = body.split()
        kind = head.strip()
        try:
            if kind == "var":
                name = tokens[0]
                lo = float(tokens[2].strip("[,"))
                hi = float(tokens[3].strip("],"))
                model.add_var(name, lo, hi)
            elif kind == "binary":
                model.add_binary(tokens[0])
            elif kind == "minimize":
                if len(tokens) >= 2 and tokens[-2] == "offset":
                    model.objective_offset = float(tokens[-1])
                    tokens = tokens[:-2]
                for idx, coef in parse_terms(tokens):
                    model.set_objective(idx, coef)
            elif kind == "row":
                rel_pos = next(i for i, t in enumerate(tokens) if t in _RELS)
                pairs = parse_terms(tokens[:rel_pos])
                model.add_row(pairs, tokens[rel_pos], float(tokens[rel_pos + 1]))
            else:
                raise SolverError(f"unknown declaration {kind!r}")
        except (IndexError, ValueError, KeyError) as exc:
            raise SolverError(f"line {lineno}: {exc}") from exc
    return model
