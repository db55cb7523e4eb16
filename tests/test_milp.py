import copy
import ctypes
import os
import warnings
from itertools import combinations

import numpy as np
import pytest
import scipy
from oracles import (
    binary_enumeration_minimum,
    point_feasible,
    random_lp,
    random_milp,
    vertex_enumeration_minimum,
)
from scipy.optimize._highspy import _core as highs_core

import microdispatch.milp as milp
from microdispatch.dataio import SyntheticParams, generate_dataset, split_train_test
from microdispatch.dispatch import (
    PERFECT,
    RealTimeContext,
    build_day_ahead,
    build_realtime,
    solve_day_ahead,
)
from microdispatch.domain import Commitment, MicrogridConfig, MicrogridState, TariffSchedule
from microdispatch.milp import (
    REQUIRED_HIGHS_METHODS,
    RESIDUAL_TOL,
    _OPTIONS,
    LinearProgram,
    SolverError,
    SolveStatus,
    _Standard,
    check_highs_bindings,
    solve_milp,
)
from microdispatch.scenarios import build_dayahead_scenarios

ORACLE_TOL = 1e-6


def late_realtime_windows():
    """Perfect-mode windows from hours 22 and 23 (8 and 4 binaries), with the
    generator off and running, under no, a buying and a selling commitment."""
    day = generate_dataset(SyntheticParams(seed=5, days=1))[0]
    z = np.zeros(24)
    buying = Commitment(np.full(24, 3000.0), z, z, np.full(24, 1000.0), np.ones(24, bool))
    selling = Commitment(z, np.full(24, 1000.0), np.full(24, 1500.0), z, np.zeros(24, bool))
    for hour in (22, 23):
        for soc, dg_prev in ((9000.0, 0.0), (20000.0, 6000.0)):
            state = MicrogridState(hour_of_day=hour, soc_kwh=soc, soc_midnight_kwh=soc,
                                   dg_prev_kw=dg_prev)
            for commitment in (Commitment.zero(), buying, selling):
                context = RealTimeContext(state=state, start_hour=hour, hours=24 - hour,
                                          commitment=commitment, load_kw=day.load_kw[hour:],
                                          pv_kw=day.pv_kw[hour:])
                yield build_realtime(context, TariffSchedule(), MicrogridConfig(), PERFECT)


class TestSolveLp:
    """Models without binaries: HiGHS solves them as LPs through `solve_milp`."""

    def test_bound_active_optimum(self):
        model = LinearProgram()
        x = model.add_var("x", 0, 5)
        model.set_objective(x, -1.0)
        sol = solve_milp(model)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-5.0, abs=1e-9)
        assert sol.value("x") == pytest.approx(5.0, abs=1e-9)

    def test_tight_constraint(self):
        model = LinearProgram()
        x = model.add_var("x", 0, 10)
        y = model.add_var("y", 0, 10)
        model.set_objective(x, 1.0)
        model.set_objective(y, 1.0)
        model.add_row([(x, 1.0), (y, 1.0)], ">=", 3.0)
        sol = solve_milp(model)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_infeasible_status(self):
        model = LinearProgram()
        x = model.add_var("x", 0, 1)
        model.add_row([(x, 1.0)], ">=", 2.0)
        assert solve_milp(model).status is SolveStatus.INFEASIBLE

    def test_equality_row(self):
        model = LinearProgram()
        x = model.add_var("x", -3, 3)
        y = model.add_var("y", -3, 3)
        model.set_objective(x, 1.0)
        model.add_row([(x, 1.0), (y, 2.0)], "=", 1.0)
        sol = solve_milp(model)
        assert sol.objective == pytest.approx(-3.0)

    def test_degenerate_model_terminates(self):
        # many redundant rows through one vertex: a highly degenerate optimum
        model = LinearProgram()
        xs = [model.add_var(f"x{j}", 0, 10) for j in range(4)]
        for j in xs:
            model.set_objective(j, -1.0)
        for subset in combinations(xs, 2):
            model.add_row([(j, 1.0) for j in subset], "<=", 4.0)
        for subset in combinations(xs, 3):
            model.add_row([(j, 1.0) for j in subset], "<=", 6.0)
        sol = solve_milp(model)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-8.0, abs=1e-7)

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(20):
            model = random_lp(rng)
            expect = vertex_enumeration_minimum(model)
            sol = solve_milp(model)
            if expect is None:
                assert sol.status is not SolveStatus.OPTIMAL
            else:
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective == pytest.approx(expect, abs=ORACLE_TOL)
                assert point_feasible(model, sol.values)
                checked += 1
        assert checked >= 10  # most random instances must be feasible


class TestSolveMilp:
    def test_knapsack(self):
        model = LinearProgram()
        a = model.add_binary("a")
        b = model.add_binary("b")
        c = model.add_binary("c")
        for var, value in ((a, -5.0), (b, -4.0), (c, -3.0)):
            model.set_objective(var, value)
        model.add_row([(a, 2.0), (b, 3.0), (c, 1.0)], "<=", 4.0)
        sol = solve_milp(model)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(binary_enumeration_minimum(model), abs=1e-9)
        assert sol.objective == pytest.approx(-8.0, abs=1e-9)
        assert sol.value("a") == 1.0 and sol.value("c") == 1.0

    def test_forced_binary(self):
        model = LinearProgram()
        u = model.add_binary("u")
        x = model.add_var("x", 0, 100)
        model.set_objective(u, 1.0)
        model.add_row([(x, 1.0), (u, -5.0)], "<=", 0.0)
        model.add_row([(x, 1.0)], ">=", 3.0)
        sol = solve_milp(model)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.value("u") == 1.0

    def test_infeasible_milp(self):
        model = LinearProgram()
        u = model.add_binary("u")
        model.add_row([(u, 1.0)], ">=", 0.5)
        model.add_row([(u, 1.0)], "<=", 0.4)
        assert solve_milp(model).status is SolveStatus.INFEASIBLE

    def test_repeated_terms_solve_as_their_merged_rows(self):
        # `x + x <= 3` and `x - x + u <= 1`, against `2x <= 3` and `u <= 1`
        def model(rows):
            lp = LinearProgram()
            lp.set_objective(lp.add_var("x", 0, 5), -1.0)  # index 0
            lp.set_objective(lp.add_binary("u"), -1.0)     # index 1
            for terms, rhs in rows:
                lp.add_row(terms, "<=", rhs)
            return lp

        repeated = model([([(0, 1.0), (0, 1.0)], 3.0), ([(0, 1.0), (0, -1.0), (1, 1.0)], 1.0)])
        merged = model([([(0, 2.0)], 3.0), ([(1, 1.0)], 1.0)])
        a, b = _Standard(repeated), _Standard(merged)
        for field in ("data", "indices", "indptr", "row_lb", "row_ub"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field
        sol_a, sol_b = solve_milp(repeated), solve_milp(merged)
        assert sol_a.ok and sol_b.ok
        assert sol_a.objective == sol_b.objective == -2.5
        assert np.array_equal(sol_a.values, sol_b.values)
        assert np.array_equal(a.verified(sol_b.values), b.verified(sol_a.values))
        for std in (a, b):
            with pytest.raises(SolverError):
                std.verified(np.array([2.0, 1.0]))

    def test_start_keeps_the_optimum(self):
        model = LinearProgram()
        us = [model.add_binary(f"u{j}") for j in range(6)]
        for j, u in enumerate(us):
            model.set_objective(u, -(1.0 + 0.1 * j))
        model.add_row([(u, 1.0) for u in us], "<=", 2.5)
        cold = solve_milp(model)
        # a feasible but poor start, and one that breaks the row
        for start in ({us[0]: 1.0, us[1]: 1.0}, dict.fromkeys(us, 1.0)):
            warm = solve_milp(model, start=start)
            assert warm.ok and warm.objective == pytest.approx(cold.objective, abs=1e-9)

    def test_start_outside_the_model_is_an_error(self):
        model = LinearProgram()
        model.set_objective(model.add_binary("u"), 1.0)
        with pytest.raises(SolverError):
            solve_milp(model, start={3: 1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("where, message", [
        ("objective", "variable 'y' has objective coefficient"),
        ("row", "row 0 has coefficient .* on variable 'y'"),
        ("rhs", "row 0 has right-hand side"),
    ], ids=["objective", "row", "rhs"])
    def test_non_finite_data_is_refused_before_highs(self, bad, where, message):
        model = LinearProgram()
        x = model.add_var("x", 0, 1)
        y = model.add_binary("y")
        model.set_objective(x, 1.0)
        model.set_objective(y, bad if where == "objective" else 1.0)
        model.add_row([(x, 1.0), (y, bad if where == "row" else 1.0)], ">=",
                      bad if where == "rhs" else 1.0)
        with pytest.raises(SolverError, match=message):
            solve_milp(model)

    def test_node_limit_reports_iteration_limit(self, monkeypatch):
        rng = np.random.default_rng(3)
        # a model that genuinely needs branching
        model = LinearProgram()
        us = [model.add_binary(f"u{j}") for j in range(6)]
        for j, u in enumerate(us):
            model.set_objective(u, -(1.0 + 0.1 * j))
        model.add_row([(u, 1.0) for u in us], "<=", 2.5)
        with monkeypatch.context() as patched:
            patched.setattr(milp, "NODE_LIMIT", 2)
            sol = solve_milp(model)
        assert sol.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.OPTIMAL)
        full = solve_milp(model)
        assert full.status is SolveStatus.OPTIMAL
        assert full.objective == pytest.approx(binary_enumeration_minimum(model), abs=1e-9)

    def test_random_milps_match_binary_enumeration(self):
        rng = np.random.default_rng(11)
        feasible = 0
        for _ in range(50):
            model = random_milp(rng)
            expect = binary_enumeration_minimum(model)
            sol = solve_milp(model)
            if expect is None:
                assert sol.status is SolveStatus.INFEASIBLE
            else:
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective == pytest.approx(expect, abs=ORACLE_TOL)
                # binaries exactly integral, everything feasible
                for idx, isbin in enumerate(model.is_binary):
                    if isbin:
                        assert sol.values[idx] in (0.0, 1.0)
                assert point_feasible(model, sol.values)
                feasible += 1
        assert feasible >= 25

    def test_late_realtime_windows_match_binary_enumeration(self):
        for model in late_realtime_windows():
            assert sum(model.is_binary) <= 8
            sol = solve_milp(model)
            assert sol.status is SolveStatus.OPTIMAL
            expect = binary_enumeration_minimum(model)
            assert sol.objective == pytest.approx(expect, abs=ORACLE_TOL)
            assert point_feasible(model, sol.values, tol=1e-6)

    def test_milp_bound_sanity(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            model = random_milp(rng)
            relaxed_model = copy.deepcopy(model)
            relaxed_model.is_binary = [False] * model.num_vars
            relax = solve_milp(relaxed_model)
            full = solve_milp(model)
            if full.status is SolveStatus.OPTIMAL:
                assert relax.status is SolveStatus.OPTIMAL
                assert full.objective >= relax.objective - 1e-9

    def test_determinism_bit_for_bit(self):
        rng = np.random.default_rng(23)
        model = random_milp(rng)
        a = solve_milp(model)
        b = solve_milp(copy.deepcopy(model))
        assert a.status == b.status
        if a.status is SolveStatus.OPTIMAL:
            assert a.objective == b.objective
            assert np.array_equal(a.values, b.values)
            assert a.node_count == b.node_count


class TestVerified:
    """`verified` scales each row by its largest coefficient magnitude, 4
    here, and refuses a point whose worst scaled violation passes
    RESIDUAL_TOL, on whichever side the row's relation forbids."""

    @pytest.mark.parametrize("factor", [0.9, 1.1])
    @pytest.mark.parametrize("side", [-1.0, 1.0], ids=["below", "above"])
    @pytest.mark.parametrize("rel", ["<=", ">=", "="])
    def test_row_violations(self, rel, side, factor):
        model = LinearProgram()
        x = model.add_var("x", -10, 10)
        y = model.add_var("y", -10, 10)
        model.add_row([(x, 1.0), (y, -4.0)], rel, -4.0)
        # x - 4y = -4 + side * factor * 4 * RESIDUAL_TOL: unscaled, even
        # factor 0.9 would pass the tolerance
        point = np.array([0.0, 1.0 - side * factor * RESIDUAL_TOL])
        forbidden = {"<=": side > 0, ">=": side < 0, "=": True}[rel]
        if forbidden and factor > 1:
            with pytest.raises(SolverError, match=r"residual 1\.100e-06"):
                _Standard(model).verified(point)
        else:
            assert _Standard(model).verified(point) is point


class TestModelChecks:
    """`add_vars` and `add_rows` check whole blocks, and a refused block
    leaves the model as it was."""

    def model(self):
        lp = LinearProgram()
        lp.add_vars(["x", "y"], 0.0, [1.0, 2.0])
        lp.add_rows([0, 0, 1], [0, 1, 1], [1.0, 1.0, 3.0], ["<=", ">="], [1.0, 0.5])
        return lp

    @pytest.mark.parametrize("names, lower, upper, message", [
        (["a", "b", "a"], 0.0, 1.0, "duplicate variable 'a'"),
        (["a", "y"], 0.0, 1.0, "duplicate variable 'y'"),
        (["a", "b"], [0.0, -np.inf], 1.0, "variable 'b' needs finite bounds"),
        (["a", "b"], 0.0, [np.nan, 1.0], "variable 'a' needs finite bounds"),
        (["a", "b"], [0.0, 2.0], 1.0, "variable 'b' has empty bound range"),
    ], ids=["repeated", "declared", "infinite", "nan", "empty"])
    def test_refused_variables(self, names, lower, upper, message):
        lp = self.model()
        with pytest.raises(SolverError, match=message):
            lp.add_vars(names, lower, upper)
        assert lp.names == ["x", "y"] and lp.num_vars == 2 and len(lp.lower) == 2

    @pytest.mark.parametrize("cols, rels, message", [
        ([0, 2], "<=", "undeclared variable index 2"),
        ([-1, 0], "<=", "undeclared variable index -1"),
        ([0, 1], ["<=", "=<"], "unknown relation '=<'"),
    ], ids=["past-the-end", "negative", "relation"])
    def test_refused_rows(self, cols, rels, message):
        lp = self.model()
        with pytest.raises(SolverError, match=message):
            lp.add_rows([0, 1], cols, [1.0, 1.0], rels, [0.0, 0.0])
        assert lp.num_rows == 2 and len(lp.rows) == 2

    def test_terms_outside_the_block_are_refused(self):
        lp = self.model()
        with pytest.raises(SolverError, match="do not match the block's rows"):
            lp.add_rows([0, 2], [0, 1], [1.0, 1.0], "<=", [0.0, 0.0])
        assert lp.num_rows == 2

    def test_refused_costs(self):
        lp = self.model()
        with pytest.raises(SolverError, match="undeclared variable index 2"):
            lp.add_costs([1, 2], [1.0, 1.0])
        assert lp.objective == {}

    def test_blocks_read_back_as_scalar_calls_write_them(self):
        lp = self.model()
        lp.add_costs([1, 0, 1], [2.0, -1.0, 0.5])
        scalar = LinearProgram()
        scalar.add_var("x", 0.0, 1.0)
        scalar.add_var("y", 0.0, 2.0)
        scalar.add_row([(0, 1.0), (1, 1.0)], "<=", 1.0)
        scalar.add_row([(1, 3.0)], ">=", 0.5)
        for idx, coef in ((1, 2.0), (0, -1.0), (1, 0.5)):
            scalar.set_objective(idx, coef)
        for field in ("names", "is_binary", "objective", "rows", "num_rows"):
            assert getattr(lp, field) == getattr(scalar, field), field
        assert np.array_equal(lp.lower, scalar.lower) and np.array_equal(lp.upper, scalar.upper)
        assert lp.objective == {0: -1.0, 1: 2.5}


def test_counts_are_highs_nodes_and_simplex_iterations(monkeypatch):
    # a perfect hour-0 window: its LP relaxation takes real simplex work
    day = generate_dataset(SyntheticParams(seed=5, days=1))[0]
    state = MicrogridState(hour_of_day=0, soc_kwh=12500.0, soc_midnight_kwh=12500.0)
    context = RealTimeContext(state=state, start_hour=0, hours=24,
                              commitment=Commitment.zero(), load_kw=day.load_kw,
                              pv_kw=day.pv_kw)
    model = build_realtime(context, TariffSchedule(), MicrogridConfig(), PERFECT)
    sol = solve_milp(model)
    assert sol.ok
    assert sol.iterations > 0
    # the same model and options through scipy's own wrapper count the same nodes
    c = np.zeros(model.num_vars)
    for idx, coef in model.objective.items():
        c[idx] = coef
    rows = np.zeros((model.num_rows, model.num_vars))
    for r, (terms, _, _) in enumerate(model.rows):
        for idx, coef in terms:
            rows[r, idx] += coef
    rels = np.array([rel for _, rel, _ in model.rows])
    rhs = np.array([b for _, _, b in model.rows])
    # scipy takes `presolve` as a bool and hands HiGHS every other key its
    # HighsOptions binding has. The binding lacks `mip_allow_restart`; on this
    # window, solved at its root, the restart changes no count.
    options = {name: value for name, value in _OPTIONS.items()
               if hasattr(highs_core.HighsOptions(), name)}
    assert set(_OPTIONS) - set(options) == {"mip_allow_restart"}
    options["presolve"] = _OPTIONS["presolve"] == "on"
    monkeypatch.setitem(_OPTIONS, "mip_allow_restart", True)
    restarted = solve_milp(model)
    assert (restarted.node_count, restarted.iterations) == (sol.node_count, sol.iterations)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # "passed to HiGHS verbatim"
        warnings.simplefilter("error", scipy.optimize.OptimizeWarning)  # an option dropped
        reference = scipy.optimize.milp(
            c, integrality=np.array(model.is_binary, dtype=int),
            bounds=scipy.optimize.Bounds(model.lower, model.upper),
            constraints=scipy.optimize.LinearConstraint(
                rows, np.where(rels == "<=", -np.inf, rhs), np.where(rels == ">=", np.inf, rhs)),
            options=options)
    assert reference.status == 0
    assert sol.node_count == reference.mip_node_count >= 1
    assert sol.objective == pytest.approx(reference.fun + model.objective_offset, rel=1e-9)


def test_day_ahead_work_bound():
    # the benchmark's contract-end day-ahead model; HiGHS is deterministic, so
    # its simplex iterations repeat exactly (7223 with the root restart and
    # RINS on)
    train, _ = split_train_test(generate_dataset(SyntheticParams(seed=0)))
    model = build_day_ahead(build_dayahead_scenarios(train), TariffSchedule(), 2500.0,
                            MicrogridConfig())
    sol = solve_milp(model)
    assert sol.ok
    assert sol.objective == pytest.approx(21180.9431628366, rel=1e-9)
    assert sol.iterations <= 4500


def test_lp_counts_no_nodes():
    model = LinearProgram()
    x = model.add_var("x", 0, 10)
    y = model.add_var("y", 0, 10)
    model.set_objective(x, -1.0)
    model.set_objective(y, -1.0)
    model.add_row([(x, 1.0), (y, 2.0)], "<=", 12.0)
    model.add_row([(x, 3.0), (y, 1.0)], "<=", 15.0)
    sol = solve_milp(model)
    assert sol.ok and sol.node_count == 0


class TestHighsBindings:
    def test_complete_bindings_pass(self):
        class Complete:
            pass

        for name in REQUIRED_HIGHS_METHODS:
            setattr(Complete, name, lambda self: None)
        check_highs_bindings(Complete)

    def test_missing_method_names_scipy_version(self):
        class NoStart:
            def passModel(self):
                pass

            def getInfo(self):
                pass

        with pytest.raises(ImportError) as exc_info:
            check_highs_bindings(NoStart)
        message = str(exc_info.value)
        assert "setSolution" in message and "passModel" in message
        assert f"scipy {scipy.__version__}" in message


def test_day_ahead_solve_prints_nothing(capfd):
    # HiGHS prints MIP progress lines from native code on this model
    train, _ = split_train_test(generate_dataset(SyntheticParams(seed=42)))
    config = MicrogridConfig()
    os.write(1, b"before\n")
    _, solution = solve_day_ahead(build_dayahead_scenarios(train), TariffSchedule(),
                                  config.ess_energy_end, config)
    os.write(1, b"after\n")
    ctypes.CDLL(None).fflush(None)  # push out anything left in C stdio buffers
    assert solution.ok
    assert capfd.readouterr().out == "before\nafter\n"

