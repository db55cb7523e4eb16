import copy
import ctypes
import os
from itertools import combinations

import numpy as np
import pytest
from oracles import (
    binary_enumeration_minimum,
    point_feasible,
    random_lp,
    random_milp,
    vertex_enumeration_minimum,
)

from microdispatch.dataio import SyntheticParams, generate_dataset, split_train_test
from microdispatch.dispatch import PERFECT, RealTimeContext, build_realtime, solve_day_ahead
from microdispatch.domain import Commitment, MicrogridConfig, MicrogridState, TariffSchedule
from microdispatch.milp import (
    LinearProgram,
    SolveStatus,
    dump_lp,
    parse_lp,
    solve_lp,
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
                                   dg_prev_kw=dg_prev, dg_on=dg_prev > 0)
            for commitment in (Commitment.zero(), buying, selling):
                context = RealTimeContext(state=state, start_hour=hour, hours=24 - hour,
                                          commitment=commitment, load_kw=day.load_kw[hour:],
                                          pv_kw=day.pv_kw[hour:])
                yield build_realtime(context, TariffSchedule(), MicrogridConfig(), PERFECT)


class TestSolveLp:
    def test_bound_active_optimum(self):
        model = LinearProgram()
        x = model.add_var("x", 0, 5)
        model.set_objective(x, -1.0)
        sol = solve_lp(model)
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
        sol = solve_lp(model)
        assert sol.objective == pytest.approx(3.0, abs=1e-9)

    def test_infeasible_status(self):
        model = LinearProgram()
        x = model.add_var("x", 0, 1)
        model.add_row([(x, 1.0)], ">=", 2.0)
        assert solve_lp(model).status is SolveStatus.INFEASIBLE

    def test_equality_row(self):
        model = LinearProgram()
        x = model.add_var("x", -3, 3)
        y = model.add_var("y", -3, 3)
        model.set_objective(x, 1.0)
        model.add_row([(x, 1.0), (y, 2.0)], "=", 1.0)
        sol = solve_lp(model)
        assert sol.objective == pytest.approx(-3.0)

    def test_iteration_limit_status(self):
        model = LinearProgram()
        x = model.add_var("x", 0, 10)
        y = model.add_var("y", 0, 10)
        model.set_objective(x, 1.0)
        model.set_objective(y, 1.0)
        model.add_row([(x, 1.0), (y, 1.0)], ">=", 3.0)
        model.add_row([(x, 1.0), (y, -1.0)], ">=", -1.0)
        sol = solve_lp(model, max_iterations=1)
        assert sol.status is SolveStatus.ITERATION_LIMIT

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
        sol = solve_lp(model)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-8.0, abs=1e-7)

    def test_random_lps_match_vertex_enumeration(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(20):
            model = random_lp(rng)
            expect = vertex_enumeration_minimum(model)
            sol = solve_lp(model)
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

    def test_node_limit_reports_iteration_limit(self):
        rng = np.random.default_rng(3)
        # a model that genuinely needs branching
        model = LinearProgram()
        us = [model.add_binary(f"u{j}") for j in range(6)]
        for j, u in enumerate(us):
            model.set_objective(u, -(1.0 + 0.1 * j))
        model.add_row([(u, 1.0) for u in us], "<=", 2.5)
        sol = solve_milp(model, node_limit=2)
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
            relax = solve_lp(model)
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


class TestDumpRoundTrip:
    def test_round_trip_preserves_solution(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            model = random_milp(rng)
            text = dump_lp(model)
            back = parse_lp(text)
            assert back.names == model.names
            assert back.is_binary == model.is_binary
            a = solve_milp(model)
            b = solve_milp(back)
            assert a.status == b.status
            if a.status is SolveStatus.OPTIMAL:
                assert a.objective == pytest.approx(b.objective, abs=1e-9)

    def test_offset_and_relations_survive(self):
        model = LinearProgram()
        x = model.add_var("x[0]", -1.5, 2.5)
        model.set_objective(x, 0.25)
        model.objective_offset = 12.75
        model.add_row([(x, 2.0)], ">=", -1.0)
        model.add_row([(x, 1.0)], "=", 1.0)
        back = parse_lp(dump_lp(model))
        assert back.objective_offset == 12.75
        assert back.rows[0][1] == ">="
        assert back.rows[1][1] == "="
        assert solve_lp(back).objective == pytest.approx(12.75 + 0.25)
