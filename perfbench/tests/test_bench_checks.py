"""The benchmark's checkers flag tampered ledgers and pass clean ones."""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from microdispatch.controllers import (  # noqa: E402
    RuleBasedController,
    SimulationOptions,
    run_simulation,
)
from microdispatch.dataio import SyntheticParams, generate_dataset  # noqa: E402
from microdispatch.domain import (  # noqa: E402
    Commitment,
    MicrogridConfig,
    TariffSchedule,
)
from microdispatch.milp import LinearProgram, solve_milp  # noqa: E402

CFG = MicrogridConfig()
TARIFF = TariffSchedule()


@pytest.fixture(scope="module")
def report():
    """Two rule-based days against a zero commitment (no day-ahead solve)."""
    days = generate_dataset(SyntheticParams(seed=0, days=2))
    options = SimulationOptions(initial_soc_kwh=12500.0)
    cache = {round(CFG.ess_energy_end, 6): Commitment.zero()}
    return run_simulation(RuleBasedController(), days, TARIFF, CFG, None, options,
                          commitment_cache=cache)


def tamper(report, step, **outcome_changes):
    """A copy of `report` whose hour `step` has a changed outcome."""
    records = list(report.records)
    record = records[step]
    ledger_changes = outcome_changes.pop("ledger", {})
    outcome = replace(record.outcome, ledger=replace(record.outcome.ledger, **ledger_changes),
                      **outcome_changes)
    records[step] = replace(record, outcome=outcome)
    return replace(report, records=records)


def flagged(report):
    return [(i, p) for i, problems in enumerate(checks.check_ledger(report, TARIFF, CFG, None))
            for p in problems]


def test_clean_ledger_passes(report):
    assert flagged(report) == []
    assert checks.check_validator(report, CFG) == []


def test_shifted_soc_is_flagged(report):
    bad = tamper(report, 5, soc_kwh=report.records[5].outcome.soc_kwh + 10.0)
    problems = flagged(bad)
    assert any(i == 5 and p.startswith("soc recursion") for i, p in problems)
    # the next hour no longer starts where this one ended
    assert any(i == 6 and "expected" in p for i, p in problems)


def test_wrong_step_cost_is_flagged(report):
    bad = tamper(report, 3, step_cost=report.records[3].outcome.step_cost + 1.0)
    assert [p.split(":")[0] for i, p in flagged(bad)] == ["step cost"]


def test_unreported_shortfall_is_flagged(report):
    record = report.records[10]
    assert not record.outcome.blackout
    # 500 kW more load than the hour's supply and surplus cover, reported as no shortfall
    load = record.outcome.ledger.load_kw + record.outcome.curtailed_kw + 500.0
    bad = tamper(report, 10, ledger={"load_kw": load})
    assert any(i == 10 and p.startswith("balance") for i, p in flagged(bad))
    problems = checks.check_validator(bad, CFG)
    assert problems and "blackouts on []" in problems[0]


def test_blackout_flag_must_match_shortfall(report):
    bad = tamper(report, 2, blackout=True)
    assert any(p.startswith("blackout flag") for _, p in flagged(bad))


def test_perfect_identity_and_dominance():
    assert checks.check_perfect_identity(100.0, 100.0) == []
    assert checks.check_perfect_identity(100.0, 100.1)
    assert checks.check_perfect_identity(100.0, None)
    assert checks.check_dominance(100.0, 100.0) == []
    assert checks.check_dominance(99.0, 100.0)


def knapsack():
    """max 5a + 4b + 3c subject to 2a + 3b + c <= 4 (as a minimization)."""
    lp = LinearProgram()
    a, b, c = (lp.add_binary(name) for name in "abc")
    for idx, value in ((a, 5.0), (b, 4.0), (c, 3.0)):
        lp.set_objective(idx, -value)
    lp.add_row([(a, 2.0), (b, 3.0), (c, 1.0)], "<=", 4.0)
    lp.objective_offset = 1.0
    return lp


def test_crosscheck_agrees_with_in_house_solver():
    model = knapsack()
    solution = solve_milp(model)
    assert checks.scipy_objective(model) == pytest.approx(-7.0)
    assert checks.check_crosscheck(model, solution.objective) == []
    assert checks.check_crosscheck(model, solution.objective + 0.5)
