"""The benchmark's workloads: inputs, set-up, timed rounds and checks.

Every workload goes through the public API the `compare`, `simulate` and
`train-drl` commands call. The fitted history (day-ahead scenarios, K-means
heads, forecaster warm-up, DQN training days) is the default dataset's
eleven training months. The operating days are its twelfth month with
seeded noise of at most `INPUT_NOISE` on every hourly load and PV value, so
each seed is a different month of the same difficulty; the DQN seed is the
run's seed too.

The timed phase repeats whole rounds of the same operations with fresh
controller objects, until the next round would overrun the run length;
there is always at least one round. An operation's latency is its
shortest time over the rounds, so a stall of the host during one round
does not reach the latency metrics.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import checks
import microdispatch.controllers as controllers
import microdispatch.dataio as dataio
import microdispatch.dispatch as dispatch
import microdispatch.drl as drl
import microdispatch.forecasting as forecasting
import microdispatch.milp as milp
import microdispatch.scenarios as scenarios
from microdispatch.domain import (
    HOURS_PER_DAY,
    DayProfile,
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
)

HISTORY_SEED = 0
INPUT_NOISE = 0.02
RESET_SOC_KWH = 12500.0
#: reset-mode days in compare-reset and in the train-drl rollout: 144
#: decisions per MPC controller, so p90 has 14 beyond it
COMPARE_DAYS = 6
#: DQN day-episodes in one train-drl round
TRAIN_EPISODES = 100
SETUP_REPEATS = {"compare-reset": 9, "train-drl": 2}

CONFIG = MicrogridConfig()
TARIFF = TariffSchedule()


class CpuRotation:
    """Moves the calling thread to the next allowed CPU at each `step`.

    On a machine whose CPUs run single-threaded code at different speeds
    (on the 2-vCPU reference machine one is about 40% slower than the
    other), a single-threaded run's times depend on where the scheduler
    happened to place it. Stepping at every set-up and every decision gives
    each run the same mix. Only the calling thread moves. DQN training is
    left to the scheduler: it runs OpenBLAS's worker threads beside the
    main thread, and it ran slower in a trial with the main thread moved.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0

    def step(self) -> None:
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})
            self.turn += 1

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


@dataclass
class RunState:
    """What a run measured and checked, filled in by the workload."""

    setup_seconds: list[float] = field(default_factory=list)
    round_seconds: list[float] = field(default_factory=list)
    #: latencies of the workload's unit operation, in seconds, one dict per
    #: round from operation group (MPC kind, training) to the round's
    #: latencies in the order the operations ran
    round_ops: list[dict[str, list[float]]] = field(default_factory=list)
    #: plant hours simulated in the timed phase (controller-hours and
    #: training steps)
    sim_hours: int = 0
    #: commitment lookups run_simulation made in the timed phase
    cache_lookups: int = 0
    work_ops: int = 0
    check_ops: int = 0
    failed_checks: int = 0
    problems: list[str] = field(default_factory=list)
    cpus: CpuRotation = field(default_factory=CpuRotation)
    #: realized cost and blackouts per controller in the first round
    fingerprint: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    def op_seconds(self) -> dict[str, list[float]]:
        """Each operation's shortest latency over the rounds, by group."""
        return {group: [min(times) for times in zip(*(r[group] for r in self.round_ops))]
                for group in self.round_ops[0]}

    def check(self, label: str, problems: list[str]) -> None:
        self.check_ops += 1
        self.failed_checks += bool(problems)
        self.problems.extend(f"{label}: {p}" for p in problems)


class TimedController:
    """Times each `decide` call of the controller it wraps."""

    def __init__(self, inner, cpus: CpuRotation):
        self.inner = inner
        self.kind = inner.kind
        self.cpus = cpus
        self.seconds: list[float] = []

    def decide(self, state, day, commitment, tariff, config):
        self.cpus.step()
        began = perf_counter()
        setpoint = self.inner.decide(state, day, commitment, tariff, config)
        self.seconds.append(perf_counter() - began)
        return setpoint


class CountingCache(dict):
    """run_simulation's commitment cache, counting lookups and solves."""

    def __init__(self, *args):
        super().__init__(*args)
        self.lookups = 0
        self.solves = 0

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)

    def __setitem__(self, key, value):
        self.solves += 1
        super().__setitem__(key, value)


class TimedEnvironment(drl.TrainingEnvironment):
    """Training environment that stamps the start of every step."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stamps: list[float] = []

    def step(self, action_index):
        self.stamps.append(perf_counter())
        return super().step(action_index)


def _inputs(seed: int):
    history, reference = dataio.split_train_test(
        dataio.generate_dataset(dataio.SyntheticParams(seed=HISTORY_SEED)))
    rng = np.random.default_rng(seed)

    def noisy(values):
        return values * rng.uniform(1.0 - INPUT_NOISE, 1.0 + INPUT_NOISE, values.shape)

    month = [DayProfile(load_kw=noisy(d.load_kw), pv_kw=noisy(d.pv_kw)) for d in reference]
    return history, month, scenarios.build_dayahead_scenarios(history)


def _reset_options() -> controllers.SimulationOptions:
    return controllers.SimulationOptions(initial_soc_kwh=RESET_SOC_KWH,
                                         reset_soc_kwh=RESET_SOC_KWH,
                                         planning_soc=controllers.PLANNING_CONTRACT_END)


def _check_report(run: RunState, report, reset_soc_kwh) -> None:
    for day_hour, problems in enumerate(checks.check_ledger(report, TARIFF, CONFIG,
                                                            reset_soc_kwh)):
        run.check(f"{report.controller} hour {day_hour}", problems)
    run.check(f"{report.controller} validator",
              checks.check_validator(report, CONFIG))


def _report_summary(report) -> dict:
    return {"total_cost": report.total_cost, "blackout_hours": report.blackout_count,
            "daily_costs": checks.daily_costs(report)}


# ---------------------------------------------------------------------------
# compare-reset


def _setup_compare(seed: int):
    history, month, day_ahead = _inputs(seed)
    load_model = scenarios.kmeans([d.load_kw for d in history], 5, seed=HISTORY_SEED)
    pv_model = scenarios.kmeans([d.pv_kw for d in history], 5, seed=HISTORY_SEED + 1)
    realtime = scenarios.build_realtime_scenarios(load_model, pv_model)
    forecaster = forecasting.LoadPvForecaster.fresh(
        CONFIG.forecast_theta, CONFIG.forecast_kappa).warm_up(history)
    return {"days": month[:COMPARE_DAYS], "day_ahead": day_ahead,
            "realtime": realtime, "forecaster": forecaster}


def _round_compare(run: RunState, setup) -> dict:
    fresh = [controllers.RuleBasedController(),
             controllers.MpcController(dispatch.PERFECT),
             controllers.MpcController(dispatch.FORECAST, forecaster=setup["forecaster"]),
             controllers.MpcController(dispatch.STOCHASTIC, scenarios=setup["realtime"])]
    cache = CountingCache()
    reports = {}
    ops = {}
    for controller in fresh:
        timed = TimedController(controller, run.cpus)
        reports[controller.kind] = controllers.run_simulation(
            timed, setup["days"], TARIFF, CONFIG, setup["day_ahead"], _reset_options(),
            commitment_cache=cache)
        if controller.kind != controllers.RULE_BASED:
            ops[controller.kind] = timed.seconds
    run.round_ops.append(ops)
    run.sim_hours += sum(r.hours for r in reports.values())
    run.work_ops += sum(r.hours for r in reports.values()) + cache.solves
    run.cache_lookups += cache.lookups
    return reports


def _check_compare(run: RunState, setup, reports) -> None:
    for report in reports.values():
        _check_report(run, report, RESET_SOC_KWH)
    perfect = reports[controllers.MPC_PERFECT]
    perfect_costs = checks.daily_costs(perfect)
    for d, day in enumerate(setup["days"]):
        state = MicrogridState(hour_of_day=0, soc_kwh=RESET_SOC_KWH,
                               soc_midnight_kwh=RESET_SOC_KWH)
        context = dispatch.RealTimeContext(state=state, start_hour=0, hours=24,
                                           commitment=perfect.commitments[d],
                                           load_kw=day.load_kw, pv_kw=day.pv_kw)
        solution = milp.solve_milp(dispatch.build_realtime(context, TARIFF, CONFIG,
                                                           dispatch.PERFECT))
        run.check(f"perfect day {d} identity", checks.check_perfect_identity(
            perfect_costs[d], solution.objective if solution.ok else None))
    for kind, report in reports.items():
        if kind == controllers.MPC_PERFECT:
            continue
        dark = checks.blackout_days(report)
        for d, cost in enumerate(checks.daily_costs(report)):
            if d not in dark:
                run.check(f"{kind} day {d} dominance",
                          checks.check_dominance(cost, perfect_costs[d]))


# ---------------------------------------------------------------------------
# train-drl


def _setup_train(seed: int):
    history, month, day_ahead = _inputs(seed)
    commitment, _ = dispatch.solve_day_ahead(day_ahead, TARIFF, CONFIG.ess_energy_end, CONFIG)
    return {"history": history, "days": month[:COMPARE_DAYS], "day_ahead": day_ahead,
            "commitment": commitment, "seed": seed}


def _round_train(run: RunState, setup) -> dict:
    environment = TimedEnvironment(setup["history"], TARIFF, CONFIG, setup["commitment"])
    dqn_config = drl.DqnConfig(action_count=CONFIG.drl_action_count,
                               episodes=TRAIN_EPISODES, seed=setup["seed"])
    policy, curve = drl.train_agent(environment, dqn_config)
    finished = perf_counter()
    stamps = environment.stamps
    # one operation is one training day: from its first step to the next
    # day's first step, or to the end of training
    starts = stamps[::HOURS_PER_DAY] + [finished]
    run.round_ops.append({"train-episode": [b - a for a, b in zip(starts, starts[1:])]})
    # the rollout reuses the setup's contract-end commitment, as compare does
    cache = CountingCache({round(CONFIG.ess_energy_end, 6): setup["commitment"]})
    report = controllers.run_simulation(
        drl.DrlController(policy), setup["days"], TARIFF, CONFIG, setup["day_ahead"],
        _reset_options(), commitment_cache=cache)
    run.sim_hours += len(stamps) + report.hours
    run.work_ops += len(stamps) + report.hours
    run.cache_lookups += cache.lookups
    run.details.setdefault("training_curves", []).append(curve)
    return {report.controller: report}


def _check_train(run: RunState, setup, reports) -> None:
    for report in reports.values():
        _check_report(run, report, RESET_SOC_KWH)
    curves = run.details["training_curves"]
    for i, curve in enumerate(curves[1:], start=2):
        run.check(f"round {i} training repeats round 1",
                  [] if curve == curves[0] else ["episode rewards differ"])
    run.details["training_curves"] = curves[:1]


WORKLOADS = {
    "compare-reset": (_setup_compare, _round_compare, _check_compare),
    "train-drl": (_setup_train, _round_train, _check_train),
}


def run_workload(name: str, seed: int, seconds: float, tracer=None) -> RunState:
    """Set up, run timed rounds for about `seconds`, then check every round."""
    setup_fn, round_fn, check_fn = WORKLOADS[name]
    run = RunState()
    for _ in range(SETUP_REPEATS[name]):
        run.cpus.step()
        began = perf_counter()
        setup = setup_fn(seed)
        run.setup_seconds.append(perf_counter() - began)

    if tracer is not None:
        tracer.phase = "timed"
        tracer.keep_models = True
    rounds = []
    started = perf_counter()
    while True:
        began = perf_counter()
        reports = round_fn(run, setup)
        run.round_seconds.append(perf_counter() - began)
        if tracer is not None:
            tracer.keep_models = False
        rounds.append({kind: _report_summary(r) for kind, r in reports.items()})
        if len(rounds) == 1:
            first_reports = reports
        elapsed = perf_counter() - started
        if elapsed + statistics.mean(run.round_seconds) > seconds:
            break
    run.cpus.release()
    if tracer is not None:
        tracer.phase = "check"
        tracer.uninstall()

    check_fn(run, setup, first_reports)
    for i, summary in enumerate(rounds[1:], start=2):
        run.check(f"round {i} repeats round 1",
                  [] if summary == rounds[0] else ["realized costs differ"])
    if tracer is not None:
        for i, (model, objective) in enumerate(tracer.bnb_models):
            run.check(f"cross-check of branch-and-bound model {i}",
                      checks.check_crosscheck(model, objective))
    run.fingerprint = rounds[0]
    return run
