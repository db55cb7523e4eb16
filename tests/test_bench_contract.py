"""The benchmark's traced run still fits the program.

`perfbench/tracing.py` patches public names and reads positional arguments
(`build_realtime`'s context and mode, `solve_milp`'s model), and
`perfbench/workloads.py` calls `decide` with five arguments, trains
through `TrainingEnvironment`, `DqnConfig` and `train_agent`, and rolls out
`DrlController` on what `train_agent` returns. A signature change that
breaks either fails here, not first in a benchmark run. The benchmark's
validator check must also pass on each MPC controller's setpoints, and the
window work of a compare-reset day must repeat exactly, so that two
versions of the program can be diffed by work where timing cannot tell.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import microdispatch.controllers as controllers  # noqa: E402
import microdispatch.dispatch as dispatch  # noqa: E402
import microdispatch.drl as drl  # noqa: E402
from microdispatch.dataio import SyntheticParams, generate_dataset, split_train_test  # noqa: E402
from microdispatch.domain import (  # noqa: E402
    Commitment,
    MicrogridConfig,
    MicrogridState,
    TariffSchedule,
)
from microdispatch.forecasting import LoadPvForecaster  # noqa: E402
from microdispatch.milp import solve_milp  # noqa: E402
from microdispatch.scenarios import (  # noqa: E402
    build_dayahead_scenarios,
    build_realtime_scenarios,
    kmeans,
)

CFG = MicrogridConfig()
TARIFF = TariffSchedule()


class NoRotation:
    """Stand-in for the benchmark's CPU rotation: leaves the affinity alone."""

    def step(self):
        pass


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    tracer.install()
    yield tracer
    tracer.uninstall()


def test_traced_day_ahead_and_stochastic_decisions(tracer):
    train, test = split_train_test(generate_dataset(SyntheticParams(seed=0, days=60)))
    realtime = build_realtime_scenarios(kmeans([d.load_kw for d in train], 5, seed=0),
                                        kmeans([d.pv_kw for d in train], 5, seed=1))
    commitment, _ = dispatch.solve_day_ahead(build_dayahead_scenarios(train), TARIFF,
                                             CFG.ess_energy_end, CFG)
    tracer.phase = "timed"
    tracer.keep_models = True
    timed = workloads.TimedController(
        controllers.MpcController(dispatch.STOCHASTIC, scenarios=realtime), NoRotation())
    state = MicrogridState(hour_of_day=0, soc_kwh=12500.0, soc_midnight_kwh=12500.0)
    for hour in range(2):
        setpoint = timed.decide(state, test[0], commitment, TARIFF, CFG)
        outcome = controllers.step_plant(state, setpoint, commitment.hour(hour),
                                         float(test[0].load_kw[hour]),
                                         float(test[0].pv_kw[hour]), TARIFF.price(hour), CFG)
        state = controllers.advance_state(state, outcome)
    tracer.phase = "check"

    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("milp.day_ahead") == 1
    assert names.count("controllers.decide") == 2
    assert names.count("milp.realtime") == 2
    windows = [span[tracing.ATTRS] for span in tracer.spans
               if span[tracing.NAME] == "dispatch.build_realtime"]
    assert [(w["mode"], w["start_hour"], w["elastic"]) for w in windows] == [
        ("stochastic", 0, False), ("stochastic", 1, False)]
    solves = [span[tracing.ATTRS] for span in tracer.spans
              if span[tracing.NAME] == "milp.realtime"]
    assert all(s["nodes"] >= 1 and s["iterations"] > 0 for s in solves)

    # the sizes every model build records; a change to any model's arrays
    # shows here as a count
    sizes = [(span[tracing.NAME], {key: span[tracing.ATTRS][key]
                                   for key in ("binaries", "rows", "nonzeros")})
             for span in tracer.spans
             if span[tracing.NAME] in ("dispatch.build_day_ahead", "dispatch.build_realtime")]
    assert sizes == [
        ("dispatch.build_day_ahead", {"binaries": 168, "rows": 1107, "nonzeros": 3129}),
        ("dispatch.build_realtime", {"binaries": 232, "rows": 1629, "nonzeros": 4291}),
        ("dispatch.build_realtime", {"binaries": 222, "rows": 1559, "nonzeros": 4106})]

    metrics = tracing.layer_metrics(tracer, setups=1, rounds=1, timed_s=1.0,
                                    cache_lookups=0)
    assert metrics["milp.day_ahead.nodes"] >= 1
    assert metrics["dispatch.window0.binaries.stochastic"] == 232
    assert metrics["controllers.decide_self_ms_p50.mpc-stochastic"] > 0


def test_traced_training_round(tracer, monkeypatch):
    # syncs at steps 65 and 70 fall between training steps, so the run
    # refills the replay's target values inside `drl.replay_sample`
    monkeypatch.setattr(drl, "TARGET_SYNC_INTERVAL", 5)
    days = generate_dataset(SyntheticParams(seed=0, days=3))
    tracer.phase = "timed"
    environment = workloads.TimedEnvironment(days, TARIFF, CFG, Commitment.zero())
    config = drl.DqnConfig(action_count=CFG.drl_action_count, episodes=3, seed=0,
                           epsilon_decay_steps=24)
    _, curve = drl.train_agent(environment, config)
    tracer.phase = "check"

    steps = 3 * 24
    assert len(curve) == 3 and len(environment.stamps) == steps
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("drl.train_agent") == 1
    assert names.count("drl.env_step") == steps
    # training starts once the replay holds one batch
    assert names.count("drl.train_step") == steps - drl.BATCH_SIZE + 1
    assert names.count("drl.replay_sample") == steps - drl.BATCH_SIZE + 1

    metrics = tracing.layer_metrics(tracer, setups=1, rounds=1, timed_s=1.0,
                                    cache_lookups=0)
    drl_metrics = {k: v for k, v in metrics.items() if k.startswith("drl.")}
    assert len(drl_metrics) == 6
    assert all(value > 0 for value in drl_metrics.values()), drl_metrics


def test_rollout_runs_the_trained_network():
    """perfbench's train-drl round hands `train_agent`'s first result to
    `DrlController`; the rollout must run on it."""
    days = generate_dataset(SyntheticParams(seed=0, days=3))
    # the cached commitment means the rollout solves no day-ahead
    setup = {"history": days, "days": days[:1], "day_ahead": None,
             "commitment": Commitment.zero(), "seed": 0}
    run = workloads.RunState()
    reports = workloads._round_train(run, setup)
    assert list(reports) == ["drl"] and reports["drl"].hours == 24
    assert run.cache_lookups == 1


@pytest.fixture(scope="module")
def mpc_controllers():
    """The three MPC controllers on seed-0 inputs, as perfbench builds them."""
    train, test = split_train_test(generate_dataset(SyntheticParams(seed=0, days=60)))
    realtime = build_realtime_scenarios(kmeans([d.load_kw for d in train], 5, seed=0),
                                        kmeans([d.pv_kw for d in train], 5, seed=1))
    forecaster = LoadPvForecaster.fresh(CFG.forecast_theta,
                                        CFG.forecast_kappa).warm_up(train)
    return test[:1], {
        dispatch.PERFECT: controllers.MpcController(dispatch.PERFECT),
        dispatch.FORECAST: controllers.MpcController(dispatch.FORECAST,
                                                     forecaster=forecaster),
        dispatch.STOCHASTIC: controllers.MpcController(dispatch.STOCHASTIC,
                                                       scenarios=realtime)}


@pytest.mark.parametrize("mode", [dispatch.PERFECT, dispatch.FORECAST, dispatch.STOCHASTIC])
def test_mpc_setpoints_flag_no_stop_on_an_idle_generator(mpc_controllers, mode):
    """A 1-day reset run with the zero commitment cached: every setpoint says
    what the plant will do, and the benchmark's validator check passes."""
    days, controller = mpc_controllers[0], mpc_controllers[1][mode]
    options = controllers.SimulationOptions(initial_soc_kwh=12500.0, reset_soc_kwh=12500.0)
    report = controllers.run_simulation(
        controller, days, TARIFF, CFG, None, options,
        commitment_cache={round(CFG.ess_energy_end, 6): Commitment.zero()})
    assert report.hours == 24
    idle_stops = [r.state.hour_of_day for r in report.records
                  if r.setpoint.dg_stop and not r.state.dg_on]
    assert idle_stops == []
    assert checks.check_validator(report, CFG) == []


def window_work(setup, cache, monkeypatch) -> dict[str, list[tuple[int, int]]]:
    """(simplex iterations, nodes) of every window solve of day 0 of a
    compare-reset round, by MPC kind."""
    work: dict[str, list[tuple[int, int]]] = {}

    def recording(model, **kwargs):
        solution = solve_milp(model, **kwargs)
        work[kind].append((solution.iterations, solution.node_count))
        return solution

    monkeypatch.setattr(controllers, "solve_milp", recording)
    for mpc in (controllers.MpcController(dispatch.PERFECT),
                controllers.MpcController(dispatch.FORECAST, forecaster=setup["forecaster"]),
                controllers.MpcController(dispatch.STOCHASTIC, scenarios=setup["realtime"])):
        kind = mpc.kind
        work[kind] = []
        controllers.run_simulation(mpc, setup["days"][:1], workloads.TARIFF,
                                   workloads.CONFIG, setup["day_ahead"],
                                   workloads._reset_options(), commitment_cache=cache)
    monkeypatch.undo()
    return work


def test_a_compare_reset_day_repeats_its_window_work(monkeypatch):
    """Perfect mode replays its midnight plan; the other modes solve every
    hour. HiGHS is deterministic for a given model and start, so a second
    run repeats the summed work exactly, and the work is pinned."""
    setup = workloads._setup_compare(0)
    cache: dict = {}
    first, second = (window_work(setup, cache, monkeypatch) for _ in range(2))

    def summed(work):
        """(solves, simplex iterations, nodes) by MPC kind."""
        return {kind: (len(solves), *map(sum, zip(*solves))) for kind, solves in work.items()}

    assert summed(second) == summed(first)
    # the work itself, pinned: a change to a window's model or start shows
    # here as a count, where timing cannot tell
    assert summed(first) == {controllers.MPC_PERFECT: (1, 40, 1),
                             controllers.MPC_FORECAST: (24, 1312, 24),
                             controllers.MPC_STOCHASTIC: (24, 3519, 24)}
