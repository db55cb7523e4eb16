"""Spans around the calls into each layer of the program, and the per-layer
metrics derived from them.

The tracer patches public names where the calling module looks them up, so
the program itself is unchanged: `controllers.build_realtime` rather than
`dispatch.build_realtime`, and class attributes for methods. Spans carry a
name, a start, an end, a parent and optional attributes; they stay in memory
and are written out when the run ends. A layer is the part of a span name
before the first dot.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter

import microdispatch.controllers as controllers
import microdispatch.dataio as dataio
import microdispatch.dispatch as dispatch
import microdispatch.drl as drl
import microdispatch.forecasting as forecasting
import microdispatch.milp as milp
import microdispatch.scenarios as scenarios

LAYERS = ("milp", "dispatch", "controllers", "forecasting", "scenarios", "dataio",
          "domain", "drl")
MODES = (dispatch.PERFECT, dispatch.FORECAST, dispatch.STOCHASTIC)
KINDS = (controllers.RULE_BASED, controllers.MPC_PERFECT, controllers.MPC_FORECAST,
         controllers.MPC_STOCHASTIC, controllers.DRL)

NAME, START, END, PARENT, PHASE, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        #: (model, objective) of each optimal in-house branch-and-bound solve,
        #: kept while `keep_models` is set for the solver cross-check
        self.bnb_models: list[tuple] = []
        self.keep_models = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.phase, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str, describe=None):
        """`fn` recording one span per call; `describe(args, kwargs, result)`
        fills the span's attributes after its end time is taken."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if describe is not None:
                record[ATTRS] = describe(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, describe=None) -> None:
        original = owner.__dict__[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, describe))

    def install(self) -> None:
        """Wrap the public functions of every layer at the names callers use."""
        rt_solve = self._describe_solve(keep=True)
        da_solve = self._describe_solve(keep=False)
        self.patch(dataio, "generate_dataset", "dataio.generate_dataset")
        self.patch(scenarios, "build_dayahead_scenarios", "scenarios.build_dayahead_scenarios")
        self.patch(scenarios, "kmeans", "scenarios.kmeans")
        self.patch(scenarios, "build_realtime_scenarios", "scenarios.build_realtime_scenarios")
        self.patch(forecasting.LoadPvForecaster, "warm_up", "forecasting.warm_up")
        self.patch(forecasting.LoadPvForecaster, "forecast_profile",
                   "forecasting.forecast_profile")
        self.patch(dispatch, "solve_day_ahead", "dispatch.solve_day_ahead")
        self.patch(dispatch, "build_day_ahead", "dispatch.build_day_ahead", _describe_model)
        self.patch(dispatch, "solve_milp", "milp.day_ahead", da_solve)
        self.patch(dispatch, "extract_commitment", "dispatch.extract_commitment")
        self.patch(controllers, "run_simulation", "controllers.run_simulation")
        self.patch(controllers, "solve_day_ahead", "dispatch.solve_day_ahead")
        self.patch(controllers, "build_realtime", "dispatch.build_realtime", _describe_window)
        self.patch(controllers, "solve_milp", "milp.realtime", rt_solve)
        self.patch(controllers, "extract_setpoint", "dispatch.extract_setpoint")
        self.patch(controllers, "step_plant", "domain.step_plant")
        for cls in (controllers.RuleBasedController, controllers.MpcController,
                    drl.DrlController):
            self.patch(cls, "decide", "controllers.decide", _describe_kind)
        self.patch(drl, "train_agent", "drl.train_agent")
        self.patch(drl, "train_step", "drl.train_step")
        self.patch(drl, "forward", "drl.forward")
        self.patch(drl, "step_plant", "domain.step_plant")
        self.patch(drl.TrainingEnvironment, "step", "drl.env_step")
        self.patch(drl.ReplayBuffer, "sample", "drl.replay_sample")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _describe_solve(self, keep: bool):
        def describe(args, kwargs, result):
            model = args[0]
            binaries = sum(model.is_binary)
            engine = "highs" if binaries > milp.BNB_BINARY_LIMIT else "bnb"
            if keep and self.keep_models and engine == "bnb" and result.ok:
                self.bnb_models.append((model, result.objective))
            return {"engine": engine, "nodes": result.node_count,
                    "iterations": result.iterations}
        return describe

    def span_cost_seconds(self, calls: int = 20_000) -> float:
        """Measured cost of one traced call over a plain call, in seconds."""
        probe = Tracer()
        traced = probe.wrap(_noop, "probe")
        began = perf_counter()
        for _ in range(calls):
            _noop()
        plain = perf_counter() - began
        began = perf_counter()
        for _ in range(calls):
            traced()
        return max(0.0, (perf_counter() - began - plain) / calls)


def _noop():
    return None


def _describe_model(args, kwargs, model):
    return {"binaries": sum(model.is_binary), "rows": len(model.rows),
            "nonzeros": sum(len(terms) for terms, _, _ in model.rows)}


def _describe_window(args, kwargs, model):
    context, mode = args[0], args[3]
    return {"mode": mode, "elastic": bool(kwargs.get("elastic", False)),
            "start_hour": context.start_hour, **_describe_model(args, kwargs, model)}


def _describe_kind(args, kwargs, result):
    return {"kind": args[0].kind}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith("_pct"):
        return "%"
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_us", "us")):
        if name.endswith(suffix) or f"{suffix}_p50" in name:
            return unit
    return "count"


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(tracer: Tracer, setups: int, rounds: int, timed_s: float,
                  cache_lookups: int) -> dict:
    """Per-layer metrics of a traced run.

    Latencies are medians over every span of the name. Counts are per pass:
    a setup's share over `setups` plus a round's share over `rounds`, so
    they repeat exactly however many rounds fit. `cache_lookups` is the
    number of commitment lookups run_simulation made in the timed phase. A
    layer that the workload does not exercise reads 0.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]

    def select(name, **want):
        out = []
        for i, s in enumerate(spans):
            if s[NAME] != name:
                continue
            attrs = s[ATTRS] or {}
            if all(attrs.get(k) == v for k, v in want.items()):
                out.append((i, s))
        return out

    def durations(name, scale=1.0, **want):
        return [(s[END] - s[START]) * scale for _, s in select(name, **want)]

    def per_pass(items, value=lambda s: 1):
        setup = sum(value(s) for _, s in items if s[PHASE] == "setup")
        timed = sum(value(s) for _, s in items if s[PHASE] == "timed")
        return round(setup / setups + timed / rounds, 6)

    def first(name, key, **want):
        items = select(name, **want)
        return items[0][1][ATTRS][key] if items else 0

    m = {}
    day_ahead = select("milp.day_ahead")
    m["milp.day_ahead.solve_s"] = _p50(durations("milp.day_ahead"))
    m["milp.day_ahead.nodes"] = per_pass(day_ahead, lambda s: s[ATTRS]["nodes"])
    for engine, key in (("highs", "rt_highs"), ("bnb", "rt_bnb")):
        items = select("milp.realtime", engine=engine)
        m[f"milp.{key}.solve_ms_p50"] = _p50(durations("milp.realtime", 1e3, engine=engine))
        m[f"milp.{key}.solves"] = per_pass(items)
        m[f"milp.{key}.nodes"] = per_pass(items, lambda s: s[ATTRS]["nodes"])
    m["milp.rt_bnb.lp_iterations"] = per_pass(select("milp.realtime", engine="bnb"),
                                              lambda s: s[ATTRS]["iterations"])

    m["dispatch.build_day_ahead_ms"] = _p50(durations("dispatch.build_day_ahead", 1e3))
    for key in ("binaries", "rows", "nonzeros"):
        m[f"dispatch.day_ahead.{key}"] = first("dispatch.build_day_ahead", key)
    for mode in MODES:
        m[f"dispatch.build_realtime_ms_p50.{mode}"] = _p50(
            durations("dispatch.build_realtime", 1e3, mode=mode, elastic=False))
    m["dispatch.extract_us_p50"] = _p50(durations("dispatch.extract_setpoint", 1e6))
    for mode in MODES:
        for key in ("binaries", "rows"):
            m[f"dispatch.window0.{key}.{mode}"] = first(
                "dispatch.build_realtime", key, mode=mode, start_hour=0, elastic=False)
    m["dispatch.elastic_resolves"] = per_pass(select("dispatch.build_realtime", elastic=True))

    for kind in KINDS:
        self_ms = [(s[END] - s[START] - child_time[i]) * 1e3
                   for i, s in select("controllers.decide", kind=kind)]
        m[f"controllers.decide_self_ms_p50.{kind}"] = _p50(self_ms)
    m["controllers.day_ahead_solves"] = per_pass(select("dispatch.solve_day_ahead"))
    timed_solves = [x for x in select("dispatch.solve_day_ahead") if x[1][PHASE] == "timed"]
    m["controllers.commitment_cache_hits"] = round(
        (cache_lookups - len(timed_solves)) / rounds, 6)

    m["forecasting.forecast_profile_us_p50"] = _p50(
        durations("forecasting.forecast_profile", 1e6))
    m["forecasting.warm_up_ms"] = _p50(durations("forecasting.warm_up", 1e3))
    m["scenarios.kmeans_ms"] = _p50(durations("scenarios.kmeans", 1e3))
    m["dataio.generate_dataset_ms"] = _p50(durations("dataio.generate_dataset", 1e3))
    m["domain.step_plant_us_p50"] = _p50(durations("domain.step_plant", 1e6))

    m["drl.train_step_ms_p50"] = _p50(durations("drl.train_step", 1e3))
    m["drl.forward_us_p50"] = _p50(durations("drl.forward", 1e6))
    m["drl.env_step_us_p50"] = _p50(durations("drl.env_step", 1e6))
    m["drl.replay_sample_us_p50"] = _p50(durations("drl.replay_sample", 1e6))
    m["drl.train_steps"] = per_pass(select("drl.train_step"))

    # self time per layer over the timed phase, as a share of its wall time
    self_time = dict.fromkeys(LAYERS, 0.0)
    for i, s in enumerate(spans):
        if s[PHASE] == "timed":
            self_time[s[NAME].split(".", 1)[0]] += s[END] - s[START] - child_time[i]
    for layer in LAYERS:
        m[f"{layer}.share_pct"] = 100.0 * self_time[layer] / timed_s
    timed_spans = sum(1 for s in spans if s[PHASE] == "timed")
    m["trace.spans"] = round(timed_spans / rounds, 6)
    m["trace.overhead_pct"] = 100.0 * timed_spans * tracer.span_cost_seconds() / timed_s
    m["trace.round_s"] = timed_s / rounds
    return m
