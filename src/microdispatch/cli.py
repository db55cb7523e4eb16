"""Command-line surface: data generation, training, dispatch, comparison.

Exit codes: 0 success, 1 usage error, 2 runtime/solver failure, 3 a run's
trajectory broke a constraint (a blackout is an outcome, not a violation).
All file outputs are written atomically (temp file + rename).
Outputs are a pure function of flags, input files, and seeds, except for the
wall-clock timing columns, which are measurements by nature.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

from microdispatch.controllers import (
    CONTROLLER_KINDS,
    DRL,
    MPC_FORECAST,
    MPC_PERFECT,
    MPC_STOCHASTIC,
    PLANNING_CONTRACT_END,
    PLANNING_MEASURED,
    RULE_BASED,
    MpcController,
    RuleBasedController,
    SimulationOptions,
    compare_controllers,
)
from microdispatch.dataio import (
    TRAIN_MONTHS,
    DataFormatError,
    SyntheticParams,
    gaps_to_perfect_pct,
    generate_dataset,
    load_config,
    save_commitment,
    split_train_test,
    trailing_train_months,
    write_daywise_csv,
    write_profiles,
    write_report_json,
    write_summary_csv,
    write_trace_csv,
    read_profiles,
)
from microdispatch.dispatch import (
    FORECAST,
    PERFECT,
    STOCHASTIC,
    ExtractionError,
    solve_day_ahead,
)
from microdispatch.domain import (
    HOURS_PER_DAY,
    MicrogridConfig,
    TariffSchedule,
    validate_trajectory,
)
from microdispatch.drl import (
    STATE_DIMENSION,
    DqnConfig,
    DrlController,
    MlpNetwork,
    TrainingEnvironment,
    train_agent,
)
from microdispatch.forecasting import LoadPvForecaster
from microdispatch.milp import SolverError
from microdispatch.scenarios import (
    build_dayahead_scenarios,
    build_realtime_scenarios,
    kmeans,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_VALIDATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the usage-error exit code pinned to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _atomic_write(path, writer) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load_inputs(args):
    """The config and tariff (built in unless `--config`), with each SOC flag
    checked against its ESS bounds; the profiles; the trailing
    `--train-months` of training days and their day-ahead scenarios."""
    if args.config:
        config, tariff = load_config(args.config)
    else:
        config, tariff = MicrogridConfig(), TariffSchedule()
    for name in ("soc", "initial_soc", "reset_soc", "planning_soc"):
        value = getattr(args, name, None)
        if isinstance(value, float) and not (
                config.ess_energy_min <= value <= config.ess_energy_max):
            raise DataFormatError(
                f"--{name.replace('_', '-')} {value} outside the ESS bounds "
                f"[{config.ess_energy_min:g}, {config.ess_energy_max:g}]")
    days = read_profiles(args.data)
    train = trailing_train_months(days, args.train_months)
    return config, tariff, days, train, build_dayahead_scenarios(train)


def _planning_soc(raw: str):
    """The `--planning-soc` value: a named policy or a SOC in kWh."""
    if raw in (PLANNING_CONTRACT_END, PLANNING_MEASURED):
        return raw
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {PLANNING_CONTRACT_END}, {PLANNING_MEASURED} or a number, "
            f"got {raw!r}") from None


def _int_in(low: int, high: int | None = None):
    """An argparse type for a decimal integer in `low..high`, with no upper
    bound when `high` is None."""
    wanted = f"an integer of at least {low}" if high is None else f"an integer in {low}..{high}"

    def parse(raw: str) -> int:
        if not raw.isdecimal() or int(raw) < low or (high is not None and int(raw) > high):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {raw!r}")
        return int(raw)

    return parse


_positive_int = _int_in(1)  # such as `--days`
_train_months = _int_in(1, TRAIN_MONTHS)


def _controller_kinds(raw: str) -> list[str]:
    """The `--controllers` value: comma-separated kinds from CONTROLLER_KINDS,
    at least one."""
    kinds = [k.strip() for k in raw.split(",") if k.strip()]
    unknown = [k for k in kinds if k not in CONTROLLER_KINDS]
    if not kinds or unknown:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated kinds from {', '.join(CONTROLLER_KINDS)}, "
            f"got {raw!r}")
    return kinds


def _build_controller(kind, train, config, args):
    if kind == RULE_BASED:
        return RuleBasedController()
    if kind == MPC_PERFECT:
        return MpcController(PERFECT)
    if kind == MPC_FORECAST:
        forecaster = LoadPvForecaster.fresh(config.forecast_theta,
                                            config.forecast_kappa).warm_up(train)
        return MpcController(FORECAST, forecaster=forecaster)
    if kind == MPC_STOCHASTIC:
        load_heads = kmeans([d.load_kw for d in train], 5, seed=args.seed)
        pv_heads = kmeans([d.pv_kw for d in train], 5, seed=args.seed + 1)
        return MpcController(STOCHASTIC,
                             scenarios=build_realtime_scenarios(load_heads, pv_heads))
    # the last of CONTROLLER_KINDS: the DQN, whose --weights `main` checked
    network = MlpNetwork.load(args.weights)
    sizes = network.layer_sizes
    if (sizes[0], sizes[-1]) != (STATE_DIMENSION, config.drl_action_count):
        raise DataFormatError(
            f"{args.weights}: the network maps {sizes[0]} inputs to {sizes[-1]} "
            f"actions; the controller needs {STATE_DIMENSION} to "
            f"{config.drl_action_count}")
    return DrlController(network)


def cmd_generate(args) -> int:
    params = SyntheticParams(seed=args.seed, days=args.days)
    days = generate_dataset(params)
    _atomic_write(args.out, lambda tmp: write_profiles(days, tmp))
    print(f"wrote {len(days)} days ({len(days) * 24} rows) to {args.out}")
    return EXIT_OK


def cmd_day_ahead(args) -> int:
    config, tariff, _, _, scenarios = _load_inputs(args)
    soc = config.ess_energy_end if args.soc is None else args.soc
    started = time.perf_counter()
    commitment, solution = solve_day_ahead(scenarios, tariff, soc, config)
    seconds = time.perf_counter() - started
    _atomic_write(args.out, lambda tmp: save_commitment(commitment, tmp))
    print(f"commitment written to {args.out}; planned objective "
          f"{solution.objective:.2f} ({solution.node_count} nodes, "
          f"{solution.iterations} simplex iterations, {seconds:.1f} s)")
    return EXIT_OK


def cmd_train_drl(args) -> int:
    config, tariff, _, train, scenarios = _load_inputs(args)
    commitment, _ = solve_day_ahead(scenarios, tariff, config.ess_energy_end, config)
    environment = TrainingEnvironment(train, tariff, config, commitment)
    dqn_config = DqnConfig(action_count=config.drl_action_count,
                           episodes=args.episodes, seed=args.seed,
                           epsilon_decay_steps=args.epsilon_decay_steps)
    started = time.perf_counter()
    network, curve = train_agent(environment, dqn_config)
    seconds = time.perf_counter() - started
    _atomic_write(args.out, network.save)

    def write_curve(tmp):
        with open(tmp, "w") as fh:
            fh.write("episode,total_reward\n")
            for i, value in enumerate(curve):
                fh.write(f"{i},{value!r}\n")

    _atomic_write(args.curve, write_curve)
    steps = len(curve) * HOURS_PER_DAY
    print(f"trained {len(curve)} episodes over {len(train)} days in {seconds:.1f} s "
          f"({steps / seconds:.0f} steps/s); weights -> {args.out}, curve -> {args.curve}")
    return EXIT_OK


def _run_controllers(args, kinds):
    """Run `kinds` on what follows the 11-month training span, each trained on
    the trailing `--train-months` of it, as `day-ahead` and `train-drl` are.

    Prints failures and each trajectory's `validate_trajectory` violations
    (at most 20; a blackout hour's power-balance shortfall counts as a
    blackout instead) to stderr, and returns the reports and the exit code.
    """
    config, tariff, days, train, scenarios = _load_inputs(args)
    _, test = split_train_test(days)
    if args.days is not None:
        test = test[:args.days]
    options = SimulationOptions(
        initial_soc_kwh=args.initial_soc,
        reset_soc_kwh=args.reset_soc,
        planning_soc=args.planning_soc)
    controllers = {kind: _build_controller(kind, train, config, args) for kind in kinds}
    reports, failures = compare_controllers(controllers, test, tariff, config,
                                            scenarios, options)
    for kind, message in failures.items():
        print(f"{kind}: FAILED ({message})", file=sys.stderr)
    broken = False
    for kind, report in reports.items():
        violations = [v for v in validate_trajectory(report.trajectory(),
                                                     report.commitments, config)
                      if not (v.constraint == "power-balance"
                              and report.records[v.step].outcome.blackout)]
        if violations:
            broken = True
            print(f"{kind}: {len(violations)} constraint violations", file=sys.stderr)
            for v in violations[:20]:
                print(f"  step {v.step} hour {v.hour_of_day}: {v.constraint} "
                      f"by {v.magnitude:.6g}", file=sys.stderr)
    status = EXIT_RUNTIME if failures else EXIT_VALIDATION if broken else EXIT_OK
    return reports, status


def cmd_simulate(args) -> int:
    reports, status = _run_controllers(args, [args.controller])
    if status == EXIT_RUNTIME:
        return status
    report = reports[args.controller]
    if args.out:
        _atomic_write(args.out, lambda tmp: write_report_json(report, tmp))
    if args.trace:
        _atomic_write(args.trace, lambda tmp: write_trace_csv(report, tmp))
    print(f"{args.controller}: {report.hours} h, total cost {report.total_cost:.2f}, "
          f"avg hourly {report.average_hourly_cost:.2f}, "
          f"blackouts {report.blackout_count}")
    return status


def cmd_compare(args) -> int:
    reports, status = _run_controllers(args, args.controllers)
    os.makedirs(args.out, exist_ok=True)
    if reports:
        _atomic_write(os.path.join(args.out, "summary.csv"),
                      lambda tmp: write_summary_csv(reports, tmp))
        _atomic_write(os.path.join(args.out, "daywise.csv"),
                      lambda tmp: write_daywise_csv(reports, tmp))
        for kind, report in reports.items():
            _atomic_write(os.path.join(args.out, f"trace_{kind}.csv"),
                          lambda tmp, r=report: write_trace_csv(r, tmp))
        first = next(iter(reports.values()))
        _atomic_write(os.path.join(args.out, "commitment.json"),
                      lambda tmp: save_commitment(first.commitments[0], tmp))
    gaps = gaps_to_perfect_pct(reports)
    if args.reset_soc is None:
        print("carry-over mode: gap % is not a bound")
    else:
        print(f"reset mode: SOC {args.reset_soc:g} kWh, generator off at each midnight")
    print(f"{'controller':16s} {'avg $/h':>10s} {'avg DG $/h':>11s} {'s/decision':>11s} "
          f"{'blackout h':>10s} {'gap %':>8s}")
    for kind, report in reports.items():
        gap = "" if gaps[kind] is None else f"{gaps[kind]:.2f}"
        print(f"{kind:16s} {report.average_hourly_cost:10.2f} "
              f"{report.average_hourly_dg_cost:11.2f} "
              f"{report.mean_decision_seconds:11.4f} "
              f"{report.blackout_count:10d} {gap:>8s}")
    return status


def build_parser() -> _Parser:
    parser = _Parser(prog="microdispatch",
                     description="Two-stage microgrid dispatch toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def input_flags(p):
        p.add_argument("--data", required=True, help="profiles CSV")
        p.add_argument("--config", help="config JSON (defaults built in)")
        p.add_argument("--train-months", type=_train_months, default=TRAIN_MONTHS)

    def run_flags(p):
        input_flags(p)
        p.add_argument("--seed", type=_int_in(0), default=0)
        p.add_argument("--days", type=_positive_int, default=None,
                       help="limit the test window to this many days")
        p.add_argument("--weights", help="trained DQN weight file")
        p.add_argument("--reset-soc", type=float, default=None,
                       help="force the battery to this SOC at each midnight")
        p.add_argument("--initial-soc", type=float, default=12500.0)
        p.add_argument("--planning-soc", type=_planning_soc,
                       help="day-ahead start SOC: contract-end, measured, or kWh")

    p = sub.add_parser("generate", help="write a synthetic profiles CSV")
    p.add_argument("--days", type=_positive_int, default=365)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("day-ahead", help="solve one day-ahead commitment")
    input_flags(p)
    p.add_argument("--soc", type=float, default=None,
                   help="starting SOC (defaults to the contracted end SOC)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_day_ahead)

    p = sub.add_parser("train-drl", help="train the DQN policy")
    input_flags(p)
    p.add_argument("--episodes", type=_int_in(0), default=None,
                   help="day-episodes to run (default: one pass over the data)")
    p.add_argument("--epsilon-decay-steps", type=_int_in(0), default=50_000)
    p.add_argument("--seed", type=_int_in(0), default=0)
    p.add_argument("--out", required=True, help="weight file")
    p.add_argument("--curve", required=True, help="learning-curve CSV")
    p.set_defaults(func=cmd_train_drl)

    p = sub.add_parser("simulate", help="run one controller over the test month")
    run_flags(p)
    p.add_argument("--controller", required=True, choices=CONTROLLER_KINDS)
    p.add_argument("--out", help="report JSON")
    p.add_argument("--trace", help="hourly trace CSV")
    # a single controller tracks its own SOC
    p.set_defaults(func=cmd_simulate, planning_soc=PLANNING_MEASURED)

    p = sub.add_parser("compare", help="run several controllers, shared commitments")
    run_flags(p)
    p.add_argument("--controllers", required=True, type=_controller_kinds,
                   help="comma-separated controller kinds")
    p.add_argument("--out", required=True, help="output directory")
    # one shared commitment for every controller
    p.set_defaults(func=cmd_compare, planning_soc=PLANNING_CONTRACT_END)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    kinds = getattr(args, "controllers", [getattr(args, "controller", None)])
    if DRL in kinds and not args.weights:
        parser.error("the drl controller needs --weights")
    try:
        return args.func(args)
    except (ExtractionError, FileNotFoundError, SolverError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
