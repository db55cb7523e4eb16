"""Microgrid dispatch toolkit: day-ahead commitments plus real-time control.

The two-stage protocol: a scenario-based day-ahead program fixes the grid
exchange and reserve schedule each midnight; five interchangeable real-time
controllers (rule-based, three MPC modes, DQN) then dispatch the generator
and battery hour by hour against the actual weather, all realized through
one plant simulator so operating costs compare apples to apples.
"""

from microdispatch.controllers import (
    CONTROLLER_KINDS,
    MpcController,
    RuleBasedController,
    SimulationOptions,
    SimulationReport,
    compare_controllers,
    rule_based_decide,
    run_simulation,
)
from microdispatch.dataio import (
    SyntheticParams,
    generate_dataset,
    load_config,
    read_profiles,
    split_train_test,
    write_profiles,
)
from microdispatch.dispatch import (
    FORECAST,
    PERFECT,
    STOCHASTIC,
    RealTimeContext,
    build_day_ahead,
    build_realtime,
    extract_commitment,
    extract_setpoint,
    solve_day_ahead,
)
from microdispatch.domain import (
    Commitment,
    CommittedHour,
    DayProfile,
    DispatchSetpoint,
    MicrogridConfig,
    MicrogridState,
    StepOutcome,
    TariffSchedule,
    step_cost,
    step_plant,
    validate_trajectory,
)
from microdispatch.drl import (
    DqnConfig,
    DqnPolicy,
    DrlController,
    MlpNetwork,
    TrainingEnvironment,
    train_agent,
)
from microdispatch.forecasting import EmaForecaster, LoadPvForecaster
from microdispatch.milp import (
    LinearProgram,
    MilpSolution,
    SolveStatus,
    dump_lp,
    parse_lp,
    solve_milp,
)
from microdispatch.scenarios import (
    ClusterModel,
    ScenarioSet,
    build_dayahead_scenarios,
    build_realtime_scenarios,
    kmeans,
)

__all__ = [
    "CONTROLLER_KINDS",
    "ClusterModel",
    "Commitment",
    "CommittedHour",
    "DayProfile",
    "DispatchSetpoint",
    "DqnConfig",
    "DqnPolicy",
    "DrlController",
    "EmaForecaster",
    "FORECAST",
    "LinearProgram",
    "LoadPvForecaster",
    "MicrogridConfig",
    "MicrogridState",
    "MilpSolution",
    "MlpNetwork",
    "MpcController",
    "PERFECT",
    "RealTimeContext",
    "RuleBasedController",
    "STOCHASTIC",
    "ScenarioSet",
    "SimulationOptions",
    "SimulationReport",
    "SolveStatus",
    "StepOutcome",
    "SyntheticParams",
    "TariffSchedule",
    "TrainingEnvironment",
    "build_day_ahead",
    "build_dayahead_scenarios",
    "build_realtime",
    "build_realtime_scenarios",
    "compare_controllers",
    "dump_lp",
    "extract_commitment",
    "extract_setpoint",
    "generate_dataset",
    "kmeans",
    "load_config",
    "parse_lp",
    "read_profiles",
    "rule_based_decide",
    "run_simulation",
    "solve_day_ahead",
    "solve_milp",
    "split_train_test",
    "step_cost",
    "step_plant",
    "train_agent",
    "validate_trajectory",
    "write_profiles",
]

__version__ = "0.1.0"
