"""Expectation bounds, risk sharing and hedging under a volatility band."""

from .config import Config, ConfigError, McSpec, Tolerances, load_config
from .dsl import EvalDomainError, Expr, PayoffParseError, evaluate, parse, pretty_print
from .equilibrium import (
    Agent,
    ConvergenceError,
    Economy,
    EquilibriumResult,
    NegishiError,
    NonConstantEndowmentError,
    PriorSpec,
    Utility,
    solve_equilibrium,
)
from .gexp import (
    LOWER,
    UPPER,
    CflError,
    GapResult,
    GridFunction,
    GridSpec,
    Mode,
    VolBounds,
    default_grid,
    expectation,
    mean_ambiguity_gap,
    solve_terminal_values,
    solve_value_field,
    tree_expectation,
)
from .implementability import (
    ImplementabilityVerdict,
    Perturbation,
    ProbeResult,
    check_implementability,
    genericity_probe,
)
from .replication import (
    ControlSpec,
    HedgeField,
    PathBatch,
    ReplicationReport,
    SimulationError,
    TransformedStrategy,
    exp_martingale_transform,
    hedge_field,
    replicate,
    simulate_paths,
    strategy_gains,
)

__version__ = "0.1.0"
