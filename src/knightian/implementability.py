"""Whether equilibrium trades can be carried by linear hedging alone.

The net trade of an agent is the priced difference between equilibrium
consumption and endowment.  A net trade is implementable without ambiguity
premia exactly when its upper and lower expectations agree; the genericity
probe measures how rarely that happens under random endowment
perturbations.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dsl import BinOp, Call, Lit, Neg, Pow, Var
from .equilibrium import (
    Agent,
    ConvergenceError,
    Economy,
    EquilibriumResult,
    PriorSpec,
    _solve_stack,
)
from .gexp import MEMORY_BUDGET, mean_ambiguity_gap

__all__ = [
    "NetTradeSet",
    "AgentVerdict",
    "ImplementabilityVerdict",
    "Perturbation",
    "ProbeSample",
    "ProbeResult",
    "net_trades",
    "check_implementability",
    "genericity_probe",
]


@dataclass(eq=False)
class NetTradeSet:
    """Priced net trades on the grid, one row per agent; rows sum to zero."""

    names: tuple
    values: np.ndarray  # (n_agents, nx)


def net_trades(result: EquilibriumResult, economy: Economy) -> NetTradeSet:
    """Net trade grid of each agent: shadow * (consumption - endowment)."""
    if result.names != economy.names:
        raise ValueError("result and economy list different agents")
    if result.grid != economy.grid:
        raise ValueError("result and economy use different grids")
    values = result.shadow * (result.consumption[:, None] - economy.endowment_values)
    clearing = float(np.max(np.abs(values.sum(axis=0))))
    if clearing > 1e-10:
        raise ValueError(f"market clearing violated (residual {clearing:.3e})")
    return NetTradeSet(economy.names, values)


@dataclass(eq=False)
class AgentVerdict:
    name: str
    upper: float
    lower: float
    gap: float
    mean_af: bool


@dataclass(eq=False)
class ImplementabilityVerdict:
    agents: tuple
    implementable: bool
    tol: float

    def agent(self, name: str) -> AgentVerdict:
        for v in self.agents:
            if v.name == name:
                return v
        raise KeyError(name)


def check_implementability(
    result: EquilibriumResult, economy: Economy, tol: float = 1e-3
) -> ImplementabilityVerdict:
    """Equilibrium is implementable when every net trade is mean-ambiguity-free."""
    trades = net_trades(result, economy)
    res = mean_ambiguity_gap(trades.values, economy.bounds, economy.grid, tol)
    columns = (res.upper, res.lower, res.gap, res.mean_af)
    verdicts = tuple(AgentVerdict(*row) for row in zip(trades.names, *(c.tolist() for c in columns)))
    return ImplementabilityVerdict(verdicts, all(v.mean_af for v in verdicts), tol)


@dataclass(frozen=True)
class Perturbation:
    """Random endowment tilt family: localized bump or monotone ramp."""

    family: str = "bump"
    amplitude: float = 0.1

    def __post_init__(self):
        if self.family not in ("bump", "ramp"):
            raise ValueError(f"unknown perturbation family {self.family!r}")
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and nonnegative, got {self.amplitude}")


@dataclass(eq=False)
class ProbeSample:
    index: int
    seed: int
    center: float
    width: float
    gap_max: Optional[float]
    implementable: Optional[bool]
    error: Optional[str] = None


@dataclass(eq=False)
class ProbeResult:
    samples: tuple
    n_samples: int
    n_solved: int
    n_failed_solves: int
    n_failing: int
    fraction_failing: float
    wilson_low: float
    wilson_high: float
    tol: float
    perturbation: Perturbation


def _shifted_scaled(center: float, width: float):
    # (x - center) / width
    return BinOp("/", BinOp("-", Var(), Lit(center)), Lit(width))


def _tilt_expr(family: str, center: float, width: float):
    z = _shifted_scaled(center, width)
    if family == "bump":
        return Call("exp", (Neg(Pow(z, 2)),))
    # ramp: clamp z to [0, 1]
    return Call("min", (Call("max", (z, Lit(0.0))), Lit(1.0)))


def _clamped_share(e_total: float, amplitude: float, tilt):
    # e/2 + amplitude * tilt, clamped into [0.01 e, 0.99 e]
    eps = 0.01 * e_total
    raw = BinOp("+", Lit(0.5 * e_total), BinOp("*", Lit(amplitude), tilt))
    return Call("min", (Call("max", (raw, Lit(eps))), Lit(e_total - eps)))


# per sample and agent the probe holds up to _PROBE_ROWS float64 rows of nx
# nodes at once: the endowment (the economy's and the solver's stack), the
# budget claim, the net trade, and the doubled [f; -f] stack and its march
# output; on top come about _SAMPLE_BYTES of Python objects per sample
# (measured: 7.8 rows at nx = 401, 4.3 kB of objects at nx = 11)
_PROBE_ROWS = 8
_SAMPLE_BYTES = 8192

# two-sided 95 percent normal quantile, norm.ppf(0.975)
_Z95 = 1.959963984540054


def _wilson_interval(k: int, n: int) -> tuple:
    """95 percent Wilson score interval for k successes in n trials, in the
    closed form of Newcombe (1998); the ends are exactly 0 and 1 at k = 0 and
    k = n."""
    z = _Z95
    p = k / n
    q = 1 - p
    denom = 2 * (n + z**2)
    center = (2 * n * p + z**2) / denom
    delta = z / denom * math.sqrt(4 * n * p * q + z**2)
    low = 0.0 if k == 0 else center - delta
    high = 1.0 if k == n else center + delta
    return low, high


def genericity_probe(
    economy: Economy,
    n_samples: int,
    perturbation: Perturbation = Perturbation(),
    seed: int = 0,
    prior: Optional[PriorSpec] = None,
    tol: float = 1e-3,
    budget_tol: float = 1e-10,
) -> ProbeResult:
    """Estimate how often perturbed endowments break implementability.

    Each sample redraws the first agent's endowment as a clamped tilt of the
    fifty-fifty split, re-solves the equilibrium (`budget_tol` as in
    `solve_equilibrium`), and tests the net trades.  The failing fraction
    over successful solves is reported with a 95 percent Wilson interval;
    solve failures are tallied separately, never silently counted as either
    outcome.  Every sample gives what `solve_equilibrium` and
    `check_implementability` give it alone, but the whole probe takes three
    marches: one of every endowment, one of every budget claim and one of
    every net trade.
    """
    if economy.n_agents != 2:
        raise ValueError("the probe redraws a two-agent endowment split")
    if not economy.constant_aggregate:
        raise ValueError("the probe requires a constant aggregate endowment")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    per_sample = 8 * _PROBE_ROWS * economy.n_agents * economy.grid.nx + _SAMPLE_BYTES
    if n_samples * per_sample > MEMORY_BUDGET:
        raise ValueError(f"{n_samples} samples exceed the memory budget of {MEMORY_BUDGET} bytes")
    if prior is None:
        prior = PriorSpec.constant(economy.bounds.sigma_hi)

    e_total = float(np.mean(economy.aggregate))
    scale = economy.bounds.sigma_hi * math.sqrt(economy.bounds.horizon)
    a1, a2 = economy.agents

    draws = []
    economies = []
    for k in range(n_samples):
        # one independent substream per sample; reproducible regardless of
        # how many samples precede it
        sample_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        rng = np.random.default_rng(sample_seed)
        center = float(rng.uniform(-1.5 * scale, 1.5 * scale))
        width = float(rng.uniform(0.3 * scale, 1.0 * scale))
        draws.append((k, sample_seed, center, width))

        tilt = _tilt_expr(perturbation.family, center, width)
        e1 = _clamped_share(e_total, perturbation.amplitude, tilt)
        e2 = BinOp("-", Lit(e_total), e1)
        perturbed = Economy(
            (
                Agent(a1.name, a1.utility, e1),
                Agent(a2.name, a2.utility, e2),
            ),
            economy.bounds,
            economy.grid,
        )
        economies.append(perturbed)

    outcomes = _solve_stack(economies, prior, budget_tol)
    solved = [k for k, out in enumerate(outcomes) if not isinstance(out, ConvergenceError)]
    verdicts = iter(())
    if solved:
        trades = np.concatenate([net_trades(outcomes[k], economies[k]).values for k in solved])
        res = mean_ambiguity_gap(trades, economy.bounds, economy.grid, tol)
        per_sample = (c.reshape(len(solved), -1).tolist() for c in (res.gap, res.mean_af))
        verdicts = zip(*per_sample)

    samples = []
    n_failing = 0
    for draw, outcome in zip(draws, outcomes):
        if isinstance(outcome, ConvergenceError):
            samples.append(ProbeSample(*draw, None, None, str(outcome)))
            continue
        gaps, mean_af = next(verdicts)
        if not all(mean_af):
            n_failing += 1
        samples.append(ProbeSample(*draw, max(gaps), all(mean_af)))

    n_solved = len(solved)
    n_failed_solves = n_samples - n_solved
    if n_solved > 0:
        fraction = n_failing / n_solved
        low, high = _wilson_interval(n_failing, n_solved)
    else:
        fraction, low, high = math.nan, math.nan, math.nan
    return ProbeResult(
        samples=tuple(samples),
        n_samples=n_samples,
        n_solved=n_solved,
        n_failed_solves=n_failed_solves,
        n_failing=n_failing,
        fraction_failing=fraction,
        wilson_low=low,
        wilson_high=high,
        tol=tol,
        perturbation=perturbation,
    )
