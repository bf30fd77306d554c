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

from .equilibrium import (
    Economy,
    EquilibriumResult,
    PriorSpec,
    _solve_stack,
    require_constant_aggregate,
)
from .gexp import MEMORY_BUDGET, mean_ambiguity_gap

__all__ = [
    "AgentVerdict",
    "ImplementabilityVerdict",
    "Perturbation",
    "ProbeSample",
    "ProbeResult",
    "check_implementability",
    "genericity_probe",
]


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


def check_implementability(result: EquilibriumResult, tol: float = 1e-3) -> ImplementabilityVerdict:
    """Equilibrium is implementable when every net trade is mean-ambiguity-free."""
    economy = result.economy
    res = mean_ambiguity_gap(result.trades, economy.bounds, economy.grid, tol)
    columns = (res.upper, res.lower, res.gap, res.mean_af)
    verdicts = tuple(AgentVerdict(*row) for row in zip(economy.names, *(c.tolist() for c in columns)))
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


def _splits(perturbation: Perturbation, e_total: float, nodes, centers, widths):
    """Endowments of the probe's two agents, an (s, 2, nx) array: the first
    agent holds e/2 + amplitude * tilt, clamped into [0.01 e, 0.99 e], the
    second the rest.  The tilt of sample i is exp(-z^2) for a bump and z
    clamped into [0, 1] for a ramp, z = (x - centers[i]) / widths[i].  These
    are the ufuncs, in the same order, that evaluating the split's payoff
    expression on the grid applies, so every value is bit-identical to it."""
    z = (nodes - centers[:, None]) / widths[:, None]
    if perturbation.family == "bump":
        tilt = np.exp(-(z**2))
    else:
        tilt = np.minimum(np.maximum(z, 0.0), 1.0)
    eps = 0.01 * e_total
    out = np.empty((len(centers), 2, len(nodes)))
    raw = 0.5 * e_total + perturbation.amplitude * tilt
    np.minimum(np.maximum(raw, eps), e_total - eps, out=out[:, 0])
    np.subtract(e_total, out[:, 0], out=out[:, 1])
    return out


# per sample and agent the probe holds up to _PROBE_ROWS float64 rows of nx
# nodes at once, at most while the net trades are marched: the trades, their
# doubled [f; -f] stack and its march output; on top come about _SAMPLE_BYTES
# of Python objects per sample (tracemalloc: 5.0 rows at nx = 401, 0.45 kB
# of objects at nx = 11, for either family)
_PROBE_ROWS = 6
_SAMPLE_BYTES = 1024

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
    marches: one of every endowment, one of every net trade to price the
    budgets, and one of the net trades of the solved samples for their
    ambiguity gaps.  Like `solve_equilibrium`, the probe raises
    NonConstantEndowmentError for an economy whose aggregate is not flat.
    """
    if economy.n_agents != 2:
        raise ValueError("the probe redraws a two-agent endowment split")
    require_constant_aggregate(economy)
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    per_sample = 8 * _PROBE_ROWS * economy.n_agents * economy.grid.nx + _SAMPLE_BYTES
    if n_samples * per_sample > MEMORY_BUDGET:
        raise ValueError(f"{n_samples} samples exceed the memory budget of {MEMORY_BUDGET} bytes")
    if prior is None:
        prior = PriorSpec.constant(economy.bounds.sigma_hi)

    e_total = float(np.mean(economy.aggregate))
    scale = economy.bounds.sigma_hi * math.sqrt(economy.bounds.horizon)

    draws = []
    for k in range(n_samples):
        # one independent substream per sample; reproducible regardless of
        # how many samples precede it
        sample_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        rng = np.random.default_rng(sample_seed)
        center = float(rng.uniform(-1.5 * scale, 1.5 * scale))
        width = float(rng.uniform(0.3 * scale, 1.0 * scale))
        draws.append((k, sample_seed, center, width))
    centers, widths = np.array([draw[2:] for draw in draws]).T
    endowments = _splits(perturbation, e_total, economy.grid.nodes, centers, widths)

    utilities = tuple(agent.utility for agent in economy.agents)
    stack = _solve_stack(utilities, endowments, economy.bounds, economy.grid, prior, budget_tol)
    del endowments  # not needed past the solve; keeps the peak at _PROBE_ROWS
    n_solved = len(stack.trades)
    verdicts = iter(())
    if n_solved:
        trades = stack.trades.reshape(-1, economy.grid.nx)
        res = mean_ambiguity_gap(trades, economy.bounds, economy.grid, tol)
        per_sample = (c.reshape(n_solved, -1).tolist() for c in (res.gap, res.mean_af))
        verdicts = zip(*per_sample)

    samples = []
    n_failing = 0
    for draw, error in zip(draws, stack.errors):
        if error is not None:
            samples.append(ProbeSample(*draw, None, None, error))
            continue
        gaps, mean_af = next(verdicts)
        if not all(mean_af):
            n_failing += 1
        samples.append(ProbeSample(*draw, max(gaps), all(mean_af)))

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
