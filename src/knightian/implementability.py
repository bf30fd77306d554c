"""Whether equilibrium trades can be carried by linear hedging alone.

Under full insurance the net trade of agent i is shadow * (p_i - e_i), and
it is implementable without ambiguity premia exactly when its upper and
lower expectations agree.  Translation and positive homogeneity of the upper
expectation give gap(trade_i) = shadow * gap(e_i), so the verdict is one
march of the endowments, of the first agent's alone when there are two; the
equilibrium itself is priced by a fixed-sigma kernel, with no march.  The
genericity probe measures how rarely it holds under random endowment
perturbations.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dsl import _check_integer, _check_real, _shown, _store
from .equilibrium import (
    Economy,
    EquilibriumResult,
    PriorSpec,
    _solve_stack,
    require_constant_aggregate,
)
from .gexp import MEMORY_BUDGET, GapResult, check_tolerance, mean_ambiguity_gap

__all__ = [
    "AgentVerdict",
    "ImplementabilityVerdict",
    "Perturbation",
    "ProbeSample",
    "ProbeResult",
    "check_implementability",
    "genericity_probe",
    "implementability",
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


def implementability(endowments, prices, shadow, bounds, grid, tol: float) -> GapResult:
    """Upper and lower expectations of the net trades shadow * (p - e) of s
    full-insurance economies, their gaps and verdicts, as (s, n) arrays, from
    (s, n, nx) endowments, (s, n) prices and (s,) shadow values: one march of
    the endowments, upper = shadow (p - lower(e)), lower = shadow (p - upper(e)).

    Two agents share a constant aggregate E, so e_2 = E - e_1, and translation
    and lower(f) = -upper(-f) give upper(e_2) = E - lower(e_1) and lower(e_2)
    = E - upper(e_1): only the first agent's endowments are marched, and E is
    each economy's aggregate read at the origin as np.interp reads it.  The
    march is monotone, so an aggregate that is flat only up to ptp(e_1 + e_2)
    moves agent 2's expectations by at most that much, plus rounding.
    """
    tol = check_tolerance("tol", tol)
    s, n, nx = endowments.shape
    if n == 2:
        res = mean_ambiguity_gap(endowments[:, 0], bounds, grid, tol)
        total = np.array([np.interp(0.0, grid.nodes, e_1 + e_2) for e_1, e_2 in endowments])
        e_upper = np.stack([res.upper, total - res.lower], axis=1)
        e_lower = np.stack([res.lower, total - res.upper], axis=1)
    else:
        res = mean_ambiguity_gap(endowments.reshape(s * n, nx), bounds, grid, tol)
        e_upper, e_lower = res.upper.reshape(s, n), res.lower.reshape(s, n)
    upper = shadow[:, None] * (prices - e_lower)
    lower = shadow[:, None] * (prices - e_upper)
    return GapResult.of(upper, lower, tol)


def check_implementability(result: EquilibriumResult, tol: float = 1e-3) -> ImplementabilityVerdict:
    """Equilibrium is implementable when every net trade is mean-ambiguity-free."""
    tol = check_tolerance("tol", tol)
    economy = result.economy
    stacked = (economy.endowment_values[None], result.consumption[None], np.array([result.shadow]))
    res = implementability(*stacked, economy.bounds, economy.grid, tol)
    columns = (c[0].tolist() for c in (res.upper, res.lower, res.gap, res.mean_af))
    verdicts = tuple(AgentVerdict(*row) for row in zip(economy.names, *columns))
    return ImplementabilityVerdict(verdicts, all(v.mean_af for v in verdicts), tol)


@dataclass(frozen=True)
class Perturbation:
    """Random endowment tilt family: localized bump or monotone ramp."""

    family: str = "bump"
    amplitude: float = 0.1

    def __post_init__(self):
        if self.family not in ("bump", "ramp"):
            raise ValueError(f"unknown perturbation family {self.family!r}")
        _store(self, amplitude=_check_real("amplitude", self.amplitude))
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
    out = np.empty((len(centers), 2, len(nodes)))
    first = out[:, 0]  # z, the tilt and the raw split, each built in place
    np.divide(np.subtract(nodes, centers[:, None], out=first), widths[:, None], out=first)
    if perturbation.family == "bump":
        np.exp(np.negative(np.square(first, out=first), out=first), out=first)
    else:
        np.minimum(np.maximum(first, 0.0, out=first), 1.0, out=first)
    np.add(0.5 * e_total, np.multiply(perturbation.amplitude, first, out=first), out=first)
    eps = 0.01 * e_total
    np.minimum(np.maximum(first, eps, out=first), e_total - eps, out=first)
    np.subtract(e_total, first, out=out[:, 1])
    return out


# per sample and agent the probe holds up to _PROBE_ROWS float64 rows of nx
# nodes at once: the endowments, the solved samples' copy of them during the
# gap march, and one march block's buffers; on top come about _SAMPLE_BYTES
# of Python objects per sample (tracemalloc, 200 samples at nx = 401: 2.74
# rows for bumps and 2.73 for ramps, all solved; 2.58 and 2.53 rows for two
# exp(200) agents, 30 and 81 samples failed; 0.26 kB of objects at nx = 11)
_PROBE_ROWS = 3
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
    `solve_equilibrium`), and tests it with `implementability`.  The failing
    fraction over successful solves is reported with a 95 percent Wilson
    interval; solve failures are tallied separately, never silently counted
    as either outcome.  Every sample gives what `solve_equilibrium` and
    `check_implementability` give it alone, but the whole probe takes one
    fixed-sigma kernel, which prices every endowment and by linearity every
    budget, and one march, of the solved samples' first endowments for both
    agents' gaps.
    Like `solve_equilibrium`, the probe raises NonConstantEndowmentError for
    an economy whose aggregate is not flat.
    Without a `prior` the samples are priced at a constant `sigma_hi`.
    """
    if economy.n_agents != 2:
        raise ValueError("the probe redraws a two-agent endowment split")
    require_constant_aggregate(economy)
    n_samples = _check_integer("n_samples", n_samples, 1)
    seed = _check_integer("seed", seed, 0)
    tol = check_tolerance("tol", tol)
    per_sample = 8 * _PROBE_ROWS * economy.n_agents * economy.grid.nx + _SAMPLE_BYTES
    if n_samples * per_sample > MEMORY_BUDGET:
        raise ValueError(
            f"{_shown(n_samples)} samples exceed the memory budget of {MEMORY_BUDGET} bytes"
        )
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
    solved = np.array([error is None for error in stack.errors])
    res = implementability(
        endowments[solved], stack.prices[solved], stack.shadow[solved],
        economy.bounds, economy.grid, tol,
    )
    verdicts = zip(res.gap.tolist(), res.mean_af.tolist())
    samples = []
    for draw, error in zip(draws, stack.errors):
        if error is None:
            gaps, mean_af = next(verdicts)
            samples.append(ProbeSample(*draw, max(gaps), all(mean_af)))
        else:
            samples.append(ProbeSample(*draw, None, None, error))

    n_solved = int(solved.sum())
    n_failing = sum(sample.implementable is False for sample in samples)
    fraction, low, high = math.nan, math.nan, math.nan
    if n_solved:
        fraction, (low, high) = n_failing / n_solved, _wilson_interval(n_failing, n_solved)
    return ProbeResult(
        samples=tuple(samples),
        n_samples=n_samples,
        n_solved=n_solved,
        n_failed_solves=n_samples - n_solved,
        n_failing=n_failing,
        fraction_failing=fraction,
        wilson_low=low,
        wilson_high=high,
        tol=tol,
        perturbation=perturbation,
    )
