"""Full-insurance risk-sharing equilibria.

Agents share a constant aggregate endowment under a common volatility band.
With a constant aggregate every efficient allocation is constant across
states, so an agent's budget, priced under a chosen reference volatility,
balances exactly when they consume the price of their endowment.  The
planner weights supporting that allocation follow in closed form:
weighted marginal utilities must all equal one shadow value.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dsl import Expr, evaluate
from .gexp import GridSpec, Mode, VolBounds, expectation

__all__ = [
    "Utility",
    "Agent",
    "Economy",
    "PriorSpec",
    "ConvergenceError",
    "NegishiError",
    "NonConstantEndowmentError",
    "EquilibriumResult",
    "Allocations",
    "inverse_marginal",
    "allocation_field",
    "budget_excess",
    "solve_equilibrium",
    "full_insurance_check",
]

# planner weights closer to the simplex boundary than this are treated as
# degenerate rather than interior
BOUNDARY_MARGIN = 1e-8


class ConvergenceError(RuntimeError):
    """An iterative solve (the shadow-value bisection) failed to converge."""


class NegishiError(ConvergenceError):
    """No interior equilibrium: weights at the simplex boundary, or a PDE
    budget check that disagrees with the closed form."""


class NonConstantEndowmentError(RuntimeError):
    """Equilibrium construction requires a constant aggregate endowment."""


@dataclass(frozen=True)
class Utility:
    """Strictly concave flow utility; kind is log, power, or exp."""

    kind: str
    gamma: Optional[float] = None
    a: Optional[float] = None

    def __post_init__(self):
        if self.kind == "log":
            if self.gamma is not None or self.a is not None:
                raise ValueError("log utility takes no parameters")
        elif self.kind == "power":
            if self.a is not None or self.gamma is None or not self.gamma > 0 or self.gamma == 1:
                raise ValueError("power utility needs gamma > 0, gamma != 1")
        elif self.kind == "exp":
            if self.gamma is not None or self.a is None or not self.a > 0:
                raise ValueError("exp utility needs a > 0")
        else:
            raise ValueError(f"unknown utility kind {self.kind!r}")

    @classmethod
    def log(cls) -> "Utility":
        return cls("log")

    @classmethod
    def power(cls, gamma: float) -> "Utility":
        return cls("power", gamma=float(gamma))

    @classmethod
    def exponential(cls, a: float) -> "Utility":
        return cls("exp", a=float(a))

    def value(self, c):
        c = np.asarray(c, dtype=float)
        if np.any(c <= 0.0):
            raise ValueError("consumption must be positive")
        if self.kind == "log":
            out = np.log(c)
        elif self.kind == "power":
            out = c ** (1.0 - self.gamma) / (1.0 - self.gamma)
        else:
            out = -np.exp(-self.a * c) / self.a
        return float(out) if out.ndim == 0 else out

    def marginal(self, c):
        c = np.asarray(c, dtype=float)
        if np.any(c <= 0.0):
            raise ValueError("consumption must be positive")
        if self.kind == "log":
            out = 1.0 / c
        elif self.kind == "power":
            out = c ** (-self.gamma)
        else:
            out = np.exp(-self.a * c)
        return float(out) if out.ndim == 0 else out


def inverse_marginal(utility: Utility, y):
    """Consumption level whose marginal utility equals y.

    For exp utility the marginal range on positive consumption is (0, 1), so
    y >= 1 is rejected.
    """
    ya = np.asarray(y, dtype=float)
    if np.any(ya <= 0.0):
        raise ValueError("marginal utility value must be positive")
    if utility.kind == "log":
        out = 1.0 / ya
    elif utility.kind == "power":
        out = ya ** (-1.0 / utility.gamma)
    else:
        if np.any(ya >= 1.0):
            raise ValueError(
                "y outside the marginal range (0, 1) of exp utility on positive consumption"
            )
        out = -np.log(ya) / utility.a
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Agent:
    name: str
    utility: Utility
    endowment: Expr


@dataclass(frozen=True)
class PriorSpec:
    """Reference volatility used for pricing; must sit inside the band."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0.0:
            raise ValueError("prior sigma must be positive")

    @classmethod
    def constant(cls, sigma: float) -> "PriorSpec":
        return cls(float(sigma))

    def mode(self) -> Mode:
        return Mode.fixed(self.sigma)


@dataclass(eq=False)
class Economy:
    """Agents with endowment claims over a common band and grid.

    Endowments are evaluated once on the grid and must be strictly positive
    there.  `constant_aggregate` records whether the summed endowment is flat,
    which the equilibrium construction requires.
    """

    agents: tuple
    bounds: VolBounds
    grid: GridSpec

    def __post_init__(self):
        self.agents = tuple(self.agents)
        if not self.agents:
            raise ValueError("economy needs at least one agent")
        names = [a.name for a in self.agents]
        if len(set(names)) != len(names):
            raise ValueError("agent names must be unique")
        nodes = self.grid.nodes
        rows = []
        for agent in self.agents:
            vals = evaluate(agent.endowment, nodes)
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"endowment of {agent.name!r} is not finite on the grid")
            # individual endowments may touch zero (a kinked claim can), but
            # never go negative; the aggregate must stay strictly positive
            if np.any(vals < 0.0):
                raise ValueError(f"endowment of {agent.name!r} is negative on the grid")
            rows.append(vals)
        self.endowment_values = np.stack(rows)
        self.aggregate = self.endowment_values.sum(axis=0)
        if np.any(self.aggregate <= 0.0):
            raise ValueError("aggregate endowment must be strictly positive on the grid")
        scale = max(1.0, float(np.max(np.abs(self.aggregate))))
        self.constant_aggregate = bool(np.ptp(self.aggregate) <= 1e-10 * scale)
        if any(a.utility.kind == "exp" for a in self.agents):
            warnings.warn(
                "exp utility has bounded marginal utility; planner allocations at "
                "lopsided weights may hit the consumption floor",
                stacklevel=2,
            )

    @property
    def names(self) -> tuple:
        return tuple(a.name for a in self.agents)

    @property
    def n_agents(self) -> int:
        return len(self.agents)


def _shadow_bisect(alpha: np.ndarray, e_vals: np.ndarray, utilities) -> np.ndarray:
    """Solve sum_i inverse_marginal_i(lam / alpha_i) = e for lam, elementwise.

    The sum is strictly decreasing in lam, so bisection from a geometric
    bracket converges unconditionally whenever the target is attainable.
    """
    e = np.asarray(e_vals, dtype=float)
    if np.any(e <= 0.0):
        raise ValueError("aggregate endowment must be positive")
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0.0):
        raise ValueError("weights must be positive")

    caps = [alpha[i] for i, u in enumerate(utilities) if u.kind == "exp"]
    lam_cap = min(caps) if caps else math.inf

    def total(lam):
        acc = np.zeros_like(e)
        for i, u in enumerate(utilities):
            acc = acc + inverse_marginal(u, lam / alpha[i])
        return acc

    hi0 = lam_cap * (1.0 - 1e-12) if math.isfinite(lam_cap) else 1.0
    lo = np.full_like(e, hi0 * 0.5)
    while np.any(need := total(lo) < e):
        lo = np.where(need, lo * 0.25, lo)
        if np.any(lo < 1e-280):
            raise ConvergenceError("failed to bracket the shadow value from below")

    hi = np.full_like(e, hi0)
    if math.isfinite(lam_cap):
        if np.any(total(hi) > e):
            raise ConvergenceError(
                "aggregate endowment unattainable with positive consumption "
                "(exp-utility marginal range exhausted)"
            )
    else:
        while np.any(need := total(hi) > e):
            hi = np.where(need, hi * 4.0, hi)
            if np.any(hi > 1e280):
                raise ConvergenceError("failed to bracket the shadow value from above")

    for _ in range(120):
        mid = 0.5 * (lo + hi)
        low_side = total(mid) >= e
        lo = np.where(low_side, mid, lo)
        hi = np.where(low_side, hi, mid)
    lam = 0.5 * (lo + hi)

    resid = np.max(np.abs(total(lam) - e) / np.maximum(1.0, np.abs(e)))
    if resid > 1e-9:
        raise ConvergenceError(f"shadow-value bisection residual {resid:.3e}")
    return lam


@dataclass(eq=False)
class Allocations:
    """Per-agent consumption grids with the shadow-value grid."""

    consumption: np.ndarray  # (n_agents, nx)
    shadow: np.ndarray  # (nx,)


def allocation_field(alpha, economy: Economy) -> Allocations:
    """Planner allocation node by node across the grid."""
    if len(np.asarray(alpha)) != economy.n_agents:
        raise ValueError("one weight per agent required")
    if not economy.constant_aggregate:
        warnings.warn(
            "aggregate endowment varies across the grid; the planner field is "
            "informative only and does not support an equilibrium here",
            stacklevel=2,
        )
    utilities = [a.utility for a in economy.agents]
    alpha = np.asarray(alpha, dtype=float)
    lam = _shadow_bisect(alpha, economy.aggregate, utilities)
    c = np.stack([inverse_marginal(u, lam / alpha[i]) for i, u in enumerate(utilities)])
    return Allocations(c, lam)


def _priced_claims(alloc: Allocations, economy: Economy, prior: PriorSpec) -> np.ndarray:
    # every agent's claim shadow * (c_i - e_i), priced in one march
    claims = alloc.shadow * (alloc.consumption - economy.endowment_values)
    return expectation(claims, economy.bounds, economy.grid, prior.mode())


def budget_excess(alpha, economy: Economy, prior: PriorSpec) -> np.ndarray:
    """Priced budget surplus of each agent at the candidate weights.

    The claim shadow * (c_i - e_i) is valued by a linear heat solve at the
    prior volatility; at an equilibrium every component vanishes.
    The prior must sit inside the band; the heat solve checks it.
    """
    return _priced_claims(allocation_field(alpha, economy), economy, prior)


@dataclass(eq=False)
class EquilibriumResult:
    alpha: np.ndarray  # planner weights, summing to one
    allocations: np.ndarray  # (n_agents, nx) consumption grids
    shadow: np.ndarray  # (nx,) shadow-value grid, the state-price density proxy
    prior: PriorSpec
    names: tuple
    budget_residual: np.ndarray  # PDE-priced budget surplus per agent


def solve_equilibrium(
    economy: Economy, prior: PriorSpec, budget_tol: float = 1e-10
) -> EquilibriumResult:
    """Full-insurance equilibrium priced at the prior volatility.

    Requires a constant aggregate endowment.  Agent i then consumes p_i, the
    fixed-volatility price of their endowment, and the weights are
    alpha_i proportional to 1 / u_i'(p_i), so alpha_i u_i'(p_i) is one common
    shadow value.  The planner allocation at those weights and the full
    PDE-priced budget surplus are computed independently as cross-checks;
    a surplus above `budget_tol` raises NegishiError.
    """
    if not economy.constant_aggregate:
        raise NonConstantEndowmentError(
            "aggregate endowment varies across the grid; constant-sum "
            "endowments are required for an equilibrium"
        )
    prices = expectation(economy.endowment_values, economy.bounds, economy.grid, prior.mode())
    if np.any(prices <= 0.0):
        raise NegishiError(
            "an endowment has no positive price; no interior equilibrium at this prior"
        )
    inv_marginal = np.array([1.0 / a.utility.marginal(p) for a, p in zip(economy.agents, prices)])
    alpha = inv_marginal / inv_marginal.sum()
    # also catches weights that are not finite
    if not np.all(alpha >= BOUNDARY_MARGIN):
        raise NegishiError(
            "planner weights at the simplex boundary; no interior equilibrium at this prior"
        )

    alloc = allocation_field(alpha, economy)
    residual = _priced_claims(alloc, economy, prior)
    if np.max(np.abs(residual)) > budget_tol:
        raise NegishiError(
            f"PDE budget check disagrees with the closed form "
            f"(residual {np.max(np.abs(residual)):.3e})"
        )
    return EquilibriumResult(
        alpha=alpha,
        allocations=alloc.consumption,
        shadow=alloc.shadow,
        prior=prior,
        names=economy.names,
        budget_residual=residual,
    )


def full_insurance_check(result: EquilibriumResult) -> float:
    """Largest variation of any agent's consumption across states."""
    return float(np.max(np.ptp(result.allocations, axis=1)))
