"""Full-insurance risk-sharing equilibria.

Agents share a constant aggregate endowment under a common volatility band.
With a constant aggregate every efficient allocation is constant across
states, so an agent's budget, priced under a chosen reference volatility,
balances exactly when they consume p_i, the price of their endowment.  The
whole equilibrium is then a handful of scalars: the prices, weights
alpha_i proportional to 1 / u_i'(p_i), and one shadow value, the common
weighted marginal utility.  Nothing is solved node by node.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .dsl import Expr, evaluate
from . import gexp
from .gexp import GridSpec, VolBounds, check_tolerance

__all__ = [
    "Utility",
    "Agent",
    "Economy",
    "PriorSpec",
    "ConvergenceError",
    "NegishiError",
    "NonConstantEndowmentError",
    "EquilibriumResult",
    "solve_equilibrium",
]

# planner weights closer to the simplex boundary than this are treated as
# degenerate rather than interior
BOUNDARY_MARGIN = 1e-8

# summed endowment prices may miss the aggregate by at most this much,
# relative to max(1, |aggregate|)
CLEARING_TOL = 1e-9


class ConvergenceError(RuntimeError):
    """No equilibrium could be built at this prior (exit code 4)."""


class NegishiError(ConvergenceError):
    """No interior equilibrium: an endowment price that is not positive,
    weights at the simplex boundary, prices that do not clear the aggregate,
    or a PDE budget check that disagrees with the closed form."""


class NonConstantEndowmentError(RuntimeError):
    """Equilibrium construction requires a constant aggregate endowment."""


@dataclass(frozen=True)
class Utility:
    """Strictly concave flow utility; kind is log, power, or exp."""

    kind: str
    gamma: Optional[float] = None
    a: Optional[float] = None

    def __post_init__(self):
        takes = {"log": (), "power": ("gamma",), "exp": ("a",)}.get(self.kind)
        if takes is None:
            raise ValueError(f"unknown utility kind {self.kind!r}")
        for name in ("gamma", "a"):
            if name not in takes and getattr(self, name) is not None:
                raise ValueError(f"{self.kind} utility takes no {name}")
        if self.kind == "power" and (self.gamma is None or not self.gamma > 0 or self.gamma == 1):
            raise ValueError("power utility needs gamma > 0, gamma != 1")
        if self.kind == "exp" and (self.a is None or not self.a > 0):
            raise ValueError("exp utility needs a > 0")

    @classmethod
    def log(cls) -> "Utility":
        return cls("log")

    @classmethod
    def power(cls, gamma: float) -> "Utility":
        return cls("power", gamma=float(gamma))

    @classmethod
    def exponential(cls, a: float) -> "Utility":
        return cls("exp", a=float(a))

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

    @property
    def names(self) -> tuple:
        return tuple(a.name for a in self.agents)

    @property
    def n_agents(self) -> int:
        return len(self.agents)


@dataclass(eq=False)
class EquilibriumResult:
    economy: Economy  # the economy solved
    prior: PriorSpec
    alpha: np.ndarray  # (n_agents,) planner weights, summing to one
    consumption: np.ndarray  # (n_agents,) constant consumption: the endowment prices
    shadow: float  # common weighted marginal utility, the state-price density proxy
    budget_residual: np.ndarray  # PDE-priced budget surplus per agent
    clearing: float  # largest gap over the grid between summed consumption and aggregate

    @property
    def trades(self) -> np.ndarray:
        """(n_agents, nx) net trades shadow * (consumption - endowment), built when read."""
        return self.shadow * (self.consumption[:, None] - self.economy.endowment_values)


def solve_equilibrium(
    economy: Economy, prior: PriorSpec, budget_tol: float = 1e-10
) -> EquilibriumResult:
    """Full-insurance equilibrium priced at the prior volatility.

    Requires a constant aggregate endowment.  Agent i then consumes p_i, the
    fixed-volatility price of their endowment; the weights are alpha_i
    proportional to 1 / u_i'(p_i) and the shadow value is
    1 / sum_j 1 / u_j'(p_j), so alpha_i u_i'(p_i) equals it for every agent.
    Prices and budgets come from one fixed-sigma kernel w, with no march:
    p_i = w . e_i.  Two checks raise NegishiError: prices that miss the
    aggregate by more than CLEARING_TOL (relative to max(1, |e|)), and net
    trades shadow * (p_i - e_i) whose value w . trade exceeds `budget_tol`,
    which must be finite and positive (ValueError).
    """
    require_constant_aggregate(economy)
    utilities = tuple(agent.utility for agent in economy.agents)
    prices, alpha, shadow, residual, clearing, (error,) = _solve_stack(
        utilities, economy.endowment_values[None], economy.bounds, economy.grid, prior, budget_tol
    )
    if error is not None:
        raise NegishiError(error)
    return EquilibriumResult(
        economy, prior, alpha[0], prices[0], float(shadow[0]), residual[0], float(clearing[0])
    )


def require_constant_aggregate(economy: Economy):
    """Raise NonConstantEndowmentError unless the aggregate endowment is flat."""
    if not economy.constant_aggregate:
        raise NonConstantEndowmentError(
            "aggregate endowment varies across the grid; constant-sum "
            "endowments are required for an equilibrium"
        )


class _Stack(NamedTuple):
    """What `_solve_stack` finds for a stack of s economies of n agents."""

    prices: np.ndarray  # (s, n) endowment prices
    alpha: np.ndarray  # (s, n) planner weights
    shadow: np.ndarray  # (s,) shadow values
    residual: np.ndarray  # (s, n) PDE-priced budget surplus
    clearing: np.ndarray  # (s,) largest gap between summed prices and the aggregate
    errors: list  # (s,) None for a solved economy, else its NegishiError text


def _solve_stack(utilities, endowments, bounds, grid, prior, budget_tol: float) -> _Stack:
    """Solve s economies of agents with a tuple of n utilities, whose
    endowments are an (s, n, nx) array on the band's grid with a constant
    aggregate each.

    Nothing is marched.  At the prior's fixed volatility the march is linear,
    so one kernel `w` (`gexp._fixed_kernel`) prices the whole stack: every
    endowment as w . e, then the net trades of the economies that passed the
    price and weight checks as w . trade, which prices their budgets; the
    trades live only for that product.  Each check runs on all economies at
    once, with the same arithmetic per economy as a solve of that economy
    alone, so every value is bit-identical to it.
    """
    check_tolerance("budget_tol", budget_tol)
    s, n, nx = endowments.shape
    weights = gexp._fixed_kernel(prior.sigma, bounds, grid)
    prices = gexp._priced(endowments.reshape(s * n, nx), weights).reshape(s, n)

    errors = [None] * s
    ok = np.ones(s, dtype=bool)

    def check(passed, message, residual=None):
        for i in np.flatnonzero(ok & ~passed):
            errors[i] = message if residual is None else f"{message} (residual {residual[i]:.3e})"
        ok[:] &= passed

    check(
        ~np.any(prices <= 0.0, axis=1),
        "an endowment has no positive price; no interior equilibrium at this prior",
    )
    inv_marginal = np.ones((s, n))
    # a marginal utility that underflows to zero has an infinite inverse, one
    # that overflows a zero inverse, and the weights are then not finite or
    # zero: the boundary check rejects them
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j, utility in enumerate(utilities):
            inv_marginal[ok, j] = 1.0 / utility.marginal(prices[ok, j])
        total = inv_marginal.sum(axis=1)
        alpha = inv_marginal / total[:, None]
    # also catches weights that are not finite
    check(
        np.all(alpha >= BOUNDARY_MARGIN, axis=1),
        "planner weights at the simplex boundary; no interior equilibrium at this prior",
    )

    live = np.flatnonzero(ok)
    shadow = np.zeros(s)
    shadow[live] = 1.0 / total[live]
    residual = np.zeros((s, n))
    # the clearing gap first, so the aggregates are freed before the trades
    aggregate = endowments.sum(axis=1)
    clearing = np.max(np.abs(prices.sum(axis=1)[:, None] - aggregate), axis=1)
    tol = CLEARING_TOL * np.maximum(1.0, np.max(np.abs(aggregate), axis=1))
    del aggregate
    trades = endowments[live]
    np.subtract(prices[live, :, None], trades, out=trades)
    np.multiply(shadow[live, None, None], trades, out=trades)
    residual[live] = gexp._priced(trades.reshape(-1, nx), weights).reshape(-1, n)
    check(~(clearing > tol), "endowment prices do not clear the aggregate", clearing)
    worst = np.max(np.abs(residual), axis=1)
    check(~(worst > budget_tol), "PDE budget check disagrees with the closed form", worst)
    return _Stack(prices, alpha, shadow, residual, clearing, errors)
