"""Shared builders for the test suite."""

import json

import numpy as np
from scipy.stats import norm

from knightian import (
    Agent,
    Economy,
    GridSpec,
    Utility,
    VolBounds,
    default_grid,
    parse,
)
from knightian.dsl import BinOp, Call, Lit, Neg, Pow, Var

BAND = VolBounds(0.5, 1.0, 1.0)


def capped_exp_value(sigma: float) -> float:
    """Independent closed form for the fixed-volatility value of min(exp(x), 1)."""
    return float(np.exp(sigma**2 / 2.0) * norm.cdf(-sigma) + 0.5)


def example_payoff():
    return parse("min(exp(x), 1)")


def example_economy(grid: GridSpec = None, bounds: VolBounds = BAND) -> Economy:
    if grid is None:
        grid = default_grid(bounds)
    return Economy(
        (
            Agent("a1", Utility.log(), parse("min(exp(x), 1)")),
            Agent("a2", Utility.log(), parse("1 - min(exp(x), 1)")),
        ),
        bounds,
        grid,
    )


def symmetric_economy(grid: GridSpec = None, bounds: VolBounds = BAND) -> Economy:
    if grid is None:
        grid = default_grid(bounds)
    return Economy(
        (
            Agent("s1", Utility.log(), parse("0.5")),
            Agent("s2", Utility.log(), parse("0.5")),
        ),
        bounds,
        grid,
    )


def linear_split_economy(grid: GridSpec = None, bounds: VolBounds = BAND) -> Economy:
    """Both net trades linear in x, hence mean-ambiguity-free."""
    if grid is None:
        grid = default_grid(bounds)
    return Economy(
        (
            Agent("l1", Utility.log(), parse("0.5 + 0.05*x")),
            Agent("l2", Utility.log(), parse("0.5 - 0.05*x")),
        ),
        bounds,
        grid,
    )


def random_payoff(rng: np.random.Generator, max_depth: int = 4):
    """Random expression tree with values kept to moderate magnitude.

    exp arguments stay linear in x with a small coefficient and power bases
    are tanh-wrapped, so evaluation is safe anywhere on the lattice.
    """

    def go(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return Var()
            return Lit(round(float(rng.uniform(-2.0, 2.0)), 3))
        r = rng.random()
        if r < 0.18:
            return BinOp("+", go(depth - 1), go(depth - 1))
        if r < 0.36:
            return BinOp("-", go(depth - 1), go(depth - 1))
        if r < 0.50:
            return BinOp("*", Lit(round(float(rng.uniform(-1.5, 1.5)), 3)), go(depth - 1))
        if r < 0.58:
            return Pow(Call("tanh", (go(depth - 1),)), int(rng.integers(2, 4)))
        if r < 0.66:
            return Neg(go(depth - 1))
        if r < 0.74:
            return Call("abs", (go(depth - 1),))
        if r < 0.82:
            return Call("tanh", (go(depth - 1),))
        if r < 0.90:
            return Call("min", (go(depth - 1), go(depth - 1)))
        if r < 0.96:
            return Call("max", (go(depth - 1), go(depth - 1)))
        return Call("exp", (BinOp("*", Lit(round(float(rng.uniform(-0.5, 0.5)), 3)), Var()),))

    return go(max_depth)


def write_config(path, **overrides):
    """Write a config JSON for the example economy, with overrides merged in;
    an override of None leaves its section out."""
    cfg = {
        "bounds": {"sigma_lo": 0.5, "sigma_hi": 1.0, "horizon": 1.0},
        "grid": {"x_min": -6.0, "x_max": 6.0, "nx": 401, "nt": 800},
        "agents": [
            {"name": "a1", "utility": {"kind": "log"}, "endowment": "min(exp(x), 1)"},
            {"name": "a2", "utility": {"kind": "log"}, "endowment": "1 - min(exp(x), 1)"},
        ],
        "pricing_prior": {"sigma": 1.0},
        "mc": {"paths": 4000, "steps": 128, "seed": 42, "increments": "binary"},
        "tolerances": {"mean_af": 0.001, "equilibrium": 1e-10},
    }
    cfg.update(overrides)
    cfg = {key: value for key, value in cfg.items() if value is not None}
    with open(path, "w") as fh:
        json.dump(cfg, fh, indent=2)
    return path
