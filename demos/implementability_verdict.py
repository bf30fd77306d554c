"""
Which equilibria survive dynamic trading?
=========================================

A static equilibrium allocation is only credible if agents can actually
finance their net trades by trading a security over time. Under volatility
uncertainty that requires each net trade to have the same mean under every
volatility in the band ("mean ambiguity-free"). A net trade with curvature
fails this; a linear one passes.
"""

from knightian import (
    Agent,
    Economy,
    GridSpec,
    PriorSpec,
    Utility,
    VolBounds,
    check_implementability,
    parse,
    solve_equilibrium,
)

bounds = VolBounds(0.5, 1.0, 1.0)
grid = GridSpec(-6.0, 6.0, 401, 800)


def verdict_for(economy, label):
    res = solve_equilibrium(economy, PriorSpec.constant(1.0))
    v = check_implementability(res)
    print(f"{label}:")
    for a in v.agents:
        tag = "mean ambiguity-free" if a.mean_af else "ambiguous mean"
        print(f"  {a.name}: upper {a.upper:+.6f} lower {a.lower:+.6f} -> {tag}")
    print(f"  implementable: {'yes' if v.implementable else 'no'}\n")


# The kinked endowment makes agent one's net trade strictly curved, so its
# worst-case and best-case values differ by about 0.12 and the allocation
# cannot be financed by any trading strategy.
kinked = Economy(
    (
        Agent("a1", Utility.log(), parse("min(exp(x), 1)")),
        Agent("a2", Utility.log(), parse("1 - min(exp(x), 1)")),
    ),
    bounds,
    grid,
)
verdict_for(kinked, "kinked endowment split")

# Linear endowments produce linear net trades: a position in the security
# itself finances them, and the verdict flips.
linear = Economy(
    (
        Agent("l1", Utility.log(), parse("0.5 + 0.05*x")),
        Agent("l2", Utility.log(), parse("0.5 - 0.05*x")),
    ),
    bounds,
    grid,
)
verdict_for(linear, "linear endowment split")

# Constant endowments trade nothing at all; trivially fine.
flat = Economy(
    (
        Agent("f1", Utility.log(), parse("0.6")),
        Agent("f2", Utility.log(), parse("0.4")),
    ),
    bounds,
    grid,
)
verdict_for(flat, "constant endowment split")
