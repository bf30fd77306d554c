"""
One economy, a continuum of equilibria
======================================

Under volatility uncertainty the pricing measure is not pinned down: any
single volatility in the band supports an equilibrium, and the allocation
genuinely moves with the choice. Two log agents share a constant aggregate
endowment; agent one holds the kinked claim, agent two the rest.
"""

from knightian import (
    Agent,
    Economy,
    GridSpec,
    PriorSpec,
    Utility,
    VolBounds,
    parse,
    solve_equilibrium,
)

bounds = VolBounds(0.5, 1.0, 1.0)
grid = GridSpec(-6.0, 6.0, 401, 800)
economy = Economy(
    (
        Agent("a1", Utility.log(), parse("min(exp(x), 1)")),
        Agent("a2", Utility.log(), parse("1 - min(exp(x), 1)")),
    ),
    bounds,
    grid,
)

print("pricing sigma | weight a1 | consumption a1 | budget residual")
consumptions = {}
for sigma in (0.5, 0.75, 1.0):
    res = solve_equilibrium(economy, PriorSpec.constant(sigma))
    c1 = float(res.consumption[0])
    consumptions[sigma] = c1
    print(
        f"   {sigma:>10} | {float(res.alpha[0]):.6f}  | {c1:.6f}       | "
        f"{float(max(abs(r) for r in res.budget_residual)):.1e}"
    )

# The allocation is genuinely indeterminate: moving the pricing volatility
# from 1.0 to 0.5 hands agent one about 0.088 more consumption.
shift = consumptions[0.5] - consumptions[1.0]
print(f"\nconsumption shift across the band: {shift:+.6f}")

# Every one of these equilibria is full insurance: with a constant aggregate
# endowment, efficient consumption is constant across states. The printed
# variation is how far the summed consumption misses the aggregate endowment.
res = solve_equilibrium(economy, PriorSpec.constant(1.0))
print(f"full-insurance variation at sigma=1.0: {res.clearing:.2e}")

# Agent one's equilibrium consumption equals the price of their endowment
# under the chosen prior (log utility, unit aggregate): the whole effect is
# the endowment being worth more when priced at low volatility.
print("\nwith log utility c1 equals the prior's value of the endowment,")
print("so the indeterminacy is exactly the valuation gap of the kinked claim.")
