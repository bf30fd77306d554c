"""
Hedging a claim when volatility is ambiguous
============================================

Delta-hedging at the worst-case value does not replicate a curved claim
exactly: the hedger banks a nondecreasing surplus K along the way. Its mean
equals the gap between the worst-case value and the value under the realized
volatility, and it vanishes precisely on the volatility paths the worst case
fears most.
"""

import numpy as np

from knightian import (
    ControlSpec,
    GridFunction,
    GridSpec,
    Mode,
    VolBounds,
    exp_martingale_transform,
    expectation,
    hedge_field,
    parse,
    replicate,
    simulate_paths,
    strategy_gains,
)

bounds = VolBounds(0.5, 1.0, 1.0)
grid = GridSpec(-6.0, 6.0, 401, 800)
payoff = parse("min(exp(x), 1)")

hedge = hedge_field(payoff, bounds, grid)

# Simulate at a constant volatility inside the band. Binary increments make
# the discrete stochastic integrals exact in distribution and reproducible.
for sigma in (0.5, 1.0):
    paths = simulate_paths(ControlSpec.constant(sigma), bounds, 20000, 256, seed=11)
    rep = replicate(payoff, hedge, paths)
    fixed = expectation(payoff, bounds, grid, Mode.fixed(sigma))
    print(f"sigma={sigma}: upper value {rep.upper_value:.6f}, realized value {fixed:.6f}")
    print(f"  mean surplus K_T   {rep.mean_k:.6f} (se {rep.se_k:.1e})")
    print(f"  value difference   {rep.upper_value - fixed:.6f}")
    print(f"  smallest K step    {rep.min_k_increment:.1e} (never negative)")
    print(f"  replication gap    {rep.mean_gap:+.2e} after subtracting K\n")

# Let an adversary pick the volatility pathwise: high where the hedge is
# convex, low where concave. That is exactly the worst case the upper value
# prices, so the surplus disappears and replication is exact on average.
adversarial = simulate_paths(ControlSpec.extremal(hedge), bounds, 20000, 256, seed=11)
rep = replicate(payoff, hedge, adversarial)
print(f"adversarial volatility: mean K_T {rep.mean_k:.1e}, gap {rep.mean_gap:+.2e}")

# A strategy can be rebased onto a different traded integrator. Dividing the
# position by the integrator's loading at the sample point reproduces the
# original gains path by path, to machine precision.
t = np.linspace(0.0, bounds.horizon, grid.nt + 1)
loading = GridFunction.of(np.exp(grid.nodes[None, :] - 0.5 * t[:, None]), grid, bounds.horizon)
rebased = exp_martingale_transform(hedge.eta, loading, floor=1e-8)
sample = simulate_paths(ControlSpec.constant(0.8), bounds, 2000, 256, seed=5)
direct = strategy_gains(hedge.eta, sample)
via_loading = strategy_gains(rebased, sample, loading=loading)
print(f"rebased-integrator gains match to {np.max(np.abs(direct - via_loading)):.1e}")
