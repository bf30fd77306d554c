import numpy as np
import pytest
from scipy.stats import binomtest

from knightian import (
    Agent,
    Economy,
    GridSpec,
    PriorSpec,
    Utility,
    check_implementability,
    genericity_probe,
    net_trades,
    solve_equilibrium,
)
from knightian import gexp
from knightian.dsl import parse
from knightian.implementability import Perturbation

from helpers import (
    BAND,
    capped_exp_value,
    example_economy,
    linear_split_economy,
    symmetric_economy,
)

GRID = GridSpec(-6.0, 6.0, 401, 800)
PRIOR1 = PriorSpec.constant(1.0)


@pytest.fixture(scope="module")
def example_solved():
    econ = example_economy(grid=GRID)
    return econ, solve_equilibrium(econ, PRIOR1)


class TestNetTrades:
    def test_rows_sum_to_zero(self, example_solved):
        econ, res = example_solved
        trades = net_trades(res, econ)
        assert np.max(np.abs(trades.values.sum(axis=0))) < 1e-10
        assert np.max(np.abs(trades.values[0] + trades.values[1])) < 1e-12

    def test_example_shape(self, example_solved):
        econ, res = example_solved
        trades = net_trades(res, econ)
        c_star = capped_exp_value(1.0)
        # shadow is one for log agents on unit endowment, so the first trade
        # is c* - min(exp(x), 1)
        expect = c_star - econ.endowment_values[0]
        assert np.max(np.abs(trades.values[0] - expect)) < 5e-4
        mid = (GRID.nx - 1) // 2
        assert trades.values[0][mid] == pytest.approx(c_star - 1.0, abs=5e-4)

    def test_symmetric_trades_vanish(self):
        econ = symmetric_economy(grid=GRID)
        res = solve_equilibrium(econ, PRIOR1)
        trades = net_trades(res, econ)
        assert np.max(np.abs(trades.values)) < 1e-9

    def test_mismatched_economy_rejected(self, example_solved):
        _, res = example_solved
        other = symmetric_economy(grid=GRID)
        with pytest.raises(ValueError):
            net_trades(res, other)
        # the same agents on another grid with as many nodes
        moved = example_economy(grid=GridSpec(-5.0, 5.0, GRID.nx, GRID.nt))
        with pytest.raises(ValueError, match="different grids"):
            net_trades(res, moved)


class TestCheckImplementability:
    def test_example_not_implementable(self, example_solved):
        econ, res = example_solved
        verdict = check_implementability(res, econ)
        assert not verdict.implementable
        g1 = verdict.agent("a1").gap
        assert g1 >= 0.088
        # the mirrored trade carries the same gap
        assert verdict.agent("a2").gap == pytest.approx(g1, abs=1e-9)

    def test_upper_mean_matches_band_values(self, example_solved):
        econ, res = example_solved
        verdict = check_implementability(res, econ)
        v1 = verdict.agent("a1")
        # upper of c - e1 is c - lower of e1
        c_star = float(res.consumption[0])
        assert v1.upper == pytest.approx(c_star - 0.7435, abs=2e-3)
        assert v1.lower == pytest.approx(c_star - 0.8626, abs=2e-3)

    def test_symmetric_implementable_exactly(self):
        econ = symmetric_economy(grid=GRID)
        res = solve_equilibrium(econ, PRIOR1)
        verdict = check_implementability(res, econ)
        assert verdict.implementable
        for v in verdict.agents:
            assert abs(v.gap) < 1e-9

    def test_linear_split_implementable(self):
        econ = linear_split_economy(grid=GRID)
        res = solve_equilibrium(econ, PRIOR1)
        verdict = check_implementability(res, econ)
        assert verdict.implementable
        for v in verdict.agents:
            assert abs(v.gap) < 1e-8

    def test_degenerate_band_always_implementable(self):
        from knightian import VolBounds, default_grid

        bounds = VolBounds(1.0, 1.0, 1.0)
        econ = example_economy(grid=default_grid(bounds, nx=401, nt=800), bounds=bounds)
        res = solve_equilibrium(econ, PRIOR1)
        verdict = check_implementability(res, econ)
        assert verdict.implementable
        for v in verdict.agents:
            assert abs(v.gap) <= 1e-10

    def test_tolerance_monotone(self, example_solved):
        econ, res = example_solved
        tight = check_implementability(res, econ, tol=1e-6)
        loose = check_implementability(res, econ, tol=10.0)
        assert not tight.implementable
        assert loose.implementable


class TestGenericityProbe:
    def test_zero_amplitude_never_fails(self):
        econ = example_economy(grid=GRID)
        res = genericity_probe(econ, 5, Perturbation("bump", 0.0), seed=99)
        assert res.fraction_failing == 0.0
        assert res.n_failed_solves == 0

    def test_bumps_generically_fail(self):
        econ = example_economy(grid=GRID)
        res = genericity_probe(econ, 20, Perturbation("bump", 0.1), seed=123)
        assert res.n_failed_solves == 0
        assert res.fraction_failing >= 0.9
        assert res.wilson_low <= res.fraction_failing <= res.wilson_high

    def test_ramp_family_runs(self):
        econ = example_economy(grid=GRID)
        res = genericity_probe(econ, 8, Perturbation("ramp", 0.1), seed=5)
        assert res.n_samples == 8
        assert res.fraction_failing >= 0.5

    def test_deterministic_in_seed(self):
        econ = example_economy(grid=GRID)
        r1 = genericity_probe(econ, 6, Perturbation("bump", 0.1), seed=77)
        r2 = genericity_probe(econ, 6, Perturbation("bump", 0.1), seed=77)
        for s1, s2 in zip(r1.samples, r2.samples):
            assert s1.seed == s2.seed
            assert s1.center == s2.center
            assert s1.width == s2.width
            assert s1.gap_max == s2.gap_max
        r3 = genericity_probe(econ, 6, Perturbation("bump", 0.1), seed=78)
        assert any(a.center != b.center for a, b in zip(r1.samples, r3.samples))

    def test_sample_seeds_independent_of_count(self):
        econ = example_economy(grid=GRID)
        r_small = genericity_probe(econ, 2, Perturbation("bump", 0.1), seed=77)
        r_big = genericity_probe(econ, 4, Perturbation("bump", 0.1), seed=77)
        for s1, s2 in zip(r_small.samples, r_big.samples):
            assert s1.seed == s2.seed
            assert s1.gap_max == s2.gap_max

    def test_wilson_interval_matches_scipy(self):
        econ = example_economy(grid=GRID)
        res = genericity_probe(econ, 10, Perturbation("bump", 0.1), seed=3)
        ci = binomtest(res.n_failing, res.n_solved).proportion_ci(
            confidence_level=0.95, method="wilson"
        )
        assert res.wilson_low == float(ci.low)
        assert res.wilson_high == float(ci.high)

    def test_validation(self):
        econ = example_economy(grid=GRID)
        with pytest.raises(ValueError):
            genericity_probe(econ, 0)
        with pytest.raises(ValueError):
            Perturbation("sine", 0.1)
        with pytest.raises(ValueError):
            Perturbation("bump", -0.5)
        three = Economy(
            (
                Agent("a", Utility.log(), parse("0.3")),
                Agent("b", Utility.log(), parse("0.3")),
                Agent("c", Utility.log(), parse("0.4")),
            ),
            BAND,
            GRID,
        )
        with pytest.raises(ValueError):
            genericity_probe(three, 3)


COUNT_ENDOWMENTS = {
    2: ("min(exp(x), 1)", "1 - min(exp(x), 1)"),
    3: ("0.5 * min(exp(x), 1)", "0.2 + 0.25*(1 - min(exp(x), 1))", "0.3 + 0.25*(1 - min(exp(x), 1))"),
}


@pytest.mark.parametrize("n_agents", [2, 3])
def test_one_march_per_batched_call(monkeypatch, n_agents):
    """Every agent's column rides in one march: no per-agent march loops."""
    grid = GridSpec(-6.0, 6.0, 101, 50)
    agents = tuple(
        Agent(f"a{i}", Utility.log(), parse(e)) for i, e in enumerate(COUNT_ENDOWMENTS[n_agents])
    )
    econ = Economy(agents, BAND, grid)
    shapes = []
    march = gexp._march

    def counting_march(term, *args, **kwargs):
        shapes.append(np.shape(term))
        return march(term, *args, **kwargs)

    monkeypatch.setattr(gexp, "_march", counting_march)
    res = solve_equilibrium(econ, PRIOR1)
    # endowment prices, then budget claims
    assert shapes == [(n_agents, grid.nx), (n_agents, grid.nx)]
    shapes.clear()
    check_implementability(res, econ)
    # one upper march of the net trades stacked over their negatives
    assert shapes == [(2 * n_agents, grid.nx)]
