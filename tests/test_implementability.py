import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest

from knightian import (
    Agent,
    ConvergenceError,
    Economy,
    EquilibriumResult,
    GridSpec,
    NonConstantEndowmentError,
    PriorSpec,
    Utility,
    check_implementability,
    genericity_probe,
    mean_ambiguity_gap,
    solve_equilibrium,
)
from knightian import gexp, implementability
from knightian.dsl import BinOp, Call, Lit, Neg, Pow, Var, evaluate, parse
from knightian.implementability import Perturbation, _splits, _wilson_interval

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
    return solve_equilibrium(example_economy(grid=GRID), PRIOR1)


class TestNetTrades:
    def test_rows_sum_to_zero(self, example_solved):
        trades = example_solved.trades
        assert np.max(np.abs(trades.sum(axis=0))) < 1e-10
        assert np.max(np.abs(trades[0] + trades[1])) < 1e-12

    def test_example_shape(self, example_solved):
        res = example_solved
        c_star = capped_exp_value(1.0)
        # shadow is one for log agents on unit endowment, so the first trade
        # is c* - min(exp(x), 1)
        expect = c_star - res.economy.endowment_values[0]
        assert np.max(np.abs(res.trades[0] - expect)) < 5e-4
        mid = (GRID.nx - 1) // 2
        assert res.trades[0][mid] == pytest.approx(c_star - 1.0, abs=5e-4)

    def test_symmetric_trades_vanish(self):
        res = solve_equilibrium(symmetric_economy(grid=GRID), PRIOR1)
        assert np.max(np.abs(res.trades)) < 1e-9

    def test_trades_are_priced_consumption_minus_endowment(self, example_solved):
        res = example_solved
        expect = res.shadow * (res.consumption[:, None] - res.economy.endowment_values)
        assert res.trades.tobytes() == expect.tobytes()

    @pytest.mark.parametrize(
        "build", [example_economy, symmetric_economy, linear_split_economy]
    )
    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    def test_net_trade_expression_evaluates_to_trades(self, build, sigma):
        res = solve_equilibrium(build(grid=GRID), PriorSpec.constant(sigma))
        for i, name in enumerate(res.economy.names):
            values = evaluate(res.net_trade(name), GRID.nodes)
            assert values.tobytes() == res.trades[i].tobytes()
        with pytest.raises(ValueError, match="^no agent named 'nobody' in the economy$"):
            res.net_trade("nobody")

    def test_result_stores_no_node_arrays(self, example_solved):
        # the trades are derived from the economy on demand, not stored
        stored = [getattr(example_solved, f.name) for f in dataclasses.fields(example_solved)]
        assert all(np.ndim(value) <= 1 for value in stored)


class TestCheckImplementability:
    def test_example_not_implementable(self, example_solved):
        verdict = check_implementability(example_solved)
        assert not verdict.implementable
        g1 = verdict.agent("a1").gap
        assert g1 >= 0.088
        # the mirrored trade carries the same gap
        assert verdict.agent("a2").gap == pytest.approx(g1, abs=1e-9)

    def test_upper_mean_matches_band_values(self, example_solved):
        verdict = check_implementability(example_solved)
        v1 = verdict.agent("a1")
        # upper of c - e1 is c - lower of e1
        c_star = float(example_solved.consumption[0])
        assert v1.upper == pytest.approx(c_star - 0.7435, abs=2e-3)
        assert v1.lower == pytest.approx(c_star - 0.8626, abs=2e-3)

    def test_symmetric_implementable_exactly(self):
        res = solve_equilibrium(symmetric_economy(grid=GRID), PRIOR1)
        verdict = check_implementability(res)
        assert verdict.implementable
        for v in verdict.agents:
            assert abs(v.gap) < 1e-9

    def test_linear_split_implementable(self):
        res = solve_equilibrium(linear_split_economy(grid=GRID), PRIOR1)
        verdict = check_implementability(res)
        assert verdict.implementable
        for v in verdict.agents:
            assert abs(v.gap) < 1e-8

    def test_degenerate_band_always_implementable(self):
        from knightian import VolBounds, default_grid

        bounds = VolBounds(1.0, 1.0, 1.0)
        econ = example_economy(grid=default_grid(bounds, nx=401, nt=800), bounds=bounds)
        res = solve_equilibrium(econ, PRIOR1)
        verdict = check_implementability(res)
        assert verdict.implementable
        for v in verdict.agents:
            assert abs(v.gap) <= 1e-10

    def test_tolerance_monotone(self, example_solved):
        tight = check_implementability(example_solved, tol=1e-6)
        loose = check_implementability(example_solved, tol=10.0)
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
        # the closed form against scipy: every count up to 40 trials, and a few
        # larger trial numbers in full
        for n in [*range(1, 41), 97, 200, 300]:
            for k in range(n + 1):
                ci = binomtest(k, n).proportion_ci(confidence_level=0.95, method="wilson")
                assert _wilson_interval(k, n) == (float(ci.low), float(ci.high)), (k, n)

    def test_validation(self):
        econ = example_economy(grid=GRID)
        with pytest.raises(ValueError):
            genericity_probe(econ, 0)
        with pytest.raises(ValueError):
            Perturbation("sine", 0.1)
        with pytest.raises(ValueError):
            Perturbation("bump", -0.5)
        for amplitude in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="amplitude"):
                Perturbation("bump", amplitude)
        with pytest.raises(ValueError, match="memory budget"):
            genericity_probe(econ, 10**7)
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

    def test_nonconstant_aggregate_rejected(self):
        # the solver's error and message, so the command line exits 3 for both
        econ = Economy(
            (
                Agent("a1", Utility.log(), parse("min(exp(x), 1)")),
                Agent("a2", Utility.log(), parse("1.5 - min(exp(x), 1)*0.5")),
            ),
            BAND,
            GRID,
        )
        with pytest.raises(NonConstantEndowmentError) as probe_err:
            genericity_probe(econ, 3)
        with pytest.raises(NonConstantEndowmentError) as solve_err:
            solve_equilibrium(econ, PRIOR1)
        assert str(probe_err.value) == str(solve_err.value)


COUNT_ENDOWMENTS = {
    2: ("min(exp(x), 1)", "1 - min(exp(x), 1)"),
    3: ("0.5 * min(exp(x), 1)", "0.2 + 0.25*(1 - min(exp(x), 1))", "0.3 + 0.25*(1 - min(exp(x), 1))"),
}


KERNEL = "kernel"


def counting_marches(monkeypatch):
    """Record, in call order, the shape of every stack handed to the march
    and KERNEL for every fixed-sigma kernel built."""
    calls = []
    march, kernel = gexp._march, gexp._fixed_kernel

    def counting_march(term, *args, **kwargs):
        calls.append(np.shape(term))
        return march(term, *args, **kwargs)

    def counting_kernel(*args, **kwargs):
        calls.append(KERNEL)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(gexp, "_march", counting_march)
    monkeypatch.setattr(gexp, "_fixed_kernel", counting_kernel)
    return calls


@pytest.mark.parametrize("n_agents", [2, 3])
def test_one_march_per_batched_call(monkeypatch, n_agents):
    """Every agent's column rides in one kernel or one march: no per-agent loops."""
    grid = GridSpec(-6.0, 6.0, 101, 50)
    agents = tuple(
        Agent(f"a{i}", Utility.log(), parse(e)) for i, e in enumerate(COUNT_ENDOWMENTS[n_agents])
    )
    econ = Economy(agents, BAND, grid)
    calls = counting_marches(monkeypatch)
    res = solve_equilibrium(econ, PRIOR1)
    # one kernel prices the endowments and the budget claims: no march
    assert calls == [KERNEL]
    calls.clear()
    check_implementability(res)
    # one march of the endowments, each block marching their upper and lower
    # columns side by side; two agents march only the first one's
    assert calls == [(1 if n_agents == 2 else n_agents, grid.nx)]


PROBE_GRID = GridSpec(-6.0, 6.0, 101, 50)


@pytest.mark.parametrize("bad", [math.nan, -1e-3, 0.0, math.inf, True, "0.1"])
@pytest.mark.parametrize(
    "call",
    [
        lambda econ, res, bad: mean_ambiguity_gap(parse("5"), BAND, econ.grid, bad),
        lambda econ, res, bad: check_implementability(res, bad),
        lambda econ, res, bad: solve_equilibrium(econ, PRIOR1, budget_tol=bad),
        lambda econ, res, bad: genericity_probe(econ, 3, tol=bad),
        lambda econ, res, bad: genericity_probe(econ, 3, budget_tol=bad),
    ],
    ids=["gap-tol", "implement-tol", "equilibrium-budget_tol", "probe-tol", "probe-budget_tol"],
)
def test_nonsense_tolerance_rejected_before_any_march(monkeypatch, call, bad):
    """A tolerance that is not a finite and positive real number (a bool or
    a string is not one) raises ValueError up front, as the config loader
    rejects it, rather than passing or failing every comparison (NaN or
    True, read as 1) or surfacing as a NegishiError or TypeError."""
    econ = example_economy(grid=PROBE_GRID)
    res = solve_equilibrium(econ, PRIOR1)
    calls = counting_marches(monkeypatch)
    message = "must be a real number" if isinstance(bad, (bool, str)) else "must be finite and positive"
    with pytest.raises(ValueError, match=message):
        call(econ, res, bad)
    # no march, and no kernel either
    assert calls == []


@pytest.mark.parametrize("n_samples", [1, 3, 17])
def test_probe_marches_once(monkeypatch, n_samples):
    """One kernel prices the endowments and the budget claims, and one march
    of the first agent's endowments gives both agents' ambiguity gaps, for
    any number of samples."""
    calls = counting_marches(monkeypatch)
    econ = example_economy(grid=PROBE_GRID)
    res = genericity_probe(econ, n_samples, Perturbation("bump", 0.1), seed=5)
    assert res.n_solved == n_samples
    assert calls == [KERNEL, (n_samples, PROBE_GRID.nx)]


@pytest.mark.parametrize("family", ["bump", "ramp"])
def test_probe_peak_within_its_row_budget(family):
    """The probe's tracemalloc peak, in float64 rows of nx per sample and
    agent, stays under the figure its memory budget charges (a wide grid
    keeps the march short)."""
    econ = example_economy(grid=GridSpec(-60.0, 60.0, 401, 10))
    n_samples, n_agents, nx = 200, 2, 401
    genericity_probe(econ, 2, Perturbation(family, 0.1))
    tracemalloc.start()
    try:
        genericity_probe(econ, n_samples, Perturbation(family, 0.1), seed=42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = peak / (8 * n_samples * n_agents * nx)
    assert rows <= 3.0, rows
    assert rows < implementability._PROBE_ROWS


def exp_economy(a: float, grid: GridSpec) -> Economy:
    """The example endowments held by two exp(a) agents; at a = 200 or 400 a
    bump probe mixes solved samples with weights at the simplex boundary."""
    return Economy(
        (
            Agent("a1", Utility.exponential(a), parse("min(exp(x), 1)")),
            Agent("a2", Utility.exponential(a), parse("1 - min(exp(x), 1)")),
        ),
        BAND,
        grid,
    )


def test_failed_samples_leave_the_stack(monkeypatch):
    calls = counting_marches(monkeypatch)
    res = genericity_probe(exp_economy(200.0, PROBE_GRID), 8, Perturbation("bump", 0.1), seed=1)
    assert 0 < res.n_solved < 8
    assert {s.error for s in res.samples} == {
        None,
        "planner weights at the simplex boundary; no interior equilibrium at this prior",
    }
    # the gap march takes only the solved samples, one row each
    assert calls == [KERNEL, (res.n_solved, PROBE_GRID.nx)]


def shifted_scaled(center: float, width: float):
    # (x - center) / width
    return BinOp("/", BinOp("-", Var(), Lit(center)), Lit(width))


def tilt_expr(family: str, center: float, width: float):
    z = shifted_scaled(center, width)
    if family == "bump":
        return Call("exp", (Neg(Pow(z, 2)),))
    # ramp: clamp z to [0, 1]
    return Call("min", (Call("max", (z, Lit(0.0))), Lit(1.0)))


def clamped_share(e_total: float, amplitude: float, tilt):
    # e/2 + amplitude * tilt, clamped into [0.01 e, 0.99 e]
    eps = 0.01 * e_total
    raw = BinOp("+", Lit(0.5 * e_total), BinOp("*", Lit(amplitude), tilt))
    return Call("min", (Call("max", (raw, Lit(eps))), Lit(e_total - eps)))


@settings(max_examples=100)
@given(
    family=st.sampled_from(["bump", "ramp"]),
    amplitude=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    e_total=st.floats(1e-3, 1e6),
    draws=st.lists(
        st.tuples(st.floats(-20.0, 20.0), st.floats(1e-3, 20.0)), min_size=1, max_size=4
    ),
)
def test_splits_match_expression_trees(family, amplitude, e_total, draws):
    """The probe's endowment array is, byte for byte, the split's payoff
    expressions evaluated on the grid."""
    nodes = PROBE_GRID.nodes
    centers, widths = np.array(draws).T
    got = _splits(Perturbation(family, amplitude), e_total, nodes, centers, widths)
    assert got.shape == (len(draws), 2, PROBE_GRID.nx)
    for (center, width), split in zip(draws, got):
        e1 = clamped_share(e_total, amplitude, tilt_expr(family, center, width))
        e2 = BinOp("-", Lit(e_total), e1)
        assert split.tobytes() == np.stack([evaluate(e1, nodes), evaluate(e2, nodes)]).tobytes()


def per_sample_probe(economy, n_samples, perturbation, seed, prior, tol, budget_tol):
    """Reference probe: draw each sample as `genericity_probe` does, then one
    solve_equilibrium and one check_implementability per sample."""
    e_total = float(np.mean(economy.aggregate))
    scale = economy.bounds.sigma_hi * math.sqrt(economy.bounds.horizon)
    a1, a2 = economy.agents
    rows = []
    for k in range(n_samples):
        sample_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
        rng = np.random.default_rng(sample_seed)
        center = float(rng.uniform(-1.5 * scale, 1.5 * scale))
        width = float(rng.uniform(0.3 * scale, 1.0 * scale))
        tilt = tilt_expr(perturbation.family, center, width)
        e1 = clamped_share(e_total, perturbation.amplitude, tilt)
        agents = (Agent(a1.name, a1.utility, e1), Agent(a2.name, a2.utility, BinOp("-", Lit(e_total), e1)))
        perturbed = Economy(agents, economy.bounds, economy.grid)
        try:
            result = solve_equilibrium(perturbed, prior, budget_tol)
            verdict = check_implementability(result, tol)
        except ConvergenceError as err:
            rows.append((k, sample_seed, center, width, None, None, str(err)))
            continue
        gap_max = max(v.gap for v in verdict.agents)
        rows.append((k, sample_seed, center, width, gap_max, verdict.implementable, None))
    return rows


@pytest.mark.parametrize(
    "utility_a, family, seed, budget_tol",
    [
        (None, "bump", 3, 1e-10),
        (None, "ramp", 5, 1e-10),
        (None, "bump", 4, 1e-300),
        (200.0, "bump", 1, 1e-10),
        (400.0, "bump", 2, 1e-10),
    ],
)
def test_batched_probe_matches_per_sample_solves(utility_a, family, seed, budget_tol):
    grid = GridSpec(-6.0, 6.0, 201, 300)
    econ = example_economy(grid=grid) if utility_a is None else exp_economy(utility_a, grid)
    prior, perturbation = PRIOR1, Perturbation(family, 0.1)
    res = genericity_probe(econ, 8, perturbation, seed, prior, 1e-3, budget_tol)
    got = [
        (s.index, s.seed, s.center, s.width, s.gap_max, s.implementable, s.error)
        for s in res.samples
    ]
    # repr tells signed zeros apart, so the rows must match bit for bit
    assert repr(got) == repr(per_sample_probe(econ, 8, perturbation, seed, prior, 1e-3, budget_tol))
    assert res.n_solved == sum(row[-1] is None for row in got)


def three_agent_economy(grid: GridSpec) -> Economy:
    endowments = COUNT_ENDOWMENTS[3]
    agents = tuple(Agent(f"a{i}", Utility.log(), parse(e)) for i, e in enumerate(endowments))
    return Economy(agents, BAND, grid)


def unequal_utility_economy(grid: GridSpec) -> Economy:
    """Twice the example endowments, held by power and exp agents: the
    shadow value is not one, as it is for log agents sharing one unit."""
    agents = (
        Agent("p1", Utility.power(2.0), parse("2 * min(exp(x), 1)")),
        Agent("p2", Utility.exponential(1.5), parse("2 - 2 * min(exp(x), 1)")),
    )
    return Economy(agents, BAND, grid)


IDENTITY_ECONOMIES = {
    "example": example_economy,
    "symmetric": symmetric_economy,
    "linear-split": linear_split_economy,
    "three-agent": three_agent_economy,
    "unequal-utility": unequal_utility_economy,
}

# the verdict read off the endowments against a march of the net trades: at
# most 2.5e-16 apart on these economies and 3.0e-16 on these probe samples
# (9.9e-16 over 200-sample probes of the example economy at nx = 401)
IDENTITY_BOUND = 1e-15


def assert_gaps_match_marched_trades(result: EquilibriumResult, tol: float = 1e-3):
    """check_implementability against mean_ambiguity_gap of result.trades:
    upper(shadow (p - e)) = shadow (p - lower(e)) by translation and positive
    homogeneity, so gap(trade) = shadow gap(e), up to rounding."""
    verdict = check_implementability(result, tol)
    economy = result.economy
    marched = mean_ambiguity_gap(result.trades, economy.bounds, economy.grid, tol)
    for field in ("upper", "lower", "gap"):
        got = np.array([getattr(v, field) for v in verdict.agents])
        assert np.max(np.abs(got - getattr(marched, field))) <= IDENTITY_BOUND, field
    assert [v.mean_af for v in verdict.agents] == marched.mean_af.tolist()
    return verdict


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("name", IDENTITY_ECONOMIES)
def test_gaps_from_endowments_match_marched_trades(name, sigma):
    res = solve_equilibrium(IDENTITY_ECONOMIES[name](grid=GRID), PriorSpec.constant(sigma))
    assert_gaps_match_marched_trades(res)


@pytest.mark.parametrize("family, seed", [("bump", 3), ("ramp", 5)])
def test_probe_samples_match_marched_trades(family, seed):
    """The same identity on the probe's samples, rebuilt from their draws."""
    econ = example_economy(grid=PROBE_GRID)
    probe = genericity_probe(econ, 10, Perturbation(family, 0.1), seed)
    e_total = float(np.mean(econ.aggregate))
    a1, a2 = econ.agents
    for sample in probe.samples:
        e1 = clamped_share(e_total, 0.1, tilt_expr(family, sample.center, sample.width))
        e2 = BinOp("-", Lit(e_total), e1)
        perturbed = Economy((Agent("a1", a1.utility, e1), Agent("a2", a2.utility, e2)), BAND, econ.grid)
        verdict = assert_gaps_match_marched_trades(solve_equilibrium(perturbed, PRIOR1))
        assert verdict.implementable == sample.implementable


# ---------------------------------------------------------------------------
# two agents: one march of the first agent's endowments gives both verdicts


def both_endowments_marched(endowments, prices, shadow, bounds, grid, tol=1e-3):
    """Reference verdict: every agent's endowments marched, as an economy of
    three or more agents has them."""
    s, n, nx = endowments.shape
    res = mean_ambiguity_gap(endowments.reshape(s * n, nx), bounds, grid, tol)
    upper = shadow[:, None] * (prices - res.lower.reshape(s, n))
    lower = shadow[:, None] * (prices - res.upper.reshape(s, n))
    return upper, lower, upper - lower, upper - lower <= tol


def solved_args(result: EquilibriumResult) -> tuple:
    """`implementability`'s arguments for one solved economy."""
    economy = result.economy
    return (
        economy.endowment_values[None], result.consumption[None], np.array([result.shadow]),
        economy.bounds, economy.grid,
    )


def largest_moves(got, args) -> dict:
    """The largest move of each field of `implementability`'s result from a
    march of every endowment, after checking that no verdict flips."""
    upper, lower, gap, mean_af = both_endowments_marched(*args)
    assert got.mean_af.tolist() == mean_af.tolist()
    ref = {"upper": upper, "lower": lower, "gap": gap}
    return {field: np.max(np.abs(getattr(got, field) - ref[field])) for field in ref}


@pytest.mark.parametrize("n_agents", [2, 3])
def test_two_agents_march_one_row_per_economy(monkeypatch, n_agents):
    """s two-agent economies march s rows, s economies of n >= 3 agents n s."""
    econ = example_economy(grid=PROBE_GRID) if n_agents == 2 else three_agent_economy(PROBE_GRID)
    s = 4
    endowments = np.stack([(1.0 + 0.25 * i) * econ.endowment_values for i in range(s)])
    prices, shadow = np.ones((s, n_agents)), np.ones(s)
    calls = counting_marches(monkeypatch)
    res = implementability.implementability(endowments, prices, shadow, BAND, PROBE_GRID, 1e-3)
    assert calls == [(s if n_agents == 2 else n_agents * s, PROBE_GRID.nx)]
    assert all(field.shape == (s, n_agents) for field in res)


@pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
@pytest.mark.parametrize("name", [name for name in IDENTITY_ECONOMIES if name != "three-agent"])
def test_two_agent_route_matches_marching_both_endowments(name, sigma):
    res = solve_equilibrium(IDENTITY_ECONOMIES[name](grid=GRID), PriorSpec.constant(sigma))
    assert res.economy.n_agents == 2
    args = solved_args(res)
    moves = largest_moves(implementability.implementability(*args, 1e-3), args)
    assert max(moves.values()) <= IDENTITY_BOUND, moves


@pytest.mark.parametrize("family", ["bump", "ramp"])
def test_two_agent_route_on_probe_samples(monkeypatch, family):
    """The same bound on every sample of a 200-sample probe at nx = 401, read
    from the arguments and the result of the probe's own call."""
    seen = []
    route = implementability.implementability

    def recording(*args):
        seen.append((args, route(*args)))
        return seen[-1][1]

    monkeypatch.setattr(implementability, "implementability", recording)
    probe = genericity_probe(example_economy(grid=GRID), 200, Perturbation(family, 0.1), seed=42)
    ((args, got),) = seen
    assert probe.n_solved == len(args[0]) == 200
    moves = largest_moves(got, args[:-1])
    assert max(moves["upper"], moves["lower"]) <= IDENTITY_BOUND, moves
    # a gap is the difference of an upper and a lower within the bound each.
    # Measured: 9.99e-16 (bump) and 1.11e-15 (ramp), since the reference's
    # own gap of agent 2 misses its gap of agent 1, equal in exact
    # arithmetic, by as much
    assert moves["gap"] <= 2 * IDENTITY_BOUND, moves


def test_nearly_flat_aggregate_moves_by_its_spread():
    """An aggregate flat only within constant_aggregate's 1e-10 * scale: the
    march is monotone, so agent 2's upper and lower move from a march of its
    own endowment by at most the aggregate's spread (times the shadow value,
    in trade units) plus rounding."""
    agents = (
        Agent("a1", Utility.log(), parse("min(exp(x), 1)")),
        Agent("a2", Utility.log(), parse("1 - min(exp(x), 1) + 9e-11 * exp(-x^2)")),
    )
    econ = Economy(agents, BAND, GRID)
    assert econ.constant_aggregate
    spread = float(np.ptp(econ.aggregate))
    res = solve_equilibrium(econ, PRIOR1)
    args = solved_args(res)
    moves = largest_moves(implementability.implementability(*args, 1e-3), args)
    # measured: 3.7e-11 against a spread of 9.0e-11
    move = max(moves["upper"], moves["lower"])
    assert 1e-12 < move <= res.shadow * spread + 1e-15, (moves, spread)
