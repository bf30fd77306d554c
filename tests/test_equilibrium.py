import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightian import (
    Agent,
    Economy,
    GridSpec,
    NegishiError,
    NonConstantEndowmentError,
    PriorSpec,
    Utility,
    expectation,
    solve_equilibrium,
)
from knightian.config import Tolerances
from knightian import gexp
from knightian.gexp import Mode
from knightian.dsl import BinOp, Call, Lit, Var, parse

from helpers import BAND, capped_exp_value, example_economy, symmetric_economy

PRIOR1 = PriorSpec.constant(1.0)
PRIOR5 = PriorSpec.constant(0.5)

GRID = GridSpec(-6.0, 6.0, 401, 800)


def _example(grid=GRID):
    return example_economy(grid=grid)


class TestUtility:
    def test_factories_validate(self):
        with pytest.raises(ValueError):
            Utility.power(0.0)
        with pytest.raises(ValueError):
            Utility.power(1.0)
        with pytest.raises(ValueError):
            Utility.exponential(-2.0)
        with pytest.raises(ValueError):
            Utility("quadratic")

    def test_marginal_positive_domain(self):
        with pytest.raises(ValueError):
            Utility.log().marginal(0.0)

    def test_concavity_spot_checks(self):
        for u in (Utility.log(), Utility.power(2.0), Utility.exponential(1.0)):
            xs = np.linspace(0.2, 3.0, 20)
            m = u.marginal(xs)
            assert np.all(np.diff(m) < 0)  # marginal strictly decreasing


# constant endowments price to themselves on any grid, so a few nodes and
# one time step suffice
FLAT_GRID = GridSpec(-1.0, 1.0, 5, 1)


def _flat_economy(shares, utilities):
    """Agents holding the given constant endowments."""
    agents = tuple(Agent(f"u{i}", u, Lit(s)) for i, (s, u) in enumerate(zip(shares, utilities)))
    return Economy(agents, BAND, FLAT_GRID)


class TestInverseMarginal:
    """Equilibrium consumption inverts marginal utility: u_i'(c_i) = shadow / alpha_i."""

    def test_log(self):
        res = solve_equilibrium(_flat_economy([0.25, 0.75], [Utility.log()] * 2), PRIOR1)
        assert res.consumption == pytest.approx(res.alpha / res.shadow, rel=1e-15)

    def test_power(self):
        utils = [Utility.power(2.0), Utility.power(3.0)]
        res = solve_equilibrium(_flat_economy([0.4, 0.6], utils), PRIOR1)
        for i, u in enumerate(utils):
            inverse = (res.shadow / res.alpha[i]) ** (-1.0 / u.gamma)
            assert res.consumption[i] == pytest.approx(inverse, rel=1e-14)

    def test_exp_domain(self):
        utils = [Utility.exponential(1.0), Utility.exponential(2.0)]
        res = solve_equilibrium(_flat_economy([0.3, 0.7], utils), PRIOR1)
        y = res.shadow / res.alpha
        # exp marginal utility stays inside (0, 1) on positive consumption
        assert np.all((0.0 < y) & (y < 1.0))
        assert res.consumption == pytest.approx(-np.log(y) / np.array([1.0, 2.0]), rel=1e-14)

    def test_positive_argument_required(self):
        # an endowment worth nothing leaves no marginal utility to invert
        agents = (Agent("zero", Utility.log(), parse("0")), Agent("all", Utility.log(), parse("1")))
        with pytest.raises(NegishiError, match="no positive price"):
            solve_equilibrium(Economy(agents, BAND, FLAT_GRID), PRIOR1)

    def test_vectorized(self):
        utils = [
            Utility.log(),
            Utility.power(0.5),
            Utility.power(2.0),
            Utility.exponential(0.5),
            Utility.log(),
        ]
        res = solve_equilibrium(_flat_economy([0.1, 0.15, 0.2, 0.25, 0.3], utils), PRIOR1)
        # the closed form is one scalar per agent and one shadow value
        assert res.alpha.shape == res.consumption.shape == (5,)
        assert isinstance(res.shadow, float)
        weighted = res.alpha * [u.marginal(c) for u, c in zip(utils, res.consumption)]
        assert weighted == pytest.approx([res.shadow] * 5, rel=1e-14)


class TestEfficientAllocation:
    """Full-insurance allocations of flat-endowment economies."""

    def test_log_agents_share_by_weight(self):
        res = solve_equilibrium(_flat_economy([0.3, 0.7], [Utility.log()] * 2), PRIOR1)
        assert res.alpha == pytest.approx([0.3, 0.7], abs=1e-12)
        assert res.consumption == pytest.approx([0.3, 0.7], abs=1e-12)
        assert res.shadow == pytest.approx(1.0, abs=1e-12)

    def test_log_agents_scale(self):
        res = solve_equilibrium(_flat_economy([2.0, 2.0], [Utility.log()] * 2), PRIOR1)
        assert np.max(np.abs(res.consumption - 2.0)) < 1e-12
        assert res.shadow == pytest.approx(0.25, abs=1e-12)

    def test_power_agents(self):
        res = solve_equilibrium(_flat_economy([1.0, 1.0], [Utility.power(2.0)] * 2), PRIOR1)
        assert np.max(np.abs(res.consumption - 1.0)) < 1e-12
        assert res.shadow == pytest.approx(0.5, abs=1e-12)

    def test_first_order_condition_mixed(self):
        utils = [Utility.log(), Utility.power(3.0), Utility.exponential(0.5)]
        econ = _flat_economy([0.5, 1.0, 1.0], utils)
        res = solve_equilibrium(econ, PRIOR1)
        assert res.clearing < 1e-12
        for i, u in enumerate(utils):
            weighted = res.alpha[i] * u.marginal(res.consumption[i])
            assert weighted == pytest.approx(res.shadow, rel=1e-12)


class TestAllocationField:
    def test_log_unit_endowment_shadow_one(self):
        res = solve_equilibrium(symmetric_economy(grid=GRID), PRIOR1)
        assert res.shadow == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(res.consumption - 0.5)) < 1e-12

    def test_power_two_closed_form(self):
        # two power-2 agents on unit endowment: c_i = sqrt(a_i)/sum sqrt(a),
        # shadow = (sum sqrt(a))^2
        agents = (
            Agent("p", Utility.power(2.0), parse("0.6")),
            Agent("q", Utility.power(2.0), parse("0.4")),
        )
        res = solve_equilibrium(Economy(agents, BAND, GRID), PRIOR1)
        s = np.sqrt(res.alpha).sum()
        assert res.consumption == pytest.approx(np.sqrt(res.alpha) / s, abs=1e-12)
        assert res.shadow == pytest.approx(s**2, rel=1e-12)


class TestBudgetExcess:
    """The PDE-priced budget surplus each solve reports."""

    def test_symmetric_zero(self):
        res = solve_equilibrium(symmetric_economy(grid=GRID), PRIOR1)
        assert np.max(np.abs(res.budget_residual)) < 1e-12

    def test_walras_law(self):
        res = solve_equilibrium(_example(), PRIOR1)
        assert abs(res.budget_residual.sum()) < 1e-12

    def test_example_at_closed_form_weights(self):
        # log agents on a unit aggregate: weights equal the endowment prices
        res = solve_equilibrium(_example(), PRIOR1)
        c_star = capped_exp_value(1.0)
        assert res.alpha == pytest.approx([c_star, 1.0 - c_star], abs=2e-4)
        assert np.max(np.abs(res.budget_residual)) < 1e-12

    def test_prior_must_sit_in_band(self):
        with pytest.raises(ValueError):
            solve_equilibrium(_example(), PriorSpec.constant(2.0))


def _three_agent_economy(utilities):
    endowments = (
        "0.5 * min(exp(x), 1)",
        "0.2 + 0.25*(1 - min(exp(x), 1))",
        "0.3 + 0.25*(1 - min(exp(x), 1))",
    )
    agents = tuple(
        Agent(name, u, parse(e)) for name, u, e in zip("abc", utilities, endowments)
    )
    return Economy(agents, BAND, GRID)


class TestSolveEquilibrium:
    def test_example_prior_high(self):
        econ = _example()
        res = solve_equilibrium(econ, PRIOR1)
        assert float(res.consumption[0]) == pytest.approx(capped_exp_value(1.0), abs=5e-4)
        assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert res.clearing < 1e-8
        assert np.max(np.abs(res.budget_residual)) < 1e-8

    def test_example_prior_low_differs(self):
        res1 = solve_equilibrium(_example(), PRIOR1)
        res5 = solve_equilibrium(_example(), PRIOR5)
        c1 = float(res1.consumption[0])
        c5 = float(res5.consumption[0])
        assert c5 == pytest.approx(capped_exp_value(0.5), abs=5e-4)
        # indeterminacy: different priors support materially different allocations
        assert abs(c5 - c1) > 10 * 1e-10
        assert abs(c5 - c1) == pytest.approx(0.088, abs=0.01)

    def test_symmetric_economy_splits_evenly(self):
        res = solve_equilibrium(symmetric_economy(grid=GRID), PRIOR1)
        assert res.alpha == pytest.approx([0.5, 0.5], abs=1e-9)
        assert np.max(np.abs(res.consumption - 0.5)) < 1e-9

    def test_three_agent_log_consumes_endowment_prices(self):
        econ = _three_agent_economy([Utility.log()] * 3)
        assert econ.constant_aggregate
        res = solve_equilibrium(econ, PRIOR1)
        # log agents with unit aggregate consume their endowment's price
        for i, agent in enumerate(econ.agents):
            price = expectation(agent.endowment, BAND, GRID, Mode.fixed(1.0))
            assert float(res.consumption[i]) == pytest.approx(price, abs=1e-12)
        assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("prior", [PRIOR5, PRIOR1], ids=["sigma0.5", "sigma1.0"])
    def test_three_agent_power_exp_power(self, prior):
        # power and exp agents sharing an interior equilibrium
        econ = _three_agent_economy(
            [Utility.power(2.0), Utility.exponential(0.7), Utility.power(0.5)]
        )
        res = solve_equilibrium(econ, prior)
        c = res.consumption
        for i, agent in enumerate(econ.agents):
            price = expectation(agent.endowment, BAND, GRID, Mode.fixed(prior.sigma))
            assert c[i] == pytest.approx(price, abs=1e-12)
        weighted = [res.alpha[i] * a.utility.marginal(c[i]) for i, a in enumerate(econ.agents)]
        assert weighted == pytest.approx([res.shadow] * 3, rel=1e-12)
        assert np.all(res.alpha > 0.0)
        assert res.clearing < 1e-12
        assert np.max(np.abs(res.budget_residual)) <= Tolerances().equilibrium

    @pytest.mark.parametrize("prior", [PRIOR5, PRIOR1], ids=["sigma0.5", "sigma1.0"])
    def test_result_carries_economy_trades_and_clearing(self, prior):
        econ = _three_agent_economy(
            [Utility.power(2.0), Utility.exponential(0.7), Utility.power(0.5)]
        )
        res = solve_equilibrium(econ, prior)
        assert res.economy is econ
        assert res.trades.shape == (econ.n_agents, GRID.nx)
        # the gap the solver checked is the largest miss of the aggregate
        expect = np.max(np.abs(res.consumption.sum() - econ.aggregate))
        assert res.clearing == float(expect)

    def test_nonconstant_aggregate_rejected(self):
        agents = (
            Agent("a", Utility.log(), parse("1 + exp(tanh(x))")),
            Agent("b", Utility.log(), parse("0.5")),
        )
        econ = Economy(agents, BAND, GRID)
        with pytest.raises(NonConstantEndowmentError):
            solve_equilibrium(econ, PRIOR1)

    def test_boundary_attraction_detected(self):
        agents = (
            Agent("tiny", Utility.log(), parse("0.0000000001")),
            Agent("big", Utility.log(), parse("1 - 0.0000000001")),
        )
        econ = Economy(agents, BAND, GRID)
        with pytest.raises(NegishiError):
            solve_equilibrium(econ, PRIOR1)

    def test_budget_tolerance_bounds_cross_check(self):
        res = solve_equilibrium(_example(), PRIOR1)
        worst = float(np.max(np.abs(res.budget_residual)))
        assert 0.0 < worst <= Tolerances().equilibrium
        with pytest.raises(NegishiError, match="PDE budget check"):
            solve_equilibrium(_example(), PRIOR1, budget_tol=worst / 2.0)

    def test_exp_agents_symmetric(self):
        econ = Economy(
            (
                Agent("a", Utility.exponential(1.0), parse("0.5")),
                Agent("b", Utility.exponential(1.0), parse("0.5")),
            ),
            BAND,
            GRID,
        )
        res = solve_equilibrium(econ, PRIOR1)
        assert res.alpha == pytest.approx([0.5, 0.5], abs=1e-9)
        assert np.max(np.abs(res.consumption - 0.5)) < 1e-8

    def test_underflowing_marginal_utility_at_boundary(self):
        # exp(-2000 c) is 0.0 at the endowment prices, so 1 / u'(p) is infinite
        # and the weights are not finite: the boundary check rejects them
        econ = Economy(
            (
                Agent("a", Utility.exponential(2000.0), parse("min(exp(x), 1)")),
                Agent("b", Utility.exponential(2000.0), parse("1 - min(exp(x), 1)")),
            ),
            BAND,
            GridSpec(-6.0, 6.0, 101, 50),
        )
        with pytest.raises(NegishiError, match="simplex boundary"):
            solve_equilibrium(econ, PRIOR1)

    def test_prices_that_do_not_clear_rejected(self, monkeypatch):
        priced = gexp._priced

        def shifted(*args, **kwargs):
            return priced(*args, **kwargs) + 1e-6

        monkeypatch.setattr(gexp, "_priced", shifted)
        with pytest.raises(NegishiError, match="do not clear"):
            solve_equilibrium(_example(), PRIOR1)


class TestEconomyValidation:
    def test_negative_endowment_rejected(self):
        agents = (
            Agent("a", Utility.log(), parse("x")),
            Agent("b", Utility.log(), parse("1 - x")),
        )
        with pytest.raises(ValueError):
            Economy(agents, BAND, GRID)

    def test_duplicate_names_rejected(self):
        agents = (
            Agent("a", Utility.log(), parse("0.5")),
            Agent("a", Utility.log(), parse("0.5")),
        )
        with pytest.raises(ValueError):
            Economy(agents, BAND, GRID)

    def test_kink_endowment_touching_zero_accepted(self):
        econ = _example()
        assert econ.constant_aggregate
        assert np.min(econ.endowment_values[1]) == 0.0


PROPERTY_GRID = GridSpec(-4.0, 4.0, 41, 40)
KINK = Call("min", (Call("exp", (Var(),)), Lit(1.0)))
UTILITIES = st.one_of(
    st.just(Utility.log()),
    st.floats(0.3, 4.0).filter(lambda g: abs(g - 1.0) > 1e-3).map(Utility.power),
    st.floats(0.2, 3.0).map(Utility.exponential),
)


@st.composite
def constant_aggregate_economies(draw):
    """2-3 agents holding shares of a constant aggregate, each plus a zero-sum
    multiple of a kinked claim, with every endowment bounded away from zero."""
    n = draw(st.integers(2, 3))
    total = draw(st.floats(0.5, 2.0))
    raw = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n)))
    shares = raw / raw.sum()
    tilt = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    # |tilt_i - mean| <= 2, so each coefficient stays below half the smallest share
    coef = 0.25 * shares.min() * (tilt - tilt.mean())
    agents = []
    for i in range(n):
        level = Lit(float(total * (shares[i] - 0.5 * coef[i])))
        endowment = BinOp("+", level, BinOp("*", Lit(float(total * coef[i])), KINK))
        agents.append(Agent(f"h{i}", draw(UTILITIES), endowment))
    return Economy(tuple(agents), BAND, PROPERTY_GRID)


@settings(max_examples=30)
@given(econ=constant_aggregate_economies(), sigma=st.sampled_from([0.5, 0.75, 1.0]))
def test_closed_form_equilibrium_properties(econ, sigma):
    assert econ.constant_aggregate
    prior = PriorSpec.constant(sigma)
    res = solve_equilibrium(econ, prior)
    assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)
    c = res.consumption
    weighted = [res.alpha[i] * a.utility.marginal(c[i]) for i, a in enumerate(econ.agents)]
    assert weighted == pytest.approx([weighted[0]] * econ.n_agents, rel=1e-10)
    for i, agent in enumerate(econ.agents):
        price = expectation(agent.endowment, BAND, PROPERTY_GRID, Mode.fixed(prior.sigma))
        assert c[i] == pytest.approx(price, rel=1e-12, abs=1e-12)
    assert res.clearing < 1e-12
    assert np.max(np.abs(res.budget_residual)) <= Tolerances().equilibrium
