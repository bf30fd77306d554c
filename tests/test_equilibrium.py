import warnings

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
    allocation_field,
    budget_excess,
    expectation,
    full_insurance_check,
    inverse_marginal,
    solve_equilibrium,
)
from knightian.config import Tolerances
from knightian.equilibrium import ConvergenceError
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
        with pytest.raises(ValueError):
            Utility.power(2.0).value(-1.0)

    def test_concavity_spot_checks(self):
        for u in (Utility.log(), Utility.power(2.0), Utility.exponential(1.0)):
            xs = np.linspace(0.2, 3.0, 20)
            m = u.marginal(xs)
            assert np.all(np.diff(m) < 0)  # marginal strictly decreasing


class TestInverseMarginal:
    def test_log(self):
        assert inverse_marginal(Utility.log(), 4.0) == 0.25

    def test_power(self):
        assert inverse_marginal(Utility.power(2.0), 4.0) == 0.5
        u = Utility.power(3.0)
        c = inverse_marginal(u, 0.7)
        assert u.marginal(c) == pytest.approx(0.7, rel=1e-14)

    def test_exp_domain(self):
        u = Utility.exponential(1.0)
        assert inverse_marginal(u, 0.5) == pytest.approx(np.log(2.0), rel=1e-14)
        with pytest.raises(ValueError):
            inverse_marginal(u, 1.0)
        with pytest.raises(ValueError):
            inverse_marginal(u, np.e)

    def test_positive_argument_required(self):
        with pytest.raises(ValueError):
            inverse_marginal(Utility.log(), 0.0)
        with pytest.raises(ValueError):
            inverse_marginal(Utility.log(), -1.0)

    def test_vectorized(self):
        ys = np.array([0.5, 1.0, 2.0])
        out = inverse_marginal(Utility.log(), ys)
        assert np.array_equal(out, 1.0 / ys)


# allocation_field never marches, so a few nodes and one time step suffice
FLAT_GRID = GridSpec(-1.0, 1.0, 5, 1)


def _flat_economy(utilities, total):
    """Agents with equal constant endowments summing to `total`."""
    share = Lit(total / len(utilities))
    agents = tuple(Agent(f"u{i}", u, share) for i, u in enumerate(utilities))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the exp-utility notice
        return Economy(agents, BAND, FLAT_GRID)


class TestEfficientAllocation:
    """Planner allocation of a constant aggregate through allocation_field."""

    def test_log_agents_share_by_weight(self):
        alloc = allocation_field([0.3, 0.7], _flat_economy([Utility.log()] * 2, 1.0))
        assert alloc.consumption[:, 0] == pytest.approx([0.3, 0.7], abs=1e-12)
        assert np.max(np.abs(alloc.shadow - 1.0)) < 1e-12

    def test_log_agents_scale(self):
        alloc = allocation_field([0.5, 0.5], _flat_economy([Utility.log()] * 2, 4.0))
        assert np.max(np.abs(alloc.consumption - 2.0)) < 1e-11
        assert np.max(np.abs(alloc.shadow - 0.25)) < 1e-12

    def test_power_agents(self):
        alloc = allocation_field([0.5, 0.5], _flat_economy([Utility.power(2.0)] * 2, 2.0))
        assert np.max(np.abs(alloc.consumption - 1.0)) < 1e-11
        assert np.max(np.abs(alloc.shadow - 0.5)) < 1e-11

    def test_first_order_condition_mixed(self):
        utils = [Utility.log(), Utility.power(3.0), Utility.exponential(0.5)]
        alpha = np.array([0.2, 0.5, 0.3])
        alloc = allocation_field(alpha, _flat_economy(utils, 2.5))
        assert np.max(np.abs(alloc.consumption.sum(axis=0) - 2.5)) < 1e-9
        for i, u in enumerate(utils):
            weighted = alpha[i] * u.marginal(alloc.consumption[i])
            assert weighted == pytest.approx(alloc.shadow, rel=1e-9)

    def test_weight_scale_consistency(self):
        econ = _flat_economy([Utility.log(), Utility.power(2.0)], 1.5)
        alpha = np.array([0.4, 0.6])
        a1 = allocation_field(alpha, econ)
        a2 = allocation_field(2.0 * alpha, econ)
        assert a2.consumption == pytest.approx(a1.consumption, rel=1e-10)
        assert a2.shadow == pytest.approx(2.0 * a1.shadow, rel=1e-10)

    def test_exp_unattainable_total(self):
        # with lopsided weights the exp marginal range caps total consumption
        econ = _flat_economy([Utility.exponential(1.0)] * 2, 1.0)
        with pytest.raises(ConvergenceError):
            allocation_field([1e-9, 1.0 - 1e-9], econ)


class TestAllocationField:
    def test_log_unit_endowment_shadow_one(self):
        econ = symmetric_economy(grid=GRID)
        alloc = allocation_field([0.5, 0.5], econ)
        assert np.max(np.abs(alloc.shadow - 1.0)) < 1e-12
        assert np.max(np.abs(alloc.consumption - 0.5)) < 1e-12

    def test_power_two_closed_form(self):
        # two power-2 agents on unit endowment: c_i = sqrt(a_i)/sum sqrt(a),
        # shadow = (sum sqrt(a))^2
        agents = (
            Agent("p", Utility.power(2.0), parse("0.5")),
            Agent("q", Utility.power(2.0), parse("0.5")),
        )
        econ = Economy(agents, BAND, GRID)
        alpha = np.array([0.36, 0.64])
        alloc = allocation_field(alpha, econ)
        s = np.sqrt(alpha).sum()
        assert np.max(np.abs(alloc.consumption[0] - 0.6 / s)) < 1e-10
        assert np.max(np.abs(alloc.shadow - s**2)) < 1e-10

    def test_nonconstant_aggregate_warns_and_is_monotone(self):
        agents = (
            Agent("a", Utility.log(), parse("1 + exp(tanh(x))")),
            Agent("b", Utility.log(), parse("0.5")),
        )
        econ = Economy(agents, BAND, GRID)
        assert not econ.constant_aggregate
        with pytest.warns(UserWarning):
            alloc = allocation_field([0.5, 0.5], econ)
        # consumption shares move with the aggregate
        order = np.argsort(econ.aggregate)
        assert np.all(np.diff(alloc.consumption[0][order]) > -1e-12)

    def test_weight_count_checked(self):
        with pytest.raises(ValueError):
            allocation_field([1.0], _example())


class TestBudgetExcess:
    def test_symmetric_zero(self):
        econ = symmetric_economy(grid=GRID)
        F = budget_excess([0.5, 0.5], econ, PRIOR1)
        assert np.max(np.abs(F)) < 1e-12

    def test_walras_law(self):
        F = budget_excess([0.5, 0.5], _example(), PRIOR1)
        assert abs(F.sum()) < 1e-12

    def test_example_at_closed_form_weights(self):
        c_star = capped_exp_value(1.0)
        F = budget_excess([c_star, 1.0 - c_star], _example(), PRIOR1)
        assert np.max(np.abs(F)) < 2e-4

    def test_example_at_even_weights(self):
        F = budget_excess([0.5, 0.5], _example(), PRIOR1)
        assert F[0] == pytest.approx(0.5 - capped_exp_value(1.0), abs=2e-4)

    def test_prior_must_sit_in_band(self):
        with pytest.raises(ValueError):
            budget_excess([0.5, 0.5], _example(), PriorSpec.constant(2.0))


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
        res = solve_equilibrium(_example(), PRIOR1)
        assert float(res.allocations[0][0]) == pytest.approx(capped_exp_value(1.0), abs=5e-4)
        assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert full_insurance_check(res) < 1e-8
        assert np.max(np.abs(res.budget_residual)) < 1e-8

    def test_example_prior_low_differs(self):
        res1 = solve_equilibrium(_example(), PRIOR1)
        res5 = solve_equilibrium(_example(), PRIOR5)
        c1 = float(res1.allocations[0][0])
        c5 = float(res5.allocations[0][0])
        assert c5 == pytest.approx(capped_exp_value(0.5), abs=5e-4)
        # indeterminacy: different priors support materially different allocations
        assert abs(c5 - c1) > 10 * 1e-10
        assert abs(c5 - c1) == pytest.approx(0.088, abs=0.01)

    def test_symmetric_economy_splits_evenly(self):
        res = solve_equilibrium(symmetric_economy(grid=GRID), PRIOR1)
        assert res.alpha == pytest.approx([0.5, 0.5], abs=1e-9)
        assert np.max(np.abs(res.allocations - 0.5)) < 1e-9

    def test_three_agent_log_consumes_endowment_prices(self):
        econ = _three_agent_economy([Utility.log()] * 3)
        assert econ.constant_aggregate
        res = solve_equilibrium(econ, PRIOR1)
        # log agents with unit aggregate consume their endowment's price
        for i, agent in enumerate(econ.agents):
            price = expectation(agent.endowment, BAND, GRID, Mode.fixed(1.0))
            assert float(res.allocations[i][0]) == pytest.approx(price, abs=1e-12)
        assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("prior", [PRIOR5, PRIOR1], ids=["sigma0.5", "sigma1.0"])
    def test_three_agent_power_exp_power(self, prior):
        # power and exp agents sharing an interior equilibrium
        with pytest.warns(UserWarning):
            econ = _three_agent_economy(
                [Utility.power(2.0), Utility.exponential(0.7), Utility.power(0.5)]
            )
        res = solve_equilibrium(econ, prior)
        c = res.allocations[:, 0]
        for i, agent in enumerate(econ.agents):
            price = expectation(agent.endowment, BAND, GRID, prior.mode())
            assert c[i] == pytest.approx(price, abs=1e-12)
        weighted = [res.alpha[i] * a.utility.marginal(c[i]) for i, a in enumerate(econ.agents)]
        assert weighted == pytest.approx([res.shadow[0]] * 3, rel=1e-12)
        assert np.all(res.alpha > 0.0)
        assert full_insurance_check(res) < 1e-12
        assert np.max(np.abs(res.budget_residual)) <= Tolerances().equilibrium

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
        with pytest.warns(UserWarning):
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
        assert np.max(np.abs(res.allocations - 0.5)) < 1e-8


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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the exp-utility notice
        return Economy(tuple(agents), BAND, PROPERTY_GRID)


@settings(max_examples=30, deadline=None, database=None)
@given(econ=constant_aggregate_economies(), sigma=st.sampled_from([0.5, 0.75, 1.0]))
def test_closed_form_equilibrium_properties(econ, sigma):
    assert econ.constant_aggregate
    prior = PriorSpec.constant(sigma)
    res = solve_equilibrium(econ, prior)
    assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)
    c = res.allocations[:, 0]
    weighted = [res.alpha[i] * a.utility.marginal(c[i]) for i, a in enumerate(econ.agents)]
    assert weighted == pytest.approx([weighted[0]] * econ.n_agents, rel=1e-10)
    for i, agent in enumerate(econ.agents):
        price = expectation(agent.endowment, BAND, PROPERTY_GRID, prior.mode())
        assert c[i] == pytest.approx(price, rel=1e-12, abs=1e-12)
    assert full_insurance_check(res) < 1e-12
    assert np.max(np.abs(res.budget_residual)) <= Tolerances().equilibrium
