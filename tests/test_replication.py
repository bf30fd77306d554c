import dataclasses
import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from knightian import gexp, replication
from knightian import (
    Agent,
    ControlSpec,
    Economy,
    GridFunction,
    GridSpec,
    HedgeField,
    Mode,
    PathBatch,
    PriorSpec,
    SimulationError,
    Tolerances,
    UPPER,
    Utility,
    VolBounds,
    exp_martingale_transform,
    expectation,
    hedge_field,
    replicate,
    simulate_paths,
    solve_equilibrium,
    solve_value_field,
    strategy_gains,
)
from knightian.cli import main
from knightian.config import ConfigError, McSpec
from knightian.dsl import evaluate, parse
from knightian.gexp import check_tolerance, layer_at_or_below
from knightian.implementability import Perturbation, genericity_probe

from helpers import BAND, example_economy, linear_split_economy, random_payoff

GRID = GridSpec(-6.0, 6.0, 401, 800)
SMALL = GridSpec(-4.0, 4.0, 41, 20)


@pytest.fixture(scope="module")
def example_hedge():
    return hedge_field(parse("min(exp(x), 1)"), BAND, GRID)


def whole_paths(paths):
    """b_0 .. b_T and sigma_0 .. sigma_{T-1} of every path, read off the
    chunked walk: shapes (n_paths, n_steps + 1) and (n_paths, n_steps)."""
    b = np.zeros((paths.n_paths, paths.n_steps + 1))
    sigmas = np.empty((paths.n_paths, paths.n_steps))
    for rows, steps in replication._walk(paths):
        for k, _bk, b_next, sig, _bracket in steps:
            b[rows, k + 1] = b_next
            sigmas[rows, k] = sig
    return b, sigmas


class TestHedgeField:
    def test_linear_payoff_delta_one(self):
        h = hedge_field(parse("x"), BAND, GRID)
        assert np.max(np.abs(h.eta.values - 1.0)) < 1e-9
        assert np.max(np.abs(h.phi_hat.values)) < 1e-8

    def test_quadratic_payoff_fields(self):
        # boundary rows are frozen, so edge error diffuses a little way in;
        # away from the edges the deltas match the smooth solution
        h = hedge_field(parse("x^2"), BAND, GRID)
        mid = slice(GRID.nx // 4, 3 * GRID.nx // 4)
        assert np.max(np.abs(h.eta.values[:, mid] - 2.0 * GRID.nodes[None, mid])) < 5e-3
        assert np.max(np.abs(h.phi_hat.values[:, mid] - 1.0)) < 5e-3

    def test_fields_are_views_of_the_table(self):
        # a hedge rebuilt from its table derives the same fields, over that table
        h = hedge_field(parse("min(exp(x), 1)"), BAND, SMALL)
        eta, phi = h.eta.table.copy(), h.phi_hat.table.copy()
        rebuilt = HedgeField(h.table, h.grid, h.bounds, h.upper_value)
        for derived, before in ((rebuilt.eta, eta), (rebuilt.phi_hat, phi)):
            assert np.shares_memory(derived.table, rebuilt.table)
            assert derived.grid == SMALL and derived.horizon == BAND.horizon
            assert derived.table.tobytes() == before.tobytes()

    def test_terminal_delta_of_kinked_payoff(self, example_hedge):
        eta_T = example_hedge.eta.values[-1]
        nodes = GRID.nodes
        left = nodes < -0.1
        right = nodes > 0.1
        assert np.max(np.abs(eta_T[left] - np.exp(nodes[left]))) < 1e-2
        assert np.max(np.abs(eta_T[right])) < 1e-12

    def test_sampling_conventions(self, example_hedge):
        gf = example_hedge.eta
        # scalar and vector queries agree
        v = gf.at(0.25, 0.3)
        vv = gf.at(0.25, np.array([0.3, -0.2]))
        assert v == vv[0]
        # time sampling takes the stored layer at or below t
        k = int(np.floor(0.25 / (BAND.horizon / GRID.nt) + 1e-9))
        expect = float(np.interp(0.3, GRID.nodes, gf.values[k]))
        assert v == expect


class TestSimulatePaths:
    def test_binary_increments_structure(self):
        p = simulate_paths(ControlSpec.constant(1.0), BAND, 64, 16, seed=1)
        b, sigmas = whole_paths(p)
        # steps of sigma * sqrt(dt) = 1/4 are dyadic, so every sum is exact
        assert b.shape == (64, 17)
        assert np.all(b[:, 0] == 0.0)
        assert np.all(np.abs(np.diff(b, axis=1)) == np.sqrt(BAND.horizon / 16))
        assert np.all(sigmas == 1.0)

    def test_gaussian_increments_moments(self):
        p = simulate_paths(
            ControlSpec.constant(0.5), BAND, 4000, 8, seed=2, increments="gaussian"
        )
        db = np.diff(whole_paths(p)[0], axis=1)
        sd = 0.5 * np.sqrt(BAND.horizon / 8)
        assert abs(db.mean()) < 4 * sd / np.sqrt(db.size)
        assert np.std(db) == pytest.approx(sd, rel=0.05)

    def test_deterministic_per_seed(self):
        a = simulate_paths(ControlSpec.constant(0.8), BAND, 16, 32, seed=9)
        b = simulate_paths(ControlSpec.constant(0.8), BAND, 16, 32, seed=9)
        c = simulate_paths(ControlSpec.constant(0.8), BAND, 16, 32, seed=10)
        assert np.array_equal(whole_paths(a)[0], whole_paths(b)[0])
        assert not np.array_equal(whole_paths(a)[0], whole_paths(c)[0])

    def test_path_substreams_stable_under_batch_growth(self):
        small = simulate_paths(ControlSpec.constant(0.8), BAND, 3, 32, seed=9)
        big = simulate_paths(ControlSpec.constant(0.8), BAND, 7, 32, seed=9)
        assert np.array_equal(whole_paths(small)[0], whole_paths(big)[0][:3])

    def test_constant_sigma_validated(self):
        with pytest.raises(ValueError):
            simulate_paths(ControlSpec.constant(2.0), BAND, 4, 4)
        with pytest.raises(ValueError):
            simulate_paths(ControlSpec.constant(0.5), BAND, 0, 4)

    def test_extremal_on_convex_payoff_pins_high_vol(self):
        h = hedge_field(parse("x^2"), BAND, GRID)
        p = simulate_paths(ControlSpec.extremal(h), BAND, 32, 16, seed=4)
        assert np.all(whole_paths(p)[1] == BAND.sigma_hi)
        # the curvature is positive, so a step at sigma_lo would accrue K
        rep = replicate(parse("x^2"), h, p)
        assert rep.n_excluded == 0
        assert np.all(rep.k_terminal == 0.0)

    def test_batch_and_control_are_frozen(self):
        # replicate trusts a batch's control and increments as they were checked
        p = simulate_paths(ControlSpec.constant(0.7), BAND, 50, 16, seed=1)
        for target, name, value in (
            (p, "control", ControlSpec.constant(5.0)),
            (p, "increments", "gaussian"),
            (p.control, "sigma", 5.0),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, value)
        assert p.control.sigma == 0.7 and p.increments == "binary"

    def test_extremal_needs_matching_bounds(self):
        h = hedge_field(parse("x^2"), BAND, GRID)
        other = VolBounds(0.4, 1.0, 1.0)
        with pytest.raises(ValueError):
            simulate_paths(ControlSpec.extremal(h), other, 4, 4)


class TestReplicate:
    def test_linear_payoff_exact(self):
        h = hedge_field(parse("x"), BAND, GRID)
        p = simulate_paths(ControlSpec.constant(1.0), BAND, 2000, 128, seed=3)
        rep = replicate(parse("x"), h, p)
        assert np.max(np.abs(rep.gaps)) < 1e-9
        assert np.max(np.abs(rep.k_terminal)) < 1e-10
        assert rep.min_k_increment >= 0.0

    def test_quadratic_under_worst_case_prior(self):
        # at sigma_hi the compensator of a convex payoff vanishes and with
        # binary increments the discrete gains telescope exactly
        h = hedge_field(parse("x^2"), BAND, GRID)
        p = simulate_paths(ControlSpec.constant(1.0), BAND, 500, 64, seed=8)
        rep = replicate(parse("x^2"), h, p)
        assert np.max(np.abs(rep.k_terminal)) < 1e-10
        assert abs(rep.mean_gap) < 1e-6

    def test_compensator_identity_moderate_batch(self, example_hedge):
        expr = parse("min(exp(x), 1)")
        p = simulate_paths(ControlSpec.constant(0.75), BAND, 20000, 256, seed=21)
        rep = replicate(expr, example_hedge, p)
        fixed = expectation(expr, BAND, GRID, Mode.fixed(0.75))
        target = rep.upper_value - fixed
        assert rep.mean_k == pytest.approx(target, abs=3 * rep.se_k + 5e-3)
        assert rep.min_k_increment >= 0.0

    def test_extremal_control_kills_compensator(self, example_hedge):
        p = simulate_paths(ControlSpec.extremal(example_hedge), BAND, 3000, 128, seed=13)
        rep = replicate(parse("min(exp(x), 1)"), example_hedge, p)
        assert np.max(np.abs(rep.k_terminal)) == 0.0
        assert abs(rep.mean_gap) < 3 * rep.se_gap + 2e-3

    def test_kink_payoff_nonnegative_increments(self, example_hedge):
        for sigma in (0.5, 1.0):
            p = simulate_paths(ControlSpec.constant(sigma), BAND, 1000, 64, seed=5)
            rep = replicate(parse("min(exp(x), 1)"), example_hedge, p)
            assert rep.min_k_increment >= 0.0

    def test_bounds_mismatch_rejected(self, example_hedge):
        other = VolBounds(0.4, 1.0, 1.0)
        p = simulate_paths(ControlSpec.constant(0.5), other, 8, 8)
        with pytest.raises(ValueError):
            replicate(parse("x"), example_hedge, p)

    def test_path_exclusion_counted(self):
        tight = GridSpec(-0.5, 0.5, 201, 800)
        h = hedge_field(parse("x"), BAND, tight)
        p = simulate_paths(ControlSpec.constant(1.0), BAND, 500, 64, seed=6)
        rep = replicate(parse("x"), h, p)
        assert rep.n_excluded > 0
        assert rep.gaps.size == 500 - rep.n_excluded

    def test_all_paths_excluded_raises(self):
        # every first step, of length 1/8, leaves the grid; m = 100 sub-steps
        tiny = GridSpec(-0.05, 0.05, 5, 16)
        h = hedge_field(parse("x"), BAND, tiny)
        p = simulate_paths(ControlSpec.constant(1.0), BAND, 50, 64, seed=6)
        with pytest.raises(SimulationError, match="every path left the grid"):
            replicate(parse("x"), h, p)

    @pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
    def test_numpy_seed_reports_as_its_int(self, kind):
        # the batch keeps the int its check returned, so the path keys are Python ints
        expr = parse("min(exp(x), 1)")
        h = hedge_field(expr, BAND, SMALL)
        plain, numpy = (
            replicate(expr, h, simulate_paths(ControlSpec.constant(0.7), BAND, 200, 16, seed=seed))
            for seed in (1, kind(1))
        )
        assert type(numpy.seed) is int
        for name in ("mean_k", "mean_gap", "se_gap"):
            assert np.array(getattr(plain, name)).tobytes() == np.array(getattr(numpy, name)).tobytes()

    def test_report_dict_serializable(self, example_hedge):
        import json

        p = simulate_paths(ControlSpec.constant(0.5), BAND, 100, 16, seed=1)
        rep = replicate(parse("min(exp(x), 1)"), example_hedge, p)
        payload = rep.to_dict()
        assert "gaps" not in payload
        json.dumps(payload)


class TestNetTradeReplication:
    def test_example_witness_gap(self, example_hedge):
        # the non-implementable net trade leaves a statistically significant
        # pure-trading shortfall equal to the compensator mean
        econ = example_economy(grid=GRID)
        res = solve_equilibrium(econ, PriorSpec.constant(1.0))
        trade = res.trades[0]
        from knightian.dsl import BinOp, Lit

        c0 = float(res.consumption[0])
        expr = BinOp("*", Lit(res.shadow), BinOp("-", Lit(c0), econ.agents[0].endowment))
        h = hedge_field(expr, BAND, GRID)
        p = simulate_paths(ControlSpec.constant(0.5), BAND, 20000, 256, seed=31)
        rep = replicate(expr, h, p)
        fixed = expectation(expr, BAND, GRID, Mode.fixed(0.5))
        target = rep.upper_value - fixed
        # sanity: the shortfall matches the PDE value difference, about 0.106
        assert target == pytest.approx(0.1061, abs=5e-3)
        pure = rep.gaps + rep.k_terminal
        se = float(np.std(pure, ddof=1) / np.sqrt(pure.size))
        assert pure.mean() == pytest.approx(target, abs=3 * se + 5e-3)
        assert pure.mean() > 5 * se
        # and the grid trade row is the expression evaluated on the nodes
        from knightian.dsl import evaluate

        assert np.max(np.abs(evaluate(expr, GRID.nodes) - trade)) < 1e-12

    def test_linear_split_mean_af_under_both_priors(self):
        econ = linear_split_economy(grid=GRID)
        res = solve_equilibrium(econ, PriorSpec.constant(1.0))
        from knightian.dsl import BinOp, Lit

        c0 = float(res.consumption[0])
        expr = BinOp("*", Lit(res.shadow), BinOp("-", Lit(c0), econ.agents[0].endowment))
        h = hedge_field(expr, BAND, GRID)
        for sigma in (0.5, 1.0):
            p = simulate_paths(ControlSpec.constant(sigma), BAND, 4000, 128, seed=17)
            rep = replicate(expr, h, p)
            pure = rep.gaps + rep.k_terminal
            se = float(np.std(pure, ddof=1) / np.sqrt(pure.size))
            assert abs(pure.mean()) < 3 * se + 1e-3

    def test_portfolio_deltas_clear(self):
        econ = linear_split_economy(grid=GRID)
        res = solve_equilibrium(econ, PriorSpec.constant(1.0))
        from knightian.dsl import BinOp, Lit

        hs = []
        for i in range(2):
            c0 = float(res.consumption[i])
            expr = BinOp(
                "*", Lit(res.shadow), BinOp("-", Lit(c0), econ.agents[i].endowment)
            )
            hs.append(hedge_field(expr, BAND, GRID))
        total = hs[0].eta.values + hs[1].eta.values
        interior = total[:, 1:-1]
        assert np.max(np.abs(interior)) < 1e-8


class TestTransform:
    def _paths(self):
        return simulate_paths(ControlSpec.constant(0.8), BAND, 800, 128, seed=12)

    def _loading(self, fn):
        t = np.linspace(0.0, BAND.horizon, GRID.nt + 1)
        vals = fn(t[:, None], GRID.nodes[None, :])
        return GridFunction.of(np.asarray(vals, dtype=float), GRID, BAND.horizon)

    def test_unit_loading_identity(self, example_hedge):
        load = self._loading(lambda t, x: np.ones_like(x + t))
        ts = exp_martingale_transform(example_hedge.eta, load, floor=1e-6)
        p = self._paths()
        g1 = strategy_gains(example_hedge.eta, p)
        g2 = strategy_gains(ts, p, loading=load)
        assert np.max(np.abs(g1 - g2)) < 1e-14

    def test_exponential_loading_reproduces_gains(self, example_hedge):
        load = self._loading(lambda t, x: np.exp(x - 0.5 * t))
        ts = exp_martingale_transform(example_hedge.eta, load, floor=1e-6)
        p = self._paths()
        g1 = strategy_gains(example_hedge.eta, p)
        g2 = strategy_gains(ts, p, loading=load)
        assert np.max(np.abs(g1 - g2)) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loading_rejected(self, example_hedge, bad):
        values = np.ones((GRID.nt + 1, GRID.nx))
        values[3, 7] = bad
        load = GridFunction.of(values, GRID, BAND.horizon)
        with pytest.raises(ValueError, match="not finite"):
            exp_martingale_transform(example_hedge.eta, load, floor=1e-6)

    def test_grid_mismatch_rejected(self, example_hedge):
        coarse = GridSpec(-6.0, 6.0, 201, 800)
        load = GridFunction.of(np.ones((coarse.nt + 1, coarse.nx)), coarse, BAND.horizon)
        with pytest.raises(ValueError, match="different grids"):
            exp_martingale_transform(example_hedge.eta, load)

    def test_horizon_mismatch_rejected(self, example_hedge):
        # fields over another horizon would be sampled at the wrong layers
        longer = VolBounds(0.5, 1.0, 2.0)
        other = hedge_field(parse("min(exp(x), 1)"), longer, GridSpec(-6, 6, 101, 100))
        p = simulate_paths(ControlSpec.constant(0.7), BAND, 50, 16, seed=1)
        long_load = GridFunction.of(np.ones((GRID.nt + 1, GRID.nx)), GRID, 2.0)
        cases = [
            (other.eta, None, "strategy horizon 2.0"),
            (exp_martingale_transform(long_load, long_load), None, "strategy horizon 2.0"),
            (example_hedge.eta, long_load, "loading horizon 2.0"),
        ]
        for strategy, loading, message in cases:
            with pytest.raises(ValueError, match=message):
                strategy_gains(strategy, p, loading=loading)

    def test_floor_violation_rejected(self, example_hedge):
        load = self._loading(lambda t, x: x + t * 0.0)  # crosses zero
        with pytest.raises(ValueError):
            exp_martingale_transform(example_hedge.eta, load, floor=1e-6)
        with pytest.raises(ValueError):
            exp_martingale_transform(example_hedge.eta, load, floor=-1.0)


def _paths_of(n_paths, seed, n_steps=16):
    return lambda: simulate_paths(ControlSpec.constant(0.7), BAND, n_paths, n_steps, seed=seed)


def _field_over(horizon):
    return lambda: GridFunction.of(np.zeros((GRID.nt + 1, GRID.nx)), GRID, horizon)


def _transform_floor(floor):
    def call():
        load = GridFunction.of(np.ones((SMALL.nt + 1, SMALL.nx)), SMALL, 1.0)
        return exp_martingale_transform(load, load, floor=floor)

    return call


def _batch(control=lambda: ControlSpec.constant(0.7), n_paths=50, increments="binary"):
    # the control is built inside the call, so a control that rejects itself is caught too
    return lambda: PathBatch(control(), BAND, n_paths, 16, 1, increments)


def _other_band_hedge():
    other = VolBounds(0.5, 0.8, 1.0)
    return ControlSpec.extremal(hedge_field(parse("x"), other, SMALL))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: expectation(parse("x"), BAND, GRID, ()), "at least one mode"),
        (_paths_of(50, 1.5), "seed must be an integer, got 1.5"),
        (_paths_of(50.0, 1), "paths must be an integer, got 50.0"),
        (_field_over(-1.0), "horizon must be finite and positive"),
        (_field_over(math.inf), "horizon must be finite and positive"),
        (
            _batch(lambda: ControlSpec.constant(5.0)),
            "constant control sigma 5.0 outside the band [0.5, 1.0]",
        ),
        (_batch(n_paths=0), "paths must be at least 1, got 0"),
        (_batch(lambda: ControlSpec("bogus")), "unknown control kind 'bogus'"),
        (_batch(increments="sobol"), "unknown increment kind 'sobol'"),
        (_batch(lambda: ControlSpec("constant")), "constant control needs a sigma"),
        (_batch(lambda: ControlSpec("extremal")), "extremal control needs a hedge field"),
        (_batch(_other_band_hedge), "hedge field was built for different bounds"),
        (
            _batch(lambda: ControlSpec("constant", sigma="0.7")),
            "control sigma must be a real number, got '0.7'",
        ),
        (
            _batch(lambda: ControlSpec("constant", sigma=True)),
            "control sigma must be a real number, got True",
        ),
        (
            _batch(lambda: ControlSpec.constant("0.7")),
            "control sigma must be a real number, got '0.7'",
        ),
        (
            _batch(lambda: ControlSpec.constant(True)),
            "control sigma must be a real number, got True",
        ),
        (lambda: Mode("fixed", "0.7"), "mode sigma must be a real number, got '0.7'"),
        (lambda: Mode.fixed("0.7"), "mode sigma must be a real number, got '0.7'"),
        (lambda: Mode.fixed(True), "mode sigma must be a real number, got True"),
        (
            _batch(lambda: ControlSpec("extremal", hedge=3)),
            "control hedge must be a HedgeField, got 3",
        ),
        (
            lambda: HedgeField(np.zeros((SMALL.nt + 1, SMALL.nx, 3)), SMALL, BAND, 0.0),
            "values of shape (21, 41, 3) do not fit a (21, 41, 2) grid",
        ),
        (lambda: VolBounds(True, 1.0, 1.0), "sigma_lo must be a real number, got True"),
        (lambda: VolBounds(0.5, 1.0, True), "horizon must be a real number, got True"),
        (lambda: GridSpec(-6.0, True, 11, 10), "x_max must be a real number, got True"),
        (lambda: PriorSpec(True), "prior sigma must be a real number, got True"),
        (lambda: Perturbation("bump", True), "amplitude must be a real number, got True"),
        (lambda: Tolerances(mean_af=True), "mean_af must be a real number, got True"),
        (
            lambda: gexp.tree_expectation(parse("x"), BAND, 4, UPPER, start=True),
            "start must be a real number, got True",
        ),
        (_field_over(True), "horizon must be a real number, got True"),
        (_transform_floor(True), "floor must be a real number, got True"),
        (lambda: VolBounds("0.5", 1.0, 1.0), "sigma_lo must be a real number, got '0.5'"),
        (lambda: PriorSpec("0.7"), "prior sigma must be a real number, got '0.7'"),
        (lambda: Utility("exp", a="1"), "a must be a real number, got '1'"),
        (lambda: Perturbation("bump", "0.1"), "amplitude must be a real number, got '0.1'"),
        (lambda: check_tolerance("tol", "0.1"), "tol must be a real number, got '0.1'"),
        (lambda: PriorSpec.constant("0.7"), "prior sigma must be a real number, got '0.7'"),
        (lambda: Utility.power("2"), "gamma must be a real number, got '2'"),
        (lambda: VolBounds(0.5, 10**400, 1.0), "sigma_hi lies past the float range"),
        (
            lambda: GridSpec(-6.0, 6.0, np.int64(3), np.int64(2**62)),
            "grid exceeds the memory budget",
        ),
        (_paths_of(10, 1, np.int64(2**61)), "steps exceed the per-chunk budget"),
        (lambda: Utility.exponential(math.inf), "exp utility needs a > 0"),
        (lambda: Utility.power(math.inf), "power utility needs gamma > 0, gamma != 1"),
        (lambda: Agent("", Utility.log(), parse("x")), "agent name must be a non-empty string"),
        (lambda: Agent("a", "log", parse("x")), "utility of 'a' must be a Utility, got 'log'"),
        (lambda: Agent("a", Utility.log(), "x"), "endowment of 'a' must be an Expr, got 'x'"),
        (
            lambda: Economy((("a", Utility.log(), parse("x")),), BAND, SMALL),
            "economy entries must be Agents",
        ),
    ],
    ids=[
        "no-modes", "fractional-seed", "float-paths", "negative-horizon", "infinite-horizon",
        "sigma-outside-band", "zero-paths", "unknown-control", "unknown-increments",
        "constant-without-sigma", "extremal-without-hedge", "hedge-for-other-band",
        "string-sigma", "bool-sigma", "string-sigma-by-constant", "bool-sigma-by-constant",
        "string-mode-sigma", "string-mode-sigma-by-fixed", "bool-mode-sigma-by-fixed",
        "integer-hedge", "hedge-table-shape",
        "bool-sigma-lo", "bool-horizon", "bool-x-max", "bool-prior-sigma", "bool-amplitude",
        "bool-tolerance", "bool-tree-start", "bool-field-horizon", "bool-floor",
        "string-sigma-lo", "string-prior-sigma", "string-utility-a", "string-amplitude",
        "string-tolerance", "string-prior-sigma-by-constant", "string-gamma-by-power",
        "int-past-float-range", "numpy-count-grid-budget", "numpy-count-chunk-budget",
        "infinite-utility-a", "infinite-utility-gamma", "empty-agent-name", "string-utility",
        "string-endowment", "tuple-economy-entry",
    ],
)
def test_unusable_library_inputs_rejected(call, message):
    """Each fails with a ValueError before any work, not later or as another error."""
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _probe_of(n_samples):
    return genericity_probe(example_economy(SMALL), n_samples, Perturbation("bump", 0.1))


def _point(x):
    return GridFunction.of(np.zeros((SMALL.nt + 1, SMALL.nx)), SMALL, 1.0).at(0.5, x)


def _constant_batch(**sizes):
    sizes = {"n_paths": 50, "n_steps": 16, **sizes}
    return simulate_paths(ControlSpec.constant(0.7), BAND, **sizes)


@pytest.mark.parametrize("value", [10**400, 10**5000, -(10**5000)], ids=["400", "5000", "-5000"])
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda v: GridSpec(-6.0, 6.0, v, 40), ValueError, "nx must be at least 3|x 40 grid"),
        (lambda v: GridSpec(-6.0, 6.0, 41, v), ValueError, "nt must be at least 1|a 41 x .* grid"),
        (lambda v: _constant_batch(n_paths=v), ValueError, "paths must be at least|paths would"),
        (lambda v: _constant_batch(n_steps=v), ValueError, "steps must be at least|steps exceed"),
        (lambda v: _constant_batch(seed=v), ValueError, "seed must be at least 0|seed must lie"),
        (lambda v: McSpec(paths=v), ConfigError, "paths must be at least 1|paths would overlap"),
        (lambda v: McSpec(steps=v), ConfigError, "steps must be at least 1|steps exceed the"),
        (lambda v: McSpec(seed=v), ConfigError, "seed must be at least 0|seed must lie in"),
        (_probe_of, ValueError, "n_samples must be at least 1|samples exceed the memory"),
        (_point, ValueError, "points must be real numbers"),
    ],
    ids=[
        "grid-nx", "grid-nt", "batch-paths", "batch-steps", "batch-seed", "mc-paths", "mc-steps",
        "mc-seed", "probe-samples", "field-points",
    ],
)
def test_over_long_integers_refused_in_short(call, error, message, value):
    """An integer of hundreds or thousands of digits is refused by a message
    that names its field and shows at most a few of its digits."""
    with pytest.raises(error, match=message) as caught:
        call(value)
    assert type(caught.value) is error
    assert len(str(caught.value)) < 200, str(caught.value)


# ---------------------------------------------------------------------------
# streaming: the chunked walk against the materialised algorithm it replaced

TIGHT = GridSpec(-1.2, 1.2, 121, 200)  # narrow enough that some paths leave it
EXAMPLE = parse("min(exp(x), 1)")
EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "example_config.json"


@pytest.fixture(scope="module")
def tight_hedge():
    return hedge_field(EXAMPLE, BAND, TIGHT)


def reference_increments(n_paths, n_steps, seed, kind):
    """(n_paths, n_steps) float64 increments as they were first drawn: a fresh
    Philox per path, +-1 signs or standard normals."""
    z = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        gen = np.random.Generator(np.random.Philox(key=(seed << 32) + i))
        if kind == "binary":
            z[i] = 2.0 * gen.integers(0, 2, n_steps) - 1.0
        else:
            z[i] = gen.standard_normal(n_steps)
    return z


def reference_paths(control, n_paths, n_steps, seed, kind):
    """Whole paths as they were first built: `reference_increments`, then a
    cumulative sum (constant control) or np.interp of the curvature per step
    (extremal control)."""
    z = reference_increments(n_paths, n_steps, seed, kind)
    dt = BAND.horizon / n_steps
    sq = math.sqrt(dt)
    b = np.zeros((n_paths, n_steps + 1))
    if control.kind == "constant":
        sigmas = np.full((n_paths, n_steps), control.sigma)
        np.cumsum(control.sigma * sq * z, axis=1, out=b[:, 1:])
        return b, sigmas
    phi = control.hedge.phi_hat
    sigmas = np.empty((n_paths, n_steps))
    for k in range(n_steps):
        layer = layer_at_or_below(k * dt, BAND.horizon, phi.grid.nt)
        curv = np.interp(b[:, k], phi.grid.nodes, phi.values[layer])
        sigmas[:, k] = np.where(curv >= 0.0, BAND.sigma_hi, BAND.sigma_lo)
        b[:, k + 1] = b[:, k] + sigmas[:, k] * sq * z[:, k]
    return b, sigmas


def lattice_paths(sigma, n_paths, n_steps, seed):
    """Binary paths at a constant sigma as `replicate` walks them: c times the
    running sum of the +-1 signs, c = sigma * sqrt(dt), with their sigmas and
    signs."""
    z = reference_increments(n_paths, n_steps, seed, "binary")
    c = sigma * math.sqrt(BAND.horizon / n_steps)
    b = np.zeros((n_paths, n_steps + 1))
    b[:, 1:] = c * np.cumsum(z, axis=1)
    return b, np.full((n_paths, n_steps), sigma), z


def reference_replicate(expr, hedge, b, sigmas, signs=None):
    """The hedging identity over whole paths with np.interp per step.  With
    the paths' signs, each gain is (delta * sigma * sqrt(dt)) * sign, as on
    the lattice, rather than delta * (b_next - b)."""
    grid = hedge.grid
    n_steps = sigmas.shape[1]
    dt = BAND.horizon / n_steps
    sq = math.sqrt(dt)
    inside = np.all((b >= grid.x_min) & (b <= grid.x_max), axis=1)
    gains = np.zeros(b.shape[0])
    k_acc = np.zeros(b.shape[0])
    min_inc = math.inf
    for k in range(n_steps):
        layer = layer_at_or_below(k * dt, BAND.horizon, grid.nt)
        bk = b[:, k]
        eta_k = np.interp(bk, grid.nodes, hedge.eta.values[layer])
        phi_k = np.interp(bk, grid.nodes, hedge.phi_hat.values[layer])
        if signs is None:
            gains += eta_k * (b[:, k + 1] - bk)
        else:
            gains += (eta_k * (sigmas[:, k] * sq)) * signs[:, k]
        # the textbook worst-case flux, written out rather than taken from BAND.g
        a = 2.0 * phi_k
        flux = 0.5 * (BAND.sigma_hi**2 * np.maximum(a, 0.0) - BAND.sigma_lo**2 * np.maximum(-a, 0.0))
        inc = (flux - phi_k * sigmas[:, k] ** 2) * dt
        k_acc += inc
        min_inc = min(min_inc, float(inc[inside].min()))
    upper = float(np.interp(0.0, grid.nodes, solve_value_field(expr, BAND, grid, UPPER).values[0]))
    gap = (upper + gains - k_acc) - evaluate(expr, b[:, -1])
    return {
        "n_excluded": int(b.shape[0] - inside.sum()),
        "upper_value": upper,
        "mean_gap": float(gap[inside].mean()),
        "mean_gains": float(gains[inside].mean()),
        "mean_k": float(k_acc[inside].mean()),
        "min_k_increment": min_inc,
        "gaps": gap[inside],
        "k_terminal": k_acc[inside],
    }


def bits(value):
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype, value.tobytes()
    return repr(value)


def assert_reports_identical(a, b):
    assert vars(a).keys() == vars(b).keys()
    for name, value in vars(a).items():
        assert bits(value) == bits(getattr(b, name)), name


def control_for(kind, hedge):
    return ControlSpec.constant(0.75) if kind == "constant" else ControlSpec.extremal(hedge)


CASES = [(c, i) for c in ("constant", "extremal") for i in ("binary", "gaussian")]


class TestStreaming:
    N_PATHS, N_STEPS, SEED = 150, 40, 23

    def _run(self, tight_hedge, control_kind, increments):
        paths = simulate_paths(
            control_for(control_kind, tight_hedge),
            BAND,
            self.N_PATHS,
            self.N_STEPS,
            seed=self.SEED,
            increments=increments,
        )
        return paths, replicate(EXAMPLE, tight_hedge, paths)

    @pytest.mark.parametrize("control_kind, increments", CASES)
    def test_matches_materialised_reference(self, tight_hedge, control_kind, increments):
        control = control_for(control_kind, tight_hedge)
        b, sigmas = reference_paths(control, self.N_PATHS, self.N_STEPS, self.SEED, increments)
        paths, rep = self._run(tight_hedge, control_kind, increments)
        walked, walked_sigmas = whole_paths(paths)
        assert bits(walked) == bits(b)
        assert bits(walked_sigmas) == bits(sigmas)
        if (control_kind, increments) == ("constant", "binary"):
            # replicate walks these paths on their lattice
            lattice = lattice_paths(control.sigma, self.N_PATHS, self.N_STEPS, self.SEED)
            ref = reference_replicate(EXAMPLE, tight_hedge, *lattice)
        else:
            ref = reference_replicate(EXAMPLE, tight_hedge, b, sigmas)
        assert 0 < ref["n_excluded"] < self.N_PATHS  # some paths leave the grid
        for name, value in ref.items():
            assert bits(getattr(rep, name)) == bits(value), name

    @pytest.mark.parametrize("control_kind, increments", CASES)
    @pytest.mark.parametrize("rows", [1, 7, N_PATHS])
    def test_chunk_size_invariance(self, tight_hedge, monkeypatch, control_kind, increments, rows):
        base_paths, base = self._run(tight_hedge, control_kind, increments)
        base_b, base_sigmas = whole_paths(base_paths)
        monkeypatch.setattr(replication, "_CHUNK_BYTES", rows * 8 * self.N_STEPS)
        paths, rep = self._run(tight_hedge, control_kind, increments)
        assert_reports_identical(rep, base)
        b, sigmas = whole_paths(paths)
        assert bits(b) == bits(base_b)
        assert bits(sigmas) == bits(base_sigmas)
        gains = strategy_gains(tight_hedge.eta, paths)
        monkeypatch.undo()
        assert bits(gains) == bits(strategy_gains(tight_hedge.eta, base_paths))

    BLOCK = 8

    @pytest.mark.parametrize("rows", [1, 7, None])
    @pytest.mark.parametrize(
        "grid, n_steps",
        [(GRID, BLOCK - 1), (GRID, BLOCK + 1), (SMALL, 47)],
        ids=["block-below", "block-above", "steps-past-nt"],
    )
    def test_row_block_invariance(self, monkeypatch, grid, n_steps, rows):
        # the lattice walk's rows are built per block of steps; on the example
        # grid these paths reach every one of the 2 n + 1 lattice nodes, so
        # this budget makes blocks of BLOCK steps, and on SMALL (nt = 20, fewer
        # nodes) blocks of at least BLOCK.  Neither blocks nor chunks move a bit
        hedge = hedge_field(EXAMPLE, BAND, grid)
        paths = simulate_paths(ControlSpec.constant(0.75), BAND, self.N_PATHS, n_steps, seed=5)
        base = replicate(EXAMPLE, hedge, paths)
        monkeypatch.setattr(replication, "_ROW_BYTES", 16 * (2 * n_steps + 1) * self.BLOCK)
        if rows is not None:
            monkeypatch.setattr(replication, "_CHUNK_BYTES", rows * 8 * n_steps)
        assert_reports_identical(replicate(EXAMPLE, hedge, paths), base)
        ref = reference_replicate(EXAMPLE, hedge, *lattice_paths(0.75, self.N_PATHS, n_steps, 5))
        for name, value in ref.items():
            assert bits(getattr(base, name)) == bits(value), name

    def test_batch_holds_no_paths(self):
        p = simulate_paths(ControlSpec.constant(0.5), BAND, 1000, 64, seed=1)
        assert not [v for v in vars(p).values() if isinstance(v, np.ndarray)]

    def test_oversized_batches_rejected_before_allocation(self):
        with pytest.raises(ValueError, match="per-chunk budget"):
            simulate_paths(ControlSpec.constant(0.5), BAND, 10, 10**12)
        with pytest.raises(ValueError, match="substreams"):
            simulate_paths(ControlSpec.constant(0.5), BAND, 2**32, 4)
        with pytest.raises(ValueError, match="memory budget"):
            simulate_paths(ControlSpec.constant(0.5), BAND, 2**32 - 1, 4)
        with pytest.raises(ValueError, match="seed"):
            simulate_paths(ControlSpec.constant(0.5), BAND, 4, 4, seed=2**96)


class TestLatticeWalk:
    """`replicate` walks binary paths at a constant sigma on their lattice, c * j;
    the float-sum walk it replaced differs from it only by rounding."""

    # measured over 72 random payoffs, 24 each on TIGHT, the example grid and
    # SMALL, at sigma 0.5, 0.75 and 1.0 and 40 and 450 steps: per-path gaps
    # moved by at most 1.0e-14, K by at most 1.2e-15 and min_k_increment by at
    # most 6.1e-19.  One step moves nothing.
    GAP_BOUND, K_BOUND = 5e-14, 5e-15
    N_PATHS, SEED = 150, 23

    @pytest.mark.parametrize("grid", [TIGHT, GRID, SMALL], ids=["tight", "example", "small"])
    @pytest.mark.parametrize("n_steps", [1, 40, 450])
    def test_matches_float_sum_walk(self, grid, n_steps):
        rng = np.random.default_rng(n_steps)
        excluded = 0
        for expr in [random_payoff(rng) for _ in range(3)]:
            hedge = hedge_field(expr, BAND, grid)
            for sigma in (BAND.sigma_lo, 0.75, BAND.sigma_hi):
                control = ControlSpec.constant(sigma)
                paths = simulate_paths(control, BAND, self.N_PATHS, n_steps, seed=self.SEED)
                rep = replicate(expr, hedge, paths)
                b, sigmas = reference_paths(control, self.N_PATHS, n_steps, self.SEED, "binary")
                ref = reference_replicate(expr, hedge, b, sigmas)
                assert rep.n_excluded == ref["n_excluded"]
                assert abs(rep.min_k_increment - ref["min_k_increment"]) <= self.K_BOUND
                bound_gap, bound_k = (0.0, 0.0) if n_steps == 1 else (self.GAP_BOUND, self.K_BOUND)
                assert np.max(np.abs(rep.gaps - ref["gaps"])) <= bound_gap
                assert np.max(np.abs(rep.k_terminal - ref["k_terminal"])) <= bound_k
                excluded += rep.n_excluded
        # paths leave TIGHT once they can walk past it
        assert (excluded > 0) == (grid is TIGHT and n_steps > 1)

    @pytest.mark.parametrize(
        "grid", [TIGHT, SMALL, GridSpec(-4.0, 4.0, 41, 1)], ids=["tight", "small", "one-layer"]
    )
    @pytest.mark.parametrize("rows", [7, None])
    def test_rows_shared_by_the_steps_of_a_layer(self, monkeypatch, grid, rows):
        # 450 steps read 200, 20 or 1 hedge layers, so each build of the
        # lattice rows serves several steps; they give the lattice reference's bits
        if rows is not None:
            monkeypatch.setattr(replication, "_CHUNK_BYTES", rows * 8 * 450)
        hedge = hedge_field(EXAMPLE, BAND, grid)
        paths = simulate_paths(ControlSpec.constant(0.75), BAND, self.N_PATHS, 450, seed=3)
        rep = replicate(EXAMPLE, hedge, paths)
        ref = reference_replicate(EXAMPLE, hedge, *lattice_paths(0.75, self.N_PATHS, 450, 3))
        assert (ref["n_excluded"] > 0) == (grid is TIGHT)
        for name, value in ref.items():
            assert bits(getattr(rep, name)) == bits(value), name

    # at 6 steps sigma 0.51 has x_max = 3c with x_max / c just below 3, so the
    # lattice's last node on the grid is the one int(x_max / c) misses
    EDGE_C = 0.51 * math.sqrt(BAND.horizon / 6)
    EDGE = 3 * EDGE_C

    @pytest.mark.parametrize(
        "grid, n_steps, sigma",
        [(GridSpec(-1.3, 1.3, 27, 20), 4, 0.75), (GridSpec(-EDGE, EDGE, 31, 20), 6, 0.51)],
        ids=["past-the-edge-at-the-last-step", "edge-on-a-node"],
    )
    def test_paths_leaving_the_grid_excluded(self, grid, n_steps, sigma):
        # 1.3 lies between 3c and 4c = 1.5, so a path leaves only by four
        # steps one way, the last of them its last step; on the second grid a
        # path can step past the node on the edge and come back
        hedge = hedge_field(EXAMPLE, BAND, grid)
        control = ControlSpec.constant(sigma)
        paths = simulate_paths(control, BAND, self.N_PATHS, n_steps, seed=self.SEED)
        rep = replicate(EXAMPLE, hedge, paths)
        b, sigmas, signs = lattice_paths(sigma, self.N_PATHS, n_steps, self.SEED)
        ref = reference_replicate(EXAMPLE, hedge, b, sigmas, signs)
        for name, value in ref.items():
            assert bits(getattr(rep, name)) == bits(value), name
        off = (b < grid.x_min) | (b > grid.x_max)
        left = off.any(axis=1)
        assert left.any() and not left.all()
        if n_steps == 4:
            assert not off[:, :-1].any()
        else:
            assert int(self.EDGE / self.EDGE_C) == 2
            assert (b == self.EDGE).any() and (left & ~off[:, -1]).any()

    @pytest.mark.parametrize("x", [0.0, 0.9], ids=["origin", "off-origin"])
    def test_non_finite_increment_on_the_grid_raises(self, x):
        # a NaN curvature in the grid interval of x: the paths that read it
        # there stay on the grid, so their K is refused, not read as having left
        hedge = hedge_field(EXAMPLE, BAND, SMALL)
        table = hedge.table.copy()
        (i,), _ = replication._bracket(SMALL, np.array([x]))
        table[:, i, 1] = math.nan
        broken = HedgeField(table, SMALL, BAND, hedge.upper_value)
        paths = simulate_paths(ControlSpec.constant(0.75), BAND, self.N_PATHS, 40, seed=self.SEED)
        with pytest.raises(SimulationError, match="non-finite replication statistics"):
            replicate(EXAMPLE, broken, paths)

    def test_layers_looked_up_once_per_batch(self, monkeypatch):
        # the walk's layer schedule depends on the steps and the grid only,
        # so five chunks look each step's layer up once, not five times
        hedge = hedge_field(EXAMPLE, BAND, SMALL)
        calls = []

        def counted(t, horizon, nt):
            calls.append(t)
            return layer_at_or_below(t, horizon, nt)

        monkeypatch.setattr(replication, "layer_at_or_below", counted)
        monkeypatch.setattr(replication, "_CHUNK_BYTES", 6 * 8 * 450)
        paths = simulate_paths(ControlSpec.constant(0.75), BAND, 30, 450, seed=3)
        replicate(EXAMPLE, hedge, paths)
        assert len(calls) == paths.n_steps


class TestRawWordDraw:
    """Binary steps are read off raw Philox words; they must equal numpy's
    integers(0, 2) on the same per-path substream."""

    @staticmethod
    def _draw(seed, start, stop, n_steps, kind):
        gen = np.random.Generator(np.random.Philox(key=0))
        return replication._draw_increments(
            gen, gen.bit_generator.state, seed, start, stop, n_steps, kind
        )

    @staticmethod
    def _reference(seed, i):
        return np.random.Generator(np.random.Philox(key=(seed << 32) + i))

    # the last two seeds set the upper 64-bit word of the Philox key
    @pytest.mark.parametrize("seed", [0, 2**32 + 5, 2**96 - 1])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 511, 512])
    def test_binary_matches_integers(self, seed, n_steps):
        for start, stop in ((0, 37), (2**32 - 4, 2**32 - 1)):
            z = self._draw(seed, start, stop, n_steps, "binary")
            assert z.dtype == np.int8 and z.flags.c_contiguous
            assert z.shape == (n_steps, stop - start)
            for row, i in enumerate(range(start, stop)):
                expected = 2 * self._reference(seed, i).integers(0, 2, n_steps) - 1
                assert np.array_equal(z[:, row], expected), (row, i)

    @pytest.mark.parametrize("paths_per_block", [0, 1, 3], ids=["under-one-path", "one", "three"])
    @pytest.mark.parametrize("n_steps", [1, 3, 511])
    def test_binary_matches_integers_across_word_blocks(
        self, monkeypatch, paths_per_block, n_steps
    ):
        # words are held for a block of paths at a time: 37 paths make 37 or
        # 13 blocks, the last one partial, and an odd step count leaves the
        # top half of each path's last word unread
        n_words = (n_steps + 1) // 2
        monkeypatch.setattr(replication, "_WORD_BYTES", paths_per_block * 8 * n_words + 7)
        seed = 2**32 + 5
        for start, stop in ((0, 37), (2**32 - 38, 2**32 - 1)):
            z = self._draw(seed, start, stop, n_steps, "binary")
            assert z.dtype == np.int8 and z.flags.c_contiguous
            assert z.shape == (n_steps, stop - start)
            for row, i in enumerate(range(start, stop)):
                expected = 2 * self._reference(seed, i).integers(0, 2, n_steps) - 1
                assert np.array_equal(z[:, row], expected), (row, i)

    @pytest.mark.parametrize("n_steps", [1, 3, 512])
    def test_gaussian_unchanged(self, n_steps):
        seed, start, stop = 2**32 + 5, 2**32 - 4, 2**32 - 1
        z = self._draw(seed, start, stop, n_steps, "gaussian")
        assert z.dtype == np.float64 and z.flags.c_contiguous
        for row, i in enumerate(range(start, stop)):
            assert bits(z[:, row].copy()) == bits(self._reference(seed, i).standard_normal(n_steps))


class TestChunkFootprint:
    def test_replicate_peak_memory(self, example_hedge):
        # three full chunks of the hedge workload's shape on the example grid
        n_steps = 512
        rows = replication._CHUNK_BYTES // (8 * n_steps)
        # a binary chunk is allowed three (rows, n_steps) byte arrays, 6 MiB
        # here; it is one, the int8 steps, and while it is drawn one block of
        # raw words (_WORD_BYTES) besides.  A gaussian chunk is one (rows,
        # n_steps) float64 array, 16 MiB, walked through its transposed view.
        # On top come the per-path statistics and 32 float64 rows of a chunk
        # (1 MiB) for the per-step arrays and the lattice walk's row blocks.
        # The binary peak measured 3.3 MiB on a first call and on a repeated
        # one, and 5.3 MiB with one more chunk kept alive, which
        # test_binary_peak_holds_one_chunk catches.  The gaussian peak
        # measured 17.0 MiB, and 32.7 MiB with a contiguous copy of the
        # transpose.
        for increments, chunk_bytes in (("binary", 3), ("gaussian", 8)):
            paths = simulate_paths(
                ControlSpec.constant(0.5), BAND, 3 * rows, n_steps, seed=1, increments=increments
            )
            tracemalloc.start()
            try:
                replicate(EXAMPLE, example_hedge, paths)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            chunk = chunk_bytes * rows * n_steps
            bound = chunk + replication._PATH_BYTES * paths.n_paths + 32 * 8 * rows
            assert peak <= bound, (increments, peak, bound)

    def test_long_batch_peak_memory(self, example_hedge):
        # three full chunks of 4096 steps: 512 paths each, and about 1,500
        # lattice nodes, so the walk's rows come in blocks of 10 steps; the
        # bound is test_replicate_peak_memory's.  The binary peak measured
        # 2.7 MiB, and 4.7 MiB with one more chunk kept alive
        n_steps = 4096
        rows = replication._CHUNK_BYTES // (8 * n_steps)
        for increments, chunk_bytes in (("binary", 3), ("gaussian", 8)):
            paths = simulate_paths(
                ControlSpec.constant(0.5), BAND, 3 * rows, n_steps, seed=1, increments=increments
            )
            tracemalloc.start()
            try:
                replicate(EXAMPLE, example_hedge, paths)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            chunk = chunk_bytes * rows * n_steps
            bound = chunk + replication._PATH_BYTES * paths.n_paths + 32 * 8 * rows
            assert peak <= bound, (increments, peak, bound)

    @pytest.mark.parametrize("n_steps", [512, 4096])
    def test_binary_peak_holds_one_chunk(self, example_hedge, n_steps):
        # a repeated call over three full binary chunks holds one int8 chunk,
        # one block of raw words while it is drawn, the per-path statistics
        # and the lattice walk's row blocks with their temporaries, within six
        # _ROW_BYTES; measured 3.3 and 2.7 MiB against bounds of 4.5 and 3.8
        # MiB, and 5.3 and 4.7 MiB with one more chunk kept alive
        rows = replication._CHUNK_BYTES // (8 * n_steps)
        paths = simulate_paths(ControlSpec.constant(0.5), BAND, 3 * rows, n_steps, seed=1)
        replicate(EXAMPLE, example_hedge, paths)
        tracemalloc.start()
        try:
            replicate(EXAMPLE, example_hedge, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        bound = (
            rows * n_steps
            + replication._WORD_BYTES
            + replication._PATH_BYTES * paths.n_paths
            + 6 * replication._ROW_BYTES
        )
        assert peak <= bound, (peak, bound)

    def test_hedge_field_holds_two_layers(self):
        # MEMORY_BUDGET admits grids by gexp._FIELD_LAYERS float64 layers; the
        # hedge table holds two of them, delta and curvature node values, and
        # no slope and no value surface is kept (measured 2.01 layers)
        assert gexp._FIELD_LAYERS == 4
        tracemalloc.start()
        try:
            hedge_field(EXAMPLE, BAND, GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layer = 8 * (GRID.nt + 1) * GRID.nx
        assert peak <= 2.25 * layer, peak / layer


class TestGridFunctionInterp:
    @pytest.fixture(scope="class")
    def field(self):
        rng = np.random.default_rng(5)
        return GridFunction.of(rng.normal(size=(GRID.nt + 1, GRID.nx)), GRID, BAND.horizon)

    def test_bitwise_np_interp(self, field):
        rng = np.random.default_rng(6)
        nodes = GRID.nodes
        x = np.concatenate(
            [
                [GRID.x_min, GRID.x_max, -7.0, 7.5, -1e300, 1e300, -np.inf, np.inf],
                nodes,
                rng.uniform(-6.5, 6.5, 5000),
            ]
        )
        for t in (0.0, 0.37, BAND.horizon):
            k = layer_at_or_below(t, BAND.horizon, GRID.nt)
            assert bits(field.at(t, x)) == bits(np.interp(x, nodes, field.values[k]))
            for xi in x[:12]:
                assert bits(field.at(t, xi)) == bits(float(np.interp(xi, nodes, field.values[k])))

    def test_nan_query(self, field):
        assert np.isnan(field.at(0.5, np.nan))

    @pytest.mark.parametrize("t", [-0.5, -1e-9, np.nan, BAND.horizon + 1e-9, 2.0])
    def test_time_outside_horizon_rejected(self, field, t):
        with pytest.raises(ValueError, match="outside"):
            field.at(t, 0.0)

    @pytest.mark.parametrize("t", [-0.5, -1e-9, np.nan, BAND.horizon + 1e-9, 2.0])
    def test_layer_lookup_rejects_time_outside_horizon(self, t):
        with pytest.raises(ValueError, match="outside"):
            layer_at_or_below(t, BAND.horizon, GRID.nt)

    @pytest.mark.parametrize(
        "t, x, message",
        [
            (True, 0.0, "time must be a real number"),
            ("0.5", 0.0, "time must be a real number"),
            (None, 0.0, "time must be a real number"),
            (0.5, "1", "points must be real numbers"),
            (0.5, [0.0, "1"], "points must be real numbers"),
            (0.5, [True], "points must be real numbers"),
            (0.5, None, "points must be real numbers"),
        ],
        ids=["bool-t", "str-t", "none-t", "str-x", "str-in-x", "bool-x", "none-x"],
    )
    def test_non_numeric_query_rejected(self, t, x, message):
        # on a 5 x 4 grid of arange(25) values these read 22.0 (True as t =
        # 1), a TypeError from a comparison, and 14.0 (the string "1" coerced)
        g = GridSpec(-1.0, 1.0, 5, 4)
        field = GridFunction.of(np.arange(25.0).reshape(5, 5), g, 1.0)
        with pytest.raises(ValueError, match=message):
            field.at(t, x)
        if x == 0.0:  # the rule is the layer lookup's, behind every sampler
            with pytest.raises(ValueError, match=message):
                field.sample(t, replication._bracket(g, np.zeros(1)))
            with pytest.raises(ValueError, match=message):
                layer_at_or_below(t, 1.0, g.nt)
        assert field.at(1.0, 0.0) == 22.0 and field.at(np.float32(0.5), np.int64(1)) == 14.0

    @pytest.mark.parametrize("shape", [(3, 41), (41, 42), (41, 40), (42, 41), (41,), (41, 41, 1)])
    def test_values_must_fit_the_grid(self, shape):
        with pytest.raises(ValueError, match="do not fit"):
            GridFunction.of(np.zeros(shape), GridSpec(-6.0, 6.0, 41, 40), 1.0)

    def test_sample_reads_the_layer_at_or_below(self, field):
        nodes = GRID.nodes
        x = np.random.default_rng(7).uniform(-6.5, 6.5, 200)
        bracket = replication._bracket(GRID, x)
        for t in (0.0, 0.37, BAND.horizon):
            k = layer_at_or_below(t, BAND.horizon, GRID.nt)
            assert bits(field.sample(t, bracket)) == bits(np.interp(x, nodes, field.values[k]))


def stored_slope_sample(values, grid, x):
    """A field's values at points x by the formula of a table that stores each
    interval's slope beside the node values, built over all layers at once."""
    slope = np.empty_like(values)
    np.subtract(values[:, 1:], values[:, :-1], slope[:, :-1])
    np.divide(slope[:, :-1], np.diff(grid.nodes), slope[:, :-1])
    slope[:, -1] = 0.0
    j, d = replication._bracket(grid, x)
    return slope[:, j] * d + values[:, j]


def same_or_nan(a, b):
    """Bit for bit, save that a NaN matches any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and bits(a[~nan]) == bits(b[~nan])


class TestDerivedSlopes:
    """Fields store node values only; the slopes derived where they are read
    give np.interp's bits and those of slopes stored beside the values."""

    def test_hedge_samples_match_np_interp(self, example_hedge):
        nodes = GRID.nodes
        x = np.concatenate(
            [
                [GRID.x_min, GRID.x_max, -7.0, 7.5, -1e300, 1e300, -np.inf, np.inf, np.nan],
                np.random.default_rng(8).uniform(-6.5, 6.5, 5000),
            ]
        )
        bracket = replication._bracket(GRID, x)
        for t in (0.0, 0.37, BAND.horizon):
            k = layer_at_or_below(t, BAND.horizon, GRID.nt)
            eta = np.interp(x, nodes, example_hedge.eta.values[k])
            phi = np.interp(x, nodes, example_hedge.phi_hat.values[k])
            sampled_eta, sampled_phi = example_hedge.sample(t, bracket)
            for got, want in (
                (sampled_eta, eta),
                (sampled_phi, phi),
                (example_hedge.eta.at(t, x), eta),
                (example_hedge.phi_hat.at(t, x), phi),
            ):
                assert same_or_nan(got, want)

    def test_lattice_rows_on_a_node_at_the_edge(self):
        # the edge-on-a-node grid: the lattice node 3c lies exactly on x_max,
        # where the window of derived slopes ends at the grid's last node
        c = TestLatticeWalk.EDGE_C
        grid = GridSpec(-TestLatticeWalk.EDGE, TestLatticeWalk.EDGE, 31, 20)
        hedge = hedge_field(EXAMPLE, BAND, grid)
        lattice = c * np.arange(-3, 4)
        assert lattice[-1] == grid.x_max and lattice[0] == grid.x_min
        j, d = replication._bracket(grid, lattice)
        assert j[-1] == grid.nx - 1
        layers = np.arange(grid.nt + 1)
        lo, hi = j[0], j[-1] + 2
        for f, field in enumerate((hedge.eta, hedge.phi_hat)):
            rows = replication._rows_at(
                hedge.table[layers, lo:hi, f], j - lo, d, grid.widths[lo : hi - 1]
            )
            for k in layers:
                assert bits(rows[k]) == bits(np.interp(lattice, grid.nodes, field.values[k]))

    @pytest.mark.parametrize("case", ["non-finite-node", "negative-zero-at-the-end"])
    def test_edge_values_match_stored_slopes(self, case):
        g = GridSpec(-1.0, 1.0, 9, 4)
        values = np.random.default_rng(9).normal(size=(g.nt + 1, g.nx))
        if case == "non-finite-node":
            values[1, 3], values[2, 5], values[3, -1] = math.nan, math.inf, -math.inf
        else:
            values[:, -1] = -0.0
        before = values.tobytes()
        field = GridFunction(values, g, 1.0)
        assert values.tobytes() == before
        x = np.concatenate([g.nodes, [-2.0, 2.0, -np.inf, np.inf], np.linspace(-1.1, 1.1, 97)])
        with np.errstate(invalid="ignore"):  # inf - inf, inf * 0: NaN, as both formulas give
            want = stored_slope_sample(values, g, x)
            for k in range(g.nt + 1):
                assert same_or_nan(field.at(k / g.nt, x), want[k])
        assert values.tobytes() == before


class TestGolden:
    """Values pinned bit for bit on the example hedge; streaming keeps them."""

    def test_cli_replication_json(self, tmp_path, capsys):
        cfg = json.loads(EXAMPLE_CONFIG.read_text())
        cfg["mc"] = {"paths": 2000, "steps": 64, "seed": 42}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]
        assert main(argv + ["replicate", "--agent", "a1", "--prior-sigma", "0.5"]) == 0
        capsys.readouterr()
        blob = (tmp_path / "replication.json").read_bytes()
        assert json.loads(blob)["mean_k"] == 0.10480025930571196
        # the net trade embeds a1's closed-form consumption 0.7615975820202958,
        # the exact fixed-sigma price of their endowment on this grid
        assert (
            hashlib.sha256(blob).hexdigest()
            == "a12454eab56a30e0adfde996f1736cd7f45f0fc87d4b1fc912f53ef4c4444f44"
        )

    def test_extremal_run(self, example_hedge):
        paths = simulate_paths(ControlSpec.extremal(example_hedge), BAND, 2000, 64, seed=9)
        rep = replicate(EXAMPLE, example_hedge, paths)
        assert rep.mean_gap == -0.00019166730115315793
        assert rep.mean_k == 0.0
