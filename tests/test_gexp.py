import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

from knightian import (
    LOWER,
    UPPER,
    CflError,
    ControlSpec,
    GridSpec,
    Mode,
    VolBounds,
    default_grid,
    expectation,
    genericity_probe,
    mean_ambiguity_gap,
    solve_terminal_values,
    simulate_paths,
    solve_value_field,
    tree_expectation,
)
from knightian import gexp
from knightian.dsl import Lit, evaluate, parse
from knightian.gexp import MEMORY_BUDGET, _tree_positions, _tree_reachable, _tree_sweep

from helpers import BAND, capped_exp_value, example_economy, example_payoff, random_payoff

EXAMPLE = example_payoff()


class TestOracle:
    """The closed form used against the solver, validated independently."""

    def test_quadrature_agreement(self):
        for sigma in (0.5, 1.0):
            direct, _ = quad(
                lambda z: min(np.exp(sigma * z), 1.0) * norm.pdf(z), -12, 12,
                points=[0.0],
            )
            assert abs(direct - capped_exp_value(sigma)) < 1e-12

    def test_frozen_values(self):
        assert capped_exp_value(1.0) == pytest.approx(0.7615782918651235, abs=1e-15)
        assert capped_exp_value(0.5) == pytest.approx(0.8496188347203981, abs=1e-15)


class TestValidation:
    def test_bounds_ordering(self):
        with pytest.raises(ValueError):
            VolBounds(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            VolBounds(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            VolBounds(0.5, 1.0, 0.0)
        with pytest.raises(ValueError, match="horizon must be finite"):
            VolBounds(0.5, 1.0, math.inf)

    def test_grid_shape(self):
        with pytest.raises(ValueError):
            GridSpec(0.5, 6.0, 101, 100)  # does not straddle 0
        with pytest.raises(ValueError):
            GridSpec(-6.0, 6.0, 2, 100)

    def test_grid_memory_budget(self):
        # _FIELD_LAYERS stored (nt + 1, nx) float64 layers must fit in MEMORY_BUDGET
        nodes = MEMORY_BUDGET // (gexp._FIELD_LAYERS * 8)
        GridSpec(-6.0, 6.0, nodes // 1000, 999)
        with pytest.raises(ValueError, match="budget"):
            GridSpec(-6.0, 6.0, nodes // 1000 + 1, 999)

    @pytest.mark.parametrize("nx", [10**320, 10**400])
    def test_grid_past_float_range_is_over_budget(self, nx):
        # the budget's integer arithmetic runs before the spacing's float
        # division, which an nx past the float range would overflow
        with pytest.raises(ValueError, match="exceeds the memory budget"):
            GridSpec(-6.0, 6.0, nx, 40)

    def test_fixed_sigma_inside_band(self):
        with pytest.raises(ValueError):
            expectation(EXAMPLE, BAND, default_grid(BAND), Mode.fixed(0.3))
        with pytest.raises(ValueError):
            Mode.fixed(-1.0)

    def test_mode_kinds(self):
        with pytest.raises(ValueError):
            Mode("median")
        with pytest.raises(ValueError):
            Mode("upper", 0.5)

    def test_cfl_cap(self):
        # a single coarse time step over a fine space grid needs far more
        # sub-steps than the cap allows
        g = GridSpec(-6.0, 6.0, 5001, 1)
        with pytest.raises(CflError, match="use more time steps or fewer nodes"):
            expectation(EXAMPLE, BAND, g, UPPER)

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: GridSpec(-6.0, 6.0, 41.5, 50), "nx"),
            (lambda: GridSpec(-6.0, 6.0, 401.0, 800), "nx"),
            (lambda: GridSpec(-6.0, 6.0, 41, True), "nt"),
            (lambda: tree_expectation(EXAMPLE, BAND, 8.0, UPPER), "steps"),
            (lambda: genericity_probe(example_economy(GridSpec(-6, 6, 41, 40)), 2.5), "n_samples"),
            (lambda: genericity_probe(example_economy(GridSpec(-6, 6, 41, 40)), 2, seed=True), "seed"),
            (lambda: genericity_probe(example_economy(GridSpec(-6, 6, 41, 40)), 2, seed=1.5), "seed"),
            (lambda: simulate_paths(ControlSpec.constant(0.5), BAND, True, 8), "paths"),
        ],
        ids=[
            "nx-fraction", "nx-float", "nt-bool", "tree-steps", "probe-samples",
            "probe-seed-bool", "probe-seed-fraction", "paths-bool",
        ],
    )
    def test_counts_must_be_integers(self, call, name):
        # one rule for every count a library entry point takes: an integer, not a bool
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call()

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: GridSpec(-6.0, 6.0, 2, 50), "nx must be at least 3, got 2"),
            (lambda: GridSpec(-6.0, 6.0, 41, 0), "nt must be at least 1, got 0"),
            (lambda: tree_expectation(EXAMPLE, BAND, 0, UPPER), "steps must be at least 1, got 0"),
            (
                lambda: genericity_probe(example_economy(GridSpec(-6, 6, 41, 40)), 2, seed=-1),
                "seed must be at least 0, got -1",
            ),
            (
                lambda: simulate_paths(ControlSpec.constant(0.5), BAND, 4, 8, seed=-1),
                "seed must be at least 0, got -1",
            ),
        ],
        ids=["nx", "nt", "tree-steps", "probe-seed", "paths-seed"],
    )
    def test_counts_below_their_floor(self, call, message):
        # the same rule gives each count its floor
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()

    def test_grid_geometry_built_once_and_read_only(self):
        g = GridSpec(-6.0, 6.0, 41, 40)
        assert g.nodes is g.nodes and g.widths is g.widths
        assert g.nodes.tobytes() == np.linspace(-6.0, 6.0, 41).tobytes()
        assert g.widths.tobytes() == np.diff(g.nodes).tobytes()
        for table in (g.nodes, g.widths):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        # the cache is not a field: equal grids stay equal and hash alike
        assert g == GridSpec(-6.0, 6.0, 41, 40) and hash(g) == hash(GridSpec(-6.0, 6.0, 41, 40))

    def test_march_work_budget(self, monkeypatch):
        # the 101 x 50 grid needs m = 2 sub-steps per time step: 100 sub-steps
        g = GridSpec(-6.0, 6.0, 101, 50)
        work = 50 * 2 * (101 + gexp._SUBSTEP_NODES)
        monkeypatch.setattr(gexp, "WORK_BUDGET", work)
        expectation(EXAMPLE, BAND, g, UPPER)
        monkeypatch.setattr(gexp, "WORK_BUDGET", work - 1)
        with pytest.raises(ValueError, match=r"nt=50 time steps x m=2 sub-steps on nx=101"):
            expectation(EXAMPLE, BAND, g, UPPER)

    def test_terminal_shape_checked(self):
        g = GridSpec(-6.0, 6.0, 101, 50)
        with pytest.raises(ValueError):
            solve_terminal_values(np.zeros(100), BAND, g, UPPER)
        with pytest.raises(ValueError):
            solve_terminal_values(np.full(101, np.inf), BAND, g, UPPER)
        # expectation marches (k, nx) stacks; a field is kept for one payoff only
        for bad in (np.zeros((2, 101)), np.zeros((1, 101))):
            with pytest.raises(ValueError):
                solve_terminal_values(bad, BAND, g, UPPER)
        for bad in (np.zeros((2, 3, 101)), np.zeros((2, 100)), np.full((2, 101), np.nan)):
            with pytest.raises(ValueError):
                expectation(bad, BAND, g, UPPER)


class TestFixedSolver:
    def test_matches_closed_form(self):
        g = default_grid(BAND)
        for sigma in (0.5, 1.0):
            v = expectation(EXAMPLE, BAND, g, Mode.fixed(sigma))
            assert abs(v - capped_exp_value(sigma)) < 5e-4

    def test_constant_preserved_exactly(self):
        g = default_grid(BAND)
        for mode in (UPPER, LOWER, Mode.fixed(0.7)):
            assert expectation(parse("5"), BAND, g, mode) == 5.0

    def test_linear_payoff_preserved(self):
        g = default_grid(BAND)
        field = solve_value_field(parse("x"), BAND, g, UPPER)
        assert np.max(np.abs(field.values - g.nodes[None, :])) < 1e-12


class TestUpperLower:
    def test_band_ordering_pointwise(self):
        g = GridSpec(-6.0, 6.0, 201, 300)
        up = solve_value_field(EXAMPLE, BAND, g, UPPER).values
        lo = solve_value_field(EXAMPLE, BAND, g, LOWER).values
        for sigma in (0.5, 0.75, 1.0):
            mid = solve_value_field(EXAMPLE, BAND, g, Mode.fixed(sigma)).values
            assert np.all(up >= mid - 1e-10)
            assert np.all(mid >= lo - 1e-10)

    def test_degenerate_band_collapse(self):
        bounds = VolBounds(0.7, 0.7, 1.0)
        g = default_grid(bounds)
        up = solve_value_field(EXAMPLE, bounds, g, UPPER).values
        lo = solve_value_field(EXAMPLE, bounds, g, LOWER).values
        mid = solve_value_field(EXAMPLE, bounds, g, Mode.fixed(0.7)).values
        assert np.max(np.abs(up - lo)) <= 1e-10
        assert np.max(np.abs(up - mid)) <= 1e-10

    @pytest.mark.parametrize("text", ["min(exp(x), 1)", "x^2 - x", "1e-310 * x^2", "1e-315 * abs(x)"])
    def test_degenerate_band_collapse_bit_exact(self, text):
        # a fixed sigma marches the band [sigma, sigma], so a degenerate band's
        # upper, lower and fixed fields agree exactly, subnormal payoffs too
        bounds = VolBounds(0.7, 0.7, 1.0)
        g = GridSpec(-3.7, 4.3, 41, 15)
        fixed = solve_value_field(parse(text), bounds, g, Mode.fixed(0.7)).values
        for mode in (UPPER, LOWER):
            assert np.array_equal(solve_value_field(parse(text), bounds, g, mode).values, fixed)

    def test_quadratic_upper_lower_variance(self):
        # constant convexity pins the optimizer at one edge of the band
        g = default_grid(BAND)
        q = parse("x^2")
        up = expectation(q, BAND, g, UPPER)
        lo = expectation(q, BAND, g, LOWER)
        assert up == pytest.approx(BAND.sigma_hi**2 * BAND.horizon, rel=1e-3)
        assert lo == pytest.approx(BAND.sigma_lo**2 * BAND.horizon, rel=1e-3)

    def test_worst_case_flux_shape(self):
        assert BAND.g(2.0) == 0.5 * BAND.sigma_hi**2 * 2.0
        assert BAND.g(-2.0) == -0.5 * BAND.sigma_lo**2 * 2.0
        assert BAND.g(0.0) == 0.0


class TestVolBounds:
    @pytest.mark.parametrize(
        "value", [1, 0.5, np.float64(0.5), np.float32(0.5), Fraction(1, 2)],
        ids=["int", "float", "float64", "float32", "fraction"],
    )
    def test_real_fields_stored_as_python_floats(self, value):
        bounds = VolBounds(value, value, value)
        # a payoff literal keeps the same rule as the band
        for stored in (bounds.sigma_lo, bounds.sigma_hi, bounds.horizon, Lit(value).value):
            assert type(stored) is float and stored == float(value)

    def test_float32_sigma_marches_as_its_float64_value(self):
        # the march runs on the float the check returned, not in float32
        g = GridSpec(-6.0, 6.0, 101, 50)
        narrow = expectation(EXAMPLE, BAND, g, Mode.fixed(np.float32(0.7)))
        wide = expectation(EXAMPLE, BAND, g, Mode.fixed(float(np.float32(0.7))))
        assert same_bits(narrow, wide)

    def test_flux_on_signed_zeros_subnormals_and_infinities(self):
        # G(a) = max(a sigma_hi^2 / 2, a sigma_lo^2 / 2) on BAND (sigma_hi^2 / 2
        # = 1/2, sigma_lo^2 / 2 = 1/8): it keeps the sign of a zero, and a
        # subnormal product rounds to even in units of 5e-324
        unit = 5e-324
        cases = [
            (0.0, 0.0), (-0.0, -0.0), (math.inf, math.inf), (-math.inf, -math.inf),
            (unit, 0.0), (3 * unit, 2 * unit), (-3 * unit, -0.0), (-5 * unit, -unit),
            (-8 * unit, -unit), (1e-310, 5e-311), (-1e-310, -1.25e-311),
        ]
        for a, flux in cases:
            assert same_bits(BAND.g(a), flux), (a, BAND.g(a))
        a, flux = np.array(cases).T
        assert same_bits(BAND.g(a), flux)


class TestConditional:
    def test_linear_field_values(self):
        field = solve_value_field(parse("x"), BAND, default_grid(BAND), UPPER)
        assert field.at(0.5, 0.3) == pytest.approx(0.3, abs=1e-10)

    def test_terminal_layer_exact(self):
        g = default_grid(BAND)
        field = solve_value_field(EXAMPLE, BAND, g, UPPER)
        x = float(g.nodes[123])
        assert field.at(BAND.horizon, x) == evaluate(EXAMPLE, x)

    def test_mid_horizon_against_restarted_tree(self):
        g = default_grid(BAND)
        field = solve_value_field(parse("x^2"), BAND, g, UPPER)
        v = field.at(0.5, 0.0)
        half = VolBounds(BAND.sigma_lo, BAND.sigma_hi, 0.5)
        t = tree_expectation(parse("x^2"), half, 10, UPPER, start=0.0)
        assert v == pytest.approx(t, abs=2e-3)

    def test_off_grid_rejected(self):
        # times off the grid are refused; points off it read its edge, as
        # TestGridFunctionInterp checks against np.interp
        field = solve_value_field(EXAMPLE, BAND, default_grid(BAND), UPPER)
        with pytest.raises(ValueError):
            field.at(-0.5, 0.0)
        with pytest.raises(ValueError):
            field.at(2.0, 0.0)


class TestTree:
    def test_step_bounds(self):
        with pytest.raises(ValueError):
            tree_expectation(EXAMPLE, BAND, 0, UPPER)
        with pytest.raises(ValueError):
            tree_expectation(EXAMPLE, BAND, 15, UPPER)

    def test_linear_payoff_is_martingale(self):
        assert abs(tree_expectation(parse("x"), BAND, 8, UPPER)) < 1e-13
        assert abs(tree_expectation(parse("x"), BAND, 8, LOWER)) < 1e-13

    def test_quadratic_variance(self):
        v = tree_expectation(parse("x^2"), BAND, 10, UPPER)
        assert v == pytest.approx(BAND.sigma_hi**2 * BAND.horizon, abs=1e-12)
        v = tree_expectation(parse("x^2"), BAND, 10, LOWER)
        assert v == pytest.approx(BAND.sigma_lo**2 * BAND.horizon, abs=1e-12)

    def test_fixed_binomial_converges(self):
        for sigma in (0.5, 1.0):
            v = tree_expectation(EXAMPLE, BAND, 14, Mode.fixed(sigma))
            assert abs(v - capped_exp_value(sigma)) < 2e-2

    def test_agrees_with_pde(self):
        g = default_grid(BAND)
        for mode in (UPPER, LOWER):
            t = tree_expectation(EXAMPLE, BAND, 12, mode)
            p = expectation(EXAMPLE, BAND, g, mode)
            assert abs(t - p) < 2e-2

    @pytest.mark.parametrize("mode", [UPPER, Mode.fixed(0.75)], ids=["upper", "fixed"])
    def test_non_finite_input_rejected(self, mode):
        # as a march rejects terminal values that are not finite
        for start in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="start must be finite"):
                tree_expectation(parse("x"), BAND, 4, mode, start=start)
        # exp(1000 x) overflows to inf at the lattice's upper nodes
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="lattice must be finite"):
            tree_expectation(parse("exp(1000 * x)"), BAND, 4, mode)

    @pytest.mark.parametrize("mode", [UPPER, Mode.fixed(0.75)], ids=["upper", "fixed"])
    def test_average_of_large_values_is_finite(self, mode):
        # every lattice value is finite and below 1.8e308, but the sum of two
        # of them is not: the tree halves each before adding them
        v = tree_expectation(parse("1.7e308 - 1e300*x"), BAND, 6, mode)
        assert math.isfinite(v)
        assert v == pytest.approx(1.7e308, rel=1e-12)

    def test_start_offset(self):
        v = tree_expectation(EXAMPLE, BAND, 6, UPPER, start=3.0)
        # deep in the money the cap dominates and the value pins near 1
        assert 0.97 < v <= 1.0


class TestTreeAxioms:
    def _pairs(self, count=6):
        rng = np.random.default_rng(7)
        return [(random_payoff(rng), random_payoff(rng)) for _ in range(count)]

    def test_constants_exact(self):
        for c in (-2.5, 0.0, 1.0, 17.25):
            for mode in (UPPER, LOWER):
                assert tree_expectation(parse(repr(c)), BAND, 9, mode) == c

    def test_monotone(self):
        for mode in (UPPER, LOWER):
            for fx, _ in self._pairs():
                from knightian.dsl import BinOp, Call, Lit

                bigger = BinOp("+", fx, Call("abs", (fx,)))
                lo = tree_expectation(fx, BAND, 9, mode)
                hi = tree_expectation(bigger, BAND, 9, mode)
                assert hi >= lo - 1e-12

    def test_subadditive(self):
        from knightian.dsl import BinOp

        for fx, fy in self._pairs():
            both = tree_expectation(BinOp("+", fx, fy), BAND, 9, UPPER)
            split = tree_expectation(fx, BAND, 9, UPPER) + tree_expectation(fy, BAND, 9, UPPER)
            assert both <= split + 1e-12

    def test_positively_homogeneous(self):
        from knightian.dsl import BinOp, Lit

        rng = np.random.default_rng(11)
        for fx, _ in self._pairs():
            lam = float(rng.uniform(0.1, 3.0))
            scaled = tree_expectation(BinOp("*", Lit(lam), fx), BAND, 9, UPPER)
            direct = lam * tree_expectation(fx, BAND, 9, UPPER)
            assert scaled == pytest.approx(direct, abs=1e-12)

    def test_iterated_expectation_bitwise(self):
        n = 9
        for expr in (EXAMPLE, parse("x^2"), parse("tanh(x) - x")):
            for mode in (UPPER, LOWER):
                pos = _tree_positions(BAND, n, 0.0)
                reach = _tree_reachable(n, n)
                box = np.zeros_like(pos)
                box[reach] = evaluate(expr, pos[reach])
                for split in (3, 5):
                    inner = _tree_sweep(box, mode, n - split)
                    two_stage = _tree_sweep(inner, mode, split)
                    direct = _tree_sweep(box, mode, n)
                    assert two_stage[n, n] == direct[n, n]

    def test_conditional_matches_restarted_tree(self):
        # sweeping down to level m leaves the conditional values; restarting
        # a fresh tree from each reachable node reproduces them
        n, m = 8, 3
        pos = _tree_positions(BAND, n, 0.0)
        reach_m = _tree_reachable(n, m)
        box = np.zeros_like(pos)
        reach_n = _tree_reachable(n, n)
        box[reach_n] = evaluate(EXAMPLE, pos[reach_n])
        cond = _tree_sweep(box, UPPER, n - m)
        rest = VolBounds(BAND.sigma_lo, BAND.sigma_hi, BAND.horizon * (n - m) / n)
        for i, j in zip(*np.nonzero(reach_m)):
            restarted = tree_expectation(EXAMPLE, rest, n - m, UPPER, start=float(pos[i, j]))
            assert cond[i, j] == pytest.approx(restarted, abs=1e-12)


class TestGap:
    def test_example_gap(self):
        res = mean_ambiguity_gap(EXAMPLE, BAND, default_grid(BAND))
        assert res.gap >= 0.088
        assert not res.mean_af
        assert res.upper == pytest.approx(0.8626, abs=2e-3)
        assert res.lower == pytest.approx(0.7435, abs=2e-3)

    def test_linear_payoff_mean_af(self):
        res = mean_ambiguity_gap(parse("x"), BAND, default_grid(BAND))
        assert abs(res.gap) < 1e-10
        assert res.mean_af

    def test_constant_gap_exact_zero(self):
        res = mean_ambiguity_gap(parse("5"), BAND, default_grid(BAND))
        assert res.gap == 0.0
        assert res.mean_af

    def test_array_input_matches_expr(self):
        g = default_grid(BAND)
        res_e = mean_ambiguity_gap(EXAMPLE, BAND, g)
        res_a = mean_ambiguity_gap(evaluate(EXAMPLE, g.nodes), BAND, g)
        assert res_e == res_a

    def test_march_overflow_raises(self):
        # finite node values whose march overflows to NaN: a NaN gap would be
        # classified as not mean-ambiguity-free, so the library raises where
        # the commands' np.errstate exits 2; the errstate here only keeps the
        # march's RuntimeWarning from failing the test first
        g = GridSpec(-6, 6, 41, 40)
        term = np.where(np.arange(g.nx) % 2, -1.7e308, 1.7e308)
        stack = np.stack([np.zeros(g.nx), term])
        calls = [
            lambda: mean_ambiguity_gap(term, BAND, g),
            lambda: mean_ambiguity_gap(stack, BAND, g),
            lambda: expectation(term, BAND, g, UPPER),
            lambda: expectation(term, BAND, g, Mode.fixed(0.7)),
            lambda: expectation(stack, BAND, g, (UPPER, LOWER)),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for call in calls:
                with pytest.raises(ValueError, match="^origin values of the march must be finite$"):
                    call()


class TestGridConvergence:
    def test_refinement_changes_shrink(self):
        # halving dx and dt (CFL respected at every level): successive
        # changes at the origin shrink by well over the first-order factor
        for expr in (EXAMPLE, parse("tanh(x) + 0.2*x^2")):
            for mode in (UPPER, LOWER):
                vals = []
                for nx, nt in [(101, 350), (201, 700), (401, 1400)]:
                    g = GridSpec(-6.0, 6.0, nx, nt)
                    vals.append(expectation(expr, BAND, g, mode))
                d12 = abs(vals[0] - vals[1])
                d23 = abs(vals[1] - vals[2])
                assert d23 < d12
                assert d23 <= d12 / 1.8


# ---------------------------------------------------------------------------
# one march for every mode and for payoff stacks

# small grid with two sub-steps per time step
MARCH_GRID = GridSpec(-4.0, 4.0, 41, 15)
# payoffs whose node values or marched values are signed zeros
ZERO_PAYOFFS = ["0", "-(x - x)", "(-0.0) * x", "max(x, 0) - max(x, 0)", "-(max(x, 0) - max(x, 0))"]


def same_bits(a, b) -> bool:
    """Equal shapes and equal bytes, so a signed zero counts as a difference."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def reference_substeps(bounds, grid):
    """Sub-steps m per time step and the sub-step dtau, by the march's rule:
    enough to keep sigma_hi^2 dtau <= dx^2."""
    dt = bounds.horizon / grid.nt
    m = max(1, math.ceil(bounds.sigma_hi**2 * dt / grid.dx**2 - 1e-12))
    return m, dt / m


def flux_coefficient(sigma, dtau, grid):
    """sigma^2 / 2 * dtau / dx^2, multiplied out in the march's order."""
    return 0.5 * sigma**2 * (1.0 / grid.dx**2) * dtau


def curvature(v):
    """(v+ - v) + (v- - v) over the interior of the last axis."""
    return (v[..., 2:] - v[..., 1:-1]) + (v[..., :-2] - v[..., 1:-1])


def reference_lower_field(term, bounds, grid):
    """Reference lower march with its own flux, the band's infimum
    k_lo d+ - k_hi d-, independent of the upper march."""
    m, dtau = reference_substeps(bounds, grid)
    k_lo, k_hi = (flux_coefficient(s, dtau, grid) for s in (bounds.sigma_lo, bounds.sigma_hi))
    values = np.empty((grid.nt + 1, grid.nx))
    values[grid.nt] = term
    v = np.array(term, dtype=float)
    for k in range(grid.nt, 0, -1):
        for _ in range(m):
            d = curvature(v)
            v[1:-1] += k_lo * np.maximum(d, 0.0) - k_hi * np.maximum(-d, 0.0)
        values[k - 1] = v
    return values


def check_lower_against_reference(term, bounds, grid):
    ref = reference_lower_field(term, bounds, grid)
    field = solve_terminal_values(term, bounds, grid, LOWER)
    assert same_bits(field.values, ref)
    origin = float(np.interp(0.0, grid.nodes, ref[0]))
    assert same_bits(expectation(term, bounds, grid, LOWER), origin)
    assert same_bits(field.at(0.0, 0.0), origin)


@st.composite
def payoff_stacks(draw):
    """(k, nx) node values of 1-6 random payoffs on MARCH_GRID."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    return np.stack([evaluate(random_payoff(rng), MARCH_GRID.nodes) for _ in range(k)])


class TestBatchedMarch:
    @settings(max_examples=40)
    @given(stack=payoff_stacks())
    def test_stack_matches_single_solves_and_lower_reference(self, stack):
        for mode in (UPPER, LOWER, Mode.fixed(0.75)):
            batched = expectation(stack, BAND, MARCH_GRID, mode)
            singles = [expectation(row, BAND, MARCH_GRID, mode) for row in stack]
            assert same_bits(batched, singles)
        gaps = mean_ambiguity_gap(stack, BAND, MARCH_GRID)
        for i, row in enumerate(stack):
            single = mean_ambiguity_gap(row, BAND, MARCH_GRID)
            assert all(same_bits(a[i], b) for a, b in zip(gaps, single))
            assert single.upper == expectation(row, BAND, MARCH_GRID, UPPER)
            assert same_bits(single.lower, expectation(row, BAND, MARCH_GRID, LOWER))
            check_lower_against_reference(row, BAND, MARCH_GRID)

    @pytest.mark.parametrize("text", ZERO_PAYOFFS)
    def test_signed_zeros_match_lower_reference(self, text):
        term = evaluate(parse(text), MARCH_GRID.nodes)
        check_lower_against_reference(term, BAND, MARCH_GRID)
        degenerate = VolBounds(0.7, 0.7, 1.0)
        check_lower_against_reference(term, degenerate, MARCH_GRID)

    def test_lower_of_zero_is_positive_zero(self):
        for g in (MARCH_GRID, GridSpec(-6.0, 6.0, 101, 50)):
            value = expectation(parse("0"), BAND, g, LOWER)
            assert value == 0.0 and not np.signbit(value)
            assert not np.signbit(mean_ambiguity_gap(parse("0"), BAND, g).lower)

    def test_return_types(self):
        stack = np.stack([evaluate(EXAMPLE, MARCH_GRID.nodes), MARCH_GRID.nodes])
        assert isinstance(expectation(EXAMPLE, BAND, MARCH_GRID, UPPER), float)
        assert isinstance(expectation(stack[0], BAND, MARCH_GRID, UPPER), float)
        assert expectation(stack, BAND, MARCH_GRID, UPPER).shape == (2,)
        single = mean_ambiguity_gap(stack[0], BAND, MARCH_GRID)
        assert [type(f) for f in single] == [float, bool, float, float]
        batched = mean_ambiguity_gap(stack, BAND, MARCH_GRID)
        assert all(f.shape == (2,) for f in batched)
        assert batched.mean_af.tolist() == [False, True]

    def test_stack_origins_allocate_no_stack_output(self):
        # origin-only marches keep per block only its buffers and its origins:
        # neither a (k, nx) march output nor a doubled [f; -f] stack
        g = GridSpec(-6.0, 6.0, 101, 10)
        stack = np.random.default_rng(3).normal(size=(2048, g.nx))
        for run in (
            lambda: expectation(stack, BAND, g, UPPER),
            lambda: mean_ambiguity_gap(stack, BAND, g),
        ):
            run()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < stack.nbytes / 4, peak / stack.nbytes



# ---------------------------------------------------------------------------
# the node-major march kernel against the row-major update it replaces


def row_major_march(term, bounds, grid, mode, layers=None, peng_flux=False):
    """Reference march: the row-major update of a (nx,) vector or a (k, nx)
    stack, one allocating ufunc expression per sub-step, with the curvature
    (v+ - v) + (v- - v) and the textbook flux written out here rather than
    taken from the code under test.  With `peng_flux` a band's flux is
    max(d k_hi, d k_lo) instead, Peng's G as `VolBounds.g` states it, which
    rounds a subnormal product as the march does."""
    m, dtau = reference_substeps(bounds, grid)
    if mode.kind == "fixed":
        k_fixed = flux_coefficient(mode.sigma, dtau, grid)

        def flux(d):
            return np.multiply(k_fixed, d)
    else:
        k_lo, k_hi = (flux_coefficient(s, dtau, grid) for s in (bounds.sigma_lo, bounds.sigma_hi))

        def flux(d):
            if peng_flux:
                return np.maximum(d * k_hi, d * k_lo)
            return k_hi * np.maximum(d, 0.0) - k_lo * np.maximum(-d, 0.0)
    lower = mode.kind == "lower"
    v = -term if lower else np.array(term, dtype=float)
    if layers is not None:
        layers[grid.nt] = v
    for k in range(grid.nt, 0, -1):
        for _ in range(m):
            v[..., 1:-1] += flux(curvature(v))
        if layers is not None:
            layers[k - 1] = v
    if lower:
        v = -v
        v[..., 1:-1] += 0.0
        if layers is not None:
            np.negative(layers, out=layers)
            layers[:-1, 1:-1] += 0.0
    return v


DEGENERATE = VolBounds(0.7, 0.7, 1.0)


def modes_of(bounds):
    return (UPPER, LOWER, Mode.fixed(0.5 * (bounds.sigma_lo + bounds.sigma_hi)))


# a grid whose origin is no node, so the origin is interpolated
OFFSET_GRID = GridSpec(-3.7, 4.3, 41, 15)


@st.composite
def march_cases(draw):
    """A stack of random and signed-zero payoffs in random order, a band, a
    mode, a grid and a row-chunk size."""
    rows = list(draw(payoff_stacks()))
    zeros = draw(st.lists(st.sampled_from(ZERO_PAYOFFS), max_size=3))
    rows += [evaluate(parse(text), MARCH_GRID.nodes) for text in zeros]
    order = draw(st.permutations(range(len(rows))))
    bounds = draw(st.sampled_from([BAND, DEGENERATE]))
    mode = draw(st.sampled_from(modes_of(bounds)))
    grid = draw(st.sampled_from([MARCH_GRID, OFFSET_GRID]))
    chunk = draw(st.integers(1, 8))
    return np.stack([rows[i] for i in order]), bounds, mode, grid, chunk


def origins(values, grid):
    """np.interp's reading of the origin of each row of node values."""
    return np.array([np.interp(0.0, grid.nodes, row) for row in np.atleast_2d(values)])


def hooked_march(row, bounds, grid, mode):
    """The origin a vector march returns and every layer it hands its hook."""
    layers = np.full((grid.nt + 1, grid.nx), np.nan)

    def store(k, values):
        layers[k] = values

    (origin,) = gexp._march(row, bounds, grid, (mode,), store)
    return origin, layers


class TestNodeMajorMarch:
    @settings(max_examples=60)
    @given(case=march_cases())
    def test_matches_row_major_reference(self, case):
        stack, bounds, mode, g, chunk = case
        # every mode of a degenerate band shares its one volatility
        shared = modes_of(bounds) if bounds.degenerate else (UPPER, LOWER)
        with mock.patch.object(gexp, "_MARCH_ROWS", chunk):
            (marched,) = gexp._march(stack, bounds, g, (mode,))
            together = gexp._march(stack, bounds, g, shared)
        assert same_bits(marched, origins(row_major_march(stack, bounds, g, mode), g))
        for each, values in zip(shared, together, strict=True):
            assert same_bits(values, origins(row_major_march(stack, bounds, g, each), g))
        for row in stack:
            ref = np.empty((g.nt + 1, g.nx))
            row_major_march(row, bounds, g, mode, ref)
            origin, layers = hooked_march(row, bounds, g, mode)
            assert same_bits(layers, ref)
            assert same_bits(origin, origins(ref[0], g)[0])
            assert same_bits(gexp._march(row, bounds, g, (mode,)), [origin])

    @pytest.mark.parametrize("rows", [1, 7, "default", "whole"])
    def test_chunk_size_invariance(self, monkeypatch, rows):
        rng = np.random.default_rng(11)
        k = 2 * gexp._MARCH_ROWS + 5
        stack = [evaluate(random_payoff(rng), MARCH_GRID.nodes) for _ in range(k)]
        stack += [evaluate(parse(text), MARCH_GRID.nodes) for text in ZERO_PAYOFFS]
        stack = np.stack(stack)
        if rows != "default":
            monkeypatch.setattr(gexp, "_MARCH_ROWS", len(stack) if rows == "whole" else rows)
        for g in (MARCH_GRID, OFFSET_GRID):
            for mode in modes_of(BAND):
                (marched,) = gexp._march(stack, BAND, g, (mode,))
                assert same_bits(marched, origins(row_major_march(stack, BAND, g, mode), g))
            both = gexp._march(stack, BAND, g, (UPPER, LOWER))
            for mode, values in zip((UPPER, LOWER), both, strict=True):
                assert same_bits(values, origins(row_major_march(stack, BAND, g, mode), g))

    @pytest.mark.parametrize(
        "modes", [(UPPER, LOWER), (UPPER, LOWER, Mode.fixed(0.7))], ids=["shared-band", "mixed-band"]
    )
    def test_substep_is_six_ufuncs(self, monkeypatch, modes):
        # the sub-step's cost as a count, not a timing: six ufunc calls per
        # sub-step and block (one first difference, the curvature from it, two
        # flux products, their max and the update), and one sign multiply per
        # block
        g = GridSpec(-1.0, 1.0, 5, 3)
        m, _ = gexp._substeps(BAND, g)
        assert m == 2
        stack = np.stack([g.nodes**2, -g.nodes, np.abs(g.nodes)])
        monkeypatch.setattr(gexp, "_MARCH_ROWS", len(modes))  # one row per block
        calls = dict.fromkeys(("add", "subtract", "multiply", "maximum"), 0)

        def counting(name, ufunc):
            def call(*args, **kwargs):
                calls[name] += 1
                return ufunc(*args, **kwargs)

            return call

        for name in calls:
            monkeypatch.setattr(np, name, counting(name, getattr(np, name)))
        gexp._march(stack, BAND, g, modes)
        blocks = len(stack)
        substeps = g.nt * m * blocks
        assert calls == {
            "add": substeps,
            "subtract": 2 * substeps,
            "multiply": 2 * substeps + blocks,
            "maximum": substeps,
        }
        assert sum(calls.values()) == 6 * g.nt * m * blocks + blocks

    @pytest.mark.parametrize(
        "modes", [(UPPER, LOWER), (UPPER, LOWER, Mode.fixed(0.7))], ids=["shared-band", "mixed-band"]
    )
    def test_signed_zero_neighbourhoods_match_row_major_reference(self, modes):
        # the curvature is (v+ - v) - (v - v-), the reference's (v+ - v) +
        # (v- - v); the two differ only in the sign of a zero curvature, where
        # the update adds it to a +0.0 node.  Every (v-, v, v+) triple of
        # these values sits at nodes 1-3 of its own row, between frozen ends;
        # the reference takes the march's flux, since the textbook one rounds
        # products of 5e-324 to zeros of other signs
        values = [0.0, 5e-324, 1.0, 1.0 + 2.0**-52, 3.0]
        values += [-value for value in values]
        g = GridSpec(-1.0, 1.0, 5, 3)
        triples = np.array(np.meshgrid(values, values, values, indexing="ij")).reshape(3, -1).T
        stack = np.zeros((len(triples), g.nx))
        stack[:, 1:4] = triples
        together = gexp._march(stack, BAND, g, modes)
        for mode, marched in zip(modes, together, strict=True):
            ref = row_major_march(stack, BAND, g, mode, peng_flux=True)
            assert same_bits(marched, origins(ref, g))
        for row in stack:
            for mode in modes:
                ref = np.empty((g.nt + 1, g.nx))
                row_major_march(row, BAND, g, mode, ref, peng_flux=True)
                assert same_bits(hooked_march(row, BAND, g, mode)[1], ref)

    def test_input_untouched(self):
        stack = np.stack([MARCH_GRID.nodes**2, -MARCH_GRID.nodes])
        before = stack.copy()
        for mode in modes_of(BAND):
            gexp._march(stack, BAND, MARCH_GRID, (mode,))
            hooked_march(stack[0], BAND, MARCH_GRID, mode)
        gexp._march(stack, BAND, MARCH_GRID, (UPPER, LOWER))
        assert same_bits(stack, before)

    @pytest.mark.parametrize("bounds", [BAND, DEGENERATE], ids=["band", "degenerate"])
    def test_subnormal_payoffs_near_the_textbook_flux(self, bounds):
        # max(a sigma_hi^2 / 2, a sigma_lo^2 / 2) and the textbook
        # 0.5 (sigma_hi^2 max(a, 0) - sigma_lo^2 max(-a, 0)) round differently
        # only where a product is subnormal; measured here: at most 1e-323
        rng = np.random.default_rng(5)
        for g in (MARCH_GRID, OFFSET_GRID):
            stack = [evaluate(parse(text), g.nodes) for text in ("1e-310 * x^2", "1e-315 * abs(x)")]
            stack += [1e-320 * evaluate(random_payoff(rng), g.nodes) for _ in range(8)]
            stack = np.stack(stack)
            for mode in modes_of(bounds):
                (marched,) = gexp._march(stack, bounds, g, (mode,))
                ref = origins(row_major_march(stack, bounds, g, mode), g)
                assert np.max(np.abs(marched - ref)) <= 2e-323
                for row in stack:
                    layers = np.empty((g.nt + 1, g.nx))
                    row_major_march(row, bounds, g, mode, layers)
                    assert np.max(np.abs(hooked_march(row, bounds, g, mode)[1] - layers)) <= 2e-323

    @pytest.mark.parametrize("sigma", [BAND.sigma_lo, 0.75, BAND.sigma_hi], ids=["lo", "inside", "hi"])
    def test_modes_of_different_bands_march_as_alone(self, sigma):
        # each column takes its own band's flux coefficients beside the others
        rng = np.random.default_rng(17)
        k = 2 * (gexp._MARCH_ROWS // 3) + 5  # three blocks of three columns a row
        for g in (MARCH_GRID, OFFSET_GRID):
            stack = [evaluate(random_payoff(rng), g.nodes) for _ in range(k)]
            stack = np.stack(stack + [evaluate(parse(text), g.nodes) for text in ZERO_PAYOFFS])
            modes = (UPPER, LOWER, Mode.fixed(sigma))
            together = gexp._march(stack, BAND, g, modes)
            for mode, values in zip(modes, together, strict=True):
                (alone,) = gexp._march(stack, BAND, g, (mode,))
                assert same_bits(values, alone)
            assert not np.signbit(together[1][k])  # lower of the payoff 0 is +0.0
            for order in (modes, modes[::-1]):
                layers = np.full((g.nt + 1, g.nx), np.nan)
                origin = gexp._march(stack[0], BAND, g, order, layers.__setitem__)[0]
                alone, alone_layers = hooked_march(stack[0], BAND, g, order[0])
                assert same_bits(origin, alone) and same_bits(layers, alone_layers)

    @pytest.mark.parametrize(
        "x_min, x_max, spikes",
        [
            (-5.0, 7.0, {1: 1e308}),
            (-5.0, 7.0, {0: -1e308, 1: 1e308, 2: 1e308, 3: -1e308}),
            (-6.0, 6.0, {3: 1e308}),
        ],
        ids=["one-end", "both-ends", "next-to-node"],
    )
    def test_origin_read_past_overflow_as_np_interp(self, x_min, x_max, spikes):
        # a node's curvature (v+ - v) + (v- - v) overflows where its two
        # differences sum past the float range, and the node goes to -inf in
        # one sub-step: a spike of 1e308 between zeros, or each of two spikes
        # side by side between nodes of -1e308.  The origin's interval then
        # ends at -inf and a finite value, or at -inf twice, and np.interp
        # falls back to the right end, or to the common value; an origin on a
        # node takes that node's value whatever its neighbours
        g = GridSpec(x_min, x_max, 5, 1)
        term = np.zeros(g.nx)
        term[list(spikes)] = list(spikes.values())
        with np.errstate(over="ignore", invalid="ignore"):
            ref = row_major_march(term, BAND, g, UPPER)
            (value,) = gexp._march(term, BAND, g, (UPPER,))
            expected = float(np.interp(0.0, g.nodes, ref))
        assert np.isinf(ref).any() and not np.isnan(expected)
        assert same_bits(value, expected)


# ---------------------------------------------------------------------------
# Peng's axioms of the discrete expectations


EPS = np.finfo(float).eps
# translation, fixed-sigma linearity and the sublinearity slack of upper stay
# within this many ulps of the payoffs' sup norm; over 3000 payoffs on each
# grid the largest measured were 2.4, 1.9 and 2.3
AXIOM_ULPS = 4


@st.composite
def axiom_cases(draw):
    """Two (k, nx) stacks of random payoffs, k constants, a grid and a mode."""
    g = draw(st.sampled_from([MARCH_GRID, OFFSET_GRID]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    f, h = (np.stack([evaluate(random_payoff(rng), g.nodes) for _ in range(k)]) for _ in range(2))
    c = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k)))
    return f, h, c, g, draw(st.sampled_from(modes_of(BAND)))


def sup(stack):
    return np.max(np.abs(stack), axis=1)


class TestMarchAxioms:
    @settings(max_examples=60)
    @given(case=axiom_cases())
    def test_exact_axioms(self, case):
        f, h, c, g, mode = case

        def e(stack):
            return expectation(stack, BAND, g, mode)

        ef = e(f)
        # equal, not same bits: a constant -0.0 marches to +0.0
        assert np.array_equal(e(np.repeat(c[:, None], g.nx, axis=1)), c)
        assert same_bits(e(2.0 * f), 2.0 * ef)
        assert same_bits(e(0.5 * f), 0.5 * ef)
        assert np.all(f.min(axis=1) <= ef) and np.all(ef <= f.max(axis=1))
        assert np.all(ef <= e(np.maximum(f, h)))
        assert np.all(ef <= e(f + np.abs(h)))

    @settings(max_examples=60)
    @given(case=axiom_cases())
    def test_translation_linearity_sublinearity(self, case):
        f, h, c, g, mode = case

        def e(stack):
            return expectation(stack, BAND, g, mode)

        ef, eh = e(f), e(h)
        translation = e(f + c[:, None]) - ef - c
        assert np.all(np.abs(translation) <= AXIOM_ULPS * EPS * (sup(f) + np.abs(c)))
        if mode.kind == "fixed":
            linearity = e(1.5 * f - 0.75 * h) - (1.5 * ef - 0.75 * eh)
            assert np.all(np.abs(linearity) <= AXIOM_ULPS * EPS * (1.5 * sup(f) + 0.75 * sup(h)))
        if mode == UPPER:
            slack = e(f + h) - (ef + eh)
            assert np.all(slack <= AXIOM_ULPS * EPS * (sup(f) + sup(h)))


# ---------------------------------------------------------------------------
# the fixed-sigma kernel, the march's adjoint

# w . f against the fixed march, in ulps of the payoff's sup norm: at most 4.6
# on MARCH_GRID and 2.7 on OFFSET_GRID over 4100 random payoffs each, at 41
# volatilities across the band
KERNEL_ULPS = 8
# w . x^2 - sigma^2 T - interp(x^2)(0): the second moment the frozen boundaries
# absorb; at most 4.2e-6 on MARCH_GRID and 1.3e-5 on OFFSET_GRID, at sigma = 1
BOUNDARY_MOMENT = 2e-5


@st.composite
def kernel_cases(draw):
    """A (k, nx) stack of random payoffs, a grid and a fixed sigma in BAND."""
    g = draw(st.sampled_from([MARCH_GRID, OFFSET_GRID]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 6))
    stack = np.stack([evaluate(random_payoff(rng), g.nodes) for _ in range(k)])
    return stack, g, draw(st.floats(BAND.sigma_lo, BAND.sigma_hi))


class TestFixedKernel:
    @settings(max_examples=60)
    @given(case=kernel_cases())
    def test_prices_as_the_fixed_march(self, case):
        stack, g, sigma = case
        (marched,) = gexp._march(stack, BAND, g, (Mode.fixed(sigma),))
        priced = gexp._priced(stack, gexp._fixed_kernel(sigma, BAND, g))
        assert np.all(np.abs(priced - marched) <= KERNEL_ULPS * EPS * sup(stack))

    @settings(max_examples=30)
    @given(
        g=st.sampled_from([MARCH_GRID, OFFSET_GRID]), sigma=st.floats(BAND.sigma_lo, BAND.sigma_hi)
    )
    def test_weights_and_moments(self, g, sigma):
        w = gexp._fixed_kernel(sigma, BAND, g)
        x = g.nodes
        # every sub-step is monotone, so its adjoint keeps weights nonnegative
        assert np.all(w >= 0.0)
        # measured: at most 2 ulps, and 0.38 ulps of max |x|
        assert abs(w.sum() - 1.0) <= 4 * EPS
        assert abs(w @ x) <= 2 * EPS * np.max(np.abs(x))
        second = w @ (x * x) - sigma * sigma * BAND.horizon - np.interp(0.0, x, x * x)
        assert abs(second) <= BOUNDARY_MOMENT

    @pytest.mark.parametrize("g", [MARCH_GRID, OFFSET_GRID], ids=["node", "offset"])
    def test_degenerate_band_prices_as_its_upper_march(self, g):
        rng = np.random.default_rng(17)
        stack = np.stack([evaluate(random_payoff(rng), g.nodes) for _ in range(64)])
        (upper,) = gexp._march(stack, DEGENERATE, g, (UPPER,))
        priced = gexp._priced(stack, gexp._fixed_kernel(DEGENERATE.sigma_hi, DEGENERATE, g))
        assert np.max(np.abs(priced - upper)) <= 1e-10

    def test_pricing_is_bit_stable_across_stack_layout(self):
        # whole stack, row by row, and a copy at an 8-byte offset into a larger
        # buffer must give the same bits, so reruns and batched solves agree
        g = GridSpec(-6.0, 6.0, 401, 20)
        w = gexp._fixed_kernel(1.0, BAND, g)
        stack = np.random.default_rng(29).normal(size=(37, g.nx))
        whole = gexp._priced(stack, w)
        rows = np.concatenate([gexp._priced(stack[i : i + 1], w) for i in range(len(stack))])
        buffer = np.empty(stack.size + 1)
        shifted = buffer[1:].reshape(stack.shape)
        shifted[...] = stack
        assert shifted.ctypes.data % 16 != stack.ctypes.data % 16
        assert same_bits(whole, rows)
        assert same_bits(whole, gexp._priced(shifted, w))

    def test_checks_of_a_march(self):
        with pytest.raises(ValueError, match="outside the band"):
            gexp._fixed_kernel(1.5, BAND, MARCH_GRID)
        with mock.patch.object(gexp, "WORK_BUDGET", 1):
            with pytest.raises(ValueError, match="work budget"):
                gexp._fixed_kernel(1.0, BAND, MARCH_GRID)
        w = gexp._fixed_kernel(1.0, BAND, MARCH_GRID)
        stack = np.ones((3, MARCH_GRID.nx))
        for bad in (math.nan, math.inf, -math.inf):
            stack[1, 7] = bad
            with pytest.raises(ValueError, match="must be finite"):
                gexp._priced(stack, w)
