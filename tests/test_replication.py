import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from knightian import gexp, replication
from knightian import (
    ControlSpec,
    GridFunction,
    GridSpec,
    Mode,
    PriorSpec,
    SimulationError,
    VolBounds,
    exp_martingale_transform,
    expectation,
    hedge_field,
    replicate,
    simulate_paths,
    solve_equilibrium,
    strategy_gains,
)
from knightian.cli import main
from knightian.dsl import evaluate, parse
from knightian.gexp import conditional_at, layer_at_or_below

from helpers import BAND, example_economy, linear_split_economy

GRID = GridSpec(-6.0, 6.0, 401, 800)


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
        tiny = GridSpec(-0.01, 0.01, 11, 800)
        h = hedge_field(parse("x"), BAND, tiny)
        p = simulate_paths(ControlSpec.constant(1.0), BAND, 50, 64, seed=6)
        with pytest.raises(SimulationError):
            replicate(parse("x"), h, p)

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
        return GridFunction(np.asarray(vals, dtype=float), GRID, BAND.horizon)

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

    def test_quotient_grid_exposed(self, example_hedge):
        load = self._loading(lambda t, x: np.exp(x - 0.5 * t))
        ts = exp_martingale_transform(example_hedge.eta, load, floor=1e-6)
        assert np.array_equal(ts.node_values, example_hedge.eta.values / load.values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_loading_rejected(self, example_hedge, bad):
        values = np.ones((GRID.nt + 1, GRID.nx))
        values[3, 7] = bad
        load = GridFunction(values, GRID, BAND.horizon)
        with pytest.raises(ValueError, match="not finite"):
            exp_martingale_transform(example_hedge.eta, load, floor=1e-6)

    def test_grid_mismatch_rejected(self, example_hedge):
        coarse = GridSpec(-6.0, 6.0, 201, 800)
        load = GridFunction(np.ones((coarse.nt + 1, coarse.nx)), coarse, BAND.horizon)
        with pytest.raises(ValueError, match="different grids"):
            exp_martingale_transform(example_hedge.eta, load)

    def test_floor_violation_rejected(self, example_hedge):
        load = self._loading(lambda t, x: x + t * 0.0)  # crosses zero
        with pytest.raises(ValueError):
            exp_martingale_transform(example_hedge.eta, load, floor=1e-6)
        with pytest.raises(ValueError):
            exp_martingale_transform(example_hedge.eta, load, floor=-1.0)


# ---------------------------------------------------------------------------
# streaming: the chunked walk against the materialised algorithm it replaced

TIGHT = GridSpec(-1.2, 1.2, 121, 200)  # narrow enough that some paths leave it
EXAMPLE = parse("min(exp(x), 1)")
EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "example_config.json"


@pytest.fixture(scope="module")
def tight_hedge():
    return hedge_field(EXAMPLE, BAND, TIGHT)


def reference_paths(control, n_paths, n_steps, seed, kind):
    """Whole paths as they were first built: a fresh Philox per path, then
    a cumulative sum (constant control) or np.interp of the curvature per
    step (extremal control)."""
    z = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        gen = np.random.Generator(np.random.Philox(key=(seed << 32) + i))
        if kind == "binary":
            z[i] = 2.0 * gen.integers(0, 2, n_steps) - 1.0
        else:
            z[i] = gen.standard_normal(n_steps)
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


def reference_replicate(expr, hedge, b, sigmas):
    """The hedging identity over whole paths with np.interp per step."""
    grid = hedge.grid
    n_steps = sigmas.shape[1]
    dt = BAND.horizon / n_steps
    inside = np.all((b >= grid.x_min) & (b <= grid.x_max), axis=1)
    gains = np.zeros(b.shape[0])
    k_acc = np.zeros(b.shape[0])
    min_inc = math.inf
    for k in range(n_steps):
        layer = layer_at_or_below(k * dt, BAND.horizon, grid.nt)
        bk = b[:, k]
        eta_k = np.interp(bk, grid.nodes, hedge.eta.values[layer])
        phi_k = np.interp(bk, grid.nodes, hedge.phi_hat.values[layer])
        gains += eta_k * (b[:, k + 1] - bk)
        inc = (BAND.g(2.0 * phi_k) - phi_k * sigmas[:, k] ** 2) * dt
        k_acc += inc
        min_inc = min(min_inc, float(inc[inside].min()))
    upper = conditional_at(hedge.field, 0.0, 0.0)
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
        # while a binary chunk is drawn, three (rows, n_steps) byte arrays are
        # alive: the drawn top bytes, their word transpose and the int8 steps,
        # 6 MiB here.  A gaussian chunk is one (rows, n_steps) float64 array,
        # 16 MiB, walked through its transposed view.  On top come the
        # per-path statistics and 32 float64 rows of a chunk (1 MiB) for the
        # per-step arrays.  The binary peak measured 6.7 MiB; one more chunk
        # kept alive reads 8.7 MiB, and 16 MiB float64 chunks 49.4 MiB.  The
        # gaussian peak measured 16.9 MiB, and 32.7 MiB with a contiguous copy
        # of the transpose.
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

    def test_hedge_field_holds_five_layers(self):
        # MEMORY_BUDGET admits grids by gexp._FIELD_LAYERS float64 layers: the
        # value surface and the four columns of the hedge table
        tracemalloc.start()
        try:
            hedge_field(EXAMPLE, BAND, GRID)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layer = 8 * (GRID.nt + 1) * GRID.nx
        assert peak <= (gexp._FIELD_LAYERS + 0.25) * layer, peak / layer


class TestGridFunctionInterp:
    @pytest.fixture(scope="class")
    def field(self):
        rng = np.random.default_rng(5)
        return GridFunction(rng.normal(size=(GRID.nt + 1, GRID.nx)), GRID, BAND.horizon)

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

    @pytest.mark.parametrize("shape", [(3, 41), (41, 42), (41, 40), (42, 41), (41,), (41, 41, 1)])
    def test_values_must_fit_the_grid(self, shape):
        with pytest.raises(ValueError, match="do not fit"):
            GridFunction(np.zeros(shape), GridSpec(-6.0, 6.0, 41, 40), 1.0)

    def test_sample_reads_the_layer_at_or_below(self, field):
        nodes = GRID.nodes
        x = np.random.default_rng(7).uniform(-6.5, 6.5, 200)
        bracket = replication._bracket(GRID, replication._edges(GRID), x)
        for t in (0.0, 0.37, BAND.horizon):
            k = layer_at_or_below(t, BAND.horizon, GRID.nt)
            assert bits(field.sample(t, bracket)) == bits(np.interp(x, nodes, field.values[k]))


class TestGolden:
    """Values the materialised implementation produced; streaming keeps them."""

    def test_cli_replication_json(self, tmp_path, capsys):
        cfg = json.loads(EXAMPLE_CONFIG.read_text())
        cfg["mc"] = {"paths": 2000, "steps": 64, "seed": 42}
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]
        assert main(argv + ["replicate", "--agent", "a1", "--prior-sigma", "0.5"]) == 0
        capsys.readouterr()
        blob = (tmp_path / "replication.json").read_bytes()
        assert json.loads(blob)["mean_k"] == 0.10480025930571187
        # the net trade embeds a1's closed-form consumption 0.7615975820202958,
        # the exact fixed-sigma price of their endowment on this grid
        assert (
            hashlib.sha256(blob).hexdigest()
            == "97546dc2726514b11044caf76a8bb39525a5da709be0aadf6b7a15946f6515a1"
        )

    def test_extremal_run(self, example_hedge):
        paths = simulate_paths(ControlSpec.extremal(example_hedge), BAND, 2000, 64, seed=9)
        rep = replicate(EXAMPLE, example_hedge, paths)
        assert rep.mean_gap == -0.00019166730115315793
        assert rep.mean_k == 0.0
