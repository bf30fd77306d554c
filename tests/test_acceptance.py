"""Acceptance gate.

One test per shipped guarantee, run at the settings the guarantees quote.
Each test prints a single summary line with the measured numbers; the
assertions enforce the quoted tolerances.
"""

import csv
import time

import numpy as np
import pytest

from knightian import (
    ControlSpec,
    GridFunction,
    GridSpec,
    Mode,
    Perturbation,
    PriorSpec,
    VolBounds,
    default_grid,
    exp_martingale_transform,
    expectation,
    genericity_probe,
    hedge_field,
    replicate,
    simulate_paths,
    solve_equilibrium,
    solve_value_field,
    strategy_gains,
    tree_expectation,
)
from knightian.cli import main
from knightian.dsl import BinOp, Call, Lit, evaluate, parse
from knightian.gexp import LOWER, UPPER, _tree_positions, _tree_reachable, _tree_sweep

from helpers import BAND, capped_exp_value, example_economy, random_payoff, write_config

GRID = GridSpec(-6.0, 6.0, 401, 800)
EXAMPLE = parse("min(exp(x), 1)")


@pytest.fixture(scope="module")
def example_hedge():
    return hedge_field(EXAMPLE, BAND, GRID)


def grab(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{out}")


def test_a1_closed_form_reproduction(tmp_path, capsys):
    """Degenerate band: solver hits the known closed form, fast."""
    report = []
    for sigma in (1.0, 0.5):
        span = 6.0 * sigma
        cfg = write_config(
            tmp_path / f"deg{sigma}.json",
            bounds={"sigma_lo": sigma, "sigma_hi": sigma, "horizon": 1.0},
            grid={"x_min": -span, "x_max": span, "nx": 801, "nt": 2000},
            pricing_prior={"sigma": sigma},
        )
        t0 = time.perf_counter()
        code = main(
            [
                "--config", str(cfg),
                "eval", "min(exp(x), 1)", "--mode", "fixed", "--sigma", str(sigma),
            ]
        )
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        value = float(grab(out, "expectation:"))
        target = capped_exp_value(sigma)
        assert value == pytest.approx(target, abs=5e-3)
        assert elapsed < 10.0
        report.append(f"sigma={sigma}: {value:.5f} vs {target:.5f} in {elapsed:.2f}s")
    print("PASS closed-form reproduction: " + "; ".join(report))


def test_a2_example_trades_not_implementable(tmp_path, capsys):
    """The kinked-endowment economy cannot finance its net trades."""
    cfg = write_config(tmp_path / "cfg.json")
    out_dir = tmp_path / "out"
    code = main(["--config", str(cfg), "--out", str(out_dir), "implement"])
    out = capsys.readouterr().out
    assert code == 0
    assert "IMPLEMENTABLE: no" in out
    with open(out_dir / "implementability.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    gaps = {r[0]: float(r[3]) for r in rows[1:]}
    assert gaps["a1"] >= 0.088 - 1e-2
    print(f"PASS non-implementability: agent a1 gap {gaps['a1']:.4f} >= 0.078")


def test_a3_allocation_indeterminacy():
    """Each pricing volatility supports its own equilibrium allocation."""
    econ = example_economy(grid=GRID)
    res_hi = solve_equilibrium(econ, PriorSpec.constant(1.0))
    res_lo = solve_equilibrium(econ, PriorSpec.constant(0.5))
    c_hi = float(res_hi.consumption[0])
    c_lo = float(res_lo.consumption[0])
    shift = abs(c_hi - c_lo)
    assert shift == pytest.approx(0.088, abs=0.01)
    fi_hi = res_hi.clearing
    fi_lo = res_lo.clearing
    assert fi_hi < 1e-8 and fi_lo < 1e-8
    print(
        f"PASS indeterminacy: c1 {c_hi:.5f} vs {c_lo:.5f} (shift {shift:.5f}), "
        f"full-insurance variation {max(fi_hi, fi_lo):.2e}"
    )


def test_a4_axiom_suite_on_tree():
    """Sublinear-expectation axioms, exact on the lattice oracle."""
    n = 8
    rng = np.random.default_rng(2024)
    pairs = [(random_payoff(rng), random_payoff(rng)) for _ in range(20)]
    worst = 0.0
    for f, g in pairs:
        ef = tree_expectation(f, BAND, n, UPPER)
        eg = tree_expectation(g, BAND, n, UPPER)

        c = float(rng.uniform(-3.0, 3.0))
        assert tree_expectation(Lit(c), BAND, n, UPPER) == c

        dominated = tree_expectation(BinOp("+", f, Call("abs", (g,))), BAND, n, UPPER)
        assert ef <= dominated + 1e-12

        e_sum = tree_expectation(BinOp("+", f, g), BAND, n, UPPER)
        assert e_sum <= ef + eg + 1e-12
        worst = max(worst, e_sum - (ef + eg))

        lam = float(rng.uniform(0.1, 3.0))
        scaled = tree_expectation(BinOp("*", Lit(lam), f), BAND, n, UPPER)
        assert scaled == pytest.approx(lam * ef, abs=1e-12)

        # tower property holds bitwise: sweeping in two stages equals one pass
        pos = _tree_positions(BAND, n, 0.0)
        reach = _tree_reachable(n, n)
        box = np.zeros_like(pos)
        box[reach] = evaluate(f, pos[reach])
        for mode in (UPPER, LOWER):
            inner = _tree_sweep(box, mode, n - 3)
            assert _tree_sweep(inner, mode, 3)[n, n] == _tree_sweep(box, mode, n)[n, n]
    print(f"PASS axiom suite: 20 payoff pairs at n={n}, max subadditivity excess {worst:.2e}")


def test_a5_solver_cross_validation():
    """Continuum solver against the exact lattice and a hand value."""
    fine = default_grid(BAND)
    pde = expectation(EXAMPLE, BAND, fine, UPPER)
    tree = tree_expectation(EXAMPLE, BAND, 12, UPPER)
    assert abs(pde - tree) <= 2e-2

    quad = expectation(parse("x^2"), BAND, fine, UPPER)
    target = BAND.sigma_hi**2 * BAND.horizon
    assert quad == pytest.approx(target, rel=1e-2)

    deg = VolBounds(0.7, 0.7, 1.0)
    dgrid = default_grid(deg)
    vu = solve_value_field(EXAMPLE, deg, dgrid, UPPER).values
    vl = solve_value_field(EXAMPLE, deg, dgrid, LOWER).values
    collapse = float(np.max(np.abs(vu - vl)))
    assert collapse <= 1e-10
    print(
        f"PASS cross-validation: |pde - tree| {abs(pde - tree):.4f}, quadratic "
        f"{quad:.4f} vs {target}, degenerate collapse {collapse:.1e}"
    )


def test_a6_martingale_representation(example_hedge):
    """Replication identities under simulated priors, heavy batch."""
    lin = hedge_field(parse("x"), BAND, GRID)
    p = simulate_paths(ControlSpec.constant(1.0), BAND, 2000, 128, seed=7)
    rep = replicate(parse("x"), lin, p)
    assert np.max(np.abs(rep.gaps)) <= 1e-9
    assert np.max(np.abs(rep.k_terminal)) <= 1e-10

    residuals = []
    for sigma in (0.5, 1.0):
        paths = simulate_paths(ControlSpec.constant(sigma), BAND, 100_000, 512, seed=42)
        rep = replicate(EXAMPLE, example_hedge, paths)
        fixed = expectation(EXAMPLE, BAND, GRID, Mode.fixed(sigma))
        resid = rep.mean_k - (rep.upper_value - fixed)
        assert abs(resid) <= 3.0 * rep.se_k + 5e-3
        assert rep.min_k_increment >= 0.0
        residuals.append(f"sigma={sigma}: residual {resid:+.2e} (se {rep.se_k:.2e})")
        del paths, rep

    extremal = simulate_paths(ControlSpec.extremal(example_hedge), BAND, 20_000, 256, seed=9)
    rex = replicate(EXAMPLE, example_hedge, extremal)
    assert abs(rex.mean_k) <= 5e-3
    print(
        "PASS martingale representation: exact linear hedge; "
        + "; ".join(residuals)
        + f"; extremal mean K_T {rex.mean_k:.2e}"
    )


def test_a7_strategy_transform(example_hedge):
    """Rescaled strategy against the rescaled integrator, path by path."""
    t = np.linspace(0.0, BAND.horizon, GRID.nt + 1)
    load = GridFunction(
        np.exp(GRID.nodes[None, :] - 0.5 * t[:, None]), GRID, BAND.horizon
    )
    transformed = exp_martingale_transform(example_hedge.eta, load, floor=1e-8)
    paths = simulate_paths(ControlSpec.constant(0.8), BAND, 4000, 512, seed=3)
    direct = strategy_gains(example_hedge.eta, paths)
    rescaled = strategy_gains(transformed, paths, loading=load)
    worst = float(np.max(np.abs(direct - rescaled)))
    assert worst <= 1e-10
    print(f"PASS strategy transform: max path discrepancy {worst:.1e}")


def test_a8_genericity_probe():
    """Random endowment bumps almost always break implementability."""
    econ = example_economy(grid=GRID)
    result = genericity_probe(
        econ, n_samples=200, perturbation=Perturbation("bump", 0.1), seed=42
    )
    assert result.n_solved >= 190
    assert result.fraction_failing >= 0.95
    print(
        f"PASS genericity probe: {result.n_failing}/{result.n_solved} failing "
        f"(fraction {result.fraction_failing:.3f}, wilson 95% "
        f"[{result.wilson_low:.3f}, {result.wilson_high:.3f}])"
    )


def test_a9_determinism(tmp_path, capsys):
    """Re-running every artifact command reproduces the bytes."""
    cfg = write_config(tmp_path / "cfg.json")
    commands = [
        ["equilibrium"],
        ["implement"],
        ["replicate", "--agent", "a1", "--prior-sigma", "0.5"],
        ["probe", "--samples", "5"],
    ]
    artifacts = ["equilibrium.csv", "implementability.csv", "replication.json", "probe.csv"]
    snapshots = []
    for tag in ("first", "second"):
        out_dir = tmp_path / tag
        stdout_lines = []
        for cmd in commands:
            code = main(["--config", str(cfg), "--out", str(out_dir), *cmd])
            assert code == 0
            out = capsys.readouterr().out
            stdout_lines += [l for l in out.splitlines() if not l.startswith("wrote ")]
        blobs = {name: (out_dir / name).read_bytes() for name in artifacts}
        snapshots.append((stdout_lines, blobs))
    assert snapshots[0] == snapshots[1]
    sizes = ", ".join(f"{n} {len(b)}B" for n, b in snapshots[0][1].items())
    print(f"PASS determinism: byte-identical reruns ({sizes})")
