"""Command-line front end.

Subcommands: eval, equilibrium, implement, replicate, probe.  All take the
run configuration via --config; artifacts land in --out.  Output is
deterministic for a fixed configuration: floats are printed with repr and
JSON keys are sorted, so repeated runs are byte-identical.

Exit codes: 0 success, 2 validation or parse failure, 3 non-constant
aggregate endowment, 4 solver non-convergence, 5 simulation failure.
"""

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import Config, load_config
from .dsl import BinOp, Lit, parse, pretty_print
from .equilibrium import ConvergenceError, NonConstantEndowmentError, solve_equilibrium
from .gexp import LOWER, UPPER, GapResult, Mode, expectation, tree_expectation
from .implementability import Perturbation, check_implementability, genericity_probe
from .replication import ControlSpec, SimulationError, hedge_field, replicate, simulate_paths

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_NONCONSTANT = 3
EXIT_NO_CONVERGENCE = 4
EXIT_SIMULATION = 5


def _global_flags(parser, suppress: bool):
    # the same flags are accepted before or after the subcommand; the
    # subcommand copies use SUPPRESS so an absent flag keeps the outer value
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument(
        "--config",
        default=d,
        help="path to the JSON run configuration (required)",
    )
    parser.add_argument(
        "--out", default=argparse.SUPPRESS if suppress else ".", help="directory for output artifacts"
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        default=argparse.SUPPRESS if suppress else False,
        help="suppress the stdout report",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knightian",
        description="expectation bounds, equilibria and hedging under a volatility band",
    )
    _global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        _global_flags(p, suppress=True)
        return p

    p = add_command("eval", "expectation and ambiguity gap of a payoff")
    p.add_argument("payoff", help="payoff expression in x")
    p.add_argument("--mode", choices=["upper", "lower", "fixed"], default="upper")
    p.add_argument("--sigma", type=float, default=None, help="volatility for fixed mode")
    p.add_argument(
        "--tree-steps", type=int, default=None, help="also run the exact tree with this many steps"
    )

    add_command("equilibrium", "solve for planner weights and allocations")

    add_command("implement", "test whether the equilibrium trades are implementable")

    p = add_command("replicate", "hedge a payoff along simulated paths")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--agent", default=None, help="replicate this agent's net trade")
    group.add_argument("--payoff", default=None, help="replicate this payoff expression")
    p.add_argument(
        "--prior-sigma", type=float, required=True, help="constant volatility driving the paths"
    )

    p = add_command("probe", "random-perturbation survey of implementability")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--amplitude", type=float, default=0.1)
    p.add_argument("--family", choices=["bump", "ramp"], default="bump")
    return parser


def _say(args, text: str):
    if not args.quiet:
        print(text)


def _mode_from(args) -> Mode:
    if args.mode == "fixed":
        if args.sigma is None:
            raise ValueError("fixed mode needs --sigma")
        return Mode.fixed(args.sigma)
    if args.sigma is not None:
        raise ValueError("--sigma only applies to fixed mode")
    return UPPER if args.mode == "upper" else LOWER


def cmd_eval(cfg: Config, args, out_dir: Path) -> int:
    expr = parse(args.payoff)
    mode = _mode_from(args)
    # one march: the gap's upper and lower columns, and a fixed sigma's beside them
    modes = (UPPER, LOWER, mode) if mode.kind == "fixed" else (UPPER, LOWER)
    values = dict(zip(modes, expectation(expr, cfg.bounds, cfg.grid, modes)))
    gap = GapResult.of(values[UPPER], values[LOWER], cfg.tolerances.mean_af)
    value = values[mode]
    _say(args, f"payoff: {pretty_print(expr)}")
    _say(args, f"mode: {args.mode}" + (f" (sigma={args.sigma!r})" if args.mode == "fixed" else ""))
    _say(args, f"expectation: {value!r}")
    verdict = "yes" if gap.mean_af else "no"
    _say(
        args,
        f"ambiguity gap: {gap.gap!r} (mean-ambiguity-free: {verdict}, "
        f"tol {cfg.tolerances.mean_af!r})",
    )
    if args.tree_steps is not None:
        tree = tree_expectation(expr, cfg.bounds, args.tree_steps, mode)
        _say(args, f"tree cross-check (steps={args.tree_steps}): {tree!r}")
    return EXIT_OK


def _solved_equilibrium(cfg: Config):
    economy = cfg.economy()
    return solve_equilibrium(economy, cfg.require_prior(), budget_tol=cfg.tolerances.equilibrium)


def _write_csv(path: Path, header: list, rows):
    """Write one CSV artifact; every CSV the commands write has this dialect."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def cmd_equilibrium(cfg: Config, args, out_dir: Path) -> int:
    result = _solved_equilibrium(cfg)
    if not cfg.bounds.degenerate:
        _say(
            args,
            f"note: priced at sigma={result.prior.sigma!r}; every volatility in "
            f"[{cfg.bounds.sigma_lo!r}, {cfg.bounds.sigma_hi!r}] supports a "
            "different equilibrium allocation",
        )
    _say(args, f"shadow value: {result.shadow!r}")
    _say(args, f"full-insurance variation: {result.clearing!r}")
    rows = []
    for i, name in enumerate(result.economy.names):
        c0 = float(result.consumption[i])
        a_i = float(result.alpha[i])
        rows.append((name, repr(a_i), repr(c0), repr(float(result.budget_residual[i]))))
        _say(args, f"agent {name}: weight={a_i!r} consumption={c0!r}")
    path = out_dir / "equilibrium.csv"
    _write_csv(path, ["agent", "weight", "consumption", "budget_residual"], rows)
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_implement(cfg: Config, args, out_dir: Path) -> int:
    verdict = check_implementability(_solved_equilibrium(cfg), tol=cfg.tolerances.mean_af)
    for v in verdict.agents:
        flag = "yes" if v.mean_af else "no"
        _say(args, f"agent {v.name}: gap={v.gap!r} mean-ambiguity-free: {flag}")
    _say(args, f"IMPLEMENTABLE: {'yes' if verdict.implementable else 'no'}")
    rows = [
        [v.name, repr(v.upper), repr(v.lower), repr(v.gap), "true" if v.mean_af else "false"]
        for v in verdict.agents
    ]
    path = out_dir / "implementability.csv"
    _write_csv(path, ["agent", "upper", "lower", "gap", "mean_af"], rows)
    _say(args, f"wrote {path}")
    return EXIT_OK


def _net_trade_expr(cfg: Config, agent_name: str):
    """Net trade of one agent as an exact expression: shadow * (c - endowment)."""
    result = _solved_equilibrium(cfg)
    names = result.economy.names
    if agent_name not in names:
        raise ValueError(f"no agent named {agent_name!r} in the configuration")
    i = names.index(agent_name)
    c0 = float(result.consumption[i])
    endowment = result.economy.agents[i].endowment
    return BinOp("*", Lit(result.shadow), BinOp("-", Lit(c0), endowment))


def cmd_replicate(cfg: Config, args, out_dir: Path) -> int:
    sigma = args.prior_sigma
    cfg.bounds.check_sigma(sigma, "--prior-sigma")
    if args.payoff is not None:
        expr = parse(args.payoff)
        label = None
    else:
        expr = _net_trade_expr(cfg, args.agent)
        label = args.agent

    hedge = hedge_field(expr, cfg.bounds, cfg.grid)
    paths = simulate_paths(
        ControlSpec.constant(sigma),
        cfg.bounds,
        cfg.mc.paths,
        cfg.mc.steps,
        seed=cfg.mc.seed,
        increments=cfg.mc.increments,
    )
    report = replicate(expr, hedge, paths)
    fixed_value = expectation(expr, cfg.bounds, cfg.grid, Mode.fixed(sigma))
    upper_minus_fixed = report.upper_value - fixed_value
    identity_gap = report.mean_k - upper_minus_fixed

    _say(args, f"payoff: {pretty_print(expr)}")
    _say(args, f"paths: {report.n_paths} ({report.n_excluded} excluded), steps {report.n_steps}")
    _say(args, f"upper value: {report.upper_value!r}")
    _say(args, f"mean replication gap: {report.mean_gap!r} (se {report.se_gap!r})")
    _say(args, f"mean compensator K_T: {report.mean_k!r} (se {report.se_k!r})")
    _say(args, f"upper value minus fixed-prior value: {upper_minus_fixed!r}")
    _say(args, f"compensator identity residual: {identity_gap!r}")
    _say(args, f"smallest compensator increment: {report.min_k_increment!r}")

    payload = report.to_dict()
    payload.update(
        {
            "agent": label,
            "payoff": pretty_print(expr),
            "prior_sigma": sigma,
            "fixed_value": fixed_value,
            "upper_minus_fixed": upper_minus_fixed,
            "identity_gap": identity_gap,
            "increments": cfg.mc.increments,
        }
    )
    path = out_dir / "replication.json"
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    _say(args, f"wrote {path}")
    return EXIT_OK


def cmd_probe(cfg: Config, args, out_dir: Path) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    economy = cfg.economy()
    perturbation = Perturbation(args.family, args.amplitude)
    result = genericity_probe(
        economy,
        n_samples=args.samples,
        perturbation=perturbation,
        seed=cfg.mc.seed,
        prior=cfg.require_prior(),
        tol=cfg.tolerances.mean_af,
        budget_tol=cfg.tolerances.equilibrium,
    )
    _say(
        args,
        f"samples: {result.n_samples} (solved {result.n_solved}, "
        f"solver failures {result.n_failed_solves})",
    )
    _say(args, f"failing implementability: {result.n_failing} of {result.n_solved}")
    _say(args, f"failing fraction: {result.fraction_failing!r}")
    _say(args, f"wilson 95% interval: [{result.wilson_low!r}, {result.wilson_high!r}]")
    rows = []
    for s in result.samples:
        if s.error is not None:
            outcome = ["", "error", s.error]
        else:
            outcome = [repr(s.gap_max), "true" if s.implementable else "false", ""]
        rows.append([s.index, s.seed, repr(s.center), repr(s.width), *outcome])
    path = out_dir / "probe.csv"
    _write_csv(path, ["index", "seed", "center", "width", "gap_max", "implementable", "error"], rows)
    _say(args, f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "eval": cmd_eval,
    "equilibrium": cmd_equilibrium,
    "implement": cmd_implement,
    "replicate": cmd_replicate,
    "probe": cmd_probe,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is None:
            parser.error("--config is required")
    except SystemExit as err:
        return int(err.code or 0)
    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # inputs whose values or marches leave the float range are bad input,
        # not inf or nan in a report
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[args.command](cfg, args, out_dir)
    except NonConstantEndowmentError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NONCONSTANT
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SIMULATION
    except ConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as err:  # load_config reports its own as ConfigError; these come from --out
        print(f"error: cannot write artifacts to --out {args.out}: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
