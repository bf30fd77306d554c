"""The benchmark's workloads: seeded inputs, one round of work, and checks.

Every workload drives knightian the way a user does: `knightian.cli.main`
called in-process on a generated configuration, plus the library calls the
acceptance gate makes.  It is a closed loop, one caller on one thread making
one call at a time.  A round is a fixed list of operations made from the
seed; rerunning a round repeats the same inputs, so its artifacts must come
out byte-identical.

* ``price``: 40 payoffs (the example payoff, ``x^2``, calls, puts, ramps,
  linear claims and random expression trees), each valued with ``eval`` in
  upper, lower and ``fixed --sigma`` mode on the example band and grid; some
  calls add ``--tree-steps 12``.  Dominated by per-call march, ``dsl`` and
  ``config`` work; no equilibrium or Monte Carlo work runs.
* ``economy``: ``equilibrium``, ``implement`` and 24 samples of
  ``probe --family bump --amplitude 0.1`` (8 calls of 3 samples, each call on
  its own seed) on the example economy.  Many small origin-only marches and
  the scalar shadow-value root finder.
* ``hedge``: ``replicate --agent a1 --prior-sigma 0.5`` at 100k paths x 512
  steps, then the extremal-control leg (``simulate_paths`` and ``replicate``
  at 20k x 256) through the library.  Almost all time is in ``replication``.
"""

import contextlib
import csv
import io
import json
import math
import random
import time
from pathlib import Path

EXAMPLE_PAYOFF = "min(exp(x), 1)"

# the economy of demos/example_config.json; the Monte Carlo block is set per workload
EXAMPLE_CONFIG = {
    "bounds": {"sigma_lo": 0.5, "sigma_hi": 1.0, "horizon": 1.0},
    "grid": {"x_min": -6.0, "x_max": 6.0, "nx": 401, "nt": 800},
    "agents": [
        {"name": "a1", "utility": {"kind": "log"}, "endowment": "min(exp(x), 1)"},
        {"name": "a2", "utility": {"kind": "log"}, "endowment": "1 - min(exp(x), 1)"},
    ],
    "pricing_prior": {"sigma": 1.0},
    "mc": {"paths": 20000, "steps": 256, "seed": 42, "increments": "binary"},
    "tolerances": {"mean_af": 0.001, "equilibrium": 1e-10},
}

SIZES = {
    "full": {
        "price_payoffs": 40,
        "probe_calls": 8,
        "probe_samples": 24,
        "hedge_paths": 100_000,
        "hedge_steps": 512,
        "extremal_paths": 20_000,
        "extremal_steps": 256,
    },
    # for the benchmark's own smoke test: every code path, seconds per round
    "tiny": {
        "price_payoffs": 4,
        "probe_calls": 2,
        "probe_samples": 2,
        "hedge_paths": 4000,
        "hedge_steps": 128,
        "extremal_paths": 2000,
        "extremal_steps": 64,
    },
}

# acceptance-gate tolerances (tests/test_acceptance.py)
CLOSED_FORM_TOL = 5e-3  # a1
TREE_TOL = 2e-2  # a5
A1_GAP_MIN = 0.078  # a2
BUDGET_TOL = 1e-6
FULL_INSURANCE_TOL = 1e-8
IDENTITY_SLACK = 5e-3  # a6: |identity residual| <= 3 se + slack
EXTREMAL_MEAN_K_TOL = 5e-3  # a6
# upper >= fixed >= lower and gap == upper - lower hold up to rounding
ORDER_SLACK = 1e-9


class Round:
    """What one round did: timed operations, failed checks, worst error."""

    def __init__(self):
        self.ops = []  # (label, seconds)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.max_abs_err = 0.0

    def op(self, label: str, fn):
        """Time one operation, fn(), and return its result."""
        t0 = time.perf_counter()
        result = fn()
        self.ops.append((label, time.perf_counter() - t0))
        return result

    def check(self, ok: bool, message: str):
        if not ok:
            self.failures.append(message)

    def error(self, value: float):
        self.max_abs_err = max(self.max_abs_err, abs(value))


def _cli(rnd: Round, transcript: list, label: str, argv: list):
    """Call the CLI in-process; return (exit code, stdout)."""
    from knightian.cli import main

    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return main(argv)

    code = rnd.op(label, call)
    rnd.attempted += 1
    if code != 0:
        rnd.failed += 1
    transcript.append(f"$ knightian {' '.join(argv)}\nexit {code}\n")
    transcript.append(out.getvalue() + err.getvalue())
    rnd.check(code == 0, f"{label}: exit code {code}: {err.getvalue().strip()}")
    return code, out.getvalue()


def _grab(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError(f"no line starting with {prefix!r}")


def _write_config(path: Path, mc: dict):
    cfg = json.loads(json.dumps(EXAMPLE_CONFIG))
    cfg["mc"].update(mc)
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# price


def _num(rng: random.Random, lo: float, hi: float) -> str:
    return f"({round(rng.uniform(lo, hi), 3)!r})"


def _random_tree(rng: random.Random, depth: int) -> str:
    """Random payoff text that evaluates finitely everywhere on the grid.

    No division, log or sqrt; exp only of a small multiple of x; powers only
    of tanh.
    """
    if depth == 0 or rng.random() < 0.3:
        return "x" if rng.random() < 0.5 else _num(rng, -2.0, 2.0)
    sub = lambda: _random_tree(rng, depth - 1)  # noqa: E731
    r = rng.random()
    if r < 0.20:
        return f"({sub()} + {sub()})"
    if r < 0.35:
        return f"({sub()} - {sub()})"
    if r < 0.50:
        return f"({_num(rng, -1.5, 1.5)} * {sub()})"
    if r < 0.58:
        return f"tanh({sub()})^{rng.randint(2, 3)}"
    if r < 0.66:
        return f"abs({sub()})"
    if r < 0.74:
        return f"tanh({sub()})"
    if r < 0.84:
        return f"min({sub()}, {sub()})"
    if r < 0.94:
        return f"max({sub()}, {sub()})"
    return f"exp({_num(rng, -0.5, 0.5)} * x)"


def _price_payoff(rng: random.Random, bounds: dict):
    """One payoff: (text, closed form by mode or None, tree-checkable)."""
    lo, hi, horizon = bounds["sigma_lo"], bounds["sigma_hi"], bounds["horizon"]
    family = rng.choices(
        ["example", "square", "linear", "call", "put", "ramp", "tree"],
        weights=[2, 1, 1, 1, 1, 1, 3],
    )[0]
    if family == "example":
        def capped_exp(s):
            return 0.5 + math.exp(0.5 * s * s * horizon) * _normal_cdf(-s * math.sqrt(horizon))

        return EXAMPLE_PAYOFF, {"fixed": capped_exp}, True
    if family == "square":
        return "x^2", {
            "upper": lambda s: hi * hi * horizon,
            "lower": lambda s: lo * lo * horizon,
            "fixed": lambda s: s * s * horizon,
        }, True
    if family == "linear":
        a = round(rng.uniform(-1.0, 1.0), 3)
        b = round(rng.uniform(-1.0, 1.0), 3)
        value = lambda s: a  # noqa: E731
        return f"({a!r}) + ({b!r}) * x", dict.fromkeys(("upper", "lower", "fixed"), value), True
    if family == "call":
        return f"max(x - {_num(rng, -1.0, 1.0)}, 0)", None, True
    if family == "put":
        return f"max({_num(rng, -1.0, 1.0)} - x, 0)", None, True
    if family == "ramp":
        return f"min(max((x - {_num(rng, -1.0, 1.0)}) / {_num(rng, 0.5, 1.5)}, 0), 1)", None, True
    # lattice error on arbitrary trees is not bounded by the a5 tolerance
    return _random_tree(rng, 4), None, False


def prepare_price(seed: int, size: dict, workdir: Path) -> dict:
    _write_config(workdir / "config.json", {"seed": seed})
    rng = random.Random(seed)
    bounds = EXAMPLE_CONFIG["bounds"]
    groups = []
    for _ in range(size["price_payoffs"]):
        text, closed, tree_ok = _price_payoff(rng, bounds)
        sigma = round(rng.uniform(bounds["sigma_lo"], bounds["sigma_hi"]), 4)
        tree_mode = None
        if tree_ok and rng.random() < 0.5:
            tree_mode = rng.choice(["upper", "lower", "fixed"])
        groups.append({"payoff": text, "closed": closed, "sigma": sigma, "tree_mode": tree_mode})
    return {"groups": groups}


def run_price(state: dict, rnd: Round, out: Path):
    transcript = []
    for g in state["groups"]:
        values = {}
        for mode in ("upper", "lower", "fixed"):
            argv = ["--config", "config.json", "eval", g["payoff"], "--mode", mode]
            if mode == "fixed":
                argv += ["--sigma", repr(g["sigma"])]
            if g["tree_mode"] == mode:
                argv += ["--tree-steps", "12"]
            code, stdout = _cli(rnd, transcript, f"eval {mode}", argv)
            if code != 0:
                continue
            value = float(_grab(stdout, "expectation:"))
            gap = float(_grab(stdout, "ambiguity gap:").split()[0])
            values[mode] = (value, gap)
            where = f"eval {mode} {g['payoff']!r}"
            if g["tree_mode"] == mode:
                tree = float(_grab(stdout, "tree cross-check (steps=12):"))
                miss = abs(value - tree)
                rnd.check(miss <= TREE_TOL, f"{where}: |pde - tree| = {miss!r}")
            if g["closed"] and mode in g["closed"]:
                err = value - g["closed"][mode](g["sigma"])
                rnd.error(err)
                rnd.check(abs(err) <= CLOSED_FORM_TOL, f"{where}: closed-form error {err!r}")
        if len(values) == 3:
            up, lo, fx = values["upper"][0], values["lower"][0], values["fixed"][0]
            slack = ORDER_SLACK * max(1.0, abs(up), abs(lo))
            rnd.check(
                up >= fx - slack and fx >= lo - slack,
                f"{g['payoff']!r}: upper {up!r} >= fixed {fx!r} >= lower {lo!r} fails",
            )
            for mode, (_, gap) in values.items():
                rnd.check(
                    abs(gap - (up - lo)) <= slack,
                    f"{g['payoff']!r} ({mode}): gap {gap!r} != upper - lower {up - lo!r}",
                )
    (out / "transcript.txt").write_text("".join(transcript))


# ---------------------------------------------------------------------------
# economy


def prepare_economy(seed: int, size: dict, workdir: Path) -> dict:
    _write_config(workdir / "config.json", {"seed": seed})
    # the probe runs as several short calls, each on its own sample stream
    calls = size["probe_calls"]
    for j in range(calls):
        _write_config(workdir / f"probe-{j}.json", {"seed": calls * seed + j})
    return {
        "calls": calls,
        "samples": size["probe_samples"] // calls,
        "tol": EXAMPLE_CONFIG["tolerances"]["mean_af"],
    }


def _csv_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_economy(state: dict, rnd: Round, out: Path):
    transcript = []
    base = ["--config", "config.json", "--out", str(out)]

    code, stdout = _cli(rnd, transcript, "equilibrium", base + ["equilibrium"])
    if code == 0:
        variation = float(_grab(stdout, "full-insurance variation:"))
        rnd.check(variation <= FULL_INSURANCE_TOL, f"full-insurance variation {variation!r}")
        for row in _csv_rows(out / "equilibrium.csv"):
            resid = float(row["budget_residual"])
            rnd.error(resid)
            rnd.check(abs(resid) <= BUDGET_TOL, f"agent {row['agent']}: budget residual {resid!r}")

    code, stdout = _cli(rnd, transcript, "implement", base + ["implement"])
    if code == 0:
        rnd.check("IMPLEMENTABLE: no" in stdout, "the example economy must not be implementable")
        gaps = {row["agent"]: float(row["gap"]) for row in _csv_rows(out / "implementability.csv")}
        rnd.check(gaps.get("a1", -1.0) >= A1_GAP_MIN, f"a1 gap {gaps.get('a1')!r} < {A1_GAP_MIN}")

    probe = ["probe", "--samples", str(state["samples"]), "--family", "bump", "--amplitude", "0.1"]
    for j in range(state["calls"]):
        where = out / f"probe-{j}"
        argv = ["--config", f"probe-{j}.json", "--out", str(where), *probe]
        code, _ = _cli(rnd, transcript, "probe", argv)
        if code != 0:
            continue
        rows = _csv_rows(where / "probe.csv")
        rnd.check(len(rows) == state["samples"], f"probe wrote {len(rows)} rows")
        for row in rows:
            rnd.attempted += 1
            if row["implementable"] == "error":
                rnd.failed += 1
                continue
            breaks = float(row["gap_max"]) > state["tol"]
            rnd.check(
                (row["implementable"] == "false") == breaks,
                f"probe {j} sample {row['index']}: implementable {row['implementable']} "
                f"with gap {row['gap_max']}",
            )
    (out / "transcript.txt").write_text("".join(transcript))


# ---------------------------------------------------------------------------
# hedge


def prepare_hedge(seed: int, size: dict, workdir: Path) -> dict:
    mc = {"paths": size["hedge_paths"], "steps": size["hedge_steps"], "seed": seed}
    _write_config(workdir / "config.json", mc)
    return {"seed": seed, "paths": size["extremal_paths"], "steps": size["extremal_steps"]}


def _check_min_increment(rnd: Round, where: str, report: dict):
    smallest = report["min_k_increment"]
    rnd.check(smallest >= 0.0, f"{where}: min K increment {smallest!r}")


def run_hedge(state: dict, rnd: Round, out: Path):
    from knightian import ControlSpec, GridSpec, SimulationError, VolBounds
    from knightian import hedge_field, parse, replicate, simulate_paths

    transcript = []
    argv = ["--config", "config.json", "--out", str(out)]
    argv += ["replicate", "--agent", "a1", "--prior-sigma", "0.5"]
    code, _ = _cli(rnd, transcript, "replicate", argv)
    if code == 0:
        report = json.loads((out / "replication.json").read_text())
        _check_min_increment(rnd, "replicate", report)
        gap, bound = report["identity_gap"], 3.0 * report["se_k"] + IDENTITY_SLACK
        rnd.error(gap)
        rnd.check(abs(gap) <= bound, f"replicate: identity residual {gap!r} > {bound!r}")

    # the acceptance gate's extremal leg: adversarial volatility, no compensator
    bounds = VolBounds(**EXAMPLE_CONFIG["bounds"])
    grid = GridSpec(**EXAMPLE_CONFIG["grid"])
    payoff = parse(EXAMPLE_PAYOFF)

    def extremal_leg():
        try:
            hedge = hedge_field(payoff, bounds, grid)
            control = ControlSpec.extremal(hedge)
            paths = simulate_paths(control, bounds, state["paths"], state["steps"], seed=state["seed"])
            return replicate(payoff, hedge, paths).to_dict()
        except (SimulationError, ValueError, ArithmeticError) as err:
            rnd.check(False, f"extremal leg: {err}")
            return None

    report = rnd.op("extremal", extremal_leg)
    rnd.attempted += 1
    if report is None:
        rnd.failed += 1
    else:
        _check_min_increment(rnd, "extremal", report)
        rnd.error(report["mean_k"])
        rnd.check(
            abs(report["mean_k"]) <= EXTREMAL_MEAN_K_TOL,
            f"extremal: mean K_T {report['mean_k']!r}",
        )
        (out / "extremal.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    (out / "transcript.txt").write_text("".join(transcript))


WORKLOADS = {
    "price": (prepare_price, run_price),
    "economy": (prepare_economy, run_economy),
    "hedge": (prepare_hedge, run_hedge),
}
