"""End-to-end command-line checks, run in process via main()."""

import contextlib
import csv
import hashlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knightian import (
    LOWER,
    UPPER,
    ConfigError,
    ControlSpec,
    Mode,
    Tolerances,
    expectation,
    gexp,
    implementability,
    load_config,
    mean_ambiguity_gap,
    parse,
    simulate_paths,
)
from knightian.cli import main

from helpers import BAND, capped_exp_value, write_config


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    write_config(root / "cfg.json")
    return root


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grab(out: str, prefix: str) -> str:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise AssertionError(f"no line starting with {prefix!r} in:\n{out}")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestEval:
    def test_fixed_matches_closed_form(self, ws, capsys):
        code, out, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"),
            "eval", "min(exp(x), 1)", "--mode", "fixed", "--sigma", "1.0",
        )
        assert code == 0
        value = float(grab(out, "expectation:"))
        assert value == pytest.approx(capped_exp_value(1.0), abs=5e-3)
        assert "mean-ambiguity-free: no" in out

    @pytest.mark.parametrize(
        "argv, mode, columns",
        [
            (["--mode", "fixed", "--sigma", "0.75"], Mode.fixed(0.75), 3),
            (["--mode", "upper"], UPPER, 2),
            (["--mode", "lower"], LOWER, 2),
        ],
        ids=["fixed", "upper", "lower"],
    )
    def test_one_march_per_call(self, ws, capsys, monkeypatch, argv, mode, columns):
        """The gap's upper and lower columns, and a fixed sigma's, ride in one march."""
        calls = []
        march = gexp._march

        def counting_march(term, bounds, grid, modes, *args):
            calls.append(len(modes))
            return march(term, bounds, grid, modes, *args)

        monkeypatch.setattr(gexp, "_march", counting_march)
        payoff = "min(exp(x), 1)"
        code, out, _ = run(capsys, "--config", str(ws / "cfg.json"), "eval", payoff, *argv)
        assert code == 0
        assert calls == [columns]
        cfg = load_config(ws / "cfg.json")
        expr = parse(payoff)
        assert grab(out, "expectation:") == repr(expectation(expr, cfg.bounds, cfg.grid, mode))
        gap = mean_ambiguity_gap(expr, cfg.bounds, cfg.grid, cfg.tolerances.mean_af)
        assert grab(out, "ambiguity gap:").startswith(f"{gap.gap!r} (mean-ambiguity-free: no,")

    def test_global_flags_position_free(self, ws, capsys):
        cfg = str(ws / "cfg.json")
        code1, out1, _ = run(capsys, "--config", cfg, "eval", "x", "--mode", "lower")
        code2, out2, _ = run(capsys, "eval", "x", "--mode", "lower", "--config", cfg)
        assert code1 == code2 == 0
        assert out1 == out2
        assert abs(float(grab(out1, "expectation:"))) < 1e-10

    def test_tree_cross_check_line(self, ws, capsys):
        code, out, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"),
            "eval", "min(exp(x), 1)", "--tree-steps", "8",
        )
        assert code == 0
        pde = float(grab(out, "expectation:"))
        tree = float(grab(out, "tree cross-check (steps=8):"))
        assert tree == pytest.approx(pde, abs=5e-2)

    def test_tree_cross_check_of_large_payoff(self, ws, capsys):
        # the march prices this payoff, and so does the tree: its averages
        # cannot overflow where every lattice value is finite
        code, out, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"),
            "eval", "1.7e308 - 1e300*x", "--tree-steps", "6",
        )
        assert code == 0
        assert float(grab(out, "tree cross-check (steps=6):")) == pytest.approx(1.7e308, rel=1e-12)

    def test_parse_error_exit(self, ws, capsys):
        code, _, err = run(capsys, "--config", str(ws / "cfg.json"), "eval", "min(exp(x)")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "payoff",
        ["(" * 3000 + "x" + ")" * 3000, "x" + "+x" * 5000, "1e999"],
        ids=["nested-brackets", "long-chain", "overflowing-literal"],
    )
    def test_unparseable_payoff_exit(self, ws, capsys, payoff):
        code, out, err = run(capsys, "--config", str(ws / "cfg.json"), "eval", payoff)
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_long_exponent_names_its_offset(self, ws, capsys):
        # past int()'s limit on digits: a parse error at the exponent, not a bare ValueError
        code, out, err = run(capsys, "--config", str(ws / "cfg.json"), "eval", "x^" + "9" * 5000)
        assert code == 2
        assert err == "error: exponent of 5000 digits is too long (offset 2)\n"
        assert out == ""

    @pytest.mark.parametrize(
        "payoff",
        ["min(1e300*1e300, 1) + x", "min(1e300^2, 1) + x", "min(x*1e300*1e300, 1)"],
        ids=["constant-product", "constant-power", "product-with-x"],
    )
    def test_overflowing_payoff_exit(self, ws, capsys, payoff):
        # a constant that overflows is bad input like an overflow at a node
        code, out, err = run(capsys, "--config", str(ws / "cfg.json"), "eval", payoff)
        assert code == 2
        assert err.startswith("error: overflow encountered in ")
        assert err.count("\n") == 1
        assert out == ""

    def test_fixed_needs_sigma(self, ws, capsys):
        code, _, err = run(
            capsys, "--config", str(ws / "cfg.json"), "eval", "x", "--mode", "fixed"
        )
        assert code == 2
        assert "--sigma" in err

    def test_sigma_rejected_outside_fixed(self, ws, capsys):
        code, _, _ = run(
            capsys, "--config", str(ws / "cfg.json"), "eval", "x", "--sigma", "0.7"
        )
        assert code == 2


# every number a configuration holds: the section its error names, and the
# keys down to it
NUMERIC_FIELDS = [
    ("bounds", ("bounds", "sigma_lo")),
    ("bounds", ("bounds", "sigma_hi")),
    ("bounds", ("bounds", "horizon")),
    ("grid", ("grid", "x_min")),
    ("grid", ("grid", "x_max")),
    ("grid", ("grid", "nx")),
    ("grid", ("grid", "nt")),
    ("pricing_prior", ("pricing_prior", "sigma")),
    ("mc", ("mc", "paths")),
    ("mc", ("mc", "steps")),
    ("mc", ("mc", "seed")),
    ("tolerances", ("tolerances", "mean_af")),
    ("tolerances", ("tolerances", "equilibrium")),
    ("agents[0]", ("agents", 0, "utility", "gamma")),
    ("agents[1]", ("agents", 1, "utility", "a")),
]
# raw JSON values; 41.5 is refused by counts and by fields whose range excludes it
CORPUS_VALUES = [
    '"1.0"', "true", "null", "[1]", "{}", "Infinity", "-Infinity", "NaN", "1e400", "1" + "0" * 400,
    "41.5",
]
CORPUS_IDS = [
    "string", "true", "null", "list", "object", "inf", "-inf", "nan", "1e400", "400-digits", "41.5",
]
# fields that take 41.5 (None), or whose band at 41.5 the grid's refusal names
AT_41_5 = dict.fromkeys(["horizon", "x_max", "mean_af", "equilibrium", "gamma", "a"])
AT_41_5["sigma_hi"] = "grid"


def corpus_config(ws, keys, raw):
    """The test config with agents that take `gamma` and `a`, and the raw
    JSON text `raw` at `keys`."""
    agents = [
        {"name": "a1", "utility": {"kind": "power", "gamma": 2.0}, "endowment": "min(exp(x), 1)"},
        {"name": "a2", "utility": {"kind": "exp", "a": 1.0}, "endowment": "1 - min(exp(x), 1)"},
    ]
    path = write_config(ws / "corpus.json", agents=agents)
    cfg = json.loads(path.read_text())
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = "<raw>"
    path.write_text(json.dumps(cfg).replace('"<raw>"', raw))
    return path


class TestConfigHandling:
    def test_config_flag_required(self, capsys):
        code, _, err = run(capsys, "eval", "x")
        assert code == 2
        assert "--config is required" in err

    def test_missing_file(self, ws, capsys):
        code, _, err = run(capsys, "--config", str(ws / "nope.json"), "eval", "x")
        assert code == 2
        assert "error:" in err

    def test_malformed_json(self, ws, capsys):
        bad = ws / "bad.json"
        bad.write_text("{ not json")
        code, _, _ = run(capsys, "--config", str(bad), "eval", "x")
        assert code == 2

    def test_unknown_key_rejected(self, ws, capsys):
        write_config(ws / "junk.json", junk=1)
        code, _, err = run(capsys, "--config", str(ws / "junk.json"), "eval", "x")
        assert code == 2
        assert "junk" in err

    @pytest.mark.parametrize(
        "section, values, field",
        [
            ("grid", {"x_min": -6.0, "x_max": 6.0, "nx": 41.9, "nt": 800}, "nx"),
            ("mc", {"paths": 50.7, "steps": 16, "seed": 1}, "paths"),
            ("bounds", {"sigma_lo": 0.5, "sigma_hi": 1.0, "horizon": float("inf")}, "horizon"),
            ("tolerances", {"mean_af": float("inf"), "equilibrium": 1e-10}, "mean_af"),
            ("tolerances", {"mean_af": 0, "equilibrium": 1e-10}, "mean_af"),
            ("tolerances", {"mean_af": 0.001, "equilibrium": -1e-10}, "equilibrium"),
        ],
    )
    def test_non_integral_or_non_finite_rejected(self, ws, capsys, section, values, field):
        cfg = write_config(ws / f"bad_{section}.json", **{section: values})
        code, out, err = run(capsys, "--config", str(cfg), "eval", "min(exp(x),1)")
        assert code == 2
        assert field in err
        assert "gap" not in out

    @pytest.mark.parametrize(
        "section, overrides",
        [
            ("bounds", {"bounds": {"sigma_lo": 0.5, "sigma_hi": 1e300, "horizon": 1.0}}),
            ("grid", {"grid": {"x_min": -1e-200, "x_max": 1e-200, "nx": 401, "nt": 800}}),
            ("grid", {"grid": {"x_min": -1e308, "x_max": 1e308, "nx": 401, "nt": 800}}),
            # no grid: the default grid's spacing 1.5e298 squares past the range
            ("grid", {"bounds": {"sigma_lo": 1, "sigma_hi": 1e150, "horizon": 1e300}, "grid": None}),
            ("grid", {"grid": {"x_min": -6.0, "x_max": 6.0, "nx": 10**400, "nt": 40}}),
        ],
        ids=[
            "sigma_hi-squared-overflows",
            "spacing-squared-underflows",
            "span-overflows",
            "default-spacing-squared-overflows",
            "nx-past-float-range",
        ],
    )
    def test_band_or_grid_out_of_float_range_names_its_section(
        self, ws, capsys, section, overrides
    ):
        cfg = write_config(ws / f"range_{section}.json", **overrides)
        code, _, err = run(capsys, "--config", str(cfg), "eval", "x")
        assert code == 2
        assert err.startswith(f"error: {section}: "), err

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
    @pytest.mark.parametrize("field", ["mean_af", "equilibrium"])
    def test_tolerances_built_in_code_checked(self, field, bad):
        """The library's tolerance rule holds for a Tolerances built in code too."""
        with pytest.raises(ConfigError, match=f"{field} must be finite and positive"):
            Tolerances(**{field: bad})

    def test_integral_floats_accepted(self, ws, capsys):
        cfg = write_config(
            ws / "floats.json",
            grid={"x_min": -6.0, "x_max": 6.0, "nx": 201.0, "nt": 400.0},
            mc={"paths": 1e3, "steps": 16.0, "seed": 3.0},
        )
        code, _, _ = run(capsys, "--config", str(cfg), "eval", "x")
        assert code == 0

    @pytest.mark.parametrize(
        "mc, message",
        [
            ({"paths": 10, "steps": 10**12}, "per-chunk budget"),
            ({"paths": 1e7, "steps": 1e12}, "per-chunk budget"),
            ({"paths": 2**32, "steps": 4}, "substreams"),
            ({"paths": 2**32 - 1, "steps": 4}, "memory budget"),
            ({"paths": 2**24 + 1, "steps": 4}, "memory budget"),
        ],
    )
    def test_oversized_monte_carlo_rejected_at_load(self, ws, capsys, mc, message):
        cfg = write_config(ws / "huge.json", mc=mc)
        code, _, err = run(
            capsys, "--config", str(cfg), "replicate", "--payoff", "x", "--prior-sigma", "0.5"
        )
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("nx, nt", [(8001, 100000), (10**6, 10**6)])
    def test_oversized_grid_rejected_at_load(self, ws, capsys, nx, nt):
        grid = {"x_min": -6.0, "x_max": 6.0, "nx": nx, "nt": nt}
        cfg = write_config(ws / "huge_grid.json", grid=grid)
        code, out, err = run(capsys, "--config", str(cfg), "eval", "x")
        assert code == 2
        assert "budget" in err
        assert out == ""

    @pytest.mark.parametrize(
        "section, values, field",
        [
            ("mc", {"paths": True, "steps": 16, "seed": 1}, "paths"),
            ("mc", {"paths": 100, "steps": True, "seed": 1}, "steps"),
            ("mc", {"paths": 100, "steps": 16, "seed": True}, "seed"),
            ("grid", {"x_min": -6.0, "x_max": 6.0, "nx": "401", "nt": 800}, "nx"),
            ("bounds", {"sigma_lo": 0.5, "sigma_hi": "1.0", "horizon": 1.0}, "sigma_hi"),
            ("tolerances", {"mean_af": "0.001", "equilibrium": 1e-10}, "mean_af"),
            ("pricing_prior", {"sigma": "1.0"}, "sigma"),
            (
                "agents",
                [
                    {"name": "a1", "utility": {"kind": "power", "gamma": "2"}, "endowment": "0.5"},
                    {"name": "a2", "utility": {"kind": "log"}, "endowment": "0.5"},
                ],
                "gamma",
            ),
        ],
        ids=["paths", "steps", "seed", "nx", "sigma_hi", "mean_af", "prior-sigma", "gamma"],
    )
    def test_non_number_rejected(self, ws, capsys, section, values, field):
        cfg = write_config(ws / f"typed_{section}.json", **{section: values})
        code, out, err = run(capsys, "--config", str(cfg), "eval", "x")
        assert code == 2
        # the field's own type judges it, in the library's wording
        kind = "an integer" if field in ("paths", "steps", "seed", "nx") else "a real number"
        assert err.startswith(f"error: {section}"), err
        assert f"{field} must be {kind}, got " in err
        assert out == ""

    @pytest.mark.parametrize("raw", CORPUS_VALUES, ids=CORPUS_IDS)
    @pytest.mark.parametrize("section, keys", NUMERIC_FIELDS, ids=[k[-1] for _, k in NUMERIC_FIELDS])
    def test_numeric_field_corpus(self, ws, section, keys, raw):
        """Every number in the file is judged by its type, and a value it
        refuses leaves as a ConfigError naming the section, never as
        another exception."""
        cfg = corpus_config(ws, keys, raw)
        if raw == "41.5":
            section = AT_41_5.get(keys[-1], section)
        if section is None:
            load_config(cfg)
            return
        with pytest.raises(ConfigError) as caught:
            load_config(cfg)
        assert str(caught.value).startswith(section), caught.value

    @pytest.mark.parametrize("name", ["gamma", "a"])
    def test_null_utility_parameter_rejected(self, ws, name):
        # a null parameter is not one left out: a log agent takes neither
        cfg = corpus_config(ws, ("agents", 0, "utility"), json.dumps({"kind": "log", name: None}))
        with pytest.raises(ConfigError, match=rf"^agents\[0\]\.utility\.{name} must not be null"):
            load_config(cfg)

    @pytest.mark.parametrize(
        "keys, raw, read, expected",
        [
            (("grid", "nx"), "41.0", lambda c: c.grid.nx, 41),
            (("mc", "paths"), "1e3", lambda c: c.mc.paths, 1000),
            (("mc", "seed"), "7.0", lambda c: c.mc.seed, 7),
            (("bounds", "sigma_hi"), "1", lambda c: c.bounds.sigma_hi, 1.0),
            (("tolerances", "mean_af"), "1", lambda c: c.tolerances.mean_af, 1.0),
            (("agents", 0, "utility", "gamma"), "3", lambda c: c.agents[0].utility.gamma, 3.0),
        ],
        ids=["nx", "paths", "seed", "sigma_hi", "mean_af", "gamma"],
    )
    def test_integral_json_numbers_load_as_their_type(self, ws, keys, raw, read, expected):
        value = read(load_config(corpus_config(ws, keys, raw)))
        assert value == expected
        assert type(value) is type(expected)

    def test_integer_past_json_digit_limit_is_a_config_error(self, ws, capsys):
        # json.load raises a plain ValueError, not a JSONDecodeError, for it
        cfg = corpus_config(ws, ("grid", "nx"), "1" + "0" * 5000)
        with pytest.raises(ConfigError):
            load_config(cfg)
        code, out, err = run(capsys, "--config", str(cfg), "eval", "x")
        assert code == 2
        assert err.startswith("error: configuration"), err
        assert out == ""

    @pytest.mark.parametrize(
        "key, value",
        [
            ("name", None),
            ("name", 5),
            ("name", True),
            ("name", {}),
            ("name", ""),
            ("endowment", 1),
            ("endowment", None),
            ("endowment", [1]),
        ],
        ids=[
            "name-null",
            "name-5",
            "name-true",
            "name-object",
            "name-empty",
            "endowment-1",
            "endowment-null",
            "endowment-list",
        ],
    )
    def test_non_string_agent_field_rejected(self, ws, capsys, key, value):
        agents = [
            {"name": "a1", "utility": {"kind": "log"}, "endowment": "min(exp(x), 1)"},
            {"name": "a2", "utility": {"kind": "log"}, "endowment": "1 - min(exp(x), 1)"},
        ]
        agents[1][key] = value
        cfg = write_config(ws / "typed_agent.json", agents=agents)
        out_dir = ws / "typed_agent"
        code, out, err = run(capsys, "--config", str(cfg), "--out", str(out_dir), "equilibrium")
        assert code == 2
        assert f"agents[1].{key} must be a" in err
        assert out == ""
        assert not (out_dir / "equilibrium.csv").exists()

    @pytest.mark.parametrize(
        "where, agent, mc",
        [
            ("mc.increments", {}, {"increments": ""}),
            ("agents[1].utility.kind", {"utility": {"kind": ""}}, {}),
            ("agents[1].endowment", {"endowment": ""}, {}),
        ],
        ids=["increments", "utility-kind", "endowment"],
    )
    def test_empty_string_rejected(self, ws, capsys, where, agent, mc):
        agents = [
            {"name": "a1", "utility": {"kind": "log"}, "endowment": "min(exp(x), 1)"},
            {"name": "a2", "utility": {"kind": "log"}, "endowment": "1 - min(exp(x), 1)"},
        ]
        agents[1].update(agent)
        cfg = write_config(ws / "empty_string.json", agents=agents, mc=mc)
        code, out, err = run(capsys, "--config", str(cfg), "eval", "x")
        assert code == 2
        assert err == f"error: {where} must be a non-empty string, got ''\n"
        assert out == ""

    def test_over_budget_march_rejected_at_load(self, ws, capsys, monkeypatch):
        # 3 nodes and 3,000,000 time steps fit the memory budget, but the
        # march would run 3,000,000 sub-steps: minutes of work
        grid = {"x_min": -6.0, "x_max": 6.0, "nx": 3, "nt": 3_000_000}
        cfg = write_config(ws / "long_march.json", grid=grid)

        def no_march(*args, **kwargs):
            raise AssertionError("the march started")

        monkeypatch.setattr(gexp, "_march", no_march)
        code, out, err = run(capsys, "--config", str(cfg), "eval", "x")
        assert code == 2
        assert "work budget" in err
        assert "nt=3000000" in err and "nx=3" in err and "m=1" in err
        assert out == ""

    @pytest.mark.parametrize(
        "utility",
        [
            {"kind": "log", "gamma": 2.0},
            {"kind": "power", "gamma": 2.0, "a": 1.0},
            {"kind": "exp", "a": 1.0, "gamma": 3.0},
        ],
        ids=["log-gamma", "power-a", "exp-gamma"],
    )
    def test_parameter_foreign_to_utility_kind_rejected(self, ws, capsys, utility):
        agents = [
            {"name": "a1", "utility": {"kind": "log"}, "endowment": "min(exp(x), 1)"},
            {"name": "a2", "utility": utility, "endowment": "1 - min(exp(x), 1)"},
        ]
        cfg = write_config(ws / "foreign_parameter.json", agents=agents)
        out_dir = ws / "foreign_parameter"
        code, out, err = run(capsys, "--config", str(cfg), "--out", str(out_dir), "equilibrium")
        assert code == 2
        assert f"agents[1].utility: {utility['kind']} utility takes no" in err
        assert out == ""
        assert not (out_dir / "equilibrium.csv").exists()

    @pytest.mark.parametrize(
        "section, key, where",
        [
            ("bounds", "sigma_lo", "bounds"),
            ("grid", "nx", "grid"),
            ("pricing_prior", "sigma", "pricing_prior"),
            ("agents", "kind", "agents[0].utility"),
        ],
    )
    def test_missing_key_named(self, ws, capsys, section, key, where):
        raw = json.loads(write_config(ws / "missing_key.json").read_text())
        values = raw[section][0]["utility"] if section == "agents" else raw[section]
        del values[key]
        cfg = ws / "missing_key.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, "--config", str(cfg), "eval", "x")
        assert code == 2
        assert f"{where} needs '{key}'" in err
        assert out == ""

    def test_out_directory_created(self, ws, capsys):
        out_dir = ws / "made" / "deep"
        code, _, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "--out", str(out_dir),
            "equilibrium",
        )
        assert code == 0
        assert (out_dir / "equilibrium.csv").exists()

    @pytest.mark.parametrize(
        "out", ["file", "file/sub", "blocked"], ids=["a-file", "under-a-file", "artifact-is-a-directory"]
    )
    def test_unusable_out_exits_2(self, ws, capsys, out):
        (ws / "file").write_text("")
        (ws / "blocked" / "equilibrium.csv").mkdir(parents=True, exist_ok=True)
        out_dir = ws / out
        code, stdout, err = run(
            capsys, "--config", str(ws / "cfg.json"), "--out", str(out_dir), "--quiet", "equilibrium"
        )
        assert (code, stdout) == (2, "")
        assert err.startswith(f"error: cannot write artifacts to --out {out_dir}: ")
        assert err.count("\n") == 1, err


class TestEquilibrium:
    def test_artifacts_and_values(self, ws, capsys):
        out_dir = ws / "eq"
        code, out, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "--out", str(out_dir),
            "equilibrium",
        )
        assert code == 0
        # a non-degenerate band means the chosen prior is one of many
        assert "note:" in out
        assert float(grab(out, "full-insurance variation:")) < 1e-8
        rows = read_csv(out_dir / "equilibrium.csv")
        assert rows[0] == ["agent", "weight", "consumption", "budget_residual"]
        assert [r[0] for r in rows[1:]] == ["a1", "a2"]
        c1 = float(rows[1][2])
        assert c1 == pytest.approx(capped_exp_value(1.0), abs=2e-3)
        assert all(abs(float(r[3])) < 1e-6 for r in rows[1:])

    def test_quiet_suppresses_stdout(self, ws, capsys):
        out_dir = ws / "eq_quiet"
        code, out, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "--out", str(out_dir),
            "equilibrium", "--quiet",
        )
        assert code == 0
        assert out == ""
        assert (out_dir / "equilibrium.csv").exists()

    def test_boundary_attraction_exit(self, ws, capsys):
        write_config(
            ws / "boundary.json",
            agents=[
                {"name": "a1", "utility": {"kind": "log"}, "endowment": "0.0000000001"},
                {"name": "a2", "utility": {"kind": "log"}, "endowment": "1"},
            ],
        )
        code, _, err = run(capsys, "--config", str(ws / "boundary.json"), "equilibrium")
        assert code == 4
        assert "error:" in err

    def test_underflowing_marginal_utility_exit(self, ws, capsys):
        exp_agents = [
            {"name": "a1", "utility": {"kind": "exp", "a": 2000}, "endowment": "min(exp(x), 1)"},
            {"name": "a2", "utility": {"kind": "exp", "a": 2000}, "endowment": "1 - min(exp(x), 1)"},
        ]
        write_config(ws / "exp2000.json", agents=exp_agents)
        code, _, err = run(capsys, "--config", str(ws / "exp2000.json"), "equilibrium")
        assert code == 4
        assert "simplex boundary" in err

    def test_tolerance_bounds_budget_check(self, ws, capsys):
        # priced at sigma 0.5 the kernel's mass defect gives the example a
        # budget residual of about 3e-16; a tighter tolerances.equilibrium
        # makes the cross-check fail
        write_config(
            ws / "strict.json",
            pricing_prior={"sigma": 0.5},
            tolerances={"mean_af": 0.001, "equilibrium": 1e-300},
        )
        code, _, err = run(capsys, "--config", str(ws / "strict.json"), "equilibrium")
        assert code == 4
        assert "PDE budget check disagrees with the closed form" in err


class TestImplement:
    def test_example_fails(self, ws, capsys):
        out_dir = ws / "impl"
        code, out, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "--out", str(out_dir),
            "implement",
        )
        assert code == 0
        assert "IMPLEMENTABLE: no" in out
        rows = read_csv(out_dir / "implementability.csv")
        assert rows[0] == ["agent", "upper", "lower", "gap", "mean_af"]
        gaps = {r[0]: float(r[3]) for r in rows[1:]}
        assert gaps["a1"] >= 0.088 - 1e-2
        assert gaps["a2"] >= 0.088 - 1e-2
        assert all(r[4] == "false" for r in rows[1:])

    def test_constant_split_passes(self, ws, capsys):
        write_config(
            ws / "const.json",
            agents=[
                {"name": "a1", "utility": {"kind": "log"}, "endowment": "0.6"},
                {"name": "a2", "utility": {"kind": "log"}, "endowment": "0.4"},
            ],
        )
        out_dir = ws / "impl_const"
        code, out, _ = run(
            capsys,
            "--config", str(ws / "const.json"), "--out", str(out_dir),
            "implement",
        )
        assert code == 0
        assert "IMPLEMENTABLE: yes" in out
        rows = read_csv(out_dir / "implementability.csv")
        assert all(abs(float(r[3])) <= 1e-8 for r in rows[1:])


    @pytest.mark.parametrize("sigma", [0.5, 0.75, 1.0])
    @pytest.mark.parametrize("scale", ["1e3", "1e6", "1e7"])
    def test_large_aggregate_accepted(self, ws, capsys, scale, sigma):
        # an aggregate of up to 1e7: the prices miss it by an ulp, which the
        # solver accepts, and so must the net trades.  Each budget residual
        # shadow * p_i * (sum(w) - 1) is in the economy's units (8.1e-10 at
        # 1e7 and sigma 0.5), so the budget check, like clearing, is relative
        exp_agents = [
            {"name": "a1", "utility": {"kind": "exp", "a": 1e-7}, "endowment": f"{scale} * min(exp(x), 1)"},
            {
                "name": "a2",
                "utility": {"kind": "exp", "a": 1e-7},
                "endowment": f"{scale} - {scale} * min(exp(x), 1)",
            },
        ]
        cfg = write_config(ws / "large.json", agents=exp_agents, pricing_prior={"sigma": sigma})
        out_dir = ws / "large"
        code, _, err = run(capsys, "--config", str(cfg), "--out", str(out_dir), "equilibrium")
        assert code == 0, err
        code, out, err = run(capsys, "--config", str(cfg), "--out", str(out_dir), "implement")
        assert code == 0, err
        assert "IMPLEMENTABLE: no" in out
        assert len(read_csv(out_dir / "implementability.csv")) == 3
        code, out, err = run(
            capsys, "--config", str(cfg), "--out", str(out_dir), "probe", "--samples", "3"
        )
        assert code == 0, err
        assert "solver failures 0" in out


class TestReplicate:
    def test_payoff_mode_artifact(self, ws, capsys):
        out_dir = ws / "rep_payoff"
        code, out, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "--out", str(out_dir),
            "replicate", "--payoff", "x", "--prior-sigma", "0.75",
        )
        assert code == 0
        with open(out_dir / "replication.json") as fh:
            payload = json.load(fh)
        assert payload["agent"] is None
        assert payload["prior_sigma"] == 0.75
        assert payload["increments"] == "binary"
        assert abs(payload["mean_gap"]) < 1e-9
        assert abs(payload["mean_k"]) < 1e-10
        assert payload["min_k_increment"] >= 0.0

    def test_agent_mode_shortfall(self, ws, capsys):
        out_dir = ws / "rep_agent"
        code, out, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "--out", str(out_dir),
            "replicate", "--agent", "a1", "--prior-sigma", "0.5",
        )
        assert code == 0
        with open(out_dir / "replication.json") as fh:
            payload = json.load(fh)
        assert payload["agent"] == "a1"
        assert payload["upper_minus_fixed"] == pytest.approx(0.1061, abs=5e-3)
        assert abs(payload["identity_gap"]) < 5e-3

    def test_unknown_agent(self, ws, capsys):
        out_dir = ws / "rep_nobody"
        code, out, err = run(
            capsys,
            "--config", str(ws / "cfg.json"), "--out", str(out_dir),
            "replicate", "--agent", "nobody", "--prior-sigma", "0.5",
        )
        assert code == 2
        assert err == "error: no agent named 'nobody' in the economy\n"
        assert out == ""
        assert not (out_dir / "replication.json").exists()

    def test_target_required(self, ws, capsys):
        code, _, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "replicate", "--prior-sigma", "0.5",
        )
        assert code == 2

    def test_all_paths_excluded_exit(self, ws, capsys):
        write_config(
            ws / "tiny.json",
            # every first step, of length at least 1/8, leaves the grid
            grid={"x_min": -0.05, "x_max": 0.05, "nx": 5, "nt": 16},
            mc={"paths": 50, "steps": 16, "seed": 1, "increments": "binary"},
        )
        code, _, err = run(
            capsys,
            "--config", str(ws / "tiny.json"),
            "replicate", "--payoff", "x", "--prior-sigma", "1.0",
        )
        assert code == 5
        assert "error: every path left the grid" in err


@pytest.fixture(scope="module")
def probe_cfg(ws):
    write_config(
        ws / "probe.json",
        grid={"x_min": -6.0, "x_max": 6.0, "nx": 201, "nt": 350},
    )
    return str(ws / "probe.json")


class TestProbe:
    def test_rows_and_fraction(self, ws, probe_cfg, capsys):
        out_dir = ws / "probe_run"
        code, out, _ = run(
            capsys,
            "--config", probe_cfg, "--out", str(out_dir),
            "probe", "--samples", "3", "--amplitude", "0.1",
        )
        assert code == 0
        failing = grab(out, "failing implementability:")
        n_failing = int(failing.split(" of ")[0])
        assert n_failing >= 2
        rows = read_csv(out_dir / "probe.csv")
        assert rows[0][:4] == ["index", "seed", "center", "width"]
        assert len(rows) == 4

    def test_zero_amplitude_never_fails(self, ws, probe_cfg, capsys):
        out_dir = ws / "probe_zero"
        code, out, _ = run(
            capsys,
            "--config", probe_cfg, "--out", str(out_dir),
            "probe", "--samples", "3", "--amplitude", "0.0",
        )
        assert code == 0
        assert float(grab(out, "failing fraction:")) == 0.0

    def test_zero_samples_rejected(self, ws, probe_cfg, capsys):
        code, _, err = run(capsys, "--config", probe_cfg, "probe", "--samples", "0")
        assert code == 2
        assert err == "error: n_samples must be at least 1, got 0\n"

    @pytest.mark.parametrize("amplitude", ["inf", "nan"])
    def test_non_finite_amplitude_rejected(self, ws, probe_cfg, capsys, amplitude):
        out_dir = ws / f"probe_amplitude_{amplitude}"
        code, _, err = run(
            capsys,
            "--config", probe_cfg, "--out", str(out_dir),
            "probe", "--samples", "2", "--amplitude", amplitude,
        )
        assert code == 2
        assert "amplitude" in err
        assert not (out_dir / "probe.csv").exists()

    def test_oversized_probe_rejected_before_drawing(self, ws, probe_cfg, capsys, monkeypatch):
        # ten million samples would hold stacks of tens of GB; the budget
        # check must come before the first sample is drawn
        def no_draws(*args):
            raise AssertionError("a sample was drawn")

        monkeypatch.setattr(implementability, "_splits", no_draws)
        code, _, err = run(capsys, "--config", probe_cfg, "probe", "--samples", str(10**7))
        assert code == 2
        assert "memory budget" in err

    def test_equilibrium_tolerance_applies(self, ws, capsys):
        # priced at sigma 0.5 the budget residuals are about 1e-16, so a
        # 1e-300 tolerance fails every solve
        write_config(
            ws / "probe_strict.json",
            grid={"x_min": -6.0, "x_max": 6.0, "nx": 201, "nt": 350},
            pricing_prior={"sigma": 0.5},
            tolerances={"mean_af": 0.001, "equilibrium": 1e-300},
        )
        out_dir = ws / "probe_strict"
        code, out, _ = run(
            capsys,
            "--config", str(ws / "probe_strict.json"), "--out", str(out_dir),
            "probe", "--samples", "3",
        )
        assert code == 0
        assert grab(out, "samples:") == "3 (solved 0, solver failures 3)"
        rows = read_csv(out_dir / "probe.csv")[1:]
        assert len(rows) == 3
        for row in rows:
            assert row[5] == "error"
            assert row[6].startswith("PDE budget check disagrees with the closed form")

    def test_mixed_failures_pinned(self, ws, capsys):
        # two exp(200) agents: three of eight samples have weights at the
        # simplex boundary; the file is pinned byte for byte
        exp_agents = [
            {"name": "a1", "utility": {"kind": "exp", "a": 200}, "endowment": "min(exp(x), 1)"},
            {"name": "a2", "utility": {"kind": "exp", "a": 200}, "endowment": "1 - min(exp(x), 1)"},
        ]
        mc = {"paths": 4000, "steps": 128, "seed": 1, "increments": "binary"}
        write_config(ws / "probe_exp.json", agents=exp_agents, mc=mc)
        out_dir = ws / "probe_exp"
        code, out, _ = run(
            capsys,
            "--config", str(ws / "probe_exp.json"), "--out", str(out_dir),
            "probe", "--samples", "8",
        )
        assert code == 0
        assert grab(out, "samples:") == "8 (solved 5, solver failures 3)"
        assert grab(out, "wilson 95% interval:") == "[0.0, 0.43448246478317476]"
        blob = (out_dir / "probe.csv").read_bytes()
        assert blob.count(b"planner weights at the simplex boundary") == 3
        assert (
            hashlib.sha256(blob).hexdigest()
            == "e2a5fab47e02f15ca0d88d04b24de7e1cdfade813f7eb5aa8fe0ac0d74ce8d19"
        )


class TestDeterminism:
    def test_equilibrium_repeat_byte_identical(self, ws, capsys):
        outs = []
        blobs = []
        for tag in ("d1", "d2"):
            out_dir = ws / tag
            code, out, _ = run(
                capsys,
                "--config", str(ws / "cfg.json"), "--out", str(out_dir),
                "equilibrium",
            )
            assert code == 0
            outs.append([l for l in out.splitlines() if not l.startswith("wrote ")])
            blobs.append((out_dir / "equilibrium.csv").read_bytes())
        assert outs[0] == outs[1]
        assert blobs[0] == blobs[1]

    def test_replicate_repeat_byte_identical(self, ws, capsys):
        blobs = []
        for tag in ("r1", "r2"):
            out_dir = ws / tag
            code, _, _ = run(
                capsys,
                "--config", str(ws / "cfg.json"), "--out", str(out_dir),
                "replicate", "--payoff", "min(exp(x), 1)", "--prior-sigma", "0.5",
                "--quiet",
            )
            assert code == 0
            blobs.append((out_dir / "replication.json").read_bytes())
        assert blobs[0] == blobs[1]

    def test_example_artifacts_pinned(self, ws, capsys):
        out_dir = ws / "pinned"
        base = ["--config", str(ws / "cfg.json"), "--out", str(out_dir)]
        code, out, _ = run(capsys, *base, "equilibrium")
        assert code == 0
        assert "full-insurance variation: 0.0" in out.splitlines()
        code, _, _ = run(capsys, *base, "implement")
        assert code == 0
        digests = {
            name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("equilibrium.csv", "implementability.csv")
        }
        assert digests == {
            "equilibrium.csv": "123e4b7359211bdb323c2d848c3d35a45e116e5036e2e62c21a277e9c230508b",
            "implementability.csv": "deeb21a97251ab0045781345d6f99953ebe74f0534b556c8b2c489d6fea02763",
        }


TILTED = ("min(exp(x), 1)", "1.5 - min(exp(x), 1)*0.5")


@pytest.mark.parametrize(
    "argv, endowments",
    [
        (["equilibrium"], TILTED),
        (["equilibrium"], ("exp(tanh(x))", "1")),
        (["implement"], TILTED),
        (["replicate", "--agent", "a1", "--prior-sigma", "0.5"], TILTED),
        (["probe", "--samples", "2"], TILTED),
        # the aggregate is checked before the sample count
        (["probe", "--samples", "0"], TILTED),
    ],
    ids=["equilibrium", "equilibrium-tanh", "implement", "replicate", "probe", "probe-zero-samples"],
)
def test_nonconstant_aggregate_exits_3(ws, capsys, argv, endowments):
    write_config(
        ws / "tilted.json",
        agents=[
            {"name": name, "utility": {"kind": "log"}, "endowment": e}
            for name, e in zip(("a1", "a2"), endowments)
        ],
    )
    code, _, err = run(capsys, "--config", str(ws / "tilted.json"), "--out", str(ws / "tilted"), *argv)
    assert code == 3
    assert err.startswith("error: aggregate endowment varies across the grid")


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibrium"],
        ["implement"],
        ["replicate", "--agent", "a1", "--prior-sigma", "0.5"],
        ["probe", "--samples", "2"],
    ],
    ids=["equilibrium", "implement", "replicate", "probe"],
)
def test_pricing_commands_need_prior(ws, capsys, argv):
    raw = json.loads(write_config(ws / "no_prior.json").read_text())
    del raw["pricing_prior"]
    cfg = ws / "no_prior.json"
    cfg.write_text(json.dumps(raw))
    out_dir = ws / "no_prior"
    code, out, err = run(capsys, "--config", str(cfg), "--out", str(out_dir), *argv)
    assert code == 2
    assert "this command needs a pricing_prior" in err
    assert out == ""
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize(
    "name, sigma, argv",
    [
        ("fixed sigma", "2.0", ["eval", "x", "--mode", "fixed", "--sigma", "2.0"]),
        ("pricing_prior sigma", "2.0", ["eval", "x"]),
        ("--prior-sigma", "2.0", ["replicate", "--payoff", "x", "--prior-sigma", "2.0"]),
        ("--prior-sigma", "nan", ["replicate", "--payoff", "x", "--prior-sigma", "nan"]),
        ("constant control sigma", "2.0", None),
    ],
    ids=["eval-fixed", "pricing-prior", "replicate", "replicate-nan", "simulate-paths"],
)
def test_sigma_outside_band(ws, capsys, name, sigma, argv):
    """Every source of a fixed sigma is held to the band by one rule, which
    names the input; the CLI exits 2 with it, the library raises it."""
    message = f"{name} {sigma} outside the band [0.5, 1.0]"
    if argv is None:
        with pytest.raises(ValueError) as err:
            simulate_paths(ControlSpec.constant(float(sigma)), BAND, 10, 4)
        assert str(err.value) == message
        return
    cfg = ws / "cfg.json"
    if name == "pricing_prior sigma":
        cfg = write_config(ws / "prior_outside_band.json", pricing_prior={"sigma": float(sigma)})
    code, out, err = run(capsys, "--config", str(cfg), *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# a config small enough that every command runs in milliseconds
FUZZ_CONFIG = {
    "bounds": {"sigma_lo": 0.5, "sigma_hi": 1.0, "horizon": 1.0},
    "grid": {"x_min": -4.0, "x_max": 4.0, "nx": 21, "nt": 10},
    "agents": [
        {"name": "a1", "utility": {"kind": "power", "gamma": 2.0}, "endowment": "min(exp(x), 1)"},
        {"name": "a2", "utility": {"kind": "exp", "a": 1.0}, "endowment": "1 - min(exp(x), 1)"},
    ],
    "pricing_prior": {"sigma": 0.75},
    "mc": {"paths": 50, "steps": 8, "seed": 1, "increments": "binary"},
    "tolerances": {"mean_af": 0.001, "equilibrium": 1e-10},
}
# every JSON object of FUZZ_CONFIG, as a path of keys from the root
FUZZ_SECTIONS = [
    (),
    ("bounds",),
    ("grid",),
    ("pricing_prior",),
    ("mc",),
    ("tolerances",),
    ("agents", 0),
    ("agents", 1),
    ("agents", 0, "utility"),
    ("agents", 1, "utility"),
]
PAYOFFS = st.builds(
    "{} {} {}".format,
    st.sampled_from(["x", "-x", "0.5", "0", "exp(x)", "min(exp(x), 1)", "abs(x)", "1e308"]),
    st.sampled_from(["+", "-", "*", "/", "^"]),
    st.sampled_from(["x", "2", "0", "max(x, 0)", "tanh(x)", "1e308"]),
)
BAD_VALUES = st.one_of(
    st.sampled_from([True, False, None, [], [1], {}, {"junk": 1}, 0, -1, -0.5, 1e300, 10**30]),
    PAYOFFS,
)
COMMANDS = st.one_of(
    st.builds(lambda p: ["eval", p], PAYOFFS),
    st.just(["equilibrium"]),
    st.just(["implement"]),
    st.just(["probe", "--samples", "2"]),
    st.builds(lambda p: ["replicate", "--payoff", p, "--prior-sigma", "0.75"], PAYOFFS),
)


@st.composite
def fuzzed_configs(draw):
    """FUZZ_CONFIG as it is, or with one key of one section dropped, added or
    given a bad value."""
    cfg = json.loads(json.dumps(FUZZ_CONFIG))
    section = cfg
    for key in draw(st.sampled_from(FUZZ_SECTIONS)):
        section = section[key]
    how = draw(st.sampled_from(["keep", "drop", "add", "swap"]))
    if how == "keep":
        return cfg
    if how == "add":
        section["junk"] = draw(BAD_VALUES)
        return cfg
    keys = sorted(section)
    if section is cfg and how == "drop":
        # a dropped grid or mc falls back to the full-size default: valid, but
        # seconds of work per command
        keys = [k for k in keys if k not in ("grid", "mc")]
    key = draw(st.sampled_from(keys))
    if how == "drop":
        del section[key]
    else:
        section[key] = draw(BAD_VALUES)
    return cfg


class TestFuzz:
    @settings(max_examples=200)
    @given(cfg=fuzzed_configs(), argv=COMMANDS)
    def test_every_run_exits_with_a_documented_code(self, ws, cfg, argv):
        path = ws / "fuzz.json"
        path.write_text(json.dumps(cfg))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(path), "--out", str(ws / "fuzz"), *argv])
        assert code in (0, 2, 3, 4, 5)
