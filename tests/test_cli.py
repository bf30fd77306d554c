"""End-to-end command-line checks, run in process via main()."""

import csv
import hashlib
import json

import pytest

from knightian import gexp, implementability
from knightian.cli import main

from helpers import capped_exp_value, write_config


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
        ],
    )
    def test_non_integral_or_non_finite_rejected(self, ws, capsys, section, values, field):
        cfg = write_config(ws / f"bad_{section}.json", **{section: values})
        code, out, err = run(capsys, "--config", str(cfg), "eval", "min(exp(x),1)")
        assert code == 2
        assert field in err
        assert "gap" not in out

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
        assert f"{field} must be a number" in err
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

    def test_out_directory_created(self, ws, capsys):
        out_dir = ws / "made" / "deep"
        code, _, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "--out", str(out_dir),
            "equilibrium",
        )
        assert code == 0
        assert (out_dir / "equilibrium.csv").exists()


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

    def test_nonconstant_aggregate_exit(self, ws, capsys):
        write_config(
            ws / "nonconst.json",
            agents=[
                {"name": "a1", "utility": {"kind": "log"}, "endowment": "exp(tanh(x))"},
                {"name": "a2", "utility": {"kind": "log"}, "endowment": "1"},
            ],
        )
        code, _, err = run(capsys, "--config", str(ws / "nonconst.json"), "equilibrium")
        assert code == 3
        assert "error:" in err

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
        # the PDE budget residual of the example is about 1e-16; a tighter
        # tolerances.equilibrium makes the cross-check fail
        write_config(ws / "strict.json", tolerances={"mean_af": 0.001, "equilibrium": 1e-300})
        code, _, err = run(capsys, "--config", str(ws / "strict.json"), "equilibrium")
        assert code == 4
        assert "budget" in err


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


    def test_large_aggregate_accepted(self, ws, capsys):
        # an aggregate of 1e6: the prices miss it by one ulp, 1.164e-10, which
        # the solver accepts, and so must the net trades
        exp_agents = [
            {"name": "a1", "utility": {"kind": "exp", "a": 1e-7}, "endowment": "1e6 * min(exp(x), 1)"},
            {
                "name": "a2",
                "utility": {"kind": "exp", "a": 1e-7},
                "endowment": "1e6 - 1e6 * min(exp(x), 1)",
            },
        ]
        write_config(ws / "million.json", agents=exp_agents)
        out_dir = ws / "impl_million"
        code, out, err = run(
            capsys,
            "--config", str(ws / "million.json"), "--out", str(out_dir),
            "implement",
        )
        assert code == 0, err
        assert "IMPLEMENTABLE: no" in out
        assert len(read_csv(out_dir / "implementability.csv")) == 3


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

    def test_sigma_outside_band(self, ws, capsys):
        code, _, err = run(
            capsys,
            "--config", str(ws / "cfg.json"),
            "replicate", "--payoff", "x", "--prior-sigma", "2.0",
        )
        assert code == 2
        assert "outside the band" in err

    def test_unknown_agent(self, ws, capsys):
        code, _, err = run(
            capsys,
            "--config", str(ws / "cfg.json"),
            "replicate", "--agent", "zz", "--prior-sigma", "0.5",
        )
        assert code == 2
        assert "zz" in err

    def test_target_required(self, ws, capsys):
        code, _, _ = run(
            capsys,
            "--config", str(ws / "cfg.json"), "replicate", "--prior-sigma", "0.5",
        )
        assert code == 2

    def test_all_paths_excluded_exit(self, ws, capsys):
        write_config(
            ws / "tiny.json",
            grid={"x_min": -0.01, "x_max": 0.01, "nx": 11, "nt": 800},
            mc={"paths": 50, "steps": 16, "seed": 1, "increments": "binary"},
        )
        code, _, err = run(
            capsys,
            "--config", str(ws / "tiny.json"),
            "replicate", "--payoff", "x", "--prior-sigma", "1.0",
        )
        assert code == 5
        assert "error:" in err


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
        code, _, _ = run(capsys, "--config", probe_cfg, "probe", "--samples", "0")
        assert code == 2

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
        # budget residuals are about 1e-16, so a 1e-300 tolerance fails every solve
        write_config(
            ws / "probe_strict.json",
            grid={"x_min": -6.0, "x_max": 6.0, "nx": 201, "nt": 350},
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
            == "88e98006ea3126c30b3a62ae971d78788bd9de4694246e855fdff68de62774e8"
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
            "equilibrium.csv": "3c7f7a25b85d8c27ba7bb5b93d6486e26b4ec33c0d1f759399133013565581ab",
            "implementability.csv": "700b788c41f2c9d7f962e2e7849640f61dba0d3ed8e57446a78c917e19e0ba8a",
        }


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
def test_nonconstant_aggregate_exits_3(ws, capsys, argv):
    write_config(
        ws / "tilted.json",
        agents=[
            {"name": "a1", "utility": {"kind": "log"}, "endowment": "min(exp(x), 1)"},
            {"name": "a2", "utility": {"kind": "log"}, "endowment": "1.5 - min(exp(x), 1)*0.5"},
        ],
    )
    code, _, err = run(capsys, "--config", str(ws / "tilted.json"), "--out", str(ws / "tilted"), *argv)
    assert code == 3
    assert err.startswith("error: aggregate endowment varies across the grid")
