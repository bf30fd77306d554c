"""JSON run configuration shared by the command-line tools."""

import json
import math
from dataclasses import dataclass
from typing import Optional

from .dsl import PayoffParseError, parse
from .equilibrium import Agent, Economy, PriorSpec, Utility
from .gexp import GridSpec, VolBounds, _substeps, check_tolerance, default_grid
from .replication import _check_batch

__all__ = ["ConfigError", "McSpec", "Tolerances", "Config", "load_config"]


class ConfigError(ValueError):
    """Configuration file missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class McSpec:
    paths: int = 100000
    steps: int = 512
    seed: int = 42
    increments: str = "binary"

    def __post_init__(self):
        # checked here so an oversized batch fails at load, before any allocation
        try:
            _check_batch(self.paths, self.steps, self.seed)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        if self.increments not in ("binary", "gaussian"):
            raise ConfigError(f"unknown mc increments {self.increments!r}")


@dataclass(frozen=True)
class Tolerances:
    mean_af: float = 1e-3
    equilibrium: float = 1e-10

    def __post_init__(self):
        try:
            check_tolerance("mean_af", self.mean_af)
            check_tolerance("equilibrium", self.equilibrium)
        except ValueError as err:
            raise ConfigError(str(err)) from err


@dataclass(eq=False)
class Config:
    bounds: VolBounds
    grid: GridSpec
    agents: tuple
    pricing_prior: Optional[PriorSpec]
    mc: McSpec
    tolerances: Tolerances

    def economy(self) -> Economy:
        if not self.agents:
            raise ConfigError("this command needs agents in the configuration")
        return Economy(self.agents, self.bounds, self.grid)

    def require_prior(self) -> PriorSpec:
        if self.pricing_prior is None:
            raise ConfigError("this command needs a pricing_prior in the configuration")
        return self.pricing_prior


def _number(value, where: str):
    """`value` if it is a JSON number: not a bool (an int to Python), not a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {value!r}")
    return value


def _integer(value, where: str) -> int:
    """An integral JSON number; 41.0 passes, 41.9, Infinity and "41" do not."""
    if isinstance(_number(value, where), int):
        return value
    if not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _finite(value, where: str) -> float:
    """A finite JSON number, as a float; an integer too large for a float is not finite."""
    try:
        number = float(_number(value, where))
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{where} must be finite, got {value!r}")
    return number


def _require_keys(obj: dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(extra))}")


def _utility_from(obj: dict, where: str) -> Utility:
    _require_keys(obj, {"kind", "gamma", "a"}, where)
    kind = obj.get("kind")
    try:
        if kind == "log":
            return Utility.log()
        if kind == "power":
            if "gamma" not in obj:
                raise ConfigError(f"{where}: power utility needs gamma")
            return Utility.power(_finite(obj["gamma"], "gamma"))
        if kind == "exp":
            if "a" not in obj:
                raise ConfigError(f"{where}: exp utility needs a")
            return Utility.exponential(_finite(obj["a"], "a"))
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err
    raise ConfigError(f"{where}: unknown utility kind {kind!r}")


def _agent_from(obj: dict, index: int) -> Agent:
    where = f"agents[{index}]"
    _require_keys(obj, {"name", "utility", "endowment"}, where)
    for key in ("name", "utility", "endowment"):
        if key not in obj:
            raise ConfigError(f"{where} needs {key!r}")
    name, text = obj["name"], obj["endowment"]
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}.name must be a non-empty string, got {name!r}")
    if not isinstance(text, str):
        raise ConfigError(f"{where}.endowment must be a string, got {text!r}")
    utility = _utility_from(obj["utility"], f"{where}.utility")
    try:
        endowment = parse(text)
    except PayoffParseError as err:
        raise ConfigError(f"{where}.endowment: {err}") from err
    return Agent(name, utility, endowment)


def load_config(path) -> Config:
    """Load and validate a JSON configuration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read configuration: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"configuration is not valid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    _require_keys(
        raw,
        {"bounds", "grid", "agents", "pricing_prior", "mc", "tolerances"},
        "configuration",
    )

    if "bounds" not in raw:
        raise ConfigError("configuration needs a bounds section")
    b = raw["bounds"]
    _require_keys(b, {"sigma_lo", "sigma_hi", "horizon"}, "bounds")
    try:
        bounds = VolBounds(
            _finite(b.get("sigma_lo", 0.0), "sigma_lo"),
            _finite(b.get("sigma_hi", 0.0), "sigma_hi"),
            _finite(b.get("horizon", 1.0), "horizon"),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bounds: {err}") from err

    if "grid" in raw:
        g = raw["grid"]
        _require_keys(g, {"x_min", "x_max", "nx", "nt"}, "grid")
        try:
            grid = GridSpec(
                _finite(g["x_min"], "x_min"),
                _finite(g["x_max"], "x_max"),
                _integer(g["nx"], "nx"),
                _integer(g["nt"], "nt"),
            )
        except (TypeError, KeyError, ValueError) as err:
            raise ConfigError(f"grid: {err}") from err
    else:
        grid = default_grid(bounds)
    # checked here so an over-budget march fails at load, before any work
    try:
        _substeps(bounds, grid)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    agents_raw = raw.get("agents", [])
    if not isinstance(agents_raw, list):
        raise ConfigError("agents must be a JSON array")
    agents = tuple(_agent_from(a, i) for i, a in enumerate(agents_raw))

    prior = None
    if "pricing_prior" in raw:
        p = raw["pricing_prior"]
        _require_keys(p, {"sigma"}, "pricing_prior")
        try:
            prior = PriorSpec.constant(_finite(p["sigma"], "sigma"))
        except (TypeError, KeyError, ValueError) as err:
            raise ConfigError(f"pricing_prior: {err}") from err
        if not bounds.sigma_lo <= prior.sigma <= bounds.sigma_hi:
            raise ConfigError(
                f"pricing_prior sigma {prior.sigma} outside the band "
                f"[{bounds.sigma_lo}, {bounds.sigma_hi}]"
            )

    mc_raw = raw.get("mc", {})
    _require_keys(mc_raw, {"paths", "steps", "seed", "increments"}, "mc")
    try:
        mc = McSpec(
            paths=_integer(mc_raw.get("paths", McSpec.paths), "paths"),
            steps=_integer(mc_raw.get("steps", McSpec.steps), "steps"),
            seed=_integer(mc_raw.get("seed", McSpec.seed), "seed"),
            increments=str(mc_raw.get("increments", McSpec.increments)),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"mc: {err}") from err

    tol_raw = raw.get("tolerances", {})
    _require_keys(tol_raw, {"mean_af", "equilibrium"}, "tolerances")
    try:
        tolerances = Tolerances(
            mean_af=_finite(tol_raw.get("mean_af", Tolerances.mean_af), "mean_af"),
            equilibrium=_finite(
                tol_raw.get("equilibrium", Tolerances.equilibrium), "equilibrium"
            ),
        )
    except (TypeError, ValueError) as err:
        raise ConfigError(f"tolerances: {err}") from err

    return Config(bounds, grid, agents, prior, mc, tolerances)
