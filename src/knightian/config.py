"""JSON run configuration shared by the command-line tools."""

import json
import math
from dataclasses import MISSING, dataclass, fields
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
            _check_batch(self.paths, self.steps, self.seed, self.increments)
        except ValueError as err:
            raise ConfigError(str(err)) from err


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


def _string(value, where: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where} must be a string, got {value!r}")
    return value


# how a field's annotated type is read from JSON; every other field is a finite number
_READERS = {int: _integer, str: _string}


def _require_keys(obj: dict, allowed, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be a JSON object")
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(extra))}")


def _section(cls, obj, where: str, **defaults):
    """Build the dataclass `cls` from the JSON object `obj`.

    Its keys are the fields of `cls`, each value is read as its field's
    annotated kind, and an absent key takes `defaults` or the field's own
    default.  The range rules are those of `cls` itself."""
    members = fields(cls)
    _require_keys(obj, [f.name for f in members], where)
    kwargs = dict(defaults)
    for f in members:
        if f.name in obj:
            kwargs[f.name] = _READERS.get(f.type, _finite)(obj[f.name], f"{where}.{f.name}")
        elif f.name not in kwargs and f.default is MISSING:
            raise ConfigError(f"{where} needs {f.name!r}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def _agent_from(obj: dict, index: int) -> Agent:
    where = f"agents[{index}]"
    keys = [f.name for f in fields(Agent)]
    _require_keys(obj, keys, where)
    for key in keys:
        if key not in obj:
            raise ConfigError(f"{where} needs {key!r}")
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}.name must be a non-empty string, got {name!r}")
    text = _string(obj["endowment"], f"{where}.endowment")
    utility = _section(Utility, obj["utility"], f"{where}.utility")
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
    _require_keys(raw, [f.name for f in fields(Config)], "configuration")

    if "bounds" not in raw:
        raise ConfigError("configuration needs 'bounds'")
    bounds = _section(VolBounds, raw["bounds"], "bounds", horizon=1.0)
    grid = _section(GridSpec, raw["grid"], "grid") if "grid" in raw else None
    # checked here so that a default grid out of float range, or an
    # over-budget march, fails at load, before any work
    try:
        grid = grid or default_grid(bounds)
        _substeps(bounds, grid)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    agents_raw = raw.get("agents", [])
    if not isinstance(agents_raw, list):
        raise ConfigError("agents must be a JSON array")
    agents = tuple(_agent_from(a, i) for i, a in enumerate(agents_raw))

    prior = None
    if "pricing_prior" in raw:
        prior = _section(PriorSpec, raw["pricing_prior"], "pricing_prior")
        try:
            bounds.check_sigma(prior.sigma, "pricing_prior sigma")
        except ValueError as err:
            raise ConfigError(str(err)) from err

    mc = _section(McSpec, raw.get("mc", {}), "mc")
    tolerances = _section(Tolerances, raw.get("tolerances", {}), "tolerances")
    return Config(bounds, grid, agents, prior, mc, tolerances)
