"""JSON run configuration shared by the command-line tools."""

import json
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Optional

from .dsl import Expr, PayoffParseError, _store, parse
from .equilibrium import Agent, Economy, PriorSpec
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
            paths, steps, seed = _check_batch(self.paths, self.steps, self.seed, self.increments)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        _store(self, paths=paths, steps=steps, seed=seed)


@dataclass(frozen=True)
class Tolerances:
    mean_af: float = 1e-3
    equilibrium: float = 1e-10

    def __post_init__(self):
        try:
            mean_af = check_tolerance("mean_af", self.mean_af)
            equilibrium = check_tolerance("equilibrium", self.equilibrium)
        except ValueError as err:
            raise ConfigError(str(err)) from err
        _store(self, mean_af=mean_af, equilibrium=equilibrium)


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


def _integer(value, where: str):
    """An integral JSON float (41.0, 1e3) as an int; any other value as given."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{where} must be a non-empty string, got {value!r}")
    return value


def _payoff(value, where: str) -> Expr:
    try:
        return parse(_string(value, where))
    except PayoffParseError as err:
        raise ConfigError(f"{where}: {err}") from err


_READERS = {int: _integer, str: _string, Expr: _payoff}


def _read(kind, value, where: str):
    """`value` read as a field of type `kind`, a dataclass as a nested section;
    a field of any other type takes the value as given, for that type to judge."""
    if is_dataclass(kind):
        return _section(kind, value, where)
    if kind in _READERS:
        return _READERS[kind](value, where)
    if value is None:  # an optional field's type would read null as left out
        raise ConfigError(f"{where} must not be null")
    return value


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
            kwargs[f.name] = _read(f.type, obj[f.name], f"{where}.{f.name}")
        elif f.name not in kwargs and f.default is MISSING:
            raise ConfigError(f"{where} needs {f.name!r}")
    try:
        return cls(**kwargs)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from err


def load_config(path) -> Config:
    """Load and validate a JSON configuration file."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read configuration: {err}") from err
    # JSONDecodeError, or valid JSON Python cannot read (an integer past its digit limit)
    except ValueError as err:
        raise ConfigError(f"configuration is not readable JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    _require_keys(raw, [f.name for f in fields(Config)], "configuration")

    if "bounds" not in raw:
        raise ConfigError("configuration needs 'bounds'")
    bounds = _section(VolBounds, raw["bounds"], "bounds", horizon=1.0)
    grid = _section(GridSpec, raw["grid"], "grid") if "grid" in raw else None
    # a default grid out of float range, or an over-budget march, fails at load
    try:
        grid = grid or default_grid(bounds)
        _substeps(bounds, grid)
    except ValueError as err:
        raise ConfigError(f"grid: {err}") from err

    agents_raw = raw.get("agents", [])
    if not isinstance(agents_raw, list):
        raise ConfigError("agents must be a JSON array")
    agents = tuple(_section(Agent, a, f"agents[{i}]") for i, a in enumerate(agents_raw))

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
