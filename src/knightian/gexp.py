"""Worst/best-case expectation of terminal payoffs under volatility bands.

The driving noise has quadratic variation density constrained to a band
[sigma_lo^2, sigma_hi^2].  Upper and lower expectations solve a backward
nonlinear heat equation; a single fixed volatility reduces it to the linear
heat equation.  Two independent routes are provided:

* a monotone explicit finite-difference solver on a space-time grid, and
* an exact discrete-time tree on a two-increment lattice (small step counts).

The tree is deliberately simple and serves as a cross-check oracle for the
PDE route; the two are never merged.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .dsl import Expr, evaluate

__all__ = [
    "VolBounds",
    "GridSpec",
    "Mode",
    "UPPER",
    "LOWER",
    "ValueField",
    "CflError",
    "GapResult",
    "StrongProbeReport",
    "default_grid",
    "solve_terminal_values",
    "solve_value_field",
    "expectation",
    "conditional_at",
    "tree_expectation",
    "mean_ambiguity_gap",
    "strong_ambiguity_probe",
]

# an explicit step needs sigma_hi^2 dt <= dx^2; we sub-step internally and
# refuse only when the required sub-step count gets absurd
SUBSTEP_CAP = 1000

MAX_TREE_STEPS = 14

# memory one run may claim, checked before anything is allocated; hedging holds
# _FIELD_LAYERS (nt + 1, nx) float64 layers: value, delta, curvature and the
# slope tables of delta and curvature
MEMORY_BUDGET = 1 << 30
_FIELD_LAYERS = 5


class CflError(ValueError):
    """Grid would need more internal sub-steps than SUBSTEP_CAP allows."""


@dataclass(frozen=True)
class VolBounds:
    """Volatility band [sigma_lo, sigma_hi] over a horizon T."""

    sigma_lo: float
    sigma_hi: float
    horizon: float

    def __post_init__(self):
        if not (0.0 < self.sigma_lo <= self.sigma_hi):
            raise ValueError("need 0 < sigma_lo <= sigma_hi")
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")

    def g(self, a):
        """Worst-case diffusion flux: half the band-suprema of s^2 * a."""
        a = np.asarray(a, dtype=float)
        hi2 = self.sigma_hi**2
        lo2 = self.sigma_lo**2
        out = 0.5 * (hi2 * np.maximum(a, 0.0) - lo2 * np.maximum(-a, 0.0))
        return float(out) if out.ndim == 0 else out

    @property
    def degenerate(self) -> bool:
        return self.sigma_lo == self.sigma_hi


@dataclass(frozen=True)
class Mode:
    """Which expectation to compute: upper, lower, or fixed-volatility."""

    kind: str
    sigma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("upper", "lower", "fixed"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.kind == "fixed":
            if self.sigma is None or not self.sigma > 0.0:
                raise ValueError("fixed mode needs a positive sigma")
        elif self.sigma is not None:
            raise ValueError(f"{self.kind} mode takes no sigma")

    @classmethod
    def fixed(cls, sigma: float) -> "Mode":
        return cls("fixed", float(sigma))


UPPER = Mode("upper")
LOWER = Mode("lower")


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid; x_min < 0 < x_max so the origin is covered."""

    x_min: float
    x_max: float
    nx: int
    nt: int

    def __post_init__(self):
        if not (self.x_min < 0.0 < self.x_max):
            raise ValueError("grid must straddle the origin (x_min < 0 < x_max)")
        if self.nx < 3:
            raise ValueError("nx must be at least 3")
        if self.nt < 1:
            raise ValueError("nt must be at least 1")
        if _FIELD_LAYERS * 8 * (self.nt + 1) * self.nx > MEMORY_BUDGET:
            raise ValueError(f"a {self.nx} x {self.nt} grid exceeds the memory budget")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)


def default_grid(bounds: VolBounds, nx: int = 801, nt: int = 2000) -> GridSpec:
    """Grid spanning six worst-case standard deviations either side of 0."""
    span = 6.0 * bounds.sigma_hi * math.sqrt(bounds.horizon)
    return GridSpec(-span, span, nx, nt)


@dataclass(frozen=True, eq=False)
class ValueField:
    """Solved value surface.

    `values` has shape (nt + 1, nx); row k holds v(t_k, .) with
    t_k = k * horizon / nt, so the last row is the terminal payoff.
    """

    values: np.ndarray
    grid: GridSpec
    bounds: VolBounds
    mode: Mode

    @property
    def horizon(self) -> float:
        return self.bounds.horizon


def _substeps(bounds: VolBounds, grid: GridSpec) -> int:
    # sub-step count depends only on sigma_hi so that upper/lower/fixed runs
    # of a degenerate band walk bit-identical schedules
    dt = bounds.horizon / grid.nt
    m = max(1, math.ceil(bounds.sigma_hi**2 * dt / grid.dx**2 - 1e-12))
    if m > SUBSTEP_CAP:
        raise CflError(
            f"grid needs {m} sub-steps per time step (cap {SUBSTEP_CAP}); "
            "refine dx or use more time steps"
        )
    return m


def _check_mode(mode: Mode, bounds: VolBounds):
    if mode.kind == "fixed" and not (bounds.sigma_lo <= mode.sigma <= bounds.sigma_hi):
        raise ValueError(
            f"fixed sigma {mode.sigma} outside the band "
            f"[{bounds.sigma_lo}, {bounds.sigma_hi}]"
        )


# rows of a stack marched together: each sub-step then works on (nx, rows)
# blocks that stay in cache (measured best between 64 and 128 rows)
_MARCH_ROWS = 64


def _march(term: np.ndarray, bounds: VolBounds, grid: GridSpec, mode: Mode, layers=None):
    """March (nx,) or (k, nx) terminal node values back to t = 0 and return
    them; with `layers`, an (nt + 1, nx) array and a vector payoff, also store
    every time layer.

    The scheme is explicit with central second differences; boundary nodes are
    frozen (zero curvature there).  Internally each user time step is split
    into enough sub-steps to keep the update monotone.  The flux is the band's
    `bounds.g` or a fixed sigma's; the lower value is lower(f) = -upper(-f).

    A stack is marched _MARCH_ROWS rows at a time, each block node-major as a
    contiguous (nx, rows) array: the shifted slices v[2:], v[1:-1] and v[:-2]
    are then contiguous, and every sub-step runs in place through two
    buffers.  Each operation is one that the update
    v += dtau * flux((v+ - 2 v + v-) / dx^2) performs, in the same order, so
    every row is bit-identical to that update of it alone, signed zeros
    included.
    """
    _check_mode(mode, bounds)
    term = np.asarray(term, dtype=float)
    if term.ndim not in (1, 2) or term.shape[-1] != grid.nx:
        raise ValueError(f"terminal values must have shape ({grid.nx},) or (k, {grid.nx})")
    if not np.all(np.isfinite(term)):
        raise ValueError("terminal values must be finite")

    m = _substeps(bounds, grid)
    dtau = bounds.horizon / grid.nt / m
    inv_dx2 = 1.0 / grid.dx**2
    fixed = 0.5 * mode.sigma**2 if mode.kind == "fixed" else None
    hi2, lo2 = bounds.sigma_hi**2, bounds.sigma_lo**2
    lower = mode.kind == "lower"

    stack = np.atleast_2d(term)
    out = np.empty_like(stack)
    for start in range(0, len(stack), _MARCH_ROWS):
        block = stack[start : start + _MARCH_ROWS].T
        v = np.empty(block.shape)
        if lower:
            np.negative(block, out=v)
        else:
            np.copyto(v, block)
        up, mid, down = v[2:], v[1:-1], v[:-2]
        a = np.empty_like(mid)
        b = np.empty_like(mid)
        if layers is not None:
            layers[grid.nt] = v[:, 0]
        # ufuncs take their output positionally (cheaper per call), except
        # np.maximum, which deprecates that form
        for k in range(grid.nt, 0, -1):
            for _ in range(m):
                np.multiply(mid, 2.0, a)
                np.subtract(up, a, a)
                np.add(a, down, a)
                np.multiply(a, inv_dx2, a)
                if fixed is not None:
                    np.multiply(a, fixed, a)
                else:
                    # VolBounds.g: 0.5 * (hi2 * max(d2, 0) - lo2 * max(-d2, 0))
                    np.negative(a, b)
                    np.maximum(b, 0.0, out=b)
                    np.multiply(b, lo2, b)
                    np.maximum(a, 0.0, out=a)
                    np.multiply(a, hi2, a)
                    np.subtract(a, b, a)
                    np.multiply(a, 0.5, a)
                np.multiply(a, dtau, a)
                np.add(mid, a, mid)
            if layers is not None:
                layers[k - 1] = v[:, 0]
        if lower:
            # negation is exact but for marched zeros coming back as -0.0: adding
            # 0.0 to the marched interior restores +0.0; boundaries keep the
            # payoff's zeros
            np.negative(v, out=v)
            mid += 0.0
            if layers is not None:
                np.negative(layers, out=layers)
                layers[:-1, 1:-1] += 0.0
        out[start : start + _MARCH_ROWS] = v.T
    return out[0] if term.ndim == 1 else out


def solve_terminal_values(
    terminal: np.ndarray, bounds: VolBounds, grid: GridSpec, mode: Mode
) -> ValueField:
    """Backward-solve from explicit (nx,) terminal node values, keeping every layer."""
    if np.shape(terminal) != (grid.nx,):
        raise ValueError(f"terminal values must have shape ({grid.nx},)")
    values = np.empty((grid.nt + 1, grid.nx))
    _march(terminal, bounds, grid, mode, values)
    return ValueField(values, grid, bounds, mode)


def solve_value_field(expr: Expr, bounds: VolBounds, grid: GridSpec, mode: Mode) -> ValueField:
    """Backward-solve the value surface of a payoff expression."""
    return solve_terminal_values(evaluate(expr, grid.nodes), bounds, grid, mode)


def layer_at_or_below(t: float, horizon: float, nt: int) -> int:
    """Index of the stored time layer at or immediately below t; t must lie
    in [0, horizon]."""
    if not 0.0 <= t <= horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {horizon}]")
    return min(nt, int(math.floor(t / (horizon / nt) + 1e-9)))


def conditional_at(field: ValueField, t: float, x: float) -> float:
    """Value surface sampled at (t, x): nearest stored layer at or below t,
    linear interpolation in x."""
    g = field.grid
    k = layer_at_or_below(t, field.horizon, g.nt)
    if not g.x_min <= x <= g.x_max:
        raise ValueError(f"query point {x} off the grid [{g.x_min}, {g.x_max}]")
    return float(np.interp(x, g.nodes, field.values[k]))


def expectation(payoff, bounds: VolBounds, grid: GridSpec, mode: Mode):
    """Expectation at the origin of an expression or of node values on the
    grid: an (nx,) vector gives a float, a (k, nx) stack, marched at once, a
    (k,) array.  No field is stored; the origin is interpolated exactly as
    `conditional_at(field, 0, 0)` does."""
    v = _march(_terminal_of(payoff, grid), bounds, grid, mode)
    nodes = grid.nodes
    if v.ndim == 1:
        return float(np.interp(0.0, nodes, v))
    return np.array([np.interp(0.0, nodes, row) for row in v])


# ---------------------------------------------------------------------------
# tree route


def _tree_positions(bounds: VolBounds, steps: int, start: float) -> np.ndarray:
    """Node positions on the (2n+1)^2 lattice indexed by signed counts of
    low-volatility and high-volatility moves."""
    h = math.sqrt(bounds.horizon / steps)
    idx = np.arange(-steps, steps + 1)
    return start + (idx[:, None] * bounds.sigma_lo + idx[None, :] * bounds.sigma_hi) * h


def _tree_reachable(steps: int, level: int) -> np.ndarray:
    """Mask of lattice nodes reachable after `level` moves."""
    idx = np.arange(-steps, steps + 1)
    ii = np.abs(idx)[:, None]
    jj = np.abs(idx)[None, :]
    total = ii + jj
    return (total <= level) & ((total - level) % 2 == 0)


def _tree_sweep(box: np.ndarray, mode: Mode, levels: int) -> np.ndarray:
    """Run `levels` backward steps of the tree recursion on a full lattice box.

    At each node the controller picks the low or the high move, each move
    averaging its two children with weight one half.  Upper mode maximizes,
    lower mode minimizes.  Entries outside the reachable set are garbage and
    must not be read by the caller.
    """
    pick = np.maximum if mode.kind == "upper" else np.minimum
    v = box
    for _ in range(levels):
        lo_move = 0.5 * (v[2:, 1:-1] + v[:-2, 1:-1])
        hi_move = 0.5 * (v[1:-1, 2:] + v[1:-1, :-2])
        w = np.zeros_like(v)
        w[1:-1, 1:-1] = pick(lo_move, hi_move)
        v = w
    return v


def tree_expectation(
    expr: Expr, bounds: VolBounds, steps: int, mode: Mode, start: float = 0.0
) -> float:
    """Exact n-step discrete-time value, n <= 14.

    Upper and lower modes run a dynamic program over a two-increment lattice;
    fixed mode is a plain binomial evaluation at the given sigma.
    """
    if not 1 <= steps <= MAX_TREE_STEPS:
        raise ValueError(f"steps must lie in 1..{MAX_TREE_STEPS}")
    _check_mode(mode, bounds)

    if mode.kind == "fixed":
        h = mode.sigma * math.sqrt(bounds.horizon / steps)
        k = np.arange(steps + 1)
        xs = start + (2.0 * k - steps) * h
        v = evaluate(expr, xs)
        for _ in range(steps):
            v = 0.5 * (v[1:] + v[:-1])
        return float(v[0])

    pos = _tree_positions(bounds, steps, start)
    reach = _tree_reachable(steps, steps)
    box = np.zeros_like(pos)
    box[reach] = evaluate(expr, pos[reach])
    out = _tree_sweep(box, mode, steps)
    return float(out[steps, steps])


# ---------------------------------------------------------------------------
# ambiguity diagnostics


class GapResult(NamedTuple):
    """Upper and lower expectation of a payoff, their gap, and whether the gap
    is within tolerance: scalars for one payoff, (k,) arrays for a stack of k."""

    gap: Union[float, np.ndarray]
    mean_af: Union[bool, np.ndarray]
    upper: Union[float, np.ndarray]
    lower: Union[float, np.ndarray]


def _terminal_of(payoff: Union[Expr, np.ndarray], grid: GridSpec) -> np.ndarray:
    if isinstance(payoff, Expr):
        return evaluate(payoff, grid.nodes)
    return np.asarray(payoff, dtype=float)


def mean_ambiguity_gap(
    payoff: Union[Expr, np.ndarray],
    bounds: VolBounds,
    grid: GridSpec,
    tol: float = 1e-3,
) -> GapResult:
    """Gap between the upper and lower expectations of a payoff.

    `payoff` may be an expression, a vector of node values on the grid, or a
    (k, nx) stack of them, which gives every field as a (k,) array.  One upper
    march of [f; -f] yields both bounds.  A gap within `tol` classifies the
    payoff as mean-ambiguity-free.
    """
    term = _terminal_of(payoff, grid)
    rows = np.atleast_2d(term)
    both = expectation(np.concatenate([rows, -rows]), bounds, grid, UPPER)
    up, lo = both[: len(rows)], -both[len(rows) :] + 0.0
    gap = up - lo
    res = GapResult(gap, gap <= tol, up, lo)
    return GapResult(*(a.item() for a in res)) if term.ndim == 1 else res


@dataclass(frozen=True, eq=False)
class StrongProbeReport:
    thresholds: tuple
    gaps: tuple
    rejected: bool
    tol: float
    ramp_width: float


def strong_ambiguity_probe(
    payoff: Union[Expr, np.ndarray],
    bounds: VolBounds,
    grid: GridSpec,
    thresholds,
    ramp_width: float = 0.1,
    tol: float = 1e-3,
) -> StrongProbeReport:
    """Test smoothed threshold indicators of the payoff for mean ambiguity.

    A necessary condition for distribution-level ambiguity freedom is that
    every smoothed indicator 0 vee ((payoff - a) / width) wedge 1 is itself
    mean-ambiguity-free.  Any threshold whose gap exceeds `tol` rejects.
    """
    if not ramp_width > 0.0:
        raise ValueError("ramp_width must be positive")
    thresholds = tuple(float(a) for a in thresholds)
    if not thresholds:
        raise ValueError("need at least one threshold")
    term = _terminal_of(payoff, grid)
    if term.shape != (grid.nx,):
        raise ValueError(f"payoff values must have shape ({grid.nx},)")
    ramps = np.clip((term - np.array(thresholds)[:, None]) / ramp_width, 0.0, 1.0)
    gaps = tuple(mean_ambiguity_gap(ramps, bounds, grid, tol).gap.tolist())
    return StrongProbeReport(thresholds, gaps, any(g > tol for g in gaps), tol, ramp_width)
