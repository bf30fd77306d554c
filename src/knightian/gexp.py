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

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from .dsl import Expr, _check_integer, _check_real, _shown, _store, evaluate

__all__ = [
    "VolBounds",
    "GridSpec",
    "Mode",
    "UPPER",
    "LOWER",
    "GridFunction",
    "CflError",
    "GapResult",
    "default_grid",
    "solve_terminal_values",
    "solve_value_field",
    "expectation",
    "tree_expectation",
    "mean_ambiguity_gap",
]

# an explicit step needs sigma_hi^2 dt <= dx^2; we sub-step internally and
# refuse only when the required sub-step count gets absurd
SUBSTEP_CAP = 1000

MAX_TREE_STEPS = 14

# memory one run may claim, checked before anything is allocated; grids are
# admitted by _FIELD_LAYERS (nt + 1, nx) float64 layers.  The hedge table holds
# 2: delta and curvature node values, derived from the march as it passes (a
# tracemalloc peak of 2.01 layers on the 401 x 800 grid).  Counting 2 instead
# of 4 would change which grids are admitted, and so which inputs exit 2
MEMORY_BUDGET = 1 << 30
_FIELD_LAYERS = 4

# march work per payoff column, nt * m * (nx + _SUBSTEP_NODES), checked before
# marching.  Sized from a sub-step cost of up to 28 us of dispatch (nx = 3) plus
# 8 ns per node, so dispatch counts as 3500 node updates.  A one-column
# sub-step of six ufuncs costs about 4.2-4.3 us at nx = 3 and 2.8 us at
# nx = 401 (2-core Xeon VM, numpy 2.4.6, best of five whole marches of 1e5 and
# 5e4 sub-steps), and the costliest march admitted, at nx = 3, took 9.1-9.8 s.
WORK_BUDGET = 7_500_000_000
_SUBSTEP_NODES = 3500


class CflError(ValueError):
    """Grid would need more internal sub-steps than SUBSTEP_CAP allows."""


@dataclass(frozen=True)
class VolBounds:
    """Volatility band [sigma_lo, sigma_hi] over a horizon T."""

    sigma_lo: float
    sigma_hi: float
    horizon: float

    def __post_init__(self):
        lo, hi = _check_real("sigma_lo", self.sigma_lo), _check_real("sigma_hi", self.sigma_hi)
        if not (0.0 < lo <= hi):
            raise ValueError("need 0 < sigma_lo <= sigma_hi")
        # `*`, not `**`: a float power past the range raises OverflowError
        if not math.isfinite(hi * hi):
            raise ValueError(f"sigma_hi {hi!r} squared overflows a float")
        _store(self, sigma_lo=lo, sigma_hi=hi, horizon=check_tolerance("horizon", self.horizon))

    def g(self, a):
        """Worst-case diffusion flux, Peng's generator
        G(a) = max(a sigma_hi^2 / 2, a sigma_lo^2 / 2): half the band-supremum
        of s^2 * a, in the form the march computes it."""
        a = np.asarray(a, dtype=float)
        out = np.maximum(a * (0.5 * self.sigma_hi**2), a * (0.5 * self.sigma_lo**2))
        return float(out) if out.ndim == 0 else out

    @property
    def degenerate(self) -> bool:
        return self.sigma_lo == self.sigma_hi

    def check_sigma(self, sigma: float, name: str):
        """Raise ValueError unless sigma lies in the band; `name` says which input gave it."""
        if not self.sigma_lo <= sigma <= self.sigma_hi:
            raise ValueError(f"{name} {sigma} outside the band [{self.sigma_lo}, {self.sigma_hi}]")


@dataclass(frozen=True)
class Mode:
    """Which expectation to compute: upper, lower, or fixed-volatility."""

    kind: str
    sigma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("upper", "lower", "fixed"):
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.sigma is not None:
            _store(self, sigma=_check_real("mode sigma", self.sigma))
        if self.kind == "fixed":
            if self.sigma is None or not self.sigma > 0.0:
                raise ValueError("fixed mode needs a positive sigma")
        elif self.sigma is not None:
            raise ValueError(f"{self.kind} mode takes no sigma")

    @classmethod
    def fixed(cls, sigma: float) -> "Mode":
        return cls("fixed", sigma)


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
        x_min, x_max = _check_real("x_min", self.x_min), _check_real("x_max", self.x_max)
        if not (x_min < 0.0 < x_max):
            raise ValueError("grid must straddle the origin (x_min < 0 < x_max)")
        nx, nt = _check_integer("nx", self.nx, 3), _check_integer("nt", self.nt, 1)
        _store(self, x_min=x_min, x_max=x_max, nx=nx, nt=nt)
        # exact integer arithmetic, so it runs first: an nx past the float
        # range would overflow the spacing's division
        if _FIELD_LAYERS * 8 * (nt + 1) * nx > MEMORY_BUDGET:
            raise ValueError(f"a {_shown(nx)} x {_shown(nt)} grid exceeds the memory budget")
        if not 0.0 < self.dx * self.dx < math.inf:
            raise ValueError(f"node spacing {self.dx!r} and its square must be finite and positive")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """(nx,) node positions, built once and read-only."""
        nodes = np.linspace(self.x_min, self.x_max, self.nx)
        nodes.flags.writeable = False
        return nodes

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """(nx - 1,) interval widths, np.diff(nodes); built once and read-only."""
        widths = np.diff(self.nodes)
        widths.flags.writeable = False
        return widths


def _check_shape(values, shape: tuple):
    """Raise ValueError unless `values` has this shape."""
    if np.shape(values) != shape:
        raise ValueError(f"values of shape {np.shape(values)} do not fit a {shape} grid")


def _finite(values, what: str):
    """`values`, unless one of them is not finite (ValueError)."""
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{what} must be finite")
    return values


def default_grid(bounds: VolBounds, nx: int = 801, nt: int = 2000) -> GridSpec:
    """Grid spanning six worst-case standard deviations either side of 0."""
    span = 6.0 * bounds.sigma_hi * math.sqrt(bounds.horizon)
    return GridSpec(-span, span, nx, nt)


def _substeps(bounds: VolBounds, grid: GridSpec) -> tuple:
    """Sub-steps m per time step of a march on this band and grid, and the
    sub-step dtau; refuses m past SUBSTEP_CAP (CflError) or a march whose
    work exceeds WORK_BUDGET."""
    # sub-step count depends only on sigma_hi so that upper/lower/fixed runs
    # of a degenerate band walk bit-identical schedules
    dt = bounds.horizon / grid.nt
    m = max(1, math.ceil(bounds.sigma_hi * bounds.sigma_hi * dt / (grid.dx * grid.dx) - 1e-12))
    if m > SUBSTEP_CAP:
        raise CflError(
            f"grid needs {m} sub-steps per time step (cap {SUBSTEP_CAP}); "
            "use more time steps or fewer nodes"
        )
    if grid.nt * m * (grid.nx + _SUBSTEP_NODES) > WORK_BUDGET:
        raise ValueError(
            f"a march of nt={grid.nt} time steps x m={m} sub-steps on nx={grid.nx} nodes "
            "exceeds the work budget; use fewer time steps or nodes"
        )
    return m, dt / m


def check_tolerance(name: str, tol: float) -> float:
    """`tol` as a float, unless it is not a finite, positive real number (NaN fails every test)."""
    tol = _check_real(name, tol)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {tol!r}")
    return tol


def _check_mode(mode: Mode, bounds: VolBounds):
    if mode.kind == "fixed":
        bounds.check_sigma(mode.sigma, "fixed sigma")


# rows of a stack marched together: each sub-step then works on (nx, rows)
# blocks that stay in cache (measured best between 64 and 128 rows)
_MARCH_ROWS = 64


def _march(term: np.ndarray, bounds: VolBounds, grid: GridSpec, modes: tuple, layer=None):
    """March (nx,) or (k, nx) terminal node values back to t = 0 in each of
    `modes` and return their values at the origin, read as np.interp reads
    them, one entry per mode: a float, or a (k,) array.  With `layer`, the
    first mode's layers k = nt, ..., 0 of a vector payoff are handed over as
    the march reaches them, as `layer(k, values)` with an (nx,) array valid
    only during the call.

    The scheme is explicit with central second differences; boundary nodes are
    frozen (zero curvature there).  Internally each user time step is split
    into enough sub-steps to keep the update monotone.  There is one flux,
    `VolBounds.g`'s max(a sigma_hi^2 / 2, a sigma_lo^2 / 2): a fixed sigma
    marches the band [sigma, sigma], where it is a * sigma^2 / 2 exactly, and
    a lower value is a negated column of the same march, lower(f) = -upper(-f).

    A stack is marched in blocks of _MARCH_ROWS columns, each row times each
    mode's sign, mode-major, as a contiguous (nx, columns) array: the slices
    v[1:], v[:-1] and v[1:-1] are then contiguous, and every sub-step runs in
    place through two buffers.  A sub-step is six ufuncs, the update
    v += max(d k_lo, d k_hi) with flux coefficients
    k = sigma^2 / 2 * (1 / dx^2) * dtau multiplied out once per march.  The
    first differences v+ - v are formed once into an (nx - 1, columns) buffer
    and the curvature is d = (v+ - v) - (v - v-), read from them; the product
    d k_lo then overwrites v - v-, which is dead by then.  As v - v- is
    exactly -(v- - v), d is bit for bit the textbook (v+ - v) + (v- - v) but
    for the sign of a zero d where v+ = -0 and v = v- = +0, and adding either
    zero to that +0 node gives +0.  So every row is bit-identical to that
    update of it alone, signed zeros too.  The curvature rounds once where
    neighbours lie within a factor two of each other (both differences are
    then exact, by Sterbenz's lemma).  This grouping and this rounding of k
    keep the gaps that `implementability` reads off the endowments within
    2.5e-16 of a march of the net trades on the example economies;
    (v+ + v-) - v - v gives 1.9e-15 there, and k rounded as the kernel's
    sigma^2 / 2 * dtau / dx^2 gives 9e-16.

    Each mode's flux takes its own band's coefficients (sigma_lo and
    sigma_hi), and m and dtau depend only on sigma_hi of `bounds`, so a
    column marched beside modes of other bands does the arithmetic of its
    march alone.  Modes that share a band take the coefficients as 0-d
    arrays, which numpy does not convert on every call as it does a Python
    float; modes that do not, as two (nx - 2, columns) arrays per block, one
    coefficient per column (a broadcast row would run numpy's inner loop
    over a handful of columns).
    """
    for mode in modes:
        _check_mode(mode, bounds)
    term = np.asarray(term, dtype=float)
    if term.ndim not in (1, 2) or term.shape[-1] != grid.nx:
        raise ValueError(f"terminal values must have shape ({grid.nx},) or (k, {grid.nx})")
    _finite(term, "terminal values")

    m, dtau = _substeps(bounds, grid)
    inv_dx2 = 1.0 / grid.dx**2
    band = (bounds.sigma_lo, bounds.sigma_hi)
    coeffs = [
        tuple(
            0.5 * s**2 * inv_dx2 * dtau
            for s in ((mode.sigma,) * 2 if mode.kind == "fixed" else band)
        )
        for mode in modes
    ]
    signs = np.array([-1.0 if mode.kind == "lower" else 1.0 for mode in modes])
    nodes = grid.nodes

    stack = np.atleast_2d(term)
    rows = max(1, _MARCH_ROWS // len(modes))
    out = np.empty((len(modes), len(stack)))
    for start in range(0, len(stack), rows):
        block = stack[start : start + rows].T
        width = block.shape[1]
        v = np.empty((grid.nx, len(modes), width))
        np.multiply(block[:, None], signs[:, None], out=v)
        v = v.reshape(grid.nx, -1)
        ahead, behind, mid = v[1:], v[:-1], v[1:-1]
        diff = np.empty_like(ahead)  # v+ - v at every node but the last
        right, left = diff[1:], diff[:-1]
        a = np.empty_like(mid)
        if len(set(coeffs)) == 1:
            k_lo, k_hi = (np.array(c) for c in coeffs[0])
        else:  # one coefficient per column, mode-major as the columns are
            k_lo, k_hi = (np.repeat(np.repeat(c, width)[None], len(mid), 0) for c in zip(*coeffs))
        # ufuncs take their output positionally (cheaper per call), except
        # np.maximum, which deprecates that form
        for k in range(grid.nt, -1, -1):
            for _ in range(m if k < grid.nt else 0):  # layer nt is the payoff
                np.subtract(ahead, behind, diff)
                np.subtract(right, left, a)
                np.multiply(a, k_lo, left)  # left is dead once the curvature is formed
                np.multiply(a, k_hi, a)
                np.maximum(a, left, out=a)
                np.add(mid, a, mid)
            if layer is not None:
                layer(k, _signed(v[:, 0], signs[0], k < grid.nt))
        for i, sign in enumerate(signs):
            values = _signed(v[:, i * width : (i + 1) * width], sign, True)
            out[i, start : start + width] = [np.interp(0.0, nodes, col) for col in values.T]
        # freed before the next block's are made
        del v, ahead, behind, mid, diff, right, left, a, k_lo, k_hi, values
    return out[:, 0].tolist() if term.ndim == 1 else out


def _signed(values: np.ndarray, sign: float, marched: bool) -> np.ndarray:
    """March columns times their mode's sign, as a new array: -upper(-f) back
    to lower(f).  Negation is exact but turns marched zeros into -0.0; adding
    0.0 to the marched interior restores +0.0, boundaries keep the payoff's."""
    values = values * sign
    if sign < 0.0 and marched:
        values[1:-1] += 0.0
    return values


def solve_terminal_values(
    terminal: np.ndarray, bounds: VolBounds, grid: GridSpec, mode: Mode
) -> "GridFunction":
    """Backward-solve from explicit (nx,) terminal node values, keeping every
    layer: the march writes each one into the field's table as it passes."""
    if np.shape(terminal) != (grid.nx,):
        raise ValueError(f"terminal values must have shape ({grid.nx},)")
    table = np.empty((grid.nt + 1, grid.nx))
    _march(terminal, bounds, grid, (mode,), table.__setitem__)
    return GridFunction(table, grid, bounds.horizon)


def solve_value_field(expr: Expr, bounds: VolBounds, grid: GridSpec, mode: Mode) -> "GridFunction":
    """Backward-solve the value surface of a payoff expression."""
    return solve_terminal_values(evaluate(expr, grid.nodes), bounds, grid, mode)


def expectation(payoff, bounds: VolBounds, grid: GridSpec, mode: Union[Mode, tuple]):
    """Expectation at the origin of an expression or of node values on the
    grid: an (nx,) vector gives a float, a (k, nx) stack, marched at once, a
    (k,) array.  A tuple of modes, of any bands, is marched at once too and
    gives one value per mode.  The march reads only the origin, as np.interp
    reads it, and builds no field and no (k, nx) output.  Finite node values
    can still overflow in the march, and an origin value that is not finite
    raises ValueError: a library caller has no np.errstate to stop it."""
    if isinstance(mode, Mode):
        (value,) = expectation(payoff, bounds, grid, (mode,))
        return value
    if not mode:
        raise ValueError("expectation needs at least one mode")
    values = _march(_terminal_of(payoff, grid), bounds, grid, mode)
    return _finite(values, "origin values of the march")


def _fixed_kernel(sigma: float, bounds: VolBounds, grid: GridSpec) -> np.ndarray:
    """(nx,) weights w of the fixed-sigma march, so that w . f is its origin
    value of terminal node values f, up to rounding (`_priced`).

    At a fixed sigma one sub-step of the march is linear, v <- A v, with
    frozen boundary rows and interior rows lam v[i-1] + (1 - 2 lam) v[i] +
    lam v[i+1], lam = sigma^2 / 2 * dtau / dx^2.  The origin value is
    e0 . A^(nt m) f, where e0 holds the origin's np.interp weights, so
    w = (A^T)^(nt m) e0: the discrete forward equation, exactly adjoint to
    the march.  Each sub-step moves lam of every interior node's weight to
    each neighbour, and a boundary node keeps what it receives.  The checks
    of a march run first: sigma must lie in the band, and its work budget
    applies.
    """
    _check_mode(Mode.fixed(sigma), bounds)
    m, dtau = _substeps(bounds, grid)
    lam = np.array(0.5 * sigma * sigma * dtau / (grid.dx * grid.dx))  # 0-d, as in `_march`
    (j,), (d,) = _bracket(grid, np.zeros(1))
    t = d / grid.widths[j]
    w = np.zeros(grid.nx)
    w[j + 1] = t
    w[j] = 1.0 - t
    inner, left, right = w[1:-1], w[:-2], w[2:]
    flow = np.empty_like(inner)
    for _ in range(grid.nt * m):
        np.multiply(inner, lam, flow)
        np.subtract(inner, flow, inner)
        np.subtract(inner, flow, inner)
        np.add(left, flow, left)
        np.add(right, flow, right)
    return w


def _priced(term: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """weights . row for each row of a (k, nx) stack, as a (k,) array, by one
    einsum: its sum over a row runs the same way whatever the stack's height,
    the row's position or the array's alignment, so a row's price does not
    depend on what it is stacked with (BLAS's dot splits its sums by row
    count).  A price that is not finite raises ValueError, as a march does
    for such a row."""
    return _finite(np.einsum("ij,j->i", term, weights), "priced values")


# ---------------------------------------------------------------------------
# fields on the grid


def layer_at_or_below(t: float, horizon: float, nt: int) -> int:
    """Index of the stored time layer at or immediately below t; t must be a
    real number in [0, horizon]."""
    t = _check_real("time", t)
    if not 0.0 <= t <= horizon + 1e-12:
        raise ValueError(f"time {t} outside [0, {horizon}]")
    return min(nt, int(math.floor(t / (horizon / nt) + 1e-9)))


def _bracket(grid: GridSpec, x: np.ndarray):
    """Grid interval of each query point, clamped to the grid.

    Returns j and x - nodes[j] with nodes[j] <= x < nodes[j + 1] (j = nx - 1
    only at x_max).  The uniform-grid guess is corrected against `grid.nodes`,
    first at its left end and then at the right end of the corrected interval,
    so the bracket is the one np.interp's search finds.
    """
    x = np.minimum(np.maximum(x, grid.x_min), grid.x_max)
    # fmin also sends NaN to a valid index; its d stays NaN, as np.interp's value
    j = np.fmin((x - grid.x_min) / grid.dx, grid.nx - 2).astype(np.intp)
    nodes = grid.nodes
    # the guess is off by at most one, and never in both directions
    j -= np.take(nodes, j) > x
    j += np.take(nodes, j + 1) <= x
    return j, x - np.take(nodes, j)


def _rows_at(values: np.ndarray, j: np.ndarray, d: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """(..., n) node values, row by row, at a `_bracket`'s points, their
    intervals j counted from the first node, as a (..., len(j)) array, by
    np.interp's formula: the slopes (v[j+1] - v[j]) / widths[j], and 0 past
    the last node, derived over the rows, then slope * d + v[j]."""
    slope = np.empty_like(values)
    np.subtract(values[..., 1:], values[..., :-1], slope[..., :-1])
    np.divide(slope[..., :-1], widths, slope[..., :-1])
    slope[..., -1] = 0.0
    near = slope.take(j, axis=-1)
    return np.add(np.multiply(near, d, out=near), values.take(j, axis=-1), out=near)


def _sample(table: np.ndarray, grid: GridSpec, horizon: float, t: float, bracket) -> np.ndarray:
    """Every field of an (nt + 1, nx, f) table of f fields' node values at the
    layer at or below t and a `_bracket`'s points, as an (f, n) array, or the
    field of an (nt + 1, nx) table as an (n,) one (`_rows_at` on the layer)."""
    layer = table[layer_at_or_below(t, horizon, grid.nt)]
    return _rows_at(layer.T, *bracket, grid.widths)


@dataclass(eq=False)
class GridFunction:
    """Space-time field sampled like the solver stores it: the time layer at
    or below t, linear interpolation in x (clamped at the grid edges).

    `table` holds the (nt + 1, nx) node values, row k the layer at
    t_k = k * horizon / nt; it may be a strided view of a wider array, and
    construction neither copies nor writes an array it is given.  No slope
    is stored: `at` reads its layer through `_sample`, whose `_rows_at`
    derives the slopes there, so it matches np.interp bit for bit, except
    that a stored -0.0 can come back as 0.0.
    """

    table: np.ndarray
    grid: GridSpec
    horizon: float

    def __post_init__(self):
        self.horizon = check_tolerance("horizon", self.horizon)
        self.table = np.asarray(self.table)
        _check_shape(self.table, (self.grid.nt + 1, self.grid.nx))

    @classmethod
    def of(cls, values, grid: GridSpec, horizon: float) -> "GridFunction":
        """The field of (nt + 1, nx) node values, copied into a new table."""
        return cls(np.array(values, dtype=float), grid, horizon)

    @property
    def values(self) -> np.ndarray:
        """(nt + 1, nx) node values; row k is the layer at t_k = k * horizon / nt."""
        return self.table

    def at(self, t: float, x):
        """The field at time t and point(s) x, which must be real numbers: a
        float for a scalar x, else an array of x's shape."""
        xa = np.asarray(x)
        if xa.dtype.kind not in "iuf":  # a bool, a string or an object is no point
            raise ValueError(f"points must be real numbers, got {_shown(x)}")
        xa = xa.astype(float, copy=False)
        bracket = _bracket(self.grid, xa.reshape(-1))
        out = _sample(self.table, self.grid, self.horizon, t, bracket).reshape(xa.shape)
        return float(out) if out.ndim == 0 else out


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
    averaging its two children with weight one half, as 0.5 a + 0.5 b: for
    finite children it cannot overflow, and it has the bits of 0.5 (a + b)
    wherever that does not overflow and the halves are normal numbers.
    Upper mode maximizes, lower mode minimizes.  Entries outside the
    reachable set are garbage and must not be read by the caller.
    """
    pick = np.maximum if mode.kind == "upper" else np.minimum
    v = box
    for _ in range(levels):
        half = 0.5 * v
        lo_move = half[2:, 1:-1] + half[:-2, 1:-1]
        hi_move = half[1:-1, 2:] + half[1:-1, :-2]
        w = np.zeros_like(v)
        w[1:-1, 1:-1] = pick(lo_move, hi_move)
        v = w
    return v


def tree_expectation(
    expr: Expr, bounds: VolBounds, steps: int, mode: Mode, start: float = 0.0
) -> float:
    """Exact n-step discrete-time value, n <= 14.

    Upper and lower modes run a dynamic program over a two-increment lattice;
    fixed mode is a plain binomial evaluation at the given sigma.  A start or
    payoff value on the lattice that is not finite raises ValueError.
    """
    steps = _check_integer("steps", steps, 1)
    if steps > MAX_TREE_STEPS:
        raise ValueError(f"steps must lie in 1..{MAX_TREE_STEPS}")
    _check_mode(mode, bounds)
    start = _check_real("start", start)
    if not math.isfinite(start):
        raise ValueError(f"start must be finite, got {start!r}")

    if mode.kind == "fixed":
        h = mode.sigma * math.sqrt(bounds.horizon / steps)
        k = np.arange(steps + 1)
        xs = start + (2.0 * k - steps) * h
        v = _finite(evaluate(expr, xs), "payoff values on the lattice")
        for _ in range(steps):
            v = 0.5 * v  # halves first, as `_tree_sweep` averages
            v = v[1:] + v[:-1]
        return float(v[0])

    pos = _tree_positions(bounds, steps, start)
    reach = _tree_reachable(steps, steps)
    box = np.zeros_like(pos)
    box[reach] = _finite(evaluate(expr, pos[reach]), "payoff values on the lattice")
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

    @classmethod
    def of(cls, upper, lower, tol: float) -> "GapResult":
        """The gap upper - lower of these values and its verdict within `tol`."""
        gap = upper - lower
        return cls(gap, gap <= tol, upper, lower)


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
    (k, nx) stack of them, which gives every field as a (k,) array.  One
    march yields both bounds: each of its blocks takes f and -f side by side,
    with no doubled copy of the stack, and lower(f) = -upper(-f).  A gap
    within `tol`, which must be finite and positive, classifies the payoff
    as mean-ambiguity-free.  An expectation that is not finite raises
    ValueError, never a NaN gap classified as not mean-ambiguity-free.
    """
    tol = check_tolerance("tol", tol)
    return GapResult.of(*expectation(payoff, bounds, grid, (UPPER, LOWER)), tol)
