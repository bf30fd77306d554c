"""Pathwise replication under volatility uncertainty.

The upper value surface of a payoff yields a delta and a curvature field.
Along simulated paths the delta accumulates trading gains while the
curvature drives a nondecreasing compensator; upper value plus gains minus
compensator reproduces the payoff up to discretization noise.  The
compensator accrues fastest under volatilities far from the worst case and
vanishes along extremal paths.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dsl import Expr, evaluate
from .gexp import (
    MEMORY_BUDGET,
    GridSpec,
    UPPER,
    ValueField,
    VolBounds,
    conditional_at,
    layer_at_or_below,
    solve_value_field,
)

__all__ = [
    "SimulationError",
    "GridFunction",
    "HedgeField",
    "ControlSpec",
    "PathBatch",
    "ReplicationReport",
    "TransformedStrategy",
    "hedge_field",
    "simulate_paths",
    "replicate",
    "exp_martingale_transform",
    "strategy_gains",
]


class SimulationError(RuntimeError):
    """Path simulation or replication produced unusable statistics."""


# increments are drawn for a chunk of paths at a time, about this many bytes of them
_CHUNK_BYTES = 16 << 20
# path i of a seed draws from the Philox key (seed << 32) + i; keys hold 128 bits
_MAX_PATHS = 1 << 32
_MAX_SEED = 1 << 96
_MASK64 = (1 << 64) - 1
# replicate keeps at most eight float64 statistics per path
_PATH_BYTES = 64


def _check_batch(n_paths: int, n_steps: int, seed: int) -> None:
    """Reject batches the walk cannot run or cannot keep statistics for, before allocating."""
    if n_paths < 1 or n_steps < 1:
        raise ValueError("paths and steps must be positive")
    if n_paths >= _MAX_PATHS:
        raise ValueError(
            f"{n_paths} paths would overlap the next seed's substreams; at most {_MAX_PATHS - 1}"
        )
    if n_paths * _PATH_BYTES > MEMORY_BUDGET:
        raise ValueError(f"{n_paths} paths exceed the memory budget of {MEMORY_BUDGET} bytes")
    if 8 * n_steps > _CHUNK_BYTES:
        raise ValueError(f"{n_steps} steps exceed the per-chunk budget of {_CHUNK_BYTES // 8}")
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**96), got {seed}")


def _bracket(grid: GridSpec, nodes: np.ndarray, x: np.ndarray):
    """Grid interval of each query point, clamped to the grid.

    Returns j and x - nodes[j] with nodes[j] <= x < nodes[j + 1] (j = nx - 1
    only at x_max).  The uniform-grid guess is corrected against `nodes`, so
    the bracket is the one np.interp's search finds.
    """
    x = np.minimum(np.maximum(x, grid.x_min), grid.x_max)
    # fmin also sends NaN to a valid index; its d stays NaN, as np.interp's value
    j = np.fmin((x - grid.x_min) / grid.dx, grid.nx - 2).astype(np.intp)
    j -= nodes[j] > x
    j += nodes[j + 1] <= x
    return j, x - nodes[j]


@dataclass(eq=False)
class GridFunction:
    """Space-time field sampled like the solver stores it: the time layer at
    or below t, linear interpolation in x (clamped at the grid edges).

    `slopes` tabulates the slope of every grid interval once, at
    construction (0 past the last node); every sample reads it.  Sampling
    matches np.interp bit for bit, except that a stored -0.0 can come back
    as 0.0.
    """

    values: np.ndarray  # (nt + 1, nx)
    grid: GridSpec
    horizon: float

    def __post_init__(self):
        shape = (self.grid.nt + 1, self.grid.nx)
        if np.shape(self.values) != shape:
            raise ValueError(f"values of shape {np.shape(self.values)} do not fit a {shape} grid")
        self.slopes = np.zeros(shape)
        self.slopes[:, :-1] = np.diff(self.values, axis=-1) / np.diff(self.grid.nodes)

    def sample(self, t: float, bracket) -> np.ndarray:
        """The layer at or below t at the points of a `_bracket` on this grid:
        np.interp's formula."""
        k = layer_at_or_below(t, self.horizon, self.grid.nt)
        j, d = bracket
        return self.slopes[k][j] * d + self.values[k][j]

    def at(self, t: float, x):
        xa = np.asarray(x, dtype=float)
        bracket = _bracket(self.grid, self.grid.nodes, xa.reshape(-1))
        out = self.sample(t, bracket).reshape(xa.shape)
        return float(out) if out.ndim == 0 else out


@dataclass(eq=False)
class HedgeField:
    """Delta and curvature of the upper value surface of a payoff."""

    eta: GridFunction  # delta: first space derivative
    phi_hat: GridFunction  # half the second space derivative
    field: ValueField

    @property
    def bounds(self) -> VolBounds:
        return self.field.bounds

    @property
    def grid(self) -> GridSpec:
        return self.field.grid


def hedge_field(expr: Expr, bounds: VolBounds, grid: GridSpec) -> HedgeField:
    """Differentiate the upper value surface by central differences.

    Boundary columns copy their interior neighbors; paths that wander that
    far are excluded from replication statistics anyway.
    """
    field = solve_value_field(expr, bounds, grid, UPPER)
    v = field.values
    dx = grid.dx
    eta = np.empty_like(v)
    eta[:, 1:-1] = (v[:, 2:] - v[:, :-2]) / (2.0 * dx)
    eta[:, 0] = eta[:, 1]
    eta[:, -1] = eta[:, -2]
    phi = np.empty_like(v)
    phi[:, 1:-1] = 0.5 * (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / dx**2
    phi[:, 0] = phi[:, 1]
    phi[:, -1] = phi[:, -2]
    return HedgeField(
        GridFunction(eta, grid, bounds.horizon),
        GridFunction(phi, grid, bounds.horizon),
        field,
    )


@dataclass(eq=False)
class ControlSpec:
    """Volatility control for simulated paths.

    `constant` holds sigma fixed; `extremal` picks sigma_hi where the hedge
    curvature is nonnegative and sigma_lo elsewhere, the worst case for the
    upper value.
    """

    kind: str
    sigma: Optional[float] = None
    hedge: Optional[HedgeField] = None

    @classmethod
    def constant(cls, sigma: float) -> "ControlSpec":
        return cls("constant", sigma=float(sigma))

    @classmethod
    def extremal(cls, hedge: HedgeField) -> "ControlSpec":
        return cls("extremal", hedge=hedge)


@dataclass(eq=False)
class PathBatch:
    """Recipe for simulated driver paths: control, bounds, sizes, seed and
    increment kind.

    No path is stored.  `replicate` and `strategy_gains` generate the paths
    chunk by chunk and consume each chunk as it is made, so their memory is
    O(chunk x n_steps) whatever the batch size.
    """

    control: ControlSpec
    bounds: VolBounds
    n_paths: int
    n_steps: int
    seed: int
    increments: str

    @property
    def dt(self) -> float:
        return self.bounds.horizon / self.n_steps


def _draw_increments(gen, state: dict, seed: int, start: int, stop: int, n_steps: int, kind: str):
    """Unit-variance increments of paths start..stop-1, shape (n_steps, rows).

    Path i draws from its own counter-based substream, Philox keyed
    (seed << 32) + i, so it is a pure function of (seed, i): neither the
    batch size nor the chunking reshuffles it.  One generator serves every
    path; `state` is a fresh Philox state whose key is reset per path.
    """
    raw = np.empty((stop - start, n_steps), dtype=np.int64 if kind == "binary" else float)
    key = state["state"]["key"]
    for row, i in enumerate(range(start, stop)):
        path_key = (seed << 32) + i
        key[0] = path_key & _MASK64
        key[1] = path_key >> 64
        gen.bit_generator.state = state
        if kind == "binary":
            raw[row] = gen.integers(0, 2, n_steps)
        else:
            gen.standard_normal(n_steps, out=raw[row])
    z = np.ascontiguousarray(raw.T, dtype=float)
    if kind == "binary":
        z *= 2.0
        z -= 1.0
    return z


def _walk(paths: PathBatch, grid: Optional[GridSpec] = None):
    """Generate a batch chunk by chunk.

    Yields (rows, steps) per chunk, rows being the chunk's slice of path
    indices.  `steps` yields (k, b_k, b_{k+1}, sigma_k, bracket) for
    k = 0 .. n_steps - 1, where bracket is b_k's interval on `grid` (None
    without a grid) and sigma_k is a float under constant control.
    """
    control = paths.control
    n_steps = paths.n_steps
    dt = paths.dt
    sq = math.sqrt(dt)
    nodes = None if grid is None else grid.nodes
    if control.kind == "extremal":
        phi = control.hedge.phi_hat
        phi_nodes = phi.grid.nodes
        shared = grid == phi.grid
        hi, lo = paths.bounds.sigma_hi, paths.bounds.sigma_lo

    def steps(z):
        bk = np.zeros(z.shape[1])
        for k in range(n_steps):
            bracket = None if grid is None else _bracket(grid, nodes, bk)
            if control.kind == "constant":
                sig = control.sigma
            else:
                own = bracket if shared else _bracket(phi.grid, phi_nodes, bk)
                curv = phi.sample(k * dt, own)
                # ties at zero curvature take the high edge of the band
                sig = np.where(curv >= 0.0, hi, lo)
            b_next = bk + sig * sq * z[k]
            yield k, bk, b_next, sig, bracket
            bk = b_next

    gen = np.random.Generator(np.random.Philox(key=0))
    state = gen.bit_generator.state
    chunk = max(1, _CHUNK_BYTES // (8 * n_steps))
    for start in range(0, paths.n_paths, chunk):
        stop = min(start + chunk, paths.n_paths)
        z = _draw_increments(gen, state, paths.seed, start, stop, n_steps, paths.increments)
        yield slice(start, stop), steps(z)


def simulate_paths(
    control: ControlSpec,
    bounds: VolBounds,
    n_paths: int,
    n_steps: int,
    seed: int = 0,
    increments: str = "binary",
) -> PathBatch:
    """Driver paths from 0 under the given volatility control, as a lazy batch."""
    _check_batch(n_paths, n_steps, seed)
    if increments not in ("binary", "gaussian"):
        raise ValueError(f"unknown increment kind {increments!r}")
    if control.kind == "constant":
        if control.sigma is None or not bounds.sigma_lo <= control.sigma <= bounds.sigma_hi:
            raise ValueError("constant control needs sigma inside the band")
    elif control.kind == "extremal":
        if control.hedge is None:
            raise ValueError("extremal control needs a hedge field")
        if control.hedge.bounds != bounds:
            raise ValueError("hedge field was built for different bounds")
    else:
        raise ValueError(f"unknown control kind {control.kind!r}")
    return PathBatch(control, bounds, n_paths, n_steps, seed, increments)


@dataclass(eq=False)
class ReplicationReport:
    """Pathwise accounting of upper value + gains - compensator vs payoff."""

    n_paths: int
    n_steps: int
    n_excluded: int
    seed: int
    upper_value: float
    mean_gap: float
    se_gap: float
    mean_gains: float
    mean_k: float
    se_k: float
    min_k_increment: float
    gaps: np.ndarray  # per included path
    k_terminal: np.ndarray  # per included path

    def to_dict(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "n_steps": self.n_steps,
            "n_excluded": self.n_excluded,
            "seed": self.seed,
            "upper_value": self.upper_value,
            "mean_gap": self.mean_gap,
            "se_gap": self.se_gap,
            "mean_gains": self.mean_gains,
            "mean_k": self.mean_k,
            "se_k": self.se_k,
            "min_k_increment": self.min_k_increment,
        }


def replicate(
    expr: Expr, hedge: HedgeField, paths: PathBatch, upper_value: Optional[float] = None
) -> ReplicationReport:
    """Run the hedging identity along a path batch.

    Per path: gap = [upper value + sum eta dB - K_T] - payoff(B_T), where the
    compensator K accrues (worst-case flux of twice the curvature minus
    curvature times realized variance) * dt, a nonnegative amount each step.
    Paths leaving the grid are excluded from the statistics.

    The paths are generated and consumed chunk by chunk; per step, delta,
    curvature and an extremal control all read one interpolation bracket.
    """
    if hedge.bounds != paths.bounds:
        raise ValueError("hedge field and paths use different bounds")
    if upper_value is None:
        upper_value = conditional_at(hedge.field, 0.0, 0.0)

    grid = hedge.grid
    eta, phi = hedge.eta, hedge.phi_hat
    n = paths.n_paths
    dt = paths.dt
    g = hedge.bounds.g
    gains = np.empty(n)
    k_acc = np.empty(n)
    gap = np.empty(n)
    inside = np.empty(n, dtype=bool)
    min_inc = math.inf
    for rows, steps in _walk(paths, grid):
        size = rows.stop - rows.start
        gain = np.zeros(size)
        comp = np.zeros(size)
        low = np.full(size, math.inf)
        b_min = np.zeros(size)
        b_max = np.zeros(size)
        for k, bk, b_next, sig, bracket in steps:
            eta_k = eta.sample(k * dt, bracket)
            phi_k = phi.sample(k * dt, bracket)
            gain += eta_k * (b_next - bk)
            inc = (g(2.0 * phi_k) - phi_k * (sig * sig)) * dt
            comp += inc
            np.minimum(low, inc, out=low)
            np.minimum(b_min, b_next, out=b_min)
            np.maximum(b_max, b_next, out=b_max)
        chunk_in = (b_min >= grid.x_min) & (b_max <= grid.x_max)
        if chunk_in.any():
            min_inc = min(min_inc, float(low[chunk_in].min()))
        gap[rows] = (upper_value + gain - comp) - evaluate(expr, b_next)
        gains[rows] = gain
        k_acc[rows] = comp
        inside[rows] = chunk_in

    n_excluded = int(n - inside.sum())
    if not np.any(inside):
        raise SimulationError("every path left the grid; enlarge it or shorten the horizon")
    gap_in = gap[inside]
    k_in = k_acc[inside]
    if not (np.all(np.isfinite(gap_in)) and np.all(np.isfinite(k_in))):
        raise SimulationError("non-finite replication statistics")

    n_in = gap_in.size
    se_gap = float(np.std(gap_in, ddof=1) / math.sqrt(n_in)) if n_in > 1 else math.nan
    se_k = float(np.std(k_in, ddof=1) / math.sqrt(n_in)) if n_in > 1 else math.nan
    return ReplicationReport(
        n_paths=n,
        n_steps=paths.n_steps,
        n_excluded=n_excluded,
        seed=paths.seed,
        upper_value=float(upper_value),
        mean_gap=float(gap_in.mean()),
        se_gap=se_gap,
        mean_gains=float(gains[inside].mean()),
        mean_k=float(k_in.mean()),
        se_k=se_k,
        min_k_increment=min_inc,
        gaps=gap_in,
        k_terminal=k_in,
    )


@dataclass(eq=False)
class TransformedStrategy:
    """A strategy rebased to a positive loading: holds numerator / loading.

    Sampling divides the two fields at the query point itself; dividing
    interpolated values keeps the rebased gains consistent with integrating
    against loading * dB.
    """

    numerator: GridFunction
    loading: GridFunction
    floor: float

    def at(self, t: float, x):
        return self.numerator.at(t, x) / self.loading.at(t, x)

    @property
    def node_values(self) -> np.ndarray:
        return self.numerator.values / self.loading.values


def exp_martingale_transform(
    theta: GridFunction, loading: GridFunction, floor: float = 1e-6
) -> TransformedStrategy:
    """Rebase strategy theta to the integrator with the given loading.

    The loading must be finite and stay at least `floor` away from zero in
    absolute value on the whole grid.
    """
    if not floor > 0.0:
        raise ValueError("floor must be positive")
    if theta.grid != loading.grid or theta.horizon != loading.horizon:
        raise ValueError("theta and loading live on different grids")
    if not np.all(np.isfinite(loading.values)):
        raise ValueError("loading is not finite on the grid")
    low = float(np.min(np.abs(loading.values)))
    if low < floor:
        raise ValueError(f"loading reaches {low:.3e}, below the floor {floor:.3e}")
    return TransformedStrategy(theta, loading, floor)


def strategy_gains(strategy, paths: PathBatch, loading: Optional[GridFunction] = None):
    """Accumulated trading gains of a sampled strategy along each path.

    Without a loading the integrator is the driver itself; with one, each
    increment is scaled by the loading sampled at the step's left endpoint.
    """
    dt = paths.dt
    gains = np.empty(paths.n_paths)
    for rows, steps in _walk(paths):
        acc = np.zeros(rows.stop - rows.start)
        for k, bk, b_next, _sig, _bracket in steps:
            t_k = k * dt
            s = strategy.at(t_k, bk)
            db = b_next - bk
            if loading is not None:
                db = loading.at(t_k, bk) * db
            acc += s * db
        gains[rows] = acc
    return gains
