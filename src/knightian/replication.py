"""Pathwise replication under volatility uncertainty.

The upper value surface of a payoff yields a delta and a curvature field.
Along simulated paths the delta accumulates trading gains while the
curvature drives a nondecreasing compensator; upper value plus gains minus
compensator reproduces the payoff up to discretization noise.  The
compensator accrues fastest under volatilities far from the worst case and
vanishes along extremal paths.
"""

import math
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .dsl import Expr, evaluate
from .gexp import (
    MEMORY_BUDGET,
    UPPER,
    GridFunction,
    GridSpec,
    VolBounds,
    _bracket,
    _edges,
    _march,
    _sample,
    layer_at_or_below,
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


# increments are drawn for a chunk of _CHUNK_BYTES // (8 * n_steps) paths at a
# time: one array of this many bytes of float64 gaussian increments (plus one
# path's buffer), or an eighth of it of int8 binary ones (and while those are
# drawn, two more arrays of that size)
_CHUNK_BYTES = 16 << 20
# path i of a seed draws from the Philox key (seed << 32) + i; keys hold 128 bits
_MAX_PATHS = 1 << 32
_MAX_SEED = 1 << 96
_MASK64 = (1 << 64) - 1
# replicate keeps at most eight float64 statistics per path
_PATH_BYTES = 64


def _check_batch(n_paths: int, n_steps: int, seed: int, increments: str) -> None:
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
    if increments not in ("binary", "gaussian"):
        raise ValueError(f"unknown increment kind {increments!r}")


@dataclass(eq=False)
class HedgeField:
    """Delta and curvature of the upper value surface of a payoff, and that
    surface's value at the origin.

    Both fields live in `table`, one (nt + 1, nx, 4) array: slope and value
    of delta, then of curvature.  `eta` and `phi_hat` are its two halves, so
    `sample` reads both with one gather.
    """

    eta: GridFunction  # delta: first space derivative
    phi_hat: GridFunction  # half the second space derivative
    bounds: VolBounds
    upper_value: float  # upper expectation of the payoff, at the origin
    table: np.ndarray

    @property
    def grid(self) -> GridSpec:
        return self.eta.grid

    def sample(self, t: float, bracket):
        """Delta and curvature at the layer at or below t and the points of a
        `_bracket` on the grid."""
        return _sample(self.table, layer_at_or_below(t, self.bounds.horizon, self.grid.nt), bracket)


def hedge_field(expr: Expr, bounds: VolBounds, grid: GridSpec) -> HedgeField:
    """Differentiate the upper value surface by central differences.

    Boundary columns copy their interior neighbors; paths that wander that
    far are excluded from replication statistics anyway.  Each time layer of
    the upper march is differentiated as the march passes it, straight into
    the hedge table, so the value surface itself is never stored: the table
    is all of (nt + 1, nx) size that is allocated.
    """
    dx = grid.dx
    table = np.empty((grid.nt + 1, grid.nx, 4))

    def differentiate(k, v):
        up, mid, down = v[2:], v[1:-1], v[:-2]
        eta, phi = table[k, :, 1], table[k, :, 3]
        # eta = (v+ - v-) / (2 dx)
        inner = eta[1:-1]
        np.subtract(up, down, inner)
        np.divide(inner, 2.0 * dx, inner)
        # phi = 0.5 * (v+ - 2 v + v-) / dx^2
        inner = phi[1:-1]
        np.multiply(mid, 2.0, inner)
        np.subtract(up, inner, inner)
        np.add(inner, down, inner)
        np.multiply(inner, 0.5, inner)
        np.divide(inner, dx**2, inner)
        for col in (eta, phi):
            col[0] = col[1]
            col[-1] = col[-2]

    (upper_value,) = _march(evaluate(expr, grid.nodes), bounds, grid, (UPPER,), differentiate)
    return HedgeField(
        GridFunction(table[..., 0:2], grid, bounds.horizon),
        GridFunction(table[..., 2:4], grid, bounds.horizon),
        bounds,
        upper_value,
        table,
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
    chunk by chunk and consume each chunk as it is made, so whatever the
    batch size they hold one chunk of increments: one `_CHUNK_BYTES` array
    of float64 gaussian ones, or an eighth of that of int8 binary ones (three
    such byte arrays while a binary chunk is drawn).
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


def _transpose_bytes(a: np.ndarray) -> np.ndarray:
    """a.T as a new C-contiguous array, for a C-contiguous (rows, 8 m) uint8
    array: its 8-byte words are transposed as uint64 first, then the bytes
    inside each word, several times faster than numpy's bytewise transpose."""
    rows, width = a.shape
    words = np.ascontiguousarray(a.view(np.uint64).T).view(np.uint8)
    return np.ascontiguousarray(words.reshape(-1, rows, 8).transpose(0, 2, 1)).reshape(width, rows)


def _draw_increments(gen, state: dict, seed: int, start: int, stop: int, n_steps: int, kind: str):
    """Unit-variance increments of paths start..stop-1, step-major, shape
    (n_steps, rows): int8 signs for binary increments, float64 for gaussian.

    Path i draws from its own counter-based substream, Philox keyed
    (seed << 32) + i, so it is a pure function of (seed, i): neither the
    batch size nor the chunking reshuffles it.  One generator serves every
    path; `state` is a fresh Philox state whose key is reset per path.

    A binary path draws raw 64-bit words: step 2w is bit 31 of word w and
    step 2w + 1 its bit 63, the top bits of its low and high 32-bit halves.
    That is numpy's bounded-integer draw of integers(0, 2), which takes the
    low half first; test_replication.py::TestRawWordDraw pins the two equal,
    so it is what catches a numpy change to that draw.
    """
    rows = stop - start
    key = state["state"]["key"]
    bits = gen.bit_generator
    if kind == "binary":
        # per step, the byte of its 32-bit half that holds bit 31; steps are
        # drawn up to a multiple of 8 for _transpose_bytes, and the extra dropped
        width = -(-n_steps // 8) * 8
        tops = np.empty((rows, width), dtype=np.uint8)
    else:
        # drawn a path at a time into one buffer, each copied into its column
        z = np.empty((n_steps, rows))
        path = np.empty(n_steps)
    for row, i in enumerate(range(start, stop)):
        path_key = (seed << 32) + i
        key[0] = path_key & _MASK64
        key[1] = path_key >> 64
        bits.state = state
        if kind == "binary":
            # little-endian words: byte 3 of each 32-bit half holds its bit 31
            words = bits.random_raw(width // 2).astype("<u8", copy=False)
            tops[row] = words.view(np.uint8)[3::4]
        else:
            gen.standard_normal(n_steps, out=path)
            z[:, row] = path
    if kind == "gaussian":
        return z
    tops >>= 7  # the drawn bits, 0 or 1
    z = _transpose_bytes(tops)[:n_steps].view(np.int8)
    z += z
    z -= 1
    return z


def _walk(paths: PathBatch, grid: Optional[GridSpec] = None):
    """Generate a batch chunk by chunk.

    Yields (rows, steps) per chunk, rows being the chunk's slice of path
    indices.  `steps` yields (k, b_k, b_{k+1}, sigma_k, bracket) for
    k = 0 .. n_steps - 1, where bracket is b_k's interval on `grid` (None
    without a grid) and sigma_k is a float under constant control.  A
    chunk's increments are freed once its steps are exhausted, before the
    next chunk is drawn.
    """
    control = paths.control
    n_steps = paths.n_steps
    dt = paths.dt
    sq = math.sqrt(dt)
    edges = None if grid is None else _edges(grid)
    if control.kind == "extremal":
        phi = control.hedge.phi_hat
        shared = grid == phi.grid
        hi, lo = paths.bounds.sigma_hi, paths.bounds.sigma_lo

    def steps(z):
        bk = np.zeros(z.shape[1])
        for k in range(n_steps):
            bracket = None if grid is None else _bracket(grid, edges, bk)
            if control.kind == "constant":
                sig = control.sigma
            else:
                own = bracket if shared else _bracket(phi.grid, phi.edges, bk)
                curv = phi.sample(k * dt, own)
                # ties at zero curvature take the high edge of the band
                sig = np.where(curv >= 0.0, hi, lo)
            # a binary z[k] is int8, promoted to the same float64 signs
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
        del z  # left to the chunk's steps, which drop it when exhausted


def simulate_paths(
    control: ControlSpec,
    bounds: VolBounds,
    n_paths: int,
    n_steps: int,
    seed: int = 0,
    increments: str = "binary",
) -> PathBatch:
    """Driver paths from 0 under the given volatility control, as a lazy batch."""
    _check_batch(n_paths, n_steps, seed, increments)
    if control.kind == "constant":
        if control.sigma is None:
            raise ValueError("constant control needs a sigma")
        bounds.check_sigma(control.sigma, "constant control sigma")
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
        """Every field but the per-path arrays `gaps` and `k_terminal`."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("gaps", "k_terminal")
        }


def replicate(expr: Expr, hedge: HedgeField, paths: PathBatch) -> ReplicationReport:
    """Run the hedging identity along a path batch.

    Per path: gap = [upper value + sum eta dB - K_T] - payoff(B_T), where the
    upper value is the hedge field's value at the origin and the
    compensator K accrues (worst-case flux of twice the curvature minus
    curvature times realized variance) * dt, a nonnegative amount each step.
    Paths leaving the grid are excluded from the statistics.

    The paths are generated and consumed chunk by chunk; per step, delta,
    curvature and an extremal control all read one interpolation bracket,
    and delta and curvature come from one gather of the hedge table.
    """
    if hedge.bounds != paths.bounds:
        raise ValueError("hedge field and paths use different bounds")

    grid = hedge.grid
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
            eta_k, phi_k = hedge.sample(k * dt, bracket)
            gain += eta_k * (b_next - bk)
            inc = (g(2.0 * phi_k) - phi_k * (sig * sig)) * dt
            comp += inc
            np.minimum(low, inc, out=low)
            np.minimum(b_min, b_next, out=b_min)
            np.maximum(b_max, b_next, out=b_max)
        chunk_in = (b_min >= grid.x_min) & (b_max <= grid.x_max)
        if chunk_in.any():
            min_inc = min(min_inc, float(low[chunk_in].min()))
        gap[rows] = (hedge.upper_value + gain - comp) - evaluate(expr, b_next)
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
        upper_value=hedge.upper_value,
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

    def at(self, t: float, x):
        return self.numerator.at(t, x) / self.loading.at(t, x)


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
    return TransformedStrategy(theta, loading)


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
