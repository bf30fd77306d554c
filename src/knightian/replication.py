"""Pathwise replication under volatility uncertainty.

The upper value surface of a payoff yields a delta and a curvature field.
Along simulated paths the delta accumulates trading gains while the
curvature drives a nondecreasing compensator; upper value plus gains minus
compensator reproduces the payoff up to discretization noise.  The
compensator accrues fastest under volatilities far from the worst case and
vanishes along extremal paths.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .dsl import Expr, _check_integer, _check_real, _shown, _store, evaluate
from .gexp import (
    MEMORY_BUDGET,
    UPPER,
    GridFunction,
    GridSpec,
    VolBounds,
    _bracket,
    _check_shape,
    _march,
    _rows_at,
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
# drawn, one block of _WORD_BYTES of their raw words)
_CHUNK_BYTES = 16 << 20
# the lattice walk builds its two float64 rows for a block of steps at a time,
# as many steps as fit this many bytes of them (at least one)
_ROW_BYTES = _CHUNK_BYTES // 64
# a binary chunk's raw Philox words are held for a block of paths at a time,
# as many paths as fit this many bytes of them (at least one)
_WORD_BYTES = _CHUNK_BYTES // 64
# path i of a seed draws from the Philox key (seed << 32) + i; keys hold 128 bits
_MAX_PATHS = 1 << 32
_MAX_SEED = 1 << 96
_MASK64 = (1 << 64) - 1
# replicate keeps at most eight float64 statistics per path
_PATH_BYTES = 64


def _check_batch(n_paths: int, n_steps: int, seed: int, increments: str) -> tuple:
    """The three counts as ints, unless the walk cannot run the batch or keep its statistics."""
    n_paths = _check_integer("paths", n_paths, 1)
    n_steps = _check_integer("steps", n_steps, 1)
    seed = _check_integer("seed", seed, 0)
    if n_paths >= _MAX_PATHS:
        raise ValueError(
            f"{_shown(n_paths)} paths would overlap the next seed's substreams; "
            f"at most {_MAX_PATHS - 1}"
        )
    if n_paths * _PATH_BYTES > MEMORY_BUDGET:
        raise ValueError(
            f"{_shown(n_paths)} paths exceed the memory budget of {MEMORY_BUDGET} bytes"
        )
    if 8 * n_steps > _CHUNK_BYTES:
        raise ValueError(
            f"{_shown(n_steps)} steps exceed the per-chunk budget of {_CHUNK_BYTES // 8}"
        )
    if seed >= _MAX_SEED:
        raise ValueError(f"seed must lie in [0, 2**96), got {_shown(seed)}")
    if increments not in ("binary", "gaussian"):
        raise ValueError(f"unknown increment kind {increments!r}")
    return n_paths, n_steps, seed


@dataclass(eq=False)
class HedgeField:
    """Delta and curvature of the upper value surface of a payoff, and that
    surface's value at the origin.

    Both fields live in `table`, one (nt + 1, nx, 2) array of node values:
    delta, then curvature.  `eta` and `phi_hat` are views of its columns,
    and `_sample` reads both at once as a (2, n) array.
    """

    table: np.ndarray
    grid: GridSpec
    bounds: VolBounds
    upper_value: float  # upper expectation of the payoff, at the origin
    eta: GridFunction = field(init=False)  # delta: first space derivative
    phi_hat: GridFunction = field(init=False)  # half the second space derivative

    def __post_init__(self):
        _check_shape(self.table, (self.grid.nt + 1, self.grid.nx, 2))
        self.eta = GridFunction(self.table[..., 0], self.grid, self.bounds.horizon)
        self.phi_hat = GridFunction(self.table[..., 1], self.grid, self.bounds.horizon)


def hedge_field(expr: Expr, bounds: VolBounds, grid: GridSpec) -> HedgeField:
    """Differentiate the upper value surface by central differences.

    Boundary columns copy their interior neighbors; paths that wander that
    far are excluded from replication statistics anyway.  Each time layer of
    the upper march is differentiated as the march passes it, straight into
    the hedge table, so the value surface itself is never stored: the table
    is all of (nt + 1, nx) size that is allocated.
    """
    hedge, _ = _hedge_march(expr, bounds, grid, ())
    return hedge


def _hedge_march(expr: Expr, bounds: VolBounds, grid: GridSpec, others: tuple) -> tuple:
    """`hedge_field`, and the payoff's origin values in the modes `others`,
    marched beside the upper column: (HedgeField, list of floats).  Each
    column of a march does the arithmetic of its march alone, so each value
    has the bits of its own `expectation`."""
    dx = grid.dx
    table = np.empty((grid.nt + 1, grid.nx, 2))

    def differentiate(k, v):
        up, mid, down = v[2:], v[1:-1], v[:-2]
        eta, phi = table[k, :, 0], table[k, :, 1]
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

    upper_value, *values = _march(
        evaluate(expr, grid.nodes), bounds, grid, (UPPER,) + others, differentiate
    )
    return HedgeField(table, grid, bounds, upper_value), values


@dataclass(eq=False, frozen=True)
class ControlSpec:
    """Volatility control for simulated paths.

    `constant` holds sigma fixed; `extremal` picks sigma_hi where the hedge
    curvature is nonnegative and sigma_lo elsewhere, the worst case for the
    upper value.  An unknown kind, a kind missing its sigma or hedge, a
    sigma that is not a real number or a hedge that is not a `HedgeField`
    is rejected at construction, and the fields cannot be reassigned.
    """

    kind: str
    sigma: Optional[float] = None
    hedge: Optional[HedgeField] = None

    def __post_init__(self):
        if self.kind not in ("constant", "extremal"):
            raise ValueError(f"unknown control kind {self.kind!r}")
        if self.kind == "constant" and self.sigma is None:
            raise ValueError("constant control needs a sigma")
        if self.kind == "extremal" and self.hedge is None:
            raise ValueError("extremal control needs a hedge field")
        if self.sigma is not None:
            _store(self, sigma=_check_real("control sigma", self.sigma))
        if self.hedge is not None and not isinstance(self.hedge, HedgeField):
            raise ValueError(f"control hedge must be a HedgeField, got {self.hedge!r}")

    @classmethod
    def constant(cls, sigma: float) -> "ControlSpec":
        return cls("constant", sigma=sigma)

    @classmethod
    def extremal(cls, hedge: HedgeField) -> "ControlSpec":
        return cls("extremal", hedge=hedge)


@dataclass(eq=False, frozen=True)
class PathBatch:
    """Recipe for simulated driver paths: control, bounds, sizes, seed and
    increment kind, checked at construction: `_check_batch`, then a constant
    sigma against the band or an extremal hedge's bounds against the batch's.
    The fields cannot be reassigned, so the checks hold for the batch's life.

    No path is stored.  `replicate` and `strategy_gains` generate the paths
    chunk by chunk and consume each chunk as it is made, so whatever the
    batch size they hold one chunk of increments: one `_CHUNK_BYTES` array
    of float64 gaussian ones, or an eighth of that of int8 binary ones (and
    while a binary chunk is drawn, one `_WORD_BYTES` block of raw words).
    """

    control: ControlSpec
    bounds: VolBounds
    n_paths: int
    n_steps: int
    seed: int
    increments: str

    def __post_init__(self):
        paths, steps, seed = _check_batch(self.n_paths, self.n_steps, self.seed, self.increments)
        _store(self, n_paths=paths, n_steps=steps, seed=seed)
        if self.control.kind == "constant":
            self.bounds.check_sigma(self.control.sigma, "constant control sigma")
        elif self.control.hedge.bounds != self.bounds:
            raise ValueError("hedge field was built for different bounds")

    @property
    def dt(self) -> float:
        return self.bounds.horizon / self.n_steps


def _draw_increments(gen, state: dict, seed: int, start: int, stop: int, n_steps: int, kind: str):
    """Unit-variance increments of paths start..stop-1, step-major, shape
    (n_steps, rows): int8 signs for binary increments, float64 for gaussian.

    Path i draws from its own counter-based substream, Philox keyed
    (seed << 32) + i, so it is a pure function of (seed, i): neither the
    batch size nor the chunking reshuffles it.  One generator serves every
    path; `state` is a fresh Philox state whose key is reset per path.  It
    is copied once per chunk into Python ints and lists: Philox's state
    setter reads those two to five times faster than numpy arrays.  As
    i < 2**32, the key's upper 64-bit word is seed >> 32 for every path and
    is set once, and its lower word is that of seed << 32, plus i.

    A binary path draws ceil(n_steps / 2) raw 64-bit words: step 2w is bit
    31 of word w and step 2w + 1 its bit 63, the sign bits of its low and
    high 32-bit halves.  That is numpy's bounded-integer draw of
    integers(0, 2), which takes the low half first;
    test_replication.py::TestRawWordDraw pins the two equal, so it is what
    catches a numpy change to that draw.  Each path's words fill one row of
    a little-endian (paths, words) block of at most `_WORD_BYTES`.  Per
    block, one np.less of its 32-bit halves, read as signed ints and
    transposed, against 0 writes their sign bits straight into a bool view
    of the step-major int8 chunk; the chunk's 0s and 1s are then doubled
    less one.
    """
    rows = stop - start
    inner = {name: np.asarray(value).tolist() for name, value in state["state"].items()}
    state = {**state, "state": inner, "buffer": np.asarray(state["buffer"]).tolist()}
    key = inner["key"]
    key[1] = seed >> 32
    first = ((seed << 32) & _MASK64) + start  # the lower key word of path start
    bits = gen.bit_generator
    if kind == "gaussian":
        # drawn a path at a time into one buffer, each copied into its column
        z = np.empty((n_steps, rows))
        path = np.empty(n_steps)
        for row, path_key in enumerate(range(first, first + rows)):
            key[0] = path_key
            bits.state = state
            gen.standard_normal(n_steps, out=path)
            z[:, row] = path
        return z
    n_words = -(-n_steps // 2)
    per = max(1, _WORD_BYTES // (8 * n_words))
    # little-endian whatever the host, so each word's low half comes first
    words = np.empty((min(per, rows), n_words), dtype="<u8")
    z = np.empty((n_steps, rows), dtype=np.int8)
    signs = z.view(np.bool_)
    for lo in range(0, rows, per):
        hi = min(lo + per, rows)
        for row, path_key in enumerate(range(first + lo, first + hi)):
            key[0] = path_key
            bits.state = state
            words[row] = bits.random_raw(n_words)
        halves = words[: hi - lo].view("<i4").T[:n_steps]
        np.less(halves, 0, out=signs[:, lo:hi])
    z += z
    z -= 1
    return z


def _chunks(paths: PathBatch):
    """(rows, z) per chunk of a batch: the chunk's slice of path indices and
    its (n_steps, rows) increments from `_draw_increments`.  The caller drops
    z before asking for the next chunk, so one chunk is alive at a time."""
    gen = np.random.Generator(np.random.Philox(key=0))
    state = gen.bit_generator.state
    n_steps = paths.n_steps
    chunk = max(1, _CHUNK_BYTES // (8 * n_steps))
    for start in range(0, paths.n_paths, chunk):
        stop = min(start + chunk, paths.n_paths)
        yield slice(start, stop), _draw_increments(
            gen, state, paths.seed, start, stop, n_steps, paths.increments
        )


def _walk(paths: PathBatch, hedge: Optional[HedgeField] = None):
    """Generate a batch chunk by chunk.

    Yields (rows, steps) per chunk, rows being the chunk's slice of path
    indices.  `steps` yields (k, b_k, b_{k+1}, sigma_k, fields) for
    k = 0 .. n_steps - 1, where fields is `hedge`'s delta and curvature at
    b_k, a (2, n) array read by `_sample` (None without a hedge), and
    sigma_k is a float under constant control.  An extremal control whose
    hedge is `hedge` reads its curvature from those fields, so a path-step
    reads the hedge's layer once; any other reads its own with `_sample`.  A
    chunk's increments are freed once its steps are exhausted, before the
    next chunk is drawn.
    """
    control = paths.control
    n_steps = paths.n_steps
    dt = paths.dt
    sq = math.sqrt(dt)
    if control.kind == "extremal":
        phi = control.hedge.phi_hat
        own = control.hedge is hedge
        hi, lo = paths.bounds.sigma_hi, paths.bounds.sigma_lo

    def steps(z):
        bk = np.zeros(z.shape[1])
        for k in range(n_steps):
            fields = None
            if hedge is not None:
                bracket = _bracket(hedge.grid, bk)
                fields = _sample(hedge.table, hedge.grid, hedge.bounds.horizon, k * dt, bracket)
            if control.kind == "constant":
                sig = control.sigma
            else:
                if own:
                    curv = fields[1]
                else:
                    bracket = _bracket(phi.grid, bk)
                    curv = _sample(phi.table, phi.grid, phi.horizon, k * dt, bracket)
                # ties at zero curvature take the high edge of the band
                sig = np.where(curv >= 0.0, hi, lo)
            # a binary z[k] is int8, promoted to the same float64 signs
            b_next = bk + sig * sq * z[k]
            yield k, bk, b_next, sig, fields
            bk = b_next

    for rows, z in _chunks(paths):
        yield rows, steps(z)
        del z  # left to the chunk's steps, which drop it when exhausted


def simulate_paths(
    control: ControlSpec,
    bounds: VolBounds,
    n_paths: int,
    n_steps: int,
    seed: int = 0,
    increments: str = "binary",
) -> PathBatch:
    """Driver paths from 0 under the given control, as a lazy batch that checks itself."""
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


def _general_route(hedge: HedgeField, paths: PathBatch):
    """Per chunk of any batch: its rows, and per path the gains, the
    compensator K, its least increment, whether the path stayed on the
    grid, and its end point.  Each path-step computes one interpolation
    bracket and reads delta and curvature from one layer of the hedge table
    (`_sample`), which serve an extremal control on this hedge too (`_walk`)."""
    grid = hedge.grid
    dt = paths.dt
    g = hedge.bounds.g
    for rows, steps in _walk(paths, hedge):
        size = rows.stop - rows.start
        gain = np.zeros(size)
        comp = np.zeros(size)
        low = np.full(size, math.inf)
        b_min = np.zeros(size)
        b_max = np.zeros(size)
        for _k, bk, b_next, sig, (eta_k, phi_k) in steps:
            gain += eta_k * (b_next - bk)
            inc = (g(2.0 * phi_k) - phi_k * (sig * sig)) * dt
            comp += inc
            np.minimum(low, inc, out=low)
            np.minimum(b_min, b_next, out=b_min)
            np.maximum(b_max, b_next, out=b_max)
        yield rows, gain, comp, low, (b_min >= grid.x_min) & (b_max <= grid.x_max), b_next


def _lattice_route(hedge: HedgeField, paths: PathBatch):
    """`_general_route`'s chunks for binary increments at a constant sigma.

    Such a path is at c * j after each step, c = sigma * sqrt(dt) and j an
    integer, so every path-step reads a function of (k, j).  The walk keeps
    j per path, as an index into the lattice nodes a path can reach on the
    grid, out to the first node past each edge; `take(mode="clip")` reads
    a path beyond them at the end node.  `_bracket` runs once, on those
    nodes, and each step's hedge layer is looked up once per batch.  The
    steps go in blocks of as many as fit `_ROW_BYTES` of two rows per step,
    delta times c and the compensator increment.  They are built on the
    nodes on the grid that the chunk's paths occupy and as far as they walk
    in the block, from each field's layers over the grid nodes those
    lattice nodes bracket, read at them by `_rows_at`, the reader behind
    every field's `_sample`.  Each path-step gathers from its two rows and
    moves j by its increment.  A row's value at a node does not depend on
    the block or the chunk.

    A path leaves the grid exactly when it reads a node past an edge, or
    ends on one.  The compensator rows hold NaN at those nodes, so such a
    path's K is NaN for good, and the end node is tested once per chunk;
    no step tracks j's range.  On the grid an increment that is not finite
    is read as +inf instead: a path that reads one and stays on the grid
    ends with K = +inf, not NaN, so it is kept, and `replicate` refuses its
    statistics.
    """
    grid = hedge.grid
    n, dt = paths.n_steps, paths.dt
    sigma = paths.control.sigma
    g = hedge.bounds.g
    c = sigma * math.sqrt(dt)

    def reach(edge):
        # nodes on one side out to the first one past the edge, or all n if none is past it
        if c * n <= edge:
            return n
        count = min(n, int(edge / c) + 1)
        while count < n and c * count <= edge:
            count += 1
        return count

    below, above = reach(-grid.x_min), reach(grid.x_max)
    nodes = c * np.arange(-below, above + 1)
    bracket = _bracket(grid, nodes)
    on_grid = (nodes >= grid.x_min) & (nodes <= grid.x_max)
    first, last = np.flatnonzero(on_grid)[[0, -1]]
    layers = np.array([layer_at_or_below(k * dt, hedge.bounds.horizon, grid.nt) for k in range(n)])
    block = max(1, _ROW_BYTES // (16 * nodes.size))
    eta_c = np.zeros((block, nodes.size))
    inc = np.zeros((block, nodes.size))
    inc[:, ~on_grid] = math.nan  # never rebuilt: the blocks build nodes on the grid only
    for rows, z in _chunks(paths):
        size = rows.stop - rows.start
        gain = np.zeros(size)
        comp = np.zeros(size)
        low = np.full(size, math.inf)
        read = np.empty(size)
        j = np.full(size, below)  # nodes[below] is the origin
        for start in range(0, n, block):
            stop = min(start + block, n)
            # the rows reach as far as the paths walk before the block is left
            walk = stop - 1 - start
            near = slice(max(j.min() - walk, first), min(j.max() + walk, last) + 1)
            j_near, d = (part[near] for part in bracket)
            # each field's layers over the grid nodes that the lattice nodes bracket
            lo, hi = j_near[0], j_near[-1] + 2
            at, widths = j_near - lo, grid.widths[lo : hi - 1]
            eta, phi = (
                _rows_at(hedge.table[layers[start:stop], lo:hi, f], at, d, widths) for f in (0, 1)
            )
            np.multiply(eta, c, out=eta_c[: stop - start, near])
            built = inc[: stop - start, near]
            np.multiply(g(2.0 * phi) - phi * (sigma * sigma), dt, out=built)
            finite = np.isfinite(built)
            if not finite.all():
                built[~finite] = math.inf
            for k in range(start, stop):
                step = z[k]
                eta_c[k - start].take(j, out=read, mode="clip")
                read *= step
                gain += read
                inc[k - start].take(j, out=read, mode="clip")
                comp += read
                np.minimum(low, read, out=low)
                j += step
        del z, step  # freed before the next chunk is drawn
        inside = ~np.isnan(comp) & (j >= first) & (j <= last)
        yield rows, gain, comp, low, inside, c * (j - below)


def replicate(expr: Expr, hedge: HedgeField, paths: PathBatch) -> ReplicationReport:
    """Run the hedging identity along a path batch.

    Per path: gap = [upper value + sum eta dB - K_T] - payoff(B_T), where the
    upper value is the hedge field's value at the origin and the
    compensator K accrues (worst-case flux of twice the curvature minus
    curvature times realized variance) * dt, a nonnegative amount each step.
    Paths leaving the grid are excluded from the statistics.

    The paths are generated and consumed chunk by chunk.  Binary paths at a
    constant sigma walk their lattice (`_lattice_route`): `_bracket` runs
    once, on the lattice nodes, and each path-step gathers two rows built
    per block of steps.  Any other batch takes `_general_route`, one bracket
    per path-step.  On the lattice a path's position is c * j rather than a
    running sum of +-c, and its gain (eta * c) * z rather than
    eta * (b_next - b_k), so the two routes differ by ulps.
    """
    if hedge.bounds != paths.bounds:
        raise ValueError("hedge field and paths use different bounds")

    n = paths.n_paths
    lattice = paths.control.kind == "constant" and paths.increments == "binary"
    route = _lattice_route if lattice else _general_route
    gains = np.empty(n)
    k_acc = np.empty(n)
    gap = np.empty(n)
    inside = np.empty(n, dtype=bool)
    min_inc = math.inf
    for rows, gain, comp, low, chunk_in, b_end in route(hedge, paths):
        if chunk_in.any():
            min_inc = min(min_inc, float(low[chunk_in].min()))
        gap[rows] = (hedge.upper_value + gain - comp) - evaluate(expr, b_end)
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

    @property
    def horizon(self) -> float:
        return self.numerator.horizon

    def at(self, t: float, x):
        return self.numerator.at(t, x) / self.loading.at(t, x)


def exp_martingale_transform(
    theta: GridFunction, loading: GridFunction, floor: float = 1e-6
) -> TransformedStrategy:
    """Rebase strategy theta to the integrator with the given loading.

    The loading must be finite and stay at least `floor` away from zero in
    absolute value on the whole grid.
    """
    floor = _check_real("floor", floor)
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
    Both must be fields over the paths' horizon.
    """
    for name, given in (("strategy", strategy), ("loading", loading)):
        if given is not None and given.horizon != paths.bounds.horizon:
            raise ValueError(
                f"{name} horizon {given.horizon} differs from the paths' {paths.bounds.horizon}"
            )
    dt = paths.dt
    gains = np.empty(paths.n_paths)
    for rows, steps in _walk(paths):
        acc = np.zeros(rows.stop - rows.start)
        for k, bk, b_next, _sig, _fields in steps:
            t_k = k * dt
            s = strategy.at(t_k, bk)
            db = b_next - bk
            if loading is not None:
                db = loading.at(t_k, bk) * db
            acc += s * db
        gains[rows] = acc
    return gains
