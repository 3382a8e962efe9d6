"""Grid-sampled fields, Fourier transforms and (quasi-)norms.

Functions are discretized on a uniform periodic box [-E, E)^n, n in {1, 2}.
The Fourier transform follows the convention

    F(f)(xi) = integral f(x) exp(-2*pi*i*<x, xi>) dx,

realized as a scaled FFT: the forward transform is the Riemann sum of the
continuous integral, so a sampled exp(-pi*x^2) maps to exp(-pi*xi^2) up to
periodization/truncation error.  Frequencies are centered at 0 with spacing
1/(2E) (the reciprocal of the spatial period), so the frequency box is again
a valid Grid.

Centring needs no rolled copies: every axis length P is a power of two
>= 4, so P/2 is even, and moving index P/2 to 0 on both sides of a DFT is
the same as modulating by the checkerboard c = (-1)^(sum of indices) on
both sides, c * fftn(c * v), and likewise for the inverse.  Each transform
is one sign modulation, one scipy.fft pass and one in-place scaling by the
signs times the cell volume (or its reciprocal).

``filtered`` is the one spectral-multiplier pipeline: one forward transform
per field, then one inverse per multiplier, yielded in multiplier order.
On grids of at least ``_PARALLEL_MIN_POINTS`` points, and with two or more
cores, each multiplier's product, inverse transform and optional per-result
map run on a process-wide thread pool (scipy.fft and numpy release the GIL
on these arrays), at most ``_IN_FLIGHT_PER_WORKER`` results per worker in
flight.  Every result is an independent transform computed by the same
code as on the serial path, so no output depends on the worker count.

Scale ("t") axes are handled by ScaleGrid, a strictly decreasing set of
positive scales, log-uniform in the geometric case.  Integrals against the
multiplicative measure dt/t are rectangle sums in log t: each scale owns a
log-cell and contributes u(t_k)^q * log-cell-width.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.fft


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box [-half_extent, half_extent)^dimension.

    Parameters
    ----------
    dimension : int
        1 or 2.
    points_per_axis : int
        Samples per axis, a power of two >= 4.
    half_extent : float
        Half side length of the periodic box.
    """

    dimension: int
    points_per_axis: int
    half_extent: float

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if not _is_power_of_two(self.points_per_axis) or self.points_per_axis < 4:
            raise ValueError(
                f"points_per_axis must be a power of two >= 4, got {self.points_per_axis}"
            )
        if not self.half_extent > 0:
            raise ValueError("half_extent must be positive")

    @property
    def spacing(self) -> float:
        # points_per_axis is a power of two, so the division is exact and
        # spacing * points_per_axis reproduces 2 * half_extent bit-for-bit.
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def cell_count(self) -> int:
        return self.points_per_axis**self.dimension

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    def axis_coords(self) -> np.ndarray:
        """Sample positions along one axis, from -E to E - spacing."""
        p = self.points_per_axis
        return (np.arange(p) - p // 2) * self.spacing

    def coords(self) -> np.ndarray:
        """Stacked coordinates, shape (dimension,) + shape."""
        ax = self.axis_coords()
        if self.dimension == 1:
            return ax[np.newaxis, :]
        return np.stack(np.meshgrid(ax, ax, indexing="ij"))

    def radii(self) -> np.ndarray:
        """Euclidean distance from the origin at every sample."""
        c = self.coords()
        return np.sqrt(np.sum(c * c, axis=0))

    def frequency_grid(self) -> "Grid":
        """The dual grid: spacing 1/(2E), extent P/(4E)."""
        return Grid(
            self.dimension,
            self.points_per_axis,
            self.points_per_axis / (4.0 * self.half_extent),
        )


def _check_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    arr = np.array(values, dtype=complex)  # always a copy, and only one
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
    arr.setflags(write=False)
    return arr


def _adopt(cls, values: np.ndarray, **fields):
    """A ``cls`` instance holding ``values`` without the defensive copy.

    Only for arrays the library has just computed and hands over: ``values``
    must already have the right dtype and shape, and no other reference may
    write to it, since it is marked read-only in place.
    """
    values.setflags(write=False)
    obj = object.__new__(cls)
    for name, v in fields.items():
        object.__setattr__(obj, name, v)
    object.__setattr__(obj, "values", values)
    return obj


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function on a Grid.  Immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values))


@dataclass(frozen=True)
class SpectralField:
    """Complex samples of a Fourier transform on a centered frequency grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values))


def field_from_function(grid: Grid, fn) -> SampledField:
    """Sample a callable of stacked coordinates (shape (dim, ...)) on the grid."""
    return SampledField(grid, np.asarray(fn(grid.coords()), dtype=complex))


@functools.lru_cache(maxsize=16)
def _signs(shape: tuple, scale: float) -> np.ndarray:
    """scale * (-1)^(sum of indices) on ``shape``: the centring checkerboard
    (scale 1) or the checkerboard with the transform's scaling folded in."""
    c = np.full(shape, scale)
    for axis, p in enumerate(shape):
        c[(slice(None),) * axis + (slice(1, p, 2),)] *= -1.0
    c.setflags(write=False)
    return c


def to_spectrum(f: SampledField) -> SpectralField:
    """Forward transform: Riemann-sum approximation of the continuous integral.

    Returns the spectrum on the dual grid, frequencies centered at 0.
    """
    g = f.grid
    spec = scipy.fft.fftn(f.values * _signs(g.shape, 1.0), overwrite_x=True)
    spec *= _signs(g.shape, g.cell_volume)
    return _adopt(SpectralField, spec, grid=g.frequency_grid())


def from_spectrum(F: SpectralField) -> SampledField:
    """Exact inverse of to_spectrum (up to floating round-off)."""
    fg = F.grid
    spatial = fg.frequency_grid()  # dual of the dual is the original grid
    vals = scipy.fft.ifftn(F.values * _signs(fg.shape, 1.0), overwrite_x=True)
    vals *= _signs(fg.shape, 1.0 / spatial.cell_volume)
    return _adopt(SampledField, vals, grid=spatial)


# Transforms of at least this many points run filtered's per-multiplier work
# on the pool.  On a 2-core VM, grand_max over 64 scales is slower on the
# pool at 64^2 (5.5 -> 9.7 ms) and 4096 points (6.1 -> 9.8 ms), even at
# 16384 points in 1-d (23.0 -> 22.6 ms), and faster at 128^2 (22.7 -> 18.3
# ms) and above.
_PARALLEL_MIN_POINTS = 16384
# results in flight per worker: the workers stay busy while the caller
# reduces the oldest result
_IN_FLIGHT_PER_WORKER = 2

_pool = None  # (workers, ThreadPoolExecutor), built on first use
_pool_lock = threading.Lock()


def _spectral_workers() -> int:
    """The cores this process may run on: the size of filtered's pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _executor(workers: int) -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] != workers:
            # a generator still holding the old pool finishes on it; its idle
            # threads exit once the last reference is gone
            _pool = (workers, ThreadPoolExecutor(workers, thread_name_prefix="lplab-spectral"))
        return _pool[1]


def _forget_pool():
    """A forked child inherits the pool without its threads: start afresh."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _inverse(spec: SpectralField, m: np.ndarray, post):
    product = spec.values * m
    if product.shape != spec.values.shape:
        raise ValueError(f"multiplier shape {product.shape} does not match {spec.grid.shape}")
    out = from_spectrum(_adopt(SpectralField, product, grid=spec.grid))
    return out if post is None else post(out.values)


def filtered(f: SampledField, multipliers, post=None):
    """Yield inverse(f_hat * m) per multiplier m: an array of values on the
    frequency grid, or a callable evaluated on its stacked coordinates.  One
    forward transform serves all of them, and the results are yielded in
    multiplier order, so callers reduce as they stream.  With ``post`` given,
    ``post(values)`` of each result is yielded instead of the field.

    On large grids the products, inverses and ``post`` run on the thread
    pool: the multipliers are drawn (and callables evaluated) on the calling
    thread, at most ``_IN_FLIGHT_PER_WORKER`` results per worker ahead, and
    abandoning the generator cancels or waits out every result in flight."""
    spec = to_spectrum(f)
    coords = spec.grid.coords()
    arrays = (np.asarray(m(coords) if callable(m) else m) for m in multipliers)
    workers = _spectral_workers()
    if workers < 2 or f.grid.cell_count < _PARALLEL_MIN_POINTS:
        for m in arrays:
            yield _inverse(spec, m, post)
        return
    pool = _executor(workers)
    pending = deque()
    try:
        for m in arrays:
            pending.append(pool.submit(_inverse, spec, m, post))
            if len(pending) == _IN_FLIGHT_PER_WORKER * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for fut in pending:
            fut.cancel()
        wait(pending)


def lp_norm(f: SampledField, p: float) -> float:
    """(sum |f|^p * cell_volume)^(1/p).  Quasi-norm for 0 < p < 1 permitted."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    amp = np.abs(f.values)
    return float(np.sum(amp**p) * f.grid.cell_volume) ** (1.0 / p)


def weighted_lp_norm(f: SampledField, w: SampledField, p: float) -> float:
    """(integral |f|^p w)^(1/p) by grid quadrature.  Requires w >= 0 on a matching grid."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    if f.grid != w.grid:
        raise ValueError("field and weight grids do not match")
    wv = w.values.real
    if np.any(wv < 0) or np.any(np.abs(w.values.imag) > 0):
        raise ValueError("weight must be nonnegative real")
    amp = np.abs(f.values)
    return float(np.sum(amp**p * wv) * f.grid.cell_volume) ** (1.0 / p)


def box_face_max(vals: np.ndarray) -> float:
    """The largest entry of ``vals`` on the faces of its box (the first and
    last index along every axis)."""
    return float(max(np.take(vals, i, axis=a).max() for a in range(vals.ndim) for i in (0, -1)))


@dataclass(frozen=True)
class ScaleGrid:
    """Strictly decreasing positive scales, with per-scale log-cell weights.

    Geometric grids (t_k = t_max * ratio^k, ratio in (0,1)) carry a constant
    log spacing; explicit grids get centered log cells.  Either way, the
    weights realize integral u(t)^q dt/t ~= sum u(t_k)^q * weight_k.
    """

    scales: np.ndarray
    ratio: float | None = field(default=None)

    def __post_init__(self):
        arr = np.asarray(self.scales, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scales must be a nonempty 1-d array")
        if np.any(arr <= 0):
            raise ValueError("scales must be positive")
        if arr.size > 1 and np.any(np.diff(arr) >= 0):
            raise ValueError("scales must be strictly decreasing")
        arr.setflags(write=False)
        object.__setattr__(self, "scales", arr)
        if self.ratio is not None and not (0 < self.ratio < 1):
            raise ValueError("ratio must lie in (0, 1)")

    @classmethod
    def geometric(cls, t_max: float, ratio: float, count: int) -> "ScaleGrid":
        if count < 1:
            raise ValueError("count must be >= 1")
        scales = t_max * ratio ** np.arange(count)
        return cls(scales, ratio=ratio)

    @classmethod
    def log_spaced(cls, t_min: float, t_max: float, count: int) -> "ScaleGrid":
        """count log-uniform scales from t_max down to t_min."""
        if count < 2:
            raise ValueError("count must be >= 2")
        if not 0 < t_min < t_max:
            raise ValueError("need 0 < t_min < t_max")
        ratio = (t_min / t_max) ** (1.0 / (count - 1))
        scales = np.exp(np.linspace(math.log(t_max), math.log(t_min), count))
        return cls(scales, ratio=ratio)

    @property
    def count(self) -> int:
        return int(self.scales.size)

    @property
    def t_min(self) -> float:
        return float(self.scales[-1])

    @property
    def t_max(self) -> float:
        return float(self.scales[0])

    def log_weights(self) -> np.ndarray:
        """Per-scale log-cell widths (each node owns one cell of the log axis)."""
        if self.ratio is not None:
            return np.full(self.count, math.log(1.0 / self.ratio))
        if self.count == 1:
            raise ValueError("single explicit scale has no log-cell width")
        logs = np.log(self.scales)
        w = np.empty(self.count)
        w[1:-1] = 0.5 * (logs[:-2] - logs[2:])
        w[0] = logs[0] - logs[1]
        w[-1] = logs[-2] - logs[-1]
        return w

    def spans_decades(self) -> float:
        return math.log10(self.t_max / self.t_min) if self.count > 1 else 0.0


def default_scale_grid(grid: Grid, count: int = 96) -> ScaleGrid:
    """Default dt/t scale range for a grid: [2^-10 * E, 2E], log-uniform.

    Mean-zero kernels kill the large-t end and band-limited fields the
    small-t end, so this range makes the scale integral of well-resolved
    test fields effectively complete.
    """
    return ScaleGrid.log_spaced(
        grid.half_extent / 1024.0, 2.0 * grid.half_extent, count
    )


def scale_integral(u: np.ndarray, scales: ScaleGrid, q: float):
    """(integral |u(t)|^q dt/t)^(1/q) by rectangle sum in log t; complex
    input allowed.

    ``u`` has the scale axis first; extra trailing axes (e.g. space) are
    preserved, so the result is a scalar for 1-d input and an array
    otherwise.  Trailing axes are accumulated one scale at a time, in scale
    order (the order np.sum takes along a leading axis), so no |u|^q stack
    is allocated beside ``u``.
    """
    if not q > 0:
        raise ValueError(f"q must be positive, got {q}")
    arr = np.asarray(u)
    if arr.shape[0] != scales.count:
        raise ValueError("scale axis length does not match the scale grid")
    w = scales.log_weights()
    if arr.ndim == 1:
        return float(np.sum(np.abs(arr) ** q * w) ** (1.0 / q))
    total = np.zeros(arr.shape[1:])
    for uk, wk in zip(arr, w):
        term = np.abs(uk)
        term **= q
        term *= wk
        total += term
    return total ** (1.0 / q)
