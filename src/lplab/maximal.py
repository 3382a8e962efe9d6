"""Maximal operators: Peetre, Hardy-Littlewood, and the grand maximal function.

All three are exact discrete suprema over the periodic grid (offsets, balls
and scales respectively); none of them hides an approximation beyond the
grid itself.  The Peetre operator

    F**_{N,R}(x) = sup_y |F(x - y)| / (1 + R |y|)^N

runs over every grid offset y with the periodic (wrapped) distance, a
large sweep split across the cores into runs of shift blocks.  The
Hardy-Littlewood operator takes uncentered averages over grid-aligned balls
containing the point: every contiguous window in 1-d, discs of sampled radii
in 2-d.  In 1-d the best window containing each cell comes from a recurrence
over window widths, widest first (the best mean over the supersets of a
window), at a few vector ops per width.  In 2-d each disc's means come from
one FFT convolution and are dilated over the disc as a union of row
segments, one periodic running max (a doubling max, about log2 of the width
vector ops) per distinct segment width, at O(R p^2 log R) per radius of R
cells.  The grand maximal function is the pointwise sup over a
scale grid of mollifications |Phi_t * f|, Phi the unit Gaussian.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import fields
from .fields import Grid, SampledField, ScaleGrid, filtered
from .kernels import KernelSpec, coordinate_multiplier, dilates, make_builtin


@dataclass(frozen=True)
class PeetreParams:
    N: float
    R: float

    def __post_init__(self):
        if not (0 < self.N < math.inf and 0 < self.R < math.inf):
            raise ValueError("Peetre parameters N and R must be positive and finite")


def _wrapped_offsets(grid: Grid) -> np.ndarray:
    """|y| for every grid offset y, wrapped to the centered box (shape = grid.shape)."""
    p = grid.points_per_axis
    ax = np.minimum(np.arange(p), p - np.arange(p)) * grid.spacing
    if grid.dimension == 1:
        return ax
    return np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)


def _shift_window_view(absf: np.ndarray):
    """Zero-copy view with win[..., k, x] = absf[(k + x) mod G]: row k holds
    the field shifted by s = (-k) mod G, and rows 0..G-1 cover every shift."""
    dbl = np.concatenate([absf, absf], axis=-1)
    return sliding_window_view(dbl, absf.shape[-1], axis=-1)


# values per weighted block of peetre_max's shifts (1 MiB of float64): 1-d
# 4096 points take 32 shifts a block and a 2-d 64^2 field 32 column shifts.
# On a 2-core VM blocks of 2^19 values ran slower (1-d 4096: 17.2 against
# 11.7 ms, 2-d 64^2: 41 against 38 ms): the block drops out of cache between
# its weighting and its max.
_PEETRE_BLOCK_VALUES = 1 << 17
# a sweep of at least 64 blocks' worth of products (2^23: 1-d from 4096
# points, 2-d from 64^2) is split across the cores.  On a 2-core VM two
# threads lost at 2^20 (1-d 1024: 1.7 -> 1.8-2.4 ms, 2-d 32^2: 2.4 -> 3.2
# ms), broke even at 2^22 (1-d 2048: 6.3 -> 5.8-6.7 ms) and won at 2^24
# (1-d 4096: 9.9-10.8 -> 6.2-8.4 ms, 2-d 64^2: 28.9-29.9 -> 18.2-18.8 ms)
_PEETRE_SPLIT_PRODUCTS = 64 * _PEETRE_BLOCK_VALUES


def peetre_max(F: SampledField, params: PeetreParams) -> SampledField:
    """Exact discrete sup of |F(x-y)| / (1 + R|y|)^N over all grid offsets y,
    by brute force over the full periodic grid: rolls along the first axis
    (a 1-d field is one row), the last axis vectorized in blocks of shifts.
    Each block is a slice of the zero-copy window view, weighted into one
    buffer.  A sweep of ``_PEETRE_SPLIT_PRODUCTS`` products or more is cut
    into one contiguous run of blocks per core (``fields._ordered_map``), each
    with its own buffer and running max, combined by np.maximum; max is
    exact, so the split, the block order and size leave the bytes as they
    are."""
    g = F.grid
    p = g.points_per_axis
    absf = np.abs(F.values).reshape(-1, p)
    w = ((1.0 + params.R * _wrapped_offsets(g)) ** (-params.N)).reshape(absf.shape)
    w_rows = w[:, (-np.arange(p)) % p]  # the weight of each window row's shift
    # a power of two, as p is, so the blocks tile the p shifts
    chunk = max(1, min(p, _PEETRE_BLOCK_VALUES // absf.size))
    per_row = p // chunk
    blocks = absf.shape[0] * per_row

    def sweep(run: range) -> np.ndarray:
        """The running max over blocks ``run``: block b weights the shifts
        from (b % per_row) * chunk of row shift b // per_row."""
        out = np.zeros(absf.shape)
        block = np.empty((chunk,) + absf.shape)
        row = None
        for b in run:
            s1, k = divmod(b, per_row)
            k *= chunk
            if s1 != row:
                # (p + 1, rows, x): the shift axis first, so a block's max
                # runs over whole contiguous fields
                win = _shift_window_view(np.roll(absf, s1, axis=0)).transpose(1, 0, 2)
                row = s1
            np.multiply(win[k : k + chunk], w_rows[s1, k : k + chunk, None, None], out=block)
            np.maximum(out, np.max(block, axis=0), out=out)
        return out

    split = absf.size * absf.size >= _PEETRE_SPLIT_PRODUCTS  # one product per shift and point
    parts = min(fields._spectral_workers(), blocks) if split else 1
    runs = [range(blocks * i // parts, blocks * (i + 1) // parts) for i in range(parts)]
    maxima = fields._ordered_map(sweep, runs, split, "peetre")
    return SampledField(g, functools.reduce(np.maximum, maxima).reshape(g.shape))


def _window_means(vals: np.ndarray, widths):
    """Yield, per width, the means of 1-d ``vals`` over every periodic window
    of that many cells, indexed by the window's first cell."""
    n = vals.size
    csum = np.concatenate([[0.0], np.cumsum(np.concatenate([vals, vals]))])
    for w in widths:
        yield (csum[w : w + n] - csum[:n]) / w


def _disc_footprint(radius_cells: float, p: int) -> np.ndarray:
    k = np.minimum(np.arange(p), p - np.arange(p))
    d2 = k[:, None] ** 2 + k[None, :] ** 2
    return d2 <= radius_cells**2 + 1e-9


def _disc_means(vals: np.ndarray, radii_cells):
    """Yield (footprint, means) per radius with a nonempty footprint: the
    means of 2-d nonnegative ``vals`` over the periodic disc of that radius
    (in cells) centred at every cell, by FFT convolution; the footprint is
    the disc around cell (0, 0), wrapped."""
    p = vals.shape[0]
    vhat = np.fft.fft2(vals)
    for rc in radii_cells:
        fp = _disc_footprint(rc, p)
        cells = int(fp.sum())
        if cells == 0:
            continue
        means = np.real(np.fft.ifft2(vhat * np.fft.fft2(fp))) / cells
        yield fp, np.maximum(means, 0.0)


def _running_max(vals: np.ndarray, w: int) -> np.ndarray:
    """out[:, j] = max of ``vals[:, (j - w // 2 + i) % p]`` for i < w: the
    periodic running max along the rows of 2-d ``vals``, centred as
    scipy.ndimage's ``maximum_filter1d(vals, w, axis=1, mode="wrap")``.

    On the periodic extension, maxima over 2k cells are the max of two
    overlapping k-cell maxima, doubled up to the largest power of two K <= w,
    and a w-cell window is the union of its first and last K cells: about
    log2(w) vector ops per width, and max is exact."""
    p = vals.shape[1]
    h = w // 2
    m = np.concatenate([vals[:, p - h :], vals, vals[:, : w - 1 - h]], axis=1)
    k = 1
    while 2 * k <= w:
        m = np.maximum(m[:, :-k], m[:, k:])
        k *= 2
    return np.maximum(m[:, :p], m[:, w - k : w - k + p])


def _disc_dilate(means: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """out[x] = max of ``means`` over x + the offsets of the wrapped footprint
    ``fp`` (as yielded by ``_disc_means``), by decomposing the disc into row
    segments: each footprint row is one wrapped run of columns centred on
    offset 0, so one running max per distinct row width, rolled by every row
    offset of that width, covers it.  Max is exact, so this equals the
    footprint filter bit for bit at O(R p^2 log R) instead of O(R^2 p^2)."""
    widths = fp.sum(axis=1)
    out = np.full(means.shape, -np.inf)
    for w in np.unique(widths[widths > 0]):
        rowmax = _running_max(means, int(w))
        for row in np.flatnonzero(widths == w):
            np.maximum(out, np.roll(rowmax, -row, axis=0), out=out)
    return out


def _hl_max_1d(absf: np.ndarray) -> np.ndarray:
    """max over the periodic windows of cells containing x of the mean of
    ``absf``, by the superset recurrence

        Q_w(a) = max(T_w(a), Q_{w+1}(a - 1), Q_{w+1}(a)),  Q_n = T_n,

    where T_w(a) is the mean over the w cells from a and Q_w(a) the largest
    mean over the windows that contain those cells; Q_1 is the answer.  Each
    width costs a few vector ops, O(n) numpy calls in all, and every mean is
    the expression a per-width scan takes, so max (exact) gives its bits."""
    # width-1 windows are the samples themselves; seeding with them keeps
    # M(f) >= |f| exact (cumsum differencing would round at the eps level)
    widths = range(absf.size, 1, -1)
    means = itertools.chain(_window_means(absf, widths), [absf.astype(float)])
    q = next(means)
    for t in means:
        # t <- max(T_w(a), Q_{w+1}(a - 1)), then q <- max(t, Q_{w+1}(a))
        np.maximum(t[1:], q[:-1], out=t[1:])
        t[0] = np.maximum(t[0], q[-1])
        q = np.maximum(t, q, out=t)
    return q


def _hl_max_2d(absf: np.ndarray, grid: Grid, radii) -> np.ndarray:
    out = absf.astype(float).copy()  # the degenerate single-cell ball
    for fp, means in _disc_means(absf, np.asarray(radii, dtype=float) / grid.spacing):
        # uncentered: take the best ball center within distance r of each point
        np.maximum(out, _disc_dilate(means, fp), out=out)
    return out


def hl_max(f: SampledField) -> SampledField:
    """Uncentered Hardy-Littlewood maximal function over grid-aligned balls.

    In 1-d every contiguous periodic window is scanned (exact up to the
    grid).  In 2-d the balls are discs at max(8, P/4) radii log-spaced from
    half a cell to the half extent, P the points per axis; starting below
    one cell includes the degenerate single-cell ball (mean = |f|), which
    keeps M(f) >= |f| exact on samples.
    """
    g = f.grid
    absf = np.abs(f.values)
    if g.dimension == 1:
        return SampledField(g, _hl_max_1d(absf))
    radii = np.exp(np.linspace(math.log(g.spacing / 2.0), math.log(g.half_extent),
                               max(8, g.points_per_axis // 4)))
    return SampledField(g, _hl_max_2d(absf, g, radii))


@dataclass(frozen=True)
class GrandMaxConfig:
    """The scale grid for the sup over t, and the unit-mass mollifier: the
    Gaussian exp(-pi |xi|^2).  Each config makes its own Gaussian, so the
    dilate rows it keeps on a small grid are freed with the config."""

    scales: ScaleGrid
    mollifier: KernelSpec = field(default_factory=functools.partial(make_builtin, "gaussian"),
                                  init=False, repr=False, compare=False)


def default_grand_scales(grid: Grid, count: int = 64) -> ScaleGrid:
    """Default scale grid for the grand maximal sup: [spacing/2, half_extent]."""
    return ScaleGrid.log_spaced(grid.spacing / 2.0, grid.half_extent, count)


def grand_max(f: SampledField, cfg: GrandMaxConfig) -> SampledField:
    """Pointwise max over the config's scale grid of |Phi_t * f|, Phi its unit
    Gaussian (convolutions spectral)."""
    out = np.zeros(f.grid.shape)
    for conv in filtered(f, dilates(cfg.mollifier, f, cfg.scales.scales)):
        np.maximum(out, np.abs(conv.values), out=out)
    return SampledField(f.grid, out)


def spectral_gradient(f: SampledField) -> list:
    """Partial derivatives via the multiplier 2*pi*i*xi_k, one field per axis."""
    xi = f.grid.frequency_grid().coords()
    return list(filtered(f, (coordinate_multiplier(k).symbol(xi) for k in range(f.grid.dimension))))


@dataclass(frozen=True)
class PeetreBoundReport:
    """Pointwise comparison F** <= C [delta^-N M(|F|^r)^(1/r) + delta/R |grad F|**]."""

    c_min: float
    lhs: SampledField
    term_average: SampledField
    term_gradient: SampledField


def peetre_bound_check(F: SampledField, params: PeetreParams, delta: float) -> PeetreBoundReport:
    """Minimal constant making the smoothing bound on the Peetre maximal hold.

    The bound holds with r = n/N, n the dimension.  The right-hand side is
    delta^-N M(|F|^r)^(1/r) + delta R^-1 |grad F|**_{N,R} with the gradient
    realized spectrally.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    r = F.grid.dimension / params.N
    lhs = peetre_max(F, params)
    avg = hl_max(SampledField(F.grid, np.abs(F.values) ** r))
    t1 = delta ** (-params.N) * np.maximum(avg.values.real, 0.0) ** (1.0 / r)
    grads = spectral_gradient(F)
    gmag = np.sqrt(sum(np.abs(g.values) ** 2 for g in grads))
    t2 = (delta / params.R) * peetre_max(SampledField(F.grid, gmag), params).values.real
    denom = t1 + t2
    ratio = np.where(denom > 0, lhs.values.real / np.where(denom > 0, denom, 1.0), 0.0)
    return PeetreBoundReport(
        c_min=float(np.max(ratio)),
        lhs=lhs,
        term_average=SampledField(F.grid, t1),
        term_gradient=SampledField(F.grid, t2),
    )
