"""Maximal operators: Peetre, Hardy-Littlewood, and the grand maximal function.

All three are exact discrete suprema over the periodic grid (offsets, balls
and scales respectively); none of them hides an approximation beyond the
grid itself.  The Peetre operator

    F**_{N,R}(x) = sup_y |F(x - y)| / (1 + R |y|)^N

runs over every grid offset y with the periodic (wrapped) distance.  The
Hardy-Littlewood operator takes uncentered averages over grid-aligned balls
containing the point: every contiguous window in 1-d, discs of sampled radii
in 2-d.  In 1-d the best window containing each cell comes from a recurrence
over window widths, widest first (the best mean over the supersets of a
window), at a few vector ops per width.  In 2-d each disc's means come from
one FFT convolution and are dilated over the disc as a union of row
segments, one running max per distinct segment width, at O(R p^2) per
radius of R cells.  The grand maximal function is the pointwise sup over a
scale grid of mollifications |Phi_t * f| with a unit-mass mollifier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import Grid, SampledField, ScaleGrid, filtered
from .kernels import KernelSpec, coordinate_multiplier, dilates


@dataclass(frozen=True)
class PeetreParams:
    N: float
    R: float

    def __post_init__(self):
        if not (self.N > 0 and self.R > 0):
            raise ValueError("Peetre parameters N and R must be positive")


def _wrapped_offsets(grid: Grid) -> np.ndarray:
    """|y| for every grid offset y, wrapped to the centered box (shape = grid.shape)."""
    p = grid.points_per_axis
    ax = np.minimum(np.arange(p), p - np.arange(p)) * grid.spacing
    if grid.dimension == 1:
        return ax
    return np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)


def _shift_window_view(absf: np.ndarray):
    """Zero-copy view with win[..., k, x] = absf[(k + x) mod G]; the row for
    shift s is k = (-s) mod G, so callers index rows per chunk."""
    dbl = np.concatenate([absf, absf], axis=-1)
    return sliding_window_view(dbl, absf.shape[-1], axis=-1)


def peetre_max(F: SampledField, params: PeetreParams) -> SampledField:
    """Exact discrete sup of |F(x-y)| / (1 + R|y|)^N over all grid offsets y,
    by brute force over the full periodic grid: rolls along the first axis
    (a 1-d field is one row), the last axis vectorized in chunks of shifts."""
    g = F.grid
    p = g.points_per_axis
    absf = np.abs(F.values).reshape(-1, p)
    w = ((1.0 + params.R * _wrapped_offsets(g)) ** (-params.N)).reshape(absf.shape)
    out = np.zeros(absf.shape)
    chunk = 512  # shifts per vectorized block: bounds the peak memory
    for s1 in range(absf.shape[0]):
        win = _shift_window_view(np.roll(absf, s1, axis=0))  # (rows, p + 1, p)
        for start in range(0, p, chunk):
            shifts = np.arange(start, min(start + chunk, p))
            rows = win[:, (-shifts) % p, :]  # (rows, chunk, x)
            np.maximum(out, np.max(rows * w[s1][None, shifts, None], axis=1), out=out)
    return SampledField(g, out.reshape(g.shape))


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


def _disc_dilate(means: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """out[x] = max of ``means`` over x + the offsets of the wrapped footprint
    ``fp`` (as yielded by ``_disc_means``), by decomposing the disc into row
    segments: each footprint row is one wrapped run of columns centred on
    offset 0, so one running max per distinct row width, rolled by every row
    offset of that width, covers it.  Max is exact, so this equals the
    footprint filter bit for bit at O(R p^2) instead of O(R^2 p^2)."""
    # deferred: only 2-d hl_max needs scipy.ndimage (+0.05-0.07 s on every
    # `import lplab` otherwise), and no scenario calls it
    from scipy import ndimage

    p = means.shape[1]
    widths = fp.sum(axis=1)
    out = np.full(means.shape, -np.inf)
    for w in np.unique(widths[widths > 0]):
        if w == p:
            rowmax = np.broadcast_to(means.max(axis=1, keepdims=True), means.shape)
        else:
            rowmax = ndimage.maximum_filter1d(means, int(w), axis=1, mode="wrap")
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
    p = grid.points_per_axis
    if radii is None:
        count = max(8, p // 4)
        # start below one cell so the degenerate single-cell ball (mean = |f|)
        # is always included, keeping M(f) >= |f| exact on samples
        radii = np.exp(
            np.linspace(math.log(grid.spacing / 2.0), math.log(grid.half_extent), count)
        )
    out = absf.astype(float).copy()  # the degenerate single-cell ball
    radii_cells = np.asarray(radii, dtype=float) / grid.spacing
    for fp, means in _disc_means(absf, radii_cells):
        # uncentered: take the best ball center within distance r of each point
        np.maximum(out, _disc_dilate(means, fp), out=out)
    return out


def hl_max(f: SampledField, radii=None) -> SampledField:
    """Uncentered Hardy-Littlewood maximal function over grid-aligned balls.

    In 1-d every contiguous periodic window is scanned (exact up to the
    grid); in 2-d discs at the sampled radii are used (default: log-spaced
    from one cell to the half extent).
    """
    g = f.grid
    absf = np.abs(f.values)
    if g.dimension == 1:
        return SampledField(g, _hl_max_1d(absf))
    return SampledField(g, _hl_max_2d(absf, g, radii))


@dataclass(frozen=True)
class GrandMaxConfig:
    """Unit-mass mollifier plus the scale grid for the sup over t."""

    mollifier: KernelSpec
    scales: ScaleGrid

    def __post_init__(self):
        res = abs(self.mollifier.at_origin() - 1.0)
        if res > 1e-12:
            raise ValueError(f"mollifier must have unit mass; symbol(0) is off by {res:.2e}")


def default_grand_scales(grid: Grid, count: int = 64) -> ScaleGrid:
    """Default scale grid for the grand maximal sup: [spacing/2, half_extent]."""
    return ScaleGrid.log_spaced(grid.spacing / 2.0, grid.half_extent, count)


def grand_max(f: SampledField, cfg: GrandMaxConfig) -> SampledField:
    """Pointwise max over the scale grid of |Phi_t * f| (convolutions spectral)."""
    out = np.zeros(f.grid.shape)
    for mag in filtered(f, dilates(cfg.mollifier, f.grid, cfg.scales.scales), np.abs):
        np.maximum(out, mag, out=out)
    return SampledField(f.grid, out)


def spectral_gradient(f: SampledField) -> list:
    """Partial derivatives via the multiplier 2*pi*i*xi_k, one field per axis."""
    axes = range(f.grid.dimension)
    return list(filtered(f, (coordinate_multiplier(k).symbol for k in axes)))


@dataclass(frozen=True)
class PeetreBoundReport:
    """Pointwise comparison F** <= C [delta^-N M(|F|^r)^(1/r) + delta/R |grad F|**]."""

    c_min: float
    delta: float
    lhs: SampledField
    term_average: SampledField
    term_gradient: SampledField


def peetre_bound_check(
    F: SampledField,
    params: PeetreParams,
    delta: float,
    r: float | None = None,
) -> PeetreBoundReport:
    """Minimal constant making the smoothing bound on the Peetre maximal hold.

    Requires N = n/r; ``r`` defaults to dimension/N.  The right-hand side is
    delta^-N M(|F|^r)^(1/r) + delta R^-1 |grad F|**_{N,R} with the gradient
    realized spectrally.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    n = F.grid.dimension
    if r is None:
        r = n / params.N
    if abs(params.N - n / r) > 1e-12:
        raise ValueError("need N = dimension / r")
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
        delta=float(delta),
        lhs=lhs,
        term_average=SampledField(F.grid, t1),
        term_gradient=SampledField(F.grid, t2),
    )
