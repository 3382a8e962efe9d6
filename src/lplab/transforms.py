"""Square functions, scale fields, the synthesis operator and atoms.

The scale field of an analysis pair is E(x, t) = (f * psi_t)(x), computed
per scale as the inverse transform of f_hat(xi) * psi_hat(t xi).
``scale_transform`` streams its slices from ``fields.filtered_slices`` in
scale order into a caller's per-scale fold, and keeps no stack.  Square
functions integrate |E| over scales against dt/t with log-rectangle
weights: ``g_function`` folds them through ``fields.ScaleSum`` as they
stream.  A discrete ladder t = b^j is the geometric ScaleGrid of ratio b,
whose log-cells carry the weight log(1/b), so its square function is
``g_function`` on that grid; it tends to the continuous one as b -> 1.

The synthesis operator is the adjoint-style assembly

    F_eps(h)(x) = sum_{t_k in (eps, 1/eps)} (psi_{t_k} * h^{t_k})(x) * dlog t,

and atoms are cube-supported scale fields with a saturated scale-square
size bound and vanishing moments per scale, drawn from seeded band-limited
noise so every report is reproducible.
"""

from __future__ import annotations

import itertools
import logging
import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .fields import (
    Grid,
    SampledField,
    ScaleGrid,
    ScaleSum,
    SpectralField,
    _adopt,
    _kind,
    _product,
    filtered_slices,
    from_spectrum,
    scale_integral,
    to_spectrum,
)
from .kernels import KernelSpec, dilates, plateau

log = logging.getLogger("lplab")


@dataclass(frozen=True)
class ScaleField:
    """Values indexed (scale, space), float64 for real input and complex128
    for complex, as a SampledField keeps them; each slice is a SampledField."""

    grid: Grid
    scales: ScaleGrid
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=_kind(self.values))  # always a copy, and only one
        expect = (self.scales.count,) + self.grid.shape
        if arr.shape != expect:
            raise ValueError(f"values shape {arr.shape}, expected {expect}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def slice(self, k: int) -> SampledField:
        # a view of the read-only stack: nothing can write to it
        return _adopt(SampledField, self.values[k], grid=self.grid)


def scale_transform(f: SampledField, psi: KernelSpec, scales: ScaleGrid, fold) -> None:
    """E(x, t_k) = inverse transform of f_hat(xi) * psi_hat(t_k xi), per scale,
    folded as it streams: ``fold(k, values)`` is called on each slice in
    scale order, and no stack is kept.  An error in ``fold`` closes the
    stream before it propagates."""
    with closing(filtered_slices(f, dilates(psi, f, scales.scales))) as slices:
        for k, values in enumerate(slices):
            fold(k, values)


def g_function(f: SampledField, psi: KernelSpec, scales: ScaleGrid, q: float = 2.0) -> SampledField:
    """(integral |f * psi_t|^q dt/t)^(1/q), pointwise over the grid: the
    scale transform folded into ``ScaleSum`` as it streams, with the bytes
    of ``scale_integral`` over the stack of its slices."""
    total = ScaleSum(f.grid.shape, scales, q)
    scale_transform(f, psi, scales, total.add)
    return SampledField(f.grid, total.result())


def synthesize(h: ScaleField, psi: KernelSpec, epsilon: float) -> SampledField:
    """Assemble sum over t in (eps, 1/eps) of (psi_t * h^t) * dlog t, spectrally."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    sg = h.scales
    if sg.t_min > epsilon or sg.t_max < 1.0 / epsilon:
        raise ValueError(
            f"scale grid [{sg.t_min:.3g}, {sg.t_max:.3g}] does not cover "
            f"({epsilon:.3g}, {1/epsilon:.3g})"
        )
    inside = np.flatnonzero((sg.scales > epsilon) & (sg.scales < 1.0 / epsilon))
    if inside.size < sg.count:
        log.debug("synthesize: cutoff %g skips %d of %d scales",
                  epsilon, sg.count - inside.size, sg.count)
    if inside.size == 0:
        return SampledField(h.grid, np.zeros(h.grid.shape, dtype=h.values.dtype))
    acc = 0.0  # 0.0 + the first term, as a zero array plus it
    for k, sym in zip(inside, dilates(psi, h, sg.scales[inside])):
        acc += _product(to_spectrum(h.slice(k)), sg.log_width * np.asarray(sym))
    return from_spectrum(_adopt(SpectralField, acc, grid=h.grid.frequency_grid()))


@dataclass(frozen=True)
class Atom:
    """Cube-supported scale field with size bound |Q|^(-1/p) and vanishing moments."""

    cube_center: tuple
    cube_side: float
    p: float
    values: ScaleField
    moment_order: int


def _cube_mask(grid: Grid, center, side: float) -> np.ndarray:
    coords = grid.coords()
    mask = np.ones(grid.shape, dtype=bool)
    for k in range(grid.dimension):
        mask &= np.abs(coords[k] - center[k]) <= side / 2.0
    return mask


def _cube_monomials(grid: Grid, mask: np.ndarray, coords, order: int) -> list:
    """The monomials prod_k coords[k]^e_k of degree <= ``order``, zero off the mask."""
    powers = [pw for pw in itertools.product(range(order + 1), repeat=grid.dimension)
              if sum(pw) <= order]
    monomials = []
    for pw in powers:
        m = np.ones(grid.shape)
        for k, e in enumerate(pw):
            m = m * coords[k] ** e
        monomials.append(np.where(mask, m, 0.0))
    return monomials


def _moment_basis(grid: Grid, mask: np.ndarray, center, side: float, order: int) -> list:
    """Orthonormal basis (grid inner product on the cube) of monomials up to ``order``."""
    coords = grid.coords()
    scaled = [(coords[k] - center[k]) / (side / 2.0) for k in range(grid.dimension)]
    vol = grid.cell_volume
    basis = []
    for m in _cube_monomials(grid, mask, scaled, order):
        v = m.astype(float)
        for b in basis:
            v = v - np.sum(v * b) * vol * b
        norm = math.sqrt(float(np.sum(v * v)) * vol)
        if norm < 1e-12:
            raise ValueError("moment projection ill-conditioned on this cube")
        basis.append(v / norm)
    return basis


def make_atom(
    grid: Grid,
    scales: ScaleGrid,
    cube_center,
    cube_side: float,
    p: float,
    seed: int,
) -> Atom:
    """Draw a reproducible atom: smooth seeded noise in the cube per scale,
    moments projected out up to floor(n(1/p - 1)), size saturated at
    0.9 |Q|^(-1/p)."""
    if not 0 < p <= 1:
        raise ValueError("p must lie in (0, 1]")
    center = tuple(np.atleast_1d(np.asarray(cube_center, dtype=float)))
    if len(center) != grid.dimension:
        raise ValueError("cube center dimension mismatch")
    half = grid.half_extent
    if any(abs(c) + cube_side / 2.0 > half for c in center):
        raise ValueError("cube must lie inside the grid box")
    if cube_side < 8 * grid.spacing:
        raise ValueError("cube smaller than 8 grid cells per axis")
    n = grid.dimension
    order = math.floor(n * (1.0 / p - 1.0))
    mask = _cube_mask(grid, center, cube_side)
    # smooth window: flat on the inner half of the cube, zero at the faces
    coords = grid.coords()
    window = np.ones(grid.shape)
    for k in range(n):
        u = np.abs(coords[k] - center[k]) / (cube_side / 2.0)
        window = window * plateau(1.0 - u, 0.0, 0.4, 2.0, 3.0)
    window = np.where(mask, window, 0.0)

    rng = np.random.default_rng(seed)
    basis = _moment_basis(grid, mask, center, cube_side, order)
    vol = grid.cell_volume
    vals = np.empty((scales.count,) + grid.shape)
    kcut = 6.0 / cube_side  # band-limit of the raw noise, a few modes per cube
    fg = grid.frequency_grid()
    lowpass = np.exp(-((fg.radii() / kcut) ** 2))
    for k in range(scales.count):
        noise = SampledField(grid, rng.standard_normal(grid.shape))
        smooth = from_spectrum(to_spectrum(noise), lowpass)
        slice_k = smooth.values * window
        for b in basis:
            slice_k = slice_k - np.sum(slice_k * b) * vol * b
        vals[k] = slice_k
    sup = float(np.max(scale_integral(vals, scales, 2.0)))
    bound = (cube_side**n) ** (-1.0 / p)
    if sup > 0:
        vals *= 0.9 * bound / sup
    field = _adopt(ScaleField, vals, grid=grid, scales=scales)
    return Atom(center, float(cube_side), float(p), field, order)


@dataclass(frozen=True)
class AtomValidation:
    passed: bool
    support_residual: float
    size_ratio: float
    moment_residual: float


def validate_atom(a: Atom) -> AtomValidation:
    """Re-measure the three atom properties: support, size, moments.

    support_residual is the largest magnitude outside the cube relative to
    the peak; size_ratio is sup_x (scale-square integral)^(1/2) over the
    bound |Q|^(-1/p); moment_residual is the largest Cauchy-Schwarz
    normalized moment over scales and exponents.
    """
    grid = a.values.grid
    n = grid.dimension
    mask = _cube_mask(grid, a.cube_center, a.cube_side)
    vals = a.values.values
    peak = float(np.max(np.abs(vals)))
    outside = 0.0 if peak == 0 else float(np.max(np.abs(vals[:, ~mask]), initial=0.0)) / peak
    sup = float(np.max(scale_integral(vals, a.values.scales, 2.0)))
    bound = (a.cube_side**n) ** (-1.0 / a.p)
    size_ratio = sup / bound
    vol = grid.cell_volume
    slice_norms = [math.sqrt(float(np.sum(np.abs(v) ** 2)) * vol) for v in vals]
    worst = 0.0
    for mono in _cube_monomials(grid, mask, grid.coords(), a.moment_order):
        mono_norm = math.sqrt(float(np.sum(mono**2)) * vol)
        for k, slice_norm in enumerate(slice_norms):
            if slice_norm == 0 or mono_norm == 0:
                continue
            moment = abs(np.sum(vals[k] * mono) * vol)
            worst = max(worst, moment / (mono_norm * slice_norm))
    passed = outside <= 1e-14 and size_ratio <= 1.0 + 1e-9 and worst <= 1e-10
    return AtomValidation(passed, outside, size_ratio, worst)
