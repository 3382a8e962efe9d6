"""Muckenhoupt weights: power weights and the unit weight, and characteristic estimation.

The characteristic

    [w]_{A_p} = sup_B (avg_B w) * (avg_B w^(-1/(p-1)))^(p-1)

is estimated over grid-aligned balls at the sampled radii (1-d: all
contiguous windows of the matching widths; 2-d: discs).  The A_1
characteristic is the sup of M(w)/w with the uncentered maximal operator.

Power weights |x|^a are materialized with the singular cell replaced by its
cell average (analytic in 1-d, subsampled in 2-d), a documented O(spacing)
bias that keeps the quadrature convergent for a in (-n, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Grid, SampledField
from .maximal import _disc_means, _window_means, hl_max


@dataclass(frozen=True)
class Weight:
    """A positive weight: power |x|^a (a finite) or the constant 1.  A
    constant c would cancel from every ratio, and [c]_{A_p} = 1."""

    kind: str  # "power" | "constant"
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("power", "constant"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not math.isfinite(self.exponent):
            raise ValueError(f"power weight exponent must be finite, got {self.exponent}")

    @classmethod
    def power(cls, a: float) -> "Weight":
        return cls("power", exponent=a)

    @classmethod
    def const(cls) -> "Weight":
        return cls("constant")

    def materialize(self, grid: Grid) -> SampledField:
        if self.kind == "constant":
            return SampledField(grid, np.ones(grid.shape))
        a = self.exponent
        r = grid.radii()
        with np.errstate(divide="ignore"):
            vals = np.where(r > 0, r, 1.0) ** a
        origin = tuple([grid.points_per_axis // 2] * grid.dimension)
        vals[origin] = _singular_cell_average(grid, a)
        return SampledField(grid, vals)


def _singular_cell_average(grid: Grid, a: float) -> float:
    """Average of |x|^a over the cell containing the origin."""
    h = grid.spacing
    if grid.dimension == 1:
        if a <= -1:
            raise ValueError("power weight exponent must exceed -1 in 1-d")
        return (h / 2.0) ** a / (a + 1.0)
    if a <= -2:
        raise ValueError("power weight exponent must exceed -2 in 2-d")
    k = 128
    sub = (np.arange(k) + 0.5) / k * h - h / 2.0
    xx, yy = np.meshgrid(sub, sub, indexing="ij")
    return float(np.mean(np.hypot(xx, yy) ** a))


def _ball_radii(radii) -> np.ndarray:
    """``radii`` as a float array; raise unless every radius r satisfies
    0 < r < inf (NaN does not), naming the first that fails."""
    arr = np.asarray(radii, dtype=float)
    bad = arr[~((arr > 0) & (arr < math.inf))]
    if bad.size:
        raise ValueError(f"ball radii must be positive and finite, got {bad[0]}")
    return arr


def ap_characteristic(w: Weight, p: float, ball_radii, grid: Grid) -> float:
    """Estimate [w]_{A_p} over grid-aligned balls of the given radii (at
    least one, each positive and finite); a NaN product anywhere makes the
    estimate NaN."""
    if not 1 < p < math.inf:
        raise ValueError(f"A_p characteristic needs 1 < p < inf, got {p}")
    radii = _ball_radii(ball_radii)
    if radii.size == 0:
        raise ValueError("A_p characteristic needs at least one ball radius")
    wf = w.materialize(grid).values.real
    if np.any(wf <= 0):
        raise ValueError("weight must be strictly positive on the grid")
    sig = wf ** (-1.0 / (p - 1.0))
    if grid.dimension == 1:
        widths = [min(max(1, int(round(2.0 * r / grid.spacing))), grid.points_per_axis)
                  for r in radii]
        means_w, means_s = _window_means(wf, widths), _window_means(sig, widths)
    else:
        cells = radii / grid.spacing
        means_w = (m for _, m in _disc_means(wf, cells))
        means_s = (m for _, m in _disc_means(sig, cells))
    return float(np.max([np.max(mw * ms ** (p - 1.0)) for mw, ms in zip(means_w, means_s)]))


def a1_check(w: Weight, grid: Grid) -> float:
    """Measured [w]_{A_1}: sup over the grid of M(w)/w."""
    wf = w.materialize(grid)
    vals = wf.values.real
    if np.any(vals <= 0):
        raise ValueError("weight must be strictly positive on the grid")
    m = hl_max(wf).values.real
    return float(np.max(m / vals))


def admissible_power_range(p: float, N: float, dimension: int) -> tuple:
    """Power exponents a with |x|^a in the class A_{pN/n}: (-n, n(pN/n - 1))."""
    s = p * N / dimension
    if s <= 1:
        raise ValueError("weighted experiments need pN/n > 1")
    return (-float(dimension), float(dimension) * (s - 1.0))
