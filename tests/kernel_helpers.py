"""Kernel constructions that only the tests use: spatial samples of a
dilate, a collected scale stack, the conjugate kernel and the Calderon
normalization."""

import math

import numpy as np

from lplab import (Grid, KernelSpec, SampledField, ScaleField, ScaleGrid, SpectralField,
                   from_spectrum, scale_transform)
from lplab.kernels import dilates


def sample_kernel(k: KernelSpec, g: Grid, t: float) -> SampledField:
    """Spatial samples of the dilate psi_t (kernel of the symbol xi -> sym(t*xi))."""
    if not t > 0:
        raise ValueError(f"dilation scale must be positive, got {t}")
    (sym,) = dilates(k, g, [t])
    return from_spectrum(SpectralField(g.frequency_grid(), sym))


def scale_stack(f: SampledField, psi: KernelSpec, scales: ScaleGrid) -> ScaleField:
    """The scale field E(x, t_k) = (f * psi_{t_k})(x), every slice of
    ``scale_transform``'s stream collected in scale order."""
    slices = []
    scale_transform(f, psi, scales, lambda k, values: slices.append(values))
    return ScaleField(f.grid, scales, np.stack(slices))


def conjugate_kernel(psi: KernelSpec) -> KernelSpec:
    """Kernel with symbol conj(psi_hat): the reflected complex conjugate kernel."""

    def symbol(xi):
        return np.conj(np.asarray(psi.symbol(xi)))

    profile = None if psi.profile is None else (lambda r: np.conj(psi.profile(r)))
    return KernelSpec(f"conj({psi.name})", symbol, profile)


def calderon_constant(psi: KernelSpec, dimension: int = 1) -> float:
    """integral_0^inf |psi_hat(t e)|^2 dt/t along a unit ray (radial symbols:
    the same for every ray, by scale invariance of dt/t)."""
    u = np.exp(np.linspace(math.log(1e-8), math.log(1e8), 1 << 15))
    e = np.zeros((dimension, u.size))
    e[0] = u
    vals = np.abs(np.asarray(psi.symbol(e))) ** 2
    du = np.diff(np.log(u))
    return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * du))


def calderon_normalize(psi: KernelSpec, dimension: int = 1) -> KernelSpec:
    """Rescale a radial kernel so integral |psi_hat(t xi)|^2 dt/t = 1 for xi != 0."""
    c = calderon_constant(psi, dimension)
    if c <= 0:
        raise ValueError("kernel has vanishing scale energy; cannot normalize")
    scale = 1.0 / math.sqrt(c)

    def symbol(xi):
        return scale * np.asarray(psi.symbol(xi))

    profile = None if psi.profile is None else (lambda r: scale * np.asarray(psi.profile(r)))
    return KernelSpec(f"{psi.name}_norm", symbol, profile)
