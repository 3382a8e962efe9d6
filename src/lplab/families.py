"""Closed-form test-function families for the verification experiments.

Every member is defined by a closed form evaluated at the sample points, so
dilates f(lambda x) and translates f(x - x0) are exact resamplings rather
than interpolations: the dilation-invariance diagnostics measure grid
artifacts, not interpolation error.

Shapes:

    gaussian_derivative   -2 pi x1 exp(-pi |x|^2)        (mean zero)
    modulated_gaussian    exp(-pi |x|^2) cos(2 pi RHO x1)
    band_noise            seeded sum of MODES plane waves, frequencies in
                          [1, 3], under a Gaussian of width ENVELOPE

The small residual mass of the oscillatory shapes (their transform at 0 is
exp(-pi RHO^2)-tiny but nonzero) is removed on the grid, so every sampled
member is exactly mean-free on the periodic box; ``evaluate`` keeps the
closed form, mass included.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import Grid, SampledField, box_face_max

RHO = 2.0  # modulated_gaussian's frequency
MODES = 6  # band_noise's plane-wave count
ENVELOPE = 2.5  # band_noise's envelope width


def _gaussian_derivative(x):
    r2 = np.sum(np.asarray(x) ** 2, axis=0)
    return -2.0 * np.pi * np.asarray(x)[0] * np.exp(-np.pi * r2)


def _modulated_gaussian(x):
    x = np.asarray(x)
    r2 = np.sum(x**2, axis=0)
    return np.exp(-np.pi * r2) * np.cos(2.0 * np.pi * RHO * x[0])


def _band_noise_components(seed: int, dimension: int):
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.5, 1.0, MODES)
    freqs = rng.uniform(1.0, 3.0, MODES)
    phases = rng.uniform(0.0, 2.0 * np.pi, MODES)
    if dimension == 1:
        dirs = np.ones((MODES, 1))
    else:
        ang = rng.uniform(0.0, 2.0 * np.pi, MODES)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    return amps, freqs, phases, dirs


def _band_noise(x, seed: int):
    x = np.asarray(x)
    amps, freqs, phases, dirs = _band_noise_components(seed, x.shape[0])
    r2 = np.sum(x**2, axis=0)
    env = np.exp(-np.pi * r2 / ENVELOPE**2)
    out = np.zeros(x.shape[1:])
    for a, f, ph, d in zip(amps, freqs, phases, dirs):
        arg = sum(d[k] * x[k] for k in range(x.shape[0]))
        out = out + a * np.cos(2.0 * np.pi * f * arg + ph)
    return out * env


SHAPES = ("gaussian_derivative", "modulated_gaussian", "band_noise")


@dataclass(frozen=True)
class FamilyMember:
    """A named closed-form shape with a dilation and a translate."""

    shape: str
    lam: float = 1.0
    shift: float = 0.0
    seed: int = 0

    @property
    def name(self) -> str:
        return f"{self.shape}[lam={self.lam:g},shift={self.shift:g}]"

    def evaluate(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = self.lam * (x - self.shift)
        if self.shape == "gaussian_derivative":
            return _gaussian_derivative(y)
        if self.shape == "modulated_gaussian":
            return _modulated_gaussian(y)
        if self.shape == "band_noise":
            return _band_noise(y, self.seed)
        raise ValueError(f"unknown shape {self.shape!r}")

    def sample(self, grid: Grid) -> SampledField:
        """The member on ``grid``, its grid mean removed."""
        vals = self.evaluate(grid.coords())
        # the mean summed as complex128, the order perfbench/reference's rows
        # were recorded with: the 1-d smoothing bound's M(|F|^(1/2)) moves
        # them past their 1e-12 tolerance with the last bit of the mean
        return SampledField(grid, vals - vals.astype(complex).mean().real)


DEFAULT_DILATIONS = (0.25, 0.5, 1.0, 2.0, 4.0)


def default_family(dilations=DEFAULT_DILATIONS, seed: int = 1234, shapes=SHAPES) -> list:
    """The standard 15-member family: 3 shapes x 5 dilations, untranslated."""
    return [FamilyMember(shape, float(lam), 0.0, seed) for shape in shapes for lam in dilations]


def boundary_leakage(f: SampledField) -> float:
    """Largest |f| on the box boundary relative to the peak: the measured
    periodization bias of a member on this grid."""
    vals = np.abs(f.values)
    peak = float(vals.max())
    if peak == 0:
        return 0.0
    return box_face_max(vals) / peak
