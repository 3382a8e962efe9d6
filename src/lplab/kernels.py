"""Closed-form convolution kernels specified by their Fourier symbols.

A kernel is a callable symbol xi -> psi_hat(xi); spatial samples always come
from the inverse transform of the dilated symbol, never from closed spatial
forms.  Symbols accept stacked frequency coordinates of shape (dim, ...) and
return a complex array of shape (...), so the same spec works in 1-d and 2-d.
A radial kernel also carries its profile r -> value, symbol(xi) =
profile(|xi|), so its dilates on a grid are evaluated once per scale on the
grid's distinct |xi| and kept with the kernel.

Builtins:

    poissonQ      -2*pi*|xi| * exp(-2*pi*|xi|)   (mean-zero, radial)
    gaussian      exp(-pi*|xi|^2)                 (unit mass, no cancellation)
    mexican_hat   4*pi^2*|xi|^2 * exp(-pi*|xi|^2)
    annulus_bump  C-infinity plateau equal to 1 on {b<=|xi|<=c},
                  supported in {a<=|xi|<=d}; default (a,b,c,d)=(1/2,1,2,4)

The checks in this module are Fourier-side: cancellation (symbol(0) = 0),
non-degeneracy (inf over directions of the sup over scales of the summed
symbol magnitudes), symbol-derivative decay classes, and low-frequency
growth exponents.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, SampledField, ScaleGrid, SpectralField, from_spectrum


def smoothstep(s):
    """C-infinity transition: exactly 0 for s <= 0, exactly 1 for s >= 1.

    Built from the standard exp(-1/s) mollifier ramp.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros(s.shape)
    out[s >= 1.0] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / sm)
        b = np.exp(-1.0 / (1.0 - sm))
    out[mid] = a / (a + b)
    return out


def plateau(r, a: float, b: float, c: float, d: float):
    """Radial plateau profile: 0 off [a, d], 1 on [b, c], smooth ramps between."""
    r = np.asarray(r, dtype=float)
    out = np.where((r <= b) | (r >= c), 0.0, 1.0)
    # 0 off (a, d) and 1 on (b, c) directly; smoothstep only on the two ramps
    up = (r > a) & (r <= b)
    out[up] = smoothstep((r[up] - a) / (b - a))
    down = (r >= c) & (r < d)
    out[down] = smoothstep((d - r[down]) / (d - c))
    return out


def _norm(xi) -> np.ndarray:
    xi = np.asarray(xi, dtype=float)
    return np.sqrt(np.sum(xi * xi, axis=0))


def radial_symbol(profile):
    """Wrap a radius function r -> value into a stacked-coordinate symbol."""

    def symbol(xi):
        return np.asarray(profile(_norm(xi)), dtype=complex)

    return symbol


@dataclass(frozen=True)
class DecaySpec:
    """Symbol decay class: |d^gamma psi_hat| <= C |xi|^(-tau-|gamma|) for |gamma| <= l,
    outside the ball of the given radius."""

    l: int
    tau: float
    neighborhood_radius: float = 1.0

    def __post_init__(self):
        if self.l < 0 or self.tau < 0 or self.neighborhood_radius <= 0:
            raise ValueError("need l >= 0, tau >= 0, neighborhood_radius > 0")


@dataclass(frozen=True)
class KernelSpec:
    """A named convolution kernel given by its Fourier symbol, and for a
    radial kernel its profile, with symbol(xi) == profile(|xi|)."""

    name: str
    symbol: object  # callable (dim, ...) -> (...)
    profile: object = None  # callable r -> value, or None if not radial
    # (grid, t) -> the read-only profile at t * r on the grid's distinct
    # radii r; kept by the kernel, so it is freed with the kernel
    _rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, xi):
        return self.symbol(xi)

    def at_origin(self, dimension: int = 1) -> complex:
        return complex(np.asarray(self.symbol(np.zeros((dimension, 1))))[0])


@dataclass(frozen=True)
class KernelFamily:
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("kernel family must be nonempty")
        object.__setattr__(self, "members", members)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def radial_kernel(name: str, profile) -> KernelSpec:
    """The radial kernel with symbol xi -> profile(|xi|)."""
    return KernelSpec(name, radial_symbol(profile), profile)


@functools.lru_cache(maxsize=8)
def _distinct_radii(grid: Grid) -> tuple:
    """(ru, inv): the sorted distinct |xi| on the frequency grid of ``grid``
    and, per point, the index of its |xi| in ru; read-only, computed once."""
    r = grid.frequency_grid().radii()
    ru, inv = np.unique(r, return_inverse=True)
    inv = inv.reshape(r.shape)
    ru.setflags(write=False)
    inv.setflags(write=False)
    return ru, inv


def dilates(k: KernelSpec, grid: Grid, ts):
    """Yield xi -> symbol(t xi) on the frequency grid of ``grid``, one array
    per scale t.  A radial kernel evaluates its profile once per (grid, t),
    at t * r on the grid's distinct radii r, and keeps that row for every
    later call; other kernels evaluate the symbol at the scaled coordinates."""
    if k.profile is not None:
        ru, inv = _distinct_radii(grid)
        for t in ts:
            row = k._rows.get((grid, t))
            if row is None:
                row = np.asarray(k.profile(t * ru))
                row.setflags(write=False)
                k._rows[(grid, t)] = row
            yield row[inv]
    else:
        coords = grid.frequency_grid().coords()
        for t in ts:
            yield k.symbol(t * coords)


def _as_family(fam) -> KernelFamily:
    """A KernelFamily as is; a single KernelSpec as a one-member family."""
    return KernelFamily((fam,)) if isinstance(fam, KernelSpec) else fam


BUILTIN_KERNELS = ("poissonQ", "gaussian", "mexican_hat", "annulus_bump")


def make_builtin(name: str, params=None) -> KernelSpec:
    """Construct a named builtin kernel, optionally overriding its parameters.

    ``annulus_bump`` takes params (a, b, c, d) for the support/plateau radii;
    ``gaussian`` takes an optional width w (symbol exp(-pi*w^2*|xi|^2)).
    """
    params = list(params) if params else []
    if name == "poissonQ":
        return radial_kernel("poissonQ", lambda r: -2.0 * np.pi * r * np.exp(-2.0 * np.pi * r))
    if name == "gaussian":
        w = params[0] if params else 1.0
        return radial_kernel("gaussian", lambda r: np.exp(-np.pi * (w * r) ** 2))
    if name == "mexican_hat":
        return radial_kernel("mexican_hat",
                             lambda r: 4.0 * np.pi**2 * r**2 * np.exp(-np.pi * r**2))
    if name == "annulus_bump":
        a, b, c, d = params if params else (0.5, 1.0, 2.0, 4.0)
        if not 0 < a < b < c < d:
            raise ValueError("annulus_bump radii must satisfy 0 < a < b < c < d")
        return radial_kernel("annulus_bump", lambda r: plateau(r, a, b, c, d))
    raise ValueError(f"unknown builtin kernel {name!r} (choose from {BUILTIN_KERNELS})")


def constant_multiplier(value: complex) -> KernelSpec:
    """Frequency multiplier identically equal to ``value``."""
    v = complex(value)

    def symbol(xi):
        return np.full(np.asarray(xi).shape[1:], v, dtype=complex)

    return KernelSpec(f"const({value})", symbol)


def coordinate_multiplier(axis: int) -> KernelSpec:
    """The derivative multiplier 2*pi*i*xi_k: convolving with it differentiates."""

    def symbol(xi):
        xi = np.asarray(xi, dtype=float)
        return 2.0j * np.pi * xi[axis]

    return KernelSpec(f"ddx{axis}", symbol)


def derived_kernel(name: str, base: KernelSpec, multiplier: KernelSpec) -> KernelSpec:
    """Kernel whose symbol is multiplier * base (e.g. a spectral derivative)."""

    def symbol(xi):
        return np.asarray(multiplier.symbol(xi)) * np.asarray(base.symbol(xi))

    return KernelSpec(name, symbol)


def power_tail_kernel(tau: float, name: str | None = None) -> KernelSpec:
    """Mean-zero radial kernel with symbol 2*pi*r (1+r^2)^(-(tau+1)/2).

    Rises like |xi| at the origin (same cancellation rate as poissonQ) and
    decays like 2*pi*|xi|^(-tau) at infinity, with every symbol derivative
    gaining one power of |xi|; a sharp member of the decay class with
    exponent tau, used to exercise the constant-decay law at a known rate.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")

    def profile(r):
        return 2.0 * np.pi * r * (1.0 + r * r) ** (-(tau + 1.0) / 2.0)

    return radial_kernel(name or f"power_tail({tau})", profile)


def sample_kernel(k: KernelSpec, g: Grid, t: float) -> SampledField:
    """Spatial samples of the dilate psi_t (kernel of the symbol xi -> sym(t*xi))."""
    if not t > 0:
        raise ValueError(f"dilation scale must be positive, got {t}")
    (sym,) = dilates(k, g, [t])
    return from_spectrum(SpectralField(g.frequency_grid(), sym))


@dataclass(frozen=True)
class CancellationCheck:
    passed: bool
    residual: float


def check_cancellation(k: KernelSpec, dimension: int = 1) -> CancellationCheck:
    """Zero-mean check: residual |symbol(0)|, pass at 1e-12."""
    residual = abs(k.at_origin(dimension))
    return CancellationCheck(residual <= 1e-12, residual)


def _unit_directions(dimension: int, count: int) -> np.ndarray:
    if count < 1:
        raise ValueError("need at least one direction")
    if dimension == 1:
        return np.array([[1.0], [-1.0]])[: max(1, min(count, 2))]
    angles = 2.0 * np.pi * np.arange(count) / count
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _family_sum_at(fam: KernelFamily, pts: np.ndarray) -> np.ndarray:
    total = np.zeros(pts.shape[1:])
    for member in fam:
        total = total + np.abs(np.asarray(member.symbol(pts)))
    return total


def check_nondegeneracy(
    fam: KernelFamily | KernelSpec,
    t_range: ScaleGrid,
    directions: int = 2,
    dimension: int = 1,
) -> float:
    """Estimate inf over directions of sup over scales of sum_j |symbol_j(t*xi)|.

    By homogeneity of the dilation the scan over rays suffices.  The sup in t
    is a grid scan over ``t_range`` refined by a bounded 1-d maximization in
    log t around the grid argmax, so a generous log grid recovers smooth
    maxima to high accuracy.
    """
    # deferred: scipy.optimize loads linalg, sparse and spatial (+20 MiB and
    # +0.16 s on every `import lplab`), and no scenario or CLI command calls this
    from scipy.optimize import minimize_scalar

    fam = _as_family(fam)
    if t_range.count < 2 or t_range.spans_decades() < 4.0:
        raise ValueError("scale range must span at least 4 decades")
    dirs = _unit_directions(dimension, directions)
    ts = t_range.scales
    worst = math.inf
    for d in dirs:
        pts = ts[np.newaxis, :] * d[:, np.newaxis]  # (dim, K)
        vals = _family_sum_at(fam, pts)
        i = int(np.argmax(vals))
        best = float(vals[i])
        lo = ts[min(i + 1, len(ts) - 1)]
        hi = ts[max(i - 1, 0)]
        if lo < hi and best > 0:

            def neg(u, d=d):
                p = math.exp(u) * d[:, np.newaxis]
                return -float(_family_sum_at(fam, p)[0])

            res = minimize_scalar(
                neg, bounds=(math.log(lo), math.log(hi)), method="bounded",
                options={"xatol": 1e-12},
            )
            best = max(best, -float(res.fun))
        worst = min(worst, best)
    return worst


_FD4_STENCIL = ((-2, 1.0 / 12.0), (-1, -2.0 / 3.0), (1, 2.0 / 3.0), (2, -1.0 / 12.0))


def _fd_nodes(gamma: tuple[int, ...]):
    """Offsets and coefficients of composed 4th-order central first-derivative
    stencils realizing the mixed partial d^gamma (per-axis repetition)."""
    nodes = [(np.zeros(len(gamma)), 1.0)]
    for axis, order in enumerate(gamma):
        for _ in range(order):
            new = []
            for off, cf in nodes:
                for step, w in _FD4_STENCIL:
                    o = off.copy()
                    o[axis] += step
                    new.append((o, cf * w))
            nodes = new
    return nodes


def _symbol_derivative(k: KernelSpec, xi0: np.ndarray, gamma: tuple[int, ...], step: float):
    order = sum(gamma)
    if order == 0:
        return complex(np.asarray(k.symbol(xi0[:, np.newaxis]))[0])
    nodes = _fd_nodes(gamma)
    pts = np.stack([xi0 + step * off for off, _ in nodes], axis=1)  # (dim, nodes)
    vals = np.asarray(k.symbol(pts))
    coeffs = np.array([cf for _, cf in nodes])
    return complex(np.sum(vals * coeffs)) / step**order


def _multi_indices(dimension: int, max_order: int):
    out = []
    for order in range(max_order + 1):
        for combo in itertools.product(range(order + 1), repeat=dimension):
            if sum(combo) == order:
                out.append(combo)
    return out


@dataclass(frozen=True)
class DecayCheck:
    passed: bool
    slopes: dict  # multi-index -> fitted log-log slope (None where vacuous)


def check_decay_class(
    k: KernelSpec,
    d: DecaySpec,
    probe_radii,
    dimension: int = 1,
    directions: int = 4,
) -> DecayCheck:
    """Fit log|d^gamma symbol| against log|xi| on probe spheres.

    Passes when every fitted slope with |gamma| <= l is at most
    -tau - |gamma| + 0.1 (the 0.1 margin absorbs finite-probe-range bias).
    Derivatives are 4th-order central differences with step 1e-3*|xi|.
    Radii where the derivative vanishes identically are dropped; a gamma
    with fewer than two nonzero radii passes vacuously (compactly supported
    symbols beat every polynomial rate).
    """
    radii = np.asarray(probe_radii, dtype=float)
    if np.any(radii <= d.neighborhood_radius):
        raise ValueError("probe radii must exceed the neighborhood radius")
    dirs = _unit_directions(dimension, directions)
    slopes: dict = {}
    passed = True
    for gamma in _multi_indices(dimension, d.l):
        mags = []
        for r in radii:
            step = 1e-3 * r
            if step == 0:
                raise FloatingPointError("finite-difference step underflow")
            best = 0.0
            for u in dirs:
                val = _symbol_derivative(k, r * u, gamma, step)
                best = max(best, abs(val))
            mags.append(best)
        mags = np.asarray(mags)
        keep = mags > 1e-290
        if keep.sum() < 2:
            slopes[gamma] = None
            continue
        slope = float(np.polyfit(np.log(radii[keep]), np.log(mags[keep]), 1)[0])
        slopes[gamma] = slope
        if slope > -d.tau - sum(gamma) + 0.1:
            passed = False
    return DecayCheck(passed, slopes)


def check_low_frequency_growth(
    k: KernelSpec,
    dimension: int = 1,
    radii=None,
) -> float:
    """Estimate the growth exponent eps with |symbol(xi)| ~ |xi|^eps near 0.

    Median of local log-log slopes along a ray over |xi| in [1e-4, 1e-1];
    the median is exact for pure powers and insensitive to the symbol's
    curvature at the top of the probe range.
    """
    if radii is None:
        radii = np.exp(np.linspace(math.log(1e-4), math.log(1e-1), 65))
    radii = np.asarray(radii, dtype=float)
    direction = _unit_directions(dimension, 1)[0]
    pts = radii[np.newaxis, :] * direction[:, np.newaxis]
    vals = np.abs(np.asarray(k.symbol(pts)))
    if np.all(vals < 1e-300):
        raise ValueError("symbol vanishes identically on the probe ray")
    keep = vals > 1e-300
    logs_r = np.log(radii[keep])
    logs_v = np.log(vals[keep])
    if logs_r.size < 3:
        raise ValueError("too few nonzero samples on the probe ray")
    local = np.diff(logs_v) / np.diff(logs_r)
    return float(np.median(local))
