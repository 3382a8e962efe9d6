"""Reproducing partition built from a non-degenerate kernel.

Given a kernel phi whose symbol magnitude stays bounded away from zero
along every ray (for some scale), this module constructs the dual symbol
eta with

    sum_j phi_hat(b^j xi) * eta_hat(b^j xi) = 1   for all xi != 0,

following the compactness construction: locate compact scale intervals on
which the squared symbol stays above half its measured infimum, put a
smooth plateau theta over their hull [m, H] (supported in [m/2, 2H]), form
the log-periodized normalizer

    Psi(xi) = sum_j theta(b^j |xi|) * |phi_hat(b^j xi)|^2,

and set eta_hat = theta(|xi|) * conj(phi_hat(xi)) / Psi(xi).  The support of
eta_hat is the annulus {r1 < |xi| < r2} with r1 = m/2, r2 = 2H.

On top of the partition sit the low-frequency remainder symbols zeta_J
(equal to 1 inside {|xi| < r1/J}, vanishing outside {|xi| <= r2/J}) and the
splitting of a kernel psi into dilated annulus pieces plus a low-frequency
multiplier part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import Grid, ScaleGrid
from .kernels import KernelSpec, _norm, _unit_directions, plateau


@dataclass(frozen=True)
class IntervalCover:
    """Output of the scale-window search: compact t-intervals plus b0, the
    measured infimum c whose half is the window threshold, and the
    dimension whose rays were scanned."""

    intervals: tuple
    b0: float
    squared_infimum: float
    dimension: int


def find_intervals(phi: KernelSpec, dimension: int = 1) -> IntervalCover:
    """Locate compact scale intervals where the squared symbol is large.

    For every probe ray of ``kernels._unit_directions`` (2 in 1-d, 64 in
    2-d) the widest window of the 2049 log-uniform scales t in [1e-4, 1e4]
    with |phi_hat(t xi)|^2 >= c/2 is taken (c = the measured infimum over
    directions of the sup over scales); overlapping windows are merged.  b0
    is the largest ratio a_h/b_h over the returned intervals [a_h, b_h], so
    any b in [b0, 1) steps through every interval along each ray.
    """
    dirs = _unit_directions(dimension)
    ts = ScaleGrid.log_spaced(1e-4, 1e4, 2049).scales[::-1]  # increasing
    profiles = np.asarray([np.abs(np.asarray(phi.symbol(ts * d[:, np.newaxis]))) ** 2
                           for d in dirs])
    c_sq = float(np.min(np.max(profiles, axis=1)))
    if c_sq <= 1e-30:
        raise ValueError("kernel is degenerate at this grid resolution: no scale window")
    windows = []
    for vals in profiles:
        above = np.concatenate(([False], vals >= 0.5 * c_sq, [False]))
        runs = np.flatnonzero(above[1:] != above[:-1]).reshape(-1, 2)  # [start, stop)
        lo, stop = runs[np.argmax(runs[:, 1] - runs[:, 0])]  # the first widest
        if stop - lo == 1:
            raise ValueError("scale grid too coarse: widest window is a single sample")
        windows.append((float(ts[lo]), float(ts[stop - 1])))
    windows.sort()
    merged = [windows[0]]
    for a, b in windows[1:]:
        la, lb = merged[-1]
        if a <= lb:
            merged[-1] = (la, max(lb, b))
        else:
            merged.append((a, b))
    b0 = max(a / b for a, b in merged)
    return IntervalCover(tuple(merged), b0, c_sq, dimension)


def _j_window(r_min: float, r_max: float, lo: float, hi: float, b: float) -> range:
    """Integer j with b^j * r in [lo, hi] for some r in [r_min, r_max], padded by 1."""
    ln_b = math.log(b)
    j_lo = math.ceil(math.log(hi / r_min) / ln_b) - 1
    j_hi = math.floor(math.log(lo / r_max) / ln_b) + 1
    return range(j_lo, j_hi + 1)


def _annulus_sum(xi, out: np.ndarray, term, r1: float, r2: float, b: float, j_min=None):
    """Add term(s, sub, s|sub|) into ``out`` at each j (from ``j_min`` on, if
    given), where s = b^j and sub holds the points of stacked coords ``xi``
    with r1 < s|xi| < r2.  Returns ``out``."""
    xi = np.asarray(xi, dtype=float)
    r = _norm(xi)
    pos = r[r > 0]
    if pos.size == 0:
        return out
    window = _j_window(float(pos.min()), float(pos.max()), r1, r2, b)
    for j in range(window.start if j_min is None else max(j_min, window.start), window.stop):
        s = b**j
        mask = (s * r > r1) & (s * r < r2)
        if not np.any(mask):
            continue
        sub = xi[(slice(None),) + np.nonzero(mask)]
        out[mask] += term(s, sub, s * r[mask])
    return out


@dataclass(frozen=True)
class PartitionSystem:
    """The analyzing kernel phi, its dual symbol eta, and the construction
    data, with the dimension whose rays its cover scanned."""

    phi: KernelSpec
    eta_symbol: object  # callable on stacked coords
    b: float
    b0: float
    r1: float
    r2: float
    intervals: tuple
    psi_big: object  # the normalizer Psi on stacked coords
    dimension: int
    # grid -> the read-only eta_hat on the grid's frequency grid; kept by the
    # partition, as a kernel keeps its dilate rows, so it is freed with it
    _etas: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def eta_on(self, grid: Grid) -> np.ndarray:
        """eta_hat on the frequency grid of ``grid``: evaluated on the first
        call for that grid and kept, read-only, for every later one."""
        eta = self._etas.get(grid)
        if eta is None:
            eta = np.asarray(self.eta_symbol(grid.frequency_grid().coords()))
            eta.setflags(write=False)
            self._etas[grid] = eta
        return eta

    def first_j(self, J: float) -> int:
        """The least j with b^j <= J (up to round-off): where the ladder
        below the cutoff J starts."""
        return math.ceil(math.log(J) / math.log(self.b) - 1e-9)

    def reproducing_sum(self, xi) -> np.ndarray:
        """sum_j phi_hat(b^j xi) eta_hat(b^j xi), summed over the support window."""
        out = np.zeros(np.shape(xi)[1:], dtype=complex)
        return _annulus_sum(xi, out, self._term, self.r1, self.r2, self.b)

    def _term(self, s, sub, _sr):
        """phi_hat(s xi) eta_hat(s xi), the summand of the reproducing sum."""
        return np.asarray(self.phi.symbol(s * sub)) * np.asarray(self.eta_symbol(s * sub))


#: theta's support [m / margin, margin * H] around the plateau hull [m, H]
PLATEAU_MARGIN = 2.0
#: least admissible value of the normalizer Psi on the sampled annulus
NORMALIZER_FLOOR = 1e-10


def build_partition(phi: KernelSpec, b: float, cover: IntervalCover) -> PartitionSystem:
    """Assemble the reproducing partition for the kernel ``phi``.

    ``cover`` is ``find_intervals(phi)``'s IntervalCover; the normalizer is
    probed on 512 radii along each probe ray of the cover's dimension (2 in
    1-d, 64 in 2-d).  Raises if b lies outside [cover.b0, 1), or if the
    normalizer dips below NORMALIZER_FLOOR on the sampled annulus.
    """
    if not (cover.b0 <= b < 1.0):
        raise ValueError(f"b must lie in [b0, 1) = [{cover.b0}, 1), got {b}")
    m = min(a for a, _ in cover.intervals)
    H = max(bb for _, bb in cover.intervals)
    r1 = m / PLATEAU_MARGIN
    r2 = PLATEAU_MARGIN * H

    def theta(r):
        return plateau(r, r1, m, H, r2)

    def psi_big(xi):
        def term(s, sub, sr):
            return theta(sr) * np.abs(np.asarray(phi.symbol(s * sub))) ** 2

        return _annulus_sum(xi, np.zeros(np.shape(xi)[1:]), term, r1, r2, b)

    # normalizer must stay bounded below on the annulus (construction guarantee)
    probe_r = np.exp(np.linspace(math.log(r1 * 1.0001), math.log(r2 * 0.9999), 512))
    for d in _unit_directions(cover.dimension):
        pts = probe_r[np.newaxis, :] * d[:, np.newaxis]
        psi_vals = psi_big(pts)
        if float(psi_vals.min()) < NORMALIZER_FLOOR:
            raise ValueError(
                "normalizer nearly singular on the annulus "
                f"(min {psi_vals.min():.3e}); widen the intervals or lower b"
            )

    def eta_symbol(xi):
        xi = np.asarray(xi, dtype=float)
        r = _norm(xi)
        th = theta(r)
        out = np.zeros(r.shape, dtype=complex)
        mask = th > 0
        if np.any(mask):
            sub = xi[(slice(None),) + np.nonzero(mask)]
            psi_vals = psi_big(sub)
            out[mask] = th[mask] * np.conj(np.asarray(phi.symbol(sub))) / psi_vals
        return out

    return PartitionSystem(
        phi=phi,
        eta_symbol=eta_symbol,
        b=float(b),
        b0=float(cover.b0),
        r1=float(r1),
        r2=float(r2),
        intervals=cover.intervals,
        psi_big=psi_big,
        dimension=cover.dimension,
    )


def reproduction_residual(P: PartitionSystem) -> float:
    """sup |reproducing_sum - 1| over 801 log-uniform radii in [b r1, r2/b]
    along each probe ray of P's dimension."""
    radii = np.exp(np.linspace(math.log(P.b * P.r1), math.log(P.r2 / P.b), 801))
    worst = 0.0
    for d in _unit_directions(P.dimension):
        pts = radii[np.newaxis, :] * d[:, np.newaxis]
        worst = max(worst, float(np.max(np.abs(P.reproducing_sum(pts) - 1.0))))
    return worst


def build_zeta(P: PartitionSystem, J: float):
    """The low-frequency remainder symbol zeta_J on stacked coords,
    1 - sum_{j: b^j <= J} phi_hat(b^j xi) eta_hat(b^j xi): 1 inside
    {|xi| < r1/J}, 0 outside {|xi| <= r2/J}."""
    if not J > 0:
        raise ValueError("J must be positive")
    j_start = P.first_j(J)

    def symbol(xi):
        out = np.ones(np.shape(xi)[1:], dtype=complex)
        return _annulus_sum(xi, out, lambda s, sub, sr: -P._term(s, sub, sr),
                            P.r1, P.r2, P.b, j_min=j_start)

    return symbol


@dataclass(frozen=True)
class DecompositionResult:
    """psi split into dilated annulus pieces plus a low-frequency part.

    alpha_symbols[j] is the symbol xi -> psi_hat(b^-j xi) * eta_hat(xi); the
    reconstruction is sum_j phi_hat(b^j xi) alpha_j(b^j xi) + phi_hat * beta.
    The identity is exact (up to round-off) for |xi| <= admissible_radius;
    beyond it the truncated j-tail is genuinely missing.
    """

    alpha_symbols: dict
    beta_symbol: object
    j_range: range
    admissible_radius: float
    residual_admissible: float


#: tolerance of the near-origin relation and of the admissible identity residual
IDENTITY_TOL = 1e-8


def near_origin_gap(P: PartitionSystem, psi: KernelSpec, theta_mult: KernelSpec, xi) -> float:
    """max |psi_hat - phi_hat * Theta| over the stacked coords ``xi``, phi the
    partition's kernel: how far psi is from psi_hat = phi_hat * Theta there."""
    return float(np.max(np.abs(np.asarray(psi.symbol(xi)) - np.asarray(P.phi.symbol(xi))
                               * np.asarray(theta_mult.symbol(xi)))))


def decompose_psi(
    P: PartitionSystem,
    psi: KernelSpec,
    theta_mult: KernelSpec,
    A: float,
    truncation: int,
    grid: Grid,
) -> DecompositionResult:
    """Split psi over the partition, given psi_hat = phi_hat * Theta near the origin.

    The near-origin relation is verified on the sampled ball {|xi| < r2/A}
    before anything is assembled.  The alpha pieces run over j in
    [ceil(log_b A), ceil(log_b A) + truncation]; beta is zeta_A * Theta.
    The identity residual is evaluated on the frequency box of ``grid`` over
    the admissible region {|xi| <= r1 * b^-j_end}.
    """
    if A < 1.0:
        raise ValueError("A must be >= 1")
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    fg = grid.frequency_grid()
    xi = fg.coords()
    r = _norm(xi)

    ball = r < P.r2 / A
    if np.any(ball):
        gap = near_origin_gap(P, psi, theta_mult, xi[(slice(None),) + np.nonzero(ball)])
        if gap > IDENTITY_TOL:
            raise ValueError(
                f"near-origin relation violated: max |psi_hat - phi_hat*Theta| = {gap:.3e} "
                f"on {{|xi| < {P.r2 / A:.4g}}}"
            )

    zeta = build_zeta(P, A)

    def beta_symbol(x):
        return np.asarray(zeta(x)) * np.asarray(theta_mult.symbol(x))

    j_start = P.first_j(A)
    j_range = range(j_start, j_start + truncation + 1)

    def make_alpha(j):
        scale = P.b ** (-j)

        def alpha(x):
            x = np.asarray(x, dtype=float)
            return np.asarray(psi.symbol(scale * x)) * np.asarray(P.eta_symbol(x))

        return alpha

    alphas = {j: make_alpha(j) for j in j_range}
    recon = np.asarray(beta_symbol(xi)) * np.asarray(P.phi.symbol(xi))
    for j, alpha in alphas.items():
        s = P.b**j
        recon = recon + np.asarray(P.phi.symbol(s * xi)) * np.asarray(alpha(s * xi))
    admissible_radius = float(P.r1 * P.b ** (-j_range[-1]))
    admissible = r <= admissible_radius
    diff = np.abs(np.asarray(psi.symbol(xi)) - recon)
    res_adm = float(diff[admissible].max()) if np.any(admissible) else 0.0
    if res_adm > IDENTITY_TOL:
        raise ValueError(
            f"decomposition residual {res_adm:.3e} exceeds tolerance on the admissible "
            "region; increase the truncation or refine the grid"
        )
    return DecompositionResult(alphas, beta_symbol, j_range, admissible_radius, res_adm)
