"""Quantitative constants of the partition calculus and their decay laws.

For a partition (phi, eta, b) and a kernel psi, the central object is the
weighted oscillatory integral

    C0(psi, t, L, x) = (1 + |x|)^L | integral psi_hat(xi / t) eta_hat(xi)
                                      exp(2 pi i <x, xi>) dxi |,

computed by an inverse FFT on a grid resolving the eta annulus (the
integrand is compactly supported there, so the FFT is exact up to grid
resolution, never a quadrature of the oscillation).  Its x-integral at
t = b^j is the per-scale constant C(psi, j, L); the analogous integral with
zeta_J * Theta in place of psi_hat(./t) eta_hat is D(Theta, J, L).

Symbols with power-law tails |psi_hat| ~ |xi|^-tau make C(psi, j, L) decay
like t^tau as t -> 0; the decay-law fit recovers tau from the tail of the
j-profile.  The condition checker turns the boundedness requirements of the
scale calculus into tail-decay verdicts over the probed j-range.

Each integral carries a boundary-tail error bar (largest face value times
box volume).  One gate, ``IntegralEstimate.reliable``, decides whether the
box resolves it; ``c_const``/``d_const`` raise on an unreliable estimate
unless ``tail_check=False``, the decay fits drop unreliable scales, and the
``psi_multiplier_tail`` verdict fails on an unreliable D.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .calderon import PartitionSystem, build_zeta
from .fields import Grid, SampledField, SpectralField, box_face_max, from_spectrum
from .kernels import (
    KernelSpec,
    check_low_frequency_growth,
    coordinate_multiplier,
    derived_kernel,
)

log = logging.getLogger("lplab")

#: relative floor below which computed constants are treated as FFT noise
NOISE_FLOOR = 1e-9


def _weighted_modulus(P: PartitionSystem, grid: Grid, symbol, L: float) -> SampledField:
    """(1 + |x|)^L |inverse transform of symbol(xi)| on a grid resolving P's annulus."""
    if L < 0:
        raise ValueError("L must be nonnegative")
    if grid.spacing > 1.0 / (4.0 * P.r2):
        raise ValueError(
            f"grid spacing {grid.spacing:.4g} too coarse for the annulus "
            f"(need <= {1.0 / (4.0 * P.r2):.4g})"
        )
    fg = grid.frequency_grid()
    spatial = from_spectrum(SpectralField(fg, symbol(fg.coords())))
    w = (1.0 + grid.radii()) ** L
    return SampledField(grid, w * np.abs(spatial.values))


def c0_profile(P: PartitionSystem, psi: KernelSpec, t: float, L: float, grid: Grid) -> SampledField:
    """The weighted modulus field C0(psi, t, L, .) on ``grid``."""
    if not t > 0:
        raise ValueError("t must be positive")

    def integrand(xi):
        return np.asarray(psi.symbol(xi / t)) * np.asarray(P.eta_symbol(xi))

    return _weighted_modulus(P, grid, integrand, L)


#: largest boundary tail, as a fraction of the integral, that the box resolves
BOX_TAIL_FRACTION = 0.05


@dataclass(frozen=True)
class IntegralEstimate:
    """Box quadrature of a profile plus a boundary-tail error bar."""

    value: float
    boundary_tail: float

    @property
    def reliable(self) -> bool:
        """False when the boundary tail exceeds BOX_TAIL_FRACTION of a
        positive value: the box cuts off the profile at this L."""
        return not (self.value > 0 and self.boundary_tail > BOX_TAIL_FRACTION * self.value)

    def __add__(self, other: "IntegralEstimate") -> "IntegralEstimate":
        return IntegralEstimate(self.value + other.value,
                                self.boundary_tail + other.boundary_tail)


def _integrate_profile(profile: SampledField, tail_check: bool) -> IntegralEstimate:
    g = profile.grid
    vals = np.abs(profile.values)
    est = IntegralEstimate(float(vals.sum()) * g.cell_volume,
                           box_face_max(vals) * (2.0 * g.half_extent) ** g.dimension)
    if tail_check and not est.reliable:
        raise ValueError(
            f"boundary tail {est.boundary_tail:.3e} exceeds {BOX_TAIL_FRACTION:.0%} of the "
            f"integral {est.value:.3e}; enlarge the box for this L"
        )
    return est


def c_const(P: PartitionSystem, psi: KernelSpec, j: int, L: float, grid: Grid,
            tail_check: bool = True) -> IntegralEstimate:
    """C(psi, j, L): the x-integral of C0(psi, b^j, L, .).

    With ``tail_check`` (default) an unreliable estimate raises; pass False
    to obtain the box-limited estimate with its error bar.
    """
    return _integrate_profile(c0_profile(P, psi, P.b ** j, L, grid), tail_check)


def d_const(P: PartitionSystem, theta_mult: KernelSpec, J: float, L: float,
            grid: Grid, tail_check: bool = True) -> IntegralEstimate:
    """D(Theta, J, L): x-integral of the weighted modulus of zeta_J * Theta."""
    zeta = build_zeta(P, J)

    def integrand(xi):
        return np.asarray(zeta.symbol(xi)) * np.asarray(theta_mult.symbol(xi))

    return _integrate_profile(_weighted_modulus(P, grid, integrand, L), tail_check)


def fit_decay_exponent(ts, values, reliable=None) -> float:
    """Fit rho with values ~ t^rho from the small-t tail of a profile.

    Entries below NOISE_FLOOR times the profile max are dropped as
    numerical noise, as are entries flagged unreliable (boundary-tail
    dominated); the fit uses the smallest-t half of what survives (at
    least three points).  Returns +inf when the profile collapses to zero
    faster than the floor can track (compact support / underflow), and
    NaN when too few reliable points remain to fit.
    """
    ts = np.asarray(ts, dtype=float)
    vals = np.asarray(values, dtype=float)
    vmax = float(vals.max(initial=0.0))
    if vmax <= 0:
        return math.inf
    # exact zero at the small-t end: the sequence terminates (compact
    # effective support / hard underflow), which beats any polynomial rate
    exact_zero_tail = vals[int(np.argmin(ts))] < 1e-280
    usable = vals > NOISE_FLOOR * vmax
    if reliable is not None:
        reliable = np.asarray(reliable, dtype=bool)
        dropped = int(np.count_nonzero(usable & ~reliable))
        if dropped:
            log.debug("decay fit: dropped %d of %d scales as unreliable (box tail)",
                      dropped, vals.size)
        usable &= reliable
    fit = math.nan
    if usable.sum() >= 3:
        t_u = ts[usable]
        v_u = vals[usable]
        order = np.argsort(t_u)  # ascending t; tail = small t
        keep = order[: max(3, order.size // 2)]
        fit = float(np.polyfit(np.log(t_u[keep]), np.log(v_u[keep]), 1)[0])
    if exact_zero_tail:
        return fit if (math.isfinite(fit) and fit > 0) else math.inf
    return fit


@dataclass(frozen=True)
class ConditionVerdict:
    passed: bool
    measured: float
    description: str


@dataclass(frozen=True)
class ConstantsReport:
    """Constants, their decay fit, and the scale-calculus condition verdicts."""

    L: float
    b: float
    c_values: dict
    d_value: float
    tau_fit: float
    condition_verdicts: dict

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.condition_verdicts.values())


def check_conditions(
    P: PartitionSystem,
    phi: KernelSpec,
    psi: KernelSpec,
    theta_mult: KernelSpec,
    A: float,
    N: float,
    grid: Grid,
    j_max: int = 40,
) -> ConstantsReport:
    """Evaluate the five admissibility conditions of the scale calculus.

    Verdicts (measured quantities are tail-decay fits over j in [0, j_max],
    i.e. scales t = b^j):

    low_freq_growth          |phi_hat(xi)| <= C |xi|^eps near 0, eps >= 0.1
    gradient_scale_sum       C(grad phi, j, N) decays faster than b^(jN)
    gradient_multiplier_tail D over the derivative multipliers is finite
    psi_scale_sum            C(psi, j, N) decays (rate eps > 0)
    psi_multiplier_tail      D(Theta, A, N) is finite and reliable

    Divergence within the probed range, and a D(Theta, A, N) the box cannot
    resolve, yield a failed verdict, never an exception; the derivative
    multipliers' D still raises when unreliable (box too small).
    """
    if N <= 0:
        raise ValueError("N must be positive")
    n = grid.dimension
    b = P.b
    verdicts: dict = {}

    eps_low = check_low_frequency_growth(phi, dimension=n)
    verdicts["low_freq_growth"] = ConditionVerdict(
        eps_low >= 0.1, eps_low, "fitted low-frequency growth exponent of phi_hat"
    )

    js = np.arange(0, j_max + 1)
    ts = b ** js.astype(float)

    grads = [derived_kernel(f"d{k}_{phi.name}", phi, coordinate_multiplier(k)) for k in range(n)]
    grad_c = [sum((c_const(P, gk, int(j), N, grid, tail_check=False) for gk in grads),
                  IntegralEstimate(0.0, 0.0)) for j in js]
    rho_grad = fit_decay_exponent(ts, [e.value for e in grad_c],
                                  reliable=[e.reliable for e in grad_c])
    eps_grad = rho_grad - N
    verdicts["gradient_scale_sum"] = ConditionVerdict(
        bool(eps_grad > 0), min(eps_grad, 99.0),
        "tail decay margin of C(grad phi, j, N) over b^(jN)",
    )

    d_grad = sum(d_const(P, coordinate_multiplier(k), 1.0, N, grid).value for k in range(n))
    verdicts["gradient_multiplier_tail"] = ConditionVerdict(
        math.isfinite(d_grad), d_grad, "D over derivative multipliers at J=1"
    )

    j_start = P.first_j(A)
    js_psi = np.arange(j_start, j_start + j_max + 1)
    ts_psi = b ** js_psi.astype(float)
    psi_c = {int(j): c_const(P, psi, int(j), N, grid, tail_check=False) for j in js_psi}
    rho_psi = fit_decay_exponent(ts_psi, [e.value for e in psi_c.values()],
                                 reliable=[e.reliable for e in psi_c.values()])
    verdicts["psi_scale_sum"] = ConditionVerdict(
        bool(rho_psi > 0), min(rho_psi, 99.0), "tail decay rate of C(psi, j, N)"
    )

    # a box-limited D is reported with a failed verdict instead of raising
    d_est = d_const(P, theta_mult, A, N, grid, tail_check=False)
    verdicts["psi_multiplier_tail"] = ConditionVerdict(
        bool(math.isfinite(d_est.value) and d_est.reliable), d_est.value, f"D(Theta, {A}, N)",
    )

    return ConstantsReport(
        L=float(N),
        b=float(b),
        c_values={j: e.value for j, e in psi_c.items()},
        d_value=d_est.value,
        tau_fit=min(rho_psi, 99.0),
        condition_verdicts=verdicts,
    )
