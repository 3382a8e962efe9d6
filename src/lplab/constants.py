"""Quantitative constants of the partition calculus and their decay laws.

For a partition (phi, eta, b) and a kernel psi, the central object is the
weighted oscillatory integral

    C0(psi, t, L, x) = (1 + |x|)^L | integral psi_hat(xi / t) eta_hat(xi)
                                      exp(2 pi i <x, xi>) dxi |,

computed by an inverse FFT on a grid resolving the eta annulus (the
integrand is compactly supported there, so the FFT is exact up to grid
resolution, never a quadrature of the oscillation).  Its x-integral at
t = b^j is the per-scale constant C(psi, j, L); the analogous integral with
zeta_J * Theta in place of psi_hat(./t) eta_hat is D(Theta, J, L).  The
partition keeps eta_hat per grid (``PartitionSystem.eta_on``), so an audit
evaluates it once on its grid, not once per scale.

Symbols with power-law tails |psi_hat| ~ |xi|^-tau make C(psi, j, L) decay
like t^tau as t -> 0; the decay-law fit recovers tau from the tail of the
j-profile.  ``check_conditions`` turns the scale calculus's boundedness
requirements on P.phi and psi into tail-decay verdicts over the probed j-range.

Each integral carries a boundary-tail error bar (largest face value times
box volume).  One gate, ``IntegralEstimate.reliable``, decides whether the
box resolves it: the decay fits drop unreliable scales, the
``psi_multiplier_tail`` verdict fails on an unreliable D, and
``check_conditions`` raises on an unreliable D over the derivative
multipliers.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .calderon import PartitionSystem, build_zeta
from .fields import Grid, SampledField, SpectralField, box_face_max, check_exponent, from_spectrum
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
    if not 0 <= L < math.inf:
        raise ValueError(f"L must be nonnegative and finite, got {L}")
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

    def integrand(xi):  # xi is the frequency grid of ``grid``
        return np.asarray(psi.symbol(xi / t)) * P.eta_on(grid)

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
        """True when the value is finite and the boundary tail is at most
        BOX_TAIL_FRACTION of it: the box holds the profile at this L.  A NaN
        value or tail fails the comparison."""
        return math.isfinite(self.value) and self.boundary_tail <= BOX_TAIL_FRACTION * self.value

    def __add__(self, other: "IntegralEstimate") -> "IntegralEstimate":
        return IntegralEstimate(self.value + other.value,
                                self.boundary_tail + other.boundary_tail)


def _integrate_profile(profile: SampledField) -> IntegralEstimate:
    g = profile.grid
    vals = np.abs(profile.values)
    return IntegralEstimate(float(vals.sum()) * g.cell_volume,
                            box_face_max(vals) * (2.0 * g.half_extent) ** g.dimension)


def c_const(P: PartitionSystem, psi: KernelSpec, j: int, L: float, grid: Grid) -> IntegralEstimate:
    """C(psi, j, L): the x-integral of C0(psi, b^j, L, .), with its
    boundary-tail error bar."""
    return _integrate_profile(c0_profile(P, psi, P.b ** j, L, grid))


def d_const(P: PartitionSystem, theta_mult: KernelSpec, J: float, L: float,
            grid: Grid) -> IntegralEstimate:
    """D(Theta, J, L): x-integral of the weighted modulus of zeta_J * Theta,
    with its boundary-tail error bar."""
    zeta = build_zeta(P, J)

    def integrand(xi):
        return np.asarray(zeta(xi)) * np.asarray(theta_mult.symbol(xi))

    return _integrate_profile(_weighted_modulus(P, grid, integrand, L))


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


#: the audit's j-ranges: [0, J_MAX] for phi, and J_MAX + 1 steps from the first b^j <= A for psi
J_MAX = 40


@dataclass(frozen=True)
class ConditionVerdict:
    passed: bool
    measured: float
    description: str


@dataclass(frozen=True)
class ConstantsReport:
    """The C(psi, j, N) profile and the scale-calculus condition verdicts;
    the decay fit tau and D(Theta, A, N) are the ``measured`` of the
    ``psi_scale_sum`` and ``psi_multiplier_tail`` verdicts."""

    c_values: dict
    condition_verdicts: dict

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.condition_verdicts.values())


def check_conditions(
    P: PartitionSystem,
    psi: KernelSpec,
    theta_mult: KernelSpec,
    A: float,
    N: float,
    grid: Grid,
) -> ConstantsReport:
    """Evaluate the five admissibility conditions of the scale calculus for
    the partition's kernel phi = P.phi and the pair (A, Theta) of psi.

    Verdicts (measured quantities are tail-decay fits over j in [0, J_MAX],
    i.e. scales t = b^j):

    low_freq_growth          |phi_hat(xi)| <= C |xi|^eps near 0, eps >= 0.1
    gradient_scale_sum       C(grad phi, j, N) decays faster than b^(jN)
    gradient_multiplier_tail D over the derivative multipliers is finite
    psi_scale_sum            C(psi, j, N) decays (rate eps > 0)
    psi_multiplier_tail      D(Theta, A, N) is finite and reliable

    Divergence within the probed range, and a D(Theta, A, N) the box cannot
    resolve, yield a failed verdict, never an exception; a D over the
    derivative multipliers that the box cannot resolve raises ValueError.
    """
    check_exponent("N", N)
    n = grid.dimension
    phi, b = P.phi, P.b
    verdicts: dict = {}

    eps_low = check_low_frequency_growth(phi, dimension=n)
    verdicts["low_freq_growth"] = ConditionVerdict(
        eps_low >= 0.1, eps_low, "fitted low-frequency growth exponent of phi_hat"
    )

    js = np.arange(0, J_MAX + 1)
    ts = b ** js.astype(float)

    grads = [derived_kernel(f"d{k}_{phi.name}", phi, coordinate_multiplier(k)) for k in range(n)]
    grad_c = [sum((c_const(P, gk, int(j), N, grid) for gk in grads),
                  IntegralEstimate(0.0, 0.0)) for j in js]
    rho_grad = fit_decay_exponent(ts, [e.value for e in grad_c],
                                  reliable=[e.reliable for e in grad_c])
    eps_grad = rho_grad - N
    verdicts["gradient_scale_sum"] = ConditionVerdict(
        bool(eps_grad > 0), min(eps_grad, 99.0),
        "tail decay margin of C(grad phi, j, N) over b^(jN)",
    )

    d_grad = 0.0
    for k in range(n):
        est = d_const(P, coordinate_multiplier(k), 1.0, N, grid)
        if not est.reliable:
            raise ValueError(
                f"boundary tail {est.boundary_tail:.3e} exceeds {BOX_TAIL_FRACTION:.0%} of the "
                f"integral {est.value:.3e}; enlarge the box for this L"
            )
        d_grad += est.value
    verdicts["gradient_multiplier_tail"] = ConditionVerdict(
        math.isfinite(d_grad), d_grad, "D over derivative multipliers at J=1"
    )

    j_start = P.first_j(A)
    js_psi = np.arange(j_start, j_start + J_MAX + 1)
    ts_psi = b ** js_psi.astype(float)
    psi_c = {int(j): c_const(P, psi, int(j), N, grid) for j in js_psi}
    rho_psi = fit_decay_exponent(ts_psi, [e.value for e in psi_c.values()],
                                 reliable=[e.reliable for e in psi_c.values()])
    verdicts["psi_scale_sum"] = ConditionVerdict(
        bool(rho_psi > 0), min(rho_psi, 99.0), "tail decay rate of C(psi, j, N)"
    )

    # a box-limited D is reported with a failed verdict instead of raising
    d_est = d_const(P, theta_mult, A, N, grid)
    verdicts["psi_multiplier_tail"] = ConditionVerdict(
        bool(math.isfinite(d_est.value) and d_est.reliable), d_est.value, f"D(Theta, {A}, N)",
    )

    return ConstantsReport({j: e.value for j, e in psi_c.items()}, verdicts)
