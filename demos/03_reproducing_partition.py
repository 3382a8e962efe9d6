"""The reproducing partition and the low-frequency remainder.

Builds the dual symbol eta for the Poisson-derivative kernel so that
sum_j phi_hat(b^j xi) eta_hat(b^j xi) = 1, then splits a kernel over the
partition and verifies the identity spectrally.
"""

import math

import numpy as np

from lplab import (
    Grid,
    build_partition,
    build_zeta,
    constant_multiplier,
    coordinate_multiplier,
    decompose_psi,
    derived_kernel,
    find_intervals,
    make_builtin,
    reproduction_residual,
)

phi = make_builtin("poissonQ")
cover = find_intervals(phi)
print("scale intervals:", [(f"{a:.4f}", f"{b:.4f}") for a, b in cover.intervals])
print("b0 =", cover.b0, " squared infimum =", cover.squared_infimum)

P = build_partition(phi, 0.5, cover)
print(f"partition: annulus ({P.r1:.4f}, {P.r2:.4f}), b = {P.b}")
print("reproducing residual:", reproduction_residual(P))

zeta = build_zeta(P, 1.0)
r = np.array([[P.r1 / 2, P.r1, (P.r1 + P.r2) / 2, P.r2, 2 * P.r2]])
print("zeta_1 along a ray:", np.round(zeta(r).real, 6))

grid = Grid(1, 2048, 32.0)
trunc = math.ceil(math.log(grid.frequency_grid().half_extent / P.r1)
                  / math.log(1 / P.b)) + 1

print()
print("splitting psi over the partition (identity residual on the box):")
d1 = decompose_psi(P, phi, constant_multiplier(1.0), 1.0, trunc, grid)
print(f"  psi = phi itself:        {d1.residual_admissible:.2e}")
d2 = decompose_psi(P, make_builtin("annulus_bump"), constant_multiplier(0.0),
                   2.4 * P.r2, trunc, grid)
print(f"  psi vanishing near 0:    {d2.residual_admissible:.2e}")
xi0 = coordinate_multiplier(0)
d3 = decompose_psi(P, derived_kernel("ddx_Q", phi, xi0), xi0, 1.0, trunc, grid)
print(f"  psi = d/dx phi:          {d3.residual_admissible:.2e}")
