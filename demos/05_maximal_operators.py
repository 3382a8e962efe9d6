"""The three maximal operators and the smoothing bound.

Applies the Peetre, uncentered Hardy-Littlewood and grand maximal
operators to a Gaussian derivative, then measures the minimal constant in
the bound  F** <= C [delta^-N M(|F|^r)^(1/r) + delta/R |grad F|**].
"""

import numpy as np

from lplab import (
    GrandMaxConfig,
    Grid,
    PeetreParams,
    default_grand_scales,
    field_from_function,
    grand_max,
    hl_max,
    lp_norm,
    peetre_bound_check,
    peetre_max,
)

grid = Grid(1, 2048, 16.0)
f = field_from_function(grid, lambda x: -2 * np.pi * x[0] * np.exp(-np.pi * x[0] ** 2))

pm = peetre_max(f, PeetreParams(N=2.0, R=1.0))
ml = hl_max(f)
gm = grand_max(f, GrandMaxConfig(default_grand_scales(grid)))

print(f"||f||_1 = {lp_norm(f, 1.0):.4f}")
print(f"||F**_(2,1)||_1 = {lp_norm(pm, 1.0):.4f}")
print(f"||M f||_1 (uncentered)  = {lp_norm(ml, 1.0):.4f}")
print(f"||f*||_1 (grand maximal) = {lp_norm(gm, 1.0):.4f}")

print()
print("smoothing bound: minimal constant per delta (N = 1, R = 2, r = 1):")
for delta in (1.0, 0.5, 0.25):
    rep = peetre_bound_check(f, PeetreParams(N=1.0, R=2.0), delta=delta)
    print(f"  delta = {delta}: C_min = {rep.c_min:.4f}")
