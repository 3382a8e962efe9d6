"""Square functions: the continuous scale integral and the discrete ladder.

The L2 ratio ||g_Q(f)||_2 / ||f||_2 equals 1/2 for every field (the scale
energy of the Poisson-derivative symbol is exactly 1/4).  The discrete
ladder t = b^j is the geometric scale grid of ratio b, whose log-cells
weight each rung by log(1/b); its square function approaches the
continuous one as b -> 1.
"""

import math

from lplab import Grid, SampledField, ScaleGrid, g_function, lp_norm, make_builtin
from lplab.families import FamilyMember

grid = Grid(1, 4096, 16.0)
scales = ScaleGrid.log_spaced(1e-4, 1e2, 128)
Q = make_builtin("poissonQ")

print("Plancherel ratio ||g_Q f||_2 / ||f||_2 (exact value 0.5):")
for seed in range(3):
    f = FamilyMember("band_noise", 1.0, 0.0, seed).sample(grid)
    ratio = lp_norm(g_function(f, Q, scales, 2.0), 2.0) / lp_norm(f, 2.0)
    print(f"  seed {seed}: {ratio:.6f}")

print()
print("discrete ladder vs continuous square function:")
f = FamilyMember("band_noise", 1.0, 0.0, 7).sample(grid)
gc = g_function(f, Q, scales, 2.0)
for b in (0.9, 0.99):
    j_lo = math.ceil(math.log(scales.t_max) / math.log(b))
    j_hi = math.floor(math.log(scales.t_min) / math.log(b))
    ladder = ScaleGrid.geometric(b**j_lo, b, j_hi - j_lo + 1)
    gd = g_function(f, Q, ladder, 2.0)
    rel = lp_norm(SampledField(grid, gd.values - gc.values), 2.0) / lp_norm(gc, 2.0)
    print(f"  b = {b}: relative L2 difference {rel:.2e} over {ladder.count} rungs")
