"""Fields, transforms and norms on the periodic grid.

Samples a Gaussian on [-16, 16), checks that the forward transform
reproduces the closed form (the Gaussian is its own transform under the
e^{-2 pi i x xi} convention), and exercises the (quasi-)norms and the
dt/t scale integral.
"""

import numpy as np

from lplab import (
    Grid,
    ScaleGrid,
    field_from_function,
    from_spectrum,
    lp_norm,
    scale_integral,
    to_spectrum,
    weighted_lp_norm,
)
from lplab.fields import SampledField

grid = Grid(1, 1024, 16.0)
print(f"grid: {grid.points_per_axis} points, spacing {grid.spacing}")

f = field_from_function(grid, lambda x: np.exp(-np.pi * x[0] ** 2))
F = to_spectrum(f)  # f is real, so F is its half: the frequencies -P/2 ... 0
xi = F.grid.axis_coords()[: F.values.size]
print("transform error vs exp(-pi xi^2):", np.max(np.abs(F.values - np.exp(-np.pi * xi**2))))

back = from_spectrum(F)
print("round-trip error:", np.max(np.abs(back.values - f.values)))

print("||gaussian||_2 =", lp_norm(f, 2.0), " (closed form 2^-1/4 =", 2**-0.25, ")")
print("||gaussian||_1/2 quasi-norm =", lp_norm(f, 0.5))

x = grid.axis_coords()
w = SampledField(grid, 1.0 + x**2)
print("weighted L2 with w = 1+x^2:", weighted_lp_norm(f, w, 2.0))

# scale integral of u(t) = t e^{-t} against dt/t: the q=2 value is 1/2
sg = ScaleGrid.log_spaced(1e-3, 1e2, 400)
u = sg.scales * np.exp(-sg.scales)
print("scale integral of t e^-t (q=2):", scale_integral(u, sg, 2.0), " (exact 0.5)")
