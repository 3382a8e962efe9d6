"""Scale-field atoms and the synthesis operator.

Draws a seeded cube-supported atom (size bound saturated at 0.9 of
|Q|^{-1/p}, moments projected out per scale), validates it, synthesizes it
back to a function through an annulus kernel, and checks that the H^1 size
of the result is uniform in the scale cutoff.
"""

from lplab import (
    GrandMaxConfig,
    Grid,
    ScaleGrid,
    default_grand_scales,
    grand_max,
    lp_norm,
    make_atom,
    make_builtin,
    synthesize,
    validate_atom,
)

grid = Grid(1, 2048, 16.0)
scales = ScaleGrid.log_spaced(5e-4, 2e3, 128)

atom = make_atom(grid, scales, cube_center=(0.5,), cube_side=2.0, p=1.0, seed=11)
check = validate_atom(atom)
print(f"atom on cube [{atom.cube_center[0] - 1}, {atom.cube_center[0] + 1}], p = {atom.p}")
print(f"  support residual: {check.support_residual:.1e}")
print(f"  size ratio vs |Q|^(-1/p): {check.size_ratio:.4f}")
print(f"  worst normalized moment: {check.moment_residual:.1e}")
print(f"  validates: {check.passed}")

psi = make_builtin("annulus_bump", [1.0, 1.2, 1.7, 2.0])
gm = GrandMaxConfig(default_grand_scales(grid))

print()
print("H^1 size of the synthesized atom, per scale cutoff:")
sizes = []
for eps in (1e-1, 1e-2, 1e-3):
    out = synthesize(atom.values, psi, eps)
    size = lp_norm(grand_max(out, gm), 1.0)
    sizes.append(size)
    print(f"  eps = {eps:g}: {size:.6f}")
print(f"max/min across cutoffs: {max(sizes) / min(sizes):.4f}")
