"""Per-scale constants, their decay law, and the admissibility audit.

C(psi, j, L) integrates the weighted modulus of the annulus-localized
symbol at scale t = b^j.  Kernels with power-law symbol tails decay at the
sharp rate t^tau; the audit turns the boundedness conditions of the scale
calculus into verdicts.
"""

from lplab import (
    Grid,
    build_partition,
    c_const,
    check_conditions,
    constant_multiplier,
    find_intervals,
    fit_decay_exponent,
    make_builtin,
    power_tail_kernel,
)

phi = make_builtin("annulus_bump")
P = build_partition(phi, 0.5, find_intervals(phi))
grid = Grid(1, 4096, 64.0)

print("decay of C(psi, j, L=2) for power-tail kernels (fit vs true tau):")
for tau in (1.0, 2.0, 3.0):
    psi = power_tail_kernel(tau)
    js = range(0, 21)
    vals = [c_const(P, psi, j, 2.0, grid).value for j in js]
    fit = fit_decay_exponent([P.b**j for j in js], vals)
    print(f"  tau = {tau}: fitted rate {fit:.4f}")

print()
print("admissibility audit: phi = poissonQ, psi = annulus bump, Theta = 0")
q = make_builtin("poissonQ")
Pq = build_partition(q, 0.5, find_intervals(q))
audit = check_conditions(Pq, make_builtin("annulus_bump"),
                         constant_multiplier(0.0), 2.4 * Pq.r2, 2.0,
                         Grid(1, 8192, 256.0))
for name, verdict in audit.condition_verdicts.items():
    print(f"  {'pass' if verdict.passed else 'FAIL'} {name}: {verdict.measured:.4g}")
