"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance and runtime budget is pinned here; run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import math
import time

import numpy as np

from lplab import (
    ExperimentConfig,
    Grid,
    SampledField,
    ScaleGrid,
    build_partition,
    c_const,
    check_nondegeneracy,
    constant_multiplier,
    coordinate_multiplier,
    decompose_psi,
    derived_kernel,
    find_intervals,
    fit_decay_exponent,
    g_function,
    lp_norm,
    make_builtin,
    power_tail_kernel,
    reproduction_residual,
    run_experiment,
)
from lplab.families import FamilyMember
from lplab.fields import from_spectrum, weighted_lp_norm
from lplab.maximal import PeetreParams, hl_max, peetre_max


def report(number, name, ok, detail, elapsed, budget):
    flag = "PASS" if ok else "FAIL"
    print(f"{flag} {number:2d}. {name}: {detail} [{elapsed:.2f}s <= {budget}s]")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_plancherel_ratio(poissonq):
    start = time.time()
    grid = Grid(1, 4096, 16.0)
    scales = ScaleGrid.log_spaced(1e-4, 1e2, 128)  # 6 decades, 128 scales
    worst = 0.0
    for seed in range(5):
        f = FamilyMember("band_noise", 1.0, 0.0, seed).sample(grid)
        ratio = lp_norm(g_function(f, poissonq, scales, 2.0), 2.0) / lp_norm(f, 2.0)
        worst = max(worst, abs(ratio - 0.5))
    report(1, "plancherel-ratio", worst <= 0.005,
           f"max |ratio - 0.5| = {worst:.2e} (tol 5e-3)", time.time() - start, 5)


def test_criterion_2_nondegeneracy(poissonq):
    start = time.time()
    val = check_nondegeneracy(poissonq, ScaleGrid.log_spaced(1e-3, 1e2, 512))
    err = abs(val - math.exp(-1))
    report(2, "nondegeneracy-constant", err <= 1e-6,
           f"|inf - e^-1| = {err:.2e} (tol 1e-6)", time.time() - start, 1)


def test_criterion_3_reproducing_identity():
    start = time.time()
    worst = 0.0
    for name in ("poissonQ", "annulus_bump"):
        phi = make_builtin(name)
        cover = find_intervals(phi)
        for b in (cover.b0, 0.9):
            P = build_partition(phi, b, cover)
            worst = max(worst, reproduction_residual(P))
    report(3, "reproducing-identity", worst <= 1e-10,
           f"sup residual = {worst:.2e} (tol 1e-10)", time.time() - start, 5)


def test_criterion_4_decomposition_identity(q_partition, poissonq, annulus):
    start = time.time()
    grid = Grid(1, 2048, 32.0)
    trunc = math.ceil(
        math.log(grid.frequency_grid().half_extent / q_partition.r1)
        / math.log(1 / q_partition.b)
    ) + 1
    residuals = []
    residuals.append(decompose_psi(
        q_partition, poissonq, constant_multiplier(1.0), 1.0, trunc, grid
    ).residual_admissible)
    residuals.append(decompose_psi(
        q_partition, annulus, constant_multiplier(0.0), 2.4 * q_partition.r2, trunc, grid
    ).residual_admissible)
    xi0 = coordinate_multiplier(0)
    residuals.append(decompose_psi(
        q_partition, derived_kernel("ddx_Q", poissonq, xi0), xi0, 1.0, trunc, grid
    ).residual_admissible)
    worst = max(residuals)
    report(4, "decomposition-identity", worst <= 1e-8,
           f"max residual = {worst:.2e} (tol 1e-8)", time.time() - start, 10)


def test_criterion_5_constant_decay(annulus_partition):
    start = time.time()
    grid = Grid(1, 4096, 64.0)
    worst = 0.0
    js = range(0, 21)
    ts = [annulus_partition.b**j for j in js]
    for tau in (1.0, 2.0, 3.0):
        psi = power_tail_kernel(tau)
        for L in (0.0, 2.0):
            vals = [c_const(annulus_partition, psi, j, L, grid).value for j in js]
            fit = fit_decay_exponent(ts, vals)
            worst = max(worst, abs(fit - tau) / tau)
    report(5, "constant-decay-law", worst <= 0.15,
           f"max relative slope error = {worst:.2%} (tol 15%)", time.time() - start, 30)


def test_criterion_6_vanishing_symbol_ladder():
    start = time.time()
    rep = run_experiment(ExperimentConfig.from_dict({
        "scenario": "thm210", "p": 2.0, "q": 2.0, "N": 2,
        "grid": {"dimension": 1, "points_per_axis": 4096, "half_extent": 16.0},
        "scales": {"t_min": 1e-4, "t_max": 1e2, "count": 128},
        "test_family": {"dilations": [1.0, 2.0]},
    }))
    gap = rep.diagnostics["max_oracle_gap"]
    repw = run_experiment(ExperimentConfig.from_dict({
        "scenario": "thm210", "p": 2.0, "q": 2.0, "N": 2,
        "weight": {"kind": "power", "a": -0.5},
        "grid": {"dimension": 1, "points_per_axis": 4096, "half_extent": 16.0},
        "scales": {"t_min": 1e-4, "t_max": 1e2, "count": 128},
    }))
    spread = repw.family_max_ratio / repw.family_min_ratio
    ok = gap <= 0.02 and spread <= 3.0
    report(6, "vanishing-symbol-ladder", ok,
           f"oracle gap = {gap:.2e} (tol 2e-2), weighted spread = {spread:.3f} (tol 3)",
           time.time() - start, 30)


def test_criterion_7_hardy_lower_bound():
    start = time.time()
    rep = run_experiment(ExperimentConfig.from_dict({
        "scenario": "cor31", "p": 1.0,
        "grid": {"dimension": 1, "points_per_axis": 4096, "half_extent": 16.0},
        "scales": {"t_min": 1e-4, "t_max": 1e2, "count": 128},
    }))
    spread = max(rep.diagnostics["dilation_spread"].values())
    family = rep.family_max_ratio / rep.family_min_ratio
    ok = spread <= 1.02 and family <= 5.0
    report(7, "hardy-lower-bound", ok,
           f"dilation spread = {spread:.4f} (tol 1.02), family spread = {family:.3f} (tol 5)",
           time.time() - start, 60)


def test_criterion_8_discrete_ladder():
    start = time.time()
    results = {}
    for b, bound in ((0.99, 0.02), (0.9, 0.15)):
        rep = run_experiment(ExperimentConfig.from_dict({
            "scenario": "prop36", "q": 2.0, "discrete_b": b,
            "grid": {"dimension": 1, "points_per_axis": 4096, "half_extent": 16.0},
            "scales": {"t_min": 1e-3, "t_max": 1e2, "count": 128},
            "test_family": {"dilations": [1.0]},
        }))
        results[b] = (max(r["ratio"] for r in rep.rows), bound)
    ok = all(v <= bound for v, bound in results.values())
    detail = ", ".join(f"b={b}: {v:.2e} (tol {bound})" for b, (v, bound) in results.items())
    report(8, "discrete-ladder-consistency", ok, detail, time.time() - start, 10)


def test_criterion_9_synthesis_uniformity():
    start = time.time()
    rep = run_experiment(ExperimentConfig.from_dict({
        "scenario": "lemma33", "p": 1.0, "atom_count": 20,
        "epsilons": [1e-1, 1e-2, 1e-3],
        "grid": {"dimension": 1, "points_per_axis": 2048, "half_extent": 16.0},
    }))
    spreads = rep.diagnostics["per_atom_spread"].values()
    worst = max(spreads)
    across = rep.diagnostics["across_atom_max"]
    ok = worst <= 1.5 and math.isfinite(across)
    report(9, "synthesis-cutoff-uniformity", ok,
           f"per-atom max/min = {worst:.3f} (tol 1.5), across-atom max = {across:.3f}",
           time.time() - start, 120)


def test_lemma33_cutoffs_that_the_grid_resolves_give_distinct_sizes():
    # criterion 9's grid: its dual grid holds 1/32 <= |xi| <= 32 and psi_hat
    # lives on 1 <= |t xi| <= 2, so the scales between eps = 1e-2 and 1e-3
    # add nothing; between these three cutoffs each adds frequencies
    rep = run_experiment(ExperimentConfig.from_dict({
        "scenario": "lemma33", "p": 1.0, "atom_count": 4,
        "epsilons": [1e-1, 3e-2, 1e-2],
        "grid": {"dimension": 1, "points_per_axis": 2048, "half_extent": 16.0},
    }))
    sizes: dict = {}
    for r in rep.rows:
        sizes.setdefault(r["fname"], set()).add(r["lhs"])
    assert len(sizes) == 4 and all(len(s) == 3 for s in sizes.values()), sizes


def test_criterion_10_operator_property_suite(poissonq, annulus):
    start = time.time()
    grid = Grid(1, 1024, 16.0)
    fg = grid.frequency_grid()
    xi = fg.axis_coords()
    failures = []

    def check(flag, label):
        if not flag:
            failures.append(label)

    for seed in range(10):
        r = np.random.default_rng(seed)
        spec = np.exp(-((np.abs(xi) - 1.5) ** 2) * 2.0) * r.standard_normal(xi.size)
        spec = spec + spec[::-1]
        f = from_spectrum(__import__("lplab").fields.SpectralField(fg, spec))
        absf = SampledField(grid, np.abs(f.values))

        base = peetre_max(f, PeetreParams(2.0, 1.0)).values.real
        check(np.all(peetre_max(f, PeetreParams(3.0, 1.0)).values.real <= base + 1e-14),
              f"peetre N-monotone seed {seed}")
        check(np.all(peetre_max(f, PeetreParams(2.0, 2.0)).values.real <= base + 1e-14),
              f"peetre R-monotone seed {seed}")
        check(np.all(base >= np.abs(f.values) - 1e-14), f"peetre dominates seed {seed}")

        m = hl_max(absf).values.real
        check(np.all(m >= np.abs(f.values) - 1e-14), f"hl dominates seed {seed}")
        bigger = SampledField(grid, np.abs(f.values) + 0.5)
        check(np.all(hl_max(bigger).values.real >= m - 1e-14), f"hl monotone seed {seed}")

        space = lp_norm(f, 2.0)
        freq = math.sqrt(float(np.sum(np.abs(spec) ** 2)) * fg.cell_volume)
        check(abs(space - freq) <= 1e-10 * freq, f"parseval seed {seed}")

        # circular shifts permute the summands; pairwise summation may
        # regroup, so equality holds to a few ulps rather than bitwise
        shifted = SampledField(grid, np.roll(f.values, 41))
        check(abs(lp_norm(shifted, 1.3) - lp_norm(f, 1.3)) <= 1e-13 * lp_norm(f, 1.3),
              f"translation seed {seed}")
        check(abs(lp_norm(SampledField(grid, 2.0 * f.values), 0.7)
                  - 2.0 * lp_norm(f, 0.7)) <= 1e-12 * lp_norm(f, 0.7),
              f"homogeneity seed {seed}")
        w = SampledField(grid, np.ones(1024))
        check(weighted_lp_norm(f, w, 2.0) == lp_norm(f, 2.0), f"unit weight seed {seed}")

    ok = not failures
    report(10, "operator-property-suite", ok,
           "all invariants hold on 10 seeded fields" if ok else f"failed: {failures[:3]}",
           time.time() - start, 30)
