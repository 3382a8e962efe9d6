"""The grid's dyadic rescale as an exact symmetry, in both directions.

The same sampled array on the box [-cE, cE)^n instead of [-E, E)^n, for
c = 2 or 1/2, with every scale times c and the Peetre R over c, changes
each product in the pipeline by an exact power of two: the spacing and the
frequencies scale by c and 1/c, t * xi and R * |y| are unchanged, and the
forward and inverse scalings cancel.  So every operator must give the same
bytes on both boxes, whatever arithmetic path it takes.  The rescaled
scales are ``ScaleGrid(c * sg.scales, sg.ratio)``; ``log_spaced`` at ct
rounds differently.

A scenario's config rescales the same way: the box and the scale range
times c, the family's dilations over c.  Its scales come from
``log_spaced``, so its ratios agree within 4 ulp rather than bytewise.
The A_p characteristic of a power weight on the rescaled box, with its
ball radii times c, agrees within 1e-13 relative: the samples |cx|^a round
differently from c^a |x|^a.
"""

import dataclasses

import numpy as np
import pytest

from lplab import (GrandMaxConfig, Grid, SampledField, ScaleGrid, Weight, ap_characteristic,
                   default_grand_scales, g_function, grand_max, hl_max, make_builtin, peetre_max,
                   run_experiment)
from lplab.maximal import PeetreParams

from test_experiments import CHECKS, fast_config

GRIDS = [Grid(1, 1024, 16.0), Grid(2, 64, 8.0)]
GRID_IDS = ["1d-1024", "2d-64"]
FACTORS = (2.0, 0.5)  # E -> 2E and E -> E/2


def _box(grid, c) -> Grid:
    return Grid(grid.dimension, grid.points_per_axis, c * grid.half_extent)


def _pair(grid, c, seed=0):
    """The same noise on ``grid`` and on its box times ``c``."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return SampledField(grid, vals), SampledField(_box(grid, c), vals)


def _rescaled(sg: ScaleGrid, c) -> ScaleGrid:
    return ScaleGrid(c * sg.scales, sg.ratio)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("kernel", ["poissonQ", "annulus_bump", "mexican_hat"])
def test_g_function_is_invariant(grid, kernel):
    sg = ScaleGrid.log_spaced(grid.spacing / 2.0, 2.0 * grid.half_extent, 24)
    psi = make_builtin(kernel)
    for c in FACTORS:
        f, f2 = _pair(grid, c)
        for q in (1.0, 2.0):
            got = g_function(f2, psi, _rescaled(sg, c), q).values
            assert got.tobytes() == g_function(f, psi, sg, q).values.tobytes(), (c, q)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_grand_max_is_invariant(grid):
    sg = default_grand_scales(grid)
    for c in FACTORS:
        f, f2 = _pair(grid, c, 1)
        got = grand_max(f2, GrandMaxConfig(_rescaled(sg, c))).values
        assert got.tobytes() == grand_max(f, GrandMaxConfig(sg)).values.tobytes(), c


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_peetre_max_is_invariant(grid):
    for c in FACTORS:
        f, f2 = _pair(grid, c, 2)
        for N, R in ((2.0, 1.0), (0.5, 8.0)):
            got = peetre_max(f2, PeetreParams(N, R / c)).values
            assert got.tobytes() == peetre_max(f, PeetreParams(N, R)).values.tobytes(), (c, N)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_hl_max_is_invariant(grid):
    for c in FACTORS:
        f, f2 = _pair(grid, c, 3)
        assert hl_max(f2).values.tobytes() == hl_max(f).values.tobytes(), c


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_ap_characteristic_survives_the_rescale(grid):
    # not within a few ulp: the window means difference prefix sums (1-d) or
    # come from FFT convolutions (2-d), so their rounding scales with the
    # whole weight's sum; 80 draws gave at most 2.9e-14 relative (252 ulp)
    n = grid.dimension
    radii = np.exp(np.linspace(np.log(grid.spacing), np.log(grid.half_extent), 32 // n))
    for a in np.random.default_rng(5).uniform(-0.8, 0.8, 3) * n:
        w = Weight.power(float(a))
        base = ap_characteristic(w, 2.0, radii, grid)
        for c in FACTORS:
            got = ap_characteristic(w, 2.0, c * radii, _box(grid, c))
            assert abs(got - base) <= 1e-13 * base, (a, c, got, base)


# Not here: prop36's ladder t = b^j is anchored at t = 1, not at the box,
# and its ratio is a relative difference, which turns log_spaced's rounding
# at 2t into hundreds of ulp even at b = 1/2; lemma33's cube side (at most
# 4) and cutoffs are absolute, so its atoms change with the box.
@pytest.mark.parametrize("case", ["prop23", "thm210_oracle", "thm210_weighted", "cor31",
                                  "constants_audit"])
def test_scenario_ratios_survive_the_rescale(case):
    scenario, overrides, *_ = CHECKS[case]
    cfg = fast_config(scenario, **overrides)
    rows = run_experiment(cfg).rows
    for c in FACTORS:
        moved = dataclasses.replace(
            cfg, grid={**cfg.grid, "half_extent": c * cfg.grid["half_extent"]},
            scales={**cfg.scales, "t_min": c * cfg.scales["t_min"],
                    "t_max": c * cfg.scales["t_max"]},
            test_family={**cfg.test_family,
                         "dilations": [lam / c for lam in cfg.test_family["dilations"]]})
        moved_rows = run_experiment(moved).rows
        if scenario == "constants_audit":  # audited on CONSTANTS_GRID, whatever the box
            assert repr(moved_rows) == repr(rows)
            continue
        assert len(moved_rows) == len(rows) > 0
        for r, m in zip(rows, moved_rows):
            # log_spaced at ct rounds differently from c * log_spaced at t
            assert abs(m["ratio"] - r["ratio"]) <= 4 * np.spacing(r["ratio"]), (c, r, m)
