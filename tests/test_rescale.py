"""The grid's dyadic rescale as an exact symmetry.

The same sampled array on the box [-2E, 2E)^n instead of [-E, E)^n, with
every scale doubled and the Peetre R halved, changes each product in the
pipeline by an exact power of two: the spacing and the frequencies scale
by 2 and 1/2, t * xi and R * |y| are unchanged, and the forward and inverse
scalings cancel.  So every operator must give the same bytes on both
boxes, whatever arithmetic path it takes.  The doubled scales are
``ScaleGrid(2 * sg.scales, sg.ratio)``; ``log_spaced`` at 2t rounds
differently.

A scenario's config rescales the same way: the box and the scale range
doubled, the family's dilations halved.  Its scales come from
``log_spaced``, so its ratios agree within 4 ulp rather than bytewise.
"""

import dataclasses

import numpy as np
import pytest

from lplab import (GrandMaxConfig, Grid, SampledField, ScaleGrid, default_grand_scales,
                   g_function, grand_max, hl_max, make_builtin, peetre_max, run_experiment)
from lplab.maximal import PeetreParams

from test_experiments import CHECKS, fast_config

GRIDS = [Grid(1, 1024, 16.0), Grid(2, 64, 8.0)]
GRID_IDS = ["1d-1024", "2d-64"]


def _pair(grid, seed=0):
    """The same noise on ``grid`` and on its box doubled."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    wide = Grid(grid.dimension, grid.points_per_axis, 2.0 * grid.half_extent)
    return SampledField(grid, vals), SampledField(wide, vals)


def _doubled(sg: ScaleGrid) -> ScaleGrid:
    return ScaleGrid(2.0 * sg.scales, sg.ratio)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("kernel", ["poissonQ", "annulus_bump", "mexican_hat"])
def test_g_function_is_invariant(grid, kernel):
    f, f2 = _pair(grid)
    sg = ScaleGrid.log_spaced(grid.spacing / 2.0, 2.0 * grid.half_extent, 24)
    psi = make_builtin(kernel)
    for q in (1.0, 2.0):
        got = g_function(f2, psi, _doubled(sg), q).values
        assert got.tobytes() == g_function(f, psi, sg, q).values.tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_grand_max_is_invariant(grid):
    f, f2 = _pair(grid, 1)
    sg = default_grand_scales(grid)
    got = grand_max(f2, GrandMaxConfig(_doubled(sg))).values
    assert got.tobytes() == grand_max(f, GrandMaxConfig(sg)).values.tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_peetre_max_is_invariant(grid):
    f, f2 = _pair(grid, 2)
    for N, R in ((2.0, 1.0), (0.5, 8.0)):
        got = peetre_max(f2, PeetreParams(N, R / 2.0)).values
        assert got.tobytes() == peetre_max(f, PeetreParams(N, R)).values.tobytes()


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_hl_max_is_invariant(grid):
    f, f2 = _pair(grid, 3)
    assert hl_max(f2).values.tobytes() == hl_max(f).values.tobytes()


# Not here: prop36's ladder t = b^j is anchored at t = 1, not at the box,
# and its ratio is a relative difference, which turns log_spaced's rounding
# at 2t into hundreds of ulp even at b = 1/2; lemma33's cube side (at most
# 4) and cutoffs are absolute, so its atoms change with the box.
@pytest.mark.parametrize("case", ["prop23", "thm210_oracle", "thm210_weighted", "cor31",
                                  "constants_audit"])
def test_scenario_ratios_survive_the_rescale(case):
    scenario, overrides, *_ = CHECKS[case]
    cfg = fast_config(scenario, **overrides)
    wide = dataclasses.replace(
        cfg, grid={**cfg.grid, "half_extent": 2.0 * cfg.grid["half_extent"]},
        scales={**cfg.scales, "t_min": 2.0 * cfg.scales["t_min"],
                "t_max": 2.0 * cfg.scales["t_max"]},
        test_family={**cfg.test_family,
                     "dilations": [lam / 2.0 for lam in cfg.test_family["dilations"]]})
    rows, wide_rows = run_experiment(cfg).rows, run_experiment(wide).rows
    if scenario == "constants_audit":  # audited on CONSTANTS_GRID, whatever the box
        assert repr(wide_rows) == repr(rows)
        return
    assert len(wide_rows) == len(rows) > 0
    for r, w in zip(rows, wide_rows):
        # log_spaced at 2t rounds differently from 2 * log_spaced at t
        assert abs(w["ratio"] - r["ratio"]) <= 4 * np.spacing(r["ratio"]), (r, w)
