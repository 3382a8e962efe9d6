"""The periodic grid's exact symmetries as relations every operator keeps.

A translate by whole cells, the reflection x -> -x (index k -> -k mod P)
and, in 2-d, the transpose map the grid onto itself, and every kernel and
ball here is symmetric under them, so each operator commutes with them.
Unlike a byte-level oracle, a relation holds on any arithmetic path:

- ``g_function``, ``grand_max`` and the 2-d ``hl_max`` round along another
  path on the moved input; they agree within 1e-15 of the output's max.
  ``filtered`` does too, within 1e-15 of the input's max: its output for
  one multiplier can be far smaller than the input it transforms.
- ``peetre_max`` takes an exact max over the same products, so its bytes
  agree under every move.
- The 1-d ``hl_max`` differences prefix sums of |f|, so a move shifts the
  rounding of each window mean by up to an ulp of the two prefix sums it
  differences: it agrees within 2 eps sum|f|.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab import (GrandMaxConfig, Grid, SampledField, ScaleGrid, default_grand_scales,
                   filtered, g_function, grand_max, hl_max, make_builtin, peetre_max)
from lplab.kernels import dilates
from lplab.maximal import PeetreParams

SETTINGS = settings(max_examples=50, deadline=None)

grids = st.one_of(
    st.builds(Grid, st.just(1), st.sampled_from([16, 64, 256, 1024]),
              st.sampled_from([2.0, 8.0, 16.0])),
    st.builds(Grid, st.just(2), st.sampled_from([8, 16, 32, 64]), st.sampled_from([2.0, 8.0])),
)
seeds = st.integers(0, 2**32 - 1)
shifts = st.tuples(st.integers(0, 1023), st.integers(0, 1023))


def _moves(grid: Grid, shift) -> dict:
    axes = tuple(range(grid.dimension))
    moves = {"translate": lambda a: np.roll(a, shift[: grid.dimension], axis=axes),
             "reflect": lambda a: np.roll(np.flip(a), 1, axis=axes)}
    if grid.dimension == 2:
        moves["transpose"] = np.transpose
    return moves


def _assert_commutes(op, grid: Grid, seed: int, shift, atol=None):
    """op(move(f)) == move(op(f)) for each move: the bytes if ``atol`` is
    None, else within ``atol(f, op(f))``."""
    f = np.random.default_rng(seed).standard_normal(grid.shape)
    base = op(SampledField(grid, f)).values
    for name, move in _moves(grid, shift).items():
        got = op(SampledField(grid, np.ascontiguousarray(move(f)))).values
        want = np.ascontiguousarray(move(base))
        if atol is None:
            assert got.tobytes() == want.tobytes(), name
        else:
            assert np.max(np.abs(got - want)) <= atol(f, base), name


def _of_max(f, out) -> float:
    return 1e-15 * np.max(np.abs(out))


@SETTINGS
@given(grids, st.sampled_from(["poissonQ", "annulus_bump", "mexican_hat"]),
       st.sampled_from([1.0, 2.0]), seeds, shifts)
def test_g_function_commutes_with_the_grid_symmetries(grid, kernel, q, seed, shift):
    sg = ScaleGrid.log_spaced(grid.spacing / 2.0, 2.0 * grid.half_extent, 16)
    psi = make_builtin(kernel)
    _assert_commutes(lambda f: g_function(f, psi, sg, q), grid, seed, shift, _of_max)


@SETTINGS
@given(grids, st.sampled_from(["poissonQ", "annulus_bump", "gaussian"]), seeds, shifts)
def test_filtered_commutes_with_the_grid_symmetries(grid, kernel, seed, shift):
    # one output per multiplier, so a wide Gaussian's output is about the
    # input's mean while the round-off stays that of the input's transform
    def of_input_max(f, out):
        return 1e-15 * np.max(np.abs(f))

    ts = ScaleGrid.log_spaced(grid.spacing / 2.0, 2.0 * grid.half_extent, 4).scales
    for m in dilates(make_builtin(kernel), grid, ts):
        _assert_commutes(lambda f: next(filtered(f, [m])), grid, seed, shift, of_input_max)


@SETTINGS
@given(grids, seeds, shifts)
def test_grand_max_commutes_with_the_grid_symmetries(grid, seed, shift):
    cfg = GrandMaxConfig(default_grand_scales(grid, 16))
    _assert_commutes(lambda f: grand_max(f, cfg), grid, seed, shift, _of_max)


@SETTINGS
@given(grids, st.sampled_from([0.5, 2.0]), st.sampled_from([1.0, 8.0]), seeds, shifts)
def test_peetre_max_keeps_its_bytes_under_the_grid_symmetries(grid, N, R, seed, shift):
    params = PeetreParams(N, R)
    _assert_commutes(lambda f: peetre_max(f, params), grid, seed, shift)


@SETTINGS
@given(grids, seeds, shifts)
def test_hl_max_commutes_with_the_grid_symmetries(grid, seed, shift):
    def prefix_sum_ulps(f, out):
        return 2.0 * np.finfo(float).eps * np.sum(np.abs(f))

    _assert_commutes(hl_max, grid, seed, shift,
                     prefix_sum_ulps if grid.dimension == 1 else _of_max)
