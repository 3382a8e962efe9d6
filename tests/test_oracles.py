"""Fast paths against brute-force oracles on tiny hypothesis-drawn grids.

``fields.to_spectrum``, ``from_spectrum`` and ``filtered`` are checked
against explicit DFT sums in the continuous Fourier convention, a real
field's half spectrum included, and the two transforms against the
scipy.fft chains of their complex and real paths, bit for bit, and an
inverse with a multiplier against the inverse of the product; a real
field's inverse under a radial dilate or a complex multiplier against the
full path on its complex cast, a complex multiplier's against the full
path's bytes on the Hermitian expansion, and ``filtered_slices`` against
``from_spectrum`` as complex products interrupt its blocks; every even
multiplier the library builds against its point reflection; radial
profiles and their dilates against the symbols they stand for, and the ramp-only plateau and in-place scale integral against the
expressions they replace; ``g_function`` on a ratio-b scale grid against a per-scale loop
over the ladder t = b^j, weighted log(1/b); the ladder oracle's per-radius multipliers against the symbol at every frequency; the
periodic window and disc means behind the maximal operators and the A_p
characteristic against direct averages over the cells of each window or
disc; the periodic running max against scipy.ndimage's wrapped maximum
filter and the row-segment disc dilation against the full-footprint one,
bit for bit; the 1-d Hardy-Littlewood recurrence against a per-width scan;
the Peetre maximal function, in blocks of any size, against a loop over
every grid offset.
"""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as scipy_fft
from scipy import ndimage

from lplab import fields, maximal
from lplab.experiments import _SpectralRatioOracle
from lplab.fields import (
    Grid,
    SampledField,
    ScaleGrid,
    SpectralField,
    filtered,
    filtered_slices,
    from_spectrum,
    scale_integral,
    to_spectrum,
)
from lplab.kernels import (
    CATALOG,
    KernelSpec,
    coordinate_multiplier,
    derived_kernel,
    dilates,
    make_builtin,
    plateau,
    power_tail_kernel,
    smoothstep,
)
from lplab.maximal import (
    PeetreParams,
    _disc_dilate,
    _disc_means,
    _hl_max_1d,
    _running_max,
    _window_means,
    peetre_max,
)
from lplab.transforms import ScaleField, g_function, make_atom

from kernel_helpers import calderon_normalize, conjugate_kernel, scale_stack

SETTINGS = settings(max_examples=40, deadline=None)

tiny_grids = st.one_of(
    st.builds(Grid, st.just(1), st.sampled_from([8, 16, 32]), st.sampled_from([0.5, 2.0, 8.0])),
    st.builds(Grid, st.just(2), st.sampled_from([8, 16]), st.sampled_from([0.5, 2.0, 8.0])),
)


# every axis length a Grid admits, from the smallest (4) up
small_grids = st.one_of(
    st.builds(Grid, st.just(1), st.sampled_from([4, 8, 16, 32]), st.sampled_from([0.5, 2.0, 8.0])),
    st.builds(Grid, st.just(2), st.sampled_from([4, 8, 16]), st.sampled_from([0.5, 2.0, 8.0])),
)


def _phase(grid: Grid) -> np.ndarray:
    """e^(-2 pi i x xi) on one axis, indexed (x, xi)."""
    return np.exp(-2j * np.pi * np.outer(grid.axis_coords(), grid.frequency_grid().axis_coords()))


def _dft_forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """F(f)(xi) = sum_x f(x) e^(-2 pi i x xi) h^n by explicit sums, one axis at a time."""
    spec = values.astype(complex)
    for axis in range(grid.dimension):
        spec = np.moveaxis(np.tensordot(_phase(grid), spec, axes=([0], [axis])), 0, axis)
        spec = spec * grid.spacing
    return spec


def _dft_inverse(grid: Grid, spec: np.ndarray) -> np.ndarray:
    """f(x) = sum_xi F(xi) e^(2 pi i x xi) dxi^n on ``grid`` (the spatial grid)."""
    out = spec.astype(complex)
    for axis in range(grid.dimension):
        out = np.moveaxis(np.tensordot(_phase(grid).conj(), out, axes=([1], [axis])), 0, axis)
        out = out * grid.frequency_grid().spacing
    return out


def _dft_filter(grid: Grid, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """inverse(F(f) * m) by explicit sums."""
    return _dft_inverse(grid, _dft_forward(grid, values) * mult)


def _random_complex(grid: Grid, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)


def _close(got: np.ndarray, expect: np.ndarray) -> bool:
    return np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


@SETTINGS
@given(grid=small_grids, seed=st.integers(0, 2**32 - 1))
def test_to_spectrum_matches_dft_sums(grid, seed):
    vals = _random_complex(grid, seed)
    spec = to_spectrum(SampledField(grid, vals))
    assert spec.grid == grid.frequency_grid()
    assert _close(spec.values, _dft_forward(grid, vals))


@SETTINGS
@given(grid=small_grids, seed=st.integers(0, 2**32 - 1))
def test_real_to_spectrum_is_the_half_of_the_dft_sums(grid, seed):
    """A real field's spectrum is the DFT sums on [..., :P/2 + 1] of the
    last axis, frequencies -P/2 ... 0 there."""
    vals = np.random.default_rng(seed).standard_normal(grid.shape)
    spec = to_spectrum(SampledField(grid, vals))
    assert spec.grid == grid.frequency_grid()
    assert spec.values.shape == grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)
    assert _close(spec.values, _dft_forward(grid, vals)[..., :spec.values.shape[-1]])


@SETTINGS
@given(grid=small_grids, seed=st.integers(0, 2**32 - 1))
def test_from_spectrum_matches_dft_sums(grid, seed):
    spec = _random_complex(grid, seed)
    f = from_spectrum(SpectralField(grid.frequency_grid(), spec))
    assert f.grid == grid
    assert _close(f.values, _dft_inverse(grid, spec))


# every axis length up to 4096 points in 1-d and 256^2 in 2-d
powers_of_two = [2**k for k in range(2, 13)]
transform_grids = st.one_of(
    st.builds(Grid, st.just(1), st.sampled_from(powers_of_two), st.sampled_from([0.5, 3.0, 16.0])),
    st.builds(Grid, st.just(2), st.sampled_from(powers_of_two[:7]),
              st.sampled_from([0.5, 3.0, 16.0])),
)


def _checkerboard(shape) -> np.ndarray:
    return np.where(np.indices(shape).sum(axis=0) % 2 == 0, 1.0, -1.0)


@SETTINGS
@given(grid=transform_grids, seed=st.integers(0, 2**32 - 1), is_complex=st.booleans())
def test_transforms_match_the_scipy_fft_chain(grid, seed, is_complex):
    """numpy.fft one axis at a time gives scipy.fft's bits: for a complex
    field c * fftn(c * v) scaled by the cell volume and likewise for the
    inverse; for a real field the half [..., :P/2 + 1] of that chain on
    rfftn, and irfftn of the signed half back."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    if is_complex:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    c = _checkerboard(grid.shape)
    f = SampledField(grid, vals)
    spec = to_spectrum(f)
    back = from_spectrum(spec).values
    assert back.dtype == vals.dtype
    if is_complex:
        expect = scipy_fft.fftn(f.values * c, overwrite_x=True) * (c * grid.cell_volume)
        inverse = scipy_fft.ifftn(spec.values * c, overwrite_x=True)
    else:
        h = grid.points_per_axis // 2 + 1
        expect = scipy_fft.rfftn(f.values * c) * (c * grid.cell_volume)[..., :h]
        inverse = scipy_fft.irfftn(spec.values * c[..., :h], s=grid.shape)
    assert spec.values.tobytes() == expect.tobytes()
    assert back.tobytes() == (inverse * (c * (1.0 / grid.cell_volume))).tobytes()


@SETTINGS
@given(grid=st.one_of(transform_grids, st.just(Grid(2, 256, 8.0))),
       seed=st.integers(0, 2**32 - 1), is_complex=st.booleans(),
       kind=st.sampled_from(["sparse", "zero", "gaussian", "derivative"]),
       t=st.floats(0.1, 1e4), axis=st.integers(0, 1))
def test_a_multiplied_inverse_has_the_bytes_of_the_inverse_of_the_product(
        grid, seed, is_complex, kind, t, axis):
    """from_spectrum(F, m) writes F * m into its output and inverts it in
    place: the bytes of inverting the product as a field of its own, signed
    zeros included.  The multipliers hold exact zeros: half of them, all of
    them, a gaussian that underflows at large t, and the complex derivative
    symbol, which vanishes on a line."""
    rng = np.random.default_rng(seed)
    fg = grid.frequency_grid()
    vals = rng.standard_normal(grid.shape)
    if is_complex:
        vals = vals + 1j * rng.standard_normal(grid.shape)
    F = SpectralField(fg, vals)
    if kind == "sparse":
        m = np.where(rng.random(grid.shape) < 0.5, 0.0, rng.standard_normal(grid.shape))
    elif kind == "zero":
        m = np.zeros(grid.shape)
    elif kind == "gaussian":
        m = np.exp(-np.pi * (t * fg.radii()) ** 2)
    else:
        m = coordinate_multiplier(axis % grid.dimension).symbol(fg.coords())
    got = from_spectrum(F, m)
    expect = from_spectrum(SpectralField(fg, F.values * m))
    assert got.grid == expect.grid == grid
    assert got.values.tobytes() == expect.values.tobytes()


@SETTINGS
@given(grid=st.one_of(transform_grids, st.just(Grid(2, 256, 8.0))),
       seed=st.integers(0, 2**32 - 1),
       name=st.sampled_from(["gaussian", "poissonQ", "annulus_bump"]), t=st.floats(1e-3, 1e4))
def test_a_real_field_under_a_radial_dilate_inverts_through_the_half_spectrum(
        grid, seed, name, t):
    """to_spectrum of a real field times a radial dilate is Hermitian, so
    the inverse runs on its half, and the result is a float64 field.  Its
    distance from the full path (a caller-built spectrum of the product on
    the Hermitian expansion) is at most 1e-15 of the output's max plus the
    full path's own imaginary part, which the exact result does not have.
    Below the smallest normal number binary64 keeps no relative precision.
    A dilate that underflows to zeros everywhere gives exact zeros.
    filtered and filtered_slices give the result's bytes."""
    f = SampledField(grid, np.random.default_rng(seed).standard_normal(grid.shape))
    spec = to_spectrum(f)
    (m,) = dilates(make_builtin(name), grid, [t])
    got = from_spectrum(spec, m).values
    full = from_spectrum(SpectralField(spec.grid, fields._full(spec) * m)).values
    assert got.dtype == np.float64
    bound = 1e-15 * np.max(np.abs(full)) + np.max(np.abs(full.imag)) + np.finfo(float).tiny
    assert np.max(np.abs(got.real - full.real)) <= bound
    if not np.any(m):
        assert not np.any(got)
    (conv,) = filtered(f, [m])
    (values,) = filtered_slices(f, [m])
    assert conv.values.tobytes() == values.tobytes() == got.tobytes()


@SETTINGS
@given(grid=transform_grids, seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["complex", "caller-built", "derivative"]),
       t=st.floats(1e-3, 1e2), axis=st.integers(0, 1))
def test_other_inverses_keep_the_full_path_bytes(grid, seed, kind, t, axis):
    """Complex input, a caller-built spectrum (here the Hermitian expansion
    of a real field's half) and a real field's half under the complex
    derivative symbol all invert through the full spectrum: the bytes of
    the inverse of the full spectrum times the multiplier."""
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    if kind == "complex":
        vals = vals + 1j * rng.standard_normal(grid.shape)
    spec = to_spectrum(SampledField(grid, vals))
    full = spec.values if kind == "complex" else fields._full(spec)
    if kind == "caller-built":
        spec = SpectralField(spec.grid, full)
    if kind == "derivative":
        m = coordinate_multiplier(axis % grid.dimension).symbol(spec.grid.coords())
    else:
        (m,) = dilates(make_builtin("gaussian"), grid, [t])
    got = from_spectrum(spec, m).values
    expect = from_spectrum(SpectralField(spec.grid, full * m)).values
    assert got.tobytes() == expect.tobytes()


@SETTINGS
@given(grid=transform_grids, seed=st.integers(0, 2**32 - 1), axis=st.integers(0, 1))
def test_a_half_spectrum_under_a_complex_multiplier_matches_the_complex_cast(grid, seed, axis):
    """A real field's half spectrum under the complex derivative symbol
    inverts on its Hermitian expansion: within 1e-15 of the output's max of
    the same field cast to complex, on the full path throughout."""
    vals = np.random.default_rng(seed).standard_normal(grid.shape)
    m = coordinate_multiplier(axis % grid.dimension).symbol(grid.frequency_grid().coords())
    got = from_spectrum(to_spectrum(SampledField(grid, vals)), m).values
    full = from_spectrum(to_spectrum(SampledField(grid, vals.astype(complex))), m).values
    assert got.dtype == full.dtype == np.complex128
    assert np.max(np.abs(got - full)) <= 1e-15 * np.max(np.abs(full)) + np.finfo(float).tiny


@SETTINGS
@given(grid=small_grids, seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5),
       paths=st.lists(st.sampled_from(["half", "derivative"]), max_size=12))
def test_filtered_slices_keeps_multiplier_order_across_paths(grid, seed, rows, paths):
    """Below the large-grid gate a block holds a real field's half products:
    before a complex product, which is one from_spectrum, or when the block
    of ``rows`` slices fills, what it holds is inverted first, and every
    slice has the bytes of its from_spectrum."""
    rng = np.random.default_rng(seed)
    f = SampledField(grid, rng.standard_normal(grid.shape))
    spec = to_spectrum(f)
    mults = []
    for path in paths:
        if path == "half":
            mults += dilates(make_builtin("gaussian"), grid, [rng.uniform(0.01, 10.0)])
        else:
            mults.append(coordinate_multiplier(0).symbol(spec.grid.coords()))
    with mock.patch("lplab.fields._BLOCK_BYTES", rows * spec.values.nbytes):
        got = [values.copy() for values in filtered_slices(f, mults)]
    assert len(got) == len(mults)
    for values, m, path in zip(got, mults, paths):
        assert values.tobytes() == from_spectrum(spec, m).values.tobytes()
        assert values.dtype == (np.float64 if path == "half" else np.complex128)


def _kernels():
    """Every kernel constructor that sets a radial profile."""
    out = [make_builtin(name) for name, entry in CATALOG.items() if 0 in entry.counts]
    out += [make_builtin("power_tail", [1.5]), make_builtin("annulus_bump", [0.3, 0.6, 1.5, 3.0])]
    out += [power_tail_kernel(0.5), power_tail_kernel(3.0)]
    out += [calderon_normalize(k) for k in out[:2]] + [conjugate_kernel(k) for k in out[:2]]
    return out


KERNELS = _kernels()


#: every catalog kernel, annulus_bump and power_tail with parameters too
CATALOG_KERNELS = [make_builtin(name) for name, entry in CATALOG.items() if 0 in entry.counts] + [
    make_builtin("annulus_bump", [0.3, 0.6, 1.5, 3.0]), make_builtin("power_tail", [1.5])]


def _reflected(m: np.ndarray) -> np.ndarray:
    """m at the point reflection k -> (P - k) mod P of every axis."""
    axes = tuple(range(m.ndim))
    return np.roll(np.flip(m, axes), 1, axes)


@SETTINGS
@given(dimension=st.sampled_from([1, 2]), index=st.integers(0, len(CATALOG_KERNELS) - 1),
       large=st.booleans(), t=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_every_even_multiplier_the_library_builds_is_its_point_reflection(
        dimension, index, large, t, seed):
    """A half spectrum reads only a real multiplier's half, so each real
    multiplier the library builds must equal its point reflection exactly:
    every catalog kernel's dilate rows, on both sides of the large-grid
    gate, and make_atom's low-pass, whose inverse is the atom's noise."""
    p = (256 if large else 64) if dimension == 2 else (32768 if large else 4096)
    grid = Grid(dimension, p, 8.0)
    assert (grid.cell_count >= fields._PARALLEL_MIN_POINTS) == large
    (row,) = dilates(CATALOG_KERNELS[index], grid, [t])
    assert row.dtype == np.float64
    assert np.array_equal(row, _reflected(row))
    lowpass = []
    small = Grid(dimension, 64 if dimension == 2 else 4096, 8.0)
    with mock.patch("lplab.transforms.from_spectrum",
                    lambda F, m=None: lowpass.append(m) or from_spectrum(F, m)):
        make_atom(small, ScaleGrid.log_spaced(0.5, 2.0, 2), (0.0,) * dimension, 2.0, 1.0, seed)
    assert len(lowpass) == 2
    for m in lowpass:
        assert m.dtype == np.float64 and np.array_equal(m, _reflected(m))


@SETTINGS
@given(grid=small_grids, index=st.integers(0, len(KERNELS) - 1), t=st.floats(0.01, 100.0))
def test_profile_is_the_symbol_on_frequency_grids(grid, index, t):
    k = KERNELS[index]
    fg = grid.frequency_grid()
    xi = fg.coords()
    # |xi| of the grid is the norm the symbol takes, so the two agree exactly
    assert np.array_equal(np.asarray(k.profile(fg.radii())), np.asarray(k.symbol(xi)))
    (dilate,) = dilates(k, grid, [t])
    assert _close(np.asarray(dilate), np.asarray(k.symbol(t * xi)))


@SETTINGS
@given(grid=small_grids, t=st.floats(0.01, 100.0))
def test_derived_kernel_dilates_through_its_symbol(grid, t):
    calls = []
    base = make_builtin("gaussian")
    d = derived_kernel("d", base, coordinate_multiplier(0))
    assert d.profile is None
    multiplier = KernelSpec("m", lambda xi: calls.append(1) or 2j * np.pi * xi[0])
    spy = derived_kernel("d", base, multiplier)
    xi = grid.frequency_grid().coords()
    (dilate,) = dilates(spy, grid, [t])
    assert calls == [1]
    assert np.array_equal(dilate, d.symbol(t * xi))


@SETTINGS
@given(grid=small_grids, index=st.integers(0, len(KERNELS) - 1),
       ts=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=4))
def test_dilate_rows_are_the_profile_at_every_frequency(grid, index, ts):
    # a fresh copy starts with no rows; then a repeated list, a nested one and
    # a generator reuse them, and every dilate is profile(t |xi|) bit for bit
    k = dataclasses.replace(KERNELS[index])
    assert k._rows == {}
    r = grid.frequency_grid().radii()
    for scales in (ts, ts + ts, ts[1:], (t for t in reversed(ts))):
        scales = list(scales)
        got = list(dilates(k, grid, iter(scales)))
        assert len(got) == len(scales)
        for t, dilate in zip(scales, got):
            expect = np.asarray(k.profile(t * r))
            assert dilate.dtype == expect.dtype and dilate.shape == grid.shape
            assert dilate.tobytes() == expect.tobytes()
    assert len(k._rows) == len(set(ts))


@SETTINGS
@given(grid=small_grids, ts=st.lists(st.floats(0.01, 100.0), min_size=1, max_size=3))
def test_derived_kernel_keeps_no_rows(grid, ts):
    calls = []
    multiplier = KernelSpec("m", lambda xi: calls.append(1) or 2j * np.pi * xi[0])
    spy = derived_kernel("d", make_builtin("gaussian"), multiplier)
    xi = grid.frequency_grid().coords()
    for _ in range(2):
        for t, dilate in zip(ts, dilates(spy, grid, ts)):
            assert np.array_equal(dilate, spy.symbol(t * xi))
    # twice through the symbol per scale for dilates and once for the check
    assert len(calls) == 4 * len(ts)
    assert spy._rows == {}


def _nested_where_plateau(r, a, b, c, d):
    """The plateau as both ramps evaluated everywhere and selected by np.where."""
    r = np.asarray(r, dtype=float)
    return np.where(
        r <= b,
        smoothstep((r - a) / (b - a)),
        np.where(r >= c, smoothstep((d - r) / (d - c)), 1.0),
    )


@SETTINGS
@given(radii=st.lists(st.floats(0.01, 100.0), min_size=4, max_size=4, unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_plateau_matches_nested_where(radii, seed):
    a, b, c, d = sorted(radii)
    rng = np.random.default_rng(seed)
    special = [a, b, c, d, 0.0, -0.0, -a, -d, np.inf, -np.inf, np.nan,
               np.nextafter(a, 0), np.nextafter(b, np.inf), np.nextafter(c, 0),
               np.nextafter(d, np.inf)]
    r = np.concatenate([special, rng.uniform(-1.0, 1.5 * d, 200)])
    for shape in (r.shape, (5, r.size // 5)):
        rr = r.reshape(shape)
        got = plateau(rr, a, b, c, d)
        assert got.tobytes() == _nested_where_plateau(rr, a, b, c, d).tobytes()
    for x in special:  # 0-d input
        assert plateau(x, a, b, c, d).tobytes() == _nested_where_plateau(x, a, b, c, d).tobytes()


@SETTINGS
@given(t_max=st.floats(1e-3, 1e3), ratio=st.floats(0.01, 0.99), count=st.integers(1, 9),
       trailing=st.sampled_from([(), (7,), (3, 4)]), q=st.sampled_from([0.5, 1.0, 2.0, 3.7]),
       is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scale_integral_matches_weighted_power_sum(t_max, ratio, count, trailing, q, is_complex,
                                                   seed):
    rng = np.random.default_rng(seed)
    scales = ScaleGrid.geometric(t_max, ratio, count)
    u = rng.uniform(0.0, 5.0, (count,) + trailing)
    if is_complex:
        u = u * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, u.shape))
    before = u.copy()
    # summed in scale order: np.sum of 1-d input would sum pairwise
    expect = np.zeros(trailing)
    for uk in u:
        expect += np.abs(uk) ** q * math.log(1.0 / ratio)
    expect **= 1.0 / q
    got = scale_integral(u, scales, q)
    assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()
    assert np.array_equal(u, before)


@SETTINGS
@given(grid=small_grids, index=st.integers(0, len(KERNELS) - 1), b=st.floats(0.3, 0.95),
       j_start=st.integers(-6, 4), count=st.integers(1, 12),
       q=st.sampled_from([0.5, 1.0, 2.0]), seed=st.integers(0, 2**32 - 1))
def test_g_function_on_a_ratio_b_grid_is_the_weighted_ladder_sum(grid, index, b, j_start, count,
                                                                 q, seed):
    # the ladder t = b^j, j_start <= j < j_start + count, each log-cell of width log(1/b)
    ladder = ScaleGrid.geometric(b**j_start, b, count)
    psi = KERNELS[index]
    f = SampledField(grid, _random_complex(grid, seed))
    spec = to_spectrum(f)
    xi = spec.grid.coords()
    acc = np.zeros(grid.shape)
    for t in ladder.scales:
        conv = from_spectrum(SpectralField(spec.grid, spec.values * psi.symbol(t * xi)))
        acc += np.abs(conv.values) ** q
    expect = math.log(1.0 / b) ** (1.0 / q) * acc ** (1.0 / q)
    assert _close(g_function(f, psi, ladder, q).values, expect)


@pytest.mark.parametrize("grid", [Grid(1, 4096, 16.0), Grid(1, 64, 4.0), Grid(2, 32, 4.0)])
def test_ladder_oracle_matches_symbol_at_every_frequency(grid):
    # one profile evaluation per distinct radius gives the per-frequency
    # symbol sums bit for bit: sqrt((t r)^2) == t r in binary64
    scales = ScaleGrid.log_spaced(1e-4, 1e2, 128)
    psi, phi = make_builtin("annulus_bump"), power_tail_kernel(1.5)
    oracle = _SpectralRatioOracle(psi, phi, grid, scales)
    xi = grid.frequency_grid().coords()
    r = np.sqrt(np.sum(xi**2, axis=0))
    u = np.exp(np.linspace(math.log(scales.t_min), math.log(scales.t_max), 4097))
    for k, got in ((psi, oracle._m_psi), (phi, oracle._m_phi)):
        vals = np.zeros(r[r > 0].shape)
        for block in np.array_split(u, 16):
            pts = (block[:, np.newaxis] * r[r > 0][np.newaxis, :])[np.newaxis]
            vals += np.sum(np.abs(np.asarray(k.symbol(pts))) ** 2, axis=0) * math.log(u[1] / u[0])
        expect = np.zeros(r.shape)
        expect[r > 0] = vals
        assert np.array_equal(got, expect)


def test_computed_fields_are_read_only():
    """Complex and real fields, full and half spectra, and the inverses of
    a half spectrum on either path, in 1-d and 2-d."""
    scales = ScaleGrid.log_spaced(0.1, 1.0, 3)
    for grid in (Grid(1, 8, 2.0), Grid(2, 8, 2.0)):
        vals = _random_complex(grid, 1)
        xi = grid.frequency_grid().coords()
        for f in (SampledField(grid, vals), SampledField(grid, vals.real)):
            E = scale_stack(f, make_builtin("poissonQ"), scales)
            spec = to_spectrum(f)
            for arr in (spec.values, from_spectrum(spec).values, E.values, E.slice(1).values,
                        *(g.values for g in filtered(f, [1j * xi[0], np.ones(grid.shape)]))):
                with pytest.raises(ValueError):
                    arr[(0,) * arr.ndim] = 1.0


def test_fields_copy_what_callers_pass():
    """Each field keeps the kind of what it is given, complex or real, a
    spectrum is always complex, and none shares memory with the caller's
    array."""
    grid = Grid(1, 8, 2.0)
    for arr in (_random_complex(grid, 2), _random_complex(grid, 2).real.copy()):
        stack = np.stack([arr, arr])
        made = (SampledField(grid, arr), SpectralField(grid, arr),
                ScaleField(grid, ScaleGrid.log_spaced(0.1, 1.0, 2), stack))
        assert [fl.values.dtype for fl in made] == [arr.dtype, np.complex128, arr.dtype]
        before = [fl.values.copy() for fl in made]
        arr[:] = 99.0
        stack[:] = 99.0
        for fl, b in zip(made, before):
            assert np.array_equal(fl.values, b)


@SETTINGS
@given(grid=tiny_grids, seed=st.integers(0, 2**32 - 1), count=st.integers(0, 3))
def test_filtered_matches_dft_sums(grid, seed, count):
    rng = np.random.default_rng(seed)
    f = SampledField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    ts = rng.uniform(0.1, 3.0, count)
    xi = grid.frequency_grid().coords()
    mults = [np.exp(-t * np.sum(xi * xi, axis=0)) + 1j * t * xi[0] for t in ts]
    got = list(filtered(f, mults))
    assert len(got) == count
    for g, m in zip(got, mults):
        expect = _dft_filter(grid, f.values, m)
        assert g.grid == grid
        assert np.max(np.abs(g.values - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


@SETTINGS
@given(n=st.integers(8, 32), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_window_means_match_direct_averages(n, seed, data):
    vals = np.random.default_rng(seed).uniform(0.0, 10.0, n)
    widths = data.draw(st.lists(st.integers(1, n), min_size=1, max_size=6))
    got = list(_window_means(vals, widths))
    assert len(got) == len(widths)
    for w, means in zip(widths, got):
        expect = [np.mean(vals[(i + np.arange(w)) % n]) for i in range(n)]
        assert np.max(np.abs(means - expect)) <= 1e-12 * 10.0


@SETTINGS
@given(p=st.sampled_from([8, 16]), seed=st.integers(0, 2**32 - 1),
       radii=st.lists(st.floats(0.0, 9.0), min_size=1, max_size=4))
def test_disc_means_match_direct_averages(p, seed, radii):
    vals = np.random.default_rng(seed).uniform(0.0, 10.0, (p, p))
    got = list(_disc_means(vals, radii))
    assert len(got) == len(radii)  # the centre cell keeps every disc nonempty
    k = np.minimum(np.arange(p), p - np.arange(p))  # wrapped offsets
    for rc, (footprint, means) in zip(radii, got):
        disc = [(a, b) for a in range(p) for b in range(p) if k[a] ** 2 + k[b] ** 2 <= rc**2 + 1e-9]
        assert sorted(zip(*np.nonzero(footprint))) == disc
        # expect[c] = mean of vals[c + y] over the offsets y in the disc
        expect = sum(np.roll(vals, (-a, -b), axis=(0, 1)) for a, b in disc) / len(disc)
        assert np.max(np.abs(means - expect)) <= 1e-12 * 10.0


@SETTINGS
@given(p=st.sampled_from([4, 8, 16, 32]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_disc_dilate_matches_footprint_filter(p, seed, data):
    # radii up to p cells give wrapped and full-row discs; sqrt(integer) radii
    # put lattice points exactly on the footprint's 1e-9 boundary
    radius = st.one_of(st.floats(0.0, float(p)), st.integers(0, p * p).map(math.sqrt))
    radii = data.draw(st.lists(radius, min_size=1, max_size=4))
    vals = np.random.default_rng(seed).uniform(0.0, 10.0, (p, p))
    for fp, means in _disc_means(vals, radii):
        for row in fp:
            w = int(row.sum())  # empty, or one wrapped run of columns centred on 0
            assert w in (0, p) or w % 2 == 1
            assert sorted(np.flatnonzero(row)) == sorted(np.arange(-(w // 2), (w + 1) // 2) % p)
        expect = ndimage.maximum_filter(means, footprint=np.fft.fftshift(fp), mode="wrap")
        assert np.array_equal(_disc_dilate(means, fp), expect)


@SETTINGS
@given(p=st.integers(4, 128), seed=st.integers(0, 2**32 - 1), levels=st.integers(0, 4),
       zeros=st.floats(0.0, 1.0))
def test_running_max_matches_wrapped_maximum_filter(p, seed, levels, zeros):
    rng = np.random.default_rng(seed)
    # few levels give tied windows; levels = 0 draws continuous values
    shape = (3, p)
    vals = rng.integers(0, levels, shape).astype(float) if levels else rng.uniform(0, 10, shape)
    vals[rng.random(shape) < zeros] = 0.0
    for w in range(1, p + 1):
        expect = ndimage.maximum_filter1d(vals, w, axis=1, mode="wrap")
        assert _running_max(vals, w).tobytes() == expect.tobytes(), w


def _hl_max_1d_per_width(absf):
    """Per-width scan: for every width w, each cell takes the largest mean
    over the w-cell windows that contain it, by a wrapped maximum filter."""
    n = absf.size
    out = absf.astype(float).copy()
    widths = range(2, n + 1)
    for w, means in zip(widths, _window_means(absf, widths)):
        # out[x] maximizes over the windows [x-w+1, x] ... [x, x+w-1]
        origin = w - 1 - w // 2
        np.maximum(out, ndimage.maximum_filter1d(means, w, mode="wrap", origin=origin), out=out)
    return out


@SETTINGS
@given(n=st.integers(4, 512), seed=st.integers(0, 2**32 - 1), levels=st.integers(0, 4),
       zeros=st.floats(0.0, 1.0), spikes=st.floats(0.0, 0.1))
def test_hl_max_1d_matches_per_width_scan(n, seed, levels, zeros, spikes):
    rng = np.random.default_rng(seed)
    # few levels give tied windows; levels = 0 draws continuous values
    vals = rng.integers(0, levels, n).astype(float) if levels else rng.uniform(0.0, 10.0, n)
    vals[rng.random(n) < zeros] = 0.0
    spike = rng.random(n) < spikes
    vals[spike] = 1e6 * (1.0 + rng.random(int(spike.sum())))
    assert _hl_max_1d(vals).tobytes() == _hl_max_1d_per_width(vals).tobytes()


def _peetre_per_offset(grid: Grid, vals: np.ndarray, params: PeetreParams) -> np.ndarray:
    """max over every grid offset y of |f(x - y)| (1 + R|y|)^-N, one offset
    at a time, |y| the wrapped distance."""
    p, h = grid.points_per_axis, grid.spacing
    ax = np.minimum(np.arange(p), p - np.arange(p)) * h
    dist = ax if grid.dimension == 1 else np.sqrt(ax[:, None] ** 2 + ax[None, :] ** 2)
    w = (1.0 + params.R * dist) ** (-params.N)
    absf = np.abs(vals)
    out = np.zeros(grid.shape)
    for y in itertools.product(range(p), repeat=grid.dimension):
        np.maximum(out, np.roll(absf, y, axis=tuple(range(grid.dimension))) * w[y], out=out)
    return out


@SETTINGS
@given(grid=small_grids, seed=st.integers(0, 2**32 - 1), N=st.floats(0.25, 6.0),
       R=st.floats(0.1, 10.0), shifts_per_block=st.sampled_from([1, 2, 4, 8, 16, 32]))
def test_peetre_max_matches_per_offset_loop(grid, seed, N, R, shifts_per_block):
    vals = _random_complex(grid, seed)
    params = PeetreParams(N, R)
    # the block takes this many shifts (all of them where the axis is shorter)
    block = shifts_per_block * grid.cell_count
    with mock.patch.object(maximal, "_PEETRE_BLOCK_VALUES", block):
        got = peetre_max(SampledField(grid, vals), params).values
    assert got.tobytes() == _peetre_per_offset(grid, vals, params).tobytes()
