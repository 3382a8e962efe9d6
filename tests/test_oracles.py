"""Fast paths against brute-force oracles on tiny hypothesis-drawn grids.

``fields.to_spectrum``, ``from_spectrum`` and ``filtered`` are checked
against explicit DFT sums in the continuous Fourier convention; radial
profiles and their dilates against the symbols they stand for, and the
ramp-only plateau and in-place scale integral against the expressions they
replace; the ladder oracle's per-radius multipliers against the symbol at every frequency; the
periodic window and disc means behind the maximal operators and the A_p
characteristic against direct averages over the cells of each window or
disc; the row-segment disc dilation against the full-footprint maximum
filter; the 1-d Hardy-Littlewood recurrence against a per-width scan.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lplab.experiments import _SpectralRatioOracle
from lplab.fields import (
    Grid,
    SampledField,
    ScaleGrid,
    SpectralField,
    filtered,
    from_spectrum,
    scale_integral,
    to_spectrum,
)
from lplab.kernels import (
    BUILTIN_KERNELS,
    KernelSpec,
    coordinate_multiplier,
    derived_kernel,
    dilates,
    make_builtin,
    plateau,
    power_tail_kernel,
    smoothstep,
)
from lplab.maximal import _disc_dilate, _disc_means, _hl_max_1d, _window_means
from lplab.transforms import ScaleField, calderon_normalize, conjugate_kernel, scale_transform

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
def test_from_spectrum_matches_dft_sums(grid, seed):
    spec = _random_complex(grid, seed)
    f = from_spectrum(SpectralField(grid.frequency_grid(), spec))
    assert f.grid == grid
    assert _close(f.values, _dft_inverse(grid, spec))


def _kernels():
    """Every kernel constructor that sets a radial profile."""
    out = [make_builtin(name) for name in BUILTIN_KERNELS]
    out += [make_builtin("gaussian", [0.5]), make_builtin("annulus_bump", [0.3, 0.6, 1.5, 3.0])]
    out += [power_tail_kernel(0.5), power_tail_kernel(3.0)]
    out += [calderon_normalize(k) for k in out[:2]] + [conjugate_kernel(k) for k in out[:2]]
    return out


KERNELS = _kernels()


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
@given(count=st.integers(2, 9), trailing=st.sampled_from([(), (7,), (3, 4)]),
       q=st.sampled_from([0.5, 1.0, 2.0, 3.7]), geometric=st.booleans(),
       is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scale_integral_matches_weighted_power_sum(count, trailing, q, geometric, is_complex,
                                                   seed):
    rng = np.random.default_rng(seed)
    if geometric:
        scales = ScaleGrid.log_spaced(1e-3, 10.0, count)
    else:
        scales = ScaleGrid(np.sort(rng.uniform(0.01, 10.0, count))[::-1])
    u = rng.uniform(0.0, 5.0, (count,) + trailing)
    if is_complex:
        u = u * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, u.shape))
    before = u.copy()
    w = scales.log_weights().reshape((-1,) + (1,) * len(trailing))
    expect = np.sum(np.abs(u) ** q * w, axis=0) ** (1.0 / q)
    got = scale_integral(u, scales, q)
    assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()
    assert np.array_equal(u, before)


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
    grid = Grid(2, 8, 2.0)
    f = SampledField(grid, _random_complex(grid, 1))
    scales = ScaleGrid.log_spaced(0.1, 1.0, 3)
    E = scale_transform(f, make_builtin("poissonQ"), scales)
    spec = to_spectrum(f)
    for arr in (spec.values, from_spectrum(spec).values, E.values, E.slice(1).values,
                *(g.values for g in filtered(f, [lambda xi: xi[0], np.ones(grid.shape)]))):
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 1.0


def test_fields_copy_what_callers_pass():
    grid = Grid(1, 8, 2.0)
    arr = _random_complex(grid, 2)
    stack = np.stack([arr, arr])
    fields = (SampledField(grid, arr), SpectralField(grid, arr),
              ScaleField(grid, ScaleGrid.log_spaced(0.1, 1.0, 2), stack))
    before = [fl.values.copy() for fl in fields]
    arr[:] = 99.0
    stack[:] = 99.0
    for fl, b in zip(fields, before):
        assert np.array_equal(fl.values, b)


@SETTINGS
@given(grid=tiny_grids, seed=st.integers(0, 2**32 - 1), count=st.integers(0, 3))
def test_filtered_matches_dft_sums(grid, seed, count):
    rng = np.random.default_rng(seed)
    f = SampledField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))
    ts = rng.uniform(0.1, 3.0, count)
    mults = [lambda xi, t=t: np.exp(-t * np.sum(xi * xi, axis=0)) + 1j * t * xi[0] for t in ts]
    got = list(filtered(f, mults))
    assert len(got) == count
    xi = grid.frequency_grid().coords()
    for g, m in zip(got, mults):
        expect = _dft_filter(grid, f.values, m(xi))
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
