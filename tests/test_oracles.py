"""Fast paths against brute-force oracles on tiny hypothesis-drawn grids.

``fields.filtered`` is checked against explicit DFT sums in the continuous
Fourier convention; the periodic window and disc means behind the maximal
operators and the A_p characteristic against direct averages over the
cells of each window or disc; the row-segment disc dilation against the
full-footprint maximum filter.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lplab.fields import Grid, SampledField, filtered
from lplab.maximal import _disc_dilate, _disc_means, _window_means

SETTINGS = settings(max_examples=40, deadline=None)

tiny_grids = st.one_of(
    st.builds(Grid, st.just(1), st.sampled_from([8, 16, 32]), st.sampled_from([0.5, 2.0, 8.0])),
    st.builds(Grid, st.just(2), st.sampled_from([8, 16]), st.sampled_from([0.5, 2.0, 8.0])),
)


def _dft_filter(grid: Grid, values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """inverse(F(f) * m) by explicit sums: F(f)(xi) = sum_x f(x) e^(-2 pi i x xi) h^n,
    f(x) = sum_xi F(xi) e^(2 pi i x xi) dxi^n, one axis at a time."""
    fg = grid.frequency_grid()
    phase = np.exp(-2j * np.pi * np.outer(grid.axis_coords(), fg.axis_coords()))  # (x, xi)
    spec = values.astype(complex)
    for axis in range(grid.dimension):
        spec = np.moveaxis(np.tensordot(phase, spec, axes=([0], [axis])), 0, axis) * grid.spacing
    out = spec * mult
    for axis in range(grid.dimension):
        out = np.moveaxis(np.tensordot(phase.conj(), out, axes=([1], [axis])), 0, axis)
        out = out * fg.spacing
    return out


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
