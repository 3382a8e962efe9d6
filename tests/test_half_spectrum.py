"""A real field's half spectrum: half-grid radial multipliers, the signed
half each spectrum keeps, and one Hermitian expansion per stream.

``kernels.dilates`` gives a real field its radial multipliers on the half
grid [..., :P/2 + 1], which must be exactly the half of the full-grid
multiplier.  A half spectrum keeps its values times the centring
checkerboard once, read-only, and every half inverse starts from it, with
the bytes of a chain that applies the signs after each product.  A stream
that meets complex multipliers expands the half spectrum to its full one
at most once, and every result keeps the bytes of its own from_spectrum.
"""

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab import fields
from lplab.families import FamilyMember
from lplab.fields import (
    Grid,
    SampledField,
    ScaleGrid,
    SpectralField,
    filtered,
    filtered_slices,
    from_spectrum,
    to_spectrum,
)
from lplab.kernels import CATALOG, coordinate_multiplier, derived_kernel, dilates, make_builtin
from lplab.maximal import spectral_gradient
from lplab.transforms import ScaleField, g_function, synthesize

SETTINGS = settings(max_examples=40, deadline=None)

RADIAL_KERNELS = [make_builtin(name) for name, entry in CATALOG.items() if 0 in entry.counts] + [
    make_builtin("annulus_bump", [0.3, 0.6, 1.5, 3.0]), make_builtin("power_tail", [1.5])]

# both sides of the large-grid gate in each dimension
GATE_GRIDS = [Grid(1, 4096, 16.0), Grid(1, 32768, 16.0), Grid(2, 64, 8.0), Grid(2, 256, 8.0)]
GATE_IDS = ["1d-4096", "1d-32768", "2d-64", "2d-256"]

small_grids = st.one_of(
    st.builds(Grid, st.just(1), st.sampled_from([4, 8, 64, 1024]), st.sampled_from([0.5, 8.0])),
    st.builds(Grid, st.just(2), st.sampled_from([4, 16, 64]), st.sampled_from([0.5, 8.0])),
)


def _real_field(grid, seed=0):
    return SampledField(grid, np.random.default_rng(seed).standard_normal(grid.shape))


def _signs_after_product(spec, m):
    """The inverse of a real field's half spectrum times m with the signs
    applied after the product, on every inverse: (spec * m_half) * c_half,
    numpy.fft.ifft along the first axis in 2-d, numpy.fft.irfft along the
    last, then c / cell volume."""
    grid = spec.grid.frequency_grid()
    p = grid.points_per_axis
    c = np.where(np.indices(grid.shape).sum(axis=0) % 2 == 0, 1.0, -1.0)
    m = np.asarray(m)
    half = spec.values * (m if m.shape == spec.values.shape else m[..., :p // 2 + 1])
    half = half * c[..., :p // 2 + 1]
    if grid.dimension == 2:
        half = np.fft.ifft(half, axis=0)
    return np.fft.irfft(half, n=p, axis=-1) * (c * (1.0 / grid.cell_volume))


@pytest.mark.parametrize("grid", GATE_GRIDS, ids=GATE_IDS)
def test_a_real_field_gets_the_half_of_every_radial_multiplier(grid):
    f = _real_field(grid)
    ts = [1e-3, 0.05, 0.7, 3.0, 1e3]
    h = grid.points_per_axis // 2 + 1
    for k in RADIAL_KERNELS:
        for full, half in zip(dilates(k, grid, ts), dilates(k, f, ts)):
            assert half.shape == grid.shape[:-1] + (h,)
            assert half.tobytes() == np.ascontiguousarray(full[..., :h]).tobytes()
            assert half.flags.c_contiguous  # one gather through the half index
    # a complex field keeps full multipliers, as a grid does
    c = SampledField(grid, f.values.astype(complex))
    for k in RADIAL_KERNELS[:2]:
        for full, same in zip(dilates(k, grid, ts), dilates(k, c, ts)):
            assert same.tobytes() == full.tobytes()


def test_a_complex_profile_keeps_the_full_grid():
    # only a real row is even and Hermitian, so only a real row is halved
    k = make_builtin("gaussian")
    ck = type(k)("complex_gaussian", k.symbol, lambda r: k.profile(r) * (1 + 1j))
    grid = Grid(2, 16, 2.0)
    (m,) = dilates(ck, _real_field(grid), [0.5])
    assert m.shape == grid.shape and m.dtype == np.complex128


@pytest.mark.parametrize("grid", GATE_GRIDS, ids=GATE_IDS)
def test_the_signed_half_is_made_once_and_leaves_values_as_they_are(grid):
    f = _real_field(grid, 3)
    spec = to_spectrum(f)
    before = spec.values.tobytes()
    assert spec._signed is None
    ms = list(dilates(make_builtin("gaussian"), f, [0.1, 0.5, 2.0]))
    for m in ms:
        from_spectrum(spec, m)
    signed = spec._signed
    assert signed is spec._signed_half() and not signed.flags.writeable
    with pytest.raises(ValueError):
        signed[..., 0] = 0
    # values stay the centred half; the signed copy is c * values, exactly
    assert spec.values.tobytes() == before == to_spectrum(f).values.tobytes()
    c = fields._signs(grid.shape, 1.0)[..., :spec.values.shape[-1]]
    assert np.array_equal(signed * c, spec.values)
    # no multiplier needs no signed copy
    fresh = to_spectrum(f)
    from_spectrum(fresh)
    assert fresh._signed is None


@pytest.mark.parametrize("grid", GATE_GRIDS, ids=GATE_IDS)
def test_each_stream_signs_its_spectrum_once(grid, monkeypatch):
    made = []  # each spectrum as its signed half is made; kept, so no id is reused
    signed_half = SpectralField._signed_half

    def counting(self):
        if self._signed is None:
            made.append(self)
        return signed_half(self)

    monkeypatch.setattr(SpectralField, "_signed_half", counting)
    f = FamilyMember("band_noise", 2.0, 0.0, 7).sample(grid)
    scales = ScaleGrid.log_spaced(0.02, 4.0, 40)
    g_function(f, make_builtin("poissonQ"), scales)
    list(filtered(f, dilates(make_builtin("gaussian"), f, scales.scales)))
    assert len(made) == 2 and made[0] is not made[1]


@SETTINGS
@given(grid=small_grids, seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["gaussian", "sparse", "annulus", "full-shape"]),
                      min_size=1, max_size=20),
       t=st.floats(1e-2, 10.0))
def test_half_inverses_have_the_bytes_of_signs_after_each_product(grid, seed, kinds, t):
    """from_spectrum and filtered_slices (batched below the gate) start
    from the signed half, a chain of signs after each product does not:
    c * (c * v) = v and a product with +-1 is exact, so the bytes agree."""
    rng = np.random.default_rng(seed)
    f = SampledField(grid, rng.standard_normal(grid.shape))
    h = grid.points_per_axis // 2 + 1
    mults = []
    for kind in kinds:
        if kind == "gaussian":
            mults += dilates(make_builtin("gaussian"), f, [t])
        elif kind == "annulus":
            mults += dilates(make_builtin("annulus_bump"), f, [t])
        elif kind == "sparse":  # exact zeros beside nonzero values
            half = rng.standard_normal(grid.shape[:-1] + (h,))
            half[..., 0] = 1.0
            mults.append(np.where(rng.random(half.shape) < 0.5, 0.0, half))
        else:
            mults += dilates(make_builtin("poissonQ"), grid, [t])
    spec = to_spectrum(f)
    expect = [_signs_after_product(spec, m) for m in mults]
    got = [from_spectrum(spec, m).values for m in mults]
    streamed = list(filtered_slices(f, mults))
    for e, a, b in zip(expect, got, streamed):
        if np.any(e):
            assert a.tobytes() == b.tobytes() == e.tobytes()
        else:
            # an identically zero result: its zeros' signs follow the order
            # of the two exact products, so only the values are compared
            assert not np.any(a) and not np.any(b)


def test_an_identically_zero_product_gives_zeros():
    grid = Grid(2, 16, 2.0)
    f = _real_field(grid)
    (m,) = dilates(make_builtin("annulus_bump"), f, [1e-4])  # support past the grid
    assert not np.any(m)
    assert not np.any(from_spectrum(to_spectrum(f), m).values)
    assert not np.any(np.stack(list(filtered_slices(f, [m, m]))))


def test_a_wrong_shape_multiplier_raises_the_one_message():
    for grid in (Grid(1, 64, 4.0), Grid(2, 16, 4.0)):
        h = grid.points_per_axis // 2 + 1
        real, cplx = _real_field(grid), SampledField(grid, np.ones(grid.shape, dtype=complex))
        # a half multiplier fits only a half spectrum
        half = np.ones(grid.shape[:-1] + (h,))
        with pytest.raises(ValueError) as err:
            from_spectrum(to_spectrum(cplx), half)
        assert str(err.value) == f"multiplier shape {half.shape} does not match {grid.shape}"
        for bad in (np.ones(3), np.ones((2,) + grid.shape), np.ones(grid.shape[:-1] + (h - 1,))):
            for f in (real, cplx):
                with pytest.raises(ValueError) as err:
                    from_spectrum(to_spectrum(f), bad)
                assert str(err.value) == f"multiplier shape {bad.shape} does not match {grid.shape}"


def _phi_gradient():
    """prop23's psi: d/dx of poissonQ, a complex symbol."""
    phi = make_builtin("poissonQ")
    return derived_kernel("ddx_poissonQ", phi, coordinate_multiplier(0))


@pytest.mark.parametrize("grid", [Grid(1, 2048, 16.0), Grid(2, 64, 8.0), Grid(2, 256, 8.0)],
                         ids=["1d-2048", "2d-64", "2d-256"])
def test_complex_multipliers_expand_a_half_once_per_stream(grid, monkeypatch):
    f = FamilyMember("band_noise", 2.0, 0.0, 5).sample(grid)
    spec = to_spectrum(f)
    psi = _phi_gradient()
    scales = ScaleGrid.log_spaced(0.01, 8.0, 24)
    # prop23's kernel interleaved with a real one: the real ones keep the half path
    mults = []
    gaussian = make_builtin("gaussian")
    for grad, real in zip(dilates(psi, f, scales.scales), dilates(gaussian, f, scales.scales)):
        mults += [grad, real]
    expect = [from_spectrum(spec, m).values for m in mults]
    assert [e.dtype for e in expect] == [np.complex128, np.float64] * scales.count

    expanded = []
    full = fields._full
    monkeypatch.setattr(fields, "_full", lambda F: expanded.append(F) or full(F))
    got = [g.values for g in filtered(f, mults)]
    streamed = [v.copy() for v in filtered_slices(f, mults)]
    assert len(expanded) == 2  # once per stream
    assert [g.tobytes() for g in got] == [s.tobytes() for s in streamed] == [
        e.tobytes() for e in expect]

    expanded.clear()
    g_psi = g_function(f, psi, scales).values
    assert len(expanded) == 1
    w = scales.log_width
    stack = np.stack([from_spectrum(spec, m).values for m in dilates(psi, grid, scales.scales)])
    assert g_psi.tobytes() == (np.sum(np.abs(stack) ** 2 * w, axis=0) ** 0.5).tobytes()


@pytest.mark.parametrize("grid", [Grid(1, 4096, 16.0), Grid(2, 64, 8.0)], ids=["1d", "2d"])
def test_spectral_gradient_inverts_once_per_axis_and_expands_once(grid, monkeypatch):
    f = FamilyMember("band_noise", 1.0, 0.0, 3).sample(grid)
    spec = to_spectrum(f)
    xi = spec.grid.coords()
    expect = [from_spectrum(spec, coordinate_multiplier(k).symbol(xi)).values
              for k in range(grid.dimension)]
    calls = collections.Counter()
    for name in ("from_spectrum", "_full"):
        real = getattr(fields, name)
        monkeypatch.setattr(fields, name, lambda *a, real=real, name=name:
                            calls.update([name]) or real(*a))
    got = spectral_gradient(f)
    assert calls == {"from_spectrum": grid.dimension, "_full": 1}
    assert [g.values.tobytes() for g in got] == [e.tobytes() for e in expect]


def test_synthesis_reads_half_multipliers():
    # synthesize sums the slices' half products under half-grid rows; its
    # bytes are those of the same sum under full-grid rows
    grid = Grid(2, 32, 4.0)
    scales = ScaleGrid.log_spaced(0.05, 20.0, 12)
    rng = np.random.default_rng(1)
    h = ScaleField(grid, scales, rng.standard_normal((scales.count,) + grid.shape))
    psi = make_builtin("annulus_bump")
    got = synthesize(h, psi, 0.1).values
    inside = np.flatnonzero((scales.scales > 0.1) & (scales.scales < 10.0))
    acc = 0.0
    for k, m in zip(inside, dilates(psi, grid, scales.scales[inside])):
        spec = to_spectrum(h.slice(k))
        acc += spec.values * (scales.log_width * m)[..., :spec.values.shape[-1]]
    expect = from_spectrum(fields._adopt(SpectralField, acc, grid=grid.frequency_grid())).values
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("grid", [Grid(1, 64, 4.0), Grid(2, 32, 4.0)], ids=["1d", "2d"])
@pytest.mark.parametrize("kernel", ["ddx", "complex_profile"])
def test_synthesis_under_a_complex_kernel_matches_the_complex_cast(grid, kernel):
    # a complex dilate is not Hermitian, so a real slice's product takes its
    # full expansion and the sum inverts as the complex field it is
    if kernel == "ddx":
        psi = _phi_gradient()
    else:
        k = make_builtin("gaussian")
        psi = type(k)("complex_gaussian", k.symbol, lambda r: k.profile(r) * (1 + 1j))
    scales = ScaleGrid.log_spaced(0.05, 20.0, 12)
    values = np.random.default_rng(2).standard_normal((scales.count,) + grid.shape)
    got = synthesize(ScaleField(grid, scales, values), psi, 0.1).values
    expect = synthesize(ScaleField(grid, scales, values.astype(complex)), psi, 0.1).values
    assert got.dtype == np.complex128
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
