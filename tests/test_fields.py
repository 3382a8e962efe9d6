import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lplab import (
    Grid,
    SampledField,
    ScaleGrid,
    SpectralField,
    field_from_function,
    from_spectrum,
    lp_norm,
    scale_integral,
    to_spectrum,
    weighted_lp_norm,
)
from lplab import fields
from lplab.kernels import make_builtin
from lplab.maximal import GrandMaxConfig
from lplab.transforms import ScaleField, g_function, synthesize

from kernel_helpers import sample_kernel


def gaussian_field(grid):
    return field_from_function(grid, lambda x: np.exp(-np.pi * x[0] ** 2))


class TestGrid:
    def test_spacing_times_points_is_period(self):
        for p in (4, 64, 4096):
            g = Grid(1, p, 16.0)
            assert g.spacing * g.points_per_axis == 2.0 * g.half_extent

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            Grid(1, 100, 16.0)
        with pytest.raises(ValueError):
            Grid(1, 2, 16.0)

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            Grid(3, 64, 16.0)

    def test_rejects_infinite_half_extent(self):
        with pytest.raises(ValueError):
            Grid(1, 1024, math.inf)

    @pytest.mark.parametrize("extent", [1e308, 1e-310, 1e200, 1e-200])
    def test_rejects_extent_with_non_finite_spacing_or_dual(self, extent):
        # 1e308: 2E overflows the spacing; 1e-310: P / (4E) overflows the dual
        # extent; 1e200 and 1e-200: both spacings are finite, but in 2-d the
        # cell volume spacing ** 2 of the grid (1e200) or of its dual (1e-200)
        # overflows
        with pytest.raises(ValueError, match="both must be positive and finite"):
            Grid(2, 8, extent)

    def test_spatial_grid_keeps_its_dual(self, monkeypatch):
        g = Grid(2, 8, 2.0)
        assert g.frequency_grid() is g.frequency_grid()
        assert g.frequency_grid().frequency_grid() is g
        f = SampledField(Grid(1, 64, 4.0), np.ones(64))
        made = []
        post_init = Grid.__post_init__

        def counted(grid):
            made.append(grid)
            post_init(grid)

        monkeypatch.setattr(Grid, "__post_init__", counted)
        for _ in range(3):
            assert from_spectrum(to_spectrum(f)).grid is f.grid
        assert len(made) == 1  # the dual, made once and kept

    def test_frequency_grid_spacing_is_reciprocal_period(self):
        g = Grid(1, 1024, 16.0)
        fg = g.frequency_grid()
        assert fg.spacing == pytest.approx(1.0 / (2.0 * g.half_extent), abs=0)


@settings(max_examples=60, deadline=None)
@given(extent=st.floats(0.01, 1000.0))
@example(extent=7.63590082962187)  # P / (4 * (P / (4E))) rounds to another E here
def test_round_trip_keeps_the_grid(extent):
    g = Grid(1, 64, extent)
    assert g.frequency_grid().frequency_grid() == g
    f = SampledField(g, np.random.default_rng(0).standard_normal(g.shape))
    back = from_spectrum(to_spectrum(f))
    assert back.grid == g
    assert weighted_lp_norm(back, SampledField(g, np.ones(g.shape)), 2.0) > 0
    assert sample_kernel(make_builtin("gaussian"), g, 1.0).grid == g
    scales = ScaleGrid.geometric(4.0, 0.5, 5)
    h = ScaleField(g, scales, np.ones((scales.count,) + g.shape))
    assert synthesize(h, make_builtin("poissonQ"), 0.5).grid == g


class TestTransforms:
    def test_gaussian_is_own_transform(self, grid1d_small):
        # a real field's spectrum is its half, the frequencies -P/2 ... 0
        F = to_spectrum(gaussian_field(grid1d_small))
        xi = F.grid.axis_coords()[: F.values.size]
        assert np.max(np.abs(F.values - np.exp(-np.pi * xi**2))) <= 1e-10

    def test_zero_maps_to_zero(self, grid1d_small):
        F = to_spectrum(SampledField(grid1d_small, np.zeros(1024)))
        assert np.all(F.values == 0)

    def test_modulation_splits_the_peak(self, grid1d_small):
        f = field_from_function(
            grid1d_small, lambda x: np.exp(-np.pi * x[0] ** 2) * np.cos(2 * np.pi * x[0])
        )
        F = fields._full(to_spectrum(f))  # the full axis: both peaks
        xi = to_spectrum(f).grid.axis_coords()
        expect = 0.5 * (np.exp(-np.pi * (xi - 1) ** 2) + np.exp(-np.pi * (xi + 1) ** 2))
        assert np.max(np.abs(F - expect)) <= 1e-10
        peaks = xi[np.argsort(np.abs(F))[-2:]]
        assert set(np.round(np.abs(peaks), 6)) == {1.0}

    def test_round_trip(self, grid1d_small, rng):
        vals = rng.standard_normal(1024) + 1j * rng.standard_normal(1024)
        f = SampledField(grid1d_small, vals)
        back = from_spectrum(to_spectrum(f))
        assert np.max(np.abs(back.values - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_inverse_of_zero(self, grid1d_small):
        fg = grid1d_small.frequency_grid()
        f = from_spectrum(SpectralField(fg, np.zeros(1024)))
        assert np.all(f.values == 0)

    def test_inverse_of_spectral_gaussian(self, grid1d_small):
        fg = grid1d_small.frequency_grid()
        xi = fg.axis_coords()
        f = from_spectrum(SpectralField(fg, np.exp(-np.pi * xi**2)))
        x = grid1d_small.axis_coords()
        assert np.max(np.abs(f.values - np.exp(-np.pi * x**2))) <= 1e-10

    def test_parseval_on_band_limited_fields(self, grid1d, rng):
        fg = grid1d.frequency_grid()
        xi = fg.axis_coords()
        for _ in range(3):
            spec = np.exp(-((np.abs(xi) - 2.0) ** 2)) * rng.standard_normal(xi.size)
            spec = spec + spec[::-1]  # real field
            f = from_spectrum(SpectralField(fg, spec))
            space = lp_norm(f, 2.0)
            freq = math.sqrt(float(np.sum(np.abs(spec) ** 2)) * fg.cell_volume)
            assert abs(space - freq) <= 1e-10 * freq


class TestLpNorm:
    def test_zero(self, grid1d_small):
        assert lp_norm(SampledField(grid1d_small, np.zeros(1024)), 1.0) == 0.0

    def test_gaussian_l2(self, grid1d_small):
        # integral of exp(-2 pi x^2) is 2^(-1/2)
        assert lp_norm(gaussian_field(grid1d_small), 2.0) == pytest.approx(2**-0.25, abs=1e-6)

    def test_unit_mass_bump_l1(self):
        grid = Grid(1, 4096, 4.0)
        mass = quad(lambda s: math.exp(-1.0 / (1.0 - s * s)), -1, 1)[0]

        def bump(x):
            inside = np.abs(x[0]) < 1
            out = np.zeros(x.shape[1:])
            out[inside] = np.exp(-1.0 / (1.0 - x[0][inside] ** 2)) / mass
            return out

        f = field_from_function(grid, bump)
        assert lp_norm(f, 1.0) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_p(self, grid1d_small):
        with pytest.raises(ValueError):
            lp_norm(gaussian_field(grid1d_small), 0.0)

    def test_quasi_norm_accepts_small_p(self, grid1d_small):
        assert lp_norm(gaussian_field(grid1d_small), 0.5) > 0

    def test_translation_invariance(self, grid1d_small, rng):
        # shifts permute the summands; pairwise summation may regroup them,
        # so invariance holds to round-off rather than bitwise
        vals = rng.standard_normal(1024)
        a = lp_norm(SampledField(grid1d_small, vals), 1.7)
        b = lp_norm(SampledField(grid1d_small, np.roll(vals, 137)), 1.7)
        assert b == pytest.approx(a, rel=1e-13)

    def test_homogeneity(self, grid1d_small, rng):
        vals = rng.standard_normal(1024)
        f = SampledField(grid1d_small, vals)
        g = SampledField(grid1d_small, -2.5 * vals)
        for p in (0.5, 1.0, 2.0):
            assert lp_norm(g, p) == pytest.approx(2.5 * lp_norm(f, p), rel=1e-13)


@pytest.mark.parametrize("x", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize("call", [
    lambda f, x: lp_norm(f, x),
    lambda f, x: weighted_lp_norm(f, SampledField(f.grid, np.ones(f.grid.shape)), x),
    lambda f, x: scale_integral(np.ones((4,) + f.grid.shape), ScaleGrid.geometric(1.0, 0.5, 4), x),
    # the discrete square function: g on the two-rung ladder t = 1, 1/2
    lambda f, x: g_function(f, make_builtin("gaussian"), ScaleGrid.geometric(1.0, 0.5, 2), x),
], ids=["lp_norm", "weighted_lp_norm", "scale_integral", "g_discrete"])
def test_exponent_outside_open_half_line_rejected(call, x, grid1d_small):
    with pytest.raises(ValueError, match="must be positive and finite"):
        call(gaussian_field(grid1d_small), x)


class TestWeightedNorm:
    def test_unit_weight_matches_lp(self, grid1d_small, rng):
        vals = rng.standard_normal(1024)
        f = SampledField(grid1d_small, vals)
        w = SampledField(grid1d_small, np.ones(1024))
        for p in (0.7, 2.0):
            assert weighted_lp_norm(f, w, p) == lp_norm(f, p)

    def test_zero_field(self, grid1d_small):
        w = SampledField(grid1d_small, np.ones(1024))
        assert weighted_lp_norm(SampledField(grid1d_small, np.zeros(1024)), w, 2.0) == 0.0

    def test_gaussian_against_quadrature(self, grid1d_small):
        f = gaussian_field(grid1d_small)
        x = grid1d_small.axis_coords()
        w = SampledField(grid1d_small, 1.0 + x**2)
        oracle = quad(lambda s: math.exp(-2 * math.pi * s * s) * (1 + s * s), -16, 16)[0]
        assert weighted_lp_norm(f, w, 2.0) == pytest.approx(math.sqrt(oracle), abs=1e-8)

    def test_grid_mismatch_rejected(self, grid1d_small, grid1d):
        f = gaussian_field(grid1d_small)
        w = SampledField(grid1d, np.ones(4096))
        with pytest.raises(ValueError):
            weighted_lp_norm(f, w, 2.0)

    def test_negative_weight_rejected(self, grid1d_small):
        f = gaussian_field(grid1d_small)
        w = SampledField(grid1d_small, -np.ones(1024))
        with pytest.raises(ValueError):
            weighted_lp_norm(f, w, 2.0)

    @pytest.mark.parametrize("bad", [complex(1.0, math.nan), math.nan, complex(math.nan, 0.0),
                                     complex(1.0, 1e-300), -1e-300],
                             ids=["nan-imag", "nan", "nan-real", "tiny-imag", "tiny-negative"])
    def test_weight_sample_not_nonnegative_real_rejected(self, bad):
        # a NaN fails both checks: it neither equals 0 nor is >= 0
        grid = Grid(1, 8, 1.0)
        w = np.ones(8, dtype=complex)
        w[2] = bad
        with pytest.raises(ValueError, match="weight must be nonnegative real"):
            weighted_lp_norm(SampledField(grid, np.ones(8)), SampledField(grid, w), 2.0)


class TestScaleGrid:
    def test_scales_strictly_decreasing(self):
        with pytest.raises(ValueError, match="strictly decreasing"):
            ScaleGrid(np.array([1.0, 1.0, 0.5]), 0.5)
        with pytest.raises(ValueError, match="strictly decreasing"):
            ScaleGrid(np.array([0.5, 1.0]), 0.5)
        with pytest.raises(ValueError, match="positive and finite"):
            ScaleGrid(np.array([1.0, -0.5]), 0.5)

    def test_geometric_ratio_constant(self):
        sg = ScaleGrid.geometric(4.0, 0.5, 8)
        ratios = sg.scales[1:] / sg.scales[:-1]
        assert np.allclose(ratios, 0.5, rtol=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="nonempty"):
            ScaleGrid(np.array([]), 0.5)

    def test_rejects_nan_scale(self):
        with pytest.raises(ValueError, match="positive and finite"):
            ScaleGrid(np.array([np.nan, 1.0]), 0.5)

    def test_ratio_is_required(self):
        with pytest.raises(TypeError):
            ScaleGrid(np.array([1.0, 0.5]))

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, -0.5, math.nan, math.inf])
    def test_rejects_ratio_outside_the_open_unit_interval(self, ratio):
        with pytest.raises(ValueError, match="ratio must lie in"):
            ScaleGrid(np.array([1.0]), ratio)

    def test_geometric_rejects_infinite_t_max(self):
        with pytest.raises(ValueError):
            ScaleGrid.geometric(math.inf, 0.5, 3)

    def test_rejects_ratio_the_scales_do_not_have(self):
        # the log weights would be log 2 where the log spacing is log 10
        with pytest.raises(ValueError, match="ratio of consecutive scales"):
            ScaleGrid(np.array([1.0, 0.1, 0.01]), ratio=0.5)
        assert ScaleGrid(np.array([1.0, 0.1, 0.01]), ratio=0.1).ratio == 0.1
        assert ScaleGrid(np.array([1.0]), ratio=0.5).ratio == 0.5

    @pytest.mark.parametrize("t_min, t_max, count", [(1e-4, 1e4, 2049), (1e-4, 1e2, 128),
                                                     (1e-150, 1e150, 7)])
    def test_log_spaced_passes_the_ratio_check(self, t_min, t_max, count):
        assert 0 < ScaleGrid.log_spaced(t_min, t_max, count).ratio < 1

    @pytest.mark.parametrize("wrap", [lambda sg: sg, GrandMaxConfig], ids=["grid", "grand"])
    def test_equality_and_hash_go_by_identity(self, wrap):
        sg = ScaleGrid.log_spaced(0.1, 1.0, 4)
        a, b = wrap(sg), wrap(ScaleGrid.log_spaced(0.1, 1.0, 4))
        assert (a == a, a == b, a != b) == (True, False, True)
        assert hash(a) == hash(wrap(sg)) and len({a, b}) == 2


class TestScaleIntegral:
    def test_zero(self):
        sg = ScaleGrid.log_spaced(1e-2, 1e2, 32)
        assert scale_integral(np.zeros(32), sg, 2.0) == 0.0

    def test_exponential_profile(self):
        # integral of (t e^-t)^2 dt/t = 1/4, so the q=2 value is 1/2
        sg = ScaleGrid.log_spaced(1e-3, 1e2, 400)
        u = sg.scales * np.exp(-sg.scales)
        assert scale_integral(u, sg, 2.0) == pytest.approx(0.5, abs=1e-3)

    def test_constant_integrand(self):
        sg = ScaleGrid.geometric(1.0, 0.25, 9)
        assert scale_integral(np.ones(9), sg, 1.0) == pytest.approx(
            9 * math.log(4.0), abs=1e-12
        )

    def test_rejects_nonpositive_q(self):
        sg = ScaleGrid.log_spaced(1e-2, 1e2, 8)
        with pytest.raises(ValueError):
            scale_integral(np.ones(8), sg, 0.0)

    def test_broadcasts_over_space(self):
        sg = ScaleGrid.geometric(1.0, 0.5, 4)
        u = np.ones((4, 7))
        out = scale_integral(u, sg, 1.0)
        assert out.shape == (7,)
        assert np.allclose(out, 4 * math.log(2.0))


class TestImmutability:
    def test_field_values_read_only(self, grid1d_small):
        f = gaussian_field(grid1d_small)
        with pytest.raises(ValueError):
            f.values[0] = 1.0
