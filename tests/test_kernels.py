import math

import numpy as np
import pytest

from lplab import (
    DecaySpec,
    Grid,
    KernelSpec,
    ScaleGrid,
    check_cancellation,
    check_decay_class,
    check_low_frequency_growth,
    check_nondegeneracy,
    make_builtin,
    power_tail_kernel,
    to_spectrum,
)
from lplab.kernels import CATALOG, _unit_directions, radial_symbol

from kernel_helpers import sample_kernel


def ray(vals):
    return np.asarray(vals, dtype=float)[np.newaxis, :]


WIDE_SCALES = ScaleGrid.log_spaced(1e-3, 1e2, 768)


class TestBuiltins:
    def test_poisson_derivative_symbol_values(self, poissonq):
        assert poissonq.symbol(ray([0.0]))[0] == 0.0
        v = poissonq.symbol(ray([1.0 / (2 * math.pi)]))[0]
        assert v == pytest.approx(-math.exp(-1), abs=1e-12)

    def test_annulus_plateau_and_support(self, annulus):
        assert annulus.symbol(ray([1.5]))[0] == 1.0
        assert annulus.symbol(ray([1.0]))[0] == 1.0
        assert annulus.symbol(ray([2.0]))[0] == 1.0
        assert annulus.symbol(ray([0.4]))[0] == 0.0
        assert annulus.symbol(ray([4.5]))[0] == 0.0

    def test_annulus_custom_radii(self):
        k = make_builtin("annulus_bump", [1.0, 1.2, 1.7, 2.0])
        assert k.symbol(ray([1.5]))[0] == 1.0
        assert k.symbol(ray([0.99]))[0] == 0.0
        assert k.symbol(ray([2.01]))[0] == 0.0

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_accepts_exactly_the_catalog_parameter_counts(self, name):
        for count in range(6):
            params = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0][:count]
            if count in CATALOG[name].counts:
                assert make_builtin(name, params).profile is not None
            else:
                with pytest.raises(ValueError, match=f"{name} takes "):
                    make_builtin(name, params)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_builtin("sinc")

    @pytest.mark.parametrize("name, params", [
        ("poissonQ", [7.0]), ("mexican_hat", [1.0]), ("gaussian", [1.0, 2.0]),
        ("annulus_bump", [0.5, 1.0, 2.0]), ("power_tail", []), ("power_tail", [1.0, 2.0]),
        ("gaussian", [math.nan]), ("gaussian", [math.inf]), ("gaussian", [0.0]),
        ("gaussian", [-1.0]), ("annulus_bump", [0.5, 1.0, 2.0, math.inf]),
        ("power_tail", [math.nan]),
    ])
    def test_bad_params_rejected(self, name, params):
        with pytest.raises(ValueError):
            make_builtin(name, params)

    def test_power_tail_by_name(self):
        k = make_builtin("power_tail", [1.5])
        assert k.name == "power_tail(1.5)"
        assert k.symbol(ray([2.0]))[0] == power_tail_kernel(1.5).symbol(ray([2.0]))[0]


class TestSampling:
    def test_gaussian_samples_closed_form(self, gaussian, grid1d_small):
        f = sample_kernel(gaussian, grid1d_small, 1.0)
        x = grid1d_small.axis_coords()
        assert np.max(np.abs(f.values - np.exp(-np.pi * x**2))) <= 1e-10

    def test_dilation_relates_spectra_exactly(self, poissonq, grid1d_small):
        f1 = sample_kernel(poissonq, grid1d_small, 1.0)
        f2 = sample_kernel(poissonq, grid1d_small, 2.0)
        xi = grid1d_small.frequency_grid().coords()
        s1 = to_spectrum(f1).values
        s2 = to_spectrum(f2).values
        expect = poissonq.symbol(2.0 * xi)
        assert np.max(np.abs(s2 - expect)) <= 1e-12
        assert np.max(np.abs(s1 - poissonq.symbol(xi))) <= 1e-12

    def test_mean_zero_kernel_integrates_to_zero(self, poissonq, grid1d_small):
        f = sample_kernel(poissonq, grid1d_small, 1.0)
        assert abs(np.sum(f.values) * grid1d_small.spacing) <= 1e-8

    def test_rejects_nonpositive_scale(self, gaussian, grid1d_small):
        with pytest.raises(ValueError):
            sample_kernel(gaussian, grid1d_small, 0.0)

    def test_radial_symbol_gives_even_samples(self, poissonq, grid1d_small):
        f = sample_kernel(poissonq, grid1d_small, 1.0)
        vals = f.values
        # x -> -x on the periodic grid: index i maps to (P - i) mod P
        flipped = np.roll(vals[::-1], 1)
        assert np.max(np.abs(vals - flipped)) <= 1e-10 * np.max(np.abs(vals))


class TestCancellation:
    def test_poisson_derivative_passes(self, poissonq):
        res = check_cancellation(poissonq)
        assert res.passed and res.residual == 0.0

    def test_gaussian_fails_with_unit_residual(self, gaussian):
        res = check_cancellation(gaussian)
        assert not res.passed
        assert res.residual == pytest.approx(1.0, abs=1e-14)

    def test_mexican_hat_passes(self):
        assert check_cancellation(make_builtin("mexican_hat")).passed


class TestNondegeneracy:
    def test_poisson_derivative_hits_inverse_e(self, poissonq):
        # closed form: sup of 2 pi s exp(-2 pi s) is e^-1 at s = 1/(2 pi)
        val = check_nondegeneracy(poissonq, WIDE_SCALES)
        assert val == pytest.approx(math.exp(-1), abs=1e-6)

    def test_gaussian_difference_matches_scan_oracle(self):
        spec = KernelSpec(
            "gauss_diff",
            radial_symbol(lambda r: np.exp(-np.pi * r**2) - np.exp(-4 * np.pi * r**2)),
        )
        val = check_nondegeneracy(spec, WIDE_SCALES)
        s = np.exp(np.linspace(np.log(1e-4), np.log(1e3), 2_000_001))
        oracle = float(np.max(np.exp(-np.pi * s**2) - np.exp(-4 * np.pi * s**2)))
        assert val == pytest.approx(oracle, abs=1e-6)

    def test_zero_symbol_is_degenerate(self):
        spec = KernelSpec("null", radial_symbol(lambda r: np.zeros_like(r)))
        assert check_nondegeneracy(spec, WIDE_SCALES) == 0.0

    def test_scale_invariance(self, poissonq):
        lam = 3.7
        dilated = KernelSpec(
            "dilated", lambda xi: poissonq.symbol(lam * np.asarray(xi))
        )
        a = check_nondegeneracy(poissonq, WIDE_SCALES)
        b = check_nondegeneracy(dilated, WIDE_SCALES)
        assert abs(a - b) <= 1e-6

    def test_requires_four_decades(self, poissonq):
        with pytest.raises(ValueError):
            check_nondegeneracy(poissonq, ScaleGrid.log_spaced(0.1, 1.0, 64))

    def test_two_dimensional_directions(self, poissonq):
        val = check_nondegeneracy(poissonq, WIDE_SCALES, dimension=2)
        assert val == pytest.approx(math.exp(-1), abs=1e-6)


class TestProbeRays:
    def test_one_ray_set_per_dimension(self):
        assert _unit_directions(1).tolist() == [[1.0], [-1.0]]
        rays = _unit_directions(2)
        assert rays.shape == (64, 2)
        assert rays[0].tolist() == [1.0, 0.0]  # the low-frequency probe's ray
        assert np.allclose(np.hypot(rays[:, 0], rays[:, 1]), 1.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("count", [4, 8, 16, 32])
    def test_coarser_equiangular_sets_are_exact_subsets(self, count):
        angles = 2.0 * np.pi * np.arange(count) / count
        coarse = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        assert np.array_equal(_unit_directions(2)[:: 64 // count], coarse)


class TestDecayClass:
    def test_poisson_derivative_beats_polynomial(self, poissonq):
        res = check_decay_class(poissonq, DecaySpec(2, 3.0), [2, 4, 8, 16, 32, 64])
        assert res.passed
        assert all(s < -3.0 for s in res.slopes.values())

    def test_compact_support_passes_vacuously(self, annulus):
        res = check_decay_class(annulus, DecaySpec(1, 7.0), [8, 16, 32])
        assert res.passed
        assert all(s is None for s in res.slopes.values())

    def test_slow_tail_fails(self):
        spec = KernelSpec(
            "inv", radial_symbol(lambda r: np.where(r > 1, 1.0 / np.maximum(r, 1e-30), 1.0))
        )
        res = check_decay_class(spec, DecaySpec(0, 2.0), [2, 4, 8, 16, 32])
        assert not res.passed
        assert res.slopes[(0,)] == pytest.approx(-1.0, abs=0.05)

    def test_rejects_radii_inside_neighborhood(self, poissonq):
        with pytest.raises(ValueError):
            check_decay_class(poissonq, DecaySpec(0, 1.0), [0.5, 4])


class TestLowFrequencyGrowth:
    def test_poisson_derivative_is_linear(self, poissonq):
        assert check_low_frequency_growth(poissonq) == pytest.approx(1.0, abs=0.05)

    def test_mexican_hat_is_quadratic(self):
        eps = check_low_frequency_growth(make_builtin("mexican_hat"))
        assert eps == pytest.approx(2.0, abs=0.05)

    def test_gaussian_has_no_growth(self, gaussian):
        assert check_low_frequency_growth(gaussian) < 0.1

    def test_vanishing_ray_rejected(self, annulus):
        with pytest.raises(ValueError):
            check_low_frequency_growth(annulus)


class TestCancellationClaims:
    def test_claimed_symbols_vanish_along_a_ray(self):
        for name in ("poissonQ", "mexican_hat", "annulus_bump"):
            k = make_builtin(name)
            r = np.array([1e-9, 1e-8, 1e-7])
            assert np.max(np.abs(k.symbol(ray(r)))) <= 1e-6
