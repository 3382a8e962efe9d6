import math
import re

import numpy as np
import pytest

from lplab import Grid, SampledField, a1_check, admissible_power_range, ap_characteristic
from lplab.weights import Weight

RADII = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 15.0)


class TestMaterialize:
    def test_constant(self, grid1d_small):
        w = Weight.const().materialize(grid1d_small)
        assert np.all(w.values == 1.0)

    def test_power_regularizes_singular_cell(self, grid1d_small):
        w = Weight.power(-0.5).materialize(grid1d_small)
        vals = w.values.real
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)
        h = grid1d_small.spacing
        # analytic cell average of |x|^a over the centered cell
        expect = (h / 2.0) ** -0.5 / 0.5
        assert vals[512] == pytest.approx(expect, rel=1e-12)

    def test_power_2d_singular_cell_finite(self):
        grid = Grid(2, 32, 4.0)
        vals = Weight.power(-0.5).materialize(grid).values.real
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)

    def test_rejects_nonintegrable_exponent(self, grid1d_small):
        with pytest.raises(ValueError):
            Weight.power(-1.5).materialize(grid1d_small)


class TestApCharacteristic:
    def test_unit_weight_is_exactly_one(self, grid1d_small):
        assert ap_characteristic(Weight.const(), 2.0, RADII, grid1d_small) == 1.0

    def test_admissible_power_is_stable(self, grid1d_small):
        # |x|^(1/2) lies in A_2 (exponent in (-1, 1)): estimate stabilizes in radius
        small = ap_characteristic(Weight.power(0.5), 2.0, (0.5, 1.0, 2.0), grid1d_small)
        large = ap_characteristic(Weight.power(0.5), 2.0, RADII, grid1d_small)
        assert large < 2.0 * small

    def test_inadmissible_power_diverges_with_radius(self):
        grid = Grid(1, 4096, 64.0)
        # |x|^2 is outside A_2 in 1-d: the centered-ball product grows
        small = ap_characteristic(Weight.power(2.0), 2.0, (0.5, 1.0), grid)
        large = ap_characteristic(Weight.power(2.0), 2.0, (16.0, 32.0, 63.0), grid)
        assert large > 10.0 * small

    def test_homogeneity_degree_zero(self, grid1d_small):
        base = Weight.power(0.5).materialize(grid1d_small)
        v1 = ap_characteristic(Weight.power(0.5), 2.0, RADII, grid1d_small)

        class Scaled:  # 7.3 |x|^(1/2), sampled
            def materialize(self, grid):
                return SampledField(grid, 7.3 * base.values)

        v2 = ap_characteristic(Scaled(), 2.0, RADII, grid1d_small)
        assert v2 == pytest.approx(v1, rel=1e-12)

    def test_nonincreasing_in_p(self, grid1d_small):
        vals = [ap_characteristic(Weight.power(0.5), p, RADII, grid1d_small)
                for p in (1.5, 2.0, 3.0, 4.0)]
        assert all(b <= a + 1e-8 for a, b in zip(vals, vals[1:]))

    def test_rejects_p_at_most_one(self, grid1d_small):
        with pytest.raises(ValueError):
            ap_characteristic(Weight.const(), 1.0, RADII, grid1d_small)

    @pytest.mark.parametrize("p", [math.inf, math.nan])
    def test_rejects_p_that_is_not_finite(self, grid1d_small, p):
        with pytest.raises(ValueError, match="needs 1 < p < inf"):
            ap_characteristic(Weight.power(0.5), p, RADII, grid1d_small)

    @pytest.mark.parametrize("grid", [Grid(1, 64, 4.0), Grid(2, 16, 4.0)], ids=["1d", "2d"])
    def test_rejects_an_empty_radius_list(self, grid):
        with pytest.raises(ValueError, match="at least one ball radius"):
            ap_characteristic(Weight.const(), 2.0, (), grid)

    @pytest.mark.parametrize("grid", [Grid(1, 64, 4.0), Grid(2, 16, 4.0)], ids=["1d", "2d"])
    @pytest.mark.parametrize("bad", [-5.0, -2.0, 0.0, math.nan, math.inf, -math.inf])
    def test_rejects_a_radius_that_is_not_positive_and_finite(self, grid, bad):
        with pytest.raises(ValueError, match=re.escape(f"positive and finite, got {bad}")):
            ap_characteristic(Weight.power(0.5), 2.0, (1.0, bad), grid)

    def test_a_nan_product_makes_the_estimate_nan(self, grid1d_small):
        class NanAtOneCell:  # a weight whose samples hold one NaN
            def materialize(self, grid):
                vals = np.ones(grid.shape)
                vals[3] = math.nan
                return SampledField(grid, vals)

        assert math.isnan(ap_characteristic(NanAtOneCell(), 2.0, RADII, grid1d_small))

    def test_2d_unit_weight(self):
        grid = Grid(2, 32, 4.0)
        assert ap_characteristic(Weight.const(), 2.0, (0.5, 1.0, 2.0), grid) \
            == pytest.approx(1.0, abs=1e-12)


class TestA1:
    def test_constant_weight(self, grid1d_small):
        assert a1_check(Weight.const(), grid1d_small) == 1.0

    def test_decreasing_power_is_a1(self, grid1d_small):
        big_box = Grid(1, 4096, 64.0)
        small = a1_check(Weight.power(-0.5), grid1d_small)
        large = a1_check(Weight.power(-0.5), big_box)
        assert large < 2.0 * small  # stable under box growth

    def test_increasing_power_is_not_a1(self, grid1d_small):
        small = a1_check(Weight.power(0.5), grid1d_small)
        large = a1_check(Weight.power(0.5), Grid(1, 4096, 64.0))
        assert large > 1.2 * small  # grows with the box


class TestWeightValidation:
    @pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_exponent(self, a):
        with pytest.raises(ValueError, match="exponent must be finite"):
            Weight.power(a)

    def test_rejects_an_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown weight kind"):
            Weight("custom")


class TestAdmissibleRange:
    def test_matches_power_weight_theory(self):
        lo, hi = admissible_power_range(2.0, 2.0, 1)
        assert lo == -1.0 and hi == 3.0

    def test_rejects_sub_one_index(self):
        with pytest.raises(ValueError):
            admissible_power_range(0.25, 1.0, 1)
