import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lplab import (
    Grid,
    KernelSpec,
    ScaleGrid,
    build_partition,
    build_zeta,
    constant_multiplier,
    coordinate_multiplier,
    decompose_psi,
    derived_kernel,
    find_intervals,
    make_builtin,
    reproduction_residual,
)
from lplab.kernels import radial_symbol


def ray(vals):
    return np.asarray(vals, dtype=float)[np.newaxis, :]


class TestFindIntervals:
    def test_poisson_derivative_single_interval(self, q_cover):
        assert len(q_cover.intervals) == 1
        a, b = q_cover.intervals[0]
        # the window on which |Q_hat| stays >= e^-1/sqrt(2) contains [1/(4pi), 1/pi]
        assert a <= 1.0 / (4 * math.pi) and b >= 1.0 / math.pi
        assert 0 < q_cover.b0 <= 0.25

    def test_squared_sum_stays_above_threshold(self, q_cover):
        a, b = q_cover.intervals[0]
        s = np.linspace(a, b, 10001)
        profile = (2 * np.pi * s * np.exp(-2 * np.pi * s)) ** 2
        assert profile.min() >= 0.5 * q_cover.squared_infimum * (1 - 1e-6)

    def test_measured_infimum_matches_scan(self, q_cover):
        # grid-resolution estimate of sup (2 pi s e^{-2 pi s})^2 = e^-2
        assert q_cover.squared_infimum == pytest.approx(math.exp(-2), rel=1e-4)
        assert q_cover.squared_infimum <= math.exp(-2)

    def test_annulus_interval_covers_plateau(self, annulus_cover):
        a, b = annulus_cover.intervals[0]
        assert a <= 1.0 and b >= 2.0
        assert annulus_cover.b0 <= 0.5

    def test_degenerate_family_rejected(self):
        null = KernelSpec("null", radial_symbol(lambda r: np.zeros_like(r)))
        with pytest.raises(ValueError):
            find_intervals(null)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2048), st.integers(1, 4)), min_size=1, max_size=6))
    def test_first_widest_window_matches_a_per_sample_scan(self, runs):
        ts = ScaleGrid.log_spaced(1e-4, 1e4, 2049).scales[::-1]  # find_intervals' scan
        above = np.zeros(ts.size, dtype=bool)
        for start, length in runs:
            above[start : start + length] = True
        table = np.where(above, 1.0, 0.5)  # squared: 1 above, 1/4 below the threshold 1/2
        step = KernelSpec("step", lambda xi: table[np.searchsorted(ts, np.abs(xi[0]))])
        best, start = None, None  # the first widest run, by a scan of every sample
        for i, flag in enumerate(np.append(above, False)):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                if best is None or (i - 1 - start) > (best[1] - best[0]):
                    best = (start, i - 1)
                start = None
        if best[0] == best[1]:
            with pytest.raises(ValueError, match="single sample"):
                find_intervals(step)
        else:
            assert find_intervals(step).intervals == ((ts[best[0]], ts[best[1]]),)


class TestPartition:
    @pytest.mark.parametrize("b_choice", ["b0", "mid", 0.9])
    @pytest.mark.parametrize("kernel", ["poissonQ", "annulus_bump"])
    def test_reproducing_identity(self, kernel, b_choice):
        phi = make_builtin(kernel)
        cover = find_intervals(phi)
        if b_choice == "b0":
            b = cover.b0
        elif b_choice == "mid":
            b = (cover.b0 + 1.0) / 2.0
        else:
            b = b_choice
        P = build_partition(phi, b, cover)
        assert reproduction_residual(P) <= 1e-10

    def test_eta_supported_in_annulus(self, annulus_partition):
        P = annulus_partition
        r = np.linspace(1e-3, 3 * P.r2, 4096)
        vals = P.eta_symbol(ray(r))
        outside = (r <= P.r1) | (r >= P.r2)
        assert np.max(np.abs(vals[outside])) <= 1e-14

    def test_eta_real_nonnegative_for_annulus(self, annulus_partition):
        r = np.linspace(1e-3, 10.0, 4096)
        vals = annulus_partition.eta_symbol(ray(r))
        assert np.max(np.abs(vals.imag)) == 0.0
        assert vals.real.min() >= 0.0

    def test_normalizer_log_periodic(self, annulus_partition):
        P = annulus_partition
        xi = ray([0.9, 1.7, 3.3])
        base = P.psi_big(xi)
        for k in (-3, -2, -1, 1, 2, 3):
            shifted = P.psi_big(P.b**k * xi)
            assert np.max(np.abs(shifted - base)) <= 1e-10 * np.max(base)

    def test_reproducing_sum_dilation_consistent(self, q_partition):
        P = q_partition
        xi = ray(np.exp(np.linspace(np.log(P.r1), np.log(P.r2), 64)))
        s1 = P.reproducing_sum(xi)
        s2 = P.reproducing_sum(P.b * xi)
        assert np.max(np.abs(s1 - s2)) <= 1e-12

    def test_eta_gradient_bounded_on_annulus(self, q_partition):
        P = q_partition
        r = np.exp(np.linspace(np.log(P.r1 * 1.05), np.log(P.r2 * 0.95), 512))
        h = 1e-6
        d = (P.eta_symbol(ray(r + h)) - P.eta_symbol(ray(r - h))) / (2 * h)
        assert np.all(np.isfinite(d))
        assert np.max(np.abs(d)) < 1e4

    def test_rejects_b_below_b0(self, poissonq, q_cover):
        with pytest.raises(ValueError):
            build_partition(poissonq, q_cover.b0 / 2, q_cover)

    def test_two_dimensional_reproduction(self, poissonq):
        cover = find_intervals(poissonq, dimension=2)
        assert cover.dimension == 2  # build_partition probes the normalizer on 2-d rays
        P = build_partition(poissonq, 0.5, cover)
        assert P.dimension == 2  # and reproduction_residual scans 2-d rays
        assert reproduction_residual(P) <= 1e-10


class TestZeta:
    def test_plateau_inside(self, q_partition):
        z = build_zeta(q_partition, 1.0)
        r = np.linspace(1e-4, q_partition.r1 * 0.999, 512)
        assert np.max(np.abs(z(ray(r)) - 1.0)) <= 1e-12

    def test_vanishes_outside(self, q_partition):
        z = build_zeta(q_partition, 1.0)
        r = np.linspace(q_partition.r2 * 1.001, 50.0, 512)
        assert np.max(np.abs(z(ray(r)))) <= 1e-12

    def test_endpoint_values(self, q_partition):
        z = build_zeta(q_partition, 1.0)
        assert abs(z(ray([q_partition.r2]))[0]) <= 1e-12
        assert z(ray([q_partition.r1 / 2]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_support_scales_with_j(self, q_partition):
        z = build_zeta(q_partition, 4.0)
        P = q_partition
        r_in = np.linspace(1e-4, P.r1 / 4 * 0.999, 128)
        r_out = np.linspace(P.r2 / 4 * 1.001, 20.0, 128)
        assert np.max(np.abs(z(ray(r_in)) - 1.0)) <= 1e-12
        assert np.max(np.abs(z(ray(r_out)))) <= 1e-12

    def test_rejects_nonpositive_j(self, q_partition):
        with pytest.raises(ValueError):
            build_zeta(q_partition, 0.0)


class TestDecomposition:
    GRID = Grid(1, 2048, 32.0)

    def _truncation(self, P):
        ximax = self.GRID.frequency_grid().half_extent
        return math.ceil(math.log(ximax / P.r1) / math.log(1 / P.b)) + 1

    def test_self_decomposition_telescopes(self, q_partition, poissonq):
        res = decompose_psi(
            q_partition, poissonq, constant_multiplier(1.0), 1.0,
            self._truncation(q_partition), self.GRID,
        )
        assert res.residual_admissible <= 1e-8
        assert res.admissible_radius >= self.GRID.frequency_grid().half_extent

    def test_vanishing_symbol_gives_zero_beta(self, q_partition, annulus):
        A = 2.4 * q_partition.r2
        res = decompose_psi(
            q_partition, annulus, constant_multiplier(0.0), A,
            self._truncation(q_partition), self.GRID,
        )
        assert res.residual_admissible <= 1e-8
        xi = ray(np.linspace(-8, 8, 1001))
        assert np.max(np.abs(res.beta_symbol(xi))) == 0.0

    def test_derivative_multiplier_beta_is_odd_imaginary(self, q_partition, poissonq):
        xi_mult = coordinate_multiplier(0)
        dq = derived_kernel("ddx_Q", poissonq, xi_mult)
        res = decompose_psi(
            q_partition, dq, xi_mult, 1.0, self._truncation(q_partition), self.GRID
        )
        assert res.residual_admissible <= 1e-8
        xi = ray(np.linspace(-8, 8, 1001))
        beta = res.beta_symbol(xi)
        assert np.max(np.abs(beta.real)) == 0.0
        assert np.max(np.abs(beta + beta[::-1])) <= 1e-12

    def test_near_origin_violation_rejected(self, q_partition, annulus):
        # Theta = 1 claims psi_hat = phi_hat near 0, false for the annulus bump
        with pytest.raises(ValueError, match="near-origin"):
            decompose_psi(
                q_partition, annulus, constant_multiplier(1.0), 1.0,
                self._truncation(q_partition), self.GRID,
            )

    def test_alpha_symbols_compose_kernel_and_eta(self, q_partition, poissonq):
        res = decompose_psi(
            q_partition, poissonq, constant_multiplier(1.0), 1.0,
            self._truncation(q_partition), self.GRID,
        )
        j = res.j_range[2]
        xi = ray(np.exp(np.linspace(np.log(q_partition.r1), np.log(q_partition.r2), 64)))
        expect = poissonq.symbol(q_partition.b ** (-j) * xi) * q_partition.eta_symbol(xi)
        assert np.max(np.abs(res.alpha_symbols[j](xi) - expect)) == 0.0
