import gc
import logging
import math
import weakref

import numpy as np
import pytest

from lplab import (
    Atom,
    GrandMaxConfig,
    Grid,
    SampledField,
    ScaleField,
    ScaleGrid,
    calderon_normalize,
    conjugate_kernel,
    field_from_function,
    from_spectrum,
    g_discrete,
    g_function,
    grand_max,
    lp_norm,
    make_atom,
    make_builtin,
    scale_integral,
    scale_transform,
    synthesize,
    to_spectrum,
    validate_atom,
)
from lplab.families import FamilyMember
from lplab.fields import SpectralField
from lplab.kernels import plateau, radial_kernel


def gaussian_field(grid):
    return field_from_function(grid, lambda x: np.exp(-np.pi * x[0] ** 2))


def band_member(grid, lam=1.0, seed=7):
    return FamilyMember("band_noise", lam, 0.0, seed).sample(grid, demean=False)


class TestScaleTransform:
    def test_zero_field(self, grid1d_small, poissonq):
        sg = ScaleGrid.log_spaced(0.1, 10.0, 8)
        E = scale_transform(SampledField(grid1d_small, np.zeros(1024)), poissonq, sg)
        assert np.max(np.abs(E.values)) == 0.0

    def test_spot_value_against_closed_forms(self, poissonq):
        grid = Grid(1, 2048, 16.0)
        f = gaussian_field(grid)
        E = scale_transform(f, poissonq, ScaleGrid(np.array([1.0])))
        spec = to_spectrum(E.slice(0))
        xi = spec.grid.axis_coords()
        i = int(np.argmin(np.abs(xi - 1.0)))
        expect = -2 * math.pi * math.exp(-2 * math.pi) * math.exp(-math.pi)
        assert spec.values[i].real == pytest.approx(expect, rel=1e-10)
        assert abs(spec.values[i].imag) <= 1e-12

    def test_gaussian_small_scale_approximate_identity(self, gaussian):
        grid = Grid(1, 2048, 16.0)
        f = band_member(grid)
        E = scale_transform(f, gaussian, ScaleGrid(np.array([1e-3])))
        resid = lp_norm(SampledField(grid, E.values[0] - f.values), 2.0) / lp_norm(f, 2.0)
        assert resid <= 1e-3


class TestGFunction:
    def test_zero(self, grid1d_small, poissonq):
        sg = ScaleGrid.log_spaced(0.1, 10.0, 8)
        g = g_function(SampledField(grid1d_small, np.zeros(1024)), poissonq, sg)
        assert np.max(g.values.real) == 0.0

    def test_plancherel_constant_for_poisson_derivative(self, poissonq):
        # integral of (2 pi s e^{-2 pi s})^2 ds/s = 1/4: the L2 ratio is 1/2
        grid = Grid(1, 4096, 16.0)
        sg = ScaleGrid.log_spaced(1e-4, 1e2, 128)
        for seed in (1, 2):
            f = band_member(grid, seed=seed)
            ratio = lp_norm(g_function(f, poissonq, sg, 2.0), 2.0) / lp_norm(f, 2.0)
            assert ratio == pytest.approx(0.5, rel=0.01)

    def test_translation_covariance_exact(self, poissonq, grid1d_small):
        sg = ScaleGrid.log_spaced(1e-2, 10.0, 24)
        f = band_member(grid1d_small)
        g1 = g_function(f, poissonq, sg, 2.0).values.real
        shifted = SampledField(grid1d_small, np.roll(f.values, 77))
        g2 = g_function(shifted, poissonq, sg, 2.0).values.real
        assert np.max(np.abs(np.roll(g1, 77) - g2)) <= 1e-12 * np.max(g1)

    def test_dilation_covariance(self, annulus):
        # box large enough that the wrapped spatial tails of the annulus
        # kernel (Gevrey decay) stay below the comparison tolerance
        grid = Grid(1, 8192, 32.0)
        lam = 2.0
        tf = FamilyMember("band_noise", 1.0, 0.0, 3)
        tf_lam = FamilyMember("band_noise", lam, 0.0, 3)
        f = tf.sample(grid, demean=False)
        f_lam = tf_lam.sample(grid, demean=False)
        sg = ScaleGrid.geometric(64.0, 2 ** -0.125, 97)  # closed under t -> 2t
        g1 = g_function(f, annulus, sg, 2.0).values.real
        g2 = g_function(f_lam, annulus, sg, 2.0).values.real
        c = 4096
        half = int(2.5 / grid.spacing)
        idx = np.arange(c - half, c + half + 1)
        mapped = c + (idx - c) * 2
        assert np.max(np.abs(g2[idx] - g1[mapped])) <= 1e-8 * np.max(g1)

    def test_plancherel_multiplier_identity(self, poissonq, annulus):
        # ||g_psi(f)||_2^2 = integral |f_hat|^2 m(xi) dxi with the multiplier
        # computed by an independent dense quadrature
        grid = Grid(1, 4096, 16.0)
        sg = ScaleGrid.log_spaced(1e-4, 1e2, 128)
        f = band_member(grid, seed=11)
        spec = to_spectrum(f)
        xi = spec.grid.coords()
        r = np.sqrt(np.sum(xi**2, axis=0))
        u = np.exp(np.linspace(math.log(1e-5), math.log(1e3), 1 << 14))
        du = math.log(u[1] / u[0])
        for psi in (poissonq, annulus):
            lhs = lp_norm(g_function(f, psi, sg, 2.0), 2.0) ** 2
            vals = np.zeros(r.shape)
            rr = r[r > 0]
            m = np.zeros(rr.shape)
            for block in np.array_split(u, 64):
                pts = (block[:, None] * rr[None, :])[None]
                m += np.sum(np.abs(np.asarray(psi.symbol(pts))) ** 2, axis=0) * du
            vals[r > 0] = m
            rhs = float(np.sum(np.abs(spec.values) ** 2 * vals)) * spec.grid.cell_volume
            assert lhs == pytest.approx(rhs, rel=0.005)


class TestGDiscrete:
    def test_zero(self, grid1d_small, poissonq):
        g = g_discrete(SampledField(grid1d_small, np.zeros(1024)), poissonq, 0.5,
                       range(-4, 5), 2.0)
        assert np.max(g.values.real) == 0.0

    def test_support_arithmetic_kills_far_scales(self, annulus):
        grid = Grid(1, 2048, 16.0)
        fg = grid.frequency_grid()
        xi = fg.axis_coords()
        from lplab.kernels import plateau
        spec = plateau(np.abs(xi), 1.0, 1.2, 1.7, 2.0).astype(complex)
        f = from_spectrum(SpectralField(fg, spec))
        peak = np.max(np.abs(f.values))
        for j in (-6, -5, -4, 4, 5, 6):
            term = g_discrete(f, annulus, 0.5, [j], 2.0)
            assert np.max(term.values.real) <= 1e-14 * peak

    def test_riemann_consistency_near_one(self, poissonq):
        grid = Grid(1, 2048, 16.0)
        sg = ScaleGrid.log_spaced(1e-3, 1e2, 128)
        b = 0.99
        j_lo = math.ceil(math.log(sg.t_max) / math.log(b))
        j_hi = math.floor(math.log(sg.t_min) / math.log(b))
        f = band_member(grid, seed=5)
        gc = g_function(f, poissonq, sg, 2.0)
        gd = g_discrete(f, poissonq, b, range(j_lo, j_hi + 1), 2.0)
        normalized = math.log(1.0 / b) ** 0.5 * gd.values.real
        rel = lp_norm(SampledField(grid, normalized - gc.values.real), 2.0) / lp_norm(gc, 2.0)
        assert rel <= 0.02


class TestSynthesis:
    def test_zero_field(self, annulus):
        grid = Grid(1, 512, 16.0)
        sg = ScaleGrid.log_spaced(5e-4, 2e3, 64)
        h = ScaleField(grid, sg, np.zeros((64, 512)))
        out = synthesize(h, annulus, 1e-3)
        assert np.max(np.abs(out.values)) == 0.0

    def test_insufficient_coverage_rejected(self, annulus):
        grid = Grid(1, 512, 16.0)
        sg = ScaleGrid.log_spaced(0.1, 10.0, 16)
        h = ScaleField(grid, sg, np.zeros((16, 512)))
        with pytest.raises(ValueError, match="cover"):
            synthesize(h, annulus, 1e-3)

    def test_cutoff_skips_are_logged(self, annulus, caplog):
        grid = Grid(1, 512, 16.0)
        scales = ScaleGrid.geometric(4.0, 0.25, 7)
        h = ScaleField(grid, scales, np.zeros((7, 512)))
        with caplog.at_level(logging.DEBUG, logger="lplab"):
            synthesize(h, annulus, 0.26)
        [record] = caplog.records
        assert (record.name, record.levelno) == ("lplab", logging.DEBUG)
        assert "skips 6 of 7 scales" in record.getMessage()

    def test_single_scale_concentration(self, annulus):
        grid = Grid(1, 512, 16.0)
        scales = ScaleGrid.geometric(4.0, 0.25, 7)  # spans [9.8e-4, 4]
        rng = np.random.default_rng(0)
        vals = np.zeros((7, 512), dtype=complex)
        vals[1] = rng.standard_normal(512)
        h = ScaleField(grid, scales, vals)
        # the cutoff (0.26, 3.85) keeps only the t = 1 slice
        out = synthesize(h, annulus, 0.26)
        t1 = scales.scales[1]
        spec = to_spectrum(SampledField(grid, vals[1]))
        xi = spec.grid.coords()
        expect_spec = spec.values * np.asarray(annulus.symbol(t1 * xi)) \
            * scales.log_weights()[1]
        expect = from_spectrum(SpectralField(spec.grid, expect_spec))
        assert np.max(np.abs(out.values - expect.values)) <= 1e-12 * np.max(np.abs(expect.values))

    def test_calderon_recovery(self, annulus):
        grid = Grid(1, 2048, 16.0)
        psi_n = calderon_normalize(annulus)
        sg = ScaleGrid.log_spaced(5e-4, 2e3, 256)
        fg = grid.frequency_grid()
        xi = fg.axis_coords()
        from lplab.kernels import plateau
        spec = plateau(np.abs(xi), 1.0, 1.2, 1.7, 2.0) * np.exp(-0.3 * xi**2)
        f = from_spectrum(SpectralField(fg, spec.astype(complex)))
        h = scale_transform(f, psi_n, sg)
        out = synthesize(h, conjugate_kernel(psi_n), 1e-3)
        rel = lp_norm(SampledField(grid, out.values - f.values), 2.0) / lp_norm(f, 2.0)
        assert rel <= 1e-3

    def test_normalized_kernel_has_unit_scale_energy(self, annulus):
        psi_n = calderon_normalize(annulus)
        u = np.exp(np.linspace(math.log(1e-4), math.log(1e4), 1 << 14))
        vals = np.abs(psi_n.symbol(u[np.newaxis, :])) ** 2
        du = np.diff(np.log(u))
        total = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * du))
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_multiplier_profile_scale_invariant_for_radial_symbols(self, poissonq):
        # m(xi) = sum_k |psi_hat(t_k xi)|^2 dlog t is constant in |xi| once the
        # scale grid covers the symbol's energy at both sampled radii
        from lplab.transforms import spectral_multiplier_profile

        sg = ScaleGrid.log_spaced(1e-5, 1e3, 256)
        xi = np.array([[0.5, 1.0, 2.0, 4.0]])
        m = spectral_multiplier_profile(poissonq, sg, xi)
        assert np.max(np.abs(m - 0.25)) <= 0.25 * 1e-3  # analytic scale energy 1/4


def counting_annulus():
    """The narrow annulus bump, and the lengths of the arrays its profile saw."""
    seen = []

    def profile(r):
        seen.append(np.size(r))
        return plateau(r, 1.0, 1.2, 1.7, 2.0)

    return radial_kernel("counted", profile), seen


class TestDilateRows:
    """A radial kernel evaluates its profile once per (grid, scale), on the
    grid's distinct radii, and the rows it keeps die with it."""

    def test_two_g_functions_evaluate_each_scale_once(self):
        grid = Grid(2, 32, 4.0)
        psi, seen = counting_annulus()
        scales = ScaleGrid.log_spaced(0.05, 5.0, 12)
        first = g_function(band_member(grid), psi, scales)
        second = g_function(band_member(grid, seed=8), psi, scales)
        distinct = np.unique(grid.frequency_grid().radii()).size
        assert seen == [distinct] * scales.count
        assert distinct < grid.cell_count
        assert np.all(first.values.real >= 0) and np.all(second.values.real >= 0)

    def test_nested_synthesis_windows_evaluate_each_scale_once(self):
        grid = Grid(1, 256, 8.0)
        psi, seen = counting_annulus()
        sg = ScaleGrid.log_spaced(5e-4, 2e3, 40)
        h = ScaleField(grid, sg, np.ones((sg.count, 256)))
        for eps in (1e-1, 1e-2, 1e-3):
            synthesize(h, psi, eps)
        widest = np.sum((sg.scales > 1e-3) & (sg.scales < 1e3))
        assert len(seen) == widest

    def test_rows_are_read_only_and_die_with_the_kernel(self):
        grid = Grid(1, 64, 4.0)
        psi, _ = counting_annulus()
        g_function(band_member(grid), psi, ScaleGrid.log_spaced(0.1, 1.0, 4))
        rows = list(psi._rows.values())
        assert len(rows) == 4
        for row in rows:
            with pytest.raises(ValueError):
                row[0] = 1.0
        refs = [weakref.ref(psi)] + [weakref.ref(row) for row in rows]
        del psi, rows, row
        gc.collect()
        assert all(ref() is None for ref in refs)


class TestAtoms:
    GRID = Grid(1, 2048, 16.0)
    SCALES = ScaleGrid.log_spaced(5e-4, 2e3, 96)

    def test_seeded_atom_validates(self):
        atom = make_atom(self.GRID, self.SCALES, (0.5,), 2.0, 1.0, seed=42)
        res = validate_atom(atom)
        assert res.passed
        assert res.support_residual <= 1e-14
        assert res.size_ratio == pytest.approx(0.9, abs=1e-9)
        assert res.moment_residual <= 1e-10
        assert atom.moment_order == 0

    def test_doubled_atom_fails_size(self):
        atom = make_atom(self.GRID, self.SCALES, (0.5,), 2.0, 1.0, seed=42)
        doubled = Atom(atom.cube_center, atom.cube_side, atom.p,
                       ScaleField(self.GRID, self.SCALES, 2.0 * atom.values.values),
                       atom.moment_order)
        res = validate_atom(doubled)
        assert not res.passed
        assert res.size_ratio == pytest.approx(1.8, abs=1e-9)

    def test_translated_atom_passes(self):
        a = make_atom(self.GRID, self.SCALES, (-3.25,), 2.0, 1.0, seed=42)
        assert validate_atom(a).passed

    def test_small_p_raises_moment_order(self):
        atom = make_atom(self.GRID, self.SCALES, (0.0,), 4.0, 0.5, seed=1)
        assert atom.moment_order == 1
        assert validate_atom(atom).passed

    def test_tiny_cube_rejected(self):
        with pytest.raises(ValueError, match="8 grid cells"):
            make_atom(self.GRID, self.SCALES, (0.0,), 4 * self.GRID.spacing, 1.0, seed=1)

    def test_cube_outside_box_rejected(self):
        with pytest.raises(ValueError, match="inside"):
            make_atom(self.GRID, self.SCALES, (15.5,), 2.0, 1.0, seed=1)

    def test_two_dimensional_atom(self):
        grid = Grid(2, 64, 8.0)
        scales = ScaleGrid.log_spaced(5e-4, 2e3, 24)
        atom = make_atom(grid, scales, (0.5, -0.5), 3.0, 1.0, seed=3)
        res = validate_atom(atom)
        assert res.passed
        assert atom.moment_order == 0


class TestScaleGrandEnvelope:
    """Mollified analysis slices against the reference square function: the
    measured constant stays within x3 across the band-limited family."""

    def test_family_stability(self, annulus, gaussian):
        grid = Grid(1, 1024, 16.0)
        psi = make_builtin("annulus_bump", [1.0, 1.2, 1.7, 2.0])
        t_grid = ScaleGrid.log_spaced(0.1, 10.0, 16)
        s_grid = ScaleGrid.log_spaced(grid.spacing / 2, 8.0, 24)
        gm = GrandMaxConfig(gaussian, s_grid)
        cs = []
        for seed in range(6):
            f = band_member(grid, seed=seed)
            sup_slices = np.empty((t_grid.count,) + grid.shape)
            E = scale_transform(f, psi, t_grid)
            for k in range(t_grid.count):
                sup_slices[k] = grand_max(E.slice(k), gm).values.real
            lhs_field = scale_integral(sup_slices, t_grid, 2.0)
            lhs = float(np.sum(lhs_field) * grid.cell_volume)
            rhs = lp_norm(g_function(f, annulus, t_grid, 2.0), 1.0)
            cs.append(lhs / rhs)
        assert max(cs) <= 3.0 * min(cs)
