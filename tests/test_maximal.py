import math
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from lplab import fields, maximal
from lplab import (
    GrandMaxConfig,
    Grid,
    PeetreParams,
    SampledField,
    ScaleGrid,
    default_grand_scales,
    field_from_function,
    from_spectrum,
    grand_max,
    hl_max,
    peetre_bound_check,
    peetre_max,
    scale_integral,
)
from lplab.fields import SpectralField
from lplab.maximal import _disc_means, _hl_max_2d, spectral_gradient

from kernel_helpers import scale_stack


def band_noise(grid, seed, center=1.5, width=4.0):
    fg = grid.frequency_grid()
    xi = fg.axis_coords()
    r = np.random.default_rng(seed)
    spec = np.exp(-((np.abs(xi) - center) ** 2) * width) * r.standard_normal(xi.size)
    spec = spec + spec[::-1]
    return from_spectrum(SpectralField(fg, spec))


class TestPeetre:
    def test_constant_field(self, grid1d_small):
        f = SampledField(grid1d_small, np.full(1024, 3.0))
        out = peetre_max(f, PeetreParams(2.0, 1.0))
        assert np.max(np.abs(out.values.real - 3.0)) == 0.0

    def test_single_spike_closed_form(self, grid1d_small):
        vals = np.zeros(1024)
        vals[700] = 1.0
        f = SampledField(grid1d_small, vals)
        out = peetre_max(f, PeetreParams(1.5, 2.0))
        x = grid1d_small.axis_coords()
        e = grid1d_small.half_extent
        dist = np.abs((x - x[700] + e) % (2 * e) - e)
        expect = (1.0 + 2.0 * dist) ** -1.5
        assert np.max(np.abs(out.values.real - expect)) == 0.0

    def test_dominates_field(self, grid1d_small, rng):
        f = SampledField(grid1d_small, np.abs(rng.standard_normal(1024)))
        out = peetre_max(f, PeetreParams(3.0, 1.0))
        assert np.all(out.values.real >= np.abs(f.values) - 1e-15)

    def test_nonincreasing_in_n_and_r(self, grid1d_small, rng):
        f = SampledField(grid1d_small, rng.standard_normal(1024))
        base = peetre_max(f, PeetreParams(2.0, 1.0)).values.real
        higher_n = peetre_max(f, PeetreParams(3.0, 1.0)).values.real
        higher_r = peetre_max(f, PeetreParams(2.0, 2.0)).values.real
        assert np.all(higher_n <= base + 1e-15)
        assert np.all(higher_r <= base + 1e-15)

    def test_1d_4096_weights_its_shifts_in_small_blocks(self):
        # 4096^2 weighted shifts are 128 MiB of float64; the blocks keep about
        # 1 MiB of them (1.3 MiB peak measured on a 2-core VM)
        grid = Grid(1, 4096, 16.0)
        f = SampledField(grid, np.random.default_rng(3).standard_normal(4096))
        tracemalloc.start()
        try:
            peetre_max(f, PeetreParams(2.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_2d_matches_brute_force(self):
        grid = Grid(2, 16, 4.0)
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((16, 16))
        f = SampledField(grid, vals)
        params = PeetreParams(1.5, 2.0)
        out = peetre_max(f, params).values.real
        h = grid.spacing
        ax = np.minimum(np.arange(16), 16 - np.arange(16)) * h
        w = (1 + params.R * np.hypot(ax[:, None], ax[None, :])) ** -params.N
        brute = np.zeros((16, 16))
        for s1 in range(16):
            for s2 in range(16):
                brute = np.maximum(brute, np.abs(np.roll(np.roll(vals, s1, 0), s2, 1)) * w[s1, s2])
        assert np.max(np.abs(out - brute)) == 0.0


def _peetre_threads():
    return [t for t in threading.enumerate() if t.name.startswith("lplab-")]


class _RecordingPool(fields.ThreadPoolExecutor):
    """A pool that records the worker count of each pool made."""

    made = []

    def __init__(self, max_workers, **kwargs):
        self.made.append(max_workers)
        super().__init__(max_workers, **kwargs)


# both sides of the split's 2^23-product gate in each dimension
SPLIT_GRIDS = {(1, False): Grid(1, 2048, 8.0), (1, True): Grid(1, 4096, 16.0),
               (2, False): Grid(2, 32, 4.0), (2, True): Grid(2, 64, 8.0)}


def _peetre_values(grid, kind, seed):
    """Values with ties, zeros or spikes, or plain noise."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        return rng.integers(0, 3, grid.shape).astype(float)
    if kind == "zeros":
        return np.where(rng.random(grid.shape) < 0.9, 0.0, rng.standard_normal(grid.shape))
    if kind == "spikes":
        vals = np.zeros(grid.shape)
        vals.flat[rng.integers(0, vals.size, 3)] = 10.0 ** rng.uniform(-3, 3, 3)
        return vals
    return rng.standard_normal(grid.shape)


class TestPeetreSplit:
    """A sweep of 2^23 products or more runs on ``fields._spectral_workers()``
    threads, each with its own block and running max; max is exact, so the
    bytes are the serial sweep's at every worker count."""

    @settings(max_examples=20, deadline=None)
    @given(dimension=st.sampled_from([1, 2]), large=st.booleans(),
           kind=st.sampled_from(["ties", "zeros", "spikes", "noise"]),
           seed=st.integers(0, 2**32 - 1), n=st.floats(0.5, 4.0), r=st.floats(0.1, 8.0))
    def test_split_keeps_the_serial_bytes(self, dimension, large, kind, seed, n, r):
        grid = SPLIT_GRIDS[dimension, large]
        f = SampledField(grid, _peetre_values(grid, kind, seed))
        params = PeetreParams(n, r)
        got = {}
        for workers in (1, 2, 3):
            _RecordingPool.made.clear()
            with mock.patch.object(fields, "_spectral_workers", lambda w=workers: w), \
                    mock.patch.object(fields, "ThreadPoolExecutor", _RecordingPool):
                got[workers] = peetre_max(f, params).values.tobytes()
            # below the gate, or on one worker, no thread starts
            assert _RecordingPool.made == ([workers] if large and workers > 1 else [])
            assert not _peetre_threads()
        assert got[1] == got[2] == got[3]

    def test_the_gate_is_two_to_the_twenty_three_products(self):
        assert maximal._PEETRE_SPLIT_PRODUCTS == 2**23
        for (dimension, large), grid in SPLIT_GRIDS.items():
            assert (grid.cell_count**2 >= 2**23) == large

    def test_no_thread_outlives_a_worker_error(self, monkeypatch):
        grid = Grid(1, 4096, 16.0)
        f = SampledField(grid, np.random.default_rng(0).standard_normal(4096))
        window = maximal._shift_window_view

        def failing(absf):
            if threading.current_thread().name.startswith("lplab-peetre"):
                raise RuntimeError("worker failed")
            return window(absf)

        monkeypatch.setattr(fields, "_spectral_workers", lambda: 2)
        monkeypatch.setattr(maximal, "_shift_window_view", failing)
        with pytest.raises(RuntimeError, match="worker failed"):
            peetre_max(f, PeetreParams(2.0, 1.0))
        assert not _peetre_threads()


class TestHardyLittlewood:
    def test_constant_one(self, grid1d_small):
        f = SampledField(grid1d_small, np.ones(1024))
        assert np.max(np.abs(hl_max(f).values.real - 1.0)) == 0.0

    def test_indicator_average_at_distance(self):
        grid = Grid(1, 4096, 16.0)
        x = grid.axis_coords()
        f = SampledField(grid, ((x >= 0) & (x <= 1)).astype(float))
        out = hl_max(f).values.real
        i = int(np.argmin(np.abs(x - 3.0)))
        # best interval containing x=3 is [0, 3]: average 1/3, tol one cell
        assert out[i] == pytest.approx(1.0 / 3.0, abs=2.0 / (3.0 * 3.0) * grid.spacing + 1e-3)

    def test_dominates_field(self, grid1d_small, rng):
        f = SampledField(grid1d_small, np.abs(rng.standard_normal(1024)))
        assert np.all(hl_max(f).values.real >= np.abs(f.values) - 1e-14)

    def test_monotone_under_domination(self, grid1d_small, rng):
        small = np.abs(rng.standard_normal(1024))
        big = small + np.abs(rng.standard_normal(1024))
        m_small = hl_max(SampledField(grid1d_small, small)).values.real
        m_big = hl_max(SampledField(grid1d_small, big)).values.real
        assert np.all(m_big >= m_small - 1e-14)

    def test_2d_dominates_field(self):
        grid = Grid(2, 32, 4.0)
        rng = np.random.default_rng(5)
        f = SampledField(grid, np.abs(rng.standard_normal((32, 32))))
        assert np.all(hl_max(f).values.real >= np.abs(f.values) - 1e-12)

    def test_2d_matches_brute_force_discs(self):
        grid = Grid(2, 8, 2.0)
        rng = np.random.default_rng(9)
        vals = np.abs(rng.standard_normal((8, 8)))
        radii = np.array([0.5, 1.0, 1.9])
        out = _hl_max_2d(vals, grid, radii)
        h = grid.spacing
        k = np.minimum(np.arange(8), 8 - np.arange(8))
        d2 = (k[:, None] ** 2 + k[None, :] ** 2) * h * h
        brute = vals.copy()  # single-cell ball
        for r in radii:
            fp = d2 <= r * r + 1e-12
            for c1 in range(8):
                for c2 in range(8):
                    ball = np.roll(np.roll(fp, c1, 0), c2, 1)
                    mean = vals[ball].mean()
                    brute[ball] = np.maximum(brute[ball], mean)
        assert np.max(np.abs(out - brute)) <= 1e-12

    def test_2d_128_default_radii_within_budget(self):
        grid = Grid(2, 128, 8.0)
        vals = np.random.default_rng(13).standard_normal((128, 128))
        f = SampledField(grid, vals)
        start = time.perf_counter()
        out = hl_max(f).values.real
        elapsed = time.perf_counter() - start
        assert np.all(out >= np.abs(vals))
        assert elapsed <= 5.0, f"hl_max at 128^2 took {elapsed:.2f}s (budget 5s)"
        # small discs, checked against the full-footprint maximum filter
        radii_cells = np.array([1.5, 3.0])
        expect = np.abs(vals)
        for fp, means in _disc_means(np.abs(vals), radii_cells):
            dilated = ndimage.maximum_filter(means, footprint=np.fft.fftshift(fp), mode="wrap")
            expect = np.maximum(expect, dilated)
        got = _hl_max_2d(np.abs(f.values), grid, radii_cells * grid.spacing)
        assert np.array_equal(got, expect)


class TestGrandMax:
    def test_zero(self, grid1d_small):
        cfg = GrandMaxConfig(default_grand_scales(grid1d_small))
        f = SampledField(grid1d_small, np.zeros(1024))
        assert np.max(grand_max(f, cfg).values.real) == 0.0

    def test_dominates_smallest_scale_mollification(self, grid1d_small, gaussian, rng):
        scales = default_grand_scales(grid1d_small)
        cfg = GrandMaxConfig(scales)
        f = band_noise(grid1d_small, 3)
        star = grand_max(f, cfg).values.real
        e_min = scale_stack(f, gaussian, ScaleGrid.geometric(scales.t_min, 0.5, 1)).slice(0)
        assert np.all(star >= np.abs(e_min.values) - 1e-14)

    def test_dominates_field_up_to_mollification_gap(self, grid1d_small, gaussian):
        # f* >= |f| - delta_grid with delta_grid the smallest-scale
        # mollification error (the sup over t>0 would dominate |f| exactly)
        scales = default_grand_scales(grid1d_small)
        cfg = GrandMaxConfig(scales)
        f = band_noise(grid1d_small, 8)
        star = grand_max(f, cfg).values.real
        e_min = scale_stack(f, gaussian, ScaleGrid.geometric(scales.t_min, 0.5, 1)).slice(0)
        delta_grid = float(np.max(np.abs(e_min.values - f.values)))
        assert np.all(star >= np.abs(f.values) - delta_grid - 1e-14)

    def test_gaussian_peak_value(self):
        grid = Grid(1, 4096, 16.0)
        f = field_from_function(grid, lambda x: np.exp(-np.pi * x[0] ** 2))
        cfg = GrandMaxConfig(ScaleGrid.log_spaced(1e-3, 16.0, 64))
        star = grand_max(f, cfg).values.real
        # mollified heights are (1+t^2)^(-1/2); the sup at x=0 approaches 1
        assert star[2048] == pytest.approx(1.0, abs=1e-6)

    def test_dilation_covariance(self):
        # mean-zero member: the sup is attained at interior scales, so the
        # large-t plateau (which scales differently) never enters
        grid = Grid(1, 4096, 16.0)
        lam = 2.0
        f = field_from_function(grid, lambda x: -2 * np.pi * x[0]
                                * np.exp(-np.pi * x[0] ** 2))
        f_lam = field_from_function(grid, lambda x: -2 * np.pi * lam * x[0]
                                    * np.exp(-np.pi * (lam * x[0]) ** 2))
        # scale grid closed under t -> 2t away from its ends (ratio 2^(-1/4));
        # ends pushed far enough that edge scales never attain the sup on the
        # compared region
        scales = ScaleGrid.geometric(32.0, 2 ** -0.25, 120)
        cfg = GrandMaxConfig(scales)
        star = grand_max(f, cfg).values.real
        star_lam = grand_max(f_lam, cfg).values.real
        # f_lam*(x) = f*(lam x) at matching grid points (every even index),
        # compared on |x| <= 1.5: attaining scales stay well below the box
        # size, so the periodic wrap of large-t mollifiers never enters
        idx = np.arange(2048 - 192, 2048 + 193)
        mapped = 2048 + (idx - 2048) * 2
        gap = np.max(np.abs(star_lam[idx] - star[mapped]))
        assert gap <= 1e-10 * np.max(star)


class TestPeetreBound:
    def test_constant_field_bound(self, grid1d_small):
        f = SampledField(grid1d_small, np.ones(1024))
        rep = peetre_bound_check(f, PeetreParams(1.0, 2.0), delta=0.5)
        # F** = 1, M(|F|^r)^(1/r) = 1, gradient term 0: C_min = delta^N
        assert rep.c_min == pytest.approx(0.5, abs=1e-12)
        assert rep.c_min <= 1.0

    def test_spike_train_stable_in_delta(self):
        grid = Grid(1, 1024, 16.0)
        vals = np.zeros(1024)
        vals[::128] = 1.0
        f = from_spectrum(SpectralField(
            grid.frequency_grid(),
            np.asarray(
                np.exp(-0.05 * grid.frequency_grid().axis_coords() ** 2), dtype=complex
            ),
        ))
        f = SampledField(grid, f.values + 0.05)
        cs = [peetre_bound_check(f, PeetreParams(1.0, 4.0), delta=d).c_min
              for d in (1.0, 0.5, 0.25)]
        assert max(cs) <= 2.0 * min(cs)

    def test_dilation_covariance_of_reported_constant(self):
        grid = Grid(1, 2048, 16.0)
        f = field_from_function(grid, lambda x: np.exp(-np.pi * x[0] ** 2)
                                * np.cos(2 * np.pi * x[0]))
        f2 = field_from_function(grid, lambda x: np.exp(-np.pi * (2 * x[0]) ** 2)
                                 * np.cos(4 * np.pi * x[0]))
        c1 = peetre_bound_check(f, PeetreParams(1.0, 2.0), delta=1.0).c_min
        c2 = peetre_bound_check(f2, PeetreParams(1.0, 4.0), delta=1.0).c_min
        assert c2 == pytest.approx(c1, rel=0.05)


class TestScaleChain:
    """The scale-integrated Peetre maximal of the analysis field is dominated
    by the scale integral of M(|f * phi_t|^r)^(q/r): the measured constant
    stays within x3 across a band-limited family (q=2, N=2, r=1/2, n=1)."""

    def test_constant_stable_across_family(self, poissonq):
        grid = Grid(1, 512, 16.0)
        q, n_exp = 2.0, 2.0
        r = grid.dimension / n_exp
        scales = ScaleGrid.log_spaced(0.05, 20.0, 24)
        cs = []
        for seed in range(6):
            f = band_noise(grid, seed)
            E = scale_stack(f, poissonq, scales)
            peetre_q = np.empty((scales.count,) + grid.shape)
            maximal_q = np.empty_like(peetre_q)
            for k, t in enumerate(scales.scales):
                sl = E.slice(k)
                peetre_q[k] = peetre_max(sl, PeetreParams(n_exp, 1.0 / t)).values.real ** q
                m = hl_max(SampledField(grid, np.abs(sl.values) ** r)).values.real
                maximal_q[k] = np.maximum(m, 0.0) ** (q / r)
            lhs = scale_integral(peetre_q, scales, 1.0)
            rhs = scale_integral(maximal_q, scales, 1.0)
            cs.append(float(np.max(lhs / np.maximum(rhs, 1e-300))))
        assert max(cs) <= 3.0 * min(cs)


class TestSpectralGradient:
    def test_matches_closed_form(self, grid1d_small):
        f = field_from_function(grid1d_small, lambda x: np.exp(-np.pi * x[0] ** 2))
        (df,) = spectral_gradient(f)
        x = grid1d_small.axis_coords()
        expect = -2 * np.pi * x * np.exp(-np.pi * x**2)
        assert np.max(np.abs(df.values - expect)) <= 1e-9


class TestVectorValuedMaximal:
    """Weighted square-function comparison after applying M per scale: the
    measured constant of the vector-valued maximal inequality stays within
    x3 across a band-limited family and admissible power weights."""

    def test_constant_stable_across_family(self, poissonq):
        from lplab import g_function, weighted_lp_norm
        from lplab.fields import SampledField as SF
        from lplab.weights import Weight

        grid = Grid(1, 512, 16.0)
        scales = ScaleGrid.log_spaced(0.05, 20.0, 24)
        for exponent in (0.0, -0.5):
            wf = Weight.power(exponent).materialize(grid) if exponent else \
                Weight.const().materialize(grid)
            cs = []
            for seed in range(4):
                f = band_noise(grid, seed)
                E = scale_stack(f, poissonq, scales)
                maximal_sq = np.empty((scales.count,) + grid.shape)
                for k in range(scales.count):
                    maximal_sq[k] = hl_max(E.slice(k)).values.real ** 2
                lhs_field = SF(grid, np.sqrt(scale_integral(maximal_sq, scales, 1.0)))
                lhs = weighted_lp_norm(lhs_field, wf, 2.0)
                rhs = weighted_lp_norm(g_function(f, poissonq, scales, 2.0), wf, 2.0)
                cs.append(lhs / rhs)
            assert max(cs) <= 3.0 * min(cs)
            assert all(math.isfinite(c) and c >= 1.0 for c in cs)  # M dominates identity
