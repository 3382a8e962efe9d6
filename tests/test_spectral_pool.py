"""Single-field pipelines against the serial loop, and the member pool.

``fields.filtered`` and ``filtered_slices`` run on the calling thread.
Every consumer must give the bytes of an explicit serial loop of
``from_spectrum(to_spectrum(f) * m)`` whatever ``fields._spectral_workers``
says: for a real field under a real multiplier the bytes of a
numpy.fft.irfft chain on its half spectrum written out here, under a
complex multiplier those of the full path on the spectrum's Hermitian
expansion, also written out here; keep
the transform counts; draw each multiplier only when its result is asked
for; start no thread; raise a wrong-shape multiplier at its position with
one message; serve concurrent callers and work in a forked
child.  The grids sit on both sides of the large-grid gate: 1-d 4096 and
2-d 64^2 below it, where ``scale_transform`` inverts its slices in batched
blocks, and 1-d 32768 and 2-d 256^2 above.  A fold over the streamed slices
must give the bytes of the collected stack and hold no stack.

At and above the gate ``run_experiment`` measures a family's members on a
pool of ``fields._spectral_workers()`` threads.  Its report must not depend
on the worker count, a run below the gate must start no thread, and a
member that raises must propagate with no member pending and no pool thread
left.
"""

import collections
import itertools
import multiprocessing
import os
import queue
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from lplab import experiments, fields, transforms
from lplab.experiments import ExperimentConfig, emit_report, run_experiment
from lplab.families import FamilyMember
from lplab.fields import Grid, SampledField, ScaleGrid, SpectralField, filtered, scale_integral
from lplab.kernels import KernelSpec, coordinate_multiplier, derived_kernel, dilates, make_builtin
from lplab.maximal import GrandMaxConfig, grand_max, spectral_gradient
from lplab.transforms import g_function, scale_transform

from kernel_helpers import scale_stack

GRIDS = [Grid(1, 4096, 16.0), Grid(1, 32768, 16.0), Grid(2, 64, 8.0), Grid(2, 256, 8.0)]
GRID_IDS = ["1d-4096", "1d-32768", "2d-64", "2d-256"]
LARGE_GRIDS = [Grid(1, 32768, 16.0), Grid(2, 256, 8.0)]
SCALES = ScaleGrid.log_spaced(0.02, 4.0, 9)


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    monkeypatch.setattr(fields, "_spectral_workers", lambda: request.param)
    return request.param


def _field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return SampledField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def _real_field(grid, seed=0):
    return SampledField(grid, np.random.default_rng(seed).standard_normal(grid.shape))


def _checkerboard(shape) -> np.ndarray:
    return np.where(np.indices(shape).sum(axis=0) % 2 == 0, 1.0, -1.0)


def _half_chain(spec, m):
    """The inverse of a real field's half spectrum times m: the signed half
    product (spec * m[..., :P/2 + 1]) * c, numpy.fft.ifft along the first
    axis in 2-d, numpy.fft.irfft along the last, then c / cell volume."""
    grid = spec.grid.frequency_grid()
    p = grid.points_per_axis
    c = _checkerboard(grid.shape)
    half = (spec.values * m[..., :p // 2 + 1]) * c[..., :p // 2 + 1]
    if grid.dimension == 2:
        half = np.fft.ifft(half, axis=0)
    return np.fft.irfft(half, n=p, axis=-1) * (c * (1.0 / grid.cell_volume))


def _hermitian(spec):
    """The full spectrum whose half is a real field's half spectrum: at
    every index past the half, the conjugate of the value at its point
    reflection k -> (P - k) mod P."""
    p = spec.grid.points_per_axis
    full = np.zeros(spec.grid.shape, dtype=complex)
    full[..., :p // 2 + 1] = spec.values
    reflected = full[tuple((-k) % p for k in np.indices(spec.grid.shape))]
    full[..., p // 2 + 1:] = np.conj(reflected[..., p // 2 + 1:])
    return full


def _serial(f, multipliers):
    """The inverse of to_spectrum(f) * m per multiplier, one after another:
    the half chain for a real field under a real multiplier, from_spectrum
    of the product with the full spectrum as a spectrum of its own
    otherwise."""
    spec = fields.to_spectrum(f)
    real = f.values.dtype == np.float64
    out = []
    for m in multipliers:
        m = np.asarray(m)
        if real and m.dtype.kind == "f":
            out.append(_half_chain(spec, m))
        else:
            full = _hermitian(spec) if real else spec.values
            out.append(fields.from_spectrum(SpectralField(spec.grid, full * m)).values)
    return out


def test_gate_splits_the_grids():
    assert [g.cell_count >= fields._PARALLEL_MIN_POINTS for g in GRIDS] == [False, True, False, True]


def _inputs(grid):
    """(field, kernel) pairs: complex noise under a radial kernel, which
    dilates through its profile rows; the same noise under d/dx of it,
    which dilates through its symbol; and a real-valued family member under
    both."""
    poissonq = make_builtin("poissonQ")
    d0 = derived_kernel("d0_poissonQ", poissonq, coordinate_multiplier(0))
    member = FamilyMember("band_noise", 2.0, 0.0, 7).sample(grid)
    return [(_field(grid), poissonq), (_field(grid), d0), (member, poissonq), (member, d0)]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_consumers_match_a_serial_loop(grid, workers):
    mollifier = make_builtin("gaussian")
    for f, psi in _inputs(grid):
        stack = np.stack(_serial(f, dilates(psi, grid, SCALES.scales)))
        # the real member's slices under the radial kernel come from the half chain
        half_chain = f.values.dtype == np.float64 and psi.profile is not None
        assert stack.dtype == (np.float64 if half_chain else np.complex128)

        got = [g.values for g in filtered(f, dilates(psi, grid, SCALES.scales))]
        assert np.stack(got).tobytes() == stack.tobytes()
        assert scale_stack(f, psi, SCALES).values.tobytes() == stack.tobytes()

        w = SCALES.log_width
        for q in (1.0, 2.0):
            expect = np.sum(np.abs(stack) ** q * w, axis=0) ** (1.0 / q)
            g_q = g_function(f, psi, SCALES, q).values
            assert g_q.tobytes() == expect.tobytes()

        mags = np.abs(np.stack(_serial(f, dilates(mollifier, grid, SCALES.scales))))
        expect = np.max(mags, axis=0)
        assert grand_max(f, GrandMaxConfig(SCALES)).values.tobytes() == expect.tobytes()

        xi = grid.frequency_grid().coords()
        expect = _serial(f, [coordinate_multiplier(k).symbol(xi) for k in range(grid.dimension)])
        assert [g.values.tobytes() for g in spectral_gradient(f)] == [e.tobytes() for e in expect]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_streamed_g_function_has_the_bytes_of_the_collected_stack(grid, workers):
    # 40 scales: below the gate, two full 1 MiB blocks of 16 slices and a part block
    scales = ScaleGrid.log_spaced(0.02, 4.0, 40)
    for f, psi in _inputs(grid):
        stack = scale_stack(f, psi, scales).values
        assert stack.tobytes() == np.stack(_serial(f, dilates(psi, grid, scales.scales))).tobytes()
        for q in (0.5, 1.0, 2.0):
            expect = SampledField(grid, scale_integral(stack, scales, q)).values
            assert g_function(f, psi, scales, q).values.tobytes() == expect.tobytes()


@pytest.mark.parametrize("grid", LARGE_GRIDS, ids=["1d-32768", "2d-256"])
def test_kernels_keep_no_rows_at_or_above_the_gate(grid):
    f = _field(grid)
    psi, cfg = make_builtin("poissonQ"), GrandMaxConfig(SCALES)
    phi = cfg.mollifier
    g_function(f, psi, SCALES)
    grand_max(f, cfg)
    assert psi._rows == {} and phi._rows == {}
    ru, inv = np.unique(grid.frequency_grid().radii(), return_inverse=True)
    for k in (psi, phi):
        for t, dilate in zip(SCALES.scales, dilates(k, grid, SCALES.scales)):
            assert dilate.tobytes() == np.asarray(k.profile(t * ru))[inv.reshape(grid.shape)].tobytes()
        assert k._rows == {}


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_grand_max_holds_no_rows_at_256(workers):
    # a fresh mollifier over 128 scales at 256^2 on a 2-core VM: with its
    # 128 rows of 5924 radii kept and a product beside each inverse the call
    # measured 10.8 MiB; without them 4.1
    grid = Grid(2, 256, 8.0)
    f = FamilyMember("band_noise", 2.0, 0.0, 7).sample(grid)
    scales = ScaleGrid.log_spaced(0.0156, 16.0, 128)
    grand_max(f, GrandMaxConfig(scales))  # fills the grid's caches
    cfg = GrandMaxConfig(scales)
    tracemalloc.start()
    try:
        grand_max(f, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * 2**20


def _pool_threads():
    return [t for t in threading.enumerate() if t.name.startswith("lplab-")]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_a_failing_fold_ends_the_stream(grid, workers):
    folded = []

    def fold(k, values):
        folded.append(k)
        if k == 5:
            raise RuntimeError("fold failed")

    # no slice after the failing one is folded, and no thread is left
    with pytest.raises(RuntimeError, match="fold failed"):
        scale_transform(_field(grid), make_builtin("gaussian"), SCALES, fold)
    assert folded == list(range(6))
    assert not _pool_threads()


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_g_function_holds_no_scale_stack(workers):
    # 48 x 256^2 complex values are a 48 MiB stack; the fold keeps two
    # grid-sized float arrays and one result
    grid = Grid(2, 256, 8.0)
    f = FamilyMember("band_noise", 2.0, 0.0, 7).sample(grid)
    psi, scales = make_builtin("poissonQ"), ScaleGrid.log_spaced(1e-3, 50.0, 48)
    g_function(f, psi, scales)  # the kernel keeps its profile rows from the first call
    tracemalloc.start()
    try:
        g_function(f, psi, scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_multipliers_are_drawn_a_bounded_distance_ahead(grid, workers):
    # filtered draws each multiplier only when its result is asked for, on
    # every grid and at any worker count
    f = _field(grid)
    mults = list(dilates(make_builtin("gaussian"), grid, SCALES.scales))
    drawn = 0

    def counting():
        nonlocal drawn
        for m in mults:
            drawn += 1
            yield m

    for i, _ in enumerate(filtered(f, counting())):
        assert drawn == i + 1
    assert drawn == len(mults)


def _cor31(grid):
    """A cheap cor31 config on ``grid``: 4 members and the translation pair."""
    return ExperimentConfig.from_dict({
        "scenario": "cor31", "p": 1.0,
        "grid": {"dimension": grid.dimension, "points_per_axis": grid.points_per_axis,
                 "half_extent": grid.half_extent},
        "scales": {"t_min": 0.01, "t_max": 8.0, "count": 8},
        "grand_scales": {"t_min": 2 * grid.spacing, "t_max": 8.0, "count": 8},
        "test_family": {"shapes": ["gaussian_derivative", "band_noise"], "dilations": [1.0, 2.0]},
    })


def _fail_second_member(monkeypatch):
    """Make the second grand_max call of a run raise."""
    calls, lock, real = itertools.count(), threading.Lock(), experiments.grand_max

    def failing(*args):
        with lock:
            k = next(calls)
        if k == 1:
            raise RuntimeError("member failed")
        return real(*args)

    monkeypatch.setattr(experiments, "grand_max", failing)


@pytest.mark.parametrize("grid", LARGE_GRIDS, ids=["1d-32768", "2d-256"])
@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_abandoning_the_generator_leaves_no_pending_future(grid, workers, monkeypatch):
    # a member that raises abandons the member pool's result stream: the
    # members not started are cancelled and the running ones waited out
    recorded = []

    class RecordingPool(fields.ThreadPoolExecutor):
        """A pool that keeps the futures submitted to it."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.futures = []
            recorded.append(self)

        def submit(self, *args, **kwargs):
            fut = super().submit(*args, **kwargs)
            self.futures.append(fut)
            return fut

    monkeypatch.setattr(fields, "ThreadPoolExecutor", RecordingPool)
    _fail_second_member(monkeypatch)
    with pytest.raises(RuntimeError, match="member failed"):
        run_experiment(_cor31(grid))
    (pool,) = recorded
    assert len(pool.futures) == 4
    assert all(fut.done() for fut in pool.futures)
    assert not _pool_threads()


@pytest.mark.parametrize("workers", [1, 2, 3], indirect=True)
def test_a_failing_member_propagates_and_no_member_thread_outlives_it(workers, monkeypatch):
    _fail_second_member(monkeypatch)
    with pytest.raises(RuntimeError, match="member failed"):
        run_experiment(_cor31(Grid(2, 128, 8.0)))
    assert not _pool_threads()


@pytest.mark.parametrize("grid", [Grid(1, 1024, 16.0), Grid(2, 128, 8.0)], ids=["1d-1024", "2d-128"])
def test_member_pool_report_does_not_depend_on_the_worker_count(grid, monkeypatch, tmp_path):
    # 2-d 128^2 is exactly the gate's 16384 points; 1-d 1024 lies below it
    sample, threads, pools = FamilyMember.sample, [], []
    monkeypatch.setattr(FamilyMember, "sample",
                        lambda *a: threads.append(threading.current_thread()) or sample(*a))

    class CountingPool(fields.ThreadPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(fields, "ThreadPoolExecutor", CountingPool)
    pooled = grid.cell_count >= fields._PARALLEL_MIN_POINTS
    reports, csvs = [], []
    for workers in (1, 2, 3):
        monkeypatch.setattr(fields, "_spectral_workers", lambda: workers)
        threads.clear()
        pools.clear()
        # threads switch every microsecond, and each run makes its grid anew,
        # so its members race to make the grid's dual
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            report = run_experiment(_cor31(grid))
        finally:
            sys.setswitchinterval(interval)
        assert len(threads) == 6  # 4 members and the translation pair
        if pooled and workers >= 2:  # one pool for the family, one for the pair
            assert pools == [workers] * 2
            assert all(t.name.startswith("lplab-member") for t in threads)
        else:
            assert pools == [] and threads == [threading.current_thread()] * 6
        emit_report(report, tmp_path / str(workers))
        csvs.append((tmp_path / str(workers) / "ratios.csv").read_bytes())
        d = report.to_dict()
        assert d.pop("environment")["spectral_workers"] == workers
        reports.append(repr(d))
    assert not _pool_threads()
    assert csvs[1:] == csvs[:-1] and reports[1:] == reports[:-1]


@pytest.mark.parametrize("grid", LARGE_GRIDS, ids=["1d-32768", "2d-256"])
@pytest.mark.parametrize("workers", [2, 3], indirect=True)
@pytest.mark.parametrize("end", ["completed", "closed"])
def test_no_pool_thread_outlives_the_call(grid, workers, end):
    # filtered starts no thread at any worker count, however its stream ends
    before = set(threading.enumerate())
    gen = filtered(_field(grid), dilates(make_builtin("gaussian"), grid, SCALES.scales))
    next(gen)
    assert set(threading.enumerate()) == before
    if end == "completed":
        assert len(list(gen)) == SCALES.count - 1
    else:
        gen.close()
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("bad", ["broadcasts", "mismatched"])
def test_wrong_shape_multiplier_raises_at_its_position(grid, bad, workers):
    f = _real_field(grid)
    mults = list(dilates(make_builtin("gaussian"), grid, SCALES.scales))
    mults[5] = np.ones((2,) + grid.shape) if bad == "broadcasts" else np.ones(3)
    message = f"multiplier shape {mults[5].shape} does not match {grid.shape}"
    got = []
    with pytest.raises(ValueError) as err:
        for g in filtered(f, mults):
            got.append(g.values)
    assert len(got) == 5
    assert np.stack(got).tobytes() == np.stack(_serial(f, mults[:5])).tobytes()
    assert str(err.value) == message

    # the same multipliers from a kernel's dilates, through scale_transform:
    # below the gate the real field's first five slices wait in a block
    # that is never inverted, so none is folded
    gaussian, calls = make_builtin("gaussian"), itertools.count()
    real_symbol = lambda xi: gaussian.symbol(xi).real  # noqa: E731
    bad_kernel = KernelSpec("bad_at_5", lambda xi: mults[5] if next(calls) == 5
                            else real_symbol(xi))
    got = []
    with pytest.raises(ValueError) as err:
        scale_transform(f, bad_kernel, SCALES, lambda k, values: got.append(values.copy()))
    assert str(err.value) == message
    if grid.cell_count < fields._PARALLEL_MIN_POINTS:
        assert got == []
    else:
        expect = _serial(f, dilates(KernelSpec("gaussian", real_symbol), grid, SCALES.scales[:5]))
        assert np.stack(got).tobytes() == np.stack(expect).tobytes()


class _CallCounter:
    """Counts calls to the wrapped functions from any thread."""

    def __init__(self):
        self.lock = threading.Lock()
        self.calls = collections.Counter()
        self.threads = set()

    def wrap(self, name, fn):
        def counted(*args, **kwargs):
            with self.lock:
                self.calls[name] += 1
                self.threads.add(threading.current_thread().name)
            return fn(*args, **kwargs)

        return counted


@pytest.mark.parametrize("workers", [1, 2], indirect=True)
def test_pool_keeps_the_transform_counts(workers, monkeypatch):
    # perfbench's traced run checks these counts per config: one forward
    # transform per field and, on large grids, one inverse per scale, all on
    # the calling thread; below the gate scale_transform inverts its stack
    # in batched blocks, without from_spectrum.  The path depends on the
    # grid's size alone, never on the worker count.
    large, small = Grid(2, 256, 8.0), Grid(1, 4096, 16.0)
    f = SampledField(large, np.random.default_rng(0).standard_normal(large.shape))
    f_small = SampledField(small, np.random.default_rng(0).standard_normal(small.shape))
    cases = [
        (lambda: grand_max(f, GrandMaxConfig(ScaleGrid.log_spaced(0.0156, 16.0, 128))), 128),
        (lambda: g_function(f, make_builtin("poissonQ"), ScaleGrid.log_spaced(0.01, 8.0, 48)), 48),
        (lambda: g_function(f_small, make_builtin("poissonQ"),
                            ScaleGrid.log_spaced(0.01, 8.0, 48)), 0),
    ]
    for run, inverses in cases:
        counter = _CallCounter()
        with monkeypatch.context() as m:
            for module in (fields, transforms):  # every binding, as perfbench wraps them
                for name in ("to_spectrum", "from_spectrum"):
                    m.setattr(module, name, counter.wrap(name, getattr(module, name)))
            run()
        assert counter.calls == collections.Counter(to_spectrum=1, from_spectrum=inverses)
        assert counter.threads == {threading.current_thread().name}


def _grand_max_bytes(f, cfg, out):
    out.put(grand_max(f, cfg).values.tobytes())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
@pytest.mark.parametrize("workers", [2], indirect=True)
def test_pool_works_in_a_forked_child(workers):
    grid = Grid(2, 256, 8.0)
    f = _field(grid)
    cfg = GrandMaxConfig(ScaleGrid.log_spaced(0.0156, 16.0, 16))
    parent = grand_max(f, cfg).values.tobytes()  # fills the grid's caches before the fork
    ctx = multiprocessing.get_context("fork")
    out = ctx.Queue()
    child = ctx.Process(target=_grand_max_bytes, args=(f, cfg, out))
    child.start()
    try:
        got = out.get(timeout=60)
    except queue.Empty:
        pytest.fail("grand_max in the forked child did not return")
    finally:
        child.join(10)
        if child.is_alive():
            child.kill()
            child.join()
    assert got == parent


@pytest.mark.parametrize("workers", [3], indirect=True)
def test_concurrent_callers_share_the_pool(workers):
    # more callers than cores, as a member pool's threads call grand_max,
    # switching threads every microsecond
    grid = Grid(1, 32768, 16.0)
    cfg = GrandMaxConfig(SCALES)
    fs = [_field(grid, seed) for seed in range(4)]
    expect = [np.max(np.abs(np.stack(_serial(f, dilates(cfg.mollifier, grid, SCALES.scales)))),
                     axis=0).tobytes() for f in fs]
    got = [None] * len(fs)

    def run(i):
        for _ in range(5):
            got[i] = grand_max(fs[i], cfg).values.tobytes()
            if got[i] != expect[i]:
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,)) for i in range(len(fs))]
        for c in callers:
            c.start()
        for c in callers:
            c.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(c.is_alive() for c in callers)
    assert got == expect
