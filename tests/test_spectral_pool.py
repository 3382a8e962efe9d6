"""``fields.filtered``'s thread pool against the serial pipeline.

On grids of at least ``fields._PARALLEL_MIN_POINTS`` points, and with two or
more workers, ``filtered`` runs each multiplier's product, inverse transform
and per-result map on a thread pool.  Every consumer must still give the
bytes of an explicit serial loop of ``from_spectrum(to_spectrum(f) * m)``,
whatever the worker count; the pool must keep the transform counts, draw
the multipliers a bounded distance ahead, leave nothing running when the
caller stops early, raise a bad multiplier where the serial loop does,
serve concurrent callers and come back to life in a forked child.  The grids sit on both sides of the
gate: 1-d 4096 and 2-d 64^2 below it, 1-d 32768 and 2-d 256^2 above.
"""

import collections
import multiprocessing
import os
import queue
import sys
import threading

import numpy as np
import pytest

from lplab import fields
from lplab.fields import Grid, SampledField, ScaleGrid, SpectralField, filtered
from lplab.kernels import coordinate_multiplier, dilates, make_builtin
from lplab.maximal import GrandMaxConfig, grand_max, spectral_gradient
from lplab.transforms import g_discrete, g_function, scale_transform

GRIDS = [Grid(1, 4096, 16.0), Grid(1, 32768, 16.0), Grid(2, 64, 8.0), Grid(2, 256, 8.0)]
GRID_IDS = ["1d-4096", "1d-32768", "2d-64", "2d-256"]
LARGE_GRIDS = [Grid(1, 32768, 16.0), Grid(2, 256, 8.0)]
SCALES = ScaleGrid.log_spaced(0.02, 4.0, 9)  # more than the lookahead at 3 workers


@pytest.fixture(params=[1, 2, 3])
def workers(request, monkeypatch):
    monkeypatch.setattr(fields, "_spectral_workers", lambda: request.param)
    return request.param


def _field(grid, seed=0):
    rng = np.random.default_rng(seed)
    return SampledField(grid, rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape))


def _serial(f, multipliers):
    """from_spectrum(to_spectrum(f) * m) per multiplier, one after another."""
    spec = fields.to_spectrum(f)
    coords = spec.grid.coords()
    return [fields.from_spectrum(SpectralField(spec.grid, spec.values * np.asarray(
        m(coords) if callable(m) else m))).values for m in multipliers]


def _threaded(grid, workers):
    return workers >= 2 and grid.cell_count >= fields._PARALLEL_MIN_POINTS


def test_gate_splits_the_grids():
    assert [g.cell_count >= fields._PARALLEL_MIN_POINTS for g in GRIDS] == [False, True, False, True]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_consumers_match_a_serial_loop(grid, workers):
    f = _field(grid)
    psi, mollifier = make_builtin("poissonQ"), make_builtin("gaussian")
    stack = np.stack(_serial(f, dilates(psi, grid, SCALES.scales)))

    got = [g.values for g in filtered(f, dilates(psi, grid, SCALES.scales))]
    assert np.stack(got).tobytes() == stack.tobytes()
    assert scale_transform(f, psi, SCALES).values.tobytes() == stack.tobytes()

    w = SCALES.log_weights().reshape((-1,) + (1,) * grid.dimension)
    for q in (1.0, 2.0):
        expect = np.sum(np.abs(stack) ** q * w, axis=0) ** (1.0 / q)
        assert g_function(f, psi, SCALES, q).values.tobytes() == expect.astype(complex).tobytes()

    b, js = 0.7, range(-4, 5)
    acc = np.zeros(grid.shape)
    for conv in _serial(f, dilates(psi, grid, (b**j for j in js))):
        acc += np.abs(conv) ** 2.0
    expect = (acc ** 0.5).astype(complex)
    assert g_discrete(f, psi, b, js).values.tobytes() == expect.tobytes()

    mags = np.abs(np.stack(_serial(f, dilates(mollifier, grid, SCALES.scales))))
    expect = np.max(mags, axis=0).astype(complex)
    assert grand_max(f, GrandMaxConfig(mollifier, SCALES)).values.tobytes() == expect.tobytes()

    axes = range(grid.dimension)
    expect = _serial(f, [coordinate_multiplier(k).symbol for k in axes])
    assert [g.values.tobytes() for g in spectral_gradient(f)] == [e.tobytes() for e in expect]


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
def test_multipliers_are_drawn_a_bounded_distance_ahead(grid, workers):
    f = _field(grid)
    mults = list(dilates(make_builtin("gaussian"), grid, SCALES.scales))
    drawn = 0

    def counting():
        nonlocal drawn
        for m in mults:
            drawn += 1
            yield m

    lookahead = fields._IN_FLIGHT_PER_WORKER * workers
    ahead = []
    for i, _ in enumerate(filtered(f, counting())):
        assert drawn <= i + lookahead + 1
        ahead.append(drawn - (i + 1))
    assert drawn == len(mults)
    assert max(ahead) == (lookahead - 1 if _threaded(grid, workers) else 0)


class _RecordingPool:
    """Passes submissions to the real pool and keeps their futures."""

    def __init__(self, pool):
        self.pool = pool
        self.futures = []

    def submit(self, *args):
        fut = self.pool.submit(*args)
        self.futures.append(fut)
        return fut


@pytest.mark.parametrize("grid", LARGE_GRIDS, ids=["1d-32768", "2d-256"])
@pytest.mark.parametrize("workers", [2, 3], indirect=True)
def test_abandoning_the_generator_leaves_no_pending_future(grid, workers, monkeypatch):
    real = fields._executor
    recorded = []

    def recording(n):
        recorded.append(_RecordingPool(real(n)))
        return recorded[-1]

    monkeypatch.setattr(fields, "_executor", recording)
    gen = filtered(_field(grid), dilates(make_builtin("gaussian"), grid, SCALES.scales))
    next(gen)
    next(gen)
    gen.close()
    (pool,) = recorded
    assert len(pool.futures) > 2
    assert all(fut.done() for fut in pool.futures)


@pytest.mark.parametrize("grid", GRIDS, ids=GRID_IDS)
@pytest.mark.parametrize("bad", ["broadcasts", "mismatched"])
def test_wrong_shape_multiplier_raises_at_its_position(grid, bad, workers):
    f = _field(grid)
    mults = list(dilates(make_builtin("gaussian"), grid, SCALES.scales))
    mults[5] = np.ones((2,) + grid.shape) if bad == "broadcasts" else np.ones(3)
    got = []
    with pytest.raises(ValueError) as err:
        for g in filtered(f, mults):
            got.append(g.values)
    assert len(got) == 5
    assert np.stack(got).tobytes() == np.stack(_serial(f, mults[:5])).tobytes()
    if bad == "broadcasts":
        assert str(err.value) == f"multiplier shape {(2,) + grid.shape} does not match {grid.shape}"
    else:
        with pytest.raises(ValueError) as product_err:
            np.ones(grid.shape, dtype=complex) * mults[5]
        assert str(err.value) == str(product_err.value)


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


@pytest.mark.parametrize("workers", [2], indirect=True)
def test_pool_keeps_the_transform_counts(workers, monkeypatch):
    # perfbench's traced run checks these counts per config: one forward
    # transform per field and one inverse per scale, whoever runs them
    grid = Grid(2, 256, 8.0)
    f = SampledField(grid, np.random.default_rng(0).standard_normal(grid.shape))
    cases = [
        (lambda: grand_max(f, GrandMaxConfig(make_builtin("gaussian"),
                                             ScaleGrid.log_spaced(0.0156, 16.0, 128))), 128),
        (lambda: g_function(f, make_builtin("poissonQ"), ScaleGrid.log_spaced(0.01, 8.0, 48)), 48),
    ]
    for run, inverses in cases:
        counter = _CallCounter()
        with monkeypatch.context() as m:
            for name in ("to_spectrum", "from_spectrum"):
                m.setattr(fields, name, counter.wrap(name, getattr(fields, name)))
            run()
        assert counter.calls == {"to_spectrum": 1, "from_spectrum": inverses}
        assert any(t.startswith("lplab-spectral") for t in counter.threads)


def _grand_max_bytes(f, cfg, out):
    out.put(grand_max(f, cfg).values.tobytes())


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
@pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
@pytest.mark.parametrize("workers", [2], indirect=True)
def test_pool_works_in_a_forked_child(workers):
    grid = Grid(2, 256, 8.0)
    f = _field(grid)
    cfg = GrandMaxConfig(make_builtin("gaussian"), ScaleGrid.log_spaced(0.0156, 16.0, 16))
    parent = grand_max(f, cfg).values.tobytes()  # builds the pool before the fork
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
    # more callers and workers than cores, switching threads every microsecond
    grid = Grid(1, 32768, 16.0)
    cfg = GrandMaxConfig(make_builtin("gaussian"), SCALES)
    fs = [_field(grid, seed) for seed in range(4)]
    expect = [np.max(np.abs(np.stack(_serial(f, dilates(cfg.mollifier, grid, SCALES.scales)))),
                     axis=0).astype(complex).tobytes() for f in fs]
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
