"""Grid-sampled fields, Fourier transforms and (quasi-)norms.

Functions are discretized on a uniform periodic box [-E, E)^n, n in {1, 2}.
The Fourier transform follows the convention

    F(f)(xi) = integral f(x) exp(-2*pi*i*<x, xi>) dx,

realized as a scaled FFT: the forward transform is the Riemann sum of the
continuous integral, so a sampled exp(-pi*x^2) maps to exp(-pi*xi^2) up to
periodization/truncation error.  Frequencies are centered at 0 with spacing
1/(2E) (the reciprocal of the spatial period), so the frequency box is again
a valid Grid, and its dual is the grid it came from.  A grid makes its dual
once and keeps it, and the dual keeps the grid.

Centring needs no rolled copies: every axis length P is a power of two
>= 4, so P/2 is even, and moving index P/2 to 0 on both sides of a DFT is
the same as modulating by the checkerboard c = (-1)^(sum of indices) on
both sides, c * fftn(c * v), and likewise for the inverse.  Each complex
transform (``_centred``) is one sign modulation, one in-place numpy.fft
pass per axis and one in-place scaling by the signs times the cell volume
(or its reciprocal).  The axes run first to last, the order of
scipy.fft.fftn's passes on the same C++ pocketfft, so the bits are
scipy.fft's.  The inverse scales each pass by 1/P where scipy.fft scales
the first by 1/P^n; both are powers of two, and scaling by a power of two
is exact.

A field is real exactly when its dtype is (float64; complex128 otherwise),
and keeps the kind of the values it is given.  A real field's spectrum is
Hermitian (its value at the point reflection k -> (P - k) mod P of every
axis is the conjugate of its value at k), so ``to_spectrum`` keeps its half
[..., :P/2 + 1], the frequencies -P/2 ... 0 of the last axis: c * x,
``numpy.fft.rfft`` along the last axis, fft along the others, the signs.
``from_spectrum`` reads the format from the spectrum's shape.  A half
spectrum under no multiplier or a real one inverts through the half into
a real field (``_half_inverse``): one product, the FFT passes and one
scaling, since the product starts from the half times c, which the
spectrum makes on first use and keeps (c * (c * v) = v, and a product with
+-1 is exact).  A real multiplier must be even, as every one the library
builds is (radial dilates, ``make_atom``'s low-pass), and only its half
is read, as numpy.fft.irfft reads its input; it may be given on the half
grid (``_half_columns`` says where), as ``kernels.dilates`` gives a real
field's.  Under a complex
multiplier, such as 2 pi i xi_k, which is not Hermitian on the Nyquist
line, a half spectrum takes the complex path on its expansion
(``_full``), which the spectrum also makes once and keeps.  A complex
field's spectrum, and one a caller builds, is full.

``filtered`` is the one spectral-multiplier pipeline: one forward transform
per field, then one inverse per multiplier (an array on the frequency
grid), yielded in multiplier order as each is asked for.  Each inverse is
``from_spectrum`` with the multiplier, which writes the product straight
into one buffer.  ``filtered_slices`` yields the same results as arrays,
the slices of a (multipliers x grid) stack that is never built; below
``_PARALLEL_MIN_POINTS`` points it inverts a real field's half products in
blocks of at most ``_BLOCK_BYTES``, one batched pass per spatial axis per
block, since the leading axis batches and every row gets the same 1-d
transform.  Every result is an independent transform computed by the same
code on either path, so no output depends on the block or the gate's
side.  A field's transforms run on the calling thread; a run on a large
grid measures its family members side by side instead (``experiments``),
and ``maximal.peetre_max`` splits a large sweep across the cores, both
through ``_ordered_map``.

Scale ("t") axes are handled by ScaleGrid, a strictly decreasing geometric
set of positive scales t_k = t_max * ratio^k.  Integrals against the
multiplicative measure dt/t are rectangle sums in log t: each scale owns a
log-cell of width log(1/ratio) and contributes u(t_k)^q times that width.
``ScaleSum`` folds that sum one scale at a time, so a stream of slices
needs no stack.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def _float_power(x: float, n: int) -> float:
    """x ** n, or inf where it overflows: a float power raises instead."""
    try:
        return x**n
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on the box [-half_extent, half_extent)^dimension.

    Parameters
    ----------
    dimension : int
        1 or 2.
    points_per_axis : int
        Samples per axis, a power of two >= 4.
    half_extent : float
        Half side length of the periodic box.
    """

    dimension: int
    points_per_axis: int
    half_extent: float
    # the dual, set both ways by the first frequency_grid() call: the dual of
    # a frequency grid is the grid it came from, since P / (4 * (P / (4E)))
    # need not round back to E
    _dual: Grid | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if not _is_power_of_two(self.points_per_axis) or self.points_per_axis < 4:
            raise ValueError(
                f"points_per_axis must be a power of two >= 4, got {self.points_per_axis}"
            )
        if not 0 < self.half_extent < math.inf:
            raise ValueError(f"half_extent must be positive and finite, got {self.half_extent}")
        # the dual's spacing as the dual computes it; a positive finite cell
        # volume on both grids bounds both spacings and the dual's extent
        p = self.points_per_axis
        dual_spacing = 2.0 * (p / (4.0 * self.half_extent)) / p
        volume, dual_volume = (_float_power(s, self.dimension)
                               for s in (self.spacing, dual_spacing))
        if not (0 < volume < math.inf and 0 < dual_volume < math.inf):
            raise ValueError(f"half_extent {self.half_extent} gives cell volume {volume} and dual "
                             f"cell volume {dual_volume}; both must be positive and finite")

    @property
    def spacing(self) -> float:
        # points_per_axis is a power of two, so the division is exact and
        # spacing * points_per_axis reproduces 2 * half_extent bit-for-bit.
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def cell_count(self) -> int:
        return self.points_per_axis**self.dimension

    @property
    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.dimension

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dimension

    def axis_coords(self) -> np.ndarray:
        """Sample positions along one axis, from -E to E - spacing."""
        p = self.points_per_axis
        return (np.arange(p) - p // 2) * self.spacing

    def coords(self) -> np.ndarray:
        """Stacked coordinates, shape (dimension,) + shape."""
        return np.stack(np.meshgrid(*[self.axis_coords()] * self.dimension, indexing="ij"))

    def radii(self) -> np.ndarray:
        """Euclidean distance from the origin at every sample."""
        c = self.coords()
        return np.sqrt(np.sum(c * c, axis=0))

    def frequency_grid(self) -> Grid:
        """The dual grid: spacing 1/(2E), extent P/(4E).  Made on the first
        call and kept; its own dual is this grid."""
        if self._dual is None:
            dual = Grid(self.dimension, self.points_per_axis,
                        self.points_per_axis / (4.0 * self.half_extent))
            object.__setattr__(dual, "_dual", self)
            object.__setattr__(self, "_dual", dual)
        return self._dual


def _kind(values) -> type:
    """The dtype a field keeps for ``values``: complex for complex input,
    float for any other."""
    return complex if np.iscomplexobj(values) else float


def _check_values(grid: Grid, values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)  # always a copy, and only one
    if arr.shape != grid.shape:
        raise ValueError(f"values shape {arr.shape} does not match grid shape {grid.shape}")
    arr.setflags(write=False)
    return arr


def _adopt(cls, values: np.ndarray, **fields):
    """A ``cls`` instance holding ``values`` without the defensive copy.

    Only for arrays the library has just computed and hands over: ``values``
    must already have the right dtype and shape, and no other reference may
    write to it, since it is marked read-only in place.
    """
    values.setflags(write=False)
    obj = object.__new__(cls)
    for name, v in fields.items():
        object.__setattr__(obj, name, v)
    object.__setattr__(obj, "values", values)
    return obj


@dataclass(frozen=True)
class SampledField:
    """Samples of a function on a Grid: float64 for a real field, complex128
    for a complex one, by the kind of the values given.  Immutable after
    construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values,
                                                         _kind(self.values)))


@dataclass(frozen=True)
class SpectralField:
    """Complex samples of a Fourier transform on a centered frequency grid.
    One a caller builds is the full spectrum; ``to_spectrum`` of a real
    field gives its half [..., :P/2 + 1] on the last axis."""

    grid: Grid
    values: np.ndarray
    # a half spectrum's values times the centring checkerboard and its full
    # Hermitian expansion, each set by the first call that needs it
    _signed: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _expansion: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _check_values(self.grid, self.values, complex))

    def _signed_half(self) -> np.ndarray:
        """The half times the centring checkerboard c, read-only, made once:
        c * (c * v) = v and a product with +-1 is exact, so a half inverse
        that starts from it needs no sign pass of its own."""
        if self._signed is None:
            signed = self.values * _signs(self.grid.shape, 1.0)[..., :self.values.shape[-1]]
            signed.setflags(write=False)
            object.__setattr__(self, "_signed", signed)
        return self._signed

    def _full_values(self) -> np.ndarray:
        """The full spectrum: the values, or a half's Hermitian expansion
        (``_full``), made once and read-only, however many complex
        multipliers it meets."""
        if self.values.shape == self.grid.shape:
            return self.values
        if self._expansion is None:
            full = _full(self)
            full.setflags(write=False)
            object.__setattr__(self, "_expansion", full)
        return self._expansion


def field_from_function(grid: Grid, fn) -> SampledField:
    """Sample a callable of stacked coordinates (shape (dim, ...)) on the
    grid; a real callable gives a real field."""
    return SampledField(grid, fn(grid.coords()))


@functools.lru_cache(maxsize=16)
def _signs(shape: tuple, scale: float) -> np.ndarray:
    """scale * (-1)^(sum of indices) on ``shape``: the centring checkerboard
    (scale 1) or the checkerboard with the transform's scaling folded in."""
    c = np.full(shape, scale)
    for axis, p in enumerate(shape):
        c[(slice(None),) * axis + (slice(1, p, 2),)] *= -1.0
    c.setflags(write=False)
    return c


def _centred(values: np.ndarray, transform, shape: tuple, scale: float, out=None) -> np.ndarray:
    """c * transform(c * values) * scale, c the centring checkerboard on
    ``shape``, in ``out`` (a new array if None).  ``transform`` (np.fft.fft
    or np.fft.ifft) runs in place along each of the last len(shape) axes,
    first of them first; leading axes, such as a stack's scale axis, are
    batched.  Not np.fft.fftn: it takes the last axis first, which gives
    other bits in 2-d."""
    out = np.multiply(values, _signs(shape, 1.0), out=out)
    for axis in range(out.ndim - len(shape), out.ndim):
        transform(out, axis=axis, out=out)
    out *= _signs(shape, scale)
    return out


def _half_inverse(half: np.ndarray, shape: tuple, scale: float) -> np.ndarray:
    """c * ifft(v) * scale, a new real array, for a v on ``shape`` (the
    last len(shape) axes) whose point reflection is its conjugate and whose
    half v[..., :P/2 + 1] is ``half`` (already signed by c), which is
    overwritten: a complex ifft in place along each spatial axis but the
    last, first of them first, which leaves every row of the last axis
    Hermitian, then np.fft.irfft along that axis.  Leading axes batch."""
    for axis in range(half.ndim - len(shape), half.ndim - 1):
        np.fft.ifft(half, axis=axis, out=half)
    out = np.fft.irfft(half, n=shape[-1], axis=-1)
    out *= _signs(shape, scale)
    return out


def _full(F: SpectralField) -> np.ndarray:
    """The full spectrum of which F is the half: its value at the point
    reflection k -> (P - k) mod P of every axis is the conjugate of its
    value at k."""
    p = F.grid.points_per_axis
    full = np.empty(F.grid.shape, dtype=complex)
    full[..., :p // 2 + 1] = F.values
    upper = F.values[..., p // 2 - 1:0:-1]
    for axis in range(F.values.ndim - 1):
        upper = upper.take(-np.arange(p) % p, axis=axis)
    np.conjugate(upper, out=full[..., p // 2 + 1:])
    return full


def _product(F: SpectralField, multiplier, signed: bool = False, out=None) -> np.ndarray:
    """F's values times ``multiplier``, an array on F's grid or, for a half
    product, on its half grid, in ``out`` (a new array if None).  Of a half
    spectrum a real multiplier multiplies the half (its signed half, the
    input of ``_half_inverse``, if ``signed``), reading a full multiplier's
    half [..., :P/2 + 1]; a complex one multiplies its full expansion.  A
    multiplier of any other shape raises the one message of every
    inverse."""
    m = np.asarray(multiplier)
    if not _is_half(F, m):
        values = F._full_values()
    else:
        values = F._signed_half() if signed else F.values
    if m.shape != values.shape:
        if m.shape != F.grid.shape:
            raise ValueError(f"multiplier shape {m.shape} does not match {F.grid.shape}")
        m = m[..., :values.shape[-1]]
    return np.multiply(values, m, out=out)


def _is_half(F: SpectralField, multiplier) -> bool:
    """Whether F times ``multiplier`` inverts through the half: F is a real
    field's half spectrum and the multiplier None or real."""
    return F.values.shape != F.grid.shape and not np.iscomplexobj(multiplier)


def _half_columns(on, multiplier) -> int | None:
    """P/2 + 1, the columns of the half grid [..., :P/2 + 1] on which a
    multiplier of ``multiplier``'s dtype may be given for the spectrum of
    ``on``: a real field's spectrum is its half, and a real multiplier is
    read on the half (``_is_half``).  None where the multiplier must be
    full: ``on`` a Grid or a complex field, or the multiplier complex."""
    if isinstance(on, Grid) or np.iscomplexobj(on.values) or np.iscomplexobj(multiplier):
        return None
    return on.grid.points_per_axis // 2 + 1


def to_spectrum(f: SampledField) -> SpectralField:
    """Forward transform: Riemann-sum approximation of the continuous integral.

    Returns the spectrum on the dual grid, frequencies centered at 0: for a
    complex field the full complex spectrum, for a real field its half
    [..., :P/2 + 1] on the last axis.
    """
    g = f.grid
    if np.iscomplexobj(f.values):
        spec = _centred(f.values, np.fft.fft, g.shape, g.cell_volume)
    else:
        spec = np.fft.rfft(f.values * _signs(g.shape, 1.0), axis=-1)
        for axis in range(spec.ndim - 1):
            np.fft.fft(spec, axis=axis, out=spec)
        spec *= _signs(g.shape, g.cell_volume)[..., :spec.shape[-1]]
    return _adopt(SpectralField, spec, grid=g.frequency_grid())


def from_spectrum(F: SpectralField, multiplier=None) -> SampledField:
    """Exact inverse of to_spectrum (up to floating round-off).

    With ``multiplier`` (an array on F's grid, or on its half grid for a
    half spectrum) this is the inverse of F times it, the product written
    straight into one buffer on which the transform passes run in place.
    A real field's half spectrum under no multiplier or a real one (which
    must be even; only its half is read) gives a real field; under a
    complex multiplier it is inverted on its full Hermitian expansion.  A
    full spectrum gives a complex field with the bytes of
    ``from_spectrum(SpectralField(F.grid, F.values * multiplier))``."""
    spatial = F.grid.frequency_grid()
    scale = 1.0 / spatial.cell_volume
    if _is_half(F, multiplier):
        if multiplier is None:
            half = F.values * _signs(spatial.shape, 1.0)[..., :F.values.shape[-1]]
        else:
            half = _product(F, multiplier, signed=True)
        vals = _half_inverse(half, spatial.shape, scale)
    elif multiplier is None:
        vals = _centred(F.values, np.fft.ifft, spatial.shape, scale)
    else:
        vals = _product(F, multiplier)
        _centred(vals, np.fft.ifft, spatial.shape, scale, out=vals)
    return _adopt(SampledField, vals, grid=spatial)


# The large-grid gate: a run on a grid this large measures its family members
# on a thread pool (experiments); below it filtered_slices inverts in batched
# blocks and radial kernels keep their rows.  On a 2-core VM a per-field pool
# lost below it (grand_max, 64 scales: 5.5 -> 9.7 ms at 64^2, 23.0 -> 22.6 ms
# at 16384 points in 1-d) and won from 128^2 (22.7 -> 18.3 ms); a member pool
# on 1-d grids of 4096 points gained nothing and raised VmHWM 53 -> 65-73 MiB.
_PARALLEL_MIN_POINTS = 16384
# bytes of one batched block of filtered_slices below the gate: large enough
# that a block amortizes numpy.fft's per-call cost, small enough that a
# reduction over a scale stack holds about one block of it
_BLOCK_BYTES = 1 << 20


def _spectral_workers() -> int:
    """The cores this process may run on: the size of a thread pool."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _ordered_map(fn, items: list, pooled: bool, name: str) -> list:
    """[fn(x) for x in items], in item order.  If ``pooled``, with two or
    more items and workers, the items run on a pool of
    ``_spectral_workers()`` threads named ``lplab-<name>`` that lives as
    long as the call.  An item that raises cancels those not yet started,
    and the pool's threads are joined before the error propagates."""
    workers = _spectral_workers()
    if not pooled or workers < 2 or len(items) < 2:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(workers, thread_name_prefix=f"lplab-{name}") as pool:
        return list(pool.map(fn, items))


def filtered(f: SampledField, multipliers):
    """Yield inverse(f_hat * m) per multiplier m, an array of values on the
    frequency grid (for a real f, or on its half grid).  One forward
    transform serves all of them, and the results are yielded in multiplier
    order, each multiplier drawn only when its result is asked for, so
    callers reduce as they stream.  Each result is
    ``from_spectrum(f_hat, m)``."""
    spec = to_spectrum(f)
    for m in multipliers:
        yield from_spectrum(spec, m)


def filtered_slices(f: SampledField, multipliers):
    """Yield the values of inverse(f_hat * m) per multiplier m, in
    multiplier order: the slices of a scale stack, which is never built.

    Below ``_PARALLEL_MIN_POINTS`` the signed half products of a real field
    under real multipliers are written straight into one block of at most
    ``_BLOCK_BYTES``, reused block to block, and each block is inverted by
    ``_half_inverse`` in one batched pass per spatial axis into a new block
    of results, which gives each slice the bytes of its own
    ``from_spectrum``; the slices are views of their block.  Any other
    product is one ``from_spectrum``, issued after the block so far has
    been inverted.  At and above the gate the results stream through
    ``filtered``.  A wrong-shape multiplier raises ``from_spectrum``'s
    message on both sides of the gate."""
    g = f.grid
    if g.cell_count >= _PARALLEL_MIN_POINTS:
        for conv in filtered(f, multipliers):
            yield conv.values
        return
    scale = 1.0 / g.cell_volume
    spec = to_spectrum(f)
    rows = _BLOCK_BYTES // spec.values.nbytes  # at least 15 below the gate
    halves, n = None, 0
    for m in multipliers:
        if not _is_half(spec, m):
            if n:
                yield from _half_inverse(halves[:n], g.shape, scale)
                n = 0
            yield from_spectrum(spec, m).values
            continue
        if halves is None:
            halves = np.empty((rows,) + spec.values.shape, dtype=complex)
        _product(spec, m, signed=True, out=halves[n])
        n += 1
        if n == rows:
            yield from _half_inverse(halves, g.shape, scale)
            n = 0
    if n:
        yield from _half_inverse(halves[:n], g.shape, scale)


def check_exponent(name: str, x: float) -> None:
    """Raise unless the exponent ``x`` satisfies 0 < x < inf (NaN does not)."""
    if not 0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")


def lp_norm(f: SampledField, p: float) -> float:
    """(sum |f|^p * cell_volume)^(1/p).  Quasi-norm for 0 < p < 1 permitted."""
    check_exponent("p", p)
    amp = np.abs(f.values)
    return float(np.sum(amp**p) * f.grid.cell_volume) ** (1.0 / p)


def weighted_lp_norm(f: SampledField, w: SampledField, p: float) -> float:
    """(integral |f|^p w)^(1/p) by grid quadrature.  Requires w >= 0 on a
    matching grid: every sample's imaginary part exactly 0 and its real part
    >= 0, which a NaN in either part fails."""
    check_exponent("p", p)
    if f.grid != w.grid:
        raise ValueError("field and weight grids do not match")
    wv = w.values.real
    if not np.all((w.values.imag == 0) & (wv >= 0)):
        raise ValueError("weight must be nonnegative real")
    amp = np.abs(f.values)
    return float(np.sum(amp**p * wv) * f.grid.cell_volume) ** (1.0 / p)


def box_face_max(vals: np.ndarray) -> float:
    """The largest entry of ``vals`` on the faces of its box (the first and
    last index along every axis)."""
    return float(max(np.take(vals, i, axis=a).max() for a in range(vals.ndim) for i in (0, -1)))


@dataclass(frozen=True, eq=False)
class ScaleGrid:
    """Strictly decreasing positive scales t_k = t_max * ratio^k, ratio in
    (0, 1), each owning a log-cell of width log(1/ratio), so that
    integral u(t)^q dt/t ~= sum u(t_k)^q * log(1/ratio).  Two grids are
    equal, and hash alike, only when they are the same object.
    """

    scales: np.ndarray
    ratio: float

    def __post_init__(self):
        arr = np.asarray(self.scales, dtype=float).copy()
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("scales must be a nonempty 1-d array")
        if not np.all((arr > 0) & (arr < math.inf)):
            raise ValueError("scales must be positive and finite")
        if arr.size > 1 and np.any(np.diff(arr) >= 0):
            raise ValueError("scales must be strictly decreasing")
        arr.setflags(write=False)
        object.__setattr__(self, "scales", arr)
        if not (0 < self.ratio < 1 and np.allclose(arr[1:] / arr[:-1], self.ratio,
                                                   rtol=1e-9, atol=0)):
            raise ValueError(f"ratio must lie in (0, 1) and be the ratio of consecutive scales "
                             f"(to 1e-9), got {self.ratio}")

    @classmethod
    def geometric(cls, t_max: float, ratio: float, count: int) -> "ScaleGrid":
        if count < 1:
            raise ValueError("count must be >= 1")
        return cls(t_max * ratio ** np.arange(count), ratio)

    @classmethod
    def log_spaced(cls, t_min: float, t_max: float, count: int) -> "ScaleGrid":
        """count log-uniform scales from t_max down to t_min."""
        if count < 2:
            raise ValueError("count must be >= 2")
        if not 0 < t_min < t_max:
            raise ValueError("need 0 < t_min < t_max")
        ratio = (t_min / t_max) ** (1.0 / (count - 1))
        scales = np.exp(np.linspace(math.log(t_max), math.log(t_min), count))
        return cls(scales, ratio)

    @property
    def count(self) -> int:
        return int(self.scales.size)

    @property
    def t_min(self) -> float:
        return float(self.scales[-1])

    @property
    def t_max(self) -> float:
        return float(self.scales[0])

    @property
    def log_width(self) -> float:
        """The width log(1/ratio) of every scale's log-cell."""
        return math.log(1.0 / self.ratio)

    def spans_decades(self) -> float:
        return math.log10(self.t_max / self.t_min)


class ScaleSum:
    """The rectangle sum in log t of |u(t_k)|^q over a ScaleGrid, folded one
    scale at a time: ``add(k, u_k)`` adds |u_k|^q times the grid's
    ``log_width`` to a running total of ``shape``, and ``result()`` is the
    total's q-th root.  Two arrays of ``shape`` live at a time, the total and one term."""

    def __init__(self, shape: tuple, scales: ScaleGrid, q: float):
        check_exponent("q", q)
        self.q = q
        self.width = scales.log_width
        self.total = np.zeros(shape)

    def add(self, k: int, uk: np.ndarray) -> None:
        term = np.abs(uk)
        term **= self.q
        term *= self.width
        self.total += term

    def result(self) -> np.ndarray:
        return self.total ** (1.0 / self.q)


def scale_integral(u: np.ndarray, scales: ScaleGrid, q: float):
    """(integral |u(t)|^q dt/t)^(1/q) by rectangle sum in log t; complex
    input allowed.

    ``u`` has the scale axis first; extra trailing axes (e.g. space) are
    preserved, so the result is a scalar for 1-d input and an array
    otherwise.  ``u`` is folded through ``ScaleSum`` one scale at a time, in
    scale order, so no |u|^q stack is allocated beside it.
    """
    arr = np.asarray(u)
    total = ScaleSum(arr.shape[1:], scales, q)
    if arr.shape[0] != scales.count:
        raise ValueError("scale axis length does not match the scale grid")
    for k, uk in enumerate(arr):
        total.add(k, uk)
    return total.result()
