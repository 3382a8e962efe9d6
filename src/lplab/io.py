"""Binary containers and CSV dumps for fields and scale fields.

Field container (magic ``LPF1``): little-endian header of dimension
(uint32), points_per_axis (uint32), half_extent (float64), followed by the
row-major complex128 payload.  Scale-field container (magic ``LPS1``) adds
the scale count, the ratio (NaN for explicit grids) and the scale values
before the per-scale payloads.

CSV dumps carry one sample per row: index, coordinates, real and imaginary
parts, ready for plotting.

JSON reports are strict JSON: non-finite floats are spelled as the strings
"NaN", "Infinity" and "-Infinity" (the protobuf JSON convention), and
``restore_nonfinite`` turns them back into floats.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .fields import Grid, SampledField, ScaleGrid
from .transforms import ScaleField

_FIELD_MAGIC = b"LPF1"
_SCALE_MAGIC = b"LPS1"


def write_field(path, f: SampledField) -> None:
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(struct.pack("<IId", g.dimension, g.points_per_axis, g.half_extent))
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())


def _header(fh, path, fmt: str) -> tuple:
    data = fh.read(struct.calcsize(fmt))
    if len(data) != struct.calcsize(fmt):
        raise ValueError(f"{path}: truncated header")
    return struct.unpack(fmt, data)


def _payload(fh, path, nbytes: int) -> bytes:
    """The rest of the file, which must be exactly ``nbytes`` long."""
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != nbytes:
        raise ValueError(f"{path}: payload holds {size} bytes, the header implies {nbytes}")
    return fh.read(nbytes)


def read_field(path) -> SampledField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _FIELD_MAGIC:
            raise ValueError(f"{path}: not a field container (magic {magic!r})")
        grid = Grid(*_header(fh, path, "<IId"))
        payload = _payload(fh, path, 16 * grid.cell_count)
    return SampledField(grid, np.frombuffer(payload, dtype="<c16").reshape(grid.shape))


def write_scale_field(path, sf: ScaleField) -> None:
    g = sf.grid
    sg = sf.scales
    ratio = float("nan") if sg.ratio is None else sg.ratio
    with open(path, "wb") as fh:
        fh.write(_SCALE_MAGIC)
        fh.write(struct.pack("<IIdId", g.dimension, g.points_per_axis, g.half_extent,
                             sg.count, ratio))
        fh.write(np.ascontiguousarray(sg.scales, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(sf.values, dtype="<c16").tobytes())


def read_scale_field(path) -> ScaleField:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _SCALE_MAGIC:
            raise ValueError(f"{path}: not a scale-field container (magic {magic!r})")
        dim, p, half, count, ratio = _header(fh, path, "<IIdId")
        grid = Grid(dim, p, half)
        payload = _payload(fh, path, 8 * count + 16 * count * grid.cell_count)
        sg = ScaleGrid(np.frombuffer(payload[: 8 * count], dtype="<f8"),
                       ratio=None if np.isnan(ratio) else float(ratio))
        vals = np.frombuffer(payload[8 * count :], dtype="<c16").reshape((count,) + grid.shape)
    return ScaleField(grid, sg, vals)


def field_to_csv(path, f: SampledField) -> None:
    g = f.grid
    coords = g.coords()
    flat = f.values.reshape(-1)
    with open(path, "w") as fh:
        if g.dimension == 1:
            fh.write("index,x,re,im\n")
            xs = coords[0]
            for i in range(flat.size):
                fh.write(f"{i},{float(xs[i])!r},{float(flat[i].real)!r},"
                         f"{float(flat[i].imag)!r}\n")
        else:
            fh.write("index,x0,x1,re,im\n")
            x0 = coords[0].reshape(-1)
            x1 = coords[1].reshape(-1)
            for i in range(flat.size):
                fh.write(f"{i},{float(x0[i])!r},{float(x1[i])!r},"
                         f"{float(flat[i].real)!r},{float(flat[i].imag)!r}\n")


def ensure_dir(path) -> Path:
    p = Path(path)
    p.mkdir(parents=True, exist_ok=True)
    return p


_NONFINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def _spell_nonfinite(obj):
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {k: _spell_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_spell_nonfinite(v) for v in obj]
    return obj


def restore_nonfinite(obj):
    """Inverse of the spelling ``write_json`` gives non-finite floats."""
    if isinstance(obj, str):
        return _NONFINITE.get(obj, obj)
    if isinstance(obj, dict):
        return {k: restore_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [restore_nonfinite(v) for v in obj]
    return obj


def write_json(path, obj) -> None:
    """Write ``obj`` as strict, indented, key-sorted JSON."""
    with open(path, "w") as fh:
        json.dump(_spell_nonfinite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
