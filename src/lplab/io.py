"""The binary field container, CSV dumps of fields and strict JSON reports.

Field container (magic ``LPF1``): little-endian header of dimension
(uint32), points_per_axis (uint32), half_extent (float64), followed by the
row-major complex128 payload.  A real field is written with imaginary
parts of 0, and a payload whose imaginary parts are all 0 is read as a
real field.

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

from .fields import Grid, SampledField

_FIELD_MAGIC = b"LPF1"


def write_field(path, f: SampledField) -> None:
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_FIELD_MAGIC)
        fh.write(struct.pack("<IId", g.dimension, g.points_per_axis, g.half_extent))
        fh.write(np.ascontiguousarray(f.values, dtype="<c16").tobytes())


def read_field(path) -> SampledField:
    """The field in an ``LPF1`` container, whose payload must be exactly as
    long as its header implies."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _FIELD_MAGIC:
            raise ValueError(f"{path}: not a field container (magic {magic!r})")
        header = fh.read(struct.calcsize("<IId"))
        if len(header) != struct.calcsize("<IId"):
            raise ValueError(f"{path}: truncated header")
        grid = Grid(*struct.unpack("<IId", header))
        nbytes = 16 * grid.cell_count
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != nbytes:
            raise ValueError(f"{path}: payload holds {size} bytes, the header implies {nbytes}")
        payload = fh.read(nbytes)
    values = np.frombuffer(payload, dtype="<c16").reshape(grid.shape)
    # the format has no dtype: a field with no nonzero imaginary part is real
    return SampledField(grid, values if values.imag.any() else values.real)


def field_to_csv(path, f: SampledField) -> None:
    """One row per sample: index, its coordinates (x in 1-d, x0, x1 in
    2-d), and the real and imaginary parts."""
    g = f.grid
    coords = [c.reshape(-1) for c in g.coords()]
    names = ["x"] if g.dimension == 1 else [f"x{k}" for k in range(g.dimension)]
    flat = f.values.reshape(-1)
    with open(path, "w") as fh:
        fh.write(",".join(["index", *names, "re", "im"]) + "\n")
        for i in range(flat.size):
            xs = "".join(f"{float(c[i])!r}," for c in coords)
            fh.write(f"{i},{xs}{float(flat[i].real)!r},{float(flat[i].imag)!r}\n")


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
