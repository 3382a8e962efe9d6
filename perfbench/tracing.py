"""Span recording around the public entry points of each ``lplab`` module.

The recorder patches every binding of a wrapped function in every loaded
``lplab`` module (``experiments`` and ``cli`` import many names with
``from ... import``), so a call is traced whichever module it is made from.
``KernelSpec.symbol`` is an instance field, so it is traced through a data
descriptor installed on the class for the duration of the traced op; only
the outermost symbol call is recorded (``derived_kernel`` symbols call
their parts).  Patches are installed before a traced op and removed after
it, so untraced ops run the unmodified library.

A span is ``(op, id, parent, name, start, end, tag)``; spans stay in memory
until the benchmark writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


def _nbytes(args, kwargs):
    return int(_first(args, kwargs).values.nbytes)


def _shape(args, kwargs):
    return tuple(_first(args, kwargs).grid.shape)


def _scale_count(args, kwargs):
    return int(_arg(args, kwargs, 2, "scales").count)


def _shape_scales(args, kwargs):
    return (_shape(args, kwargs), _scale_count(args, kwargs))


def _points(args, kwargs):
    return math.prod(np.shape(_first(args, kwargs))[1:])


# (module, attribute, span name, tag function): module-level functions.
FUNCTIONS = (
    ("lplab.fields", "to_spectrum", "fields.to_spectrum", _nbytes),
    ("lplab.fields", "from_spectrum", "fields.from_spectrum", _nbytes),
    ("lplab.fields", "scale_integral", "fields.scale_integral", None),
    ("lplab.fields", "lp_norm", "fields.norm", None),
    ("lplab.fields", "weighted_lp_norm", "fields.norm", None),
    ("lplab.calderon", "find_intervals", "calderon.find_intervals", None),
    ("lplab.calderon", "build_partition", "calderon.build_partition", None),
    ("lplab.constants", "check_conditions", "constants.check_conditions", None),
    ("lplab.transforms", "g_function", "transforms.g_function", _shape_scales),
    ("lplab.transforms", "scale_transform", "transforms.scale_transform", _scale_count),
    ("lplab.transforms", "synthesize", "transforms.synthesize", None),
    ("lplab.transforms", "make_atom", "transforms.make_atom", None),
    ("lplab.maximal", "grand_max", "maximal.grand_max", None),
    ("lplab.maximal", "hl_max", "maximal.hl_max", _shape),
    ("lplab.maximal", "peetre_max", "maximal.peetre_max", None),
    ("lplab.maximal", "spectral_gradient", "maximal.spectral_gradient", None),
    ("lplab.maximal", "peetre_bound_check", "maximal.peetre_bound_check", None),
    ("lplab.weights", "ap_characteristic", "weights.ap_characteristic", None),
    ("lplab.experiments", "run_experiment", "experiments.run_experiment", None),
)

# (module, class, method, span name): methods patched on their class.
METHODS = (
    ("lplab.weights", "Weight", "materialize", "weights.materialize"),
    ("lplab.families", "FamilyMember", "sample", "families.sample"),
)

SYMBOL_SPAN = "kernels.symbol"


class Recorder:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._next_id = 1
        self._symbol_depth = 0
        self._symbol_wrappers = {}
        self._undo = []
        self.op = 0
        # "module.name" bindings patched per wrapped function
        self.bindings = {}

    # -- recording ---------------------------------------------------------
    def _call(self, name, fn, args, kwargs, tag):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((self.op, sid, parent, name, start, end, tag))

    def run_op(self, op_id, fn, *args):
        """Run one benchmark op under a root span named ``op``."""
        self.op = op_id
        return self._call("op", fn, args, {}, None)

    def _wrap(self, name, fn, tag_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = tag_fn(args, kwargs) if tag_fn is not None else None
            return self._call(name, fn, args, kwargs, tag)

        return traced

    def _symbol(self, fn):
        entry = self._symbol_wrappers.get(id(fn))
        if entry is not None:
            return entry[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._symbol_depth:
                return fn(*args, **kwargs)
            self._symbol_depth += 1
            try:
                return self._call(SYMBOL_SPAN, fn, args, kwargs, _points(args, kwargs))
            finally:
                self._symbol_depth -= 1

        # keep fn alive so its id cannot be reused while the wrapper is cached
        self._symbol_wrappers[id(fn)] = (fn, traced)
        return traced

    # -- patching ----------------------------------------------------------
    def install(self):
        """Patch every ``lplab`` binding of each wrapped function and method."""
        if self._undo:
            raise RuntimeError("tracing patches are already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "lplab" or n.startswith("lplab."))]
        for mod_name, attr, span, tag_fn in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(span, orig, tag_fn)
            bound = []
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
                        bound.append(f"{mod.__name__}.{key}")
            self.bindings[f"{mod_name}.{attr}"] = bound
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = vars(cls)[meth]
            setattr(cls, meth, self._wrap(span, orig, None))
            self._undo.append((cls, meth, orig))
            self.bindings[f"{mod_name}.{cls_name}.{meth}"] = [f"{mod_name}.{cls_name}"]
        spec = sys.modules["lplab.kernels"].KernelSpec
        if "symbol" in vars(spec):
            raise RuntimeError("KernelSpec.symbol is already a class attribute")
        setattr(spec, "symbol", _SymbolField(self))
        self._undo.append((spec, "symbol", None))
        self.bindings["lplab.kernels.KernelSpec.symbol"] = ["lplab.kernels.KernelSpec"]

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            if orig is None:
                delattr(owner, key)
            else:
                setattr(owner, key, orig)
        self._undo = []
        self._symbol_wrappers = {}


class _SymbolField:
    """Data descriptor standing in for the ``KernelSpec.symbol`` field."""

    def __init__(self, recorder: Recorder):
        self._rec = recorder

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        return self._rec._symbol(obj.__dict__["symbol"])

    def __set__(self, obj, value):
        obj.__dict__["symbol"] = value


def op_stats(spans) -> dict:
    """{name: {"calls", "s", "self_s", "tags"}} over the spans of one op."""
    child_time = defaultdict(float)
    for op, sid, parent, name, start, end, tag in spans:
        child_time[parent] += end - start
    stats: dict = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "tags": []})
    for op, sid, parent, name, start, end, tag in spans:
        entry = stats[name]
        dur = end - start
        entry["calls"] += 1
        entry["s"] += dur
        entry["self_s"] += dur - child_time[sid]
        if tag is not None:
            entry["tags"].append(tag)
    return dict(stats)
