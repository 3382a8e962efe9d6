"""Each benchmark part's traced call counts match what its config implies.

A traced benchmark run (``perfbench/run.py --trace 1``) checks the span
counts of every part against the part's ``expected_counts`` and fails its
ops on a mismatch.  This runs one traced op of each part at one input seed
with the benchmark's own workloads, recorder and counting rule, so a change
that moves a pinned count (a transform more or less per scale, a call that
no longer goes through a traced entry point) fails here too.  The op's
rows and verdict must also match the stored reference at that seed, by the
benchmark's own ``load_reference`` and ``row_problems`` (relative tolerance
``REL_TOL``), so a change that moves rows past the benchmark's gate fails
here as well.
"""

import importlib.util
import sys
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
INPUT_SEED = 3


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads, tracing, bench = _load("workloads"), _load("tracing"), _load("run")


@pytest.mark.parametrize("name", sorted(workloads.PARTS))
def test_traced_op_has_the_counts_its_config_implies(name, tmp_path):
    part = workloads.PARTS[name]
    state = part.setup(INPUT_SEED, tmp_path)
    expected = part.expected_counts(state)
    out = tmp_path / "op"
    out.mkdir()
    recorder = tracing.Recorder()
    recorder.install()
    try:
        result = recorder.run_op(1, part.op, state, out)
    finally:
        recorder.uninstall()
    stats = tracing.op_stats(recorder.spans)
    assert {key: bench.counted(stats, key) for key in expected} == expected
    assert result.passed
    ref_passed, ref_rows = bench.load_reference(types.SimpleNamespace(parts=(part,)), INPUT_SEED)
    assert (result.passed,) == ref_passed
    assert bench.row_problems(result.rows, ref_rows) == []
