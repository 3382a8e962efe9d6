#!/usr/bin/env python3
"""lplab benchmark: time from a config to a verified result, per workload.

Run from the repository root:

    python3 perfbench/run.py --workload ladder_atoms_1d --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

One client, closed loop: each op starts when the previous one has ended,
and every op is verified.  An untraced run (``--trace 0``) is a sequence of
WORKERS fresh worker processes, one at a time, each of which sets up the
workload, runs a cold op and then warm ops for its share of the measuring
time; it prints the end-to-end metrics of BENCHMARK.json.  A traced run
(``--trace 1``) stays in one process, alternates untraced and traced ops
and prints the per-layer metrics from spans recorded around the ``lplab``
entry points, and ``trace.overhead``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything else the run measured (machine block, coverage and sanity
checks, every span) goes to ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

# An untraced run starts WORKERS workers, one after another; each gets an
# equal share of the measuring time for one cold op and at least MIN_WARM_OPS
# warm ops.  A further op starts only if the last one would still end in time.
WORKERS = 3
MIN_WARM_OPS = 1
MIN_TRACED_OPS = 2
REL_TOL = 1e-12
WORKER_TIMEOUT_S = 150
# ops keep failing: give up this long after the measuring time has ended
OVERRUN_S = 60

# The host's speed drifts by tens of percent over minutes (see README.md).
# An untraced run times a fixed calibration kernel CAL_REPS times before,
# between and after its workers, never while one runs, and scales the
# end-to-end times by CAL_REF_S over the median kernel time: they read in
# seconds of a host on which the kernel takes CAL_REF_S.
CAL_REF_S = 0.2
CAL_REPS = 3
CAL_LOOP = 1_000_000
CAL_FFTS = 8
CAL_SHAPE = (128, 4096)

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")

# Baselines from ROADMAP.md (2 cores, Python 3.11, NumPy 2.4.6, SciPy 1.17.1):
# (span, tag, seconds per call, label).  A traced per-call time more than an
# order of magnitude away from its baseline is flagged, never hidden.
SANITY = (
    ("transforms.g_function", ((4096,), 128), (0.026, 0.031), "g_function 1-d 4096 x 128"),
    ("maximal.hl_max", (64, 64), (0.86, 0.86), "hl_max 2-d 64^2"),
)


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_library():
    """Put the checkout's ``src`` on the path; fail if the sources are absent."""
    src = ROOT / "src"
    if not (src / "lplab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no lplab sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import lplab  # noqa: F401  (fail here, before any measurement)
    import workloads

    return workloads


def machine_block(workloads) -> dict:
    import numpy
    import scipy

    libc = ctypes.CDLL(None)
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    # glibc _SC_LEVEL2_CACHE_SIZE / _SC_LEVEL3_CACHE_SIZE
    l2, l3 = libc.sysconf(191), libc.sysconf(194)
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l2_bytes_per_core": l2,
        "l3_bytes": l3,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "largest_array_bytes_computed": {
            name: wl.largest_array_bytes for name, wl in workloads.WORKLOADS.items()
        },
    }


def run_worker(args, until: float) -> dict:
    """Start one worker process, wait for it and return its report.

    The worker starts no warm op that would end after ``until`` (a
    ``time.monotonic()`` value) unless it has yet to run MIN_WARM_OPS.
    ``setup_s`` is the wall time from the start of the process to the end
    of its cold op, which the worker signals with a line on its stdout.
    A worker that dies without a report counts as one failed op.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--worker", repr(until)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        cold_done = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    lines = out.splitlines()
    if proc.returncode != 0 or not cold_done or not lines:
        print(f"worker exited {proc.returncode} without a report", file=sys.stderr)
        return {"attempted": 1, "failed": 1, "warm_s": [], "part_s": [], "setup_s": None}
    return dict(json.loads(lines[-1]), setup_s=setup_s)


def worker(args, wl, seed, workdir) -> int:
    """One worker of an untraced run: set up, a cold op, then warm ops.

    Warm ops run until the next one would end after ``args.worker`` (see
    run_worker), and at least MIN_WARM_OPS of them.  Every op is checked
    against the reference rows, and the warm ops' rows and output bytes
    against the cold op's.  The last line printed is the worker's report.
    """
    state = wl.setup(seed, workdir)
    ops = [timed_op(wl.op, state, workdir / "op0")]
    print("cold op done", flush=True)
    while len(ops) <= MIN_WARM_OPS or time.monotonic() + ops[-1][0] <= args.worker:
        ops.append(timed_op(wl.op, state, workdir / f"op{len(ops) % 2}"))
    ref_passed, ref_rows = load_reference(wl, seed)
    first = ops[0][1]
    failed = 0
    for k, (_, result) in enumerate(ops):
        problems = (["op raised"] if result is None else
                    verify(result, ref_passed, ref_rows, first if k else None))
        failed += bool(problems)
        for p in problems:
            print(f"worker op {k} FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "attempted": len(ops), "failed": failed,
        "cold_s": ops[0][0], "warm_s": [t for t, r in ops[1:] if r is not None],
        "part_s": [{name: end - start for name, start, end in r.windows}
                   for _, r in ops[1:] if r is not None],
        "output_sha256": hashlib.sha256(first.csv).hexdigest() if first else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


def calibrate(batch) -> float:
    """Seconds taken by the calibration kernel: a Python loop and batched
    1-d FFTs of ``batch``, the two kinds of work the ops are made of.
    It is fixed code, so a change to ``lplab`` cannot move it."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    for _ in range(CAL_FFTS):
        np.fft.ifft(np.fft.fft(batch, axis=1) * 0.5, axis=1)
    return time.perf_counter() - start


def timed_op(op, state, out: Path) -> tuple:
    """(wall seconds, result) of one op in an empty output directory; None if it raised."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    start = time.perf_counter()
    try:
        result = op(state, out)
    except Exception:
        traceback.print_exc()
        result = None
    return time.perf_counter() - start, result


def load_reference(wl, seed: int) -> tuple:
    """The stored (verdicts, rows) of one op at this input seed, part by part."""
    passed, rows = [], []
    for part in wl.parts:
        with open(HERE / "reference" / f"{part.name}.json") as fh:
            ref = json.load(fh)
        try:
            passed.append(ref["passed"][str(seed)])
            rows += ref["rows"][str(seed)]
        except KeyError:
            sys.exit(f"perfbench: no reference rows for {part.name} input seed {seed}")
    return tuple(passed), rows


def row_problems(rows, ref) -> list:
    """Differences between an op's rows and the stored reference rows."""
    if len(rows) != len(ref):
        return [f"{len(rows)} rows, reference has {len(ref)}"]
    problems = []
    for got, want in zip(rows, ref):
        if got[:2] != want[:2]:
            problems.append(f"row {got[:2]} where reference has {want[:2]}")
            continue
        for label, g, w in zip(("lhs", "rhs", "ratio"), got[2:], want[2:]):
            if not abs(g - w) <= REL_TOL * abs(w):
                problems.append(f"{got[0]} {label} {g!r} vs reference {w!r}")
    return problems


def counted(stats, key):
    """Per-op value of a per-layer metric or coverage key from span stats."""
    def tag_sum(span):
        return sum(stats[span]["tags"]) if span in stats else 0

    if key == "fields.fft_bytes":
        # computed: each transform reads its input and writes an equal-size output
        return 2 * (tag_sum("fields.to_spectrum") + tag_sum("fields.from_spectrum"))
    if key == "kernels.symbol.points":
        return tag_sum("kernels.symbol")
    if key == "transforms.scale_convolutions":
        return tag_sum("transforms.scale_transform")
    span, _, field = key.rpartition(".")
    if field not in ("calls", "s", "self_s"):
        span, field = key, "calls"
    return stats[span][field] if span in stats else 0


def verify(result, ref_passed, reference, first) -> list:
    """Correctness gate: reference verdict and rows, and determinism within the run."""
    problems = []
    if result.passed != ref_passed:
        problems.append(f"verdict differs from the reference ({result.detail})")
    problems += row_problems(result.rows, reference)
    if first is not None and result.rows != first.rows:
        problems.append("rows differ from the first op of this run")
    if first is not None and result.csv != first.csv:
        problems.append("ratios.csv or rows bytes differ from the first op of this run")
    return problems


def measure_workers(args) -> tuple:
    """Reports of WORKERS workers, one after another, each with an equal
    share of the measuring time, and the calibration kernel times."""
    start = time.monotonic()
    batch = np.random.default_rng(0).standard_normal(CAL_SHAPE) + 0j
    cal_s = [calibrate(batch) for _ in range(CAL_REPS)]
    workers = []
    for i in range(WORKERS):
        workers.append(run_worker(args, start + args.seconds * (i + 1) / WORKERS))
        cal_s += [calibrate(batch) for _ in range(CAL_REPS)]
    # the determinism contract holds across the workers of a run too
    digests = [w["output_sha256"] for w in workers if w.get("output_sha256")]
    for w in workers:
        if w.get("output_sha256") and w["output_sha256"] != digests[0]:
            w["failed"] += 1
            print("worker FAILED: output differs from the first worker's", file=sys.stderr)
    return workers, cal_s


def measure_traced(args, wl, state, workdir, reference, recorder) -> dict:
    """Closed loop of ops in this process for the measuring time.

    Op 0 warms caches and lazy imports and is verified but not timed.  Then
    odd ops run untraced and even ops traced, until the next op would end
    after the measuring time and at least MIN_TRACED_OPS of each have run.
    Every op is verified, and each part of a traced op has its call counts
    checked against the part's config.
    """
    import tracing

    ref_passed, ref_rows = reference
    expected = wl.expected_counts(state)
    first = None
    attempted = failed = 0
    times = {"untraced": [], "traced": []}
    part_s = []
    traced_stats = []
    coverage_problems = []
    deadline = time.perf_counter() + args.seconds
    elapsed = 0.0
    k = 0
    while True:
        now = time.perf_counter()
        if now + elapsed > deadline and all(len(t) >= MIN_TRACED_OPS for t in times.values()):
            break
        if now > deadline + OVERRUN_S:
            sys.exit("perfbench: too few ops completed to report medians")
        traced = k > 0 and k % 2 == 0
        attempted += 1
        if traced:
            recorder.install()
            try:
                elapsed, result = timed_op(functools.partial(recorder.run_op, k, wl.op),
                                           state, workdir / f"op{k % 2}")
            finally:
                recorder.uninstall()
        else:
            elapsed, result = timed_op(wl.op, state, workdir / f"op{k % 2}")
        if result is None:
            problems = ["op raised"]
        else:
            problems = verify(result, ref_passed, ref_rows, first)
            first = first or result
            if traced:
                spans = [s for s in recorder.spans if s[0] == k]
                traced_stats.append(tracing.op_stats(spans))
                cov = []
                for part, start, end in result.windows:
                    stats = tracing.op_stats([s for s in spans
                                              if start <= s[4] and s[5] <= end])
                    cov += [f"{part} {key}: {counted(stats, key)} calls, config implies {want}"
                            for key, want in expected[part].items()
                            if counted(stats, key) != want]
                coverage_problems += cov
                problems += cov
            if k > 0:
                times["traced" if traced else "untraced"].append(elapsed)
            if k > 0 and not traced:
                part_s.append({name: end - start for name, start, end in result.windows})
        if problems:
            failed += 1
            for p in problems:
                print(f"op {k} FAILED: {p}", file=sys.stderr)
        k += 1
    return {"attempted": attempted, "failed": failed, "times": times, "part_s": part_s,
            "traced_stats": traced_stats, "expected": expected,
            "coverage_problems": coverage_problems}


def run(args) -> int:
    spec = load_spec()
    workloads = import_library()
    wl = workloads.WORKLOADS[args.workload]
    seed = workloads.input_seed(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.worker is not None:
            return worker(args, wl, seed, workdir)
        if args.trace:
            import tracing

            recorder = tracing.Recorder()
            state = wl.setup(seed, workdir)
            m = measure_traced(args, wl, state, workdir, load_reference(wl, seed), recorder)
        else:
            workers, cal_s = measure_workers(args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        times = m["times"]
        values = {x["name"]: statistics.median(counted(s, x["name"]) for s in m["traced_stats"])
                  for x in spec["per_layer"] if not x["name"].startswith(("trace.", "parts."))}
        # median untraced time of each part; 0 for the parts of other workloads
        for name in workloads.PARTS:
            values[f"parts.{name}.s"] = statistics.median(
                p.get(name, 0.0) for p in m["part_s"])
        values["trace.overhead"] = (statistics.median(times["traced"])
                                    / statistics.median(times["untraced"]))
        metric_spec = spec["per_layer"]
        attempted, failed = m["attempted"], m["failed"]
        sanity = sanity_check(recorder.spans)
        measured = {"op_seconds": times, "part_seconds": m["part_s"],
                    "coverage": {"bindings": recorder.bindings, "expected_calls": m["expected"],
                                 "problems": m["coverage_problems"]}}
        counts = f"{len(times['untraced'])} untraced and {len(times['traced'])} traced ops"
    else:
        warm_s = [t for w in workers for t in w["warm_s"]]
        if not warm_s:
            sys.exit("perfbench: no warm op completed, so there is no op time to report")
        wall = {"run_s": statistics.median(warm_s),
                "setup_s": statistics.median(w["setup_s"] for w in workers if w["setup_s"]),
                "cal_s": statistics.median(cal_s)}
        scale = CAL_REF_S / wall["cal_s"]
        run_s = wall["run_s"] * scale
        values = {
            "run_s": run_s,
            "members_per_s": wl.rows_per_op / run_s,
            "setup_s": wall["setup_s"] * scale,
            "peak_rss_mb": max(w.get("peak_rss_mb", 0.0) for w in workers),
        }
        metric_spec = spec["end_to_end"]
        attempted = sum(w["attempted"] for w in workers)
        failed = sum(w["failed"] for w in workers)
        sanity = []
        measured = {"workers": workers, "wall": wall, "cal_ref_s": CAL_REF_S,
                    "calibration_s": cal_s}
        counts = (f"{len(workers)} workers; wall run_s {wall['run_s']:.4g} s, setup_s "
                  f"{wall['setup_s']:.4g} s, calibration {wall['cal_s']:.4g} s "
                  f"(reference {CAL_REF_S} s)")
    metrics = {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in metric_spec}
    machine = machine_block(workloads)
    detail = {
        "workload": args.workload, "seed": args.seed, "input_seed": seed,
        "trace": args.trace, "seconds": args.seconds, "machine": machine, **measured,
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "sanity": sanity,
        "metrics": metrics,
    }
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        # one [op, id, parent, name, start, end, tag] array per line
        with gzip.open(OUT / f"{tag}.spans.jsonl.gz", "wt") as fh:
            for s in recorder.spans:
                fh.write(json.dumps(s) + "\n")

    print(f"machine {json.dumps(machine)}")
    print(f"{args.workload} seed {args.seed} (input seed {seed}) trace {args.trace}: "
          f"{attempted} ops in {counts}, {failed} failed")
    for name, x in metrics.items():
        print(f"  {name:36s} {x['value']:.6g} {x['unit']}")
    print(f"  {'fail_ratio':36s} {failed / attempted:.6g} ratio")
    if args.trace:
        print(f"  coverage: {'ok' if not m['coverage_problems'] else 'MISMATCH'}")
    for x in sanity:
        print(f"  sanity {x['label']}: {x['per_call_s']:.4g} s per call over {x['calls']} "
              f"calls, baseline {x['baseline_s']} s: {x['verdict']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def sanity_check(spans) -> list:
    out = []
    for span, tag, baseline, label in SANITY:
        durs = [end - start for _, _, _, name, start, end, t in spans
                if name == span and t == tag]
        if not durs:
            continue
        per_call = sum(durs) / len(durs)
        ratio = per_call / (sum(baseline) / 2.0)
        verdict = "ok" if 0.1 <= ratio <= 10.0 else "MISMATCH: not within an order of magnitude"
        out.append({"label": label, "per_call_s": per_call, "calls": len(durs),
                    "baseline_s": list(baseline), "verdict": verdict})
    return out


def run_all(args) -> int:
    """Every workload with tracing off and on, each in its own process."""
    spec = load_spec()
    import_library()
    results = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = done.stdout.splitlines(True)
            # the machine block (first line) is the same for every workload
            sys.stdout.write("".join(lines[:-1] if not results else lines[1:-1]))
            if done.returncode != 0:
                sys.exit(f"perfbench: {workload} trace {trace} exited {done.returncode}")
            results[(workload, trace)] = json.loads(done.stdout.splitlines()[-1])
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for (w, _), r in results.items()
                    for name, m in r["metrics"].items()},
    }
    with open(OUT / f"all-seed{args.seed}.json", "w") as fh:
        json.dump(summary, fh, indent=1)
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=float, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(load_spec()["run_seconds"])
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    names = [w["name"] for w in load_spec()["workloads"]]
    if args.workload not in names:
        ap.error(f"--workload must be one of {names} or 'all'")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
