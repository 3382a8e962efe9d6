#!/usr/bin/env python3
"""Regenerate the stored reference rows the benchmark's correctness gate uses.

    python3 perfbench/make_reference.py [part ...]

For every input seed in the pool, runs one op of each named workload part
(all four by default) and writes its rows and verdict to reference/<part>.json.
Only regenerate at a commit whose numbers are trusted: every later op is
compared with these rows at relative tolerance 1e-12 and must reach the
same verdict.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(names) -> int:
    workloads = run.import_library()
    import numpy
    import scipy

    names = names or list(workloads.PARTS)
    for name in names:
        wl = workloads.PARTS[name]
        rows, passed = {}, {}
        for seed in range(workloads.INPUT_SEED_POOL):
            work = Path(tempfile.mkdtemp(dir=run.OUT))
            try:
                result = wl.op(wl.setup(seed, work), work)
            finally:
                shutil.rmtree(work)
            rows[str(seed)] = result.rows
            passed[str(seed)] = result.passed
            print(f"{name} seed {seed}: {len(result.rows)} rows, "
                  f"{'pass' if result.passed else 'FAIL'} ({result.detail})", flush=True)
        doc = {"workload": name, "numpy": numpy.__version__, "scipy": scipy.__version__,
               "passed": passed, "rows": rows}
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=0) + "\n")
    return 0


if __name__ == "__main__":
    run.OUT.mkdir(exist_ok=True)
    sys.exit(main(sys.argv[1:]))
