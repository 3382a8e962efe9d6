"""`import lplab` and a scenario run load neither scipy.optimize nor
scipy.ndimage: the two functions that need them import them on first call.

The check runs in a fresh interpreter, because this process has long since
imported both modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from test_experiments import FAST_GRID, FAST_SCALES, ONE_SHAPE, TINY

from lplab import Grid, SampledField, ScaleGrid, check_nondegeneracy, hl_max, make_builtin

SRC = Path(__file__).resolve().parent.parent / "src"
DEFERRED = ["scipy.optimize", "scipy.ndimage"]

PROBE = """
import json, sys
import numpy as np
import lplab, lplab.cli
from lplab import Grid, SampledField, ScaleGrid, check_nondegeneracy, hl_max, make_builtin

deferred, config, out_dir, result = json.loads(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4]
loaded = lambda: [m for m in deferred if m in sys.modules]
seen = {"import": loaded()}
seen["exit"] = lplab.cli.main(["run", config, "--out", out_dir])
seen["run"] = loaded()
seen["nondegeneracy"] = check_nondegeneracy(
    make_builtin("poissonQ"), ScaleGrid.log_spaced(1e-3, 1e2, 64)).hex()
vals = np.abs(np.random.default_rng(3).standard_normal((16, 16)))
seen["hl_max"] = hl_max(SampledField(Grid(2, 16, 2.0), vals)).values.tobytes().hex()
seen["called"] = loaded()
with open(result, "w") as fh:
    json.dump(seen, fh)
"""


def test_run_imports_neither_optimize_nor_ndimage(tmp_path):
    config = {"scenario": "thm210", "grid": FAST_GRID, "scales": FAST_SCALES,
              "test_family": ONE_SHAPE, **TINY["thm210"]}
    (tmp_path / "thm210.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [json.dumps(DEFERRED), "thm210.json", "out", "seen.json"]
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads((tmp_path / "seen.json").read_text())

    assert seen["import"] == []
    assert seen["exit"] == 0 and (tmp_path / "out" / "ratios.csv").is_file()
    assert seen["run"] == []
    # the callers load what they need, and compute what they do in-process
    assert seen["called"] == DEFERRED
    expect = check_nondegeneracy(make_builtin("poissonQ"), ScaleGrid.log_spaced(1e-3, 1e2, 64))
    assert seen["nondegeneracy"] == expect.hex()
    vals = np.abs(np.random.default_rng(3).standard_normal((16, 16)))
    assert seen["hl_max"] == hl_max(SampledField(Grid(2, 16, 2.0), vals)).values.tobytes().hex()
