"""The run path loads no SciPy submodule: `import lplab`, a scenario run, a
2-d `hl_max` and a `peetre_bound_check` load nothing of scipy beyond its
package init (`import scipy`, whose version the report records), so in
particular never scipy.fft, scipy.special or scipy.ndimage.  scipy.optimize
arrives with `check_nondegeneracy`, its only caller, and not before.

The check runs in a fresh interpreter, because this process has long since
imported all of them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from test_experiments import FAST_GRID, FAST_SCALES, ONE_SHAPE, TINY

from lplab import (Grid, PeetreParams, SampledField, ScaleGrid, check_nondegeneracy, hl_max,
                   make_builtin, peetre_bound_check)

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys
import scipy
scipy_modules = lambda: {m for m in sys.modules if m == "scipy" or m.startswith("scipy.")}
package_init = scipy_modules()
import numpy as np
import lplab, lplab.cli
from lplab import (Grid, PeetreParams, SampledField, ScaleGrid, check_nondegeneracy, hl_max,
                   make_builtin, peetre_bound_check)

config, out_dir, result = sys.argv[1:]
loaded = lambda: sorted(scipy_modules() - package_init)
seen = {"import": loaded()}
seen["exit"] = lplab.cli.main(["run", config, "--out", out_dir])
seen["run"] = loaded()
field = SampledField(Grid(2, 16, 2.0), np.random.default_rng(3).standard_normal((16, 16)))
seen["hl_max"] = hl_max(field).values.tobytes().hex()
seen["after_hl_max"] = loaded()
seen["c_min"] = peetre_bound_check(field, PeetreParams(2.0, 2.0), 0.5).c_min.hex()
seen["after_peetre"] = loaded()
seen["nondegeneracy"] = check_nondegeneracy(
    make_builtin("poissonQ"), ScaleGrid.log_spaced(1e-3, 1e2, 64)).hex()
seen["after_nondegeneracy"] = loaded()
with open(result, "w") as fh:
    json.dump(seen, fh)
"""


def test_run_imports_neither_optimize_nor_ndimage(tmp_path):
    config = {"scenario": "thm210", "grid": FAST_GRID, "scales": FAST_SCALES,
              "test_family": ONE_SHAPE, **TINY["thm210"]}
    (tmp_path / "thm210.json").write_text(json.dumps(config))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = ["thm210.json", "out", "seen.json"]
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    seen = json.loads((tmp_path / "seen.json").read_text())

    assert seen["exit"] == 0 and (tmp_path / "out" / "ratios.csv").is_file()
    for stage in ("import", "run", "after_hl_max", "after_peetre"):
        assert seen[stage] == [], stage
    assert "scipy.optimize" in seen["after_nondegeneracy"]
    # and each call computes what it does in this process
    field = SampledField(Grid(2, 16, 2.0), np.random.default_rng(3).standard_normal((16, 16)))
    assert seen["hl_max"] == hl_max(field).values.tobytes().hex()
    assert seen["c_min"] == peetre_bound_check(field, PeetreParams(2.0, 2.0), 0.5).c_min.hex()
    expect = check_nondegeneracy(make_builtin("poissonQ"), ScaleGrid.log_spaced(1e-3, 1e2, 64))
    assert seen["nondegeneracy"] == expect.hex()
