"""The benchmark workloads and the four parts they are made of.

Each part has a set-up step (configs, kernels and fields built from the
input seed), one op (a verified scenario run or one bound-check pass) and
the span call counts its config implies, which the traced run checks.
A workload runs its parts one after another as one op.  See README.md in
this directory for why each part exists and why they are grouped so.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Workload seeds map onto a pool of input seeds whose reference rows are
# stored in reference/<workload>.json.
INPUT_SEED_POOL = 32


def input_seed(seed: int) -> int:
    return seed % INPUT_SEED_POOL


def _rows_from_csv(text: str) -> list:
    rows = []
    for line in text.splitlines()[1:]:
        # member names contain commas, the four numeric columns do not
        fname, lam, lhs, rhs, ratio = line.rsplit(",", 4)
        rows.append([fname, float(lam), float(lhs), float(rhs), float(ratio)])
    return rows


@dataclass
class OpResult:
    """Rows, the pass verdict and (for scenarios) the ratios.csv bytes of one op.

    A workload's op has one verdict per part, output bytes for every part
    and the perf_counter window (part name, start, end) in which each part ran.
    """

    rows: list
    passed: bool | tuple
    csv: bytes | None
    detail: str
    windows: tuple = ()


class Ladder1d:
    """thm210 at the unweighted acceptance-criterion-6 config, through the CLI."""

    name = "ladder_1d"
    rows_per_op = 15
    scales = 128
    points = 4096
    # scale_transform stacks 128 x 4096 complex128 values
    largest_array_bytes = 128 * 4096 * 16

    def config(self, seed: int) -> dict:
        return {
            "scenario": "thm210", "p": 2.0, "q": 2.0, "N": 2,
            "grid": {"dimension": 1, "points_per_axis": self.points, "half_extent": 16.0},
            "scales": {"t_min": 1e-4, "t_max": 1e2, "count": self.scales},
            "seed": seed,
            "test_family": {"seed": seed},
        }

    def setup(self, seed: int, workdir: Path):
        from lplab import ExperimentConfig, cli

        cfg = self.config(seed)
        ExperimentConfig.from_dict(cfg).validate()
        path = workdir / "ladder_1d.json"
        path.write_text(json.dumps(cfg))
        return {"cli": cli, "config": path}

    def op(self, state, out: Path) -> OpResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = state["cli"].main(["run", str(state["config"]), "--out", str(out)])
        csv = (out / "ratios.csv").read_bytes()
        verdict = (buf.getvalue().splitlines() or [""])[0]
        passed = code == 0 and verdict.startswith("PASS thm210:")
        return OpResult(_rows_from_csv(csv.decode()), passed, csv, f"exit {code}: {verdict}")

    def expected_counts(self, state) -> dict:
        members = 15
        measured = members + 2  # plus the two translation-gap members
        return {
            "experiments.run_experiment": 1,
            "transforms.g_function": 2 * measured,
            "transforms.scale_transform": 2 * measured,
            "transforms.scale_convolutions": 2 * measured * self.scales,
            "families.sample": measured,
            "calderon.find_intervals": 1,
            "calderon.build_partition": 1,
            "constants.check_conditions": 1,
            "maximal.grand_max": 0,
            "maximal.hl_max": 0,
        }


class _Scenario:
    """A scenario run through run_experiment + emit_report."""

    def setup(self, seed: int, workdir: Path):
        import lplab.experiments
        from lplab import ExperimentConfig, emit_report

        cfg = ExperimentConfig.from_dict(self.config(seed))
        cfg.validate()
        return {"cfg": cfg, "emit": emit_report, "experiments": lplab.experiments}

    def op(self, state, out: Path) -> OpResult:
        # resolved at call time so the traced op goes through the patched binding
        report = state["experiments"].run_experiment(state["cfg"])
        state["emit"](report, out)
        csv = (out / "ratios.csv").read_bytes()
        return OpResult(_rows_from_csv(csv.decode()), bool(report.passed), csv,
                        f"passed={report.passed}")


class Hardy2d(_Scenario):
    """cor31 at the 2-d config of test_hardy_lower_two_dimensional."""

    name = "hardy_2d"
    rows_per_op = 4
    p = 256
    scales = 48
    grand_scales = 128
    # scale_transform stacks 48 x 256^2 complex128 values
    largest_array_bytes = 48 * 256 * 256 * 16

    def config(self, seed: int) -> dict:
        return {
            "scenario": "cor31", "p": 1.0,
            "grid": {"dimension": 2, "points_per_axis": self.p, "half_extent": 8.0},
            "scales": {"t_min": 1e-3, "t_max": 50.0, "count": self.scales},
            "grand_scales": {"t_min": 0.0156, "t_max": 16.0, "count": self.grand_scales},
            "test_family": {"shapes": ["gaussian_derivative", "band_noise"],
                            "dilations": [1.0, 2.0], "seed": seed},
            "seed": seed,
        }

    def expected_counts(self, state) -> dict:
        measured = 4 + 2  # 2 shapes x 2 dilations, plus the translation-gap pair
        return {
            "experiments.run_experiment": 1,
            "families.sample": measured,
            "maximal.grand_max": measured,
            "transforms.g_function": measured,
            "transforms.scale_transform": measured,
            "transforms.scale_convolutions": measured * self.scales,
            "fields.to_spectrum": 2 * measured,
            "fields.from_spectrum": measured * (self.scales + self.grand_scales),
            "maximal.hl_max": 0,
        }


class Atoms1d(_Scenario):
    """lemma33 at the acceptance-criterion-9 config."""

    name = "atoms_1d"
    atoms = 20
    epsilons = (1e-1, 1e-2, 1e-3)
    rows_per_op = atoms * len(epsilons)
    points = 2048
    # make_atom stacks 128 x 2048 complex128 values
    largest_array_bytes = 128 * 2048 * 16

    def config(self, seed: int) -> dict:
        return {
            "scenario": "lemma33", "p": 1.0, "atom_count": self.atoms,
            "epsilons": list(self.epsilons),
            "grid": {"dimension": 1, "points_per_axis": self.points, "half_extent": 16.0},
            "seed": seed,
            "test_family": {"seed": seed},
        }

    def expected_counts(self, state) -> dict:
        from lplab import Grid, ScaleGrid
        from lplab.maximal import default_grand_scales

        # the scale grid and synthesis windows _run_synthesis_atoms derives
        scales = ScaleGrid.log_spaced(min(self.epsilons) / 2.0,
                                      2.0 / min(self.epsilons), 128).scales
        in_window = sum(int(np.sum((scales > e) & (scales < 1.0 / e))) for e in self.epsilons)
        grand = default_grand_scales(Grid(1, self.points, 16.0)).count
        runs = self.atoms * len(self.epsilons)
        return {
            "experiments.run_experiment": 1,
            "transforms.make_atom": self.atoms,
            "transforms.synthesize": runs,
            "maximal.grand_max": runs,
            "fields.to_spectrum": self.atoms * scales.size + self.atoms * in_window + runs,
            "fields.from_spectrum": self.atoms * scales.size + runs + runs * grand,
            "transforms.g_function": 0,
            "maximal.hl_max": 0,
        }


class SmoothingBound:
    """peetre_bound_check on seeded band_noise fields (1-d 4096, 2-d 64^2)
    plus the A_2 characteristic of a seeded power weight on both grids."""

    name = "smoothing_bound"
    rows_per_op = 4
    # peetre_max 1-d scans 512 shifts x 4096 points of float64 per chunk
    largest_array_bytes = 512 * 4096 * 8

    def setup(self, seed: int, workdir: Path):
        import lplab.maximal
        import lplab.weights
        from lplab import FamilyMember, Grid, Weight
        from lplab.maximal import PeetreParams

        rng = np.random.default_rng(seed)
        cases = []
        for grid in (Grid(1, 4096, 16.0), Grid(2, 64, 8.0)):
            n = grid.dimension
            field = FamilyMember("band_noise", 1.0, 0.0, seed).sample(grid)
            # |x|^a is an A_2 weight for -n < a < n
            a = float(rng.uniform(-0.8, 0.8) * n)
            radii = np.exp(np.linspace(math.log(grid.spacing),
                                       math.log(grid.half_extent), 32 // n))
            cases.append((f"{n}d", grid, field, Weight.power(a), a, radii))
        return {"cases": cases, "params": PeetreParams(2.0, 1.0), "delta": 0.5,
                "maximal": lplab.maximal, "weights": lplab.weights}

    def op(self, state, out: Path) -> OpResult:
        rows = []
        passed = True
        for label, grid, field, weight, a, radii in state["cases"]:
            # module attributes, so the traced op goes through the patched bindings
            rep = state["maximal"].peetre_bound_check(field, state["params"], state["delta"])
            lhs = float(np.sum(rep.lhs.values.real))
            rhs = float(np.sum(rep.term_average.values.real + rep.term_gradient.values.real))
            rows.append([f"peetre_bound_{label}", state["delta"], lhs, rhs, rep.c_min])
            ap = state["weights"].ap_characteristic(weight, 2.0, radii, grid)
            rows.append([f"ap2_power_{label}[a={a!r}]", 2.0, ap, 1.0, ap])
            # c_min is a finite positive constant; [w]_{A_2} >= 1 by Cauchy-Schwarz
            passed &= math.isfinite(rep.c_min) and rep.c_min > 0
            passed &= math.isfinite(ap) and ap >= 1.0 - 1e-12
        return OpResult(rows, bool(passed), None, f"passed={passed}")

    def expected_counts(self, state) -> dict:
        fields = len(state["cases"])
        return {
            "maximal.peetre_bound_check": fields,
            "maximal.peetre_max": 2 * fields,
            "maximal.hl_max": fields,
            "maximal.spectral_gradient": fields,
            "fields.to_spectrum": fields,
            "fields.from_spectrum": sum(c[1].dimension for c in state["cases"]),
            "weights.ap_characteristic": fields,
            "weights.materialize": fields,
            "experiments.run_experiment": 0,
            "maximal.grand_max": 0,
        }


class Workload:
    """Parts run one after another as one op.

    Each part keeps its own config, reference rows and implied call counts.
    The op's rows are the parts' rows in part order, and its verdict is the
    tuple of the parts' verdicts.
    """

    def __init__(self, name: str, *parts):
        self.name = name
        self.parts = parts
        self.rows_per_op = sum(p.rows_per_op for p in parts)
        self.largest_array_bytes = max(p.largest_array_bytes for p in parts)

    def setup(self, seed: int, workdir: Path):
        return [part.setup(seed, workdir) for part in self.parts]

    def op(self, states, out: Path) -> OpResult:
        results, windows = [], []
        for part, state in zip(self.parts, states):
            sub = out / part.name
            sub.mkdir()
            start = time.perf_counter()
            results.append(part.op(state, sub))
            windows.append((part.name, start, time.perf_counter()))
        return OpResult(
            [row for r in results for row in r.rows],
            tuple(r.passed for r in results),
            # ratios.csv where the part writes one, else its rows with every digit
            b"".join(r.csv or json.dumps(r.rows).encode() for r in results),
            "; ".join(f"{p.name} {r.detail}" for p, r in zip(self.parts, results)),
            tuple(windows))

    def expected_counts(self, states) -> dict:
        return {p.name: p.expected_counts(s) for p, s in zip(self.parts, states)}


PARTS = {p.name: p for p in (Ladder1d(), Hardy2d(), Atoms1d(), SmoothingBound())}

# Two workloads rather than four, so that each run can be long enough to be
# steady on a shared host (see README.md).
WORKLOADS = {w.name: w for w in (
    Workload("ladder_atoms_1d", PARTS["ladder_1d"], PARTS["atoms_1d"]),
    Workload("hardy_peetre", PARTS["hardy_2d"], PARTS["smoothing_bound"]),
)}
