import json
import math

import numpy as np
import pytest

from lplab import Grid, SampledField, ScaleGrid
from lplab.cli import main
from lplab.io import field_to_csv, read_field, write_field
from lplab.kernels import CATALOG, make_builtin
from lplab.maximal import (GrandMaxConfig, PeetreParams, default_grand_scales, grand_max,
                           hl_max, peetre_max)
from lplab.transforms import g_function


@pytest.fixture()
def stored_field(tmp_path):
    grid = Grid(1, 1024, 16.0)
    x = grid.axis_coords()
    f = SampledField(grid, -2 * np.pi * x * np.exp(-np.pi * x**2))
    path = tmp_path / "f.bin"
    write_field(path, f)
    return path


# the catalog's kernels that take no parameters
PARAMETER_FREE = [name for name, entry in CATALOG.items() if 0 in entry.counts]


def test_kernels_list(capsys):
    # one line per catalog entry, in catalog order
    assert main(["kernels", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == list(CATALOG)
    for line, entry in zip(lines, CATALOG.values()):
        assert line.endswith(" " + entry.description)


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_calderon_build_rejects_a_parameter_count_the_catalog_does_not_list(name, tmp_path,
                                                                           capsys):
    argv = ["calderon", "build", "--kernel", name, "--out", str(tmp_path / "cal")]
    for count in set(range(6)) - set(CATALOG[name].counts):
        assert main(argv + ["--params", *["1.5"] * count]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {name} takes ")


def test_calderon_build_emits_report(tmp_path, capsys):
    out = tmp_path / "cal"
    assert main(["calderon", "build", "--kernel", "poissonQ", "--b", "0.5",
                 "--out", str(out)]) == 0
    report = json.loads((out / "partition.json").read_text())
    assert report["b"] == 0.5
    assert report["reproducing_residual"] <= 1e-10
    assert report["r1"] < report["r2"]
    lines = (out / "eta_ray.csv").read_text().splitlines()
    assert lines[0] == "radius,re,im"


def test_calderon_build_rejects_bad_b(tmp_path):
    assert main(["calderon", "build", "--kernel", "poissonQ", "--b", "0.05",
                 "--out", str(tmp_path)]) == 2


def test_maximal_ops_roundtrip(stored_field, tmp_path):
    # each op at the CLI's defaults gives the bytes of its library call
    f = read_field(stored_field)
    library = {"peetre": lambda: peetre_max(f, PeetreParams(2, 1)),
               "hl": lambda: hl_max(f),
               "grand": lambda: grand_max(f, GrandMaxConfig(default_grand_scales(f.grid, 64)))}
    for op in ("peetre", "hl", "grand"):
        out = tmp_path / f"{op}.bin"
        csv = tmp_path / f"{op}.csv"
        assert main(["maximal", "--op", op, "--in", str(stored_field),
                     "--out", str(out), "--csv", str(csv)]) == 0
        result = read_field(out)
        assert np.all(np.isfinite(result.values.real))
        assert result.values.tobytes() == library[op]().values.tobytes()
        assert csv.read_text().splitlines()[0] == "index,x,re,im"


def test_transform_g(stored_field, tmp_path):
    out = tmp_path / "g.bin"
    assert main(["transform", "g", "--kernel", "poissonQ", "--q", "2",
                 "--in", str(stored_field), "--out", str(out)]) == 0
    g = read_field(out)
    assert np.max(g.values.real) > 0


def test_a_real_field_file_keeps_the_real_path(tmp_path):
    # the container stores complex128; a payload with no nonzero imaginary
    # part is read back as the real field it was, so the CLI's transform and
    # grand maximal function give the bytes of the in-memory calls on it
    grid = Grid(1, 1024, 16.0)
    f = SampledField(grid, np.random.default_rng(4).standard_normal(grid.shape))
    path = tmp_path / "f.bin"
    write_field(path, f)
    assert path.read_bytes()[20:] == f.values.astype(complex).tobytes()  # after the header
    back = read_field(path)
    assert back.values.dtype == np.float64 and back.values.tobytes() == f.values.tobytes()
    cases = {
        "g": (["transform", "g"], g_function(f, make_builtin("poissonQ"),
                                             ScaleGrid.log_spaced(1e-4, 1e2, 128))),
        "grand": (["maximal", "--op", "grand"],
                  grand_max(f, GrandMaxConfig(default_grand_scales(grid, 64)))),
    }
    for name, (argv, expect) in cases.items():
        out, csv = tmp_path / f"{name}.bin", tmp_path / f"{name}.csv"
        assert main(argv + ["--in", str(path), "--out", str(out), "--csv", str(csv)]) == 0
        assert read_field(out).values.tobytes() == expect.values.tobytes()
        field_to_csv(tmp_path / "complex.csv", SampledField(grid, expect.values.astype(complex)))
        assert csv.read_bytes() == (tmp_path / "complex.csv").read_bytes()
    # one nonzero imaginary part keeps the whole field complex
    write_field(path, SampledField(grid, f.values + 1j * (np.arange(1024) == 7)))
    assert read_field(path).values.dtype == np.complex128


def test_constants_report(tmp_path):
    out = tmp_path / "cons"
    assert main(["constants", "report", "--phi", "poissonQ", "--psi", "annulus_bump",
                 "--N", "2", "--L", "2", "--out", str(out)]) == 0
    payload = json.loads((out / "conditions.json").read_text())
    assert all(v["passed"] for v in payload["verdicts"].values())
    lines = (out / "c_values.csv").read_text().splitlines()
    assert lines[0] == "j,c"


def test_constants_report_box_limited_d_fails_cleanly(tmp_path, capsys):
    # Theta = 1 leaves D(Theta, A, N) with a boundary tail above 5% of D
    out = tmp_path / "cons"
    assert main(["constants", "report", "--phi", "poissonQ", "--psi", "poissonQ",
                 "--out", str(out)]) == 1
    assert "FAIL psi_multiplier_tail" in capsys.readouterr().out

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    payload = json.loads((out / "conditions.json").read_text(), parse_constant=reject)
    verdict = payload["verdicts"]["psi_multiplier_tail"]
    assert not verdict["passed"]
    assert verdict["measured"] == payload["d_value"] > 0


def test_run_scenario_and_exit_codes(tmp_path):
    cfg = {
        "scenario": "prop36",
        "q": 2.0,
        "discrete_b": 0.95,
        "grid": {"dimension": 1, "points_per_axis": 2048, "half_extent": 16.0},
        "scales": {"t_min": 1e-3, "t_max": 100.0, "count": 96},
        "test_family": {"shapes": ["gaussian_derivative"], "dilations": [1.0]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["run", str(cfg_path), "--out", str(out)]) == 0
    assert (out / "report.json").exists()
    assert (out / "ratios.csv").exists()

    bad = dict(cfg)
    bad["scenario"] = "cor31"
    bad["p"] = 2.0  # hardy scenario requires p <= 1
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    assert main(["run", str(bad_path), "--out", str(out)]) == 2


def _write_config(directory, **overrides):
    cfg = {
        "scenario": "constants_audit",
        "grid": {"dimension": 1, "points_per_axis": 1024, "half_extent": 16.0},
    }
    cfg.update(overrides)
    path = directory / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def _write_document(directory, document):
    path = directory / "doc.json"
    path.write_text(json.dumps(document))
    return str(path)


def _cut(field_path, size):
    path = field_path.with_name("cut.bin")
    path.write_bytes(field_path.read_bytes()[:size])
    return str(path)


# each builds an argv from (tmp_path, stored field path)
BAD_INPUTS = {
    "peetre_negative_N": lambda d, f: ["maximal", "--op", "peetre", "--N", "-1",
                                       "--in", str(f), "--out", str(d / "o.bin")],
    "g_zero_q": lambda d, f: ["transform", "g", "--q", "0", "--in", str(f),
                              "--out", str(d / "o.bin")],
    "truncated_payload": lambda d, f: ["maximal", "--op", "hl", "--in", _cut(f, 1000),
                                       "--out", str(d / "o.bin")],
    "truncated_header": lambda d, f: ["transform", "g", "--in", _cut(f, 10),
                                      "--out", str(d / "o.bin")],
    # the grand maximal mollifier is the unit Gaussian; there is no option for it
    "maximal_mollifier": lambda d, f: ["maximal", "--op", "grand", "--mollifier", "gaussian",
                                       "--in", str(f), "--out", str(d / "o.bin")],
    "missing_field": lambda d, f: ["maximal", "--op", "hl", "--in", str(d / "none.bin"),
                                   "--out", str(d / "o.bin")],
    "points_per_axis_1000": lambda d, f: [
        "run", _write_config(d, grid={"dimension": 1, "points_per_axis": 1000,
                                      "half_extent": 16.0}), "--out", str(d / "run")],
    "p_as_string": lambda d, f: ["run", _write_config(d, p="1.0"), "--out", str(d / "run")],
    "b_below_b0": lambda d, f: ["run", _write_config(d, b=0.1), "--out", str(d / "run")],
    "A_negative": lambda d, f: ["run", _write_config(d, A=-1, psi={"name": "poissonQ"}),
                                "--out", str(d / "run")],
    "A_zero": lambda d, f: ["run", _write_config(d, A=0, psi={"name": "poissonQ"}),
                            "--out", str(d / "run")],
    # a vanishing psi sets A past its support edge, so a configured A is not read
    "A_with_vanishing_psi": lambda d, f: ["run", _write_config(d, A=50), "--out", str(d / "run")],
    # the ladders fix whether psi vanishes near 0; the audit reads it from psi's name
    "thm210_psi_not_vanishing": lambda d, f: [
        "run", _write_config(d, scenario="thm210", psi={"name": "poissonQ"}),
        "--out", str(d / "run")],
    "prop23_psi_vanishing": lambda d, f: [
        "run", _write_config(d, scenario="prop23", psi={"name": "annulus_bump"}),
        "--out", str(d / "run")],
    "A_below_1": lambda d, f: ["run", _write_config(d, A=0.5, psi={"name": "poissonQ"}),
                               "--out", str(d / "run")],
    "epsilons_empty": lambda d, f: ["run", _write_config(d, scenario="lemma33", epsilons=[]),
                                    "--out", str(d / "run")],
    "epsilon_above_1": lambda d, f: ["run", _write_config(d, scenario="lemma33",
                                                          epsilons=[2.0]),
                                     "--out", str(d / "run")],
    "power_weight_without_a": lambda d, f: [
        "run", _write_config(d, scenario="prop23", weight={"kind": "power"}),
        "--out", str(d / "run")],
    "unknown_shape": lambda d, f: ["run", _write_config(d, scenario="prop36",
                                                        test_family={"shapes": ["nope"]}),
                                   "--out", str(d / "run")],
    "power_tail_negative_tau": lambda d, f: ["calderon", "build", "--kernel", "power_tail",
                                             "--params", "-1", "--out", str(d / "cal")],
    "constants_negative_L": lambda d, f: ["constants", "report", "--L", "-1",
                                          "--out", str(d / "cons")],
    "verify_conditions_key": lambda d, f: ["run", _write_config(d, verify_conditions=False),
                                           "--out", str(d / "run")],
    "phi_unknown_key": lambda d, f: ["run", _write_config(d, phi={"name": "poissonQ", "foo": 1}),
                                     "--out", str(d / "run")],
    "dilations_not_list": lambda d, f: ["run", _write_config(d, scenario="prop36",
                                                             test_family={"dilations": 2.0}),
                                        "--out", str(d / "run")],
    "shifts_string": lambda d, f: ["run", _write_config(d, scenario="prop36",
                                                        test_family={"shifts": "x"}),
                                   "--out", str(d / "run")],
    "test_family_unknown_key": lambda d, f: ["run", _write_config(d, scenario="prop36",
                                                                  test_family={"foo": 1}),
                                             "--out", str(d / "run")],
    "atom_count_negative": lambda d, f: ["run", _write_config(d, scenario="lemma33", p=1.0,
                                                              atom_count=-3),
                                         "--out", str(d / "run")],
    "lemma33_p_2": lambda d, f: ["run", _write_config(d, scenario="lemma33", p=2.0),
                                 "--out", str(d / "run")],
    "scenario_list": lambda d, f: ["run", _write_config(d, scenario=["prop36"]),
                                   "--out", str(d / "run")],
    "config_key_names_a_method": lambda d, f: ["run", _write_config(d, make_grid=1),
                                               "--out", str(d / "run")],
    "test_family_null": lambda d, f: ["run", _write_config(d, scenario="prop36",
                                                           test_family=None),
                                      "--out", str(d / "run")],
    "weight_a_string": lambda d, f: [
        "run", _write_config(d, scenario="prop23", weight={"kind": "power", "a": "-0.5"}),
        "--out", str(d / "run")],
    "grid_unknown_key": lambda d, f: [
        "run", _write_config(d, grid={"dimension": 1, "points_per_axis": 1024,
                                      "half_extent": 16.0, "zz": 1}),
        "--out", str(d / "run")],
    "scales_unknown_key": lambda d, f: [
        "run", _write_config(d, scenario="prop23",
                             scales={"t_min": 1e-3, "t_max": 10.0, "count": 16, "zz": 2}),
        "--out", str(d / "run")],
    "weight_unknown_key": lambda d, f: [
        "run", _write_config(d, scenario="prop23", weight={"kind": "constant", "zz": 1}),
        "--out", str(d / "run")],
    "dilation_zero": lambda d, f: ["run", _write_config(d, scenario="cor31", p=1.0,
                                                        test_family={"dilations": [0.0]}),
                                   "--out", str(d / "run")],
    "discrete_ladder_empty": lambda d, f: [
        "run", _write_config(d, scenario="prop36",
                             scales={"t_min": 1.001, "t_max": 1.005, "count": 4}),
        "--out", str(d / "run")],
    "constant_weight_with_a": lambda d, f: [
        "run", _write_config(d, scenario="prop23", weight={"kind": "constant", "a": -0.5}),
        "--out", str(d / "run")],
    # Python's json writes and parses Infinity and NaN; the CLI's float options take "inf"
    "peetre_R_inf": lambda d, f: ["maximal", "--op", "peetre", "--R", "inf",
                                  "--in", str(f), "--out", str(d / "o.bin")],
    "peetre_N_nan": lambda d, f: ["maximal", "--op", "hl", "--N", "nan",
                                  "--in", str(f), "--out", str(d / "o.bin")],
    "g_q_inf": lambda d, f: ["transform", "g", "--q", "inf", "--in", str(f),
                             "--out", str(d / "o.bin")],
    "g_t_max_inf": lambda d, f: ["transform", "g", "--t-max", "inf", "--in", str(f),
                                 "--out", str(d / "o.bin")],
    "g_t_min_nan": lambda d, f: ["transform", "g", "--t-min", "nan", "--in", str(f),
                                 "--out", str(d / "o.bin")],
    "constants_L_inf": lambda d, f: ["constants", "report", "--L", "inf",
                                     "--out", str(d / "cons")],
    "thm210_q_infinity": lambda d, f: ["run", _write_config(d, scenario="thm210", q=math.inf),
                                       "--out", str(d / "run")],
    # finite spacings whose 2-d cell volume overflows a float
    "cor31_cell_volume_overflow": lambda d, f: [
        "run", _write_config(d, scenario="cor31", p=1.0,
                             grid={"dimension": 2, "points_per_axis": 8, "half_extent": 1e200}),
        "--out", str(d / "run")],
    "half_extent_inf": lambda d, f: [
        "run", _write_config(d, grid={"dimension": 1, "points_per_axis": 1024,
                                      "half_extent": math.inf}), "--out", str(d / "run")],
    "phi_param_not_taken": lambda d, f: ["run", _write_config(d, phi={"name": "poissonQ",
                                                                       "params": [7]}),
                                         "--out", str(d / "run")],
    # the Gaussian takes no width: any parameter is a count the catalog does not list
    "g_gaussian_width_nan": lambda d, f: ["transform", "g", "--kernel", "gaussian",
                                          "--params", "nan", "--in", str(f),
                                          "--out", str(d / "o.bin")],
    "calderon_gaussian_width_nan": lambda d, f: ["calderon", "build", "--kernel", "gaussian",
                                                 "--params", "nan", "--out", str(d / "cal")],
    # make_atom needs 8 grid cells per axis in the cube of side min(4, E/2)
    "lemma33_cube_below_8_cells": lambda d, f: [
        "run", _write_config(d, scenario="lemma33", p=1.0, atom_count=2,
                             grid={"dimension": 1, "points_per_axis": 32, "half_extent": 16.0}),
        "--out", str(d / "run")],
    "power_weight_with_c": lambda d, f: [
        "run", _write_config(d, scenario="prop23", weight={"kind": "power", "a": -0.5, "c": 3.0}),
        "--out", str(d / "run")],
    # audits that cannot be evaluated: phi_hat vanishes on the probe ray near 0,
    # or the box cannot resolve D over the derivative multipliers at N = 50
    "audit_phi_annulus_bump": lambda d, f: ["run", _write_config(d, phi={"name": "annulus_bump"}),
                                            "--out", str(d / "run")],
    "audit_N_50": lambda d, f: ["run", _write_config(d, N=50), "--out", str(d / "run")],
    "thm210_N_50": lambda d, f: ["run", _write_config(d, scenario="thm210", N=50),
                                 "--out", str(d / "run")],
    "config_a_list": lambda d, f: ["run", _write_document(d, [1, 2]), "--out", str(d / "run")],
    "config_a_string": lambda d, f: ["run", _write_document(d, "x"), "--out", str(d / "run")],
    "seed_negative": lambda d, f: ["run", _write_config(d, scenario="prop36", seed=-1),
                                   "--out", str(d / "run")],
    "test_family_seed_negative": lambda d, f: [
        "run", _write_config(d, scenario="prop36", test_family={"seed": -3}),
        "--out", str(d / "run")],
    # output paths that cannot be written: an existing file, or a missing directory
    "run_out_is_a_file": lambda d, f: ["run", _write_config(d), "--out", str(f)],
    "calderon_out_is_a_file": lambda d, f: ["calderon", "build", "--out", str(f)],
    "constants_out_is_a_file": lambda d, f: ["constants", "report", "--out", str(f)],
    "maximal_out_in_a_missing_directory": lambda d, f: [
        "maximal", "--op", "hl", "--in", str(f), "--out", str(d / "none" / "o.bin")],
    "g_csv_in_a_missing_directory": lambda d, f: [
        "transform", "g", "--scale-count", "8", "--in", str(f), "--out", str(d / "o.bin"),
        "--csv", str(d / "none" / "o.csv")],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2(case, stored_field, tmp_path, capsys):
    assert main(BAD_INPUTS[case](tmp_path, stored_field)) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv", [["--phi", name] for name in PARAMETER_FREE] + [["--N", "50"]],
                         ids=lambda argv: "=".join(argv).lstrip("-"))
def test_constants_report_raises_nothing(argv, tmp_path):
    # 0 pass, 1 a condition failed, 2 bad input: never an escaped exception
    assert main(["constants", "report", *argv, "--out", str(tmp_path / "cons")]) in (0, 1, 2)


@pytest.mark.parametrize("scenario, overrides", [
    ("prop36", {"test_family": {"shapes": []}}),
    ("lemma33", {"p": 1.0, "atom_count": 0}),
])
def test_empty_family_fails(scenario, overrides, tmp_path, capsys):
    # a run without rows has no evidence for its verdict
    assert main(["run", _write_config(tmp_path, scenario=scenario, **overrides),
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().out.startswith(f"FAIL {scenario}:")
    assert json.loads((tmp_path / "run" / "report.json").read_text())["rows"] == []
