import json
import logging
import math
import os
import platform
import re
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import lplab
from lplab import ConfigError, ExperimentConfig, Report, emit_report, fields, run_experiment
from lplab.experiments import SCENARIOS, _stable, constants_audit


FAST_GRID = {"dimension": 1, "points_per_axis": 2048, "half_extent": 16.0}
FAST_SCALES = {"t_min": 1e-3, "t_max": 100.0, "count": 96}
ONE_SHAPE = {"shapes": ["gaussian_derivative"], "dilations": [1.0, 2.0]}


def fast_config(scenario, **kw):
    base = {
        "scenario": scenario,
        "grid": dict(FAST_GRID),
        "scales": dict(FAST_SCALES),
        "test_family": dict(ONE_SHAPE),
    }
    base.update(kw)
    return ExperimentConfig.from_dict(base)


class TestConfigValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "prop99"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"scenario": "cor31", "foo": 1})

    def test_hardy_needs_small_p(self):
        cfg = fast_config("cor31", p=2.0)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_ladder_needs_large_n(self):
        cfg = fast_config("prop23", p=0.5, q=2.0, N=1)
        with pytest.raises(ConfigError, match="N > max"):
            cfg.validate()

    def test_inadmissible_weight_rejected(self):
        cfg = fast_config("prop23", p=2.0, q=2.0, N=2,
                          weight={"kind": "power", "a": 3.5})
        with pytest.raises(ConfigError, match="admissible"):
            cfg.validate()

    def test_b_below_b0_rejected(self):
        # poissonQ has b0 ~ 0.186; the partition is never built at a silently raised b
        with pytest.raises(ConfigError, match="b0"):
            run_experiment(fast_config("constants_audit", b=0.1))

    @pytest.mark.parametrize("key, value", [
        ("p", "1.0"), ("N", True), ("seed", 1.5), ("grid", [1024]),
        ("scales", {"t_min": 1.0, "t_max": 0.5, "count": 8}),
    ])
    def test_bad_types_and_ranges_rejected(self, key, value):
        with pytest.raises(ConfigError):
            fast_config("cor31", **{key: value})

    @pytest.mark.parametrize("kw", [
        {"scenario": "prop99"},
        {"scenario": "prop36", "discrete_b": 1.5},
        {"scenario": "cor31", "p": 1.0, "test_family": {"dilations": 2.0}},
    ])
    def test_direct_config_is_fully_validated(self, kw):
        with pytest.raises(ConfigError):
            ExperimentConfig(**kw).validate()

    def test_unknown_kernel_name(self):
        cfg = fast_config("cor31", p=1.0, phi={"name": "sinc", "params": []})
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestScenarios:
    def test_hardy_lower_passes(self):
        rep = run_experiment(fast_config("cor31", p=1.0))
        assert rep.passed
        assert len(rep.rows) == 2
        assert all(math.isfinite(r["ratio"]) and r["ratio"] > 0 for r in rep.rows)

    def test_vanishing_symbol_oracle(self):
        rep = run_experiment(fast_config("thm210", p=2.0, q=2.0, N=2))
        assert rep.passed
        assert rep.diagnostics["max_oracle_gap"] <= 0.02

    def test_oracle_less_vanishing_run_is_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="lplab"):
            rep = run_experiment(fast_config(
                "thm210", p=2.0, q=2.0, N=2, weight={"kind": "power", "a": -0.5}
            ))
        assert "max_oracle_gap" not in rep.diagnostics
        [record] = [r for r in caplog.records if "oracle" in r.getMessage()]
        assert (record.name, record.levelno) == ("lplab", logging.INFO)
        assert "weight power" in record.getMessage()

    def test_ladder_compare_weighted(self):
        rep = run_experiment(fast_config(
            "prop23", p=2.0, q=2.0, N=2, weight={"kind": "power", "a": -0.5}
        ))
        assert rep.passed

    def test_discrete_ladder(self):
        rep = run_experiment(fast_config("prop36", q=2.0, discrete_b=0.95))
        assert rep.passed
        assert all(r["ratio"] <= 0.15 for r in rep.rows)

    def test_synthesis_atoms(self):
        rep = run_experiment(fast_config("lemma33", p=1.0, atom_count=2))
        assert rep.passed
        assert all(s <= 1.5 for s in rep.diagnostics["per_atom_spread"].values())
        # the uniform constant of Lemma 3.3: the largest H^p size over every
        # atom and cutoff, not a ratio
        assert rep.diagnostics["across_atom_max"] == max(r["lhs"] for r in rep.rows)
        assert rep.diagnostics["across_atom_max"] != rep.family_max_ratio

    def test_synthesis_atoms_reads_grand_scales(self):
        default = run_experiment(fast_config("lemma33", p=1.0, atom_count=1))
        coarse = run_experiment(fast_config("lemma33", p=1.0, atom_count=1, grand_scales={
            "t_min": 0.01, "t_max": 1.0, "count": 2}))
        assert [r["lhs"] for r in coarse.rows] != [r["lhs"] for r in default.rows]

    def test_constants_audit(self):
        rep = run_experiment(fast_config("constants_audit", N=2))
        assert rep.passed
        assert {r["fname"] for r in rep.rows} == {
            "low_freq_growth", "gradient_scale_sum", "gradient_multiplier_tail",
            "psi_scale_sum", "psi_multiplier_tail",
        }

    def test_ladder_audits_as_the_constants_audit(self):
        # same phi, psi (the annulus bump), N and b: one derivation, one verdict set
        ladder = run_experiment(fast_config("thm210", **TINY["thm210"]))
        audit = run_experiment(fast_config("constants_audit", N=2))
        assert ladder.diagnostics["conditions"] == {
            r["fname"]: {"passed": r["passed"], "measured": r["lhs"]} for r in audit.rows}

    def test_constants_audit_reads_A_for_a_non_vanishing_psi(self):
        setup = constants_audit(fast_config("constants_audit", psi={"name": "poissonQ"}, A=2.0))
        assert (setup.A, setup.theta.name) == (2.0, "const(1.0)")
        assert setup.P.phi is setup.phi

    def test_hardy_lower_two_dimensional(self):
        # the default grand scale grid is too coarse for 2-d dilation
        # stability at 2%; the config overrides it with a denser range
        rep = run_experiment(ExperimentConfig.from_dict({
            "scenario": "cor31", "p": 1.0,
            "grid": {"dimension": 2, "points_per_axis": 256, "half_extent": 8.0},
            "scales": {"t_min": 1e-3, "t_max": 50.0, "count": 48},
            "grand_scales": {"t_min": 0.0156, "t_max": 16.0, "count": 128},
            "test_family": {"shapes": ["gaussian_derivative", "band_noise"],
                            "dilations": [1.0, 2.0]},
        }))
        assert rep.passed, rep.diagnostics["dilation_spread"]

    def test_vanishing_symbol_two_dimensional(self):
        # gaussian_derivative stays inside this grid's frequency box
        rep = run_experiment(ExperimentConfig.from_dict({
            "scenario": "thm210", "p": 2.0, "q": 2.0, "N": 2,
            "grid": {"dimension": 2, "points_per_axis": 64, "half_extent": 8.0},
            "scales": {"t_min": 1e-3, "t_max": 50.0, "count": 48},
            "test_family": {"shapes": ["gaussian_derivative"], "dilations": [1.0]},
        }))
        assert rep.passed
        assert rep.diagnostics["max_oracle_gap"] <= 0.02

    def test_empty_family_yields_empty_report(self):
        rep = run_experiment(fast_config(
            "cor31", p=1.0, test_family={"shapes": [], "dilations": []}
        ))
        assert rep.rows == []
        assert math.isnan(rep.family_max_ratio)


# the smallest config of each scenario that runs its whole path
TINY = {
    "prop23": {"p": 2.0, "q": 2.0, "N": 2},
    "thm210": {"p": 2.0, "q": 2.0, "N": 2},
    "cor31": {"p": 1.0},
    "prop36": {"discrete_b": 0.95},
    "lemma33": {"p": 1.0, "atom_count": 1},
    "constants_audit": {"N": 2},
}


@pytest.mark.parametrize("scenario", ["thm210", "cor31", "lemma33"])
def test_scenario_fields_stay_on_the_real_path(scenario, monkeypatch):
    """Every field a scenario measures is real, so none reaches the complex
    inverse or the Hermitian expansion of a half spectrum: with both made
    to raise, the TINY configs run.  Only the constants audit inverts
    caller-built kernel symbols on the complex path, as it should."""
    from lplab import experiments

    centred, auditing = fields._centred, []

    def real_path_only(*args, **kwargs):
        raise AssertionError("a scenario field left the real path")

    def guarded(values, transform, *args, **kwargs):
        if transform is np.fft.ifft and not auditing:
            real_path_only()
        return centred(values, transform, *args, **kwargs)

    def audit(*args, **kwargs):
        auditing.append(True)
        try:
            return check_conditions(*args, **kwargs)
        finally:
            auditing.pop()

    check_conditions = experiments.check_conditions
    monkeypatch.setattr(fields, "_full", real_path_only)
    monkeypatch.setattr(fields, "_centred", guarded)
    monkeypatch.setattr(experiments, "check_conditions", audit)
    rep = run_experiment(fast_config(scenario, **TINY[scenario]))
    assert rep.rows and rep.passed


def test_synthesized_atoms_are_real():
    from lplab import ScaleGrid, make_atom, make_builtin, synthesize

    grid = fields.Grid(1, 1024, 16.0)
    atom = make_atom(grid, ScaleGrid.log_spaced(5e-3, 200.0, 64), (0.5,), 2.0, 1.0, seed=3)
    assert atom.values.values.dtype == np.float64
    for eps in (0.1, 0.01):
        assert synthesize(atom.values, make_builtin("annulus_bump"), eps).values.dtype == np.float64
    # a window with no scale strictly inside it sums nothing: a real zero field
    empty = make_atom(grid, ScaleGrid.geometric(8.0, 1 / 64, 2), (0.5,), 2.0, 1.0, seed=3)
    zero = synthesize(empty.values, make_builtin("annulus_bump"), 0.125).values
    assert zero.dtype == np.float64 and not zero.any()


POWER_WEIGHT = {"kind": "power", "a": -0.5}
SPREAD = ("dilation_spread", 0.02)

# each scenario's (and branch's) checks as (name, bound), and its criterion
CHECKS = {
    "prop23": ("prop23", TINY["prop23"], [("family_max_over_min", 5), SPREAD],
               "family ratio max/min <= 5 and per-shape dilation spread <= 2%"),
    "thm210_oracle": ("thm210", TINY["thm210"], [("oracle_gap", 0.02)],
                      "ratio matches the spectral-multiplier oracle within 2%"),
    "thm210_weighted": ("thm210", {**TINY["thm210"], "weight": POWER_WEIGHT},
                        [("family_max_over_min", 3), SPREAD],
                        "family ratio max/min <= 3 and per-shape dilation spread <= 2%"),
    "cor31": ("cor31", TINY["cor31"], [SPREAD, ("family_max_over_min", 5)],
              "per-shape dilation spread <= 2% and family max/min <= 5"),
    "prop36_b099": ("prop36", {"discrete_b": 0.99}, [("relative_l2_difference", 0.02)],
                    "relative L2 difference <= 2% at b = 0.99"),
    "prop36_b095": ("prop36", {"discrete_b": 0.95}, [("relative_l2_difference", 0.15)],
                    "relative L2 difference <= 15% at b = 0.95"),
    "prop36_b05": ("prop36", {"discrete_b": 0.5}, [("relative_l2_difference", 0.5)],
                   "relative L2 difference <= 50% at b = 0.5"),
    "lemma33": ("lemma33", TINY["lemma33"], [("per_atom_spread", 1.5)],
                "per-atom max/min of the synthesized H^p size <= 1.5 across cutoffs"),
    "constants_audit": ("constants_audit", TINY["constants_audit"], [("failed_conditions", 0)],
                        "all admissibility condition verdicts pass"),
}


def _tiny_document(scenario) -> dict:
    return {"scenario": scenario, "grid": dict(FAST_GRID), "scales": dict(FAST_SCALES),
            "test_family": dict(ONE_SHAPE), **TINY[scenario]}


# a valid entry for each key that takes a JSON object
_ENTRIES = {"grid": FAST_GRID, "scales": FAST_SCALES, "test_family": ONE_SHAPE,
            "phi": {"name": "poissonQ"}, "psi": {"name": "annulus_bump"},
            "weight": POWER_WEIGHT, "grand_scales": {"t_min": 0.01, "t_max": 8.0, "count": 16}}
# each config key, and each key of an entry, as the path to replace
_PATHS = [(k,) for k in ExperimentConfig.__dataclass_fields__] + [
    (k, sub) for k, entry in _ENTRIES.items() for sub in entry]
_KEYS = sorted({key for path in _PATHS for key in path} | {"kind", "a", "params", "seed"})
# malformed JSON values; no large integer, since a count of 10^12 would make
# ScaleGrid.log_spaced allocate terabytes
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-5, 5),
    st.sampled_from([1.5, -1.5, 0.0, math.nan, math.inf, -math.inf]),
    st.text(max_size=3), st.sampled_from(["constant", "power", "poissonQ", "band_noise"]))
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, max_size=3),
                    st.dictionaries(st.sampled_from(_KEYS), _SCALARS, max_size=3))


@settings(max_examples=300, deadline=None)
@given(scenario=st.sampled_from(sorted(TINY)), path=st.none() | st.sampled_from(_PATHS),
       value=_VALUES)
def test_a_malformed_value_raises_config_error_and_nothing_else(scenario, path, value):
    # path None replaces the whole document
    doc = _tiny_document(scenario)
    if path is None:
        doc = value
    elif len(path) == 1:
        doc[path[0]] = value
    else:
        doc[path[0]] = {**doc.get(path[0], _ENTRIES[path[0]]), path[1]: value}
    try:
        ExperimentConfig.from_dict(doc).validate()
    except ConfigError:
        pass


class TestChecks:
    @pytest.mark.parametrize("case", sorted(CHECKS))
    def test_bounds_and_criterion_pinned(self, case):
        scenario, overrides, checks, criterion = CHECKS[case]
        rep = run_experiment(fast_config(scenario, **overrides))
        assert [(c["name"], c["bound"]) for c in rep.checks] == checks
        assert rep.criterion == criterion
        assert all(c["margin"] == c["bound"] - c["measured"] for c in rep.checks)
        assert rep.passed == all(c["margin"] >= 0 for c in rep.checks)

    @pytest.mark.parametrize("ratios", [[1.0, math.nan, 1.01], [math.nan, 1.0, 1.01]],
                             ids=["nan-inside", "nan-first"])
    def test_a_nan_ratio_fails_both_stability_checks_wherever_it_sits(self, ratios):
        rows = [{"fname": f"shape[lam={k}]", "ratio": r} for k, r in enumerate(ratios)]
        diagnostics = {}
        family, spread = _stable(rows, diagnostics)
        assert math.isnan(diagnostics["dilation_spread"]["shape"])
        assert math.isnan(family)
        assert math.isnan(spread.measured) and not spread.measured <= spread.bound

    def test_finite_and_infinite_ratios_keep_their_stability_numbers(self):
        rows = [{"fname": f"{shape}[lam={k}]", "ratio": r}
                for shape, rs in (("a", [1.0, 1.01]), ("b", [2.0, math.inf]))
                for k, r in enumerate(rs)]
        diagnostics = {}
        family, spread = _stable(rows, diagnostics)
        assert diagnostics["dilation_spread"] == {"a": 1.01, "b": math.inf}
        assert family == 2.0  # inf rows stay out of the family ratio
        assert spread.measured == math.inf

    def test_unmeasured_margins_are_strict_json_and_restored(self, tmp_path):
        rep = run_experiment(fast_config("cor31", p=1.0, test_family={
            "shapes": ["gaussian_derivative"], "dilations": []}))
        assert not rep.passed
        assert all(math.isnan(c["measured"]) and math.isnan(c["margin"]) for c in rep.checks)

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        emit_report(rep, tmp_path)
        parsed = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert [c["margin"] for c in parsed["checks"]] == ["NaN", "NaN"]
        restored = Report.from_dict(parsed)
        assert [c["name"] for c in restored.checks] == [c["name"] for c in rep.checks]
        assert all(math.isnan(c["measured"]) and math.isnan(c["margin"])
                   for c in restored.checks)


def _readme_scenario_table() -> dict:
    """{scenario: the backticked names in its diagnostics column} of
    README's scenario table."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("\n| scenario | checks")[1].split("\n\n")[0]
    rows = {}
    for line in table.splitlines()[2:]:
        cells = re.split(r"(?<!\\)\|", line)  # an escaped \| stays in its cell
        rows[re.search(r"`(\w+)`", cells[1]).group(1)] = set(re.findall(r"`(\w+)`", cells[3]))
    return rows


def test_readme_scenario_table_lists_exactly_the_scenarios():
    assert sorted(_readme_scenario_table()) == sorted(SCENARIOS)


@pytest.mark.parametrize("scenario", sorted(TINY))
def test_readme_names_exactly_the_diagnostics_a_run_writes(scenario):
    rep = run_experiment(fast_config(scenario, **TINY[scenario]))
    assert set(rep.diagnostics) == _readme_scenario_table()[scenario]


class TestReports:
    @pytest.mark.parametrize("scenario", sorted(TINY))
    def test_csv_contract_and_determinism(self, scenario, tmp_path):
        for run in ("a", "b"):
            emit_report(run_experiment(fast_config(scenario, **TINY[scenario])), tmp_path / run)
        for name in ("ratios.csv", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        header = (tmp_path / "a" / "ratios.csv").read_text().splitlines()[0]
        assert header == "fname,lambda,lhs,rhs,ratio"

    def test_json_round_trip(self, tmp_path):
        rep = run_experiment(fast_config("cor31", p=1.0))
        emit_report(rep, tmp_path)
        loaded = Report.from_dict(json.loads((tmp_path / "report.json").read_text()))
        assert loaded == rep

    def test_report_json_is_strict_and_round_trips_nonfinite(self, tmp_path):
        rep = run_experiment(fast_config("constants_audit", N=2))
        assert math.isnan(rep.family_max_ratio)  # the audit rows carry NaN rhs/ratio

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        emit_report(rep, tmp_path)
        parsed = json.loads((tmp_path / "report.json").read_text(), parse_constant=reject)
        assert parsed["family_max_ratio"] == "NaN"
        # the default (non-strict) dump spells NaN and +-inf apart, floats exactly
        restored = Report.from_dict(parsed).to_dict()
        assert json.dumps(restored, sort_keys=True) == json.dumps(rep.to_dict(), sort_keys=True)

    def test_environment_records_cores_and_versions(self):
        env = run_experiment(fast_config("cor31", p=1.0)).environment
        assert env["cpu_count"] == os.cpu_count()
        assert env["spectral_workers"] == fields._spectral_workers() >= 1
        assert env["versions"] == {"lplab": lplab.__version__, "numpy": np.__version__,
                                   "scipy": scipy.__version__,
                                   "python": platform.python_version()}

    def test_plotdata_emitted_per_shape(self, tmp_path):
        rep = run_experiment(fast_config("cor31", p=1.0))
        emit_report(rep, tmp_path)
        plot = tmp_path / "plotdata" / "gaussian_derivative.csv"
        assert plot.exists()
        lines = plot.read_text().splitlines()
        assert lines[0] == "lambda,ratio"
        assert len(lines) == 3
