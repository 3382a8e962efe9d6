import json
import logging
import math
import os
import platform

import numpy as np
import pytest
import scipy

import lplab
from lplab import ConfigError, ExperimentConfig, Report, emit_report, fields, run_experiment


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
