"""Config schema validation and the batch CLI contract."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mildlab.cli import main
from mildlab.config import parse_config
from mildlab.errors import ParseError, ValidationError

SMALL_CONFIG = {
    "grid": {"M": 21, "nu": 1.0},
    "time": {"T": 0.125, "delta": 2.0**-8},
    "drift": {"kind": "power", "d": 3.0},
    "noise": {"c": 1.0, "gamma": 2.0},
    "seeds": {"master": 12, "n_paths": 2},
    "lambda_schedule": [0.25, 0.125, 0.0625],
    "output_dir": "run",
    "studies": {"cauchy": {}, "bernoulli": {"n_samples": 30}},
}


def write_config(tmp_path, overrides=None, name="config.json"):
    payload = json.loads(json.dumps(SMALL_CONFIG))
    for key, value in (overrides or {}).items():
        if value is None:
            payload.pop(key, None)
        else:
            payload[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config("{}")
        assert cfg.M == 127
        assert cfg.nu == 1.0
        assert cfg.T == 1.0
        assert cfg.delta == 2.0**-10
        assert cfg.lambda_schedule[0] == 0.25
        assert len(cfg.lambda_schedule) == 7

    def test_q_constraint_echoed(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"exponents": {"q": 0.5}}))
        assert any("q >= 1" in v for v in err.value.violations)

    def test_r_leq_q_cites_definition(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"exponents": {"q": 2.0, "r": 3.0}}))
        assert any("q >= r" in v for v in err.value.violations)

    def test_all_violations_collected(self):
        bad = {"grid": {"M": 1}, "exponents": {"q": 0.5},
               "lambda_schedule": [0.1, 0.2], "cauchy_tol": -1}
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(bad))
        assert len(err.value.violations) >= 4

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(json.dumps({"grid": {"M": 31, "color": "red"}}))
        with pytest.raises(ValidationError, match="unknown key"):
            parse_config(json.dumps({"mystery_section": {}}))

    def test_unknown_study_rejected(self):
        with pytest.raises(ValidationError, match="unknown study"):
            parse_config(json.dumps({"studies": {"nope": {}}}))

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError, match="line"):
            parse_config("{not json}")

    def test_delta_must_divide_horizon(self):
        with pytest.raises(ValidationError, match="divide"):
            parse_config(json.dumps({"time": {"T": 1.0, "delta": 0.3}}))

    def test_weights_length_checked(self):
        with pytest.raises(ValidationError, match="M=31"):
            parse_config(json.dumps({"grid": {"M": 31}, "noise": {"weights": [1.0, 2.0]}}))

    def test_builders(self):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        sgp = cfg.build_semigroup()
        assert sgp.grid.M == 21
        graph = cfg.build_graph()
        assert graph.growth_exponent == 3.0
        u0 = cfg.build_initial(sgp.grid)
        assert u0.values.shape == (21,)
        solver_cfg = cfg.solver_config()
        assert solver_cfg.lambda_schedule == (0.25, 0.125, 0.0625)

    def test_initial_kinds(self):
        for kind, extra in [("zero", {}), ("sine", {"amplitude": 2.0}),
                            ("spike", {"exponent": 0.4}),
                            ("values", {"values": [0.0] * 21})]:
            cfg = parse_config(json.dumps({**SMALL_CONFIG,
                                           "initial": {"kind": kind, **extra}}))
            u0 = cfg.build_initial(cfg.build_grid())
            assert np.all(np.isfinite(u0.values))

    def test_d_defaults_to_drift_growth(self):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        assert cfg.d == 3.0
        cfg2 = parse_config(json.dumps({**SMALL_CONFIG,
                                        "exponents": {"q": 2.0, "r": 2.0, "p": 2.0, "d": 1.5}}))
        assert cfg2.d == 1.5


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_check_invariants_exit_zero(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path, {"grid": {"M": 31, "nu": 1.0}})
        assert self.run_cli("check-invariants", str(cfg)) == 0
        report = json.loads((tmp_path / "run" / "invariants" / "report.json").read_text())
        assert report["all_passed"] is True

    def test_study_requires_config_section(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path)
        assert self.run_cli("study", "eiconv", str(cfg)) == 1
        assert "no config section" in capsys.readouterr().err

    def test_unknown_study_name(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path)
        assert self.run_cli("study", "wat", str(cfg)) == 1

    def test_invalid_config_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"exponents": {"q": 0.5}}))
        assert self.run_cli("solve", str(bad)) == 1
        assert "q >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path / "out"))
        cfg = write_config(tmp_path)
        assert self.run_cli("solve", str(cfg), "--workers", workers) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, capsys):
        assert self.run_cli("solve", "/nonexistent/config.json") == 1

    def test_study_pass_exit_zero_and_artifacts(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path)
        assert self.run_cli("study", "bernoulli", str(cfg)) == 0
        out = tmp_path / "run"
        report = json.loads((out / "bernoulli" / "report.json").read_text())
        assert report["verdict"] == "pass"
        manifest = json.loads((out / "manifest.json").read_text())
        assert "bernoulli/report.json" in manifest["artifacts"]
        assert "digest" in manifest

    def test_sample_noise_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path)
        assert self.run_cli("sample-noise", str(cfg)) == 0
        out = tmp_path / "run"
        assert (out / "noise_path0.csv").exists()
        sidecar = json.loads((out / "noise_path0.json").read_text())
        assert sidecar["grid"]["M"] == 21

    def test_solve_writes_run_records(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path)
        code = self.run_cli("solve", str(cfg))
        assert code in (0, 2)
        out = tmp_path / "run"
        record = json.loads((out / "solution0.json").read_text())
        assert "final_lambda" in record and "gaps" in record
        lines = (out / "solution0_u.csv").read_text().splitlines()
        assert lines[0] == "time,node,value"

    def test_rerun_byte_identical_and_worker_free(self, tmp_path, monkeypatch):
        cfg_payload = {**SMALL_CONFIG, "studies": {"cauchy": {}}}
        results = {}
        for tag, workers in [("one", "1"), ("four", "4"), ("one_again", "1")]:
            root = tmp_path / tag
            root.mkdir()
            monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(root))
            cfg = write_config(tmp_path, name=f"cfg_{tag}.json")
            cfg.write_text(json.dumps(cfg_payload, indent=2))
            assert self.run_cli("study", "cauchy", str(cfg), "--workers", workers) == 0
            results[tag] = {
                "report": (root / "run" / "cauchy" / "report.json").read_bytes(),
                "series": (root / "run" / "cauchy" / "series.csv").read_bytes(),
            }
        assert results["one"] == results["four"] == results["one_again"]

    def test_solve_rerun_byte_identical(self, tmp_path, monkeypatch):
        outs = []
        for tag in ("a", "b"):
            root = tmp_path / tag
            root.mkdir()
            monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(root))
            cfg = write_config(tmp_path, name=f"cfg_{tag}.json")
            assert self.run_cli("solve", str(cfg)) in (0, 2)
            outs.append((root / "run" / "solution0_u.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_output_root_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path / "env"))
        cfg = write_config(tmp_path)
        assert self.run_cli("sample-noise", str(cfg),
                            "--output-root", str(tmp_path / "flag")) == 0
        assert (tmp_path / "flag" / "run" / "noise_path0.csv").exists()
        assert not (tmp_path / "env" / "run").exists()

    def test_console_entry_point(self, tmp_path):
        # the module is executable as a script; --version goes through argparse
        proc = subprocess.run(
            [sys.executable, "-m", "mildlab.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip()

    def test_check_invariants_default_config_under_budget(self, tmp_path, monkeypatch):
        import time
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = tmp_path / "default.json"
        cfg.write_text("{}")  # all defaults: M = 127, nu = 1, T = 1
        start = time.time()
        assert self.run_cli("check-invariants", str(cfg)) == 0
        assert time.time() - start < 60.0

    def test_zero_drift_cauchy_study_passes_with_zero_gaps(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path, {"drift": {"kind": "zero"}})
        assert self.run_cli("study", "cauchy", str(cfg)) == 0
        report = json.loads((tmp_path / "run" / "cauchy" / "report.json").read_text())
        assert report["verdict"] == "pass"
        for name, series in report["series"].items():
            if name.startswith("gaps_"):
                assert max(series) <= 1e-10
        rows = (tmp_path / "run" / "cauchy" / "series.csv").read_text().splitlines()
        gap_rows = [r for r in rows if r.startswith("gaps_")]
        assert gap_rows and all(float(r.rsplit(",", 1)[1]) == 0.0 for r in gap_rows)

    def test_piecewise_drift_through_config(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path, {
            "drift": {"kind": "piecewise", "breakpoints": [0.0],
                      "expressions": ["x - 1", "x + 1"], "d": 1.0, "C_f": 1.0},
            "lambda_schedule": [0.25, 0.125],
        })
        assert self.run_cli("solve", str(cfg)) in (0, 2)
        record = json.loads((tmp_path / "run" / "solution0.json").read_text())
        assert record["drift"]["kind"] == "piecewise"
