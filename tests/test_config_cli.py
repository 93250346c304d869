"""Config schema validation and the batch CLI contract."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mildlab import config
from mildlab.cli import main
from mildlab.config import DRIFT_KEYS, INITIAL_KEYS, STUDY_KEYS, parse_config
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


# a valid piecewise drift with one key replaced or added
PIECEWISE = ('{"drift": {"kind": "piecewise", "breakpoints": [0.0], '
             '"expressions": ["x - 1", "x + 1"], "d": 1, %s}}')


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
        with pytest.raises(ValidationError, match="top level: unknown key 'root_tol'"):
            parse_config(json.dumps({"root_tol": 1e-12}))

    def test_unknown_study_rejected(self):
        with pytest.raises(ValidationError, match="unknown study"):
            parse_config(json.dumps({"studies": {"nope": {}}}))

    def test_study_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"studies": {"bernoulli": {"n_sample": 5},
                                                 "contraction_extension": {"q": 2.0}}}))
        assert err.value.violations == [
            "studies.bernoulli: unknown key 'n_sample'",
            "studies.contraction_extension: unknown key 'q'",
        ]

    @pytest.mark.parametrize("study, key, value", [
        ("cauchy", "q", "abc"),
        ("cauchy", "n_paths", 0),
        ("moment", "n_paths", 2.5),
        ("bernoulli", "n_samples", True),
        ("eiconv", "n_max", "64"),
        ("propagation", "frozen_constant", None),
        ("chain_rule", "deltas", [0.01, "x"]),
        ("apriori", "qs_linear", 2.0),
        ("apriori", "qs_square", [[2.0]]),
    ])
    def test_study_value_types_checked(self, study, key, value):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"studies": {study: {key: value}}}))
        assert len(err.value.violations) == 1
        assert err.value.violations[0].startswith(f"studies.{study}.{key}: must be")

    def test_every_study_key_accepted(self):
        studies = {
            "cauchy": {"n_paths": 2, "q": 1.5},
            "l1": {"n_paths": 1},
            "chain_rule": {"q": 2, "deltas": [0.01, 0.005]},
            "bernoulli": {"n_samples": 10},
            "eiconv": {"n_max": 64},
            "moment": {"n_paths": 100, "q": 2.0},
            "propagation": {"n_paths": 3, "frozen_constant": 1.2},
            "contraction_extension": {},
            "apriori": {"n_paths": 2, "qs_linear": [1.5, 2], "qs_square": []},
        }
        assert parse_config(json.dumps({"studies": studies})).studies == studies

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
        assert cfg.build_graph() is graph
        u0 = cfg.build_initial(sgp.grid)
        assert u0.values.shape == (21,)
        assert cfg.build_initial(cfg.build_grid()) is u0
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

    def test_drift_from_declarative_spec(self):
        piecewise = {"kind": "piecewise", "breakpoints": [0.0],
                     "expressions": ["x - 1", "x + 1"], "d": 1.0, "C_f": 1.0}
        g = parse_config(json.dumps({"drift": piecewise})).build_graph()
        assert g.jump_points == (0.0,)
        assert g.right_limit(0.0) == 1.0
        for kind, probe, want in [
            ("zero", 3.0, 0.0), ("linear", 3.0, 3.0), ("power", 2.0, 8.0),
            ("sign", 2.0, 1.0), ("sign_linear", 2.0, 3.0),
        ]:
            made = parse_config(json.dumps({"drift": {"kind": kind}})).build_graph()
            assert made.mid_values(np.asarray([probe]))[0] == pytest.approx(want)

    def test_drift_rejects_unknown_kind(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"drift": {"kind": "mystery"}}))
        assert err.value.violations == [
            "drift.kind: must be one of zero, linear, power, sign, sign_linear, piecewise"]

    def test_drift_rejects_rogue_expression(self):
        with pytest.raises(ValidationError, match="unknown name '__import__'"):
            parse_config(json.dumps({"drift": {
                "kind": "piecewise", "breakpoints": [],
                "expressions": ["__import__('os').getcwd() and x"], "d": 1.0}}))

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

    @pytest.mark.parametrize("overrides, message", [
        ({"root_tol": 1e-12}, "unknown key 'root_tol'"),
        ({"studies": {"cauchy": {"q": "abc"}}}, "studies.cauchy.q: must be a number"),
    ])
    def test_rejected_keys_exit_one(self, tmp_path, capsys, monkeypatch, overrides, message):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path, overrides)
        assert self.run_cli("study", "cauchy", str(cfg)) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, text, message", [
        ("solve", '{"grid": {"nu": true}}', "grid.nu: must be a number"),
        ("solve", '{"cauchy_tol": true}', "cauchy_tol: must be a number"),
        ("solve", '{"noise": {"c": true}}', "noise.c: must be a number"),
        ("solve", '{"seeds": {"master": true}}', "seeds.master: must be an integer"),
        ("solve", '{"time": {"T": 1e400}}', "time.T: must be a number"),
        ("solve", '{"initial": {"kind": "values", "values": [0.0, 1.0]}}',
         "initial: expected 127 values"),
        ("solve", '{"initial": {"kind": "values", "values": ["a", "b"]}}',
         "initial.values: must be a list of numbers"),
        ("solve", '{"initial": {"kind": "spike", "cap": "x"}}', "initial.cap: must be a number"),
        ("solve", '{"initial": {"kind": "sine", "mode": 1.5}}', "initial.mode: must be an integer"),
        ("solve", '{"drift": {"kind": "power", "dd": 5}}', "drift: unknown key 'dd'"),
        ("solve", PIECEWISE % '"zero_in_graph": "no"', "drift.zero_in_graph: must be true or false"),
        ("solve", PIECEWISE % '"name": 5', "drift.name: must be a nonempty string"),
        ("solve", '{"drift": {"kind": "piecewise", "breakpoints": [0.0], "d": 1}}',
         "drift.expressions: required"),
        ("solve", '{"drift": {"kind": "piecewise", "breakpoints": [0.0], '
         '"expressions": ["x - 1", "x + 1"]}}', "drift.d: required"),
        ("solve", PIECEWISE % '"expressions": [1, 2]', "drift.expressions: must be a list of strings"),
        ("solve", PIECEWISE % '"breakpoints": true', "drift.breakpoints: must be a list of numbers"),
        ("solve", PIECEWISE % '"breakpoints": ["a"]', "drift.breakpoints: must be a list of numbers"),
        ("solve", PIECEWISE % '"expressions": ["x +", "x"]', "drift: invalid syntax"),
        ("solve", '{"initial": {"kind": "sine", "amplitud": 3}}',
         "initial: unknown key 'amplitud'"),
        ("study cauchy", '{"studies": {"cauchy": {"q": 1.0}}}',
         "studies.cauchy.q: must be a number, q > 1"),
        ("study cauchy", '{"exponents": {"q": 1.0, "r": 1.0}, "studies": {"cauchy": {}}}',
         "studies.cauchy.q: must be a number, q > 1 (its default 1.0)"),
        ("study chain_rule", '{"studies": {"chain_rule": {"q": 1}}}',
         "studies.chain_rule.q: must be a number, q > 1"),
        ("study chain_rule", '{"studies": {"chain_rule": {"deltas": [0.01, 0]}}}',
         "studies.chain_rule.deltas: must be a list of numbers, each > 0"),
        ("study moment", '{"studies": {"moment": {"n_paths": 5}}}',
         "studies.moment.n_paths: must be an integer, n_paths >= 100"),
        ("study moment", '{"studies": {"moment": {"q": 0.5}}}',
         "studies.moment.q: must be a number, q >= 1"),
        ("study chain_rule", '{"studies": {"chain_rule": {"deltas": []}}}',
         "studies.chain_rule.deltas: must be nonempty, each dividing T"),
        ("study chain_rule", '{"studies": {"chain_rule": {"deltas": [4.0]}}}',
         "studies.chain_rule.deltas: must be nonempty, each dividing T"),
        ("study apriori", '{"studies": {"apriori": {"qs_linear": [0.5]}}}',
         "studies.apriori.qs_linear: must be a list of numbers, each >= 1"),
        ("study apriori", '{"studies": {"apriori": {"qs_square": [1.0]}}}',
         "studies.apriori.qs_square: must be a list of numbers, each >= 2"),
    ])
    def test_malformed_config_exits_one(self, tmp_path, capsys, monkeypatch,
                                        command, text, message):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path / "out"))
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert self.run_cli(*command.split(), str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config:")
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"studies": {"l1": {}}}, "error: the L^1 study requires a bounded drift"),
        ({"drift": {"kind": "sign"}, "studies": {"propagation": {}}},
         "error: propagation study needs q* >= q"),
    ])
    def test_study_precondition_exits_one(self, tmp_path, capsys, monkeypatch,
                                          overrides, message):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path / "out"))
        cfg = write_config(tmp_path, overrides)
        study = next(iter(overrides["studies"]))
        assert self.run_cli("study", study, str(cfg)) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

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


def readme_key_table(first_header: str) -> dict:
    """The README table headed `| <first_header> | accepted keys | ...`: name -> keys."""
    lines = (Path(__file__).resolve().parent.parent / "README.md").read_text().splitlines()
    header = f"| {first_header} | accepted keys |"
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, keys = line.split("|")[1:3]
        table[name.strip().strip("`")] = tuple(re.findall(r"`([^`]+)`", keys))
    return table


@pytest.mark.parametrize("header, keys", [
    ("study", {name: tuple(rules) for name, rules in STUDY_KEYS.items()}),
    ("drift kind", {kind: tuple(rules) for kind, (rules, _) in DRIFT_KEYS.items()}),
    ("initial kind", {kind: tuple(rules) for kind, (rules, _) in INITIAL_KEYS.items()}),
])
def test_readme_key_tables_match_checker(header, keys):
    assert readme_key_table(header) == keys


def test_rule_defaults_satisfy_their_own_rules():
    # a default that breaks its own type or range would only surface when a
    # config leaves that key out
    top = {name: config._check({}, rules, name, []) for name, rules in config._SECTIONS.items()}
    tables = {"": config._TOP, **config._SECTIONS,
              **{f"studies.{name}": rules for name, rules in STUDY_KEYS.items()},
              **{f"drift {kind}": rules for kind, (rules, _) in DRIFT_KEYS.items()},
              **{f"initial {kind}": rules for kind, (rules, _) in INITIAL_KEYS.items()}}
    for where, rules in tables.items():
        problems = []
        config._check({}, rules, where, problems, top)
        required = [key for key, (default, _, _) in rules.items() if default is config.REQUIRED]
        assert problems == [f"{where}.{key}: required" for key in required], where
