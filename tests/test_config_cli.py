"""Config schema validation and the batch CLI contract."""

import dataclasses
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mildlab
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
    "studies": {"cauchy": {}, "bernoulli": {}},
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


def assert_u_npy_header(path, shape):
    """solve's u is NPY format 1.0: little-endian float64, C order, (n_steps + 1, M)."""
    with open(path, "rb") as fh:
        assert np.lib.format.read_magic(fh) == (1, 0)
        assert np.lib.format.read_array_header_1_0(fh) == (shape, False, np.dtype("<f8"))


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config("{}")
        sg = cfg.build_semigroup()
        assert sg.grid.M == 127
        assert sg.nu == 1.0
        assert cfg.T == 1.0
        assert cfg.delta == 2.0**-10
        assert cfg.solver.lambda_schedule[0] == 0.25
        assert len(cfg.solver.lambda_schedule) == 7

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

    def test_every_error_survives_pickling(self):
        # a pool task's error is re-raised in the parent from its pickled copy
        import pickle

        from mildlab.errors import MildlabError

        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        for cls in subclasses(MildlabError):
            args = (["a bad", "b bad"],) if cls is ValidationError else ("a bad; b bad",)
            copy = pickle.loads(pickle.dumps(cls(*args)))
            assert type(copy) is cls and str(copy) == "a bad; b bad", cls
        copy = pickle.loads(pickle.dumps(ValidationError(["a bad", "b bad"])))
        assert copy.violations == ["a bad", "b bad"]

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

    @pytest.mark.parametrize("text, error, message", [
        ("[]", ParseError, "^top level must be a JSON object$"),
        ('"grid"', ParseError, "^top level must be a JSON object$"),
        ('{"studies": {"cauchy": []}}', ValidationError, r"^studies\.cauchy: must be an object$"),
        ('{"studies": {"moment": 3}}', ValidationError, r"^studies\.moment: must be an object$"),
    ])
    def test_non_object_rejected(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_config(text)

    def test_study_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"studies": {"bernoulli": {"n_sample": 5},
                                                 "contraction_extension": {"q": 2.0}}}))
        assert err.value.violations == [
            "studies.bernoulli: unknown key 'n_sample'",
            "studies.contraction_extension: unknown key 'q'",
        ]

    @pytest.mark.parametrize("study, key, value", [
        ("propagation", "frozen_constant", None),
        ("propagation", "frozen_constant", -1.0),
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
            "cauchy": {}, "l1": {}, "chain_rule": {}, "bernoulli": {}, "eiconv": {},
            "moment": {},
            "propagation": {"frozen_constant": 1.2},
            "contraction_extension": {},
            "apriori": {"qs_linear": [1.5, 2], "qs_square": []},
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

    @pytest.mark.parametrize("power_law, named", [({"c": 5.0}, "c"), ({"gamma": 0.0}, "gamma"),
                                                  ({"c": 5.0, "gamma": 0.0}, "c and gamma")])
    def test_weights_exclude_the_power_law(self, power_law, named):
        # the weights alone set the noise, so the manifest would record a c or gamma unused
        noise = {**power_law, "weights": [1, 1, 1]}
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps({"grid": {"M": 3}, "noise": noise}))
        assert err.value.violations == [f"noise: {named} would take no effect beside weights"]
        cfg = parse_config(json.dumps({"grid": {"M": 3}, "noise": {"weights": [1, 1, 1]}}))
        assert cfg.spec.weights == (1.0, 1.0, 1.0)

    def test_builders(self):
        cfg = parse_config(json.dumps(SMALL_CONFIG))
        sgp = cfg.build_semigroup()
        assert sgp.grid.M == 21
        graph = cfg.build_graph()
        assert graph.growth_exponent == 3.0
        assert cfg.build_graph() is graph
        u0 = cfg.build_initial(sgp.grid)
        assert u0.values.shape == (21,)
        assert cfg.build_initial(sgp.grid) is u0
        assert cfg.solver.lambda_schedule == (0.25, 0.125, 0.0625)

    def test_semigroup_spec_and_solver_built_once(self, tmp_path, monkeypatch):
        # parse_config builds each once; a solve through main builds only those of
        # its own parse, since the commands and the sampler read the config's objects
        from mildlab.noise import DiffusionSpec
        from mildlab.semigroup import HeatSemigroup
        from mildlab.solver import SolverConfig

        built = []
        for cls, hook in [(HeatSemigroup, "__init__"), (DiffusionSpec, "__post_init__"),
                          (SolverConfig, "__post_init__")]:
            def counted(self, *args, _original=getattr(cls, hook), _name=cls.__name__):
                built.append(_name)
                _original(self, *args)
            monkeypatch.setattr(cls, hook, counted)
        parse_config(json.dumps(SMALL_CONFIG))
        assert sorted(built) == ["DiffusionSpec", "HeatSemigroup", "SolverConfig"]
        built.clear()
        assert main(["solve", str(write_config(tmp_path)), "--workers", "1",
                     "--output-root", str(tmp_path)]) in (0, 2)
        assert sorted(built) == ["DiffusionSpec", "HeatSemigroup", "SolverConfig"]

    def test_replaced_config_builds_the_same_graph_and_datum(self):
        cfg = parse_config("{}")
        again = dataclasses.replace(cfg, n_paths=2)
        assert again.n_paths == 2
        assert again.build_graph() is cfg.build_graph()
        assert again.build_semigroup() is cfg.build_semigroup()
        grid = cfg.build_semigroup().grid
        assert again.build_initial(grid) is cfg.build_initial(grid)

    def test_initial_kinds(self):
        for kind, extra in [("zero", {}), ("sine", {"amplitude": 2.0}),
                            ("spike", {"exponent": 0.4}),
                            ("values", {"values": [0.0] * 21})]:
            cfg = parse_config(json.dumps({**SMALL_CONFIG,
                                           "initial": {"kind": kind, **extra}}))
            u0 = cfg.build_initial(cfg.build_semigroup().grid)
            assert np.all(np.isfinite(u0.values))

    def test_drift_from_declarative_spec(self):
        piecewise = {"kind": "piecewise", "breakpoints": [0.0],
                     "expressions": ["x - 1", "x + 1"], "d": 1.0, "C_f": 1.0}
        g = parse_config(json.dumps({"drift": piecewise})).build_graph()
        lo, hi = g.limits(0.0)
        assert g.breakpoints == (0.0,) and lo < hi
        assert hi == 1.0
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

    def test_failed_invariant_printed_and_exit_one(self, tmp_path, capsys, monkeypatch):
        import mildlab.cli
        from mildlab.verify.invariants import InvariantCheck

        checks = [InvariantCheck("held", 0.0, 1e-12), InvariantCheck("broken", 2.5, 1e-3)]
        monkeypatch.setattr(mildlab.cli, "run_invariant_battery", lambda **kwargs: checks)
        cfg = write_config(tmp_path)
        assert main(["check-invariants", str(cfg), "--output-root", str(tmp_path)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "FAIL broken: violation 2.500e+00 > 1.000e-03", "invariants: 1/2 passed"]
        report = json.loads((tmp_path / "run" / "invariants" / "report.json").read_text())
        assert report["all_passed"] is False
        assert [c["passed"] for c in report["checks"]] == [True, False]

    def test_unwritable_output_root_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the output root would be a directory")
        cfg = write_config(tmp_path)
        assert main(["sample-noise", str(cfg), "--workers", "1",
                     "--output-root", str(blocker)]) == 1
        assert re.match(r"^I/O error: \[Errno \d+\] ", capsys.readouterr().err)

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
        ({"workers": 2}, "top level: unknown key 'workers'"),
        ({"studies": {"cauchy": {"q": "abc"}}}, "studies.cauchy: unknown key 'q'"),
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
        ("solve", '{"cauchy_tol": 1%s}' % ("0" * 400), "cauchy_tol: must be a number"),
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
        ("solve", PIECEWISE % '"expressions": ["x(1)", "x"]',
         "drift.expressions[0]: 'x(1)' fails on evaluation: "),
        ("solve", PIECEWISE % '"expressions": ["x", "-x"]',
         "drift: graph 'piecewise' is not nondecreasing (each branch must be continuous "
         "and nondecreasing between its declared breakpoints)"),
        ("solve", PIECEWISE % '"expressions": ["x", "[y for y in x]"]',
         "drift: branch expression may not hold a lambda or a comprehension"),
        ("solve", '{"initial": {"kind": "sine", "amplitud": 3}}',
         "initial: unknown key 'amplitud'"),
        ("study propagation", '{"studies": {"propagation": {"frozen_constant": 0}}}',
         "studies.propagation.frozen_constant: must be a number, frozen_constant > 0"),
        ("study apriori", '{"studies": {"apriori": {"qs_linear": [0.5]}}}',
         "studies.apriori.qs_linear: must be a list of numbers, each >= 1"),
        ("study apriori", '{"studies": {"apriori": {"qs_square": [1.0]}}}',
         "studies.apriori.qs_square: must be a list of numbers, each >= 2"),
        ("study apriori", '{"studies": {"apriori": {"qs_linear": [], "qs_square": []}}}',
         "studies.apriori: qs_linear and qs_square must not both be empty"),
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
        ({"lambda_schedule": [0.25, 0.125], "studies": {"cauchy": {}}},
         "error: cauchy rate study needs at least 3 lambda levels"),
        ({"drift": {"kind": "sign"}, "lambda_schedule": [0.25], "studies": {"l1": {}}},
         "error: the L^1 study needs at least 2 lambda levels"),
        # q > 1 and 2 delta dividing T are the studies' own rules, stated once
        ({"exponents": {"q": 1.0, "r": 1.0}, "studies": {"cauchy": {}}},
         "error: q of the cauchy rate study must be > 1"),
        ({"exponents": {"q": 1.0, "r": 1.0}, "studies": {"chain_rule": {}}},
         "error: q of the chain rule study must be > 1"),
        ({"time": {"T": 3 * 2.0**-8, "delta": 2.0**-8}, "studies": {"chain_rule": {}}},
         "error: chain rule study needs at least one step to T: "
         "delta=0.0078125 does not divide T=0.01171875"),
    ])
    def test_study_precondition_exits_one(self, tmp_path, capsys, monkeypatch,
                                          overrides, message):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path / "out"))
        cfg = write_config(tmp_path, overrides)
        study = next(iter(overrides["studies"]))
        assert self.run_cli("study", study, str(cfg)) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("study, key, value", [
        # each restated the run's own value: exponents.q, seeds.n_paths, [2 delta, delta]
        ("cauchy", "q", 2.0), ("chain_rule", "q", 2.0), ("moment", "q", 2.0),
        ("cauchy", "n_paths", 2), ("l1", "n_paths", 2), ("moment", "n_paths", 100),
        ("propagation", "n_paths", 2), ("apriori", "n_paths", 2),
        ("chain_rule", "deltas", [2.0**-7, 2.0**-8]),
        # counts no run changed: BERNOULLI_SAMPLES and EICONV_N_MAX
        ("bernoulli", "n_samples", 1000), ("eiconv", "n_max", 1024),
    ])
    def test_removed_study_key_exits_one(self, tmp_path, capsys, monkeypatch, study, key, value):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path / "out"))
        cfg = write_config(tmp_path, {"studies": {study: {key: value}}})
        assert self.run_cli("study", study, str(cfg)) == 1
        err = capsys.readouterr().err
        assert err == f"invalid config: studies.{study}: unknown key {key!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("study, overrides, inputs", [
        ("cauchy", {}, {"q": 1.5}),
        ("l1", {"drift": {"kind": "sign"}}, {}),
        ("chain_rule", {}, {"q": 1.5, "T": 0.125, "deltas": [2.0**-7, 2.0**-8]}),
        ("bernoulli", {}, {"n_samples": 1000, "seed": 12}),
        ("eiconv", {}, {"n_max": 1024}),
        ("moment", {}, {"q": 1.5, "n_paths": 100}),
        ("propagation", {}, {"q": 1.5, "r": 1.5, "d": 3.0, "mode": "calibration"}),
        ("contraction_extension", {}, {"q": 1.5}),
        ("apriori", {}, {"qs_linear": [1.5, 2.0, 3.0], "qs_square": [2.0, 4.0]}),
    ])
    def test_empty_section_runs_at_the_runs_own_values(self, tmp_path, monkeypatch,
                                                       study, overrides, inputs):
        # q is exponents.q, the paths are seeds.n_paths (at least 100 for moment),
        # chain_rule steps at 2 delta and delta, and the counts are the studies' own
        from mildlab.noise import path_seeds

        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path, {"exponents": {"q": 1.5, "r": 1.5}, **overrides,
                                      "studies": {study: {}}})
        assert self.run_cli("study", study, str(cfg), "--workers", "1") in (0, 1, 2)
        report = json.loads((tmp_path / "run" / study / "report.json").read_text())
        assert {key: report["inputs"][key] for key in inputs} == inputs
        seeds = [int(s) for s in path_seeds(12, 100 if study == "moment" else 2)]
        if study == "contraction_extension":
            assert report["inputs"]["seed"] == seeds[0]
        elif study not in ("chain_rule", "bernoulli", "eiconv"):
            assert report["inputs"]["seeds"] == seeds

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_below_one_rejected(self, tmp_path, capsys, monkeypatch, workers):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path / "out"))
        cfg = write_config(tmp_path)
        assert self.run_cli("solve", str(cfg), "--workers", workers) == 1
        assert "--workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, capsys):
        assert self.run_cli("solve", "/nonexistent/config.json") == 1

    def test_non_utf8_config_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path / "out"))
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"output_dir": "\xff"}')
        assert self.run_cli("solve", str(cfg)) == 1
        assert capsys.readouterr().err.startswith("error reading config: ")
        assert not (tmp_path / "out").exists()

    def test_l1_study_on_a_single_step(self, tmp_path, monkeypatch):
        # each small set is larger than the whole space-time measure h * delta * M,
        # so both proxies are the whole integral of |g| at the level where it peaks
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path, {
            "grid": {"M": 7}, "time": {"T": 2.0**-6, "delta": 2.0**-6},
            "drift": {"kind": "sign"}, "lambda_schedule": None, "studies": {"l1": {}}})
        assert self.run_cli("study", "l1", str(cfg), "--workers", "1") in (0, 1)  # a verdict
        report = json.loads((tmp_path / "run" / "l1" / "report.json").read_text())
        assert report["checks"]["small_set_integral_decreasing_in_measure"]
        for i in range(2):
            assert report["series"][f"equiintegrability_proxy_path{i}"] == [
                0.013671875, 0.009765625]

    def test_chain_rule_passes_a_violation_that_falls_faster_than_delta(self, tmp_path,
                                                                         monkeypatch):
        # zero datum: the violation falls 2.78-fold per halving of delta, inside
        # the claimed O(delta) bound
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"grid": {"M": 31}, "time": {"T": 0.25, "delta": 2.0**-8},
                                   "initial": {"kind": "zero"},
                                   "studies": {"chain_rule": {}}}))
        assert self.run_cli("study", "chain_rule", str(cfg)) == 0
        report = json.loads((tmp_path / "runs" / "out" / "chain_rule" / "report.json").read_text())
        assert report["checks"]["violation_first_order_in_delta"]
        assert report["fitted"]["violation_ratios"][0] > 2.5
        assert report["thresholds"] == {"fd_tol": 1e-10, "ratio_low": 1.5}

    def test_chain_rule_margin_excludes_time_zero(self, tmp_path, monkeypatch):
        # default sine datum: the inequality holds with slack at every n >= 1,
        # and with equality at n = 0, which the margin leaves out
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = tmp_path / "default.json"
        cfg.write_text('{"studies": {"chain_rule": {}}}')
        assert self.run_cli("study", "chain_rule", str(cfg)) == 0
        report = json.loads((tmp_path / "runs" / "out" / "chain_rule" / "report.json").read_text())
        assert report["checks"]["violation_at_numerical_zero"]
        assert all(v < -1e-3 for v in report["series"]["max_violation"])

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
        assert_u_npy_header(out / "solution0_u.npy", (33, 21))  # T / delta + 1 times, M nodes

    def test_solve_record_is_seed_drift_and_certificate(self, tmp_path, monkeypatch):
        # solution<i>.json is the path's seed, the drift and every field of the
        # run's solve_mild result but the trajectories u and g, with its values
        from mildlab.noise import path_seeds, sample_path
        from mildlab.solver import MildSolution, solve_mild

        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg_file = write_config(tmp_path)
        assert self.run_cli("solve", str(cfg_file), "--workers", "1") in (0, 2)
        cfg = parse_config(cfg_file.read_text())
        certified = {f.name for f in dataclasses.fields(MildSolution)} - {"u", "g"}
        sg = cfg.build_semigroup()
        for i, seed in enumerate(path_seeds(cfg.master_seed, cfg.n_paths)):
            record = json.loads((tmp_path / "run" / f"solution{i}.json").read_text())
            assert set(record) == {"seed", "drift"} | certified
            path = sample_path(sg, cfg.spec, cfg.T, cfg.delta, int(seed))
            sol = solve_mild(cfg.build_graph(), cfg.build_initial(sg.grid), path, cfg.solver)
            assert record == {"seed": int(seed), "drift": cfg.raw["drift"],
                              **{name: getattr(sol, name) for name in certified}}

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
            outs.append((root / "run" / "solution0_u.npy").read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("drift", [
        None,  # SMALL_CONFIG's cubic, a closed-form resolvent
        {"kind": "piecewise", "breakpoints": [0.0], "expressions": ["x**3 - 1", "x**3 + 1"],
         "d": 3, "C_f": 2},  # the generic engine
    ])
    def test_g_regenerates_from_the_u_npy(self, tmp_path, drift, workers):
        # solve writes no g: g = f_lam(u) at the final lambda, so it is rebuilt,
        # as README's Artifacts section shows, from the manifest's config, the
        # run record's final_lambda and the u .npy, with the bytes solve_mild
        # has.  The .npy holds the values the CSV export of the same u parses to.
        from mildlab.noise import export_series_csv, path_seeds, sample_path
        from mildlab.scalar_monotone import yosida_array
        from mildlab.solver import solve_mild

        cfg_file = write_config(tmp_path, {"drift": drift} if drift else None)
        assert main(["solve", str(cfg_file), "--workers", workers,
                     "--output-root", str(tmp_path)]) in (0, 2)
        run = tmp_path / "run"
        cfg = parse_config(cfg_file.read_text())
        config = json.loads((run / "manifest.json").read_text())["config"]
        graph = parse_config(json.dumps(config)).build_graph()
        sg = cfg.build_semigroup()
        u0 = cfg.build_initial(sg.grid)
        for i, seed in enumerate(path_seeds(cfg.master_seed, cfg.n_paths)):
            lam = json.loads((run / f"solution{i}.json").read_text())["final_lambda"]
            path = sample_path(sg, cfg.spec, cfg.T, cfg.delta, int(seed))
            assert_u_npy_header(run / f"solution{i}_u.npy", (path.n_steps + 1, config["grid"]["M"]))
            u = np.load(run / f"solution{i}_u.npy", allow_pickle=False)
            g = yosida_array(graph, lam, u)
            sol = solve_mild(cfg.build_graph(), u0, path, cfg.solver)
            assert g.tobytes() == sol.g.values.tobytes()
            export_series_csv(sol.u, path.times, tmp_path / "u.csv")
            rows = np.loadtxt(tmp_path / "u.csv", delimiter=",", skiprows=1)
            times = np.arange(path.n_steps + 1) * cfg.delta
            assert np.array_equal(rows[:, 0], np.repeat(times, u.shape[1]))
            assert u.tobytes() == rows[:, 2].reshape(u.shape).tobytes()

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

    def test_runs_import_no_scipy(self, tmp_path):
        # numpy is the only declared dependency
        cfg, root = str(write_config(tmp_path)), str(tmp_path)
        script = (
            "import json, sys\n"
            "from mildlab.cli import main\n"
            f"codes = [main(['solve', {cfg!r}, '--output-root', {root!r}]),\n"
            f"         main(['study', 'cauchy', {cfg!r}, '--output-root', {root!r}])]\n"
            "print(json.dumps([codes, [m for m in sys.modules if m.split('.')[0] == 'scipy']]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        codes, scipy_modules = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert scipy_modules == []

    def test_import_leaves_the_process_pool_unloaded(self):
        # the pool's imports are paid only by a run that forks
        script = (
            "import json, sys\n"
            "import mildlab.cli\n"
            "print(json.dumps([m for m in ('multiprocessing', 'concurrent.futures.process')\n"
            "                  if m in sys.modules]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_set_up_leaves_numpy_ma_and_polynomial_unloaded(self, tmp_path):
        # every invocation pays for its import, parse and builds, and neither
        # module serves them
        drifts = [{"kind": "power", "d": 3.0}, {"kind": "sign"},
                  {"kind": "piecewise", "breakpoints": [0.0],
                   "expressions": ["x**3 - 1", "x**3 + 1"], "d": 3, "C_f": 2}]
        cfgs = [str(write_config(tmp_path, {"drift": d}, name=f"cfg{i}.json"))
                for i, d in enumerate(drifts)]
        script = (
            "import json, sys\n"
            "from pathlib import Path\n"
            "from mildlab.cli import parse_config\n"
            "for path in sys.argv[1:]:\n"
            "    cfg = parse_config(Path(path).read_text())\n"
            "    sg = cfg.build_semigroup()\n"
            "    cfg.build_graph()\n"
            "    cfg.build_initial(sg.grid)\n"
            "print(json.dumps([m for m in ('numpy.ma', 'numpy.polynomial') if m in sys.modules]))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script, *cfgs], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []

    def test_failed_path_on_the_pool(self, tmp_path, monkeypatch, capsys):
        import multiprocessing

        import mildlab.cli
        from mildlab.errors import NoConvergence
        from mildlab.noise import path_seeds

        payload = json.loads(json.dumps(SMALL_CONFIG))
        payload["seeds"]["n_paths"] = 4
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))
        failing = int(path_seeds(12, 4)[1])
        solve_mild = mildlab.cli.solve_mild

        def fail_on_path_1(f, u0, path, config):
            if path.seed == failing:
                raise NoConvergence(f"path {path.seed} did not converge")
            return solve_mild(f, u0, path, config)

        monkeypatch.setattr(mildlab.cli, "solve_mild", fail_on_path_1)  # forked children see it
        errors = []
        for workers in ("1", "2"):
            root = tmp_path / f"w{workers}"
            assert self.run_cli("solve", str(cfg), "--workers", workers,
                                "--output-root", str(root)) == 1
            errors.append(capsys.readouterr().err)
            names = {p.name for p in (root / "run").iterdir()}
            others = {f"solution{i}{ext}" for i in (0, 2, 3) for ext in ("_u.npy", ".json")}
            # no solution1* and no temp file; on the pool the other paths finish
            assert names == others if workers == "2" else names <= others
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1] == f"error: path {failing} did not converge\n"

    def test_failed_study_path_on_the_pool(self, tmp_path, monkeypatch, capsys):
        import multiprocessing

        import mildlab.verify.studies as studies
        from mildlab.errors import NoConvergence
        from mildlab.noise import path_seeds

        payload = json.loads(json.dumps(SMALL_CONFIG))
        payload["seeds"]["n_paths"] = 3
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))
        failing = int(path_seeds(12, 3)[1])
        regularized_chunks = studies.regularized_chunks

        def fail_on_path_1(f, lam, u0, path):
            if path.seed == failing:
                raise NoConvergence(f"path {path.seed} did not converge")
            return regularized_chunks(f, lam, u0, path)

        monkeypatch.setattr(studies, "regularized_chunks", fail_on_path_1)  # forked children see it
        errors = []
        for workers in ("1", "2"):
            root = tmp_path / f"w{workers}"
            assert self.run_cli("study", "cauchy", str(cfg), "--workers", workers,
                                "--output-root", str(root)) == 1
            errors.append(capsys.readouterr().err)
            assert not (root / "run").exists()  # no report and no manifest
            assert multiprocessing.active_children() == []
        assert errors[0] == errors[1] == f"error: path {failing} did not converge\n"

    @pytest.mark.parametrize("command", [("study", "cauchy"), ("solve",)])
    def test_each_path_is_sampled_in_its_own_task(self, tmp_path, monkeypatch, command):
        import weakref

        import mildlab.cli

        payload = json.loads(json.dumps(SMALL_CONFIG))
        payload["grid"]["M"] = 15
        payload["seeds"]["n_paths"] = 3
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(payload))
        sample_path = mildlab.cli.sample_path
        calls, alive, most_alive = [0], weakref.WeakSet(), [0]

        def counted(*args):
            calls[0] += 1  # a forked child increments its own copy
            path = sample_path(*args)
            alive.add(path)
            most_alive[0] = max(most_alive[0], len(alive))
            return path

        monkeypatch.setattr(mildlab.cli, "sample_path", counted)
        runs = {}
        for workers in ("2", "1"):
            calls[0] = most_alive[0] = 0
            root = tmp_path / f"w{workers}"
            code = self.run_cli(*command, str(cfg), "--workers", workers,
                                "--output-root", str(root))
            files = sorted(p for p in (root / "run").rglob("*") if p.is_file())
            runs[workers] = {"code": code, "calls": calls[0], "most_alive": most_alive[0],
                             "bytes": {p.relative_to(root).as_posix(): p.read_bytes()
                                       for p in files}}
        pool, in_order = runs["2"], runs["1"]
        assert pool["calls"] == pool["most_alive"] == 0  # the parent samples no path
        assert in_order["calls"] == 3
        assert in_order["most_alive"] <= 2  # a path and the next one being sampled
        assert (pool["code"], pool["bytes"]) == (in_order["code"], in_order["bytes"])

    def test_lazy_path_sequence(self, tmp_path, monkeypatch):
        import mildlab.cli
        from mildlab.noise import path_seeds
        from mildlab.verify import cauchy_rate_study

        cfg = parse_config(json.dumps({**SMALL_CONFIG, "grid": {"M": 15, "nu": 1.0}}))
        sg = cfg.build_semigroup()
        sample_path = mildlab.cli.sample_path
        calls = []
        monkeypatch.setattr(mildlab.cli, "sample_path",
                            lambda *args: calls.append(args[-1]) or sample_path(*args))
        paths = mildlab.cli._Paths(cfg, 3)
        assert len(paths) == 3 and calls == []
        seeds = [int(s) for s in path_seeds(cfg.master_seed, 3)]
        spec = cfg.spec
        for i, seed in enumerate(seeds):
            want = sample_path(sg, spec, cfg.T, cfg.delta, seed)
            assert paths[i].mode_values.tobytes() == want.mode_values.tobytes()
        assert calls == seeds
        with pytest.raises(IndexError):
            paths[3]
        eager = list(paths)  # iteration stops at the end
        assert [p.seed for p in eager] == seeds

        args = (cfg.build_graph(), cfg.solver.q)
        rest = (cfg.solver, cfg.build_initial(sg.grid))
        cauchy_rate_study(*args, paths, *rest).save(tmp_path / "lazy")
        cauchy_rate_study(*args, eager, *rest).save(tmp_path / "list")
        for name in ("report.json", "series.csv"):
            assert (tmp_path / "lazy" / name).read_bytes() == (tmp_path / "list" / name).read_bytes()

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

    def test_apriori_study_with_piecewise_drift(self, tmp_path, monkeypatch):
        # no closed-form primitive: phi goes through the generic quadrature
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path, {
            "grid": {"M": 31, "nu": 1.0},
            "time": {"T": 0.25, "delta": 2.0**-8},
            "drift": {"kind": "piecewise", "breakpoints": [0.0],
                      "expressions": ["x**3 - 1", "x**3 + 1"], "d": 3, "C_f": 2},
            "studies": {"apriori": {}},
        })
        assert self.run_cli("study", "apriori", str(cfg)) == 0
        report = json.loads((tmp_path / "run" / "apriori" / "report.json").read_text())
        assert report["verdict"] == "pass"

    @pytest.mark.parametrize("name, overrides, absent", [
        ("apriori", {"studies": {"apriori": {"qs_linear": [], "qs_square": [2.0]}}},
         "worst_linear"),
        ("cauchy", {"drift": {"kind": "zero"}, "studies": {"cauchy": {}}}, "min_slope"),
    ])
    def test_report_is_strict_json(self, tmp_path, monkeypatch, name, overrides, absent):
        # a form the study does not check, or a slope it did not fit, is left out, not -inf or NaN
        monkeypatch.setenv("MILDLAB_OUTPUT_ROOT", str(tmp_path))
        cfg = write_config(tmp_path, overrides)
        assert self.run_cli("study", name, str(cfg), "--workers", "1") == 0

        def reject(constant):
            raise ValueError(f"report.json holds {constant}")

        text = (tmp_path / "run" / name / "report.json").read_text()
        report = json.loads(text, parse_constant=reject)
        assert absent not in report["fitted"]
        assert not any(key.startswith(absent) for key in report["series"])


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
    tables = {"": config._TOP, **config._SECTIONS,
              **{f"studies.{name}": rules for name, rules in STUDY_KEYS.items()},
              **{f"drift {kind}": rules for kind, (rules, _) in DRIFT_KEYS.items()},
              **{f"initial {kind}": rules for kind, (rules, _) in INITIAL_KEYS.items()}}
    for where, rules in tables.items():
        problems = []
        config._check({}, rules, where, problems)
        required = [key for key, (default, _, _) in rules.items() if default is config.REQUIRED]
        assert problems == [f"{where}.{key}: required" for key in required], where


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("### Config schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    cfg = parse_config(example)
    assert cfg.raw["output_dir"] == "runs/demo" and set(cfg.studies) == {"cauchy", "bernoulli"}


@pytest.mark.parametrize("module", sorted(
    info.name for info in pkgutil.walk_packages(mildlab.__path__, "mildlab.")))
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
