"""Run configuration: documented JSON schema, parsing, full validation.

A config is a JSON object with the sections below.  Each key's default, type
and range is stated once, in the rule tables below (DRIFT_KEYS and
INITIAL_KEYS per kind), and one checker applies them: unknown keys anywhere
are rejected, bools are not numbers, non-finite numbers are rejected, and
every violated constraint is reported at once.

    {
      "grid":   {"M": 127, "nu": 1.0},
      "time":   {"T": 1.0, "delta": 0.0009765625},
      "drift":  {"kind": "power", "d": 3.0},
      "noise":  {"c": 1.0, "gamma": 2.0}            // or {"weights": [...]}
      "exponents": {"q": 2.0, "r": 2.0, "p": 2.0, "d": 3.0},
      "initial": {"kind": "sine", "amplitude": 0.5, "mode": 1},
      "lambda_schedule": [0.25, 0.125, ...],        // strictly decreasing
      "cauchy_tol": 1e-3,
      "seeds": {"master": 12345, "n_paths": 4},
      "output_dir": "runs/demo",
      "workers": 1,                                 // optional
      "studies": {"cauchy": {}, ...}                // presence gates each study
    }

Defaults: M = 127, nu = 1, T = 1, delta = 2^-10, lambda schedule
0.25 * 2^-j for j = 0..6, exponents.d = the drift's growth exponent.  An
absent drift, noise or initial section takes the whole section shown above;
a given one takes per-key defaults instead (noise c = gamma = 1, initial
amplitude = 1).  The drift graph and the initial datum are built once, while
parsing; whatever building raises (say, a malformed branch expression) is a
violation.  A study subcommand refuses to run unless its section is present
under "studies".
"""

from __future__ import annotations

import copy
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError
from .grid_space import Grid, GridFunction
from .noise import DiffusionSpec
from .scalar_monotone import (MonotoneGraph, compile_branch, linear_graph,
                              piecewise_graph, power_graph, sign_graph,
                              sign_plus_linear_graph, zero_graph)
from .semigroup import HeatSemigroup
from .solver import SolverConfig, default_lambda_schedule

__all__ = ["RunConfig", "parse_config", "STUDY_KEYS", "DRIFT_KEYS", "INITIAL_KEYS"]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# Each type: its name in a violation and its test.
_TYPES = {
    "int": ("an integer", _is_int),
    "int or null": ("an integer or null", lambda v: v is None or _is_int(v)),
    "number": ("a number", _is_number),
    "numbers": ("a list of numbers", lambda v: isinstance(v, list) and all(map(_is_number, v))),
    "string": ("a nonempty string", lambda v: isinstance(v, str) and bool(v)),
    "strings": ("a list of strings",
                lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "object": ("an object", lambda v: isinstance(v, dict)),
}
_COMPARE = {">=": operator.ge, ">": operator.gt}


def _inherit(section: str, key: str, derive=lambda v: v):
    """A default taken from a checked top-level key (None while that key is invalid)."""
    return lambda top: None if top[section][key] is None else derive(top[section][key])


# A rule is (default, type, range).  The range bounds the value, or each entry
# of a list, as "<op> <limit>".  A default of None leaves the key unset, a
# REQUIRED key must be given, and a callable default is computed from the
# checked top-level sections.
REQUIRED = object()
_TOP = {
    "grid": ({}, "object", None),
    "time": ({}, "object", None),
    "drift": ({"kind": "power", "d": 3.0}, "object", None),
    "noise": ({"c": 1.0, "gamma": 2.0}, "object", None),
    "exponents": ({}, "object", None),
    "initial": ({"kind": "sine", "amplitude": 0.5, "mode": 1}, "object", None),
    "lambda_schedule": (list(default_lambda_schedule()), "numbers", "> 0"),
    "cauchy_tol": (1e-3, "number", "> 0"),
    "seeds": ({}, "object", None),
    "output_dir": ("runs/out", "string", None),
    "workers": (None, "int or null", ">= 1"),     # manifests record "unset" as null
    "studies": ({}, "object", None),
}
_SECTIONS = {
    "grid": {"M": (127, "int", ">= 2"), "nu": (1.0, "number", "> 0")},
    "time": {"T": (1.0, "number", "> 0"), "delta": (2.0**-10, "number", "> 0")},
    "exponents": {"q": (2.0, "number", ">= 1"), "r": (2.0, "number", ">= 1"),
                  "p": (2.0, "number", "> 0"), "d": (None, "number", ">= 0")},
    "seeds": {"master": (20260101, "int", ">= 0"), "n_paths": (4, "int", ">= 1")},
    # an absent c or gamma takes DiffusionSpec's default, 1.0
    "noise": {"c": (None, "number", ">= 0"), "gamma": (None, "number", ">= 0"),
              "weights": (None, "numbers", ">= 0")},
}
_N_PATHS = (_inherit("seeds", "n_paths"), "int", ">= 1")
_Q_ABOVE_1 = (_inherit("exponents", "q"), "number", "> 1")
# Each study's name and the rules of the keys its section under "studies" accepts.
STUDY_KEYS = {
    "cauchy": {"n_paths": _N_PATHS, "q": _Q_ABOVE_1},
    "l1": {"n_paths": _N_PATHS},
    "chain_rule": {"q": _Q_ABOVE_1,
                   "deltas": (_inherit("time", "delta", lambda d: [2.0 * d, d]),
                              "numbers", "> 0")},
    "bernoulli": {"n_samples": (1000, "int", ">= 1")},
    "eiconv": {"n_max": (1024, "int", ">= 1")},
    "moment": {"n_paths": (_inherit("seeds", "n_paths", lambda n: max(n, 100)), "int", ">= 100"),
               "q": (_inherit("exponents", "q"), "number", ">= 1")},
    "propagation": {"n_paths": _N_PATHS, "frozen_constant": (None, "number", None)},
    "contraction_extension": {},
    "apriori": {"n_paths": _N_PATHS, "qs_linear": ([1.5, 2.0, 3.0], "numbers", ">= 1"),
                "qs_square": ([2.0, 4.0], "numbers", ">= 2")},
}


def _in_range(value, bound: Optional[str]) -> bool:
    """Whether a value, or each entry of a list, satisfies its "<op> <limit>" bound."""
    if bound is None or value is None:
        return True
    op, limit = bound.split()
    entries = value if isinstance(value, list) else [value]
    return all(_COMPARE[op](x, float(limit)) for x in entries)


def _check(body: dict, rules: dict, where: str, problems: list, top: Optional[dict] = None) -> dict:
    """Each key's value under `rules`: the given one, else its default.

    Reports unknown keys and every value of the wrong type or out of range;
    such a value comes back as None, so cross-field rules can skip it.
    Numbers come back as floats.
    """
    prefix = f"{where}." if where else ""
    problems.extend(f"{where or 'top level'}: unknown key {key!r}"
                    for key in body if key not in rules)
    values = {}
    for key, (default, kind, bound) in rules.items():
        if key in body:
            value = body[key]
        elif default is REQUIRED:
            values[key] = None
            problems.append(f"{prefix}{key}: required")
            continue
        else:
            value = default(top) if callable(default) else copy.deepcopy(default)
            if value is None:
                values[key] = None
                continue
        noun, is_kind = _TYPES[kind]
        listed = kind == "numbers"
        if is_kind(value) and _in_range(value, bound):
            values[key] = ([float(x) for x in value] if listed
                           else float(value) if kind == "number" else value)
            continue
        values[key] = None
        in_range = f", {'each' if listed else key} {bound}" if bound else ""
        problems.append(f"{prefix}{key}: must be {noun}{in_range}"
                        + ("" if key in body else f" (its default {value!r})"))
    return values


def _divides(delta: float, T: float) -> bool:
    """Whether a step of `delta` takes at least one step and lands on the horizon T."""
    steps = T / delta
    return (math.isfinite(steps) and round(steps) >= 1
            and abs(round(steps) * delta - T) <= 1e-9 * T)


# Each drift kind: the rules of the keys it reads besides "kind", and its
# graph.  Piecewise branch expressions are in the variable x.
DRIFT_KEYS = {
    "zero": ({}, lambda p: zero_graph()),
    "linear": ({"c": (1.0, "number", ">= 0")}, lambda p: linear_graph(p["c"])),
    "power": ({"d": (3.0, "number", ">= 1"), "coef": (1.0, "number", "> 0")},
              lambda p: power_graph(p["d"], p["coef"])),
    "sign": ({}, lambda p: sign_graph()),
    "sign_linear": ({}, lambda p: sign_plus_linear_graph()),
    "piecewise": ({"breakpoints": (REQUIRED, "numbers", None),
                   "expressions": (REQUIRED, "strings", None),
                   "d": (REQUIRED, "number", ">= 0"), "C_f": (1.0, "number", "> 0"),
                   "name": ("piecewise", "string", None), "zero_in_graph": (True, "bool", None)},
                  lambda p: piecewise_graph(p["name"], p["breakpoints"],
                                            [compile_branch(e) for e in p["expressions"]],
                                            p["d"], p["C_f"], p["zero_in_graph"])),
}
# Each initial-datum kind: the rules of the keys it reads besides "kind", and
# the datum on a grid.
INITIAL_KEYS = {
    "zero": ({}, lambda p, grid: GridFunction(grid, np.zeros(grid.M))),
    "sine": ({"amplitude": (1.0, "number", None), "mode": (1, "int", None)},
             lambda p, grid: GridFunction(
                 grid, p["amplitude"] * np.sin(p["mode"] * np.pi * grid.nodes))),
    "spike": ({"exponent": (0.4, "number", None), "amplitude": (1.0, "number", None),
               "cap": (None, "number", None)},
              lambda p, grid: GridFunction(grid, np.minimum(
                  p["amplitude"] * grid.nodes ** (-p["exponent"]),
                  np.inf if p["cap"] is None else p["cap"]))),
    "values": ({"values": ([], "numbers", None)}, lambda p, grid: GridFunction(grid, p["values"])),
}


def _from_kind(table: dict, where: str, spec: dict, problems: list, *args):
    """What `spec` describes under `table`, or None once the reasons are reported.

    spec["kind"] picks the table entry (rules, builder); the other keys are
    checked against the rules and the builder gets their values and `args`.
    Whatever the builder raises is reported as a violation.
    """
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in table:
        problems.append(f"{where}.kind: must be one of {', '.join(table)}")
        return None
    rules, build = table[kind]
    found = len(problems)
    p = _check({k: v for k, v in spec.items() if k != "kind"}, rules, where, problems)
    if len(problems) > found:
        return None
    try:
        return build(p, *args)
    except Exception as exc:
        problems.append(f"{where}: {exc}")
        return None


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; `raw` is the canonical merged mapping.

    Made by parse_config, which also builds the graph and the initial datum
    that build_graph() and build_initial() return.  `studies` holds each
    present study's parameters, defaults filled in.
    """

    M: int
    nu: float
    T: float
    delta: float
    noise: dict
    q: float
    r: float
    p: float
    d: float
    lambda_schedule: tuple[float, ...]
    cauchy_tol: float
    master_seed: int
    n_paths: int
    output_dir: str
    workers: Optional[int]
    studies: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    def build_grid(self) -> Grid:
        return Grid(self.M)

    def build_semigroup(self) -> HeatSemigroup:
        return HeatSemigroup(self.build_grid(), self.nu)

    def build_graph(self) -> MonotoneGraph:
        return self._graph

    def build_noise_spec(self) -> DiffusionSpec:
        return DiffusionSpec.from_dict(self.noise)

    def build_initial(self, grid: Grid) -> GridFunction:
        """The datum on the config's grid; the solver rejects any other `grid`."""
        return self._u0

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            q=self.q, r=self.r,
            lambda_schedule=self.lambda_schedule,
            cauchy_tol=self.cauchy_tol,
        )


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate config text; collect every violation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")

    problems: list[str] = []
    top = _check(data, _TOP, "", problems)
    raw = dict(top)   # drift, noise, initial and studies are recorded as given
    for name, rules in _SECTIONS.items():
        top[name] = _check(top[name] or {}, rules, name, problems)
    grid, time_sec, exponents = top["grid"], top["time"], top["exponents"]
    M, T, delta = grid["M"], time_sec["T"], time_sec["delta"]

    if None not in (T, delta) and not _divides(delta, T):
        problems.append("time.delta: must divide the horizon T")
    if None not in (exponents["q"], exponents["r"]) and exponents["r"] > exponents["q"]:
        problems.append("exponents.r: r <= q (a (q,r)-mild solution requires q >= r)")
    weights = top["noise"]["weights"]
    if None not in (weights, M) and len(weights) != M:
        problems.append(f"noise.weights: need exactly M={M} entries")
    schedule = top["lambda_schedule"]
    if schedule is not None and (
            not schedule or any(b >= a for a, b in zip(schedule, schedule[1:]))):
        problems.append("lambda_schedule: must be nonempty and strictly decreasing")

    graph = u0 = None
    if raw["drift"] is not None:
        graph = _from_kind(DRIFT_KEYS, "drift", raw["drift"], problems)
    if exponents["d"] is None and graph is not None:
        exponents["d"] = float(graph.growth_exponent)
    if raw["initial"] is not None and M is not None:
        u0 = _from_kind(INITIAL_KEYS, "initial", raw["initial"], problems, Grid(M))

    studies = {}
    for name, body in (raw["studies"] or {}).items():
        if name not in STUDY_KEYS:
            problems.append(f"studies: unknown study {name!r}")
        elif not isinstance(body, dict):
            problems.append(f"studies.{name}: must be an object")
        else:
            # given values pass through unconverted, so reports record them as written
            checked = _check(body, STUDY_KEYS[name], f"studies.{name}", problems, top)
            studies[name] = {**checked, **body}
            deltas = checked.get("deltas")   # chain_rule's refinement steps
            if None not in (deltas, T) and not (deltas and all(_divides(d, T) for d in deltas)):
                problems.append(f"studies.{name}.deltas: must be nonempty, each dividing T")

    if problems:
        raise ValidationError(problems)

    raw.update({name: top[name] for name in ("grid", "time", "exponents", "seeds")})
    cfg = RunConfig(
        M=M, nu=grid["nu"], T=T, delta=delta,
        noise=raw["noise"],
        q=exponents["q"], r=exponents["r"], p=exponents["p"], d=exponents["d"],
        lambda_schedule=tuple(schedule),
        cauchy_tol=top["cauchy_tol"],
        master_seed=top["seeds"]["master"], n_paths=top["seeds"]["n_paths"],
        output_dir=top["output_dir"], workers=top["workers"],
        studies=studies, raw=raw,
    )
    object.__setattr__(cfg, "_graph", graph)
    object.__setattr__(cfg, "_u0", u0)
    return cfg
