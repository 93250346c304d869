"""Run configuration: documented JSON schema, parsing, full validation.

A config is a JSON object with the sections below; unknown keys anywhere are
rejected (a study section accepts the keys listed in STUDY_KEYS), and
validation reports every violated constraint at once, not just the first.

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
0.25 * 2^-j for j = 0..6.  A study subcommand refuses to run unless its
section is present under "studies".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ParseError, ValidationError
from .grid_space import Grid, GridFunction
from .noise import DiffusionSpec
from .scalar_monotone import MonotoneGraph, make_graph
from .semigroup import HeatSemigroup
from .solver import SolverConfig, default_lambda_schedule

__all__ = ["RunConfig", "parse_config", "STUDY_KEYS"]

# Each study's name and the keys its section under "studies" accepts.
STUDY_KEYS = {
    "cauchy": ("n_paths", "q"),
    "l1": ("n_paths",),
    "chain_rule": ("q", "deltas"),
    "bernoulli": ("n_samples",),
    "eiconv": ("n_max",),
    "moment": ("n_paths", "q"),
    "propagation": ("n_paths", "frozen_constant"),
    "contraction_extension": (),
    "apriori": ("n_paths", "qs_linear", "qs_square"),
}
_STUDY_LIST_KEYS = {"deltas", "qs_linear", "qs_square"}

_TOP_KEYS = {
    "grid", "time", "drift", "noise", "exponents", "initial",
    "lambda_schedule", "cauchy_tol", "seeds", "output_dir",
    "workers", "studies",
}

_DEFAULTS = {
    "grid": {"M": 127, "nu": 1.0},
    "time": {"T": 1.0, "delta": 2.0**-10},
    "drift": {"kind": "power", "d": 3.0},
    "noise": {"c": 1.0, "gamma": 2.0},
    "exponents": {"q": 2.0, "r": 2.0, "p": 2.0},
    "initial": {"kind": "sine", "amplitude": 0.5, "mode": 1},
    "cauchy_tol": 1e-3,
    "seeds": {"master": 20260101, "n_paths": 4},
    "output_dir": "runs/out",
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; `raw` is the canonical merged mapping."""

    M: int
    nu: float
    T: float
    delta: float
    drift: dict
    noise: dict
    q: float
    r: float
    p: float
    d: float
    initial: dict
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
        return make_graph(self.drift)

    def build_noise_spec(self) -> DiffusionSpec:
        return DiffusionSpec.from_dict(self.noise)

    def build_initial(self, grid: Grid) -> GridFunction:
        kind = self.initial["kind"]
        if kind == "zero":
            return GridFunction(grid, np.zeros(grid.M))
        if kind == "sine":
            amp = float(self.initial.get("amplitude", 1.0))
            mode = int(self.initial.get("mode", 1))
            return GridFunction(grid, amp * np.sin(mode * np.pi * grid.nodes))
        if kind == "spike":
            a = float(self.initial.get("exponent", 0.4))
            amp = float(self.initial.get("amplitude", 1.0))
            cap = self.initial.get("cap")
            vals = amp * grid.nodes ** (-a)
            if cap is not None:
                vals = np.minimum(vals, float(cap))
            return GridFunction(grid, vals)
        if kind == "values":
            return GridFunction(grid, np.asarray(self.initial["values"], dtype=float))
        raise ValueError(f"unknown initial kind {kind!r}")

    def solver_config(self) -> SolverConfig:
        return SolverConfig(
            q=self.q, r=self.r, delta=self.delta,
            lambda_schedule=self.lambda_schedule,
            cauchy_tol=self.cauchy_tol,
        )


def _reject_unknown(mapping: dict, allowed, where: str, problems: list):
    for key in mapping:
        if key not in allowed:
            problems.append(f"{where}: unknown key {key!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_study(name: str, body: dict, problems: list):
    """Study keys: n_* are integers >= 1, list keys hold numbers, the rest are numbers."""
    where = f"studies.{name}"
    _reject_unknown(body, STUDY_KEYS[name], where, problems)
    for key in STUDY_KEYS[name]:
        if key not in body:
            continue
        value = body[key]
        if key.startswith("n_"):
            if not (isinstance(value, int) and not isinstance(value, bool) and value >= 1):
                problems.append(f"{where}.{key}: must be an integer >= 1")
        elif key in _STUDY_LIST_KEYS:
            if not (isinstance(value, list) and all(_is_number(x) for x in value)):
                problems.append(f"{where}.{key}: must be a list of numbers")
        elif not _is_number(value):
            problems.append(f"{where}.{key}: must be a number")


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate config text; collect every violation."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")

    problems: list[str] = []
    _reject_unknown(data, _TOP_KEYS, "top level", problems)

    def section(name: str, keys: set) -> dict:
        merged = dict(_DEFAULTS.get(name, {}))
        given = data.get(name, {})
        if not isinstance(given, dict):
            problems.append(f"{name}: must be an object")
            return merged
        _reject_unknown(given, keys, name, problems)
        merged.update({k: v for k, v in given.items() if k in keys})
        return merged

    grid = section("grid", {"M", "nu"})
    time_sec = section("time", {"T", "delta"})
    drift = data.get("drift", dict(_DEFAULTS["drift"]))
    noise = data.get("noise", dict(_DEFAULTS["noise"]))
    exponents = section("exponents", {"q", "r", "p", "d"})
    initial = data.get("initial", dict(_DEFAULTS["initial"]))
    seeds = section("seeds", {"master", "n_paths"})

    M = grid.get("M")
    if not (isinstance(M, int) and M >= 2):
        problems.append("grid.M: must be an integer >= 2")
    nu = grid.get("nu")
    if not (isinstance(nu, (int, float)) and nu > 0):
        problems.append("grid.nu: must be > 0")
    T = time_sec.get("T")
    if not (isinstance(T, (int, float)) and T > 0):
        problems.append("time.T: must be > 0")
    delta = time_sec.get("delta")
    if not (isinstance(delta, (int, float)) and delta > 0):
        problems.append("time.delta: must be > 0")
    elif isinstance(T, (int, float)) and T > 0:
        n = round(T / delta)
        if n < 1 or abs(n * delta - T) > 1e-9 * T:
            problems.append("time.delta: must divide the horizon T")

    q = exponents.get("q")
    if not (isinstance(q, (int, float)) and q >= 1):
        problems.append("exponents.q: q >= 1")
    r = exponents.get("r")
    if not (isinstance(r, (int, float)) and r >= 1):
        problems.append("exponents.r: r >= 1")
    elif isinstance(q, (int, float)) and r > q:
        problems.append("exponents.r: r <= q (a (q,r)-mild solution requires q >= r)")
    p = exponents.get("p")
    if not (isinstance(p, (int, float)) and p > 0):
        problems.append("exponents.p: p > 0")

    drift_graph = None
    if not isinstance(drift, dict):
        problems.append("drift: must be an object")
        drift = dict(_DEFAULTS["drift"])
    else:
        try:
            drift_graph = make_graph(drift)
        except Exception as exc:
            problems.append(f"drift: {exc}")
    d = exponents.get("d")
    if d is None:
        d = drift_graph.growth_exponent if drift_graph is not None else 0.0
    elif not (isinstance(d, (int, float)) and d >= 0):
        problems.append("exponents.d: d >= 0")

    if not isinstance(noise, dict):
        problems.append("noise: must be an object")
        noise = dict(_DEFAULTS["noise"])
    else:
        _reject_unknown(noise, {"c", "gamma", "weights"}, "noise", problems)
        if "weights" in noise:
            w = noise["weights"]
            if not (isinstance(w, list) and all(isinstance(x, (int, float)) and x >= 0 for x in w)):
                problems.append("noise.weights: must be a list of reals >= 0")
            elif isinstance(M, int) and len(w) != M:
                problems.append(f"noise.weights: need exactly M={M} entries")
        else:
            if not (isinstance(noise.get("c", 1.0), (int, float)) and noise.get("c", 1.0) >= 0):
                problems.append("noise.c: amplitude >= 0")
            if not (isinstance(noise.get("gamma", 1.0), (int, float)) and noise.get("gamma", 1.0) >= 0):
                problems.append("noise.gamma: smoothness >= 0")

    if not isinstance(initial, dict) or "kind" not in initial:
        problems.append("initial: must be an object with a 'kind'")
        initial = dict(_DEFAULTS["initial"])
    elif initial["kind"] not in ("zero", "sine", "spike", "values"):
        problems.append(f"initial.kind: unknown kind {initial['kind']!r}")

    schedule = data.get("lambda_schedule", list(default_lambda_schedule()))
    if not (isinstance(schedule, list) and schedule
            and all(isinstance(x, (int, float)) and x > 0 for x in schedule)):
        problems.append("lambda_schedule: must be a nonempty list of positive reals")
    elif any(b >= a for a, b in zip(schedule, schedule[1:])):
        problems.append("lambda_schedule: must be strictly decreasing")

    cauchy_tol = data.get("cauchy_tol", _DEFAULTS["cauchy_tol"])
    if not (isinstance(cauchy_tol, (int, float)) and cauchy_tol > 0):
        problems.append("cauchy_tol: must be > 0")

    master = seeds.get("master")
    if not (isinstance(master, int) and master >= 0):
        problems.append("seeds.master: must be a nonnegative integer")
    n_paths = seeds.get("n_paths")
    if not (isinstance(n_paths, int) and n_paths >= 1):
        problems.append("seeds.n_paths: must be an integer >= 1")

    output_dir = data.get("output_dir", _DEFAULTS["output_dir"])
    if not isinstance(output_dir, str) or not output_dir:
        problems.append("output_dir: must be a nonempty string")

    workers = data.get("workers")
    if workers is not None and not (isinstance(workers, int) and workers >= 1):
        problems.append("workers: must be an integer >= 1")

    studies = data.get("studies", {})
    if not isinstance(studies, dict):
        problems.append("studies: must be an object")
        studies = {}
    else:
        for name, body in studies.items():
            if name not in STUDY_KEYS:
                problems.append(f"studies: unknown study {name!r}")
            elif not isinstance(body, dict):
                problems.append(f"studies.{name}: must be an object")
            else:
                _check_study(name, body, problems)

    if problems:
        raise ValidationError(problems)

    merged = {
        "grid": {"M": M, "nu": float(nu)},
        "time": {"T": float(T), "delta": float(delta)},
        "drift": drift,
        "noise": noise,
        "exponents": {"q": float(q), "r": float(r), "p": float(p), "d": float(d)},
        "initial": initial,
        "lambda_schedule": [float(x) for x in schedule],
        "cauchy_tol": float(cauchy_tol),
        "seeds": {"master": master, "n_paths": n_paths},
        "output_dir": output_dir,
        "workers": workers,
        "studies": studies,
    }
    return RunConfig(
        M=M, nu=float(nu), T=float(T), delta=float(delta),
        drift=drift, noise=noise,
        q=float(q), r=float(r), p=float(p), d=float(d),
        initial=initial,
        lambda_schedule=tuple(float(x) for x in schedule),
        cauchy_tol=float(cauchy_tol),
        master_seed=master, n_paths=n_paths,
        output_dir=output_dir, workers=workers,
        studies=studies, raw=merged,
    )
