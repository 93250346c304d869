"""The benchmark's workloads: rounds of mildlab CLI invocations on generated configs.

A part is one mildlab CLI invocation on a config built from the benchmark
seed, which becomes the config's ``seeds.master``.  A workload runs a round
of parts back to back.  The four parts each stress a different layer, and
their amount of work does not depend on the seed (a seed-dependent number of
lambda-levels would make run-to-run timings unsteady):

- ``solve-default``: ``mildlab solve`` on the default config (M=127,
  delta=2^-10, T=1, cubic drift, sine initial datum, 4 paths).  The Cauchy
  tolerance is raised to 1e-2 so the continuation stops after 2 lambda-levels
  on every seed (at the default 1e-3 it takes 2 to 6, depending on the seed).
  CSV export dominates; the power-Newton resolvent is second.
- ``solve-piecewise``: ``mildlab solve`` with a piecewise cubic drift that has
  a jump at 0, so every resolvent goes through the generic bisection engine.
  The schedule is the tail 2^-6, 2^-7, 2^-8 of the default one, where the
  first Cauchy gap is below 1e-3 on every seed, so it stops after 2 levels.
- ``study-apriori``: ``mildlab study apriori`` with cubic drift over the full
  7-level schedule (cauchy_tol 1e-14), q in {1.5, 2, 3} for the linear bound
  and {2, 4} for the squared one.  No bulk export; the resolvent dominates.
- ``study-fine-sign``: ``mildlab study cauchy`` at M=511 with sign drift,
  whose resolvent is closed-form, so the dense semigroup substep and the step
  loop dominate.

The two workloads pair them by subcommand.  ``solve`` holds all the bulk CSV
export and the generic root engine; ``study`` has no bulk export, runs the
thread pool (``--workers`` = nproc) and the M=511 semigroup.  Two workloads
rather than four let each run last twice as long within the benchmark's time
budget: on a shared 2-vCPU KVM guest the same work took up to 1.8x as long
from one minute to the next, and a longer run averages more of that drift.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

DEFAULT_SEED = 20260101


@dataclass(frozen=True)
class Part:
    name: str
    command: tuple[str, ...]          # CLI words before the config path
    config: dict = field(default_factory=dict)

    @property
    def study(self) -> str | None:
        return self.command[1] if self.command[0] == "study" else None

    def build_config(self, seed: int, output_dir: str) -> dict:
        """The config for one invocation; only the master seed varies."""
        cfg = copy.deepcopy(self.config)
        cfg.setdefault("seeds", {})["master"] = int(seed)
        cfg["output_dir"] = output_dir
        return cfg

    def operations(self) -> int:
        """Operations per invocation: one per solved path, or one study."""
        return 1 if self.study else self.config["seeds"]["n_paths"]

    def n_steps(self) -> int:
        time = self.config.get("time", {})
        return round(time.get("T", 1.0) / time.get("delta", 2.0**-10))

    def grid_size(self) -> int:
        return self.config.get("grid", {}).get("M", 127)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    parts: tuple[Part, ...]


_PIECEWISE = {"kind": "piecewise", "breakpoints": [0.0],
              "expressions": ["x**3 - 1", "x**3 + 1"], "d": 3, "C_f": 2}

PARTS = {
    p.name: p
    for p in (
        Part("solve-default", ("solve",), {"cauchy_tol": 1e-2, "seeds": {"n_paths": 4}}),
        Part("solve-piecewise", ("solve",),
             {"time": {"T": 0.25, "delta": 2.0**-10}, "drift": _PIECEWISE,
              "lambda_schedule": [2.0**-6, 2.0**-7, 2.0**-8], "seeds": {"n_paths": 1}}),
        Part("study-apriori", ("study", "apriori"),
             {"cauchy_tol": 1e-14, "seeds": {"n_paths": 2},
              "studies": {"apriori": {"qs_linear": [1.5, 2.0, 3.0], "qs_square": [2.0, 4.0]}}}),
        Part("study-fine-sign", ("study", "cauchy"),
             {"grid": {"M": 511}, "drift": {"kind": "sign"}, "seeds": {"n_paths": 2},
              "studies": {"cauchy": {}}}),
    )
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve", "mildlab solve, default cubic config then a piecewise drift: CSV export, "
                 "Newton resolvent and the generic bisection engine dominate",
                 (PARTS["solve-default"], PARTS["solve-piecewise"])),
        Workload("study", "apriori study (cubic, M=127) then cauchy study (sign, M=511) on the "
                 "thread pool: resolvent and dense semigroup dominate, no bulk export",
                 (PARTS["study-apriori"], PARTS["study-fine-sign"])),
    )
}
