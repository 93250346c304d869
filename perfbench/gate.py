"""Correctness gate: decides which operations of an invocation failed.

An operation is one path's solve (``solve``) or one study (``study``).  It
fails on any of these:

- the CLI raised, or returned another exit code than 0;
- a path did not meet the Cauchy stop (``converged`` false);
- a path's mild-identity residual is over ``RESIDUAL_BUDGET``;
- a study verdict other than ``pass``;
- an artifact whose sha256 differs from the same artifact of the first
  invocation of the run (every invocation of a run repeats one config);
- on the reference seed, a recorded quantity (per-lambda ``sup_norms`` and
  ``gaps``, ``final_lambda``, a study's measured series) differs from
  ``reference.json`` by more than ``REFERENCE_RTOL`` relative.  That is far
  above last-ulp drift, so an exact rewrite of a root solver still passes.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

# The residual is a splitting error of order delta; the workloads measure
# 3e-4 to 2e-3 at delta = 2^-10.
RESIDUAL_BUDGET = 1e-2
REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-12
REFERENCE_FILE = Path(__file__).with_name("reference.json")

_SOLUTION = re.compile(r"solution(\d+)")


@dataclass
class Outcome:
    """What one CLI invocation produced and which operations failed."""

    attempted: int
    failed_ops: set = field(default_factory=set)  # operation indices
    problems: list = field(default_factory=list)
    trajectories: int = 0                         # certified lambda-levels
    digests: dict = field(default_factory=dict)   # artifact -> sha256
    record: dict = field(default_factory=dict)    # values compared to the reference

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op: int, why: str) -> None:
        self.failed_ops.add(op)
        self.problems.append(why)

    def fail_all(self, why: str) -> None:
        self.failed_ops.update(range(self.attempted))
        self.problems.append(why)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def inspect(part, out: Path, exit_code, error: str | None) -> Outcome:
    """Read an invocation's artifacts under ``out`` and judge each operation."""
    result = Outcome(attempted=part.operations())
    if error is not None:
        result.fail_all(f"CLI raised {error}")
        return result
    if exit_code != 0:
        result.fail_all(f"exit code {exit_code}, expected 0")
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        names = ["manifest.json"] + list(manifest["artifacts"])
        result.digests = {name: _sha256(out / name) for name in names}
        if part.study:
            _inspect_study(part, out, result)
        else:
            _inspect_solve(out, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.fail_all(f"unreadable artifacts: {exc!r}")
    return result


def _inspect_solve(out: Path, result: Outcome) -> None:
    for i in range(result.attempted):
        rec = json.loads((out / f"solution{i}.json").read_text())
        result.record[f"path{i}"] = {k: rec[k] for k in ("final_lambda", "lambdas", "gaps", "sup_norms")}
        result.trajectories += len(rec["lambdas"])
        if not rec["converged"]:
            result.fail(i, f"path {i}: continuation did not meet the Cauchy tolerance")
        if not rec["residual"] <= RESIDUAL_BUDGET:
            result.fail(i, f"path {i}: residual {rec['residual']:.3e} > {RESIDUAL_BUDGET:g}")


def _inspect_study(part, out: Path, result: Outcome) -> None:
    report = json.loads((out / part.study / "report.json").read_text())
    result.record = {"series": report["series"]}
    result.trajectories = len(report["inputs"]["lambda_schedule"]) * len(report["inputs"]["seeds"])
    if report["verdict"] != "pass":
        result.fail(0, f"study verdict {report['verdict']!r}: {report['checks']}")


def _op_of(artifact: str, study: str | None) -> int | None:
    if study:
        return 0
    m = _SOLUTION.match(artifact)
    return int(m.group(1)) if m else None


def compare_digests(part, first: Outcome, result: Outcome) -> None:
    """Fail the operations whose artifacts differ from the run's first invocation."""
    for name in sorted(set(first.digests) | set(result.digests)):
        if first.digests.get(name) != result.digests.get(name):
            op = _op_of(name, part.study)
            why = f"{name}: sha256 differs from the first invocation"
            if op is None:
                result.fail_all(why)
            else:
                result.fail(op, why)


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b)) + REFERENCE_ATOL
    return a == b


def load_reference(workload_name: str) -> dict | None:
    if not REFERENCE_FILE.exists():
        return None
    return json.loads(REFERENCE_FILE.read_text()).get(workload_name)


def compare_reference(part, reference: dict, result: Outcome) -> None:
    """Fail each operation whose recorded values drift from the reference."""
    for key in sorted(set(reference) | set(result.record)):
        if not _close(reference.get(key), result.record.get(key)):
            why = f"{key}: differs from the reference beyond rtol {REFERENCE_RTOL:g}"
            op = 0 if part.study else int(key.removeprefix("path"))
            if op < result.attempted:
                result.fail(op, why)
            else:
                result.fail_all(why)
