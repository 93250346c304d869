"""Structured records of verification experiments and their artifacts.

A study report carries everything needed to audit a verdict: the inputs
(config digest, seeds, parameters), every raw measured series, fitted
quantities, the thresholds it was judged against, and the named boolean
checks.  The verdict is "pass" only if every check holds.  Serialization is
canonical (sorted keys, repr floats), so a rerun from the same manifest is
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..atomic import atomic_write_text

__all__ = ["StudyReport", "config_digest", "atomic_write_text", "map_ordered"]


def config_digest(payload: dict) -> str:
    """sha256 of the canonical JSON encoding of a config mapping."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def map_ordered(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Apply fn to items on a worker pool; results keep the input order.

    The aggregation is a deterministic fold over the input index, so study
    output is invariant to the worker count.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass
class StudyReport:
    """One verification experiment: inputs, measurements, verdict."""

    study: str
    claim: str
    inputs: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    fitted: dict = field(default_factory=dict)
    thresholds: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    verdict: str = "inconclusive"

    def finalize(self, inconclusive: bool = False) -> "StudyReport":
        """Set the verdict from the named checks."""
        if inconclusive:
            self.verdict = "inconclusive"
        else:
            self.verdict = "pass" if all(self.checks.values()) else "fail"
        return self

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def save(self, directory: Path) -> None:
        """Write report.json and series.csv under the given directory."""
        directory = Path(directory)
        atomic_write_text(directory / "report.json", self.to_json())
        rows = "".join(f"{name},{i},{float(value):.17g}\n"
                       for name in sorted(self.series)
                       for i, value in enumerate(self.series[name]))
        atomic_write_text(directory / "series.csv", "series,index,value\n" + rows)

    @staticmethod
    def load(directory: Path) -> "StudyReport":
        data = json.loads((Path(directory) / "report.json").read_text())
        return StudyReport(**data)
