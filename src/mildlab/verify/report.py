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
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..atomic import atomic_write_text, json_text

__all__ = ["StudyReport", "config_digest", "atomic_write_text", "map_ordered"]


def config_digest(payload: dict) -> str:
    """sha256 of the canonical JSON encoding of a config mapping."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# (fn, items) of the map_ordered call in progress; a forked child inherits it,
# so fn may be a closure and only an item's index is sent to the child
_TASK: tuple[Callable, Sequence] | None = None


def _run_item(index: int):
    fn, items = _TASK
    return fn(items[index])


def map_ordered(fn: Callable, items: Sequence, workers: int = 1) -> list:
    """Apply fn to items on min(workers, len(items)) forked processes, in input order.

    Each result comes back pickled.  A task that raises does not stop the
    others; once every child has been joined, the failure of the lowest
    index is re-raised with its own type.  With workers <= 1, one item, or
    no ``fork`` start method on the platform, fn runs here in order.  A
    child computes exactly what this process would, so results do not
    depend on the worker count.  A forked child starts from this process's
    memory, so fn may close over state built once here and nothing is
    re-imported; fork copies only the calling thread, so no other thread may
    hold a lock that fn takes.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if "fork" not in multiprocessing.get_all_start_methods():
        return [fn(item) for item in items]
    global _TASK
    previous, _TASK = _TASK, (fn, items)
    sys.stdout.flush()
    sys.stderr.flush()
    try:
        with ProcessPoolExecutor(min(workers, len(items)),
                                 mp_context=multiprocessing.get_context("fork")) as pool:
            futures = [pool.submit(_run_item, i) for i in range(len(items))]
        return [future.result() for future in futures]
    finally:
        _TASK = previous


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
        return json_text(asdict(self))

    def save(self, directory: Path) -> list[str]:
        """Write report.json and series.csv under the given directory; return their names."""
        rows = "".join(f"{name},{i},{float(value):.17g}\n"
                       for name in sorted(self.series)
                       for i, value in enumerate(self.series[name]))
        files = {"report.json": self.to_json(), "series.csv": "series,index,value\n" + rows}
        for name, text in files.items():
            atomic_write_text(Path(directory) / name, text)
        return list(files)
