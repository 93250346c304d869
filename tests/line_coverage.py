"""Line coverage of src/mildlab under the tier-1 suite, with the standard library only.

Run from the repository root:

    python tests/line_coverage.py

The suite (pytest's testpaths, tests/ and perfbench/) runs in this process
under sys.settrace and threading.settrace, which record every line of
src/mildlab that runs, module-level lines included, since the package is
first imported under the tracer.  A line is executable if the compiler gives
it bytecode (code.co_lines of the module's code objects).  Every executable
line that did not run is printed.  The command exits 1 if the suite fails,
if such a line is not in ALLOWED, or if an ALLOWED entry names no line that
did not run, so an entry leaves the list once its line runs or is gone.
Forked pool children and subprocesses are not traced.  The traced suite
takes about a minute, so this is a command, not a test.
"""

from __future__ import annotations

import os
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mildlab"

# (file relative to src/mildlab, the line's stripped text): why it does not run
ALLOWED = {
    ("cli.py", "sys.exit(main())"):
        "runs only with the module as a script, which the suite starts in a subprocess",
    ("verify/report.py", "fn, items = _TASK"):
        "_run_item runs only in a forked pool child",
    ("verify/report.py", "return fn(items[index])"):
        "_run_item runs only in a forked pool child",
    ("verify/report.py", "return [fn(item) for item in items]"):
        "the second one is the fallback of a platform without fork; the first runs",
    ("generic_engine.py", "raise met[-1]"):
        "a far end moved past a rounding shortfall that lands on a non-finite branch "
        "value; no known input reaches it",
}


def executable_lines(path: Path) -> set[int]:
    """The lines of a source file that the compiler gives bytecode."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def traced_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status for args, and the lines run in each file of the package."""
    hits: dict[str, set[int]] = {}
    tracers: dict[str, tuple | None] = {}
    package = str(PACKAGE) + os.sep

    def local_tracer(seen: set[int]):
        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            real = os.path.realpath(filename)
            if real.startswith(package):
                seen = hits.setdefault(Path(real).relative_to(PACKAGE).as_posix(), set())
                tracers[filename] = (seen, local_tracer(seen))
            else:
                tracers[filename] = None
        tracer = tracers[filename]
        if tracer is None:
            return None
        tracer[0].add(frame.f_lineno)
        return tracer[1]

    import pytest

    # src/ first here and in the suite's subprocesses, as tier-1's PYTHONPATH=src
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), hits


def main() -> int:
    start = time.perf_counter()
    os.chdir(ROOT)
    status, hits = traced_suite(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    missed, total, unexplained = [], 0, 0
    stale = set(ALLOWED)
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        lines = executable_lines(path)
        total += len(lines)
        source = path.read_text().splitlines()
        for line in sorted(lines - hits.get(rel, set())):
            text = source[line - 1].strip()
            reason = ALLOWED.get((rel, text))
            stale.discard((rel, text))
            unexplained += reason is None
            missed.append(f"src/mildlab/{rel}:{line}: {text}"
                          + (f"  [allowed: {reason}]" if reason else "  [NOT ALLOWED]"))
    print("\n".join(missed))
    for rel, text in sorted(stale):
        print(f"ALLOWED entry names no line that did not run: {rel}: {text!r}", file=sys.stderr)
    print(f"{len(missed)} of {total} executable lines did not run, {unexplained} outside "
          f"ALLOWED; {len(stale)} stale entries; pytest exit {status}; "
          f"{time.perf_counter() - start:.0f} s")
    return 1 if status or unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
