"""Mutation check: every mutant in MUTANTS must make its named tests fail.

Run from the repository root:

    python tests/mutants.py

First the named tests of every row run once on an unmutated copy of src/,
and must all pass there.  Then each row's mutant is applied to a fresh copy
of src/ in a temporary directory: its exact text, which must occur exactly
once in its file, becomes its replacement.  The row's tests then run with
pytest in a subprocess, with that copy first on PYTHONPATH.  Only pytest's
exit status 1, tests that ran and failed, kills the mutant.  Any other
status is a fault of the row: 0 is a survivor, and 2 or 4 is a test module
that no longer collects, as when a graph built at import fails its checks,
so none of the row's tests ran.  A text that is missing or not unique is a
fault too, so a refactor that moves a mutated line updates its row.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str               # relative to src/mildlab
    text: str               # the exact text to replace, once in the file
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


_SM = "tests/test_scalar_monotone.py::"
_DOMAINS = "tests/test_domains.py::"
# Both limits mutants break the sign graph's build checks, which
# test_scalar_monotone.py runs at import, so their tests live in a module
# that builds its graph inside the test.
_SPY = "tests/test_limits.py::TestOneEvaluationPerPoint::test_each_point_once_and_breakpoints_twice"
MUTANTS = (
    # f(x-) on a breakpoint taken from the branch to its right
    Mutant("scalar_monotone.py",
           "lo[on] = self._branch_eval(x[on], idx[on] - 1)",
           "lo[on] = self._branch_eval(x[on], idx[on])",
           (_SPY,)),
    # each x's first evaluation on the branch to the left of a breakpoint it sits on
    Mutant("scalar_monotone.py",
           'np.searchsorted(self._breaks, x, side="right")',
           'np.searchsorted(self._breaks, x, side="left")',
           (_SPY,)),
    # the largest-|.| section picks f(x+) on a tie such as the sign's jump
    Mutant("scalar_monotone.py",
           "np.where(np.abs(lo) >= np.abs(hi), lo, hi)",
           "np.where(np.abs(lo) > np.abs(hi), lo, hi)",
           (_SM + "TestSection::test_signed_zeros_on_the_sign_graphs",)),
    # a non-finite solver exponent accepted
    Mutant("solver.py",
           "if not 1 <= self.r <= self.q < np.inf:",
           "if not 1 <= self.r <= self.q:",
           ("tests/test_solver.py::TestSolveMild::test_non_finite_exponents_rejected",)),
    # the norm exponent's check dropped
    Mutant("grid_space.py",
           '    require(q, ">= 1", "q", InvalidExponent)\n',
           "",
           ("tests/test_grid_space.py::TestLqNorms::test_non_finite_exponent_rejected",)),
    # the DST's sign lost
    Mutant("semigroup.py",
           "-scale, out=out[start:stop]",
           "scale, out=out[start:stop]",
           ("tests/test_semigroup.py::TestModeTransform::test_eigenvector_coefficients",)),
    # the last chunk of a trajectory one row short
    Mutant("solver.py",
           "yield chunk[:, :path.n_steps % buf.shape[1] + 1]",
           "yield chunk[:, :path.n_steps % buf.shape[1]]",
           ("tests/test_chunks.py::TestChunks::test_block_is_the_chunks_and_the_whole_loop",)),
    # a non-finite resolvent input let through to the closed forms
    Mutant("scalar_monotone.py",
           '    if not np.isfinite(x).all():\n'
           '        raise NonFiniteInput("resolvent input must be finite")\n',
           "",
           ("tests/test_chunks.py::TestChunks::test_nan_midway_raises_rather_than_returning",
            _SM + "TestResolvent::test_nonfinite_input_rejected")),
    # S(0) phi computed through the transform instead of phi itself
    Mutant("semigroup.py",
           "return phi if t == 0.0 else series[0]",
           "return series[0]",
           ("tests/test_semigroup.py::TestSemigroupAxioms::test_identity_at_zero",)),
    # the range rule without its finiteness clause lets inf through
    Mutant("errors.py",
           "        return bool(compare(value, limit) and value <= _MAX)\n"
           "    return all(compare(v, limit) and v <= _MAX\n",
           "        return bool(compare(value, limit))\n"
           "    return all(compare(v, limit)\n",
           (_DOMAINS + "test_refused_with_the_sites_error",)),
    # a strict bound met by its limit
    Mutant("errors.py",
           '">": operator.gt',
           '">": operator.ge',
           (_DOMAINS + "test_refused_with_the_sites_error",)),
    # the generic engine's stop test below one ulp of the residual
    Mutant("generic_engine.py",
           "stop = (dy <= tol) | (a1 <= np.fmax(ulp, x_ulp))",
           "stop = (dy <= tol) | (a1 <= 0.5 * np.fmax(ulp, x_ulp))",
           (_SM + "TestResolvent::test_power_newton_stops_within_ulps",)),
    # the cubic's closed form without its Newton correction
    Mutant("scalar_monotone.py",
           "return s * (y - (k * y**3 + y - a) / ((3.0 * k) * y * y + 1.0))",
           "return s * y",
           (_SM + "TestResolvent::test_power_newton_stops_within_ulps",
            _SM + "TestDriftFamily::test_outputs_keep_their_bits")),
    # a written artifact left under its temp name
    Mutant("atomic.py",
           "        os.replace(tmp, dest)\n",
           "",
           ("tests/test_artifact_format.py::test_failed_binary_write_leaves_dest",)),
    # the residual certificate adding the convolution with the wrong sign
    Mutant("solver.py",
           "defect = u_traj.values + conv.values",
           "defect = u_traj.values - conv.values",
           ("tests/test_solver.py::TestResidual",)),
    # the moment study never finding two levels' estimates apart
    Mutant("verify/studies.py",
           "stable = False",
           "pass",
           ("tests/test_verify.py::TestMoment::test_lambda_dependent_estimates_are_unstable",)),
    # a graph that falls across a breakpoint while each branch rises
    Mutant("scalar_monotone.py",
           '        if drops.size:\n'
           '            raise ValueError(f"graph {self.name!r} decreases across {drops[0]}")\n',
           "",
           (_SM + "TestGraphConstruction::test_drop_at_a_breakpoint_rejected",)),
    # a count below 1 taken: bernoulli_study(0) passes having checked nothing
    Mutant("verify/studies.py",
           'require(n_samples, ">= 1", "n_samples of the bernoulli study", StudyPrecondition)',
           "pass",
           (_DOMAINS + "test_an_integer_count_below_one_is_refused",)),
    Mutant("verify/studies.py",
           'require(n_max, ">= 1", "n_max of the eiconv demo", StudyPrecondition)',
           "pass",
           (_DOMAINS + "test_an_integer_count_below_one_is_refused",)),
    # a JSON array read as an empty config
    Mutant("config.py",
           "    if not isinstance(data, dict):\n"
           '        raise ParseError("top level must be a JSON object")\n',
           "",
           ("tests/test_config_cli.py::TestParseConfig::test_non_object_rejected",)),
    # check-invariants exiting 1 without naming the failed check
    Mutant("cli.py",
           'print(f"FAIL {c.name}: violation {c.violation:.3e} > {c.tolerance:.3e}")',
           "pass",
           ("tests/test_config_cli.py::TestCli::test_failed_invariant_printed_and_exit_one",)),
)


def _run_tests(src: Path, tests: tuple[str, ...]) -> int:
    """pytest's exit status for the node ids, with src first on PYTHONPATH."""
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy_src(into: Path) -> Path:
    src = into / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def check() -> list[str]:
    """The faults found on MUTANTS: an empty list means every mutant was killed."""
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        tests = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        status = _run_tests(_copy_src(Path(tmp) / "clean"), tests)
        if status:
            return [f"the named tests do not pass unmutated (pytest exit {status})"]
        for i, mutant in enumerate(MUTANTS):
            start = time.perf_counter()
            src = _copy_src(Path(tmp) / str(i))
            target = src / "mildlab" / mutant.file
            code = target.read_text()
            if code.count(mutant.text) != 1:
                faults.append(f"mutant {i}: its text occurs {code.count(mutant.text)} "
                              f"times in {mutant.file}, not once")
                continue
            target.write_text(code.replace(mutant.text, mutant.replacement))
            status = _run_tests(src, mutant.tests)
            verdict = {0: "NOT killed", 1: "killed"}.get(status, "tests did not run")
            print(f"mutant {i} ({mutant.file}): {verdict} (pytest exit {status}) "
                  f"in {time.perf_counter() - start:.1f} s")
            if status != 1:
                faults.append(f"mutant {i} in {mutant.file}, {verdict} "
                              f"(pytest exit {status}): {mutant.text!r}")
    return faults


def main() -> int:
    start = time.perf_counter()
    faults = check()
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"{len(faults)} fault(s), {time.perf_counter() - start:.1f} s")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
