"""One branch evaluation per point: every reader of a graph's filled limits.

No graph is built at import, so a mutant that breaks the built-in graphs'
build checks still reaches these tests (see tests/mutants.py).
"""

import numpy as np
import pytest

from mildlab.grid_space import FieldSeries, Grid
from mildlab.scalar_monotone import (MonotoneGraph, compile_branch,
                                     piecewise_graph, section_max_abs,
                                     section_min_abs)
from mildlab.solver import inclusion_check


def spy_graph() -> tuple[MonotoneGraph, np.ndarray]:
    """The kink-jump graph with each branch counting the points it evaluates;
    the counts start at zero after the graph's build checks."""
    counts = np.zeros(3, dtype=int)

    def counted(i, fn):
        def branch(x):
            counts[i] += x.size
            return fn(x)
        return branch

    fns = [counted(i, compile_branch(e)) for i, e in enumerate(("x - 1", "2*x", "x + 3"))]
    f = piecewise_graph("kink-jump-spy", [-1.0, 1.0], fns, 1.0, 3.0)
    counts[:] = 0
    return f, counts


class TestOneEvaluationPerPoint:
    """Every section reader takes both limits from one branch evaluation per
    point; only a point on a breakpoint reaches the branch to its left too."""

    @staticmethod
    def readers(f: MonotoneGraph):
        def inclusion(x):
            grid = Grid(x.shape[1])
            return inclusion_check(FieldSeries(grid, x), FieldSeries(grid, x), f, 1e-3)

        return {"limits": f.limits, "mid_values": f.mid_values,
                "section_min_abs": lambda x: section_min_abs(f, x),
                "section_max_abs": lambda x: section_max_abs(f, x),
                "inclusion_check": inclusion}

    @pytest.mark.parametrize("n_on", [0, 5])
    def test_each_point_once_and_breakpoints_twice(self, n_on):
        f, counts = spy_graph()
        x = np.random.default_rng(3).normal(0.0, 2.0, (6, 9))
        assert not np.isin(x, f.breakpoints).any()
        x.flat[:n_on] = [-1.0, 1.0, 1.0, -1.0, 1.0][:n_on]
        right = np.searchsorted(f.breakpoints, x.ravel(), side="right")
        want = np.bincount(right, minlength=3)
        want += np.bincount(right[:n_on] - 1, minlength=3)
        for name, read in self.readers(f).items():
            counts[:] = 0
            read(x)
            assert counts.tolist() == want.tolist(), name
            assert counts.sum() == x.size + n_on, name

    def test_limits_are_two_arrays(self):
        f, _ = spy_graph()
        lo, hi = f.limits(0.5)
        assert lo.shape == hi.shape == () and not np.shares_memory(lo, hi)
        x = np.linspace(-2.0, 2.0, 9)
        lo, hi = f.limits(x)
        assert lo.shape == hi.shape == x.shape and not np.shares_memory(lo, hi)
