"""The generic resolvent engine: y + lam*f(y) = x, elementwise, for any f
continuous and nondecreasing between sorted knots.

scalar_monotone sends here every graph without a closed-form resolvent, and
the Yosida approximation of one.  A table (knot_table), one per (graph, lam),
binds f's branches, lam and the graph's name, and holds x = y + lam*f(y) at
sorted nodes y, each knot twice, once per side.  One lookup there gives an x
its knot, if x lies in the knot's jump interval, or a bracket between two
nodes whose residuals g = y + lam*f(y) - x (_residual) are known.  The root
solve (_branch_root) starts at the table's interpolant of y and takes Newton
steps on its slope, then Chandrupatla's bracketed hybrid (1997), whose
bisection halves a wide bracket's exponent (_midpoint).  An x beyond the
table gets a 1-Lipschitz bracket off the table's end node nearer it and a
regula falsi start.  Every element stops on its own, so its result does not
depend on the others in its call: within two ulps of y, or once |g| is at
most one ulp of max(|x|, |y|), which bounds its distance to the root as
g(y) - y is nondecreasing.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .errors import BracketFailure, NoConvergence

# Newton steps on the table interpolant's slope run until a branch solve's
# _NEWTON_STEPS-th step, Chandrupatla's from there on.
_NEWTON_STEPS = 3
# The cap on steps per branch solve, past which it raises NoConvergence: at
# most 3 on the benchmark's jump-at-0 cubic at its stepper levels, 4 at
# lam = 0.1, where bisection to two ulps would take about 44, and 17 beyond
# the table up to |x| = 1e300 (see _midpoint).
_MAX_ROOT_STEPS = 100
# The block: resolve_on_knots solves at most this many elements at a time, so
# its temporaries (about 33 doubles per element) stay near 1.1 MB however long
# the input.  A stepper call, B*M <= 7*511 elements, is one block.
_ROOT_BLOCK = 4096


def sorted_unique(a) -> np.ndarray:
    """The distinct values of a, flattened and sorted, as np.unique gives them.

    np.unique asks numpy.ma whether a is masked, and that first import costs
    every CLI invocation more than the build it serves.
    """
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    keep[1:] = a[1:] != a[:-1]
    return a[keep]


def _non_finite(what: str, gap: int, y, fy) -> NoConvergence:
    """The error for a value fy = f(y) that is not finite, on the gap between knots."""
    return NoConvergence(f"resolvent of {what} meets a non-finite branch value "
                         f"f(y) = {float(fy)!r} at y = {float(y)!r} on knot gap {int(gap)}")


class KnotTable(NamedTuple):
    """f's branch fns[j] on each knot gap j, lam and a name for errors (what); nodes y,
    sorted, and x = y + lam*f(y) there, by the expression _residual uses.

    Each knot c is a node twice, valued by its left gap and then by its right,
    so x holds its jump interval's ends x_c- <= x_c+; x is nondecreasing, as
    y + lam*f(y) is increasing.  Interval k is (x[k-1], x[k]]: gap[k] is its
    knot gap, -1 if it is a knot's jump interval, and -2 for k = 0 and
    k = x.size, beyond the table, where the 1-Lipschitz bracket off the end node
    nearer x takes over.  On interval k, with d1 = (y[k] - y[k-1]) / (x[k] - x[k-1]),

        y[k-1] + (x - x[k-1])*(d1 + (x - x[k])*(dd2[k] + (x - x3[k])*dd3[k]))

    interpolates y through four nodes of its gap, or three (dd3 = 0) or two
    (dd2 = 0) where the gap has no more: the Newton form, whose third node
    after k-1 and k is at x3.  The knot gaps are (-inf, c_0), (c_0, c_1), ...,
    (c_{n-1}, inf).
    """

    y: np.ndarray
    x: np.ndarray
    gap: np.ndarray
    dd2: np.ndarray
    dd3: np.ndarray
    x3: np.ndarray
    fns: tuple
    lam: float
    what: str


def knot_table(knots: np.ndarray, gap_fns, lam: float, grid: np.ndarray, what: str) -> KnotTable:
    """The table of gap_fns at lam on the knots and the grid points, one evaluation per node.

    A knot value that is not finite raises, naming the first one, as a root
    solve would; a table that is elsewhere not finite or not nondecreasing
    keeps its knots only.
    """
    nodes = sorted_unique(np.concatenate([grid, knots]))
    at = np.searchsorted(nodes, knots).tolist()
    starts, stops = [0, *at], [k + 1 for k in at] + [nodes.size]
    y = np.concatenate([nodes[a:b] for a, b in zip(starts, stops)])
    fy = np.concatenate([fn(nodes[a:b]) for fn, a, b in zip(gap_fns, starts, stops)])
    node_gap = np.repeat(np.arange(knots.size + 1), np.subtract(stops, starts))
    last = np.cumsum(np.subtract(stops, starts))[:-1] - 1  # each knot's node in its left gap
    edge_at = np.stack([last, last + 1], axis=1).reshape(-1)
    bad = np.flatnonzero(~np.isfinite(fy[edge_at]))
    if bad.size:
        k = edge_at[bad[0]]
        raise _non_finite(what, node_gap[k], y[k], fy[k])
    x = y + lam * fy
    if grid.size and not (np.isfinite(x).all() and (np.diff(x) >= 0.0).all()):
        return knot_table(knots, gap_fns, lam, grid[:0], what)
    gap = np.full(x.size + 1, -2, dtype=np.min_scalar_type(-2 - knots.size))
    gap[1:-1] = np.where(node_gap[:-1] == node_gap[1:], node_gap[1:], -1)
    with np.errstate(divide="ignore", invalid="ignore"):  # at an x tie, where no x lands
        # divided differences of y over x on nodes j, j+1 (nan across a knot),
        # then j..j+2 and j..j+3
        d1 = np.where(gap[1:-1] >= 0, np.diff(y) / np.diff(x), np.nan)
        d2 = np.diff(d1) / (x[2:] - x[:-2])
        d3 = np.diff(d2) / (x[3:] - x[:-3])

    def from_node(v, by):  # v[k + by] for each interval k, nan where there is none
        out, j = np.full(x.size + 1, np.nan), np.arange(x.size + 1) + by
        there = (j >= 0) & (j < v.size)
        out[there] = v[j[there]]
        return out

    # Interval k's nodes: k-2..k+1, else k-1..k+2, else k-3..k, else k-1..k+1,
    # else k-2..k, else its own two; the first with finite differences wins.
    ahead = from_node(d2, -1), from_node(x, 1)  # dd2 and x3 with the third node k+1
    behind = from_node(d2, -2), from_node(x, -2)  # with the third node k-2
    dd2, dd3, x3 = (np.zeros(x.size + 1) for _ in range(3))
    for (second, at), third in reversed([(ahead, from_node(d3, -2)), (ahead, from_node(d3, -1)),
                                         (behind, from_node(d3, -3)), (ahead, 0.0), (behind, 0.0)]):
        ok = np.isfinite(second) & np.isfinite(third) & np.isfinite(at)
        dd2, dd3, x3 = np.where(ok, second, dd2), np.where(ok, third, dd3), np.where(ok, at, x3)
    return KnotTable(y, x, gap, dd2, dd3, x3, tuple(gap_fns), lam, what)


def _residual(table: KnotTable, bounds: list, y: np.ndarray, x: np.ndarray):
    """g = y + lam*f(y) - x and f(y), elementwise: fns[j] on y[bounds[j]:bounds[j + 1]]."""
    fy = np.empty_like(y)
    for fn, start, stop in zip(table.fns, bounds, bounds[1:]):
        if start < stop:
            fy[start:stop] = fn(y[start:stop])
    return table.lam * fy + y - x, fy


def _midpoint(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A point between a and b, elementwise: their geometric mean where they have
    the same sign and span more than a factor of 4, else a + (b - a)/2.

    Halving the exponent narrows a bracket over many orders of magnitude in
    a few steps.  Neither form overflows.
    """
    a_abs, b_abs = np.abs(a), np.abs(b)
    wide = (np.sign(a) == np.sign(b)) & (0.25 * np.fmax(a_abs, b_abs) > np.fmin(a_abs, b_abs))
    return np.where(wide, np.copysign(np.sqrt(a_abs) * np.sqrt(b_abs), a),
                    a + (0.5 * b - 0.5 * a))


def _lipschitz_bracket(table: KnotTable, gap: np.ndarray, x: np.ndarray):
    """Ends y1, y2 of a bracket for x beyond the table, and g there, the end with
    the smaller |g| first.

    gap is 0 for an x below the table and the outer gap for one above it.
    R_lam is 1-Lipschitz and R_lam(x_e) = y_e at the table's end node e nearer
    x, so the root lies between y_e, where g = x_e - x is known, and the far
    end y_e + (x - x_e).  A far end where the branch is not finite is pulled
    toward y_e by _midpoint until it is finite and past the root; only a root
    beyond the branch's finite part raises, naming the first non-finite value
    met.  A non-finite value here is handled, so it does not warn.
    """
    every_gap = np.arange(len(table.fns) + 1)
    met = []  # the error for each non-finite value met, in order

    def g(y, x, gap, lenient=False):
        gy, fy = _residual(table, np.searchsorted(gap, every_gap).tolist(), y, x)
        if not np.isfinite(gy).all():
            k = np.flatnonzero(~np.isfinite(gy))[0]
            met.append(_non_finite(table.what, gap[k], y[k], fy[k]))
            if not lenient:
                raise met[-1]
        return gy

    end = np.where(gap == 0, 0, table.y.size - 1)
    near, f_near = table.y[end], table.x[end] - x
    sign = np.where(gap == 0, -1.0, 1.0)  # of g at the far end
    with np.errstate(over="ignore", invalid="ignore"):
        far = near + (x - table.x[end])
        f_far = g(far, x, gap, lenient=True)
        idx = np.flatnonzero(~np.isfinite(f_far))
        lo, hi = near[idx], far[idx]  # g is finite at lo, not at hi
        while idx.size:
            if np.any(np.abs(hi - lo) <= 2.0 * np.spacing(np.fmax(np.abs(hi), np.abs(lo)))):
                raise met[0]  # the root lies beyond the branch's finite part
            mid = _midpoint(lo, hi)
            gm = g(mid, x[idx], gap[idx], lenient=True)
            finite = np.isfinite(gm)
            done = finite & (sign[idx] * gm >= 0.0)
            far[idx[done]], f_far[idx[done]] = mid[done], gm[done]
            lo, hi = np.where(finite, mid, lo), np.where(finite, hi, mid)
            idx, lo, hi = idx[~done], lo[~done], hi[~done]
        # Rounding can leave the far end a hair short of the root.  g(y) - y is
        # nondecreasing, so y - 2*g(y) bounds the root from the other side.
        short = sign * f_far < 0.0
        if short.any():
            far = np.where(short, far - 2.0 * f_far, far)
            f_far = np.where(short, g(far, x, gap), f_far)
            if (sign * f_far < 0.0).any():
                raise BracketFailure(f"no sign change on the bracket for {table.what}")
    swap = np.abs(f_far) < np.abs(f_near)
    return (np.where(swap, far, near), np.where(swap, f_far, f_near),
            np.where(swap, near, far), np.where(swap, f_near, f_far))


def _branch_root(table: KnotTable, gap: np.ndarray, x: np.ndarray, ends, start: np.ndarray,
                 slope: Optional[np.ndarray]) -> np.ndarray:
    """Zero of g(y) = y + lam*fns[gap](y) - x between y1 and y2, elementwise.

    ends = (y1, g(y1), y2, g(y2)), the g values of opposite signs (or 0), and
    fns[gap] is continuous and nondecreasing on the bracket.  gap is sorted,
    so each evaluator runs once per step on its own slice.  The first step
    goes to start; the next _NEWTON_STEPS - 1, if slope (an estimate of dy/dx
    at x) is given, are Newton steps on it; then Chandrupatla's hybrid (1997)
    takes inverse quadratic interpolation steps where the last three points
    allow it and _midpoint steps otherwise.  Every step stays in the bracket,
    at least one ulp from its ends.  An element stops once its newest point
    y has |g(y)| at most one ulp of max(|x|, |y|), which bounds |y - root| as
    g(y) - y is nondecreasing, or its bracket is at most two ulps of y wide;
    it keeps the end with the smaller |g|.  It stops on its own and keeps its
    result while the others go on, so its result does not depend on theirs.
    """
    y1, f1, y2, f2 = ends
    bounds = np.searchsorted(gap, np.arange(len(table.fns) + 1)).tolist()

    def g(y):
        gy, fy = _residual(table, bounds, y, x)
        if not math.isfinite(np.add.reduce(gy)):  # a finite sum overflows only past 1e308
            bad = np.flatnonzero(~np.isfinite(gy) & live)
            if bad.size:
                k = bad[0]
                raise _non_finite(table.what, gap[k], y[k], fy[k])
        return gy

    out = np.empty_like(x)
    live = np.ones(x.size, dtype=bool)
    n_live, neg1, x_ulp, bisect = x.size, f1 < 0.0, np.spacing(np.abs(x)), None
    # a step may divide by 0 or overflow; the clip and the bisection test drop it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(_MAX_ROOT_STEPS + 1):
            d, ulp, a1 = y2 - y1, np.spacing(np.abs(y1)), np.abs(f1)
            dy, tol = np.abs(d), 2.0 * ulp
            stop = (dy <= tol) | (a1 <= np.fmax(ulp, x_ulp))
            if not step:
                stop |= f2 == 0.0
            stop &= live
            n = np.count_nonzero(stop)
            if n:
                np.copyto(out, np.where(np.abs(f2) < a1, y2, y1), where=stop)
                live ^= stop
                n_live -= n
                if not n_live:
                    return out
            if step == _MAX_ROOT_STEPS:
                break
            if not step:
                t = (start - y1) / d
            elif step < _NEWTON_STEPS and slope is not None:
                t = -(f1 * slope) / d
            else:
                d12, d32 = f1 - f2, f3 - f2
                xi, phi = d / (y2 - y3), d12 / d32
                t = f1 / d32 * (f3 / d12 + (y3 - y1) / d * f2 / (f3 - f1))
                bisect = ~((phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi))
            # fmax and fmin drop a nan t, so a stopped element's step stays in its bracket
            tl = ulp / np.maximum(dy, tol)
            yt = y1 + np.fmin(np.fmax(t, tl), 1.0 - tl) * d
            if bisect is not None:
                yt = np.where(bisect, _midpoint(y1, y2), yt)
            ft = g(yt)
            negt = ft < 0.0
            same = negt == neg1
            y3, f3 = np.where(same, y1, y2), np.where(same, f1, f2)
            y2, f2 = np.where(same, y2, y1), np.where(same, f2, f1)
            y1, f1, neg1 = yt, ft, negt
    k = np.argmax(live)
    raise NoConvergence(f"resolvent of {table.what}: no stop after {_MAX_ROOT_STEPS} steps "
                        f"at lambda = {table.lam!r}, first at x = {float(x[k])!r}")


def resolve_on_knots(table: KnotTable, x: np.ndarray) -> np.ndarray:
    """Solve y + lam*f(y) = x, elementwise, for the table's f and lam.

    f is continuous on each gap between the table's knots.  One lookup in
    the table's x puts each element in an interval (x[k-1], x[k]]: a knot's
    jump interval resolves to exactly that knot, and any other is the
    bracket [y[k-1], y[k]], whose g values x[k-1] - x and x[k] - x cost no
    evaluation.  The root solve starts at the table's interpolant and takes
    Newton steps on its slope.  An x beyond the table gets the 1-Lipschitz
    bracket off the table's end node and a regula falsi start.
    The lookup, the bracket and the root solve run over x flattened in blocks
    of at most _ROOT_BLOCK elements, and each element's result is the one it
    gets alone; a branch solve raises NoConvergence past _MAX_ROOT_STEPS steps.
    """
    flat = x.reshape(-1)
    y = np.empty_like(flat)
    tx, ty, outer = table.x, table.y, len(table.fns) - 1
    for begin in range(0, flat.size, _ROOT_BLOCK):
        xb, yb = flat[begin: begin + _ROOT_BLOCK], y[begin: begin + _ROOT_BLOCK]
        k = np.searchsorted(tx, xb, side="left")
        order = np.argsort(k, kind="stable")
        k = k[order]
        if k[0] == 0 or k[-1] == tx.size:  # x beyond the table, the x below it first
            below, above = np.searchsorted(k, [1, tx.size]).tolist()
            beyond = order[np.r_[0:below, above:k.size]]
            xs, gap = xb[beyond], np.repeat([0, outer], [below, k.size - above])
            y1, f1, y2, f2 = ends = _lipschitz_bracket(table, gap, xs)
            # a bracket [c, c], or an f1 - f2 past 1e308, which starts at y1
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                falsi = y1 + f1 / (f1 - f2) * (y2 - y1)
            yb[beyond] = _branch_root(table, gap, xs, ends, falsi, None)
            order, k = order[below:above], k[below:above]
        gap = table.gap[k]
        on_knot = gap == -1
        if on_knot.any():
            yb[order[on_knot]] = ty[k[on_knot]]
            rest = ~on_knot
            order, k, gap = order[rest], k[rest], gap[rest]
        if k.size:
            xs, below, dd3 = xb[order], k - 1, table.dd3[k]
            y1, f1, y2, f2 = ty[below], tx[below] - xs, ty[k], tx[k] - xs
            d1, dd2 = (y2 - y1) / (f2 - f1), table.dd2[k] + (xs - table.x3[k]) * dd3
            # the interpolant at xs, x[k-1] - xs = f1 and x[k] - xs = f2, and its slope
            start = y1 - f1 * (d1 - f2 * dd2)
            slope = d1 - (f1 + f2) * dd2 + f1 * f2 * dd3
            yb[order] = _branch_root(table, gap, xs, (y1, f1, y2, f2), start, slope)
    return y.reshape(x.shape)
