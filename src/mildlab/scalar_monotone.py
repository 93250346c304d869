"""Exact scalar machinery for increasing functions on the real line.

An increasing function f (possibly with jump discontinuities) extends
uniquely to a maximal monotone graph by filling each jump with the vertical
segment [f(x-), f(x+)].  This module represents such graphs, evaluates
sections of the filled graph, and provides the associated resolvents

    R_lam(x) = (I + lam*f)^{-1}(x),

Yosida approximations

    f_lam(x) = (x - R_lam(x)) / lam,

and the convex primitive phi(x) = int_0^x f.

The built-in drifts (zero, linear, power, sign, sign+linear) are one family,
f(x) = sgn(x)*(j + c*|x|^d) with j = 0 or 1, built by _family: one resolvent,
a soft threshold by lam when j = 1 and then the closed form for c = 0 or
d = 1, 2, 3, and one primitive j*|x| + c*|x|^(d+1)/(d+1).  Any other graph,
other powers included, goes through the generic engine
(generic_engine.resolve_on_knots): an x inside a knot's jump interval
resolves to exactly that knot, every other x to the one continuous branch
between two knots.  A graph builds its knots (the breakpoints and 0) once,
and on first use at a lam the engine's table for it, which it keeps.  The
engine solves its input in blocks of bounded size, so a whole trajectory
costs it one block's temporaries.  Every root solve stops each element on
its own and raises NoConvergence at its step cap, so a result does not
depend on its block.  phi without a closed form comes from one adaptive
Gauss-Legendre loop to QUAD_TOL (see primitive_array).
Resolvent and Yosida functions take (graph, lam, x);
the resolvent's and Yosida's lam may be an array that broadcasts against x.
Every function here is vectorized: x is an array or a Python scalar, and the
result has x's shape (0-d for a scalar).  Primitives, and resolvents at a
number lam, run on x flattened, so a scalar takes the kernels of a
one-element array and its result is bit-equal to that element's (numpy's
SIMD pow and sinh may round a 0-d input differently).  A lam array goes to a
closed form as it is, and the closed form broadcasts it against x.  A
section of the filled graph is read off limits, the pair (f(x-), f(x+)), or
mid_values (their mean).

This module holds the math only.  The config's drift section is checked and
built by config.DRIFT_KEYS from the graph constructors here, and
compile_branch turns a piecewise branch expression in x into an evaluator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import NoConvergence, NonFiniteInput, require
from .generic_engine import KnotTable, knot_table, resolve_on_knots, sorted_unique

__all__ = [
    "MonotoneGraph",
    "QUAD_TOL",
    "section_min_abs",
    "section_max_abs",
    "resolvent_array",
    "yosida_array",
    "yosida_of_yosida_array",
    "primitive_array",
    "zero_graph",
    "linear_graph",
    "power_graph",
    "sign_graph",
    "sign_plus_linear_graph",
    "piecewise_graph",
    "compile_branch",
    "TEST_DRIFTS",
]

# The generic engine's tables: a graph's table at a lam has _TABLE_NODES
# evenly spaced nodes over the build-time shape probe's range [-_PROBE_SPAN,
# _PROBE_SPAN], and its knots (about 42 kB); a graph keeps at most
# _MAX_TABLES of them.
_PROBE_SPAN = 8.0
_TABLE_NODES = 1025
_MAX_TABLES = 16
# The primitive's quadrature tolerance (relative above 1, where rounding would
# defeat an absolute one) and its halvings before it raises (2^-50 of an
# integral is a few ulps).
QUAD_TOL = 1e-10
_MAX_QUAD_LEVELS = 50


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The 10-point Gauss-Legendre rule (Golub & Welsch 1969), built on first use
    so that only a quadrature pays for importing numpy.polynomial."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(10)


@dataclass(frozen=True)
class MonotoneGraph:
    """Maximal monotone extension of an increasing scalar function.

    ``breakpoints`` are the K interior branch boundaries; branch i evaluates
    on [breakpoints[i-1], breakpoints[i]) (first branch reaches -inf, last
    branch +inf).  Each branch function must be continuous and nondecreasing
    on the closure of its interval, so one-sided limits are plain branch
    evaluations.
    """

    name: str
    breakpoints: tuple[float, ...]
    branch_fns: tuple[Callable[[np.ndarray], np.ndarray], ...]
    growth_exponent: float
    growth_constant: float
    zero_in_graph: bool = True
    # Optional fast paths; must agree with the generic engine (tested).  The
    # resolvent takes x and lam, a number (x then flat) or an array that
    # broadcasts against x elementwise, and returns x's shape.
    fast_resolvent: Optional[Callable[[np.ndarray, float | np.ndarray], np.ndarray]] = None
    fast_primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _breaks: np.ndarray = field(init=False, repr=False, compare=False)  # as one array
    # the knots (the breakpoints and 0, sorted) and the branch on each gap between them
    _knots: np.ndarray = field(init=False, repr=False, compare=False)
    _gap_branch: tuple[int, ...] = field(init=False, repr=False, compare=False)
    # the resolvent's bracket tables, by lam (see _graph_table)
    _tables: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        breaks = np.asarray(self.breakpoints, dtype=float)
        knots = sorted_unique(np.append(breaks, 0.0))
        object.__setattr__(self, "_breaks", breaks)
        object.__setattr__(self, "_knots", knots)
        object.__setattr__(self, "_gap_branch",
                           (*np.searchsorted(breaks, knots, side="left").tolist(), breaks.size))
        object.__setattr__(self, "_tables", {})
        if len(self.branch_fns) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more branch than breakpoints")
        if list(self.breakpoints) != sorted(set(self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")
        require(self.growth_exponent, ">= 0", "growth_exponent")
        require(self.growth_constant, "> 0", "growth_constant")
        self._check_shape()

    def _check_shape(self):
        """Sampled finiteness / monotonicity / jump-sign / growth checks at build time."""
        probes = np.linspace(-_PROBE_SPAN, _PROBE_SPAN, 257)
        probes = sorted_unique(np.concatenate([probes, self._breaks, [0.0]]))
        left, right = self.limits(probes)
        finite = np.isfinite(left) & np.isfinite(right)
        if not finite.all():
            raise ValueError(f"graph {self.name!r} is not finite at {probes[~finite][0]}")
        if np.any(np.diff(right) < -1e-12):
            raise ValueError(f"graph {self.name!r} is not nondecreasing")
        drops = probes[left > right + 1e-12]  # limits differ only on a breakpoint
        if drops.size:
            raise ValueError(f"graph {self.name!r} decreases across {drops[0]}")
        bound = self.growth_constant * (1.0 + np.abs(probes) ** self.growth_exponent)
        if np.any(np.maximum(np.abs(left), np.abs(right)) > bound + 1e-9):
            raise ValueError(f"graph {self.name!r} violates its growth bound")
        zero = np.searchsorted(probes, 0.0)
        if self.zero_in_graph and not left[zero] <= 0.0 <= right[zero]:
            raise ValueError(f"graph {self.name!r} declared 0 in f(0) but it is not")

    # -- one-sided limits ---------------------------------------------------

    def _branch_eval(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        out = np.empty_like(x, dtype=float)
        for i, fn in enumerate(self.branch_fns):
            mask = idx == i
            if mask.any():
                out[mask] = fn(x[mask])
        return out

    def limits(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(f(x-), f(x+)) as two new arrays of x's shape: one branch evaluation per
        x, and a second, on the branch to its left, only for an x on a breakpoint."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._breaks, x, side="right")
        hi = self._branch_eval(x, idx)
        lo = hi.copy()
        on = np.isin(x, self._breaks)
        lo[on] = self._branch_eval(x[on], idx[on] - 1)
        return lo, hi

    def mid_values(self, x: np.ndarray) -> np.ndarray:
        """Midpoint section (f(x-) + f(x+)) / 2 of the filled graph, vectorized."""
        return 0.5 * np.add(*self.limits(x))


# -- sections ---------------------------------------------------------------


def section_min_abs(graph: MonotoneGraph, x) -> np.ndarray:
    """Element of [f(x-), f(x+)] with minimal absolute value, vectorized."""
    lo, hi = graph.limits(x)
    out = np.where(np.abs(lo) <= np.abs(hi), lo, hi)
    return np.where((lo <= 0.0) & (0.0 <= hi), 0.0, out)


def section_max_abs(graph: MonotoneGraph, x) -> np.ndarray:
    """Element of [f(x-), f(x+)] with maximal absolute value, vectorized."""
    lo, hi = graph.limits(x)
    return np.where(np.abs(lo) >= np.abs(hi), lo, hi)


# -- resolvent and Yosida approximation -------------------------------------


def _graph_table(graph: MonotoneGraph, lam: float) -> KnotTable:
    """The graph's table at lam on _TABLE_NODES grid points, built on first use.

    The table binds the branch on each knot gap as the graph holds them then.
    The graph keeps at most _MAX_TABLES, the oldest dropped first.  A graph is
    frozen and replace() makes one with no tables, so none outlives its branches.
    """
    lam, tables = float(lam), graph._tables
    if lam not in tables:
        if len(tables) >= _MAX_TABLES:
            del tables[next(iter(tables))]
        grid = np.linspace(-_PROBE_SPAN, _PROBE_SPAN, _TABLE_NODES)
        gap_fns = [graph.branch_fns[i] for i in graph._gap_branch]
        tables[lam] = knot_table(graph._knots, gap_fns, lam, grid, repr(graph.name))
    return tables[lam]


def resolvent_array(graph: MonotoneGraph, lam, x) -> np.ndarray:
    """R_lam(x) = (I + lam*f)^{-1}(x), vectorized over x.

    lam is a number or a numpy array that broadcasts against x, such as a
    (B, 1) column of levels for a (B, M) block of states; every entry must be
    > 0.  The result has the broadcast shape.  A fast path takes x at that
    shape and the lam array as given, and broadcasts it elementwise; the
    generic engine solves the elements of each distinct lam apart.
    """
    if not (isinstance(lam, float) and 0.0 < lam < math.inf):  # a float in range skips the call
        require(lam, "> 0", "lambda")
    levels = isinstance(lam, np.ndarray) and lam.ndim > 0
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NonFiniteInput("resolvent input must be finite")
    if levels:
        shape = np.broadcast(x, lam).shape
        if x.shape != shape:
            x = np.ascontiguousarray(np.broadcast_to(x, shape))
    flat = x.reshape(-1)
    if graph.fast_resolvent is not None:
        return graph.fast_resolvent(x if levels else flat, lam).reshape(x.shape)
    if not levels:
        return resolve_on_knots(_graph_table(graph, lam), flat).reshape(x.shape)
    levels, lam = sorted_unique(lam), np.broadcast_to(lam, x.shape).reshape(-1)
    out = np.empty_like(flat)
    for level in levels:
        at = lam == level
        out[at] = resolve_on_knots(_graph_table(graph, level), flat[at])
    return out.reshape(x.shape)


def yosida_array(graph: MonotoneGraph, lam, x) -> np.ndarray:
    """Yosida approximation f_lam(x) = (x - R_lam(x)) / lam, vectorized.

    lam broadcasts against x as in resolvent_array.
    """
    x = np.asarray(x, dtype=float)
    return (x - resolvent_array(graph, lam, x)) / lam


def yosida_of_yosida_array(graph: MonotoneGraph, lam: float, mu: float, x) -> np.ndarray:
    """(f_lam)_mu(x): Yosida approximation of the function f_lam.

    f_lam is continuous and monotone, one branch with a knot at 0, so its
    resolvent comes from the same engine as a generic graph's, on a table of
    the knot alone (one on a grid would cost a resolve per node per call);
    this deliberately does NOT use the algebraic reduction to f_{lam+mu},
    which is what tests compare it to.  lam and mu must be > 0 and finite.
    """
    require((lam, mu), "> 0", "lambda")
    x = np.asarray(x, dtype=float)
    f_lam = lambda r: yosida_array(graph, lam, r)  # noqa: E731
    what = f"the composed Yosida resolvent of {graph.name!r}"
    table = knot_table(np.zeros(1), (f_lam, f_lam), mu, np.empty(0), what)
    return (x - resolve_on_knots(table, x)) / mu


# -- primitive ---------------------------------------------------------------


def _integrate(graph: MonotoneGraph, a, b, branch) -> np.ndarray:
    """Integral of branch_fns[branch] from a to b, elementwise, by adaptive Gauss-Legendre.

    One flat work list holds every interval.  One of length h in an integral of
    length L is accepted when its estimate and its halves' sum differ by at most
    sqrt(h / L) * QUAD_TOL * max(1, |integral|), never if it cannot be halved.
    Near a singularity such as |x - 1|^(1/3) the difference falls like h^(4/3),
    which meets a share like h (as Simpson's) only below the float spacing but
    meets sqrt(h) above it; across a jump it falls like h and meets neither.
    """
    nodes, weights = _gauss_legendre()

    def estimate(lo, hi, idx):
        half = 0.5 * (hi - lo)
        t = (0.5 * (lo + hi))[:, None] + half[:, None] * nodes
        return half * (graph._branch_eval(t, np.broadcast_to(idx[:, None], t.shape)) @ weights)

    total = np.zeros(a.shape)
    owner = np.flatnonzero(a != b)
    a, b, branch = a[owner], b[owner], branch[owner]
    whole = estimate(a, b, branch)
    rate = QUAD_TOL * np.maximum(1.0, np.abs(whole)) / np.sqrt(np.abs(b - a))
    for _ in range(_MAX_QUAD_LEVELS):
        if owner.size == 0:
            return total
        m = 0.5 * (a + b)
        left, right = estimate(a, m, branch), estimate(m, b, branch)
        if not np.all(np.isfinite(left + right)):  # else every half would fail again
            raise NoConvergence(f"quadrature of {graph.name!r} meets a non-finite value")
        done = np.abs(left + right - whole) <= rate * np.sqrt(np.abs(b - a))
        done &= (a != m) & (m != b)
        np.add.at(total, owner[done], (left + right)[done])
        keep = ~done
        a, b = np.concatenate([a[keep], m[keep]]), np.concatenate([m[keep], b[keep]])
        whole = np.concatenate([left[keep], right[keep]])
        branch, owner, rate = (np.tile(v[keep], 2) for v in (branch, owner, rate))
    raise NoConvergence(f"quadrature of {graph.name!r} not within tolerance after "
                        f"{_MAX_QUAD_LEVELS} halvings, near {float(a[0])!r}")


def primitive_array(graph: MonotoneGraph, x) -> np.ndarray:
    """Convex primitive phi(x) = int_0^x f(s) ds with phi(0) = 0, vectorized.

    Uses the closed form a graph carries.  Otherwise phi at the knots (the
    breakpoints and 0) cumulates whole-segment integrals outward from 0, and
    each x adds the integral from its segment's knot nearest 0: one branch each.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("primitive input must be finite")
    flat = x.reshape(-1)
    if graph.fast_primitive is not None:
        return graph.fast_primitive(flat).reshape(x.shape)
    knots = graph._knots
    knots = knots[(knots >= np.min(flat, initial=0.0)) & (knots <= np.max(flat, initial=0.0))]
    near = np.where(flat >= 0.0, np.searchsorted(knots, flat, side="right") - 1,
                    np.searchsorted(knots, flat, side="left"))
    starts, ends = np.concatenate([knots[:-1], knots[near]]), np.concatenate([knots[1:], flat])
    branch = np.searchsorted(graph._breaks, 0.5 * (starts + ends), side="right")
    pieces = _integrate(graph, starts, ends, branch)
    segments, zero = pieces[: knots.size - 1], int(np.searchsorted(knots, 0.0))
    at_knots = np.concatenate([-np.cumsum(segments[:zero][::-1])[::-1], [0.0],
                               np.cumsum(segments[zero:])])
    return (at_knots[near] + pieces[knots.size - 1:]).reshape(x.shape)


# -- built-in graphs ----------------------------------------------------------


def _family(name: str, j: int, c: float, d: float, growth_constant: float) -> MonotoneGraph:
    """f(x) = sgn(x)*(j + c*|x|^d) with j = 0 or 1 and c >= 0, growth exponent d.

    j = 1 puts a jump [-1, 1] at 0.  The resolvent of sgn + g, for g odd and
    continuous, is g's resolvent after a soft threshold by lam, so one
    closed form serves every member with c = 0 or d = 1, 2 or 3; the
    quadratic's root is written without cancellation, the cubic's is the
    hyperbolic form of Cardano's, then one Newton step (Kahan 1986, "To solve
    a real cubic equation").  Other powers go through the generic engine.
    """

    def term(x: np.ndarray) -> np.ndarray:
        return c * np.sign(x) * np.abs(x) ** d if c else np.zeros_like(x)

    def resolvent(x: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
        a = np.maximum(np.abs(x) - lam, 0.0) if j else np.abs(x)
        s = np.sign(x)
        if not c:
            return s * a
        k = lam * c
        if d == 1:
            return s * a / (1.0 + k)
        if d == 2:
            return s * (2.0 * a / (1.0 + np.sqrt(1.0 + 4.0 * k * a)))
        r = np.sqrt(3.0 * k)
        y = (2.0 / r) * np.sinh(np.arcsinh((1.5 * r) * a) / 3.0)
        return s * (y - (k * y**3 + y - a) / ((3.0 * k) * y * y + 1.0))

    def primitive(x: np.ndarray) -> np.ndarray:
        a = np.abs(x)
        power = c * a ** (d + 1.0) / (d + 1.0) if c else np.zeros_like(a)
        return a + power if j else power

    return MonotoneGraph(
        name=name,
        breakpoints=(0.0,) if j else (),
        branch_fns=(lambda x: term(x) - j, lambda x: term(x) + j) if j else (term,),
        growth_exponent=float(d),
        growth_constant=growth_constant,
        fast_resolvent=resolvent if not c or d in (1, 2, 3) else None,
        fast_primitive=primitive,
    )


def zero_graph() -> MonotoneGraph:
    """f identically zero (the linear heat equation)."""
    return _family("zero", 0, 0.0, 0.0, 1.0)


def linear_graph(c: float = 1.0) -> MonotoneGraph:
    """f(x) = c*x with c >= 0."""
    require(c, ">= 0", "c")
    return _family(f"linear(c={c:g})", 0, c, 1.0, max(c, 1e-300))


def power_graph(d: float, coef: float = 1.0) -> MonotoneGraph:
    """f(x) = coef * x * |x|^{d-1} for d >= 1 (x^3 is d = 3); the resolvent is
    closed-form for d = 1, 2 and 3 and from the generic engine otherwise."""
    require(d, ">= 1", "d")
    require(coef, "> 0", "coef")
    name = f"power(d={d:g})" if coef == 1.0 else f"power(d={d:g},c={coef:g})"
    return _family(name, 0, coef, d, coef)


def sign_graph() -> MonotoneGraph:
    """f = sgn with the jump at 0 filled by [-1, 1]."""
    return _family("sign", 1, 0.0, 0.0, 1.0)


def sign_plus_linear_graph() -> MonotoneGraph:
    """f(x) = sgn(x) + x: a discontinuous drift with linear growth."""
    return _family("sign+linear", 1, 1.0, 1.0, 1.0)


def piecewise_graph(
    name: str,
    breakpoints: Sequence[float],
    branch_fns: Sequence[Callable],
    growth_exponent: float,
    growth_constant: float,
    zero_in_graph: bool = True,
) -> MonotoneGraph:
    """Generic graph from ordered breakpoints and branch evaluators.

    No fast paths are attached, so resolvents go through the generic engine.
    """
    return MonotoneGraph(
        name=name,
        breakpoints=tuple(float(b) for b in breakpoints),
        branch_fns=tuple(branch_fns),
        growth_exponent=growth_exponent,
        growth_constant=growth_constant,
        zero_in_graph=zero_in_graph,
    )


_SAFE_EXPR_NAMES = {
    "abs": np.abs, "sign": np.sign, "sqrt": np.sqrt, "exp": np.exp,
    "log": np.log, "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
    "minimum": np.minimum, "maximum": np.maximum, "pi": math.pi, "e": math.e,
}
# Shared by every evaluation.  compile_branch admits no attribute, no other
# name and no nested scope (lambda, comprehension), so no expression can
# reach into this mapping or bind a name in it.
_EXPR_GLOBALS = {"__builtins__": {}, **_SAFE_EXPR_NAMES}


def compile_branch(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    """A branch evaluator from an expression in x over a fixed set of numpy names.

    An expression that does not parse raises SyntaxError; one using any other
    name or attribute, a lambda or a comprehension raises ValueError.  The
    evaluator returns a new float array shaped like x (a constant expression
    is broadcast), with -0.0 written as 0.0.
    """
    code = compile(expr, "<branch>", "eval")
    for name in code.co_names:
        if name not in _SAFE_EXPR_NAMES and name != "x":
            raise ValueError(f"branch expression uses unknown name {name!r}")
    if any(isinstance(const, CodeType) for const in code.co_consts):
        raise ValueError("branch expression may not hold a lambda or a comprehension")

    def fn(x: np.ndarray) -> np.ndarray:
        y = np.asarray(eval(code, _EXPR_GLOBALS, {"x": x}), dtype=float)
        if y.shape != x.shape:
            y = np.broadcast_to(y, x.shape)
        return y + 0.0

    return fn


def TEST_DRIFTS() -> dict[str, MonotoneGraph]:
    """The fixed drift suite used across the verification studies."""
    return {
        "linear": linear_graph(1.0),
        "cubic": power_graph(3.0),
        "quadratic": power_graph(2.0),
        "quartic": power_graph(4.0),
        "sign": sign_graph(),
        "sign_linear": sign_plus_linear_graph(),
    }
