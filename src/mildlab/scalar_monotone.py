"""Exact scalar machinery for increasing functions on the real line.

An increasing function f (possibly with jump discontinuities) extends
uniquely to a maximal monotone graph by filling each jump with the vertical
segment [f(x-), f(x+)].  This module represents such graphs, evaluates
sections of the filled graph, and provides the associated resolvents

    R_lam(x) = (I + lam*f)^{-1}(x),

Yosida approximations

    f_lam(x) = (x - R_lam(x)) / lam,

the convex primitive phi(x) = int_0^x f, and its Moreau envelope

    phi_lam(x) = phi(R_lam(x)) + (lam/2) * f_lam(x)^2
               = min_y [ (x - y)^2 / (2*lam) + phi(y) ].

Resolvents come from closed forms (linear, quadratic, cubic, sign) or
guarded Newton (other powers) where a fast path is attached to the graph.
Any other graph goes through one engine (_resolve_on_knots): an x inside a
knot's jump interval resolves to exactly that knot, every other x to the one
continuous branch between two knots, solved there by Chandrupatla's
bracketed hybrid.  Every root solve stops each element on its own, within
two ulps, and raises NoConvergence at its step cap.  phi without a closed
form comes from one adaptive Gauss-Legendre loop to QUAD_TOL (see
primitive_array).  Resolvent, Yosida and Moreau functions take (graph, lam, x).

This module holds the math only.  The config's drift section is checked and
built by config.DRIFT_KEYS from the graph constructors here, and
compile_branch turns a piecewise branch expression in x into an evaluator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import CodeType
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .errors import BracketFailure, NoConvergence, NonFiniteInput

__all__ = [
    "MonotoneGraph",
    "ROOT_TOL",
    "QUAD_TOL",
    "section",
    "section_min_abs",
    "section_max_abs",
    "resolvent",
    "resolvent_array",
    "yosida",
    "yosida_array",
    "yosida_of_yosida_array",
    "primitive",
    "primitive_array",
    "moreau",
    "zero_graph",
    "linear_graph",
    "power_graph",
    "sign_graph",
    "sign_plus_linear_graph",
    "piecewise_graph",
    "compile_branch",
    "TEST_DRIFTS",
]

# The root solvers stop in ulps and do not read ROOT_TOL; the invariant
# battery scales its bounds by it.
ROOT_TOL = 1e-12
# Caps past which a root solve raises NoConvergence: guarded Newton steps for
# a power drift without a closed form, and Chandrupatla steps per branch solve
# of the generic engine (at most 9 on the benchmark's jump-at-0 cubic, where
# bisection to two ulps would take about 44).
_MAX_NEWTON = 100
_MAX_ROOT_STEPS = 100
# The primitive's quadrature tolerance (relative above 1, where rounding would
# defeat an absolute one), its halvings before it raises (2^-50 of an integral
# is a few ulps) and the 10-point Gauss-Legendre rule (Golub & Welsch 1969).
QUAD_TOL = 1e-10
_MAX_QUAD_LEVELS = 50
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

Choice = Literal["min", "max", "mid"]


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
    # Optional fast paths; must agree with the generic engine (tested).
    fast_resolvent: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    fast_primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _breaks: np.ndarray = field(init=False, repr=False, compare=False)  # as one array

    def __post_init__(self):
        object.__setattr__(self, "_breaks", np.asarray(self.breakpoints, dtype=float))
        if len(self.branch_fns) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more branch than breakpoints")
        if list(self.breakpoints) != sorted(set(self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")
        if self.growth_exponent < 0:
            raise ValueError("growth exponent d must be >= 0")
        if self.growth_constant <= 0:
            raise ValueError("growth constant C_f must be > 0")
        self._check_shape()

    def _check_shape(self):
        """Sampled finiteness / monotonicity / jump-sign / growth checks at build time."""
        probes = np.unique(np.concatenate([np.linspace(-8.0, 8.0, 257), self._breaks]))
        left, right = self.left_limits(probes), self.right_limits(probes)
        finite = np.isfinite(left) & np.isfinite(right)
        if not finite.all():
            raise ValueError(f"graph {self.name!r} is not finite at {probes[~finite][0]}")
        if np.any(np.diff(right) < -1e-12):
            raise ValueError(f"graph {self.name!r} is not nondecreasing")
        b = self._breaks
        drops = b[self.left_limits(b) > self.right_limits(b) + 1e-12]
        if drops.size:
            raise ValueError(f"graph {self.name!r} decreases across {drops[0]}")
        bound = self.growth_constant * (1.0 + np.abs(probes) ** self.growth_exponent)
        if np.any(np.maximum(np.abs(left), np.abs(right)) > bound + 1e-9):
            raise ValueError(f"graph {self.name!r} violates its growth bound")
        if self.zero_in_graph and not (
            self.left_limit(0.0) <= 0.0 <= self.right_limit(0.0)
        ):
            raise ValueError(f"graph {self.name!r} declared 0 in f(0) but it is not")

    @property
    def jump_points(self) -> tuple[float, ...]:
        """The breakpoints b with f(b-) < f(b+)."""
        b = self._breaks
        return tuple(b[self.left_limits(b) < self.right_limits(b)].tolist())

    # -- one-sided limits ---------------------------------------------------

    def _branch_eval(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        out = np.empty_like(x, dtype=float)
        for i, fn in enumerate(self.branch_fns):
            mask = idx == i
            if mask.any():
                out[mask] = fn(x[mask])
        return out

    def right_limits(self, x: np.ndarray) -> np.ndarray:
        """f(x+), vectorized."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._breaks, x, side="right")
        return self._branch_eval(x, idx)

    def left_limits(self, x: np.ndarray) -> np.ndarray:
        """f(x-), vectorized."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self._breaks, x, side="left")
        return self._branch_eval(x, idx)

    def right_limit(self, x: float) -> float:
        return float(self.right_limits(np.asarray([x]))[0])

    def left_limit(self, x: float) -> float:
        return float(self.left_limits(np.asarray([x]))[0])

    def mid_values(self, x: np.ndarray) -> np.ndarray:
        """Midpoint section of the filled graph, vectorized.

        The one-sided limits differ only at a breakpoint, so the branches
        are evaluated once for f(x+) and again only there for f(x-); the
        result is bit-equal to 0.5 * (left_limits(x) + right_limits(x)).
        """
        x = np.asarray(x, dtype=float)
        right = self.right_limits(x)
        left = right.copy()
        on = np.zeros(x.shape, dtype=bool)
        for b in self.breakpoints:
            on |= x == b
        if on.any():
            left[on] = self.left_limits(x[on])
        return 0.5 * (left + right)


# -- sections ---------------------------------------------------------------


def section(graph: MonotoneGraph, x: float, choice: Choice = "mid") -> float:
    """An element of the filled graph f(x) = [f(x-), f(x+)].

    ``min``/``max``/``mid`` pick the left limit, right limit, or their
    average; at continuity points all three coincide.
    """
    lo, hi = graph.left_limit(x), graph.right_limit(x)
    if choice == "min":
        return lo
    if choice == "max":
        return hi
    if choice == "mid":
        return 0.5 * (lo + hi)
    raise ValueError(f"unknown section choice {choice!r}")


def section_min_abs(graph: MonotoneGraph, x) -> np.ndarray:
    """Element of [f(x-), f(x+)] with minimal absolute value, vectorized."""
    x = np.asarray(x, dtype=float)
    lo, hi = graph.left_limits(x), graph.right_limits(x)
    out = np.where(np.abs(lo) <= np.abs(hi), lo, hi)
    return np.where((lo <= 0.0) & (0.0 <= hi), 0.0, out)


def section_max_abs(graph: MonotoneGraph, x) -> np.ndarray:
    """Element of [f(x-), f(x+)] with maximal absolute value, vectorized."""
    x = np.asarray(x, dtype=float)
    lo, hi = graph.left_limits(x), graph.right_limits(x)
    return np.where(np.abs(lo) >= np.abs(hi), lo, hi)


# -- resolvent and Yosida approximation -------------------------------------


def _branch_root(fns, gap: np.ndarray, lam: float, x: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray, lo_lim: np.ndarray, hi_lim: np.ndarray, what: str) -> np.ndarray:
    """Zero of g(y) = y + lam*fns[gap](y) - x in [lo, hi], elementwise.

    gap is sorted, so each evaluator runs once per step on its own slice, and
    fns[gap] is continuous and nondecreasing on [lo_lim, hi_lim], which holds
    the bracket.  Chandrupatla's hybrid (1997) takes inverse quadratic
    interpolation steps where the last three points allow it and bisection
    steps otherwise, never closer than one ulp to an end.  Each element stops
    on its own, once g = 0 there or its bracket is at most two ulps wide, so
    its result does not depend on the other elements.
    """
    every_gap = np.arange(len(fns) + 1)

    def g(y, x, gap):
        fy = np.empty_like(y)
        bounds = np.searchsorted(gap, every_gap)
        for fn, start, stop in zip(fns, bounds[:-1], bounds[1:]):
            if start < stop:
                fy[start:stop] = fn(y[start:stop])
        gy = y + lam * fy - x
        if not np.isfinite(gy).all():
            raise NoConvergence(f"resolvent of {what} meets a non-finite branch value")
        return gy

    y1, y2 = lo, hi
    f1, f2 = g(y1, x, gap), g(y2, x, gap)
    # Rounding can leave an end a hair short of the root.  g(y) - y is
    # nondecreasing, so y - 2*g(y) bounds the root from the other side.
    short1, short2 = f1 > 0.0, f2 < 0.0
    if short1.any() or short2.any():
        y1 = np.where(short1, np.maximum(lo_lim, y1 - 2.0 * f1), y1)
        y2 = np.where(short2, np.minimum(hi_lim, y2 - 2.0 * f2), y2)
        f1 = np.where(short1, g(y1, x, gap), f1)
        f2 = np.where(short2, g(y2, x, gap), f2)
        if (f1 > 0.0).any() or (f2 < 0.0).any():
            raise BracketFailure(f"no sign change on the bracket for {what}")
    out = np.empty_like(x)
    live = np.arange(x.size)
    y3 = f3 = t = 0.5  # y3, f3 are first set by the first step, which bisects
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(_MAX_ROOT_STEPS + 1):
            a1, a2 = np.abs(f1), np.abs(f2)
            ym = np.where(a1 < a2, y1, y2)
            tol, dy = 2.0 * np.spacing(np.abs(ym)), np.abs(y2 - y1)
            done = (dy <= tol) | (np.minimum(a1, a2) == 0.0)
            if done.any():
                out[live[done]] = ym[done]
                keep = ~done
                live, gap, x, y1, f1, y2, f2, tol, dy = (
                    v[keep] for v in (live, gap, x, y1, f1, y2, f2, tol, dy))
                if step:
                    y3, f3 = y3[keep], f3[keep]
            if not live.size:
                return out
            if step == _MAX_ROOT_STEPS:
                break
            if step:
                d12, d32 = f1 - f2, f3 - f2
                xi, phi = (y1 - y2) / (y3 - y2), d12 / d32
                iqi = (phi * phi < xi) & ((1.0 - phi) ** 2 < 1.0 - xi)
                t = f1 / d32 * (f3 / d12 + (y3 - y1) / (y2 - y1) * f2 / (f3 - f1))
                t = np.where(iqi, t, 0.5)
            tl = 0.5 * tol / dy
            yt = y1 + np.minimum(np.maximum(t, tl), 1.0 - tl) * (y2 - y1)
            ft = g(yt, x, gap)
            same = np.sign(ft) == np.sign(f1)
            y3, f3 = np.where(same, y1, y2), np.where(same, f1, f2)
            y2, f2 = np.where(same, y2, y1), np.where(same, f2, f1)
            y1, f1 = yt, ft
    raise NoConvergence(f"resolvent of {what}: no stop after {_MAX_ROOT_STEPS} steps")


def _resolve_on_knots(knots: np.ndarray, gap_fns, lam: float, x: np.ndarray,
                      what: str) -> np.ndarray:
    """Solve y + lam*f(y) = x, elementwise, for f continuous between sorted knots.

    gap_fns[j] evaluates f on the j-th open gap (-inf, c_0), (c_0, c_1), ...,
    (c_{n-1}, inf), so f(c-) and f(c+) at a knot c are its two neighbours'
    values there.  Every x in [c + lam*f(c-), c + lam*f(c+)] resolves to
    exactly c; any other x lies between two knots' intervals, and its root in
    the gap between the knots.  R_lam is 1-Lipschitz, so |y - c| <= |x - x_c|
    for the nearer end x_c of each neighbouring interval: that brackets the
    root without a search.
    """
    flat = x.reshape(-1)
    n = knots.size
    edges = np.empty(2 * n)  # [x_c-, x_c+] of each knot c, in order
    for j, fn in enumerate(gap_fns):
        vals = fn(knots[max(j - 1, 0): j + 1])
        if j > 0:
            edges[2 * j - 1] = knots[j - 1] + lam * vals[0]
        if j < n:
            edges[2 * j] = knots[j] + lam * vals[-1]
    if not np.isfinite(edges).all():
        raise NoConvergence(f"resolvent of {what} meets a non-finite branch value")
    # pos is odd for x in (x_c-, x_c+]; x = x_c- gets the bracket [c, c] below
    pos = np.searchsorted(edges, flat, side="left")
    on_knot = pos % 2 == 1
    y = np.empty_like(flat)
    y[on_knot] = knots[pos[on_knot] // 2]
    rest = np.flatnonzero(~on_knot)
    rest = rest[np.argsort(pos[rest], kind="stable")]
    gap, xs = pos[rest] // 2, flat[rest]
    # each gap's knots, +-inf beyond the outer ones, and its x-interval ends
    lo_lim = np.concatenate([[-np.inf], knots])[gap]
    hi_lim = np.concatenate([knots, [np.inf]])[gap]
    left_edge = np.concatenate([[-np.inf], edges[1::2]])[gap]
    right_edge = np.concatenate([edges[0::2], [np.inf]])[gap]
    with np.errstate(invalid="ignore"):  # inf - inf in the outer gaps, dropped by the limits
        lo = np.fmax(lo_lim, hi_lim - (right_edge - xs))
        hi = np.fmin(hi_lim, lo_lim + (xs - left_edge))
    y[rest] = _branch_root(gap_fns, gap, lam, xs, lo, hi, lo_lim, hi_lim, what)
    return y.reshape(x.shape)


def _branch_resolvent(graph: MonotoneGraph, lam: float, x: np.ndarray) -> np.ndarray:
    """R_lam(x) for a graph with no fast path: its knots are the breakpoints and 0."""
    knots = np.union1d(graph._breaks, [0.0])
    branch = np.append(np.searchsorted(graph._breaks, knots, side="left"), graph._breaks.size)
    return _resolve_on_knots(knots, [graph.branch_fns[i] for i in branch], lam, x,
                             repr(graph.name))


def resolvent_array(graph: MonotoneGraph, lam: float, x) -> np.ndarray:
    """R_lam(x) = (I + lam*f)^{-1}(x), vectorized over x."""
    if not lam > 0:
        raise ValueError("lambda must be > 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("resolvent input must be finite")
    if graph.fast_resolvent is not None:
        return graph.fast_resolvent(x, lam)
    return _branch_resolvent(graph, lam, x)


def resolvent(graph: MonotoneGraph, lam: float, x: float) -> float:
    """Scalar resolvent; see :func:`resolvent_array`."""
    return float(resolvent_array(graph, lam, np.asarray([x]))[0])


def yosida_array(graph: MonotoneGraph, lam: float, x) -> np.ndarray:
    """Yosida approximation f_lam(x) = (x - R_lam(x)) / lam, vectorized."""
    x = np.asarray(x, dtype=float)
    return (x - resolvent_array(graph, lam, x)) / lam


def yosida(graph: MonotoneGraph, lam: float, x: float) -> float:
    """Scalar Yosida approximation; see :func:`yosida_array`."""
    return float(yosida_array(graph, lam, np.asarray([x]))[0])


def yosida_of_yosida_array(graph: MonotoneGraph, lam: float, mu: float, x) -> np.ndarray:
    """(f_lam)_mu(x): Yosida approximation of the function f_lam.

    f_lam is continuous and monotone, one branch with a knot at 0, so its
    resolvent comes from the same engine as a generic graph's; this
    deliberately does NOT use the algebraic reduction to f_{lam+mu}, which is
    what tests compare it to.
    """
    x = np.asarray(x, dtype=float)
    f_lam = lambda r: yosida_array(graph, lam, r)  # noqa: E731
    rho = _resolve_on_knots(np.zeros(1), (f_lam, f_lam), mu, x,
                            f"the composed Yosida resolvent of {graph.name!r}")
    return (x - rho) / mu


# -- primitive and Moreau envelope -------------------------------------------


def _integrate(graph: MonotoneGraph, a, b, branch) -> np.ndarray:
    """Integral of branch_fns[branch] from a to b, elementwise, by adaptive Gauss-Legendre.

    One flat work list holds every interval.  One of length h in an integral of
    length L is accepted when its estimate and its halves' sum differ by at most
    sqrt(h / L) * QUAD_TOL * max(1, |integral|), never if it cannot be halved.
    Near a singularity such as |x - 1|^(1/3) the difference falls like h^(4/3),
    which meets a share like h (as Simpson's) only below the float spacing but
    meets sqrt(h) above it; across a jump it falls like h and meets neither.
    """
    def estimate(lo, hi, idx):
        half = 0.5 * (hi - lo)
        t = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_NODES
        return half * (graph._branch_eval(t, np.broadcast_to(idx[:, None], t.shape)) @ _GL_WEIGHTS)

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
    if graph.fast_primitive is not None:
        return graph.fast_primitive(x)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("primitive input must be finite")
    flat = x.reshape(-1)
    knots = np.union1d(graph._breaks, [0.0])
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


def primitive(graph: MonotoneGraph, x: float) -> float:
    """Scalar primitive; see :func:`primitive_array`."""
    return float(primitive_array(graph, np.asarray([x]))[0])


def moreau(graph: MonotoneGraph, lam: float, x: float) -> float:
    """Moreau envelope phi_lam(x) = phi(R_lam x) + (lam/2) f_lam(x)^2."""
    rx = resolvent(graph, lam, x)
    flam = (x - rx) / lam
    return primitive(graph, rx) + 0.5 * lam * flam * flam


# -- built-in graphs ----------------------------------------------------------


def zero_graph() -> MonotoneGraph:
    """f identically zero (the linear heat equation)."""
    return MonotoneGraph(
        name="zero",
        breakpoints=(),
        branch_fns=(lambda x: np.zeros_like(x),),
        growth_exponent=0.0,
        growth_constant=1.0,
        fast_resolvent=lambda x, lam: x.copy(),
        fast_primitive=lambda x: np.zeros_like(x),
    )


def linear_graph(c: float = 1.0) -> MonotoneGraph:
    """f(x) = c*x with c >= 0."""
    if c < 0:
        raise ValueError("linear coefficient must be >= 0")
    return MonotoneGraph(
        name=f"linear(c={c:g})",
        breakpoints=(),
        branch_fns=(lambda x: c * x,),
        growth_exponent=1.0,
        growth_constant=max(c, 1e-300),
        fast_resolvent=lambda x, lam: x / (1.0 + lam * c),
        fast_primitive=lambda x: 0.5 * c * x * x,
    )


def _power_newton(d: float, k: float, a: np.ndarray) -> np.ndarray:
    """Guarded Newton for y + k*y^d = a with a >= 0.

    The root lies in [0, a] and below (a/k)^(1/d), which starts the iteration,
    so a large a takes a few steps rather than one per halving.  Each element
    stops on its own at a step within two ulps of its new iterate, so its
    result does not depend on the other elements.
    """
    flat = a.reshape(-1)
    out = np.empty_like(flat)
    live = np.arange(flat.size)
    # g(0) = -a <= 0 and g(a) = k*a^d >= 0
    lo, hi = np.zeros_like(flat), flat.copy()
    y = np.minimum(flat, (flat / k) ** (1.0 / d))
    for _ in range(_MAX_NEWTON):
        g = y + k * y**d - flat
        lo = np.where(g <= 0.0, y, lo)
        hi = np.where(g > 0.0, y, hi)
        dg = 1.0 + k * d * np.where(y > 0.0, y ** (d - 1.0), 0.0)
        y_new = y - g / dg
        # fall back to bisection when Newton leaves the bracket
        outside = (y_new < lo) | (y_new > hi)
        y_new = np.where(outside, 0.5 * (lo + hi), y_new)
        done = np.abs(y_new - y) <= 2.0 * np.spacing(y_new)
        out[live[done]] = y_new[done]
        keep = ~done
        if not keep.any():
            return out.reshape(a.shape)
        live, flat, lo, hi, y = live[keep], flat[keep], lo[keep], hi[keep], y_new[keep]
    raise NoConvergence(f"power(d={d:g}) resolvent: no Newton stop after {_MAX_NEWTON} steps")


def _power_resolvent(d: float, coef: float):
    """R_lam for y + lam*coef*|y|^{d-1} y = x (odd symmetry).

    Closed forms for d = 1, 2, 3, guarded Newton otherwise.  The quadratic's
    root is written without cancellation; the cubic's is the hyperbolic form
    of Cardano's, then one Newton step (Kahan 1986, "To solve a real cubic
    equation").
    """

    def solve(x: np.ndarray, lam: float) -> np.ndarray:
        a = np.abs(x)
        s = np.sign(x)
        k = lam * coef
        if d == 1.0:
            return s * a / (1.0 + k)
        if d == 2.0:
            return s * (2.0 * a / (1.0 + np.sqrt(1.0 + 4.0 * k * a)))
        if d == 3.0:
            r = np.sqrt(3.0 * k)
            y = (2.0 / r) * np.sinh(np.arcsinh(1.5 * r * a) / 3.0)
            return s * (y - (y + k * y**3 - a) / (1.0 + 3.0 * k * y * y))
        return s * _power_newton(d, k, a)

    return solve


def power_graph(d: float, coef: float = 1.0) -> MonotoneGraph:
    """f(x) = coef * x * |x|^{d-1} for d >= 1 (x^3 is d = 3)."""
    if d < 1:
        raise ValueError("power drift needs d >= 1")
    if coef <= 0:
        raise ValueError("power coefficient must be > 0")
    return MonotoneGraph(
        name=f"power(d={d:g})" if coef == 1.0 else f"power(d={d:g},c={coef:g})",
        breakpoints=(),
        branch_fns=(lambda x: coef * np.sign(x) * np.abs(x) ** d,),
        growth_exponent=float(d),
        growth_constant=coef,
        fast_resolvent=_power_resolvent(float(d), coef),
        fast_primitive=lambda x: coef * np.abs(x) ** (d + 1.0) / (d + 1.0),
    )


def _sign_resolvent(x: np.ndarray, lam: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)


def sign_graph() -> MonotoneGraph:
    """f = sgn with the jump at 0 filled by [-1, 1]."""
    return MonotoneGraph(
        name="sign",
        breakpoints=(0.0,),
        branch_fns=(lambda x: np.full_like(x, -1.0), lambda x: np.full_like(x, 1.0)),
        growth_exponent=0.0,
        growth_constant=1.0,
        fast_resolvent=_sign_resolvent,
        fast_primitive=lambda x: np.abs(x),
    )


def _sign_plus_linear_resolvent(x: np.ndarray, lam: float) -> np.ndarray:
    y = np.sign(x) * np.maximum(np.abs(x) - lam, 0.0)
    return y / (1.0 + lam)


def sign_plus_linear_graph() -> MonotoneGraph:
    """f(x) = sgn(x) + x: a discontinuous drift with linear growth."""
    return MonotoneGraph(
        name="sign+linear",
        breakpoints=(0.0,),
        branch_fns=(lambda x: x - 1.0, lambda x: x + 1.0),
        growth_exponent=1.0,
        growth_constant=1.0,
        fast_resolvent=_sign_plus_linear_resolvent,
        fast_primitive=lambda x: np.abs(x) + 0.5 * x * x,
    )


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
