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

Resolvents are computed by guarded vectorized root solves: closed forms or
guarded Newton where a fast path is attached to the graph, otherwise
bracketing + bisection of the strictly increasing map y -> y + lam*f(y),
which is unconditionally safe for discontinuous monotone maps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional, Sequence

import numpy as np

from .errors import BracketFailure, NonFiniteInput

__all__ = [
    "MonotoneGraph",
    "YosidaView",
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
    "make_graph",
    "TEST_DRIFTS",
]

# Bracket expansion bound for the bracket-and-bisect root engine.  Doubling
# from an interval of width >= 2 reaches width 2^61 > 2e18 before giving up,
# far beyond any input a genuine monotone graph can require.
_MAX_BRACKET_DOUBLINGS = 60
_MAX_BISECTIONS = 200
_DEFAULT_ROOT_TOL = 1e-12

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
    jump_points: tuple[float, ...] = ()
    # Optional fast paths; must agree with the generic engine (tested).
    fast_resolvent: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    fast_primitive: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _validate: bool = field(default=True, repr=False)

    def __post_init__(self):
        if len(self.branch_fns) != len(self.breakpoints) + 1:
            raise ValueError("need exactly one more branch than breakpoints")
        if list(self.breakpoints) != sorted(set(self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")
        if self.growth_exponent < 0:
            raise ValueError("growth exponent d must be >= 0")
        if self.growth_constant <= 0:
            raise ValueError("growth constant C_f must be > 0")
        if self._validate:
            self._check_shape()

    def _check_shape(self):
        """Sampled monotonicity / jump-sign / growth checks at build time."""
        probes = np.concatenate(
            [np.linspace(-8.0, 8.0, 257), np.asarray(self.breakpoints, dtype=float)]
        )
        probes = np.unique(probes)
        lo = self.right_limits(probes[:-1])
        hi = self.right_limits(probes[1:])
        if np.any(hi - lo < -1e-12):
            raise ValueError(f"graph {self.name!r} is not nondecreasing")
        for b in self.breakpoints:
            left, right = self.left_limit(b), self.right_limit(b)
            if left > right + 1e-12:
                raise ValueError(f"graph {self.name!r} decreases across {b}")
        for b in self.jump_points:
            if b not in self.breakpoints:
                raise ValueError("jump points must be breakpoints")
            if not self.left_limit(b) < self.right_limit(b):
                raise ValueError(f"declared jump at {b} is not a strict jump")
        bound = self.growth_constant * (1.0 + np.abs(probes) ** self.growth_exponent)
        vals = np.maximum(np.abs(self.left_limits(probes)), np.abs(self.right_limits(probes)))
        if np.any(vals > bound + 1e-9):
            raise ValueError(f"graph {self.name!r} violates its growth bound")
        if self.zero_in_graph and not (
            self.left_limit(0.0) <= 0.0 <= self.right_limit(0.0)
        ):
            raise ValueError(f"graph {self.name!r} declared 0 in f(0) but it is not")

    # -- one-sided limits ---------------------------------------------------

    def _branch_eval(self, x: np.ndarray, idx: np.ndarray) -> np.ndarray:
        out = np.empty_like(x, dtype=float)
        for i, fn in enumerate(self.branch_fns):
            mask = idx == i
            if np.any(mask):
                out[mask] = fn(x[mask])
        return out

    def right_limits(self, x: np.ndarray) -> np.ndarray:
        """f(x+), vectorized."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="right")
        return self._branch_eval(x, idx)

    def left_limits(self, x: np.ndarray) -> np.ndarray:
        """f(x-), vectorized."""
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.breakpoints, x, side="left")
        return self._branch_eval(x, idx)

    def right_limit(self, x: float) -> float:
        return float(self.right_limits(np.asarray([x]))[0])

    def left_limit(self, x: float) -> float:
        return float(self.left_limits(np.asarray([x]))[0])

    def mid_values(self, x: np.ndarray) -> np.ndarray:
        """Midpoint section of the filled graph, vectorized."""
        return 0.5 * (self.left_limits(x) + self.right_limits(x))


@dataclass(frozen=True)
class YosidaView:
    """A monotone graph together with a regularization parameter lam > 0."""

    graph: MonotoneGraph
    lam: float
    root_tol: float = _DEFAULT_ROOT_TOL

    def __post_init__(self):
        if not self.lam > 0:
            raise ValueError("lambda must be > 0")
        if not self.root_tol > 0:
            raise ValueError("root_tol must be > 0")


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


def _bracket_and_bisect(
    g: Callable[[np.ndarray], np.ndarray], x: np.ndarray, tol: float, what: str
) -> np.ndarray:
    """Zero of an increasing map g, elementwise, by bracketing + bisection.

    The bracket starts at [x - |x| - 1, x + |x| + 1] and doubles its width on
    each side where g has no sign change; bisection then halves it until
    every interval is at most tol wide.  g may jump upward, in which case the
    result is the jump location.
    """
    lo = x - np.abs(x) - 1.0
    hi = x + np.abs(x) + 1.0
    width = hi - lo
    for _ in range(_MAX_BRACKET_DOUBLINGS):
        bad_lo = g(lo) > 0.0
        bad_hi = g(hi) < 0.0
        if not (np.any(bad_lo) or np.any(bad_hi)):
            break
        lo = np.where(bad_lo, lo - width, lo)
        hi = np.where(bad_hi, hi + width, hi)
        width = hi - lo
    else:
        raise BracketFailure(
            f"no bracket after {_MAX_BRACKET_DOUBLINGS} doublings for {what}"
        )
    for _ in range(_MAX_BISECTIONS):
        if np.max(hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        below = g(mid) < 0.0
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _bisection_resolvent(
    graph: MonotoneGraph, lam: float, x: np.ndarray, tol: float
) -> np.ndarray:
    """Solve y + lam*f(y) = x by bracketing + bisection, vectorized.

    The target map is strictly increasing with only upward jumps, so sign
    bisection on g(y) = y + lam*f_mid(y) - x converges to the unique point
    whose filled-graph image contains x.
    """
    return _bracket_and_bisect(
        lambda y: y + lam * graph.mid_values(y) - x, x, tol, repr(graph.name)
    )


def resolvent_array(
    graph: MonotoneGraph, lam: float, x, tol: float = _DEFAULT_ROOT_TOL
) -> np.ndarray:
    """R_lam(x) = (I + lam*f)^{-1}(x), vectorized over x."""
    if not lam > 0:
        raise ValueError("lambda must be > 0")
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFiniteInput("resolvent input must be finite")
    if graph.fast_resolvent is not None:
        return graph.fast_resolvent(x, lam)
    return _bisection_resolvent(graph, lam, x, tol)


def resolvent(
    graph: MonotoneGraph, lam: float, x: float, tol: float = _DEFAULT_ROOT_TOL
) -> float:
    """Scalar resolvent; see :func:`resolvent_array`."""
    return float(resolvent_array(graph, lam, np.asarray([x]), tol)[0])


def yosida_array(
    graph: MonotoneGraph, lam: float, x, tol: float = _DEFAULT_ROOT_TOL
) -> np.ndarray:
    """Yosida approximation f_lam(x) = (x - R_lam(x)) / lam, vectorized."""
    x = np.asarray(x, dtype=float)
    return (x - resolvent_array(graph, lam, x, tol)) / lam


def yosida(view: YosidaView, x: float) -> float:
    """Scalar Yosida approximation at the view's lambda."""
    return float(yosida_array(view.graph, view.lam, np.asarray([x]), view.root_tol)[0])


def yosida_of_yosida_array(
    graph: MonotoneGraph, lam: float, mu: float, x, tol: float = _DEFAULT_ROOT_TOL
) -> np.ndarray:
    """(f_lam)_mu(x): Yosida approximation of the function f_lam.

    f_lam is continuous and monotone, so its resolvent is found by plain
    bisection on rho -> rho + mu*f_lam(rho); this deliberately does NOT use
    the algebraic reduction to f_{lam+mu}, which is what tests compare it to.
    """
    x = np.asarray(x, dtype=float)
    rho = _bracket_and_bisect(
        lambda r: r + mu * yosida_array(graph, lam, r, tol) - x,
        x, tol, f"the composed Yosida resolvent of {graph.name!r}",
    )
    return (x - rho) / mu


# -- primitive and Moreau envelope -------------------------------------------


def _adaptive_simpson(fn, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature of a continuous integrand on [a, b]."""

    def simpson(lo, hi, flo, fmid, fhi):
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def recurse(lo, hi, flo, fmid, fhi, whole, tol, depth):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = fn(lm), fn(rm)
        left = simpson(lo, mid, flo, flm, fmid)
        right = simpson(mid, hi, fmid, frm, fhi)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return recurse(lo, mid, flo, flm, fmid, left, tol / 2.0, depth - 1) + recurse(
            mid, hi, fmid, frm, fhi, right, tol / 2.0, depth - 1
        )

    if a == b:
        return 0.0
    mid = 0.5 * (a + b)
    fa, fm, fb = fn(a), fn(mid), fn(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 48)

def primitive(graph: MonotoneGraph, x: float, quad_tol: float = 1e-10) -> float:
    """Convex primitive phi(x) = int_0^x f(s) ds with phi(0) = 0.

    Jumps are single points and contribute nothing to the integral; the
    quadrature runs on the continuity intervals between breakpoints.
    """
    if graph.fast_primitive is not None:
        return float(graph.fast_primitive(np.asarray([x]))[0])
    if x == 0.0:
        return 0.0
    a, b = (0.0, x) if x > 0.0 else (x, 0.0)
    cuts = [a] + [bp for bp in graph.breakpoints if a < bp < b] + [b]
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        mid_of = lambda t: float(graph.mid_values(np.asarray([t]))[0])
        total += _adaptive_simpson(mid_of, lo, hi, quad_tol / max(1, len(cuts) - 1))
    return total if x > 0.0 else -total


def primitive_array(graph: MonotoneGraph, x, quad_tol: float = 1e-10) -> np.ndarray:
    """Vectorized primitive; uses the closed form when the graph carries one."""
    x = np.asarray(x, dtype=float)
    if graph.fast_primitive is not None:
        return graph.fast_primitive(x)
    flat = x.reshape(-1)
    out = np.array([primitive(graph, float(t), quad_tol) for t in flat])
    return out.reshape(x.shape)


def moreau(view: YosidaView, x: float, quad_tol: float = 1e-10) -> float:
    """Moreau envelope phi_lam(x) = phi(R_lam x) + (lam/2) f_lam(x)^2."""
    rx = resolvent(view.graph, view.lam, x, view.root_tol)
    flam = (x - rx) / view.lam
    return primitive(view.graph, rx, quad_tol) + 0.5 * view.lam * flam * flam


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


def _power_resolvent(d: float, coef: float):
    """Guarded Newton for y + lam*coef*|y|^{d-1} y = x (odd symmetry)."""

    def solve(x: np.ndarray, lam: float) -> np.ndarray:
        a = np.abs(x)
        s = np.sign(x)
        k = lam * coef
        if d == 1.0:
            return s * a / (1.0 + k)
        # root lies in [0, a]: g(0) = -a <= 0, g(a) = k*a^d >= 0
        lo = np.zeros_like(a)
        hi = a.copy()
        y = a.copy()
        for _ in range(100):
            g = y + k * y**d - a
            lo = np.where(g <= 0.0, y, lo)
            hi = np.where(g > 0.0, y, hi)
            dg = 1.0 + k * d * np.where(y > 0.0, y ** (d - 1.0), 0.0)
            step = g / dg
            y_new = y - step
            # fall back to bisection when Newton leaves the bracket
            outside = (y_new < lo) | (y_new > hi)
            y_new = np.where(outside, 0.5 * (lo + hi), y_new)
            if np.max(np.abs(y_new - y)) <= 1e-16 * (1.0 + np.max(y_new)):
                y = y_new
                break
            y = y_new
        return s * y

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
        jump_points=(0.0,),
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
        jump_points=(0.0,),
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

    Jump points are detected from the one-sided limits; no fast paths are
    attached, so resolvents go through the bisection engine.
    """
    probe = MonotoneGraph(
        name=name,
        breakpoints=tuple(float(b) for b in breakpoints),
        branch_fns=tuple(branch_fns),
        growth_exponent=growth_exponent,
        growth_constant=growth_constant,
        zero_in_graph=zero_in_graph,
        _validate=False,
    )
    jumps = tuple(
        b for b in probe.breakpoints if probe.left_limit(b) < probe.right_limit(b)
    )
    return MonotoneGraph(
        name=name,
        breakpoints=probe.breakpoints,
        branch_fns=probe.branch_fns,
        growth_exponent=growth_exponent,
        growth_constant=growth_constant,
        zero_in_graph=zero_in_graph,
        jump_points=jumps,
    )


_SAFE_EXPR_NAMES = {
    "abs": np.abs, "sign": np.sign, "sqrt": np.sqrt, "exp": np.exp,
    "log": np.log, "sin": np.sin, "cos": np.cos, "tanh": np.tanh,
    "minimum": np.minimum, "maximum": np.maximum, "pi": math.pi, "e": math.e,
}


def _compile_branch(expr: str) -> Callable[[np.ndarray], np.ndarray]:
    code = compile(expr, "<branch>", "eval")
    for name in code.co_names:
        if name not in _SAFE_EXPR_NAMES and name != "x":
            raise ValueError(f"branch expression uses unknown name {name!r}")

    def fn(x: np.ndarray) -> np.ndarray:
        return np.asarray(eval(code, {"__builtins__": {}}, {**_SAFE_EXPR_NAMES, "x": x}), dtype=float) + np.zeros_like(x)

    return fn


def make_graph(spec: dict) -> MonotoneGraph:
    """Build a graph from a declarative description (config surface).

    Built-ins: {"kind": "zero" | "linear" | "power" | "sign" | "sign_linear"}
    with their parameters, or {"kind": "piecewise", "breakpoints": [...],
    "expressions": [...], "d": ..., "C_f": ...} with branch expressions in
    the variable x.
    """
    kind = spec.get("kind")
    if kind == "zero":
        return zero_graph()
    if kind == "linear":
        return linear_graph(float(spec.get("c", 1.0)))
    if kind == "power":
        return power_graph(float(spec.get("d", 3.0)), float(spec.get("coef", 1.0)))
    if kind == "sign":
        return sign_graph()
    if kind == "sign_linear":
        return sign_plus_linear_graph()
    if kind == "piecewise":
        fns = [_compile_branch(e) for e in spec["expressions"]]
        return piecewise_graph(
            name=spec.get("name", "piecewise"),
            breakpoints=[float(b) for b in spec["breakpoints"]],
            branch_fns=fns,
            growth_exponent=float(spec["d"]),
            growth_constant=float(spec.get("C_f", 1.0)),
            zero_in_graph=bool(spec.get("zero_in_graph", True)),
        )
    raise ValueError(f"unknown drift kind {kind!r}")


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
