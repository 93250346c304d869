"""Pathwise mild solver for the regularized equation and its lambda limit.

Subtracting the realized stochastic convolution z turns the regularized
equation into a deterministic evolution with random coefficients for
v = u - z:

    v' + A v + f_lam(v + z) = 0,        v(0) = u_0.

One time step of length delta is Lie splitting: an exact semigroup substep
a = S(delta) v_n followed by the implicit nonlinear substep

    w + delta * f_lam(w) = a + z_{n+1},     v_{n+1} = w - z_{n+1},

whose per-node solution is closed thanks to the resolvent identity for
Yosida approximations:  w = r - delta * f_{lam+delta}(r),  r = a + z_{n+1}.
The scheme is unconditionally stable in delta (every substep is a pointwise
contraction), which matters because f_lam has Lipschitz constant 1/lam along
the continuation schedule.

The continuation (:func:`continuation`, consumed by :func:`solve_mild` and
the verification studies) runs a decreasing lambda schedule, and
:func:`solve_mild` certifies the Cauchy property in sup-L^q; exhaustion of
the schedule without meeting the Cauchy tolerance is a reported outcome
with full gap diagnostics, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from .errors import GridMismatch, InvalidExponents
from .grid_space import FieldSeries, GridFunction
from .noise import NoisePath
from .scalar_monotone import MonotoneGraph, yosida_array
from .semigroup import HeatSemigroup, convolve_series, semigroup_series

__all__ = [
    "SolverConfig",
    "MildSolution",
    "solve_regularized",
    "continuation",
    "extract_g",
    "solve_mild",
    "residual_check",
    "inclusion_check",
    "qstar",
    "default_lambda_schedule",
]


def default_lambda_schedule(n: int = 7, start: float = 0.25) -> tuple[float, ...]:
    """Halving schedule lam_j = start * 2^-j, j = 0..n-1."""
    return tuple(start * 2.0**-j for j in range(n))


@dataclass(frozen=True)
class SolverConfig:
    """Exponents, time step, continuation schedule and tolerances."""

    q: float = 2.0
    r: float = 2.0
    delta: float = 2.0**-10
    lambda_schedule: tuple[float, ...] = field(default_factory=default_lambda_schedule)
    cauchy_tol: float = 1e-3
    root_tol: float = 1e-12

    def __post_init__(self):
        if self.q < 1 or self.r < 1 or self.r > self.q:
            raise InvalidExponents(f"need 1 <= r <= q, got q={self.q}, r={self.r}")
        if not self.delta > 0:
            raise ValueError("delta must be > 0")
        sched = tuple(float(l) for l in self.lambda_schedule)
        if not sched or any(l <= 0 for l in sched):
            raise ValueError("lambda schedule must be positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("lambda schedule must be strictly decreasing")
        if not self.cauchy_tol > 0:
            raise ValueError("cauchy_tol must be > 0")
        if not self.root_tol > 0:
            raise ValueError("root_tol must be > 0")
        object.__setattr__(self, "lambda_schedule", sched)


@dataclass
class MildSolution:
    """Final continuation iterate with its certificate diagnostics."""

    u: FieldSeries
    g: FieldSeries
    final_lambda: float
    residual: float
    converged: bool
    schedule_exhausted: bool
    lambdas: list[float]
    gaps: list[float]          # sup-L^q gaps between consecutive iterates
    sup_norms: list[float]     # sup-L^q norm of each iterate


def solve_regularized(
    f: MonotoneGraph,
    lam: float,
    u0: GridFunction,
    path: NoisePath,
    sg: HeatSemigroup,
    delta: Optional[float] = None,
    root_tol: float = 1e-12,
) -> FieldSeries:
    """Trajectory of the regularized equation at a fixed lambda > 0."""
    if not lam > 0:
        raise ValueError("lambda must be > 0")
    if u0.grid != sg.grid or path.grid != sg.grid:
        raise GridMismatch("initial datum, path and semigroup must share a grid")
    if delta is None:
        delta = path.delta
    elif abs(delta - path.delta) > 1e-15:
        raise ValueError("solver delta must match the path's time grid")
    z = path.fields.values
    n_steps = path.n_steps
    decay = np.exp(-sg.eigenvalues * delta)
    analysis = sg.analysis
    basis = sg.basis
    out = np.empty((n_steps + 1, sg.grid.M))
    out[0] = u0.values
    v = u0.values - z[0]
    shifted = lam + delta
    for n in range(n_steps):
        a = basis @ (decay * (analysis @ v))
        r = a + z[n + 1]
        w = r - delta * yosida_array(f, shifted, r, root_tol)
        out[n + 1] = w
        v = w - z[n + 1]
    return FieldSeries(sg.grid, out)


def extract_g(u_traj: FieldSeries, f: MonotoneGraph, lam: float,
              root_tol: float = 1e-12) -> FieldSeries:
    """Drift selection g(t_n) = f_lam(u(t_n)) pointwise."""
    return FieldSeries(u_traj.grid, yosida_array(f, lam, u_traj.values, root_tol))


def continuation(
    f: MonotoneGraph,
    u0: GridFunction,
    path: NoisePath,
    sg: HeatSemigroup,
    config: SolverConfig,
) -> Iterator[tuple[float, FieldSeries]]:
    """Regularized trajectories along the decreasing lambda schedule.

    Yields ``(lam, trajectory)`` per schedule entry.  Each level is solved
    only when the consumer asks for it, so a consumer that stops early never
    pays for the remaining levels and holds only the trajectories it keeps.
    """
    for lam in config.lambda_schedule:
        yield lam, solve_regularized(f, lam, u0, path, sg, config.delta, config.root_tol)


def solve_mild(
    f: MonotoneGraph,
    u0: GridFunction,
    path: NoisePath,
    sg: HeatSemigroup,
    config: SolverConfig,
) -> MildSolution:
    """Run the lambda continuation and certify the final iterate."""
    lambdas: list[float] = []
    gaps: list[float] = []
    sup_norms: list[float] = []
    prev: Optional[FieldSeries] = None
    converged = False
    for lam, current in continuation(f, u0, path, sg, config):
        lambdas.append(lam)
        sup_norms.append(current.sup_norm(config.q))
        if prev is not None:
            gap = (current - prev).sup_norm(config.q)
            gaps.append(gap)
            if gap < config.cauchy_tol:
                converged = True
                break
        prev = current
    final_lambda = lambdas[-1]
    g = extract_g(current, f, final_lambda, config.root_tol)
    res = residual_check(current, g, u0, path, sg, config.r)
    return MildSolution(
        u=current,
        g=g,
        final_lambda=final_lambda,
        residual=res,
        converged=converged,
        schedule_exhausted=not converged,
        lambdas=lambdas,
        gaps=gaps,
        sup_norms=sup_norms,
    )


def residual_check(
    u_traj: FieldSeries,
    g_traj: FieldSeries,
    u0: GridFunction,
    path: NoisePath,
    sg: HeatSemigroup,
    r: float,
) -> float:
    """sup_n || u(t_n) + (S*g)(t_n) - S(t_n) u_0 - z(t_n) ||_r."""
    conv = convolve_series(sg, g_traj, path.delta)
    su0 = semigroup_series(sg, u0, path.times)
    defect = u_traj.values + conv.values - su0.values - path.fields.values
    return FieldSeries(sg.grid, defect).sup_norm(r)


def inclusion_check(
    u_traj: FieldSeries, g_traj: FieldSeries, f: MonotoneGraph, tol: float
) -> float:
    """Fraction of space-time nodes with (u, g) within tol of the filled graph.

    Distance is vertical: max(f(u-) - g, g - f(u+), 0).
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    u = u_traj.values
    g = g_traj.values
    lo = f.left_limits(u)
    hi = f.right_limits(u)
    dist = np.maximum(np.maximum(lo - g, g - hi), 0.0)
    return float(np.mean(dist <= tol))


def qstar(q: float, r: float, d: float) -> float:
    """Space-integrability exponent the continuation argument consumes.

    q >= 2:      max(r*d, 2*d + q - 2)
    1 < q < 2:   q*d
    """
    if not q > 1:
        raise InvalidExponents(f"need q > 1, got {q}")
    if not 1 <= r <= q:
        raise InvalidExponents(f"need 1 <= r <= q, got r={r}, q={q}")
    if d < 0:
        raise InvalidExponents(f"need d >= 0, got {d}")
    if q >= 2:
        return max(r * d, 2.0 * d + q - 2.0)
    return q * d
