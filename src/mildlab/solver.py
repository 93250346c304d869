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

z = S<>B and the S that steps v are one object, so every function here takes
S from the noise path (path.sg) and the step from path.delta; the one input
check left is the initial datum's grid against the path's.

The semigroup substep is one product with the operator S(delta) =
exp(-delta A) (HeatSemigroup.stepper: the dense matrix, or from
SPLIT_FROM_M nodes its two mirror half blocks), built once per call before
the time loop.  :func:`solve_regularized` is the one stepper, with one
result: a read-only (B, n_steps + 1, M) block, one row per lambda level, so
the verification studies solve a whole decreasing schedule in one call and
reduce the block one level at a time.  :func:`solve_mild` solves the schedule
one level at a time and certifies the Cauchy property in sup-L^q, stopping
at the first gap below tolerance; exhaustion of the schedule without meeting
the Cauchy tolerance is a reported outcome with full gap diagnostics, never
an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GridMismatch, InvalidExponents
from .grid_space import FieldSeries, GridFunction
from .noise import NoisePath
from .scalar_monotone import MonotoneGraph, yosida_array
from .semigroup import convolve_series, semigroup_series

__all__ = [
    "SolverConfig",
    "MildSolution",
    "solve_regularized",
    "extract_g",
    "solve_mild",
    "residual_check",
    "inclusion_check",
    "qstar",
    "DEFAULT_LAMBDA_SCHEDULE",
]

# The halving schedule lam_j = 0.25 * 2^-j, j = 0..6.
DEFAULT_LAMBDA_SCHEDULE = tuple(0.25 * 2.0**-j for j in range(7))


@dataclass(frozen=True)
class SolverConfig:
    """Exponents, continuation schedule and Cauchy tolerance; the step is the path's delta."""

    q: float = 2.0
    r: float = 2.0
    lambda_schedule: tuple[float, ...] = DEFAULT_LAMBDA_SCHEDULE
    cauchy_tol: float = 1e-3

    def __post_init__(self):
        if self.q < 1 or self.r < 1 or self.r > self.q:
            raise InvalidExponents(f"need 1 <= r <= q, got q={self.q}, r={self.r}")
        sched = tuple(float(l) for l in self.lambda_schedule)
        if not sched or not all(0 < l < np.inf for l in sched):
            raise ValueError(f"lambda must be > 0 and finite, got schedule {sched}")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise ValueError("lambda schedule must be strictly decreasing")
        if not self.cauchy_tol > 0:
            raise ValueError("cauchy_tol must be > 0")
        object.__setattr__(self, "lambda_schedule", sched)


@dataclass
class MildSolution:
    """Final continuation iterate with its certificate diagnostics."""

    u: FieldSeries
    g: FieldSeries
    final_lambda: float
    residual: float
    converged: bool            # False: the schedule ran out before a gap fell below tolerance
    lambdas: list[float]
    gaps: list[float]          # sup-L^q gaps between consecutive iterates
    sup_norms: list[float]     # sup-L^q norm of each iterate


def solve_regularized(
    f: MonotoneGraph,
    lam: float | np.ndarray,
    u0: GridFunction,
    path: NoisePath,
) -> np.ndarray:
    """Trajectories of the regularized equation, stepped at path.delta.

    lam is one finite level > 0 or a 1-D array of B of them.  The result is
    one read-only (B, n_steps + 1, M) block, B = 1 for a number, whose row b
    is the trajectory at level b.  The rows are stepped together: each step
    is one product with the path's S(delta) (path.sg.stepper, built once per
    call) and one resolvent, which takes several levels as a (B, 1) column
    and one level as a float, at scalar cost in the closed forms.  A block
    row agrees with its one-level call to rounding (one row and many take
    different BLAS kernels); a call is reproducible bit for bit.
    """
    levels = np.atleast_1d(np.asarray(lam, dtype=float))
    if levels.ndim > 1 or not levels.size or not np.all((levels > 0) & (levels < np.inf)):
        raise ValueError("lambda must be > 0 and finite, a number or a nonempty 1-D array")
    if u0.grid != path.grid:
        raise GridMismatch(f"initial datum has M={u0.grid.M}, the noise path M={path.grid.M}")
    delta = path.delta
    z = path.fields.values
    step = path.sg.stepper(delta)
    shifted = float(levels[0]) + delta if levels.size == 1 else levels[:, None] + delta
    out = np.empty((levels.size, path.n_steps + 1, path.grid.M))
    out[:, 0] = u0.values
    v = np.tile(u0.values - z[0], (levels.size, 1))
    for n in range(path.n_steps):
        r = v @ step + z[n + 1]
        w = r - delta * yosida_array(f, shifted, r)
        out[:, n + 1] = w
        v = w - z[n + 1]
    out.flags.writeable = False
    return out


def extract_g(u_traj: FieldSeries, f: MonotoneGraph, lam: float) -> FieldSeries:
    """Drift selection g(t_n) = f_lam(u(t_n)) pointwise."""
    return FieldSeries(u_traj.grid, yosida_array(f, lam, u_traj.values))


def solve_mild(
    f: MonotoneGraph,
    u0: GridFunction,
    path: NoisePath,
    config: SolverConfig,
) -> MildSolution:
    """Run the lambda continuation and certify the final iterate."""
    lambdas: list[float] = []
    gaps: list[float] = []
    sup_norms: list[float] = []
    prev: Optional[FieldSeries] = None
    converged = False
    for lam in config.lambda_schedule:
        # one level at a time, so an early Cauchy stop skips the rest
        current = FieldSeries(u0.grid, solve_regularized(f, lam, u0, path)[0])
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
    g = extract_g(current, f, final_lambda)
    res = residual_check(current, g, u0, path, config.r)
    return MildSolution(
        u=current,
        g=g,
        final_lambda=final_lambda,
        residual=res,
        converged=converged,
        lambdas=lambdas,
        gaps=gaps,
        sup_norms=sup_norms,
    )


def residual_check(
    u_traj: FieldSeries,
    g_traj: FieldSeries,
    u0: GridFunction,
    path: NoisePath,
    r: float,
) -> float:
    """sup_n || u(t_n) + (S*g)(t_n) - S(t_n) u_0 - z(t_n) ||_r, S = path.sg."""
    conv = convolve_series(path.sg, g_traj, path.delta)
    su0 = semigroup_series(path.sg, u0, path.times)
    defect = u_traj.values + conv.values - su0.values - path.fields.values
    return FieldSeries(path.grid, defect).sup_norm(r)


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
