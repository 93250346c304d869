"""Discrete Dirichlet Laplacian, its heat semigroup, resolvents, convolution.

The generator is the second-difference matrix A = (nu/h^2) tridiag(-1, 2, -1)
on the interior nodes, whose exact eigenpairs are

    mu_k = (4 nu / h^2) sin^2(k pi h / 2),      e_k(x_i) = sqrt(2) sin(k pi x_i),

orthonormal with respect to the h-weighted pairing.  exp(-tA) is an entrywise
nonnegative sub-stochastic symmetric matrix, so positivity and contraction in
every L^q hold exactly at the discrete level (the semigroup is subMarkovian
by construction, not by truncation of a continuum operator).

The deterministic convolution (S*F)(t_n) integrates the semigroup factor
exactly on each substep while F is frozen at the left endpoint:

    contribution of [t_j, t_{j+1}):  Fhat_k(t_j) (1 - e^{-mu_k delta}) / mu_k
                                     * e^{-mu_k (t_n - t_{j+1})}.

All operators act modewise via the dense orthonormal sine basis (reference
path; M <= 512 keeps this in the milliseconds).
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence, Union

import numpy as np

from .errors import EmptyInput, GridMismatch, NegativeTime
from .grid_space import FieldSeries, Grid, GridFunction

__all__ = ["HeatSemigroup", "to_modes", "from_modes", "apply_semigroup",
           "semigroup_series", "apply_resolvent", "apply_generator",
           "convolve_series"]


class HeatSemigroup:
    """Eigen-decomposition of the discrete Dirichlet Laplacian on a grid."""

    def __init__(self, grid: Grid, nu: float = 1.0):
        if not nu > 0:
            raise ValueError("viscosity nu must be > 0")
        self.grid = grid
        self.nu = float(nu)
        h = grid.h
        k = np.arange(1, grid.M + 1)
        self.eigenvalues = (4.0 * nu / h**2) * np.sin(0.5 * np.pi * k * h) ** 2
        # basis[i, k-1] = sqrt(2) sin(k pi x_i); h * basis^T basis = I
        self.basis = np.sqrt(2.0) * np.sin(np.pi * np.outer(grid.nodes, k))
        self.eigenvalues.flags.writeable = False
        self.basis.flags.writeable = False

    @cached_property
    def analysis(self) -> np.ndarray:
        """Mode-coefficient map h * basis^T, so that analysis @ basis = I."""
        return self.grid.h * self.basis.T

    def eigenvector(self, k: int) -> GridFunction:
        """k-th orthonormal eigenvector (1-based)."""
        return GridFunction(self.grid, self.basis[:, k - 1])

    def _require(self, phi: GridFunction) -> np.ndarray:
        if phi.grid != self.grid:
            raise GridMismatch("grid function does not live on the semigroup grid")
        return phi.values


def to_modes(sg: HeatSemigroup, phi: GridFunction) -> np.ndarray:
    """Coefficients of phi in the orthonormal eigenbasis."""
    return sg.analysis @ sg._require(phi)


def from_modes(sg: HeatSemigroup, coeffs: np.ndarray) -> GridFunction:
    """Grid function with the given eigenbasis coefficients."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (sg.grid.M,):
        raise ValueError("need one coefficient per mode")
    return GridFunction(sg.grid, sg.basis @ coeffs)


def apply_semigroup(sg: HeatSemigroup, phi: GridFunction, t: float) -> GridFunction:
    """S(t) phi: modewise decay by exp(-mu_k t); S(0) is the exact identity."""
    if t < 0:
        raise NegativeTime(f"semigroup time must be >= 0, got {t}")
    if t == 0.0:
        return phi
    coeffs = to_modes(sg, phi) * np.exp(-sg.eigenvalues * t)
    return from_modes(sg, coeffs)


def semigroup_series(sg: HeatSemigroup, phi: GridFunction,
                     times: np.ndarray) -> FieldSeries:
    """S(t_n) phi for every t_n in ``times``, one snapshot per time."""
    coeffs = np.exp(-np.outer(times, sg.eigenvalues)) * to_modes(sg, phi)
    return FieldSeries(sg.grid, coeffs @ sg.basis.T)


def apply_resolvent(sg: HeatSemigroup, phi: GridFunction, eps: float) -> GridFunction:
    """(I + eps A)^{-1} phi: modewise division by 1 + eps mu_k."""
    if not eps > 0:
        raise ValueError("resolvent parameter eps must be > 0")
    coeffs = to_modes(sg, phi) / (1.0 + eps * sg.eigenvalues)
    return from_modes(sg, coeffs)


def apply_generator(sg: HeatSemigroup, phi: GridFunction) -> GridFunction:
    """A phi by the second-difference stencil (zero Dirichlet boundary)."""
    v = sg._require(phi)
    out = 2.0 * v
    out[1:] -= v[:-1]
    out[:-1] -= v[1:]
    return GridFunction(sg.grid, (sg.nu / sg.grid.h**2) * out)


def _mode_series(sg: HeatSemigroup, fields: Union[FieldSeries, Sequence[GridFunction]]) -> np.ndarray:
    if isinstance(fields, FieldSeries):
        if fields.grid != sg.grid:
            raise GridMismatch("series does not live on the semigroup grid")
        vals = fields.values
    else:
        fields = list(fields)
        if not fields:
            raise EmptyInput("convolution needs at least one field")
        vals = np.stack([sg._require(f) for f in fields])
    if vals.shape[0] == 0:
        raise EmptyInput("convolution needs at least one field")
    return vals @ sg.analysis.T  # (n_times, M) mode coefficients


def convolve_series(
    sg: HeatSemigroup,
    fields: Union[FieldSeries, Sequence[GridFunction]],
    delta: float,
) -> FieldSeries:
    """(S*F)(t_n) for every n on the uniform time grid t_n = n*delta.

    Uses the one-step recursion equivalent to the substep-exact kernels:
    Chat(t_{n+1}) = e^{-mu delta} Chat(t_n) + Fhat(t_n)(1 - e^{-mu delta})/mu.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0")
    fhat = _mode_series(sg, fields)
    n_times = fhat.shape[0]
    decay = np.exp(-sg.eigenvalues * delta)
    weight = (1.0 - decay) / sg.eigenvalues
    chat = np.zeros_like(fhat)
    for n in range(n_times - 1):
        chat[n + 1] = decay * chat[n] + weight * fhat[n]
    return FieldSeries(sg.grid, chat @ sg.basis.T)
