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

Every operator acts modewise through one transform pair over arrays of shape
(..., M), the package's only products with the dense sine basis (M <= 512
keeps them in the milliseconds): the HeatSemigroup methods to_modes,
values @ h*basis, and from_modes, coeffs @ basis^T.  The operators below take
a GridFunction, check its grid, and apply the pair to its values.  The
stepper instead multiplies by HeatSemigroup.propagator(delta), the matrix
exp(-delta A) built once through from_modes and cached: one product per step,
for one state or a block of them.  A 1-D vector and a row of a 2-D array take
different BLAS kernels and may differ in the last bits, so a single state
stays 1-D and a time series stays one 2-D array.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import EmptyInput, GridMismatch, NegativeTime
from .grid_space import FieldSeries, Grid, GridFunction

__all__ = ["HeatSemigroup", "apply_semigroup", "semigroup_series",
           "apply_resolvent", "apply_generator", "modal_recursion",
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
        self._analysis = h * self.basis
        for a in (self.eigenvalues, self.basis, self._analysis):
            a.flags.writeable = False
        self._propagators: dict[float, np.ndarray] = {}
        self._propagators_lock = threading.Lock()

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Mode coefficients of node values, shape (..., M) to (..., M)."""
        return values @ self._analysis

    def from_modes(self, coeffs: np.ndarray) -> np.ndarray:
        """Node values of mode coefficients, shape (..., M) to (..., M)."""
        return coeffs @ self.basis.T

    def propagator(self, t: float) -> np.ndarray:
        """exp(-tA) as a read-only (M, M) matrix, so that S(t) v = v @ propagator(t).

        Built on first use for each t (one GEMM through from_modes) and cached.
        Threads may share a semigroup, so the first use is locked: every
        caller gets the one matrix, whatever the BLAS does under contention.
        """
        with self._propagators_lock:
            out = self._propagators.get(t)
            if out is None:
                out = self.from_modes(self._analysis * np.exp(-self.eigenvalues * t))
                out.flags.writeable = False
                self._propagators[t] = out
        return out

    def eigenvector(self, k: int) -> GridFunction:
        """k-th orthonormal eigenvector (1-based)."""
        return GridFunction(self.grid, self.basis[:, k - 1])

    def _require(self, phi: GridFunction) -> np.ndarray:
        if phi.grid != self.grid:
            raise GridMismatch("grid function does not live on the semigroup grid")
        return phi.values


def apply_semigroup(sg: HeatSemigroup, phi: GridFunction, t: float) -> GridFunction:
    """S(t) phi: modewise decay by exp(-mu_k t); S(0) is the exact identity."""
    if t < 0:
        raise NegativeTime(f"semigroup time must be >= 0, got {t}")
    values = sg._require(phi)
    if t == 0.0:
        return phi
    coeffs = sg.to_modes(values) * np.exp(-sg.eigenvalues * t)
    return GridFunction(sg.grid, sg.from_modes(coeffs))


def semigroup_series(sg: HeatSemigroup, phi: GridFunction,
                     times: np.ndarray) -> FieldSeries:
    """S(t_n) phi for every t_n in ``times``, one snapshot per time."""
    coeffs = np.exp(-np.outer(times, sg.eigenvalues)) * sg.to_modes(sg._require(phi))
    return FieldSeries(sg.grid, sg.from_modes(coeffs))


def apply_resolvent(sg: HeatSemigroup, phi: GridFunction, eps: float) -> GridFunction:
    """(I + eps A)^{-1} phi: modewise division by 1 + eps mu_k."""
    if not eps > 0:
        raise ValueError("resolvent parameter eps must be > 0")
    coeffs = sg.to_modes(sg._require(phi)) / (1.0 + eps * sg.eigenvalues)
    return GridFunction(sg.grid, sg.from_modes(coeffs))


def apply_generator(sg: HeatSemigroup, phi: GridFunction) -> GridFunction:
    """A phi by the second-difference stencil (zero Dirichlet boundary)."""
    v = sg._require(phi)
    out = 2.0 * v
    out[1:] -= v[:-1]
    out[:-1] -= v[1:]
    return GridFunction(sg.grid, (sg.nu / sg.grid.h**2) * out)


def modal_recursion(decay: np.ndarray, weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """c[0] = 0 and c[n+1] = decay * c[n] + weight * x[n]; one row more than x.

    Rows are times and columns modes: the exact one-step update of modewise
    exponential decay driven by x, shared by the OU sampler and the
    deterministic convolution.
    """
    out = np.zeros((x.shape[0] + 1, x.shape[1]))
    for n in range(x.shape[0]):
        out[n + 1] = decay * out[n] + weight * x[n]
    return out


def convolve_series(sg: HeatSemigroup, fields: FieldSeries, delta: float) -> FieldSeries:
    """(S*F)(t_n) for every n on the uniform time grid t_n = n*delta.

    Uses the one-step recursion equivalent to the substep-exact kernels:
    Chat(t_{n+1}) = e^{-mu delta} Chat(t_n) + Fhat(t_n)(1 - e^{-mu delta})/mu.
    """
    if not delta > 0:
        raise ValueError("delta must be > 0")
    if fields.grid != sg.grid:
        raise GridMismatch("series does not live on the semigroup grid")
    if len(fields) == 0:
        raise EmptyInput("convolution needs at least one field")
    fhat = sg.to_modes(fields.values)
    decay = np.exp(-sg.eigenvalues * delta)
    weight = (1.0 - decay) / sg.eigenvalues
    chat = modal_recursion(decay, weight, fhat[:-1])
    return FieldSeries(sg.grid, sg.from_modes(chat))
