"""Discrete model of L^q(0,1): grid functions, norms, duality machinery.

Functions live on the uniform interior grid x_i = i*h, i = 1..M, h = 1/(M+1),
with implicit zero Dirichlet values at both boundary nodes.  All integrals
over (0,1) use the rectangle rule h*sum(...), which keeps the norm/pairing
identities exact at the discrete level:

    ||phi||_q   = (h * sum |phi_i|^q)^(1/q)
    <phi, psi>  = h * sum phi_i psi_i
    J_q(phi)    = |phi|^(q-1) sgn(phi)        (duality map, <J_q phi, phi> = ||phi||_q^q)
    [x, y]      = h * sum s_i y_i             (L^1 bracket, s_i aligned with x_i)

plus the piecewise-linear sign approximation gamma_eps, its convex primitive
Gamma0_eps (a C^1 approximation of |.| with Gamma0_eps(0) = sqrt(eps)/4), the
integrated functional Gamma_eps, and the truncation T_2(x) = min(|x|, 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, InvalidExponent

__all__ = [
    "Grid",
    "GridFunction",
    "FieldSeries",
    "lq_norm",
    "max_norm",
    "pairing",
    "jq_scalar",
    "duality_map",
    "bracket_l1",
    "gamma_eps",
    "big_gamma0",
    "big_gamma",
    "truncate_t2",
]


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on (0,1) with M nodes and spacing h = 1/(M+1)."""

    M: int

    def __post_init__(self):
        if self.M < 2:
            raise ValueError("grid needs M >= 2 interior nodes")

    @property
    def h(self) -> float:
        return 1.0 / (self.M + 1)

    @property
    def nodes(self) -> np.ndarray:
        return self.h * np.arange(1, self.M + 1)


@dataclass(frozen=True)
class GridFunction:
    """Values of an L^q(0,1) element at the interior nodes."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.M,):
            raise ValueError(f"expected {self.grid.M} values, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "GridFunction") -> "GridFunction":
        _same_grid(self, other)
        return GridFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFunction") -> "GridFunction":
        _same_grid(self, other)
        return GridFunction(self.grid, self.values - other.values)

    def __mul__(self, scalar: float) -> "GridFunction":
        return GridFunction(self.grid, self.values * float(scalar))

    __rmul__ = __mul__


class FieldSeries:
    """A time-indexed sequence of grid functions stored as one array.

    ``values[n]`` is the node vector at time index n; snapshots come back as
    :class:`GridFunction` via indexing.
    """

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != grid.M:
            raise ValueError("series must have shape (n_times, M)")
        self.grid = grid
        self.values = values
        self.values.flags.writeable = False

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, n: int) -> GridFunction:
        return GridFunction(self.grid, self.values[n])

    def __sub__(self, other: "FieldSeries") -> "FieldSeries":
        _same_grid(self, other)
        return FieldSeries(self.grid, self.values - other.values)

    def norms(self, q: float) -> np.ndarray:
        """lq_norm of every snapshot, vectorized over time."""
        if q < 1:
            raise InvalidExponent(f"q must be >= 1, got {q}")
        h = self.grid.h
        return (h * np.sum(np.abs(self.values) ** q, axis=1)) ** (1.0 / q)

    def sup_norm(self, q: float) -> float:
        """max over time of the snapshot L^q norms."""
        return float(np.max(self.norms(q)))


def _same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise GridMismatch(f"grids differ: M={a.grid.M} vs M={b.grid.M}")


def lq_norm(phi: GridFunction, q: float) -> float:
    """Discrete L^q norm (h * sum |phi_i|^q)^(1/q), q >= 1."""
    if q < 1:
        raise InvalidExponent(f"q must be >= 1, got {q}")
    return float((phi.grid.h * np.sum(np.abs(phi.values) ** q)) ** (1.0 / q))


def max_norm(phi: GridFunction) -> float:
    """sup-norm proxy max_i |phi_i|."""
    return float(np.max(np.abs(phi.values)))


def pairing(phi: GridFunction, psi: GridFunction) -> float:
    """Discrete duality form h * sum phi_i psi_i."""
    _same_grid(phi, psi)
    return float(phi.grid.h * np.dot(phi.values, psi.values))


def jq_scalar(x: float, q: float) -> float:
    """j_q(x) = |x|^(q-1) sgn(x); j_2 is the identity, j_1 = sgn with j_1(0)=0."""
    if q < 1:
        raise InvalidExponent(f"q must be >= 1, got {q}")
    if x == 0.0:
        return 0.0
    return float(abs(x) ** (q - 1.0) * np.sign(x))


def duality_map(phi: GridFunction, q: float) -> GridFunction:
    """Superposition J_q(phi) = j_q o phi, defined for q > 1.

    Pairs to <J_q phi, phi> = ||phi||_q^q and has dual norm
    ||J_q phi||_{q'} = ||phi||_q^{q-1} with q' = q/(q-1).
    """
    if q <= 1:
        raise InvalidExponent(f"duality map needs q > 1, got {q}")
    vals = phi.values
    return GridFunction(phi.grid, np.sign(vals) * np.abs(vals) ** (q - 1.0))


def bracket_l1(x: GridFunction, y: GridFunction) -> float:
    """L^1 bracket [x, y]: max of <s, y> over sign selections aligned with x.

    Where x_i != 0 the selection is forced to sgn(x_i); where x_i = 0 it is
    free and the maximum picks sgn(y_i), giving [0, y] = ||y||_1.
    """
    _same_grid(x, y)
    s = np.where(x.values != 0.0, np.sign(x.values), np.sign(y.values))
    return float(x.grid.h * np.dot(s, y.values))


def gamma_eps(x, eps: float):
    """Continuous piecewise-linear sign approximation.

    Slope 2/sqrt(eps) on [-sqrt(eps)/2, sqrt(eps)/2], equal to +-1 outside;
    odd, nondecreasing, values in [-1, 1].
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    x = np.asarray(x, dtype=float)
    out = np.clip(2.0 / np.sqrt(eps) * x, -1.0, 1.0)
    return float(out) if out.ndim == 0 else out


def big_gamma0(x, eps: float):
    """Convex C^1 approximation of |x| with derivative gamma_eps.

    Equals sqrt(eps)/4 + x^2/sqrt(eps) inside the transition band and |x|
    outside; deviation from |.| is at most sqrt(eps)/4, attained at 0.
    """
    if not eps > 0:
        raise ValueError("eps must be > 0")
    x = np.asarray(x, dtype=float)
    root = np.sqrt(eps)
    inside = np.abs(x) <= 0.5 * root
    out = np.where(inside, 0.25 * root + x * x / root, np.abs(x))
    return float(out) if out.ndim == 0 else out


def big_gamma(phi: GridFunction, eps: float) -> float:
    """Integrated approximation of ||phi||_1: h * sum Gamma0_eps(phi_i)."""
    return float(phi.grid.h * np.sum(big_gamma0(phi.values, eps)))


def truncate_t2(x):
    """T_2(x) = min(|x|, 2)."""
    x = np.asarray(x, dtype=float)
    out = np.minimum(np.abs(x), 2.0)
    return float(out) if out.ndim == 0 else out
