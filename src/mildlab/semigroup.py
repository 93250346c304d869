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
(..., M): to_modes is h sqrt(2) DST-I and from_modes sqrt(2) DST-I, both one
FFT kernel, _dst1, so their bits do not depend on the BLAS thread count and a
row has the same bits alone and inside a block (tested).  The operators below
take a GridFunction, check its grid, and apply the pair to its values.

The time stepper instead multiplies by HeatSemigroup.stepper(delta), one
cached operator per delta: v @ stepper(delta) is v exp(-delta A) for a state
or a block of states.  Every stepper is built by one kernel, _sine_block,
from a cosine table by the product-to-sum identity and without the BLAS, so
its bits do not depend on the BLAS thread count at any M (tested).  Below
SPLIT_FROM_M nodes the stepper is the dense exp(-delta A) as a read-only
(M, M) matrix.  From SPLIT_FROM_M on it is a MirrorSplit: it uses that
exp(-delta A) is symmetric and commutes with the mirror x -> 1 - x, under
which the odd-k modes are even and the even-k modes odd (Cantoni & Butler
1976).  A state folds into its mirror-even part on ceil(M/2) nodes and its
mirror-odd part on floor(M/2) nodes, each part is multiplied by a half-size
block and the results unfold.  That is half the flops and half the matrix
bytes, and the dense matrix is never built.
The stepper's products are BLAS products: a 1-D state and a row of a 2-D
block take different BLAS kernels and may differ in the last bits, so a
single state stays 1-D and a block of states stays one 2-D array.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import EmptyInput, GridMismatch, NegativeTime
from .grid_space import FieldSeries, Grid, GridFunction

__all__ = ["HeatSemigroup", "apply_semigroup", "semigroup_series",
           "apply_resolvent", "apply_generator", "modal_recursion",
           "convolve_series", "MirrorSplit", "SPLIT_FROM_M"]

# Grid size from which HeatSemigroup.stepper splits exp(-delta A) into its
# mirror-even and mirror-odd half blocks.  Microseconds per step at
# delta = 2^-10, dense / split, best of 5 interleaved rounds of 300 steps
# (OpenBLAS 0.3.31 with 1 thread, numpy 2.4, 2-vCPU x86-64 guest):
#
#       M      1 row            7 rows
#     127     4.3 /  12.4     8.9 /  21.8
#     255    11.9 /  16.4    35.3 /  35.1
#     319    17.9 /  16.1    50.7 /  40.0
#     383    27.3 /  25.1   117.0 /  63.6
#     447    40.8 /  32.1   153.0 /  85.7
#     511    60.1 /  32.5   219.2 /  97.8
#
# Seven rows (a study's lambda schedule) gain from M ~ 300, one row from
# M ~ 320-380 (runs vary); from 384 both gained in every run.
SPLIT_FROM_M = 384


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
        self.eigenvalues.flags.writeable = False
        self._steppers: dict[float, np.ndarray | MirrorSplit] = {}
        self._cache_lock = threading.Lock()

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Mode coefficients of node values, shape (..., M) to (..., M): h sum_i v_i e_k(x_i)."""
        return (self.grid.h * np.sqrt(2.0)) * _dst1(values)

    def from_modes(self, coeffs: np.ndarray) -> np.ndarray:
        """Node values of mode coefficients, shape (..., M) to (..., M): sum_k c_k e_k(x_i)."""
        return np.sqrt(2.0) * _dst1(coeffs)

    def stepper(self, t: float) -> np.ndarray | MirrorSplit:
        """The operator S(t) to step with: v @ stepper(t) is S(t) v for a state or a block.

        Below SPLIT_FROM_M nodes exp(-tA) as a read-only (M, M) matrix, from
        there on its MirrorSplit (module docstring).  Built on first use for
        each t and cached.  Threads may share a semigroup, so the first use is
        locked: every caller gets the one operator.
        """
        with self._cache_lock:
            out = self._steppers.get(t)
            if out is None:
                M = self.grid.M
                if M < SPLIT_FROM_M:
                    out = _sine_block(self, t, np.arange(1, M + 1), M)
                    out.flags.writeable = False
                else:
                    out = MirrorSplit(self, t)
                self._steppers[t] = out
        return out

    def _require(self, phi: GridFunction) -> np.ndarray:
        if phi.grid != self.grid:
            raise GridMismatch("grid function does not live on the semigroup grid")
        return phi.values


def _dst1(v: np.ndarray) -> np.ndarray:
    """DST-I along the last axis: out[..., k-1] = sum_i v[..., i] sin(k (i+1) pi / (M+1)).

    v fills entries 1..M of a zero row of length 2(M + 1); minus the
    imaginary part of its real FFT at k = 1..M is the DST-I (Makhoul 1980),
    which is its own inverse up to the factor (M + 1) / 2.
    """
    M = v.shape[-1]
    padded = np.zeros(v.shape[:-1] + (2 * (M + 1),))
    padded[..., 1:M + 1] = v
    return -np.fft.rfft(padded)[..., 1:M + 1].imag


def _sine_block(sg: HeatSemigroup, t: float, k: np.ndarray, size: int) -> np.ndarray:
    """sum_k h exp(-mu_k t) e_k(x_i) e_k(x_j) over the modes k, for i, j < size.

    By 2 sin(a) sin(b) = cos(a - b) - cos(a + b), entry (i, j) is
    c(i - j) - c(i + j + 2), where c(n) sums h exp(-mu_k t) cos(k n pi h)
    over k.  Each cosine is read off one table at k n mod 2(M + 1), so no
    argument exceeds 2 pi, and no BLAS product enters.  Over k = 1..M and
    size M it is exp(-tA) itself.
    """
    M = sg.grid.M
    period = 2 * (M + 1)
    cosines = np.cos(np.arange(period) * (np.pi / (M + 1)))
    weights = sg.grid.h * np.exp(-sg.eigenvalues * t)
    c = (cosines[np.outer(np.arange(2 * size + 1), k) % period] * weights[k - 1]).sum(axis=1)
    i = np.arange(size)[:, None]
    return c[np.abs(i - i.T)] - c[i + i.T + 2]


class MirrorSplit:
    """exp(-tA) as two half blocks, one per mirror parity: v @ split is S(t) v.

    v, of shape (M,) or (B, M), folds into v_i + v_{M-1-i} on ceil(M/2) nodes
    (the odd-k modes) and v_i - v_{M-1-i} on floor(M/2) nodes (the even-k
    modes).  Each fold is multiplied by its block (_sine_block over its k),
    and the two results unfold into the mirror-even and mirror-odd parts of
    S(t) v.  For odd M the middle node folds to v_m + v_m, so its row of the
    even block is halved.
    """

    __array_ufunc__ = None  # so that ndarray @ split calls __rmatmul__

    def __init__(self, sg: HeatSemigroup, t: float):
        M = sg.grid.M
        self.even = _sine_block(sg, t, np.arange(1, M + 1, 2), (M + 1) // 2)
        self.odd = _sine_block(sg, t, np.arange(2, M + 1, 2), M // 2)
        if M % 2:
            self.even[M // 2] *= 0.5
        self.even.flags.writeable = self.odd.flags.writeable = False

    def __rmatmul__(self, v: np.ndarray) -> np.ndarray:
        n, m = self.even.shape[0], self.odd.shape[0]
        mirrored = v[..., ::-1]
        ys = (v[..., :n] + mirrored[..., :n]) @ self.even
        ya = (v[..., :m] - mirrored[..., :m]) @ self.odd
        head = ys[..., :m]
        return np.concatenate([head + ya, ys[..., m:], (head - ya)[..., ::-1]], axis=-1)


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
