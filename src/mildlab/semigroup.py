"""Discrete Dirichlet Laplacian, its heat semigroup, resolvents, convolution.

The generator is the second-difference matrix A = (nu/h^2) tridiag(-1, 2, -1)
on the interior nodes, whose exact eigenpairs are

    mu_k = (4 nu / h^2) sin^2(k pi h / 2),      e_k(x_i) = sqrt(2) sin(k pi x_i),

orthonormal with respect to the h-weighted pairing.  The exact exp(-tA) is an
entrywise nonnegative sub-stochastic symmetric matrix, so positivity and
contraction in every L^q hold at the discrete level (the semigroup is
subMarkovian by construction, not by truncation of a continuum operator).
The built stepper has these properties only to rounding: entries the exact
operator makes tiny may come out a few ulps of its largest entry below zero
(tested).

The deterministic convolution (S*F)(t_n) integrates the semigroup factor
exactly on each substep while F is frozen at the left endpoint:

    contribution of [t_j, t_{j+1}):  Fhat_k(t_j) (1 - e^{-mu_k delta}) / mu_k
                                     * e^{-mu_k (t_n - t_{j+1})}.

Every operator acts modewise through one transform pair over arrays of shape
(..., M): to_modes is h sqrt(2) DST-I and from_modes sqrt(2) DST-I, both one
FFT kernel, _dst1, so their bits do not depend on the BLAS thread count and a
row has the same bits alone and inside a block (tested).  The operators below
take a GridFunction, check it with grid_space.same_grid, and apply the pair.

The time stepper instead multiplies by HeatSemigroup.stepper(delta), built per
call and fetched once per solve: v @ stepper(delta) is v exp(-delta A) for a
state or a block of states.  Every stepper is built from one cosine or sine
table and without the BLAS, so its bits do not depend on the BLAS thread
count at any M (tested).  Below SPLIT_FROM_M nodes the stepper is the dense
exp(-delta A) as a read-only (M, M) matrix from _sine_block.  From
SPLIT_FROM_M on it is a MirrorSplit: it uses that exp(-delta A) is symmetric
and commutes with the mirror x -> 1 - x, under which the odd-k modes are even
and the even-k modes odd (Cantoni & Butler 1976).  A state folds into its
mirror-even part on ceil(M/2) nodes and its mirror-odd part on floor(M/2)
nodes, each part is multiplied by its half and the results unfold, and the
dense matrix is never built.  A half is a half-size block (the two take half
the flops and bytes of the dense matrix) or, when the smoothing leaves fewer
than half of that parity's modes above MODE_CUTOFF, a rank-r factor pair
that steps those r modes only (at M = 511, delta = 2^-10, 33 of 256).
The stepper's products are BLAS products: a 1-D state and a row of a 2-D
block take different BLAS kernels and may differ in the last bits, so a
single state stays 1-D and a block of states stays one 2-D array.  At
M = 127, 384 and 511 a row has the same bits at every position of a block
of 2 to 8 rows, whatever its height (tested); where a half has 8j + 1
nodes, as at M = 385, rows past the fourth may differ in the last bit.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput, NegativeTime, require
from .grid_space import FieldSeries, Grid, GridFunction, same_grid

__all__ = ["HeatSemigroup", "apply_semigroup", "semigroup_series",
           "apply_resolvent", "apply_generator", "modal_recursion",
           "convolve_series", "MirrorSplit", "SPLIT_FROM_M", "MODE_CUTOFF"]

# Grid size from which HeatSemigroup.stepper splits exp(-delta A) into its
# mirror-even and mirror-odd halves.  Microseconds per step at
# delta = 2^-10, dense / split into half blocks / split into factor pairs
# (33 or 34 modes a half; 38 at M = 127, where _mirror_half would keep the
# blocks), best of 7 interleaved rounds of 300 steps (OpenBLAS 0.3.31 with
# 1 thread, numpy 2.4, 2-vCPU x86-64 guest):
#
#       M      1 row                  7 rows
#     127     4.7 / 14.5 / 18.4     10.1 /  26.1 /  30.8
#     255    13.7 / 18.7 / 19.7     40.0 /  43.0 /  36.2
#     319    20.6 / 23.9 / 22.5     61.3 /  54.6 /  40.5
#     383    27.4 / 24.1 / 23.4    105.8 /  49.1 /  38.6
#     447    39.8 / 23.0 / 16.1    147.5 /  72.7 /  36.7
#     511    57.1 / 29.0 / 17.1    194.2 /  89.7 /  40.9
#
# Seven rows (a study's lambda schedule) gain from M ~ 300, one row from
# M ~ 320-380 (runs vary); from 384 both gained in every run, with half
# blocks and more so with factor pairs.
SPLIT_FROM_M = 384

# A factor pair drops mode k when exp(-t mu_k) <= MODE_CUTOFF.  Such a mode
# adds h sum_j v_j e_k(x_j) exp(-t mu_k) e_k(x_i) to entry i of S(t) v, and
# |e_k| <= sqrt(2) with h M < 1 bound that by 2 MODE_CUTOFF ||v||_inf =
# 2^-59 ||v||_inf, under 1/64 of an ulp of ||v||_inf.
MODE_CUTOFF = 2.0**-60

_DST_ROWS = 64  # rows per FFT block of _dst1: a 0.5 MB pad and 0.5 MB spectrum at M = 511


class HeatSemigroup:
    """Eigen-decomposition of the discrete Dirichlet Laplacian on a grid."""

    def __init__(self, grid: Grid, nu: float = 1.0):
        require(nu, "> 0", "nu")
        self.grid = grid
        self.nu = float(nu)
        h = grid.h
        k = np.arange(1, grid.M + 1)
        self.eigenvalues = (4.0 * nu / h**2) * np.sin(0.5 * np.pi * k * h) ** 2
        self.eigenvalues.flags.writeable = False

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """Mode coefficients of node values, shape (..., M) to (..., M): h sum_i v_i e_k(x_i)."""
        return _dst1(values, self.grid.h * np.sqrt(2.0))

    def from_modes(self, coeffs: np.ndarray) -> np.ndarray:
        """Node values of mode coefficients, shape (..., M) to (..., M): sum_k c_k e_k(x_i)."""
        return _dst1(coeffs, np.sqrt(2.0))

    def stepper(self, t: float) -> np.ndarray | MirrorSplit:
        """The operator S(t) to step with: v @ stepper(t) is S(t) v for a state or a block.

        Below SPLIT_FROM_M nodes exp(-tA) as a read-only (M, M) matrix, from
        there on its MirrorSplit (module docstring).  Built on each call, so a
        caller fetches it once per solve; no state is shared between calls.
        t must be finite (ValueError) and >= 0 (NegativeTime).
        """
        _check_time(t)
        M = self.grid.M
        if M >= SPLIT_FROM_M:
            return MirrorSplit(self, t)
        out = _sine_block(self, t, np.arange(1, M + 1), M)
        out.flags.writeable = False
        return out


def _check_time(t: float | np.ndarray) -> None:
    """Reject a semigroup time, or any of an array of them, that is not finite or is negative."""
    if not np.all(np.isfinite(t)):
        raise ValueError(f"semigroup time must be finite, got {t}")
    if np.any(t < 0):
        raise NegativeTime(f"semigroup time must be >= 0, got {t}")


def _dst1(v: np.ndarray, scale: float) -> np.ndarray:
    """Scaled DST-I along the last axis: scale * sum_i v[..., i] sin(k (i+1) pi / (M+1)).

    A row of v fills entries 1..M of a zero row of length 2(M + 1); minus the
    imaginary part of its real FFT at k = 1..M is the DST-I (Makhoul 1980),
    its own inverse up to the factor (M + 1) / 2.  Rows share one zero pad, in
    blocks of at most _DST_ROWS.  Sign and scale are one product by -scale,
    bit-equal to scale * (-imag): negation is exact and products commute.
    """
    M = v.shape[-1]
    rows = v.reshape(-1, M)
    out = np.empty(rows.shape)
    pad = np.zeros((min(_DST_ROWS, len(rows)), 2 * (M + 1)))
    for start in range(0, len(rows), _DST_ROWS):
        stop = min(start + _DST_ROWS, len(rows))
        pad[:stop - start, 1:M + 1] = rows[start:stop]
        np.multiply(np.fft.rfft(pad[:stop - start])[:, 1:M + 1].imag, -scale, out=out[start:stop])
    return out.reshape(v.shape)


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
    """exp(-tA) as two halves, one per mirror parity: v @ split is S(t) v.

    v, of shape (M,) or (B, M), folds into v_i + v_{M-1-i} on ceil(M/2) nodes
    (the odd-k modes) and v_i - v_{M-1-i} on floor(M/2) nodes (the even-k
    modes).  Each fold is multiplied in turn by the operators of its half,
    even or odd: a tuple of the dense block, or of the factor pair
    (analysis, synthesis) that keeps only the modes S(t) has not damped below
    MODE_CUTOFF (_mirror_half).  The two results unfold into the mirror-even
    and mirror-odd parts of S(t) v.  For odd M the middle node folds to
    v_m + v_m, so its row of the even half's first operator is halved.
    """

    __array_ufunc__ = None  # so that ndarray @ split calls __rmatmul__

    def __init__(self, sg: HeatSemigroup, t: float):
        M = sg.grid.M
        self.even = _mirror_half(sg, t, np.arange(1, M + 1, 2), (M + 1) // 2)
        self.odd = _mirror_half(sg, t, np.arange(2, M + 1, 2), M // 2)
        if M % 2:
            self.even[0][M // 2] *= 0.5
        for op in self.even + self.odd:
            op.flags.writeable = False

    def __rmatmul__(self, v: np.ndarray) -> np.ndarray:
        n, m = self.even[0].shape[0], self.odd[0].shape[0]
        mirrored = v[..., ::-1]
        ys = v[..., :n] + mirrored[..., :n]
        for op in self.even:
            ys = ys @ op
        ya = v[..., :m] - mirrored[..., :m]
        for op in self.odd:
            ya = ya @ op
        return np.concatenate((ys[..., :m] + ya, ys[..., m:], (ys[..., :m] - ya)[..., ::-1]),
                              axis=-1)


def _mirror_half(sg: HeatSemigroup, t: float, k: np.ndarray,
                 size: int) -> tuple[np.ndarray, ...]:
    """The operators one mirror half applies in turn: its dense block, or a factor pair.

    r counts the modes k with exp(-mu_k t) > MODE_CUTOFF.  The pair
    (analysis, synthesis) = (h B diag(exp(-mu_k t)), B^T), with
    B[i, k] = e_k(x_i) over those r modes, holds 2 r size entries against
    size^2 for the block from _sine_block, and a product costs in
    proportion, so the pair is taken when 2 r < size.  B is read off one
    sine table at k (i + 1) mod 2(M + 1), so no argument exceeds 2 pi and
    no BLAS product enters.
    """
    kept = k[np.exp(-sg.eigenvalues[k - 1] * t) > MODE_CUTOFF]
    if 2 * kept.size >= size:
        return (_sine_block(sg, t, k, size),)
    M = sg.grid.M
    period = 2 * (M + 1)
    sines = np.sqrt(2.0) * np.sin(np.arange(period) * (np.pi / (M + 1)))
    basis = sines[np.outer(np.arange(1, size + 1), kept) % period]
    analysis = basis * (sg.grid.h * np.exp(-sg.eigenvalues[kept - 1] * t))
    # row-major: 7-row steps are 14% faster, and a row's bits do not depend on the
    # block's height (a column-major synthesis gave 2-4 and 5-8 rows other bits)
    return analysis, np.ascontiguousarray(basis.T)


def apply_semigroup(sg: HeatSemigroup, phi: GridFunction, t: float) -> GridFunction:
    """S(t) phi: semigroup_series at the one time t; S(0) is the exact identity, phi itself."""
    series = semigroup_series(sg, phi, np.array([t], dtype=float))
    return phi if t == 0.0 else series[0]


def semigroup_series(sg: HeatSemigroup, phi: GridFunction,
                     times: np.ndarray) -> FieldSeries:
    """S(t_n) phi for every t_n in ``times``, one snapshot per time."""
    _check_time(times)
    same_grid(phi, sg)
    coeffs = np.exp(-np.outer(times, sg.eigenvalues)) * sg.to_modes(phi.values)
    return FieldSeries(sg.grid, sg.from_modes(coeffs))


def apply_resolvent(sg: HeatSemigroup, phi: GridFunction, eps: float) -> GridFunction:
    """(I + eps A)^{-1} phi: modewise division by 1 + eps mu_k."""
    require(eps, "> 0", "eps")
    same_grid(phi, sg)
    coeffs = sg.to_modes(phi.values) / (1.0 + eps * sg.eigenvalues)
    return GridFunction(sg.grid, sg.from_modes(coeffs))


def apply_generator(sg: HeatSemigroup, phi: GridFunction) -> GridFunction:
    """A phi by the second-difference stencil (zero Dirichlet boundary)."""
    same_grid(phi, sg)
    v = phi.values
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
    np.multiply(weight, x, out=out[1:])
    for n in range(x.shape[0]):
        out[n + 1] += decay * out[n]
    return out


def convolve_series(sg: HeatSemigroup, fields: FieldSeries, delta: float) -> FieldSeries:
    """(S*F)(t_n) for every n on the uniform time grid t_n = n*delta.

    Uses the one-step recursion equivalent to the substep-exact kernels:
    Chat(t_{n+1}) = e^{-mu delta} Chat(t_n) + Fhat(t_n)(1 - e^{-mu delta})/mu.
    """
    require(delta, "> 0", "delta")
    same_grid(fields, sg)
    if len(fields) == 0:
        raise EmptyInput("convolution needs at least one field")
    fhat = sg.to_modes(fields.values)
    decay = np.exp(-sg.eigenvalues * delta)
    weight = (1.0 - decay) / sg.eigenvalues
    chat = modal_recursion(decay, weight, fhat[:-1])
    return FieldSeries(sg.grid, sg.from_modes(chat))
