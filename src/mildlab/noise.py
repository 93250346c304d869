"""Exact-in-distribution sampling of the stochastic convolution z = S<>B.

With a diffusion coefficient acting diagonally on the heat eigenbasis with
weights b_k, the stochastic convolution decouples into independent scalar
Ornstein-Uhlenbeck processes, one per mode, sampled exactly at the grid
times by

    zhat_k(t_{n+1}) = e^{-mu_k delta} zhat_k(t_n)
                      + b_k sqrt((1 - e^{-2 mu_k delta}) / (2 mu_k)) xi_{k,n},

with xi i.i.d. standard normal.  No Euler-Maruyama bias: every marginal is
the exact centered Gaussian with variance b_k^2 (1 - e^{-2 mu_k t}) / (2 mu_k).

Randomness contract: the normals for a path are the single counter-based
Philox stream keyed by the path seed, drawn as one (n_steps, M) block in
row-major (step, mode) order.  Ensembles derive per-path seeds from the
master seed via numpy's SeedSequence, so results do not depend on sampling
order or worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .atomic import atomic_write_text, atomic_writer, json_text
from .errors import InvalidTimeGrid, require
from .grid_space import FieldSeries, Grid
from .semigroup import HeatSemigroup, modal_recursion

__all__ = [
    "DiffusionSpec",
    "NoisePath",
    "path_seeds",
    "sample_path",
    "time_steps",
    "restrict_path",
    "norm_ld_lqd",
    "export_series_csv",
    "export_noise_sidecar",
    "load_sidecar_and_resample",
]


@dataclass(frozen=True)
class DiffusionSpec:
    """Diagonal mode weights b_k, explicit or b_k = c * k^(-gamma)."""

    c: float = 1.0
    gamma: float = 1.0
    weights: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.weights is None:
            require(self.c, ">= 0", "c")
            require(self.gamma, ">= 0", "gamma")
        else:
            require(self.weights, ">= 0", "weights")

    def mode_weights(self, M: int) -> np.ndarray:
        if self.weights is not None:
            if len(self.weights) != M:
                raise ValueError(f"need {M} weights, got {len(self.weights)}")
            return np.asarray(self.weights, dtype=float)
        k = np.arange(1, M + 1, dtype=float)
        return self.c * k ** (-self.gamma)

    def to_dict(self) -> dict:
        if self.weights is not None:
            return {"weights": list(self.weights)}
        return {"c": self.c, "gamma": self.gamma}

    @classmethod
    def from_dict(cls, data: dict) -> "DiffusionSpec":
        """Inverse of :meth:`to_dict`; a missing c or gamma takes its default."""
        if "weights" in data:
            return cls(weights=tuple(data["weights"]))
        return cls(**data)


class NoisePath:
    """One realized stochastic-convolution path on the time grid.

    Mode trajectories are the primary record; physical snapshots are the
    eigenbasis assembly of the modes, materialized lazily and cached.
    """

    def __init__(self, sg: HeatSemigroup, spec: DiffusionSpec, T: float,
                 delta: float, seed: int, mode_values: np.ndarray):
        self.sg = sg
        self.grid: Grid = sg.grid
        self.spec = spec
        self.T = float(T)
        self.delta = float(delta)
        self.seed = int(seed)
        self.mode_values = mode_values  # (n_steps + 1, M)
        self.mode_values.flags.writeable = False
        self._fields: Optional[FieldSeries] = None

    @property
    def n_steps(self) -> int:
        return self.mode_values.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.delta * np.arange(self.n_steps + 1)

    @property
    def fields(self) -> FieldSeries:
        """Physical snapshots z(t_n) assembled from the mode trajectories."""
        if self._fields is None:
            self._fields = FieldSeries(self.grid, self.sg.from_modes(self.mode_values))
        return self._fields


def time_steps(T: float, delta: float) -> int:
    """The number n >= 1 of steps of delta to T, within 1e-9 T; else InvalidTimeGrid."""
    if not (T > 0 and delta > 0 and np.isfinite(T / delta)):
        raise InvalidTimeGrid(f"need T > 0, delta > 0 and T/delta finite: T={T}, delta={delta}")
    n = round(T / delta)
    if n < 1 or abs(n * delta - T) > 1e-9 * T:
        raise InvalidTimeGrid(f"delta={delta} does not divide T={T}")
    return n


def path_seeds(master_seed: int, n_paths: int) -> np.ndarray:
    """Per-path seeds derived from the master seed (documented scheme)."""
    return np.random.SeedSequence(master_seed).generate_state(n_paths, dtype=np.uint64)


def sample_path(sg: HeatSemigroup, spec: DiffusionSpec, T: float, delta: float,
                seed: int) -> NoisePath:
    """Sample one path; deterministic given (sg, spec, T, delta, seed)."""
    n_steps = time_steps(T, delta)
    mu = sg.eigenvalues
    decay = np.exp(-mu * delta)
    sigma = spec.mode_weights(sg.grid.M) * np.sqrt(
        (1.0 - np.exp(-2.0 * mu * delta)) / (2.0 * mu))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    xi = rng.standard_normal((n_steps, sg.grid.M))
    return NoisePath(sg, spec, T, delta, seed, modal_recursion(decay, sigma, xi))


def restrict_path(path: NoisePath, factor: int) -> NoisePath:
    """The same realized path on a time grid coarsened by an integer factor.

    The exact one-step recursion composes, so every factor-th snapshot of a
    fine path is an exact sample on the coarse grid driven by the same
    underlying Wiener path; this is what refinement studies must use.  The
    result is a derived path: its (seed, delta) pair does not regenerate it
    via :func:`sample_path`.
    """
    if factor < 1 or path.n_steps % factor != 0:
        raise InvalidTimeGrid(f"factor {factor} does not divide {path.n_steps} steps")
    return NoisePath(path.sg, path.spec, path.T, path.delta * factor, path.seed,
                     path.mode_values[::factor].copy())


def norm_ld_lqd(path: NoisePath, d: float, q: float) -> float:
    """(sum_n delta * ||z(t_n)||_{q d}^d)^(1/d), left-endpoint rule; 0 if d = 0.

    The time sum runs over the left endpoints t_0 .. t_{N-1}.
    """
    require(d, ">= 0", "d")
    require(q, ">= 1", "q")
    if d == 0:
        return 0.0
    norms = path.fields.norms(q * d)[:-1]
    return float((path.delta * np.sum(norms**d)) ** (1.0 / d))


# -- export / regeneration ----------------------------------------------------


def export_series_csv(fields: FieldSeries, times: np.ndarray, dest: Path) -> None:
    """Write a field series as CRLF rows (time, node, value), 17 significant digits.

    Only `mildlab sample-noise` writes CSV series (`solve` writes u as .npy).
    Each snapshot fills one %-template of all M rows from its (time, value)
    pairs.  Snapshots stream into a temp file that replaces dest only once
    complete.
    """
    vals = fields.values
    M = vals.shape[1]
    template = "".join(f"%s,{i + 1},%.17g\r\n" for i in range(M))
    pairs: list = [None] * (2 * M)
    with atomic_writer(dest) as fh:
        fh.write("time,node,value\r\n")
        for n in range(vals.shape[0]):
            pairs[0::2] = [f"{times[n]:.17g}"] * M
            pairs[1::2] = vals[n].tolist()
            fh.write(template % tuple(pairs))


def export_noise_sidecar(path: NoisePath, dest: Path) -> None:
    """JSON sidecar sufficient to regenerate the path bit-identically."""
    sidecar = {
        "seed": path.seed,
        "noise": path.spec.to_dict(),
        "grid": {"M": path.grid.M, "nu": path.sg.nu},
        "time": {"T": path.T, "delta": path.delta},
    }
    atomic_write_text(dest, json_text(sidecar))


def load_sidecar_and_resample(src: Path) -> NoisePath:
    """Regenerate the path described by a sidecar written by this module."""
    meta = json.loads(Path(src).read_text())
    grid = Grid(int(meta["grid"]["M"]))
    sg = HeatSemigroup(grid, float(meta["grid"]["nu"]))
    spec = DiffusionSpec.from_dict(meta["noise"])
    return sample_path(sg, spec, float(meta["time"]["T"]),
                       float(meta["time"]["delta"]), int(meta["seed"]))
