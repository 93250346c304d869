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

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .atomic import atomic_write_text, atomic_writer
from .errors import InvalidTimeGrid
from .grid_space import FieldSeries, Grid
from .semigroup import HeatSemigroup

__all__ = [
    "DiffusionSpec",
    "NoisePath",
    "path_seeds",
    "sample_path",
    "sample_mode_ensemble",
    "restrict_path",
    "norm_c_lq",
    "norm_ld_lqd",
    "export_series_csv",
    "export_noise_csv",
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
            if self.c < 0:
                raise ValueError("amplitude c must be >= 0")
            if self.gamma < 0:
                raise ValueError("smoothness gamma must be >= 0")
        else:
            w = np.asarray(self.weights, dtype=float)
            if not np.all(np.isfinite(w)) or np.any(w < 0):
                raise ValueError("explicit weights must be finite and >= 0")

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
            self._fields = FieldSeries(self.grid, self.mode_values @ self.sg.basis.T)
        return self._fields


def _steps(T: float, delta: float) -> int:
    if not (T > 0 and delta > 0):
        raise InvalidTimeGrid("need T > 0 and delta > 0")
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
    n_steps = _steps(T, delta)
    mu = sg.eigenvalues
    decay = np.exp(-mu * delta)
    sigma = spec.mode_weights(sg.grid.M) * np.sqrt(
        (1.0 - np.exp(-2.0 * mu * delta)) / (2.0 * mu))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    xi = rng.standard_normal((n_steps, sg.grid.M))
    modes = np.zeros((n_steps + 1, sg.grid.M))
    for n in range(n_steps):
        modes[n + 1] = decay * modes[n] + sigma * xi[n]
    return NoisePath(sg, spec, T, delta, seed, modes)


def sample_mode_ensemble(sg: HeatSemigroup, spec: DiffusionSpec, T: float,
                         delta: float, seeds: Sequence[int],
                         keep: Optional[Sequence[int]] = None) -> np.ndarray:
    """Mode trajectories for many seeds, shape (n_paths, n_times, M).

    Every time index 0..n_steps is returned unless ``keep`` lists the time
    indices to retain, in ascending order (memory control for large Monte
    Carlo sweeps); an index outside [0, n_steps] raises InvalidTimeGrid.
    Each path is exactly the one :func:`sample_path` returns for its seed.
    """
    n_steps = _steps(T, delta)
    if keep is None:
        idx = np.arange(n_steps + 1)
    else:
        idx = np.sort(np.asarray(keep, dtype=int))
        if idx.size and (idx[0] < 0 or idx[-1] > n_steps):
            raise InvalidTimeGrid(f"keep indices must lie in [0, {n_steps}]")
    out = np.empty((len(seeds), len(idx), sg.grid.M))
    for p, seed in enumerate(seeds):
        out[p] = sample_path(sg, spec, T, delta, int(seed)).mode_values[idx]
    return out


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


def norm_c_lq(path: NoisePath, q: float) -> float:
    """max over grid times of ||z(t_n)||_q."""
    return path.fields.sup_norm(q)


def norm_ld_lqd(path: NoisePath, d: float, q: float) -> float:
    """(sum_n delta * ||z(t_n)||_{q d}^d)^(1/d), left-endpoint rule; 0 if d = 0.

    The time sum runs over the left endpoints t_0 .. t_{N-1}.
    """
    if d < 0:
        raise ValueError("time exponent d must be >= 0")
    if q < 1:
        raise ValueError("space exponent q must be >= 1")
    if d == 0:
        return 0.0
    norms = path.fields.norms(q * d)[:-1]
    return float((path.delta * np.sum(norms**d)) ** (1.0 / d))


# -- export / regeneration ----------------------------------------------------


def export_series_csv(fields: FieldSeries, times: np.ndarray, dest: Path) -> None:
    """Write a field series as rows (time, node, value), 17 significant digits.

    Rows stream into a temp file that replaces dest only once complete.
    """
    with atomic_writer(dest) as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "node", "value"])
        vals = fields.values
        for n in range(vals.shape[0]):
            t = f"{times[n]:.17g}"
            for i in range(vals.shape[1]):
                writer.writerow([t, i + 1, f"{vals[n, i]:.17g}"])


def export_noise_csv(path: NoisePath, dest: Path) -> None:
    """Write the path's physical snapshots as (time, node, value) rows."""
    export_series_csv(path.fields, path.times, dest)


def export_noise_sidecar(path: NoisePath, dest: Path) -> None:
    """JSON sidecar sufficient to regenerate the path bit-identically."""
    sidecar = {
        "seed": path.seed,
        "noise": path.spec.to_dict(),
        "grid": {"M": path.grid.M, "nu": path.sg.nu},
        "time": {"T": path.T, "delta": path.delta},
    }
    atomic_write_text(dest, json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def load_sidecar_and_resample(src: Path) -> NoisePath:
    """Regenerate the path described by a sidecar written by this module."""
    meta = json.loads(Path(src).read_text())
    grid = Grid(int(meta["grid"]["M"]))
    sg = HeatSemigroup(grid, float(meta["grid"]["nu"]))
    noise = meta["noise"]
    if "weights" in noise:
        spec = DiffusionSpec(weights=tuple(noise["weights"]))
    else:
        spec = DiffusionSpec(c=float(noise["c"]), gamma=float(noise["gamma"]))
    return sample_path(sg, spec, float(meta["time"]["T"]),
                       float(meta["time"]["delta"]), int(meta["seed"]))
