"""Fast cross-module invariant battery for the check-invariants subcommand.

Every check is a named measurement of a worst-case violation against a fixed
tolerance; the battery is deterministic given its seed and sized to finish
well under a minute on the default grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..grid_space import (Grid, GridFunction, big_gamma, big_gamma0, bracket_l1,
                          duality_map, gamma_eps, lq_norm, pairing)
from ..noise import DiffusionSpec, sample_path
from ..scalar_monotone import (ROOT_TOL, TEST_DRIFTS, resolvent_array,
                               section_min_abs, yosida_array,
                               yosida_of_yosida_array, zero_graph)
from ..semigroup import (HeatSemigroup, apply_generator, apply_semigroup,
                         apply_resolvent, from_modes, to_modes)
from ..solver import solve_regularized

__all__ = ["InvariantCheck", "run_invariant_battery"]


@dataclass
class InvariantCheck:
    name: str
    violation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.violation <= self.tolerance


def _scalar_checks(rng, n_samples: int) -> list[InvariantCheck]:
    checks = []
    x = rng.uniform(-5.0, 5.0, n_samples)
    y = rng.uniform(-5.0, 5.0, n_samples)
    lams = rng.uniform(1e-3, 1.0, n_samples)
    mus = rng.uniform(1e-3, 1.0, n_samples)
    for name, f in TEST_DRIFTS().items():
        rx = resolvent_array(f, 0.5, x)
        ry = resolvent_array(f, 0.5, y)
        fx = (x - rx) / 0.5
        fy = (y - ry) / 0.5
        checks.append(InvariantCheck(
            f"resolvent_contraction[{name}]",
            float(np.max(np.abs(rx - ry) - np.abs(x - y))), 10 * ROOT_TOL))
        checks.append(InvariantCheck(
            f"yosida_lipschitz[{name}]",
            float(np.max(np.abs(fx - fy) - np.abs(x - y) / 0.5)), 10 * ROOT_TOL / 0.5))
        checks.append(InvariantCheck(
            f"yosida_monotone[{name}]",
            float(np.max(-(fx - fy) * (x - y))), 10 * ROOT_TOL))
        # identity: x - y = R_lam x - R_mu y + lam f_lam(x) - mu f_mu(y)
        rlx = np.array([resolvent_array(f, l, np.asarray([xx]))[0]
                        for l, xx in zip(lams[:200], x[:200])])
        rmy = np.array([resolvent_array(f, m, np.asarray([yy]))[0]
                        for m, yy in zip(mus[:200], y[:200])])
        flx = (x[:200] - rlx) / lams[:200]
        fmy = (y[:200] - rmy) / mus[:200]
        ident = (x[:200] - y[:200]) - (rlx - rmy + lams[:200] * flx - mus[:200] * fmy)
        checks.append(InvariantCheck(
            f"resolvent_identity[{name}]", float(np.max(np.abs(ident))), 10 * ROOT_TOL))
        lower = (flx - fmy) * (x[:200] - y[:200]) - (flx - fmy) * (
            lams[:200] * flx - mus[:200] * fmy)
        chain = (flx - fmy) * (lams[:200] * flx - mus[:200] * fmy) + (
            lams[:200] + mus[:200]) * (flx**2 + fmy**2)
        checks.append(InvariantCheck(
            f"yosida_product_lower_bound[{name}]",
            float(max(np.max(-lower), np.max(-chain))), 10 * ROOT_TOL))
        comp = yosida_of_yosida_array(f, 0.25, 0.125, x[:200])
        direct = yosida_array(f, 0.375, x[:200])
        checks.append(InvariantCheck(
            f"yosida_semigroup_property[{name}]",
            float(np.max(np.abs(comp - direct))), 10 * ROOT_TOL))
        dom = np.abs(yosida_array(f, 0.5, x)) - np.abs(section_min_abs(f, x))
        checks.append(InvariantCheck(
            f"yosida_domination[{name}]", float(np.max(dom)), 10 * ROOT_TOL))
    return checks


def _lemma_checks(rng, n_samples: int) -> list[InvariantCheck]:
    checks = []
    x = rng.uniform(0.0, 4.0, n_samples)
    y = rng.uniform(0.0, 4.0, n_samples)
    a = rng.uniform(0.0, 1.0, n_samples)
    lo = 2.0 ** (a - 1.0) * (x**a + y**a) - (x + y) ** a
    hi = (x + y) ** a - (x**a + y**a)
    checks.append(InvariantCheck("power_sum_concave_chain",
                                 float(max(np.max(lo), np.max(hi))), 1e-12))
    b = rng.uniform(1.0, 8.0, n_samples)
    lo = (x**b + y**b) - (x + y) ** b
    hi = (x + y) ** b - 2.0 ** (b - 1.0) * (x**b + y**b)
    checks.append(InvariantCheck("power_sum_convex_chain",
                                 float(max(np.max(lo), np.max(hi))), 1e-12))
    u = rng.uniform(-4.0, 4.0, n_samples)
    v = rng.uniform(-4.0, 4.0, n_samples)
    for q in (1.1, 1.5, 2.0):
        jq = lambda t: np.sign(t) * np.abs(t) ** (q - 1.0)
        viol = np.abs(jq(u) - jq(v)) - 2.0 ** (2.0 - q) * np.abs(u - v) ** (q - 1.0)
        checks.append(InvariantCheck(f"jq_holder_constant[q={q}]",
                                     float(np.max(viol)), 1e-12))
    return checks


def _grid_checks(rng, grid: Grid) -> list[InvariantCheck]:
    checks = []
    phi = GridFunction(grid, rng.standard_normal(grid.M))
    psi = GridFunction(grid, rng.standard_normal(grid.M))
    for q in (1.5, 2.0, 3.0):
        jphi = duality_map(phi, q)
        qp = q / (q - 1.0)
        checks.append(InvariantCheck(
            f"duality_pairing_identity[q={q}]",
            abs(pairing(jphi, phi) - lq_norm(phi, q) ** q), 1e-10))
        checks.append(InvariantCheck(
            f"duality_norm_identity[q={q}]",
            abs(lq_norm(jphi, qp) - lq_norm(phi, q) ** (q - 1.0)), 1e-10))
    checks.append(InvariantCheck(
        "bracket_self", abs(bracket_l1(phi, phi) - lq_norm(phi, 1.0)), 1e-12))
    zero = GridFunction(grid, np.zeros(grid.M))
    checks.append(InvariantCheck(
        "bracket_free_selection", abs(bracket_l1(zero, psi) - lq_norm(psi, 1.0)), 1e-12))
    for name, f in TEST_DRIFTS().items():
        worst = 0.0
        for _ in range(50):
            a = GridFunction(grid, rng.standard_normal(grid.M))
            b = GridFunction(grid, rng.standard_normal(grid.M))
            fa = GridFunction(grid, f.mid_values(a.values))
            fb = GridFunction(grid, f.mid_values(b.values))
            worst = max(worst, -bracket_l1(a - b, fa - fb))
        checks.append(InvariantCheck(f"superposition_accretive[{name}]", worst, 1e-12))
    for eps in (1.0, 1e-2, 1e-4):
        xs = rng.uniform(-2.0, 2.0, 1000)
        g0 = big_gamma0(xs, eps)
        checks.append(InvariantCheck(
            f"gamma0_dominates_abs[eps={eps}]", float(np.max(np.abs(xs) - g0)), 1e-12))
        checks.append(InvariantCheck(
            f"gamma0_deviation[eps={eps}]",
            float(np.max(g0 - np.abs(xs)) - np.sqrt(eps) / 4.0), 1e-12))
        dev = big_gamma(phi, eps) - lq_norm(phi, 1.0)
        checks.append(InvariantCheck(
            f"gamma_functional_bound[eps={eps}]",
            max(-dev, dev - np.sqrt(eps) / 4.0), 1e-12))
    return checks


def _semigroup_checks(rng, sg: HeatSemigroup, n_inputs: int) -> list[InvariantCheck]:
    checks = []
    grid = sg.grid
    worst_id = worst_comp = worst_pos = worst_acc = worst_bs = 0.0
    worst_contr = {q: 0.0 for q in (1.0, 1.5, 2.0, 3.0)}
    for _ in range(n_inputs):
        phi = GridFunction(grid, rng.standard_normal(grid.M))
        worst_id = max(worst_id, float(np.max(np.abs(
            apply_semigroup(sg, phi, 0.0).values - phi.values))))
        s, t = rng.uniform(0.0, 0.3, 2)
        comp = apply_semigroup(sg, apply_semigroup(sg, phi, s), t)
        both = apply_semigroup(sg, phi, s + t)
        worst_comp = max(worst_comp, float(np.max(np.abs(comp.values - both.values))))
        for q in worst_contr:
            worst_contr[q] = max(worst_contr[q],
                                 lq_norm(apply_semigroup(sg, phi, t), q) - lq_norm(phi, q))
        pos = GridFunction(grid, np.abs(phi.values))
        worst_pos = max(worst_pos, -float(np.min(apply_semigroup(sg, pos, t).values)))
        aphi = apply_generator(sg, phi)
        for q in (1.5, 2.0, 3.0):
            worst_acc = max(worst_acc, -pairing(aphi, duality_map(phi, q)))
        for eps in (1.0, 1e-2, 1e-4):
            gam = GridFunction(grid, gamma_eps(phi.values, eps))
            worst_bs = max(worst_bs, -pairing(aphi, gam))
    checks.append(InvariantCheck("semigroup_identity_at_zero", worst_id, 1e-12))
    checks.append(InvariantCheck("semigroup_composition", worst_comp, 1e-10))
    for q, w in worst_contr.items():
        checks.append(InvariantCheck(f"semigroup_contraction[q={q}]", w, 1e-10))
    checks.append(InvariantCheck("semigroup_positivity", worst_pos, 1e-12))
    checks.append(InvariantCheck("generator_accretive_duality", worst_acc, 1e-10))
    checks.append(InvariantCheck("generator_sign_condition", worst_bs, 1e-10))
    # smooth probe: the eps*mu_k error is then dominated by the low modes
    smooth = GridFunction(grid, np.sin(np.pi * grid.nodes)
                          + 0.3 * np.sin(3.0 * np.pi * grid.nodes))
    res = apply_resolvent(sg, smooth, 1e-8)
    resolvent_err = float(np.max(np.abs(res.values - smooth.values)))
    checks.append(InvariantCheck("resolvent_small_eps_limit", resolvent_err, 1e-4))
    phi = GridFunction(grid, rng.standard_normal(grid.M))
    roundtrip = from_modes(sg, to_modes(sg, phi))
    checks.append(InvariantCheck(
        "mode_roundtrip", float(np.max(np.abs(roundtrip.values - phi.values))), 1e-12))
    return checks


def _noise_solver_checks(sg: HeatSemigroup, seed: int) -> list[InvariantCheck]:
    checks = []
    grid = sg.grid
    spec = DiffusionSpec(c=1.0, gamma=1.0)
    T, delta = 0.25, 2.0**-8
    p1 = sample_path(sg, spec, T, delta, seed)
    p2 = sample_path(sg, spec, T, delta, seed)
    det = 0.0 if np.array_equal(p1.mode_values, p2.mode_values) else 1.0
    checks.append(InvariantCheck("noise_determinism", det, 0.0))
    zero_spec = DiffusionSpec(weights=tuple(0.0 for _ in range(grid.M)))
    pz = sample_path(sg, zero_spec, T, delta, seed)
    checks.append(InvariantCheck(
        "noise_zero_weights", float(np.max(np.abs(pz.mode_values))), 0.0))
    u0 = GridFunction(grid, np.sin(np.pi * grid.nodes))
    traj = solve_regularized(zero_graph(), 0.25, u0, p1, sg)
    n = p1.n_steps // 2
    expect = apply_semigroup(sg, u0, n * delta).values + p1.fields.values[n]
    checks.append(InvariantCheck(
        "solver_linear_case_exact",
        float(np.max(np.abs(traj.values[n] - expect))), 1e-12))
    rest = solve_regularized(TEST_DRIFTS()["sign"], 0.25,
                             GridFunction(grid, np.zeros(grid.M)), pz, sg)
    checks.append(InvariantCheck(
        "solver_rest_state", float(np.max(np.abs(rest.values))), 0.0))
    return checks


def run_invariant_battery(
    M: int = 127, nu: float = 1.0, seed: int = 20260101, n_samples: int = 2000,
) -> list[InvariantCheck]:
    """Run the full battery; deterministic given the seed."""
    rng = np.random.default_rng(seed)
    grid = Grid(M)
    sg = HeatSemigroup(grid, nu)
    checks = []
    checks += _scalar_checks(rng, n_samples)
    checks += _lemma_checks(rng, max(n_samples, 10000))
    checks += _grid_checks(rng, grid)
    checks += _semigroup_checks(rng, sg, 100)
    checks += _noise_solver_checks(sg, seed)
    return checks
