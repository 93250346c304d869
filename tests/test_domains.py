"""One range rule at every entry point: each numeric argument is finite and
meets its bound, written in the config's notation ("> 0", ">= 1").

Each row of DOMAINS names a call, the argument it varies, that argument's
bound and its site's error class.  inf, nan and a value just outside the
bound must raise that class with the message "<name> must be <bound>"; the
value on a ">=" bound, or just past the limit of a ">" one, must not raise.
Nothing is built at import, so a mutant of the rule still reaches every test
(see tests/mutants.py).
"""

import dataclasses
import functools
import re
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np
import pytest

from mildlab import errors
from mildlab.errors import InvalidExponent, InvalidExponents, StudyPrecondition
from mildlab.grid_space import (Grid, GridFunction, big_gamma0, duality_map,
                                gamma_eps, lq_norms)
from mildlab.noise import DiffusionSpec, norm_ld_lqd, sample_path
from mildlab.scalar_monotone import (linear_graph, piecewise_graph, power_graph,
                                     resolvent_array, sign_graph,
                                     yosida_of_yosida_array)
from mildlab.semigroup import HeatSemigroup, apply_resolvent, convolve_series
from mildlab.solver import (SolverConfig, inclusion_check, qstar,
                            regularized_chunks)
from mildlab.verify.studies import chain_rule_study, cauchy_rate_study, propagation_study


@functools.cache
def world() -> SimpleNamespace:
    grid = Grid(7)
    sg = HeatSemigroup(grid)
    phi = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
    path = sample_path(sg, DiffusionSpec(), 0.125, 2.0**-6, seed=1)
    return SimpleNamespace(grid=grid, sg=sg, phi=phi, path=path,
                           x=np.array([-2.0, -0.5, 0.0, 0.7, 3.0]))


class Domain(NamedTuple):
    site: str
    name: str       # the argument's name in the message
    bound: str
    error: type
    call: Callable  # (world, value) -> anything


def _flat(x):
    return np.zeros_like(x)


def _resolvent_rows():
    graphs = {"power3": lambda: power_graph(3.0), "power2": lambda: power_graph(2.0),
              "power1.5": lambda: power_graph(1.5), "linear": linear_graph,
              "sign": sign_graph,
              "generic sign": lambda: dataclasses.replace(sign_graph(), fast_resolvent=None)}
    for label, build in graphs.items():
        yield Domain(f"resolvent_array {label}", "lambda", "> 0", ValueError,
                     lambda w, v, build=build: resolvent_array(build(), v, w.x))
        yield Domain(f"resolvent_array {label} column", "lambda", "> 0", ValueError,
                     lambda w, v, build=build: resolvent_array(
                         build(), np.array([[0.25], [v]]), np.tile(w.x, (2, 1))))


DOMAINS = (
    Domain("Grid", "M", ">= 2", ValueError, lambda w, v: Grid(v)),
    Domain("lq_norms", "q", ">= 1", InvalidExponent,
           lambda w, v: lq_norms(w.phi.values, w.grid.h, v)),
    Domain("duality_map", "q", "> 1", InvalidExponent, lambda w, v: duality_map(w.phi, v)),
    Domain("gamma_eps", "eps", "> 0", ValueError, lambda w, v: gamma_eps(w.x, v)),
    Domain("big_gamma0", "eps", "> 0", ValueError, lambda w, v: big_gamma0(w.x, v)),
    Domain("HeatSemigroup", "nu", "> 0", ValueError, lambda w, v: HeatSemigroup(w.grid, v)),
    Domain("apply_resolvent", "eps", "> 0", ValueError,
           lambda w, v: apply_resolvent(w.sg, w.phi, v)),
    Domain("convolve_series", "delta", "> 0", ValueError,
           lambda w, v: convolve_series(w.sg, w.path.fields, v)),
    Domain("DiffusionSpec c", "c", ">= 0", ValueError, lambda w, v: DiffusionSpec(c=v)),
    Domain("DiffusionSpec gamma", "gamma", ">= 0", ValueError,
           lambda w, v: DiffusionSpec(gamma=v)),
    Domain("DiffusionSpec weights", "weights", ">= 0", ValueError,
           lambda w, v: DiffusionSpec(weights=(1.0, v))),
    Domain("norm_ld_lqd d", "d", ">= 0", ValueError, lambda w, v: norm_ld_lqd(w.path, v, 2.0)),
    Domain("norm_ld_lqd q", "q", ">= 1", ValueError, lambda w, v: norm_ld_lqd(w.path, 1.0, v)),
    Domain("MonotoneGraph growth_exponent", "growth_exponent", ">= 0", ValueError,
           lambda w, v: piecewise_graph("flat", [], [_flat], v, 1.0)),
    Domain("MonotoneGraph growth_constant", "growth_constant", "> 0", ValueError,
           lambda w, v: piecewise_graph("flat", [], [_flat], 0.0, v)),
    Domain("linear_graph", "c", ">= 0", ValueError, lambda w, v: linear_graph(v)),
    Domain("power_graph d", "d", ">= 1", ValueError, lambda w, v: power_graph(v)),
    Domain("power_graph coef", "coef", "> 0", ValueError, lambda w, v: power_graph(3.0, v)),
    *_resolvent_rows(),
    Domain("yosida_of_yosida_array lam", "lambda", "> 0", ValueError,
           lambda w, v: yosida_of_yosida_array(power_graph(3.0), v, 0.125, w.x)),
    Domain("yosida_of_yosida_array mu", "lambda", "> 0", ValueError,
           lambda w, v: yosida_of_yosida_array(power_graph(3.0), 0.125, v, w.x)),
    Domain("SolverConfig lambda_schedule", "lambda", "> 0", ValueError,
           lambda w, v: SolverConfig(lambda_schedule=(v,))),
    Domain("SolverConfig cauchy_tol", "cauchy_tol", "> 0", ValueError,
           lambda w, v: SolverConfig(cauchy_tol=v)),
    Domain("regularized_chunks", "lambda", "> 0", ValueError,
           lambda w, v: next(regularized_chunks(linear_graph(), v, w.phi, w.path))),
    Domain("regularized_chunks levels", "lambda", "> 0", ValueError,
           lambda w, v: next(regularized_chunks(linear_graph(), np.array([0.25, v]),
                                                w.phi, w.path))),
    Domain("inclusion_check", "tol", "> 0", ValueError,
           lambda w, v: inclusion_check(w.path.fields, w.path.fields, sign_graph(), v)),
    Domain("qstar q", "q", "> 1", InvalidExponents, lambda w, v: qstar(v, 1.0, 3.0)),
    Domain("qstar d", "d", ">= 0", InvalidExponents, lambda w, v: qstar(2.0, 1.0, v)),
    Domain("cauchy_rate_study", "q of the cauchy rate study", "> 1", StudyPrecondition,
           lambda w, v: cauchy_rate_study(linear_graph(), v, [w.path], SolverConfig(), w.phi)),
    Domain("chain_rule_study", "q of the chain rule study", "> 1", StudyPrecondition,
           lambda w, v: chain_rule_study(v, w.sg, lambda t: np.zeros((t.size, w.grid.M)),
                                         w.phi, T=0.125, deltas=(2.0**-5, 2.0**-6))),
    Domain("propagation_study", "frozen_constant of the propagation study", "> 0",
           StudyPrecondition,
           lambda w, v: propagation_study(linear_graph(), 2.0, 2.0, 1.0, [w.path],
                                          SolverConfig(), w.phi, frozen_constant=v)),
)
# rows whose argument is a count: the accepted value is the integer bound
COUNTS = ("Grid",)
IDS = [d.site for d in DOMAINS]


def _limit(bound: str) -> tuple[str, float]:
    op, limit = bound.split()
    return op, float(limit)


def outside(bound: str) -> float:
    """The largest value that misses the bound."""
    op, limit = _limit(bound)
    return limit if op == ">" else float(np.nextafter(limit, -np.inf))


def inside(bound: str) -> float:
    """The smallest value that meets the bound."""
    op, limit = _limit(bound)
    return float(np.nextafter(limit, np.inf)) if op == ">" else limit


@pytest.mark.parametrize("domain", DOMAINS, ids=IDS)
@pytest.mark.parametrize("value", ["inf", "nan", "-inf", "outside"])
def test_refused_with_the_sites_error(domain, value):
    v = outside(domain.bound) if value == "outside" else float(value)
    with pytest.raises(domain.error):
        domain.call(world(), v)


@pytest.mark.parametrize("domain", DOMAINS, ids=IDS)
def test_message_names_the_argument_and_its_bound(domain):
    want = f"^{re.escape(domain.name)} must be {re.escape(domain.bound)}$"
    for v in (np.nan, outside(domain.bound)):
        with pytest.raises(domain.error, match=want):
            domain.call(world(), v)


@pytest.mark.parametrize("domain", DOMAINS, ids=IDS)
def test_the_bound_itself_or_just_past_it_is_accepted(domain):
    value = inside(domain.bound)
    if domain.site in COUNTS:
        value = int(value)
    domain.call(world(), value)


class TestRule:
    """errors.within on the value forms the config and the library pass."""

    @pytest.mark.parametrize("value, bound, want", [
        (0.0, "> 0", False), (5e-324, "> 0", True), (1, ">= 1", True), (0, ">= 1", False),
        (1.7976931348623157e308, ">= 0", True),
        pytest.param(2**1024, ">= 0", False, id="int-past-the-largest-float"),
        (np.float64(2.0), ">= 2", True), (np.int64(1), "> 1", False),
        ([], "> 0", True), ([1.0, 2.0], ">= 1", True), ([1.0, np.nan], "> 0", False),
        ((0.5, np.inf), "> 0", False), (np.array([[0.1], [0.2]]), "> 0", True),
        (np.array([[0.1], [-np.inf]]), ">= 0", False), (np.array(np.nan), ">= 0", False),
        (np.array([0.25, 1e308]), ">= 100", False),
    ])
    def test_within(self, value, bound, want):
        assert errors.within(value, bound) is want

    def test_require_raises_the_given_class(self):
        errors.require(1.0, "> 0", "tol")
        with pytest.raises(InvalidExponent, match="^q must be >= 1$"):
            errors.require(np.inf, ">= 1", "q", InvalidExponent)
        with pytest.raises(ValueError, match="^tol must be > 0$"):
            errors.require([1.0, 0.0], "> 0", "tol")
