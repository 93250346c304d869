"""Scalar monotone machinery: sections, resolvents, Yosida maps, envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mildlab.errors import BracketFailure, NonFiniteInput
from mildlab.scalar_monotone import (MonotoneGraph, linear_graph,
                                     moreau, piecewise_graph,
                                     power_graph, primitive, primitive_array,
                                     resolvent, resolvent_array, section,
                                     section_max_abs, section_min_abs,
                                     sign_graph, sign_plus_linear_graph,
                                     yosida, yosida_array,
                                     yosida_of_yosida_array, zero_graph)

finite_floats = st.floats(min_value=-20.0, max_value=20.0)
small_lams = st.floats(min_value=1e-3, max_value=2.0)


def generic_sign():
    """Sign graph without fast paths: exercises the bisection engine."""
    return piecewise_graph(
        "sign-generic", [0.0],
        [lambda x: np.full_like(x, -1.0), lambda x: np.full_like(x, 1.0)],
        growth_exponent=0.0, growth_constant=1.0,
    )


class TestSection:
    def test_sign_mid_is_zero(self):
        assert section(sign_graph(), 0.0, "mid") == 0.0

    def test_sign_max_is_right_limit(self):
        assert section(sign_graph(), 0.0, "max") == 1.0

    def test_continuous_branch(self):
        g = power_graph(3.0)
        for choice in ("min", "max", "mid"):
            assert section(g, 2.0, choice) == pytest.approx(8.0, abs=1e-14)

    def test_section_lies_in_interval(self, drifts):
        for f in drifts.values():
            for x in np.linspace(-3, 3, 41):
                lo, hi = f.left_limit(x), f.right_limit(x)
                for choice in ("min", "max", "mid"):
                    assert lo - 1e-14 <= section(f, x, choice) <= hi + 1e-14

    def test_min_max_abs_selections(self):
        g = sign_graph()
        assert section_min_abs(g, 0.0) == 0.0
        assert abs(section_max_abs(g, 0.0)) == 1.0
        assert section_min_abs(g, 2.0) == 1.0


class TestResolvent:
    def test_linear_closed_form(self):
        assert resolvent(linear_graph(1.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_sign_dead_zone(self):
        assert resolvent(sign_graph(), 0.5, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_fixed_point(self, drifts):
        for f in drifts.values():
            assert resolvent(f, 0.7, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NonFiniteInput):
            resolvent(sign_graph(), 0.5, float("nan"))

    def test_generic_engine_matches_sign_closed_form(self):
        xs = np.linspace(-6, 6, 4001)
        lam = 0.5
        got = resolvent_array(generic_sign(), lam, xs)
        want = np.sign(xs) * np.maximum(np.abs(xs) - lam, 0.0)
        assert np.max(np.abs(got - want)) < 1e-10

    def test_generic_engine_matches_linear_closed_form(self):
        g = piecewise_graph("linear-generic", [], [lambda x: x], 1.0, 1.0)
        xs = np.linspace(-6, 6, 4001)
        got = resolvent_array(g, 0.8, xs)
        assert np.max(np.abs(got - xs / 1.8)) < 1e-10

    def test_fast_paths_agree_with_bisection(self, drifts):
        xs = np.linspace(-4, 4, 801)
        for name, f in drifts.items():
            generic = MonotoneGraph(
                name=f.name + "-generic", breakpoints=f.breakpoints,
                branch_fns=f.branch_fns, growth_exponent=f.growth_exponent,
                growth_constant=f.growth_constant,
            )
            for lam in (1e-3, 0.1, 1.0):
                fast = resolvent_array(f, lam, xs)
                slow = resolvent_array(generic, lam, xs)
                assert np.max(np.abs(fast - slow)) < 1e-10, (name, lam)

    def test_bracket_failure_raises(self):
        # a branch far below anything the doubling bracket can reach
        g = MonotoneGraph(name="abyss", breakpoints=(),
                          branch_fns=(lambda x: np.full_like(x, -1e300),),
                          growth_exponent=0.0, growth_constant=1.0, _validate=False)
        xs = np.array([-1.0, 0.0, 2.0])
        with pytest.raises(BracketFailure):
            resolvent_array(g, 0.5, xs)
        with pytest.raises(BracketFailure):
            yosida_of_yosida_array(g, 0.25, 0.125, xs)

    @settings(max_examples=200, deadline=None)
    @given(x=finite_floats, y=finite_floats, lam=small_lams)
    def test_contraction(self, x, y, lam):
        g = power_graph(3.0)
        rx, ry = resolvent(g, lam, x), resolvent(g, lam, y)
        assert abs(rx - ry) <= abs(x - y) + 1e-10


class TestYosida:
    def test_sign_clamp(self):
        assert yosida(sign_graph(), 0.5, 0.2) == pytest.approx(0.4, abs=1e-12)
        assert yosida(sign_graph(), 0.5, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        assert yosida(linear_graph(1.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(x=finite_floats, y=finite_floats, lam=small_lams)
    def test_lipschitz_and_monotone(self, x, y, lam):
        f = sign_plus_linear_graph()
        fx = yosida(f, lam, x)
        fy = yosida(f, lam, y)
        assert abs(fx - fy) <= abs(x - y) / lam + 1e-9
        assert (fx - fy) * (x - y) >= -1e-12

    def test_domination_by_min_abs_section(self, drifts, rng):
        xs = rng.uniform(-5, 5, 2000)
        for name, f in drifts.items():
            for lam in (0.05, 0.5, 2.0):
                fl = np.abs(yosida_array(f, lam, xs))
                bound = np.abs(section_min_abs(f, xs))
                assert np.max(fl - bound) <= 1e-10, (name, lam)
        # jump points separately
        g = sign_graph()
        assert abs(yosida(g, 0.3, 0.0)) <= abs(section_min_abs(g, 0.0)) + 1e-12

    def test_semigroup_property(self, drifts, rng):
        xs = rng.uniform(-5, 5, 300)
        for name, f in drifts.items():
            comp = yosida_of_yosida_array(f, 0.25, 0.125, xs)
            direct = yosida_array(f, 0.375, xs)
            assert np.max(np.abs(comp - direct)) <= 1e-11, name


class TestIdentities:
    """The two scalar workhorse relations behind every gap estimate."""

    def test_resolvent_difference_identity(self, drifts, rng):
        xs = rng.uniform(-5, 5, 500)
        ys = rng.uniform(-5, 5, 500)
        for name, f in drifts.items():
            for lam, mu in [(0.5, 0.25), (1.0, 0.01), (0.03, 0.8)]:
                rx = resolvent_array(f, lam, xs)
                ry = resolvent_array(f, mu, ys)
                flx = (xs - rx) / lam
                fmy = (ys - ry) / mu
                lhs = xs - ys
                rhs = rx - ry + lam * flx - mu * fmy
                assert np.max(np.abs(lhs - rhs)) <= 1e-11, name

    def test_product_lower_bound_chain(self, drifts, rng):
        xs = rng.uniform(-5, 5, 500)
        ys = rng.uniform(-5, 5, 500)
        for name, f in drifts.items():
            for lam, mu in [(0.5, 0.25), (0.9, 0.04)]:
                flx = yosida_array(f, lam, xs)
                fmy = yosida_array(f, mu, ys)
                first = (flx - fmy) * (xs - ys)
                second = (flx - fmy) * (lam * flx - mu * fmy)
                floor = -(lam + mu) * (flx**2 + fmy**2)
                assert np.min(first - second) >= -1e-11, name
                assert np.min(second - floor) >= -1e-11, name


class TestPrimitive:
    def test_cubic(self):
        assert primitive(power_graph(3.0), 2.0) == pytest.approx(4.0, abs=1e-10)

    def test_anchor_at_zero(self, drifts):
        for f in drifts.values():
            assert primitive(f, 0.0) == 0.0

    def test_sign_negative_side(self):
        assert primitive(sign_graph(), -3.0) == pytest.approx(3.0, abs=1e-10)

    def test_quadrature_against_closed_forms(self):
        # generic engine (adaptive Simpson + jump handling) vs attached closed forms
        for f, phi in [
            (generic_sign(), lambda x: abs(x)),
            (piecewise_graph("lin", [], [lambda x: x], 1.0, 1.0), lambda x: x * x / 2),
            (piecewise_graph("cube", [], [lambda x: x**3], 3.0, 1.0), lambda x: x**4 / 4),
        ]:
            for x in (-2.5, -0.3, 0.0, 0.7, 3.1):
                assert primitive(f, x, quad_tol=1e-11) == pytest.approx(phi(x), abs=1e-9)

    def test_convexity_and_nonnegativity(self, drifts):
        xs = np.linspace(-3, 3, 61)
        for f in drifts.values():
            vals = primitive_array(f, xs)
            assert np.min(vals) >= -1e-12
            chords = 0.5 * (vals[:-2] + vals[2:]) - vals[1:-1]
            assert np.min(chords) >= -1e-9


class TestMoreau:
    @staticmethod
    def brute_force(f, lam, x, half_width=8.0, n=400001):
        ys = np.linspace(x - half_width, x + half_width, n)
        vals = (x - ys) ** 2 / (2 * lam) + primitive_array(f, ys)
        return float(np.min(vals))

    def test_linear_example(self):
        # phi(y) = y^2/2, R_1(2) = 1, f_1(2) = 1 => 0.5 + 0.5
        got = moreau(linear_graph(1.0), 1.0, 2.0)
        assert got == pytest.approx(1.0, abs=1e-10)
        assert got == pytest.approx(self.brute_force(linear_graph(1.0), 1.0, 2.0), abs=1e-6)

    def test_zero_at_origin(self, drifts):
        for f in drifts.values():
            assert moreau(f, 0.7, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_sign_grid_minimization_oracle(self):
        got = moreau(sign_graph(), 1.0, 0.5)
        want = self.brute_force(sign_graph(), 1.0, 0.5)
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(0.125, abs=1e-10)  # min attained at y = 0

    def test_below_primitive_and_monotone_in_lambda(self, drifts):
        for f in drifts.values():
            for x in (-1.5, 0.4, 2.0):
                phi = primitive(f, x)
                prev = -np.inf
                for lam in (1.0, 0.1, 0.01):
                    env = moreau(f, lam, x)
                    assert -1e-12 <= env <= phi + 1e-9
                    assert env >= prev - 1e-9
                    prev = env


class TestGraphConstruction:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            piecewise_graph("bad", [], [lambda x: -x], 1.0, 1.0)

    def test_downward_jump_rejected(self):
        with pytest.raises(ValueError):
            piecewise_graph(
                "bad-jump", [0.0],
                [lambda x: x + 1.0, lambda x: x - 1.0], 1.0, 2.0,
            )

    def test_growth_bound_enforced(self):
        with pytest.raises(ValueError, match="growth"):
            piecewise_graph("fast", [], [lambda x: x**5], 2.0, 1.0)

    def test_growth_bound_holds_on_suite(self, drifts, rng):
        xs = rng.uniform(-8, 8, 100000)
        for f in drifts.values():
            vals = np.abs(f.mid_values(xs))
            bound = f.growth_constant * (1.0 + np.abs(xs) ** f.growth_exponent)
            assert np.max(vals - bound) <= 1e-9

    def test_zero_in_graph_flags(self, drifts):
        for f in drifts.values():
            assert f.left_limit(0.0) <= 0.0 <= f.right_limit(0.0)

    def test_declared_jumps_are_strict(self, drifts):
        for f in drifts.values():
            for b in f.jump_points:
                assert f.left_limit(b) < f.right_limit(b)

    def test_jump_points_derived_from_limits(self):
        assert sign_graph().jump_points == (0.0,)
        assert sign_plus_linear_graph().jump_points == (0.0,)
        kinked = MonotoneGraph(
            name="kink", breakpoints=(0.0, 1.0),
            branch_fns=(lambda x: x, lambda x: 2.0 * x, lambda x: 2.0 * x + 1.0),
            growth_exponent=1.0, growth_constant=3.0,
        )
        assert kinked.jump_points == (1.0,)
        with pytest.raises(AttributeError):
            kinked.jump_points = (0.0,)

    def test_zero_graph_is_identity_resolvent(self):
        xs = np.linspace(-3, 3, 11)
        assert np.array_equal(resolvent_array(zero_graph(), 0.5, xs), xs)
