"""Scalar monotone machinery: sections, resolvents, Yosida maps, envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mildlab.scalar_monotone as sm
from mildlab.errors import BracketFailure, NoConvergence, NonFiniteInput
from mildlab.scalar_monotone import (MonotoneGraph, compile_branch,
                                     linear_graph, moreau, piecewise_graph,
                                     power_graph, primitive, primitive_array,
                                     resolvent, resolvent_array, section,
                                     section_max_abs, section_min_abs,
                                     sign_graph, sign_plus_linear_graph,
                                     yosida, yosida_array,
                                     yosida_of_yosida_array, zero_graph)

finite_floats = st.floats(min_value=-20.0, max_value=20.0)
small_lams = st.floats(min_value=1e-3, max_value=2.0)


def generic_sign():
    """Sign graph without fast paths: exercises the generic engine."""
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


def mid_value_graphs() -> list[MonotoneGraph]:
    """Graphs with breakpoints: jumps, and a breakpoint where f is continuous."""
    return [
        sign_plus_linear_graph(),
        # the benchmark's piecewise cubic with a jump at 0
        piecewise_graph("cubic-jump", [0.0],
                        [compile_branch("x**3 - 1"), compile_branch("x**3 + 1")], 3.0, 2.0),
        # continuous at -1, a jump of 2 at 1
        piecewise_graph("kink-jump", [-1.0, 1.0],
                        [compile_branch(e) for e in ("x - 1", "2*x", "x + 3")], 1.0, 3.0),
    ]


on_breakpoints = st.sampled_from([-1.0, 0.0, -0.0, 1.0])
any_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestMidValues:
    @settings(max_examples=300, deadline=None)
    @given(xs=st.lists(st.one_of(any_finite, finite_floats, on_breakpoints),
                       min_size=1, max_size=40))
    def test_bit_equal_to_mean_of_limits(self, xs):
        x = np.array(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            for f in mid_value_graphs():
                want = 0.5 * (f.left_limits(x) + f.right_limits(x))
                assert f.mid_values(x).tobytes() == want.tobytes(), f.name

    def test_jump_midpoints(self):
        sign_linear, cubic, kink = mid_value_graphs()
        x = np.array([-1.0, 0.0, 1.0, 0.5])
        assert sign_linear.mid_values(x).tolist() == [-2.0, 0.0, 2.0, 1.5]
        assert cubic.mid_values(x).tolist() == [-2.0, 0.0, 2.0, 1.125]
        assert kink.mid_values(x).tolist() == [-2.0, 0.0, 3.0, 1.0]


class TestCompileBranch:
    def test_returns_a_fresh_array_shaped_like_x(self):
        x = np.array([-0.0, 1.5, -2.0])
        same = compile_branch("x")(x)
        assert same is not x and same.tolist() == [0.0, 1.5, -2.0]
        assert not np.signbit(same[0])
        assert compile_branch("2")(x).tolist() == [2.0, 2.0, 2.0]
        assert compile_branch("abs(x) * 0 + pi")(x).tolist() == [np.pi] * 3

    @pytest.mark.parametrize("expr", ["(lambda: ().__class__.__mro__[1])() and x",
                                      "[(abs := y) for y in x]"])
    def test_may_not_open_a_scope(self, expr):
        # a nested scope's names escape the name check: a lambda reaches any
        # attribute, a comprehension's walrus binds into the shared namespace
        with pytest.raises(ValueError, match="lambda or a comprehension"):
            compile_branch(expr)


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
        # a branch so far below y that y + lam*f(y) - x rounds to -x at the
        # bracket's end; no valid graph has one, so it is swapped in after
        # construction
        g = piecewise_graph("abyss", [], [lambda x: np.zeros_like(x)], 0.0, 1.0)
        object.__setattr__(g, "branch_fns", (lambda x: np.full_like(x, -1e300),))
        xs = np.array([-1.0, 0.0, 2.0])
        with pytest.raises(BracketFailure):
            resolvent_array(g, 0.5, xs)
        with pytest.raises(BracketFailure):
            yosida_of_yosida_array(g, 0.25, 0.125, xs)

    def test_power_newton_stops_within_ulps(self, monkeypatch):
        # |N(0, 9)| inputs on which a stop test below one ulp ran to the cap
        # 941 times in 1024; the ulp test stops every vector within 6 steps
        monkeypatch.setattr(sm, "_MAX_NEWTON", 8)
        g, lam = power_graph(3.0), 2.0**-8 + 2.0**-10
        rng = np.random.default_rng(0)
        for _ in range(1024):
            a = np.abs(rng.normal(0.0, 3.0, 127))
            y = resolvent_array(g, lam, a)
            assert np.all(np.abs(y + lam * y**3 - a) <= 2.0 * np.spacing(a))

    def test_power_newton_cap_raises(self, monkeypatch):
        # the quartic has no closed form, so it still runs Newton
        monkeypatch.setattr(sm, "_MAX_NEWTON", 2)
        with pytest.raises(NoConvergence, match="no Newton stop after 2 steps"):
            resolvent_array(power_graph(4.0), 0.01, np.array([3.0]))

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(min_value=1e-300, max_value=1e100),
           lam=st.floats(min_value=1e-6, max_value=10.0))
    def test_power_closed_forms_agree_with_newton(self, a, lam):
        x = np.array([a])
        for d in (2.0, 3.0):
            closed = power_graph(d).fast_resolvent(x, lam)
            newton = sm._power_newton(d, lam, x)
            assert np.all(np.isfinite(closed)), d
            assert np.all(np.abs(closed - newton) <= 4.0 * np.spacing(newton)), d

    def test_generic_engine_cap_raises(self, monkeypatch):
        monkeypatch.setattr(sm, "_MAX_ROOT_STEPS", 2)
        cubic_jump = mid_value_graphs()[1]
        with pytest.raises(NoConvergence, match="no stop after 2 steps"):
            resolvent_array(cubic_jump, 0.1, np.array([0.3, 2.5]))

    @pytest.mark.parametrize("lam", [2.0**-8 + 2.0**-10, 0.1])
    def test_generic_engine_stops_within_ulps(self, monkeypatch, lam):
        # Chandrupatla's steps stop every branch solve on these inputs within
        # 9; bisection to two ulps would need about 44
        monkeypatch.setattr(sm, "_MAX_ROOT_STEPS", 16)
        for f in mid_value_graphs()[1:]:
            rng = np.random.default_rng(0)
            for _ in range(1024):
                x = rng.normal(0.0, 1.5, 127)
                y = resolvent_array(f, lam, x)
                inside = np.isin(y, [-1.0, 0.0, 1.0], invert=True)  # off the knots
                residual = y + lam * f.mid_values(y) - x
                assert np.all(np.abs(residual[inside]) <= 2.0 * np.spacing(np.abs(x[inside]))), f.name

    def test_jump_interval_resolves_to_breakpoint(self):
        _, cubic_jump, kink_jump = mid_value_graphs()
        for f, b in [(cubic_jump, 0.0), (kink_jump, -1.0), (kink_jump, 1.0)]:
            for lam in (2.0**-8, 0.1, 1.0):
                ends = (b + lam * f.left_limit(b), b + lam * f.right_limit(b))
                xs = np.concatenate([np.linspace(*ends, 101), ends])
                assert np.all(resolvent_array(f, lam, xs) == b), (f.name, b, lam)
                assert all(resolvent(f, lam, x) == b for x in ends), (f.name, b, lam)
        assert resolvent(cubic_jump, 0.1, 0.0) == 0.0
        assert resolvent_array(cubic_jump, 0.1, np.array([-0.5, 0.0, 0.5]))[1] == 0.0

    def test_large_inputs_within_ulps(self, monkeypatch):
        # an absolute stop below one ulp of y used to run to its cap here
        monkeypatch.setattr(sm, "_MAX_ROOT_STEPS", 16)
        f, lam = piecewise_graph("linear-generic", [], [lambda x: x], 1.0, 1.0), 0.1
        x = np.array([1e4, 1e7, 1e12, -1e4, -1e7, -1e12])
        y = resolvent_array(f, lam, x)
        assert np.all(np.abs(y + lam * y - x) <= 2.0 * np.spacing(np.abs(x)))

    def test_generic_engine_on_flat_branches(self):
        # y = x -+ lam exactly solves a constant branch, and a bracket end from
        # the Lipschitz bound is then the root up to rounding, which may fall
        # on either side of it
        rng = np.random.default_rng(1)
        xs = rng.normal(0.0, 3.0, 20000)
        for lam in (0.1, 0.0123):
            got = resolvent_array(generic_sign(), lam, xs)
            want = np.sign(xs) * np.maximum(np.abs(xs) - lam, 0.0)
            assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(xs))), lam

    def test_each_element_solved_on_its_own(self):
        # criterion 14 needs a result that does not depend on its batch
        rng = np.random.default_rng(2)
        xs = np.concatenate([rng.normal(0.0, 3.0, 60), [0.0, -0.1, 0.1, 1.2, -1.2, 1e6]])
        for f in [power_graph(2.0), power_graph(3.0), power_graph(4.0),
                  *mid_value_graphs()[1:], generic_sign()]:
            for lam in (2.0**-8, 0.1):
                batch = resolvent_array(f, lam, xs)
                alone = np.array([resolvent(f, lam, x) for x in xs])
                assert batch.tobytes() == alone.tobytes(), (f.name, lam)

    def test_non_finite_branch_value_raises(self):
        # a graph that passed its build checks and then turns nan
        f = piecewise_graph("holed", [0.0], [lambda x: x, lambda x: x], 1.0, 3.0)
        with np.errstate(invalid="ignore"):
            object.__setattr__(f, "branch_fns", (lambda x: x, lambda x: np.sqrt(x - 1.0) + x))
            with pytest.raises(NoConvergence, match="non-finite"):
                resolvent_array(f, 0.5, np.array([0.6, 2.0]))
            # the knots' values are finite, the values inside the gap are not
            object.__setattr__(f, "branch_fns", (lambda x: x, lambda x: np.where(
                (x > 0.0) & (x < 1.0), np.nan, x)))
            with pytest.raises(NoConvergence, match="non-finite"):
                resolvent_array(f, 0.5, np.array([0.6, 2.0]))

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
        # generic engine (adaptive Gauss-Legendre + jump handling) vs closed forms
        for f, phi in [
            (generic_sign(), lambda x: abs(x)),
            (piecewise_graph("lin", [], [lambda x: x], 1.0, 1.0), lambda x: x * x / 2),
            (piecewise_graph("cube", [], [lambda x: x**3], 3.0, 1.0), lambda x: x**4 / 4),
            # singular at the knot 0
            (piecewise_graph("sqrt", [], [lambda x: np.sign(x) * np.sqrt(np.abs(x))],
                             0.5, 1.0), lambda x: 2.0 / 3.0 * abs(x) ** 1.5),
            # singular inside the branch
            (piecewise_graph("cbrt", [], [lambda x: np.sign(x - 1) * np.abs(x - 1) ** (1 / 3)],
                             1 / 3, 2.0, zero_in_graph=False),
             lambda x: 0.75 * abs(x - 1) ** (4 / 3) - 0.75),
        ]:
            for x in (-2.5, -0.3, 0.0, 0.7, 3.1):
                assert primitive(f, x) == pytest.approx(phi(x), abs=1e-9), f.name

    @pytest.mark.parametrize("x", [3.1, 100.001])
    def test_undeclared_jump_raises(self, x):
        # a jump inside a branch does not meet the tolerance before the level
        # cap (at 0.5) or before its interval is too short to halve (at 100.0003)
        f = piecewise_graph("hidden-jump", [100.0], [lambda x: x + (x > 0.5),
                                                     lambda x: x + 1 + (x > 100.0003)], 1.0, 3.0)
        with pytest.raises(NoConvergence, match="'hidden-jump' not within tolerance"):
            primitive_array(f, np.array([0.25, x]))

    def test_non_finite_branch_raises(self):
        # nan on part of a branch, swapped in after the build checks that now
        # reject it; halving it would double the work list at every level
        f = piecewise_graph("holed", [0.0], [lambda x: x, lambda x: x], 1.0, 3.0)
        with np.errstate(invalid="ignore"):
            object.__setattr__(f, "branch_fns", (lambda x: x, lambda x: np.sqrt(x - 1.0) + x))
            with pytest.raises(NoConvergence, match="non-finite"):
                primitive_array(f, np.array([2.0]))

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

    def test_non_finite_branch_rejected(self):
        # nan on part of a branch fails every comparison of the other checks
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="'holed' is not finite"):
            piecewise_graph("holed", [0.0], [lambda x: x, lambda x: np.sqrt(x - 1.0) + x],
                            1.0, 3.0, zero_in_graph=False)

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
