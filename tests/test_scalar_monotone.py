"""Scalar monotone machinery: sections, resolvents, Yosida maps, envelopes."""

import dataclasses
import gc
import hashlib
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mildlab.generic_engine as ge
import mildlab.scalar_monotone as sm
from mildlab.errors import BracketFailure, NoConvergence, NonFiniteInput
from mildlab.scalar_monotone import (MonotoneGraph, compile_branch,
                                     linear_graph, piecewise_graph,
                                     power_graph, primitive_array,
                                     resolvent_array, section_max_abs,
                                     section_min_abs, sign_graph,
                                     sign_plus_linear_graph, yosida_array,
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
        assert sign_graph().mid_values(0.0) == 0.0

    def test_sign_max_is_right_limit(self):
        assert sign_graph().limits(0.0)[1] == 1.0

    def test_continuous_branch(self):
        g = power_graph(3.0)
        for value in (*g.limits(2.0), g.mid_values(2.0)):
            assert value == pytest.approx(8.0, abs=1e-14)

    def test_section_lies_in_interval(self, drifts):
        for f in drifts.values():
            for x in np.linspace(-3, 3, 41):
                lo, hi = f.limits(x)
                for value in (lo, hi, f.mid_values(x)):
                    assert lo - 1e-14 <= value <= hi + 1e-14

    def test_min_max_abs_selections(self):
        g = sign_graph()
        assert section_min_abs(g, 0.0) == 0.0
        assert abs(section_max_abs(g, 0.0)) == 1.0
        assert section_min_abs(g, 2.0) == 1.0

    def test_limits_beside_and_on_each_breakpoint(self):
        # the ulp below b takes b's left branch, b and the ulp above its right
        # one, and only b's f(b-) comes from the left: a wrong searchsorted
        # side or left index moves one of these
        for f in (*mid_value_graphs(), sign_graph(), generic_sign()):
            for i, b in enumerate(f.breakpoints):
                x = np.array([np.nextafter(b, -np.inf), b, np.nextafter(b, np.inf)])
                left, right = f.branch_fns[i](x), f.branch_fns[i + 1](x)
                lo, hi = f.limits(x)
                assert lo.tolist() == [left[0], left[1], right[2]], (f.name, b)
                assert hi.tolist() == [left[0], right[1], right[2]], (f.name, b)
                assert section_min_abs(f, x)[[0, 2]].tolist() == [left[0], right[2]]
                assert section_max_abs(f, x)[[0, 2]].tolist() == [left[0], right[2]]

    def test_signed_zeros_on_the_sign_graphs(self):
        for f in (sign_graph(), sign_plus_linear_graph(), generic_sign()):
            x = np.array([-0.0, 0.0])
            lo, hi = f.limits(x)
            assert lo.tolist() == [-1.0, -1.0] and hi.tolist() == [1.0, 1.0], f.name
            assert f.mid_values(x).tolist() == [0.0, 0.0], f.name
            assert section_min_abs(f, x).tolist() == [0.0, 0.0], f.name
            assert section_max_abs(f, x).tolist() == [-1.0, -1.0], f.name
            for z in (-0.0, 0.0):
                assert [float(v) for v in f.limits(z)] == [-1.0, 1.0], (f.name, z)


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


def jumps(f: MonotoneGraph) -> np.ndarray:
    """The breakpoints b with f(b-) < f(b+)."""
    b = np.asarray(f.breakpoints)
    return b[np.less(*f.limits(b))]


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
                want = 0.5 * np.add(*f.limits(x))
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
        assert resolvent_array(linear_graph(1.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_sign_dead_zone(self):
        assert resolvent_array(sign_graph(), 0.5, 0.2) == pytest.approx(0.0, abs=1e-12)

    def test_zero_fixed_point(self, drifts):
        for f in drifts.values():
            assert resolvent_array(f, 0.7, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(NonFiniteInput):
            resolvent_array(sign_graph(), 0.5, float("nan"))

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

    def test_bracket_failure_raises(self, monkeypatch):
        # a branch so far below y that y + lam*f(y) - x rounds to -x at the
        # bracket's end; no valid graph has one, so it is swapped in after
        # construction
        g = piecewise_graph("abyss", [], [lambda x: np.zeros_like(x)], 0.0, 1.0)
        object.__setattr__(g, "branch_fns", (lambda x: np.full_like(x, -1e300),))
        xs = np.array([-1.0, 0.0, 2.0])
        for block in (ge._ROOT_BLOCK, 1):  # then each element in a block of its own
            monkeypatch.setattr(ge, "_ROOT_BLOCK", block)
            with pytest.raises(BracketFailure, match="^no sign change on the bracket for 'abyss'$"):
                resolvent_array(g, 0.5, xs)
            # the outer solve fails, or an inner resolve of 'abyss' inside it
            with pytest.raises(BracketFailure, match="^no sign change on the bracket for "
                               "(the composed Yosida resolvent of )?'abyss'$"):
                yosida_of_yosida_array(g, 0.25, 0.125, xs)

    @pytest.mark.parametrize("d", [3.0, 4.0, 2.5])
    def test_power_newton_stops_within_ulps(self, d, monkeypatch):
        # |N(0, 9)| inputs on which a stop test below one ulp ran to the cap
        # 941 times in 1024 for the cubic.  The cubic has a closed form; the
        # quartic and d = 2.5 go through the generic engine, which stops them
        # within 3 steps (quartic, worst residual 2 ulps) and 4 (d = 2.5, 1 ulp)
        monkeypatch.setattr(ge, "_MAX_ROOT_STEPS", 4)
        g, lam = power_graph(d), 2.0**-8 + 2.0**-10
        rng = np.random.default_rng(0)
        for _ in range(1024):
            a = np.abs(rng.normal(0.0, 3.0, 127))
            y = resolvent_array(g, lam, a)
            assert np.all(np.abs(y + lam * y**d - a) <= 2.0 * np.spacing(a))

    @settings(max_examples=300, deadline=None)
    @given(a=st.floats(min_value=1e-300, max_value=1e100),
           lam=st.floats(min_value=1e-6, max_value=10.0))
    def test_power_closed_forms_agree_with_newton(self, a, lam):
        # the oracle is the generic engine on the same branch
        x = np.array([a])
        for d in (2.0, 3.0):
            f = power_graph(d)
            generic = MonotoneGraph(name=f.name + "-generic", breakpoints=(),
                                    branch_fns=f.branch_fns, growth_exponent=d,
                                    growth_constant=1.0)
            closed = f.fast_resolvent(x, lam)
            engine = resolvent_array(generic, lam, x)
            assert np.all(np.isfinite(closed)), d
            assert np.all(np.abs(closed - engine) <= 4.0 * np.spacing(engine)), d

    def test_generic_engine_cap_raises(self, monkeypatch):
        monkeypatch.setattr(ge, "_MAX_ROOT_STEPS", 2)
        cubic_jump = mid_value_graphs()[1]
        for block in (ge._ROOT_BLOCK, 1):  # then each element in a block of its own
            monkeypatch.setattr(ge, "_ROOT_BLOCK", block)
            with pytest.raises(NoConvergence, match="no stop after 2 steps") as err:
                resolvent_array(cubic_jump, 0.1, np.array([0.3, 2.5]))
            assert str(err.value) == ("resolvent of 'cubic-jump': no stop after 2 steps "
                                      "at lambda = 0.1, first at x = 0.3")

    @pytest.mark.parametrize("lam", [2.0**-8 + 2.0**-10, 0.1])
    def test_generic_engine_stops_within_ulps(self, monkeypatch, lam):
        # Steps from the table's interpolant stop every branch solve on these
        # inputs within 4; bisection to two ulps would need about 44.  One
        # call of 32 blocks.
        monkeypatch.setattr(ge, "_MAX_ROOT_STEPS", 16)
        for f in mid_value_graphs()[1:]:
            x = np.random.default_rng(0).normal(0.0, 1.5, (1024, 127))
            y = resolvent_array(f, lam, x)
            inside = np.isin(y, [-1.0, 0.0, 1.0], invert=True)  # off the knots
            residual = y + lam * f.mid_values(y) - x
            assert np.all(np.abs(residual[inside]) <= 2.0 * np.spacing(np.abs(x[inside]))), f.name

    def test_jump_interval_resolves_to_breakpoint(self):
        _, cubic_jump, kink_jump = mid_value_graphs()
        for f, b in [(cubic_jump, 0.0), (kink_jump, -1.0), (kink_jump, 1.0)]:
            for lam in (2.0**-8, 0.1, 1.0):
                ends = tuple(b + lam * v for v in f.limits(b))
                xs = np.concatenate([np.linspace(*ends, 101), ends])
                assert np.all(resolvent_array(f, lam, xs) == b), (f.name, b, lam)
                assert all(resolvent_array(f, lam, x) == b for x in ends), (f.name, b, lam)
        assert resolvent_array(cubic_jump, 0.1, 0.0) == 0.0
        assert resolvent_array(cubic_jump, 0.1, np.array([-0.5, 0.0, 0.5]))[1] == 0.0

    def test_large_inputs_within_ulps(self, monkeypatch):
        # an absolute stop below one ulp of y used to run to its cap here
        monkeypatch.setattr(ge, "_MAX_ROOT_STEPS", 16)
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
                alone = np.array([resolvent_array(f, lam, x) for x in xs])
                assert batch.tobytes() == alone.tobytes(), (f.name, lam)

    @pytest.mark.parametrize("block", [7, ge._ROOT_BLOCK])
    def test_block_boundaries_do_not_move_bits(self, monkeypatch, block):
        # about three blocks, the last one short; every third x lies in a
        # knot's jump interval and every sixth is 0, the knot of f_lam
        lam, mu = 0.1, 0.05
        rng = np.random.default_rng(5)
        inputs = []
        for f in mid_value_graphs()[1:]:
            x = rng.normal(0.0, 1.5, 3 * block - 2)
            ends = np.array([[b + lam * v for v in f.limits(b)] for b in jumps(f)])
            lo, hi = ends[rng.integers(len(ends), size=x[::3].size)].T
            x[::3], x[1::6] = rng.uniform(lo, hi), 0.0
            inputs.append((f, x))

        def run(size):
            monkeypatch.setattr(ge, "_ROOT_BLOCK", size)
            return [(resolvent_array(f, lam, x).tobytes(),
                     yosida_of_yosida_array(f, lam, mu, x).tobytes()) for f, x in inputs]

        assert run(block) == run(3 * block)

    def test_working_set_does_not_grow_with_the_input(self):
        # the engine's temporaries (about 41 doubles per element) are one
        # block's, not the input's
        x = np.random.default_rng(6).normal(0.0, 1.5, 2**17)
        tracemalloc.start()
        try:
            resolvent_array(mid_value_graphs()[1], 2.0**-7, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * x.nbytes

    def test_branch_calls_per_resolve(self):
        # the benchmark's piecewise cubic at its two stepper levels: the table
        # brackets and starts each solve, so a resolve evaluates each branch
        # about twice (18 calls per resolve before the table)
        f = mid_value_graphs()[1]
        calls = []

        def counted(fn):
            return lambda x: calls.append(1) or fn(x)

        object.__setattr__(f, "branch_fns", tuple(counted(fn) for fn in f.branch_fns))
        rng = np.random.default_rng(7)
        for lam in (2.0**-6 + 2.0**-10, 2.0**-7 + 2.0**-10):
            for _ in range(64):
                resolvent_array(f, lam, rng.normal(0.0, 1.0, 127))
        assert len(calls) / 128 <= 5.0

    @pytest.mark.parametrize("lam", [2.0**-7 + 2.0**-10, 0.1])
    def test_table_edges(self, monkeypatch, lam):
        # x on the table's nodes, on each knot's interval ends x_c-+, just
        # inside and just past the table's x-range, and far past it, where the
        # 1-Lipschitz bracket takes over
        for f in mid_value_graphs()[1:]:
            table, c = sm._graph_table(f, lam), f._knots
            lo, hi = table.x[0], table.x[-1]
            ends = np.stack([c + lam * v for v in f.limits(c)], 1).ravel()
            xs = np.concatenate([table.x[::3], ends, np.nextafter([lo, hi], 0.0),
                                 np.nextafter([lo, hi], [-np.inf, np.inf]),
                                 [lo - 1.0, hi + 1.0, -1e6, 1e6]])
            y = resolvent_array(f, lam, xs)
            # the engine's stop rule: g changes sign within two ulps of y, or
            # |g(y)| is at most one ulp of max(|x|, |y|)
            g = lambda v: v + lam * f.mid_values(v) - xs  # noqa: E731
            ulp = np.spacing(np.abs(y))
            within = (g(y - 2.0 * ulp) <= 0.0) & (g(y + 2.0 * ulp) >= 0.0)
            within |= np.abs(g(y)) <= np.spacing(np.maximum(np.abs(xs), np.abs(y)))
            assert within.all(), (f.name, xs[~within])
            # each knot's interval ends resolve to exactly the knot
            assert np.all(resolvent_array(f, lam, ends) == np.repeat(c, 2))
            alone = np.array([resolvent_array(f, lam, x) for x in xs])
            assert y.tobytes() == alone.tobytes(), f.name
            monkeypatch.setattr(ge, "_ROOT_BLOCK", 7)
            assert resolvent_array(f, lam, xs).tobytes() == y.tobytes(), f.name
            monkeypatch.undo()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_beyond_table_within_steps(self, monkeypatch):
        # Beyond the table the bracket off its end node spans up to 300 orders
        # of magnitude, and _midpoint halves its exponent, so each solve here
        # stops within 17 steps.  A far end whose f overflows is pulled in,
        # and that does not warn.
        monkeypatch.setattr(ge, "_MAX_ROOT_STEPS", 24)
        far = np.array([1e3, 1e12, 1e40, 1e100, 1e200, 1e300])
        xs = np.concatenate([far, -far])
        for f in (power_graph(4.0), power_graph(2.5), power_graph(5.0), mid_value_graphs()[1]):
            for lam in (2.0**-6, 2.0**-7 + 2.0**-10, 0.1, 1.0):
                y = resolvent_array(f, lam, xs)
                # test_table_edges' stop rule
                g = lambda v: v + lam * f.mid_values(v) - xs  # noqa: E731
                ulp = np.spacing(np.abs(y))
                within = (g(y - 2.0 * ulp) <= 0.0) & (g(y + 2.0 * ulp) >= 0.0)
                within |= np.abs(g(y)) <= np.spacing(np.maximum(np.abs(xs), np.abs(y)))
                assert within.all(), (f.name, lam, xs[~within])
        # past 1.8e308 / lam, f(root) itself overflows
        with pytest.raises(NoConvergence, match=r"non-finite branch value f\(y\) = inf"):
            resolvent_array(power_graph(4.0), 2.0**-6, np.array([1e307]))

    def test_tables_live_on_their_graph(self):
        # at most _MAX_TABLES levels each, and none outlives its graph
        f = mid_value_graphs()[1]
        for i in range(sm._MAX_TABLES + 3):
            resolvent_array(f, 0.01 * (i + 1), np.array([0.5, -2.0]))
        assert len(f._tables) == sm._MAX_TABLES
        alive = weakref.ref(f)
        del f
        gc.collect()
        assert alive() is None

    def test_lambda_column_matches_rows(self):
        # a (B, 1) column of levels gives each row its own scalar-lambda result
        rng = np.random.default_rng(3)
        xs = rng.normal(0.0, 3.0, (4, 40))
        xs[:, :3] = [0.0, 0.01, -1.2]
        lams = np.array([0.25, 2.0**-4, 2.0**-8, 1e-6])
        graphs = [zero_graph(), linear_graph(2.0), power_graph(2.0), power_graph(2.5),
                  power_graph(3.0), sign_graph(), sign_plus_linear_graph(),
                  *mid_value_graphs()[1:], generic_sign()]
        for f in graphs:
            batch = resolvent_array(f, lams[:, None], xs)
            rows = np.array([resolvent_array(f, lam, x) for lam, x in zip(lams, xs)])
            assert batch.tobytes() == rows.tobytes(), f.name
            flam = yosida_array(f, lams[:, None], xs)
            assert flam.tobytes() == ((xs - rows) / lams[:, None]).tobytes(), f.name

    def test_closed_form_gets_the_lambda_column_as_given(self):
        # no flattened (B*M) copy of the levels: the closed form broadcasts the column
        rng = np.random.default_rng(4)
        xs = rng.normal(0.0, 3.0, (3, 40))
        lams = np.array([[0.25], [2.0**-4], [2.0**-8]])
        for f in (power_graph(3.0), sign_graph()):
            seen = []
            spy = dataclasses.replace(f, fast_resolvent=lambda x, lam, f=f: (
                seen.append((x.shape, lam.shape)) or f.fast_resolvent(x, lam)))
            assert resolvent_array(spy, lams, xs).tobytes() == \
                resolvent_array(f, lams, xs).tobytes(), f.name
            assert seen == [((3, 40), (3, 1))], f.name
            # a single state against the column broadcasts to one row per level
            spread = resolvent_array(f, lams, xs[0])
            assert spread.tobytes() == resolvent_array(f, lams, np.tile(xs[0], (3, 1))).tobytes()

    def test_lambda_array_needs_positive_entries(self):
        for f in (power_graph(3.0), generic_sign()):
            for bad in (0.0, -0.5):
                with pytest.raises(ValueError, match="lambda must be > 0"):
                    resolvent_array(f, np.array([[0.1], [bad]]), np.zeros((2, 3)))

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

    def test_non_finite_branch_value_names_graph_gap_and_value(self, monkeypatch):
        # nan only beyond the [-8, 8] that the build-time shape probe samples
        f = piecewise_graph("capped", [0.0], [lambda x: x - 1.0, lambda x: np.where(
            np.abs(x) > 8.0, np.nan, x + 1.0)], 1.0, 2.0)
        for block in (ge._ROOT_BLOCK, 1):  # then each element in a block of its own
            monkeypatch.setattr(ge, "_ROOT_BLOCK", block)
            assert resolvent_array(f, 1.0, np.array([-3.0, 0.5, 7.0])).tolist() == [-1.0, 0.0, 3.0]
            with np.errstate(invalid="ignore"), pytest.raises(NoConvergence) as err:
                resolvent_array(f, 1.0, np.array([1.0, 30.0]))
            # x = 30 lies above the table's end node, y = 8 at x = 17, so it is
            # bracketed by [8, 8 + (30 - 17)]; its upper end is the first value met
            assert str(err.value) == ("resolvent of 'capped' meets a non-finite branch "
                                      "value f(y) = nan at y = 21.0 on knot gap 1")

    def test_nan_inside_a_knot_gap_names_graph_value_and_gap(self):
        # finite at every build probe (multiples of 1/16) and every table node
        # (multiples of 1/64), nan in between: the bracket on the gap is finite
        # at both ends, and the root solve inside it meets the nan
        f = piecewise_graph("grated", [], [compile_branch("x + 0*sqrt(cos(128*pi*x))")],
                            1.0, 1.0)
        with pytest.raises(NoConvergence) as err:
            resolvent_array(f, 0.5, np.array([0.15]))
        assert re.fullmatch(r"resolvent of 'grated' meets a non-finite branch value "
                            r"f\(y\) = nan at y = 0\.0999\d* on knot gap 1", str(err.value))

    def test_root_where_the_branch_is_finite_resolves(self):
        # the brackets of x = 12, 16, 17 reach y = 11, 15, 16, where the branch is
        # nan, but each root lies where it is finite: the far end is pulled in
        f = piecewise_graph("capped", [0.0], [lambda x: x - 1.0, lambda x: np.where(
            np.abs(x) > 8.0, np.nan, x + 1.0)], 1.0, 2.0)
        got = resolvent_array(f, 1.0, np.array([12.0, 16.0, 17.0, 7.0]))
        want = np.array([5.5, 7.5, 8.0, 3.0])
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(want))
        # at lam = 1/2 the root 23/3 lies past the first finite midpoint 5.75
        assert abs(resolvent_array(f, 0.5, 12.0) - 23.0 / 3.0) <= 2.0 * np.spacing(23.0 / 3.0)

    def test_far_end_pulled_in_beyond_the_table(self):
        # the branch is nan above 100, past the shape probe, so the table sees none;
        # beyond the table the far bracket end reaches the nan and is pulled in
        evaluated = []

        def upper(y):
            evaluated.append(np.max(y, initial=-np.inf))
            return np.where(y > 100.0, np.nan, y + 1.0)

        f = piecewise_graph("capped-far", [0.0], [lambda y: y - 1.0, upper], 1.0, 2.0)
        for lam, xs, want in ((1.0, [150.0, 201.0], [74.5, 100.0]), (0.5, [140.0], [93.0])):
            evaluated.clear()
            got = resolvent_array(f, lam, np.array(xs))
            assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.array(want))), (lam, got)
            assert max(evaluated) > 100.0
        with pytest.raises(NoConvergence, match=r"f\(y\) = nan at y = 196\.0"):
            resolvent_array(f, 1.0, np.array([205.0]))

    @settings(max_examples=200, deadline=None)
    @given(x=finite_floats, y=finite_floats, lam=small_lams)
    def test_contraction(self, x, y, lam):
        g = power_graph(3.0)
        rx, ry = resolvent_array(g, lam, x), resolvent_array(g, lam, y)
        assert abs(rx - ry) <= abs(x - y) + 1e-10


def family_digests(f: MonotoneGraph) -> tuple[str, str]:
    """sha256 of a built-in graph's resolvent at a number and at a (7, 1) column
    of levels and its limits (lo, then hi), then of its primitive, on FAMILY_X."""
    maps, primitive = hashlib.sha256(), hashlib.sha256(primitive_array(f, FAMILY_X).tobytes())
    for out in (resolvent_array(f, 0.3, FAMILY_X), resolvent_array(f, FAMILY_LAMS, FAMILY_X),
                *f.limits(FAMILY_X)):
        maps.update(np.ascontiguousarray(out).tobytes())
    return maps.hexdigest(), primitive.hexdigest()


# Tiny, huge and zero inputs (never -0.0, whose sign a closed form may drop),
# and a grid across the jumps' dead zones.
FAMILY_X = np.concatenate([[-1e10, -1e3, -1e-300, 0.0, 1e-300, 1e3, 1e10],
                           np.linspace(-4.0, 4.0, 41)])
FAMILY_LAMS = 0.5 ** np.arange(1.0, 8.0)[:, None]
# Recorded before the built-ins shared one family builder.  linear(c=2.5)'s
# primitive moved by at most one ulp then, and is checked to that.
FAMILY_DIGESTS = {
    "zero": ("97d6c57aebd8cc1c972395edb5c0611238124fa646e2aa3ecc61e6abd637d50c",
             "a1a4f5721c1c4610af7f71078f3a68c330536d679803b0e0507ee8dc10c5dfca"),
    "linear(c=1)": ("bef466e14f58eb63c24edcd3b10f78f9ec24629850af152120fa4538e31cc4a9",
                    "e50e1abaa18c7c153071cd311d377690e89135ed8a70d7f1bda65fb8c15f083c"),
    "linear(c=2.5)": ("03abdc07f148eeca8fe8415a87867c1c98866e98bbb8c1ffa4a0ba911db15a3a", None),
    "power(d=2)": ("cc26ba5e9cbed0031807049d8267a823a6f46a4bdd15af107026d0252271c49b",
                   "5e857200f7ad3b185a94b65a9e7526be5e535dfd0d0204436c9f68c2e9be3edf"),
    "power(d=3)": ("0c3cb78510b2eb272a0b3c9d770f0657221c4ce97f71898d91135858bfe5d1ad",
                   "a7ea938a09a226de9f071b610596c398f96eb2948979b6440af96303af5107ec"),
    "power(d=3,c=2)": ("44c8e6a18c1bbf7abf00e0147ab18fd6c5194af557c2261a4d544b0a9d90ce55",
                       "4d1b912913403246fb5fe3d7d285e4acf9433a361fbf48cf1ef6be479ad3c697"),
    "sign": ("423026a93389ec4990386a567c63f0fd26cc6ab4aab051ca81354633bfd0697d",
             "444faded0b440582c94f146488aeb9d6fc861de15dfda2f395957ac233807f8d"),
    "sign+linear": ("00f02ec0b77f6e3989b9b1a52f3738cb4f4f1fd0a393ca673bf21b973ae60137",
                    "85a794095792064998c9618d0de4efdd7c573528f513145b9eeb9a3c72cdd400"),
}


class TestDriftFamily:
    """The built-in drifts sgn(x)*(j + c*|x|^d) keep their bits."""

    @pytest.mark.parametrize("make", [
        zero_graph, linear_graph, lambda: linear_graph(2.5), lambda: power_graph(2),
        lambda: power_graph(3.0), lambda: power_graph(3, 2.0), sign_graph,
        sign_plus_linear_graph])
    def test_outputs_keep_their_bits(self, make):
        f = make()
        assert f.fast_resolvent is not None and f.fast_primitive is not None, f.name
        maps, primitive = family_digests(f)
        assert maps == FAMILY_DIGESTS[f.name][0], f.name
        if FAMILY_DIGESTS[f.name][1] is not None:
            assert primitive == FAMILY_DIGESTS[f.name][1], f.name

    @pytest.mark.parametrize("c", [0.5, 2.5, 3.0])
    def test_linear_primitive_within_an_ulp(self, c):
        # c*x^2/2 in the power primitive's order is within one ulp of 0.5*c*x*x
        want = 0.5 * c * FAMILY_X * FAMILY_X
        got = primitive_array(linear_graph(c), FAMILY_X)
        assert np.all(np.abs(got - want) <= np.spacing(want)), c

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.5])
    def test_first_power_is_linear(self, c):
        for lam in (0.3, FAMILY_LAMS):
            assert resolvent_array(power_graph(1, c), lam, FAMILY_X).tobytes() == \
                resolvent_array(linear_graph(c), lam, FAMILY_X).tobytes(), (c, lam)


class TestYosida:
    @pytest.mark.parametrize("lam, mu", [(0.25, 0.0), (0.25, -0.1), (0.0, 0.125), (-0.25, 0.125),
                                         (np.inf, 0.125), (0.25, np.nan)])
    def test_composed_needs_finite_positive_levels(self, lam, mu):
        # before any solve: a branch that raises is never reached
        g = piecewise_graph("untouched", [], [lambda x: x], 1.0, 1.0)
        object.__setattr__(g, "branch_fns", (lambda x: pytest.fail("a branch was evaluated"),))
        for f in (power_graph(3.0), g):
            with pytest.raises(ValueError, match="^lambda must be > 0$"):
                yosida_of_yosida_array(f, lam, mu, np.array([0.5]))

    def test_sign_clamp(self):
        assert yosida_array(sign_graph(), 0.5, 0.2) == pytest.approx(0.4, abs=1e-12)
        assert yosida_array(sign_graph(), 0.5, 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_linear(self):
        assert yosida_array(linear_graph(1.0), 1.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(x=finite_floats, y=finite_floats, lam=small_lams)
    def test_lipschitz_and_monotone(self, x, y, lam):
        f = sign_plus_linear_graph()
        fx = yosida_array(f, lam, x)
        fy = yosida_array(f, lam, y)
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
        assert abs(yosida_array(g, 0.3, 0.0)) <= abs(section_min_abs(g, 0.0)) + 1e-12

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
        assert primitive_array(power_graph(3.0), 2.0) == pytest.approx(4.0, abs=1e-10)

    def test_anchor_at_zero(self, drifts):
        for f in drifts.values():
            assert primitive_array(f, 0.0) == 0.0

    def test_sign_negative_side(self):
        assert primitive_array(sign_graph(), -3.0) == pytest.approx(3.0, abs=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("f", [zero_graph(), linear_graph(), power_graph(3.0), sign_graph(),
                                   sign_plus_linear_graph(), generic_sign()],
                             ids=lambda f: f.name)
    def test_nonfinite_input_rejected(self, f, bad):
        # the closed forms reject it as the quadrature does, not just the resolvent
        with pytest.raises(NonFiniteInput, match="primitive input must be finite"):
            primitive_array(f, np.array([0.5, bad]))

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
                assert primitive_array(f, x) == pytest.approx(phi(x), abs=1e-9), f.name

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


class TestGraphConstruction:
    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            piecewise_graph("bad", [], [lambda x: -x], 1.0, 1.0)

    @pytest.mark.parametrize("breakpoints, n_branches, message", [
        ([0.0], 1, "^need exactly one more branch than breakpoints$"),
        ([1.0, 0.0], 3, "^breakpoints must be strictly increasing$"),
        ([0.0, 0.0], 3, "^breakpoints must be strictly increasing$"),
    ])
    def test_malformed_breakpoints_rejected(self, breakpoints, n_branches, message):
        with pytest.raises(ValueError, match=message):
            piecewise_graph("bad", breakpoints, [lambda x: x] * n_branches, 1.0, 1.0)

    def test_drop_at_a_breakpoint_rejected(self):
        # each branch rises and the right limits rise across the probes, so
        # only the breakpoint's two limits show f falling from 10 to 5
        with pytest.raises(ValueError, match="^graph 'steep' decreases across 0.0$"):
            piecewise_graph("steep", [0.0], [lambda x: 100 * x + 10, lambda x: x + 5],
                            1.0, 1000.0)

    def test_zero_outside_a_graph_declared_through_it_rejected(self):
        with pytest.raises(ValueError,
                           match=r"^graph 'lifted' declared 0 in f\(0\) but it is not$"):
            piecewise_graph("lifted", [], [lambda x: x + 1.0], 1.0, 2.0)
        piecewise_graph("lifted", [], [lambda x: x + 1.0], 1.0, 2.0, zero_in_graph=False)

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
            lo, hi = f.limits(0.0)
            assert lo <= 0.0 <= hi

    def test_declared_jumps_are_strict(self, drifts):
        for f in drifts.values():
            assert jumps(f).tolist() == list(f.breakpoints), f.name

    def test_zero_graph_is_identity_resolvent(self):
        xs = np.linspace(-3, 3, 11)
        assert np.array_equal(resolvent_array(zero_graph(), 0.5, xs), xs)
