"""The chunked time loop and the row-blocked transform: bits at chunk and block
edges, the studies that reduce chunks as they come, failure mid-stream, memory,
and the row-blocked DST, the cubic's closed form and the modal recursion,
against their one-expression forms."""

import tracemalloc
from itertools import pairwise

import numpy as np
import pytest

from mildlab.errors import NonFiniteInput
from mildlab.grid_space import Grid, GridFunction, lq_norm, lq_norms
from mildlab.noise import DiffusionSpec, NoisePath, path_seeds, sample_path
from mildlab.scalar_monotone import (power_graph, primitive_array, section_max_abs,
                                     sign_graph, yosida_array)
from mildlab.semigroup import HeatSemigroup, _dst1, _DST_ROWS, modal_recursion
from mildlab.solver import (DEFAULT_LAMBDA_SCHEDULE, SolverConfig, _CHUNK_ROWS,
                            regularized_chunks, solve_regularized)
from mildlab.verify import apriori_constants_study, cauchy_rate_study, moment_study

DELTA = 2.0**-10
SPEC = DiffusionSpec(c=1.0, gamma=1.0)


def whole_block(f, lam, u0, path):
    """The time loop as one (B, n_steps + 1, M) block, written out step by step."""
    levels = np.atleast_1d(np.asarray(lam, dtype=float))
    delta, z = path.delta, path.fields.values
    step = path.sg.stepper(delta)
    shifted = float(levels[0]) + delta if levels.size == 1 else levels[:, None] + delta
    out = np.empty((levels.size, path.n_steps + 1, path.grid.M))
    out[:, 0] = u0.values
    v = np.tile(u0.values - z[0], (levels.size, 1))
    for n in range(path.n_steps):
        r = v @ step + z[n + 1]
        w = r - delta * yosida_array(f, shifted, r)
        out[:, n + 1] = w
        v = w - z[n + 1]
    return out


def whole_dst1(v):
    """The DST-I of every row at once, through one zero pad of the whole array."""
    M = v.shape[-1]
    padded = np.zeros(v.shape[:-1] + (2 * (M + 1),))
    padded[..., 1:M + 1] = v
    return -np.fft.rfft(padded)[..., 1:M + 1].imag


def setting(M, n_steps, seed=5):
    grid = Grid(M)
    path = sample_path(HeatSemigroup(grid), SPEC, n_steps * DELTA, DELTA, seed)
    return GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes)), path


class TestChunks:
    @pytest.mark.parametrize("M", [127, 384, 385])
    def test_block_is_the_chunks_and_the_whole_loop(self, M):
        f = power_graph(3.0) if M == 127 else sign_graph()
        for n_steps in (1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 1024):
            u0, path = setting(M, n_steps)
            for lam in (0.125, np.asarray(DEFAULT_LAMBDA_SCHEDULE)):
                chunks = [c.copy() for c in regularized_chunks(f, lam, u0, path)]
                rows = [c.shape[1] for c in chunks]
                assert rows[:-1] == [_CHUNK_ROWS] * (len(rows) - 1)
                assert 1 <= rows[-1] <= _CHUNK_ROWS and sum(rows) == n_steps + 1
                block = solve_regularized(f, lam, u0, path)
                assert block.tobytes() == np.concatenate(chunks, axis=1).tobytes()
                assert block.tobytes() == whole_block(f, lam, u0, path).tobytes(), (n_steps,
                                                                                     np.size(lam))

    def test_chunks_are_read_only_views_of_one_buffer(self):
        u0, path = setting(31, 3 * _CHUNK_ROWS)
        bases = set()
        for chunk in regularized_chunks(sign_graph(), DEFAULT_LAMBDA_SCHEDULE, u0, path):
            with pytest.raises(ValueError, match="read-only"):
                chunk[0, 0, 0] = 1.0
            bases.add(id(chunk.base))
        assert len(bases) == 1

    def test_nan_midway_raises_rather_than_returning(self):
        u0, path = setting(31, 1024)
        modes = path.mode_values.copy()
        modes[700, 3] = np.nan  # z(t_700) is nan at most nodes
        broken = NoisePath(path.sg, path.spec, path.T, path.delta, path.seed, modes)
        assert np.isnan(broken.fields.values[700]).any()
        assert np.isfinite(broken.fields.values[:700]).all()
        seen = []
        with pytest.raises(NonFiniteInput, match="resolvent input must be finite"):
            for chunk in regularized_chunks(sign_graph(), DEFAULT_LAMBDA_SCHEDULE, u0, broken):
                seen.append(chunk.shape[1])
        assert sum(seen) == 700 - 700 % _CHUNK_ROWS  # the chunk holding step 700 never came
        with pytest.raises(NonFiniteInput):
            solve_regularized(sign_graph(), DEFAULT_LAMBDA_SCHEDULE, u0, broken)
        config = SolverConfig(lambda_schedule=DEFAULT_LAMBDA_SCHEDULE)
        with pytest.raises(NonFiniteInput):
            cauchy_rate_study(sign_graph(), 2.0, [path, broken], config, u0)


class TestStreamedStudies:
    """Each streamed result equals the whole-block formula it replaced, bit for bit."""

    @pytest.fixture(scope="class")
    def runs(self):
        grid = Grid(31)
        sg = HeatSemigroup(grid)
        # 129 rows: two full chunks and a one-row tail
        paths = [sample_path(sg, SPEC, 2 * _CHUNK_ROWS * DELTA, DELTA, int(s))
                 for s in path_seeds(31, 100)]
        u0 = GridFunction(grid, 0.5 * np.sin(np.pi * grid.nodes))
        return grid, paths, u0, SolverConfig(lambda_schedule=DEFAULT_LAMBDA_SCHEDULE)

    def test_cauchy_gaps(self, runs):
        grid, paths, u0, config = runs
        f = power_graph(3.0)
        rep = cauchy_rate_study(f, 2.0, paths[:3], config, u0)
        for i, path in enumerate(paths[:3]):
            block = solve_regularized(f, config.lambda_schedule, u0, path)
            want = [float(np.max(lq_norms(a - b, grid.h, 2.0))) for a, b in pairwise(block)]
            assert rep.series[f"gaps_path{i}"] == want

    def test_moment_estimates(self, runs):
        grid, paths, u0, config = runs
        f, q, p = sign_graph(), 2.0, 2.0
        rep = moment_study(f, q, p, paths, config, u0)
        sups = np.asarray([
            [float(np.max(lq_norms(traj, grid.h, q))) ** p
             for traj in solve_regularized(f, config.lambda_schedule, u0, path)]
            for path in paths])
        assert rep.series["estimates"] == [float(e) for e in sups.mean(axis=0)]
        ses = sups.std(axis=0, ddof=1) / np.sqrt(len(paths))
        assert rep.series["standard_errors"] == [float(s) for s in ses]

    def test_apriori_margins(self, runs):
        grid, paths, u0, config = runs
        f, qs_linear, qs_square = power_graph(3.0), (1.5, 2.0, 3.0), (2.0, 4.0)
        rep = apriori_constants_study(f, qs_linear, qs_square, paths[:3], config, u0)
        for i, path in enumerate(paths[:3]):
            z = path.fields.values

            def left_sums(norms):
                return path.delta * np.concatenate([[0.0], np.cumsum(norms[:-1])])

            worst_linear = worst_square = -np.inf
            for traj in solve_regularized(f, config.lambda_schedule, u0, path):
                v = traj - z
                for q in qs_linear:
                    csum = left_sums(lq_norms(section_max_abs(f, z), grid.h, q))
                    worst_linear = max(worst_linear, float(np.max(
                        lq_norms(v, grid.h, q) - lq_norm(u0, q) - 4.0 * csum)))
                for q in qs_square:
                    csum = left_sums(lq_norms(primitive_array(f, z), grid.h, q / 2.0))
                    worst_square = max(worst_square, float(np.max(
                        lq_norms(v, grid.h, q) ** 2 - lq_norm(u0, q) ** 2 - 2.0 * csum)))
            assert rep.series["worst_linear_margin"][i] == worst_linear
            assert rep.series["worst_square_margin"][i] == worst_square

    def test_one_fine_path_holds_no_whole_block(self):
        # One sign-drift path at M = 511, T = 1, 7 levels.  A (7, 1025, 511)
        # block alone is 29.4 MB, and a study that held one peaked at 46 MB
        # here.  Streamed, the peak is the path's z (4.2 MB, built in the
        # traced region), one (7, 64, 511) chunk (1.8 MB) and the gap norms'
        # temporaries: 11.1 MB with numpy 2.4.
        u0, path = setting(511, 1024)
        config = SolverConfig(lambda_schedule=DEFAULT_LAMBDA_SCHEDULE)
        cauchy_rate_study(sign_graph(), 2.0, [path], config, u0, workers=1)  # warm caches
        fresh = NoisePath(path.sg, path.spec, path.T, path.delta, path.seed, path.mode_values)
        tracemalloc.start()
        try:
            cauchy_rate_study(sign_graph(), 2.0, [fresh], config, u0, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6, peak


class TestKernels:
    @pytest.mark.parametrize("n", [1, _DST_ROWS - 1, _DST_ROWS, _DST_ROWS + 1, 1025])
    def test_equals_the_whole_array_formula(self, n):
        rng = np.random.default_rng(n)
        for M in (31, 127, 511):
            for lead in ((), (n,), (3, n)):
                v = rng.normal(size=lead + (M,))
                for scale in (1.0, np.sqrt(2.0), Grid(M).h * np.sqrt(2.0)):
                    got = _dst1(v, scale)
                    assert got.shape == v.shape
                    assert got.tobytes() == (scale * whole_dst1(v)).tobytes(), (M, lead)

    def test_cubic_closed_form_is_the_one_expression_formula(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 3.0, (7, 2000)) * 10.0 ** rng.uniform(-3.0, 3.0, (7, 2000))
        levels = np.asarray(DEFAULT_LAMBDA_SCHEDULE)[:, None] + DELTA
        for c in (1.0, 2.5):
            f = power_graph(3.0, c)
            for lam in (0.1, 2.0**-8 + DELTA, levels):
                a, s, k = np.abs(x), np.sign(x), lam * c
                r = np.sqrt(3.0 * k)
                y = (2.0 / r) * np.sinh(np.arcsinh(1.5 * r * a) / 3.0)
                want = s * (y - (y + k * y**3 - a) / (1.0 + 3.0 * k * y * y))
                assert f.fast_resolvent(x, lam).tobytes() == want.tobytes(), (c, np.size(lam))

    def test_modal_recursion_is_the_step_by_step_update(self):
        rng = np.random.default_rng(3)
        for M in (31, 511):
            x = rng.normal(size=(300, M))
            decay, weight = rng.uniform(size=M), rng.uniform(size=M)
            want = np.zeros((301, M))
            for n in range(300):
                want[n + 1] = decay * want[n] + weight * x[n]
            assert modal_recursion(decay, weight, x).tobytes() == want.tobytes()
