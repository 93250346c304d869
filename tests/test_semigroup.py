"""Discrete Dirichlet Laplacian eigenstructure, semigroup axioms, convolution."""

import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import mildlab
from mildlab import semigroup
from mildlab.errors import EmptyInput, GridMismatch, NegativeTime
from mildlab.grid_space import (FieldSeries, Grid, GridFunction, duality_map,
                                gamma_eps, lq_norm, pairing)
from mildlab.semigroup import (MODE_CUTOFF, SPLIT_FROM_M, HeatSemigroup, MirrorSplit,
                               apply_generator, apply_resolvent, apply_semigroup,
                               convolve_series, semigroup_series)


def eigenvector(grid, k):
    """k-th orthonormal eigenvector sqrt(2) sin(k pi x) (1-based) on the nodes."""
    return GridFunction(grid, np.sqrt(2.0) * np.sin(np.pi * grid.nodes * k))


def run_with_blas_threads(script: str, threads: str) -> str:
    """stdout of ``script`` in a fresh interpreter whose BLAS uses ``threads`` threads."""
    src = str(Path(mildlab.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    proc = subprocess.run([sys.executable, "-c", script, src], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


FIELDS_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from mildlab.grid_space import Grid
from mildlab.noise import DiffusionSpec, sample_path
from mildlab.semigroup import HeatSemigroup
for M in (255, 383, 511):
    path = sample_path(HeatSemigroup(Grid(M)), DiffusionSpec(), 1.0, 2.0**-10, seed=20260101)
    print(M, hashlib.sha256(path.fields.values.tobytes()).hexdigest())
"""


class TestEigenstructure:
    def test_eigenvalues_ordered_positive(self, sg):
        mu = sg.eigenvalues
        assert mu[0] > 0
        assert np.all(np.diff(mu) > 0)

    def test_eigenvalue_formula(self, sg):
        h = sg.grid.h
        k = np.arange(1, sg.grid.M + 1)
        assert np.allclose(sg.eigenvalues, 4.0 / h**2 * np.sin(np.pi * k * h / 2) ** 2)

    def test_orthonormal_wrt_pairing(self, sg):
        for j in (1, 5, 40):
            for k in (1, 5, 40):
                got = pairing(eigenvector(sg.grid, j), eigenvector(sg.grid, k))
                assert got == pytest.approx(1.0 if j == k else 0.0, abs=1e-12)

    def test_lowest_eigenvalue_approaches_continuum(self):
        errs = []
        for M in (63, 127):
            sgM = HeatSemigroup(Grid(M), 1.0)
            errs.append(abs(sgM.eigenvalues[0] - np.pi**2))
        assert errs[1] < errs[0]

    def test_generator_matches_eigenvalues(self, sg):
        for k in (1, 7, 30):
            ek = eigenvector(sg.grid, k)
            got = apply_generator(sg, ek).values
            assert np.allclose(got, sg.eigenvalues[k - 1] * ek.values, atol=1e-8)


class TestModeTransform:
    def test_eigenvector_coefficients(self, sg):
        coeffs = sg.to_modes(eigenvector(sg.grid, 1).values)
        want = np.zeros(sg.grid.M)
        want[0] = 1.0
        assert np.allclose(coeffs, want, atol=1e-12)

    def test_zero(self, sg):
        z = GridFunction(sg.grid, np.zeros(sg.grid.M))
        assert np.all(sg.to_modes(z.values) == 0.0)

    def test_roundtrip_and_parseval(self, sg, rng):
        for _ in range(20):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            coeffs = sg.to_modes(phi.values)
            back = sg.from_modes(coeffs)
            assert np.max(np.abs(back - phi.values)) < 1e-12
            assert np.sum(coeffs**2) == pytest.approx(lq_norm(phi, 2.0) ** 2, rel=1e-12)

    def test_grid_mismatch(self, sg):
        # every operator names both sizes, the input's first
        other = GridFunction(Grid(5), np.zeros(5))
        both = f"M=5 vs M={sg.grid.M}"
        with pytest.raises(GridMismatch, match=both):
            apply_semigroup(sg, other, 0.1)
        with pytest.raises(GridMismatch, match=both):
            semigroup_series(sg, other, np.zeros(2))
        with pytest.raises(GridMismatch, match=both):
            apply_resolvent(sg, other, 0.1)
        with pytest.raises(GridMismatch, match=both):
            apply_generator(sg, other)
        with pytest.raises(GridMismatch, match=both):
            convolve_series(sg, FieldSeries(Grid(5), np.zeros((3, 5))), 0.1)

    def test_grid_mismatch_at_time_zero(self, sg):
        # S(0) is the identity, but only on the semigroup's own grid
        with pytest.raises(GridMismatch):
            apply_semigroup(sg, GridFunction(Grid(5), np.zeros(5)), 0.0)

    def test_rows_match_one_dimensional_form(self, sg, rng):
        # the FFT transforms each row on its own, so a row has the same bits alone and in a block
        for M in (sg.grid.M, 255, 383, 511):
            sg_m = HeatSemigroup(Grid(M))
            values = rng.standard_normal((1025, M))
            coeffs = sg_m.to_modes(values)
            back = sg_m.from_modes(coeffs)
            for n in range(values.shape[0]):
                assert np.array_equal(coeffs[n], sg_m.to_modes(values[n]))
                assert np.array_equal(back[n], sg_m.from_modes(coeffs[n]))
            assert np.max(np.abs(back - values)) <= 1e-14

    def test_noise_field_bits_do_not_depend_on_blas_threads(self):
        # the transforms are FFTs; GEMM transforms gave other bits under 2 threads at these M
        outputs = [run_with_blas_threads(FIELDS_SCRIPT, threads) for threads in ("1", "2")]
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 3


class TestPropagator:
    def test_built_lazily_once_per_time(self, monkeypatch):
        calls = []
        original = semigroup._sine_block
        monkeypatch.setattr(semigroup, "_sine_block",
                            lambda sg, t, k, size: calls.append(size) or original(sg, t, k, size))
        sg = HeatSemigroup(Grid(15))
        assert calls == []
        sg.stepper(0.01)
        assert calls == [15]
        # the split builds dense halves with the same kernel, factor pairs from a sine table
        HeatSemigroup(Grid(SPLIT_FROM_M + 1)).stepper(2.0**-14)
        assert calls[1:] == [(SPLIT_FROM_M + 2) // 2, (SPLIT_FROM_M + 1) // 2]
        assert len(HeatSemigroup(Grid(SPLIT_FROM_M + 1)).stepper(0.01).even) == 2
        assert len(calls) == 3

    @pytest.mark.parametrize("M", [31, SPLIT_FROM_M])
    def test_concurrent_calls_agree_without_a_lock(self, M):
        # stepper keeps no shared state, so threads sharing a semigroup build the same bits
        sg = HeatSemigroup(Grid(M))
        barrier = threading.Barrier(8)

        def build(_):
            barrier.wait(timeout=10.0)
            step = sg.stepper(0.01)
            return step if isinstance(step, np.ndarray) else np.concatenate(
                [op.ravel() for op in step.even + step.odd])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(build, range(8), timeout=30.0))
        finally:
            sys.setswitchinterval(interval)
        assert all(g.tobytes() == got[0].tobytes() for g in got)

    def test_is_the_modal_semigroup(self, sg, rng):
        # read-only flag, modal product, composition: test_below_switch_is_the_dense_product
        t = 2.0**-10
        prop = sg.stepper(t)
        for v in rng.standard_normal((5, sg.grid.M)):
            phi = GridFunction(sg.grid, v)
            assert np.max(np.abs(v @ prop - apply_semigroup(sg, phi, t).values)) <= 1e-13


STEPPER_SCRIPT = """
import hashlib, sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from mildlab.grid_space import Grid
from mildlab.semigroup import SPLIT_FROM_M, HeatSemigroup
for M in (127, SPLIT_FROM_M - 1, SPLIT_FROM_M, SPLIT_FROM_M + 1, 511):
    for delta in (2.0**-10, 2.0**-14):
        step = HeatSemigroup(Grid(M)).stepper(delta)
        v = np.random.default_rng(M).standard_normal((7, M))
        out = (v @ step).tobytes() + (v[0] @ step).tobytes()
        print(M, delta, hashlib.sha256(out).hexdigest())
"""


class TestStepper:
    T = 2.0**-10
    # at M = SPLIT_FROM_M and above, T keeps both halves as factor pairs, FINE dense blocks
    FINE = 2.0**-14

    @pytest.mark.parametrize("M", [63, 127, SPLIT_FROM_M - 1])
    def test_below_switch_is_the_dense_product(self, M, rng):
        sg = HeatSemigroup(Grid(M))
        step = sg.stepper(self.T)
        assert isinstance(step, np.ndarray) and step.shape == (M, M)
        with pytest.raises(ValueError, match="read-only"):
            step[0, 0] = 0.0
        values = rng.standard_normal((5, M))
        modal = sg.from_modes(np.exp(-sg.eigenvalues * self.T) * sg.to_modes(values))
        assert np.max(np.abs(values @ step - modal)) <= 1e-13
        assert np.allclose(sg.stepper(0.1) @ sg.stepper(0.2), sg.stepper(0.3),
                           rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("M", [31, 127, SPLIT_FROM_M - 1, SPLIT_FROM_M + 1])
    def test_blocks_are_exactly_symmetric(self, M):
        # A is self-adjoint, and entry (i, j) = c(|i - j|) - c(i + j + 2) keeps S(t) symmetric
        # bit for bit; a factor pair is symmetric as analysis = synthesis^T h diag(exp(-mu t))
        sg = HeatSemigroup(Grid(M))
        for t in (self.T, self.FINE):
            step = sg.stepper(t)
            if not isinstance(step, MirrorSplit):
                assert np.array_equal(step, step.T)
                continue
            for first, half in ((1, step.even), (2, step.odd)):
                head = half[0].copy()
                if M % 2 and first == 1:
                    head[M // 2] *= 2.0  # undo the exact halving of the middle node's row
                if len(half) == 1:
                    assert head.shape[0] > 0 and np.array_equal(head, head.T)
                    continue
                synthesis = half[1]
                k = np.arange(first, M + 1, 2)[:synthesis.shape[0]]
                scale = sg.grid.h * np.exp(-sg.eigenvalues[k - 1] * t)
                assert k.size > 0 and np.array_equal(head, synthesis.T * scale)

    @pytest.mark.parametrize("M", [SPLIT_FROM_M, SPLIT_FROM_M + 1])
    def test_split_is_the_dense_product(self, M, rng):
        sg = HeatSemigroup(Grid(M))
        # the reference is h B diag(w) B^T from the np.sin basis over all M modes, not the
        # stepper's kernels, so it also measures the modes a factor pair drops
        basis = np.sqrt(2.0) * np.sin(np.pi * np.outer(sg.grid.nodes, np.arange(1, M + 1)))
        for t, operators in ((self.T, 2), (self.FINE, 1)):
            step = sg.stepper(t)
            assert isinstance(step, MirrorSplit)
            assert len(step.even) == len(step.odd) == operators
            dense = (sg.grid.h * basis * np.exp(-sg.eigenvalues * t)) @ basis.T
            for v in (rng.standard_normal(M), rng.standard_normal((7, M))):
                out = v @ step
                assert out.shape == v.shape
                assert np.max(np.abs(out - v @ dense)) <= 1e-14

    @pytest.mark.parametrize("M", [SPLIT_FROM_M, SPLIT_FROM_M + 1])
    def test_split_keeps_mirror_parity_exactly(self, M, rng):
        half = rng.standard_normal((7, M // 2))
        middle = rng.standard_normal((7, M % 2))
        even = np.concatenate([half, middle, half[:, ::-1]], axis=1)
        odd = np.concatenate([half, 0.0 * middle, -half[:, ::-1]], axis=1)
        for t in (self.T, self.FINE):
            step = HeatSemigroup(Grid(M)).stepper(t)
            for v in (even, even[0]):
                out = v @ step
                assert np.array_equal(out, out[..., ::-1])
            for v in (odd, odd[0]):
                out = v @ step
                assert np.array_equal(out, -out[..., ::-1])
                if M % 2:
                    assert np.all(out[..., M // 2] == 0.0)

    def test_halves_keep_the_modes_above_the_cutoff(self):
        # a half is a factor pair over the r modes with exp(-mu_k t) > MODE_CUTOFF when
        # 2 r < its size: 33 of 256 and 33 of 255 at M = 511, t = 2^-10
        sg = HeatSemigroup(Grid(511))
        step = sg.stepper(self.T)
        assert [op.shape for op in step.even] == [(256, 33), (33, 256)]
        assert [op.shape for op in step.odd] == [(255, 33), (33, 255)]
        factors = np.exp(-sg.eigenvalues * self.T)
        assert factors[65] > MODE_CUTOFF >= factors[66]  # k = 66 kept, k = 67 dropped
        # 2 r >= size keeps the dense half blocks: 193 and 192 modes of 193 and 192 at M = 385,
        # and 153 and 152 of 256 and 255 at M = 511, where a pair would store more entries
        step = HeatSemigroup(Grid(SPLIT_FROM_M + 1)).stepper(self.FINE)
        assert [op.shape for op in step.even] == [(193, 193)]
        assert [op.shape for op in step.odd] == [(192, 192)]
        assert np.count_nonzero(np.exp(-sg.eigenvalues * self.FINE) > MODE_CUTOFF) == 305
        step = sg.stepper(self.FINE)
        assert [op.shape for op in step.even] == [(256, 256)]
        assert [op.shape for op in step.odd] == [(255, 255)]

    # not at M = SPLIT_FROM_M + 1, in either form: for a half of 193 = 8 * 24 + 1 nodes OpenBLAS
    # steps the rows past the fourth with another kernel, whose last bit may differ
    @pytest.mark.parametrize("M, t", [(127, T), (SPLIT_FROM_M, FINE), (SPLIT_FROM_M, T),
                                      (511, FINE), (511, T)])
    def test_row_bits_do_not_depend_on_its_place_in_a_block(self, M, t, rng):
        # nor on the block's height; a column-major synthesis gave 2-4 and 5-8 rows other bits
        step = HeatSemigroup(Grid(M)).stepper(t)
        row = rng.standard_normal(M)
        got = set()
        for rows in range(2, 9):
            for place in range(rows):
                block = rng.standard_normal((rows, M))
                block[place] = row
                got.add((block @ step)[place].tobytes())
        assert len(got) == 1

    @pytest.mark.parametrize("M, t", [(127, T), (SPLIT_FROM_M + 1, FINE),
                                      (SPLIT_FROM_M, T), (511, T)])
    def test_negative_entries_are_rounding(self, M, t):
        # exact exp(-tA) is entrywise nonnegative; the built one only up to a few ulps
        dense = np.eye(M) @ HeatSemigroup(Grid(M)).stepper(t)
        assert dense.min() < 0.0
        assert dense.min() >= -8 * np.spacing(dense.max())

    def test_stepper_bits_do_not_depend_on_blas_threads(self):
        # every stepper is built without the BLAS; a threaded GEMM build is not reproducible.
        outputs = [run_with_blas_threads(STEPPER_SCRIPT, threads) for threads in ("1", "2")]
        assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 10


class TestSemigroupAxioms:
    def test_identity_at_zero(self, sg, rng):
        phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
        assert np.array_equal(apply_semigroup(sg, phi, 0.0).values, phi.values)

    def test_negative_time_rejected(self, sg):
        phi = GridFunction(sg.grid, np.zeros(sg.grid.M))
        with pytest.raises(NegativeTime):
            apply_semigroup(sg, phi, -0.1)

    @pytest.mark.parametrize("M", [15, SPLIT_FROM_M])
    def test_times_must_be_finite_and_nonnegative(self, M):
        # a negative time grows every mode (entries of 1e43 at M = 15, t = -0.1), a nan one
        # gives nan, and a factor pair would keep no mode at a nan time and step with zero
        sg = HeatSemigroup(Grid(M))
        with pytest.raises(NegativeTime):
            sg.stepper(-0.1)
        phi = GridFunction(sg.grid, np.zeros(M))
        with pytest.raises(NegativeTime):
            semigroup_series(sg, phi, np.array([0.0, -0.1]))
        for t in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                sg.stepper(t)
            with pytest.raises(ValueError, match="finite"):
                apply_semigroup(sg, phi, t)
            with pytest.raises(ValueError, match="finite"):
                semigroup_series(sg, phi, np.array([0.0, t]))

    def test_eigenvector_decay(self, sg):
        ek = eigenvector(sg.grid, 4)
        t = 0.01
        got = apply_semigroup(sg, ek, t).values
        assert np.allclose(got, np.exp(-sg.eigenvalues[3] * t) * ek.values, atol=1e-13)

    def test_series_matches_pointwise(self, sg, rng):
        phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
        times = 0.01 * np.arange(5)
        series = semigroup_series(sg, phi, times)
        for n, t in enumerate(times):
            want = apply_semigroup(sg, phi, t).values
            assert np.max(np.abs(series.values[n] - want)) < 1e-12

    def test_composition(self, sg, rng):
        for _ in range(20):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            s, t = rng.uniform(0, 0.5, 2)
            two = apply_semigroup(sg, apply_semigroup(sg, phi, s), t)
            one = apply_semigroup(sg, phi, s + t)
            assert np.max(np.abs(two.values - one.values)) < 1e-12

    def test_contraction_all_exponents(self, sg, rng):
        for _ in range(20):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            t = rng.uniform(0, 1)
            out = apply_semigroup(sg, phi, t)
            for q in (1.0, 1.5, 2.0, 3.0):
                assert lq_norm(out, q) <= lq_norm(phi, q) + 1e-10
            assert np.max(np.abs(out.values)) <= np.max(np.abs(phi.values)) + 1e-10

    def test_positivity(self, sg, rng):
        for _ in range(20):
            phi = GridFunction(sg.grid, np.abs(rng.standard_normal(sg.grid.M)))
            out = apply_semigroup(sg, phi, rng.uniform(0, 0.5))
            assert np.min(out.values) >= -1e-12

    def test_uniform_initial_data_decays(self, sg):
        one = GridFunction(sg.grid, np.ones(sg.grid.M))
        assert np.max(np.abs(apply_semigroup(sg, one, 3.0).values)) < 1e-10

    def test_trivial_kernel(self, sg, rng):
        # small t keeps exp(-mu_M t) away from underflow; the bound is exact
        phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
        t = 1e-4
        lower = np.exp(-sg.eigenvalues[-1] * t) * lq_norm(phi, 2.0)
        assert lq_norm(apply_semigroup(sg, phi, t), 2.0) >= lower * (1 - 1e-12)
        assert lower > 0


class TestAccretivity:
    def test_duality_pairing_nonnegative(self, sg, rng):
        for _ in range(50):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            aphi = apply_generator(sg, phi)
            for q in (1.5, 2.0, 3.0):
                assert pairing(aphi, duality_map(phi, q)) >= -1e-10

    def test_sign_condition(self, sg, rng):
        for _ in range(50):
            phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
            aphi = apply_generator(sg, phi)
            for eps in (1.0, 1e-2, 1e-4):
                gam = GridFunction(sg.grid, gamma_eps(phi.values, eps))
                assert pairing(aphi, gam) >= -1e-10


class TestResolvent:
    def test_eigenvector(self, sg):
        ek = eigenvector(sg.grid, 2)
        got = apply_resolvent(sg, ek, 0.3).values
        assert np.allclose(got, ek.values / (1 + 0.3 * sg.eigenvalues[1]), atol=1e-13)

    def test_zero(self, sg):
        z = GridFunction(sg.grid, np.zeros(sg.grid.M))
        assert np.all(apply_resolvent(sg, z, 1.0).values == 0.0)

    def test_contraction(self, sg, rng):
        phi = GridFunction(sg.grid, rng.standard_normal(sg.grid.M))
        out = apply_resolvent(sg, phi, 0.5)
        for q in (1.0, 2.0, 3.0):
            assert lq_norm(out, q) <= lq_norm(phi, q) + 1e-12

    def test_small_eps_limit_on_smooth_probe(self, sg):
        smooth = GridFunction(sg.grid, np.sin(np.pi * sg.grid.nodes))
        out = apply_resolvent(sg, smooth, 1e-8)
        assert np.max(np.abs(out.values - smooth.values)) <= 1e-4


class TestConvolution:
    def test_zero_forcing(self, sg):
        fields = FieldSeries(sg.grid, np.zeros((9, sg.grid.M)))
        out = convolve_series(sg, fields, 0.125)
        assert np.all(out.values == 0.0)

    def test_constant_eigenvector_forcing(self, sg):
        ek = eigenvector(sg.grid, 3)
        N, delta = 64, 1.0 / 64
        fields = FieldSeries(sg.grid, np.tile(ek.values, (N + 1, 1)))
        mu = sg.eigenvalues[2]
        for n in (1, 17, 64):
            got = convolve_series(sg, fields, delta)[n].values
            want = ek.values * (1 - np.exp(-mu * n * delta)) / mu
            assert np.max(np.abs(got - want)) < 1e-13

    def test_linearity(self, sg, rng):
        vals_a = rng.standard_normal((17, sg.grid.M))
        vals_b = rng.standard_normal((17, sg.grid.M))
        delta = 0.01
        out_ab = convolve_series(sg, FieldSeries(sg.grid, vals_a + vals_b), delta)
        out_a = convolve_series(sg, FieldSeries(sg.grid, vals_a), delta)
        out_b = convolve_series(sg, FieldSeries(sg.grid, vals_b), delta)
        assert np.max(np.abs(out_ab.values - out_a.values - out_b.values)) < 1e-12

    def test_triangle_bound(self, sg, rng):
        vals = rng.standard_normal((33, sg.grid.M))
        delta = 1.0 / 32
        fields = FieldSeries(sg.grid, vals)
        out = convolve_series(sg, fields, delta)
        for q in (1.0, 2.0):
            norms = fields.norms(q)
            for n in (8, 32):
                assert lq_norm(out[n], q) <= delta * np.sum(norms[:n]) + 1e-12

    def test_first_order_refinement_on_smooth_forcing(self, sg):
        # F(t, x) = sin(pi x) cos(2 pi t); smooth in time, O(delta) quadrature
        shape = np.sin(np.pi * sg.grid.nodes)
        T = 0.5

        def build(delta):
            times = np.arange(round(T / delta) + 1) * delta
            fields = FieldSeries(sg.grid, np.outer(np.cos(2 * np.pi * times), shape))
            return convolve_series(sg, fields, delta)

        exact_mu = sg.eigenvalues[0]
        # reference at a much finer step
        fine = build(2.0**-12)
        errs = []
        for delta in (2.0**-6, 2.0**-7):
            coarse = build(delta)
            stride = round(delta / 2.0**-12)
            diff = coarse.values - fine.values[::stride]
            errs.append(np.max(np.abs(diff)))
        assert errs[0] > errs[1]
        assert 1.5 <= errs[0] / errs[1] <= 2.5
        assert exact_mu > 0

    def test_empty_input(self, sg):
        with pytest.raises(EmptyInput):
            convolve_series(sg, FieldSeries(sg.grid, np.zeros((0, sg.grid.M))), 0.1)
