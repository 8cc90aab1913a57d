"""Full-rank reference solver."""

import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import naive_fullrank_step, naive_rk4
from pndose import dlra
from pndose.angular import PNOperators
from pndose.dlra import ScatteringContext, StreamingContext, rk4
from pndose.driver import FullRankSolver
from pndose.errors import NumericalError
from pndose.fullrank import FullRankWorkspace, fullrank_scattering_step, fullrank_streaming_step
from pndose.spatial import SLAB_CELLS, Grid3D, build_stencils


def advection_context(nz=40):
    grid = Grid3D(1, 1, nz, 1.0, 1.0, 0.1)
    return grid, StreamingContext(
        np.full(grid.n_cells, 0.1), build_stencils(grid), PNOperators.build(1)
    )


def oracle_contexts(grid, n_max, n_beams, rng):
    """Streaming and scattering contexts of one step with random coefficients."""
    ops = PNOperators.build(n_max)
    n, m = grid.n_cells, ops.basis.size
    inv_s = 1.0 / rng.uniform(8.0, 20.0, n)
    g_diags = 0.5 * np.abs(rng.standard_normal((12, m)))
    scat_ctx = ScatteringContext(
        element_weights=np.abs(rng.standard_normal((n, 12))),
        inv_s=inv_s,
        g_diags=g_diags,
        sigma_t=g_diags.max(axis=1) + np.abs(rng.standard_normal(12)),
        sources=[(np.abs(rng.standard_normal(n)), rng.standard_normal(m))
                 for _ in range(n_beams)],
    )
    return StreamingContext(inv_s, build_stencils(grid), ops), scat_ctx


def oracle_solver(stream_ctx):
    """The driver's FullRankSolver for the contexts' grid and PN order."""
    n, m = stream_ctx.inv_s.size, stream_ctx.ops.basis.size
    return FullRankSolver(SimpleNamespace(n_cells=n, n_moments=m, ops=stream_ctx.ops,
                                          stencils=stream_ctx.stencils))


class TestStreaming:
    def test_zero_state(self):
        grid, ctx = advection_context()
        u = np.zeros((grid.n_cells, 4))
        work = FullRankWorkspace(ctx.stencils, ctx.ops)
        assert np.abs(fullrank_streaming_step(u, 0.1, ctx, work)).max() == 0.0

    def test_rk4_exact_on_constant_rhs(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((5, 3))

        def constant(_, out, scale, base):
            np.add(base, scale * c, out=out)

        y = np.zeros((5, 3))
        y = rk4(constant, y, 0.7, np.empty_like(y))
        np.testing.assert_allclose(y, 0.7 * c, atol=1e-15)

    @pytest.mark.parametrize("dt", [0.7, 1e-3, 3.1e5])
    def test_rk4_is_the_four_stage_form(self, dt):
        # for a linear f the Horner stages give the textbook step with
        # fresh arrays, to rounding
        rng = np.random.default_rng(12)
        a = rng.standard_normal((6, 6))
        y0 = rng.standard_normal((9, 6))

        def linear(x, out, scale, base):
            np.add(base, scale * (x @ a), out=out)

        y = y0.copy()
        assert rk4(linear, y, dt, np.empty_like(y)) is y
        want = naive_rk4(lambda x: x @ a, y0, dt)
        assert np.linalg.norm(y - want) <= 1e-14 * np.linalg.norm(want)

    def test_rk4_stages_alias_as_designed(self):
        # stage 1 reads y into the stage array, stages 2 and 3 write over
        # their own input, the stage array, and stage 4 writes over y; every
        # stage adds onto y, with the scales of the Horner form
        y, stage = np.ones((4, 3)), np.empty((4, 3))
        calls = []

        def record(x, out, scale, base):
            calls.append((x is y, x is stage, out is stage, out is y, base is y, scale))
            np.add(base, scale * x, out=out)

        rk4(record, y, 0.3, stage)
        assert calls == [(True, False, True, False, True, 0.25 * 0.3),
                         (False, True, True, False, True, 0.3 / 3.0),
                         (False, True, True, False, True, 0.5 * 0.3),
                         (False, True, False, True, True, 0.3)]

    def test_one_step_is_four_streaming_calls(self, monkeypatch):
        # each Horner stage is one apply_streaming call, looked up as
        # pndose.dlra's global, which perfbench's tracer probes
        grid = Grid3D(4, 5, 6, 0.1, 0.1, 0.1)
        stream_ctx, _ = oracle_contexts(grid, 3, 1, np.random.default_rng(5))
        calls = []
        original = dlra.apply_streaming

        def counting(*args, **kwargs):
            calls.append(args[4] is args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(dlra, "apply_streaming", counting)
        u = np.random.default_rng(6).standard_normal((grid.n_cells, stream_ctx.ops.basis.size))
        fullrank_streaming_step(u, 0.1, stream_ctx, FullRankWorkspace(stream_ctx.stencils,
                                                                      stream_ctx.ops))
        # stages 2 and 3 write over their own input, the stage array
        assert calls == [False, True, True, False]

    def test_step_is_the_stability_polynomial(self):
        # F_S is linear, so one step is R(hL) u = sum_k (hL)^k u / k!
        grid = Grid3D(4, 5, 6, 0.1, 0.1, 0.1)
        stream_ctx, _ = oracle_contexts(grid, 3, 1, np.random.default_rng(7))
        u = np.random.default_rng(8).standard_normal((grid.n_cells, stream_ctx.ops.basis.size))
        want, term = u.copy(), u
        for k in range(1, 5):
            term = 0.2 / k * stream_ctx.full_rhs(term)
            want += term
        work = FullRankWorkspace(stream_ctx.stencils, stream_ctx.ops)
        got = fullrank_streaming_step(u.copy(), 0.2, stream_ctx, work)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_blowup_detected(self):
        grid, ctx = advection_context()
        rng = np.random.default_rng(4)
        u = rng.standard_normal((grid.n_cells, 4))
        work = FullRankWorkspace(ctx.stencils, ctx.ops)
        with pytest.raises(NumericalError, match="amplified"):
            fullrank_streaming_step(u, 1e4, ctx, work)

    def test_blowup_of_a_negative_state_detected(self):
        # max |u| of a state whose entries are all negative is -min u
        grid, ctx = advection_context()
        u = -np.abs(np.random.default_rng(4).standard_normal((grid.n_cells, 4)))
        work = FullRankWorkspace(ctx.stencils, ctx.ops)
        with pytest.raises(NumericalError, match="amplified"):
            fullrank_streaming_step(u, 1e4, ctx, work)

    def test_non_finite_rejected(self):
        grid, ctx = advection_context(8)
        u = np.zeros((grid.n_cells, 4))
        u[0, 0] = np.nan
        work = FullRankWorkspace(ctx.stencils, ctx.ops)
        with pytest.raises(NumericalError, match="non-finite"):
            fullrank_streaming_step(u, 0.1, ctx, work)


    @pytest.mark.parametrize("value", [np.nan, -np.inf, np.inf])
    def test_non_finite_entry_rejected(self, value):
        # max |u| is taken without forming |u|: a NaN or an infinity of
        # either sign anywhere in the state must stop the step before it
        # runs, so no stage computes on it (no RuntimeWarning) and u is
        # left as handed in
        grid, ctx = advection_context(8)
        u = np.zeros((grid.n_cells, 4))
        u[5, 2] = value
        before = u.copy()
        work = FullRankWorkspace(ctx.stencils, ctx.ops)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="non-finite.*before the step"):
                fullrank_streaming_step(u, 0.1, ctx, work)
        assert np.array_equal(u, before, equal_nan=True)

    def test_non_finite_result_rejected(self):
        # a finite state that the step turns into NaN (here through a NaN
        # stopping power) is caught after the step
        grid, ctx = advection_context(8)
        ctx = StreamingContext(np.full(grid.n_cells, np.nan), ctx.stencils, ctx.ops)
        u = np.ones((grid.n_cells, 4))
        work = FullRankWorkspace(ctx.stencils, ctx.ops)
        with pytest.raises(NumericalError, match=r"max \|u\| 1 -> nan"):
            fullrank_streaming_step(u, 0.1, ctx, work)


class TestScattering:
    def test_pure_decay_closed_form(self):
        # no source and isotropy-free: every (cell, moment) entry follows
        # the scalar implicit-Euler update u / (1 + dt sigma)
        n, m = 8, 4
        rng = np.random.default_rng(6)
        weights = np.abs(rng.standard_normal((n, 12)))
        inv_s = np.abs(rng.standard_normal(n)) + 0.5
        g_diags = np.zeros((12, m))
        sigma_t = np.abs(rng.standard_normal(12))
        ctx = ScatteringContext(weights, inv_s, g_diags, sigma_t, [])
        u = rng.standard_normal((n, m))
        dt = 0.7
        rates = (weights * inv_s[:, None]) @ (sigma_t[:, None] - g_diags)
        expected = u / (1.0 + dt * rates)
        np.testing.assert_allclose(
            fullrank_scattering_step(u, dt, ctx, np.empty_like(u)), expected, atol=1e-14
        )

    def test_fp_degree_zero_column_unchanged(self):
        from pndose.angular import PNBasis, fokker_planck_tables

        n, n_max = 10, 2
        m = PNBasis(n_max).size
        rng = np.random.default_rng(8)
        g_fp, _ = fokker_planck_tables(3.0e-24, n_max, 0.0, PNBasis(n_max).degrees)
        g_fp = np.tile(g_fp, (12, 1))
        ctx = ScatteringContext(
            element_weights=np.abs(rng.standard_normal((n, 12))) * 1e22,
            inv_s=np.full(n, 0.08),
            g_diags=g_fp,
            sigma_t=np.zeros(12),
            sources=[],
        )
        u = rng.standard_normal((n, m))
        out = fullrank_scattering_step(u.copy(), 0.5, ctx, np.empty_like(u))
        np.testing.assert_allclose(out[:, 0], u[:, 0], atol=1e-15)

    def test_source_linearity(self):
        n, m = 12, 9
        rng = np.random.default_rng(10)
        base = ScatteringContext(
            element_weights=np.abs(rng.standard_normal((n, 12))),
            inv_s=np.abs(rng.standard_normal(n)) + 0.2,
            g_diags=rng.standard_normal((12, m)) * 0.1,
            sigma_t=np.abs(rng.standard_normal(12)),
            sources=[(np.abs(rng.standard_normal(n)), rng.standard_normal(m))],
        )
        scratch = np.empty((n, m))
        one = fullrank_scattering_step(np.zeros((n, m)), 0.3, base, scratch)
        doubled = ScatteringContext(
            base.element_weights,
            base.inv_s,
            base.g_diags,
            base.sigma_t,
            [(2.0 * base.sources[0][0], base.sources[0][1])],
        )
        two = fullrank_scattering_step(np.zeros((n, m)), 0.3, doubled, scratch)
        np.testing.assert_allclose(two, 2.0 * one, atol=1e-14)


    def test_scratch_sharing_the_state_is_refused(self):
        n, m = 6, 4
        rng = np.random.default_rng(11)
        g_diags = np.zeros((12, m))
        ctx = ScatteringContext(np.abs(rng.standard_normal((n, 12))), np.ones(n), g_diags,
                                np.ones(12), [(np.ones(n), np.ones(m))])
        memory = np.zeros((n + 1, m))
        u = memory[:n]
        for scratch in (u, memory[1:]):
            with pytest.raises(ValueError, match="share no memory"):
                fullrank_scattering_step(u, 0.1, ctx, scratch)


class TestWorkspaceStep:
    CASES = {
        "p7-three-axes": (Grid3D(5, 4, 6, 0.1, 0.12, 0.1), 7, 1),
        "inactive-x-axis": (Grid3D(1, 5, 6, 0.1, 0.1, 0.1), 7, 1),
        "two-beams": (Grid3D(4, 3, 5, 0.1, 0.1, 0.1), 3, 2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_the_naive_step(self, case):
        # the workspace step runs RK4 in Horner form, sums each axis' two
        # upwind terms in one back GEMM and scales the stencil entries,
        # not the state, by 1/S, so it rounds differently from the
        # textbook form with fresh arrays, one term at a time; 4 steps
        # stay within 4.7e-16 (max abs, relative)
        grid, n_max, n_beams = self.CASES[case]
        rng = np.random.default_rng(23)
        stream_ctx, scat_ctx = oracle_contexts(grid, n_max, n_beams, rng)
        solver = oracle_solver(stream_ctx)
        solver.u[...] = rng.standard_normal(solver.u.shape)
        naive = solver.u.copy()
        for _ in range(4):
            naive = naive_fullrank_step(naive, 0.2, stream_ctx, scat_ctx)
            solver.step(0.2, stream_ctx, scat_ctx)
            assert np.abs(solver.u - naive).max() <= 1e-14 * np.abs(naive).max()
        assert np.abs(naive).max() > 0.0

    def test_steps_with_new_stopping_powers_match_the_naive_step(self):
        # the stencil entries are scaled by each step's own 1/S: a second
        # step with other stopping powers must not reuse the first's
        grid = Grid3D(5, 4, 6, 0.1, 0.12, 0.1)
        rng = np.random.default_rng(37)
        first, (stream_ctx, scat_ctx) = (oracle_contexts(grid, 3, 1, rng) for _ in range(2))
        second = StreamingContext(stream_ctx.inv_s, first[0].stencils, first[0].ops), scat_ctx
        contexts = (first, second)
        solver = oracle_solver(first[0])
        solver.u[...] = rng.standard_normal(solver.u.shape)
        naive = solver.u.copy()
        for stream_ctx, scat_ctx in contexts:
            naive = naive_fullrank_step(naive, 0.2, stream_ctx, scat_ctx)
            solver.step(0.2, stream_ctx, scat_ctx)
            assert np.abs(solver.u - naive).max() <= 1e-14 * np.abs(naive).max()

    def test_steps_allocate_no_state_sized_arrays(self):
        # what a step allocates beyond the workspace: the scattering
        # step's (n, 12) factors and, once per step, the index temporaries
        # of folding 1/S into the stencil pairs. Measured: 0.38 of the
        # state (0.52 when each upwind term allocated its own (n, k)
        # stencil product); the fresh-array form peaks at about 7.4
        grid = Grid3D(6, 6, 10, 0.1, 0.1, 0.1)
        stream_ctx, scat_ctx = oracle_contexts(grid, 7, 1, np.random.default_rng(29))
        solver = oracle_solver(stream_ctx)
        state_bytes = solver.u.nbytes
        peaks = []
        tracemalloc.start()
        try:
            for _ in range(4):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                solver.step(0.2, stream_ctx, scat_ctx)
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert max(peaks[1:]) <= 0.5 * state_bytes, [p / state_bytes for p in peaks]

    def test_workspace_numbers_on_the_preset30_grid(self):
        # 10 x 10 x 30 cells at P7 (m = 64, 2k = 56): the state and the
        # Horner stage array, rings of 256 + 2 * 2 stride_d rows (260, 296
        # and 656), one 256-cell slab and the 49 800 folded stencil entries
        grid = Grid3D(10, 10, 30, 0.1, 0.1, 0.1)
        stencils, ops = build_stencils(grid), PNOperators.build(7)
        work = FullRankWorkspace(stencils, ops)
        assert stencils.stacked.nnz == 49_800
        assert 3000 * 64 + work.numbers == 2 * 3000 * 64 + (260 + 296 + 656 + 256) * 56 + 49_800
        assert 3000 * 64 + work.numbers == 516_008

    def test_peak_transient_numbers_count_the_workspace(self):
        # the state plus every workspace buffer, as tracemalloc sees the
        # solver allocate them: the (n, m) Horner stage array, one ring of the
        # characteristic product per axis, one slab of its stencil product
        # and the folded stencil entries, one per stack entry. With 256-cell
        # slabs on n = 520 cells a ring spans, at its widest slab [256,
        # 512), from the lowest row the slab reads to c1 + 2 stride_d:
        # x from 256 (cell 256 starts an x row) to 514, y from 248 to 520
        # and z from 216 to 520. Beside them the workspace holds the stack's
        # column indices mapped to the rings, one int32 per stencil entry,
        # and a few KiB of Python objects, the slab plan and array headers.
        # The stack itself is an operator of the grid, built before
        # tracing starts, and the workspace holds no copy of it.
        grid = Grid3D(4, 5, 26, 0.1, 0.1, 0.1)
        stream_ctx, _ = oracle_contexts(grid, 7, 1, np.random.default_rng(31))
        ops, stencils = stream_ctx.ops, stream_ctx.stencils
        n, m = grid.n_cells, ops.basis.size
        width = ops.forward_rotation[0].shape[1]
        assert SLAB_CELLS == 256 and n == 520
        assert stencils.stacked.indices.dtype == np.int32
        tracemalloc.start()
        try:
            solver = oracle_solver(stream_ctx)
            allocated = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert solver.peak_state_numbers == n * m
        assert solver.peak_transient_numbers == (
            2 * n * m + (258 + 272 + 304 + SLAB_CELLS) * width + stencils.stacked.nnz)
        assert abs(allocated - 8 * solver.peak_transient_numbers
                   - 4 * stencils.stacked.nnz) < 8192
