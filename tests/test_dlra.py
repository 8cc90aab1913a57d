"""Low-rank integrator: BUG streaming, scattering substeps, truncation."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from pndose.angular import PNBasis, PNOperators, fokker_planck_tables
from pndose.dlra import (
    LowRankState,
    ScatteringContext,
    StreamingContext,
    TruncationPolicy,
    implicit_l_step,
    orthonormal_columns,
    scattering_step,
    streaming_step,
    truncate,
)
from pndose.errors import NumericalError
from pndose.fullrank import FullRankWorkspace, fullrank_scattering_step, fullrank_streaming_step
from pndose.spatial import Grid3D, build_stencils

from oracles import (
    per_column_implicit_l_step,
    per_term_k_rhs,
    per_term_l_rhs,
    per_term_moment_factors,
    per_term_s_step_factors,
)


def zero_streaming_context():
    grid = Grid3D(1, 1, 1, 1.0, 1.0, 1.0)
    return StreamingContext(np.ones(1), build_stencils(grid), PNOperators.build(1))


def advection_setup(nz=64, n_max=3):
    grid = Grid3D(1, 1, nz, 1.0, 1.0, 0.1)
    stencils = build_stencils(grid)
    ops = PNOperators.build(n_max)
    inv_s = np.full(grid.n_cells, 1.0 / 12.0)
    return grid, StreamingContext(inv_s, stencils, ops), ops


def random_scattering_context(n, m, rng, homogeneous=True, with_source=True):
    if homogeneous:
        weights = np.tile(np.abs(rng.standard_normal(12)), (n, 1)) * 1e22
    else:
        weights = np.abs(rng.standard_normal((n, 12))) * 1e22
    g_diags = np.abs(rng.standard_normal((12, m))) * 1e-28
    sigma_t = g_diags[:, 0] + np.abs(rng.standard_normal(12)) * 1e-28
    sources = []
    if with_source:
        sources = [(np.abs(rng.standard_normal(n)), rng.standard_normal(m))]
    return ScatteringContext(
        element_weights=weights,
        inv_s=np.full(n, 1.0 / 12.0),
        g_diags=g_diags,
        sigma_t=sigma_t,
        sources=sources,
    )


def full_rank_state(u_full):
    uu, ss, vvt = np.linalg.svd(u_full, full_matrices=False)
    return LowRankState(u=uu, s=np.diag(ss), v=vvt.T)


class TestState:
    def test_zero_init_orthonormal(self):
        state = LowRankState.zero(40, 9, 3)
        assert state.orthonormality_defect() == 0.0
        assert np.abs(state.matrix()).max() == 0.0
        # the start is the first identity columns, fixed without a seed
        np.testing.assert_array_equal(state.u, np.eye(40, 3))
        np.testing.assert_array_equal(state.v, np.eye(9, 3))

    def test_orthonormal_columns_rank_deficient(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 2))
        stacked = np.hstack([a, a])  # rank 2, 4 columns
        q = orthonormal_columns(stacked)
        assert np.abs(q.T @ q - np.eye(4)).max() < 1e-10

    def test_orthonormal_columns_reach_the_pivoted_fallback(self, monkeypatch):
        # Householder QR gives an orthonormal Q even on duplicated columns,
        # so the fallback guards the LAPACK path itself: a Q that fails the
        # check (here, one whose last column repeats its third) is replaced
        # by the pivoted QR of the blocks as given
        dorgqr, pivoted, calls = lapack.dorgqr, scipy.linalg.qr, []

        def defective_dorgqr(*args, **kwargs):
            q, work, info = dorgqr(*args, **kwargs)
            q[:, 3] = q[:, 2]
            return q, work, info

        def counting_qr(*args, **kwargs):
            calls.append(kwargs.get("pivoting"))
            return pivoted(*args, **kwargs)

        monkeypatch.setattr(lapack, "dorgqr", defective_dorgqr)
        monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
        a = np.random.default_rng(0).standard_normal((12, 2))
        q = orthonormal_columns(a, a)
        assert calls == [True]
        assert q.shape == (12, 4) and np.abs(q.T @ q - np.eye(4)).max() < 1e-10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_orthonormal_columns_raise_on_a_non_finite_block(self, bad):
        # a NaN defect fails no comparison, so the orthonormality check
        # alone would let an all-NaN Q through
        a = np.array([[bad, 1.0], [1.0, 2.0], [0.5, 0.1]])
        with pytest.raises(NumericalError, match="non-finite basis"):
            orthonormal_columns(a)

    def test_orthonormal_columns_equal_numpy_qr(self):
        # a C-contiguous Q equal to np.linalg.qr's, bit for bit, on a
        # random basis pair and on the [0 | U0] start of a run
        rng = np.random.default_rng(1)
        k, u0 = rng.standard_normal((2520, 2)), np.linalg.qr(rng.standard_normal((2520, 2)))[0]
        for blocks in ((k, u0), (np.zeros_like(k), u0), (rng.standard_normal((2520, 4)),)):
            q = orthonormal_columns(*blocks)
            assert q.flags.c_contiguous
            assert np.array_equal(q, np.linalg.qr(np.hstack(blocks))[0])

    def test_orthonormal_columns_of_a_wide_block(self):
        # one cell: two columns span one direction, as np.linalg.qr reduces it
        q = orthonormal_columns(np.array([[2.0]]), np.array([[1.0]]))
        assert np.array_equal(q, np.linalg.qr(np.array([[2.0, 1.0]]))[0])


class TestStreamingStep:
    def test_zero_dynamics_reconstruction(self):
        ctx = zero_streaming_context()
        state = LowRankState.zero(1, 4, 1)
        state.s = np.array([[2.5]])
        out = streaming_step(state, 0.3, ctx)
        assert np.abs(out.matrix() - state.matrix()).max() < 1e-12
        # augmentation containment: old bases in the span of new ones
        proj_u = out.u @ (out.u.T @ state.u)
        assert np.abs(proj_u - state.u).max() < 1e-10

    def test_projected_rhs_match_naive(self):
        # k/l/s right-hand sides agree with reconstructing the full matrix;
        # each phase's factors stack the upwind terms on their first two
        # axes, (axis, sign)
        rng = np.random.default_rng(3)
        grid = Grid3D(5, 4, 6, 0.2, 0.25, 0.2)
        ops = PNOperators.build(2)
        ctx = StreamingContext(
            1.0 / rng.uniform(8.0, 20.0, grid.n_cells), build_stencils(grid), ops
        )
        n, m, r = grid.n_cells, ops.basis.size, 3
        u0 = orthonormal_columns(rng.standard_normal((n, r)))
        v0 = orthonormal_columns(rng.standard_normal((m, r)))
        k = rng.standard_normal((n, r))
        l = rng.standard_normal((m, r))
        s = rng.standard_normal((r, r))

        k_factors = ctx._moment_factors(v0)
        assert k_factors.shape == (3, 2, r, r)
        naive_k = ctx.full_rhs(k @ v0.T) @ v0
        np.testing.assert_allclose(
            ctx.k_rhs(k, k_factors, np.empty_like(k)), naive_k, atol=1e-12
        )
        a, q = ctx.l_step_factors(u0)
        assert a.shape == (3, 2, m, m) and q.shape == (3, 2, r, r)
        naive_l = ctx.full_rhs(u0 @ l.T).T @ u0
        np.testing.assert_allclose(
            ctx.galerkin_rhs(l, (a, q), np.empty_like(l)), naive_l, atol=1e-12
        )
        p, f = ctx.s_step_factors(u0, v0)
        assert p.shape == f.shape == (3, 2, r, r)
        naive_s = u0.T @ ctx.full_rhs(u0 @ s @ v0.T) @ v0
        np.testing.assert_allclose(
            ctx.galerkin_rhs(s, (p, f), np.empty_like(s)), naive_s, atol=1e-12
        )

    @pytest.mark.parametrize("r", [2, 7])
    @pytest.mark.parametrize("grid", [
        Grid3D(5, 4, 6, 0.2, 0.25, 0.2),
        Grid3D(5, 1, 6, 0.2, 1.0, 0.2),
        Grid3D(1, 1, 9, 1.0, 1.0, 0.2),
        Grid3D(1, 1, 1, 1.0, 1.0, 1.0),
    ], ids=["3axes", "2axes", "1axis", "0axes"])
    def test_batched_kernels_match_per_term_oracles(self, grid, r):
        rng = np.random.default_rng(7 + r)
        ops = PNOperators.build(3)
        ctx = StreamingContext(
            1.0 / rng.uniform(8.0, 20.0, grid.n_cells), build_stencils(grid), ops
        )
        n, m = grid.n_cells, ops.basis.size
        u0 = rng.standard_normal((n, r))
        v0 = orthonormal_columns(rng.standard_normal((m, r)))
        k = rng.standard_normal((n, r))
        l = rng.standard_normal((m, r))
        axes = len(ctx.stencils.active_axes)

        def check(got, want):
            assert got.shape == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

        check(ctx._moment_factors(v0), np.reshape(per_term_moment_factors(ctx, v0),
                                                  (axes, 2, r, r)))
        check(ctx.k_rhs(k, ctx._moment_factors(v0), np.empty_like(k)),
              per_term_k_rhs(ctx, k, v0))
        check(ctx.galerkin_rhs(l, ctx.l_step_factors(u0), np.empty_like(l)),
              per_term_l_rhs(ctx, l, u0))
        for got, want in zip(ctx.s_step_factors(u0, v0), per_term_s_step_factors(ctx, u0, v0)):
            check(got, np.reshape(want, (axes, 2, r, r)))
    def test_rank1_advection_matches_full_step(self):
        # single augmented BUG step vs the full-rank RK4 step; the S-phase
        # Galerkin projection deviates at O(dt^3), so a small step lands
        # well under the 1e-8 gate
        grid, ctx, ops = advection_setup()
        z = grid.cell_centers()[:, 2]
        j = int(np.argmax(ctx.ops.lam_plus[2]))
        bump = np.exp(-0.5 * ((z - 3.0) / 0.5) ** 2)
        u_full = np.outer(bump, ops.eig_v[2][:, j])
        state = full_rank_state(u_full)
        dt = 0.05
        full = fullrank_streaming_step(
            u_full.copy(), dt, ctx, FullRankWorkspace(ctx.stencils, ops)
        )
        low = streaming_step(state, dt, ctx)
        low_t, _ = truncate(low, TruncationPolicy(0.0, rank_min=1, rank_max=16))
        dev = np.linalg.norm(low_t.matrix() - full) / np.linalg.norm(full)
        assert dev < 1e-8

    def test_orthonormality_after_step(self):
        grid, ctx, ops = advection_setup()
        rng = np.random.default_rng(5)
        state = LowRankState.zero(grid.n_cells, ops.basis.size, 3)
        state.s = np.diag(rng.uniform(0.5, 2.0, 3))
        out = streaming_step(state, 0.1, ctx)
        assert out.orthonormality_defect() < 1e-10


class TestScatteringStep:
    def test_no_source_isotropic_cancellation(self):
        # G_i = sigma_t,i I: in- and out-scattering cancel, state preserved
        rng = np.random.default_rng(11)
        n, m = 60, 9
        base = random_scattering_context(n, m, rng, with_source=False)
        ctx = ScatteringContext(base.element_weights, base.inv_s,
                                np.tile(base.sigma_t[:, None], (1, m)), base.sigma_t)
        u_full = rng.standard_normal((n, m))
        state = full_rank_state(u_full)
        out = scattering_step(state, 0.4, ctx)
        assert np.abs(out.matrix() - u_full).max() < 1e-12 * np.abs(u_full).max()

    def test_context_is_frozen(self):
        # its absorption and source factors derive from the fields on
        # construction, so assigning a field afterwards must fail loudly
        rng = np.random.default_rng(12)
        ctx = random_scattering_context(20, 9, rng)
        absorption = ctx.absorption.copy()
        for name in ("g_diags", "sigma_t", "sources", "absorption"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ctx, name, getattr(ctx, name))
        assert np.array_equal(ctx.absorption, absorption)

    def test_fp_no_source_decay_and_constant_degree_zero(self):
        rng = np.random.default_rng(13)
        n, n_max = 50, 2
        basis = PNBasis(n_max)
        m = basis.size
        xi1 = 2.0e-24
        g_fp = fokker_planck_tables(xi1, n_max, 0.0, basis.degrees)[0]
        weights = np.tile(np.abs(rng.standard_normal(12)), (n, 1)) * 1e22
        ctx = ScatteringContext(
            element_weights=weights,
            inv_s=np.full(n, 0.1),
            g_diags=np.tile(g_fp, (12, 1)),
            sigma_t=np.zeros(12),
            sources=[],
        )
        u_full = rng.standard_normal((n, m))
        state = full_rank_state(u_full)
        out, _ = truncate(
            scattering_step(state, 0.5, ctx), TruncationPolicy(0.0, rank_min=m, rank_max=m)
        )
        got = out.matrix()
        # degree-0 column exactly constant, all columns non-expanding
        np.testing.assert_allclose(got[:, 0], u_full[:, 0], atol=1e-12)
        for q in range(m):
            assert np.linalg.norm(got[:, q]) <= np.linalg.norm(u_full[:, q]) * (1 + 1e-12)

    def test_maximal_rank_matches_fullrank(self):
        rng = np.random.default_rng(17)
        n, m = 200, 16
        ctx = random_scattering_context(n, m, rng)
        u_full = rng.standard_normal((n, m))
        state = full_rank_state(u_full)
        dt = 0.3
        full = fullrank_scattering_step(u_full.copy(), dt, ctx, np.empty_like(u_full))
        low, _ = truncate(
            scattering_step(state, dt, ctx), TruncationPolicy(0.0, rank_min=m, rank_max=m)
        )
        dev = np.linalg.norm(low.matrix() - full) / np.linalg.norm(full)
        assert dev < 1e-10

    @pytest.mark.parametrize("r", [1, 2, 9, 26])
    def test_batched_implicit_solve_matches_per_column_loop(self, r):
        # O(1) stiffness dt (sigma_t,i - g_i,q) w_i / S, heterogeneous weights
        rng = np.random.default_rng(31 + r)
        n, m, dt = 90, 64, 0.5
        g_diags = 0.5 * np.abs(rng.standard_normal((12, m)))
        ctx = ScatteringContext(
            element_weights=np.abs(rng.standard_normal((n, 12))),
            inv_s=rng.uniform(0.5, 1.5, n),
            g_diags=g_diags,
            sigma_t=g_diags.max(axis=1) + np.abs(rng.standard_normal(12)),
        )
        u0 = orthonormal_columns(rng.standard_normal((n, r)))
        l0 = rng.standard_normal((m, r))
        got = implicit_l_step(u0, l0, dt, ctx)
        want = per_column_implicit_l_step(u0, l0, dt, ctx)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("r", [2, 26])
    def test_implicit_solve_equals_broadcast_form_bit_for_bit(self, r):
        # the B_i as one broadcast product u0.T[None] * (w_i/S)[:, None, :]
        # times u0. The GEMM over the outer products u_a u_b rounds them
        # differently in their last bits, but at the transport scale of
        # the weights (dt (sigma_t,i - g_i,q) w_i/S ~ 1e-6) those bits
        # fall below the rounding of the systems and their solutions
        rng = np.random.default_rng(47 + r)
        n, m, dt = 2520, 64, 0.5
        ctx = random_scattering_context(n, m, rng, homogeneous=False)
        u0 = orthonormal_columns(rng.standard_normal((n, r)))
        l0 = rng.standard_normal((m, r))
        spatial = ctx.element_weights.T * ctx.inv_s
        b_mats = (u0.T[None] * spatial[:, None, :]) @ u0
        mats = np.eye(r) + dt * (ctx.absorption.T @ b_mats.reshape(12, r * r)).reshape(m, r, r)
        want = np.linalg.solve(mats, l0[:, :, None])[:, :, 0]
        assert np.array_equal(implicit_l_step(u0, l0, dt, ctx), want)

    def test_singular_middle_column_is_named(self):
        n, m, r = 4, 5, 2
        # as below, but only columns 2 and 4 have the vanishing matrix
        # I + dt sum_i (-1) I/12; the error names the first of them
        state = LowRankState(
            u=np.eye(n)[:, :r], s=np.eye(r), v=np.eye(m)[:, :r]
        )
        g_diags = np.zeros((12, m))
        g_diags[:, [2, 4]] = 1.0
        ctx = ScatteringContext(
            element_weights=np.ones((n, 12)) / 12.0,
            inv_s=np.ones(n),
            g_diags=g_diags,
            sigma_t=np.zeros(12),
            sources=[],
        )
        with pytest.raises(NumericalError, match="moment column 2;"):
            scattering_step(state, 1.0, ctx)

    def test_singular_implicit_solve_reports_column(self):
        n, m, r = 4, 3, 2
        # exact unit-vector bases make B_i = I/12 exactly, so the implicit
        # matrix I + dt sum_i (-1) B_i vanishes identically at dt = 1
        state = LowRankState(
            u=np.eye(n)[:, :r], s=np.eye(r), v=np.eye(m)[:, :r]
        )
        ctx = ScatteringContext(
            element_weights=np.ones((n, 12)) / 12.0,
            inv_s=np.ones(n),
            g_diags=np.zeros((12, m)),
            sigma_t=-np.ones(12),
            sources=[],
        )
        with pytest.raises(NumericalError, match="column"):
            scattering_step(state, 1.0, ctx)


class TestTruncation:
    def test_spec_example(self):
        state = LowRankState(np.eye(4), np.diag([5.0, 3.0, 1e-9, 1e-12]), np.eye(4))
        out, tail = truncate(state, TruncationPolicy(0.01, rank_min=1, rank_max=10))
        assert out.rank == 2
        assert tail == pytest.approx(1.001e-9, rel=1e-3)

    def test_zero_threshold_keeps_numerical_rank(self):
        state = LowRankState(np.eye(4), np.diag([5.0, 3.0, 1e-9, 1e-12]), np.eye(4))
        out, tail = truncate(state, TruncationPolicy(0.0, rank_min=1, rank_max=10))
        assert out.rank == 4
        assert tail == 0.0

    def test_reconstruction_error_bound(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n, m, r = 30, 20, 12
            u = orthonormal_columns(rng.standard_normal((n, r)))
            v = orthonormal_columns(rng.standard_normal((m, r)))
            s = rng.standard_normal((r, r)) * np.exp(-np.arange(r))
            state = LowRankState(u, s, v)
            theta = 10.0 ** rng.uniform(-6, -1)
            out, tail = truncate(state, TruncationPolicy(theta, rank_min=1, rank_max=r))
            err = np.linalg.norm(out.matrix() - state.matrix())
            assert tail <= theta + 1e-15
            assert err <= tail + 1e-12  # Frobenius <= tail sum

    def test_rank_bounds_respected(self):
        rng = np.random.default_rng(29)
        u = orthonormal_columns(rng.standard_normal((20, 6)))
        v = orthonormal_columns(rng.standard_normal((10, 6)))
        state = LowRankState(u, np.diag([4.0, 2.0, 1.0, 0.5, 0.1, 0.01]), v)
        out, _ = truncate(state, TruncationPolicy(100.0, rank_min=3, rank_max=5))
        assert out.rank == 3  # clamped up to rank_min
        with pytest.raises(NumericalError, match="rank_max"):
            truncate(state, TruncationPolicy(1e-9, rank_min=1, rank_max=2))

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            TruncationPolicy(-1.0, rank_min=1, rank_max=2)
        with pytest.raises(ValueError):
            TruncationPolicy(0.1, rank_min=5, rank_max=2)
