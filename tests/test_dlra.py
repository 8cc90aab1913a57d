"""Low-rank integrator: BUG streaming, scattering substeps, truncation."""

import numpy as np
import pytest

from pndose.angular import PNBasis, PNOperators, scattering_matrix_fp
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
from pndose.fullrank import fullrank_scattering_step, fullrank_streaming_step
from pndose.spatial import Grid3D, build_stencils


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


def per_column_implicit_l_step(u0, l0, dt, ctx):
    """Substep 1 as one r x r solve per moment column: the reference loop."""
    r = u0.shape[1]
    spatial = ctx.element_weights * ctx.inv_s[:, None]             # (n, 12)
    b_mats = np.einsum("nr,ni,ns->irs", u0, spatial, u0)           # (12, r, r)
    coeffs = ctx.sigma_t[:, None] - ctx.g_diags                    # (12, m)
    l_cols = l0.T                                                  # (r, m)
    l_new = np.empty_like(l_cols)
    eye_r = np.eye(r)
    for q in range(l_cols.shape[1]):
        mat = eye_r + dt * np.tensordot(coeffs[:, q], b_mats, axes=(0, 0))
        l_new[:, q] = np.linalg.solve(mat, l_cols[:, q])
    return l_new.T


def full_rank_state(u_full):
    uu, ss, vvt = np.linalg.svd(u_full, full_matrices=False)
    return LowRankState(u=uu, s=np.diag(ss), v=vvt.T)


class TestState:
    def test_zero_init_orthonormal(self):
        state = LowRankState.zero(40, 9, 3, seed=7)
        assert state.orthonormality_defect() < 1e-13
        assert np.abs(state.matrix()).max() == 0.0
        # deterministic for a fixed seed
        again = LowRankState.zero(40, 9, 3, seed=7)
        np.testing.assert_array_equal(state.u, again.u)

    def test_orthonormal_columns_rank_deficient(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 2))
        stacked = np.hstack([a, a])  # rank 2, 4 columns
        q = orthonormal_columns(stacked)
        assert np.abs(q.T @ q - np.eye(4)).max() < 1e-10


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
        # k/l/s right-hand sides agree with reconstructing the full matrix
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

        naive_k = ctx.full_rhs(k @ v0.T) @ v0
        np.testing.assert_allclose(
            ctx.k_rhs(k, ctx._moment_factors(v0)), naive_k, atol=1e-12
        )
        naive_l = ctx.full_rhs(u0 @ l.T).T @ u0
        np.testing.assert_allclose(
            ctx.l_rhs(l, ctx.l_step_factors(u0)), naive_l, atol=1e-12
        )
        naive_s = u0.T @ ctx.full_rhs(u0 @ s @ v0.T) @ v0
        np.testing.assert_allclose(
            ctx.s_rhs(s, u0, ctx.s_step_factors(u0, v0)), naive_s, atol=1e-12
        )

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
        full = fullrank_streaming_step(u_full, dt, ctx)
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
        ctx = random_scattering_context(n, m, rng, with_source=False)
        ctx.g_diags = np.tile(ctx.sigma_t[:, None], (1, m))
        u_full = rng.standard_normal((n, m))
        state = full_rank_state(u_full)
        out = scattering_step(state, 0.4, ctx)
        assert np.abs(out.matrix() - u_full).max() < 1e-12 * np.abs(u_full).max()

    def test_fp_no_source_decay_and_constant_degree_zero(self):
        rng = np.random.default_rng(13)
        n, n_max = 50, 2
        basis = PNBasis(n_max)
        m = basis.size
        xi1 = 2.0e-24
        g_fp = scattering_matrix_fp(xi1, n_max)
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
        full = fullrank_scattering_step(u_full, dt, ctx)
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
            TruncationPolicy(-1.0)
        with pytest.raises(ValueError):
            TruncationPolicy(0.1, rank_min=5, rank_max=2)
