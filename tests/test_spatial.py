"""Grid, upwind stencils, and the streaming right-hand side."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _sparsetools

from oracles import whole_array_streaming
from pndose import spatial
from pndose.angular import PNOperators
from pndose.errors import ConfigError
from pndose.dlra import StreamingContext
from pndose.spatial import (
    Grid3D,
    StreamingWorkspace,
    _axis_stencil_1d,
    _lift_to_grid,
    apply_streaming,
    build_stencils,
    pair_reach,
)


def grid_1d_z(nz, dz=0.1):
    return Grid3D(nx=1, ny=1, nz=nz, dx=1.0, dy=1.0, dz=dz)


def axis_blocks(st, axis):
    """(plus, minus) stencil of an active axis, read from the stack."""
    j = st.active_axes.index(axis)
    return st.blocks[2 * j], st.blocks[2 * j + 1]


def lifted_terms(grid, axes):
    """Kron-lifted plus and minus stencils of the given axes, in stack order."""
    return [
        _lift_to_grid(_axis_stencil_1d(grid.shape[a], grid.spacings[a], biased), grid, a)
        for a in axes
        for biased in (True, False)
    ]


def dense_reference_streaming(u, inv_s, grid, ops):
    """Independent dense assembly of F_S: explicit per-cell loops, no kron."""

    def derivative_matrix(n, h, biased_minus):
        d = np.zeros((n, n))
        for i in range(n):
            if biased_minus:
                if i >= 2:
                    d[i, i], d[i, i - 1], d[i, i - 2] = 3 / (2 * h), -4 / (2 * h), 1 / (2 * h)
                elif i == 1:
                    d[i, i], d[i, i - 1] = 1 / h, -1 / h
                else:
                    d[i, i] = 1 / h
            else:
                if i <= n - 3:
                    d[i, i], d[i, i + 1], d[i, i + 2] = -3 / (2 * h), 4 / (2 * h), -1 / (2 * h)
                elif i == n - 2:
                    d[i, i], d[i, i + 1] = -1 / h, 1 / h
                else:
                    d[i, i] = -1 / h
        return d

    n = grid.n_cells
    out = np.zeros_like(u)
    scaled = inv_s[:, None] * u
    axis_sizes = grid.shape
    axis_spacings = grid.spacings
    for axis in range(3):
        size, h = axis_sizes[axis], axis_spacings[axis]
        if size == 1:
            continue
        dplus_1d = derivative_matrix(size, h, True)
        dminus_1d = derivative_matrix(size, h, False)
        dplus = np.zeros((n, n))
        dminus = np.zeros((n, n))
        for k in range(grid.nz):
            for j in range(grid.ny):
                for i in range(grid.nx):
                    row = grid.index(i, j, k)
                    pos = (i, j, k)[axis]
                    for other in range(size):
                        target = list((i, j, k))
                        target[axis] = other
                        col = grid.index(*target)
                        dplus[row, col] = dplus_1d[pos, other]
                        dminus[row, col] = dminus_1d[pos, other]
        v = ops.eig_v[axis]
        w = scaled @ v
        flux = (dplus @ w) * ops.lam_plus[axis] + (dminus @ w) * ops.lam_minus[axis]
        out -= flux @ v.T
    return out


class TestGrid:
    def test_index_bijection(self):
        g = Grid3D(3, 4, 5, 0.1, 0.1, 0.1)
        seen = {g.index(i, j, k) for k in range(5) for j in range(4) for i in range(3)}
        assert seen == set(range(g.n_cells))

    def test_bad_spacing(self):
        with pytest.raises(ConfigError):
            Grid3D(3, 3, 3, 0.0, 0.1, 0.1)

    def test_cell_centers_order(self):
        g = Grid3D(2, 1, 3, 0.5, 1.0, 0.25, origin=(1.0, 2.0, 3.0))
        centers = g.cell_centers()
        assert centers.shape == (6, 3)
        np.testing.assert_allclose(centers[g.index(1, 0, 2)], [1.75, 2.5, 3.625])


class TestStencils:
    def test_two_cell_axis_rejected(self):
        with pytest.raises(ConfigError, match="3-point"):
            build_stencils(Grid3D(2, 3, 3, 0.1, 0.1, 0.1))

    def test_constant_zero_on_interior(self):
        g = grid_1d_z(12)
        st = build_stencils(g)
        c = np.full(g.n_cells, 3.7)
        for d in axis_blocks(st, 2):
            res = d @ c
            assert np.abs(res[2:-2]).max() == 0.0

    def test_linear_exact_on_interior(self):
        g = grid_1d_z(16, dz=0.05)
        st = build_stencils(g)
        z = g.cell_centers()[:, 2]
        for d in axis_blocks(st, 2):
            res = d @ z
            np.testing.assert_allclose(res[2:-2], 1.0, atol=1e-12)

    def test_interior_row_sums_zero(self):
        g = Grid3D(5, 5, 5, 0.2, 0.2, 0.2)
        st = build_stencils(g)
        ones = np.ones(g.n_cells)
        interior = np.zeros(g.shape, dtype=bool)
        interior[2:-2, 2:-2, 2:-2] = True
        mask = interior.transpose(2, 1, 0).ravel()
        assert st.active_axes == (0, 1, 2)
        for d in st.blocks:
            assert np.abs((d @ ones)[mask]).max() == 0.0

    @pytest.mark.parametrize("grid", [
        Grid3D(5, 1, 6, 0.1, 0.1, 0.2),
        Grid3D(4, 3, 5, 0.1, 0.2, 0.3),
        Grid3D(1, 1, 7, 1.0, 1.0, 0.2),
    ])
    def test_blocks_view_the_stack(self, grid):
        # the stencils are stored once: each block reads the stacked entries
        # in place and is, as a matrix, the kron-lifted 1-D stencil
        st = build_stencils(grid)
        terms = lifted_terms(grid, st.active_axes)
        assert st.stacked.shape == (len(terms) * grid.n_cells, grid.n_cells)
        assert len(st.blocks) == len(terms)
        for block, lifted in zip(st.blocks, terms):
            assert np.shares_memory(block.data, st.stacked.data)
            assert np.shares_memory(block.indices, st.stacked.indices)
            assert np.array_equal(block.toarray(), lifted.toarray())

    @pytest.mark.parametrize("grid", [
        Grid3D(4, 3, 5, 0.1, 0.2, 0.3),
        Grid3D(1, 1, 7, 1.0, 1.0, 0.2),
    ])
    def test_pairs_interleave_the_blocks(self, grid):
        # row 2c + s of an axis' pair is row c of its plus (s = 0) or minus
        # (s = 1) block, entry for entry, in the columns 2c' + s
        st = build_stencils(grid)
        assert len(st.pairs) == len(st.active_axes)
        for j, pair in enumerate(st.pairs):
            for s, block in enumerate((st.blocks[2 * j], st.blocks[2 * j + 1])):
                rows = pair[s::2]
                assert np.array_equal(rows.indptr, block.indptr)
                assert np.array_equal(rows.data, block.data)
                assert np.array_equal(rows.indices, 2 * block.indices + s)

    def test_pair_kernel_is_the_sparse_product(self):
        # scipy's csr_matvecs, called on a zeroed slab with a slice of the
        # pair's indptr, gives the rows of pair @ y bit for bit
        rng = np.random.default_rng(12)
        grid = Grid3D(4, 3, 5, 0.1, 0.2, 0.3)
        n, k = grid.n_cells, 6
        y = rng.standard_normal((2 * n, k))
        for pair in build_stencils(grid).pairs:
            want = pair @ y
            for c0, c1 in ((0, n), (7, 19), (n - 5, n)):
                z = np.zeros((2 * (c1 - c0), k))
                _sparsetools.csr_matvecs(2 * (c1 - c0), 2 * n, k, pair.indptr[2 * c0:2 * c1 + 1],
                                         pair.indices, pair.data, y.ravel(), z.ravel())
                assert np.array_equal(z, want[2 * c0:2 * c1])

    def test_sin_convergence_order(self):
        errors = []
        for nz in (50, 100, 200):
            g = grid_1d_z(nz, dz=1.0 / nz)
            st = build_stencils(g)
            z = g.cell_centers()[:, 2]
            err = np.abs((axis_blocks(st, 2)[0] @ np.sin(z)) - np.cos(z))[4:-4].max()
            errors.append(err)
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders >= 1.9)


class TestStreaming:
    def setup_method(self):
        self.ops = PNOperators.build(1)

    def test_zero_input(self):
        g = grid_1d_z(8)
        st = build_stencils(g)
        u = np.zeros((g.n_cells, self.ops.basis.size))
        assert np.abs(apply_streaming(u, np.ones(g.n_cells), st, self.ops)).max() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = Grid3D(4, 3, 5, 0.1, 0.2, 0.1)
        st = build_stencils(g)
        inv_s = 1.0 / rng.uniform(5.0, 20.0, g.n_cells)
        u1 = rng.standard_normal((g.n_cells, 4))
        u2 = rng.standard_normal((g.n_cells, 4))
        lhs = apply_streaming(2.0 * u1 - 3.0 * u2, inv_s, st, self.ops)
        rhs = 2.0 * apply_streaming(u1, inv_s, st, self.ops) - 3.0 * apply_streaming(
            u2, inv_s, st, self.ops
        )
        assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(rhs).max())

    def test_advection_moves_downwind(self):
        # single positive characteristic: bump must move toward +z with no
        # upstream pollution; this locks the D+- pairing with Lambda+-
        g = grid_1d_z(160, dz=0.05)
        st = build_stencils(g)
        z = g.cell_centers()[:, 2]
        lam = self.ops.lam_plus[2]
        j = int(np.argmax(lam))
        speed = lam[j]
        assert speed > 0.0
        bump = np.exp(-0.5 * ((z - 2.0) / 0.4) ** 2)
        bump[np.abs(z - 2.0) > 4 * 0.4] = 0.0  # compact support
        u0 = np.outer(bump, self.ops.eig_v[2][:, j])
        inv_s = np.ones(g.n_cells)

        # one explicit Euler step: the minus-biased stencil only pulls from
        # below, so cells strictly upstream of the support stay untouched
        dt = 0.02
        u1 = u0 + dt * apply_streaming(u0, inv_s, st, self.ops)
        w1 = (u1 @ self.ops.eig_v[2])[:, j]
        upstream = z < 2.0 - 4 * 0.4
        assert np.abs(w1[upstream] - bump[upstream]).max() < 1e-15

        # RK4 run: the peak travels ~ speed * T downwind
        t_final, dt = 2.0, 0.02
        u = u0.copy()
        for _ in range(int(t_final / dt)):
            k1 = apply_streaming(u, inv_s, st, self.ops)
            k2 = apply_streaming(u + 0.5 * dt * k1, inv_s, st, self.ops)
            k3 = apply_streaming(u + 0.5 * dt * k2, inv_s, st, self.ops)
            k4 = apply_streaming(u + dt * k3, inv_s, st, self.ops)
            u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        w = (u @ self.ops.eig_v[2])[:, j]
        peak = z[np.argmax(w)]
        assert peak == pytest.approx(2.0 + speed * t_final, abs=3 * g.dz)
        before = z < 2.0 - 4 * 0.4
        assert np.abs(w[before]).max() < 1e-12

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(11)
        g = Grid3D(8, 8, 8, 0.25, 0.2, 0.3)
        st = build_stencils(g)
        ops = PNOperators.build(3)
        centers = g.cell_centers()
        u = np.cos(centers @ rng.standard_normal((3, ops.basis.size)))
        inv_s = 1.0 / rng.uniform(5.0, 15.0, g.n_cells)
        fast = apply_streaming(u, inv_s, st, ops)
        slow = dense_reference_streaming(u, inv_s, g, ops)
        assert np.abs(fast - slow).max() < 1e-12 * max(1.0, np.abs(slow).max())

    @pytest.mark.parametrize("n_max", [1, 3, 7])
    @pytest.mark.parametrize("grid", [
        Grid3D(1, 1, 23, 1.0, 1.0, 0.1),
        Grid3D(5, 1, 9, 0.2, 1.0, 0.1),
        Grid3D(4, 5, 6, 0.25, 0.2, 0.3),
    ], ids=["one-axis", "two-axes", "three-axes"])
    def test_slabbed_axes_match_dense_reference(self, n_max, grid, monkeypatch):
        # slabs of 7 cells, which divide none of the cell counts, and the
        # same workspace reused for a second call with other stopping powers
        monkeypatch.setattr(spatial, "SLAB_CELLS", 7)
        rng = np.random.default_rng(19)
        st = build_stencils(grid)
        ops = PNOperators.build(n_max)
        work = StreamingWorkspace(st, ops)
        assert grid.n_cells % spatial.SLAB_CELLS
        out = np.empty((grid.n_cells, ops.basis.size))
        for _ in range(2):
            u = rng.standard_normal(out.shape)
            inv_s = 1.0 / rng.uniform(5.0, 15.0, grid.n_cells)
            assert apply_streaming(u, inv_s, st, ops, out, work) is out
            slow = dense_reference_streaming(u, inv_s, grid, ops)
            assert np.linalg.norm(out - slow) <= 1e-12 * np.linalg.norm(slow)

    @pytest.mark.parametrize("slab_cells, grid", [
        (7, Grid3D(1, 1, 24, 1.0, 1.0, 0.1)),
        (7, Grid3D(5, 1, 9, 0.2, 1.0, 0.1)),
        (7, Grid3D(4, 5, 6, 0.25, 0.2, 0.3)),
        (spatial.SLAB_CELLS, Grid3D(4, 5, 6, 0.25, 0.2, 0.3)),
        (spatial.SLAB_CELLS, Grid3D(10, 10, 30, 0.1, 0.1, 0.1)),
    ], ids=["one-axis", "two-axes", "three-axes", "below-one-slab", "preset30-grid"])
    def test_slab_pipeline_is_the_whole_array_form(self, slab_cells, grid, monkeypatch):
        # forming each axis' characteristic product slab by slab, just
        # ahead of the stencil slabs that read it, changes no bit; with
        # 7-cell slabs the z pair of the three-axis grid reads 40 cells,
        # several slabs, ahead, and on the one-axis grid the pair's reach
        # ends one row short of the last (24 = 3 * 7 + 2 + 1). One
        # workspace serves two stopping powers.
        monkeypatch.setattr(spatial, "SLAB_CELLS", slab_cells)
        rng = np.random.default_rng(41)
        st = build_stencils(grid)
        ops = PNOperators.build(7)
        work = StreamingWorkspace(st, ops)
        out = np.empty((grid.n_cells, ops.basis.size))
        for _ in range(2):
            u = rng.standard_normal(out.shape)
            inv_s = 1.0 / rng.uniform(5.0, 15.0, grid.n_cells)
            apply_streaming(u, inv_s, st, ops, out, work)
            assert np.array_equal(out, whole_array_streaming(u, inv_s, st, ops))

    @pytest.mark.parametrize("grid", [
        Grid3D(1, 1, 24, 1.0, 1.0, 0.1),
        Grid3D(4, 5, 6, 0.25, 0.2, 0.3),
        Grid3D(3, 4, 5, 0.1, 0.1, 0.1),
    ])
    def test_plan_forms_each_row_once_before_it_is_read(self, grid, monkeypatch):
        # the pair of axis d reads 2 stride_d cells ahead; per axis, the
        # forward GEMMs cover every row once, in order, none of them on a
        # single row, and each stencil slab finds the rows it reads formed
        monkeypatch.setattr(spatial, "SLAB_CELLS", 7)
        st = build_stencils(grid)
        work = StreamingWorkspace(st, PNOperators.build(1))
        n = grid.n_cells
        strides = (1, grid.nx, grid.nx * grid.ny)
        assert len(work.plan) == len(st.active_axes)
        for axis, pair, slabs in zip(st.active_axes, st.pairs, work.plan):
            assert pair_reach(pair) == 2 * strides[axis]
            formed = 0
            for c0, c1, f0, f1 in slabs:
                assert f0 == formed <= f1 <= n and f1 - f0 != 1
                formed = f1
                assert (pair[2 * c0:2 * c1].indices >> 1).max() < formed
            assert formed == n
            assert [(c0, c1) for c0, c1, _, _ in slabs] == [
                (c0, min(c0 + 7, n)) for c0 in range(0, n, 7)]
            assert all(type(b) is int for slab in slabs for b in slab)

    @pytest.mark.parametrize("n_max, grid", [
        (7, Grid3D(4, 5, 6, 0.25, 0.2, 0.3)),
        (1, Grid3D(1, 5, 7, 1.0, 0.2, 0.1)),
    ])
    def test_characteristic_form_matches_dense_reference(self, n_max, grid):
        rng = np.random.default_rng(17)
        st = build_stencils(grid)
        ops = PNOperators.build(n_max)
        u = rng.standard_normal((grid.n_cells, ops.basis.size))
        inv_s = 1.0 / rng.uniform(5.0, 15.0, grid.n_cells)
        fast = apply_streaming(u, inv_s, st, ops)
        slow = dense_reference_streaming(u, inv_s, grid, ops)
        assert np.linalg.norm(fast - slow) <= 1e-12 * np.linalg.norm(slow)

    def test_stacked_entries_keep_the_sparse_product_order(self):
        # block j of the stack is D_j @ diag(1) as scipy forms it, entry
        # for entry, over the active axes only: that order fixes the sums
        # of every product with the stack, the oracle's included
        for g, active in ((Grid3D(5, 1, 6, 0.1, 0.1, 0.2), (0, 2)),
                          (Grid3D(1, 1, 7, 1.0, 1.0, 0.2), (2,)),
                          (Grid3D(4, 3, 5, 0.1, 0.2, 0.3), (0, 1, 2))):
            st = build_stencils(g)
            assert st.active_axes == active
            n = g.n_cells
            terms = lifted_terms(g, active)
            assert st.stacked.shape == (len(terms) * n, n)
            for j, d in enumerate(terms):
                block = st.stacked[j * n:(j + 1) * n]
                product = d @ sparse.diags(np.ones(n))
                assert np.array_equal(block.data, product.data)
                assert np.array_equal(block.indices, product.indices)
                assert np.array_equal(block.indptr, product.indptr)

    def test_stacked_products_are_the_per_term_products(self):
        # one sparse product of the stack with S^-1 x is, row block by row
        # block, each term's product with it, bit for bit
        rng = np.random.default_rng(4)
        g = Grid3D(4, 1, 5, 0.1, 0.1, 0.2)
        st = build_stencils(g)
        inv_s = 1.0 / rng.uniform(5.0, 20.0, g.n_cells)
        ctx = StreamingContext(inv_s, st, PNOperators.build(1))
        x = rng.standard_normal((g.n_cells, 3))
        products = ctx.derivatives(x)
        terms = lifted_terms(g, (0, 2))
        assert products.shape == (len(terms), g.n_cells, 3)
        ones = sparse.diags(np.ones(g.n_cells))
        for d, product in zip(terms, products):
            assert np.array_equal(product, (d @ ones) @ (inv_s[:, None] * x))

    def test_no_active_axis_stacks_nothing(self):
        st = build_stencils(Grid3D(1, 1, 1, 1.0, 1.0, 1.0))
        assert st.active_axes == ()
        assert st.stacked.shape == (0, 1)
        ctx = StreamingContext(np.ones(1), st, PNOperators.build(1))
        assert ctx.derivatives(np.ones((1, 2))).shape == (0, 1, 2)
        assert st.pairs == ()
        assert np.array_equal(apply_streaming(np.ones((1, 4)), np.ones(1), st, ctx.ops),
                              np.zeros((1, 4)))

    def test_eigen_rotation_roundtrip(self):
        rng = np.random.default_rng(5)
        ops = PNOperators.build(4)
        u = rng.standard_normal((10, ops.basis.size))
        for v in ops.eig_v:
            assert np.abs((u @ v) @ v.T - u).max() < 1e-12
