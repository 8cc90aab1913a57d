"""Grid, upwind stencils, and the streaming right-hand side."""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import _sparsetools

from oracles import (
    axis_stencil_1d,
    kron_stencil_stack,
    lift_to_grid,
    stack_terms,
    whole_array_streaming,
)
from pndose import spatial
from pndose.angular import PNOperators
from pndose.errors import ConfigError
from pndose.dlra import StreamingContext
from pndose.spatial import (
    Grid3D,
    StreamingWorkspace,
    apply_streaming,
    build_stencils,
)


def grid_1d_z(nz, dz=0.1):
    return Grid3D(nx=1, ny=1, nz=nz, dx=1.0, dy=1.0, dz=dz)


# the grids the stack is checked on: none, one, two and three active
# axes; then the perfbench grids: smoke, oblique30_hetero, preset30_oracle,
# water90_lowrank; then the 20 x 20 x 70 grid of configs/
STACK_SHAPES = [
    (1, 1, 1), (1, 1, 5), (3, 1, 4), (1, 3, 1), (3, 3, 3), (5, 1, 6),
    (5, 5, 6), (10, 10, 12), (10, 10, 30), (6, 6, 70), (20, 20, 70),
]


def axis_terms(st, axis):
    """(plus, minus) stencil of an active axis, read from the stack."""
    j = st.active_axes.index(axis)
    return tuple(stack_terms(st)[2 * j:2 * j + 2])


def lifted_terms(grid, axes):
    """Kron-lifted plus and minus stencils of the given axes, in stack order."""
    return [
        lift_to_grid(axis_stencil_1d(grid.shape[a], grid.spacings[a], biased), grid, a)
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
        for d in axis_terms(st, 2):
            res = d @ c
            assert np.abs(res[2:-2]).max() == 0.0

    def test_linear_exact_on_interior(self):
        g = grid_1d_z(16, dz=0.05)
        st = build_stencils(g)
        z = g.cell_centers()[:, 2]
        for d in axis_terms(st, 2):
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
        for d in stack_terms(st):
            assert np.abs((d @ ones)[mask]).max() == 0.0

    @pytest.mark.parametrize("grid", [
        Grid3D(5, 1, 6, 0.1, 0.1, 0.2),
        Grid3D(4, 3, 5, 0.1, 0.2, 0.3),
        Grid3D(1, 1, 7, 1.0, 1.0, 0.2),
    ])
    def test_stack_terms_are_the_lifted_stencils(self, grid):
        # term j of the stack, its rows j n .. (j+1) n - 1, is as a matrix
        # the kron-lifted 1-D stencil
        st = build_stencils(grid)
        terms = lifted_terms(grid, st.active_axes)
        assert st.stacked.shape == (len(terms) * grid.n_cells, grid.n_cells)
        assert len(stack_terms(st)) == len(terms)
        for term, lifted in zip(stack_terms(st), terms):
            assert np.array_equal(term.toarray(), lifted.toarray())

    @pytest.mark.parametrize("grid", [Grid3D(*shape, 0.1, 0.2, 0.3) for shape in STACK_SHAPES])
    def test_pairs_interleave_the_blocks(self, grid):
        # stack row 2 a n + 2 c + s is row c of the kron-lifted term 2a + s,
        # the axis' plus (s = 0) or minus (s = 1) stencil, with its entries
        # in the order of D @ diag(1): each cell's two rows are a pair
        st = build_stencils(grid)
        n, stacked = grid.n_cells, st.stacked
        terms = lifted_terms(grid, st.active_axes)
        assert stacked.shape == (len(terms) * n, n)
        ones = sparse.diags(np.ones(n))
        for j, d in enumerate(terms):
            rows = stacked[2 * (j // 2) * n + 2 * np.arange(n) + j % 2]
            product = d @ ones
            for got, want in zip((rows.data, rows.indices, rows.indptr),
                                 (product.data, product.indices, product.indptr)):
                assert np.array_equal(got, want)

    def test_pair_kernel_is_the_sparse_product(self):
        # scipy's csr_matvecs, called on a zeroed slab with a slice of an
        # axis' rows of the stack's indptr and the columns mapped to
        # 2c' + s, gives on y viewed as (n, 2, k) the rows of each term's
        # product with its half y[:, s], bit for bit
        rng = np.random.default_rng(12)
        grid = Grid3D(4, 3, 5, 0.1, 0.2, 0.3)
        n, k = grid.n_cells, 6
        y = rng.standard_normal((n, 2, k))
        st = build_stencils(grid)
        stacked, terms = st.stacked, stack_terms(st)
        side = np.repeat(np.arange(stacked.shape[0]) % 2, np.diff(stacked.indptr))
        columns = (2 * stacked.indices + side).astype(stacked.indices.dtype)
        for a in range(len(st.active_axes)):
            ptr = stacked.indptr[2 * a * n:2 * (a + 1) * n + 1]
            for c0, c1 in ((0, n), (7, 19), (n - 5, n)):
                z = np.zeros((c1 - c0, 2, k))
                _sparsetools.csr_matvecs(2 * (c1 - c0), 2 * n, k, ptr[2 * c0:2 * c1 + 1],
                                         columns, stacked.data, y.ravel(), z.ravel())
                for s in (0, 1):
                    assert np.array_equal(z[:, s], (terms[2 * a + s] @ y[:, s])[c0:c1])

    @pytest.mark.parametrize("shape", STACK_SHAPES)
    def test_stack_equals_kron_product(self, shape):
        # the directly written stack holds the arrays of the Kronecker-lifted
        # blocks multiplied by diag(1), bit for bit and in the same dtypes
        grid = Grid3D(*shape, 0.1, 0.2, 0.3)
        stacked = build_stencils(grid).stacked
        for got, want in zip((stacked.data, stacked.indices, stacked.indptr),
                             kron_stencil_stack(grid)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_sin_convergence_order(self):
        errors = []
        for nz in (50, 100, 200):
            g = grid_1d_z(nz, dz=1.0 / nz)
            st = build_stencils(g)
            z = g.cell_centers()[:, 2]
            err = np.abs((axis_terms(st, 2)[0] @ np.sin(z)) - np.cos(z))[4:-4].max()
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
        # 7-cell slabs the z rows of the three-axis grid read 40 cells,
        # several slabs, ahead, and on the one-axis grid the rows' reach
        # ends one row short of the last (24 = 3 * 7 + 2 + 1). One
        # workspace serves two stopping powers. With out = u the result is
        # the same: the first pass of each slab has read every row of u
        # below c1 into the rings before the second writes out[c0:c1].
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
            assert apply_streaming(u, inv_s, st, ops, u, work) is u
            assert np.array_equal(u, out)

    def test_workspace_holds_each_stencil_entry_twice_at_most(self):
        # the stack is the one stored form of the stencils: per entry, the
        # workspace holds only its ring column and its folded value
        grid = Grid3D(4, 5, 6, 0.25, 0.2, 0.3)
        st = build_stencils(grid)
        work = StreamingWorkspace(st, PNOperators.build(3))
        assert work.stencils is st
        arrays = {}
        for name, value in vars(work).items():
            for i, item in enumerate(value if isinstance(value, tuple) else (value,)):
                if isinstance(item, np.ndarray):
                    arrays[f"{name}[{i}]"] = item
        per_entry = {name for name, a in arrays.items() if a.size == st.stacked.nnz}
        assert per_entry == {"columns[0]", "values[0]"}
        assert len(arrays) > len(per_entry)

    def test_workspace_of_other_stencils_is_refused(self):
        # a workspace applies the stencils it was made for; handed others,
        # here of half the cell size, it must not quietly apply its own
        grid = Grid3D(4, 5, 6, 0.2, 0.2, 0.2)
        ops = PNOperators.build(3)
        work = StreamingWorkspace(build_stencils(grid), ops)
        finer = build_stencils(Grid3D(4, 5, 6, 0.1, 0.1, 0.1))
        u = np.ones((grid.n_cells, ops.basis.size))
        with pytest.raises(ValueError, match="other stencils"):
            apply_streaming(u, np.ones(grid.n_cells), finer, ops, np.empty_like(u), work)

    def test_workspace_of_another_pn_order_is_refused(self):
        grid = Grid3D(4, 5, 6, 0.2, 0.2, 0.2)
        st = build_stencils(grid)
        work = StreamingWorkspace(st, PNOperators.build(3))
        ops = PNOperators.build(7)
        u = np.ones((grid.n_cells, ops.basis.size))
        with pytest.raises(ValueError, match="PN order 3, not 7"):
            apply_streaming(u, np.ones(grid.n_cells), st, ops, np.empty_like(u), work)

    @pytest.mark.parametrize("grid", [
        Grid3D(1, 1, 24, 1.0, 1.0, 0.1),
        Grid3D(4, 5, 6, 0.25, 0.2, 0.3),
        Grid3D(3, 4, 5, 0.1, 0.1, 0.1),
        Grid3D(3, 1, 25, 0.1, 1.0, 0.1),
    ])
    def test_plan_forms_each_row_once_before_it_is_read(self, grid, monkeypatch):
        # the rows of axis d read 2 stride_d cells ahead and behind. Run
        # the plan on a model of the rings: per slab, the first pass forms
        # each axis' rows in order, each row once, into ring row c mod R,
        # none of the GEMMs on a single row; then the slab's stencil must
        # find every row it reads in its ring, formed and not yet
        # overwritten, also on the slab whose lookahead is bumped to n
        monkeypatch.setattr(spatial, "SLAB_CELLS", 7)
        st = build_stencils(grid)
        ops = PNOperators.build(1)
        work = StreamingWorkspace(st, ops)
        n, stacked = grid.n_cells, st.stacked
        strides = (1, grid.nx, grid.nx * grid.ny)
        assert [(c0, c1) for c0, c1, _ in work.plan] == [
            (c0, min(c0 + 7, n)) for c0 in range(0, n, 7)]
        rows = [ring.size // ops.forward_rotation[a].shape[1]
                for a, ring in zip(st.active_axes, work.rings)]
        held = [np.full(r, -1) for r in rows]
        formed = [0] * len(rows)
        for c0, c1, forms in work.plan:
            assert type(c0) is int and type(c1) is int and len(forms) == len(st.active_axes)
            for j, pieces in enumerate(forms):
                for r0, r1, p0 in pieces:
                    assert all(type(b) is int for b in (r0, r1, p0))
                    assert r0 == formed[j] and r1 - r0 > 1 and p0 + r1 - r0 <= rows[j]
                    assert p0 == r0 % rows[j]
                    held[j][p0:p0 + r1 - r0] = np.arange(r0, r1)
                    formed[j] = r1
            for j in range(len(st.active_axes)):
                read = stacked[2 * j * n + 2 * c0:2 * j * n + 2 * c1].indices
                assert np.array_equal(held[j][read % rows[j]], read)
        assert formed == [n] * len(rows)
        for j, axis in enumerate(st.active_axes):
            # the ring spans one slab and the reach on either side, grown
            # by a few rows where a wrap would leave a one-row GEMM
            ptr = stacked.indptr[2 * j * n:2 * (j + 1) * n + 1]
            entries = slice(ptr[0], ptr[-1])
            rows_of = np.repeat(np.arange(2 * n), np.diff(ptr))
            reach = (stacked.indices[entries] - rows_of // 2).max()
            assert reach == 2 * strides[axis]
            assert rows[j] <= min(n, 2 * (7 + 4 * strides[axis]))
            assert np.array_equal(work.columns[entries],
                                  2 * (stacked.indices[entries] % rows[j]) + rows_of % 2)
        assert work.columns.dtype == stacked.indices.dtype

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
        # term j of the stack is D_j @ diag(1) as scipy forms it, entry
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
            for block, d in zip(stack_terms(st), terms):
                product = d @ sparse.diags(np.ones(n))
                assert np.array_equal(block.data, product.data)
                assert np.array_equal(block.indices, product.indices)
                assert np.array_equal(block.indptr, product.indptr)

    def test_stacked_products_are_the_per_term_products(self):
        # one sparse product of the stack with S^-1 x, viewed as
        # (axes, 2, n, r), is at [a, s] the product of axis a's plus
        # (s = 0) or minus (s = 1) term with it, bit for bit
        rng = np.random.default_rng(4)
        g = Grid3D(4, 1, 5, 0.1, 0.1, 0.2)
        st = build_stencils(g)
        inv_s = 1.0 / rng.uniform(5.0, 20.0, g.n_cells)
        ctx = StreamingContext(inv_s, st, PNOperators.build(1))
        x = rng.standard_normal((g.n_cells, 3))
        products = ctx.derivatives(x)
        terms = lifted_terms(g, (0, 2))
        assert products.shape == (2, 2, g.n_cells, 3)
        ones = sparse.diags(np.ones(g.n_cells))
        for d, product in zip(terms, products.reshape(-1, g.n_cells, 3)):
            assert np.array_equal(product, (d @ ones) @ (inv_s[:, None] * x))

    def test_no_active_axis_stacks_nothing(self):
        st = build_stencils(Grid3D(1, 1, 1, 1.0, 1.0, 1.0))
        assert st.active_axes == ()
        assert st.stacked.shape == (0, 1)
        ctx = StreamingContext(np.ones(1), st, PNOperators.build(1))
        assert ctx.derivatives(np.ones((1, 2))).shape == (0, 2, 1, 2)
        assert np.array_equal(apply_streaming(np.ones((1, 4)), np.ones(1), st, ctx.ops),
                              np.zeros((1, 4)))

    @pytest.mark.parametrize("aliasing", ["apart", "out-is-u", "out-is-base", "base-is-u"])
    @pytest.mark.parametrize("grid", [
        Grid3D(4, 5, 6, 0.25, 0.2, 0.3),
        Grid3D(1, 1, 1, 1.0, 1.0, 1.0),
    ], ids=["three-axes", "no-active-axis"])
    def test_scale_and_base(self, grid, aliasing, monkeypatch):
        # base + scale F_S(u), formed in the back GEMMs and in out = u,
        # out = base or apart from both, on 7-cell slabs; with no active
        # axis out takes base
        monkeypatch.setattr(spatial, "SLAB_CELLS", 7)
        rng = np.random.default_rng(43)
        st = build_stencils(grid)
        ops = PNOperators.build(3)
        work = StreamingWorkspace(st, ops)
        inv_s = 1.0 / rng.uniform(5.0, 15.0, grid.n_cells)
        u = rng.standard_normal((grid.n_cells, ops.basis.size))
        base = u if aliasing == "base-is-u" else rng.standard_normal(u.shape)
        want = base + 0.3 * apply_streaming(u, inv_s, st, ops)
        out = {"out-is-u": u, "out-is-base": base}.get(aliasing, np.empty_like(u))
        got = apply_streaming(u, inv_s, st, ops, out, work, scale=0.3, base=base)
        assert got is out
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_scale_without_base(self):
        rng = np.random.default_rng(47)
        grid = Grid3D(4, 5, 6, 0.25, 0.2, 0.3)
        st, ops = build_stencils(grid), PNOperators.build(3)
        u = rng.standard_normal((grid.n_cells, ops.basis.size))
        inv_s = 1.0 / rng.uniform(5.0, 15.0, grid.n_cells)
        want = -2.5 * apply_streaming(u, inv_s, st, ops)
        got = apply_streaming(u, inv_s, st, ops, scale=-2.5)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("case", ["out-overlaps-u", "base-overlaps-u", "out-overlaps-base"])
    def test_partial_overlap_is_refused(self, case):
        # out and base may be u itself, but a view that shares some of the
        # memory of another would read rows that an earlier slab overwrote
        grid = Grid3D(4, 5, 6, 0.25, 0.2, 0.3)
        st, ops = build_stencils(grid), PNOperators.build(1)
        n, m = grid.n_cells, ops.basis.size
        memory = np.ones((n + 1, m))
        u = memory[:n] if case != "out-overlaps-base" else np.ones((n, m))
        out, base = {"out-overlaps-u": (memory[1:], None),
                     "base-overlaps-u": (None, memory[1:]),
                     "out-overlaps-base": (memory[1:], memory[:n])}[case]
        with pytest.raises(ValueError, match="share no memory"):
            apply_streaming(u, np.ones(n), st, ops, out, base=base)
        # equal views of the same memory count as the same array
        apply_streaming(u, np.ones(n), st, ops, memory[:n], base=memory[:n])

    def test_eigen_rotation_roundtrip(self):
        rng = np.random.default_rng(5)
        ops = PNOperators.build(4)
        u = rng.standard_normal((10, ops.basis.size))
        for v in ops.eig_v:
            assert np.abs((u @ v) @ v.T - u).max() < 1e-12
