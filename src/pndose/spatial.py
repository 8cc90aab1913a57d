"""Structured 3-D grid, second-order upwind stencils, streaming RHS.

Cells are flattened with idx(i,j,k) = k*nx*ny + j*nx + i (0-based form of
the usual column-major convention). The stencil matrices approximate the
first derivative along each axis:

    D_d^+  : minus-biased rows (+3, -4, +1)/(2 dx) on (self, i-1, i-2),
             serving positive-eigenvalue characteristics;
    D_d^-  : plus-biased rows (-3, +4, -1)/(2 dx) on (self, i+1, i+2),
             serving negative-eigenvalue characteristics.

Both approximate +d/дx and are exact on linear profiles. The two cell
layers at the reached-into boundary degrade to first-order one-sided
differences; the outermost layer closes with zero-inflow ghost values
(vacuum), so those rows intentionally do not sum to zero. The streaming
right-hand side applies the eigen-split flux form

    F_S(u) = - sum_d (D_d^+ (S^-1 u V_d^+) L_d^+ (V_d^+)^T
                      + D_d^- (S^-1 u V_d^-) L_d^- (V_d^-)^T)

where V_d^+ (V_d^-) holds the eigenvectors of A_d with positive
(negative) eigenvalues L_d^+ (L_d^-), so each stencil acts only on the
characteristic variables it serves; the eigenvalues that are zero up to
rounding contribute nothing and are left out (angular.characteristic_split).

The stencils are stored once: UpwindStencils stacks the upwind terms of
the active axes row-wise into one sparse matrix, which no step rescales.
Both solvers apply it to S^-1 u. The low-rank solver applies every term
at once, as one sparse product of the whole stack with an n x r input.
apply_streaming, the oracle's right-hand side, reads each term as a view
of one row block of the stack. It runs in buffers the caller may keep
across calls (streaming_buffers): the scaled input S^-1 u (n, m) and one
(n, k) characteristic product, reused by every term. Each term's
back-rotation is accumulated straight into the output by a BLAS GEMM
with beta = 1, so a call allocates only the (n, k) sparse products, one
at a time, and sums every entry in the order of out += (D y) B.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import blas

from .angular import PNOperators
from .errors import ConfigError


@dataclass(frozen=True)
class Grid3D:
    """Uniform structured grid; spacings in cm."""

    nx: int
    ny: int
    nz: int
    dx: float
    dy: float
    dz: float
    origin: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ConfigError("grid needs at least one cell per dimension")
        if min(self.dx, self.dy, self.dz) <= 0.0:
            raise ConfigError("grid spacings must be positive")

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny * self.nz

    @property
    def shape(self):
        return (self.nx, self.ny, self.nz)

    @property
    def spacings(self):
        return (self.dx, self.dy, self.dz)

    def index(self, i, j, k):
        return k * self.nx * self.ny + j * self.nx + i

    def cell_centers(self):
        """(n, 3) array of cell midpoints, flat-index ordered."""
        x = self.origin[0] + (np.arange(self.nx) + 0.5) * self.dx
        y = self.origin[1] + (np.arange(self.ny) + 0.5) * self.dy
        z = self.origin[2] + (np.arange(self.nz) + 0.5) * self.dz
        zz, yy, xx = np.meshgrid(z, y, x, indexing="ij")
        return np.column_stack([xx.ravel(), yy.ravel(), zz.ravel()])

    def extent(self):
        """((x0, x1), (y0, y1), (z0, z1)) domain bounds."""
        return tuple(
            (self.origin[d], self.origin[d] + n * h)
            for d, (n, h) in enumerate(zip(self.shape, self.spacings))
        )


def _axis_stencil_1d(n: int, h: float, biased_minus: bool) -> sparse.csr_matrix:
    """1-D derivative matrix, second order, one-sided toward -x or +x."""
    if n == 1:
        return sparse.csr_matrix((1, 1))
    if n == 2:
        raise ConfigError(
            "grids with 2 cells along a used axis cannot host the 3-point "
            "one-sided stencil; use 1 (inactive) or >= 3"
        )
    wide, near, far, first = 3.0 / (2 * h), 4.0 / (2 * h), 1.0 / (2 * h), 1.0 / h
    if biased_minus:  # rows 0 and 1 close with a zero-inflow ghost at -1
        bands = ([first, first] + [wide] * (n - 2), [-first] + [-near] * (n - 2), [far] * (n - 2))
        return sparse.diags(bands, (0, -1, -2), shape=(n, n), format="csr")
    bands = ([-wide] * (n - 2) + [-first, -first], [near] * (n - 2) + [first], [-far] * (n - 2))
    return sparse.diags(bands, (0, 1, 2), shape=(n, n), format="csr")


def _lift_to_grid(d1, grid: Grid3D, axis: int) -> sparse.csr_matrix:
    """Kronecker-lift a 1-D stencil to the flat 3-D cell ordering."""
    ix, iy, iz = sparse.identity(grid.nx), sparse.identity(grid.ny), sparse.identity(grid.nz)
    if axis == 0:
        return sparse.kron(iz, sparse.kron(iy, d1)).tocsr()
    if axis == 1:
        return sparse.kron(iz, sparse.kron(d1, ix)).tocsr()
    return sparse.kron(d1, sparse.kron(iy, ix)).tocsr()


@dataclass(frozen=True)
class UpwindStencils:
    """The upwind stencils of the active axes, stacked row-wise, (2 a n, n).

    Rows j n .. (j+1) n - 1 hold the j-th upwind term of the order plus_x,
    minus_x, plus_y, ... over the active axes (those a grid extends
    along), each block in the entry order that scipy's product
    D @ diag(s) emits. That entry order fixes the order in which each row
    of a product with the stack sums its terms, the oracle's products
    included; blocks holds each term without a copy of its entries.
    """

    active_axes: tuple
    stacked: sparse.csr_matrix

    @cached_property
    def blocks(self):
        """The upwind terms in stack order, (n, n) each, formed on first use.

        Each block views the stacked data and indices; only its indptr,
        shifted to start at 0, is a copy. The arrays are assigned after
        construction because the constructor copies any slice that is less
        than half of the array it views.
        """
        p, n = self.stacked, self.stacked.shape[1]
        views = []
        for j in range(p.shape[0] // n):
            ptr = p.indptr[j * n:(j + 1) * n + 1]
            lo, hi = ptr[0], ptr[-1]
            view = sparse.csr_matrix((n, n), dtype=p.dtype)
            view.data, view.indices, view.indptr = p.data[lo:hi], p.indices[lo:hi], ptr - lo
            views.append(view)
        return tuple(views)


def build_stencils(grid: Grid3D) -> UpwindStencils:
    """Stack the plus- and minus-biased stencil of every active axis.

    Each block is formed as the product D @ diag(1), which puts its
    entries in scipy's product order, and copied into arrays allocated
    once for the whole stack, so only one block is ever held twice.
    """
    n = grid.n_cells
    terms = [
        (axis, d1)
        for axis, (size, h) in enumerate(zip(grid.shape, grid.spacings))
        for d1 in (_axis_stencil_1d(size, h, True), _axis_stencil_1d(size, h, False))
        if d1.nnz
    ]
    # the lifted stencil repeats the 1-D one over the cells of the other axes
    nnz = sum(d1.nnz * (n // d1.shape[0]) for _, d1 in terms)
    index_dtype = np.int32 if max(nnz, len(terms) * n) < 2**31 else np.int64
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)
    indptr = np.zeros(len(terms) * n + 1, dtype=index_dtype)
    ones = sparse.diags(np.ones(n))
    start = 0
    for j, (axis, d1) in enumerate(terms):
        block = _lift_to_grid(d1, grid, axis) @ ones
        end = start + block.nnz
        data[start:end] = block.data
        indices[start:end] = block.indices
        indptr[j * n + 1:(j + 1) * n + 1] = block.indptr[1:] + start
        start = end
        del block  # not held while the next block is formed
    stacked = sparse.csr_matrix((data, indices, indptr), shape=(len(terms) * n, n))
    return UpwindStencils(active_axes=tuple(dict.fromkeys(a for a, _ in terms)), stacked=stacked)


def streaming_buffers(n: int, ops: PNOperators):
    """apply_streaming's scratch for n cells: (scaled (n, m), product).

    product is flat, with room for the widest (n, k) characteristic
    product of any axis, so each term reads a contiguous (n, k) view.
    """
    k_max = max(v.shape[1] for v in ops.v_plus + ops.v_minus)
    return np.empty((n, ops.basis.size)), np.empty(n * k_max)


def apply_streaming(u, inv_s, stencils: UpwindStencils, ops: PNOperators, out=None, work=None):
    """F_S(u) for the transformed moments u (n, m); inv_s is 1/S per cell.

    Linear in u, which is not checked for finiteness: the oracle's
    streaming step checks its state once per step. The result is written
    into out (n, m) and returned; work is the scratch of
    streaming_buffers. Both are allocated when not given, and neither may
    share memory with u. Each term's back-rotation is accumulated into
    out by one GEMM with beta = 1, which adds the same product to the
    same partial sum as out += (D y) B would, without its temporaries.
    """
    u = np.asarray(u)
    n = u.shape[0]
    if out is None:
        out = np.empty(u.shape)
    elif not (out.flags.c_contiguous and out.dtype == np.float64):
        raise ValueError("apply_streaming writes only into a C-contiguous float64 out")
    scaled, product = streaming_buffers(n, ops) if work is None else work
    np.multiply(inv_s[:, None], u, out=scaled)
    out.fill(0.0)
    for j, axis in enumerate(stencils.active_axes):
        back = ops.back_rotation[axis]
        k = ops.v_plus[axis].shape[1]
        terms = ((stencils.blocks[2 * j], ops.v_plus[axis], back[:k]),
                 (stencils.blocks[2 * j + 1], ops.v_minus[axis], back[k:]))
        for block, v, rotation in terms:
            y = np.matmul(scaled, v, out=product[:n * v.shape[1]].reshape(n, v.shape[1]))
            # out^T += rotation^T (block y)^T, all transposes free views
            blas.dgemm(1.0, rotation.T, (block @ y).T, beta=1.0, c=out.T, overwrite_c=True)
    return out
