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
The low-rank solver applies every term at once, as one sparse product of
the whole stack with S^-1 x for an n x r input x.

apply_streaming, the oracle's right-hand side, works one active axis at
a time, in the buffers of a StreamingWorkspace that the caller may keep
across calls. Since P A_d P = -A_d for the parity P = diag((-1)^l), V_d^+
and V_d^- have equally many columns k, so a GEMM forms the (n, 2k)
product y = u [V_d^+ V_d^-]. Viewed as (2n, k), its rows alternate
between the two characteristic sets, and one sparse product with the
axis' interleaved pair (UpwindStencils.pairs), whose entries are scaled
by 1/S of their column cell, gives both upwind terms in the same layout.
The scaling is folded into the pair's entries once per step, not into
the state on every call. A GEMM with the stacked back-rotation
-[L^+ (V^+)^T; L^- (V^-)^T] then writes the output on the first axis and
adds to it on the others.

All three products run on slabs of about SLAB_CELLS cells, so that each
slab of y is still in cache when the stencil reads it. y is formed just
ahead of the stencil slabs that read it: the pair of an axis reads a
fixed number of cells ahead of its row (2 stride_d on a grid, taken from
the pair's own indices by pair_reach), so stencil slab [c0, c1) needs the
rows of y below c1 + reach. The workspace works out these lookahead
bounds once (StreamingWorkspace.plan). y is still the whole (n, 2k)
product, one row per cell, so the stencil may read any row behind its
slab, and the stencil product never takes the whole (n, 2k). A GEMM on a
slab of rows gives those rows of the whole-array GEMM bit for bit (but a
one-row product goes to GEMV, so the plan makes none); tests/oracles.py
has the whole-array form. This rounds differently from the textbook
form, one term at a time on S^-1 u, in the last bits only
(tests/oracles.py has that form too).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse
from scipy.linalg import blas
from scipy.sparse import _sparsetools

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
    of a product with the stack, or with a pair, sums its terms; blocks
    holds each term without a copy of its entries, pairs the oracle's
    interleaved pair of each axis, formed only when first asked for.
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

    @cached_property
    def pairs(self):
        """The interleaved stencil pair of each active axis, (2n, 2n) each,
        formed on first use (interleave_pair)."""
        return tuple(interleave_pair(self.blocks[2 * j], self.blocks[2 * j + 1])
                     for j in range(len(self.active_axes)))


def interleave_pair(plus, minus) -> sparse.csr_matrix:
    """The (2n, 2n) pair whose row 2c + s is row c of plus (s = 0) or
    minus (s = 1), in the columns 2c' + s.

    It acts on an (n, 2k) array [y+ y-] viewed as (2n, k) as plus on y+
    and minus on y-, and its product has the same layout. Each row keeps
    its block's entry order, so it sums in the block's order.
    """
    n = plus.shape[0]
    lengths = np.empty(2 * n, dtype=plus.indptr.dtype)
    lengths[0::2], lengths[1::2] = np.diff(plus.indptr), np.diff(minus.indptr)
    indptr = np.zeros(2 * n + 1, dtype=plus.indptr.dtype)
    np.cumsum(lengths, out=indptr[1:])
    data = np.empty(indptr[-1])
    indices = np.empty(indptr[-1], dtype=plus.indices.dtype)
    for s, block in enumerate((plus, minus)):
        rows = np.repeat(np.arange(n), np.diff(block.indptr))
        # entry t of block row c goes to entry t of pair row 2c + s
        dest = indptr[2 * rows + s] + np.arange(block.nnz) - block.indptr[rows]
        data[dest] = block.data
        indices[dest] = 2 * block.indices + s
    pair = sparse.csr_matrix((2 * n, 2 * n))
    pair.data, pair.indices, pair.indptr = data, indices, indptr
    return pair


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


# Cells per slab of the oracle's products (StreamingWorkspace); at least 2.
SLAB_CELLS = 256


def pair_reach(pair) -> int:
    """The most cells by which a row of an interleaved pair reads ahead of
    its own cell (0 if none reads ahead): 2 stride_d for the pair of axis d."""
    cells = np.repeat(np.arange(pair.shape[0]) >> 1, np.diff(pair.indptr))
    return int(np.max((pair.indices >> 1) - cells, initial=0))


class StreamingWorkspace:
    """apply_streaming's buffers and slab plan for one grid and PN order.

    y holds an axis' characteristic product u [V+ V-] (n, 2k), z a slab of
    SLAB_CELLS rows of its stencil product, and values the entries of
    each interleaved pair (UpwindStencils.pairs) scaled by the 1/S of
    their column cell. apply_streaming folds whenever it is handed
    another inv_s array than the one values hold, so a caller that
    changes an inv_s array in place must hand a new one instead.

    plan holds, per active axis, one (c0, c1, f0, f1) per stencil slab
    [c0, c1): the rows [f0, f1) of y that one GEMM forms just before that
    stencil slab. f1 is c1 plus the pair's reach ahead (pair_reach), at
    most n, and f0 the previous slab's f1, so each row is formed once,
    before any stencil slab reads it: the first GEMM takes a slab and the
    reach, the next ones a slab each, the last ones none. A one-row
    product would be handed to GEMV, which sums in another order than the
    GEMM kernel, so the row before n is never a bound. The plan holds
    plain integers only.
    """

    def __init__(self, stencils: UpwindStencils, ops: PNOperators):
        n = stencils.stacked.shape[1]
        width = max((ops.forward_rotation[a].shape[1] for a in stencils.active_axes), default=0)
        h = min(SLAB_CELLS, n)
        self.stencils = stencils
        self.y = np.empty(n * width)
        self.z = np.empty(h * width)
        self.values = tuple(np.empty(pair.nnz) for pair in stencils.pairs)
        self.plan = tuple(self._slabs(n, h, pair_reach(pair)) for pair in stencils.pairs)
        self.inv_s = None

    @staticmethod
    def _slabs(n, h, reach):
        """(c0, c1, f0, f1) per stencil slab of h cells, for a pair that
        reads reach cells ahead."""
        slabs, f0 = [], 0
        for c0 in range(0, n, h):
            c1 = min(c0 + h, n)
            f1 = min(c1 + reach, n)
            if f1 == n - 1:
                f1 = n
            slabs.append((c0, c1, f0, f1))
            f0 = f1
        return tuple(slabs)

    @property
    def numbers(self) -> int:
        """Float64 entries held, as in the solvers' *_numbers diagnostics."""
        return self.y.size + self.z.size + sum(v.size for v in self.values)

    def fold(self, inv_s):
        """Scale each pair entry in column 2c' + s by inv_s[c'] into values."""
        for pair, values in zip(self.stencils.pairs, self.values):
            np.take(inv_s, pair.indices >> 1, out=values)
            values *= pair.data
        self.inv_s = inv_s


def apply_streaming(u, inv_s, stencils: UpwindStencils, ops: PNOperators, out=None, work=None):
    """F_S(u) for the transformed moments u (n, m); inv_s is 1/S per cell.

    Linear in u, which is not checked for finiteness: the oracle's
    streaming step checks its state once per step. The result is written
    into out (n, m) and returned. work is a StreamingWorkspace; when it is
    given, its stencils are the ones applied. Both are allocated when not
    given, and neither may share memory with u. Per active axis, one
    stencil slab [c0, c1) of cells at a time, following work.plan: GEMMs
    form the slabs of y = u [V+ V-] (n, 2k) that the stencil slab is the
    first to read; the axis' interleaved pair, with 1/S folded into its
    entries, acts on y viewed as (2n, k), which gives [D+ S^-1 y+,
    D- S^-1 y-] for rows c0..c1-1; one GEMM rotates that back, writing
    out on the first axis and adding to it (beta = 1) on the others.
    """
    u = np.asarray(u)
    n = u.shape[0]
    if out is None:
        out = np.empty(u.shape)
    elif not (out.flags.c_contiguous and out.dtype == np.float64):
        raise ValueError("apply_streaming writes only into a C-contiguous float64 out")
    if work is None:
        work = StreamingWorkspace(stencils, ops)
    stencils = work.stencils
    if work.inv_s is not inv_s:
        work.fold(inv_s)
    if not stencils.active_axes:
        out.fill(0.0)
    beta = 0.0                                  # the first axis writes out
    for axis, pair, values, slabs in zip(stencils.active_axes, stencils.pairs,
                                         work.values, work.plan):
        forward, back = ops.forward_rotation[axis], ops.back_rotation[axis]
        width = forward.shape[1]
        y = work.y[:n * width]
        rows = y.reshape(n, width)
        for c0, c1, f0, f1 in slabs:
            if f0 < f1:
                np.matmul(u[f0:f1], forward, out=rows[f0:f1])
            z = work.z[:(c1 - c0) * width]
            z.fill(0.0)
            # scipy's kernel of pair[2 c0:2 c1] @ y (the product has no
            # public out=), which adds into the zeroed slab
            _sparsetools.csr_matvecs(2 * (c1 - c0), 2 * n, width // 2,
                                     pair.indptr[2 * c0:2 * c1 + 1], pair.indices, values, y, z)
            # out[c0:c1]^T (+)= back^T z^T, all transposes free views
            blas.dgemm(1.0, back.T, z.reshape(c1 - c0, width).T, beta=beta,
                       c=out[c0:c1].T, overwrite_c=True)
        beta = 1.0
    return out
