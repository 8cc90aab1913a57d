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

The stencils are stored once, for both solvers: UpwindStencils stacks
the upwind terms of the active axes row-wise into one sparse matrix,
which no step rescales, each axis' plus and minus row of a cell next to
each other. The low-rank solver applies every term at once, as one
sparse product of the whole stack with S^-1 x for an n x r input x,
viewed as (axes, 2, n, r), the (axis, sign) layout of the eigen-split
operators (angular.PNOperators).

apply_streaming, the oracle's right-hand side, works in the buffers of a
StreamingWorkspace that the caller may keep across calls. Since
P A_d P = -A_d for the parity P = diag((-1)^l), V_d^+ and V_d^- have
equally many columns k, so a GEMM forms the (n, 2k) product
y = u [V_d^+ V_d^-]. Viewed as (2n, k), its rows alternate between the
two characteristic sets, as the axis' rows of the stack alternate
between the two terms: those rows, read at the columns 2c' + s and with
their entries scaled by 1/S of their column cell, give both upwind terms
in one sparse product, in the same layout. The scaling is folded into a
copy of the stack's entries once per step, not into the state on every
call. A GEMM with the stacked back-rotation
-[L^+ (V^+)^T; L^- (V^-)^T] then writes the output on the first axis and
adds to it on the others.

All products run on slabs of about SLAB_CELLS cells, so that each piece
of y is still in cache when the stencil reads it, and each axis keeps of
y only a ring of rows, sized to the rows its stencil reads around a
slab. The cells are walked once, in two passes per stencil slab
[c0, c1). The first pass forms, for every active axis, the rows of y
that the slab is the first to read: the rows of an axis read a fixed
number of cells ahead of their own (2 stride_d on a grid, taken from
the stack's indices), so the slab needs the rows below c1 + reach. Row c
of y lives in row c mod R of the axis' ring of R rows, and the stack's
columns are mapped to the rings once, when the workspace is made
(StreamingWorkspace.plan has the bounds). The second pass runs each
axis' stencil and back products for rows c0..c1-1. Once the first pass
is done, no later slab reads a row of u below c1, so the output may be u
itself. A GEMM on a slab of rows gives those rows of the whole-array
GEMM bit for bit (but a one-row product goes to GEMV, so the plan makes
none); tests/oracles.py has the whole-array form. This rounds
differently from the textbook form, one term at a time on S^-1 u, in the
last bits only (tests/oracles.py has that form too).
"""

import math
from dataclasses import dataclass

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
        for axis, h in zip("xyz", self.spacings):
            if not (math.isfinite(h) and h > 0.0):
                raise ConfigError(f"grid.delta_{axis}_cm must be finite and positive, got {h!r}")

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


def _axis_runs(n: int, h: float):
    """The rows of an axis' two 1-D derivative matrices, second order, D+
    one-sided toward -x and D- toward +x, as runs
    (i0, i1, lengths, offsets, values): for each i in [i0, i1), row i of
    D+ holds the first lengths[0] values at the columns i + offsets, and
    row i of D- the other lengths[1], each in descending column order.
    No runs for n = 1 (an inactive axis)."""
    if n == 1:
        return ()
    if n == 2:
        raise ConfigError(
            "grids with 2 cells along a used axis cannot host the 3-point "
            "one-sided stencil; use 1 (inactive) or >= 3"
        )
    wide, near, far, first = 3.0 / (2 * h), 4.0 / (2 * h), 1.0 / (2 * h), 1.0 / h
    # the boundary rows, keyed by i; D+ closes with a zero-inflow ghost at -1
    plus = {0: ((0,), (first,)), 1: ((0, -1), (first, -first))}
    minus = {n - 2: ((1, 0), (first, -first)), n - 1: ((0,), (-first,))}
    bounds = sorted({0, 1, 2, n - 2, n - 1, n})
    runs = []
    for i0, i1 in zip(bounds, bounds[1:]):
        p_offsets, p_values = plus.get(i0, ((0, -1, -2), (wide, -near, far)))
        m_offsets, m_values = minus.get(i0, ((2, 1, 0), (-far, near, -wide)))
        runs.append((i0, i1, (len(p_offsets), len(m_offsets)),
                     p_offsets + m_offsets, p_values + m_values))
    return tuple(runs)


@dataclass(frozen=True)
class UpwindStencils:
    """The upwind stencils of the active axes, stacked row-wise, (2 a n, n).

    Row 2 a n + 2 c + s holds the row of cell c in the plus (s = 0) or
    minus (s = 1) stencil of the a-th active axis (those a grid extends
    along), so each axis' rows are one block, its two terms interleaved
    cell by cell. Each row holds its entries in the order that scipy's
    product D @ diag(s) emits; that order fixes the order in which each
    row of a product with the stack sums its terms.
    """

    active_axes: tuple
    stacked: sparse.csr_matrix


def build_stencils(grid: Grid3D) -> UpwindStencils:
    """Stack the plus- and minus-biased stencil of every active axis.

    The CSR arrays of the stack are written directly, one run of alike
    1-D rows (_axis_runs) at a time: the two rows of a cell at 1-D
    position i hold the entries of the 1-D rows i at the columns
    cell + offset * stride, in descending column order, i.e.
    (self, i-1, i-2) in D+ and (i+2, i+1, self) in D-. That is the order
    in which scipy's product D @ diag(s) emits a row (tests/oracles.py
    forms the stack so).
    """
    n = grid.n_cells
    strides = (1, grid.nx, grid.nx * grid.ny)
    axes = [(axis, runs) for axis, (size, h) in enumerate(zip(grid.shape, grid.spacings))
            if (runs := _axis_runs(size, h))]
    # the entries of each axis' 1-D stencils, repeated over the cells of the other axes
    axis_nnz = [sum((i1 - i0) * len(offsets) for i0, i1, _, offsets, _ in runs)
                * (n // grid.shape[axis]) for axis, runs in axes]
    nnz = sum(axis_nnz)
    index_dtype = np.int32 if max(nnz, 2 * len(axes) * n) < 2**31 else np.int64
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)
    indptr = np.zeros(2 * len(axes) * n + 1, dtype=index_dtype)
    start = 0
    for a, ((axis, runs), block_nnz) in enumerate(zip(axes, axis_nnz)):
        size, stride = grid.shape[axis], strides[axis]
        # cell = (outer * size + i) * stride + inner; the entries of one
        # outer slab run over i, then inner, then the cell's two rows
        outer = n // (size * stride)
        block_data = data[start:start + block_nnz].reshape(outer, -1)
        block_indices = indices[start:start + block_nnz].reshape(outer, -1)
        lengths = indptr[2 * a * n + 1:2 * (a + 1) * n + 1].reshape(outer, size, stride, 2)
        lo = 0
        for i0, i1, row_lengths, offsets, values in runs:
            lengths[:, i0:i1] = row_lengths
            hi = lo + (i1 - i0) * stride * len(offsets)
            shape = (outer, i1 - i0, stride, len(offsets))
            block_data[:, lo:hi].reshape(shape)[...] = values
            cells = (np.arange(0, n, size * stride, dtype=index_dtype)[:, None, None]
                     + np.arange(i0 * stride, i1 * stride, stride, dtype=index_dtype)[:, None]
                     + np.arange(stride, dtype=index_dtype))
            np.add(cells[..., None], np.multiply(offsets, stride, dtype=index_dtype),
                   out=block_indices[:, lo:hi].reshape(shape))
            lo = hi
        start += block_nnz
    np.cumsum(indptr, out=indptr)              # the row lengths become offsets
    stacked = sparse.csr_matrix((data, indices, indptr), shape=(2 * len(axes) * n, n))
    return UpwindStencils(active_axes=tuple(axis for axis, _ in axes), stacked=stacked)


# Cells per slab of the oracle's products (StreamingWorkspace); at least 2.
SLAB_CELLS = 256


def _ring_pieces(f0, f1, rows):
    """(r0, r1, p0) of the GEMMs that form rows [f0, f1) of a product into
    ring rows p0.. of a ring of rows: none, one, or two where they wrap."""
    wrap = (f0 // rows + 1) * rows
    bounds = (f0, f1) if f1 <= wrap else (f0, wrap, f1)
    return tuple((a, b, a % rows) for a, b in zip(bounds, bounds[1:]) if a < b)


class StreamingWorkspace:
    """apply_streaming's buffers and slab plan for one stencil stack and
    PN order.

    rings holds, per active axis, a ring of R rows of the axis'
    characteristic product u [V+ V-] (2k wide), row c of the product in
    row c mod R; z a slab of SLAB_CELLS rows of a stencil product. Per
    stack entry, columns holds its column cell c' mapped to its axis' ring
    viewed as (2R, k), at 2 (c' mod R) + s for an entry of a plus (s = 0)
    or minus (s = 1) row, and values the entry scaled by the 1/S of c'.
    apply_streaming folds whenever it is handed another inv_s array than
    the one values hold, so a caller that changes an inv_s array in place
    must hand a new one instead.

    plan holds one (c0, c1, forms) per stencil slab [c0, c1), forms one
    tuple of (r0, r1, p0) per active axis: the GEMMs that form rows
    [r0, r1) of the axis' product into ring rows p0.. just before that
    slab. Per axis, the slab's rows are [f0, f1): f1 is c1 plus the most
    cells by which a row of the axis reads ahead of its own cell
    (2 stride_d on a grid), at most n, and f0 the previous slab's f1, so
    each row is formed once, before any stencil slab reads it; they are
    cut in two where they wrap around the ring. R is the fewest rows that
    hold, at every slab, the rows from the lowest one its stencil reads up
    to f1, so no row is overwritten while a stencil slab still reads it.
    A one-row product would be handed to GEMV, which sums in another
    order than the GEMM kernel, so the row before n is never a bound and
    R grows past a size that would cut off one row. The plan holds plain
    integers only.
    """

    def __init__(self, stencils: UpwindStencils, ops: PNOperators):
        stack = stencils.stacked
        n = stack.shape[1]
        width = max((ops.forward_rotation[a].shape[1] for a in stencils.active_axes), default=0)
        h = min(SLAB_CELLS, n)
        slabs = [(c0, min(c0 + h, n)) for c0 in range(0, n, h)]
        self.stencils, self.n_max = stencils, ops.basis.n_max
        self.z = np.empty(h * width)
        self.values = np.empty(stack.nnz)
        self.columns = np.empty(stack.nnz, dtype=stack.indices.dtype)
        rings, forms = [], []
        for a, axis in enumerate(stencils.active_axes):
            ptr = stack.indptr[2 * a * n:2 * (a + 1) * n + 1]
            read = stack.indices[ptr[0]:ptr[-1]]
            row_of = np.repeat(np.arange(2 * n, dtype=ptr.dtype), np.diff(ptr))  # 2c + s
            reach = int(np.max(read - (row_of >> 1), initial=0))
            rows, pieces = self._ring(stack.indices, ptr, reach, slabs)
            rings.append(np.empty(rows * ops.forward_rotation[axis].shape[1]))
            columns = self.columns[ptr[0]:ptr[-1]]
            np.remainder(read, rows, out=columns)
            columns *= 2
            columns += row_of & 1
            forms.append(pieces)
        self.rings = tuple(rings)
        self.plan = tuple((c0, c1, tuple(f[i] for f in forms))
                          for i, (c0, c1) in enumerate(slabs))
        self.inv_s = None

    @staticmethod
    def _ring(indices, ptr, reach, slabs):
        """(R, pieces) for the rows of one axis, ptr their slice of the
        stack's indptr, whose entries read at most reach cells ahead, on
        the stencil slabs [c0, c1): the ring rows R and, per slab, the
        (r0, r1, p0) of its forward GEMMs."""
        n = len(ptr) // 2
        spans, f0 = [], 0
        for c0, c1 in slabs:
            f1 = min(c1 + reach, n)
            if f1 == n - 1:
                f1 = n
            spans.append((f0, f1, int(indices[ptr[2 * c0]:ptr[2 * c1]].min(initial=c0))))
            f0 = f1
        rows = max(f1 - low for _, f1, low in spans)
        while True:
            pieces = tuple(_ring_pieces(f0, f1, rows) for f0, f1, _ in spans)
            if all(r1 - r0 > 1 for slab in pieces for r0, r1, _ in slab):
                return rows, pieces
            rows += 1

    @property
    def numbers(self) -> int:
        """Float64 entries held, as in the solvers' *_numbers diagnostics."""
        return sum(r.size for r in self.rings) + self.z.size + self.values.size

    def fold(self, inv_s):
        """Scale each stack entry by inv_s of its column cell into values."""
        stack = self.stencils.stacked
        np.take(inv_s, stack.indices, out=self.values)
        self.values *= stack.data
        self.inv_s = inv_s


def apply_streaming(u, inv_s, stencils: UpwindStencils, ops: PNOperators, out=None, work=None):
    """F_S(u) for the transformed moments u (n, m); inv_s is 1/S per cell.

    Linear in u, which is not checked for finiteness: the oracle's
    streaming step checks its state once per step. The result is written
    into out (n, m) and returned; out may be u itself, but no other array
    that shares memory with u. work is a StreamingWorkspace made for these
    stencils and the PN order of ops (ValueError otherwise); it is
    allocated when not given, as is out. One stencil slab [c0, c1) of
    cells at a time, following work.plan: first, per active axis, GEMMs
    form the rows of y = u [V+ V-] (n, 2k) that the slab is the first to
    read, into the axis' ring; then, per active axis, the axis' rows
    2c + s of the stack for c in [c0, c1), with 1/S folded into their
    entries and their columns mapped to the ring, act on the ring viewed
    as (2R, k), which gives [D+ S^-1 y+, D- S^-1 y-] for rows c0..c1-1,
    and one GEMM rotates that back, writing out[c0:c1] on the first axis
    and adding to it (beta = 1) on the others.
    """
    u = np.asarray(u)
    if out is None:
        out = np.empty(u.shape)
    elif not (out.flags.c_contiguous and out.dtype == np.float64):
        raise ValueError("apply_streaming writes only into a C-contiguous float64 out")
    if work is None:
        work = StreamingWorkspace(stencils, ops)
    elif work.stencils is not stencils:
        raise ValueError("the StreamingWorkspace was made for other stencils")
    elif work.n_max != ops.basis.n_max:
        raise ValueError(f"the StreamingWorkspace was made for PN order {work.n_max}, "
                         f"not {ops.basis.n_max}")
    if work.inv_s is not inv_s:
        work.fold(inv_s)
    if not stencils.active_axes:
        out.fill(0.0)
    n, indptr = u.shape[0], stencils.stacked.indptr
    axes = []
    for a, (axis, ring) in enumerate(zip(stencils.active_axes, work.rings)):
        forward, back = ops.forward_rotation[axis], ops.back_rotation[axis]
        axes.append((forward, back, 2 * a * n, ring, ring.reshape(-1, forward.shape[1])))
    for c0, c1, forms in work.plan:
        for (forward, *_, rows), pieces in zip(axes, forms):
            for r0, r1, p0 in pieces:
                np.matmul(u[r0:r1], forward, out=rows[p0:p0 + r1 - r0])
        beta = 0.0                              # the first axis writes out
        for forward, back, row0, ring, rows in axes:
            width = forward.shape[1]
            z = work.z[:(c1 - c0) * width]
            z.fill(0.0)
            # scipy's kernel of the axis' rows of the stack @ the ring (the
            # product has no public out=), which adds into the zeroed slab
            _sparsetools.csr_matvecs(2 * (c1 - c0), 2 * rows.shape[0], width // 2,
                                     indptr[row0 + 2 * c0:row0 + 2 * c1 + 1],
                                     work.columns, work.values, ring, z)
            # out[c0:c1]^T (+)= back^T z^T, all transposes free views
            blas.dgemm(1.0, back.T, z.reshape(c1 - c0, width).T, beta=beta,
                       c=out[c0:c1].T, overwrite_c=True)
            beta = 1.0
    return out
