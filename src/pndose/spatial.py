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

apply_streaming, the oracle's right-hand side, works in the buffers of a
StreamingWorkspace that the caller may keep across calls. Since
P A_d P = -A_d for the parity P = diag((-1)^l), V_d^+ and V_d^- have
equally many columns k, so a GEMM forms the (n, 2k) product
y = u [V_d^+ V_d^-]. Viewed as (2n, k), its rows alternate between the
two characteristic sets, and one sparse product with the axis'
interleaved pair (UpwindStencils.pairs), whose entries are scaled by 1/S
of their column cell, gives both upwind terms in the same layout. The
pair is sliced from the stack, once per run, by one row indexing: its
row 2c + s is the stack's row of cell c in the axis' plus (s = 0) or
minus (s = 1) term, entries in the same order, at the columns 2c' + s.
The scaling is folded into the pair's entries once per step, not into
the state on every call. A GEMM with the stacked back-rotation
-[L^+ (V^+)^T; L^- (V^-)^T] then writes the output on the first axis and
adds to it on the others.

All products run on slabs of about SLAB_CELLS cells, so that each piece
of y is still in cache when the stencil reads it, and each axis keeps of
y only a ring of rows, sized to the rows its stencil reads around a
slab. The cells are walked once, in two passes per stencil slab
[c0, c1). The first pass forms, for every active axis, the rows of y
that the slab is the first to read: the pair of an axis reads a fixed
number of cells ahead of its row (2 stride_d on a grid, taken from the
pair's own indices by pair_reach), so the slab needs the rows below
c1 + reach. Row c of y lives in row c mod R of the axis' ring of R rows,
and the pair's columns are mapped to the ring once, when the workspace
is made (StreamingWorkspace.plan has the bounds). The second pass runs
each axis' stencil and back products for rows c0..c1-1. Once the first
pass is done, no later slab reads a row of u below c1, so the output may
be u itself. A GEMM on a slab of rows gives those rows of the
whole-array GEMM bit for bit (but a one-row product goes to GEMV, so the
plan makes none); tests/oracles.py has the whole-array form. This rounds
differently from the textbook form, one term at a time on S^-1 u, in the
last bits only (tests/oracles.py has that form too).
"""

import math
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


def _axis_runs(n: int, h: float, biased_minus: bool):
    """The rows of a 1-D derivative matrix, second order, one-sided toward
    -x or +x, as runs (i0, i1, offsets, values): each row i in [i0, i1)
    holds values at the columns i + offsets, in descending column order.
    No runs for n = 1 (an inactive axis)."""
    if n == 1:
        return ()
    if n == 2:
        raise ConfigError(
            "grids with 2 cells along a used axis cannot host the 3-point "
            "one-sided stencil; use 1 (inactive) or >= 3"
        )
    wide, near, far, first = 3.0 / (2 * h), 4.0 / (2 * h), 1.0 / (2 * h), 1.0 / h
    if biased_minus:  # rows 0 and 1 close with a zero-inflow ghost at -1
        return ((0, 1, (0,), (first,)),
                (1, 2, (0, -1), (first, -first)),
                (2, n, (0, -1, -2), (wide, -near, far)))
    return ((0, n - 2, (2, 1, 0), (-far, near, -wide)),
            (n - 2, n - 1, (1, 0), (first, -first)),
            (n - 1, n, (0,), (-first,)))


@dataclass(frozen=True)
class UpwindStencils:
    """The upwind stencils of the active axes, stacked row-wise, (2 a n, n).

    Rows j n .. (j+1) n - 1 hold the j-th upwind term of the order plus_x,
    minus_x, plus_y, ... over the active axes (those a grid extends
    along), each term in the entry order that scipy's product
    D @ diag(s) emits. That entry order fixes the order in which each row
    of a product with the stack, or with a pair, sums its terms. pairs
    holds the oracle's interleaved pair of each axis, sliced from the
    stack's rows only when first asked for.
    """

    active_axes: tuple
    stacked: sparse.csr_matrix

    @cached_property
    def pairs(self):
        """The interleaved stencil pair of each active axis, (2n, 2n) each,
        formed on first use.

        Row 2c + s of axis j's pair is row (2j + s) n + c of the stack, the
        row of cell c in the axis' plus (s = 0) or minus (s = 1) term, with
        its entries in the same order at the columns 2c' + s: one row
        indexing of the stack, then a remap of the columns. The pair acts
        on an (n, 2k) array [y+ y-] viewed as (2n, k) as plus on y+ and
        minus on y-, and its product has the same layout.
        """
        p, n = self.stacked, self.stacked.shape[1]
        side = np.arange(2 * n, dtype=p.indices.dtype) & 1
        pairs = []
        for j in range(len(self.active_axes)):
            rows = p[2 * j * n + side * n + np.arange(2 * n) // 2]
            indices = 2 * rows.indices + np.repeat(side, np.diff(rows.indptr))
            pairs.append(sparse.csr_matrix((rows.data, indices, rows.indptr), shape=(2 * n, 2 * n)))
        return tuple(pairs)


def build_stencils(grid: Grid3D) -> UpwindStencils:
    """Stack the plus- and minus-biased stencil of every active axis.

    The CSR arrays of the stack are written directly, one run of alike
    1-D rows (_axis_runs) at a time: the row of a cell at 1-D position i
    holds the entries of 1-D row i at the columns cell + offset * stride,
    in descending column order, i.e. (self, i-1, i-2) in D+ and
    (i+2, i+1, self) in D-. That is the order in which scipy's product
    D @ diag(s) emits a row (tests/oracles.py forms the stack so).
    """
    n = grid.n_cells
    strides = (1, grid.nx, grid.nx * grid.ny)
    terms = [
        (axis, runs)
        for axis, (size, h) in enumerate(zip(grid.shape, grid.spacings))
        for runs in (_axis_runs(size, h, True), _axis_runs(size, h, False))
        if runs
    ]
    # the entries of each 1-D stencil, repeated over the cells of the other axes
    stencil_nnz = [sum((i1 - i0) * len(offsets) for i0, i1, offsets, _ in runs)
                   for _, runs in terms]
    nnz = sum(d1_nnz * (n // grid.shape[axis]) for d1_nnz, (axis, _) in zip(stencil_nnz, terms))
    index_dtype = np.int32 if max(nnz, len(terms) * n) < 2**31 else np.int64
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=index_dtype)
    indptr = np.zeros(len(terms) * n + 1, dtype=index_dtype)
    start = 0
    for j, ((axis, runs), d1_nnz) in enumerate(zip(terms, stencil_nnz)):
        size, stride = grid.shape[axis], strides[axis]
        # cell = (outer * size + i) * stride + inner; the entries of one
        # outer slab run over i, then inner, then the row's own entries
        outer, slab = n // (size * stride), d1_nnz * stride
        block_data = data[start:start + outer * slab].reshape(outer, slab)
        block_indices = indices[start:start + outer * slab].reshape(outer, slab)
        lengths = np.empty(size, dtype=index_dtype)
        lo = 0
        for i0, i1, offsets, values in runs:
            lengths[i0:i1] = len(offsets)
            hi = lo + (i1 - i0) * stride * len(offsets)
            shape = (outer, i1 - i0, stride, len(offsets))
            block_data[:, lo:hi].reshape(shape)[...] = values
            block_indices[:, lo:hi].reshape(shape)[...] = (
                np.arange(0, n, size * stride)[:, None, None, None]
                + np.arange(i0 * stride, i1 * stride, stride)[:, None, None]
                + np.arange(stride)[:, None]
                + np.multiply(offsets, stride)
            )
            lo = hi
        row_lengths = np.broadcast_to(lengths[:, None], (outer, size, stride)).ravel()
        indptr[j * n + 1:(j + 1) * n + 1] = np.cumsum(row_lengths) + start
        start += outer * slab
    stacked = sparse.csr_matrix((data, indices, indptr), shape=(len(terms) * n, n))
    return UpwindStencils(active_axes=tuple(dict.fromkeys(a for a, _ in terms)), stacked=stacked)


# Cells per slab of the oracle's products (StreamingWorkspace); at least 2.
SLAB_CELLS = 256


def pair_reach(pair) -> int:
    """The most cells by which a row of an interleaved pair reads ahead of
    its own cell (0 if none reads ahead): 2 stride_d for the pair of axis d."""
    cells = np.repeat(np.arange(pair.shape[0]) >> 1, np.diff(pair.indptr))
    return int(np.max((pair.indices >> 1) - cells, initial=0))


def _ring_pieces(f0, f1, rows):
    """(r0, r1, p0) of the GEMMs that form rows [f0, f1) of a product into
    ring rows p0.. of a ring of rows: none, one, or two where they wrap."""
    wrap = (f0 // rows + 1) * rows
    bounds = (f0, f1) if f1 <= wrap else (f0, wrap, f1)
    return tuple((a, b, a % rows) for a, b in zip(bounds, bounds[1:]) if a < b)


class StreamingWorkspace:
    """apply_streaming's buffers and slab plan for one grid and PN order.

    rings holds, per active axis, a ring of R rows of the axis'
    characteristic product u [V+ V-] (2k wide), row c of the product in
    row c mod R; columns the axis' pair indices mapped to the ring (column
    2c' + s to 2 (c' mod R) + s); z a slab of SLAB_CELLS rows of a
    stencil product; and values the entries of each interleaved pair
    (UpwindStencils.pairs) scaled by the 1/S of their column cell.
    apply_streaming folds whenever it is handed another inv_s array than
    the one values hold, so a caller that changes an inv_s array in place
    must hand a new one instead.

    plan holds one (c0, c1, forms) per stencil slab [c0, c1), forms one
    tuple of (r0, r1, p0) per active axis: the GEMMs that form rows
    [r0, r1) of the axis' product into ring rows p0.. just before that
    slab. Per axis, the slab's rows are [f0, f1): f1 is c1 plus the pair's
    reach ahead (pair_reach), at most n, and f0 the previous slab's f1, so
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
        n = stencils.stacked.shape[1]
        width = max((ops.forward_rotation[a].shape[1] for a in stencils.active_axes), default=0)
        h = min(SLAB_CELLS, n)
        slabs = [(c0, min(c0 + h, n)) for c0 in range(0, n, h)]
        self.stencils = stencils
        self.z = np.empty(h * width)
        self.values = tuple(np.empty(pair.nnz) for pair in stencils.pairs)
        rings, columns, forms = [], [], []
        for axis, pair in zip(stencils.active_axes, stencils.pairs):
            rows, pieces = self._ring(pair, slabs)
            rings.append(np.empty(rows * ops.forward_rotation[axis].shape[1]))
            columns.append(2 * ((pair.indices >> 1) % rows) + (pair.indices & 1))
            forms.append(pieces)
        self.rings, self.columns = tuple(rings), tuple(columns)
        self.plan = tuple((c0, c1, tuple(f[i] for f in forms))
                          for i, (c0, c1) in enumerate(slabs))
        self.inv_s = None

    @staticmethod
    def _ring(pair, slabs):
        """(R, pieces) for a pair on the stencil slabs [c0, c1): the ring
        rows R and, per slab, the (r0, r1, p0) of its forward GEMMs."""
        n, reach = pair.shape[0] // 2, pair_reach(pair)
        spans, f0 = [], 0
        for c0, c1 in slabs:
            f1 = min(c1 + reach, n)
            if f1 == n - 1:
                f1 = n
            read = pair.indices[pair.indptr[2 * c0]:pair.indptr[2 * c1]] >> 1
            spans.append((f0, f1, int(read.min(initial=c0))))
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
        return sum(r.size for r in self.rings) + self.z.size + sum(v.size for v in self.values)

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
    into out (n, m) and returned; out may be u itself, but no other array
    that shares memory with u. work is a StreamingWorkspace; when it is
    given, its stencils are the ones applied. Both are allocated when not
    given. One stencil slab [c0, c1) of cells at a time, following
    work.plan: first, per active axis, GEMMs form the rows of
    y = u [V+ V-] (n, 2k) that the slab is the first to read, into the
    axis' ring; then, per active axis, the interleaved pair, with 1/S
    folded into its entries and its columns mapped to the ring, acts on
    the ring viewed as (2R, k), which gives [D+ S^-1 y+, D- S^-1 y-] for
    rows c0..c1-1, and one GEMM rotates that back, writing out[c0:c1] on
    the first axis and adding to it (beta = 1) on the others.
    """
    u = np.asarray(u)
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
    axes = []
    for axis, pair, values, ring, columns in zip(stencils.active_axes, stencils.pairs,
                                                 work.values, work.rings, work.columns):
        forward, back = ops.forward_rotation[axis], ops.back_rotation[axis]
        rows = ring.reshape(-1, forward.shape[1])
        axes.append((forward, back, pair.indptr, columns, values, ring, rows))
    for c0, c1, forms in work.plan:
        for (forward, *_, rows), pieces in zip(axes, forms):
            for r0, r1, p0 in pieces:
                np.matmul(u[r0:r1], forward, out=rows[p0:p0 + r1 - r0])
        beta = 0.0                              # the first axis writes out
        for forward, back, indptr, columns, values, ring, rows in axes:
            width = forward.shape[1]
            z = work.z[:(c1 - c0) * width]
            z.fill(0.0)
            # scipy's kernel of pair[2 c0:2 c1] @ y (the product has no
            # public out=), which adds into the zeroed slab
            _sparsetools.csr_matvecs(2 * (c1 - c0), 2 * rows.shape[0], width // 2,
                                     indptr[2 * c0:2 * c1 + 1], columns, values, ring, z)
            # out[c0:c1]^T (+)= back^T z^T, all transposes free views
            blas.dgemm(1.0, back.T, z.reshape(c1 - c0, width).T, beta=beta,
                       c=out[c0:c1].T, overwrite_c=True)
            beta = 1.0
    return out
