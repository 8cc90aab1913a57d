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

The low-rank solver applies all upwind terms of the active axes at once:
UpwindStencils stacks them row-wise into one sparse matrix, and scaled()
folds a diagonal into it per step by rescaling its entries, so each
product with it is one sparse call whose rows sum exactly as the
per-stencil products would.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .angular import PNOperators
from .errors import ConfigError, NumericalError


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
    rows, cols, vals = [], [], []

    def add(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    for i in range(n):
        if biased_minus:
            if i >= 2:
                add(i, i, 3.0 / (2 * h))
                add(i, i - 1, -4.0 / (2 * h))
                add(i, i - 2, 1.0 / (2 * h))
            elif i == 1:
                add(i, i, 1.0 / h)
                add(i, i - 1, -1.0 / h)
            else:  # zero-inflow ghost at i-1
                add(i, i, 1.0 / h)
        else:
            if i <= n - 3:
                add(i, i, -3.0 / (2 * h))
                add(i, i + 1, 4.0 / (2 * h))
                add(i, i + 2, -1.0 / (2 * h))
            elif i == n - 2:
                add(i, i, -1.0 / h)
                add(i, i + 1, 1.0 / h)
            else:
                add(i, i, -1.0 / h)
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


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
    """Sparse (n, n) stencils; plus[i]/minus[i] for axis i in (x, y, z).

    On construction the stencils of the active axes (those with entries)
    are also stacked row-wise into one (2 a n, n) matrix, in the order
    plus_x, minus_x, plus_y, ..., each block in the entry order that
    scipy's product D @ diag(s) emits. So scaled() forms all those
    products by rescaling one array of entries, and one sparse product
    with the result applies every upwind term.
    """

    plus: tuple
    minus: tuple
    grid: Grid3D
    active_axes: tuple = field(init=False, repr=False, compare=False)
    _stacked: sparse.csr_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.grid.n_cells
        active = tuple(a for a in range(3) if self.plus[a].nnz or self.minus[a].nnz)
        ones = sparse.diags(np.ones(n))
        blocks = [d @ ones for a in active for d in (self.plus[a], self.minus[a])]
        stacked = sparse.vstack(blocks, format="csr") if blocks else sparse.csr_matrix((0, n))
        object.__setattr__(self, "active_axes", active)
        object.__setattr__(self, "_stacked", stacked)

    def scaled(self, s):
        """The stacked stencils times diag(s), (2 a n, n).

        Rows j n .. (j+1) n - 1 hold the j-th upwind term of the order
        plus_x, minus_x, plus_y, ... over the active axes; each block equals
        scipy's D @ sparse.diags(s) in data, indices and indptr, so products
        with it sum every row in the same order. take() gathers through the
        int32 indices as they are; s[p.indices] would first convert them to
        intp, which costs more than the gather itself.
        """
        p = self._stacked
        return sparse.csr_matrix((p.data * s.take(p.indices), p.indices, p.indptr), shape=p.shape)


def build_stencils(grid: Grid3D) -> UpwindStencils:
    plus, minus = [], []
    for axis, (n, h) in enumerate(zip(grid.shape, grid.spacings)):
        plus.append(_lift_to_grid(_axis_stencil_1d(n, h, True), grid, axis))
        minus.append(_lift_to_grid(_axis_stencil_1d(n, h, False), grid, axis))
    return UpwindStencils(plus=tuple(plus), minus=tuple(minus), grid=grid)


def apply_streaming(u, inv_s, stencils: UpwindStencils, ops: PNOperators):
    """F_S(u) for the transformed moments u (n, m); inv_s is 1/S per cell.

    Pure and linear in u; raises on non-finite input instead of emitting
    NaNs.
    """
    u = np.asarray(u)
    if not np.all(np.isfinite(u)):
        raise NumericalError("non-finite streaming input")
    scaled = inv_s[:, None] * u
    out = np.zeros_like(u)
    for axis in stencils.active_axes:
        back = ops.back_rotation[axis]
        k = ops.v_plus[axis].shape[1]
        out += (stencils.plus[axis] @ (scaled @ ops.v_plus[axis])) @ back[:k]
        out += (stencils.minus[axis] @ (scaled @ ops.v_minus[axis])) @ back[k:]
    return out
