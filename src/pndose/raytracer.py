"""Analytic-path solver for the uncollided flux along beam rays.

Energy is discretized with a discontinuous Galerkin space: equal-width
groups, modal Legendre polynomials up to degree 2 per group (3 dof). The
slowing-down term uses a local Lax-Friedrichs flux whose alpha = S*
makes it the full upwind flux (from the group above each face),
straggling uses SIPG with penalty eta = 10 (p+1)^2 / h, and absorption is
a mass term. The resulting ODE system M psi' + G(z) psi = 0 marches in
depth with Crank-Nicolson at steps <= 0.01 cm. G is block-tridiagonal
and is built as three block diagonals: one block per group, and one
above and one below the diagonal per interior face.

The drift coefficient is S* = S + dT/dE / 2, which puts straggling into
standard diffusion form. Content leaving through the low-energy boundary
is tallied as locally deposited residual energy (the range below the
cutoff is far smaller than a cell).

A beam is a deterministic stratified bundle of parallel rays over +-3
lateral sigma, weighted by the Gaussian density and renormalized to the
beam weight. Rays traverse the grid exactly (Amanatides-Woo, with all
boundary crossings of a ray formed and merged as arrays) and deposit
track-length-weighted group-averaged flux at cell midpoints, one indexed
add per ray; rays sharing a material column reuse one march.

One table, EnergyOperators, holds the state of a ray trace and is
dropped with it. It assembles each material's G once and keeps it as
CSR; the assembly fills a dense G first (1.18 MB at 128 groups), which
lives only until the conversion. The first march to meet a (material,
exact dz) pair factors M + dz/2 G straight into its own dense LU buffer,
written from G's CSR entries, and the table keeps a compact copy of the
LU factors: the positions and values of their entries, which have G's
block-tridiagonal pattern. A later march expands the copy into its
buffer. Each load writes the right-hand side M - dz/2 G into the march's
other buffer from G's CSR entries, so the table keeps one form of it
only, G. A march groups its step sizes by round(dz, 14) and uses the
first exact dz of a group for the whole group, so a factor never depends
on which march met it first. Outside an assembly, the march's two
buffers are the only dense operators in a trace (see march_ray for the
memory orders that keep every dose's bits).
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.legendre as leg
from scipy import sparse
from scipy.linalg.blas import dgemv
from scipy.linalg.lapack import dgetrf, dgetrs

from .errors import ConfigError, NumericalError
from .spatial import Grid3D

MAX_STEP_CM = 0.01
DG_DEGREE = 2
SIPG_ETA = 10.0 * (DG_DEGREE + 1) ** 2
_QUAD_NODES = 6


@dataclass(frozen=True)
class BeamSource:
    """Monodirectional pencil beam with Gaussian lateral/energy spread."""

    direction: tuple
    energy_mev: float
    position_cm: tuple
    weight: float = 1.0
    sigma_xy_cm: float = 0.3
    sigma_e_rel: float = 0.01  # sigma_e_mev over the mean energy

    def __post_init__(self):
        """Raise ConfigError, its message led by the field's name, on a bad value."""
        for name in ("direction", "position_cm"):
            value = getattr(self, name)
            try:
                v = np.asarray(value, dtype=float)
            except (TypeError, ValueError):
                v = np.zeros(0)
            if v.shape != (3,) or not np.all(np.isfinite(v)):
                raise ConfigError(f"{name} must be 3 finite numbers, got {value!r}")
            object.__setattr__(self, name, tuple(v))
        norm = np.linalg.norm(self.direction)
        if norm == 0.0:
            raise ConfigError("direction must not be the zero vector")
        if abs(norm - 1.0) > 1e-9:
            object.__setattr__(self, "direction", tuple(np.asarray(self.direction) / norm))
        for name in ("energy_mev", "weight", "sigma_xy_cm", "sigma_e_rel"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")

    @property
    def sigma_e_mev(self) -> float:
        return self.sigma_e_rel * self.energy_mev

    def transverse_frame(self):
        """Two unit vectors spanning the plane perpendicular to the beam."""
        d = np.asarray(self.direction)
        helper = np.array([1.0, 0.0, 0.0])
        if abs(d[0]) > 0.9:
            helper = np.array([0.0, 1.0, 0.0])
        e1 = np.cross(d, helper)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(d, e1)
        return e1, e2


@dataclass(frozen=True)
class EnergyDGSpace:
    """n_groups equal groups x P2 modal Legendre basis on [e_min, e_max]."""

    e_min: float
    e_max: float
    n_groups: int

    def __post_init__(self):
        for name in ("e_min", "e_max"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        if self.e_max <= self.e_min:
            raise ConfigError("need 0 < e_min < e_max for the energy space")

    @property
    def n_local(self) -> int:
        return DG_DEGREE + 1

    @property
    def n_dof(self) -> int:
        return self.n_groups * self.n_local

    @property
    def width(self) -> float:
        return (self.e_max - self.e_min) / self.n_groups

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.e_min, self.e_max, self.n_groups + 1)

    @property
    def centers(self) -> np.ndarray:
        edges = self.edges
        return 0.5 * (edges[:-1] + edges[1:])

    def mass_diagonal(self) -> np.ndarray:
        """Diagonal of M_E: (h/2) * 2/(2j+1) per local mode, SPD."""
        local = self.width / 2.0 * 2.0 / (2.0 * np.arange(self.n_local) + 1.0)
        return np.tile(local, self.n_groups)

    def basis(self, x):
        """(P, dP/dxi) of the local modes at reference points x, each (len(x), nl)."""
        x = np.asarray(x, dtype=float)
        dp = leg.legval(x, leg.legder(np.eye(self.n_local))).T
        return leg.legvander(x, DG_DEGREE), dp

    def quadrature(self):
        """GL nodes per element: (energies (G, q), weights (q,), P (q, nl), dP)."""
        x, w = leg.leggauss(_QUAD_NODES)
        p, dp = self.basis(x)
        energies = self.centers[:, None] + 0.5 * self.width * x[None, :]
        return energies, w, p, dp

    def group_averages(self, coeffs) -> np.ndarray:
        """Per-group mean value: the P0 coefficient (P0 = 1)."""
        return np.asarray(coeffs).reshape(self.n_groups, self.n_local)[:, 0].copy()

    def moments(self, coeffs):
        """(integral, mean, variance) of the represented spectrum."""
        energies, w, p, _ = self.quadrature()
        c = np.asarray(coeffs).reshape(self.n_groups, self.n_local)
        vals = c @ p.T                     # (G, q)
        jac = 0.5 * self.width
        total = float(np.sum(vals * w) * jac)
        mean = float(np.sum(vals * w * energies) * jac) / total
        second = float(np.sum(vals * w * energies**2) * jac) / total
        return total, mean, second - mean**2


def project_initial_spectrum(space: EnergyDGSpace, mean_mev, sigma_mev) -> np.ndarray:
    """L2 projection of the Gaussian beam spectrum onto the DG space."""
    energies, w, p, _ = space.quadrature()
    f = np.exp(-0.5 * ((energies - mean_mev) / sigma_mev) ** 2) / (
        sigma_mev * math.sqrt(2.0 * math.pi)
    )
    jac = 0.5 * space.width
    rhs = jac * np.einsum("gq,q,qj->gj", f, w, p)          # (G, nl)
    mass_local = jac * 2.0 / (2.0 * np.arange(space.n_local) + 1.0)
    return (rhs / mass_local).ravel()


def _outer(a, b):
    """Outer products a_i b_j, stacked over the leading axes."""
    return a[..., :, None] * b[..., None, :]


def assemble_energy_operators(space: EnergyDGSpace, s_star_fn, t_fn, sigma_t_fn):
    """(mass diagonal, G) with M psi' + G psi = 0 along depth, G as CSR.

    Coefficient callables map an energy array to values: the drift S*,
    the straggling T and the total cross section sigma_t.

    G is built as three block diagonals: one (nl, nl) block per group, and
    one above and one below the diagonal per interior face. Each volume
    term is one batched Gram product, each face term one stack of outer
    products of the Legendre traces. With alpha = S* the local
    Lax-Friedrichs drift flux is the full upwind flux qhat = -S* psi_above,
    so only straggling fills the blocks below the diagonal. G equals the
    per-group, per-face loop form (tests/oracles.py) bit for bit; that
    needs the Gram products scaled as (E * h/2) * (2/h), and each diagonal
    block to take its lower face's SIPG term before its upper face's.
    The CSR arrays are written from the blocks, never from a dense G: row
    (g, i) holds the columns of groups g-1, g and g+1 in ascending order,
    exact zeros dropped, so they are the arrays of sparse.csr_matrix of
    the dense G.
    """
    ng, nl, h = space.n_groups, space.n_local, space.width
    energies, w, p, dp = space.quadrature()
    (p_hi, p_lo), (dp_hi, dp_lo) = space.basis([1.0, -1.0])

    def gram(coeff_q, a, b):
        """Per group, Int coeff a_i b_j dE over the group, (G, nl, nl)."""
        return np.einsum("gq,qi,qj->gij", w * np.asarray(coeff_q), a, b) * (0.5 * h)

    # volume advection: + Int dphi_test/dE * S* * phi_trial (dphi/dE = P' 2/h)
    diag = gram(s_star_fn(energies), dp, p) * (2.0 / h)
    # interior faces, upwind flux from the group above: group g+1's test
    # functions gain -phi(-1) qhat, group g's gain +phi(1) qhat
    s_star_edges = np.asarray(s_star_fn(space.edges))
    c_face = -s_star_edges[1:-1, None]                      # (G-1, 1)
    upper = _outer(p_hi, c_face * p_lo)
    diag[1:] -= _outer(p_lo, c_face * p_lo)
    lower = np.zeros_like(upper)
    # bottom boundary: outflow, pure upwind from the interior trace; the
    # top boundary takes inflow from vacuum, qhat = 0
    diag[0] -= _outer(p_lo, -s_star_edges[0] * p_lo)

    diag += gram(sigma_t_fn(energies), p, p)

    diag += gram(0.5 * np.asarray(t_fn(energies)), dp, dp) * (2.0 / h) ** 2
    # SIPG on each interior face: the lower group's trace at xi = 1 and
    # the upper group's at xi = -1, jump [v] = v_lo - v_hi, average
    # {kappa v'} = kappa (v_lo' + v_hi') / 2
    kappa_f = 0.5 * np.asarray(t_fn(space.edges))[1:-1]
    penalty = (SIPG_ETA * kappa_f / h)[:, None, None]
    jump = np.array([p_hi, -p_lo])
    avg = 0.5 * kappa_f[:, None, None] * ((2.0 / h) * np.array([dp_hi, dp_lo]))

    def sipg(a, b):
        """(G-1, nl, nl) coupling of side a's test to side b's trial functions."""
        return (
            -_outer(jump[a], avg[:, b])
            - _outer(avg[:, a], jump[b])
            + penalty * _outer(jump[a], jump[b])
        )

    diag[1:] += sipg(1, 1)
    diag[:-1] += sipg(0, 0)
    upper += sipg(0, 1)
    lower += sipg(1, 0)

    # row (g, i) of G: the blocks of groups g-1, g and g+1, zero off the grid
    band = np.zeros((ng, nl, 3, nl))
    band[1:, :, 0] = lower
    band[:, :, 1] = diag
    band[:-1, :, 2] = upper
    first = np.arange(-nl, (ng - 1) * nl, nl, dtype=np.int32)[:, None, None, None]
    columns = first + np.arange(3 * nl, dtype=np.int32).reshape(3, nl)
    keep = band != 0.0
    indptr = np.zeros(space.n_dof + 1, dtype=np.int32)
    np.cumsum(keep.reshape(space.n_dof, -1).sum(axis=1), out=indptr[1:])
    g_csr = sparse.csr_matrix((band[keep], np.broadcast_to(columns, band.shape)[keep], indptr),
                              shape=(space.n_dof, space.n_dof))
    return space.mass_diagonal(), g_csr


def write_cn_rhs(mass, g_csr, dz, rhs_flat):
    """Write the Crank-Nicolson right-hand side M - dz/2 G, for a CSR G,
    into a flat buffer in C order.

    Each entry g of G gives h = g * (0.5 dz); the buffer takes 0.0 - h
    off the diagonal and mass - h_ii on it, which are the bits of
    diag(M) - 0.5 * dz * G.
    """
    n = mass.size
    rows = np.repeat(np.arange(n), np.diff(g_csr.indptr))
    rhs_flat.fill(0.0)
    rhs_flat[rows * n + g_csr.indices] = 0.0 - g_csr.data * (0.5 * dz)
    rhs_flat[::n + 1] = mass - g_csr.diagonal() * (0.5 * dz)


@dataclass(frozen=True)
class CrankNicolsonFactor:
    """One Crank-Nicolson step operator, M + dz/2 G factored, in compact form.

    factor forms the operator inside a march's dense LU buffer, the only
    place where it is ever dense, and returns this compact copy of the LU
    factors (Fortran order, as dgetrf leaves them) for later marches: the
    flat positions and values of the entries whose bit pattern is not
    +0.0, so row swaps, fill and -0.0 all come back exactly, and the
    pivots. Those entries are G's block-tridiagonal pattern when no row
    is swapped (none is on water, lung or bone), 3 438 of 384^2 at 128
    groups. The right-hand side is not kept: write_cn_rhs writes it from
    G on every load.
    """

    lu_positions: np.ndarray
    lu_values: np.ndarray
    pivots: np.ndarray

    @classmethod
    def factor(cls, mass, g_csr, dz, lu_flat, key):
        """Factor M + dz/2 G for a CSR G of material key in a flat buffer.

        Each entry g of G gives h = g * (0.5 dz). The buffer takes h + 0.0
        off the diagonal and mass + h_ii on it, which are the bits of
        diag(M) + 0.5 * dz * G, and is then factored in place. A
        non-finite entry or a zero pivot raises NumericalError naming the
        material key and dz.
        """
        n = mass.size
        failed = f"Crank-Nicolson solve failed for material {key!r} at dz = {dz!r}"
        h = g_csr.data * (0.5 * dz)
        if not np.all(np.isfinite(h)):
            raise NumericalError(f"{failed}: dz/2 G has a non-finite entry")
        rows = np.repeat(np.arange(n), np.diff(g_csr.indptr))
        lu_flat.fill(0.0)
        lu_flat[rows + g_csr.indices * n] = h + 0.0
        lu_flat[::n + 1] = mass + g_csr.diagonal() * (0.5 * dz)
        pivots, info = dgetrf(lu_flat.reshape((n, n), order="F"), overwrite_a=True)[1:]
        if info > 0:
            raise NumericalError(f"{failed}: pivot {info} of M + dz/2 G is exactly zero")
        lu_positions = np.flatnonzero(lu_flat.view(np.int64) != 0).astype(np.int32)
        return cls(lu_positions, lu_flat[lu_positions], pivots)

    def expand(self, lu_flat):
        """Write the dense LU factors into a flat buffer in Fortran order."""
        lu_flat.fill(0.0)
        lu_flat[self.lu_positions] = self.lu_values


class EnergyOperators(dict):
    """The table of one ray trace on one energy space, filled on lookup.

    Material key -> (CSR G, S*(e_min)); factors holds the compact LU,
    a CrankNicolsonFactor, of each (material key, exact dz) pair, and
    each load writes the pair's right-hand side from G.
    coefficients maps a material key to (s_star_fn, t_fn, sigma_t_fn). A
    key's operator is assembled the first time it is looked up, and a
    pair is factored the first time a march loads it, inside that march's
    buffers; both are kept for every later march, so the marches and
    beams that share one table assemble each material's operator once
    and factor each pair once. len() counts the assemblies and
    len(factors) the factorizations, cn_steps the Crank-Nicolson steps
    marched, and assembly_s and factor_s the seconds spent assembling
    and factoring. G is block-tridiagonal, so only its nonzeros are
    stored, as assemble_energy_operators writes them. Hand
    one table to the marches of a ray trace and drop it with the trace:
    the only dense operators of a trace are the two buffers of its
    current march.
    """

    def __init__(self, space: EnergyDGSpace, coefficients):
        super().__init__()
        self.space = space
        self.coefficients = coefficients
        self.mass = space.mass_diagonal()
        self.factors = {}
        self.cn_steps = 0
        self.assembly_s = self.factor_s = 0.0

    def __missing__(self, key):
        start = time.perf_counter()
        s_star_fn, t_fn, sigma_t_fn = self.coefficients[key]
        g_csr = assemble_energy_operators(self.space, s_star_fn, t_fn, sigma_t_fn)[1]
        s_min = float(np.atleast_1d(s_star_fn(np.array([self.space.e_min])))[0])
        self[key] = entry = (g_csr, s_min)
        self.assembly_s += time.perf_counter() - start
        return entry

    def load(self, key, dz, lu_flat, rhs_flat):
        """Write the step operator of material key at the exact step dz
        into a march's flat buffers (LU in Fortran, rhs in C order) and
        return its pivots: the rhs is written from G, and a new pair is
        factored in the LU buffer, a known one expanded from its compact
        LU."""
        g_csr = self[key][0]
        write_cn_rhs(self.mass, g_csr, dz, rhs_flat)
        factor = self.factors.get((key, dz))
        if factor is None:
            start = time.perf_counter()
            factor = CrankNicolsonFactor.factor(self.mass, g_csr, dz, lu_flat, key)
            self.factor_s += time.perf_counter() - start
            self.factors[key, dz] = factor
        else:
            factor.expand(lu_flat)
        return factor.pivots


def march_ray(segments, operators: EnergyOperators, psi0):
    """Crank-Nicolson march along a ray path.

    segments: list of (cell_index, length_cm, material_key); operators:
    the trace's EnergyOperators table, on whose space the march runs.
    Returns (averages, residuals, psi_exit): the group averages at each
    segment's midpoint (n_segments, n_groups), the energy [MeV] carried
    below the cutoff inside each segment (n_segments,), and the exit
    coefficients.

    The factors live in the shared table, keyed by (material, exact dz).
    Within a march, all steps whose dz agree to round(dz, 14) use the
    factor of the first such dz the march met, so which marches share a
    table, and their order, never changes a factor's bits. Outside an
    assembly of G, the march's two buffers are the only dense operators
    of a trace: each operator the march turns to is factored in the LU
    buffer if the table lacks it, and expanded into it otherwise, and
    its rhs is written from G every time. The LU is in the Fortran order
    dgetrf works in; the rhs is in C order, and each step forms rhs @
    psi with the transposed dgemv kernel that numpy's matmul picks for
    it, the kernel the doses were computed with (a Fortran-ordered rhs
    selects another and moves every dose in the last bits). The product
    goes into a reused vector, which dgetrs then solves in place.
    """
    space = operators.space
    n, nl = space.n_dof, space.n_local
    p_lo = space.basis([-1.0])[0][0]
    first_dz = {}          # (material key, round(dz, 14)) -> first exact dz seen
    lu_flat, rhs_flat = np.empty(n * n), np.empty(n * n)
    # the rhs is read through its transpose, a Fortran-ordered view
    lu, rhs_t = lu_flat.reshape((n, n), order="F"), rhs_flat.reshape((n, n)).T
    current = pivots = None

    psi = np.asarray(psi0, dtype=float).copy()
    spare = np.empty(n)
    averages = np.empty((len(segments), space.n_groups))
    residuals = np.empty(len(segments))
    for k, (cell, length, key) in enumerate(segments):
        s_min = operators[key][1]
        # two halves of n_sub equal steps each, the averages taken between them
        n_sub = max(1, math.ceil(0.5 * length / MAX_STEP_CM))
        dz = 0.5 * length / n_sub
        pair = (key, first_dz.setdefault((key, round(dz, 14)), dz))
        if pair != current:
            pivots = operators.load(*pair, lu_flat, rhs_flat)
            current = pair
        operators.cn_steps += 2 * n_sub
        residual = 0.0
        trace = float(psi[:nl] @ p_lo)
        for step in range(2 * n_sub):
            if step == n_sub:
                averages[k] = space.group_averages(psi)
            b = dgemv(1.0, rhs_t, psi, y=spare, overwrite_y=True, trans=1)
            psi, spare = dgetrs(lu, pivots, b, overwrite_b=True)[0], psi
            trace_after = float(psi[:nl] @ p_lo)
            # trapezoidal trace reproduces the CN content identity, so
            # the below-cutoff energy bookkeeping closes exactly
            residual += space.e_min * s_min * 0.5 * (trace + trace_after) * dz
            trace = trace_after
        if not np.all(np.isfinite(psi)):
            raise NumericalError(f"ray march produced non-finite flux in cell {cell}")
        residuals[k] = residual
    return averages, residuals, psi


def traverse_grid(grid: Grid3D, origin, direction):
    """Amanatides-Woo traversal: [(cell_flat, s_enter, s_exit)] along a ray.

    Equal, entry for entry, to the walk that advances one cell at a time
    (tests/oracles.traverse_grid_reference).
    """
    p0 = np.asarray(origin, dtype=float)
    d = np.asarray(direction, dtype=float)
    bounds = grid.extent()
    t_lo, t_hi = 0.0, math.inf
    for axis in range(3):
        lo, hi = bounds[axis]
        if abs(d[axis]) < 1e-14:
            if not (lo <= p0[axis] <= hi):
                return []
            continue
        t1 = (lo - p0[axis]) / d[axis]
        t2 = (hi - p0[axis]) / d[axis]
        t_lo = max(t_lo, min(t1, t2))
        t_hi = min(t_hi, max(t1, t2))
    if t_hi <= t_lo:
        return []

    eps = 1e-10 * max(grid.spacings)
    p = p0 + (t_lo + eps) * d
    idx = [
        min(grid.shape[a] - 1, max(0, int((p[a] - bounds[a][0]) / grid.spacings[a])))
        for a in range(3)
    ]
    step, t_max, t_delta = [0] * 3, [math.inf] * 3, [math.inf] * 3
    for a in range(3):
        if d[a] > 1e-14:
            step[a] = 1
            nxt = bounds[a][0] + (idx[a] + 1) * grid.spacings[a]
            t_max[a] = (nxt - p0[a]) / d[a]
            t_delta[a] = grid.spacings[a] / d[a]
        elif d[a] < -1e-14:
            step[a] = -1
            nxt = bounds[a][0] + idx[a] * grid.spacings[a]
            t_max[a] = (nxt - p0[a]) / d[a]
            t_delta[a] = -grid.spacings[a] / d[a]

    # Every boundary crossing at once: per moving axis, the running sums of
    # its first crossing and its spacing (the sums an incremental walk
    # forms), up to the crossing that leaves the grid. A stable sort on
    # (time, axis) orders them as a walk that always advances the axis
    # crossing next, the lowest one on ties. A ray along no axis (no unit
    # direction is one) has a single crossing at infinity instead.
    times, axes, moves, leaves = [[math.inf]], [[0]], [[0]], [[False]]
    for a in range(3):
        if step[a] == 0:
            continue
        count = grid.shape[a] - idx[a] if step[a] > 0 else idx[a] + 1
        times.append(np.cumsum([t_max[a]] + [t_delta[a]] * (count - 1)))
        axes.append(np.full(count, a))
        moves.append(np.full(count, step[a]))
        leaves.append(np.arange(count) == count - 1)
    times, axes, moves, leaves = map(np.concatenate, (times, axes, moves, leaves))
    order = np.lexsort((axes, times))
    order = order[: np.argmax(leaves[order]) + 1]   # the walk ends leaving the grid
    t_next = np.minimum(times[order], t_hi)
    t_prev = np.concatenate(([t_lo], t_next[:-1]))
    stops = np.flatnonzero(~(t_prev < t_hi - 1e-14))
    n = stops[0] if stops.size else order.size
    order, t_prev, t_next = order[:n], t_prev[:n], t_next[:n]
    # the cell of each stretch: the start cell plus the moves before it
    moved = np.zeros((n, 3), dtype=int)
    moved[np.arange(n), axes[order]] = moves[order]
    position = np.asarray(idx) + np.cumsum(moved, axis=0) - moved
    cells = position @ np.array([1, grid.nx, grid.nx * grid.ny])
    keep = t_next > t_prev
    return list(zip(cells[keep].tolist(), t_prev[keep].tolist(), t_next[keep].tolist()))


def stratified_ray_offsets(sigma, n_side):
    """Deterministic midpoint-stratified offsets over +-3 sigma, Gaussian weights.

    Weights are renormalized to sum to one, so no source weight is lost
    to the truncation at 3 sigma.
    """
    half = 3.0 * sigma
    delta = 2.0 * half / n_side
    centers = -half + (np.arange(n_side) + 0.5) * delta
    o1, o2 = np.meshgrid(centers, centers, indexing="ij")
    offsets = np.column_stack([o1.ravel(), o2.ravel()])
    w = np.exp(-0.5 * (offsets**2).sum(axis=1) / sigma**2)
    return offsets, w / w.sum()


@dataclass
class UncollidedFlux:
    """Ray-traced uncollided flux on (group x cell), plus residual dose."""

    beam: BeamSource
    space: EnergyDGSpace
    values: np.ndarray            # (n_cells, n_groups) flux [1/(MeV cm^2)]
    residual_energy: np.ndarray   # (n_cells,) deposited below cutoff [MeV/cm^3]
    n_rays: int                   # bundle rays that deposit
    n_rays_missed: int            # bundle rays that deposit nothing
    n_marches: int                # Crank-Nicolson marches the rays shared

    @property
    def undershoot(self) -> float:
        """Most negative flux value (DG undershoot diagnostic; 0 if none)."""
        return float(min(self.values.min(initial=0.0), 0.0))

    def at_energy(self, e_mev) -> np.ndarray:
        """Linear interpolation between group representatives; 0 outside."""
        centers = self.space.centers
        if e_mev <= centers[0] or e_mev >= centers[-1]:
            j = 0 if e_mev <= centers[0] else self.values.shape[1] - 1
            inside = self.space.e_min <= e_mev <= self.space.e_max
            return self.values[:, j] if inside else np.zeros(self.values.shape[0])
        j = int(np.searchsorted(centers, e_mev)) - 1
        w = (e_mev - centers[j]) / (centers[j + 1] - centers[j])
        return (1.0 - w) * self.values[:, j] + w * self.values[:, j + 1]


def _format_vector(v) -> str:
    return "(" + ", ".join(f"{float(x):g}" for x in v) + ")"


def trace_beam(beam: BeamSource, grid: Grid3D, material_key_of_cell, operators: EnergyOperators,
               n_side):
    """Trace a stratified bundle and deposit track-length-averaged flux.

    material_key_of_cell: (n_cells,) int array of keys into operators,
    the trace's EnergyOperators table (see march_ray); hand one table to
    the beams of a ray trace to assemble each material's operator and
    factor each (material, dz) pair once.
    Rays whose cell-material sequence coincides share one Crank-Nicolson
    march. Deposition order is fixed by the ray enumeration, so results
    are bit-stable.

    Rays that leave the grid in part (Gaussian tails) are fine; n_rays
    counts the rays that deposit. A beam none of whose rays deposits
    anything raises ConfigError naming the beam and the grid extent.
    """
    space = operators.space
    e1, e2 = beam.transverse_frame()
    offsets, ray_weights = stratified_ray_offsets(beam.sigma_xy_cm, n_side)
    psi0 = project_initial_spectrum(space, beam.energy_mev, beam.sigma_e_mev)

    cell_volume = grid.dx * grid.dy * grid.dz
    values = np.zeros((grid.n_cells, space.n_groups))
    residual = np.zeros(grid.n_cells)
    march_cache = {}
    origin = np.asarray(beam.position_cm, dtype=float)
    direction = np.asarray(beam.direction)

    n_alive = 0
    for offset, w_ray in zip(offsets, ray_weights):
        start = origin + offset[0] * e1 + offset[1] * e2
        path = [seg for seg in traverse_grid(grid, start, direction) if seg[2] - seg[1] > 1e-12]
        if not path:
            continue  # ray misses the domain (vacuum)
        n_alive += 1
        cells, s0, s1 = (np.array(column) for column in zip(*path))
        lengths = s1 - s0
        keys = material_key_of_cell[cells].tolist()
        # np.round, like round() on a float64 and unlike round() on a
        # Python float, rounds by scaling; the keys decide which rays
        # share a march
        signature = tuple(zip(keys, np.round(lengths, 12).tolist()))
        if signature not in march_cache:
            # float64 lengths: march_ray classes its steps by round(dz, 14)
            segments = list(zip(cells.tolist(), lengths, keys))
            # cache only the spectra; cells belong to the individual ray
            march_cache[signature] = march_ray(segments, operators, psi0)[:2]
        averages, res_energy = march_cache[signature]
        weight = beam.weight * w_ray
        # the cells of one ray are distinct, so each indexed add is one
        # add per cell, as a per-cell loop would make it
        values[cells] += (weight * (lengths / cell_volume))[:, None] * averages
        residual[cells] += weight * res_energy / cell_volume

    if n_alive == 0:
        extent = " x ".join(f"[{lo:g}, {hi:g}]" for lo, hi in grid.extent())
        raise ConfigError(
            f"beam at {_format_vector(beam.position_cm)} cm along "
            f"{_format_vector(beam.direction)} with sigma_xy_cm={beam.sigma_xy_cm:g} "
            f"misses the grid {extent} cm: none of its {len(offsets)} rays deposits"
        )
    return UncollidedFlux(
        beam=beam,
        space=space,
        values=values,
        residual_energy=residual,
        n_rays=n_alive,
        n_rays_missed=len(offsets) - n_alive,
        n_marches=len(march_cache),
    )
