"""Independent oracle computations shared by the test modules.

Everything here deliberately avoids the library's closed-form assembly
paths: sphere integrals use product quadrature over basis evaluations,
the Laplace-Beltrami matrix uses the integration-by-parts form with
the associated-Legendre derivative recurrence, CSDA ranges integrate
the shipped stopping tables by cumulative trapezoid, the grid traversal
walks one cell at a time, the ray tracer's energy operator is
accumulated one group and one face block at a time, the ray march
factors its dense Crank-Nicolson systems afresh in every march, the
upwind stencils are Kronecker-lifted and put in scipy's product order by
a product with diag(1), the full-rank oracle's step allocates a fresh
array for every stage and term, its streaming right-hand side forms each
axis' characteristic product over the whole array before any stencil
product reads it, and the low-rank kernels apply one upwind term (and
the implicit scattering one element) at a time.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy import sparse
from scipy.linalg import blas, lu_factor, lu_solve
from scipy.sparse import _sparsetools
from scipy.special import lpmv

from pndose import spatial
from pndose.angular import real_sph_eval
from pndose.constants import ELECTRON_REST_MEV, ELEMENTS, FINE_STRUCTURE
from pndose.physics.kinematics import beta, momentum_mev_c, wave_number_inv_cm
from pndose.physics.materials import default_schneider_table
from pndose.physics.moliere import DEFAULT_NODES, tau_lab
from pndose.physics.stopping import default_stopping_library
from pndose.raytracer import _QUAD_NODES, DG_DEGREE, MAX_STEP_CM, SIPG_ETA


def water_csda_ranges(e_max_mev, e_min_mev=1.0, n_points=200_001):
    """(energies, R) with R(E) = int_{e_min}^{E} dE'/S(E') in cm.

    S is the stopping power of water (0 HU) from the shipped tables,
    summed over the 12 elements; R(e_max) is the CSDA range down to e_min.
    """
    density, weights = default_schneider_table().convert(0.0)
    lib = default_stopping_library()
    energies = np.linspace(e_min_mev, e_max_mev, n_points)
    s_of_e = density * sum(
        w * lib.mass_stopping(sym, energies)
        for w, sym in zip(weights, [el.symbol for el in lib.tables.values()])
    )
    return energies, cumulative_trapezoid(1.0 / s_of_e, energies, initial=0.0)


def sphere_quadrature_nodes(n_mu, n_phi):
    """Product Gauss-Legendre x uniform-phi nodes and weights."""
    x, w = np.polynomial.legendre.leggauss(n_mu)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi
    nodes, weights = [], []
    for mu, wm in zip(x, w):
        st = math.sqrt(1.0 - mu * mu)
        for phi in phis:
            nodes.append([st * math.cos(phi), st * math.sin(phi), mu])
            weights.append(wm * wphi)
    return np.array(nodes), np.array(weights)


def gram_matrix(n_max):
    """Int m m^T dOmega by quadrature (exact for this polynomial degree)."""
    nodes, weights = sphere_quadrature_nodes(n_max + 2, 2 * n_max + 3)
    m = (n_max + 1) ** 2
    out = np.zeros((m, m))
    for om, w in zip(nodes, weights):
        v = real_sph_eval(n_max, om)
        out += w * np.outer(v, v)
    return out


def flux_matrices_by_quadrature(n_max):
    """Int m m^T Omega_d dOmega for d = x, y, z by quadrature."""
    nodes, weights = sphere_quadrature_nodes(n_max + 2, 2 * n_max + 3)
    m = (n_max + 1) ** 2
    mats = [np.zeros((m, m)) for _ in range(3)]
    for om, w in zip(nodes, weights):
        v = real_sph_eval(n_max, om)
        outer = w * np.outer(v, v)
        for d in range(3):
            mats[d] += outer * om[d]
    return tuple(mats)


def _mu_part_and_derivative(n_max, mu):
    """Per flat index: f(mu) and (1 - mu^2) f'(mu) of the mu-dependent factor.

    The real basis is f_{l,k}(mu) * {cos(k phi), 1, sin(|k| phi)}; the
    derivative uses (1-mu^2) dP_l^k/dmu = (l+k) P_{l-1}^k - l mu P_l^k.
    """
    m = (n_max + 1) ** 2
    f = np.zeros(m)
    omf = np.zeros(m)  # (1 - mu^2) * f'
    for ell in range(n_max + 1):
        base = ell * ell + ell
        for k in range(0, ell + 1):
            log_ratio = math.lgamma(ell - k + 1) - math.lgamma(ell + k + 1)
            norm = math.sqrt((2 * ell + 1) / (4.0 * math.pi)) * math.exp(0.5 * log_ratio)
            if k > 0:
                norm *= (-1.0) ** k * math.sqrt(2.0)
            p_here = lpmv(k, ell, mu)
            p_down = lpmv(k, ell - 1, mu) if ell - 1 >= k else 0.0
            val = norm * p_here
            dval = norm * ((ell + k) * p_down - ell * mu * p_here)
            for idx in ({base} if k == 0 else {base + k, base - k}):
                f[idx] = val
                omf[idx] = dval
    return f, omf


def laplace_beltrami_matrix(n_max, n_mu=200, n_phi=None):
    """Int m_p (L m_q) dOmega via -Int grad m_p . grad m_q dOmega.

    Independent of the closed-form eigenvalue formula; uses quadrature
    over the integration-by-parts integrand.
    """
    if n_phi is None:
        n_phi = 2 * n_max + 5
    m = (n_max + 1) ** 2
    orders = np.concatenate([np.arange(-l, l + 1) for l in range(n_max + 1)])
    x, w = np.polynomial.legendre.leggauss(n_mu)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * np.pi / n_phi

    out = np.zeros((m, m))
    for mu, wm in zip(x, w):
        f, omf = _mu_part_and_derivative(n_max, mu)
        one_minus_mu2 = 1.0 - mu * mu
        for phi in phis:
            trig = np.where(
                orders > 0,
                np.cos(orders * phi),
                np.where(orders < 0, np.sin(-orders * phi), 1.0),
            )
            dtrig = np.where(
                orders > 0,
                -orders * np.sin(orders * phi),
                np.where(orders < 0, -orders * np.cos(-orders * phi), 0.0),
            )
            grad_mu = omf * trig          # sqrt(1-mu^2) * d_theta part, scaled
            grad_phi = f * dtrig          # d_phi part
            # grad m . grad m' = (1-mu^2) f' g' trig trig' + f g dtrig dtrig'/(1-mu^2)
            out -= wm * wphi * (
                np.outer(grad_mu, grad_mu) / one_minus_mu2
                + np.outer(grad_phi, grad_phi) / one_minus_mu2
            )
    return out


def traverse_grid_reference(grid, origin, direction):
    """Amanatides-Woo traversal as a per-cell loop: [(cell, s_enter, s_exit)].

    Each step advances the axis whose next boundary crossing comes first
    (the lowest axis on ties, as argmin picks it) and adds that axis's
    crossing spacing to its next crossing time.
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

    out = []
    t = t_lo
    while t < t_hi - 1e-14:
        axis = int(np.argmin(t_max))
        t_next = min(t_max[axis], t_hi)
        if t_next > t:
            out.append((grid.index(*idx), t, t_next))
        t = t_next
        idx[axis] += step[axis]
        if not (0 <= idx[axis] < grid.shape[axis]):
            break
        t_max[axis] += t_delta[axis]
    return out


def assemble_energy_operators_reference(space, s_star_fn, t_fn, sigma_t_fn):
    """(mass diagonal, G) of the ray tracer's energy DG, as per-group and per-face loops.

    Accumulates each element and face block into the dense G one at a
    time, with the Legendre traces and derivatives from legvander and
    legder; raytracer.assemble_energy_operators builds the same G bit for
    bit from three block diagonals.
    """
    nl, ng, ndof = space.n_local, space.n_groups, space.n_dof
    h = space.width
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    p = np.polynomial.legendre.legvander(x, DG_DEGREE)
    dp = np.stack(
        [
            np.polynomial.legendre.legval(
                x, np.polynomial.legendre.legder(np.eye(nl)[j])
            )
            for j in range(nl)
        ],
        axis=1,
    )
    energies = space.centers[:, None] + 0.5 * h * x[None, :]
    jac = 0.5 * h
    g_mat = np.zeros((ndof, ndof))

    s_star_q = np.asarray(s_star_fn(energies))              # (G, q)
    edge_e = space.edges
    s_star_edges = np.asarray(s_star_fn(edge_e))            # (G+1,)

    # volume advection: + Int dphi_test/dE * S* * phi_trial (dphi/dE = P' 2/h)
    for g in range(ng):
        block = np.einsum("q,qi,qj->ij", w * s_star_q[g], dp, p) * jac * (2.0 / h)
        sl = slice(g * nl, (g + 1) * nl)
        g_mat[sl, sl] += block

    p_hi = np.polynomial.legendre.legvander([1.0], DG_DEGREE)[0]
    p_lo = np.polynomial.legendre.legvander([-1.0], DG_DEGREE)[0]

    # interior faces between group g (below) and g+1 (above), LF flux for
    # q(psi) = -S* psi with wind toward lower energies
    for g in range(ng - 1):
        sf = s_star_edges[g + 1]
        alpha = sf
        lo_sl = slice(g * nl, (g + 1) * nl)
        hi_sl = slice((g + 1) * nl, (g + 2) * nl)
        # qhat = -sf/2 (psi_lo + psi_hi) - alpha/2 (psi_hi - psi_lo)
        c_lo = -0.5 * sf + 0.5 * alpha      # coefficient of lower trace
        c_hi = -0.5 * sf - 0.5 * alpha      # coefficient of upper trace
        # element g test functions gain +phi(1) * qhat; G accumulates +
        g_mat[lo_sl, lo_sl] += np.outer(p_hi, c_lo * p_hi)
        g_mat[lo_sl, hi_sl] += np.outer(p_hi, c_hi * p_lo)
        # element g+1 test functions gain -phi(-1) * qhat
        g_mat[hi_sl, lo_sl] -= np.outer(p_lo, c_lo * p_hi)
        g_mat[hi_sl, hi_sl] -= np.outer(p_lo, c_hi * p_lo)

    # bottom boundary: outflow, pure upwind from the interior trace
    sl0 = slice(0, nl)
    g_mat[sl0, sl0] -= np.outer(p_lo, -s_star_edges[0] * p_lo)
    # top boundary: inflow from vacuum, qhat = 0

    # removal: + Int sigma_t phi_test phi_trial
    sig_q = np.asarray(sigma_t_fn(energies))
    for g in range(ng):
        block = np.einsum("q,qi,qj->ij", w * sig_q[g], p, p) * jac
        sl = slice(g * nl, (g + 1) * nl)
        g_mat[sl, sl] += block

    # straggling: symmetric interior-penalty diffusion with kappa = T/2
    kappa_q = 0.5 * np.asarray(t_fn(energies))
    kappa_edges = 0.5 * np.asarray(t_fn(edge_e))
    dp_hi = (2.0 / h) * np.array(
        [
            np.polynomial.legendre.legval(
                1.0, np.polynomial.legendre.legder(np.eye(nl)[j])
            )
            for j in range(nl)
        ]
    )
    dp_lo = (2.0 / h) * np.array(
        [
            np.polynomial.legendre.legval(
                -1.0, np.polynomial.legendre.legder(np.eye(nl)[j])
            )
            for j in range(nl)
        ]
    )
    for g in range(ng):
        block = (
            np.einsum("q,qi,qj->ij", w * kappa_q[g], dp, dp) * jac * (2.0 / h) ** 2
        )
        sl = slice(g * nl, (g + 1) * nl)
        g_mat[sl, sl] += block
    for g in range(ng - 1):
        kf = kappa_edges[g + 1]
        sigma_pen = SIPG_ETA * kf / h
        lo_sl = slice(g * nl, (g + 1) * nl)
        hi_sl = slice((g + 1) * nl, (g + 2) * nl)
        # traces: lower element at xi=1, upper element at xi=-1
        # jump [v] = v_lo - v_hi, average {v} = (v_lo + v_hi)/2
        trace = np.zeros((2, nl, 2))    # (side, mode, [value, derivative])
        trace[0, :, 0], trace[0, :, 1] = p_hi, dp_hi
        trace[1, :, 0], trace[1, :, 1] = p_lo, dp_lo
        sides = (lo_sl, hi_sl)
        sign = (1.0, -1.0)
        for a in range(2):
            for b in range(2):
                jump_a = sign[a] * trace[a, :, 0]
                jump_b = sign[b] * trace[b, :, 0]
                avg_da = 0.5 * kf * trace[a, :, 1]
                avg_db = 0.5 * kf * trace[b, :, 1]
                block = (
                    -np.outer(jump_a, avg_db)
                    - np.outer(avg_da, jump_b)
                    + sigma_pen * np.outer(jump_a, jump_b)
                )
                g_mat[sides[a], sides[b]] += block

    return space.mass_diagonal(), g_mat


def march_ray_reference(segments, operators, psi0):
    """(averages, residuals, psi_exit) of a Crank-Nicolson ray march, each
    system factored densely within the march.

    Each segment half takes the fewest equal steps of at most
    MAX_STEP_CM. The LU factors and right-hand sides are cached per
    (material key, round(dz, 14)) for this march only, built by the first
    step of each class; every step solves with lu_solve.
    """
    space = operators.space
    mass = space.mass_diagonal()
    nl = space.n_local
    p_lo = space.basis([-1.0])[0][0]
    lu_cache = {}

    def stepper(key, dz):
        ck = (key, round(dz, 14))
        if ck not in lu_cache:
            g_mat = operators[key][0].toarray()
            lhs = np.diag(mass) + 0.5 * dz * g_mat
            rhs = np.diag(mass) - 0.5 * dz * g_mat
            lu_cache[ck] = (lu_factor(lhs), rhs)
        return lu_cache[ck]

    psi = np.asarray(psi0, dtype=float).copy()
    averages = np.empty((len(segments), space.n_groups))
    residuals = np.empty(len(segments))
    for k, (_, length, key) in enumerate(segments):
        s_min = operators[key][1]
        n_sub = max(1, math.ceil(0.5 * length / MAX_STEP_CM))
        dz = 0.5 * length / n_sub
        lu, rhs = stepper(key, dz)
        residual = 0.0
        for step in range(2 * n_sub):
            if step == n_sub:
                averages[k] = space.group_averages(psi)
            trace_before = float(psi[:nl] @ p_lo)
            psi = lu_solve(lu, rhs @ psi)
            trace_after = float(psi[:nl] @ p_lo)
            residual += space.e_min * s_min * 0.5 * (trace_before + trace_after) * dz
        residuals[k] = residual
    return averages, residuals, psi


def axis_stencil_1d(n, h, biased_minus):
    """1-D derivative matrix, second order, one-sided toward -x or +x,
    from scipy's banded constructor (n = 1 gives an empty 1 x 1)."""
    if n == 1:
        return sparse.csr_matrix((1, 1))
    wide, near, far, first = 3.0 / (2 * h), 4.0 / (2 * h), 1.0 / (2 * h), 1.0 / h
    if biased_minus:  # rows 0 and 1 close with a zero-inflow ghost at -1
        bands = ([first, first] + [wide] * (n - 2), [-first] + [-near] * (n - 2), [far] * (n - 2))
        return sparse.diags(bands, (0, -1, -2), shape=(n, n), format="csr")
    bands = ([-wide] * (n - 2) + [-first, -first], [near] * (n - 2) + [first], [-far] * (n - 2))
    return sparse.diags(bands, (0, 1, 2), shape=(n, n), format="csr")


def lift_to_grid(d1, grid, axis):
    """Kronecker-lift a 1-D stencil to the flat 3-D cell ordering."""
    ix, iy, iz = sparse.identity(grid.nx), sparse.identity(grid.ny), sparse.identity(grid.nz)
    if axis == 0:
        return sparse.kron(iz, sparse.kron(iy, d1)).tocsr()
    if axis == 1:
        return sparse.kron(iz, sparse.kron(d1, ix)).tocsr()
    return sparse.kron(d1, sparse.kron(iy, ix)).tocsr()


def kron_stencil_stack(grid):
    """(data, indices, indptr) of spatial.build_stencils' stack: per active
    axis, the Kronecker-lifted plus and minus blocks, each put in scipy's
    product order by D @ diag(1), with their rows interleaved, so that
    row 2 a n + 2 c + s is row c of axis a's plus (s = 0) or minus (s = 1)
    block."""
    n = grid.n_cells
    blocks = [
        lift_to_grid(d1, grid, axis) @ sparse.diags(np.ones(n))
        for axis, (size, h) in enumerate(zip(grid.shape, grid.spacings))
        for d1 in (axis_stencil_1d(size, h, True), axis_stencil_1d(size, h, False))
        if d1.nnz
    ]
    interleaved = np.arange(2 * n).reshape(2, n).T.ravel()       # 0, n, 1, n + 1, ...
    axes = [sparse.vstack(blocks[j:j + 2], format="csr")[interleaved]
            for j in range(0, len(blocks), 2)]
    nnz = sum(b.nnz for b in blocks)
    index_dtype = np.int32 if max(nnz, len(blocks) * n) < 2**31 else np.int64
    indptr = np.zeros(len(blocks) * n + 1, dtype=index_dtype)
    start = 0
    for a, rows in enumerate(axes):
        indptr[2 * a * n + 1:2 * (a + 1) * n + 1] = rows.indptr[1:] + start
        start += rows.nnz
    data = np.concatenate([np.empty(0)] + [rows.data for rows in axes])
    indices = np.concatenate([np.empty(0, index_dtype)] + [rows.indices for rows in axes])
    return data, indices.astype(index_dtype), indptr


def stack_terms(stencils):
    """The upwind terms of the stencil stack in (axis, sign) order, (n, n)
    each: term 2a + s is the rows 2 a n + 2 c + s over the cells c, entries
    in the stack's order."""
    stacked, n = stencils.stacked, stencils.stacked.shape[1]
    return [stacked[j // 2 * 2 * n + j % 2:(j // 2 + 1) * 2 * n:2]
            for j in range(stacked.shape[0] // n)]


def naive_streaming_rhs(u, ctx):
    """F_S(u) with a fresh product per upwind term, added to zeros in stack order."""
    scaled = ctx.inv_s[:, None] * u
    out = np.zeros_like(u)
    terms = stack_terms(ctx.stencils)
    for j, axis in enumerate(ctx.stencils.active_axes):
        forward, back = ctx.ops.forward_rotation[axis], ctx.ops.back_rotation[axis]
        k = forward.shape[1] // 2
        out += (terms[2 * j] @ (scaled @ forward[:, :k])) @ back[:k]
        out += (terms[2 * j + 1] @ (scaled @ forward[:, k:])) @ back[k:]
    return out


def whole_array_streaming(u, inv_s, stencils, ops):
    """apply_streaming's F_S(u) with each axis' characteristic product
    u [V+ V-] formed by one whole-array GEMM before its first stencil slab.

    The stencil and back products run on the same slabs of
    spatial.SLAB_CELLS cells (read at call time) with the axis' rows of
    the stack read at the columns 2c' + s of y viewed as (2n, k) and their
    entries scaled by 1/S of their column cell c', so only the forward
    product's order of evaluation differs from apply_streaming.
    """
    n, h = u.shape[0], min(spatial.SLAB_CELLS, u.shape[0])
    stack = stencils.stacked
    out = np.zeros(u.shape)
    for a, axis in enumerate(stencils.active_axes):
        forward, back = ops.forward_rotation[axis], ops.back_rotation[axis]
        width = forward.shape[1]
        ptr = stack.indptr[2 * a * n:2 * (a + 1) * n + 1]
        cells = stack.indices[ptr[0]:ptr[-1]]
        side = np.repeat(np.arange(2 * n) % 2, np.diff(ptr))
        columns = (2 * cells + side).astype(ptr.dtype)
        values = inv_s[cells] * stack.data[ptr[0]:ptr[-1]]
        y = u @ forward
        for c0 in range(0, n, h):
            c1 = min(c0 + h, n)
            z = np.zeros((c1 - c0, width))
            _sparsetools.csr_matvecs(2 * (c1 - c0), 2 * n, width // 2,
                                     ptr[2 * c0:2 * c1 + 1] - ptr[0], columns, values,
                                     y.ravel(), z.ravel())
            blas.dgemm(1.0, back.T, z.T, beta=float(a > 0),
                       c=out[c0:c1].T, overwrite_c=True)
    return out


def naive_rk4(f, y0, dt):
    """The four-stage classical Runge-Kutta step, one fresh array per stage."""
    k1 = f(y0)
    k2 = f(y0 + 0.5 * dt * k1)
    k3 = f(y0 + 0.5 * dt * k2)
    k4 = f(y0 + dt * k3)
    return y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def self_scattering_rates(ctx):
    """(n, m) per-cell-and-moment decay rates sum_i w_i/S (sigma_t,i - g_i,q)."""
    spatial = ctx.element_weights * ctx.inv_s[:, None]       # (n, 12)
    return spatial @ ctx.absorption


def source_full(ctx):
    """Full n x m source sum_b sum_i w_i S^-1 psi_u^b (T_M^b)^T G_i, summed from zeros."""
    out = np.zeros((ctx.element_weights.shape[0], ctx.g_diags.shape[1]))
    for w, g in ctx.source_factors:
        out += w @ g
    return out


def naive_fullrank_step(u, dt, stream_ctx, scat_ctx):
    """One full-rank oracle step with fresh arrays: RK4 streaming, then
    implicit-Euler self-scattering and the explicit-Euler source."""
    u1 = naive_rk4(lambda x: naive_streaming_rhs(x, stream_ctx), u, dt)
    return u1 / (1.0 + dt * self_scattering_rates(scat_ctx)) + dt * source_full(scat_ctx)


def per_term_derivatives(ctx, x):
    """[D_j S^-1 x] over the upwind terms j, one sparse product per term."""
    scaled = ctx.inv_s[:, None] * x
    return [term @ scaled for term in stack_terms(ctx.stencils)]


def per_term_moment_factors(ctx, w):
    """[W^T V_d L+-_d V_d^T W] over the upwind terms, one axis at a time."""
    factors = []
    for axis in ctx.stencils.active_axes:
        c = w.T @ ctx.ops.eig_v[axis]
        factors.append((c * ctx.ops.lam_plus[axis][None, :]) @ c.T)
        factors.append((c * ctx.ops.lam_minus[axis][None, :]) @ c.T)
    return factors


def per_term_k_rhs(ctx, k, v0):
    """F_S(K V0^T) V0, subtracting one term's product at a time from zeros."""
    out = np.zeros_like(k)
    for d, f in zip(per_term_derivatives(ctx, k), per_term_moment_factors(ctx, v0)):
        out -= d @ f
    return out


def per_term_l_rhs(ctx, l, u0):
    """F_S(U0 L^T)^T U0, with A+-_d = V_d L+-_d V_d^T formed per term."""
    a_terms = [
        (ctx.ops.eig_v[axis] * lam[None, :]) @ ctx.ops.eig_v[axis].T
        for axis in ctx.stencils.active_axes
        for lam in (ctx.ops.lam_plus[axis], ctx.ops.lam_minus[axis])
    ]
    out = np.zeros_like(l)
    for a, d in zip(a_terms, per_term_derivatives(ctx, u0)):
        out -= a @ (l @ (d.T @ u0))
    return out


def per_term_s_step_factors(ctx, u_hat, v_hat):
    """([U^T D_j S^-1 U^], [V^T V_d L+-_d V_d^T V^]) over the upwind terms j."""
    return ([u_hat.T @ d for d in per_term_derivatives(ctx, u_hat)],
            per_term_moment_factors(ctx, v_hat))


def per_element_b_mats(u0, ctx):
    """The twelve B_i = U0^T diag(w_i/S) U0, one weighted product per element."""
    spatial = ctx.element_weights.T * ctx.inv_s                    # (12, n)
    return np.array([(u0 * weights[:, None]).T @ u0 for weights in spatial])


def per_column_implicit_l_step(u0, l0, dt, ctx):
    """Substep 1 as one r x r solve per moment column, from per_element_b_mats."""
    b_mats = per_element_b_mats(u0, ctx)                           # (12, r, r)
    coeffs = ctx.sigma_t[:, None] - ctx.g_diags                    # (12, m)
    eye_r = np.eye(u0.shape[1])
    l_new = np.empty_like(l0)
    for q in range(l0.shape[0]):
        mat = eye_r + dt * np.tensordot(coeffs[:, q], b_mats, axes=(0, 0))
        l_new[q] = np.linalg.solve(mat, l0[q])
    return l_new


def moment_tables_reference(energies, max_degree, n_nodes=2 * DEFAULT_NODES):
    """(g (12, E, max_degree+1), xi1 (12, E)) of MomentTables, one element
    and one energy at a time.

    The screening offset and the amplitude come from numpy scalars through
    the kinematics functions, the nodes from leggauss, and each moment is
    one 1-D contraction (v @ legvander, np.dot) over the two substitution
    pieces joined along the nodes: s = ln(1 - mu0 + chi) on [0, 1] and
    t = sqrt(1 + mu0) on [-1, 0].
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    t = 0.5 * (x + 1.0)
    g = np.empty((len(ELEMENTS), len(energies), max_degree + 1))
    xi1 = np.empty((len(ELEMENTS), len(energies)))
    for i, elem in enumerate(ELEMENTS):
        for j, e in enumerate(np.asarray(energies, dtype=float)):
            p = momentum_mev_c(e)
            chi0 = 1.13 * FINE_STRUCTURE * elem.z ** (1.0 / 3.0) * ELECTRON_REST_MEV / p
            a = elem.z * FINE_STRUCTURE / beta(e)
            chi = chi0**2 * (1.13 + 3.76 * a**2)
            c = 4.0 * FINE_STRUCTURE**2 / wave_number_inv_cm(e) ** 2
            s_lo, s_hi = np.log(chi), np.log(1.0 + chi)
            s = 0.5 * (s_hi - s_lo) * x + 0.5 * (s_hi + s_lo)
            omm_fwd = chi * np.expm1(s - s_lo)
            mu0 = np.concatenate([1.0 - omm_fwd, -1.0 + t * t])
            omm = np.concatenate([omm_fwd, 2.0 - t * t])
            jac = np.concatenate([0.5 * (s_hi - s_lo) * np.exp(s) * w, 0.5 * 2.0 * t * w])
            vals = tau_lab(mu0, 1.0 / elem.a) * c / (omm + chi) * jac
            g[i, j] = 2.0 * np.pi * (vals @ np.polynomial.legendre.legvander(mu0, max_degree))
            xi1[i, j] = 2.0 * np.pi * np.dot(vals, omm)
    return g, xi1
