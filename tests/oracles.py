"""Independent oracle computations shared by the test modules.

Everything here deliberately avoids the library's closed-form assembly
paths: sphere integrals use product quadrature over basis evaluations,
the Laplace-Beltrami matrix uses the integration-by-parts form with
the associated-Legendre derivative recurrence, and CSDA ranges integrate
the shipped stopping tables by cumulative trapezoid.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.special import lpmv

from pndose.angular import real_sph_eval
from pndose.physics import default_schneider_table, default_stopping_library


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
