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
from pndose.physics import default_stopping_library, hu_to_material


def water_csda_ranges(e_max_mev, e_min_mev=1.0, n_points=200_001):
    """(energies, R) with R(E) = int_{e_min}^{E} dE'/S(E') in cm.

    S is the stopping power of water (0 HU) from the shipped tables,
    summed over the 12 elements; R(e_max) is the CSDA range down to e_min.
    """
    density, weights = hu_to_material(0.0)
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
