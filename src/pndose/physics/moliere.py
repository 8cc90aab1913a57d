"""Screened elastic scattering kernel and its Legendre moments.

The per-atom differential cross section is

    sigma(E, mu0) = tau_lab(mu0) * 4 alpha^2 / (k(E)^2 * (1 - mu0 + chi))

with the screening parameter chi = chi_0^2 (1.13 + 3.76 a^2),
chi_0 = 1.13 alpha Z^(1/3) m_e c / p(E), a = Z alpha / beta(E), and the
center-of-mass to lab conversion factor tau_lab built with the mass ratio
1/A. The denominator (1 - mu0 + chi) enters at the first power (q = 1),
in moliere_dcs and in the kernel that legendre_moments integrates.

Angular moments g_l = 2 pi Int P_l(mu0) sigma dmu0 are near-singular at
mu0 = 1 (chi ~ 1e-10), so they are integrated with Gauss-Legendre nodes
after the substitution s = ln(1 - mu0 + chi), which flattens the peak.
A doubled-node evaluation guards convergence. Everything here is
per-atom [cm^2]; multiply by atomic densities N_i for macroscopic [1/cm].
"""

from functools import lru_cache

import numpy as np

from ..constants import ELECTRON_REST_MEV, ELEMENTS, FINE_STRUCTURE
from ..errors import NumericalError
from .kinematics import beta, momentum_mev_c, wave_number_inv_cm

# Gauss-Legendre nodes per quadrature piece, and the relative tolerances of
# the doubled-node convergence check and of the xi1 = g0 - g1 identity.
DEFAULT_NODES = 256
MOMENT_RTOL = 1e-9
XI1_IDENTITY_RTOL = 1e-8


@lru_cache(maxsize=16)
def _gauss_nodes(n):
    # leggauss eigensolves a companion matrix; cache it per node count
    return np.polynomial.legendre.leggauss(n)


def screening_parameters(element, e_mev):
    """(chi_0, a, chi_alpha) of one element at kinetic energy e_mev."""
    p = momentum_mev_c(e_mev)
    chi0 = 1.13 * FINE_STRUCTURE * element.z ** (1.0 / 3.0) * ELECTRON_REST_MEV / p
    a = element.z * FINE_STRUCTURE / beta(e_mev)
    chi_alpha = chi0**2 * (1.13 + 3.76 * a**2)
    return chi0, a, chi_alpha


def tau_lab(mu0, mass_ratio):
    """Center-of-mass -> lab frame factor; mass_ratio = m_p/m_target."""
    mu0 = np.asarray(mu0, dtype=float)
    num = (1.0 + 2.0 * mu0 * mass_ratio + mass_ratio**2) ** 1.5
    den = 1.0 + mu0 * mass_ratio
    # den -> 0 only for hydrogen at mu0 = -1, where the limit is 0
    return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)


def kernel_amplitude(element, e_mev):
    """Prefactor C = 4 alpha^2 / k^2 [cm^2] of the per-atom kernel."""
    k = wave_number_inv_cm(e_mev)
    return 4.0 * FINE_STRUCTURE**2 / k**2


def moliere_dcs(element, e_mev, mu0, n_i=1.0):
    """Differential cross section contribution of one element.

    Per-atom for n_i = 1 [cm^2]; pass n_i in atoms/cm^3 for the
    macroscopic contribution [1/cm]. mu0 may be an array in [-1, 1].
    """
    mu0 = np.asarray(mu0, dtype=float)
    if np.any(mu0 < -1.0) or np.any(mu0 > 1.0):
        raise ValueError("mu0 outside [-1, 1]")
    _, _, chi = screening_parameters(element, e_mev)
    c = kernel_amplitude(element, e_mev)
    tau = tau_lab(mu0, 1.0 / element.a)
    return n_i * tau * c / (1.0 - mu0 + chi)


def _substitution_nodes(chi, n_nodes):
    """Quadrature nodes for Int_{-1}^{1} f(mu0) dmu0 of a peaked kernel.

    Two Gauss-Legendre pieces: mu0 in [0, 1] under s = ln(1 - mu0 + chi),
    which flattens the screening peak (1 - mu0 computed cancellation-free
    as chi * expm1(s - ln chi)), and mu0 in [-1, 0] under t = sqrt(1 + mu0),
    which absorbs the sqrt endpoint of the lab-frame factor for hydrogen.
    Returns (mu0, one_minus_mu0, jacobian_weights), each (2 n_nodes,) for
    a scalar chi and (E, 2 n_nodes) for an (E, 1) column of offsets.
    """
    x, w = _gauss_nodes(n_nodes)
    chi = np.asarray(chi, dtype=float)

    # the logarithms one offset at a time, as for a scalar chi
    s_lo = np.reshape([np.log(c) for c in chi.flat], chi.shape)
    s_hi = np.reshape([np.log(1.0 + c) for c in chi.flat], chi.shape)
    s = 0.5 * (s_hi - s_lo) * x + 0.5 * (s_hi + s_lo)
    jac_fwd = 0.5 * (s_hi - s_lo) * np.exp(s) * w
    omm_fwd = chi * np.expm1(s - s_lo)

    t = 0.5 * (x + 1.0)
    jac_bwd = 0.5 * 2.0 * t * w
    mu0_bwd = -1.0 + t * t

    def join(fwd, bwd):
        return np.concatenate([fwd, np.broadcast_to(bwd, fwd.shape)], axis=-1)

    return join(1.0 - omm_fwd, mu0_bwd), join(omm_fwd, 2.0 - t * t), join(jac_fwd, jac_bwd)


def moments_of_kernel(kernel, chi, max_degree, n_nodes=DEFAULT_NODES):
    """(g_0..g_max_degree, xi1) of a forward-peaked kernel.

    kernel(mu0, one_minus_mu0) must be vectorized; chi is the screening
    offset used for the de-peaking substitution. Moments carry the 2 pi
    azimuthal factor. An (E, 1) column of offsets, with a kernel that
    broadcasts over it, gives g (E, max_degree+1) and xi1 (E,); each row
    is contracted on its own, as for a scalar offset.
    """
    mu0, omm, jac = _substitution_nodes(chi, n_nodes)
    vals = kernel(mu0, omm) * jac
    p = np.polynomial.legendre.legvander(mu0, max_degree)   # (..., nodes, deg+1)
    nodes = mu0.shape[-1]
    vals, omm = vals.reshape(-1, nodes), omm.reshape(-1, nodes)
    p = p.reshape((-1,) + p.shape[-2:])
    # row by row, so that each row sums as for a scalar offset
    g = np.array([2.0 * np.pi * (v @ q) for v, q in zip(vals, p)])
    xi1 = np.array([2.0 * np.pi * np.dot(v, o) for v, o in zip(vals, omm)])
    if mu0.ndim == 1:
        return g[0], xi1[0]
    return g, xi1


def legendre_moments(element, e_mev, max_degree, n_nodes=DEFAULT_NODES):
    """Per-atom moments (g_0..g_max_degree) [cm^2] and xi1 [cm^2].

    Uses the de-peaked quadrature with a doubled-node convergence check;
    raises NumericalError with the achieved error if it fails. A 1-D
    array of energies gives g (E, max_degree+1) and xi1 (E,) whose rows
    equal the scalar calls bit for bit.
    """
    energies = np.atleast_1d(np.asarray(e_mev, dtype=float))
    # chi and the amplitude one energy at a time, as scalars: on an energy
    # array, chi_0 ** 2 rounds differently from the scalar power at some
    # energies, which moves every moment of that table row
    chi = np.array([screening_parameters(element, e)[2] for e in energies])[:, None]
    c = np.array([kernel_amplitude(element, e) for e in energies])[:, None]
    ratio = 1.0 / element.a

    def kernel(mu0, one_minus_mu0):
        return tau_lab(mu0, ratio) * c / (one_minus_mu0 + chi)

    g, xi1 = moments_of_kernel(kernel, chi, max_degree, n_nodes)
    g2, xi12 = moments_of_kernel(kernel, chi, max_degree, 2 * n_nodes)
    for e, row, row2, x, x2 in zip(energies, g, g2, xi1, xi12):
        scale = max(abs(row2[0]), abs(x2))
        err = max(np.max(np.abs(row - row2)), abs(x - x2)) / scale
        if err > MOMENT_RTOL:
            raise NumericalError(
                f"moment quadrature for {element.symbol} at {e:g} MeV did not "
                f"converge: achieved {err:.3e}, tolerance {MOMENT_RTOL:.3e}"
            )
    if np.ndim(e_mev) == 0:
        return g2[0], xi12[0]
    return g2, xi12


# Energies per legendre_moments call in MomentTables, sized so that the
# doubled-node Legendre Vandermonde of one call stays within this many bytes.
CHUNK_BYTES = 1 << 20


class MomentTables:
    """Per-element angular moments and xi1 on an energy grid.

    g has shape (12, n_E, max_degree+1) and xi1 (12, n_E), both per-atom
    [cm^2]; macroscopic values follow by weighting with atomic densities.
    Values between grid energies are interpolated linearly; the grid
    should span every energy asked for, since the end intervals
    extrapolate.
    """

    def __init__(self, energies, max_degree):
        self.energies = np.asarray(energies, dtype=float)
        self.g = np.empty((len(ELEMENTS), self.energies.size, max_degree + 1))
        self.xi1 = np.empty((len(ELEMENTS), self.energies.size))
        # 2 pieces of 2 DEFAULT_NODES nodes each at the doubled node count
        chunk = max(1, CHUNK_BYTES // (4 * DEFAULT_NODES * (max_degree + 1) * 8))
        for i, elem in enumerate(ELEMENTS):
            for lo in range(0, self.energies.size, chunk):
                part = slice(lo, lo + chunk)
                self.g[i, part], self.xi1[i, part] = legendre_moments(
                    elem, self.energies[part], max_degree
                )

    def _interp(self, table, e):
        """table (12, n_E, ...) at energies e: (12, *e.shape, ...)."""
        e = np.asarray(e, dtype=float)
        idx = np.clip(
            np.searchsorted(self.energies, e) - 1, 0, len(self.energies) - 2
        )
        w = (e - self.energies[idx]) / (self.energies[idx + 1] - self.energies[idx])
        w = w.reshape(w.shape + (1,) * (table.ndim - 2))
        return (1.0 - w) * table[:, idx] + w * table[:, idx + 1]

    def moments_at(self, e):
        """(12, *e.shape, max_degree+1) per-atom moments at energies e."""
        return self._interp(self.g, e)

    def xi1_at(self, e):
        """(12, *e.shape) per-atom xi1 at energies e."""
        return self._interp(self.xi1, e)

    def validate(self):
        """Invariants: g0 > 0, |g_l| <= g0, xi1 = g0 - g1."""
        g0 = self.g[..., 0]
        if np.any(g0 <= 0.0):
            raise NumericalError("non-positive g0 in moment table")
        if np.any(np.abs(self.g) > g0[..., None] * (1.0 + 1e-12)):
            raise NumericalError("moment bound |g_l| <= g0 violated")
        ident = np.abs(self.xi1 - (g0 - self.g[..., 1])) / np.abs(g0)
        if np.any(ident > XI1_IDENTITY_RTOL):
            raise NumericalError(
                f"xi1 = g0 - g1 identity violated: worst {ident.max():.3e}"
            )
