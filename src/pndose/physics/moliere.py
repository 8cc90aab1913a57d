"""Screened elastic scattering kernel and its Legendre moment tables.

The per-atom differential cross section is

    sigma(E, mu0) = tau_lab(mu0) * 4 alpha^2 / (k(E)^2 * (1 - mu0 + chi))

with the screening parameter chi = chi_0^2 (1.13 + 3.76 a^2),
chi_0 = 1.13 alpha Z^(1/3) m_e c / p(E), a = Z alpha / beta(E), and the
center-of-mass to lab conversion factor tau_lab built with the mass ratio
1/A. The denominator (1 - mu0 + chi) enters at the first power (q = 1),
in moliere_dcs and in the kernel that legendre_moments integrates.

Angular moments g_l = 2 pi Int P_l(mu0) sigma dmu0 are near-singular at
mu0 = 1 (chi ~ 1e-10), so they are integrated with Gauss-Legendre nodes
in two pieces: mu0 in [0, 1] after the substitution s = ln(1 - mu0 + chi),
which flattens the peak, and mu0 in [-1, 0] after t = sqrt(1 + mu0). A
doubled-node evaluation guards convergence. Everything here is per-atom
[cm^2]; multiply by atomic densities N_i for macroscopic [1/cm].

MomentTables tabulates only the elements it is asked for (the run asks
for those with a nonzero weight in some cell of the phantom) and leaves
the other rows exactly zero, so that weighting the table with any cell's
mass fractions adds exact zeros for them. It builds every tabulated
entry from the same floating-point operations as one scalar
legendre_moments call per (element, energy), bit for bit, but does each
piece of work once:
- the two Gauss-Legendre rules the tables use (DEFAULT_NODES and twice
  that) ship as data files, written by tools/generate_gauss_rules.py from
  leggauss, so no process eigensolves them;
- the backward piece's nodes, weights and Legendre values depend on
  neither the energy nor the element, and are cached per node count and
  degree;
- screening offsets and amplitudes are Python floats, and the row
  contractions of a chunk of energies are one batched matmul, which calls
  the BLAS routine of each row's own contraction.
"""

import csv
import math
from functools import lru_cache

import numpy as np

from ..constants import (
    ELECTRON_REST_MEV,
    ELEMENT_INDEX,
    ELEMENT_SYMBOLS,
    ELEMENTS,
    FINE_STRUCTURE,
    HBARC_MEV_CM,
    PROTON_REST_MEV,
)
from ..errors import NumericalError, PhysicsDataError
from .materials import data_path

# Gauss-Legendre nodes per quadrature piece, and the relative tolerances of
# the doubled-node convergence check and of the xi1 = g0 - g1 identity.
DEFAULT_NODES = 256
MOMENT_RTOL = 1e-9
XI1_IDENTITY_RTOL = 1e-8

# Node counts whose Gauss-Legendre rule ships as a data file: the two that
# legendre_moments uses at DEFAULT_NODES.
SHIPPED_RULES = (DEFAULT_NODES, 2 * DEFAULT_NODES)


def gauss_rule_file(n):
    """File name of the shipped n-node Gauss-Legendre rule."""
    return f"gauss_legendre_{n}.csv"


def read_gauss_rule(n):
    """(nodes, weights) of the shipped n-node Gauss-Legendre rule, from its
    data file (columns x, w; repr floats, which read back exactly)."""
    path = data_path(gauss_rule_file(n))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["x", "w"]:
        raise PhysicsDataError(f"{path}: unexpected header {rows[0]}")
    if len(rows) - 1 != n:
        raise PhysicsDataError(f"{path}: {len(rows) - 1} nodes, expected {n}")
    rule = np.array([[float(x), float(w)] for x, w in rows[1:]])
    return rule[:, 0].copy(), rule[:, 1].copy()


@lru_cache(maxsize=16)
def _gauss_nodes(n):
    """Read-only Gauss-Legendre (nodes, weights) of n points on [-1, 1].

    The rules of SHIPPED_RULES are read from their data files; any other
    node count eigensolves a companion matrix in leggauss.
    """
    if n in SHIPPED_RULES:
        x, w = read_gauss_rule(n)
    else:
        x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre_values(x, out):
    """out[l] = P_l(x) for l < len(out), in place.

    The forward recurrence of numpy's legvander, operation for operation,
    so the values equal legvander's bit for bit.
    """
    out[0] = 1.0
    if len(out) > 1:
        out[1] = x
    for i in range(2, len(out)):
        out[i] = (out[i - 1] * x * (2 * i - 1) - out[i - 2] * (i - 1)) / i
    return out


@lru_cache(maxsize=16)
def _backward_piece(n_nodes, max_degree):
    """The mu0 in [-1, 0] piece under t = sqrt(1 + mu0), read-only.

    (mu0, 1 - mu0, jacobian_weights), each a (1, n_nodes) row, and the
    Legendre values (max_degree+1, 1, n_nodes); none depends on the energy
    or the element. t absorbs the sqrt endpoint of the lab-frame factor
    for hydrogen.
    """
    x, w = _gauss_nodes(n_nodes)
    t = 0.5 * (x + 1.0)
    rows = (-1.0 + t * t, 2.0 - t * t, 0.5 * 2.0 * t * w)
    mu0, omm, jac = (r[None, :] for r in rows)
    legendre = _legendre_values(mu0, np.empty((max_degree + 1, 1, n_nodes)))
    for a in (mu0, omm, jac, legendre):
        a.flags.writeable = False
    return mu0, omm, jac, legendre


def screening_parameters(element, e_mev):
    """(chi_0, a, chi_alpha) of one element at one kinetic energy e_mev.

    Python floats: the IEEE operations of kinematics.momentum_mev_c and
    beta, without numpy's cost per scalar call.
    """
    e = float(e_mev)
    p = math.sqrt(e * (e + 2.0 * PROTON_REST_MEV))
    chi0 = 1.13 * FINE_STRUCTURE * element.z ** (1.0 / 3.0) * ELECTRON_REST_MEV / p
    a = element.z * FINE_STRUCTURE / (p / (e + PROTON_REST_MEV))
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
    """Prefactor C = 4 alpha^2 / k^2 [cm^2] of the per-atom kernel at one
    kinetic energy e_mev, a Python float (k as kinematics.wave_number_inv_cm
    computes it)."""
    e = float(e_mev)
    k = math.sqrt(e * (e + 2.0 * PROTON_REST_MEV)) / HBARC_MEV_CM
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


def moments_of_kernel(kernel, chi, max_degree, n_nodes=DEFAULT_NODES):
    """(g_0..g_max_degree, xi1) of a forward-peaked kernel.

    kernel(mu0, one_minus_mu0) must be vectorized; chi is the screening
    offset used for the de-peaking substitution. Moments carry the 2 pi
    azimuthal factor. An (E, 1) column of offsets, with a kernel that
    broadcasts over it, gives g (E, max_degree+1) and xi1 (E,); each row
    is contracted on its own, as for a scalar offset.

    The forward piece (mu0 in [0, 1] under s = ln(1 - mu0 + chi), with
    1 - mu0 computed cancellation-free as chi * expm1(s - ln chi)) is
    evaluated per offset; the kernel sees the cached backward piece as one
    (1, n_nodes) row. Both pieces are joined along the nodes, so each row
    sums over its 2 n_nodes nodes in one order.
    """
    x, w = _gauss_nodes(n_nodes)
    mu0_bwd, omm_bwd, jac_bwd, legendre_bwd = _backward_piece(n_nodes, max_degree)
    col = np.reshape(np.asarray(chi, dtype=float), (-1, 1))
    n_rows, n = col.shape[0], n_nodes

    # the logarithms one offset at a time with numpy's scalar log, as for a
    # scalar chi (math.log differs from it in the last bit at some offsets)
    s_lo = np.array([[np.log(c)] for c in col[:, 0]])
    s_hi = np.array([[np.log(1.0 + c)] for c in col[:, 0]])
    half = 0.5 * (s_hi - s_lo)
    s = half * x + 0.5 * (s_hi + s_lo)
    omm_fwd = col * np.expm1(s - s_lo)
    mu0_fwd = 1.0 - omm_fwd

    vals = np.empty((n_rows, 2 * n))
    np.multiply(kernel(mu0_fwd, omm_fwd), half * np.exp(s) * w, out=vals[:, :n])
    np.multiply(kernel(mu0_bwd, omm_bwd), jac_bwd, out=vals[:, n:])
    omm = np.empty((n_rows, 2 * n))
    omm[:, :n], omm[:, n:] = omm_fwd, omm_bwd
    # legvander's layout, degree first, read through a moveaxis view: each
    # row's gemv then sees a column-major (nodes, degree+1) matrix, as with
    # legvander; a C-ordered (E, nodes, degree+1) array sums in another order
    legendre = np.empty((max_degree + 1, n_rows, 2 * n))
    legendre[:, :, n:] = legendre_bwd
    _legendre_values(mu0_fwd, legendre[:, :, :n])

    g = 2.0 * np.pi * np.matmul(vals[:, None, :], np.moveaxis(legendre, 0, -1))[:, 0]
    xi1 = 2.0 * np.pi * np.matmul(vals[:, None, :], omm[:, :, None])[:, 0, 0]
    if np.ndim(chi) == 0:
        return g[0], xi1[0]
    return g, xi1


def legendre_moments(element, e_mev, max_degree):
    """Per-atom moments (g_0..g_max_degree) [cm^2] and xi1 [cm^2].

    The moments at 2 DEFAULT_NODES nodes per piece, checked against those
    at DEFAULT_NODES: NumericalError names the first energy whose relative
    difference exceeds MOMENT_RTOL, with the achieved error. A 1-D array
    of energies gives g (E, max_degree+1) and xi1 (E,); the screening
    offset and amplitude are formed per energy as Python floats, and every
    row equals the scalar call's bit for bit.
    """
    energies = np.atleast_1d(np.asarray(e_mev, dtype=float))
    chi = np.array([[screening_parameters(element, e)[2]] for e in energies])
    c = np.array([[kernel_amplitude(element, e)] for e in energies])
    ratio = 1.0 / element.a

    def kernel(mu0, one_minus_mu0):
        return tau_lab(mu0, ratio) * c / (one_minus_mu0 + chi)

    g, xi1 = moments_of_kernel(kernel, chi, max_degree, DEFAULT_NODES)
    g2, xi12 = moments_of_kernel(kernel, chi, max_degree, 2 * DEFAULT_NODES)
    scale = np.maximum(np.abs(g2[:, 0]), np.abs(xi12))
    err = np.maximum(np.max(np.abs(g - g2), axis=1), np.abs(xi1 - xi12)) / scale
    failed = np.flatnonzero(err > MOMENT_RTOL)
    if failed.size:
        first = failed[0]
        raise NumericalError(
            f"moment quadrature for {element.symbol} at {energies[first]:g} MeV did not "
            f"converge: achieved {err[first]:.3e}, tolerance {MOMENT_RTOL:.3e}"
        )
    if np.ndim(e_mev) == 0:
        return g2[0], xi12[0]
    return g2, xi12


# Energies per legendre_moments call in MomentTables, sized so that the
# doubled-node Legendre values of one call, (max_degree+1, E, 4 DEFAULT_NODES)
# floats, stay within this many bytes.
CHUNK_BYTES = 1 << 20


class MomentTables:
    """Per-element angular moments and xi1 on an energy grid.

    g has shape (12, n_E, max_degree+1) and xi1 (12, n_E), both per-atom
    [cm^2]; macroscopic values follow by weighting with atomic densities.
    Values between grid energies are interpolated linearly; the grid
    should span every energy asked for, since the end intervals
    extrapolate.

    The elements argument names the symbols to tabulate, all 12 by
    default; the elements attribute holds them in canonical order, and
    validate() checks only their rows. The rows of the other elements are
    exactly 0.0, not NaN: a phantom without an element weights its row
    by zero in every cell, and 0.0 times that weight adds an exact zero
    to each (n, 12) x (12, ...) contraction, where NaN would poison it.
    """

    def __init__(self, energies, max_degree, elements=None):
        self.energies = np.asarray(energies, dtype=float)
        wanted = set(ELEMENT_SYMBOLS if elements is None else elements)
        unknown = wanted.difference(ELEMENT_SYMBOLS)
        if unknown:
            raise PhysicsDataError(f"no base element named {', '.join(sorted(unknown))}")
        self.elements = tuple(s for s in ELEMENT_SYMBOLS if s in wanted)
        self.g = np.zeros((len(ELEMENTS), self.energies.size, max_degree + 1))
        self.xi1 = np.zeros((len(ELEMENTS), self.energies.size))
        # 2 pieces of 2 DEFAULT_NODES nodes each at the doubled node count
        chunk = max(1, CHUNK_BYTES // (4 * DEFAULT_NODES * (max_degree + 1) * 8))
        for i in self._rows():
            for lo in range(0, self.energies.size, chunk):
                part = slice(lo, lo + chunk)
                self.g[i, part], self.xi1[i, part] = legendre_moments(
                    ELEMENTS[i], self.energies[part], max_degree
                )

    def _rows(self):
        """Indices of the tabulated rows."""
        return [ELEMENT_INDEX[s] for s in self.elements]

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
        """Invariants of the tabulated rows: g0 > 0, |g_l| <= g0,
        xi1 = g0 - g1."""
        g, xi1 = self.g[self._rows()], self.xi1[self._rows()]
        g0 = g[..., 0]
        if np.any(g0 <= 0.0):
            raise NumericalError("non-positive g0 in moment table")
        if np.any(np.abs(g) > g0[..., None] * (1.0 + 1e-12)):
            raise NumericalError("moment bound |g_l| <= g0 violated")
        ident = np.abs(xi1 - (g0 - g[..., 1])) / np.abs(g0)
        if np.any(ident > XI1_IDENTITY_RTOL):
            raise NumericalError(
                f"xi1 = g0 - g1 identity violated: worst {ident.max():.3e}"
            )
