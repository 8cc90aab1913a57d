"""Real spherical harmonics basis and the PN operator matrices.

The basis is the real combination of complex spherical harmonics (with
Condon-Shortley phase in the associated Legendre functions), flattened
with p = l^2 + l + k (0-based) for degree l and order k.

Flux matrices A_d = Int m m^T Omega_d dOmega are assembled in closed form
from the complex-basis ladder identities and rotated to the real basis
with the (sparse, unitary) real-to-complex transform; tests validate them
against direct sphere quadrature. Scattering matrices are diagonal:
Boltzmann entries are Legendre moments of the kernel, Fokker-Planck
entries are the Laplace-Beltrami eigenvalues -(xi1/2) l(l+1).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import lpmv

from .errors import ConfigError, NumericalError


def _norm_factor(ell: int, k: int) -> float:
    """sqrt((2l+1)/(4 pi) * (l-k)!/(l+k)!)."""
    log_ratio = math.lgamma(ell - k + 1) - math.lgamma(ell + k + 1)
    return math.sqrt((2 * ell + 1) / (4.0 * math.pi)) * math.exp(0.5 * log_ratio)


@dataclass(frozen=True)
class PNBasis:
    """Index bookkeeping for all degrees 0..N: size m = (N+1)^2."""

    n_max: int

    @property
    def size(self) -> int:
        return (self.n_max + 1) ** 2

    @property
    def degrees(self) -> np.ndarray:
        """Degree l of every flat index, shape (m,)."""
        return np.repeat(np.arange(self.n_max + 1), 2 * np.arange(self.n_max + 1) + 1)

    @property
    def orders(self) -> np.ndarray:
        """Order k of every flat index, shape (m,)."""
        return np.concatenate(
            [np.arange(-ell, ell + 1) for ell in range(self.n_max + 1)]
        )

    def index(self, ell: int, k: int) -> int:
        if not (0 <= ell <= self.n_max and -ell <= k <= ell):
            raise IndexError(f"(l={ell}, k={k}) outside basis of degree {self.n_max}")
        return ell * ell + ell + k


def real_sph_eval(n_max: int, omega) -> np.ndarray:
    """Evaluate the real basis vector m(Omega), shape ((N+1)^2,).

    omega must be a unit vector (checked to 1e-12).
    """
    omega = np.asarray(omega, dtype=float)
    norm = float(np.linalg.norm(omega))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, got |omega| = {norm!r}")
    mu = omega[2]
    phi = math.atan2(omega[1], omega[0])

    out = np.empty((n_max + 1) ** 2)
    for ell in range(n_max + 1):
        base = ell * ell + ell
        out[base] = _norm_factor(ell, 0) * lpmv(0, ell, mu)
        for k in range(1, ell + 1):
            # lpmv carries the Condon-Shortley phase; the printed real
            # combination contributes another (-1)^k
            val = (-1.0) ** k * math.sqrt(2.0) * _norm_factor(ell, k) * lpmv(k, ell, mu)
            out[base + k] = val * math.cos(k * phi)
            out[base - k] = val * math.sin(k * phi)
    return out


def _real_to_complex_transform(n_max: int) -> np.ndarray:
    """Unitary U with m = U Y (rows: real index, cols: complex index)."""
    basis = PNBasis(n_max)
    m = basis.size
    u = np.zeros((m, m), dtype=complex)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for ell in range(n_max + 1):
        base = ell * ell + ell
        u[base, base] = 1.0
        for k in range(1, ell + 1):
            sign = (-1.0) ** k
            u[base + k, base + k] = sign * inv_sqrt2
            u[base + k, base - k] = inv_sqrt2
            u[base - k, base + k] = -sign * 1j * inv_sqrt2
            u[base - k, base - k] = 1j * inv_sqrt2
    return u


def flux_matrices(n_max: int):
    """Closed-form (A_x, A_y, A_z); symmetric, coupling only l <-> l+-1."""
    basis = PNBasis(n_max)
    m = basis.size

    def a_z(ell, k):  # mu Y_l^k -> Y_{l+1}^k coefficient
        return math.sqrt(
            (ell - k + 1) * (ell + k + 1) / ((2 * ell + 1) * (2 * ell + 3))
        )

    def c_raise(ell, k):  # Omega_+ Y_l^k -> -c Y_{l+1}^{k+1}
        return math.sqrt(
            (ell + k + 1) * (ell + k + 2) / ((2 * ell + 1) * (2 * ell + 3))
        )

    def d_raise(ell, k):  # Omega_+ Y_l^k -> +d Y_{l-1}^{k+1}
        return math.sqrt((ell - k) * (ell - k - 1) / ((2 * ell - 1) * (2 * ell + 1)))

    az_c = np.zeros((m, m), dtype=complex)
    ap_c = np.zeros((m, m), dtype=complex)  # Int Y_p Omega_+ conj(Y_q)
    am_c = np.zeros((m, m), dtype=complex)  # Int Y_p Omega_- conj(Y_q)

    for ell in range(n_max + 1):
        for k in range(-ell, ell + 1):
            q = ell * ell + ell + k
            # Omega_z conj(Y_q) = a(l,k) conj(Y_{l+1}^k) + a(l-1,k) conj(Y_{l-1}^k)
            if ell + 1 <= n_max:
                az_c[(ell + 1) ** 2 + (ell + 1) + k, q] = a_z(ell, k)
            if ell - 1 >= abs(k):
                az_c[(ell - 1) ** 2 + (ell - 1) + k, q] = a_z(ell - 1, k)
            # Omega_+ conj(Y_q) = conj(Omega_- Y_q)
            #   = e(l,k) conj(Y_{l+1}^{k-1}) - f(l,k) conj(Y_{l-1}^{k-1})
            # with e(l,k) = c_raise(l,-k) and f(l,k) = d_raise(l,-k)
            if ell + 1 <= n_max and abs(k - 1) <= ell + 1:
                ap_c[(ell + 1) ** 2 + (ell + 1) + (k - 1), q] = c_raise(ell, -k)
            if ell - 1 >= 0 and abs(k - 1) <= ell - 1:
                ap_c[(ell - 1) ** 2 + (ell - 1) + (k - 1), q] = -d_raise(ell, -k)
            # Omega_- conj(Y_q) = conj(Omega_+ Y_q)
            #   = -c(l,k) conj(Y_{l+1}^{k+1}) + d(l,k) conj(Y_{l-1}^{k+1})
            if ell + 1 <= n_max and abs(k + 1) <= ell + 1:
                am_c[(ell + 1) ** 2 + (ell + 1) + (k + 1), q] = -c_raise(ell, k)
            if ell - 1 >= 0 and abs(k + 1) <= ell - 1:
                am_c[(ell - 1) ** 2 + (ell - 1) + (k + 1), q] = d_raise(ell, k)

    ax_c = 0.5 * (ap_c + am_c)
    ay_c = (ap_c - am_c) / 2j

    u = _real_to_complex_transform(n_max)
    uh = u.conj().T
    out = []
    for mat_c in (ax_c, ay_c, az_c):
        mat = u @ mat_c @ uh
        if np.max(np.abs(mat.imag)) > 1e-13:
            raise NumericalError("flux matrix has a non-real component")
        real = mat.real
        real = 0.5 * (real + real.T)  # symmetrize away rounding dust
        out.append(real)
    return tuple(out)


def eigen_split(a: np.ndarray):
    """(V, lam_plus, lam_minus) with A = V diag(lam+ + lam-) V^T."""
    lam, v = np.linalg.eigh(a)
    return v, np.maximum(lam, 0.0), np.minimum(lam, 0.0)


# Eigenvalues with |lambda| <= this times the spectral radius are rounding
# dust of the N+1 zero eigenvalues; the characteristic split drops them.
EIGENVALUE_DUST = 1e-12


def characteristic_split(v, lam_plus, lam_minus):
    """(V+, V-, B) with A = V+ L+ V+^T + V- L- V-^T and B = -[L+ V+^T; L- V-^T].

    V+ and V- are contiguous copies of the eigenvector columns whose
    eigenvalue is positive or negative beyond rounding dust; B (k+ + k-, m)
    rotates the characteristic fluxes back to moments with the minus sign
    of F_S folded in.
    """
    lam = lam_plus + lam_minus
    dust = EIGENVALUE_DUST * np.abs(lam).max()
    pos, neg = lam > dust, lam < -dust
    v_plus, v_minus = np.ascontiguousarray(v[:, pos]), np.ascontiguousarray(v[:, neg])
    back = -np.vstack([lam[pos, None] * v_plus.T, lam[neg, None] * v_minus.T])
    return v_plus, v_minus, back


@dataclass(frozen=True)
class PNOperators:
    """Immutable bundle of the angular operators for one PN order."""

    basis: PNBasis
    a_x: np.ndarray
    a_y: np.ndarray
    a_z: np.ndarray
    eig_v: tuple          # (V_x, V_y, V_z)
    lam_plus: tuple       # per direction, (m,)
    lam_minus: tuple
    v_plus: tuple         # per direction, (m, k+), see characteristic_split
    v_minus: tuple        # per direction, (m, k-)
    back_rotation: tuple  # per direction, (k+ + k-, m)
    a_plus: tuple         # per direction, A+ = V L+ V^T (m, m)
    a_minus: tuple        # per direction, A- = V L- V^T (m, m)

    @classmethod
    def build(cls, n_max: int) -> "PNOperators":
        ax, ay, az = flux_matrices(n_max)
        splits = [eigen_split(a) for a in (ax, ay, az)]
        chars = [characteristic_split(*s) for s in splits]
        return cls(
            basis=PNBasis(n_max),
            a_x=ax,
            a_y=ay,
            a_z=az,
            eig_v=tuple(s[0] for s in splits),
            lam_plus=tuple(s[1] for s in splits),
            lam_minus=tuple(s[2] for s in splits),
            v_plus=tuple(c[0] for c in chars),
            v_minus=tuple(c[1] for c in chars),
            back_rotation=tuple(c[2] for c in chars),
            a_plus=tuple((v * lp[None, :]) @ v.T for v, lp, _ in splits),
            a_minus=tuple((v * lm[None, :]) @ v.T for v, _, lm in splits),
        )

    @property
    def matrices(self):
        return (self.a_x, self.a_y, self.a_z)

    @property
    def spectral_radius(self) -> float:
        return max(
            max(lp.max(initial=0.0), -lm.min(initial=0.0))
            for lp, lm in zip(self.lam_plus, self.lam_minus)
        )


def scattering_matrix_boltzmann(moments, n_max: int):
    """Diagonal Boltzmann scattering matrix from kernel moments.

    moments (..., >= N+2) must reach degree N+1 (needed by the transport
    correction); returns (g_diag, sigma_t) with g_diag (..., m) repeating
    each degree's moment over its 2l+1 orders, and sigma_t = g_0 (...).
    """
    moments = np.asarray(moments, dtype=float)
    if moments.shape[-1] < n_max + 2:
        raise ValueError(
            f"need moments up to degree {n_max + 1}, got {moments.shape[-1] - 1}"
        )
    degrees = PNBasis(n_max).degrees
    # a contiguous sigma_t, so that dot products with it sum as for a vector
    return moments[..., degrees], np.ascontiguousarray(moments[..., 0])


def scattering_matrix_fp(xi1, n_max: int) -> np.ndarray:
    """Diagonal Fokker-Planck matrix: -(xi1/2) l(l+1) per degree.

    xi1 (...) gives (..., m)."""
    xi1 = np.asarray(xi1, dtype=float)
    if np.any(xi1 < 0.0):
        raise ValueError("xi1 must be nonnegative")
    degrees = PNBasis(n_max).degrees
    return -(xi1[..., None] / 2.0) * degrees * (degrees + 1.0)


def transport_correction_boltzmann(g_diag, sigma_t, g_next):
    """Extended transport correction: shift all moments and sigma_t by
    the degree-(N+1) moment so the truncated expansion matches moments
    0..N+1. The net in-minus-out operator is unchanged; only the bare
    quantities (and the uncollided source coupling) shrink.

    g_diag (..., m); sigma_t and g_next (...)."""
    g_next = np.asarray(g_next, dtype=float)
    return g_diag - g_next[..., None], sigma_t - g_next


def transport_correction_fp(g_diag, sigma_t, xi1, n_max: int, scale: float):
    """Fokker-Planck analog: remove the scaled degree-(N+1) eigenvalue.

    scale in [0, 1] interpolates between no correction and the full
    delta-corrected expansion (whose degree-(N+1) entry vanishes). The
    sigma_t shift keeps the net operator identical, so the knob trades
    source-coupling smoothing against none. g_diag (..., m); sigma_t and
    xi1 (...).
    """
    shift = fp_correction_shift(xi1, n_max, scale)
    return g_diag - shift[..., None], sigma_t - shift


def fp_correction_shift(xi1, n_max: int, scale: float):
    """scale times the degree-(N+1) Fokker-Planck eigenvalue: the amount
    transport_correction_fp removes from every entry and from sigma_t."""
    if not 0.0 <= scale <= 1.0:
        raise ValueError("correction scale must lie in [0, 1]")
    lam_next = -(np.asarray(xi1, dtype=float) / 2.0) * (n_max + 1.0) * (n_max + 2.0)
    return scale * lam_next


def beam_projection(n_max: int, omega_in) -> np.ndarray:
    """Nodal-to-modal vector T_M = m(Omega_in) for a monodirectional beam."""
    return real_sph_eval(n_max, omega_in)
