"""Real spherical harmonics basis and the PN operator matrices.

The basis is the real combination of complex spherical harmonics (with
Condon-Shortley phase in the associated Legendre functions), flattened
with p = l^2 + l + k (0-based) for degree l and order k. The associated
Legendre functions P_l^k(mu) come from the three-term recurrence in l
(see _legendre_table), which is exact at mu = +-1, the direction of an
axis-aligned beam; scipy.special is used only by the tests, as the
independent reference for it.

Flux matrices A_d = Int m m^T Omega_d dOmega are assembled in closed form
from the complex-basis ladder identities and rotated to the real basis
with the (sparse, unitary) real-to-complex transform; tests validate them
against direct sphere quadrature. Scattering matrices are diagonal:
Boltzmann entries are Legendre moments of the kernel, Fokker-Planck
entries are the Laplace-Beltrami eigenvalues -(xi1/2) l(l+1).

boltzmann_tables and fokker_planck_tables form those entries and sigma_t
for one model each, and are the only place the transport correction is
applied: both subtract one shift, the model's degree-(N+1) entry, from
every entry g_l and from sigma_t. The collided flux sees only the net
operator sigma_t - g_l, in which the shift cancels, so the correction
changes the bare quantities alone: the attenuation sigma_t of the
ray-traced uncollided flux and the g_l that couple it into the collided
source.
"""

import math
from dataclasses import dataclass

import numpy as np

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


def _legendre_table(n_max: int, mu: float) -> np.ndarray:
    """P[l, k] = P_l^k(mu) for 0 <= k <= l <= N, with the Condon-Shortley phase.

    One upward sweep in l per order k, started from the running product
    P_k^k = (-1)^k (2k-1)!! ((1-mu)(1+mu))^(k/2) and
    P_{k+1}^k = mu (2k+1) P_k^k, then
    (l-k) P_l^k = (2l-1) mu P_{l-1}^k - (l+k-1) P_{l-2}^k.
    At mu = +-1 every step is exact: P_l^0 = (+-1)^l and P_l^k = 0 for k > 0.
    Entries above the diagonal (k > l) are zero.
    """
    p = np.zeros((n_max + 1, n_max + 1))
    sine = math.sqrt((1.0 - mu) * (1.0 + mu))
    diagonal = 1.0
    for k in range(n_max + 1):
        if k:
            diagonal *= -(2 * k - 1) * sine
        p[k, k] = diagonal
        if k < n_max:
            p[k + 1, k] = mu * (2 * k + 1) * diagonal
        for ell in range(k + 2, n_max + 1):
            p[ell, k] = ((2 * ell - 1) * mu * p[ell - 1, k]
                         - (ell + k - 1) * p[ell - 2, k]) / (ell - k)
    return p


def real_sph_eval(n_max: int, omega) -> np.ndarray:
    """Evaluate the real basis vector m(Omega), shape ((N+1)^2,).

    omega must be a unit vector (checked to 1e-12). The Legendre factors
    come from _legendre_table at mu = omega_z, so along +-z the vector is
    exact: sqrt((2l+1)/(4 pi)) (+-1)^l at order 0 and zero elsewhere.
    """
    omega = np.asarray(omega, dtype=float)
    norm = float(np.linalg.norm(omega))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"direction must be a unit vector, got |omega| = {norm!r}")
    mu = omega[2]
    phi = math.atan2(omega[1], omega[0])
    legendre = _legendre_table(n_max, mu)

    out = np.empty((n_max + 1) ** 2)
    for ell in range(n_max + 1):
        base = ell * ell + ell
        out[base] = _norm_factor(ell, 0) * legendre[ell, 0]
        for k in range(1, ell + 1):
            # the table carries the Condon-Shortley phase; the printed real
            # combination contributes another (-1)^k
            val = (-1.0) ** k * math.sqrt(2.0) * _norm_factor(ell, k) * legendre[ell, k]
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
    """(R, B) with A = -R B, R = [V+ V-] (m, 2k) and B = -[L+ V+^T; L- V-^T] (2k, m).

    V+ and V- hold the eigenvector columns whose eigenvalue is positive or
    negative beyond rounding dust, side by side; R and B are C-contiguous.
    B rotates the characteristic fluxes back to moments with the minus
    sign of F_S folded in. The two sets are equally large (k each),
    because the parity P = diag((-1)^l) gives P A P = -A, which maps the
    eigenvectors of each sign onto those of the other; a split that
    breaks this raises NumericalError.
    """
    lam = lam_plus + lam_minus
    dust = EIGENVALUE_DUST * np.abs(lam).max()
    pos, neg = lam > dust, lam < -dust
    if pos.sum() != neg.sum():
        raise NumericalError(
            f"{pos.sum()} positive against {neg.sum()} negative characteristic speeds"
        )
    forward = np.ascontiguousarray(np.hstack([v[:, pos], v[:, neg]]))
    back = -(np.concatenate([lam[pos], lam[neg]])[:, None] * forward.T)
    return forward, np.ascontiguousarray(back)


@dataclass(frozen=True)
class PNOperators:
    """Immutable bundle of the angular operators for one PN order.

    The eigen-split arrays stack the directions x, y, z on their first
    axis and, where split, the plus and minus parts on the second, so the
    low-rank solver selects the active axes' terms in the order of the
    upwind stencil stack (plus_x, minus_x, plus_y, ...) by one index.
    """

    basis: PNBasis
    eig_v: np.ndarray      # (3, m, m): V_x, V_y, V_z
    lam_split: np.ndarray  # (3, 2, m): L+ and L- per direction
    forward_rotation: tuple  # per direction, [V+ V-] (m, 2k), see characteristic_split
    back_rotation: tuple     # per direction, (2k, m)
    a_split: np.ndarray    # (3, 2, m, m): A+ = V L+ V^T and A- = V L- V^T per direction

    @classmethod
    def build(cls, n_max: int) -> "PNOperators":
        splits = [eigen_split(a) for a in flux_matrices(n_max)]
        chars = [characteristic_split(*s) for s in splits]
        return cls(
            basis=PNBasis(n_max),
            eig_v=np.stack([s[0] for s in splits]),
            lam_split=np.stack([s[1:] for s in splits]),
            forward_rotation=tuple(c[0] for c in chars),
            back_rotation=tuple(c[1] for c in chars),
            a_split=np.stack([[(v * lam[None, :]) @ v.T for lam in (lp, lm)]
                              for v, lp, lm in splits]),
        )

    @property
    def lam_plus(self) -> np.ndarray:
        """(3, m) positive eigenvalue parts, per direction."""
        return self.lam_split[:, 0]

    @property
    def lam_minus(self) -> np.ndarray:
        """(3, m) negative eigenvalue parts, per direction."""
        return self.lam_split[:, 1]

    @property
    def spectral_radius(self) -> float:
        return max(
            max(lp.max(initial=0.0), -lm.min(initial=0.0))
            for lp, lm in zip(self.lam_plus, self.lam_minus)
        )


def boltzmann_tables(moments, n_max: int, corrected: bool, degrees=None):
    """Boltzmann entries (g (..., k), sigma_t (...)) at the given degrees.

    moments (..., >= N+2) are the kernel's Legendre moments g_0..g_{N+1};
    degrees (k,) names the degree of each returned entry: 0..N by default,
    PNBasis(N).degrees for the diagonal of the scattering matrix, which
    repeats g_l over the 2l+1 orders of degree l. sigma_t = g_0. With
    `corrected`, the extended transport correction shifts every entry and
    sigma_t by g_{N+1}, so that the truncated expansion matches the
    moments up to degree N+1.
    """
    moments = np.asarray(moments, dtype=float)
    if moments.shape[-1] < n_max + 2:
        raise ValueError(
            f"need moments up to degree {n_max + 1}, got {moments.shape[-1] - 1}"
        )
    if degrees is None:
        degrees = np.arange(n_max + 1)
    shift = moments[..., n_max + 1] if corrected else np.zeros(moments.shape[:-1])
    return moments[..., degrees] - shift[..., None], moments[..., 0] - shift


def fokker_planck_tables(xi1, n_max: int, scale: float, degrees=None):
    """Fokker-Planck entries (g (..., k), sigma_t (...)) at the given degrees.

    The entries are the Laplace-Beltrami eigenvalues
    lambda_l = -(xi1/2) l(l+1) and sigma_t = 0; degrees as for
    boltzmann_tables. The correction shifts every entry and sigma_t by
    scale * lambda_{N+1}: scale in [0, 1] interpolates between no
    correction and the full one, whose degree-(N+1) entry vanishes.
    """
    xi1 = np.asarray(xi1, dtype=float)
    if np.any(xi1 < 0.0):
        raise ValueError("xi1 must be nonnegative")
    if not 0.0 <= scale <= 1.0:
        raise ValueError("correction scale must lie in [0, 1]")
    if degrees is None:
        degrees = np.arange(n_max + 1)
    lam = -(xi1[..., None] / 2.0) * degrees * (degrees + 1.0)
    shift = scale * (-(xi1 / 2.0) * (n_max + 1.0) * (n_max + 2.0))
    return lam - shift[..., None], 0.0 - shift
