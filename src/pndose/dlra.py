"""Low-rank state and the augmented basis-update & Galerkin integrator.

One pseudo-time step is a Lie split: a streaming substep integrating
u' = F_S(u) with the augmented BUG integrator (RK4 for the K, L and S
phases), then a scattering substep combining an implicit-Euler projector
update for self-scattering of the collided flux with explicit-Euler
K/L/S updates for inscattering of the uncollided flux. Each substep
returns an augmented (up to rank 2r) state; the caller truncates with
the singular-value tail rule.

The projected right-hand sides never form the full n x m matrix: the
moment-side rotations are contracted at width r, so one evaluation costs
O(n m r) instead of O(n m^2). Each phase is one batched contraction over
the upwind terms: the stored stencil stack is applied to S^-1 x (never
rescaled) by one sparse product, whose result, viewed as
(axes, 2, n, r), meets the (axes, 2, r, r) factors of the phase in one
batched matmul and one sum over the terms. The Galerkin (S) phase
precontracts its spatial factors once per step, so each of its RK4
stages costs O(r^3). The implicit
scattering substep forms its m projected r x r systems with two GEMMs
and solves them as one batched solve. Bases are orthonormalized by
LAPACK's Householder QR, called directly.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from .angular import PNOperators
from .errors import NumericalError
from .spatial import UpwindStencils, apply_streaming


def orthonormal_columns(*blocks: np.ndarray) -> np.ndarray:
    """Economy QR basis of the columns of the blocks side by side, with a
    pivoted fallback.

    The blocks are written once into a Fortran-ordered array that LAPACK's
    dgeqrf and dorgqr factor in place, and Q is returned C-contiguous, the
    layout np.linalg.qr gives: the products downstream then sum in the same
    order. Householder QR keeps Q orthonormal also on rank-deficient
    columns (K(t1) parallel to U0 when the dynamics vanish); a Q that
    still fails the orthonormality check is replaced by column-pivoted QR
    plus re-orthonormalization, and one that fails after that raises, as
    does a non-finite block.
    """
    a = np.concatenate(blocks, axis=1, out=np.empty(
        (blocks[0].shape[0], sum(b.shape[1] for b in blocks)), order="F"))
    # room for LAPACK's blocked path at any block size up to 64
    lwork = 64 * a.shape[1]
    qr, tau, _, _ = lapack.dgeqrf(a, lwork=lwork, overwrite_a=True)
    q, _, _ = lapack.dorgqr(qr[:, :tau.size], tau, lwork=lwork, overwrite_a=True)
    q = np.ascontiguousarray(q)
    defect = np.abs(q.T @ q - np.eye(q.shape[1])).max()
    if not np.isfinite(defect):
        raise NumericalError("orthonormalization of a non-finite basis")
    if defect > 1e-12:
        q, _, _ = scipy.linalg.qr(np.hstack(blocks), mode="economic", pivoting=True)
        q, _ = np.linalg.qr(q)
        defect = np.abs(q.T @ q - np.eye(q.shape[1])).max()
        if defect > 1e-10:
            raise NumericalError(
                f"orthonormalization failed, defect {defect:.3e}"
            )
    return q


@dataclass
class LowRankState:
    """Factored solution U S V^T with orthonormal U (n x ru), V (m x rv)."""

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @classmethod
    def zero(cls, n: int, m: int, rank: int) -> "LowRankState":
        """Zero solution on the first rank identity columns. With S = 0 the
        first step and its truncation forget the starting bases, so any
        orthonormal start gives the same run."""
        return cls(u=np.eye(n, rank), s=np.zeros((rank, rank)), v=np.eye(m, rank))

    @property
    def rank(self) -> int:
        return min(self.s.shape)

    def matrix(self) -> np.ndarray:
        return self.u @ self.s @ self.v.T

    def orthonormality_defect(self) -> float:
        du = np.abs(self.u.T @ self.u - np.eye(self.u.shape[1])).max()
        dv = np.abs(self.v.T @ self.v - np.eye(self.v.shape[1])).max()
        return max(du, dv)


@dataclass(frozen=True)
class TruncationPolicy:
    """Tail-sum truncation threshold in solution-norm units."""

    threshold: float
    rank_min: int
    rank_max: int

    def __post_init__(self):
        if self.threshold < 0.0:
            raise ValueError("truncation threshold must be nonnegative")
        if not 1 <= self.rank_min <= self.rank_max:
            raise ValueError("need 1 <= rank_min <= rank_max")


def truncate(state: LowRankState, policy: TruncationPolicy):
    """Tail-rule truncation of an augmented state.

    Returns (truncated state, discarded tail sum). The new rank is the
    smallest r1 with sum_{i > r1} sigma_i <= threshold, raised to
    rank_min if needed; needing more than rank_max is a hard error (a
    larger threshold is the remedy), so the tail contract never degrades
    silently.
    """
    p, sigma, qt = np.linalg.svd(state.s, full_matrices=False)
    q_avail = sigma.size
    tails = np.concatenate([np.cumsum(sigma[::-1])[::-1], [0.0]])  # tails[k] = sum_{i>=k}
    r1 = int(np.argmax(tails <= policy.threshold))
    if r1 > policy.rank_max:
        raise NumericalError(
            f"adaptive rank {r1} exceeds rank_max={policy.rank_max}; "
            f"increase the truncation threshold"
        )
    r1 = min(max(r1, policy.rank_min), policy.rank_max, q_avail)
    tail = float(tails[r1])
    new = LowRankState(
        u=np.ascontiguousarray(state.u @ p[:, :r1]),
        s=np.diag(sigma[:r1]),
        v=np.ascontiguousarray(state.v @ qt[:r1, :].T),
    )
    return new, tail


def rk4(f, y, dt, work=None):
    """One classical Runge-Kutta step of y' = f(y), written over y.

    f(x, out) stores f(x) in out, which may be x itself. The step runs in
    two arrays shaped like y, the accumulator and the stage, taken from
    work or allocated; neither may share memory with y. Each slope k_i is
    written over its own stage input, then doubled there for the sum and
    scaled again into the next stage input. The scalings are powers of two
    apart, so every product is the textbook one: 2 k_i is exact, and
    (dt/4) (2 k_2) = (dt/2) k_2 and (dt/2) (2 k_3) = dt k_3 hold bit for bit,
    both sides being one rounding of the same real number (while 2 k_i is
    finite and dt/4 a normal number). The sums keep
    the textbook order, y + (dt/6) (((k1 + 2 k2) + 2 k3) + k4), so the
    result is bit for bit that of the four-stage form with fresh arrays.
    Returns y.
    """
    acc, stage = work if work is not None else (np.empty_like(y), np.empty_like(y))
    half = 0.5 * dt
    f(y, acc)                                      # acc = k1
    np.multiply(acc, half, out=stage)
    stage += y
    f(stage, stage)                                # k2
    stage *= 2.0
    acc += stage
    stage *= 0.25 * dt                             # (dt/2) k2
    stage += y
    f(stage, stage)                                # k3
    stage *= 2.0
    acc += stage
    stage *= half                                  # dt k3
    stage += y
    f(stage, stage)                                # k4
    acc += stage
    acc *= dt / 6.0
    y += acc
    return y


@dataclass(frozen=True)
class StreamingContext:
    """Frozen per-step streaming coefficients: 1/S field and operators.

    No step builds a stencil operator of its own: the low-rank phases
    apply the stored stencil stack to S^-1 x, and the oracle's dense
    full_rhs the same stack, with 1/S folded into a copy of its entries
    once per step (spatial.apply_streaming). The low-rank phases view the
    stack's product with an n x r input as (axes, 2, n, r), over the
    upwind terms (plus, minus) of the active axes, and meet it with
    (axes, 2, r, r) moment factors in one batched matmul, so every K-
    and L-phase right-hand side is one contraction at width r and every
    S-phase one is r x r products only; no n x m intermediate is ever
    formed.
    """

    inv_s: np.ndarray
    stencils: UpwindStencils
    ops: PNOperators

    def derivatives(self, x: np.ndarray) -> np.ndarray:
        """D_j S^-1 x over the upwind terms j, (axes, 2, n, r), from one sparse product."""
        n, r = x.shape
        products = self.stencils.stacked @ (self.inv_s[:, None] * x)
        return products.reshape(-1, n, 2, r).swapaxes(1, 2)

    def full_rhs(self, u: np.ndarray, out=None, work=None) -> np.ndarray:
        """F_S(u) on the dense n x m matrix, written into out, which may be u
        (apply_streaming)."""
        return apply_streaming(u, self.inv_s, self.stencils, self.ops, out, work)

    def _moment_factors(self, w: np.ndarray) -> np.ndarray:
        """W^T V_d L+-_d V_d^T W over the upwind terms, (axes, 2, r, r), for a moment basis W."""
        axes = list(self.stencils.active_axes)
        c = w.T @ self.ops.eig_v[axes]                                   # (axes, r, m)
        lam = self.ops.lam_split[axes][:, :, None, :]                    # (axes, 2, 1, m)
        return (c[:, None] * lam) @ c.transpose(0, 2, 1)[:, None]

    def k_rhs(self, k: np.ndarray, factors, out: np.ndarray) -> np.ndarray:
        """F_S(K V0^T) V0 = -sum_j (D_j S^-1 K) F_j, from the moment factors of V0, into out."""
        return np.negative((self.derivatives(k) @ factors).sum(axis=(0, 1)), out=out)

    def l_step_factors(self, u0: np.ndarray):
        """(A, Q) for the L phase over the upwind terms j: A (axes, 2, m, m)
        stacks A+-_d = V_d L+-_d V_d^T, Q (axes, 2, r, r) the (D_j S^-1 U0)^T U0."""
        a = self.ops.a_split[list(self.stencils.active_axes)]
        return a, self.derivatives(u0).swapaxes(2, 3) @ u0

    def s_step_factors(self, u_hat: np.ndarray, v_hat: np.ndarray):
        """Precontracted Galerkin-phase factors (P, F) over the upwind terms j.

        P (axes, 2, ru, ru) stacks the spatial projections U^T D_j S^-1 U^ and
        F (axes, 2, rv, rv) the moment factors V^T V_d L+-_d V_d^T V^, so that
        F_S projects to -sum_j P_j S F_j.
        """
        return u_hat.T @ self.derivatives(u_hat), self._moment_factors(v_hat)

    @staticmethod
    def galerkin_rhs(y: np.ndarray, factors, out: np.ndarray) -> np.ndarray:
        """-sum_j Left_j Y Right_j into out, for the factors (Left, Right) over
        the upwind terms j: F_S(U0 L^T)^T U0 (m x r) from the l_step_factors
        of U0, and U^T F_S(U^ S V^T) V^ in O(r^3) from the s_step_factors."""
        left, right = factors
        return np.negative((left @ (y @ right)).sum(axis=(0, 1)), out=out)


def streaming_step(state: LowRankState, dt: float, ctx: StreamingContext) -> LowRankState:
    """Augmented BUG step for u' = F_S(u); returns the rank <= 2r state."""
    u0, s0, v0 = state.u, state.s, state.v
    k_factors = ctx._moment_factors(v0)
    k1 = rk4(lambda k, out: ctx.k_rhs(k, k_factors, out), u0 @ s0, dt)
    l_factors = ctx.l_step_factors(u0)
    l1 = rk4(lambda l, out: ctx.galerkin_rhs(l, l_factors, out), v0 @ s0.T, dt)
    u_hat = orthonormal_columns(k1, u0)
    v_hat = orthonormal_columns(l1, v0)
    s_hat0 = (u_hat.T @ u0) @ s0 @ (v0.T @ v_hat)
    s_factors = ctx.s_step_factors(u_hat, v_hat)
    s_hat = rk4(lambda s, out: ctx.galerkin_rhs(s, s_factors, out), s_hat0, dt)
    return LowRankState(u=u_hat, s=s_hat, v=v_hat)


@dataclass(frozen=True)
class ScatteringContext:
    """Frozen per-step scattering coefficients.

    element_weights: (n, 12) spatial diagonals (atomic densities N_i);
    inv_s: (n,) reciprocal stopping power; g_diags: (12, m) corrected
    per-atom scattering diagonals; sigma_t: (12,) corrected per-atom
    total cross sections; sources: per-beam (psi_u (n,), t_m (m,)) pairs.

    On construction the per-atom absorption coefficients
    sigma_t,i - g_i,q (12, m) of the self-scattering are formed once, and
    each beam's source becomes the factor pair
    (w_i S^-1 psi_u (n, 12), g_i T_M (12, m)) whose product is its
    n x m inscattering source; every solver contracts these pairs. The
    context is frozen, so these derived arrays cannot go stale: assigning
    a field after construction raises FrozenInstanceError.
    """

    element_weights: np.ndarray
    inv_s: np.ndarray
    g_diags: np.ndarray
    sigma_t: np.ndarray
    sources: list = field(default_factory=list)
    absorption: np.ndarray = field(init=False)
    source_factors: list = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "absorption", self.sigma_t[:, None] - self.g_diags)
        object.__setattr__(self, "source_factors", [
            (self.element_weights * (self.inv_s * psi_u)[:, None],
             self.g_diags * t_m[None, :])
            for psi_u, t_m in self.sources
        ])

    def source_sum(self, product, shape) -> np.ndarray:
        """Sum over beams of product(w (n, 12), g (12, m)), from zeros."""
        out = np.zeros(shape)
        for w, g in self.source_factors:
            out += product(w, g)
        return out


def implicit_l_step(u0: np.ndarray, l0: np.ndarray, dt: float,
                    ctx: ScatteringContext) -> np.ndarray:
    """Implicit-Euler L-step of the collided self-scattering, L0 (m, r) -> L1.

    Row q of L solves [I + dt sum_i (sigma_t,i - g_i,q) B_i] L1_q = L0_q
    with the projected spatial weights B_i = U0^T diag(w_i/S) U0. The
    twelve symmetric B_i come from one (12, n) @ (n, r (r+1)/2) GEMM over
    the cellwise products u_a u_b (a <= b) of the basis, the m system
    matrices from one GEMM over them, and the m r x r systems from one
    batched solve.
    """
    n, r = u0.shape
    m = l0.shape[0]
    rows, cols = np.triu_indices(r)
    # the products in triu order, filled one basis vector a at a time as
    # contiguous rows u_a u_b, b >= a: one array, no gathered copies
    basis = u0.T.copy()
    products = np.empty((rows.size, n))
    start = 0
    for a in range(r):
        np.multiply(basis[a], basis[a:], out=products[start:start + r - a])
        start += r - a
    spatial = ctx.element_weights.T * ctx.inv_s                    # (12, n)
    upper = spatial @ products.T                                   # (12, r (r+1)/2)
    b_mats = np.empty((12, r, r))                                  # the symmetric B_i
    b_mats[:, rows, cols] = upper
    b_mats[:, cols, rows] = upper
    mats = np.eye(r) + dt * (ctx.absorption.T @ b_mats.reshape(12, r * r)).reshape(m, r, r)
    rhs = l0[:, :, None]
    try:
        return np.linalg.solve(mats, rhs)[:, :, 0]
    except np.linalg.LinAlgError as exc:
        # error path only: name the first singular moment column
        for q in range(m):
            try:
                np.linalg.solve(mats[q], rhs[q])
            except np.linalg.LinAlgError:
                raise NumericalError(
                    f"implicit scattering solve singular at moment column {q}; "
                    f"the step size is too large for the scattering stiffness"
                ) from exc
        raise


def scattering_step(state: LowRankState, dt: float, ctx: ScatteringContext) -> LowRankState:
    """The four-substep scattering update; returns an augmented state.

    1. collided L-step, implicit Euler on the projected self-scattering,
       all m moment columns in one batched solve (implicit_l_step);
    2. uncollided K-step, explicit Euler, augments the spatial basis;
    3. uncollided L-step, explicit Euler, augments the moment basis;
    4. uncollided S-step, explicit Euler from the projected coefficient.
    """
    u0, s0, v0 = state.u, state.s, state.v
    n, r = u0.shape
    m = v0.shape[0]

    # substep 1: collided L-step
    l1 = implicit_l_step(u0, v0 @ s0.T, dt, ctx)
    v_tilde, r_tilde = np.linalg.qr(l1)                            # L1 = V~ R
    s_tilde = r_tilde.T                                            # state: U0 S~ V~^T

    # substep 2: uncollided K-step (explicit), augment the spatial basis
    k_src = ctx.source_sum(lambda w, g: w @ (g @ v0), (n, v0.shape[1]))
    k1 = u0 @ s0 + dt * k_src
    u_hat = orthonormal_columns(k1, u0)

    # substep 3: uncollided L-step (explicit), augment the moment basis
    l_src = ctx.source_sum(lambda w, g: (u0.T @ w) @ g, (r, m))
    l3 = v_tilde @ s_tilde.T + dt * l_src.T
    v_hat = orthonormal_columns(l3, v_tilde)

    # substep 4: uncollided S-step from the post-substep-1 coefficient
    s_hat0 = (u_hat.T @ u0) @ s_tilde @ (v_tilde.T @ v_hat)
    s_src = ctx.source_sum(lambda w, g: (u_hat.T @ w) @ (g @ v_hat), s_hat0.shape)
    s1 = s_hat0 + dt * s_src

    return LowRankState(u=u_hat, s=s1, v=v_hat)
