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
O(n m r) instead of O(n m^2). The Galerkin (S) phase precontracts its
spatial factors once per step, so each of its RK4 stages costs O(r^3).
The implicit scattering substep forms its m projected r x r systems with
two matrix products and solves them as one batched solve.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .angular import PNOperators
from .errors import NumericalError
from .spatial import UpwindStencils, apply_streaming


def orthonormal_columns(a: np.ndarray) -> np.ndarray:
    """Economy QR basis of the columns of a, with a pivoted fallback.

    Rank deficiency (for instance K(t1) parallel to U0 when the dynamics
    vanish) is handled by column-pivoted QR plus re-orthonormalization;
    a basis that still fails the orthonormality check raises.
    """
    q, _ = np.linalg.qr(a)
    defect = np.abs(q.T @ q - np.eye(q.shape[1])).max()
    if defect > 1e-12:
        q, _, _ = scipy.linalg.qr(a, mode="economic", pivoting=True)
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
    def zero(cls, n: int, m: int, rank: int, seed: int = 20260809) -> "LowRankState":
        """Zero solution on well-posed random orthonormal bases."""
        rng = np.random.default_rng(seed)
        u = orthonormal_columns(rng.standard_normal((n, rank)))
        v = orthonormal_columns(rng.standard_normal((m, rank)))
        return cls(u=u, s=np.zeros((rank, rank)), v=v)

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
    rank_min: int = 2
    rank_max: int = 100

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


def rk4(f, y0, dt):
    """One classical Runge-Kutta step of y' = f(y)."""
    k1 = f(y0)
    k2 = f(y0 + 0.5 * dt * k1)
    k3 = f(y0 + 0.5 * dt * k2)
    k4 = f(y0 + dt * k3)
    return y0 + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class StreamingContext:
    """Frozen per-step streaming coefficients: 1/S field and operators.

    On construction the stopping-power diagonal is folded into the
    stencils (Ds = D diag(1/S)), so every K- and L-phase right-hand side
    is a sparse product at width r followed by precontracted r x r moment
    factors, and every S-phase one is r x r products only; no n x m
    intermediate is ever formed.
    """

    inv_s: np.ndarray
    stencils: UpwindStencils
    ops: PNOperators

    def __post_init__(self):
        self.scaled_plus, self.scaled_minus = self.stencils.scaled(self.inv_s)
        self.active_axes = tuple(
            axis
            for axis in range(3)
            if self.stencils.plus[axis].nnz or self.stencils.minus[axis].nnz
        )

    def full_rhs(self, u: np.ndarray) -> np.ndarray:
        return apply_streaming(u, self.inv_s, self.stencils, self.ops)

    def _moment_factors(self, w: np.ndarray):
        """Per axis (W^T V_d L+- V_d^T W) pairs for a moment basis W."""
        factors = []
        for axis in self.active_axes:
            c = w.T @ self.ops.eig_v[axis]
            factors.append(
                (
                    (c * self.ops.lam_plus[axis][None, :]) @ c.T,
                    (c * self.ops.lam_minus[axis][None, :]) @ c.T,
                )
            )
        return factors

    def k_rhs(self, k: np.ndarray, factors) -> np.ndarray:
        """F_S(K V0^T) V0 with precontracted moment factors."""
        out = np.zeros_like(k)
        for axis, (f_plus, f_minus) in zip(self.active_axes, factors):
            out -= (self.scaled_plus[axis] @ k) @ f_plus
            out -= (self.scaled_minus[axis] @ k) @ f_minus
        return out

    def l_step_factors(self, u0: np.ndarray):
        """Per axis (V_d L+- V_d^T, (Ds+- U0)^T U0) for the L phase."""
        factors = []
        for axis in self.active_axes:
            q_plus = (self.scaled_plus[axis] @ u0).T @ u0
            q_minus = (self.scaled_minus[axis] @ u0).T @ u0
            factors.append(
                (self.ops.a_plus[axis], self.ops.a_minus[axis], q_plus, q_minus)
            )
        return factors

    def l_rhs(self, l: np.ndarray, factors) -> np.ndarray:
        """F_S(U0 L^T)^T U0, result shaped like L (m x r)."""
        out = np.zeros_like(l)
        for a_plus, a_minus, q_plus, q_minus in factors:
            out -= a_plus @ (l @ q_plus)
            out -= a_minus @ (l @ q_minus)
        return out

    def s_step_factors(self, u_hat: np.ndarray, v_hat: np.ndarray):
        """Precontracted Galerkin-phase factors (P, F), one pair per term.

        Over the k = 2 x (active axes) upwind terms j, P (k, ru, ru) stacks
        the spatial projections U^T Ds+-_d U^ and F (k, rv, rv) the moment
        factors V^T V_d L+-_d V_d^T V^, so that F_S projects to
        -sum_j P_j S F_j.
        """
        ru, rv = u_hat.shape[1], v_hat.shape[1]
        spatial = [
            u_hat.T @ (stencils[axis] @ u_hat)
            for axis in self.active_axes
            for stencils in (self.scaled_plus, self.scaled_minus)
        ]
        moment = [f for pair in self._moment_factors(v_hat) for f in pair]
        return (np.array(spatial).reshape(-1, ru, ru),
                np.array(moment).reshape(-1, rv, rv))

    def s_rhs(self, s: np.ndarray, u_hat: np.ndarray, factors) -> np.ndarray:
        """U^T F_S(U^ S V^T) V^ in O(r^3); u_hat enters only through factors."""
        p, f = factors
        return -(p @ (s @ f)).sum(axis=0)


def streaming_step(state: LowRankState, dt: float, ctx: StreamingContext) -> LowRankState:
    """Augmented BUG step for u' = F_S(u); returns the rank <= 2r state."""
    u0, s0, v0 = state.u, state.s, state.v
    k_factors = ctx._moment_factors(v0)
    k1 = rk4(lambda k: ctx.k_rhs(k, k_factors), u0 @ s0, dt)
    l_factors = ctx.l_step_factors(u0)
    l1 = rk4(lambda l: ctx.l_rhs(l, l_factors), v0 @ s0.T, dt)
    u_hat = orthonormal_columns(np.hstack([k1, u0]))
    v_hat = orthonormal_columns(np.hstack([l1, v0]))
    s_hat0 = (u_hat.T @ u0) @ s0 @ (v0.T @ v_hat)
    s_factors = ctx.s_step_factors(u_hat, v_hat)
    s_hat = rk4(lambda s: ctx.s_rhs(s, u_hat, s_factors), s_hat0, dt)
    return LowRankState(u=u_hat, s=s_hat, v=v_hat)


@dataclass
class ScatteringContext:
    """Frozen per-step scattering coefficients.

    element_weights: (n, 12) spatial diagonals (atomic densities N_i);
    inv_s: (n,) reciprocal stopping power; g_diags: (12, m) corrected
    per-atom scattering diagonals; sigma_t: (12,) corrected per-atom
    total cross sections; sources: per-beam (psi_u (n,), t_m (m,)) pairs.

    On construction each beam's source becomes the factor pair
    (w_i S^-1 psi_u (n, 12), g_i T_M (12, m)) whose product is its
    n x m inscattering source; every solver contracts these pairs.
    """

    element_weights: np.ndarray
    inv_s: np.ndarray
    g_diags: np.ndarray
    sigma_t: np.ndarray
    sources: list = field(default_factory=list)
    source_factors: list = field(init=False)

    def __post_init__(self):
        self.source_factors = [
            (self.element_weights * (self.inv_s * psi_u)[:, None],
             self.g_diags * t_m[None, :])
            for psi_u, t_m in self.sources
        ]

    def source_sum(self, product, shape) -> np.ndarray:
        """Sum over beams of product(w (n, 12), g (12, m)), from zeros."""
        out = np.zeros(shape)
        for w, g in self.source_factors:
            out += product(w, g)
        return out

    def source_full(self) -> np.ndarray:
        """Full n x m source sum_b sum_i w_i S^-1 psi_u^b (T_M^b)^T G_i."""
        shape = (self.element_weights.shape[0], self.g_diags.shape[1])
        return self.source_sum(lambda w, g: w @ g, shape)

    def self_scattering_rates(self) -> np.ndarray:
        """(n, m) per-cell-and-moment decay rates sum_i w_i/S (sigma_t,i - g_i,q)."""
        spatial = self.element_weights * self.inv_s[:, None]       # (n, 12)
        moment = self.sigma_t[:, None] - self.g_diags              # (12, m)
        return spatial @ moment


def implicit_l_step(u0: np.ndarray, l0: np.ndarray, dt: float,
                    ctx: ScatteringContext) -> np.ndarray:
    """Implicit-Euler L-step of the collided self-scattering, L0 (m, r) -> L1.

    Row q of L solves [I + dt sum_i (sigma_t,i - g_i,q) B_i] L1_q = L0_q
    with the projected spatial weights B_i = U0^T diag(w_i/S) U0. The
    twelve B_i come from one batched product, the m system matrices from
    one GEMM over them, and the m r x r systems from one batched solve.
    """
    r = u0.shape[1]
    m = l0.shape[0]
    spatial = ctx.element_weights.T * ctx.inv_s                    # (12, n)
    b_mats = (u0.T[None] * spatial[:, None, :]) @ u0               # (12, r, r)
    coeffs = ctx.sigma_t[:, None] - ctx.g_diags                    # (12, m)
    mats = np.eye(r) + dt * (coeffs.T @ b_mats.reshape(12, r * r)).reshape(m, r, r)
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
    u_hat = orthonormal_columns(np.hstack([k1, u0]))

    # substep 3: uncollided L-step (explicit), augment the moment basis
    l_src = ctx.source_sum(lambda w, g: (u0.T @ w) @ g, (r, m))
    l3 = v_tilde @ s_tilde.T + dt * l_src.T
    v_hat = orthonormal_columns(np.hstack([l3, v_tilde]))

    # substep 4: uncollided S-step from the post-substep-1 coefficient
    s_hat0 = (u_hat.T @ u0) @ s_tilde @ (v_tilde.T @ v_hat)
    s_src = ctx.source_sum(lambda w, g: (u_hat.T @ w) @ (g @ v_hat), s_hat0.shape)
    s1 = s_hat0 + dt * s_src

    return LowRankState(u=u_hat, s=s1, v=v_hat)
