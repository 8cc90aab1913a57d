"""Full-rank reference solver: the oracle for low-rank validation.

Evolves the dense n x m moment matrix with the same Lie splitting as the
low-rank path: RK4 for streaming and implicit/explicit Euler for
scattering. Only the operator assembly (stencils, PN matrices, contexts)
is shared with the low-rank module.

The streaming operator L = F_S is linear with coefficients frozen over
the step, so one classical RK4 step is exactly its stability polynomial
R(hL) = 1 + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, which dlra.rk4, the
RK4 of both solvers, evaluates in Horner form, four stages
s = u + c h L s with c = 1/4, 1/3, 1/2 and 1, each one call of
spatial.apply_streaming that adds c h F_S(s) onto u in its back GEMMs.
So a step needs the state and one stage array and no elementwise update
pass.

A step allocates no n x m array: it runs in a FullRankWorkspace made once
per run, whose StreamingWorkspace holds a copy of the stencil entries
that the first stage scales by the step's 1/S; the scattering step forms
its rates and source in the stage array, which the streaming step leaves
free. The Horner form, the one back GEMM per axis for its two upwind
terms and the stencil entries scaled rather than the state round
differently from the textbook form with fresh arrays (tests/oracles.py),
in the last bits only (within 1e-14 of that form, relative, over several
steps). Everything is deterministic for a fixed config.
"""

import numpy as np
from scipy.linalg import blas

from .angular import PNOperators
from .dlra import ScatteringContext, StreamingContext, rk4
from .errors import NumericalError
from .spatial import StreamingWorkspace, UpwindStencils


class FullRankWorkspace:
    """The buffers of the oracle's step on the stencils' grid at the
    operators' PN order.

    stage is the (n, m) stage array of the streaming step's Horner form,
    free outside it: the scattering step forms its rates and source
    there. streaming is the spatial.StreamingWorkspace of apply_streaming.
    """

    def __init__(self, stencils: UpwindStencils, ops: PNOperators):
        self.stage = np.empty((stencils.stacked.shape[1], ops.basis.size))
        self.streaming = StreamingWorkspace(stencils, ops)

    @property
    def numbers(self) -> int:
        """Float64 entries held, as in the solvers' *_numbers diagnostics."""
        return self.stage.size + self.streaming.numbers


def fullrank_streaming_step(u: np.ndarray, dt: float, ctx: StreamingContext,
                            work: FullRankWorkspace) -> np.ndarray:
    """One RK4 step of u' = F_S(u) on the dense moment matrix, in place,
    by dlra.rk4 in the workspace's stage array, each of its four Horner
    stages one ctx.full_rhs call; raises NumericalError on a non-finite
    state: before the step, with u left as handed in, or after it. The
    first stage folds the step's 1/S into the workspace's copy of the
    stencil entries; the other three hand apply_streaming the same inv_s
    array and reuse it. max |u| is taken as max(max u, -min u), which
    writes nothing and is NaN when u holds a NaN."""
    scale0 = np.maximum(u.max(), -u.min())
    if not np.isfinite(scale0):
        raise NumericalError(f"non-finite streaming state: max |u| {scale0:g} before the step")
    rk4(lambda x, out, scale, base: ctx.full_rhs(x, out, work.streaming, scale, base),
        u, dt, work.stage)
    scale1 = np.maximum(u.max(), -u.min())
    if not np.isfinite(scale1):
        raise NumericalError(f"non-finite streaming state: max |u| {scale0:g} -> {scale1:g}")
    if scale0 > 0.0 and scale1 > 1e6 * scale0:
        raise NumericalError(
            f"streaming step amplified the solution by {scale1 / scale0:.2e}; "
            f"reduce the step size"
        )
    return u


def fullrank_scattering_step(u: np.ndarray, dt: float, ctx: ScatteringContext,
                             scratch: np.ndarray) -> np.ndarray:
    """Implicit Euler for self-scattering, explicit Euler for the source, in place.

    The self-scattering term is diagonal per (cell, moment) because the
    spatial weights and the scattering matrices are diagonal, so the
    implicit solve is a scalar update u / (1 + sum_i (w_i dt/S) (sigma_t,i
    - g_i,q)); the sub-term order matches the low-rank scattering step
    (implicit first, source from the updated state). The source
    dt sum_b sum_i w_i S^-1 psi_u^b (T_M^b)^T G_i is summed over the
    beams by one GEMM each with alpha = dt, the first writing (beta = 0)
    and the others adding (beta = 1). The rates and then the source are
    formed in scratch, a C-contiguous (n, m) float64 array that shares no
    memory with u (ValueError otherwise).
    """
    if not (scratch.flags.c_contiguous and scratch.dtype == np.float64):
        raise ValueError("the scattering scratch must be a C-contiguous float64 array")
    if np.shares_memory(scratch, u):
        raise ValueError("the scattering scratch must share no memory with the state")
    spatial = ctx.element_weights * (dt * ctx.inv_s)[:, None]     # (n, 12)
    np.matmul(spatial, ctx.absorption, out=scratch)              # decay rates times dt
    scratch += 1.0
    u /= scratch
    beta = 0.0
    for w, g in ctx.source_factors:
        blas.dgemm(dt, g.T, w.T, beta=beta, c=scratch.T, overwrite_c=True)
        beta = 1.0
    if ctx.source_factors:
        u += scratch
    return u
