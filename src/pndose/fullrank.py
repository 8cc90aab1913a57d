"""Full-rank reference solver: the oracle for low-rank validation.

Evolves the dense n x m moment matrix with the same Lie splitting as the
low-rank path: RK4 for streaming and implicit/explicit Euler for
scattering. Only the operator assembly (stencils, PN matrices, contexts)
and the one rk4 are shared with the low-rank module.

A step allocates no n x m array: it runs in a FullRankWorkspace made once
per run. rk4 advances the state in place through two n x m buffers, the
accumulator and the stage, and each stage's right-hand side
(spatial.apply_streaming) writes over its own input, working in the
workspace's StreamingWorkspace, whose copy of the stencil entries gets
the step's 1/S folded in once, by the first stage; the scattering step
forms its rates and source in the workspace's scratch, which rk4 leaves
free.
The RK4 updates and the scattering step keep the order of the textbook
form with fresh arrays (tests/oracles.py) bit for bit; the streaming
right-hand side sums each axis' two upwind terms in one GEMM and scales
the stencil entries rather than the state, which moves the last bits
only (within 1e-14 of that form, relative, over several steps).
Everything is deterministic for a fixed config.
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

    rk4 holds the accumulator and the stage (n, m) of dlra.rk4;
    streaming the spatial.StreamingWorkspace of apply_streaming. scratch
    is rk4's stage, which is free outside rk4: the scattering step forms
    its rates and source there.
    """

    def __init__(self, stencils: UpwindStencils, ops: PNOperators):
        n, m = stencils.stacked.shape[1], ops.basis.size
        self.rk4 = (np.empty((n, m)), np.empty((n, m)))
        self.streaming = StreamingWorkspace(stencils, ops)
        self.scratch = self.rk4[1]

    @property
    def numbers(self) -> int:
        """Float64 entries held, as in the solvers' *_numbers diagnostics."""
        return sum(a.size for a in self.rk4) + self.streaming.numbers


def fullrank_streaming_step(u: np.ndarray, dt: float, ctx: StreamingContext,
                            work: FullRankWorkspace) -> np.ndarray:
    """One RK4 step of u' = F_S(u) on the dense moment matrix, in place;
    raises NumericalError on a non-finite state: before the step, with u
    left as handed in, or after it. The first stage folds the step's 1/S
    into the workspace's copy of the stencil entries; the other three
    hand apply_streaming the same inv_s array and reuse it. max |u| is
    taken as max(max u, -min u), which writes nothing and is NaN when u
    holds a NaN."""
    scale0 = np.maximum(u.max(), -u.min())
    if not np.isfinite(scale0):
        raise NumericalError(f"non-finite streaming state: max |u| {scale0:g} before the step")
    rk4(lambda x, out: ctx.full_rhs(x, out, work.streaming), u, dt, work.rk4)
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
    implicit solve is a scalar update u / (1 + dt sum_i w_i/S (sigma_t,i
    - g_i,q)); the sub-term order matches the low-rank scattering step
    (implicit first, source from the updated state). The source
    sum_b sum_i w_i S^-1 psi_u^b (T_M^b)^T G_i is accumulated over the
    beams from zero, each beam's product added by one GEMM with beta = 1.
    The rates and then the source are formed in scratch, a C-contiguous
    (n, m) float64 array apart from u.
    """
    if not (scratch.flags.c_contiguous and scratch.dtype == np.float64):
        raise ValueError("the scattering scratch must be a C-contiguous float64 array")
    spatial = ctx.element_weights * ctx.inv_s[:, None]           # (n, 12)
    np.matmul(spatial, ctx.absorption, out=scratch)              # decay rates
    scratch *= dt
    scratch += 1.0
    u /= scratch
    scratch.fill(0.0)
    for w, g in ctx.source_factors:
        blas.dgemm(1.0, g.T, w.T, beta=1.0, c=scratch.T, overwrite_c=True)
    scratch *= dt
    u += scratch
    return u
