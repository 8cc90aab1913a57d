"""Full-rank reference solver: the oracle for low-rank validation.

Evolves the dense n x m moment matrix with the same Lie splitting as the
low-rank path: RK4 for streaming and implicit/explicit Euler for
scattering. The stepping code is deliberately naive and independent of
the low-rank module; only the operator assembly (stencils, PN matrices,
contexts) is shared. Everything is deterministic for a fixed config.
"""

import numpy as np

from .dlra import ScatteringContext, StreamingContext, rk4
from .errors import NumericalError


def fullrank_streaming_step(u: np.ndarray, dt: float, ctx: StreamingContext) -> np.ndarray:
    """One RK4 step of u' = F_S(u) on the dense moment matrix."""
    scale0 = np.abs(u).max()
    u1 = rk4(ctx.full_rhs, u, dt)
    scale1 = np.abs(u1).max()
    if scale0 > 0.0 and scale1 > 1e6 * scale0:
        raise NumericalError(
            f"streaming step amplified the solution by {scale1 / scale0:.2e}; "
            f"reduce the step size"
        )
    return u1


def fullrank_scattering_step(u: np.ndarray, dt: float, ctx: ScatteringContext) -> np.ndarray:
    """Implicit Euler for self-scattering, explicit Euler for the source.

    The self-scattering term is diagonal per (cell, moment) because the
    spatial weights and the scattering matrices are diagonal, so the
    implicit solve is a scalar update; the sub-term order matches the
    low-rank scattering step (implicit first, source from the updated
    state).
    """
    rates = ctx.self_scattering_rates()          # (n, m)
    u1 = u / (1.0 + dt * rates)
    return u1 + dt * ctx.source_full()
