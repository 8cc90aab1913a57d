"""Micro-benchmarks of the two low-rank step kernels, outside tier-1.

Each case times one call of scattering_step or streaming_step at P7
(m = 64) on a random state: (n = 2520, r = 2) is the water90_lowrank
benchmark grid at its rank, (n = 3000, r = 26) the preset30 grid at the
mean rank a tight truncation tolerance reaches there (~26 at 3e-4 with a
Wentzel scattering kernel). Run from the repository root, with the BLAS
thread count pinned:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (pyproject's testpaths).
"""

import numpy as np
import pytest

from pndose.angular import PNOperators
from pndose.dlra import (
    LowRankState,
    ScatteringContext,
    StreamingContext,
    orthonormal_columns,
    scattering_step,
    streaming_step,
)
from pndose.spatial import Grid3D, build_stencils

PN_ORDER = 7
CASES = {
    "n2520-r2": (Grid3D(6, 6, 70, 0.1, 0.1, 0.1), 2),
    "n3000-r26": (Grid3D(10, 10, 30, 0.1, 0.1, 0.1), 26),
}


def random_state(n, m, r, rng):
    return LowRankState(
        u=orthonormal_columns(rng.standard_normal((n, r))),
        s=np.diag(np.sort(rng.uniform(0.1, 1.0, r))[::-1]),
        v=orthonormal_columns(rng.standard_normal((m, r))),
    )


@pytest.fixture(params=list(CASES), scope="module")
def case(request):
    grid, r = CASES[request.param]
    rng = np.random.default_rng(7)
    ops = PNOperators.build(PN_ORDER)
    n, m = grid.n_cells, ops.basis.size
    inv_s = 1.0 / rng.uniform(8.0, 20.0, n)
    stream_ctx = StreamingContext(inv_s, build_stencils(grid), ops)
    g_diags = np.abs(rng.standard_normal((12, m))) * 1e-24
    scat_ctx = ScatteringContext(
        element_weights=np.abs(rng.standard_normal((n, 12))) * 1e22,
        inv_s=inv_s,
        g_diags=g_diags,
        sigma_t=g_diags.max(axis=1) * 1.5,
        sources=[(np.abs(rng.standard_normal(n)), rng.standard_normal(m))],
    )
    return random_state(n, m, r, rng), stream_ctx, scat_ctx


def test_scattering_step(benchmark, case):
    state, _, scat_ctx = case
    out = benchmark(scattering_step, state, 0.2, scat_ctx)
    assert out.rank == 2 * state.rank


def test_streaming_step(benchmark, case):
    state, stream_ctx, _ = case
    out = benchmark(streaming_step, state, 0.2, stream_ctx)
    assert out.rank == 2 * state.rank
