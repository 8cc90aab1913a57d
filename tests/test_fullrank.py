"""Full-rank reference solver."""

import numpy as np
import pytest

from pndose.angular import PNOperators
from pndose.dlra import ScatteringContext, StreamingContext, rk4
from pndose.errors import NumericalError
from pndose.fullrank import fullrank_scattering_step, fullrank_streaming_step
from pndose.spatial import Grid3D, build_stencils


def advection_context(nz=40):
    grid = Grid3D(1, 1, nz, 1.0, 1.0, 0.1)
    return grid, StreamingContext(
        np.full(grid.n_cells, 0.1), build_stencils(grid), PNOperators.build(1)
    )


class TestStreaming:
    def test_zero_state(self):
        grid, ctx = advection_context()
        u = np.zeros((grid.n_cells, 4))
        assert np.abs(fullrank_streaming_step(u, 0.1, ctx)).max() == 0.0

    def test_rk4_exact_on_constant_rhs(self):
        rng = np.random.default_rng(2)
        c = rng.standard_normal((5, 3))
        y = rk4(lambda _: c, np.zeros((5, 3)), 0.7)
        np.testing.assert_allclose(y, 0.7 * c, atol=1e-15)

    def test_blowup_detected(self):
        grid, ctx = advection_context()
        rng = np.random.default_rng(4)
        u = rng.standard_normal((grid.n_cells, 4))
        with pytest.raises(NumericalError, match="amplified"):
            fullrank_streaming_step(u, 1e4, ctx)


class TestScattering:
    def test_pure_decay_closed_form(self):
        # no source and isotropy-free: every (cell, moment) entry follows
        # the scalar implicit-Euler update u / (1 + dt sigma)
        n, m = 8, 4
        rng = np.random.default_rng(6)
        weights = np.abs(rng.standard_normal((n, 12)))
        inv_s = np.abs(rng.standard_normal(n)) + 0.5
        g_diags = np.zeros((12, m))
        sigma_t = np.abs(rng.standard_normal(12))
        ctx = ScatteringContext(weights, inv_s, g_diags, sigma_t, [])
        u = rng.standard_normal((n, m))
        dt = 0.7
        rates = (weights * inv_s[:, None]) @ (sigma_t[:, None] - g_diags)
        expected = u / (1.0 + dt * rates)
        np.testing.assert_allclose(fullrank_scattering_step(u, dt, ctx), expected, atol=1e-14)

    def test_fp_degree_zero_column_unchanged(self):
        from pndose.angular import PNBasis, fokker_planck_tables

        n, n_max = 10, 2
        m = PNBasis(n_max).size
        rng = np.random.default_rng(8)
        g_fp, _ = fokker_planck_tables(3.0e-24, n_max, 0.0, PNBasis(n_max).degrees)
        g_fp = np.tile(g_fp, (12, 1))
        ctx = ScatteringContext(
            element_weights=np.abs(rng.standard_normal((n, 12))) * 1e22,
            inv_s=np.full(n, 0.08),
            g_diags=g_fp,
            sigma_t=np.zeros(12),
            sources=[],
        )
        u = rng.standard_normal((n, m))
        out = fullrank_scattering_step(u, 0.5, ctx)
        np.testing.assert_allclose(out[:, 0], u[:, 0], atol=1e-15)

    def test_source_linearity(self):
        n, m = 12, 9
        rng = np.random.default_rng(10)
        base = ScatteringContext(
            element_weights=np.abs(rng.standard_normal((n, 12))),
            inv_s=np.abs(rng.standard_normal(n)) + 0.2,
            g_diags=rng.standard_normal((12, m)) * 0.1,
            sigma_t=np.abs(rng.standard_normal(12)),
            sources=[(np.abs(rng.standard_normal(n)), rng.standard_normal(m))],
        )
        u = np.zeros((n, m))
        one = fullrank_scattering_step(u, 0.3, base)
        doubled = ScatteringContext(
            base.element_weights,
            base.inv_s,
            base.g_diags,
            base.sigma_t,
            [(2.0 * base.sources[0][0], base.sources[0][1])],
        )
        two = fullrank_scattering_step(u, 0.3, doubled)
        np.testing.assert_allclose(two, 2.0 * one, atol=1e-14)
