"""Spherical harmonics basis and PN operator assembly."""

import math

import numpy as np
import pytest

from pndose.angular import (
    PNBasis,
    PNOperators,
    boltzmann_tables,
    eigen_split,
    flux_matrices,
    fokker_planck_tables,
    real_sph_eval,
)
from pndose.constants import ELEMENT_INDEX, ELEMENTS
from pndose.physics.moliere import legendre_moments

from oracles import flux_matrices_by_quadrature, gram_matrix, real_sph_by_lpmv

Y00 = 1.0 / math.sqrt(4.0 * math.pi)


def reference_directions():
    """64 random unit vectors, the axes, a direction 1e-6 rad off +z and the
    10-degree beam of the shipped oblique configs."""
    rng = np.random.default_rng(26)
    random = rng.normal(size=(64, 3))
    random /= np.linalg.norm(random, axis=1)[:, None]
    axes = np.vstack([np.eye(3), -np.eye(3)])
    near_pole = [math.sin(1e-6), 0.0, math.cos(1e-6)]
    oblique = [0.17364817766693033, 0.0, 0.984807753012208]
    return [*random, *axes, near_pole, oblique]


class TestBasis:
    def test_degree_zero_constant(self):
        for om in ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.6, 0.0, 0.8]):
            assert real_sph_eval(3, om)[0] == pytest.approx(Y00, rel=1e-14)

    def test_size(self):
        assert real_sph_eval(7, [0, 0, 1]).shape == ((7 + 1) ** 2,)
        assert PNBasis(7).size == 64

    def test_index_map_bijection(self):
        basis = PNBasis(4)
        seen = set()
        for ell in range(5):
            for k in range(-ell, ell + 1):
                seen.add(basis.index(ell, k))
        assert seen == set(range(basis.size))
        np.testing.assert_array_equal(basis.degrees[[0, 1, 2, 3, 4]], [0, 1, 1, 1, 2])
        np.testing.assert_array_equal(basis.orders[[1, 2, 3]], [-1, 0, 1])

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError, match="unit"):
            real_sph_eval(2, [0.0, 0.0, 1.1])

    @pytest.mark.parametrize("n_max", [1, 3, 7, 15])
    def test_matches_lpmv_reference(self, n_max):
        for om in reference_directions():
            np.testing.assert_allclose(real_sph_eval(n_max, om), real_sph_by_lpmv(n_max, om),
                                       rtol=0.0, atol=1e-13, err_msg=f"omega = {om}")

    @pytest.mark.parametrize("n_max", [1, 3, 7, 15])
    def test_exact_along_z(self, n_max):
        # the direction of every axis-aligned shipped beam: order 0 holds
        # sqrt((2l+1)/(4 pi)) (+-1)^l, every other order exactly zero
        basis = PNBasis(n_max)
        for sign in (1.0, -1.0):
            t = real_sph_eval(n_max, [0.0, 0.0, sign])
            assert np.array_equal(t, real_sph_by_lpmv(n_max, [0.0, 0.0, sign]))
            closed = np.where(basis.orders == 0,
                              [math.sqrt((2 * l + 1) / (4.0 * math.pi)) * sign**l
                               for l in basis.degrees], 0.0)
            assert np.array_equal(t, closed)

    @pytest.mark.parametrize("n_max", [2, 8, 20])
    def test_orthonormal_gram(self, n_max):
        gram = gram_matrix(n_max)
        assert np.abs(gram - np.eye(gram.shape[0])).max() < 1e-10


class TestFluxMatrices:
    def test_n1_entry(self):
        _, _, az = flux_matrices(1)
        assert az[0, PNBasis(1).index(1, 0)] == pytest.approx(1.0 / math.sqrt(3.0))

    def test_zero_diagonal(self):
        for a in flux_matrices(4):
            assert np.abs(np.diag(a)).max() == 0.0

    @pytest.mark.parametrize("n_max", [1, 5, 11])
    def test_spectral_radius(self, n_max):
        for a in flux_matrices(n_max):
            assert np.abs(np.linalg.eigvalsh(a)).max() <= 1.0 + 1e-12

    @pytest.mark.parametrize("n_max", [1, 3, 6])
    def test_matches_sphere_quadrature(self, n_max):
        closed = flux_matrices(n_max)
        quad = flux_matrices_by_quadrature(n_max)
        for c, q in zip(closed, quad):
            assert np.abs(c - q).max() < 1e-10

    def test_symmetric_and_banded_in_degree(self):
        degrees = PNBasis(5).degrees
        for a in flux_matrices(5):
            assert np.abs(a - a.T).max() == 0.0
            coupled = np.abs(a) > 1e-14
            gap = np.abs(degrees[:, None] - degrees[None, :])
            assert np.all(gap[coupled] == 1)

    def test_eigen_split_reconstruction(self):
        ops = PNOperators.build(5)
        for a, v, lp, lm in zip(flux_matrices(5), ops.eig_v, ops.lam_plus, ops.lam_minus):
            assert np.abs(v @ np.diag(lp + lm) @ v.T - a).max() < 1e-10
            assert np.abs(v.T @ v - np.eye(a.shape[0])).max() < 1e-12
            assert np.all(lp >= 0.0) and np.all(lm <= 0.0)

    def test_characteristic_split(self):
        ops = PNOperators.build(7)
        for a, forward, back in zip(flux_matrices(7), ops.forward_rotation, ops.back_rotation):
            assert forward.shape == (64, 56) and forward.flags.c_contiguous
            assert back.shape == (56, 64)
            # -[V+ V-] B = V+ L+ V+^T + V- L- V-^T
            assert np.abs(-(forward @ back) - a).max() <= 1e-14

    @pytest.mark.parametrize("n_max", range(1, 16))
    def test_characteristic_split_is_balanced(self, n_max):
        # the oracle's interleaved stencil pairs need k+ = k-; parity gives
        # it at every order: the first k columns have positive speeds, the
        # last k negative ones
        ops = PNOperators.build(n_max)
        for forward, back in zip(ops.forward_rotation, ops.back_rotation):
            k = forward.shape[1] // 2
            speeds = -np.einsum("qm,mq->q", back, forward)
            assert 2 * k == forward.shape[1] and np.all(speeds[:k] > 0) and np.all(speeds[k:] < 0)


class TestScatteringMatrices:
    def test_boltzmann_layout(self):
        n_max = 4
        moments = np.linspace(1.0, 0.1, n_max + 2)
        basis = PNBasis(n_max)
        g, sigma_t = boltzmann_tables(moments, n_max, False, basis.degrees)
        assert g.shape == (basis.size,)
        assert sigma_t == moments[0]
        assert g[0] == sigma_t
        for ell in range(n_max + 1):
            block = g[basis.degrees == ell]
            assert np.all(block == moments[ell])  # isotropy in azimuth
        # by default, one entry per degree
        assert np.array_equal(boltzmann_tables(moments, n_max, False)[0], moments[:-1])
        # a stack of moment vectors gives the stack of entries
        stack = np.stack([moments, 2.0 * moments, 0.5 * moments]).reshape(3, 1, -1)
        g_stack, sigma_stack = boltzmann_tables(stack, n_max, False, basis.degrees)
        assert g_stack.shape == (3, 1, basis.size) and sigma_stack.shape == (3, 1)
        for row, moment_row in zip(g_stack[:, 0], stack[:, 0]):
            assert np.array_equal(
                row, boltzmann_tables(moment_row, n_max, False, basis.degrees)[0]
            )
        assert np.array_equal(sigma_stack[:, 0], stack[:, 0, 0])

    def test_boltzmann_arity(self):
        for corrected in (False, True):
            with pytest.raises(ValueError, match="degree"):
                boltzmann_tables(np.ones(4), 4, corrected)

    def test_boltzmann_nonincreasing_for_moliere(self):
        elem = ELEMENTS[ELEMENT_INDEX["O"]]
        moments, _ = legendre_moments(elem, 80.0, 6)
        per_degree, _ = boltzmann_tables(moments, 5, corrected=False)
        assert per_degree.shape == (6,)
        assert np.all(np.diff(per_degree) < 0)

    def test_fp_entries(self):
        xi1 = 0.37
        basis = PNBasis(3)
        g, sigma_t = fokker_planck_tables(xi1, 3, 0.0, basis.degrees)
        assert sigma_t == 0.0
        assert g[basis.index(0, 0)] == 0.0
        assert g[basis.index(1, 0)] == pytest.approx(-xi1)
        assert g[basis.index(2, 1)] == pytest.approx(-3.0 * xi1)
        xi1s = np.array([[0.37, 0.0], [1.5, 2e-24]])
        g_array, _ = fokker_planck_tables(xi1s, 3, 0.0, basis.degrees)
        assert g_array.shape == (2, 2, basis.size)
        for idx in np.ndindex(xi1s.shape):
            assert np.array_equal(
                g_array[idx], fokker_planck_tables(xi1s[idx], 3, 0.0, basis.degrees)[0]
            )
        assert fokker_planck_tables(xi1s, 3, 0.0)[0].shape == (2, 2, 4)
        with pytest.raises(ValueError, match="nonnegative"):
            fokker_planck_tables(np.array([0.3, -1e-30]), 3, 0.0)


class TestTransportCorrections:
    def test_isotropic_identity(self):
        g_diag, sigma_t = boltzmann_tables([2.0, 0.0, 0.0], 1, corrected=False)
        g_corr, s_corr = boltzmann_tables([2.0, 0.0, 0.0], 1, corrected=True)
        np.testing.assert_array_equal(g_corr, g_diag)
        assert s_corr == sigma_t

    def test_net_operator_invariant(self):
        g_diag, sigma_t = boltzmann_tables([3.0, 2.0, 1.0, 0.5], 2, corrected=False)
        g_corr, s_corr = boltzmann_tables([3.0, 2.0, 1.0, 0.5], 2, corrected=True)
        assert s_corr == sigma_t - 0.5
        # -sigma_t I + G is unchanged entrywise, in particular at degree 0
        np.testing.assert_allclose(g_corr - s_corr, g_diag - sigma_t, atol=1e-15)
        # arrays, moment index last: each row corrected by its own g_next
        moments = np.array([[3.0, 2.0, 1.0, 0.5], [1.0, 0.5, 0.25, 0.125]])
        g_diags, sigma_ts = boltzmann_tables(moments, 2, corrected=False)
        g_rows, s_rows = boltzmann_tables(moments, 2, corrected=True)
        for i in range(2):
            g_i, s_i = boltzmann_tables(moments[i], 2, corrected=True)
            assert np.array_equal(g_rows[i], g_i) and s_rows[i] == s_i
        np.testing.assert_allclose(
            g_rows - s_rows[:, None], g_diags - sigma_ts[:, None], atol=1e-15
        )

    def test_fp_correction_cancellation(self):
        xi1, n_max, scale = 0.8, 5, 0.6
        g, _ = fokker_planck_tables(xi1, n_max, 0.0)
        g_corr, s_corr = fokker_planck_tables(xi1, n_max, scale)
        np.testing.assert_allclose(g_corr - s_corr, g, atol=1e-15)
        assert s_corr == pytest.approx(scale * (xi1 / 2.0) * (n_max + 1) * (n_max + 2))
        # full correction zeroes the degree-(N+1) eigenvalue analog
        g_full, s_full = fokker_planck_tables(xi1, n_max, 1.0)
        lam_next = -(xi1 / 2.0) * (n_max + 1) * (n_max + 2)
        assert g_full[0] == pytest.approx(-lam_next)
        np.testing.assert_allclose(g_full - s_full, g, atol=1e-15)
        # arrays, entry index last: each row corrected by its own xi1
        xi1s = np.array([0.8, 0.1, 0.0])
        g_rows, s_rows = fokker_planck_tables(xi1s, n_max, scale)
        for i, x in enumerate(xi1s):
            g_i, s_i = fokker_planck_tables(x, n_max, scale)
            assert np.array_equal(g_rows[i], g_i) and s_rows[i] == s_i

    def test_fp_scale_bounds(self):
        for scale in (1.5, -0.1):
            with pytest.raises(ValueError, match="scale"):
                fokker_planck_tables(1.0, 1, scale)


class TestBeamProjection:
    def test_first_entry(self):
        assert real_sph_eval(4, [0, 0, 1])[0] == pytest.approx(Y00)

    def test_z_beam_azimuthal_symmetry(self):
        t = real_sph_eval(5, [0, 0, 1])
        basis = PNBasis(5)
        nonzero_orders = basis.orders[np.abs(t) > 1e-14]
        assert np.all(nonzero_orders == 0)

    def test_full_turn_invariance(self):
        theta = 0.7
        phi = 1.3
        om = [
            math.sin(theta) * math.cos(phi),
            math.sin(theta) * math.sin(phi),
            math.cos(theta),
        ]
        om2 = [
            math.sin(theta) * math.cos(phi + 2 * math.pi),
            math.sin(theta) * math.sin(phi + 2 * math.pi),
            math.cos(theta),
        ]
        om2 = list(np.asarray(om2) / np.linalg.norm(om2))
        np.testing.assert_allclose(real_sph_eval(6, om), real_sph_eval(6, om2), atol=1e-12)


class TestFokkerPlanckSpectrum:
    def test_quadrature_matches_closed_form(self):
        # basis functions are exact eigenfunctions of the sphere Laplacian
        from oracles import laplace_beltrami_matrix

        n_max = 6
        xi1 = 1.7
        lb = laplace_beltrami_matrix(n_max)
        expected = fokker_planck_tables(xi1, n_max, 0.0, PNBasis(n_max).degrees)[0]
        got = (xi1 / 2.0) * np.diag(lb)
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() / scale < 1e-8
        off = lb - np.diag(np.diag(lb))
        assert np.abs(off).max() / scale < 1e-8
