"""DG-in-energy ray tracer: operators, marching, deposition."""

import gc
import math
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import numpy.polynomial.legendre as leg
import pytest
from scipy import sparse
from scipy.linalg import lu_factor

from pndose import raytracer
from pndose.driver import ProblemConfig, assemble_problem, material_coefficients, trace_all_beams
from pndose.errors import ConfigError, NumericalError
from pndose.raytracer import (
    BeamSource,
    CrankNicolsonFactor,
    EnergyDGSpace,
    EnergyOperators,
    UncollidedFlux,
    assemble_energy_operators,
    march_ray,
    project_initial_spectrum,
    stratified_ray_offsets,
    trace_beam,
    traverse_grid,
    write_cn_rhs,
)
from pndose.spatial import Grid3D

from oracles import (
    assemble_energy_operators_reference,
    march_ray_reference,
    traverse_grid_reference,
)


def const(v):
    return lambda e: np.full_like(np.asarray(e, dtype=float), v)


def projection_error(space, mean, sigma):
    coeffs = project_initial_spectrum(space, mean, sigma)
    x, w = leg.leggauss(20)
    energies = space.centers[:, None] + 0.5 * space.width * x[None, :]
    p = leg.legvander(x, raytracer.DG_DEGREE)
    vals = coeffs.reshape(space.n_groups, space.n_local) @ p.T
    f = np.exp(-0.5 * ((energies - mean) / sigma) ** 2) / (sigma * math.sqrt(2 * math.pi))
    return math.sqrt(np.sum((vals - f) ** 2 * w)) / math.sqrt(np.sum(f**2 * w))


class TestEnergySpace:
    def test_equal_groups_and_spd_mass(self):
        space = EnergyDGSpace(1.0, 31.5, 128)
        assert np.allclose(np.diff(space.edges), space.width)
        mass = space.mass_diagonal()
        assert mass.shape == (128 * 3,)
        assert np.all(mass > 0)

    def test_projection_accuracy(self):
        # measured floor of the 128-group P2 space for a 1%-sigma Gaussian;
        # converges at third order in the group width (checked below)
        space = EnergyDGSpace(1.0, 31.5, 128)
        assert projection_error(space, 30.0, 0.3) < 2.5e-3

    def test_projection_third_order(self):
        errs = [
            projection_error(EnergyDGSpace(1.0, 31.5, g), 30.0, 0.3)
            for g in (128, 256, 512)
        ]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 2.8)

    def test_group_averages_are_p0(self):
        space = EnergyDGSpace(1.0, 5.0, 4)
        coeffs = np.arange(12.0)
        np.testing.assert_array_equal(space.group_averages(coeffs), [0.0, 3.0, 6.0, 9.0])


def phantom_coefficient_sets():
    """(space, coefficients) of each material of a water/lung/bone slab phantom."""
    raw = {
        "grid": {"nx": 1, "ny": 1, "nz": 3,
                 "delta_x_cm": 1.0, "delta_y_cm": 1.0, "delta_z_cm": 1.0},
        "phantom": {"background_hu": 0.0, "boxes": [
            {"origin_cm": [0.0, 0.0, 1.0], "size_cm": [1.0, 1.0, 1.0], "hu": -700.0},
            {"origin_cm": [0.0, 0.0, 2.0], "size_cm": [1.0, 1.0, 1.0], "hu": 1000.0},
        ]},
        "beams": [{"direction": [0, 0, 1], "energy_mev": 60.0, "position_cm": [0.5, 0.5, 0.0]}],
        "pn_order": 1,
    }
    problem = assemble_problem(ProblemConfig.from_dict(raw))
    coefficients = material_coefficients(problem)[1]
    assert len(coefficients) == 3
    return [(problem.space, coefficients[key]) for key in sorted(coefficients)]


class TestAssemblyEqualsReference:
    """The block-diagonal assembly gives the CSR arrays of the per-group,
    per-face loop's dense G bit for bit."""

    @pytest.mark.parametrize("space, coefficients", [
        (EnergyDGSpace(1.0, 11.0, 16), (const(4.0), const(0.0), const(0.0))),
        (EnergyDGSpace(1.0, 11.0, 16), (const(4.0), const(0.05), const(0.3))),
        (EnergyDGSpace(1.0, 31.5, 32),
         (lambda e: 1.0 + 0.1 * np.asarray(e), lambda e: 0.02 + 0.001 * np.asarray(e),
          lambda e: 0.3 + 0.01 * np.asarray(e))),
        *phantom_coefficient_sets(),
    ], ids=["advection", "constant", "linear", "water", "lung", "bone"])
    def test_bit_identical(self, space, coefficients):
        mass, csr = assemble_energy_operators(space, *coefficients)
        mass_ref, g_ref = assemble_energy_operators_reference(space, *coefficients)
        assert np.array_equal(mass, mass_ref)
        assert isinstance(csr, sparse.csr_matrix) and csr.shape == g_ref.shape
        csr_ref = sparse.csr_matrix(g_ref)
        for attr in ("data", "indices", "indptr"):
            got, want = getattr(csr, attr), getattr(csr_ref, attr)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_assembly_forms_no_dense_operator(self):
        # the CSR arrays are written from the three block diagonals: one
        # water assembly at 128 groups peaks at 0.31 of one dense G (1.18
        # MB), most of it in the stopping-power callables, where a dense G
        # alone would exceed 1
        space, water = phantom_coefficient_sets()[0]
        assert space.n_groups == 128
        assemble_energy_operators(space, *water)            # fills the callables' caches
        tracemalloc.start()
        try:
            _, csr = assemble_energy_operators(space, *water)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert csr.nnz == 3_438
        assert peak < 0.5 * 8 * space.n_dof ** 2


class TestOperators:
    def test_constant_annihilated_on_interior(self):
        # constant-in-E state with constant S*: interior rows give zero
        space = EnergyDGSpace(1.0, 11.0, 16)
        _, g_mat = assemble_energy_operators(space, const(4.0), const(0.0), const(0.0))
        c = np.zeros(space.n_dof)
        c[::3] = 2.5
        res = g_mat @ c
        interior = np.ones(space.n_dof, dtype=bool)
        interior[: space.n_local] = False
        interior[-space.n_local :] = False
        assert np.abs(res[interior]).max() < 1e-12

    def test_interior_conservation(self):
        # content derivative vanishes for interior-supported data
        space = EnergyDGSpace(1.0, 11.0, 32)
        mass, g_mat = assemble_energy_operators(space, lambda e: 1.0 + 0.1 * np.asarray(e), const(0.02), const(0.0))
        rng = np.random.default_rng(0)
        psi = np.zeros(space.n_dof)
        psi[5 * 3 : 20 * 3] = rng.standard_normal(45)
        content_weights = np.zeros(space.n_dof)
        content_weights[::3] = space.width
        rate = content_weights @ (g_mat @ psi / mass)
        assert abs(rate) < 1e-10 * np.abs(psi).max()

    def test_decay_oracle(self):
        space = EnergyDGSpace(1.0, 31.5, 32)
        coeff = {0: (const(0.0), const(0.0), const(1.7))}
        psi0 = project_initial_spectrum(space, 20.0, 1.0)
        psi = march_ray([(0, 1.0, 0)], EnergyOperators(space, coeff), psi0)[2]
        ratio = space.moments(psi)[0] / space.moments(psi0)[0]
        assert ratio == pytest.approx(math.exp(-1.7), rel=2e-4)

    def test_crank_nicolson_second_order(self, monkeypatch):
        space = EnergyDGSpace(1.0, 31.5, 32)
        coeff = {0: (const(0.0), const(0.0), const(2.3))}
        psi0 = project_initial_spectrum(space, 20.0, 1.0)

        def run(step):
            monkeypatch.setattr(raytracer, "MAX_STEP_CM", step)
            return march_ray([(0, 1.0, 0)], EnergyOperators(space, coeff), psi0)[2]

        ref = run(0.0005)
        errs = [np.linalg.norm(run(s) - ref) for s in (0.02, 0.01, 0.005)]
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.9)

    def test_drift_and_variance(self):
        # constant S and T: mean falls at S per cm, variance grows at T per cm
        space = EnergyDGSpace(1.0, 31.5, 128)
        coeff = {0: (const(5.0), const(0.05), const(0.0))}
        psi = project_initial_spectrum(space, 30.0, 0.3)
        for depth in (1.0, 2.0, 3.0):
            psi = march_ray([(0, 1.0, 0)], EnergyOperators(space, coeff), psi)[2]
            _, mean, var = space.moments(psi)
            assert abs(mean - (30.0 - 5.0 * depth)) < space.width
            assert var == pytest.approx(0.09 + 0.05 * depth, rel=0.01)

    def test_below_cutoff_bookkeeping(self):
        # every particle that ranges out deposits exactly E_min as residual
        space = EnergyDGSpace(1.0, 12.0, 64)
        coeff = {0: (const(5.0), const(0.0), const(0.0))}
        psi0 = project_initial_spectrum(space, 10.0, 0.1)
        segments = [(i, 0.1, 0) for i in range(40)]
        _, residuals, psi_exit = march_ray(segments, EnergyOperators(space, coeff), psi0)
        assert space.moments(psi_exit)[0] == pytest.approx(0.0, abs=1e-12)
        injected = space.moments(psi0)[0]  # projected content, not exactly 1
        assert residuals.sum() == pytest.approx(injected, rel=1e-12)


class TestBeamGeometry:
    def test_direction_normalized(self):
        beam = BeamSource((0, 0, 2.0), 30.0, (0, 0, 0))
        assert np.linalg.norm(beam.direction) == pytest.approx(1.0)
        assert beam.sigma_e_mev == pytest.approx(0.3)

    def test_bad_beam(self):
        with pytest.raises(ConfigError):
            BeamSource((0, 0, 1), -5.0, (0, 0, 0))

    @pytest.mark.parametrize("direction, position, named", [
        ((0, 0, 0), (0, 0, 0), "direction must not be the zero vector"),
        ((0, float("nan"), 1), (0, 0, 0), "direction must be 3 finite numbers"),
        ((0, 1), (0, 0, 0), "direction must be 3 finite numbers"),
        ((0, 0, 1), (0, float("inf"), 0), "position_cm must be 3 finite numbers"),
        ((0, 0, 1), (1.0, 1.0), "position_cm must be 3 finite numbers"),
        ((0, 0, 1), "origin", "position_cm must be 3 finite numbers"),
    ])
    def test_bad_vectors_name_their_field(self, direction, position, named):
        # constructed directly, not only through a config
        with pytest.raises(ConfigError, match=re.escape(named)):
            BeamSource(direction, 30.0, position)

    @pytest.mark.parametrize("name, value", [
        ("weight", 0.0), ("weight", -1.0), ("weight", math.nan), ("weight", math.inf),
        ("energy_mev", math.nan), ("energy_mev", math.inf), ("energy_mev", 0.0),
        ("sigma_xy_cm", math.nan), ("sigma_xy_cm", math.inf), ("sigma_xy_cm", -0.1),
        ("sigma_e_rel", math.nan), ("sigma_e_rel", math.inf), ("sigma_e_rel", 0.0),
        ("e_min", math.nan), ("e_min", math.inf), ("e_max", math.nan), ("e_max", math.inf),
    ])
    def test_bad_scalars_name_their_field(self, name, value):
        # NaN passes a bare "<= 0" check; a weight of 0 or -1 would give a
        # zero or negative dose, and an energy space with a non-finite bound
        # has non-finite group widths
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be finite and positive")):
            if name in ("e_min", "e_max"):
                EnergyDGSpace(**{"e_min": 1.0, "e_max": 31.5, "n_groups": 16, name: value})
            else:
                BeamSource((0, 0, 1), **{"energy_mev": 30.0, "position_cm": (0, 0, 0), name: value})

    def test_traversal_axis_aligned(self):
        g = Grid3D(4, 4, 10, 0.1, 0.1, 0.1)
        path = traverse_grid(g, np.array([0.15, 0.25, -0.5]), np.array([0.0, 0.0, 1.0]))
        assert len(path) == 10
        cells = [c for c, _, _ in path]
        assert cells == [g.index(1, 2, k) for k in range(10)]
        lengths = [s1 - s0 for _, s0, s1 in path]
        np.testing.assert_allclose(lengths, 0.1, atol=1e-9)

    def test_traversal_diagonal_chord(self):
        g = Grid3D(5, 5, 5, 0.2, 0.2, 0.2)
        d = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        path = traverse_grid(g, np.array([0.0, 0.0, 0.0]) - 0.1 * d, d)
        chord = sum(s1 - s0 for _, s0, s1 in path)
        assert chord == pytest.approx(math.sqrt(3.0), rel=1e-6)

    def test_traversal_miss(self):
        g = Grid3D(4, 4, 4, 0.1, 0.1, 0.1)
        assert traverse_grid(g, np.array([5.0, 5.0, -1.0]), np.array([0.0, 0.0, 1.0])) == []

    def test_stratified_offsets_normalized(self):
        offsets, w = stratified_ray_offsets(0.3, 21)
        assert offsets.shape == (441, 2)
        assert w.sum() == pytest.approx(1.0, rel=1e-14)


class TestTraversalAgainstReference:
    """traverse_grid returns exactly the list of the per-cell reference walk."""

    GRIDS = (
        Grid3D(6, 6, 70, 0.1, 0.1, 0.1),
        Grid3D(5, 4, 7, 0.2, 0.25, 0.3, origin=(-0.5, 0.2, 0.0)),
        Grid3D(1, 5, 9, 1.0, 0.2, 0.1),
    )

    @staticmethod
    def check(grid, origin, direction):
        origin = np.asarray(origin, dtype=float)
        d = np.asarray(direction, dtype=float)
        d = d / np.linalg.norm(d)
        path = traverse_grid(grid, origin, d)
        assert path == traverse_grid_reference(grid, origin, d)
        return path

    def test_random_rays(self):
        # lines through a random point of the grid, started before it,
        # inside the grid or beyond the point, in random directions
        rng = np.random.default_rng(2024)
        hits = 0
        for i in range(300):
            g = self.GRIDS[i % len(self.GRIDS)]
            lo, hi = np.array(g.extent()).T
            target = lo + rng.uniform(0.0, 1.0, 3) * (hi - lo)
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            back = rng.uniform(-0.5, 1.5) * np.linalg.norm(hi - lo)
            hits += bool(self.check(g, target - back * d, d))
        assert hits >= 200

    def test_corners_and_edges(self):
        # two or three axes cross at once at every grid node on the way
        g = Grid3D(4, 4, 4, 0.25, 0.25, 0.25)
        assert len(self.check(g, (-0.5, -0.5, -0.5), (1, 1, 1))) == 4
        assert len(self.check(g, (1.5, 1.5, 1.5), (-1, -1, -1))) == 4
        assert self.check(g, (0.5, -0.5, 0.3), (0, 1, 0))
        assert self.check(g, (-0.25, -0.25, 0.3), (1, 1, 0))
        assert self.check(g, (0.0, 1.0, -0.5), (1, -1, 2))
        assert self.check(g, (0.25, 0.5, 0.0), (1, 2, 2))
        assert self.check(self.GRIDS[1], (-0.5, 0.2, 0.0), (0.2, 0.25, 0.3))

    def test_axis_parallel_rays(self):
        g = self.GRIDS[1]
        for axis in range(3):
            for sign in (1.0, -1.0):
                d = np.zeros(3)
                d[axis] = sign
                lo, hi = np.array(g.extent()).T
                centre = 0.5 * (lo + hi)
                # from outside, from inside, and along interior cell faces
                assert self.check(g, centre - 2.0 * d * (hi - lo), d)
                assert self.check(g, centre, d)
                face = lo + np.array(g.spacings)
                face[axis] = centre[axis]
                assert self.check(g, face, d)

    def test_negative_components_and_outside_starts(self):
        g = self.GRIDS[0]
        assert self.check(g, (1.0, 1.2, 8.0), (-0.1, -0.2, -1.0))
        assert self.check(g, (0.61, 0.58, 7.05), (-0.3, -0.1, -1.0))
        assert self.check(g, (5.0, 5.0, -1.0), (0, 0, 1)) == []
        assert self.check(g, (0.3, 0.3, 10.0), (0, 0, 1)) == []

    def test_grazing_rays(self):
        g = Grid3D(3, 3, 4, 0.2, 0.2, 0.2)
        # in the x = 0 boundary face, and in an interior face
        assert self.check(g, (0.0, -0.1, -0.1), (0.0, 0.6, 0.8))
        assert self.check(g, (0.2, -0.1, -0.1), (0.0, 0.6, 0.8))
        # clipping the x = 0.6, z = 0 edge over ~1.4e-13 cm
        self.check(g, (-0.4 - 1e-13, 0.3, -1.0), (1, 0, 1))
        # along the edge x = 0, y = 0
        assert self.check(g, (0.0, 0.0, -1.0), (0, 0, 1))
        # crossing x = 0.4 within 1e-14 of leaving through z = 0.8: the walk
        # stops there, so the last cell is not entered
        path = self.check(g, (-1.4 + 4e-15, 0.3, -1.0), (1, 0, 1))
        assert [cell for cell, _, _ in path][-1] == g.index(1, 1, 3)


class TestDeposition:
    def tracer_setup(self, grid, s_value=2.0):
        space = EnergyDGSpace(1.0, 31.5, 32)
        keys = np.zeros(grid.n_cells, dtype=int)
        return space, keys, EnergyOperators(space, {0: (const(s_value), const(0.0), const(0.0))})

    def test_single_ray_column(self):
        g = Grid3D(5, 5, 6, 0.1, 0.1, 0.1)
        space, keys, ops = self.tracer_setup(g)
        beam = BeamSource((0, 0, 1), 30.0, (0.25, 0.35, 0.0), sigma_xy_cm=0.3)
        flux = trace_beam(beam, g, keys, ops, n_side=1)
        hit = flux.values.sum(axis=1) > 0
        expected = np.zeros(g.n_cells, dtype=bool)
        for k in range(6):
            expected[g.index(2, 3, k)] = True
        np.testing.assert_array_equal(hit, expected)

    def test_weight_linearity(self):
        g = Grid3D(3, 3, 4, 0.2, 0.2, 0.2)
        space, keys, ops = self.tracer_setup(g)
        b1 = BeamSource((0, 0, 1), 30.0, (0.3, 0.3, 0.0), weight=1.0)
        b2 = BeamSource((0, 0, 1), 30.0, (0.3, 0.3, 0.0), weight=2.0)
        f1 = trace_beam(b1, g, keys, ops, n_side=5)
        f2 = trace_beam(b2, g, keys, ops, n_side=5)
        # a partial miss still traces: of the 5x5 rays only the central one enters
        assert f1.n_rays == f2.n_rays == 1
        np.testing.assert_allclose(f2.values, 2.0 * f1.values, rtol=1e-14)

    def test_lateral_gaussian_profile(self):
        # 441 stratified rays, cells aligned with the ray raster (3 per cell):
        # the shallow-depth histogram matches the cell-integrated Gaussian
        sigma = 0.3
        n_side = 21
        width = 2 * 3.0 * sigma
        nxy = 7
        delta = width / nxy
        g = Grid3D(nxy, nxy, 3, delta, delta, 0.1, origin=(-width / 2, -width / 2, 0.0))
        space, keys, ops = self.tracer_setup(g, s_value=1.0)
        beam = BeamSource((0, 0, 1), 30.0, (0.0, 0.0, 0.0), sigma_xy_cm=sigma)
        flux = trace_beam(beam, g, keys, ops, n_side=n_side)

        first_layer = flux.values.reshape(g.nz, g.ny, g.nx, space.n_groups)[0]
        profile = first_layer.sum(axis=(0, 2)) * space.width  # column totals over y
        from scipy.special import erf

        edges = -width / 2 + delta * np.arange(nxy + 1)
        cell_mass = 0.5 * (
            erf(edges[1:] / (sigma * math.sqrt(2))) - erf(edges[:-1] / (sigma * math.sqrt(2)))
        )
        got = profile / profile.sum()
        want = cell_mass / cell_mass.sum()
        rms = np.sqrt(np.mean((got - want) ** 2)) / want.max()
        assert rms < 0.02

    def test_corner_columns_hold_the_march_average(self):
        g = Grid3D(3, 3, 4, 0.2, 0.2, 0.2)
        space, keys, ops = self.tracer_setup(g)
        # sigma 0.1 with n_side=2 puts one ray in each corner column (x, y = 0.15 | 0.45)
        beam = BeamSource((0, 0, 1), 30.0, (0.3, 0.3, 0.0), sigma_xy_cm=0.1)
        flux = trace_beam(beam, g, keys, ops, n_side=2)
        assert flux.n_rays == 4
        # the four rays march identical columns: the first-segment average of
        # that march, times the ray weight (1/4) and track length over cell
        # volume, is the flux deposited in every corner entry cell
        psi0 = project_initial_spectrum(space, beam.energy_mev, beam.sigma_e_mev)
        averages = march_ray([(0, 0.2, 0)] * 4, ops, psi0)[0]
        deposit = 0.25 * (0.2 / (g.dx * g.dy * g.dz)) * averages[0]
        for i, j in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            np.testing.assert_allclose(deposit, flux.values[g.index(i, j, 0)], rtol=1e-10)

    def test_beam_missing_grid_raises(self):
        # sigma 0.3 with n_side=2 starts all four rays at x, y in {-0.15, 0.75}
        g = Grid3D(3, 3, 4, 0.2, 0.2, 0.2)
        space, keys, ops = self.tracer_setup(g)
        beam = BeamSource((0, 0, 1), 30.0, (0.3, 0.3, 0.0))
        with pytest.raises(ConfigError, match="misses the grid"):
            trace_beam(beam, g, keys, ops, n_side=2)

    def test_grazing_ray_is_not_counted(self):
        # the single ray clips the x = 0.6, z = 0 edge over ~1.4e-13 cm, below the
        # 1e-12 segment cut-off, so it deposits nothing and the beam is a miss
        g = Grid3D(3, 3, 4, 0.2, 0.2, 0.2)
        space, keys, ops = self.tracer_setup(g)
        beam = BeamSource((1, 0, 1), 30.0, (-0.4 - 1e-13, 0.3, -1.0))
        assert traverse_grid(g, np.array(beam.position_cm), np.array(beam.direction))
        with pytest.raises(ConfigError, match="misses the grid"):
            trace_beam(beam, g, keys, ops, n_side=1)

    def test_interpolation_at_energy(self):
        g = Grid3D(1, 1, 3, 1.0, 1.0, 0.5)
        space, keys, ops = self.tracer_setup(g)
        beam = BeamSource((0, 0, 1), 30.0, (0.5, 0.5, 0.0))
        flux = trace_beam(beam, g, keys, ops, n_side=1)
        centers = space.centers
        mid = 0.5 * (centers[10] + centers[11])
        expected = 0.5 * (flux.values[:, 10] + flux.values[:, 11])
        np.testing.assert_allclose(flux.at_energy(mid), expected, atol=1e-14)
        assert np.all(flux.at_energy(0.1) == 0.0)


def two_materials():
    """(grid, space, keys, coefficients): material 1 fills the deeper half (z >= 0.4 cm)."""
    g = Grid3D(5, 5, 8, 0.1, 0.1, 0.1)
    space = EnergyDGSpace(1.0, 31.5, 32)
    keys = np.zeros(g.n_cells, dtype=int)
    keys[g.n_cells // 2 :] = 1
    coeff = {
        0: (lambda e: 2.0 + 0.05 * np.asarray(e), const(0.01), const(0.3)),
        1: (lambda e: 3.0 + 0.04 * np.asarray(e), const(0.02), const(0.5)),
    }
    return g, space, keys, coeff


TILT_10 = (math.sin(math.radians(10.0)), 0.0, math.cos(math.radians(10.0)))


class TestSharedOperators:
    """One EnergyOperators table handed to all marches of a run assembles
    each material's energy operator once, and changes no flux."""

    @pytest.fixture
    def assemblies(self, monkeypatch):
        calls = []
        original = raytracer.assemble_energy_operators

        def counting(space, *coefficients):
            calls.append(coefficients)
            return original(space, *coefficients)

        monkeypatch.setattr(raytracer, "assemble_energy_operators", counting)
        return calls

    @staticmethod
    def materials_crossed(fluxes, keys):
        return {int(keys[c]) for f in fluxes for c in np.nonzero(f.values.any(axis=1))[0]}

    def assert_same_flux(self, a, b):
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.residual_energy, b.residual_energy)

    def test_tilted_beam_through_two_materials(self, assemblies):
        g, space, keys, coeff = two_materials()
        beam = BeamSource(TILT_10, 30.0, (0.2, 0.25, 0.0), sigma_xy_cm=0.1)
        operators = EnergyOperators(space, coeff)
        first = trace_beam(beam, g, keys, operators, n_side=3)
        assert first.n_marches > 2      # the rays do not share one march
        assert len(assemblies) == len(operators) == 2
        assert self.materials_crossed([first], keys) == {0, 1}
        # a run keeps one operator per material: only the block-tridiagonal
        # band (3 blocks of 3 x 3 per group) is stored
        assert all(g_mat.nnz <= 9 * space.n_dof for g_mat, _ in operators.values())

        # a later beam finds the table filled: it assembles nothing more
        again = trace_beam(beam, g, keys, operators, n_side=3)
        assert len(assemblies) == 2
        self.assert_same_flux(first, again)

    def test_two_beams_in_one_material(self, assemblies):
        g, space, keys, coeff = two_materials()
        keys[:] = 0
        beams = [
            BeamSource((0, 0, 1), 30.0, (0.25, 0.25, 0.0), sigma_xy_cm=0.1),
            BeamSource((0.1, 0.0, 1.0), 20.0, (0.15, 0.3, 0.0), sigma_xy_cm=0.05),
        ]
        operators = EnergyOperators(space, coeff)
        shared = [trace_beam(b, g, keys, operators, n_side=3) for b in beams]
        assert len(assemblies) == len(operators) == len(self.materials_crossed(shared, keys)) == 1
        fresh = [trace_beam(b, g, keys, EnergyOperators(space, coeff), n_side=3) for b in beams]
        assert len(assemblies) == 3
        for a, b in zip(shared, fresh):
            self.assert_same_flux(a, b)


def step_classes(segments, max_step=raytracer.MAX_STEP_CM):
    """(material key, exact dz) of each march step class, the first dz of a
    round(dz, 14) class standing for the class, as a march picks them."""
    first = {}
    for _, length, key in segments:
        n_sub = max(1, math.ceil(0.5 * length / max_step))
        dz = 0.5 * length / n_sub
        first.setdefault((key, round(dz, 14)), dz)
    return {(key, dz) for (key, _), dz in first.items()}


def steps_marched(segments, max_step=raytracer.MAX_STEP_CM):
    """Crank-Nicolson steps of a march: 2 n_sub per segment."""
    return sum(2 * max(1, math.ceil(0.5 * length / max_step)) for _, length, _ in segments)


def noisy_phantom():
    """(grid, space, keys, coefficients) of a water box whose cells carry
    integer HU noise in +-60: nearly every cell is a material of its own."""
    raw = {
        "grid": {"nx": 5, "ny": 5, "nz": 8,
                 "delta_x_cm": 0.1, "delta_y_cm": 0.1, "delta_z_cm": 0.1},
        "beams": [{"direction": [0, 0, 1], "energy_mev": 30.0, "position_cm": [0.25, 0.25, 0.0]}],
        "pn_order": 1,
        "energy": {"groups": 32},
    }
    config = ProblemConfig.from_dict(raw)
    config.hu_values += np.random.default_rng(5).integers(-60, 61, config.grid.n_cells)
    problem = assemble_problem(config)
    keys, coefficients = material_coefficients(problem)
    return problem.grid, problem.space, keys, coefficients


class TestCrankNicolsonFactors:
    """The marches of a trace share the compact Crank-Nicolson factors of
    its EnergyOperators table: each (material, dz) pair is factored once,
    inside the buffers of the march that meets it first, and every march
    gives the per-march dense factorization's results bit for bit."""

    @pytest.fixture
    def march_cases(self, monkeypatch):
        """Per phantom, (space, coefficients, psi0, segments of each march)
        of a tilted bundle: two materials, and per-cell HU noise."""
        cases = {}
        for name, phantom in (("two materials", two_materials), ("noisy", noisy_phantom)):
            g, space, keys, coeff = phantom()
            beam = BeamSource(TILT_10, 30.0, (0.2, 0.25, 0.0), sigma_xy_cm=0.1)
            marches = []
            original = raytracer.march_ray

            def recording(segments, *args, **kwargs):
                marches.append(segments)
                return original(segments, *args, **kwargs)

            monkeypatch.setattr(raytracer, "march_ray", recording)
            trace_beam(beam, g, keys, EnergyOperators(space, coeff), n_side=3)
            monkeypatch.undo()
            psi0 = project_initial_spectrum(space, beam.energy_mev, beam.sigma_e_mev)
            cases[name] = (space, coeff, psi0, marches)
        return cases

    @pytest.mark.parametrize("reverse", [False, True], ids=["forward", "reversed"])
    def test_shared_table_equals_per_march_factors(self, march_cases, reverse):
        materials = {}
        for name, (space, coeff, psi0, marches) in march_cases.items():
            assert len(marches) > 2
            materials[name] = {key for m in marches for _, _, key in m}
            operators = EnergyOperators(space, coeff)
            order = range(len(marches))[::-1] if reverse else range(len(marches))
            fresh_and_reused = 0
            for i in order:
                classes = step_classes(marches[i])
                known = classes & set(operators.factors)
                fresh_and_reused += 0 < len(known) < len(classes)
                got = march_ray(marches[i], operators, psi0)
                want = march_ray_reference(marches[i], operators, psi0)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
            pairs = set().union(*(step_classes(m) for m in marches))
            assert set(operators.factors) == pairs
            # the marches share factors: fewer than one per march and class
            assert len(pairs) < sum(len(step_classes(m)) for m in marches)
            assert fresh_and_reused > 0
            assert operators.cn_steps == sum(steps_marched(m) for m in marches)
        assert materials["two materials"] == {0, 1}
        # the noisy marches switch among many materials, factoring some
        # pairs in their buffers and expanding others into them
        assert len(materials["noisy"]) > 30

    @staticmethod
    def factor_in_buffers(mass, g_dense, dz, key="test"):
        """(compact factor, LU buffer, rhs buffer), written as a first load
        writes them: the buffers NaN before."""
        lu_flat, rhs_flat = np.full(mass.size**2, np.nan), np.full(mass.size**2, np.nan)
        g_csr = sparse.csr_matrix(g_dense)
        write_cn_rhs(mass, g_csr, dz, rhs_flat)
        factor = CrankNicolsonFactor.factor(mass, g_csr, dz, lu_flat, key)
        return factor, lu_flat, rhs_flat

    def test_compact_factor_round_trips_every_bit(self):
        # M + dz/2 G = diag(1) + G: a negative first pivot over zeros, which
        # LAPACK scales to -0.0, and a zero pivot that forces a row swap
        g_dense = np.zeros((6, 6))
        g_dense[[0, 0, 1, 1, 2, 3, 3, 4, 4, 5], [0, 1, 1, 2, 2, 3, 4, 3, 4, 5]] = (
            -3.0, 1.0, 1.0, 0.5, 2.0, -1.0, 2.0, 5.0, 1.0, 1.0
        )
        mass, dz = np.ones(6), 2.0
        factor, *factored = self.factor_in_buffers(mass, g_dense, dz)
        lu_ref, piv_ref = lu_factor(np.diag(mass) + 0.5 * dz * g_dense)
        rhs_ref = np.diag(mass) - 0.5 * dz * g_dense
        assert np.any(piv_ref != np.arange(6))
        assert np.any((lu_ref == 0.0) & np.signbit(lu_ref))
        expanded = np.full(36, np.nan)
        factor.expand(expanded)
        # the buffer the factor was formed in, and the one it expands into
        for lu_flat in (factored[0], expanded):
            assert np.array_equal(lu_flat.view(np.int64), lu_ref.ravel(order="F").view(np.int64))
        assert np.array_equal(factored[1].view(np.int64), rhs_ref.ravel().view(np.int64))
        assert np.array_equal(factor.pivots, piv_ref)
        assert factor.lu_values.size < 36

    @pytest.mark.parametrize("phantom", [two_materials, noisy_phantom])
    def test_reloaded_pair_writes_the_first_load_bits(self, phantom):
        # a stored (material, dz) pair is expanded into the LU buffer and its
        # rhs written from G: buffers and pivots equal the first load's bit
        # for bit, whatever the buffers held before
        _, space, keys, coeff = phantom()
        operators = EnergyOperators(space, coeff)
        n = space.n_dof
        pairs = [(int(key), dz) for key in np.unique(keys)[:3] for dz in (0.005, 0.01 / 3)]
        first = {}
        for pair in pairs:
            buffers = np.full(n * n, np.nan), np.full(n * n, np.nan)
            first[pair] = operators.load(*pair, *buffers), *buffers
        assert set(operators.factors) == set(pairs)
        factor_s = operators.factor_s
        buffers = np.full(n * n, np.nan), np.full(n * n, np.nan)
        for pair in pairs[::-1]:
            pivots = operators.load(*pair, *buffers)
            for got, want in zip((pivots, *buffers), first[pair]):
                assert got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint8), want.view(np.uint8))
        assert len(operators.factors) == len(pairs)
        assert operators.factor_s == factor_s

    def test_singular_system_raises_numerical_error(self, monkeypatch):
        # mass 1, G = -2 I, dz = 1: M + dz/2 G is zero
        with pytest.raises(NumericalError, match=r"material 'water' at dz = 1\.0: pivot 1 "):
            self.factor_in_buffers(np.ones(2), -2.0 * np.eye(2), 1.0, key="water")
        # in a march: G = -2 M over one segment of two unit steps
        space = EnergyDGSpace(1.0, 31.5, 4)
        operators = EnergyOperators(space, {})
        operators[7] = (sparse.csr_matrix(np.diag(-2.0 * operators.mass)), 2.0)
        psi0 = project_initial_spectrum(space, 20.0, 0.2)
        monkeypatch.setattr(raytracer, "MAX_STEP_CM", 1.0)
        with pytest.raises(NumericalError, match=r"material 7 at dz = 1\.0: pivot 1 "):
            march_ray([(0, 2.0, 7)], operators, psi0)

    def test_non_finite_operator_raises_numerical_error(self):
        with pytest.raises(NumericalError, match=r"material 3 at dz = 0\.01: .*non-finite"):
            self.factor_in_buffers(np.ones(2), np.full((2, 2), np.inf), 0.01, key=3)


OBLIQUE30 = Path(__file__).resolve().parents[1] / "perfbench" / "configs" / "oblique30_hetero.yaml"


@pytest.fixture(scope="module")
def oblique30_trace():
    """Ray trace of the oblique30_hetero benchmark: (fluxes, counts,
    dgetrf calls, tracemalloc peak in bytes, step classes of each
    march, weak references to the table and to each factor it held, the
    problem traced)."""
    problem = assemble_problem(ProblemConfig.load(OBLIQUE30))
    calls, marches, held = [], [], {}
    originals = raytracer.dgetrf, raytracer.march_ray

    def counting(*args, **kwargs):
        calls.append(1)
        return originals[0](*args, **kwargs)

    def recording(segments, operators, *args, **kwargs):
        marches.append(step_classes(segments))
        held["table"] = weakref.ref(operators)
        result = originals[1](segments, operators, *args, **kwargs)
        held.update((pair, weakref.ref(f)) for pair, f in operators.factors.items())
        return result

    raytracer.dgetrf, raytracer.march_ray = counting, recording
    tracemalloc.start()
    try:
        fluxes, counts = trace_all_beams(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        raytracer.dgetrf, raytracer.march_ray = originals
    return fluxes, counts, len(calls), peak, marches, held, problem


class TestObliqueTrace:
    def test_one_factorization_per_material_and_step(self, oblique30_trace):
        fluxes, counts, getrf_calls, _, marches, _, _ = oblique30_trace
        assert [f.n_marches for f in fluxes] == [len(marches)] == [10]
        pairs = set().union(*marches)
        assert getrf_calls == counts["cn_factorizations"] == len(pairs) == 27
        assert counts["energy_operator_assemblies"] == 3
        # factoring each march's classes afresh takes twice as many
        assert sum(len(m) for m in marches) == 54

    def test_trace_memory_peak(self, oblique30_trace):
        # one dense operator per march, not one per step class (19.3 MiB)
        assert oblique30_trace[3] <= 10 * 2**20

    def test_no_table_outlives_the_trace(self, oblique30_trace):
        # the table and its 27 factors are garbage once trace_all_beams
        # returns, while the problem and the fluxes live on
        held = oblique30_trace[5]
        gc.collect()
        assert len(held) == 1 + 27
        assert all(ref() is None for ref in held.values())
