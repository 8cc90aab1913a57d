"""Physics layer: HU conversion, mixing, straggling, scattering moments."""

import numpy as np
import pytest
from oracles import moment_tables_reference

from pndose.constants import AVOGADRO, ELEMENT_INDEX, ELEMENTS, N_ELEMENTS
from pndose.driver import MOMENT_TABLE_POINTS, ProblemConfig, assemble_problem
from pndose.errors import NumericalError, PhysicsDataError
from pndose.physics import moliere
from pndose.physics.materials import MaterialField, default_schneider_table
from pndose.physics.moliere import (
    MomentTables,
    kernel_amplitude,
    legendre_moments,
    moliere_dcs,
    moments_of_kernel,
    screening_parameters,
    tau_lab,
)
from pndose.physics.stopping import (
    default_stopping_library,
    mix_stopping_power,
    straggling_t,
    straggling_t_derivative,
)

O = ELEMENTS[ELEMENT_INDEX["O"]]
C = ELEMENTS[ELEMENT_INDEX["C"]]
H = ELEMENTS[ELEMENT_INDEX["H"]]
# the elements of water (0 HU) in the Schneider table, in canonical order
WATER_ELEMENTS = ("H", "C", "N", "O", "P", "S", "Cl")


def water_field(density=1.0):
    w = np.zeros(N_ELEMENTS)
    w_h = 2 * 1.008 / (2 * 1.008 + 15.999)
    w[ELEMENT_INDEX["H"]] = w_h
    w[ELEMENT_INDEX["O"]] = 1.0 - w_h
    return MaterialField(density=np.array([density]), weights=w[None, :])


class TestHuConversion:
    def test_zero_hu_soft_tissue(self):
        density, weights = default_schneider_table().convert(0.0)
        assert density == pytest.approx(1.018, abs=1e-12)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        # water-like: H and O dominate
        assert weights[ELEMENT_INDEX["H"]] == pytest.approx(0.108)
        assert weights[ELEMENT_INDEX["O"]] > 0.5

    def test_lung_bin(self):
        # density from the shipped piecewise ramp: 1.031 + 1.031e-3 * (-400)
        density, weights = default_schneider_table().convert(-400.0)
        assert density == pytest.approx(0.6186, abs=1e-12)
        assert weights[ELEMENT_INDEX["O"]] == pytest.approx(0.749)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_deterministic(self):
        a = default_schneider_table().convert(123.4)
        b = default_schneider_table().convert(123.4)
        assert a[0] == b[0]
        np.testing.assert_array_equal(a[1], b[1])

    @pytest.mark.parametrize("hu", [-1500.0, 3500.0, np.nan, [0.0, np.nan]])
    def test_out_of_range(self, hu):
        with pytest.raises(PhysicsDataError, match="range"):
            default_schneider_table().convert(hu)

    def test_all_bins_sum_to_one(self):
        rng = np.random.default_rng(1)
        hu = rng.uniform(-1024, 3000, 500)
        density, weights = default_schneider_table().convert(hu)
        assert np.all(density > 0)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    def test_atomic_densities_fixed_at_construction(self):
        density, weights = default_schneider_table().convert(np.array([0.0, -400.0, 700.0]))
        field = MaterialField(density=density, weights=weights)
        masses = np.array([e.atomic_mass for e in ELEMENTS])
        expected = density[:, None] * weights * (AVOGADRO / masses)
        atomic = vars(field)["atomic_densities"]  # stored by the constructor, not on a read
        assert np.array_equal(atomic, expected)
        with pytest.raises(ValueError, match="read-only"):
            atomic[0, 0] = 0.0
        with pytest.raises(TypeError):
            MaterialField(density, weights, expected)


class TestStoppingPower:
    def test_pure_element_degenerates(self):
        lib = default_stopping_library()
        w = np.zeros(N_ELEMENTS)
        w[ELEMENT_INDEX["C"]] = 1.0
        s = mix_stopping_power(w, 1.7, 25.0)
        assert s == pytest.approx(1.7 * lib.mass_stopping("C", 25.0), rel=1e-14)

    def test_density_linearity(self):
        w = default_schneider_table().convert(0.0)[1]
        assert mix_stopping_power(w, 2.0, 40.0) == pytest.approx(
            2.0 * mix_stopping_power(w, 1.0, 40.0), rel=1e-14
        )

    def test_half_half_mixture_is_mean(self):
        # equal-weight additivity: value is the mean of the two pure calls
        w = np.zeros(N_ELEMENTS)
        w[ELEMENT_INDEX["H"]] = 0.5
        w[ELEMENT_INDEX["O"]] = 0.5
        pure_h = np.zeros(N_ELEMENTS)
        pure_h[ELEMENT_INDEX["H"]] = 1.0
        pure_o = np.zeros(N_ELEMENTS)
        pure_o[ELEMENT_INDEX["O"]] = 1.0
        expected = 0.5 * (
            mix_stopping_power(pure_h, 1.0, 60.0) + mix_stopping_power(pure_o, 1.0, 60.0)
        )
        assert mix_stopping_power(w, 1.0, 60.0) == pytest.approx(expected, rel=1e-14)

    def test_node_exact_interpolation(self):
        lib = default_stopping_library()
        table = lib.tables["O"]
        k = len(table.energies) // 2
        assert table(table.energies[k]) == pytest.approx(table.values[k], rel=1e-14)

    def test_extrapolation_refused(self):
        lib = default_stopping_library()
        with pytest.raises(PhysicsDataError, match="range"):
            lib.mass_stopping("O", 1e4)

    def test_mixture_linearity_property(self):
        rng = np.random.default_rng(7)
        w = rng.random(N_ELEMENTS)
        w /= w.sum()
        lib = default_stopping_library()
        direct = mix_stopping_power(w, 1.3, 35.0)
        by_parts = 1.3 * sum(
            w[i] * lib.mass_stopping(ELEMENTS[i].symbol, 35.0) for i in range(N_ELEMENTS)
        )
        assert direct == pytest.approx(by_parts, rel=1e-12)


class TestStraggling:
    # frozen from a one-off script evaluating the straggling formula
    # term-by-term in SI units with scipy.constants (water, 1 g/cm^3, 90 MeV)
    GOLDEN_WATER_90MEV = 8.209178454070974e-4

    def test_empty_material(self):
        assert straggling_t(np.zeros(N_ELEMENTS), 50.0) == 0.0

    def test_linearity_in_densities(self):
        n = water_field().atomic_densities
        assert straggling_t(2.0 * n, 50.0) == pytest.approx(
            2.0 * straggling_t(n, 50.0), rel=1e-14
        )

    def test_water_90mev_golden(self):
        # tolerance absorbs CODATA vintage differences between the engine's
        # pinned 2018 constants and the oracle script's scipy 2022 values
        n = water_field().atomic_densities[0]
        t = straggling_t(n, 90.0)
        assert t == pytest.approx(self.GOLDEN_WATER_90MEV, rel=1e-8)

    def test_low_energy_domain_error(self):
        n = water_field().atomic_densities
        with pytest.raises(PhysicsDataError, match="validity"):
            straggling_t(n, 1e-4)

    @pytest.mark.parametrize("hu", [0.0, -400.0, 700.0])
    @pytest.mark.parametrize("fn", [straggling_t, straggling_t_derivative])
    def test_energy_array_is_bit_exact(self, fn, hu):
        # an array call must reproduce the scalar calls to the last bit: the
        # ray tracer's energy operators are built from the array form
        density, weights = default_schneider_table().convert(np.array([hu]))
        n = MaterialField(density=density, weights=weights).atomic_densities[0]
        e = np.linspace(1.0, 95.0, 6 * 40).reshape(40, 6)
        scalar = np.array([fn(n, float(x)) for x in e.ravel()]).reshape(e.shape)
        assert np.array_equal(fn(n, e), scalar)

    def test_energy_array_below_validity_raises(self):
        n = water_field().atomic_densities[0]
        with pytest.raises(PhysicsDataError, match="validity.*at 0.0001 MeV"):
            straggling_t(n, np.array([30.0, 1e-4, 5.0]))


class TestMoliere:
    # frozen from a one-off script with scipy.constants CODATA values
    GOLDEN_CHI_ALPHA_O_80MEV = 5.512444144529243e-10

    def test_tau_at_forward_peak_equal_masses(self):
        assert tau_lab(1.0, 1.0) == pytest.approx(4.0, rel=1e-15)

    def test_forward_peaked(self):
        # monotone denominator dominates tau variation
        assert moliere_dcs(C, 80.0, 0.999) > moliere_dcs(C, 80.0, 0.0)

    def test_chi_alpha_golden(self):
        _, _, chi = screening_parameters(O, 80.0)
        assert chi == pytest.approx(self.GOLDEN_CHI_ALPHA_O_80MEV, rel=1e-8)

    def test_dcs_scales_with_atomic_density(self):
        one = moliere_dcs(O, 80.0, 0.5, n_i=1.0)
        many = moliere_dcs(O, 80.0, 0.5, n_i=3.5e22)
        assert many == pytest.approx(3.5e22 * one, rel=1e-14)

    def test_mu0_domain(self):
        with pytest.raises(ValueError):
            moliere_dcs(O, 80.0, 1.5)


class TestMoments:
    def test_g0_is_total_cross_section(self):
        # dual path: moment engine vs direct quadrature of the kernel
        g, _ = legendre_moments(O, 80.0, 5)
        from scipy.integrate import quad

        _, _, chi = screening_parameters(O, 80.0)

        def integrand(u):  # u = 1 - mu0, direct integration against the peak
            return moliere_dcs(O, 80.0, 1.0 - u)

        val, _ = quad(integrand, 0.0, 2.0, points=[chi, 10 * chi, 1e-6], limit=200)
        assert g[0] == pytest.approx(2.0 * np.pi * val, rel=1e-7)

    def test_closed_form_tau_free_kernel(self):
        # 2 pi Int (1-mu0) C/(1-mu0+chi) dmu0 = 2 pi C (2 - chi ln((2+chi)/chi))
        for elem, e in [(O, 80.0), (H, 30.0), (C, 150.0)]:
            _, _, chi = screening_parameters(elem, e)
            c = kernel_amplitude(elem, e)
            g, xi1 = moments_of_kernel(
                lambda mu0, omm: c / (omm + chi), chi, 3
            )
            g0_exact = 2.0 * np.pi * c * np.log((2.0 + chi) / chi)
            xi1_exact = 2.0 * np.pi * c * (2.0 - chi * np.log((2.0 + chi) / chi))
            assert g[0] == pytest.approx(g0_exact, rel=1e-8)
            assert xi1 == pytest.approx(xi1_exact, rel=1e-8)

    def test_moment_bound(self):
        for e in (20.0, 80.0, 200.0):
            for elem in ELEMENTS:
                g, _ = legendre_moments(elem, e, 12)
                assert np.all(np.abs(g) <= g[0] * (1 + 1e-12))

    def test_xi1_identity_grid(self):
        # xi1 = g0 - g1 across a grid of (element, energy)
        for elem in (H, C, O, ELEMENTS[ELEMENT_INDEX["Ca"]]):
            for e in (5.0, 30.0, 90.0, 200.0):
                g, xi1 = legendre_moments(elem, e, 2)
                assert xi1 == pytest.approx(g[0] - g[1], rel=1e-8)

    def test_nonconvergence_raises(self, monkeypatch):
        monkeypatch.setattr(moliere, "DEFAULT_NODES", 4)
        with pytest.raises(NumericalError, match="converge"):
            legendre_moments(O, 80.0, 40)

    def test_nonconvergence_names_the_first_failing_energy(self, monkeypatch):
        # at 16 nodes degree 2 converges at 1 and 5 MeV, not at 30 or 90 MeV
        monkeypatch.setattr(moliere, "DEFAULT_NODES", 16)
        with pytest.raises(NumericalError, match="for O at 90 MeV did not converge"):
            legendre_moments(O, np.array([1.0, 5.0, 90.0, 30.0]), 2)

    @pytest.mark.parametrize("pn_order", [1, 7])
    def test_tables_equal_scalar_moments(self, pn_order):
        # the energy grid of a 90 MeV beam with a 1 % energy spread
        energies = np.linspace(0.98 * 1.0, 1.02 * 94.5, 48)
        tables = MomentTables(energies, pn_order + 1)
        for i, elem in enumerate(ELEMENTS):
            for j, e in enumerate(energies):
                g, xi1 = legendre_moments(elem, e, pn_order + 1)
                assert np.array_equal(tables.g[i, j], g) and tables.xi1[i, j] == xi1

    @pytest.mark.parametrize("energies, max_degree", [
        # the perfbench workloads' grids: water90_lowrank; preset30_oracle
        # and oblique30_hetero; smoke
        (np.linspace(0.98 * 1.0, 1.02 * 94.5, MOMENT_TABLE_POINTS), 8),
        (np.linspace(0.98 * 1.0, 1.02 * 31.5, MOMENT_TABLE_POINTS), 8),
        (np.linspace(0.98 * 1.0, 1.02 * 12.6, MOMENT_TABLE_POINTS), 2),
        # the grid of `pndose tables check`
        (np.array([5.0, 30.0, 90.0]), 3),
        # 31 energies: two full chunks of 14 and a partial one at degree 8
        (np.linspace(3.0, 70.0, 31), 8),
    ], ids=["water90", "oblique30-preset30", "smoke", "tables-check", "partial-chunk"])
    def test_tables_equal_reference(self, energies, max_degree):
        g, xi1 = moment_tables_reference(energies, max_degree)
        tables = MomentTables(energies, max_degree)
        assert np.array_equal(tables.g, g) and np.array_equal(tables.xi1, xi1)

    def test_listed_elements_alone_are_tabulated(self):
        # the water90_lowrank grid: the rows of water's seven elements are
        # those of the all-element table bit for bit, the rest exact zeros
        energies = np.linspace(0.98 * 1.0, 1.02 * 94.5, MOMENT_TABLE_POINTS)
        full = MomentTables(energies, 8)
        part = MomentTables(energies, 8, elements=WATER_ELEMENTS[::-1])
        assert full.elements == tuple(e.symbol for e in ELEMENTS)
        assert part.elements == WATER_ELEMENTS
        rows = [ELEMENT_INDEX[s] for s in WATER_ELEMENTS]
        others = [i for i in range(N_ELEMENTS) if i not in rows]
        assert np.array_equal(part.g[rows], full.g[rows])
        assert np.array_equal(part.xi1[rows], full.xi1[rows])
        assert np.all(part.g[others] == 0.0) and np.all(part.xi1[others] == 0.0)

    def test_unknown_element_rejected(self):
        with pytest.raises(PhysicsDataError, match="Xe"):
            MomentTables(np.array([5.0, 30.0]), 3, elements=("H", "Xe"))

    def test_validate_passes_zero_rows(self):
        MomentTables(np.array([5.0, 30.0, 90.0]), 3, elements=("H", "O")).validate()

    @pytest.mark.parametrize("field, entry, message", [
        ("g", (1, 0), "non-positive g0"),
        ("g", (1, 2), "moment bound"),        # g_2 is close to g_0 at 30 MeV
        ("xi1", (1,), "identity"),
    ])
    def test_validate_checks_tabulated_rows(self, field, entry, message):
        tables = MomentTables(np.array([5.0, 30.0, 90.0]), 3, elements=("H", "O"))
        getattr(tables, field)[(ELEMENT_INDEX["O"], *entry)] *= -2.0
        with pytest.raises(NumericalError, match=message):
            tables.validate()

    @pytest.mark.parametrize("hu, extra", [(0.0, ()), (-700.0, ("Na", "K"))])
    def test_assembly_tabulates_the_phantom_elements(self, hu, extra):
        # water holds 7 of the 12 elements; a lung box adds Na and K
        phantom = {"background_hu": 0.0,
                   "boxes": [{"origin_cm": [0.0, 0.0, 0.1], "size_cm": [0.3, 0.3, 0.1],
                              "hu": hu}]}
        config = ProblemConfig.from_dict({
            "grid": {"nx": 3, "ny": 3, "nz": 3,
                     "delta_x_cm": 0.1, "delta_y_cm": 0.1, "delta_z_cm": 0.1},
            "phantom": phantom,
            "beams": [{"direction": [0, 0, 1], "energy_mev": 20.0,
                       "position_cm": [0.1, 0.1, 0.0]}],
        })
        moments = assemble_problem(config).moments
        assert set(moments.elements) == set(WATER_ELEMENTS) | set(extra)

    def test_assembly_reads_the_shipped_rules(self, monkeypatch):
        # no leggauss eigensolve for the node counts of the moment tables
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def spy(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", spy)
        moliere._gauss_nodes.cache_clear()
        moliere._backward_piece.cache_clear()
        config = ProblemConfig.from_dict({
            "grid": {"nx": 3, "ny": 3, "nz": 3,
                     "delta_x_cm": 0.1, "delta_y_cm": 0.1, "delta_z_cm": 0.1},
            "beams": [{"direction": [0, 0, 1], "energy_mev": 20.0,
                       "position_cm": [0.1, 0.1, 0.0]}],
        })
        assemble_problem(config)
        assert moliere._gauss_nodes.cache_info().currsize == 2
        assert not set(calls) & set(moliere.SHIPPED_RULES)
        x, _ = moliere._gauss_nodes(4)
        assert calls[-1] == 4 and np.array_equal(x, leggauss(4)[0])

    def test_moments_decreasing_forward_peaked(self):
        g, _ = legendre_moments(O, 80.0, 8)
        assert np.all(np.diff(g) < 0)
