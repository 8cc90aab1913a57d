"""Acceptance criteria, one test per criterion with a printed verdict.

The headline paper comparisons (Monte Carlo agreement, GPU timings,
clinical-resolution ranks) are not desk-reproducible; acceptance rests on
oracle equivalence and property suites plus scaled-down quantitative
checks. Criteria 1/3/4/5/6/11 share one run pair of the 2 x 2 x 3 cm
preset; criterion 2 drives both solvers in lockstep at maximal rank.
"""

import math

import numpy as np
import pytest

from pndose.angular import PNBasis, PNOperators, beam_projection, scattering_matrix_fp
from pndose.constants import ELEMENTS
from pndose.driver import (
    FullRankSolver,
    LowRankSolver,
    ProblemConfig,
    assemble_problem,
    depth_profile,
    pseudo_time_edges,
    run_simulation,
    step_contexts,
    trace_all_beams,
    write_outputs,
)
from pndose.physics import (
    kernel_amplitude,
    moments_of_kernel,
    screening_parameters,
)
from pndose.raytracer import EnergyDGSpace, march_ray, project_initial_spectrum
from pndose.spatial import Grid3D, apply_streaming, build_stencils

from oracles import laplace_beltrami_matrix, water_csda_ranges


def report(criterion, passed, detail):
    print(f"CRITERION {criterion:>2} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def preset1_raw(out_dir=None):
    raw = {
        "name": "acceptance_preset1",
        "grid": {
            "nx": 20, "ny": 20, "nz": 30,
            "delta_x_cm": 0.1, "delta_y_cm": 0.1, "delta_z_cm": 0.1,
        },
        "phantom": {"background_hu": 0.0},
        "beams": [
            {"direction": [0, 0, 1], "energy_mev": 30.0, "position_cm": [1.0, 1.0, 0.0]}
        ],
        "model": "boltzmann",
        "pn_order": 7,
        "transport": {"truncation_tolerance": 0.01, "rank_min": 2, "rank_max": 100,
                      "cfl_number": 0.2},
        "energy": {"e_min_mev": 1.0, "groups": 128},
    }
    if out_dir is not None:
        raw["output"] = {"directory": str(out_dir)}
    return raw


@pytest.fixture(scope="session")
def preset1_runs(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("preset1")
    config = ProblemConfig.from_dict(preset1_raw(out_dir))
    dlra = run_simulation(config, solver="dlra")
    out_path = write_outputs(dlra)
    oracle = run_simulation(config, solver="fullrank")
    return {"dlra": dlra, "oracle": oracle, "out": out_path}


class TestCriterion1DlraMatchesFullRank:
    def test_dose_agreement(self, preset1_runs):
        a = preset1_runs["dlra"].dose.deposited
        b = preset1_runs["oracle"].dose.deposited
        rel_l2 = np.linalg.norm(a - b) / np.linalg.norm(b)
        peak = int(np.argmax(b))
        peak_err = abs(a[peak] - b[peak]) / b[peak]
        report(
            1,
            rel_l2 <= 0.02 and peak_err <= 0.03,
            f"dose rel L2 = {rel_l2:.3e} (<= 2e-2), Bragg-cell rel err = "
            f"{peak_err:.3e} (<= 3e-2)",
        )


class TestCriterion2MaximalRankEquivalence:
    def test_lockstep_trajectories(self):
        raw = {
            "grid": {
                "nx": 8, "ny": 8, "nz": 8,
                "delta_x_cm": 0.25, "delta_y_cm": 0.25, "delta_z_cm": 0.25,
            },
            "phantom": {"background_hu": 0.0},
            "beams": [
                {"direction": [0, 0, 1], "energy_mev": 20.0,
                 "position_cm": [1.0, 1.0, 0.0]}
            ],
            "pn_order": 3,
            # the augmented BUG S-phase is O(dt^3)-consistent with the full
            # RK4 step at maximal rank, so the smoke window pins a small
            # CFL number to sit below the 1e-8 gate with margin
            "transport": {"cfl_number": 0.0003, "truncation_tolerance": 0.0,
                          "rank_min": 16, "rank_max": 16},
            "energy": {"e_min_mev": 19.0, "e_max_mev": 21.0, "groups": 64},
            "rays": {"n_side": 5},
        }
        config = ProblemConfig.from_dict(raw)
        problem = assemble_problem(config)
        fluxes = trace_all_beams(problem)
        t_ms = [beam_projection(config.pn_order, b.direction) for b in config.beams]
        edges = pseudo_time_edges(problem)
        assert min(problem.n_cells, problem.n_moments) == 16
        # the shipped steppers, as run_simulation drives them
        lowrank, fullrank = LowRankSolver(problem), FullRankSolver(problem)
        worst = 0.0
        for k in range(len(edges) - 1):
            dt = edges[k] - edges[k + 1]
            stream_ctx, scat_ctx = step_contexts(
                problem, fluxes, t_ms, edges[k], edges[k + 1]
            )
            _, rank = lowrank.step(dt, stream_ctx, scat_ctx)
            fullrank.step(dt, stream_ctx, scat_ctx)
            assert rank == 16
            u = fullrank.u
            norm = np.linalg.norm(u)
            if norm > 0.0:
                worst = max(worst, np.linalg.norm(lowrank.state.matrix() - u) / norm)
        report(
            2,
            worst <= 1e-8,
            f"max per-step rel Frobenius deviation = {worst:.3e} over "
            f"{len(edges) - 1} steps (<= 1e-8)",
        )


class TestCriterion3BraggPeakPosition:
    def test_peak_matches_csda_range(self, preset1_runs):
        z, dep, _ = depth_profile(preset1_runs["dlra"])
        peak_depth = z[int(np.argmax(dep))]

        # independent CSDA range over the shipped stopping tables
        _, ranges = water_csda_ranges(30.0)
        csda_range = ranges[-1]
        cells_off = abs(peak_depth - csda_range) / 0.1
        report(
            3,
            cells_off <= 2.0,
            f"Bragg peak at {peak_depth:.2f} cm vs CSDA range {csda_range:.3f} cm "
            f"({cells_off:.2f} cells, <= 2)",
        )


class TestCriterion4RankCompression:
    def test_mean_rank(self, preset1_runs):
        d = preset1_runs["dlra"].diagnostics
        bound = 0.15 * min(d["n_cells"], d["n_moments"])
        csv_exists = (preset1_runs["out"] / "rank_history.csv").exists()
        report(
            4,
            d["mean_rank"] <= bound and d["mean_rank"] <= 25.0 and csv_exists,
            f"mean rank {d['mean_rank']:.2f} (<= {bound:.1f} and <= 25), "
            f"rank history CSV written = {csv_exists}",
        )


class TestCriterion5TruncationContract:
    def test_zero_tail_violations(self, preset1_runs):
        d = preset1_runs["dlra"].diagnostics
        report(
            5,
            d["tail_violations"] == 0,
            f"{d['tail_violations']} tail-rule violations, max tail "
            f"{d['max_truncation_tail']:.3e} (threshold 1e-2)",
        )


class TestCriterion6Orthonormality:
    def test_basis_orthonormality(self, preset1_runs):
        defect = preset1_runs["dlra"].diagnostics["max_orthonormality_defect"]
        report(6, defect <= 1e-10, f"max basis defect {defect:.3e} (<= 1e-10)")


class TestCriterion7FokkerPlanckSpectrum:
    def test_laplace_beltrami_diagonal(self):
        n_max = 9
        xi1 = 1.0
        lb = laplace_beltrami_matrix(n_max)
        degrees = PNBasis(n_max).degrees
        expected = scattering_matrix_fp(xi1, n_max)
        got = (xi1 / 2.0) * np.diag(lb)
        scale = np.abs(expected).max()
        diag_err = np.abs(got - expected).max() / scale
        off = lb - np.diag(np.diag(lb))
        off_err = np.abs(off).max() / np.abs(np.diag(lb)).max()
        report(
            7,
            diag_err <= 1e-8 and off_err <= 1e-8,
            f"N=9 diagonal rel err {diag_err:.3e}, off-diagonal {off_err:.3e} "
            f"(<= 1e-8)",
        )


class TestCriterion8MomentClosedForms:
    def test_twenty_element_energy_pairs(self):
        worst = 0.0
        pairs = [(elem, e) for elem in ELEMENTS for e in (25.0, 80.0)][:20]
        assert len(pairs) == 20
        for elem, e_mev in pairs:
            _, _, chi = screening_parameters(elem, e_mev)
            c = kernel_amplitude(elem, e_mev)
            g, xi1 = moments_of_kernel(lambda mu0, omm: c / (omm + chi), chi, 1)
            log_term = math.log((2.0 + chi) / chi)
            g0_exact = 2.0 * math.pi * c * log_term
            xi1_exact = 2.0 * math.pi * c * (2.0 - chi * log_term)
            worst = max(
                worst,
                abs(g[0] - g0_exact) / g0_exact,
                abs(xi1 - xi1_exact) / xi1_exact,
            )
        report(
            8,
            worst <= 1e-8,
            f"worst rel err vs closed forms over 20 (element, E) pairs: "
            f"{worst:.3e} (<= 1e-8)",
        )


class TestCriterion9UpwindOrder:
    def test_advection_convergence(self):
        ops = PNOperators.build(1)
        lam = ops.lam_plus[2]
        j = int(np.argmax(lam))
        speed = lam[j]
        t_final = 1.5
        errors = []
        for nz in (80, 160, 320):
            grid = Grid3D(1, 1, nz, 1.0, 1.0, 8.0 / nz)
            stencils = build_stencils(grid)
            z = grid.cell_centers()[:, 2]
            inv_s = np.ones(grid.n_cells)
            exact0 = np.exp(-0.5 * ((z - 2.5) / 0.55) ** 2)
            u = np.outer(exact0, ops.eig_v[2][:, j])
            dt = 0.3 * grid.dz / speed
            steps = int(round(t_final / dt))
            dt = t_final / steps
            for _ in range(steps):
                k1 = apply_streaming(u, inv_s, stencils, ops)
                k2 = apply_streaming(u + 0.5 * dt * k1, inv_s, stencils, ops)
                k3 = apply_streaming(u + 0.5 * dt * k2, inv_s, stencils, ops)
                k4 = apply_streaming(u + dt * k3, inv_s, stencils, ops)
                u = u + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            w = (u @ ops.eig_v[2])[:, j]
            exact = np.exp(-0.5 * ((z - 2.5 - speed * t_final) / 0.55) ** 2)
            errors.append(np.abs(w - exact).max())
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        report(
            9,
            bool(np.all(orders >= 1.9)),
            f"measured orders {np.round(orders, 3).tolist()} (>= 1.9)",
        )


class TestCriterion10RayTracerOracle:
    def test_drift_and_variance(self):
        space = EnergyDGSpace(1.0, 31.5, 128, 2)
        s_value, t_value = 5.0, 0.05
        coeff = {
            0: (
                lambda e: np.full_like(np.asarray(e, dtype=float), s_value),
                lambda e: np.full_like(np.asarray(e, dtype=float), t_value),
                None,
            )
        }
        psi = project_initial_spectrum(space, 30.0, 0.3)
        ok = True
        details = []
        for depth in (1.0, 2.0, 3.0):
            _, psi = march_ray(space, [(0, 1.0, 0)], coeff, psi)
            _, mean, var = space.moments(psi)
            mean_exact = 30.0 - s_value * depth
            var_exact = 0.3**2 + t_value * depth
            ok = ok and abs(mean - mean_exact) <= space.width
            ok = ok and abs(var - var_exact) / var_exact <= 0.01
            details.append(
                f"z={depth:g}: mean err {abs(mean - mean_exact):.3f} MeV, "
                f"var err {abs(var - var_exact) / var_exact:.2%}"
            )
        report(10, ok, "; ".join(details) + " (<= 1 group width, <= 1%)")


class TestCriterion11MemoryModel:
    def test_state_memory(self, preset1_runs):
        d = preset1_runs["dlra"].diagnostics
        fraction = d["state_memory_fraction"]
        report(
            11,
            fraction <= 0.05,
            f"peak factored-state memory = {100 * fraction:.2f}% of the full "
            f"n*m state (<= 5%)",
        )


class TestCriterion12TwoBeamSuperposition:
    def two_beam_raw(self, beams):
        return {
            "grid": {
                "nx": 20, "ny": 20, "nz": 20,
                "delta_x_cm": 0.1, "delta_y_cm": 0.1, "delta_z_cm": 0.1,
            },
            "phantom": {"background_hu": 0.0},
            "beams": beams,
            "pn_order": 5,
            "transport": {"truncation_tolerance": 0.01, "cfl_number": 0.2},
            "energy": {"e_min_mev": 1.0, "e_max_mev": 21.5, "groups": 128},
        }

    def test_joint_run_preserves_solo_peaks(self):
        beam_z = {"direction": [0, 0, 1], "energy_mev": 20.0,
                  "position_cm": [1.0, 1.0, 0.0], "weight": 1.0}
        beam_y = {"direction": [0, -1, 0], "energy_mev": 20.0,
                  "position_cm": [1.0, 2.0, 1.0], "weight": 1.0}
        solo_z = run_simulation(
            ProblemConfig.from_dict(self.two_beam_raw([beam_z])), solver="dlra"
        )
        solo_y = run_simulation(
            ProblemConfig.from_dict(self.two_beam_raw([beam_y])), solver="dlra"
        )
        joint = run_simulation(
            ProblemConfig.from_dict(self.two_beam_raw([beam_z, beam_y])), solver="dlra"
        )
        grid = joint.problem.grid

        def z_column_peak(result):
            idx = [grid.index(9, 9, k) for k in range(grid.nz)]
            return int(np.argmax(result.dose.deposited[idx]))

        def y_column_peak(result):
            idx = [grid.index(9, j, 9) for j in range(grid.ny)]
            return int(np.argmax(result.dose.deposited[idx]))

        dz = abs(z_column_peak(joint) - z_column_peak(solo_z))
        dy = abs(y_column_peak(joint) - y_column_peak(solo_y))
        neg = joint.diagnostics["negativity"]
        nonneg_outside = (
            joint.dose.deposited.min() >= 0.0
            or neg["negative_cells"] < joint.problem.n_cells
        )
        report(
            12,
            dz <= 1 and dy <= 1 and nonneg_outside,
            f"solo-vs-joint peak shifts: z-beam {dz} cells, y-beam {dy} cells "
            f"(<= 1); negativity diagnostic: {neg['negative_cells']} cells, "
            f"min {neg['min_value']:.2e}",
        )
