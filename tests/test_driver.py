"""Driver: config validation, simulation pipeline, outputs."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from pndose.driver import (
    ProblemConfig,
    assemble_problem,
    compare_volumes,
    depth_profile,
    lateral_profile,
    material_coefficients,
    read_volume,
    run_simulation,
    write_outputs,
    write_volume,
    _data_file_checksums,
)
from pndose.errors import ConfigError
from pndose.spatial import Grid3D

from oracles import water_csda_ranges


def smoke_raw(**overrides):
    raw = {
        "name": "smoke",
        "grid": {
            "nx": 8, "ny": 8, "nz": 12,
            "delta_x_cm": 0.25, "delta_y_cm": 0.25, "delta_z_cm": 0.25,
        },
        "phantom": {"background_hu": 0.0},
        "beams": [
            {"direction": [0, 0, 1], "energy_mev": 20.0, "position_cm": [1.0, 1.0, 0.0]}
        ],
        "pn_order": 3,
        "transport": {"cfl_number": 0.2},
        "energy": {"groups": 64},
        "rays": {"n_side": 5},
    }
    raw.update(overrides)
    return raw


@pytest.fixture(scope="module")
def smoke_result():
    cfg = ProblemConfig.from_dict(smoke_raw())
    return run_simulation(cfg, solver="dlra")


class TestConfigValidation:
    def test_missing_grid_field(self):
        raw = smoke_raw()
        del raw["grid"]["nz"]
        with pytest.raises(ConfigError, match="nz"):
            ProblemConfig.from_dict(raw)

    def test_bad_model(self):
        with pytest.raises(ConfigError, match="model"):
            ProblemConfig.from_dict(smoke_raw(model="diffusion"))

    @pytest.mark.parametrize("section, key, value", [
        ("transport", "truncate_after", "both"),
        ("rays", "uncollided_tally", "groups"),
        ("physics", "moment_table_points", 48),
        ("physics", "moment_quadrature_nodes", 256),
        ("physics", "screening_exponent", 1.0),
        ("rays", "span_sigmas", 3.0),
        ("rays", "step_cm", 0.01),
        ("transport", "rank_maximum", 10),
        (None, "pn_ordre", 3),
        ("beams", "energy", 20.0),
    ])
    def test_unknown_key_names_itself(self, section, key, value):
        raw = smoke_raw()
        if section is None:
            raw[key] = value
            label = key
        elif section == "beams":
            raw["beams"][0][key] = value
            label = f"beams[0].{key}"
        else:
            raw.setdefault(section, {})[key] = value
            label = f"{section}.{key}"
        with pytest.raises(ConfigError, match=re.escape(f"'{label}'")):
            ProblemConfig.from_dict(raw)

    def test_two_cell_axis(self):
        raw = smoke_raw()
        raw["grid"]["nx"] = 2
        with pytest.raises(ConfigError, match="nx"):
            ProblemConfig.from_dict(raw)

    def test_no_beams(self):
        with pytest.raises(ConfigError, match="beam"):
            ProblemConfig.from_dict(smoke_raw(beams=[]))

    def test_beam_above_energy_range(self):
        raw = smoke_raw()
        raw["energy"] = {"e_max_mev": 15.0}
        with pytest.raises(ConfigError, match="e_max"):
            ProblemConfig.from_dict(raw)

    def test_default_emax_covers_spectrum(self):
        cfg = ProblemConfig.from_dict(smoke_raw())
        beam = cfg.beams[0]
        assert cfg.e_max_mev == pytest.approx(
            beam.energy_mev + 5.0 * beam.sigma_e_mev
        )

    def test_hu_volume_size_checked(self):
        raw = smoke_raw()
        raw["phantom"] = {"background_hu": 0.0}
        cfg_kwargs = ProblemConfig.from_dict(raw)
        with pytest.raises(ConfigError, match="cells"):
            ProblemConfig(
                grid=cfg_kwargs.grid,
                hu_values=np.zeros(5),
                beams=cfg_kwargs.beams,
            )

    def test_phantom_boxes_composited_in_order(self):
        raw = smoke_raw()
        raw["phantom"] = {
            "background_hu": 0.0,
            "boxes": [
                {"origin_cm": [0, 0, 0], "size_cm": [2, 2, 1.5], "hu": -400.0},
                {"origin_cm": [0, 0, 0], "size_cm": [2, 2, 0.5], "hu": 100.0},
            ],
        }
        cfg = ProblemConfig.from_dict(raw)
        hu = cfg.hu_values.reshape(12, 8, 8)
        assert np.all(hu[0] == 100.0)       # second box overwrites the first
        assert np.all(hu[3] == -400.0)
        assert np.all(hu[-1] == 0.0)


class TestSimulation:
    def test_zero_weight_beam_zero_dose(self):
        raw = smoke_raw()
        raw["beams"][0]["weight"] = 0.0
        cfg = ProblemConfig.from_dict(raw)
        res = run_simulation(cfg, solver="dlra")
        assert np.abs(res.dose.deposited).max() == 0.0

    def test_half_weight_beam_pair_equivalence(self):
        raw_one = smoke_raw()
        cfg_one = ProblemConfig.from_dict(raw_one)
        raw_two = smoke_raw()
        half = dict(raw_two["beams"][0], weight=0.5)
        raw_two["beams"] = [dict(half), dict(half)]
        cfg_two = ProblemConfig.from_dict(raw_two)
        res_one = run_simulation(cfg_one, solver="dlra")
        res_two = run_simulation(cfg_two, solver="dlra")
        scale = np.abs(res_one.dose.deposited).max()
        assert (
            np.abs(res_one.dose.deposited - res_two.dose.deposited).max()
            <= 1e-10 * scale
        )

    def test_beam_weight_scaling_with_zero_threshold(self):
        # maximal-rank mode with theta = 0: the pipeline is exactly
        # 1-homogeneous in the beam weight
        base = smoke_raw()
        base["transport"] = {"cfl_number": 0.2, "truncation_tolerance": 0.0,
                             "rank_min": 16, "rank_max": 16}
        cfg1 = ProblemConfig.from_dict(base)
        doubled = smoke_raw()
        doubled["transport"] = dict(base["transport"])
        doubled["beams"][0]["weight"] = 2.0
        cfg2 = ProblemConfig.from_dict(doubled)
        res1 = run_simulation(cfg1, solver="dlra")
        res2 = run_simulation(cfg2, solver="dlra")
        scale = np.abs(res2.dose.deposited).max()
        assert (
            np.abs(2.0 * res1.dose.deposited - res2.dose.deposited).max()
            <= 1e-11 * scale
        )

    def test_energy_balance_uncollided(self, tmp_path):
        # single central ray through a water column; the beam exits, so
        # deposited energy = weight * (E_mean - E_exit) with E_exit from a
        # CSDA quadrature over the same shipped table
        raw = smoke_raw()
        raw["grid"] = {
            "nx": 5, "ny": 5, "nz": 30,
            "delta_x_cm": 0.2, "delta_y_cm": 0.2, "delta_z_cm": 0.1,
        }
        raw["beams"] = [
            {"direction": [0, 0, 1], "energy_mev": 90.0, "position_cm": [0.5, 0.5, 0.0]}
        ]
        raw["rays"] = {"n_side": 1}
        raw["energy"] = {"groups": 128}
        cfg = ProblemConfig.from_dict(raw)
        res = run_simulation(cfg, solver="dlra")
        cell_volume = 0.2 * 0.2 * 0.1
        total = res.dose.deposited.sum() * cell_volume

        # independent CSDA oracle on the shipped table (water at 0 HU);
        # R(E) = range from E down to 1 MeV; solve R(90) - R(E_exit) = 3.0 cm
        energies, csda_range = water_csda_ranges(90.0)
        e_exit = np.interp(csda_range[-1] - 3.0, csda_range, energies)
        expected = 1.0 * (90.0 - e_exit)
        assert total == pytest.approx(expected, rel=0.01)

    def test_diagnostics_contract(self, smoke_result):
        d = smoke_result.diagnostics
        assert d["tail_violations"] == 0
        assert d["max_orthonormality_defect"] < 1e-10
        assert d["peak_state_numbers"] <= 100 * (8 * 8 * 12 + 16 + 100)
        assert len(smoke_result.rank_history) == d["n_steps"]

    def test_phase_timings(self, smoke_result):
        phases = smoke_result.diagnostics["phase_s"]
        assert list(phases) == ["assembly", "ray_trace", "contexts", "streaming",
                                "scattering", "truncation", "uncollided_tally"]
        assert all(seconds > 0.0 for seconds in phases.values())
        assert sum(phases.values()) <= smoke_result.diagnostics["runtime_s"]

    def test_fokker_planck_model_runs(self):
        raw = smoke_raw(model="fokker-planck")
        raw["physics"] = {"fp_correction_scale": 0.5}
        cfg = ProblemConfig.from_dict(raw)
        res = run_simulation(cfg, solver="dlra")
        assert np.isfinite(res.dose.deposited).all()
        assert res.diagnostics["tail_violations"] == 0


class TestRayTracerCoupling:
    def test_ray_march_and_operator_diagnostics(self):
        # the second beam sits 0.1 cm inside a corner: of its 5 x 5 rays
        # (offsets 0, +-0.36, +-0.72 cm) only the 3 x 3 with x, y >= 0 enter
        raw = smoke_raw()
        raw["beams"].append(
            {"direction": [0, 0, 1], "energy_mev": 20.0, "position_cm": [0.1, 0.1, 0.0]}
        )
        d = run_simulation(ProblemConfig.from_dict(raw), solver="dlra").diagnostics
        assert d["rays_per_beam"] == [25, 9]
        assert d["rays_missed_per_beam"] == [0, 16]
        assert d["marches_per_beam"] == [1, 1]
        assert d["energy_operator_assemblies"] == 1

    @pytest.mark.parametrize("model, physics", [
        ("boltzmann", {}),
        ("fokker-planck", {"fp_correction_scale": 0.5}),
        ("fokker-planck", {"fp_correction_scale": 0.0}),
        ("boltzmann", {"boltzmann_correction": False}),
    ])
    def test_sigma_t_on_energy_arrays_is_bit_exact(self, model, physics):
        raw = smoke_raw(model=model, physics=physics)
        raw["phantom"] = {
            "background_hu": 0.0,
            "boxes": [
                {"origin_cm": [0, 0, 1.0], "size_cm": [2, 2, 1.0], "hu": -400.0},
                {"origin_cm": [0, 0, 2.0], "size_cm": [2, 2, 1.0], "hu": 700.0},
            ],
        }
        problem = assemble_problem(ProblemConfig.from_dict(raw))
        keys, coefficients = material_coefficients(problem)
        assert len(coefficients) == 3
        atomic = problem.material.atomic_densities
        energies = problem.space.quadrature()[0]
        for key, (_, _, sigma_t_fn) in coefficients.items():
            n_i = atomic[int(np.argmax(keys == key))]
            scalar = [n_i @ problem.scattering_tables(float(e))[1] for e in energies.ravel()]
            assert np.array_equal(sigma_t_fn(energies), np.reshape(scalar, energies.shape))
        # the array path of the tables equals the stacked scalar calls
        g_diags, sigma_t = problem.scattering_tables(energies)
        per_energy = [problem.scattering_tables(float(e)) for e in energies.ravel()]
        assert np.array_equal(
            g_diags, np.stack([g for g, _ in per_energy], axis=1).reshape(g_diags.shape)
        )
        assert np.array_equal(
            sigma_t, np.stack([t for _, t in per_energy], axis=1).reshape(sigma_t.shape)
        )


class TestOutputs:
    def test_volume_round_trip(self, tmp_path):
        grid = Grid3D(4, 3, 5, 0.1, 0.2, 0.3, origin=(1.0, 2.0, 3.0))
        rng = np.random.default_rng(0)
        dep = rng.random(grid.n_cells)
        dose = 2.0 * dep
        path = tmp_path / "vol.vtk"
        write_volume(path, grid, {"deposited_energy": dep, "dose": dose})
        grid2, arrays = read_volume(path)
        assert grid2.shape == grid.shape
        np.testing.assert_allclose(arrays["deposited_energy"], dep, rtol=1e-6)
        np.testing.assert_allclose(arrays["dose"], dose, rtol=1e-6)

    def test_compare_identical_is_zero(self, tmp_path):
        grid = Grid3D(3, 3, 3, 0.1, 0.1, 0.1)
        dep = np.arange(27, dtype=float)
        path = tmp_path / "a.vtk"
        write_volume(path, grid, {"deposited_energy": dep})
        report = compare_volumes(path, path)
        assert report["rel_l2"] == 0.0
        assert report["rel_linf"] == 0.0

    def test_profiles_match_direct_indexing(self, smoke_result):
        grid = smoke_result.problem.grid
        z, dep, _ = depth_profile(smoke_result)
        ix = iy = 4  # beam at (1.0, 1.0) on a 0.25 cm grid
        direct = [smoke_result.dose.deposited[grid.index(ix, iy, k)] for k in range(grid.nz)]
        np.testing.assert_array_equal(dep, direct)
        x, dep_l, _ = lateral_profile(smoke_result)
        kz = int(np.argmax(dep))
        direct_l = [smoke_result.dose.deposited[grid.index(i, iy, kz)] for i in range(grid.nx)]
        np.testing.assert_array_equal(dep_l, direct_l)

    def test_write_outputs_and_determinism(self, tmp_path):
        raw = smoke_raw()
        raw["output"] = {"directory": str(tmp_path / "run")}
        cfg = ProblemConfig.from_dict(raw)
        res = run_simulation(cfg, solver="dlra")
        out = write_outputs(res)
        for name in ("dose.vtk", "depth_profile.csv", "lateral_profile.csv",
                     "rank_history.csv", "manifest.json"):
            assert (out / name).exists()
        first = {
            name: (out / name).read_bytes()
            for name in ("dose.vtk", "depth_profile.csv", "lateral_profile.csv",
                         "rank_history.csv")
        }
        res2 = run_simulation(cfg, solver="dlra")
        write_outputs(res2)
        for name, blob in first.items():
            assert (out / name).read_bytes() == blob

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["diagnostics"]["tail_violations"] == 0
        assert manifest["diagnostics"]["phase_s"] == res2.diagnostics["phase_s"]
        assert "H.csv" in manifest["data_checksums"]

    def test_manifest_checksum_tracks_table_changes(self, tmp_path, monkeypatch):
        cfg = ProblemConfig.from_dict(smoke_raw())
        baseline = _data_file_checksums(cfg)

        from pndose.physics.materials import data_path

        override = tmp_path / "data"
        (override / "stopping_power").mkdir(parents=True)
        original = Path(data_path("stopping_power/H.csv")).read_text()
        (override / "stopping_power" / "H.csv").write_text(original + "# tweak\n")
        monkeypatch.setenv("PNDOSE_DATA_DIR", str(override))
        changed = _data_file_checksums(cfg)
        assert changed["H.csv"] != baseline["H.csv"]
        for name in baseline:
            if name != "H.csv":
                assert changed[name] == baseline[name]
