"""Driver: config validation, simulation pipeline, outputs."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from pndose import raytracer
from pndose.angular import real_sph_eval
from pndose.driver import (
    BEAM_KEYS,
    BOX_KEYS,
    GRID_KEYS,
    OUTPUT_NAMES,
    SCHEMA,
    YAML_LOADER,
    ProblemConfig,
    assemble_problem,
    compare_volumes,
    depth_profile,
    lateral_profile,
    material_coefficients,
    pseudo_time_edges,
    read_volume,
    run_simulation,
    step_contexts,
    step_tables,
    trace_all_beams,
    write_outputs,
    write_volume,
    _data_file_checksums,
)
from pndose.dlra import LowRankState, StreamingContext
from pndose.errors import ConfigError, NumericalError
from pndose.physics.stopping import mix_stopping_power
from pndose.raytracer import BeamSource
from pndose.spatial import Grid3D, build_stencils

from oracles import water_csda_ranges

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.yaml")) + sorted(
    (ROOT / "perfbench" / "configs").glob("*.yaml"))


def scattering_tables(problem, e_mev):
    """The per-energy path: the model table at e_mev, then its entries."""
    return problem.scattering_tables(problem.model_table(e_mev))


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
        (None, "seed", 7),
        ("beams", "energy", 20.0),
        ("output", "dose_volume", "d.vtk"),
        ("output", "depth_profile", "z.csv"),
        ("output", "lateral_profile", "x.csv"),
        ("output", "rank_history", "r.csv"),
        ("output", "manifest", "m.json"),
        ("output", "lateral_depth_cm", 1.5),
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

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: f"{p.parent.name}-{p.stem}")
    def test_load_reads_what_safe_load_reads(self, path):
        # libyaml, where PyYAML has it, builds the dict that the pure-Python
        # safe_load builds from each shipped config (the files are only read)
        if hasattr(yaml, "CSafeLoader"):
            assert YAML_LOADER is yaml.CSafeLoader
        assert ProblemConfig.load(path).resolved == yaml.safe_load(path.read_text())

    @pytest.mark.parametrize("text", ["grid: {nx: 3, ny: [1, 2\n", "grid:\n\tnx: 3\n"],
                             ids=["unclosed", "tab"])
    def test_malformed_yaml_is_a_config_error(self, tmp_path, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="is not valid YAML"):
            ProblemConfig.load(path)

    @pytest.mark.parametrize("model", ["boltzmann", "fokker-planck"])
    @pytest.mark.parametrize("scale", [1.5, -0.1])
    def test_fp_correction_scale_range(self, model, scale):
        raw = smoke_raw(model=model, physics={"fp_correction_scale": scale})
        with pytest.raises(ConfigError, match=re.escape("physics.fp_correction_scale")):
            ProblemConfig.from_dict(raw)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1])
    def test_boltzmann_correction_must_be_boolean(self, value):
        # bool("false") is True: a quoted or numeric value must not pass
        raw = smoke_raw(physics={"boltzmann_correction": value})
        with pytest.raises(ConfigError, match=re.escape("physics.boltzmann_correction")):
            ProblemConfig.from_dict(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("beams", "direction", [0, 0, 0]),
        ("beams", "direction", [0, 1]),
        ("beams", "direction", [0, 0, float("nan")]),
        ("beams", "position_cm", [1.0, 1.0]),
        ("rays", "n_side", 0),
        # a zero or negative weight would give a zero or negative dose, and
        # NaN passes a bare "<= 0" check
        ("beams", "weight", 0.0),
        ("beams", "weight", -1.0),
        ("beams", "weight", float("nan")),
        ("beams", "weight", float("inf")),
        ("beams", "energy_mev", float("nan")),
        ("beams", "sigma_xy_cm", float("nan")),
        ("beams", "sigma_xy_cm", float("inf")),
        ("beams", "sigma_e_rel", float("nan")),
        ("grid", "delta_x_cm", float("inf")),
        ("grid", "delta_z_cm", float("nan")),
        ("transport", "cfl_number", float("inf")),
        ("transport", "cfl_number", float("nan")),
        # a non-finite bound must not read as a misordered range or, for
        # e_max, surface at assembly as a stopping-table error
        ("energy", "e_min_mev", float("inf")),
        ("energy", "e_min_mev", float("nan")),
        ("energy", "e_max_mev", float("inf")),
        ("energy", "e_max_mev", float("nan")),
    ])
    def test_bad_beam_or_ray_value_names_key(self, section, key, value):
        raw = smoke_raw()
        if section == "beams":
            raw["beams"][0][key] = value
            label = f"beams[0].{key}"
        else:
            raw[section][key] = value
            label = f"{section}.{key}"
        # led by the key and a requirement on its value, not one naming it in passing
        with pytest.raises(ConfigError, match="^" + re.escape(label) + " must (not )?be "):
            ProblemConfig.from_dict(raw)

    @pytest.mark.parametrize("section, key, value", [
        ("beams", "energy_mev", "abc"),
        ("beams", "sigma_xy_cm", None),
        ("beams", "weight", [1]),
        ("grid", "nx", "ten"),
        ("grid", "nx", 2.7),
        ("grid", "delta_z_cm", True),
        ("transport", "rank_max", None),
        ("energy", "groups", "x"),
        ("rays", "n_side", None),
        (None, "pn_order", 7.5),
    ])
    def test_bad_scalar_names_key(self, section, key, value):
        # a non-number raises no bare ValueError/TypeError, and an integer
        # field is not truncated from a fractional value
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
        with pytest.raises(ConfigError, match=re.escape(f"{label} must be")):
            ProblemConfig.from_dict(raw)

    @pytest.mark.parametrize("key, value", [
        ("grid.origin_cm", "abc"),
        ("grid.origin_cm", [0, 0]),
        ("grid.origin_cm", [0, 0, 0, 0]),
        ("grid.origin_cm", [0, "a", 0]),
        ("grid.origin_cm", [0, float("inf"), 0]),
        ("grid.origin_cm", None),
        ("phantom.boxes[0].origin_cm", "abc"),
        ("phantom.boxes[0].origin_cm", [0, 0]),
        ("phantom.boxes[0].origin_cm", [True, 0, 0]),
        ("phantom.boxes[0].size_cm", "abc"),
        ("phantom.boxes[0].size_cm", [1, 1, float("nan")]),
        ("phantom.boxes[0].size_cm", 1.0),
    ])
    def test_bad_vector_names_key(self, key, value):
        # no UFuncTypeError, IndexError or ValueError traceback
        raw = smoke_raw()
        raw["phantom"]["boxes"] = [{"origin_cm": [0, 0, 0], "size_cm": [1, 1, 1], "hu": 100.0}]
        if key.startswith("grid."):
            raw["grid"]["origin_cm"] = value
        else:
            raw["phantom"]["boxes"][0][key.rsplit(".", 1)[1]] = value
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be 3 finite numbers")):
            ProblemConfig.from_dict(raw)

    def test_vector_fields_accept_integers_and_tuples(self):
        raw = smoke_raw()
        raw["grid"]["origin_cm"] = (0, 0.0, -1)
        raw["phantom"]["boxes"] = [{"origin_cm": [0, 0, -1], "size_cm": [2, 2, 1], "hu": 100.0}]
        cfg = ProblemConfig.from_dict(raw)
        assert cfg.grid.origin == (0.0, 0.0, -1.0)
        assert np.all(cfg.hu_values.reshape(12, 8, 8)[:4] == 100.0)

    def test_whole_float_is_an_integer(self):
        raw = smoke_raw(pn_order=3.0)
        raw["grid"]["nx"] = 8.0
        cfg = ProblemConfig.from_dict(raw)
        assert (cfg.pn_order, cfg.grid.nx) == (3, 8)
        assert isinstance(cfg.pn_order, int) and isinstance(cfg.grid.nx, int)

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


def schema_keys(schema, prefix=""):
    """Every key path of a schema: nested sections by their dicts, the grid,
    the boxes and the beams by the key tables that their parsers read."""
    tables = {"grid": GRID_KEYS, "phantom.boxes": BOX_KEYS, "beams": BEAM_KEYS}
    keys = set()
    for key, (_, parse) in schema.items():
        path = prefix + key
        nested = parse if isinstance(parse, dict) else tables.get(path)
        keys |= schema_keys(nested, path + ".") if nested else {path}
    return keys


def key_paths(raw, prefix=""):
    """Every key path that a config dict sets, list entries by their first one."""
    keys = set()
    for key, value in raw.items():
        if isinstance(value, list) and value and isinstance(value[0], dict):
            value = value[0]
        keys |= key_paths(value, f"{prefix}{key}.") if isinstance(value, dict) else {prefix + key}
    return keys


class TestSchema:
    # every key of SCHEMA, none at its default
    EVERY_KEY = {
        "name": "every-key",
        "grid": {"nx": 4, "ny": 3, "nz": 5, "delta_x_cm": 0.2, "delta_y_cm": 0.3,
                 "delta_z_cm": 0.4, "origin_cm": [1.0, -1.0, 0.5]},
        "phantom": {"background_hu": 50.0, "volume_file": "hu.txt",
                    "boxes": [{"origin_cm": [1.0, -1.0, 0.5], "size_cm": [0.4, 0.3, 0.4],
                               "hu": -400.0}]},
        "beams": [{"direction": [0, 0, 2], "energy_mev": 30.0, "position_cm": [1.4, -0.5, 0.5],
                   "weight": 2.0, "sigma_xy_cm": 0.1, "sigma_e_rel": 0.02}],
        "model": "fokker-planck",
        "pn_order": 3,
        "transport": {"truncation_tolerance": 0.05, "rank_min": 3, "rank_max": 9,
                      "cfl_number": 0.3},
        "energy": {"e_min_mev": 2.0, "e_max_mev": 35.0, "groups": 16},
        "physics": {"boltzmann_correction": False, "fp_correction_scale": 0.25},
        "rays": {"n_side": 7},
        "output": {"directory": "out"},
    }

    def test_every_key_reaches_its_field(self, tmp_path):
        assert key_paths(self.EVERY_KEY) == schema_keys(SCHEMA)
        hu = np.arange(60.0)
        (tmp_path / "hu.txt").write_text("4 3 5\n" + "\n".join(map(str, hu)) + "\n")
        cfg = ProblemConfig.from_dict(self.EVERY_KEY, base_dir=tmp_path)
        assert cfg.name == "every-key" and cfg.model == "fokker-planck"
        assert cfg.grid == Grid3D(4, 3, 5, 0.2, 0.3, 0.4, origin=(1.0, -1.0, 0.5))
        assert np.array_equal(cfg.hu_values, hu)      # the volume file wins over the boxes
        assert cfg.source_files == [tmp_path / "hu.txt"]
        (beam,) = cfg.beams
        assert beam == BeamSource((0, 0, 1), 30.0, (1.4, -0.5, 0.5), weight=2.0,
                                  sigma_xy_cm=0.1, sigma_e_rel=0.02)
        assert beam.sigma_e_mev == 0.02 * 30.0
        settings = {name: getattr(cfg, name) for name in (
            "pn_order", "truncation_tolerance", "rank_min", "rank_max", "cfl_number",
            "e_min_mev", "e_max_mev", "energy_groups", "boltzmann_correction",
            "fp_correction_scale", "ray_n_side", "output_directory")}
        assert settings == {
            "pn_order": 3, "truncation_tolerance": 0.05, "rank_min": 3, "rank_max": 9,
            "cfl_number": 0.3, "e_min_mev": 2.0, "e_max_mev": 35.0, "energy_groups": 16,
            "boltzmann_correction": False, "fp_correction_scale": 0.25, "ray_n_side": 7,
            "output_directory": tmp_path / "out",
        }
        defaults = ProblemConfig(grid=cfg.grid, hu_values=hu, beams=cfg.beams)
        for name in settings:
            assert getattr(defaults, name) != settings[name], name

    @pytest.mark.parametrize("text", ["a b c\n1\n", "1 1 2\n1\nx\n"])
    def test_malformed_volume_file_names_key(self, tmp_path, text):
        (tmp_path / "hu.txt").write_text(text)
        raw = smoke_raw(phantom={"volume_file": "hu.txt"})
        with pytest.raises(ConfigError, match=re.escape("cannot read phantom.volume_file")):
            ProblemConfig.from_dict(raw, base_dir=tmp_path)

    def test_every_box_key_reaches_its_field(self):
        raw = smoke_raw()
        raw["phantom"] = {"background_hu": 50.0,
                          "boxes": [{"origin_cm": [0, 0, 0], "size_cm": [1, 1, 1], "hu": -400.0}]}
        hu = ProblemConfig.from_dict(raw).hu_values.reshape(12, 8, 8)
        assert np.all(hu[:4, :4, :4] == -400.0)
        assert np.count_nonzero(hu == 50.0) == hu.size - 64

    def test_required_keys_alone_give_the_dataclass_defaults(self):
        raw = {
            "grid": {"nx": 4, "ny": 3, "nz": 5, "delta_x_cm": 0.2, "delta_y_cm": 0.3,
                     "delta_z_cm": 0.4},
            "beams": [{"direction": [0, 0, 1], "energy_mev": 30.0, "position_cm": [0.4, 0.4, 0]}],
        }
        cfg = ProblemConfig.from_dict(raw)
        grid = Grid3D(4, 3, 5, 0.2, 0.3, 0.4)
        beam = BeamSource((0, 0, 1), 30.0, (0.4, 0.4, 0))
        assert cfg.grid == grid and cfg.beams == [beam]
        expected = ProblemConfig(grid=grid, hu_values=np.zeros(60), beams=[beam], resolved=raw)
        for f in dataclasses.fields(ProblemConfig):
            assert np.array_equal(getattr(cfg, f.name), getattr(expected, f.name)), f.name
        assert cfg.output_names == OUTPUT_NAMES

    @pytest.mark.parametrize("section", ["transport", "energy", "physics", "rays", "phantom",
                                         "output"])
    def test_null_section_reads_as_empty(self, section):
        raw = smoke_raw()
        raw.pop(section, None)
        cfg = ProblemConfig.from_dict(raw)
        nulled = ProblemConfig.from_dict(smoke_raw(**{section: None}))
        for f in dataclasses.fields(ProblemConfig):
            if f.name != "resolved":
                assert np.array_equal(getattr(nulled, f.name), getattr(cfg, f.name)), f.name

    @pytest.mark.parametrize("section, value, message", [
        ("transport", [1], "transport must be a mapping"),
        ("output", [1], "output must be a mapping"),
        ("grid", [1, 2], "grid must be a mapping"),
        ("grid", None, "grid section is missing field 'nx'"),
        ("beams", {"energy_mev": 30}, "beams must be a list"),
        ("beams", 5, "beams must be a list"),
        ("beams", ["abc"], "beams[0] must be a mapping"),
        ("phantom", {"boxes": {"a": 1}}, "phantom.boxes must be a list"),
        ("phantom", {"boxes": ["x"]}, "phantom.boxes[0] must be a mapping"),
        ("phantom", {"boxes": [{"origin_cm": [0, 0, 0], "hu": 1.0}]},
         "phantom.boxes[0] is missing field 'size_cm'"),
    ])
    def test_malformed_section_names_key(self, section, value, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ProblemConfig.from_dict(smoke_raw(**{section: value}))

    @pytest.mark.parametrize("section, key", [("output", "directory"),
                                              ("phantom", "volume_file")])
    def test_string_setting_names_key(self, section, key):
        raw = smoke_raw()
        raw.setdefault(section, {})[key] = 5
        with pytest.raises(ConfigError, match=re.escape(f"{section}.{key} must be a string")):
            ProblemConfig.from_dict(raw)

    def test_python_built_config_writes_outputs(self, tmp_path):
        # a config built in Python writes the same fixed files as a file's
        cfg = ProblemConfig(
            grid=Grid3D(3, 3, 4, 0.2, 0.2, 0.2), hu_values=np.zeros(36),
            beams=[BeamSource((0, 0, 1), 8.0, (0.3, 0.3, 0.0), sigma_xy_cm=0.05)],
            pn_order=1, energy_groups=8, ray_n_side=1, cfl_number=0.2,
            output_directory=tmp_path,
        )
        write_outputs(run_simulation(cfg, solver="dlra"))
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(OUTPUT_NAMES.values())


class TestSimulation:
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

    def test_fixed_rank_with_zero_threshold(self):
        # rank_min == rank_max below the augmented rank 2r: every step keeps
        # that rank, where an adaptive rank_max would raise
        raw = smoke_raw()
        raw["transport"] = {"cfl_number": 0.2, "truncation_tolerance": 0.0,
                            "rank_min": 2, "rank_max": 2}
        res = run_simulation(ProblemConfig.from_dict(raw), solver="dlra")
        assert {rank for _, _, rank in res.rank_history} == {2}
        assert res.diagnostics["max_truncation_tail"] > 0.0
        assert np.isfinite(res.dose.deposited).all()

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
        # the moment tables hold the elements of water, the smoke phantom
        assert d["moment_table_elements"] == ["H", "C", "N", "O", "P", "S", "Cl"]
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

    def test_start_bases_do_not_change_the_dose(self, smoke_result, monkeypatch):
        # S starts at zero, so the first augmented step and its truncation
        # forget the starting bases: a random orthonormal start gives the
        # bytes of the fixed identity start
        rng = np.random.default_rng(11)

        def random_zero(cls, n, m, rank):
            u = np.linalg.qr(rng.standard_normal((n, rank)))[0]
            v = np.linalg.qr(rng.standard_normal((m, rank)))[0]
            return cls(u=u, s=np.zeros((rank, rank)), v=v)

        monkeypatch.setattr(LowRankState, "zero", classmethod(random_zero))
        res = run_simulation(ProblemConfig.from_dict(smoke_raw()), solver="dlra")
        assert res.dose.deposited.tobytes() == smoke_result.dose.deposited.tobytes()

    def test_fokker_planck_model_runs(self):
        raw = smoke_raw(model="fokker-planck")
        raw["physics"] = {"fp_correction_scale": 0.5}
        cfg = ProblemConfig.from_dict(raw)
        res = run_simulation(cfg, solver="dlra")
        assert np.isfinite(res.dose.deposited).all()
        assert res.diagnostics["tail_violations"] == 0


class TestNonFiniteState:
    @pytest.mark.parametrize("solver", ["dlra", "fullrank"])
    @pytest.mark.usefixtures("nan_uncollided_flux")
    def test_nan_source_raises_numerical_error(self, solver):
        with pytest.raises(NumericalError, match="non-finite"):
            run_simulation(ProblemConfig.from_dict(smoke_raw()), solver=solver)

    def test_low_rank_solver_checks_s_before_truncating(self, monkeypatch):
        # orthonormal bases around a NaN coefficient: the check of S, not
        # the SVD of the truncation, reports it
        def nan_streaming_step(state, dt, ctx):
            s = state.s.copy()
            s[0, 0] = np.nan
            return LowRankState(u=state.u, s=s, v=state.v)

        monkeypatch.setattr("pndose.driver.streaming_step", nan_streaming_step)
        with pytest.raises(NumericalError, match=r"non-finite low-rank state: max \|S\| nan"):
            run_simulation(ProblemConfig.from_dict(smoke_raw()), solver="dlra")


class TestBenchmarkReference:
    def test_smoke_dose_matches_the_benchmark_reference(self):
        # the benchmark's own reference volume and rel L2 bound, so that a
        # change that moves the dose fails here and not only in the benchmark
        result = run_simulation(ProblemConfig.load(ROOT / "perfbench/configs/smoke.yaml"),
                                solver="dlra")
        reference = np.load(ROOT / "perfbench/reference/smoke.npy")
        deposited = result.dose.deposited
        assert deposited.shape == reference.shape
        assert np.linalg.norm(deposited - reference) <= 1e-10 * np.linalg.norm(reference)


class TestStepContexts:
    @pytest.mark.parametrize("solver", ["fullrank", "dlra"])
    def test_no_solver_builds_a_per_step_stencil_operator(self, monkeypatch, solver):
        # both solvers apply the one stored stencil stack to S^-1 x: a step's
        # context is frozen, holds 1/S, the stack and the operators and
        # nothing else, and the stack leaves the run as it entered it
        assert [f.name for f in dataclasses.fields(StreamingContext)] == ["inv_s", "stencils", "ops"]
        contexts = []

        def recording(*args):
            contexts.append(StreamingContext(*args))
            return contexts[-1]

        monkeypatch.setattr("pndose.driver.StreamingContext", recording)
        result = run_simulation(ProblemConfig.from_dict(smoke_raw()), solver=solver)
        assert len(contexts) == result.diagnostics["n_steps"]
        stencils = result.problem.stencils
        fresh = build_stencils(result.problem.grid).stacked
        assert np.array_equal(stencils.stacked.data, fresh.data)
        for ctx in contexts:
            assert ctx.stencils is stencils
            assert set(vars(ctx)) == {"inv_s", "stencils", "ops"}
        with pytest.raises(dataclasses.FrozenInstanceError):
            contexts[0].inv_s = contexts[0].inv_s

    @pytest.mark.parametrize("model, physics", [
        ("boltzmann", {}),
        ("boltzmann", {"boltzmann_correction": False}),
        ("fokker-planck", {"fp_correction_scale": 0.5}),
        ("fokker-planck", {"fp_correction_scale": 0.0}),
    ])
    def test_run_tables_equal_the_per_step_evaluation(self, model, physics):
        # step k's S, g_diags and sigma_t from the tables of the run equal,
        # bit for bit and in memory layout, a per-step evaluation at its
        # mid-step energy
        raw = smoke_raw(model=model, physics=physics)
        raw["phantom"] = {
            "background_hu": 0.0,
            "boxes": [{"origin_cm": [0, 0, 1.0], "size_cm": [2, 2, 1.0], "hu": 700.0}],
        }
        problem = assemble_problem(ProblemConfig.from_dict(raw))
        edges = pseudo_time_edges(problem)
        tables = step_tables(problem, edges)
        fluxes, _ = trace_all_beams(problem)
        t_ms = [real_sph_eval(problem.config.pn_order, b.direction)
                for b in problem.config.beams]
        layout = ("C_CONTIGUOUS", "F_CONTIGUOUS")
        for k in range(len(edges) - 1):
            e_mid = 0.5 * (edges[k] + edges[k + 1])
            assert tables.energies[k] == e_mid
            stream_ctx, scat_ctx = step_contexts(problem, tables, k, fluxes, t_ms)
            s_field = mix_stopping_power(problem.material.weights, problem.material.density,
                                         e_mid)
            assert np.array_equal(problem.stopping_from(tables.stopping[k]), s_field)
            assert np.array_equal(stream_ctx.inv_s, 1.0 / s_field)
            assert np.array_equal(scat_ctx.inv_s, 1.0 / s_field)
            g_diags, sigma_t = scattering_tables(problem, e_mid)
            for run, step in ((scat_ctx.g_diags, g_diags), (scat_ctx.sigma_t, sigma_t)):
                assert np.array_equal(run, step)
                assert [run.flags[f] for f in layout] == [step.flags[f] for f in layout]


class TestRayTracerCoupling:
    def test_ray_march_and_operator_diagnostics(self, monkeypatch):
        # the second beam sits 0.1 cm inside a corner: of its 5 x 5 rays
        # (offsets 0, +-0.36, +-0.72 cm) only the 3 x 3 with x, y >= 0 enter
        raw = smoke_raw()
        raw["beams"].append(
            {"direction": [0, 0, 1], "energy_mev": 20.0, "position_cm": [0.1, 0.1, 0.0]}
        )
        marches = []
        original = raytracer.march_ray

        def recording(segments, *args, **kwargs):
            marches.append(segments)
            return original(segments, *args, **kwargs)

        monkeypatch.setattr(raytracer, "march_ray", recording)
        d = run_simulation(ProblemConfig.from_dict(raw), solver="dlra").diagnostics
        assert d["rays_per_beam"] == [25, 9]
        assert d["rays_missed_per_beam"] == [0, 16]
        assert d["marches_per_beam"] == [1, 1]
        assert d["energy_operator_assemblies"] == 1
        # both beams step through water cells of one length: the second
        # beam's march reuses the first one's factors
        assert d["cn_factorizations"] == 1
        # two halves of n_sub steps per segment marched
        n_sub = [max(1, math.ceil(0.5 * length / raytracer.MAX_STEP_CM))
                 for m in marches for _, length, _ in m]
        assert len(marches) == 2 and d["cn_steps"] == sum(2 * k for k in n_sub) > 0
        assert 0.0 < d["cn_factor_s"] and 0.0 < d["energy_operator_s"]

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
            scalar = [n_i @ scattering_tables(problem, float(e))[1] for e in energies.ravel()]
            assert np.array_equal(sigma_t_fn(energies), np.reshape(scalar, energies.shape))
        # the array path of the tables equals the stacked scalar calls
        g_diags, sigma_t = scattering_tables(problem, energies)
        per_energy = [scattering_tables(problem, float(e)) for e in energies.ravel()]
        assert np.array_equal(
            g_diags, np.stack([g for g, _ in per_energy], axis=1).reshape(g_diags.shape)
        )
        assert np.array_equal(
            sigma_t, np.stack([t for _, t in per_energy], axis=1).reshape(sigma_t.shape)
        )


    @staticmethod
    def layered_problem():
        """The smoke problem with a lung and a bone layer: three materials."""
        raw = smoke_raw()
        raw["phantom"] = {
            "background_hu": 0.0,
            "boxes": [
                {"origin_cm": [0, 0, 1.0], "size_cm": [2, 2, 0.5], "hu": -400.0},
                {"origin_cm": [0, 0, 2.0], "size_cm": [2, 2, 0.5], "hu": 700.0},
            ],
        }
        return assemble_problem(ProblemConfig.from_dict(raw))

    def test_sigma_t_callables_equal_the_per_material_form(self):
        # the per-element table is shared, so each callable must give what
        # evaluating the table for that material alone gives, bit for bit,
        # whichever material and energy array comes first
        problem = self.layered_problem()
        keys, coefficients = material_coefficients(problem)
        atomic = problem.material.atomic_densities
        assert len(coefficients) == 3

        def per_material(e, n_i):
            per_atom = np.moveaxis(problem.scattering_entries(problem.model_table(e))[1], 0, -1)
            per_energy = np.ascontiguousarray(per_atom).reshape(-1, 1, per_atom.shape[-1])
            return np.matmul(per_energy, n_i[:, None])[:, 0, 0].reshape(e.shape)

        quadrature, edges = problem.space.quadrature()[0], problem.space.edges
        for e in (quadrature, edges, quadrature):
            for key in (2, 0, 1):
                n_i = atomic[int(np.argmax(keys == key))]
                assert np.array_equal(coefficients[key][2](e), per_material(e, n_i))

    def test_model_table_runs_once_per_trace(self, monkeypatch):
        # every material's sigma_t reads one per-element table, evaluated
        # at the quadrature energies once per ray trace
        problem = self.layered_problem()
        calls = []
        original = problem.model_table

        def counting(e_mev):
            calls.append(np.shape(e_mev))
            return original(e_mev)

        monkeypatch.setattr(problem, "model_table", counting)
        _, counts = trace_all_beams(problem)
        assert counts["energy_operator_assemblies"] == 3
        assert calls == [problem.space.quadrature()[0].shape]


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

    def test_compare_against_zero_reference_is_inf(self, tmp_path):
        # a nonzero dose against an all-zero reference differs by all of it
        grid = Grid3D(3, 3, 3, 0.1, 0.1, 0.1)
        path_a, path_b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        write_volume(path_a, grid, {"deposited_energy": np.arange(27.0)})
        write_volume(path_b, grid, {"deposited_energy": np.zeros(27)})
        assert compare_volumes(path_a, path_b) == {"rel_l2": math.inf, "rel_linf": math.inf}
        assert compare_volumes(path_b, path_b) == {"rel_l2": 0.0, "rel_linf": 0.0}

    @pytest.mark.parametrize("other", [
        Grid3D(3, 3, 3, 0.5, 0.5, 0.5),
        Grid3D(3, 3, 3, 0.1, 0.1, 0.1, origin=(0.0, 0.0, 1.0)),
        Grid3D(3, 3, 4, 0.1, 0.1, 0.1),
    ], ids=["spacing", "origin", "shape"])
    def test_compare_rejects_volumes_on_different_grids(self, tmp_path, other):
        grid = Grid3D(3, 3, 3, 0.1, 0.1, 0.1)
        path_a, path_b = tmp_path / "a.vtk", tmp_path / "b.vtk"
        write_volume(path_a, grid, {"deposited_energy": np.ones(grid.n_cells)})
        write_volume(path_b, other, {"deposited_energy": np.ones(other.n_cells)})
        with pytest.raises(ConfigError, match="different grids") as info:
            compare_volumes(path_a, path_b)
        message = str(info.value)
        assert f"{path_a} on {read_volume(path_a)[0]}" in message
        assert f"{path_b} on {read_volume(path_b)[0]}" in message

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
        for key in ("energy_operator_assemblies", "cn_factorizations", "cn_steps"):
            assert manifest["diagnostics"][key] == res2.diagnostics[key] > 0
        for key in ("energy_operator_s", "cn_factor_s"):
            assert isinstance(manifest["diagnostics"][key], float)
        # wall times are written to seven significant digits (%.6e)
        assert manifest["diagnostics"]["phase_s"] == {
            phase: float(f"{seconds:.6e}")
            for phase, seconds in res2.diagnostics["phase_s"].items()}
        assert manifest["diagnostics"]["moment_table_elements"] == list(
            res2.problem.moments.elements)
        assert "H.csv" in manifest["data_checksums"]
        assert "gauss_legendre_512.csv" in manifest["data_checksums"]

    def test_manifest_size_does_not_depend_on_wall_times(self, tmp_path):
        raw = smoke_raw()
        raw["output"] = {"directory": str(tmp_path / "run")}
        res = run_simulation(ProblemConfig.from_dict(raw))
        d = res.diagnostics
        sizes = []
        for seconds in (0.5, 12.25):
            d["runtime_s"] = d["energy_operator_s"] = d["cn_factor_s"] = seconds
            d["phase_s"] = dict.fromkeys(d["phase_s"], seconds)
            text = (write_outputs(res) / "manifest.json").read_text()
            sizes.append(len(text.encode()))
            assert f'"runtime_s": {seconds:.6e},' in text
            written = json.loads(text)["diagnostics"]
            for key in ("runtime_s", "energy_operator_s", "cn_factor_s"):
                assert written[key] == seconds and isinstance(written[key], float)
            assert written["phase_s"] == d["phase_s"]
            assert written["n_steps"] == d["n_steps"]
        assert sizes[0] == sizes[1]

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
