"""Command-line interface and exit codes."""

import json
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from pndose.cli import main
from pndose.driver import ProblemConfig, read_volume
from pndose.errors import ConfigError
from pndose.spatial import Grid3D

ROOT = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted((ROOT / "configs").glob("*.yaml")) + sorted(
    (ROOT / "perfbench" / "configs").glob("*.yaml"))


def assert_process_peak_rss(out):
    """The memory line ends with the process's peak RSS, which never falls."""
    found = re.search(r"^memory: .*, process peak RSS ([\d.]+) MiB$", out, re.MULTILINE)
    assert found, out
    now = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert 0.0 < float(found.group(1)) <= now + 0.05


def smoke_config(tmp_path, **overrides):
    raw = {
        "name": "cli-smoke",
        "grid": {
            "nx": 6, "ny": 6, "nz": 8,
            "delta_x_cm": 0.25, "delta_y_cm": 0.25, "delta_z_cm": 0.25,
        },
        "phantom": {"background_hu": 0.0},
        "beams": [
            {"direction": [0, 0, 1], "energy_mev": 15.0, "position_cm": [0.75, 0.75, 0.0]}
        ],
        "pn_order": 2,
        "transport": {"cfl_number": 0.2},
        "energy": {"groups": 32},
        "rays": {"n_side": 3},
        "output": {"directory": str(tmp_path / "out")},
    }
    raw.update(overrides)
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


class TestValidate:
    def test_good_config(self, tmp_path, capsys):
        path = smoke_config(tmp_path)
        assert main(["validate", str(path)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_malformed_config_names_field(self, tmp_path, capsys):
        path = smoke_config(tmp_path, model="magnetohydrodynamics")
        assert main(["validate", str(path)]) == 2
        assert "model" in capsys.readouterr().err

    def test_fp_correction_scale_out_of_range(self, tmp_path, capsys):
        path = smoke_config(
            tmp_path, model="fokker-planck", physics={"fp_correction_scale": 1.5}
        )
        assert main(["validate", str(path)]) == 2
        assert "physics.fp_correction_scale" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, code, named", [
        ({"phantom": {"background_hu": float("nan")}}, 3, "HU"),
        ({"rays": {"n_side": 0}}, 2, "rays.n_side"),
        ({"transport": [1]}, 2, "transport must be a mapping"),
        ({"grid": {"nx": 6, "ny": 6, "nz": 8, "delta_x_cm": float("inf"),
                   "delta_y_cm": 0.25, "delta_z_cm": 0.25}}, 2, "grid.delta_x_cm"),
        ({"energy": {"groups": 32, "e_max_mev": float("inf")}}, 2, "energy.e_max_mev must be finite"),
    ])
    def test_bad_input_exits_with_its_category(self, tmp_path, capsys, overrides, code, named):
        # a physics-data error (3) or a config error (2), not a traceback (1)
        path = smoke_config(tmp_path, **overrides)
        assert main(["validate", str(path)]) == code
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_validates(self, tmp_path, capsys, path):
        # on a copy, so that its output directory lands in tmp_path
        copy = tmp_path / path.name
        shutil.copyfile(path, copy)
        assert main(["validate", str(copy)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_grid_without_active_axis_fails_at_load(self, tmp_path, capsys):
        # refused when the config is read, before assembly and the ray trace
        path = smoke_config(tmp_path, grid={"nx": 1, "ny": 1, "nz": 1, "delta_x_cm": 0.25,
                                            "delta_y_cm": 0.25, "delta_z_cm": 0.25})
        with pytest.raises(ConfigError, match="grid has no active axis"):
            ProblemConfig.load(path)
        assert main(["validate", str(path)]) == 2
        assert "grid has no active axis" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.yaml")]) == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--frobnicate", "x"])
        assert exc.value.code == 2


class TestRunCompare:
    def test_run_oracle_compare(self, tmp_path, capsys):
        run_dir = tmp_path / "out"
        path = smoke_config(tmp_path)
        assert main(["run", str(path)]) == 0
        out = capsys.readouterr().out
        assert ("rays: 9 hit, 0 missed; 1 march; 1 energy operator; "
                "1 Crank-Nicolson factorization\n") in out
        assert re.search(r"^phases: assembly [\d.]+ s, ray trace [\d.]+ s, contexts [\d.]+ s, "
                         r"streaming [\d.]+ s, scattering [\d.]+ s, truncation [\d.]+ s, "
                         r"uncollided tally [\d.]+ s$", out, re.MULTILINE)
        assert_process_peak_rss(out)
        dose_dlra = run_dir / "dose.vtk"
        assert dose_dlra.exists()
        dlra_copy = tmp_path / "dose_dlra.vtk"
        dlra_copy.write_bytes(dose_dlra.read_bytes())

        assert main(["oracle", str(path)]) == 0
        # the oracle's peak memory: the state (288 cells x 9 moments) and
        # the state plus its workspace, as the manifest counts them, in MiB
        d = json.loads((run_dir / "manifest.json").read_text())["diagnostics"]
        assert d["peak_state_numbers"] == 288 * 9 < d["peak_transient_numbers"]
        out = capsys.readouterr().out
        assert (f"memory: peak state {288 * 9 * 8 / 2**20:.3f} MiB, peak with transients "
                f"{d['peak_transient_numbers'] * 8 / 2**20:.3f} MiB, process peak RSS ") in out
        assert_process_peak_rss(out)
        assert main(["compare", str(dlra_copy), str(dose_dlra)]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "relative L2" in ln][0]
        assert float(line.split()[-1]) < 0.02

    def test_bad_output_name_fails_before_compute(self, tmp_path, capsys):
        # the output files' names are fixed, so a key naming one is unknown
        path = smoke_config(tmp_path, output={"directory": str(tmp_path / "out"),
                                              "dose_volume": "d.vtk"})
        assert main(["run", str(path)]) == 2
        assert "unknown config key 'output.dose_volume'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.usefixtures("nan_uncollided_flux")
    def test_non_finite_run_exits_4(self, tmp_path, capsys):
        # a NaN in the uncollided flux ends the run as a numerical error
        assert main(["run", str(smoke_config(tmp_path))]) == 4
        assert "non-finite" in capsys.readouterr().err

    def test_compare_identical(self, tmp_path, capsys):
        from pndose.driver import write_volume

        grid = Grid3D(3, 3, 3, 0.1, 0.1, 0.1)
        path = tmp_path / "a.vtk"
        write_volume(path, grid, {"deposited_energy": np.arange(27.0)})
        assert main(["compare", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "relative L2:   0.000000e+00" in out

    @staticmethod
    def volume(tmp_path):
        from pndose.driver import write_volume

        path = tmp_path / "a.vtk"
        write_volume(path, Grid3D(3, 3, 3, 0.1, 0.1, 0.1), {"deposited_energy": np.arange(27.0)})
        return path

    def test_truncated_volume_exits_5(self, tmp_path, capsys):
        # cut after 10 of the 27 values: no silent short array, no traceback
        path = self.volume(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: lines.index("LOOKUP_TABLE default") + 11]) + "\n")
        assert main(["compare", str(path), str(path)]) == 5
        err = capsys.readouterr().err
        assert str(path) in err and "10 of 27 values" in err

    def test_volume_without_dimensions_exits_5(self, tmp_path, capsys):
        path = self.volume(tmp_path)
        text = path.read_text()
        path.write_text(text.replace("DIMENSIONS 3 3 3\n", ""))
        assert main(["compare", str(path), str(path)]) == 5
        err = capsys.readouterr().err
        assert str(path) in err and "DIMENSIONS" in err

    def test_unknown_array_exits_5(self, tmp_path, capsys):
        path = self.volume(tmp_path)
        assert main(["compare", str(path), str(path), "--array", "nope"]) == 5
        err = capsys.readouterr().err
        assert str(path) in err and "'nope'" in err and "deposited_energy" in err

    def test_volumes_with_different_spacing_exit_2(self, tmp_path, capsys):
        from pndose.driver import write_volume

        path = self.volume(tmp_path)
        coarse = tmp_path / "coarse.vtk"
        write_volume(coarse, Grid3D(3, 3, 3, 0.5, 0.5, 0.5), {"deposited_energy": np.arange(27.0)})
        assert main(["compare", str(path), str(coarse)]) == 2
        err = capsys.readouterr().err
        assert "different grids" in err and str(path) in err and str(coarse) in err

    def test_compare_against_zero_reports_inf(self, tmp_path, capsys):
        from pndose.driver import write_volume

        path = self.volume(tmp_path)
        zero = tmp_path / "zero.vtk"
        write_volume(zero, Grid3D(3, 3, 3, 0.1, 0.1, 0.1), {"deposited_energy": np.zeros(27)})
        assert main(["compare", str(path), str(zero)]) == 0
        assert "relative L2:   inf" in capsys.readouterr().out


class TestTables:
    def test_tables_check(self, capsys):
        assert main(["tables", "check"]) == 0
        out = capsys.readouterr().out
        assert "stopping power" in out and "scattering moments" in out
        assert "Gauss-Legendre rule, 512 nodes: ok" in out

    def test_tables_check_refuses_an_altered_gauss_rule(self, tmp_path, monkeypatch, capsys):
        from pndose.physics.moliere import gauss_rule_file

        name = gauss_rule_file(256)
        rows = (ROOT / "src" / "pndose" / "data" / name).read_text().splitlines()
        x, w = rows[1].split(",")
        rows[1] = f"{float(x) + 1e-12!r},{w}"
        (tmp_path / name).write_text("\n".join(rows) + "\n")
        monkeypatch.setenv("PNDOSE_DATA_DIR", str(tmp_path))
        assert main(["tables", "check"]) == 3
        assert f"{name}: deviates from leggauss(256)" in capsys.readouterr().err


class TestImportFootprint:
    def test_entry_points_do_not_load_scipy_special(self):
        # scipy.special adds ~3.7 MiB to every run's peak RSS; only the
        # tests use it. A fresh interpreter sees what a run imports.
        code = "import sys, pndose.driver, pndose.cli; print('scipy.special' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "False"
