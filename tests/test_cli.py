"""Command-line interface and exit codes."""

import re

import numpy as np
import pytest
import yaml

from pndose.cli import main
from pndose.driver import read_volume
from pndose.spatial import Grid3D


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
        assert "rays: 9 hit, 0 missed; 1 march; 1 energy operator" in out
        assert re.search(r"^phases: assembly [\d.]+ s, ray trace [\d.]+ s, contexts [\d.]+ s, "
                         r"streaming [\d.]+ s, scattering [\d.]+ s, truncation [\d.]+ s, "
                         r"uncollided tally [\d.]+ s$", out, re.MULTILINE)
        dose_dlra = run_dir / "dose.vtk"
        assert dose_dlra.exists()
        dlra_copy = tmp_path / "dose_dlra.vtk"
        dlra_copy.write_bytes(dose_dlra.read_bytes())

        assert main(["oracle", str(path)]) == 0
        assert main(["compare", str(dlra_copy), str(dose_dlra)]) == 0
        out = capsys.readouterr().out
        line = [ln for ln in out.splitlines() if "relative L2" in ln][0]
        assert float(line.split()[-1]) < 0.02

    def test_compare_identical(self, tmp_path, capsys):
        from pndose.driver import write_volume

        grid = Grid3D(3, 3, 3, 0.1, 0.1, 0.1)
        path = tmp_path / "a.vtk"
        write_volume(path, grid, {"deposited_energy": np.arange(27.0)})
        assert main(["compare", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "relative L2:   0.000000e+00" in out


class TestTables:
    def test_tables_check(self, capsys):
        assert main(["tables", "check"]) == 0
        out = capsys.readouterr().out
        assert "stopping power" in out and "scattering moments" in out
