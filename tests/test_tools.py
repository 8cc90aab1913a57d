"""Command-line tools under tools/."""

import hashlib
import importlib.util
from pathlib import Path

import yaml

from pndose import driver

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fingerprint_hashes(tool, capsys, *argv):
    """{name: value} of the one line dose_fingerprint prints for argv: the
    hashes and the peak_transient_numbers."""
    assert tool.main(list(argv)) == 0
    (line,) = capsys.readouterr().out.splitlines()
    _, hashes = line.split(": ")
    return dict(field.split("=") for field in hashes.split())


class TestDoseFingerprint:
    def test_repeatable_and_sensitive_to_physics(self, tmp_path, capsys):
        raw = yaml.safe_load((ROOT / "perfbench" / "configs" / "smoke.yaml").read_text())
        raw["model"] = "fokker-planck"
        config = tmp_path / "smoke.yaml"
        config.write_text(yaml.safe_dump(raw))
        tool = load_tool("dose_fingerprint")

        first = fingerprint_hashes(tool, capsys, str(config))
        assert set(first) == {"deposited", "rank_history", "diagnostics", "tables",
                              "peak_transient_numbers"}
        result = driver.run_simulation(driver.ProblemConfig.load(config))
        assert first["peak_transient_numbers"] == str(result.diagnostics["peak_transient_numbers"])
        moments = driver.assemble_problem(driver.ProblemConfig.load(config)).moments
        tables = hashlib.sha256(moments.g.tobytes() + moments.xi1.tobytes())
        assert first["tables"] == tables.hexdigest()
        assert fingerprint_hashes(tool, capsys, str(config)) == first
        uncorrected = fingerprint_hashes(
            tool, capsys, str(config), "--set", "physics.fp_correction_scale=0"
        )
        assert uncorrected["deposited"] != first["deposited"]
        # the correction acts after the tables, which stay as they were
        assert uncorrected["tables"] == first["tables"]
