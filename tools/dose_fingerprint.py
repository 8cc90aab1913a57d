#!/usr/bin/env python3
"""Print SHA-256 fingerprints of pndose runs, to check bit-identity.

For each config the script runs one solve and prints the SHA-256 of the
deposited energy (its float64 bytes), of the rank history and of the
diagnostics without their wall-time fields. Two source trees that print
the same three hashes for a config gave bit-identical results. A fourth
hash, of the run's scattering moment tables (the bytes of
MomentTables.g, then of .xi1), shows a change to the tables without
reading a dose. It covers all 12 element rows, including the rows of
elements the phantom lacks, which the run leaves at zero rather than
tabulating them. Beside the hashes the script prints the run's
peak_transient_numbers, the float64 entries the solver held at its peak
(state plus workspace), so that a change to the solvers' memory shows as
a number, not only as a changed diagnostics hash.

Run from the repository root, with the BLAS thread count pinned (doses
depend on it):

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tools/dose_fingerprint.py \\
        configs/*.yaml --solver dlra

Options:
    --solver dlra|fullrank   the low-rank solver (default) or the oracle;
    --set KEY=VALUE          override a config entry before the run, KEY a
                             top-level key or SECTION.KEY, VALUE in YAML
                             (repeatable; e.g. --set physics.fp_correction_scale=0);
    --volumes DIR            also write each dose as DIR/<config>_<solver>.vtk,
                             for `pndose compare`.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

import yaml

from pndose import driver


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def apply_override(raw: dict, assignment: str):
    key, sep, value = assignment.partition("=")
    if not sep:
        raise SystemExit(f"--set needs KEY=VALUE, got {assignment!r}")
    *sections, name = key.split(".")
    target = raw
    for section in sections:
        target = target.setdefault(section, {})
    target[name] = yaml.safe_load(value)


def fingerprint(path: Path, solver: str, overrides, volumes):
    raw = yaml.safe_load(path.read_text())
    raw.pop("output", None)
    for assignment in overrides:
        apply_override(raw, assignment)
    config = driver.ProblemConfig.from_dict(raw, base_dir=path.parent)
    result = driver.run_simulation(config, solver=solver)
    diagnostics = {k: v for k, v in result.diagnostics.items()
                   if k not in driver.TIMING_DIAGNOSTICS}
    moments = result.problem.moments
    if volumes is not None:
        volumes.mkdir(parents=True, exist_ok=True)
        driver.write_volume(
            volumes / f"{path.stem}_{solver}.vtk", result.problem.grid,
            {"deposited_energy": result.dose.deposited, "dose": result.dose.dose},
        )
    return {
        "deposited": sha256(result.dose.deposited.tobytes()),
        "rank_history": sha256(json.dumps(result.rank_history).encode()),
        "diagnostics": sha256(
            json.dumps(driver._jsonable(diagnostics), sort_keys=True).encode()
        ),
        "tables": sha256(moments.g.tobytes() + moments.xi1.tobytes()),
        "peak_transient_numbers": result.diagnostics["peak_transient_numbers"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="+", type=Path)
    parser.add_argument("--solver", choices=sorted(driver.SOLVERS), default="dlra")
    parser.add_argument("--set", dest="overrides", action="append", default=[])
    parser.add_argument("--volumes", type=Path)
    args = parser.parse_args(argv)
    suffix = "".join(f" {o}" for o in args.overrides)
    for path in args.configs:
        hashes = fingerprint(path, args.solver, args.overrides, args.volumes)
        print(f"{path.stem} {args.solver}{suffix}: "
              + " ".join(f"{k}={v}" for k, v in hashes.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
