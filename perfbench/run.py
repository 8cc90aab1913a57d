"""pndose benchmark: time to dose, set-up time and peak RSS per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each iteration is a fresh process (child.py) that does what a user of
pndose does: load the config, ``run_simulation``, ``write_outputs``, and
then the benchmark checks the dose. With ``--trace 0`` iterations repeat
until the next one would end after S seconds (at least one runs), and the
end-to-end metrics are taken over them:

- time_to_dose_s: ``run_simulation`` plus ``write_outputs`` wall time,
  the median over the iterations (a run holds four or so; the median
  drops one whose calibration caught a short stall of the host);
- setup_s: config load plus a separate ``assemble_problem``, repeated
  before and after the dose in every iteration, the median of them all;
- peak_rss_mb: ``ru_maxrss`` of the iteration's process, the median.

The two times are taken at a reference pace. On a shared host, other
tenants slow every program by up to ~1.7x in phases of seconds to
minutes, which no number of repeats within one run averages out. So each
iteration also times fixed calibration kernels that do not involve
pndose (child.calibration_s) right before and right after the dose, and
the iteration's times are scaled by CALIBRATION_REF_S over the mean of those two:
they read as seconds on a host where the kernels take CALIBRATION_REF_S.
A change to pndose moves them as it moves wall time; the raw wall times
and kernel times are in the detail line.

With ``--trace 1`` one untraced and one traced iteration run with the
same seed, and the per-layer metrics come from the traced one (see
tracer.py). Their doses must be bit-identical; the difference of their
times, both at the reference pace, is the tracing overhead.

An iteration fails when it raises a ``PnDoseError`` or its dose fails a
check: the dose is finite, it lies within child.REL_L2_BOUND of the stored
reference volume, the volume written to disk reads back equal, and every
iteration of a workload with one seed on one source tree gives the same
checksum (also across runs, through a ledger in perfbench/.state). The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

To store new reference volumes after a change that is meant to move the
dose, run ``python3 perfbench/child.py NAME 0 reference 0`` for each
workload, with the environment that ``child_env`` below sets.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END_UNITS, LAYER_UNITS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
STATE_DIR = BENCH_DIR / ".state"
SETUP_REPEATS = 1  # per side of the dose span, see child.py
# The median wall time of child.calibration_s on a shared 2-core x86 VM
# with OpenBLAS at one thread. Any fixed value would do:
# it only sets the scale of the times (see the module docstring).
CALIBRATION_REF_S = 0.05
CHILD_TIMEOUT_S = 170
# One BLAS thread (never more than nproc): a fixed count keeps reductions,
# hence doses, bit-stable, and on a 2-core host the 90 MeV case ran no
# slower with one thread than with two.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    for var in THREAD_VARIABLES:
        env[var] = str(BLAS_THREADS)
    return env


def run_child(root, name, seed, mode, repeats):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), name, str(seed), mode, str(repeats)],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} iteration of {name} exited with {proc.returncode}")
    return json.loads(lines[-1])


def source_fingerprint(root, name):
    """Hash of the program's sources, data and the workload's config."""
    digest = hashlib.sha256()
    files = sorted(p for p in (root / "src").rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    files.append(root / WORKLOADS[name].config)
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    digest.update(f"blas_threads={BLAS_THREADS}".encode())
    return digest.hexdigest()


def check_ledger(root, name, seed, records):
    """Fail iterations whose checksum differs from earlier ones.

    Earlier means earlier in this run, or in an earlier run on the same
    checkout with the same workload, seed and source fingerprint.
    """
    ledger_path = STATE_DIR / "checksums.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{name}|{seed}|{source_fingerprint(root, name)}"
    for rec in records:
        if "checksum" not in rec:
            continue
        expected = ledger.setdefault(key, rec["checksum"])
        if rec["checksum"] != expected:
            rec["problems"].append(f"checksum {rec['checksum'][:12]} differs from "
                                   f"{expected[:12]} of an earlier iteration")
            rec["ok"] = False
    STATE_DIR.mkdir(exist_ok=True)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, ledger_path)


def commit(root):
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def pace(record):
    """How much slower than the reference pace the host ran the iteration."""
    return statistics.fmean(record["calibration_s"]) / CALIBRATION_REF_S


def end_to_end(records):
    timed = [r for r in records if "calibration_s" in r]
    samples = {
        "time_to_dose_s": [r["time_to_dose_s"] / pace(r) for r in timed
                           if "time_to_dose_s" in r],
        "setup_s": [t / pace(r) for r in timed for t in r.get("setup_s", [])],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
    }
    for name, values in samples.items():
        if not values:
            raise SystemExit(f"no iteration measured {name}: {records[0]['problems']}")
    return {name: metric(statistics.median(samples[name]), unit)
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(plain, traced):
    if plain.get("checksum") != traced.get("checksum"):
        traced["problems"].append("traced dose is not bit-identical to the untraced dose")
        traced["ok"] = False
    values = dict(traced.get("layers", {}))
    if "time_to_dose_s" in plain and "time_to_dose_s" in traced:
        values["trace.time_to_dose_s"] = traced["time_to_dose_s"] / pace(traced)
        values["trace.overhead_s"] = (values["trace.time_to_dose_s"]
                                      - plain["time_to_dose_s"] / pace(plain))
    return {name: metric(values.get(name, 0), unit) for name, unit in LAYER_UNITS.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "pndose" / "__init__.py").is_file():
        raise SystemExit(f"{root} holds no pndose sources (src/pndose); run from a checkout")
    name, seed = args.workload, args.seed

    start = time.monotonic()
    if args.trace:
        # one set-up each warms the process as in an untraced iteration
        plain = run_child(root, name, seed, "plain", 1)
        traced = run_child(root, name, seed, "traced", 1)
        records = [plain, traced]
    else:
        records = []
        while True:
            began = time.monotonic()
            records.append(run_child(root, name, seed, "plain", SETUP_REPEATS))
            took = time.monotonic() - began
            if time.monotonic() - start + took > args.seconds:
                break
    check_ledger(root, name, seed, records)
    metrics = per_layer(*records) if args.trace else end_to_end(records)

    failed = sum(not rec["ok"] for rec in records)
    report = {
        "workload": name,
        "seed": seed,
        "trace": args.trace,
        "wall_s": time.monotonic() - start,
        "machine": {"commit": commit(root), "nproc": nproc(), "platform": platform.platform(),
                    "blas_threads": BLAS_THREADS, **records[0]["meta"]},
        "iterations": [{k: v for k, v in rec.items() if k not in ("meta", "layers")}
                       for rec in records],
    }
    print(json.dumps(report))
    for rec in records:
        for problem in rec["problems"]:
            print(f"FAILED {rec['mode']} iteration: {problem}")
        for probe in rec.get("missing_probes", []):
            print(f"NOT TRACED: pndose has no {probe}; its layer metrics read 0")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
