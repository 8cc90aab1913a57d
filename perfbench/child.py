"""One workload iteration in a fresh process: set-up, dose, checks.

run.py starts this file from the root of a checkout, with ``src`` first
on PYTHONPATH and the BLAS thread count pinned in the environment:

    python3 perfbench/child.py WORKLOAD SEED MODE SETUP_REPEATS

MODE is ``plain`` (no probes), ``traced`` (every layer probed,
see tracer.py) or ``reference`` (a plain run that also stores the dose as
the workload's reference volume). The process prints one JSON object as
its last line of standard output.

The iteration does what a user of pndose does: load the config, call
``run_simulation`` and then ``write_outputs``. It also times the set-up
(config load plus a separate ``assemble_problem``) SETUP_REPEATS times
before that span and SETUP_REPEATS times after it, and it times the
calibration kernels right before and right after the span, by which
run.py scales the times to a reference pace. A ``PnDoseError`` or a
failed check marks the iteration failed.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import sparse

import pndose
from pndose import driver
from pndose.errors import PnDoseError

from spec import WORKLOADS
from tracer import Tracer

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = BENCH_DIR / ".work"
REFERENCE_DIR = BENCH_DIR / "reference"

# Relative L2 of the dose against the stored reference. Reordered GEMMs
# and reductions move the last bits only (~1e-15); the collided part is
# ~1e-6 of the deposited energy, so a physics change shows well above it.
REL_L2_BOUND = 1e-10
# The volume file holds 13 significant digits.
READBACK_REL_L2_BOUND = 1e-11

ROOT_SPAN = "bench.time_to_dose"
# Layers whose share of the root span is reported; the driver is the
# caller of all of them.
SHARED_LAYERS = ("physics", "spatial", "raytracer", "dlra", "fullrank")


def load_config(name, seed):
    config = driver.ProblemConfig.load(ROOT / WORKLOADS[name].config)
    config.seed = seed
    config.resolved = {**config.resolved, "seed": seed}
    config.output_directory = WORK_DIR / name
    return config


def time_setup(name, seed, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        driver.assemble_problem(load_config(name, seed))
        times.append(time.perf_counter() - start)
    return times


def calibration_kernels():
    """Fixed pieces of work that do not involve pndose, one of each kind
    pndose's runs are made of: an interpreter loop, small-array NumPy, a
    small GEMM, elementwise passes over a cells x moments array (2520 x 64,
    the size of the 90 MeV workload at P7), a sparse stencil-like product
    and tall-thin GEMMs. A mix of them tracks the host's pace for all three
    workloads better than any one kind does."""
    rng = np.random.default_rng(0)
    n = 2520
    # 7-point stencil on the 6 x 6 x 70 cells of that workload
    stencil = sparse.diags([1.0, -1 / 6, -1 / 6, -1 / 6, -1 / 6, -1 / 6, -1 / 6],
                           [0, 1, -1, 6, -6, 36, -36], shape=(n, n), format="csr")
    state = rng.random((n, 64))
    basis = rng.random((64, 4))

    def interpreter():
        acc = 0.0
        for i in range(40_000):
            acc += (i % 7) * 0.5

    def small_arrays():
        v = rng.random(2048)
        for _ in range(400):
            v = np.sqrt(v * v + 1.0) - 0.5 * v

    def small_gemm():
        a = rng.random((48, 48)) / 48
        for _ in range(400):
            a = a @ a.T + 1e-3
            a /= np.abs(a).max()

    # in place, so that the time does not depend on how the allocator
    # stands after what ran before
    work, scratch = np.empty_like(state), np.empty_like(state)

    def elementwise():
        np.copyto(work, state)
        for _ in range(20):
            np.multiply(work, work, out=scratch)
            np.add(scratch, 1.0, out=scratch)
            np.sqrt(scratch, out=scratch)
            np.multiply(scratch, 1e-3, out=scratch)
            np.multiply(work, 0.5, out=work)
            np.add(work, scratch, out=work)

    def stencil_product():
        x = state[:, :8].copy()
        for _ in range(40):
            x = stencil @ x
            x /= np.abs(x).max()

    def thin_gemm():
        for _ in range(60):
            state.T @ (state @ basis)

    return (interpreter, small_arrays, small_gemm, elementwise, stencil_product, thin_gemm)


def calibration_s():
    """Wall time of the calibration kernels: it measures how fast the host
    runs now. Each kernel counts with the median of three readings, so that
    a stall of the host shorter than one reading does not count."""
    total = 0.0
    for kernel in calibration_kernels():
        readings = []
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            readings.append(time.perf_counter() - start)
        total += statistics.median(readings)
    return total


def run_dose(name, seed):
    """The measured span: a loaded config to outputs on disk."""
    config = load_config(name, seed)
    start = time.perf_counter()
    result = driver.run_simulation(config, solver=WORKLOADS[name].solver)
    out_dir = driver.write_outputs(result)
    return result, out_dir, time.perf_counter() - start


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def check_dose(name, result, out_dir):
    """(problems, facts) for one finished run; no problems means correct."""
    deposited = result.dose.deposited
    grid = result.problem.grid
    beams = result.problem.config.beams
    beam_energy = sum(b.energy_mev * b.weight for b in beams)
    facts = {
        "checksum": hashlib.sha256(deposited.tobytes()).hexdigest(),
        "energy_closure": float(deposited.sum() * grid.dx * grid.dy * grid.dz / beam_energy),
        "negative_cells": result.diagnostics["negativity"]["negative_cells"],
    }
    problems = []
    if not np.all(np.isfinite(deposited)):
        problems.append("dose is not finite")
        return problems, facts
    reference = np.load(REFERENCE_DIR / f"{name}.npy")
    if reference.shape != deposited.shape:
        problems.append(f"dose has {deposited.size} cells, reference {reference.size}")
    else:
        facts["rel_l2"] = rel_l2(deposited, reference)
        if not facts["rel_l2"] <= REL_L2_BOUND:
            problems.append(f"rel L2 {facts['rel_l2']:.3e} against the reference "
                            f"exceeds {REL_L2_BOUND:.0e}")
    names = result.problem.config.output_names
    _, arrays = driver.read_volume(out_dir / names["dose_volume"])
    readback = rel_l2(arrays["deposited_energy"], deposited)
    if not readback <= READBACK_REL_L2_BOUND:
        problems.append(f"dose volume on disk differs from the run, rel L2 {readback:.3e}")
    return problems, facts


def layer_metrics(tracer, result, out_dir):
    totals = tracer.totals()

    def calls(span):
        return totals.get(span, (0, 0.0, 0.0))[0]

    def total(span):
        return totals.get(span, (0, 0.0, 0.0))[1]

    def self_time(span):
        return totals.get(span, (0, 0.0, 0.0))[2]

    root_s = totals[ROOT_SPAN][1]
    diag = result.diagnostics
    material = result.problem.material
    n_materials = len(np.unique(np.column_stack([material.density, material.weights]), axis=0))
    rays = sum(f.n_rays for f in result.fluxes)
    lowrank = diag["solver"] == "dlra"
    return {
        "driver.assemble_problem.self_s": self_time("driver.assemble_problem"),
        "driver.step_contexts.self_s": self_time("driver.step_contexts"),
        "driver.scattering_tables.calls": calls("driver.scattering_tables"),
        "driver.uncollided_dose.s": total("driver.uncollided_dose"),
        "driver.run_simulation.self_s": self_time("driver.run_simulation"),
        "driver.write_outputs.s": total("driver.write_outputs"),
        "driver.output_bytes": sum(p.stat().st_size for p in out_dir.iterdir()),
        "driver.n_steps": diag["n_steps"],
        "physics.moment_tables.s": total("physics.moment_tables"),
        "physics.straggling.calls": calls("physics.straggling"),
        "physics.straggling.s": total("physics.straggling"),
        "physics.mix_stopping_power.calls": calls("physics.mix_stopping_power"),
        "angular.pn_operators_build.s": total("angular.pn_operators_build"),
        "spatial.build_stencils.s": total("spatial.build_stencils"),
        "spatial.apply_streaming.s": total("spatial.apply_streaming"),
        "spatial.apply_streaming.calls": calls("spatial.apply_streaming"),
        "spatial.apply_streaming.bytes_computed":
            tracer.counters.get("spatial.apply_streaming.bytes_computed", 0),
        "raytracer.trace_beam.self_s": self_time("raytracer.trace_beam"),
        "raytracer.march_ray.self_s": self_time("raytracer.march_ray"),
        "raytracer.march_ray.calls": calls("raytracer.march_ray"),
        "raytracer.assemble_energy_operators.s": total("raytracer.assemble_energy_operators"),
        "raytracer.assemble_energy_operators.calls":
            calls("raytracer.assemble_energy_operators"),
        "raytracer.traverse_grid.s": total("raytracer.traverse_grid"),
        "raytracer.rays_traced": rays,
        "raytracer.marches_per_ray": calls("raytracer.march_ray") / max(rays, 1),
        "raytracer.assemblies_per_material":
            calls("raytracer.assemble_energy_operators") / n_materials,
        "dlra.streaming_step.self_s": self_time("dlra.streaming_step"),
        "dlra.scattering_step.s": total("dlra.scattering_step"),
        "dlra.truncate.s": total("dlra.truncate"),
        "dlra.streaming_context.s": total("dlra.streaming_context"),
        "dlra.orthonormal_columns.s": total("dlra.orthonormal_columns"),
        "dlra.orthonormal_columns.calls": calls("dlra.orthonormal_columns"),
        # the full-rank oracle has no rank; its diagnostics report n x m
        "dlra.rank_mean": diag["mean_rank"] if lowrank else 0,
        "dlra.rank_max": diag["max_rank"] if lowrank else 0,
        "dlra.peak_state_numbers": diag["peak_state_numbers"] if lowrank else 0,
        "fullrank.streaming_step.self_s": self_time("fullrank.streaming_step"),
        "fullrank.scattering_step.s": total("fullrank.scattering_step"),
        **{f"{layer}.share": tracer.layer_time(layer) / root_s for layer in SHARED_LAYERS},
    }


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # NumPy < 1.26 prints only
        return {"name": "unknown", "version": "unknown"}


def versions():
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pndose": pndose.__version__,
        "blas": blas_info(),
    }


def run_iteration(name, seed, mode, setup_repeats):
    record = {"workload": name, "seed": seed, "mode": mode, "ok": False,
              "problems": [], "meta": versions()}
    started = None
    try:
        record["setup_s"] = time_setup(name, seed, setup_repeats)
        record["calibration_s"] = [calibration_s()]
        started = time.perf_counter()
        if mode == "traced":
            tracer = Tracer()
            with tracer:
                result, out_dir, elapsed = tracer.span(ROOT_SPAN, run_dose, name, seed)
            record["layers"] = layer_metrics(tracer, result, out_dir)
            record["missing_probes"] = tracer.missing
            record["self_time_residual_s"] = tracer.self_time_residual(ROOT_SPAN)
        else:
            result, out_dir, elapsed = run_dose(name, seed)
        record["time_to_dose_s"] = elapsed
        record["calibration_s"].append(calibration_s())
        record["setup_s"] += time_setup(name, seed, setup_repeats)
        if mode == "reference":
            REFERENCE_DIR.mkdir(exist_ok=True)
            np.save(REFERENCE_DIR / f"{name}.npy", result.dose.deposited)
        problems, facts = check_dose(name, result, out_dir)
    except PnDoseError as exc:
        record["problems"].append(f"{type(exc).__name__}: {exc}")
        if started is not None and "time_to_dose_s" not in record:
            # a run that raised still took time: report it up to the error
            record["time_to_dose_s"] = time.perf_counter() - started
        return record
    finally:
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record.update(facts)
    record["n_steps"] = result.diagnostics["n_steps"]
    record["problems"] += problems
    if mode == "traced" and abs(record["self_time_residual_s"]) > 1e-6:
        record["problems"].append("self times do not sum to the root span")
    record["ok"] = not record["problems"]
    return record


def main(argv):
    name, seed, mode, repeats = argv[0], int(argv[1]), argv[2], int(argv[3])
    src = (ROOT / "src").resolve()
    if src not in Path(pndose.__file__).resolve().parents:
        sys.exit(f"pndose was imported from {pndose.__file__}, not from {src}")
    if name not in WORKLOADS or mode not in ("plain", "traced", "reference"):
        sys.exit(f"usage: child.py WORKLOAD SEED plain|traced|reference REPEATS; "
                 f"workloads: {', '.join(WORKLOADS)}")
    print(json.dumps(run_iteration(name, seed, mode, repeats)))


if __name__ == "__main__":
    main(sys.argv[1:])
