"""What the benchmark runs and reports: workloads and metric units.

Workloads: which config, which solver, and why.

Each workload loads a different layer of pndose (profiles taken on a
2-core x86 box with OpenBLAS at one thread). Each is narrowed from the
case it stands for to a run of 5 to 10 seconds, so that one benchmark
run can time several; step counts and ranks stay those of the full case:

- water90_lowrank: the shipped 90 MeV water config with the low-rank
  solver, on 6 x 6 instead of 20 x 20 lateral cells. 573 steps; the dlra
  integrator is ~75% of the run, and all rays share one march, so the
  ray tracer is ~10%.
- preset30_oracle: the 30 MeV acceptance preset on 10 x 10 instead of
  20 x 20 lateral cells, with the dense full-rank oracle; the fullrank
  integrator is ~85% (spatial.apply_streaming on n x m ~75%) and the
  dlra integrator is not called.
- oblique30_hetero: a tilted 30 MeV beam through lung and bone inserts in
  a 10 x 10 x 12 box, 5 x 5 rays; rays no longer share marches, so the
  energy-DG ray tracer is ~80%.
- smoke: a tiny case for the benchmark's own tests only.

Config paths are relative to the root of the checkout. The seed of a run
becomes the config's ``seed``, which draws the low-rank solver's initial
random bases.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    config: str
    solver: str
    why: str


WORKLOADS = {
    "water90_lowrank": Workload(
        "perfbench/configs/water90_lowrank.yaml", "dlra",
        "ROADMAP reference case narrowed to 6x6 cells; the low-rank integrator is ~75%",
    ),
    "preset30_oracle": Workload(
        "perfbench/configs/preset30_oracle.yaml", "fullrank",
        "acceptance preset narrowed to 10x10 cells, dense oracle; full-rank streaming dominates",
    ),
    "oblique30_hetero": Workload(
        "perfbench/configs/oblique30_hetero.yaml", "dlra",
        "tilted beam through lung and bone; rays do not share marches, ray tracer ~80%",
    ),
    "smoke": Workload(
        "perfbench/configs/smoke.yaml", "dlra",
        "tiny case that runs every layer in seconds, for the benchmark's tests",
    ),
}

# End-to-end metrics of an untraced run, with their units.
END_TO_END_UNITS = {
    "time_to_dose_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

# Per-layer metrics of a traced run, with their units.
LAYER_UNITS = {
    "driver.assemble_problem.self_s": "s",
    "driver.step_contexts.self_s": "s",
    "driver.scattering_tables.calls": "count",
    "driver.uncollided_dose.s": "s",
    "driver.run_simulation.self_s": "s",
    "driver.write_outputs.s": "s",
    "driver.output_bytes": "bytes",
    "driver.n_steps": "count",
    "physics.moment_tables.s": "s",
    "physics.straggling.calls": "count",
    "physics.straggling.s": "s",
    "physics.mix_stopping_power.calls": "count",
    "angular.pn_operators_build.s": "s",
    "spatial.build_stencils.s": "s",
    "spatial.apply_streaming.s": "s",
    "spatial.apply_streaming.calls": "count",
    "spatial.apply_streaming.bytes_computed": "bytes",
    "raytracer.trace_beam.self_s": "s",
    "raytracer.march_ray.self_s": "s",
    "raytracer.march_ray.calls": "count",
    "raytracer.assemble_energy_operators.s": "s",
    "raytracer.assemble_energy_operators.calls": "count",
    "raytracer.traverse_grid.s": "s",
    "raytracer.rays_traced": "count",
    "raytracer.marches_per_ray": "ratio",
    "raytracer.assemblies_per_material": "ratio",
    "dlra.streaming_step.self_s": "s",
    "dlra.scattering_step.s": "s",
    "dlra.truncate.s": "s",
    "dlra.streaming_context.s": "s",
    "dlra.orthonormal_columns.s": "s",
    "dlra.orthonormal_columns.calls": "count",
    "dlra.rank_mean": "rank",
    "dlra.rank_max": "rank",
    "dlra.peak_state_numbers": "count",
    "fullrank.streaming_step.self_s": "s",
    "fullrank.scattering_step.s": "s",
    "physics.share": "ratio",
    "spatial.share": "ratio",
    "raytracer.share": "ratio",
    "dlra.share": "ratio",
    "fullrank.share": "ratio",
    "trace.time_to_dose_s": "s",
    "trace.overhead_s": "s",
}
