"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest perfbench -q

The pinned-count tests run every benchmark workload once, traced, which
takes about a minute on a 2-core machine.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import child  # noqa: E402
import run  # noqa: E402
from spec import END_TO_END_UNITS, LAYER_UNITS, WORKLOADS  # noqa: E402
from tracer import PROBES, Tracer, resolve_owner  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

# Exact counts per workload at the commit that defined the benchmark. A
# change that moves one of them changes what the workload measures.
PINNED = {
    "water90_lowrank": {
        "driver.n_steps": 573, "dlra.rank_max": 2, "spatial.apply_streaming.calls": 0,
        "raytracer.rays_traced": 441, "raytracer.march_ray.calls": 1,
        "raytracer.assemble_energy_operators.calls": 1,
    },
    "preset30_oracle": {
        "driver.n_steps": 79, "dlra.rank_max": 0, "spatial.apply_streaming.calls": 316,
        "raytracer.rays_traced": 441, "raytracer.march_ray.calls": 1,
        "raytracer.assemble_energy_operators.calls": 1,
    },
    "oblique30_hetero": {
        "driver.n_steps": 131, "dlra.rank_max": 2, "spatial.apply_streaming.calls": 0,
        "raytracer.rays_traced": 25, "raytracer.march_ray.calls": 10,
        "raytracer.assemble_energy_operators.calls": 15,
    },
    "smoke": {
        "driver.n_steps": 15, "dlra.rank_max": 2, "spatial.apply_streaming.calls": 0,
        "raytracer.rays_traced": 25, "raytracer.march_ray.calls": 5,
        "raytracer.assemble_energy_operators.calls": 8,
    },
}


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == LAYER_UNITS
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(PINNED) - {"smoke"}
    assert set(PINNED) == set(WORKLOADS)


@pytest.mark.parametrize("trace, declared", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(trace, declared):
    result = bench("smoke", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in BENCHMARK[declared]}


def test_traced_run_restores_every_probe_and_closes_its_self_times(monkeypatch):
    monkeypatch.chdir(ROOT)
    before = {(o, a): vars(resolve_owner(o))[a] for o, a, _ in PROBES}
    tracer = Tracer()
    with tracer:
        assert all(vars(resolve_owner(o))[a] is not before[o, a] for o, a, _ in PROBES)
        result, *_ = tracer.span(child.ROOT_SPAN, child.run_dose, "smoke", 1)
    assert all(vars(resolve_owner(o))[a] is before[o, a] for o, a, _ in PROBES)
    assert not tracer.missing
    assert abs(tracer.self_time_residual(child.ROOT_SPAN)) < 1e-9

    untraced, *_ = child.run_dose("smoke", 1)
    assert untraced.dose.deposited.tobytes() == result.dose.deposited.tobytes()


@pytest.mark.parametrize("workload", sorted(PINNED))
def test_pinned_counts(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/child.py", workload, "7", "traced", "0"],
        cwd=ROOT, env=run.child_env(ROOT), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["ok"], record["problems"]
    counts = {name: record["layers"][name] for name in PINNED[workload]}
    assert counts == PINNED[workload]
