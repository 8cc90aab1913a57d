"""Micro-benchmarks of the step kernels, the ray tracer and the set-up,
outside tier-1.

Each step case times one call of scattering_step, streaming_step, the
K-phase right-hand side k_rhs (one sparse product of the stencil stack
with S^-1 K and one batched contraction with the (axes, 2, r, r) moment
factors) or truncate at P7 (m = 64) on a random state: (n = 2520,
r = 2) is the water90_lowrank benchmark grid at its rank,
(n = 3000, r = 26) the preset30 grid at the mean rank a tight
truncation tolerance reaches there (~26 at 3e-4 with a Wentzel scattering
kernel). truncate takes an augmented state of rank 2r back to r. Two
more cases time the oracle's streaming right-hand side, apply_streaming,
on a dense (n, m = 64) moment matrix in a StreamingWorkspace whose
stencil entries already hold the step's 1/S, and its whole streaming step
(folding 1/S, four right-hand sides and the RK4 updates, in place in a
FullRankWorkspace), each on the preset30 benchmark grid (n = 3000), the
20 x 20 x 30 acceptance grid (n = 12000) and the 20 x 20 x 70 grid of
configs/ (n = 28000), all P7. On the last, the z stencil rows read 800
cells ahead, several slabs, so the workspace's slab plan forms the
characteristic product well ahead of the stencil slab it serves. One
more case writes the stencil stack that both solvers share
(build_stencils, once per run) on the preset30 grid and the
20 x 20 x 70 grid.
The ray-tracer cases use the water90_lowrank beam: 441 rays through
6 x 6 x 70 water cells that share one Crank-Nicolson march. They time
assemble_energy_operators for water (128 groups), the one march_ray of
the beam, and trace_beam; the last two with the trace's EnergyOperators
table already holding the water operator and its factors, as the second
beam of a trace finds it. Two more time the Crank-Nicolson operator of
water at dz = 0.005 cm: its factorization, CrankNicolsonFactor.factor
into a march's dense LU buffer, and a load of the stored pair,
EnergyOperators.load, which expands the compact LU and writes the
right-hand side M - dz/2 G from G's CSR entries. Two cases time a whole
ray trace, trace_all_beams, each call building and dropping its own
table, as a run does: on the oblique30_hetero benchmark's config (read from
perfbench/configs), a tilted beam whose 25 rays need 10 marches through
water, lung and bone; and on a CT-like variant of it, whose cells carry
seeded integer HU noise in +-60, so each ray needs its own march and
the rays cross 141 materials and need 272 factorizations. The set-up
cases time MomentTables on the water90_lowrank energy grid (48 energies
up to 96.4 MeV, degree 8) with the quadrature caches warm, as the second
assembly of a process finds them, once for all 12 elements and once for
the 7 of water, which a water phantom's tables hold; one cached
Gauss-Legendre rule lookup; and the two parts of perfbench's setup_s on
the water90_lowrank config: ProblemConfig.load and assemble_problem, the
latter with warm caches. Run from the repository root, with the BLAS
thread count pinned:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest benchmarks --benchmark-only

The tier-1 suite does not collect this directory (pyproject's testpaths);
tests/test_tools.py runs it once with benchmarking disabled, as a smoke
test of the names it calls.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from pndose.angular import PNOperators
from pndose.driver import (
    ProblemConfig,
    assemble_problem,
    material_coefficients,
    trace_all_beams,
)
from pndose.dlra import (
    LowRankState,
    ScatteringContext,
    StreamingContext,
    TruncationPolicy,
    orthonormal_columns,
    scattering_step,
    streaming_step,
    truncate,
)
from pndose.fullrank import FullRankWorkspace, fullrank_streaming_step
from pndose.physics.moliere import DEFAULT_NODES, MomentTables, _gauss_nodes
from pndose.raytracer import (
    CrankNicolsonFactor,
    EnergyOperators,
    assemble_energy_operators,
    march_ray,
    project_initial_spectrum,
    trace_beam,
    traverse_grid,
)
from pndose.spatial import (
    Grid3D,
    StreamingWorkspace,
    apply_streaming,
    build_stencils,
)

PN_ORDER = 7
CASES = {
    "n2520-r2": (Grid3D(6, 6, 70, 0.1, 0.1, 0.1), 2),
    "n3000-r26": (Grid3D(10, 10, 30, 0.1, 0.1, 0.1), 26),
}


def random_state(n, m, r, rng):
    return LowRankState(
        u=orthonormal_columns(rng.standard_normal((n, r))),
        s=np.diag(np.sort(rng.uniform(0.1, 1.0, r))[::-1]),
        v=orthonormal_columns(rng.standard_normal((m, r))),
    )


@pytest.fixture(params=list(CASES), scope="module")
def case(request):
    grid, r = CASES[request.param]
    rng = np.random.default_rng(7)
    ops = PNOperators.build(PN_ORDER)
    n, m = grid.n_cells, ops.basis.size
    inv_s = 1.0 / rng.uniform(8.0, 20.0, n)
    stream_ctx = StreamingContext(inv_s, build_stencils(grid), ops)
    g_diags = np.abs(rng.standard_normal((12, m))) * 1e-24
    scat_ctx = ScatteringContext(
        element_weights=np.abs(rng.standard_normal((n, 12))) * 1e22,
        inv_s=inv_s,
        g_diags=g_diags,
        sigma_t=g_diags.max(axis=1) * 1.5,
        sources=[(np.abs(rng.standard_normal(n)), rng.standard_normal(m))],
    )
    return random_state(n, m, r, rng), stream_ctx, scat_ctx


def test_scattering_step(benchmark, case):
    state, _, scat_ctx = case
    out = benchmark(scattering_step, state, 0.2, scat_ctx)
    assert out.rank == 2 * state.rank


def test_streaming_step(benchmark, case):
    state, stream_ctx, _ = case
    out = benchmark(streaming_step, state, 0.2, stream_ctx)
    assert out.rank == 2 * state.rank


def test_k_rhs(benchmark, case):
    state, stream_ctx, _ = case
    k = state.u @ state.s
    factors = stream_ctx._moment_factors(state.v)
    assert factors.shape == (3, 2, state.rank, state.rank)
    out = benchmark(stream_ctx.k_rhs, k, factors, np.empty_like(k))
    assert out.shape == k.shape


def test_truncate(benchmark, case):
    state, _, _ = case
    n, m, r = state.u.shape[0], state.v.shape[0], state.rank
    augmented = random_state(n, m, 2 * r, np.random.default_rng(8))
    sigma = np.diag(augmented.s)
    policy = TruncationPolicy(threshold=sigma[r:].sum(), rank_min=1, rank_max=2 * r)
    out, _ = benchmark(truncate, augmented, policy)
    assert out.rank == r


ORACLE_GRIDS = pytest.mark.parametrize("grid", [Grid3D(10, 10, 30, 0.1, 0.1, 0.1),
                                               Grid3D(20, 20, 30, 0.1, 0.1, 0.1),
                                               Grid3D(20, 20, 70, 0.1, 0.1, 0.1)],
                                       ids=["n3000", "n12000", "n28000"])


@pytest.mark.parametrize("grid", [Grid3D(10, 10, 30, 0.1, 0.1, 0.1),
                                  Grid3D(20, 20, 70, 0.1, 0.1, 0.1)], ids=["n3000", "n28000"])
def test_build_stencils(benchmark, grid):
    stencils = benchmark(build_stencils, grid)
    assert stencils.stacked.shape == (6 * grid.n_cells, grid.n_cells)


@ORACLE_GRIDS
def test_apply_streaming(benchmark, grid):
    rng = np.random.default_rng(9)
    ops = PNOperators.build(PN_ORDER)
    u = rng.standard_normal((grid.n_cells, ops.basis.size))
    inv_s = 1.0 / rng.uniform(8.0, 20.0, grid.n_cells)
    stencils = build_stencils(grid)
    out, work = np.empty_like(u), StreamingWorkspace(stencils, ops)
    apply_streaming(u, inv_s, stencils, ops, out, work)   # folds 1/S, once per step in a run
    benchmark(apply_streaming, u, inv_s, stencils, ops, out, work)
    assert np.isfinite(out).all() and np.abs(out).max() > 0.0


@ORACLE_GRIDS
def test_fullrank_streaming_step(benchmark, grid):
    rng = np.random.default_rng(10)
    ops = PNOperators.build(PN_ORDER)
    n, m = grid.n_cells, ops.basis.size
    ctx = StreamingContext(1.0 / rng.uniform(8.0, 20.0, n), build_stencils(grid), ops)
    u = rng.standard_normal((n, m))
    work = FullRankWorkspace(ctx.stencils, ops)
    # a tiny step: the state stays bounded however often it is advanced
    benchmark(fullrank_streaming_step, u, 1e-4, ctx, work)
    assert np.isfinite(u).all()


# The water90_lowrank benchmark's moment-table energies and degree.
WATER90_TABLE = (np.linspace(0.98 * 1.0, 1.02 * 94.5, 48), PN_ORDER + 1)


# The elements of water (0 HU), which a water phantom's tables hold.
WATER_ELEMENTS = ("H", "C", "N", "O", "P", "S", "Cl")


@pytest.mark.parametrize("elements", [None, WATER_ELEMENTS], ids=["all12", "water7"])
def test_moment_tables_water90(benchmark, elements):
    MomentTables(*WATER90_TABLE)                    # fills the quadrature caches
    tables = benchmark(MomentTables, *WATER90_TABLE, elements=elements)
    assert tables.g.shape == (12, 48, PN_ORDER + 2)


def test_gauss_nodes_lookup(benchmark):
    _gauss_nodes(2 * DEFAULT_NODES)
    x, w = benchmark(_gauss_nodes, 2 * DEFAULT_NODES)
    assert x.shape == w.shape == (2 * DEFAULT_NODES,)


# The water90_lowrank benchmark's grid and beam (perfbench/configs).
WATER90 = {
    "grid": {"nx": 6, "ny": 6, "nz": 70,
             "delta_x_cm": 0.1, "delta_y_cm": 0.1, "delta_z_cm": 0.1},
    "phantom": {"background_hu": 0.0},
    "beams": [{"direction": [0.0, 0.0, 1.0], "energy_mev": 90.0,
               "position_cm": [0.3, 0.3, 0.0], "sigma_xy_cm": 0.09}],
    "pn_order": PN_ORDER,
    "energy": {"e_min_mev": 1.0, "groups": 128},
}


@pytest.fixture(scope="module")
def water90():
    problem = assemble_problem(ProblemConfig.from_dict(WATER90))
    keys, coefficients = material_coefficients(problem)
    return problem, keys, coefficients


def test_assemble_energy_operators_water(benchmark, water90):
    problem, _, coefficients = water90
    (water,) = coefficients.values()
    _, g_mat = benchmark(assemble_energy_operators, problem.space, *water)
    assert g_mat.shape == (problem.space.n_dof, problem.space.n_dof)


def test_cn_factor_water(benchmark, water90):
    problem, _, coefficients = water90
    operators = EnergyOperators(problem.space, coefficients)
    (key,) = coefficients
    n = problem.space.n_dof
    args = (operators.mass, operators[key][0], 0.005, np.empty(n * n), key)
    factor = benchmark(CrankNicolsonFactor.factor, *args)
    assert factor.pivots.shape == (n,)


def test_cn_load_reused_water(benchmark, water90):
    problem, _, coefficients = water90
    operators = EnergyOperators(problem.space, coefficients)
    (key,) = coefficients
    n = problem.space.n_dof
    buffers = np.empty(n * n), np.empty(n * n)
    operators.load(key, 0.005, *buffers)            # factors the pair
    pivots = benchmark(operators.load, key, 0.005, *buffers)
    assert len(operators.factors) == 1 and pivots.shape == (n,)


def test_march_ray_water90(benchmark, water90):
    problem, keys, coefficients = water90
    space, beam = problem.space, problem.config.beams[0]
    path = traverse_grid(problem.grid, beam.position_cm, beam.direction)
    segments = [(cell, s1 - s0, int(keys[cell])) for cell, s0, s1 in path]
    psi0 = project_initial_spectrum(space, beam.energy_mev, beam.sigma_e_mev)
    operators = EnergyOperators(space, coefficients)
    march_ray(segments, operators, psi0)            # assembles and factors the operator
    averages, residuals, _ = benchmark(march_ray, segments, operators, psi0)
    assert averages.shape == (70, space.n_groups) and residuals.shape == (70,)


def test_trace_beam_water90(benchmark, water90):
    problem, keys, coefficients = water90
    args = (problem.config.beams[0], problem.grid, keys,
            EnergyOperators(problem.space, coefficients), problem.config.ray_n_side)
    trace_beam(*args)                               # assembles and factors the operator
    flux = benchmark(trace_beam, *args)
    assert (flux.n_rays, flux.n_marches) == (441, 1)


PERFBENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"
OBLIQUE30 = PERFBENCH_CONFIGS / "oblique30_hetero.yaml"
WATER90_CONFIG = PERFBENCH_CONFIGS / "water90_lowrank.yaml"


def test_load_config_water90(benchmark):
    config = benchmark(ProblemConfig.load, WATER90_CONFIG)
    assert config.grid.shape == (6, 6, 70)


def test_assemble_problem_water90(benchmark):
    config = ProblemConfig.load(WATER90_CONFIG)
    assemble_problem(config)                        # fills the quadrature caches
    problem = benchmark(assemble_problem, config)
    assert problem.moments.elements == WATER_ELEMENTS


def test_trace_all_beams_oblique30(benchmark):
    problem = assemble_problem(ProblemConfig.load(OBLIQUE30))
    (flux,), counts = benchmark(trace_all_beams, problem)
    assert (flux.n_rays, flux.n_marches, counts["cn_factorizations"]) == (25, 10, 27)


def test_trace_all_beams_oblique30_ct(benchmark):
    config = ProblemConfig.load(OBLIQUE30)
    noise = np.random.default_rng(0).integers(-60, 61, config.grid.n_cells)
    problem = assemble_problem(dataclasses.replace(config, hu_values=config.hu_values + noise))
    (flux,), counts = benchmark(trace_all_beams, problem)
    # no two rays cross one material sequence: each needs its own march
    assert (flux.n_rays, flux.n_marches) == (25, 25)
    assert (counts["energy_operator_assemblies"], counts["cn_factorizations"]) == (141, 272)
