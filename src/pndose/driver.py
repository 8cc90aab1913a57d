"""Problem assembly, the pseudo-time loop, dose tally, and file outputs.

A simulation is: convert the HU phantom to a material field, ray-trace
every beam once (uncollided flux + first-collision source), then march
the collided flux in pseudo-time t = E_max - E from E_max down to E_min
with a fixed CFL-derived step. Each step is a Lie split (streaming then
scattering), taken by the low-rank solver or the full-rank oracle through
one loop, with the dose accumulated trapezoidally from the transformed
degree-0 moment. The uncollided dose is tallied on the ray tracer's
energy groups, which resolves narrow spectra far better than the
pseudo-time grid.

Identical configs produce byte-identical outputs: bases are seeded, all
reductions have fixed order, and the ray bundle is deterministic.
"""

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .angular import (
    PNOperators,
    beam_projection,
    fp_correction_shift,
    scattering_matrix_boltzmann,
    scattering_matrix_fp,
    transport_correction_boltzmann,
    transport_correction_fp,
)
from .constants import ELEMENTS, N_ELEMENTS
from .dlra import (
    LowRankState,
    ScatteringContext,
    StreamingContext,
    TruncationPolicy,
    scattering_step,
    streaming_step,
    truncate,
)
from .errors import ConfigError, OutputIOError, PhysicsDataError
from .fullrank import fullrank_scattering_step, fullrank_streaming_step
from .physics import (
    MaterialField,
    MomentTables,
    default_schneider_table,
    default_stopping_library,
    mix_stopping_power,
    straggling_t,
    straggling_t_derivative,
)
from .physics.materials import data_path
from .raytracer import BeamSource, EnergyDGSpace, trace_beam
from .spatial import Grid3D, build_stencils

SQRT_4PI = math.sqrt(4.0 * math.pi)

BOLTZMANN = "boltzmann"
FOKKER_PLANCK = "fokker-planck"

# Energies of the moment tables, spread over the run's range with a small
# pad so that mid-step and group energies never extrapolate.
MOMENT_TABLE_POINTS = 48

# Keys that ProblemConfig.from_dict reads, per section ("" is the top level).
CONFIG_KEYS = {
    "": {"name", "grid", "phantom", "beams", "model", "pn_order", "transport",
         "energy", "physics", "rays", "output", "seed"},
    "grid": {"nx", "ny", "nz", "delta_x_cm", "delta_y_cm", "delta_z_cm", "origin_cm"},
    "phantom": {"background_hu", "boxes", "volume_file"},
    "phantom.boxes": {"origin_cm", "size_cm", "hu"},
    "beams": {"direction", "energy_mev", "position_cm", "weight", "sigma_xy_cm",
              "sigma_e_rel"},
    "transport": {"truncation_tolerance", "rank_min", "rank_max", "cfl_number"},
    "energy": {"e_min_mev", "e_max_mev", "groups"},
    "physics": {"boltzmann_correction", "fp_correction_scale"},
    "rays": {"n_side"},
    "output": {"directory", "dose_volume", "depth_profile", "lateral_profile",
               "rank_history", "manifest", "lateral_depth_cm"},
}
SECTIONS = ("grid", "phantom", "transport", "energy", "physics", "rays", "output")


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


@dataclass
class ProblemConfig:
    """Validated simulation setup; see configs/ for the YAML schema."""

    grid: Grid3D
    hu_values: np.ndarray
    beams: list
    model: str = BOLTZMANN
    pn_order: int = 7
    truncation_tolerance: float = 0.01
    rank_min: int = 2
    rank_max: int = 100
    cfl_number: float = 0.7
    e_min_mev: float = 1.0
    e_max_mev: float = None
    energy_groups: int = 128
    boltzmann_correction: bool = True
    fp_correction_scale: float = 0.5
    ray_n_side: int = 21
    seed: int = 20260809
    output_directory: Path = None
    output_names: dict = field(default_factory=dict)
    lateral_depth_cm: float = None
    name: str = "run"
    source_files: list = field(default_factory=list)
    resolved: dict = field(default_factory=dict)

    def __post_init__(self):
        _require(self.pn_order >= 1, "pn_order must be >= 1")
        _require(self.model in (BOLTZMANN, FOKKER_PLANCK),
                 f"model must be '{BOLTZMANN}' or '{FOKKER_PLANCK}'")
        _require(self.truncation_tolerance >= 0.0,
                 "transport.truncation_tolerance must be >= 0")
        _require(1 <= self.rank_min <= self.rank_max,
                 "need 1 <= transport.rank_min <= transport.rank_max")
        _require(self.cfl_number > 0.0, "transport.cfl_number must be positive")
        _require(self.e_min_mev > 0.0, "energy.e_min_mev must be positive")
        _require(self.energy_groups >= 4, "energy.groups must be >= 4")
        _require(len(self.beams) >= 1, "at least one beam is required")
        for n, label in ((self.grid.nx, "nx"), (self.grid.ny, "ny"), (self.grid.nz, "nz")):
            _require(n == 1 or n >= 3,
                     f"grid.{label}={n}: a used axis needs >= 3 cells for the "
                     f"second-order stencil (1 marks the axis inactive)")
        if self.e_max_mev is None:
            self.e_max_mev = max(
                b.energy_mev + 5.0 * b.sigma_e_mev for b in self.beams
            )
        _require(self.e_max_mev > self.e_min_mev,
                 "energy.e_max_mev must exceed energy.e_min_mev")
        for beam in self.beams:
            _require(beam.energy_mev < self.e_max_mev,
                     f"beam energy {beam.energy_mev} does not fit below "
                     f"e_max_mev={self.e_max_mev}")
        self.hu_values = np.asarray(self.hu_values, dtype=float).ravel()
        _require(self.hu_values.size == self.grid.n_cells,
                 f"HU volume has {self.hu_values.size} cells, grid has "
                 f"{self.grid.n_cells}")

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path = Path(".")) -> "ProblemConfig":
        _check_keys(raw)
        try:
            grid_spec = raw["grid"]
            grid = Grid3D(
                nx=int(grid_spec["nx"]),
                ny=int(grid_spec["ny"]),
                nz=int(grid_spec["nz"]),
                dx=float(grid_spec["delta_x_cm"]),
                dy=float(grid_spec["delta_y_cm"]),
                dz=float(grid_spec["delta_z_cm"]),
                origin=tuple(grid_spec.get("origin_cm", (0.0, 0.0, 0.0))),
            )
        except KeyError as exc:
            raise ConfigError(f"grid section is missing field {exc}") from exc

        source_files = []
        hu = _build_phantom(raw.get("phantom", {}), grid, base_dir, source_files)

        beams = []
        for i, spec in enumerate(raw.get("beams", [])):
            try:
                sigma_rel = float(spec.get("sigma_e_rel", 0.01))
                beams.append(
                    BeamSource(
                        direction=tuple(spec["direction"]),
                        energy_mev=float(spec["energy_mev"]),
                        position_cm=tuple(spec["position_cm"]),
                        weight=float(spec.get("weight", 1.0)),
                        sigma_xy_cm=float(spec.get("sigma_xy_cm", 0.3)),
                        sigma_e_mev=sigma_rel * float(spec["energy_mev"]),
                    )
                )
            except KeyError as exc:
                raise ConfigError(f"beams[{i}] is missing field {exc}") from exc

        transport = raw.get("transport", {})
        energy = raw.get("energy", {})
        physics = raw.get("physics", {})
        rays = raw.get("rays", {})
        output = raw.get("output", {})

        out_dir = output.get("directory")
        config = cls(
            grid=grid,
            hu_values=hu,
            beams=beams,
            model=str(raw.get("model", BOLTZMANN)),
            pn_order=int(raw.get("pn_order", 7)),
            truncation_tolerance=float(transport.get("truncation_tolerance", 0.01)),
            rank_min=int(transport.get("rank_min", 2)),
            rank_max=int(transport.get("rank_max", 100)),
            cfl_number=float(transport.get("cfl_number", 0.7)),
            e_min_mev=float(energy.get("e_min_mev", 1.0)),
            e_max_mev=(None if energy.get("e_max_mev") is None
                       else float(energy.get("e_max_mev"))),
            energy_groups=int(energy.get("groups", 128)),
            boltzmann_correction=bool(physics.get("boltzmann_correction", True)),
            fp_correction_scale=float(physics.get("fp_correction_scale", 0.5)),
            ray_n_side=int(rays.get("n_side", 21)),
            seed=int(raw.get("seed", 20260809)),
            output_directory=None if out_dir is None else (base_dir / out_dir),
            output_names={
                "dose_volume": output.get("dose_volume", "dose.vtk"),
                "depth_profile": output.get("depth_profile", "depth_profile.csv"),
                "lateral_profile": output.get("lateral_profile", "lateral_profile.csv"),
                "rank_history": output.get("rank_history", "rank_history.csv"),
                "manifest": output.get("manifest", "manifest.json"),
            },
            lateral_depth_cm=output.get("lateral_depth_cm"),
            name=str(raw.get("name", "run")),
            source_files=source_files,
            resolved=raw,
        )
        return config

    @classmethod
    def load(cls, path) -> "ProblemConfig":
        path = Path(path)
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        cfg = cls.from_dict(raw, base_dir=path.parent)
        cfg.source_files.append(path)
        return cfg


def _check_keys(raw: dict):
    """Raise ConfigError naming the first key that from_dict does not read."""
    phantom = raw.get("phantom") if isinstance(raw.get("phantom"), dict) else {}
    mappings = [("", "", raw)]
    mappings += [(name, f"{name}.", raw.get(name)) for name in SECTIONS]
    mappings += [("beams", f"beams[{i}].", b) for i, b in enumerate(raw.get("beams") or [])]
    mappings += [("phantom.boxes", f"phantom.boxes[{i}].", b)
                 for i, b in enumerate(phantom.get("boxes") or [])]
    for section, label, mapping in mappings:
        for key in mapping if isinstance(mapping, dict) else ():
            if key not in CONFIG_KEYS[section]:
                raise ConfigError(f"unknown config key '{label}{key}'")


def _build_phantom(spec: dict, grid: Grid3D, base_dir: Path, source_files: list):
    if "volume_file" in spec:
        path = base_dir / spec["volume_file"]
        try:
            with open(path) as fh:
                header = fh.readline().split()
                values = np.loadtxt(fh).ravel()
        except OSError as exc:
            raise ConfigError(f"cannot read phantom.volume_file {path}: {exc}") from exc
        dims = tuple(int(v) for v in header)
        if dims != grid.shape:
            raise ConfigError(
                f"phantom.volume_file dims {dims} do not match grid {grid.shape}"
            )
        source_files.append(path)
        return values
    hu = np.full(grid.n_cells, float(spec.get("background_hu", 0.0)))
    centers = grid.cell_centers()
    for i, box in enumerate(spec.get("boxes", [])):
        try:
            lo = np.asarray(box["origin_cm"], dtype=float)
            size = np.asarray(box["size_cm"], dtype=float)
            value = float(box["hu"])
        except KeyError as exc:
            raise ConfigError(f"phantom.boxes[{i}] is missing field {exc}") from exc
        inside = np.all((centers >= lo) & (centers < lo + size), axis=1)
        hu[inside] = value
    return hu


@dataclass
class Problem:
    """Assembled, immutable inputs of one simulation."""

    config: ProblemConfig
    grid: Grid3D
    material: MaterialField
    ops: PNOperators
    stencils: object
    stopping: object
    moments: MomentTables
    space: EnergyDGSpace

    @property
    def n_cells(self):
        return self.grid.n_cells

    @property
    def n_moments(self):
        return self.ops.basis.size

    def stopping_field(self, e_mev):
        """S(E, r) on all cells [MeV/cm]."""
        return mix_stopping_power(
            self.material.weights, self.material.density, e_mev, self.stopping
        )

    def scattering_tables(self, e_mev):
        """Corrected per-element (g_diags (12, ..., m), sigma_t (12, ...)) at
        an energy or an array of energies (the ... axes)."""
        n_max = self.config.pn_order
        if self.config.model == BOLTZMANN:
            moments = self.moments.moments_at(e_mev)          # (12, ..., N+2)
            g_diags, sigma_t = scattering_matrix_boltzmann(moments, n_max)
            if self.config.boltzmann_correction:
                g_diags, _ = transport_correction_boltzmann(
                    g_diags, sigma_t, moments[..., n_max + 1]
                )
        else:
            xi1 = self.moments.xi1_at(e_mev)                  # (12, ...)
            g_diags = scattering_matrix_fp(xi1, n_max)
            if self.config.fp_correction_scale > 0.0:
                g_diags, _ = transport_correction_fp(
                    g_diags, 0.0, xi1, n_max, self.config.fp_correction_scale
                )
        return g_diags, self.total_cross_sections(e_mev)

    def total_cross_sections(self, e_mev):
        """Corrected per-element sigma_t (12, ...) at an energy or an array
        of energies, without forming the (..., m) scattering diagonals."""
        n_max = self.config.pn_order
        if self.config.model == BOLTZMANN:
            moments = self.moments.moments_at(e_mev)          # (12, ..., N+2)
            # contiguous, so that dot products with it sum as for a vector
            sigma_t = np.ascontiguousarray(moments[..., 0])
            if self.config.boltzmann_correction:
                sigma_t = sigma_t - moments[..., n_max + 1]
            return sigma_t
        xi1 = self.moments.xi1_at(e_mev)                      # (12, ...)
        sigma_t = np.zeros(xi1.shape)
        if self.config.fp_correction_scale > 0.0:
            sigma_t = sigma_t - fp_correction_shift(xi1, n_max, self.config.fp_correction_scale)
        return sigma_t


def assemble_problem(config: ProblemConfig) -> Problem:
    density, weights = default_schneider_table().convert(config.hu_values)
    material = MaterialField(density=density, weights=weights)
    ops = PNOperators.build(config.pn_order)
    stencils = build_stencils(config.grid)
    stopping = default_stopping_library()
    lo, hi = stopping.energy_range
    if config.e_min_mev < lo or config.e_max_mev > hi:
        raise PhysicsDataError(
            f"energy range [{config.e_min_mev}, {config.e_max_mev}] MeV exceeds "
            f"the stopping power tables [{lo:.3g}, {hi:.3g}]"
        )
    moments = MomentTables(
        np.linspace(0.98 * config.e_min_mev, 1.02 * config.e_max_mev, MOMENT_TABLE_POINTS),
        config.pn_order + 1,
    )
    space = EnergyDGSpace(config.e_min_mev, config.e_max_mev, config.energy_groups, 2)
    return Problem(
        config=config,
        grid=config.grid,
        material=material,
        ops=ops,
        stencils=stencils,
        stopping=stopping,
        moments=moments,
        space=space,
    )


def material_coefficients(problem: Problem):
    """(material key per cell, key -> (s_star_fn, t_fn, sigma_t_fn)).

    Cells of equal density and composition share a key. Each callable
    maps an energy array to the material's S* = S + dT/dE / 2, straggling
    T and total cross section sigma_t, in one pass over the array; the
    values equal those of per-energy scalar evaluation bit for bit.
    """
    material = problem.material
    rows = np.column_stack([material.density, material.weights])
    _, first_cells, keys = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    atomic = material.atomic_densities

    coefficients = {}
    for key, cell in enumerate(first_cells):
        w = material.weights[cell]
        rho = material.density[cell]
        n_i = atomic[cell]

        def s_star(e, w=w, rho=rho, n_i=n_i):
            e = np.asarray(e, dtype=float)
            s = mix_stopping_power(w, rho, e, problem.stopping)
            return s + 0.5 * straggling_t_derivative(n_i, e)

        def t_coeff(e, n_i=n_i):
            return straggling_t(n_i, e)

        def sigma_t_fn(e, n_i=n_i):
            e = np.asarray(e, dtype=float)
            per_atom = np.moveaxis(problem.total_cross_sections(e), 0, -1)  # (..., 12)
            # one 1-D dot per energy, as a scalar evaluation would do it
            per_energy = np.ascontiguousarray(per_atom).reshape(-1, N_ELEMENTS)
            return np.array([n_i @ row for row in per_energy]).reshape(e.shape)

        coefficients[key] = (s_star, t_coeff, sigma_t_fn)
    return keys, coefficients


def trace_all_beams(problem: Problem, operators=None):
    """Ray-trace every beam once; returns a list of UncollidedFlux.

    operators: mapping from material key to that material's energy
    operator, filled lazily by the marches of all beams, so each material
    is assembled once per run; a fresh one is used when None.
    """
    keys, coefficients = material_coefficients(problem)
    if operators is None:
        operators = {}
    return [
        trace_beam(
            beam,
            problem.grid,
            problem.space,
            keys,
            coefficients,
            n_side=problem.config.ray_n_side,
            operators=operators,
        )
        for beam in problem.config.beams
    ]


def uncollided_dose(problem: Problem, fluxes) -> np.ndarray:
    """Group-sum tally: sum_g S(E_g, r) psi_g h + below-cutoff residual."""
    space = problem.space
    deposited = np.zeros(problem.n_cells)
    for flux in fluxes:
        for g, e_g in enumerate(space.centers):
            s_field = problem.stopping_field(e_g)
            deposited += s_field * flux.values[:, g] * space.width
        deposited += flux.residual_energy
    return deposited


@dataclass
class DoseGrid:
    """Deposited energy density and per-mass dose on the grid."""

    grid: Grid3D
    deposited: np.ndarray       # MeV / cm^3
    dose: np.ndarray            # MeV cm^3 / (g cm^3) per density division

    @property
    def negativity(self):
        neg = self.deposited < 0.0
        return {
            "min_value": float(self.deposited.min(initial=0.0)),
            "negative_cells": int(np.count_nonzero(neg)),
        }


@dataclass
class SimulationResult:
    problem: Problem
    dose: DoseGrid
    rank_history: list          # (step, E_MeV, rank)
    diagnostics: dict
    fluxes: list


def _cfl_step(problem: Problem) -> float:
    cfg = problem.config
    s_at_emax = problem.stopping_field(cfg.e_max_mev)
    active = [
        h for n, h in zip(problem.grid.shape, problem.grid.spacings) if n > 1
    ]
    if not active:
        raise ConfigError("grid has no active axis")
    rho = problem.ops.spectral_radius
    return cfg.cfl_number * min(active) * float(s_at_emax.min()) / rho


def pseudo_time_edges(problem: Problem) -> np.ndarray:
    """Energy step edges from E_max down to E_min, fixed CFL step."""
    cfg = problem.config
    de = _cfl_step(problem)
    n_steps = max(1, math.ceil((cfg.e_max_mev - cfg.e_min_mev) / de))
    return np.linspace(cfg.e_max_mev, cfg.e_min_mev, n_steps + 1)


def step_contexts(problem: Problem, fluxes, t_ms, e_hi, e_lo):
    """(StreamingContext, ScatteringContext) frozen at mid-step."""
    e_mid = 0.5 * (e_hi + e_lo)
    inv_s = 1.0 / problem.stopping_field(e_mid)
    stream_ctx = StreamingContext(inv_s, problem.stencils, problem.ops)
    g_diags, sigma_t = problem.scattering_tables(e_mid)
    sources = [(flux.at_energy(e_mid), t_m) for flux, t_m in zip(fluxes, t_ms)]
    scat_ctx = ScatteringContext(
        element_weights=problem.material.atomic_densities,
        inv_s=inv_s,
        g_diags=g_diags,
        sigma_t=sigma_t,
        sources=sources,
    )
    return stream_ctx, scat_ctx


def _numbers(state: LowRankState) -> int:
    return state.u.size + state.s.size + state.v.size


# Wall-time phases of run_simulation in diagnostics["phase_s"]. The step
# phases are timed by the steppers; contexts and the step phases are
# summed over the pseudo-time steps. The phases are disjoint.
STEP_PHASES = ("streaming", "scattering", "truncation")
PHASES = ("assembly", "ray_trace", "contexts", *STEP_PHASES, "uncollided_tally")


def timed(seconds: dict, phase: str, fn, *args):
    """fn(*args), adding its wall time to seconds[phase]."""
    start = time.perf_counter()
    value = fn(*args)
    seconds[phase] += time.perf_counter() - start
    return value


class LowRankSolver:
    """Augmented-BUG stepper: streaming, truncation, scattering, truncation.

    The solver calls (streaming_step, scattering_step, truncate) are looked
    up as module globals, so a probe on this module sees every one of them.
    phase_s sums their wall times over the steps, by STEP_PHASES.
    """

    def __init__(self, problem: Problem):
        cfg = problem.config
        n, m = problem.n_cells, problem.n_moments
        self.state = LowRankState.zero(n, m, min(cfg.rank_min, n, m), seed=cfg.seed)
        self.policy = TruncationPolicy(
            cfg.truncation_tolerance, rank_min=cfg.rank_min, rank_max=cfg.rank_max
        )
        self.max_orth_defect = 0.0
        self.max_tail = 0.0
        self.tail_violations = 0
        self.peak_state_numbers = 0
        self.peak_transient_numbers = 0
        self.phase_s = dict.fromkeys(STEP_PHASES, 0.0)

    def _truncate(self):
        self.peak_transient_numbers = max(self.peak_transient_numbers, _numbers(self.state))
        self.state, tail = timed(self.phase_s, "truncation", truncate, self.state, self.policy)
        self.max_tail = max(self.max_tail, tail)
        self.tail_violations += tail > self.policy.threshold + 1e-15

    def step(self, dt, stream_ctx, scat_ctx):
        """Advance one step; returns (degree-0 moment (n,), rank)."""
        self.state = timed(self.phase_s, "streaming", streaming_step, self.state, dt, stream_ctx)
        self._truncate()
        self.state = timed(self.phase_s, "scattering", scattering_step, self.state, dt, scat_ctx)
        self._truncate()
        state = self.state
        self.max_orth_defect = max(self.max_orth_defect, state.orthonormality_defect())
        self.peak_state_numbers = max(self.peak_state_numbers, _numbers(state))
        return state.u @ (state.s @ state.v[0, :]), state.rank


class FullRankSolver:
    """Dense oracle stepper; its state is always n x m, never truncated,
    so its truncation phase stays at zero."""

    max_orth_defect = 0.0
    max_tail = 0.0
    tail_violations = 0

    def __init__(self, problem: Problem):
        self.u = np.zeros((problem.n_cells, problem.n_moments))
        self.peak_state_numbers = self.peak_transient_numbers = self.u.size
        self.phase_s = dict.fromkeys(STEP_PHASES, 0.0)

    def step(self, dt, stream_ctx, scat_ctx):
        """Advance one step; returns (degree-0 moment (n,), rank)."""
        self.u = timed(self.phase_s, "streaming", fullrank_streaming_step, self.u, dt, stream_ctx)
        self.u = timed(self.phase_s, "scattering", fullrank_scattering_step, self.u, dt, scat_ctx)
        return self.u[:, 0], min(self.u.shape)


SOLVERS = {"dlra": LowRankSolver, "fullrank": FullRankSolver}


def run_simulation(config: ProblemConfig, solver: str = "dlra") -> SimulationResult:
    """Full pipeline; solver is 'dlra' or 'fullrank' (the oracle)."""
    if solver not in SOLVERS:
        raise ConfigError(f"unknown solver '{solver}'")
    t_start = time.perf_counter()
    phase_s = dict.fromkeys(PHASES, 0.0)

    problem = timed(phase_s, "assembly", assemble_problem, config)
    n, m = problem.n_cells, problem.n_moments

    operators = {}
    fluxes = timed(phase_s, "ray_trace", trace_all_beams, problem, operators)
    t_ms = [beam_projection(config.pn_order, b.direction) for b in config.beams]

    edges = pseudo_time_edges(problem)
    n_steps = len(edges) - 1
    de = float(edges[0] - edges[1])

    stepper = SOLVERS[solver](problem)
    deposited = np.zeros(n)
    rank_history = []
    prev_integrand = np.zeros(n)
    for k in range(n_steps):
        e_hi, e_lo = edges[k], edges[k + 1]
        dt = e_hi - e_lo
        stream_ctx, scat_ctx = timed(
            phase_s, "contexts", step_contexts, problem, fluxes, t_ms, e_hi, e_lo
        )
        u0_moment, rank = stepper.step(dt, stream_ctx, scat_ctx)
        rank_history.append((k, float(e_lo), rank))
        integrand = SQRT_4PI * u0_moment
        deposited += 0.5 * dt * (prev_integrand + integrand)
        prev_integrand = integrand
    phase_s.update(stepper.phase_s)
    deposited = deposited + timed(phase_s, "uncollided_tally", uncollided_dose, problem, fluxes)

    dose = DoseGrid(
        grid=problem.grid,
        deposited=deposited,
        dose=deposited / problem.material.density,
    )
    elapsed = time.perf_counter() - t_start
    full_numbers = n * m
    diagnostics = {
        "solver": solver,
        "n_cells": n,
        "n_moments": m,
        "n_steps": n_steps,
        "energy_step_mev": float(de),
        "max_orthonormality_defect": float(stepper.max_orth_defect),
        "max_truncation_tail": float(stepper.max_tail),
        "tail_violations": int(stepper.tail_violations),
        "mean_rank": float(np.mean([r for _, _, r in rank_history])),
        "max_rank": int(max(r for _, _, r in rank_history)),
        "peak_state_numbers": int(stepper.peak_state_numbers),
        "peak_transient_numbers": int(stepper.peak_transient_numbers),
        "fullrank_numbers": int(full_numbers),
        "state_memory_fraction": float(stepper.peak_state_numbers / full_numbers),
        "negativity": dose.negativity,
        "uncollided_undershoot": float(min((f.undershoot for f in fluxes), default=0.0)),
        "runtime_s": elapsed,
        "phase_s": phase_s,
        "rays_per_beam": [f.n_rays for f in fluxes],
        "rays_missed_per_beam": [f.n_rays_missed for f in fluxes],
        "marches_per_beam": [f.n_marches for f in fluxes],
        "energy_operator_assemblies": len(operators),
    }
    return SimulationResult(
        problem=problem,
        dose=dose,
        rank_history=rank_history,
        diagnostics=diagnostics,
        fluxes=fluxes,
    )


# ---------------------------------------------------------------- outputs


def write_volume(path, grid: Grid3D, arrays: dict, title="pndose dose grid"):
    """Legacy-ASCII structured-points file; values live at cell midpoints."""
    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write(f"{title}\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {grid.nx} {grid.ny} {grid.nz}\n")
        ox = grid.origin[0] + 0.5 * grid.dx
        oy = grid.origin[1] + 0.5 * grid.dy
        oz = grid.origin[2] + 0.5 * grid.dz
        fh.write(f"ORIGIN {ox:.9g} {oy:.9g} {oz:.9g}\n")
        fh.write(f"SPACING {grid.dx:.9g} {grid.dy:.9g} {grid.dz:.9g}\n")
        fh.write(f"POINT_DATA {grid.n_cells}\n")
        for name, values in arrays.items():
            fh.write(f"SCALARS {name} double 1\n")
            fh.write("LOOKUP_TABLE default\n")
            for v in np.asarray(values).ravel():
                fh.write(f"{v:.12e}\n")


def read_volume(path):
    """Read back a write_volume file: (grid, {name: values})."""
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise OutputIOError(f"cannot read volume file {path}: {exc}") from exc
    dims = None
    origin = spacing = None
    arrays = {}
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.startswith("DIMENSIONS"):
            dims = tuple(int(v) for v in line.split()[1:4])
        elif line.startswith("ORIGIN"):
            origin = tuple(float(v) for v in line.split()[1:4])
        elif line.startswith("SPACING"):
            spacing = tuple(float(v) for v in line.split()[1:4])
        elif line.startswith("SCALARS"):
            name = line.split()[1]
            count = dims[0] * dims[1] * dims[2]
            vals = np.array([float(v) for v in lines[i + 2 : i + 2 + count]])
            arrays[name] = vals
            i += 1 + count
        i += 1
    if dims is None or spacing is None:
        raise OutputIOError(f"{path} is not a structured-points volume")
    grid = Grid3D(
        nx=dims[0], ny=dims[1], nz=dims[2],
        dx=spacing[0], dy=spacing[1], dz=spacing[2],
        origin=(
            origin[0] - 0.5 * spacing[0],
            origin[1] - 0.5 * spacing[1],
            origin[2] - 0.5 * spacing[2],
        ),
    )
    return grid, arrays


def compare_volumes(path_a, path_b, array="deposited_energy"):
    """Relative L2 and Linf of A against reference B."""
    grid_a, arrays_a = read_volume(path_a)
    grid_b, arrays_b = read_volume(path_b)
    if grid_a.shape != grid_b.shape:
        raise ConfigError(
            f"volumes have different shapes {grid_a.shape} vs {grid_b.shape}"
        )
    a, b = arrays_a[array], arrays_b[array]
    norm = np.linalg.norm(b)
    scale = np.abs(b).max()
    return {
        "rel_l2": float(np.linalg.norm(a - b) / norm) if norm > 0 else 0.0,
        "rel_linf": float(np.abs(a - b).max() / scale) if scale > 0 else 0.0,
    }


def _beam_axis_cells(result: SimulationResult):
    """(ix, iy) column of the first beam, for the default profiles."""
    grid = result.problem.grid
    beam = result.problem.config.beams[0]
    pos = np.asarray(beam.position_cm)
    ix = int(np.clip((pos[0] - grid.origin[0]) / grid.dx, 0, grid.nx - 1))
    iy = int(np.clip((pos[1] - grid.origin[1]) / grid.dy, 0, grid.ny - 1))
    return ix, iy


def depth_profile(result: SimulationResult):
    """(depth_cm, deposited, dose) along z through the first beam column."""
    grid = result.problem.grid
    ix, iy = _beam_axis_cells(result)
    idx = [grid.index(ix, iy, k) for k in range(grid.nz)]
    z = grid.origin[2] + (np.arange(grid.nz) + 0.5) * grid.dz
    return z, result.dose.deposited[idx], result.dose.dose[idx]


def lateral_profile(result: SimulationResult, depth_cm=None):
    """(lateral_cm, deposited, dose) along x at the peak (or given) depth."""
    grid = result.problem.grid
    ix, iy = _beam_axis_cells(result)
    if depth_cm is None:
        _, dep, _ = depth_profile(result)
        kz = int(np.argmax(dep))
    else:
        kz = int(np.clip((depth_cm - grid.origin[2]) / grid.dz, 0, grid.nz - 1))
    idx = [grid.index(i, iy, kz) for i in range(grid.nx)]
    x = grid.origin[0] + (np.arange(grid.nx) + 0.5) * grid.dx
    return x, result.dose.deposited[idx], result.dose.dose[idx]


def _data_file_checksums(config: ProblemConfig):
    files = [data_path("schneider_density.csv"), data_path("schneider_composition.csv")]
    files += [data_path(f"stopping_power/{e.symbol}.csv") for e in ELEMENTS]
    files += list(config.source_files)
    sums = {}
    for path in files:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        sums[str(Path(path).name)] = digest
    return sums


def validate_output_paths(config: ProblemConfig):
    """Fail on unwritable outputs before any compute starts."""
    if config.output_directory is None:
        raise ConfigError("output.directory is required to write results")
    out = Path(config.output_directory)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("ok")
        probe.unlink()
    except OSError as exc:
        raise OutputIOError(f"output directory {out} is not writable: {exc}") from exc
    return out


def write_outputs(result: SimulationResult):
    """Dose volume, depth/lateral profiles, rank history, run manifest."""
    config = result.problem.config
    out = validate_output_paths(config)
    names = config.output_names

    write_volume(
        out / names["dose_volume"],
        result.problem.grid,
        {"deposited_energy": result.dose.deposited, "dose": result.dose.dose},
        title=f"pndose {config.name}",
    )

    z, dep, dose = depth_profile(result)
    with open(out / names["depth_profile"], "w") as fh:
        fh.write("depth_cm,deposited_mev_cm3,dose\n")
        for row in zip(z, dep, dose):
            fh.write(f"{row[0]:.9g},{row[1]:.12e},{row[2]:.12e}\n")

    x, dep_l, dose_l = lateral_profile(result, config.lateral_depth_cm)
    with open(out / names["lateral_profile"], "w") as fh:
        fh.write("lateral_cm,deposited_mev_cm3,dose\n")
        for row in zip(x, dep_l, dose_l):
            fh.write(f"{row[0]:.9g},{row[1]:.12e},{row[2]:.12e}\n")

    with open(out / names["rank_history"], "w") as fh:
        fh.write("step,E_MeV,rank\n")
        for step, e_mev, rank in result.rank_history:
            fh.write(f"{step},{e_mev:.9g},{rank}\n")

    manifest = {
        "version": __version__,
        "name": config.name,
        "config": _jsonable(config.resolved),
        "data_checksums": _data_file_checksums(config),
        "diagnostics": _jsonable(result.diagnostics),
    }
    with open(out / names["manifest"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    return obj
