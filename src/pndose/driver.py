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

The per-element stopping powers and the scattering model's table are
evaluated once per run, at every mid-step (and group-centre) energy in
one array call each (StepTables); a step only mixes its row into the
stopping-power field and expands its column to the m moments, with the
same operations, in the same order, that a per-step evaluation makes.

Identical configs produce byte-identical outputs: the low-rank bases
start from fixed identity columns, all reductions have fixed order, and
the ray bundle is deterministic.
"""

import hashlib
import inspect
import json
import math
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np
import yaml

from . import __version__
from .angular import PNOperators, boltzmann_tables, fokker_planck_tables, real_sph_eval
from .constants import ELEMENT_SYMBOLS, ELEMENTS, N_ELEMENTS
from .dlra import (
    LowRankState,
    ScatteringContext,
    StreamingContext,
    TruncationPolicy,
    scattering_step,
    streaming_step,
    truncate,
)
from .errors import ConfigError, NumericalError, OutputIOError, PhysicsDataError
from .fullrank import FullRankWorkspace, fullrank_scattering_step, fullrank_streaming_step
from .physics.materials import MaterialField, data_path, default_schneider_table
from .physics.moliere import SHIPPED_RULES, MomentTables, gauss_rule_file
from .physics.stopping import (
    bragg_mixture,
    default_stopping_library,
    mix_stopping_power,
    straggling_t,
    straggling_t_derivative,
)
from .raytracer import BeamSource, EnergyDGSpace, EnergyOperators, trace_beam
from .spatial import Grid3D, build_stencils

SQRT_4PI = math.sqrt(4.0 * math.pi)

BOLTZMANN = "boltzmann"
FOKKER_PLANCK = "fokker-planck"

# Energies of the moment tables, spread over the run's range with a small
# pad so that mid-step and group energies never extrapolate.
MOMENT_TABLE_POINTS = 48

# libyaml's parser where PyYAML was built with it, else the pure-Python one;
# both build the same plain Python objects.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _number(value, key):
    """value as a float; ConfigError naming key unless it is a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(value, key):
    """value as an int; ConfigError naming key unless it is a whole number."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if not _number(value, key).is_integer():
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _vector(value, key):
    """value as 3 floats; ConfigError naming key unless it is 3 finite numbers."""
    items = value if isinstance(value, (list, tuple, np.ndarray)) else ()
    if len(items) != 3 or not all(
        isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
        for x in items
    ):
        raise ConfigError(f"{key} must be 3 finite numbers, got {value!r}")
    return tuple(float(x) for x in items)


def _string(value, key):
    """value; ConfigError naming key unless it is a string."""
    _require(isinstance(value, str), f"{key} must be a string, got {value!r}")
    return value


def _text(value, key):
    return str(value)  # a name or a model may be written as any YAML scalar


def _as_given(value, key):
    return value  # the dataclass that receives it checks it


def _optional(parse):
    """parse, except that null reads as None."""
    return lambda value, key: None if value is None else parse(value, key)


def _each(parse):
    """Parser of a list section (null reads as empty): parse of each entry."""
    def parse_entries(value, key):
        value = [] if value is None else value
        _require(isinstance(value, list), f"{key} must be a list")
        return [parse(entry, f"{key}[{i}]") for i, entry in enumerate(value)]
    return parse_entries


def _read(section, schema, label, required=(), where=None):
    """{field: parsed value} of the keys that a config section (null reads
    as empty) sets. schema maps each key to (field, parser), a parser taking
    (value, the key's label), or to (field, the schema of a nested section);
    a field of None makes the nested fields join these. ConfigError names a
    key outside the schema, or a missing required key (from where or label)."""
    section = {} if section is None else section
    _require(isinstance(section, dict), f"{label} must be a mapping")
    prefix = f"{label}." if label else ""
    for key in section:
        _require(key in schema, f"unknown config key '{prefix}{key}'")
    for key in required:
        _require(key in section, f"{where or label} is missing field '{key}'")
    values = {}
    for key, (name, parse) in schema.items():
        if key in section:
            if isinstance(parse, dict):
                value = _read(section[key], parse, prefix + key)
            else:
                value = parse(section[key], prefix + key)
            values.update(value if name is None else {name: value})
    return values


def _required(cls, schema):
    """The keys of schema whose field cls takes without a default."""
    params = inspect.signature(cls).parameters
    return [key for key, (name, _) in schema.items() if params[name].default is params[name].empty]


def _grid(value, key):
    return Grid3D(**_read(value, GRID_KEYS, key, _required(Grid3D, GRID_KEYS), f"{key} section"))


def _box(value, key):
    return _read(value, BOX_KEYS, key, required=BOX_KEYS)


def _beam(value, key):
    fields = _read(value, BEAM_KEYS, key, _required(BeamSource, BEAM_KEYS))
    try:
        return BeamSource(**fields)
    except ConfigError as exc:  # BeamSource names the field without its beam
        raise ConfigError(f"{key}.{exc}") from exc


# Parts of SCHEMA below: the keys of the grid, of a phantom box and of a beam.
GRID_KEYS = {"nx": ("nx", _integer), "ny": ("ny", _integer), "nz": ("nz", _integer),
             "delta_x_cm": ("dx", _number), "delta_y_cm": ("dy", _number),
             "delta_z_cm": ("dz", _number), "origin_cm": ("origin", _vector)}
BOX_KEYS = {"origin_cm": ("origin", _vector), "size_cm": ("size", _vector), "hu": ("hu", _number)}
BEAM_KEYS = {"direction": ("direction", _as_given), "energy_mev": ("energy_mev", _number),
             "position_cm": ("position_cm", _as_given), "weight": ("weight", _number),
             "sigma_xy_cm": ("sigma_xy_cm", _number), "sigma_e_rel": ("sigma_e_rel", _number)}
# The output files by key, and their names.
OUTPUT_NAMES = {"dose_volume": "dose.vtk", "depth_profile": "depth_profile.csv",
                "lateral_profile": "lateral_profile.csv", "rank_history": "rank_history.csv",
                "manifest": "manifest.json"}

# The schema of a config file, the one statement of its keys and of how
# each is read: key: (field, parser), see _read. The fields are those of
# ProblemConfig, Grid3D, BeamSource and _build_phantom. Only the keys that
# a file sets are passed on, so each default is stated once, on its field.
SCHEMA = {
    "name": ("name", _text),
    "grid": ("grid", _grid),
    "phantom": ("phantom", {"background_hu": ("background_hu", _number),
                            "boxes": ("boxes", _each(_box)),
                            "volume_file": ("volume_file", _string)}),
    "beams": ("beams", _each(_beam)),
    "model": ("model", _text),
    "pn_order": ("pn_order", _integer),
    "transport": (None, {"truncation_tolerance": ("truncation_tolerance", _number),
                         "rank_min": ("rank_min", _integer),
                         "rank_max": ("rank_max", _integer),
                         "cfl_number": ("cfl_number", _number)}),
    "energy": (None, {"e_min_mev": ("e_min_mev", _number),
                      "e_max_mev": ("e_max_mev", _optional(_number)),
                      "groups": ("energy_groups", _integer)}),
    "physics": (None, {"boltzmann_correction": ("boltzmann_correction", _as_given),
                       "fp_correction_scale": ("fp_correction_scale", _number)}),
    "rays": (None, {"n_side": ("ray_n_side", _integer)}),
    "output": (None, {"directory": ("output_directory", _optional(_string))}),
}


@dataclass
class ProblemConfig:
    """Validated simulation setup. SCHEMA is the one list of the keys of a
    config file (see configs/), and the fields below hold their defaults."""

    grid: Grid3D
    hu_values: np.ndarray
    beams: list
    model: str = BOLTZMANN
    pn_order: int = 7
    truncation_tolerance: float = 0.01
    rank_min: int = 2
    rank_max: int = 100
    cfl_number: float = 0.2
    e_min_mev: float = 1.0
    e_max_mev: float = None
    energy_groups: int = 128
    boltzmann_correction: bool = True
    fp_correction_scale: float = 0.5
    ray_n_side: int = 21
    output_directory: Path = None
    output_names: ClassVar[dict] = OUTPUT_NAMES    # the files write_outputs writes, fixed
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
        _require(math.isfinite(self.cfl_number) and self.cfl_number > 0.0,
                 f"transport.cfl_number must be finite and positive, got {self.cfl_number!r}")
        _require(0.0 <= self.fp_correction_scale <= 1.0,
                 "physics.fp_correction_scale must lie in [0, 1]")
        _require(isinstance(self.boltzmann_correction, bool),
                 f"physics.boltzmann_correction must be true or false, "
                 f"got {self.boltzmann_correction!r}")
        _require(self.ray_n_side >= 1, "rays.n_side must be >= 1")
        _require(math.isfinite(self.e_min_mev) and self.e_min_mev > 0.0,
                 f"energy.e_min_mev must be finite and positive, got {self.e_min_mev!r}")
        _require(self.energy_groups >= 4, "energy.groups must be >= 4")
        _require(len(self.beams) >= 1, "at least one beam is required")
        for n, label in ((self.grid.nx, "nx"), (self.grid.ny, "ny"), (self.grid.nz, "nz")):
            _require(n == 1 or n >= 3,
                     f"grid.{label}={n}: a used axis needs >= 3 cells for the "
                     f"second-order stencil (1 marks the axis inactive)")
        _require(self.grid.n_cells > 1, "grid has no active axis: nx, ny and nz are all 1")
        if self.e_max_mev is None:
            self.e_max_mev = max(b.energy_mev + 5.0 * b.sigma_e_mev for b in self.beams)
        _require(math.isfinite(self.e_max_mev),
                 f"energy.e_max_mev must be finite, got {self.e_max_mev!r}")
        _require(self.e_max_mev > self.e_min_mev,
                 "energy.e_max_mev must exceed energy.e_min_mev")
        for beam in self.beams:
            _require(beam.energy_mev < self.e_max_mev,
                     f"beam energy {beam.energy_mev} does not fit below e_max_mev={self.e_max_mev}")
        self.hu_values = np.asarray(self.hu_values, dtype=float).ravel()
        _require(self.hu_values.size == self.grid.n_cells,
                 f"HU volume has {self.hu_values.size} cells, grid has {self.grid.n_cells}")

    @classmethod
    def from_dict(cls, raw: dict, base_dir: Path = Path(".")) -> "ProblemConfig":
        """The config that a parsed file describes, read through SCHEMA;
        relative paths in it are taken from base_dir."""
        settings = _read(raw, SCHEMA, "")
        grid = settings.pop("grid") if "grid" in settings else _grid(None, "grid")
        source_files = []
        hu = _build_phantom(settings.pop("phantom", {}), grid, base_dir, source_files)
        if settings.get("output_directory") is not None:
            settings["output_directory"] = base_dir / settings["output_directory"]
        return cls(grid=grid, hu_values=hu, beams=settings.pop("beams", []),
                   source_files=source_files, resolved=raw, **settings)

    @classmethod
    def load(cls, path) -> "ProblemConfig":
        path = Path(path)
        try:
            with open(path) as fh:
                raw = yaml.load(fh, Loader=YAML_LOADER)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"config file {path} is not valid YAML: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"config file {path} must hold a mapping")
        cfg = cls.from_dict(raw, base_dir=path.parent)
        cfg.source_files.append(path)
        return cfg


def _build_phantom(spec: dict, grid: Grid3D, base_dir: Path, source_files: list):
    """The HU of every cell from the phantom's fields (see SCHEMA)."""
    if "volume_file" in spec:
        path = base_dir / spec["volume_file"]
        try:
            with open(path) as fh:
                dims = tuple(int(v) for v in fh.readline().split())
                values = np.loadtxt(fh).ravel()
        except (OSError, ValueError) as exc:  # unreadable, or not numbers
            raise ConfigError(f"cannot read phantom.volume_file {path}: {exc}") from exc
        if dims != grid.shape:
            raise ConfigError(f"phantom.volume_file dims {dims} do not match grid {grid.shape}")
        source_files.append(path)
        return values
    hu = np.full(grid.n_cells, spec.get("background_hu", 0.0))
    centers = grid.cell_centers()
    for box in spec.get("boxes", []):
        lo, size = np.array(box["origin"]), np.array(box["size"])
        inside = np.all((centers >= lo) & (centers < lo + size), axis=1)
        hu[inside] = box["hu"]
    return hu


@dataclass
class Problem:
    """Assembled, immutable inputs of one simulation."""

    config: ProblemConfig
    grid: Grid3D
    material: MaterialField
    ops: PNOperators
    stencils: object
    moments: MomentTables
    space: EnergyDGSpace

    @property
    def n_cells(self):
        return self.grid.n_cells

    @property
    def n_moments(self):
        return self.ops.basis.size

    def element_stopping(self, energies):
        """(K, 12) per-element mass stopping powers at K energies, one
        contiguous row per energy, from one array evaluation of the
        library that mix_stopping_power reads too."""
        return np.ascontiguousarray(default_stopping_library().mass_stopping_all(energies).T)

    def stopping_from(self, element_stopping):
        """S(E, r) on all cells [MeV/cm] from one row of element_stopping(
        energies): mix_stopping_power at that row's energy, bit for bit."""
        return bragg_mixture(self.material.weights, self.material.density, element_stopping)

    def model_table(self, e_mev):
        """The scattering model's per-element table at an energy or an
        array of energies (the ... axes): the kernel's Legendre moments
        (12, ..., N+2) for Boltzmann, xi1 (12, ...) for Fokker-Planck."""
        if self.config.model == BOLTZMANN:
            return self.moments.moments_at(e_mev)
        return self.moments.xi1_at(e_mev)

    def scattering_entries(self, table, degrees=None):
        """Corrected per-element (g (12, ..., k), sigma_t (12, ...)) from a
        model_table; g holds one entry per listed degree, by default the
        degrees 0..N."""
        cfg = self.config
        if cfg.model == BOLTZMANN:
            return boltzmann_tables(table, cfg.pn_order, cfg.boltzmann_correction, degrees)
        return fokker_planck_tables(table, cfg.pn_order, cfg.fp_correction_scale, degrees)

    def scattering_tables(self, table):
        """Corrected per-element (g_diags (12, ..., m), sigma_t (12, ...))
        from a model_table: each degree's entry repeated over its 2l+1
        orders."""
        # The model functions expand while they form the entries, so each
        # table keeps its memory order (column-major for Boltzmann,
        # row-major for Fokker-Planck) and every BLAS product with it its
        # summation order; the low-rank solve amplifies last-bit changes.
        return self.scattering_entries(table, self.ops.basis.degrees)


def assemble_problem(config: ProblemConfig) -> Problem:
    density, weights = default_schneider_table().convert(config.hu_values)
    material = MaterialField(density=density, weights=weights)
    ops = PNOperators.build(config.pn_order)
    stencils = build_stencils(config.grid)
    lo, hi = default_stopping_library().energy_range
    if config.e_min_mev < lo or config.e_max_mev > hi:
        raise PhysicsDataError(
            f"energy range [{config.e_min_mev}, {config.e_max_mev}] MeV exceeds "
            f"the stopping power tables [{lo:.3g}, {hi:.3g}]"
        )
    # only the elements of the phantom: the others weigh zero in every cell
    present = material.weights.any(axis=0)
    moments = MomentTables(
        np.linspace(0.98 * config.e_min_mev, 1.02 * config.e_max_mev, MOMENT_TABLE_POINTS),
        config.pn_order + 1,
        elements=[s for s, used in zip(ELEMENT_SYMBOLS, present) if used],
    )
    space = EnergyDGSpace(config.e_min_mev, config.e_max_mev, config.energy_groups)
    return Problem(
        config=config,
        grid=config.grid,
        material=material,
        ops=ops,
        stencils=stencils,
        moments=moments,
        space=space,
    )


def material_coefficients(problem: Problem):
    """(material key per cell, key -> (s_star_fn, t_fn, sigma_t_fn)).

    Cells of equal density and composition share a key. Each callable
    maps an energy array to the material's S* = S + dT/dE / 2, straggling
    T and total cross section sigma_t, in one pass over the array; the
    values equal those of per-energy scalar evaluation bit for bit. The
    per-element sigma_t table is shared by the materials: it is evaluated
    once per energy array, on the first call of any material's sigma_t,
    and contracted with each material's atomic densities.
    """
    material = problem.material
    rows = np.column_stack([material.density, material.weights])
    _, first_cells, keys = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    atomic = material.atomic_densities
    element_tables = {}                      # (shape, bytes of energies) -> table

    def element_sigma_t(e):
        """sigma_t per element at the energies e, one (1, 12) row per energy."""
        energies = (e.shape, e.tobytes())
        if energies not in element_tables:
            sigma_t = problem.scattering_entries(problem.model_table(e))[1]
            per_atom = np.moveaxis(sigma_t, 0, -1)                           # (..., 12)
            element_tables[energies] = np.ascontiguousarray(per_atom).reshape(-1, 1, N_ELEMENTS)
        return element_tables[energies]

    coefficients = {}
    for key, cell in enumerate(first_cells):
        w = material.weights[cell]
        rho = material.density[cell]
        n_i = atomic[cell]

        def s_star(e, w=w, rho=rho, n_i=n_i):
            e = np.asarray(e, dtype=float)
            s = mix_stopping_power(w, rho, e)
            return s + 0.5 * straggling_t_derivative(n_i, e)

        def t_coeff(e, n_i=n_i):
            return straggling_t(n_i, e)

        def sigma_t_fn(e, n_i=n_i):
            e = np.asarray(e, dtype=float)
            # one 1-D dot per energy, as a scalar evaluation would do it,
            # batched in one contraction
            return np.matmul(element_sigma_t(e), n_i[:, None])[:, 0, 0].reshape(e.shape)

        coefficients[key] = (s_star, t_coeff, sigma_t_fn)
    return keys, coefficients


def trace_all_beams(problem: Problem):
    """Ray-trace every beam once; returns (fluxes, counts).

    fluxes: one UncollidedFlux per beam. All beams share one
    EnergyOperators table over the coefficients of material_coefficients,
    so each material's operator is assembled once and each (material, dz)
    pair factored once; the table is dropped when the trace returns.
    counts, under their diagnostics keys: those assemblies and
    factorizations (energy_operator_assemblies, cn_factorizations), the
    Crank-Nicolson steps marched (cn_steps), and the seconds spent
    assembling the operators (energy_operator_s) and factoring them
    (cn_factor_s).
    """
    keys, coefficients = material_coefficients(problem)
    operators = EnergyOperators(problem.space, coefficients)
    fluxes = [
        trace_beam(beam, problem.grid, keys, operators, n_side=problem.config.ray_n_side)
        for beam in problem.config.beams
    ]
    return fluxes, {"energy_operator_assemblies": len(operators),
                    "cn_factorizations": len(operators.factors),
                    "cn_steps": operators.cn_steps,
                    "energy_operator_s": operators.assembly_s,
                    "cn_factor_s": operators.factor_s}


def uncollided_dose(problem: Problem, fluxes) -> np.ndarray:
    """Group-sum tally: sum_g S(E_g, r) psi_g h + below-cutoff residual."""
    space = problem.space
    element_stopping = problem.element_stopping(space.centers)      # (G, 12)
    deposited = np.zeros(problem.n_cells)
    for flux in fluxes:
        for g, s_elem in enumerate(element_stopping):
            s_field = problem.stopping_from(s_elem)
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
    s_at_emax = problem.stopping_from(problem.element_stopping(np.array([cfg.e_max_mev]))[0])
    active = [h for n, h in zip(problem.grid.shape, problem.grid.spacings) if n > 1]
    return cfg.cfl_number * min(active) * float(s_at_emax.min()) / problem.ops.spectral_radius


def pseudo_time_edges(problem: Problem) -> np.ndarray:
    """Energy step edges from E_max down to E_min, fixed CFL step."""
    cfg = problem.config
    de = _cfl_step(problem)
    n_steps = max(1, math.ceil((cfg.e_max_mev - cfg.e_min_mev) / de))
    return np.linspace(cfg.e_max_mev, cfg.e_min_mev, n_steps + 1)


@dataclass(frozen=True)
class StepTables:
    """The energy tables of a run, evaluated once at its K mid-step energies.

    energies (K,); stopping (K, 12) per-element mass stopping powers, one
    row per step (Problem.element_stopping); model the scattering model's
    table (Problem.model_table), per degree and never expanded to the m
    moments, its step axis second. Step k's row and column give what
    mix_stopping_power and model_table give at energies[k], bit for bit.
    """

    energies: np.ndarray
    stopping: np.ndarray
    model: np.ndarray


def step_tables(problem: Problem, edges) -> StepTables:
    """StepTables at the midpoints of the pseudo-time step edges."""
    e_mid = 0.5 * (edges[:-1] + edges[1:])
    return StepTables(e_mid, problem.element_stopping(e_mid), problem.model_table(e_mid))


def step_contexts(problem: Problem, tables: StepTables, k, fluxes, t_ms):
    """(StreamingContext, ScatteringContext) of step k, frozen at mid-step."""
    e_mid = tables.energies[k]
    inv_s = 1.0 / problem.stopping_from(tables.stopping[k])
    stream_ctx = StreamingContext(inv_s, problem.stencils, problem.ops)
    g_diags, sigma_t = problem.scattering_tables(tables.model[:, k])
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
        self.state = LowRankState.zero(n, m, min(cfg.rank_min, n, m))
        self.policy = TruncationPolicy(cfg.truncation_tolerance, cfg.rank_min, cfg.rank_max)
        self.max_orth_defect = 0.0
        self.max_tail = 0.0
        self.tail_violations = 0
        self.peak_state_numbers = 0
        self.peak_transient_numbers = 0
        self.phase_s = dict.fromkeys(STEP_PHASES, 0.0)

    def _truncate(self):
        # as the oracle checks max |u|: the bases are orthonormal, so S
        # carries the magnitude of the state
        scale = np.abs(self.state.s).max()
        if not np.isfinite(scale):
            raise NumericalError(f"non-finite low-rank state: max |S| {scale:g}")
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
    so its truncation phase stays at zero.

    The state is advanced in place, in one FullRankWorkspace allocated
    here, so a step holds the state plus the workspace
    (peak_transient_numbers). The step calls are looked up as module
    globals, like LowRankSolver's.
    """

    max_orth_defect = 0.0
    max_tail = 0.0
    tail_violations = 0

    def __init__(self, problem: Problem):
        n, m = problem.n_cells, problem.n_moments
        self.u = np.zeros((n, m))
        self.work = FullRankWorkspace(problem.stencils, problem.ops)
        self.peak_state_numbers = self.u.size
        self.peak_transient_numbers = self.u.size + self.work.numbers
        self.phase_s = dict.fromkeys(STEP_PHASES, 0.0)

    def step(self, dt, stream_ctx, scat_ctx):
        """Advance one step; returns (degree-0 moment (n,), rank)."""
        timed(self.phase_s, "streaming", fullrank_streaming_step, self.u, dt, stream_ctx, self.work)
        timed(self.phase_s, "scattering", fullrank_scattering_step, self.u, dt, scat_ctx,
              self.work.stage)
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

    fluxes, trace_counts = timed(phase_s, "ray_trace", trace_all_beams, problem)
    t_ms = [real_sph_eval(config.pn_order, b.direction) for b in config.beams]

    edges = pseudo_time_edges(problem)
    n_steps = len(edges) - 1
    de = float(edges[0] - edges[1])

    tables = timed(phase_s, "contexts", step_tables, problem, edges)
    stepper = SOLVERS[solver](problem)
    deposited = np.zeros(n)
    rank_history = []
    prev_integrand = np.zeros(n)
    for k in range(n_steps):
        e_hi, e_lo = edges[k], edges[k + 1]
        dt = e_hi - e_lo
        stream_ctx, scat_ctx = timed(
            phase_s, "contexts", step_contexts, problem, tables, k, fluxes, t_ms
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
        "moment_table_elements": list(problem.moments.elements),
        "runtime_s": elapsed,
        "phase_s": phase_s,
        "rays_per_beam": [f.n_rays for f in fluxes],
        "rays_missed_per_beam": [f.n_rays_missed for f in fluxes],
        "marches_per_beam": [f.n_marches for f in fluxes],
        **trace_counts,
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
    """Read back a write_volume file: (grid, {name: values}).

    A file that cannot be read, lacks a DIMENSIONS, ORIGIN or SPACING line
    of three numbers, or holds an array short of values or with a value
    that is not a number raises OutputIOError naming the file.
    """
    try:
        with open(path) as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise OutputIOError(f"cannot read volume file {path}: {exc}") from exc
    header, arrays = {}, {}
    i = 0
    try:
        while i < len(lines):
            word, *fields = lines[i].split() or [""]
            if word in ("DIMENSIONS", "ORIGIN", "SPACING"):
                header[word] = [(int if word == "DIMENSIONS" else float)(v) for v in fields]
            elif word == "SCALARS":
                nx, ny, nz = header["DIMENSIONS"]
                values = lines[i + 2 : i + 2 + nx * ny * nz]
                if len(values) < nx * ny * nz:
                    raise OutputIOError(f"{path} is truncated: array '{fields[0]}' has "
                                        f"{len(values)} of {nx * ny * nz} values")
                arrays[fields[0]] = np.array([float(v) for v in values])
                i += 1 + len(values)
            i += 1
        (nx, ny, nz), (ox, oy, oz), (dx, dy, dz) = (
            header[word] for word in ("DIMENSIONS", "ORIGIN", "SPACING")
        )
    except KeyError as exc:
        raise OutputIOError(f"{path} is not a structured-points volume: "
                            f"no {exc.args[0]} line") from exc
    except ValueError as exc:
        raise OutputIOError(f"{path} holds a malformed line: {exc}") from exc
    origin = (ox - 0.5 * dx, oy - 0.5 * dy, oz - 0.5 * dz)
    grid = Grid3D(nx=nx, ny=ny, nz=nz, dx=dx, dy=dy, dz=dz, origin=origin)
    return grid, arrays


def compare_volumes(path_a, path_b, array="deposited_energy"):
    """Relative L2 and Linf of A against reference B.

    Both are 0 only when A equals B, and inf when B is zero and A is not;
    volumes on different grids (shape, origin or spacing) raise ConfigError.
    """
    grid_a, arrays_a = read_volume(path_a)
    grid_b, arrays_b = read_volume(path_b)
    for path, arrays in ((path_a, arrays_a), (path_b, arrays_b)):
        if array not in arrays:
            raise OutputIOError(
                f"{path} holds no array '{array}'; it holds {', '.join(arrays) or 'none'}"
            )
    if grid_a != grid_b:
        raise ConfigError(f"volumes lie on different grids: {path_a} on {grid_a}, "
                          f"{path_b} on {grid_b}")
    a, b = arrays_a[array], arrays_b[array]

    def relative(diff, ref):
        return float(diff / ref) if ref > 0 else (0.0 if diff == 0 else math.inf)

    return {
        "rel_l2": relative(np.linalg.norm(a - b), np.linalg.norm(b)),
        "rel_linf": relative(np.abs(a - b).max(), np.abs(b).max()),
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


def lateral_profile(result: SimulationResult):
    """(lateral_cm, deposited, dose) along x at the depth-profile peak."""
    grid = result.problem.grid
    _, iy = _beam_axis_cells(result)
    _, dep, _ = depth_profile(result)
    kz = int(np.argmax(dep))
    idx = [grid.index(i, iy, kz) for i in range(grid.nx)]
    x = grid.origin[0] + (np.arange(grid.nx) + 0.5) * grid.dx
    return x, result.dose.deposited[idx], result.dose.dose[idx]


def _data_file_checksums(config: ProblemConfig):
    files = [data_path("schneider_density.csv"), data_path("schneider_composition.csv")]
    files += [data_path(f"stopping_power/{e.symbol}.csv") for e in ELEMENTS]
    files += [data_path(gauss_rule_file(n)) for n in SHIPPED_RULES]
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


def _write_csv(path, header, rows, formats):
    """A CSV file: the header line, then one line per row, field i in formats[i]."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(value, spec) for value, spec in zip(row, formats)) + "\n")


# Diagnostics that hold wall times. The manifest writes them as %.6e
# (_Seconds), so its size does not depend on how long the run took.
TIMING_DIAGNOSTICS = ("runtime_s", "phase_s", "energy_operator_s", "cn_factor_s")


class _Seconds(float):
    """A wall time, which _ManifestEncoder writes in the fixed width of %.6e."""


class _ManifestEncoder(json.JSONEncoder):
    """JSON encoder that writes _Seconds as %.6e and other floats as json.dumps does."""

    def iterencode(self, o, _one_shot=False):
        def floatstr(value):
            if isinstance(value, _Seconds):
                return format(value, ".6e")
            return json.dumps(float(value))
        return json.encoder._make_iterencode(
            {}, self.default, json.encoder.encode_basestring_ascii, self.indent, floatstr,
            self.key_separator, self.item_separator, self.sort_keys, self.skipkeys, _one_shot,
        )(o, 0)


def _fixed_width_times(diagnostics: dict) -> dict:
    """A copy of diagnostics with every TIMING_DIAGNOSTICS value marked as _Seconds."""
    out = dict(diagnostics)
    for key in TIMING_DIAGNOSTICS:
        value = out[key]
        out[key] = ({name: _Seconds(v) for name, v in value.items()}
                    if isinstance(value, dict) else _Seconds(value))
    return out


def write_outputs(result: SimulationResult):
    """Dose volume, depth/lateral profiles, rank history, run manifest."""
    config = result.problem.config
    out = validate_output_paths(config)
    names = OUTPUT_NAMES

    write_volume(
        out / names["dose_volume"],
        result.problem.grid,
        {"deposited_energy": result.dose.deposited, "dose": result.dose.dose},
        title=f"pndose {config.name}",
    )

    profile = (".9g", ".12e", ".12e")
    _write_csv(out / names["depth_profile"], "depth_cm,deposited_mev_cm3,dose",
               zip(*depth_profile(result)), profile)
    _write_csv(out / names["lateral_profile"], "lateral_cm,deposited_mev_cm3,dose",
               zip(*lateral_profile(result)), profile)
    _write_csv(out / names["rank_history"], "step,E_MeV,rank", result.rank_history,
               ("", ".9g", ""))

    manifest = {
        "version": __version__,
        "name": config.name,
        "config": _jsonable(config.resolved),
        "data_checksums": _data_file_checksums(config),
        "diagnostics": _jsonable(_fixed_width_times(result.diagnostics)),
    }
    with open(out / names["manifest"], "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, cls=_ManifestEncoder)
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
