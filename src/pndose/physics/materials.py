"""Material layer: HU conversion and per-cell composition fields.

Tissue at every point is a mixture of the fixed 12-element base set.
Hounsfield units are converted to mass density and elemental weight
fractions through a piecewise table (Schneider-style CT conversion)
shipped as CSV data, so the physics stays out of the code.
"""

import csv
import functools
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from ..constants import AVOGADRO, ELEMENT_SYMBOLS, ELEMENTS, N_ELEMENTS
from ..errors import PhysicsDataError

HU_MIN = -1024.0
HU_MAX = 3000.0

ATOMIC_MASSES = np.array([e.atomic_mass for e in ELEMENTS])

_COMPOSITION_SUM_TOL = 1e-12


def _read_csv_rows(path):
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    return rows[0], rows[1:]


def data_path(name: str) -> Path:
    """Path of a shipped data file (overridable via PNDOSE_DATA_DIR)."""
    import os

    override = os.environ.get("PNDOSE_DATA_DIR")
    if override:
        candidate = Path(override) / name
        if candidate.exists():
            return candidate
    return Path(resources.files("pndose") / "data" / name)


@dataclass
class SchneiderTable:
    """Piecewise HU -> (density, weight fractions) conversion."""

    density_edges: np.ndarray      # (nseg, 2) [hu_lo, hu_hi)
    density_coeffs: np.ndarray     # (nseg, 2) rho = a + b*HU
    composition_edges: np.ndarray  # (nbin, 2)
    compositions: np.ndarray       # (nbin, 12) mass fractions

    @classmethod
    def from_files(cls, density_csv, composition_csv) -> "SchneiderTable":
        header, rows = _read_csv_rows(density_csv)
        if header[:4] != ["hu_lo", "hu_hi", "a", "b"]:
            raise PhysicsDataError(f"unexpected density table header {header}")
        dens = np.array([[float(v) for v in r] for r in rows])

        header, rows = _read_csv_rows(composition_csv)
        if header[2:] != list(ELEMENT_SYMBOLS):
            raise PhysicsDataError(
                f"composition table columns {header[2:]} do not match the "
                f"12-element base set {list(ELEMENT_SYMBOLS)}"
            )
        comp = np.array([[float(v) for v in r] for r in rows])

        table = cls(
            density_edges=dens[:, :2],
            density_coeffs=dens[:, 2:],
            composition_edges=comp[:, :2],
            compositions=comp[:, 2:],
        )
        table.validate()
        return table

    @classmethod
    def load_default(cls) -> "SchneiderTable":
        return cls.from_files(
            data_path("schneider_density.csv"),
            data_path("schneider_composition.csv"),
        )

    def validate(self) -> None:
        sums = self.compositions.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _COMPOSITION_SUM_TOL):
            bad = int(np.argmax(np.abs(sums - 1.0)))
            raise PhysicsDataError(
                f"composition bin {bad} weights sum to {sums[bad]!r}, not 1"
            )
        if np.any(self.compositions < 0.0):
            raise PhysicsDataError("negative weight fraction in composition table")
        for edges in (self.density_edges, self.composition_edges):
            if np.any(edges[:, 1] <= edges[:, 0]):
                raise PhysicsDataError("empty HU bin in conversion table")
            if np.any(edges[1:, 0] != edges[:-1, 1]):
                raise PhysicsDataError("HU bins are not contiguous")

    def _locate(self, hu, edges):
        # right-open bins; the topmost bin includes its upper edge
        idx = np.searchsorted(edges[:, 0], hu, side="right") - 1
        idx = np.clip(idx, 0, len(edges) - 1)
        return idx

    def convert(self, hu):
        """Map HU values to (density [g/cm^3], weights (..., 12))."""
        hu = np.asarray(hu, dtype=float)
        if not np.all((hu >= HU_MIN) & (hu <= HU_MAX)):  # NaN fails both
            raise PhysicsDataError(
                f"HU outside supported range [{HU_MIN:g}, {HU_MAX:g}] or not a number"
            )
        di = self._locate(hu, self.density_edges)
        a = self.density_coeffs[di, 0]
        b = self.density_coeffs[di, 1]
        density = a + b * hu
        ci = self._locate(hu, self.composition_edges)
        weights = self.compositions[ci]
        return density, weights


@functools.cache
def default_schneider_table() -> SchneiderTable:
    return SchneiderTable.load_default()


@dataclass
class MaterialField:
    """Per-cell density and elemental mass fractions.

    Immutable after construction; atomic_densities, N_i = rho w_i N_A / M_i
    [atoms/cm^3] of shape (n, 12), is derived once in __post_init__.
    """

    density: np.ndarray            # (n,)
    weights: np.ndarray            # (n, 12)
    atomic_densities: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.density = np.atleast_1d(np.asarray(self.density, dtype=float))
        self.weights = np.atleast_2d(np.asarray(self.weights, dtype=float))
        if self.weights.shape != (self.density.shape[0], N_ELEMENTS):
            raise PhysicsDataError(
                f"weights shape {self.weights.shape} inconsistent with "
                f"{self.density.shape[0]} cells x {N_ELEMENTS} elements"
            )
        if np.any(self.density <= 0.0):
            raise PhysicsDataError("non-positive density in material field")
        sums = self.weights.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise PhysicsDataError("cell weight fractions do not sum to 1")
        self.atomic_densities = (
            self.density[:, None] * self.weights * (AVOGADRO / ATOMIC_MASSES)
        )
        for array in (self.density, self.weights, self.atomic_densities):
            array.flags.writeable = False
