"""Stopping power tables, Bragg-additivity mixing, and energy straggling.

Per-element mass stopping powers come from shipped CSV tables and are
interpolated log-log. Mixtures are formed with the Bragg additivity rule
S = rho * sum_i w_i s_i(E). The straggling coefficient follows the
bound-electron model

    T = sum_i (1/(4 pi eps0)^2) N_i 4 pi e^4 Z_i
        * (4 I_i / (3 m_e v^2)) * ln(2 m_e v^2 / I_i)

evaluated in SI and returned in MeV^2/cm.
"""

import csv
import functools
from dataclasses import dataclass

import numpy as np

from ..constants import (
    ELECTRON_MASS_KG,
    ELEMENTARY_CHARGE_C,
    ELEMENT_INDEX,
    ELEMENT_SYMBOLS,
    ELEMENTS,
    MEV_IN_JOULE,
    N_ELEMENTS,
    VACUUM_PERMITTIVITY_F_M,
)
from ..errors import PhysicsDataError
from .kinematics import velocity_m_s
from .materials import data_path


@dataclass
class StoppingPowerTable:
    """One element's mass stopping power on a strictly increasing grid."""

    symbol: str
    energies: np.ndarray   # (k,) MeV
    values: np.ndarray     # (k,) MeV cm^2 / g

    def __post_init__(self):
        if np.any(np.diff(self.energies) <= 0.0):
            raise PhysicsDataError(f"{self.symbol}: energy grid not increasing")
        if np.any(self.values <= 0.0):
            raise PhysicsDataError(f"{self.symbol}: non-positive stopping power")
        self._log_e = np.log(self.energies)
        self._log_s = np.log(self.values)

    def __call__(self, e_mev):
        """Log-log linear interpolation; refuses to extrapolate."""
        e = np.asarray(e_mev, dtype=float)
        if np.any(e < self.energies[0]) or np.any(e > self.energies[-1]):
            raise PhysicsDataError(
                f"{self.symbol}: energy outside table range "
                f"[{self.energies[0]:g}, {self.energies[-1]:g}] MeV"
            )
        return np.exp(np.interp(np.log(e), self._log_e, self._log_s))


class StoppingPowerLibrary:
    """All 12 per-element tables, loaded once and immutable."""

    def __init__(self, tables: dict):
        missing = [s for s in ELEMENT_SYMBOLS if s not in tables]
        if missing:
            raise PhysicsDataError(f"missing stopping power tables for {missing}")
        self.tables = tables

    @classmethod
    def load_default(cls) -> "StoppingPowerLibrary":
        tables = {}
        for symbol in ELEMENT_SYMBOLS:
            path = data_path(f"stopping_power/{symbol}.csv")
            with open(path, newline="") as fh:
                rows = [r for r in csv.reader(fh) if r]
            if rows[0] != ["E_MeV", "S_MeV_cm2_per_g"]:
                raise PhysicsDataError(f"{path}: unexpected header {rows[0]}")
            data = np.array([[float(a), float(b)] for a, b in rows[1:]])
            tables[symbol] = StoppingPowerTable(symbol, data[:, 0], data[:, 1])
        return cls(tables)

    def mass_stopping(self, symbol: str, e_mev):
        return self.tables[symbol](e_mev)

    def mass_stopping_all(self, e_mev):
        """(12, ...) array of per-element mass stopping powers at e_mev."""
        return np.stack([self.tables[s](e_mev) for s in ELEMENT_SYMBOLS])

    @property
    def energy_range(self):
        lo = max(t.energies[0] for t in self.tables.values())
        hi = min(t.energies[-1] for t in self.tables.values())
        return lo, hi


@functools.cache
def default_stopping_library() -> StoppingPowerLibrary:
    return StoppingPowerLibrary.load_default()


def mix_stopping_power(weights, density, e_mev):
    """Bragg-additivity stopping power of a mixture, S [MeV/cm], from the
    default stopping library.

    weights: (..., 12) mass fractions; density: (...) g/cm^3;
    e_mev: scalar or broadcastable energy. Linear in density and in each
    weight by construction.
    """
    mass_stopping = default_stopping_library().mass_stopping_all(e_mev)
    return bragg_mixture(weights, density, mass_stopping)


def bragg_mixture(weights, density, mass_stopping):
    """rho * sum_i w_i s_i from per-element mass stopping powers.

    mass_stopping: (12, ...) values s_i at one energy or more, as
    mass_stopping_all returns them; weights and density as for
    mix_stopping_power, which is this at library.mass_stopping_all(e).
    """
    weights = np.asarray(weights, dtype=float)
    density = np.asarray(density, dtype=float)
    mixture = np.tensordot(weights, mass_stopping, axes=([-1], [0]))
    return density * mixture


# straggling: SI prefactor e^4 / (4 pi eps0)^2 * 4 pi  [J^2 m^2]
_STRAGGLE_PREFACTOR_SI = (
    4.0
    * np.pi
    * ELEMENTARY_CHARGE_C**4
    / (4.0 * np.pi * VACUUM_PERMITTIVITY_F_M) ** 2
)

_Z = np.array([e.z for e in ELEMENTS], dtype=float)
_I_J = np.array([e.i_ev for e in ELEMENTS]) * ELEMENTARY_CHARGE_C  # [J]


def straggling_t(atomic_densities, e_mev):
    """Straggling coefficient T [MeV^2/cm] of a mixture.

    atomic_densities: (..., 12) N_i in atoms/cm^3; e_mev: kinetic energy,
    scalar or array. The result has shape e_mev.shape +
    atomic_densities.shape[:-1]. Linear in every N_i. Raises if the
    model's logarithm closes (an energy too low for any element present).

    The sum over elements is one dot product per energy (and material),
    so an array call returns bit for bit what the scalar calls return.
    """
    n_i = np.asarray(atomic_densities, dtype=float)
    if n_i.shape[-1] != N_ELEMENTS:
        raise PhysicsDataError("atomic_densities must have 12 element entries")
    e = np.asarray(e_mev, dtype=float)
    flat = e.reshape(-1)
    v = velocity_m_s(flat)
    me_v2 = (ELECTRON_MASS_KG * v * v)[:, None]        # [J], (n_e, 1)
    log_arg = 2.0 * me_v2 / _I_J                       # (n_e, 12)
    present = np.any(n_i > 0.0, axis=tuple(range(n_i.ndim - 1)))
    closed = log_arg[:, present] <= 1.0
    if np.any(closed):
        bad = [ELEMENT_SYMBOLS[i] for i in np.nonzero(present)[0][np.any(closed, axis=0)]]
        raise PhysicsDataError(
            f"energy below straggling model validity for {bad} at "
            f"{flat[np.any(closed, axis=1)].min():g} MeV"
        )
    term = np.where(log_arg > 1.0, 4.0 * _I_J / (3.0 * me_v2) * np.log(log_arg), 0.0)
    per_element = _STRAGGLE_PREFACTOR_SI * _Z * term   # [J^2 m^2], (n_e, 12)
    n_si = n_i * 1e6                                   # atoms/m^3
    # one batched contraction: a dot product per energy and material, as
    # in a scalar call
    rows = per_element.reshape((-1,) + (1,) * (n_i.ndim - 1) + (1, N_ELEMENTS))
    t_si = np.matmul(rows, n_si[..., None])[..., 0, 0]     # [J^2/m]
    t_si = t_si.reshape(e.shape + n_i.shape[:-1])
    return t_si / MEV_IN_JOULE**2 / 100.0              # -> [MeV^2/cm]


# Relative step of straggling_t_derivative's central difference.
STRAGGLING_REL_STEP = 1e-4


def straggling_t_derivative(atomic_densities, e_mev):
    """dT/dE by central difference; T is smooth so this is plenty.

    e_mev may be an array, as for straggling_t.
    """
    e = np.asarray(e_mev, dtype=float)
    h = STRAGGLING_REL_STEP * np.maximum(np.abs(e), 1.0)
    tp = straggling_t(atomic_densities, e + h)
    tm = straggling_t(atomic_densities, e - h)
    return (tp - tm) / (2.0 * h)
