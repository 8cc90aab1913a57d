"""Element data, material mixing, stopping power, straggling, scattering."""

from .kinematics import beta, gamma, momentum_mev_c, velocity_m_s, wave_number_inv_cm
from .materials import (
    HU_MAX,
    HU_MIN,
    MaterialField,
    SchneiderTable,
    default_schneider_table,
)
from .moliere import (
    MomentTables,
    kernel_amplitude,
    legendre_moments,
    moliere_dcs,
    moments_of_kernel,
    screening_parameters,
    tau_lab,
)
from .stopping import (
    StoppingPowerLibrary,
    StoppingPowerTable,
    bragg_mixture,
    default_stopping_library,
    mix_stopping_power,
    straggling_t,
    straggling_t_derivative,
)

__all__ = [
    "HU_MAX",
    "HU_MIN",
    "MaterialField",
    "MomentTables",
    "SchneiderTable",
    "StoppingPowerLibrary",
    "StoppingPowerTable",
    "beta",
    "bragg_mixture",
    "default_schneider_table",
    "default_stopping_library",
    "gamma",
    "kernel_amplitude",
    "legendre_moments",
    "mix_stopping_power",
    "moliere_dcs",
    "moments_of_kernel",
    "momentum_mev_c",
    "screening_parameters",
    "straggling_t",
    "straggling_t_derivative",
    "tau_lab",
    "velocity_m_s",
    "wave_number_inv_cm",
]
