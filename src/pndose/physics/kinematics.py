"""Relativistic proton kinematics on the (cm, MeV, g) unit system."""

import numpy as np

from ..constants import HBARC_MEV_CM, PROTON_REST_MEV, SPEED_OF_LIGHT_M_S


def momentum_mev_c(e_kin):
    """Proton momentum p [MeV/c] at kinetic energy e_kin [MeV]."""
    e_kin = np.asarray(e_kin, dtype=float)
    return np.sqrt(e_kin * (e_kin + 2.0 * PROTON_REST_MEV))


def beta(e_kin):
    """v/c of a proton at kinetic energy e_kin [MeV]."""
    e_kin = np.asarray(e_kin, dtype=float)
    return momentum_mev_c(e_kin) / (e_kin + PROTON_REST_MEV)


def velocity_m_s(e_kin):
    """Proton speed [m/s]; used by the SI-specified straggling formula."""
    return beta(e_kin) * SPEED_OF_LIGHT_M_S


def wave_number_inv_cm(e_kin):
    """Reduced wave number k = p / hbar [1/cm]."""
    return momentum_mev_c(e_kin) / HBARC_MEV_CM
