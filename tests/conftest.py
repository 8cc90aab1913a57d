"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from pndose.raytracer import UncollidedFlux


@pytest.fixture
def nan_uncollided_flux(monkeypatch):
    """UncollidedFlux.at_energy with a NaN in its first cell, which the
    collided source of every step then reads."""
    original = UncollidedFlux.at_energy

    def with_nan(self, e_mev):
        values = original(self, e_mev).copy()
        values[0] = np.nan
        return values

    monkeypatch.setattr(UncollidedFlux, "at_energy", with_nan)
