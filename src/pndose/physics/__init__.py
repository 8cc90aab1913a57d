"""Element data, material mixing, stopping power, straggling, scattering."""
