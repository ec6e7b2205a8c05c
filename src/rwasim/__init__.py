"""Simulator and control compiler for reconfigurable photonic waveguide arrays.

The package loads no submodule; import each name from its own module:
`device` (specs, voltages, Hamiltonian), `evolution` (unitaries, powers,
profiles), `subcircuits`, `photon_stats` (HOM statistics and dip fit),
`calibration` (lookup maps), `compiler` (gate compilation), `analysis`
(loss accounting), `csvio`, `manifest` and `cli`.  No submodule imports
scipy.
"""

__version__ = "0.21.0"
