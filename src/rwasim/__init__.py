"""Simulator and control compiler for reconfigurable photonic waveguide arrays.

The package loads no submodule; import each name from its own module:
`device` (specs, voltages, Hamiltonian), `evolution` (unitaries, powers,
profiles), `subcircuits`, `photon_stats` (HOM statistics and dip fit),
`calibration` (lookup maps), `compiler` (gate compilation, the one module
that loads scipy), `analysis` (loss accounting), `csvio`, `manifest` and
`cli`.
"""

__version__ = "0.13.0"
