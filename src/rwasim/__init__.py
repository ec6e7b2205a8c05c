"""Simulator and control compiler for reconfigurable photonic waveguide arrays."""

__version__ = "0.12.0"

from .device import (
    DeviceSpec,
    DeviceSpecError,
    TridiagonalHamiltonian,
    VoltageBoundError,
    VoltageConfig,
    build_hamiltonian,
    default_device,
    load_device_spec,
    save_device_spec,
)
from .evolution import (
    IntensityProfile,
    TransferUnitary,
    output_power,
    propagation_profile,
    unitary,
)
from .photon_stats import (
    DipFit,
    HomScan,
    fit_hom_dip,
    ideal_visibility,
    reflectivity_from_powers,
    simulate_hom_scan,
    two_photon_coincidence,
    visibility_error,
)
from .subcircuits import (
    SubcircuitPair,
    TruthTable,
    TwoModeUnitary,
    average_fidelity,
    distribution_fidelity,
    effective_reflectivity,
    gate_truth_table,
    leakage,
    two_mode_unitary,
)
from .calibration import (
    LookupMap,
    build_lookup_map,
    gate_voltages_by_linear_fit,
    solve_voltage,
)
from .compiler import (
    CompileResult,
    ElectrodeConfig,
    objective,
    optimize_parallel_gates,
    preset_config,
    sweep_chip_length,
)
from .analysis import LossReport, clements_loss, loss_report, wa_loss
