import dataclasses
import math

import numpy as np
import pytest

from rwasim.device import DeviceSpec, VoltageConfig, default_device


@pytest.fixture
def device():
    return default_device()


@pytest.fixture
def zero_volts(device):
    return VoltageConfig.zeros(device.n_electrodes)


def make_xx_device(length: float = 24.0) -> DeviceSpec:
    """Decoupled device whose base Hamiltonian realizes X on pairs (1,2), (8,9)."""
    c = math.pi / (2.0 * length)
    base_coupling = np.zeros(10)
    base_coupling[0] = c
    base_coupling[7] = c
    return DeviceSpec(
        base_beta=np.zeros(11),
        base_coupling=base_coupling,
        coupling_length=length,
    )


def random_device(rng: np.random.Generator) -> DeviceSpec:
    return DeviceSpec(
        base_beta=rng.uniform(3.0, 3.2, 11),
        base_coupling=rng.uniform(0.05, 0.15, 10),
    )


def with_electrode(v: VoltageConfig, electrode: int, value: float) -> VoltageConfig:
    """Copy of `v` with 1-based `electrode` set to `value`."""
    volts = v.volts.copy()
    volts[electrode - 1] = value
    return VoltageConfig(volts)


def spec_equal(a: DeviceSpec, b: DeviceSpec) -> bool:
    """Every field of two device specs equal, arrays elementwise."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(DeviceSpec))
