import dataclasses
import math
from unittest import mock

import numpy as np
import pytest

from rwasim import evolution
from rwasim.compiler import objective_with_gradient, preset_config
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


def dense_sensitivity_device() -> DeviceSpec:
    """Default base with every guide and coupling tied to all 22 electrodes,
    as a YAML device's sensitivities may tie them: each entry of H then sums
    22 products, whose rounding depends on the order of the sum."""
    rng = np.random.default_rng(0)
    return DeviceSpec(beta_sensitivity=rng.uniform(-0.02, 0.02, (11, 22)),
                      coupling_sensitivity=rng.uniform(-0.01, 0.01, (10, 22)))


def with_electrode(v: VoltageConfig, electrode: int, value: float) -> VoltageConfig:
    """Copy of `v` with 1-based `electrode` set to `value`."""
    volts = v.volts.copy()
    volts[electrode - 1] = value
    return VoltageConfig(volts)


def spec_equal(a: DeviceSpec, b: DeviceSpec) -> bool:
    """Every field of two device specs equal, arrays elementwise."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in dataclasses.fields(DeviceSpec))


def kernel_block_metrics(u, targets):
    """(objective, metrics[k, s]) of the compiler's kernel, the fidelity,
    crosstalk and leakage (k = 0, 1, 2) of config2's pairs (1, 2) and (8, 9)
    (s = 0, 1), when the transfer matrix's block over guides 1, 2, 8 and 9 is
    that of the complex symmetric 11 x 11 matrix u, unitary or not.

    The kernel's eigendecomposition is replaced by one that gives this block
    as sum_a q_a q_a^T e^{-i w_a L} with real q_a: the eigenpairs of Re and of
    Im of the block, each q_a scaled by the root of its eigenvalue's size and
    e^{-i w_a L} that eigenvalue's sign times 1 or i.
    """
    spec, config = default_device(), preset_config("config2")
    cols = [0, 1, 7, 8]
    block = np.asarray(u)[np.ix_(cols, cols)]
    lam_re, q_re = np.linalg.eigh(block.real)
    lam_im, q_im = np.linalg.eigh(block.imag)
    q = np.zeros((11, 11))
    q[cols, :8] = np.hstack((q_re * np.sqrt(np.abs(lam_re)),
                             q_im * np.sqrt(np.abs(lam_im))))
    phase = np.concatenate((np.where(lam_re < 0.0, np.pi, 0.0),
                            np.where(lam_im < 0.0, 0.5 * np.pi, -0.5 * np.pi),
                            np.zeros(3)))
    with mock.patch.object(evolution, "eigh_tridiagonal",
                           return_value=((phase / spec.coupling_length)[None], q[None])):
        [value], _, metrics = objective_with_gradient(spec, config, targets)(
            np.zeros((1, len(config.active_electrodes))))
    return value, metrics[..., 0]
