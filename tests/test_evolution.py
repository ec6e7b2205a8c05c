import math

import numpy as np
import pytest
from scipy.linalg import expm

from rwasim import evolution
from rwasim.device import (
    TridiagonalHamiltonian,
    VoltageConfig,
    build_hamiltonian,
    hamiltonian_diagonals,
)
from rwasim.evolution import (
    eigh_tridiagonal,
    output_power,
    pair_blocks,
    powers_to_csv,
    profile_to_csv,
    propagation_profile,
    unitary,
    unitary_to_csv,
)

from conftest import make_xx_device, random_device


def two_mode(beta1, beta2, coupling):
    return TridiagonalHamiltonian(diag=np.array([beta1, beta2]),
                                  offdiag=np.array([coupling]))


class TestUnitary:
    def test_zero_hamiltonian_gives_identity(self):
        h = TridiagonalHamiltonian(diag=np.zeros(5), offdiag=np.zeros(4))
        u = unitary(h, 24.0)
        np.testing.assert_allclose(u.matrix, np.eye(5), atol=1e-14)

    def test_two_mode_closed_form(self):
        # C*L = pi/4 at beta = 0
        length = 24.0
        h = two_mode(0.0, 0.0, math.pi / (4 * length))
        u = unitary(h, length)
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        expected = np.array([[c, -1j * s], [-1j * s, c]])
        np.testing.assert_allclose(u.matrix, expected, atol=1e-12)

    def test_matches_scaling_and_squaring_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            h = build_hamiltonian(random_device(rng),
                                  VoltageConfig(rng.uniform(-10, 10, 22)))
            u = unitary(h, 24.0)
            oracle = expm(-1j * h.to_matrix() * 24.0)
            np.testing.assert_allclose(u.matrix, oracle, atol=1e-9)

    def test_non_positive_length_rejected(self):
        h = two_mode(0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            unitary(h, 0.0)

    @pytest.mark.parametrize("length", [math.inf, math.nan])
    def test_length_must_be_positive_and_finite(self, length):
        # an infinite length gave a RuntimeWarning, then blamed the matrix
        # for containing non-finite entries
        with pytest.raises(ValueError, match="length must be a finite real > 0"):
            unitary(two_mode(0.0, 0.0, 0.1), length)

    def test_composition(self):
        rng = np.random.default_rng(11)
        h = build_hamiltonian(random_device(rng), VoltageConfig(np.zeros(22)))
        u_total = unitary(h, 30.0)
        u1 = unitary(h, 12.0)
        u2 = unitary(h, 18.0)
        np.testing.assert_allclose(u_total.matrix, u2.matrix @ u1.matrix,
                                   atol=1e-9)

    def test_block_preservation_exact(self):
        rng = np.random.default_rng(3)
        offdiag = rng.uniform(0.05, 0.15, 10)
        offdiag[4] = 0.0
        h = TridiagonalHamiltonian(diag=rng.uniform(3.0, 3.2, 11),
                                   offdiag=offdiag)
        u = unitary(h, 24.0)
        assert np.max(np.abs(u.matrix[:5, 5:])) <= 1e-12
        assert np.max(np.abs(u.matrix[5:, :5])) <= 1e-12


class TestUnitaryBlocks:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scalar_unitary(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_device(rng)
        volts = rng.uniform(-10.0, 10.0, (7, spec.n_electrodes))
        diag, offdiag = hamiltonian_diagonals(spec, volts)
        blocks = [pair_blocks(diag, offdiag, spec.coupling_length, i) for i in range(10)]
        assert all(block.shape == (7, 2, 2) for block in blocks)
        for b, v in enumerate(volts):
            u = unitary(build_hamiltonian(spec, VoltageConfig(v)),
                        spec.coupling_length)
            for i, block in enumerate(blocks):
                np.testing.assert_allclose(block[b], u.matrix[i:i + 2, i:i + 2],
                                           rtol=0, atol=1e-12)

    def test_non_positive_length_rejected(self):
        with pytest.raises(ValueError):
            pair_blocks(np.zeros((1, 3)), np.zeros((1, 2)), 0.0, 0)


class TestStreamedResidue:
    """`pair_blocks` takes its difference products one factor at a time and
    forms its three entries one at a time.  Each must equal, bit for bit, the
    stacked form: one product over the (N, N, B) eigenvalue differences, and
    one phase sum over the stacked (3, N, B) entries."""

    LENGTH = 24.0

    @pytest.mark.parametrize("n", [2, 3, 11, 21])
    def test_difference_products_equal_the_stacked_product(self, n):
        w = np.sort(np.random.default_rng(n).uniform(-1.0, 1.0, (n, 300)), axis=0)
        w[:, :10] = 0.5  # a repeated spectrum, with zero factors
        diff = w[:, None] - w
        diff.reshape(n * n, -1)[::n + 1] = 1.0
        stacked = np.multiply.reduce(diff, axis=1)
        assert evolution._difference_products(w).tobytes() == stacked.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 11, 21])
    @pytest.mark.parametrize("scaled", [True, False], ids=["residue", "eigenvector"])
    def test_phase_sums_equal_the_stacked_sums(self, n, scaled):
        rng = np.random.default_rng(n)
        w = rng.uniform(2.8, 3.4, (n, 300))
        scale = rng.uniform(-1.0, 1.0, (n, 300)) if scaled else 1.0
        x, y = rng.normal(size=(2, n, 300))
        factors = ((x, x), (x, y), (y, y))
        v = np.stack([a * b for a, b in factors]).swapaxes(1, 2)
        terms = np.empty(v.shape, dtype=complex)
        np.multiply((np.exp(-1j * self.LENGTH * w) / scale).T, v, out=terms)
        stacked = np.add.reduce(terms, axis=2)
        sums = evolution._phase_sums(w, self.LENGTH, scale, factors)
        assert sums.tobytes() == stacked.tobytes()


class TestEighTridiagonal:
    def test_stack_reconstructs_each_matrix(self):
        rng = np.random.default_rng(6)
        diag, offdiag = rng.uniform(-1, 1, (4, 7)), rng.uniform(-1, 1, (4, 6))
        offdiag[2, 3] = 0.0
        w, q = eigh_tridiagonal(diag, offdiag)
        assert w.shape == (4, 7) and q.shape == (4, 7, 7)
        for b in range(4):
            h = np.diag(diag[b]) + np.diag(offdiag[b], 1) + np.diag(offdiag[b], -1)
            np.testing.assert_allclose((q[b] * w[b]) @ q[b].T, h, rtol=0, atol=1e-13)
            np.testing.assert_allclose(q[b].T @ q[b], np.eye(7), rtol=0, atol=1e-13)


class TestRepeatedSpectrum:
    """The X(x)X device of acceptance criterion 8 at 0 V: every coupling but
    those of pairs (1, 2) and (8, 9) is zero, so H has a seven-fold
    eigenvalue 0 besides the two pairs' +-C."""

    @pytest.fixture
    def h(self):
        return build_hamiltonian(make_xx_device(), VoltageConfig.zeros(22))

    @staticmethod
    def other_block(h):
        """(N, N) mask of guide pairs that no chain of couplings joins."""
        block = np.concatenate(([0], np.cumsum(h.offdiag == 0.0)))
        return block[:, None] != block[None, :]

    def test_unitary_matches_expm_and_keeps_blocks(self, h):
        u = unitary(h, 24.0).matrix
        np.testing.assert_allclose(u, expm(-1j * h.to_matrix() * 24.0),
                                   rtol=0, atol=1e-9)
        assert np.max(np.abs(u[self.other_block(h)])) <= 1e-12

    @pytest.mark.parametrize("input_guide", [1, 5, 9])
    def test_profile_matches_expm_and_keeps_blocks(self, h, input_guide):
        profile = propagation_profile(h, 24.0, n_steps=25, input_guide=input_guide)
        for z, row in zip(profile.z_points, profile.intensities):
            column = expm(-1j * h.to_matrix() * z)[:, input_guide - 1]
            np.testing.assert_allclose(row, np.abs(column) ** 2, rtol=0, atol=1e-9)
        outside = self.other_block(h)[input_guide - 1]
        # amplitudes outside the input's block to 1e-12
        assert np.max(profile.intensities[:, outside]) <= 1e-24


class TestOutputPower:
    def test_identity_delta(self):
        h = TridiagonalHamiltonian(diag=np.zeros(11), offdiag=np.zeros(10))
        u = unitary(h, 24.0)
        p = output_power(u, 3)
        expected = np.zeros(11)
        expected[2] = 1.0
        np.testing.assert_allclose(p, expected, atol=1e-14)

    def test_balanced_coupler(self):
        length = 24.0
        h = two_mode(0.0, 0.0, math.pi / (4 * length))
        p = output_power(unitary(h, length), 1)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(19)
        h = build_hamiltonian(random_device(rng),
                              VoltageConfig(rng.uniform(-10, 10, 22)))
        u = unitary(h, 24.0)
        for j in range(1, 12):
            brute = np.array([abs(u.matrix[m, j - 1]) ** 2 for m in range(11)])
            np.testing.assert_allclose(output_power(u, j), brute, atol=1e-15)
        assert abs(output_power(u, 1).sum() - 1.0) <= 1e-12

    def test_index_out_of_range(self):
        h = two_mode(0.0, 0.0, 0.1)
        u = unitary(h, 1.0)
        with pytest.raises(IndexError):
            output_power(u, 3)


class TestPropagationProfile:
    def test_starts_at_input_delta(self):
        rng = np.random.default_rng(5)
        h = build_hamiltonian(random_device(rng), VoltageConfig(np.zeros(22)))
        profile = propagation_profile(h, 24.0, n_steps=50, input_guide=4)
        expected = np.zeros(11)
        expected[3] = 1.0
        np.testing.assert_allclose(profile.intensities[0], expected, atol=1e-12)

    def test_rows_normalized(self):
        rng = np.random.default_rng(5)
        h = build_hamiltonian(random_device(rng), VoltageConfig(np.zeros(22)))
        profile = propagation_profile(h, 24.0, n_steps=100, input_guide=1)
        np.testing.assert_allclose(profile.intensities.sum(axis=1), 1.0,
                                   atol=1e-9)

    def test_decoupled_blocks_confine_light(self):
        rng = np.random.default_rng(8)
        offdiag = rng.uniform(0.05, 0.15, 10)
        offdiag[2] = 0.0
        h = TridiagonalHamiltonian(diag=rng.uniform(3.0, 3.2, 11),
                                   offdiag=offdiag)
        profile = propagation_profile(h, 24.0, n_steps=100, input_guide=2)
        assert np.max(profile.intensities[:, 3:]) <= 1e-12

    def test_detuned_two_mode_max_transfer(self):
        # peak cross intensity C^2 / (C^2 + (dbeta/2)^2) at z = pi / (2*Omega)
        coupling, dbeta = 0.1, 0.12
        omega = math.hypot(coupling, dbeta / 2)
        length = math.pi / omega  # grid midpoint hits the peak exactly
        h = two_mode(0.0, dbeta, coupling)
        profile = propagation_profile(h, length, n_steps=201, input_guide=1)
        expected = coupling**2 / (coupling**2 + (dbeta / 2) ** 2)
        assert abs(np.max(profile.intensities[:, 1]) - expected) <= 1e-9

    def test_too_few_steps_rejected(self):
        h = two_mode(0.0, 0.0, 0.1)
        with pytest.raises(ValueError):
            propagation_profile(h, 1.0, n_steps=1)

    @pytest.mark.parametrize("length", [math.inf, math.nan, -1.0])
    def test_length_must_be_positive_and_finite(self, length):
        with pytest.raises(ValueError, match="length must be a finite real > 0"):
            propagation_profile(two_mode(0.0, 0.0, 0.1), length)


class TestCsvExport:
    def test_profile_csv(self, tmp_path):
        h = two_mode(0.0, 0.0, 0.1)
        profile = propagation_profile(h, 5.0, n_steps=10)
        path = tmp_path / "profile.csv"
        profile_to_csv(profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "z_mm,P1,P2"
        assert len(lines) == 11

    def test_unitary_csv(self, tmp_path):
        u = unitary(two_mode(0.0, 0.0, 0.1), 5.0)
        path = tmp_path / "u.csv"
        unitary_to_csv(u, path)
        header, row = path.read_text().splitlines()
        assert header.startswith("re_1_1,im_1_1,re_1_2,im_1_2")
        values = [float(x) for x in row.split(",")]
        assert len(values) == 8
        assert values[0] == pytest.approx(u.matrix[0, 0].real)

    def test_unitary_csv_reads_back_at_eleven_guides(self, tmp_path):
        # two-digit guide numbers: (1, 11) and (11, 1) need distinct columns
        u = unitary(build_hamiltonian(random_device(np.random.default_rng(7)),
                                      VoltageConfig.zeros(22)), 24.0)
        path = tmp_path / "u.csv"
        unitary_to_csv(u, path)
        header, row = path.read_text().splitlines()
        names = header.split(",")
        assert len(set(names)) == len(names) == 2 * 11 * 11
        cells = dict(zip(names, (float(x) for x in row.split(","))))
        back = np.array([[cells[f"re_{i}_{j}"] + 1j * cells[f"im_{i}_{j}"]
                          for j in range(1, 12)] for i in range(1, 12)])
        np.testing.assert_array_equal(back, u.matrix)

    def test_powers_csv(self, tmp_path):
        path = tmp_path / "p.csv"
        powers_to_csv(np.array([0.25, 0.75]), path)
        assert path.read_text().splitlines()[0] == "P1,P2"
