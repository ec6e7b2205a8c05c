import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwasim.compiler import gate_target
from rwasim.evolution import TransferUnitary, output_power
from rwasim.subcircuits import (
    GATE_ETAS,
    SubcircuitPair,
    TruthTable,
    average_fidelity,
    coupler_split,
    distribution_fidelity,
    effective_reflectivity,
    gate_truth_table,
    leakage,
    reflectivity_and_leakage,
)


def coupler(eta, phi=0.0):
    """2x2 matrix of an eta-coupler followed by a phase phi on its second guide."""
    t, r, ph = math.sqrt(eta), math.sqrt(1.0 - eta), np.exp(1j * phi)
    return np.array([[t, 1j * r], [1j * ph * r, ph * t]])


def embed_coupler(eta, pair_lower, n=11):
    """eta-coupler on (pair_lower, pair_lower+1) inside an identity array."""
    m = np.eye(n, dtype=complex)
    k = pair_lower - 1
    m[k:k + 2, k:k + 2] = coupler(eta)
    return TransferUnitary(matrix=m)


from conftest import kernel_block_metrics


def random_symmetric_unitary(rng, n=11):
    """A random symmetric unitary, as every U = exp(-iHL) is."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (q * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))) @ q.T


def pair_metrics(u, target=coupler_split(1.0)):
    """(fidelity, crosstalk, leakage) of pair (1, 2) against pair (8, 9) and
    the target split (the identity's by default), each averaged over the
    pair's two inputs, from the compiler kernel's one definition."""
    return tuple(kernel_block_metrics(u, (target, coupler_split(1.0)))[1][:, 0])


class TestLeakageAndCrosstalk:
    def test_block_decoupled_zero_leakage(self):
        u = embed_coupler(0.3, 1)
        assert leakage(np.abs(u.matrix[:, 0]) ** 2, SubcircuitPair(1)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_uniform_distribution(self):
        p = np.full(11, 1 / 11)
        assert leakage(p, SubcircuitPair(1)) == pytest.approx(100 * 9 / 11)
        # the discrete Fourier transform spreads every input evenly
        dft = np.exp(-2j * np.pi * np.outer(range(11), range(11)) / 11) / math.sqrt(11)
        _, ct, leak = pair_metrics(dft, gate_target("H"))
        assert leak == pytest.approx(9 / 11)
        assert ct == pytest.approx(2 / 11)

    def test_crosstalk_extremes(self):
        # both inputs of pair (1, 2) land entirely on pair (8, 9)
        perm = np.eye(11, dtype=complex)[[7, 8, 2, 3, 4, 5, 6, 0, 1, 9, 10]]
        # (each input's crosstalk and leakage is at most 1, so means of 1 put
        # both inputs there)
        _, ct, leak = pair_metrics(perm)
        assert (ct, leak) == pytest.approx((1.0, 1.0), abs=1e-12)
        u = embed_coupler(0.5, 1)
        _, ct, _ = pair_metrics(u.matrix)
        assert ct == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            leakage(np.full(11, 0.2), SubcircuitPair(1))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_leakage_complements_own_power(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.random(11)
        p /= p.sum()
        pair = SubcircuitPair(int(rng.integers(1, 11)))
        own = 100 * (p[pair.lower - 1] + p[pair.lower])
        assert leakage(p, pair) + own == pytest.approx(100.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_crosstalk_bounded_by_leakage(self, seed):
        _, ct, leak = pair_metrics(random_symmetric_unitary(np.random.default_rng(seed)))
        assert ct <= leak + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_leakage_is_the_blocks_rule(self, seed):
        # one rule: an input's `leakage` is, bit for bit, the leak that
        # `reflectivity_and_leakage` reads from the pair's |U|^2 block
        rng = np.random.default_rng(seed)
        u = TransferUnitary(matrix=random_symmetric_unitary(rng))
        pair = SubcircuitPair(int(rng.integers(1, 11)))
        i, j = pair.indices(u.n_guides)
        _, leak1, leak2 = reflectivity_and_leakage(np.abs(u.matrix[i:j + 1, i:j + 1]) ** 2)
        assert leakage(output_power(u, i + 1), pair) == leak1
        assert leakage(output_power(u, j + 1), pair) == leak2


class TestPostSelection:
    """Success probability: the power an input keeps in its own pair."""

    def test_block_diagonal_success_probability_one(self):
        # the pair keeps all its power, split as the 0.3-coupler's, and the
        # fidelity to the 0.5-coupler's split is the Bhattacharyya sum
        u = embed_coupler(0.3, 1)
        fid, _, leak = pair_metrics(u.matrix, coupler_split(0.3))
        assert (fid, leak) == pytest.approx((1.0, 0.0), abs=1e-12)
        fid, _, _ = pair_metrics(u.matrix, coupler_split(0.5))
        assert fid == pytest.approx(math.sqrt(0.15) + math.sqrt(0.35), abs=1e-12)

    def test_leaky_column_norms(self):
        m = np.eye(11, dtype=complex)
        m[0, 0] = math.sqrt(0.8)  # constructed, not unitary: leaky channel
        # input 1 keeps 0.8 and input 2 all of its power, each split as the
        # identity's
        fid, ct, leak = pair_metrics(m)
        assert (fid, ct, leak) == pytest.approx((1.0, 0.0, 0.1), abs=1e-12)


class TestEffectiveReflectivity:
    def test_balanced_block(self):
        u = embed_coupler(0.5, 1)
        assert effective_reflectivity(u, SubcircuitPair(1)) == \
            pytest.approx(0.5, abs=1e-12)

    def test_embedded_coupler_recovers_eta(self):
        for eta in (0.2, 0.7, 0.95):
            u = embed_coupler(eta, 8)
            assert effective_reflectivity(u, SubcircuitPair(8)) == \
                pytest.approx(eta, abs=1e-12)

    def test_leaky_matches_renormalized_oracle(self):
        # leaky but ratio-preserving: scale the pair's block by sqrt(0.6)
        base = coupler(0.37, 0.4) * math.sqrt(0.6)
        m = np.eye(11, dtype=complex)
        m[:2, :2] = base
        u = TransferUnitary(matrix=m)
        p = np.abs(base) ** 2
        p_renorm = p / p.sum(axis=0, keepdims=True)
        r = math.sqrt((p_renorm[0, 0] * p_renorm[1, 1])
                      / (p_renorm[1, 0] * p_renorm[0, 1]))
        expected = r / (1 + r)
        assert effective_reflectivity(u, SubcircuitPair(1)) == \
            pytest.approx(expected, abs=1e-12)


    def test_no_crossing_gives_one(self):
        u = TransferUnitary(matrix=np.eye(11, dtype=complex))
        assert effective_reflectivity(u, SubcircuitPair(4)) == 1.0


class TestReflectivityAndLeakage:
    def test_stacked_blocks_match_scalar_formula(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.0, 0.5, (3, 5, 2, 2))
        p[1, 2, 1, 0] = 0.0  # no power crosses this block
        eta, leak1, leak2 = reflectivity_and_leakage(p)
        assert eta.shape == leak1.shape == leak2.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            (p11, p21), (p12, p22) = p[idx]
            if idx == (1, 2):
                assert eta[idx] == 1.0
            else:
                r = math.sqrt((p11 * p22) / (p12 * p21))
                assert eta[idx] == r / (1.0 + r)
            assert leak1[idx] == 100.0 * (1.0 - p11 - p12)
            assert leak2[idx] == 100.0 * (1.0 - p21 - p22)

    @pytest.mark.parametrize("block,expected", [
        ([[0.5, 1e-160], [1e-160, 0.5]], 1.0),
        ([[1e200, 1e200], [1e200, 1e200]], 0.5),
        ([[3e160, 1.0], [1.0, 3e160]], 1.0),
        ([[1e-170, 1e-170], [1e-170, 1e-170]], 0.5),  # p_10 p_01 underflows
        ([[1e-300, 1e300], [1e300, 1e-300]], 0.0),
        ([[0.0, 0.0], [0.0, 0.0]], 1.0),
    ])
    def test_products_out_of_double_range(self, block, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta, leak1, leak2 = reflectivity_and_leakage(np.array(block))
        assert eta == expected
        assert 0.0 <= leak1 <= 100.0 and 0.0 <= leak2 <= 100.0

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(0.0, np.finfo(float).max), min_size=4, max_size=4))
    def test_any_finite_block_gives_eta_in_unit_interval(self, powers):
        p = np.reshape(powers, (2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eta, _, _ = reflectivity_and_leakage(p)
        assert 0.0 <= eta <= 1.0
        if p[1, 0] == 0.0 or p[0, 1] == 0.0:
            assert eta == 1.0
        with np.errstate(all="ignore"):
            num, cross = p[0, 0] * p[1, 1], p[1, 0] * p[0, 1]
            ratio = num / cross
        if all(np.finfo(float).tiny <= x < np.inf for x in (num, cross, ratio)):
            # the plain formula's bits wherever its intermediates are normal
            r = math.sqrt(ratio)
            assert eta == r / (1.0 + r)

    def test_leakage_clipped_to_percent_range(self):
        p = np.array([[[0.6, 0.0], [0.5, 0.0]], [[0.0, 0.0], [0.0, 0.0]]])
        _, leak1, leak2 = reflectivity_and_leakage(p)
        np.testing.assert_array_equal(leak1, [0.0, 100.0])
        np.testing.assert_array_equal(leak2, [100.0, 100.0])


class TestGateTruthTable:
    def test_table_is_product_of_gate_targets(self):
        for a, b in ((a, b) for a in GATE_ETAS for b in GATE_ETAS):
            table = gate_truth_table(GATE_ETAS[a], GATE_ETAS[b]).table
            np.testing.assert_array_equal(table, np.kron(gate_target(a),
                                                         gate_target(b)))

    def test_coupler_split_rows(self):
        np.testing.assert_array_equal(coupler_split(0.3), [[0.3, 0.7], [0.7, 0.3]])
        # a coupler's power block is its split, to rounding
        for eta in (0.0, 0.3, 0.5, 1.0):
            np.testing.assert_allclose(np.abs(coupler(eta, 0.7).T) ** 2,
                                       coupler_split(eta), rtol=0, atol=1e-15)

    def test_identity_gates(self):
        table = gate_truth_table(1.0, 1.0).table
        np.testing.assert_allclose(table, np.eye(4), atol=1e-15)

    def test_hadamard_gates_uniform(self):
        table = gate_truth_table(0.5, 0.5).table
        np.testing.assert_allclose(table, np.full((4, 4), 0.25), atol=1e-15)

    def test_x_on_first_qubit(self):
        table = gate_truth_table(0.0, 1.0).table
        expected_row = np.zeros(4)
        expected_row[2] = 1.0  # |00> -> |10>
        np.testing.assert_allclose(table[0], expected_row, atol=1e-15)

    def test_permutation_rows_iff_extremal_etas(self):
        for eta_a, eta_b in ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
            table = gate_truth_table(eta_a, eta_b).table
            assert np.all(np.isin(table, (0.0, 1.0)))
        table = gate_truth_table(0.5, 1.0).table
        assert not np.all(np.isin(table, (0.0, 1.0)))

    @pytest.mark.parametrize("eta_a,eta_b,name", [(-0.1, 0.5, "eta_a"),
                                                  (0.5, 1.5, "eta_b")])
    def test_eta_outside_unit_interval_rejected(self, eta_a, eta_b, name):
        with pytest.raises(ValueError, match=f"{name} must be in"):
            gate_truth_table(eta_a, eta_b)

    @pytest.mark.parametrize("table,message", [
        (np.eye(4) + np.outer([1, 0, 0, 0], [0.5, -0.5, 0, 0]), "non-negative"),
        (np.full((4, 4), 0.3), "sum to 1"),
    ], ids=["negative-entry", "row-sum"])
    def test_invalid_truth_table_rejected(self, table, message):
        with pytest.raises(ValueError, match=message):
            TruthTable(table)

    def test_post_selection_ignores_leakage(self):
        m = np.eye(11, dtype=complex)
        m[:2, :2] = coupler(0.3) * math.sqrt(0.5)
        m[7:9, 7:9] = coupler(0.8)
        # each input keeps half its power, and the pair's fidelity to its own
        # coupler does not see the lost half
        fid, _, leak = pair_metrics(m, coupler_split(0.3))
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert leak == pytest.approx(0.5, abs=1e-12)


class TestDistributionFidelity:
    def test_identical_is_one(self):
        row = np.array([0.1, 0.2, 0.3, 0.4])
        assert distribution_fidelity(row, row) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_is_zero(self):
        a = np.array([0.5, 0.5, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.5, 0.5])
        assert distribution_fidelity(a, b) == 0.0

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            distribution_fidelity(np.array([0.5, 0.2]), np.array([0.5, 0.5]))

    def test_row_shapes_must_match(self):
        with pytest.raises(ValueError, match="row shapes differ"):
            distribution_fidelity(np.array([0.5, 0.5]), np.full(4, 0.25))

    def test_average_fidelity_identity_vs_xx(self):
        assert average_fidelity(gate_truth_table(1.0, 1.0),
                                gate_truth_table(1.0, 1.0)) == \
            pytest.approx(1.0, abs=1e-12)
        assert average_fidelity(gate_truth_table(1.0, 1.0),
                                gate_truth_table(0.0, 0.0)) == 0.0
