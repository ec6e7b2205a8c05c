"""`evolution.unitary_blocks` against the eigenvector formula it replaced.

The kernel forms each entry of U from eigenvalues and the minors of w - H,
and sends a row whose smallest eigenvalue gap is below
`evolution.GAP_BOUND` to `eigh_tridiagonal`.  Against
`scalar_reference.eigh_blocks` it agrees to RESIDUE_TOL on the rows it forms
itself (the worst seen over 40 random devices was 1.5e-13) and to
FALLBACK_TOL on the rows it sends to eigh, which differ from the reference
only in how the sum over eigenvalues is ordered.  Every entry is
bit-identical whatever rows, columns and stack it is asked with.
"""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rwasim import evolution
from rwasim.device import VoltageConfig, build_hamiltonian, hamiltonian_diagonals
from rwasim.evolution import GAP_BOUND, unitary_blocks

from conftest import make_xx_device, random_device
from scalar_reference import eigh_blocks

RESIDUE_TOL = 1e-12
FALLBACK_TOL = 1e-14
LENGTH = 24.0
GUIDES = np.arange(11)


@pytest.fixture
def eigh_rows(monkeypatch):
    """Rows in each call to `eigh_tridiagonal`, one entry a call."""
    calls = []
    solve = evolution.eigh_tridiagonal

    def spy(diag, offdiag):
        calls.append(diag.shape[0])
        return solve(diag, offdiag)

    monkeypatch.setattr(evolution, "eigh_tridiagonal", spy)
    return calls


def random_stack(seed, rows):
    """Diagonals of `rows` random voltage points on a random device."""
    rng = np.random.default_rng(seed)
    spec = random_device(rng)
    return hamiltonian_diagonals(spec, rng.uniform(-10.0, 10.0, (rows, spec.n_electrodes)))


def xx_at_zero_volts():
    h = build_hamiltonian(make_xx_device(), VoltageConfig.zeros(22))
    return h.diag[None], h.offdiag[None]


def twin_chains(gap, seed=0):
    """One-row diagonals of an 11-guide H whose guides 1-5 and 7-11 carry
    the same chain, the second shifted by `gap`, each tied weakly to guide 6
    far above them: its eigenvalues pair up about `gap` apart."""
    rng = np.random.default_rng(seed)
    beta, coupling = rng.uniform(3.0, 3.4, 5), rng.uniform(0.05, 0.15, 4)
    tie = 1e-3 * gap**0.5
    diag = np.concatenate((beta, [4.5], beta + gap))
    offdiag = np.concatenate((coupling, [tie, tie], coupling))
    return diag[None], offdiag[None]


def smallest_gap(diag, offdiag):
    return np.diff(np.linalg.eigvalsh(evolution._dense(diag, offdiag)), axis=1).min()


class TestAgainstEigenvectorFormula:
    @pytest.mark.parametrize("rows", [[p, p + 1] for p in range(10)] + [list(range(11))],
                             ids=[f"pair{p + 1}" for p in range(10)] + ["full"])
    def test_pairs_and_full_block(self, rows):
        diag, offdiag = random_stack(3, 300)
        got = unitary_blocks(diag, offdiag, LENGTH, rows, rows)
        want = eigh_blocks(diag, offdiag, LENGTH, rows, rows)
        np.testing.assert_allclose(got, want, rtol=0, atol=RESIDUE_TOL)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), points=st.integers(1, 70),
           rows=st.lists(st.integers(0, 10), min_size=1, max_size=11),
           cols=st.lists(st.integers(0, 10), min_size=1, max_size=11))
    # corner entries need no minor of order above 0 in one chain
    @example(seed=1, points=1, rows=[0], cols=[10])
    @example(seed=1, points=40, rows=[10, 0], cols=[0])
    # a guide pair asked for more than once, in both orders
    @example(seed=2, points=5, rows=[7, 2, 7], cols=[2, 7])
    def test_any_rows_and_columns(self, seed, points, rows, cols):
        diag, offdiag = random_stack(seed, points)
        got = unitary_blocks(diag, offdiag, LENGTH, rows, cols)
        assert got.shape == (points, len(rows), len(cols))
        np.testing.assert_allclose(got, eigh_blocks(diag, offdiag, LENGTH, rows, cols),
                                   rtol=0, atol=RESIDUE_TOL)

    def test_guides_out_of_range_are_refused(self):
        diag, offdiag = random_stack(4, 2)
        with pytest.raises(IndexError):
            unitary_blocks(diag, offdiag, LENGTH, [0, 11], [0])

    def test_full_block_is_unitary(self):
        u = unitary_blocks(*random_stack(5, 64), LENGTH, GUIDES, GUIDES)
        np.testing.assert_allclose(u @ u.conj().transpose(0, 2, 1),
                                   np.broadcast_to(np.eye(11), u.shape), rtol=0, atol=1e-10)


class TestGapBound:
    def test_repeated_spectrum_goes_to_eigh(self, eigh_rows):
        # the X(x)X device at 0 V repeats eigenvalue 0 seven times
        diag, offdiag = xx_at_zero_volts()
        got = unitary_blocks(diag, offdiag, LENGTH, GUIDES, GUIDES)
        assert eigh_rows == [1]
        np.testing.assert_allclose(got, eigh_blocks(diag, offdiag, LENGTH, GUIDES, GUIDES),
                                   rtol=0, atol=FALLBACK_TOL)

    @pytest.mark.parametrize("factor,fallback_rows,tol", [
        (1.05, [], RESIDUE_TOL), (0.95, [1], FALLBACK_TOL)], ids=["above", "below"])
    def test_rows_either_side_of_the_bound(self, eigh_rows, factor, fallback_rows, tol):
        diag, offdiag = twin_chains(factor * GAP_BOUND)
        gap = smallest_gap(diag, offdiag)
        assert (gap >= GAP_BOUND) == (factor > 1) and abs(gap / GAP_BOUND - factor) < 0.01
        got = unitary_blocks(diag, offdiag, LENGTH, GUIDES, GUIDES)
        assert eigh_rows == fallback_rows
        np.testing.assert_allclose(got, eigh_blocks(diag, offdiag, LENGTH, GUIDES, GUIDES),
                                   rtol=0, atol=tol)

    def test_only_the_close_rows_go_to_eigh(self, eigh_rows):
        diag, offdiag = random_stack(2, 6)
        close = twin_chains(0.5 * GAP_BOUND)
        diag, offdiag = (np.concatenate((a[:3], c, a[3:])) for a, c in zip((diag, offdiag), close))
        unitary_blocks(diag, offdiag, LENGTH, [4, 5], [4, 5])
        assert eigh_rows == [1]


class TestEntriesDoNotDependOnTheCall:
    """An entry comes out of the same arithmetic whatever else is asked:
    a map cell's block and the `unitary` of its voltages agree bit for bit."""

    @staticmethod
    def stack():
        # 40 rows, with one row the residue does not serve
        diag, offdiag = random_stack(9, 40)
        xx = xx_at_zero_volts()
        return np.concatenate((diag, xx[0])), np.concatenate((offdiag, xx[1]))

    def test_blocks_rows_and_stacks(self):
        diag, offdiag = self.stack()
        full = unitary_blocks(diag, offdiag, LENGTH, GUIDES, GUIDES)
        for b in range(diag.shape[0]):
            one = unitary_blocks(diag[b:b + 1], offdiag[b:b + 1], LENGTH, GUIDES, GUIDES)
            np.testing.assert_array_equal(one[0], full[b])
        for p in range(10):
            pair = [p, p + 1]
            np.testing.assert_array_equal(unitary_blocks(diag, offdiag, LENGTH, pair, pair),
                                          full[:, p:p + 2, p:p + 2])

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_any_subset(self, data):
        diag, offdiag = self.stack()
        full = unitary_blocks(diag, offdiag, LENGTH, GUIDES, GUIDES)
        points = data.draw(st.lists(st.integers(0, diag.shape[0] - 1), min_size=1,
                                    max_size=diag.shape[0]))
        rows = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=4))
        cols = data.draw(st.lists(st.integers(0, 10), min_size=1, max_size=4))
        got = unitary_blocks(diag[points], offdiag[points], LENGTH, rows, cols)
        np.testing.assert_array_equal(got, full[np.ix_(points, rows, cols)])
