"""`evolution.pair_blocks` against the eigenvector formula.

The kernel forms a pair's 2x2 block of U from eigenvalues and the minors of
w - H, and sends a row whose smallest eigenvalue gap is below
`evolution.GAP_BOUND` to `eigh_tridiagonal`.  Against
`scalar_reference.eigh_blocks` it agrees to RESIDUE_TOL on the rows it forms
itself (the worst seen over 40 random devices was 1.5e-13) and to
FALLBACK_TOL on the rows it sends to eigh, which differ from the reference
only in how the sum over eigenvalues is ordered.  Every row is
bit-identical whatever stack it is in.
"""
import numpy as np
import pytest

from rwasim import evolution
from rwasim.device import VoltageConfig, build_hamiltonian, hamiltonian_diagonals
from rwasim.evolution import GAP_BOUND, pair_blocks

from conftest import make_xx_device, random_device
from scalar_reference import eigh_blocks

RESIDUE_TOL = 1e-12
FALLBACK_TOL = 1e-14
LENGTH = 24.0
GUIDES = np.arange(11)
PAIRS = range(10)


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
    @pytest.mark.parametrize("pairs", [[p] for p in PAIRS] + [list(PAIRS)],
                             ids=[f"pair{p + 1}" for p in PAIRS] + ["full"])
    def test_pairs_and_full_block(self, pairs):
        # "full" takes every pair, so the blocks cover U's whole band; a
        # diagonal entry two neighbouring pairs share comes out bit for bit
        diag, offdiag = random_stack(3, 300)
        want = eigh_blocks(diag, offdiag, LENGTH, GUIDES, GUIDES)
        got = [pair_blocks(diag, offdiag, LENGTH, p) for p in pairs]
        for p, block in zip(pairs, got):
            np.testing.assert_allclose(block, want[:, p:p + 2, p:p + 2],
                                       rtol=0, atol=RESIDUE_TOL)
        for lower, upper in zip(got, got[1:]):
            np.testing.assert_array_equal(lower[:, 1, 1], upper[:, 0, 0])

    def test_guides_out_of_range_are_refused(self):
        diag, offdiag = random_stack(4, 2)
        for i in (-1, 10):
            with pytest.raises(IndexError):
                pair_blocks(diag, offdiag, LENGTH, i)


class TestGapBound:
    def test_repeated_spectrum_goes_to_eigh(self, eigh_rows):
        # the X(x)X device at 0 V repeats eigenvalue 0 seven times
        diag, offdiag = xx_at_zero_volts()
        want = eigh_blocks(diag, offdiag, LENGTH, GUIDES, GUIDES)
        for p in PAIRS:
            np.testing.assert_allclose(pair_blocks(diag, offdiag, LENGTH, p),
                                       want[:, p:p + 2, p:p + 2], rtol=0, atol=FALLBACK_TOL)
        assert eigh_rows == [1] * 10

    @pytest.mark.parametrize("factor,fallback_rows,tol", [
        (1.05, [], RESIDUE_TOL), (0.95, [1], FALLBACK_TOL)], ids=["above", "below"])
    def test_rows_either_side_of_the_bound(self, eigh_rows, factor, fallback_rows, tol):
        diag, offdiag = twin_chains(factor * GAP_BOUND)
        gap = smallest_gap(diag, offdiag)
        assert (gap >= GAP_BOUND) == (factor > 1) and abs(gap / GAP_BOUND - factor) < 0.01
        got = pair_blocks(diag, offdiag, LENGTH, 4)
        assert eigh_rows == fallback_rows
        np.testing.assert_allclose(got, eigh_blocks(diag, offdiag, LENGTH, [4, 5], [4, 5]),
                                   rtol=0, atol=tol)

    def test_only_the_close_rows_go_to_eigh(self, eigh_rows):
        diag, offdiag = random_stack(2, 6)
        close = twin_chains(0.5 * GAP_BOUND)
        diag, offdiag = (np.concatenate((a[:3], c, a[3:])) for a, c in zip((diag, offdiag), close))
        pair_blocks(diag, offdiag, LENGTH, 4)
        assert eigh_rows == [1]


class TestEntriesDoNotDependOnTheCall:
    """A row comes out of the same arithmetic whatever stack it is in, so a
    lookup map cell does not depend on the block it is built in."""

    def test_blocks_rows_and_stacks(self):
        # 40 rows, with one row the residue does not serve
        diag, offdiag = random_stack(9, 40)
        xx = xx_at_zero_volts()
        diag, offdiag = np.concatenate((diag, xx[0])), np.concatenate((offdiag, xx[1]))
        for p in PAIRS:
            full = pair_blocks(diag, offdiag, LENGTH, p)
            for b in range(diag.shape[0]):
                np.testing.assert_array_equal(
                    pair_blocks(diag[b:b + 1], offdiag[b:b + 1], LENGTH, p)[0], full[b])
