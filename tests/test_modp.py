import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exorb._modp import PRIMES, pivot_columns, rank_mod, sparse_rank_mod

P0, P1 = PRIMES

# Small entries, and entries that are negative, at least p, or 0 mod one of
# the primes.
ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(
        [P0, -P0, 2 * P0, P1, -P1, 5 * P1, P0 + 1, P1 - 1, -P0 - 2, 3 * P1 + 5]
    ),
)


@st.composite
def matrices(draw):
    """An integer matrix, with zero rows and columns and dependent rows."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
    rows = [[draw(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [0] * ncols
    if ncols and draw(st.booleans()):
        c = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[c] = 0
    if nrows >= 2 and draw(st.booleans()):
        k = draw(st.integers(-2, 2))
        rows.append([a + k * b for a, b in zip(rows[0], rows[1])])
    return rows, ncols


def _sparse(rows):
    # Zero entries are left out, except some that are 0 mod p only.
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_sparse_rank_is_the_dense_rank(case):
    rows, ncols = case
    dense = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    for p in PRIMES:
        r = rank_mod(dense, p)
        assert sparse_rank_mod(_sparse(rows), p) == r
        # the same matrix transposed, and with the full rows including zeros
        assert sparse_rank_mod(_sparse(dense.T.tolist()), p) == r
        assert sparse_rank_mod([dict(enumerate(row)) for row in rows], p) == r


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (0, 4), (4, 0)])
def test_empty_shapes_have_rank_zero(nrows, ncols):
    dense = np.zeros((nrows, ncols), dtype=np.int64)
    for p in PRIMES:
        assert rank_mod(dense, p) == 0
        assert sparse_rank_mod([{} for _ in range(nrows)], p) == 0


def test_sparse_rank_leaves_its_rows_alone():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4, 2: P0}, {1: -1}]
    copy = [dict(r) for r in rows]
    assert sparse_rank_mod(rows, P0) == 2
    assert rows == copy


def test_entries_zero_mod_one_prime_only():
    # P0 * e_0 is zero mod P0 but not mod P1.
    rows = [{0: P0}, {1: 1}]
    assert sparse_rank_mod(rows, P0) == 1
    assert sparse_rank_mod(rows, P1) == 2


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_pivots_among_the_first_columns_are_their_rank(case):
    # One elimination of [A | b] gives rank A too.
    rows, ncols = case
    dense = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    for p in PRIMES:
        pivots = pivot_columns(dense, p)
        assert pivots == sorted(pivots)
        for k in range(ncols + 1):
            assert sum(c < k for c in pivots) == rank_mod(dense[:, :k], p)


def test_rank_mod_does_not_change_its_input():
    m = np.array([[P0 + 1, 2], [-3, P1]], dtype=np.int64)
    before = m.copy()
    rank_mod(m, P0)
    assert np.array_equal(m, before)
