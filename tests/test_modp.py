import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exorb import orbits
from exorb._modp import PRIMES, pivot_columns, rank_mod
from exorb.linalg import RatMatrix, rank

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
    # The walk's sparse rank is the dense rank over Q, which no rank mod p
    # exceeds.
    rows, ncols = case
    dense = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    r = rank(RatMatrix(rows, ncols))
    assert orbits._rank(_sparse(rows)) == r
    # the same matrix transposed
    assert orbits._rank(_sparse(dense.T.tolist())) == r
    for p in PRIMES:
        assert rank_mod(dense, p) <= r


@pytest.mark.parametrize("nrows, ncols", [(0, 0), (0, 4), (4, 0)])
def test_empty_shapes_have_rank_zero(nrows, ncols):
    dense = np.zeros((nrows, ncols), dtype=np.int64)
    for p in PRIMES:
        assert rank_mod(dense, p) == 0


def test_sparse_rank_leaves_its_rows_alone():
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4, 2: P0}, {1: -1}]
    copy = [dict(r) for r in rows]
    assert orbits._rank(rows) == 3
    assert rows == copy
    # The entry P0 vanishes mod P0, so the rank there is one less.
    dense = np.array([[1, 2, 0], [2, 4, P0], [0, -1, 0]], dtype=np.int64)
    assert rank_mod(dense, P0) == 2


def test_entries_zero_mod_one_prime_only():
    # P0 * e_0 is zero mod P0 but not mod P1.
    dense = np.array([[P0, 0], [0, 1]], dtype=np.int64)
    assert rank_mod(dense, P0) == 1
    assert rank_mod(dense, P1) == 2


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


def _reference_pivots(rows, ncols, p):
    """Pivot columns by plain Gaussian elimination over Z/p on Python ints."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for k in range(r + 1, len(m)):
            f = m[k][c]
            if f:
                m[k] = [(x - f * y) % p for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
    return pivots


@st.composite
def column_matrices(draw):
    """A matrix built column by column, often wide, with zero columns and
    columns that repeat or are small multiples of earlier ones."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 12))
    cols = []
    for c in range(ncols):
        kind = draw(st.sampled_from(["new", "zero", "repeat", "multiple"]))
        if kind == "zero":
            cols.append([0] * nrows)
        elif kind == "repeat" and c:
            cols.append(list(cols[draw(st.integers(0, c - 1))]))
        elif kind == "multiple" and c:
            k = draw(st.integers(-3, 3))
            cols.append([k * x for x in cols[draw(st.integers(0, c - 1))]])
        else:
            cols.append([draw(ENTRIES) for _ in range(nrows)])
    rows = [[col[r] for col in cols] for r in range(nrows)]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(column_matrices())
def test_pivot_columns_are_the_reference_pivots(case):
    rows, ncols = case
    dense = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    before = dense.copy()
    for p in PRIMES:
        assert pivot_columns(dense, p) == _reference_pivots(rows, ncols, p)
    assert np.array_equal(dense, before)
