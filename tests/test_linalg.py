import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from exorb import linalg
from exorb.linalg import (
    RatMatrix,
    _echelon,
    _null_space,
    _rank,
    intersect,
    kernel,
    member,
    rank,
    rref,
    solve,
)
from gauss_jordan import gauss_jordan


def _random_matrix(rng, rows, cols, lo=-9, hi=9, denom=False):
    def entry():
        if denom and rng.random() < 0.3:
            return Fraction(rng.randint(lo, hi), rng.randint(1, 7))
        return Fraction(rng.randint(lo, hi))

    return RatMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def _det(rows):
    """Cofactor-expansion determinant; the independent oracle for rank."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [[r[k] for k in range(n) if k != j] for r in rows[1:]]
            total += sign * rows[0][j] * _det(minor)
        sign = -sign
    return total


def _minor_rank(m):
    """Largest r with a nonzero r x r minor (brute force, sizes <= 6)."""
    data = m.data
    for r in range(min(m.rows, m.cols), 0, -1):
        for rsel in combinations(range(m.rows), r):
            for csel in combinations(range(m.cols), r):
                sub = [[data[i][j] for j in csel] for i in rsel]
                if _det(sub) != 0:
                    return r
    return 0


def test_rref_identity_and_zero():
    eye = RatMatrix([[int(i == j) for j in range(4)] for i in range(4)])
    reduced, pivots = rref(eye)
    assert reduced == eye and pivots == (0, 1, 2, 3)
    z = RatMatrix([[0] * 5] * 3)
    reduced, pivots = rref(z)
    assert pivots == () and reduced.rows == 0 and reduced.cols == 5


def test_rank_agrees_with_minor_oracle():
    rng = random.Random(2024)
    for trial in range(40):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = _random_matrix(rng, rows, cols, lo=-3, hi=3)
        assert rank(m) == _minor_rank(m), f"trial {trial}"


def test_rank_oracle_frozen_case():
    rng = random.Random(6)
    m = _random_matrix(rng, 6, 6, lo=-4, hi=4)
    assert _minor_rank(m) == 6 == rank(m)


def test_kernel_shape_and_annihilation():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7), denom=True)
        k = kernel(m)
        assert k.rows == m.cols - rank(m)
        for row in k.data:
            for i in range(m.rows):
                assert sum(m.data[i][j] * row[j] for j in range(m.cols)) == 0


def test_kernel_basis_is_canonical():
    rng = random.Random(8)
    m = _random_matrix(rng, 4, 7)
    k = kernel(m)
    again, pivots = rref(k)
    assert again == k and len(pivots) == k.rows


def test_solve_consistent_and_inconsistent():
    m = RatMatrix([[1, 2], [2, 4]])
    assert solve(m, [Fraction(3), Fraction(6)]) is not None
    assert solve(m, [Fraction(3), Fraction(7)]) is None
    rng = random.Random(9)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6), denom=True)
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m.cols)]
        rhs = [
            sum(m.data[i][j] * x[j] for j in range(m.cols)) for i in range(m.rows)
        ]
        got = solve(m, rhs)
        assert got is not None
        back = [
            sum(m.data[i][j] * got[j] for j in range(m.cols)) for i in range(m.rows)
        ]
        assert back == rhs


def test_solve_rejects_bad_shape():
    with pytest.raises(ValueError):
        solve(RatMatrix([[1, 2]]), [1, 2])


@st.composite
def _systems(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    # Zeros are drawn often, so that rank-deficient and inconsistent
    # systems are common.
    entry = st.one_of(
        st.just(Fraction(0)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
    )
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    rhs = [draw(st.one_of(entry, st.integers(-3, 3))) for _ in range(rows)]
    return RatMatrix(m, cols), rhs


@given(_systems())
@settings(max_examples=200, deadline=None)
def test_solve_solves_exactly_or_reports_inconsistency(case):
    m, rhs = case
    x = solve(m, rhs)
    augmented = RatMatrix([row + (b,) for row, b in zip(m.data, rhs)], m.cols + 1)
    assert (x is None) == (rank(augmented) > rank(m))
    if x is not None:
        assert len(x) == m.cols
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(m.data, rhs))


def test_intersect_dimension_formula_and_symmetry():
    rng = random.Random(10)
    for _ in range(30):
        cols = rng.randint(2, 6)
        a = _random_matrix(rng, rng.randint(1, 4), cols)
        b = _random_matrix(rng, rng.randint(1, 4), cols)
        both = intersect(a, b)
        assert both == intersect(b, a)
        stacked = RatMatrix(list(a.data) + list(b.data), cols)
        assert rank(a) + rank(b) == rank(stacked) + both.rows
        for row in both.data:
            assert member(row, a) and member(row, b)


def test_intersect_trivial_cases():
    a = RatMatrix([[1, 0, 0], [0, 1, 0]])
    assert intersect(a, a) == rref(a)[0]
    zero = RatMatrix([], cols=3)
    assert intersect(a, zero).rows == 0
    assert solve(RatMatrix([[0, 0], [0, 0]]), [0, 0]) == (0, 0)


def test_intersect_rejects_mismatched_ambients():
    with pytest.raises(ValueError):
        intersect(RatMatrix([[1, 0]]), RatMatrix([[1, 0, 0]]))


def test_member_basic_and_rref_invariance():
    basis = RatMatrix([[1, 2, 0], [0, 1, 1]])
    assert member([1, 3, 1], basis)
    assert not member([0, 0, 1], basis)
    reduced, _ = rref(basis)
    assert member([1, 3, 1], reduced)
    with pytest.raises(ValueError):
        member([1, 0], basis)


def test_exactness_bit_identical_reruns():
    rng = random.Random(12)
    m = _random_matrix(rng, 5, 8, denom=True)
    assert rref(m) == rref(m)
    assert kernel(m) == kernel(m)


def test_matrix_validation():
    with pytest.raises(ValueError):
        RatMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RatMatrix([])
    empty = RatMatrix([], cols=4)
    assert empty.rows == 0 and empty.cols == 4
    assert kernel(empty).rows == 4  # nothing constrains the space


def test_floats_are_rejected_everywhere():
    with pytest.raises(TypeError):
        RatMatrix([[0.5, 1]])
    m = RatMatrix([[1, 2]])
    with pytest.raises(TypeError):
        solve(m, [0.5])
    with pytest.raises(TypeError):
        member([0.5, 1], m)


@st.composite
def _block_rows(draw):
    """Integer rows, each supported inside one of several disjoint blocks."""
    cols = draw(st.integers(1, 12))
    labels = draw(st.lists(st.integers(0, 3), min_size=cols, max_size=cols))
    blocks = {}
    for c, b in enumerate(labels):
        blocks.setdefault(b, []).append(c)
    rows = []
    for idx in blocks.values():
        for _ in range(draw(st.integers(0, len(idx) + 1))):
            row = [0] * cols
            for c in idx:
                row[c] = draw(st.integers(-4, 4))
            rows.append(row)
    rows = draw(st.permutations(rows))
    return cols, list(blocks.values()), rows


@given(_block_rows())
@settings(max_examples=200, deadline=None)
def test_rref_of_block_rows_is_the_union_of_block_rrefs(case):
    cols, blocks, rows = case
    whole, pivots = rref(RatMatrix(rows, cols))
    union = []
    for idx in blocks:
        part = [r for r in rows if any(r[c] for c in idx)]
        reduced, block_pivots = rref(RatMatrix(part, cols))
        union.extend(zip(block_pivots, reduced.data))
    union.sort()
    assert tuple(p for p, _ in union) == pivots
    assert whole == RatMatrix([r for _, r in union], cols)


@st.composite
def _summed_blocks(draw):
    """(rows, cols): integer rows {column: entry} summed term by term.

    Each entry is a sum of terms, as centralizer sums the roots of e, and a
    term may be followed by its negative, so that entries cancel to an
    explicit 0; explicit 0 terms, empty rows and zero columns occur too.
    """
    cols = draw(st.integers(1, 7))
    term = st.tuples(
        st.integers(0, cols - 1),
        st.one_of(st.just(0), st.integers(-4, 4), st.sampled_from([6, -9, 12, 35])),
    )
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = {}
        for c, x in draw(st.lists(term, max_size=2 * cols)):
            for y in (x, -x) if draw(st.booleans()) else (x,):
                row[c] = row.get(c, 0) + y
        rows.append(row)
    return rows, cols


@given(_summed_blocks())
@example(([{0: 0}], 1))
@example(([{0: 2, 1: 0}, {0: 0, 1: 0, 2: -3}, {}], 3))
@example(([{0: 1, 1: 2}], 2))  # a pivot entry 2: the null vector's lead is 2
@example(([{0: 1, 1: 2}, {2: 1, 3: 3}], 4))  # pivots 2 and 3, a content of 3
@settings(max_examples=300, deadline=None)
def test_sparse_null_space_is_the_oracle_null_space(case):
    # The kernel's null space, read off with the columns reversed, is made
    # of primitive integer rows with a positive lead; divided by their
    # leads, they are the reduced echelon form of the null space read off
    # the oracle's reduced rows.  Explicit zeros in the rows change nothing,
    # and the rows are left unchanged.
    rows, cols = case
    copy = [dict(r) for r in rows]
    got = _null_space(rows, cols)
    assert rows == copy
    reduced, pivots = gauss_jordan([[r.get(c, 0) for c in range(cols)] for r in rows], cols)
    null = []
    for f in range(cols):
        if f not in pivots:
            v = [0] * cols
            v[f] = 1
            for row, p in zip(reduced, pivots):
                v[p] = -row[f]
            null.append(v)
    expected = gauss_jordan(null, cols)[0]
    for v in got:
        lead = v[min(v)]
        assert all(type(x) is int and x for x in v.values())
        assert lead > 0 and gcd(*v.values()) == 1
    monic = [[Fraction(v.get(c, 0), v[min(v)]) for c in range(cols)] for v in got]
    assert monic == expected


@given(_summed_blocks())
@example(([{0: 0}], 1))
@example(([{0: 2, 1: 0}, {0: 0, 1: 0, 2: -3}, {}], 3))
@example(([{1: 1}, {0: 1, 1: 1}, {0: 1, 2: 1}], 3))
@example(([{0: 2, 1: 3}, {0: 3, 1: 1}, {0: 5, 1: 4}, {0: -4, 1: -6}], 2))
@settings(max_examples=300, deadline=None)
def test_rank_only_mode_is_the_echelon_rank(case):
    # The walk's rank-only mode clears leading entries only and keeps its
    # rows unreduced and unstripped; it has the rank of the full echelon,
    # explicit zeros and cancelled entries change nothing, and the rows it
    # is given are left unchanged (the walk shares them).
    rows, _ = case
    copy = [dict(r) for r in rows]
    assert _rank(rows) == _echelon([dict(r) for r in copy]).dim
    assert rows == copy


@given(_summed_blocks())
@example(([{0: 1}], 1))
@example(([{0: 1}, {0: 1, 1: 1}, {1: -1}], 2))
@example(([{0: 1, 1: 2}, {0: 2, 1: 4}], 2))
@settings(max_examples=300, deadline=None)
def test_null_space_is_empty_exactly_at_full_column_rank(case):
    rows, cols = case
    pivots = gauss_jordan([[r.get(c, 0) for c in range(cols)] for r in rows], cols)[1]
    assert (_null_space(rows, cols) == []) == (len(pivots) == cols)


def test_full_column_rank_reads_no_row_out(monkeypatch):
    # A full-rank block returns [] before its rows are back-substituted; a
    # block with a null vector still back-substitutes them, and divides none
    # by its pivot.
    def no_read_out(self):
        raise AssertionError("rows read out")

    monkeypatch.setattr(linalg._Echelon, "reduce_rows", no_read_out)
    assert _null_space([{0: 2, 1: 1}, {1: 3}, {0: 1}], 2) == []
    with pytest.raises(AssertionError, match="rows read out"):
        _null_space([{0: 2, 1: 1}], 2)
    monkeypatch.undo()
    monkeypatch.setattr(linalg._Echelon, "canonical_rows", no_read_out)
    assert _null_space([{0: 1, 1: 2}], 2) == [{0: 2, 1: -1}]


@given(_summed_blocks())
@example(([{0: 1}, {1: 2}, {0: 1, 2: 5}, {0: 1, 1: 1, 2: 3}, {0: 4, 1: 4, 2: 4}], 3))
@settings(max_examples=100, deadline=None)
def test_null_space_reduces_no_row_after_full_rank(case):
    # Once the echelon has one pivot per column every further row reduces to
    # zero, so elimination stops there: no `_Echelon.reduce` call sees a
    # full echelon, and a block below full rank reduces every row.
    rows, cols = case
    dims = []
    reduce = linalg._Echelon.reduce

    def counting(self, v):
        dims.append(self.dim)
        return reduce(self, v)

    linalg._Echelon.reduce = counting
    try:
        null = _null_space(rows, cols)
    finally:
        linalg._Echelon.reduce = reduce
    assert all(d < cols for d in dims)
    if null:
        assert len(dims) == len(rows)
    else:
        assert dims and dims[-1] == cols - 1


def test_store_refuses_a_second_row_at_a_leading_index():
    # The dimension of a span is read off its distinct leading indices, so
    # a row stored unreduced where one already leads is a RuntimeError,
    # under python -O too, and leaves the echelon as it was.
    span = _echelon([{0: 2, 2: 4}, {1: 3}])
    rows = {p: dict(r) for p, r in span.rows.items()}
    with pytest.raises(RuntimeError, match="leading at 0"):
        span.store({0: 1, 1: 5})
    assert span.rows == rows and span.order == [0, 1] and span.dim == 2
    assert span.store(span.reduce({0: 1, 2: 2, 3: 2})) == {3: 1}
    assert span.dim == 3
