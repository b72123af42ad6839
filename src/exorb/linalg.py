"""Exact linear algebra over the rationals, on one sparse kernel.

Every exact elimination in exorb (canonical subspaces, centralizers, the
walk's ranks, the triple's solve) runs here, on one row format: a sparse
dict {column: nonzero int}; only the diagram draws eliminate mod p, in
`_modp`.  A rational vector enters the format as its integer support and
common denominator (`_scaled_support`), which changes no span; an
`algebra.Element` is held in that form, with its dense `coeffs` a view built
on first read, so its support goes to the kernel as it stands.
`_Echelon` accumulates such rows fraction-free, in the manner of Bareiss
(Math. Comp. 22, 1968), and a row is divided by its pivot only when read
out in reduced echelon form (`canonical_rows`).  The pivot of a row is its
leading column, so every output is canonical: the reduced echelon form of
a span, the null space read off it with the columns reversed, as primitive
integer rows (`_null_space`), and the solution with zeros at the free
columns (`_back_substitute`).  Results are therefore equal by uniqueness,
whatever the order in which the rows are fed.  A rank alone (`_rank`, the
walk's) takes a rank-only mode of the same kernel.  No floating point
enters at any stage.

`RatMatrix` is an immutable dense matrix of Fractions.  The public
functions on it (`rref`, `rank`, `kernel`, `solve`, `intersect`,
`member`) convert its rows with `_scaled_support` and run the same kernel.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

__all__ = ["RatMatrix", "rref", "rank", "kernel", "solve", "intersect", "member"]


def _exact(x: Fraction | int) -> Fraction:
    if isinstance(x, float):
        raise TypeError("floating point is not allowed; use Fraction or int")
    return Fraction(x)


class RatMatrix:
    """An immutable dense matrix of exact rationals."""

    __slots__ = ("_rows", "_cols")

    def __init__(self, rows: Iterable[Iterable[Fraction | int]], cols: int | None = None):
        data = tuple(tuple(_exact(x) for x in row) for row in rows)
        if data:
            widths = {len(r) for r in data}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            width = widths.pop()
            if cols is not None and cols != width:
                raise ValueError("cols disagrees with row length")
            cols = width
        elif cols is None:
            raise ValueError("empty matrix needs an explicit column count")
        self._rows = data
        self._cols = cols

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def data(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RatMatrix)
            and self._cols == other._cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._cols, self._rows))

    def __repr__(self) -> str:
        return f"RatMatrix({self.rows}x{self.cols})"


# -- the sparse fraction-free kernel ----------------------------------------


def _scaled_support(
    coeffs: Sequence[Fraction] | Mapping[int, Fraction],
) -> tuple[dict[int, int], int]:
    """(integer support, denominator) with coeffs == support / denominator.

    `coeffs` is a dense vector or a sparse row {index: entry}.
    """
    items = coeffs.items() if isinstance(coeffs, Mapping) else enumerate(coeffs)
    row = {i: c for i, c in items if c}
    scale = lcm(*(c.denominator for c in row.values()))
    return {i: c.numerator * (scale // c.denominator) for i, c in row.items()}, scale


def _clear(v: dict[int, int], row: dict[int, int], p: int) -> None:
    """Clear v's nonzero entry at p with a row of leading index p, in integers.

    v becomes (a/g) v - (c/g) row for a = row[p], c = v[p] and g = gcd(a, c),
    so it is scaled only where a does not divide c.
    """
    a, c = row[p], v[p]
    g = gcd(a, c)
    if g != a:
        m = a // g
        for k in v:
            v[k] *= m
    c //= g
    for k, x in row.items():
        nv = v.get(k, 0) - c * x
        if nv:
            v[k] = nv
        else:
            del v[k]


class _Echelon:
    """Accumulates a row span as sparse primitive integer rows.

    Rows are keyed by their leading index, where their entry is positive,
    and carry no common factor.  Reducing an integer vector stays
    fraction-free, in the spirit of Bareiss (Math. Comp. 22, 1968): where a
    row's leading entry a does not divide the vector's entry c, the vector
    is first scaled by a / gcd(a, c) (see `_clear`).  So a residual is a
    positive integer multiple of the rational residual, which is all that
    callers read: whether it is zero, its span and its membership in a
    subspace.  No `Fraction` arises until `canonical_rows`.
    """

    __slots__ = ("rows", "order")

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, int]] = {}
        self.order: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.order)

    def reduce(self, v: dict[int, int]) -> dict[int, int]:
        """Fully reduce the integer vector v (destructively) against the rows."""
        rows = self.rows
        for p in self.order:
            if p in v:
                _clear(v, rows[p], p)
        return v

    def store(self, v: dict[int, int]) -> dict[int, int]:
        """Keep a reduced nonzero v, stripped of its content, leading entry > 0.

        v itself is kept when it is already so, and must not change after.
        Callers read the dimension of a span off the number of distinct
        leading indices, so a v that leads where a stored row does, that is
        one not reduced against the rows, is a RuntimeError.
        """
        p = min(v)
        if p in self.rows:
            raise RuntimeError(f"the echelon already holds a row leading at {p}")
        g = gcd(*v.values())
        if v[p] < 0:
            g = -g
        row = v if g == 1 else {k: x // g for k, x in v.items()}
        self.rows[p] = row
        insort(self.order, p)
        return row

    def insert(self, v: dict[int, int]) -> None:
        """The rank-only mode: clear v's leading entries only, keep the rest.

        v (without zero entries, changed in place) is cleared by the row at
        its leading index while there is one, and a nonzero rest is kept as
        it is, neither reduced at later pivots nor stripped of its content.
        So the rows stay in echelon form but not reduced, and only `dim` and
        `_back_substitute` may read them.  A row of one entry clears v's
        entry by deleting it.
        """
        rows = self.rows
        while v:
            p = min(v)
            row = rows.get(p)
            if row is None:
                rows[p] = v
                insort(self.order, p)
                return
            if len(row) == 1:
                del v[p]
            else:
                _clear(v, row, p)

    def reduce_rows(self) -> list[dict[int, int]]:
        """The rows in integer reduced echelon form, in increasing pivot order.

        A stored row is reduced against the rows stored before it but may
        still have entries at later pivots.  Back-substitution from the last
        pivot clears them in integers; each row it subtracts is already
        reduced, so clearing one pivot only scales the row's entries at the
        others.  Each row stays primitive with a positive leading entry.
        """
        rows = self.rows
        for p in reversed(self.order):
            row = rows[p]
            hits = [q for q in row if q != p and q in rows]
            if not hits:
                continue
            row = dict(row)
            for q in hits:
                _clear(row, rows[q], q)
            rows[p] = _primitive(row)
        return [rows[p] for p in self.order]

    def canonical_rows(self) -> list[dict[int, Fraction | int]]:
        """The reduced echelon form: `reduce_rows`, divided by their pivots."""
        return [_monic(row) for row in self.reduce_rows()]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return row if g == 1 else {k: x // g for k, x in row.items()}


def _monic(row: Mapping[int, int]) -> dict[int, Fraction | int]:
    """An integer row divided by its leading entry."""
    a = row[min(row)]
    return row if a == 1 else {k: Fraction(x, a) for k, x in row.items()}


def _echelon(rows: Iterable[dict[int, int]], cols: int | None = None) -> _Echelon:
    """The echelon of integer rows {column: entry}, reduced in place.

    A row with explicit zero entries is replaced by a copy without them
    first: `_Echelon` takes none, and sums that cancel leave them.  Rows
    are taken shortest first, which keeps the stored rows short.  With
    `cols`, the number of columns, elimination stops at `cols` pivots,
    since then every further row reduces to zero; the rows not reached are
    left as they are.
    """
    echelon = _Echelon()
    for row in sorted(rows, key=len):
        if echelon.dim == cols:
            break
        if 0 in row.values():
            row = {k: x for k, x in row.items() if x}
        v = echelon.reduce(row)
        if v:
            echelon.store(v)
    return echelon


def _rank(
    rows: Iterable[Mapping[int, int]], cols: int | None = None, echelon: _Echelon | None = None
) -> int:
    """The rank over Q of integer rows {column: entry}, left unchanged.

    Each row is copied without its explicit zero entries and kept in the
    rank-only mode, `_Echelon.insert`, shortest first, in `echelon` if given;
    with `cols`, the pivots below `cols` count, the first `cols` columns' rank.
    """
    echelon = _Echelon() if echelon is None else echelon
    for row in sorted(rows, key=len):
        echelon.insert(dict(row) if 0 not in row.values() else {k: x for k, x in row.items() if x})
    return echelon.dim if cols is None else bisect_left(echelon.order, cols)


def _null_space(rows: Iterable[Mapping[int, int]], cols: int) -> list[dict[int, int]]:
    """The null space of integer rows over `cols` columns, as integer rows.

    The rows are eliminated with the columns in reverse order and reduced in
    integers (`_Echelon.reduce_rows`).  Then each row has entries only at
    its pivot and at free columns of smaller original index, so the null
    vector of a free column f leads at f and is 0 at every other free
    column: over their leads, the vectors are the reduced echelon basis, in
    pivot order.  Each is scaled by the lcm of the pivot entries and made
    primitive, with a positive lead.  The rows are left unchanged.  Rows of
    full column rank have none: [] is returned at the `cols`-th pivot,
    before any back-substitution.
    """
    last = cols - 1
    echelon = _echelon(({last - c: x for c, x in row.items()} for row in rows), cols)
    if echelon.dim == cols:
        return []
    reduced = dict(zip(echelon.order, echelon.reduce_rows()))
    den = lcm(*(row[p] for p, row in reduced.items()))
    null = {t: {last - t: den} for t in range(last, -1, -1) if t not in reduced}
    for p, row in reduced.items():
        for t, x in row.items():
            if t != p:
                null[t][last - p] = -x * den // row[p]
    return [_primitive(v) for v in null.values()]


def _back_substitute(echelon: _Echelon, cols: int) -> tuple[dict[int, int], int] | None:
    """A solution x = y / den of augmented rows in either mode, as (y, den).

    None when a row leads at the right-hand side, column `cols`.  x is zero
    at the free columns; from the last pivot up, a row a x_p + ... = rhs gives
    s = rhs * den - (its other entries times y), and with g = gcd(s, a), of
    a's sign, y and den are scaled by a / g and y_p = s / g, in integers."""
    rows = echelon.rows
    if cols in rows:
        return None
    y, den = {}, 1
    for p in reversed(echelon.order):
        row = rows[p]
        s = row.get(cols, 0) * den - sum(x * y[q] for q, x in row.items() if q in y)
        a = row[p]
        g = gcd(s, a) if a > 0 else -gcd(s, a)
        if a != g:
            den *= a // g
            y = {q: v * (a // g) for q, v in y.items()}
        if s:
            y[p] = s // g
    return y, den


# -- the dense public functions ---------------------------------------------


def _rows(m: RatMatrix) -> list[dict[int, int]]:
    return [_scaled_support(row)[0] for row in m.data]


def _matrix(rows: Iterable[Mapping[int, Fraction | int]], cols: int) -> RatMatrix:
    return RatMatrix([[row.get(c, 0) for c in range(cols)] for row in rows], cols)


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot columns.

    The row space is preserved; pivot entries are normalized to 1, so the
    result is the canonical basis of the row space.
    """
    echelon = _echelon(_rows(m))
    return _matrix(echelon.canonical_rows(), m.cols), tuple(echelon.order)


def rank(m: RatMatrix) -> int:
    return _echelon(_rows(m)).dim


def kernel(m: RatMatrix) -> RatMatrix:
    """Canonical basis of the right null space."""
    return _matrix(map(_monic, _null_space(_rows(m), m.cols)), m.cols)


def solve(m: RatMatrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...] | None:
    """One solution of m x = rhs, or None when the system is inconsistent.

    x is the one with zeros at the free columns.
    """
    if len(rhs) != m.rows:
        raise ValueError("right-hand side has wrong length")
    rows = [_scaled_support((*row, _exact(b)))[0] for row, b in zip(m.data, rhs)]
    sol = _back_substitute(_echelon(rows), m.cols)
    if sol is None:
        return None
    y, den = sol
    return tuple(Fraction(y.get(c, 0), den) for c in range(m.cols))


def intersect(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Canonical basis of the intersection of two row spaces.

    It is the null space of ker a + ker b: over Q the row space of a
    matrix is the annihilator of its null space, and the annihilator of a
    sum is the intersection of the annihilators.
    """
    if a.cols != b.cols:
        raise ValueError("ambient dimensions differ")
    null = _null_space(_rows(a), a.cols) + _null_space(_rows(b), b.cols)
    return _matrix(map(_monic, _null_space(null, a.cols)), a.cols)


def member(v: Sequence[Fraction | int], basis: RatMatrix) -> bool:
    """Whether v lies in the row space of `basis`: it reduces to zero there."""
    if len(v) != basis.cols:
        raise ValueError("vector has wrong length")
    return not _echelon(_rows(basis)).reduce(_scaled_support([_exact(x) for x in v])[0])
