"""Exact linear algebra over the rationals.

Everything here is arbitrary-precision and deterministic: matrices hold
Fractions, elimination is integer-preserving (rows are cleared of
denominators, combined integrally and stripped of common content), and
pivots are always the first nonzero entry in column order.  No floating
point enters at any stage.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

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

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[0] * cols for _ in range(rows)], cols)

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


def _strip(row: list[int]) -> None:
    g = 0
    for x in row:
        if x:
            g = gcd(g, x)
            if g == 1:
                return
    if g > 1:
        for i, x in enumerate(row):
            if x:
                row[i] = x // g


def _int_row(entries: Sequence[Fraction | int]) -> list[int]:
    """The entries times the lcm of their denominators, content stripped."""
    scale = 1
    for x in entries:
        d = x.denominator
        if d != 1:
            scale = scale * d // gcd(scale, d)
    ints = [x.numerator * (scale // x.denominator) for x in entries]
    _strip(ints)
    return ints


def _eliminate(rows: list[list[int]], cols: int) -> tuple[list[list[int]], list[int]]:
    """In-place fraction-free reduction to (unnormalized) reduced echelon form."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(cols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv_row = rows[r]
        if piv_row[c] < 0:
            rows[r] = piv_row = [-x for x in piv_row]
        p = piv_row[c]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                ri = rows[i]
                rows[i] = combined = [p * a - f * b for a, b in zip(ri, piv_row)]
                _strip(combined)
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def rref(m: RatMatrix) -> tuple[RatMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot columns.

    The row space is preserved; pivot entries are normalized to 1, so the
    result is the canonical basis of the row space.
    """
    rows, pivots = _eliminate([_int_row(r) for r in m.data], m.cols)
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append([Fraction(x, p) for x in row])
    return RatMatrix(out, m.cols), tuple(pivots)


def rank(m: RatMatrix) -> int:
    return len(rref(m)[1])


def _kernel_rows(rows: list[list[int]], cols: int) -> list[dict[int, Fraction]]:
    """Canonical basis of the null space of an integer matrix, as sparse rows.

    The elimination runs with the columns in reverse order.  Then each pivot
    row has entries only at its pivot and at free columns of smaller original
    index, so the null vector of a free column f has its leading 1 at f and
    zeros at every other free column: the vectors read off are already the
    reduced row-echelon basis, in increasing pivot order.
    """
    reduced, pivots = _eliminate([row[::-1] for row in rows], cols)
    pivot_set = set(pivots)
    out = []
    for t in range(cols - 1, -1, -1):
        if t in pivot_set:
            continue
        v = {cols - 1 - t: Fraction(1)}
        for row, c in zip(reduced, pivots):
            if row[t]:
                v[cols - 1 - c] = Fraction(-row[t], row[c])
        out.append(v)
    return out


def kernel(m: RatMatrix) -> RatMatrix:
    """Canonical basis of the right null space."""
    rows = _kernel_rows([_int_row(r) for r in m.data], m.cols)
    return RatMatrix([[v.get(c, 0) for c in range(m.cols)] for v in rows], m.cols)


def solve(m: RatMatrix, rhs: Sequence[Fraction | int]) -> tuple[Fraction, ...] | None:
    """One solution of m x = rhs, or None when the system is inconsistent."""
    if len(rhs) != m.rows:
        raise ValueError("right-hand side has wrong length")
    return _solve_rows([row + (_exact(b),) for row, b in zip(m.data, rhs)], m.cols)


def _solve_rows(rows: Iterable[Sequence[Fraction | int]], cols: int) -> tuple[Fraction, ...] | None:
    """`solve` for the integer or rational augmented rows (a_1..a_cols, b).

    The rows are eliminated once, as integer rows; x has its pivot entries
    read off the reduced rows and zeros at the free columns.
    """
    reduced, pivots = _eliminate([_int_row(row) for row in rows], cols + 1)
    if pivots and pivots[-1] == cols:
        return None
    x = [Fraction(0)] * cols
    for row, c in zip(reduced, pivots):
        x[c] = Fraction(row[-1], row[c])
    return tuple(x)


def intersect(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """Canonical basis of the intersection of two row spaces."""
    if a.cols != b.cols:
        raise ValueError("ambient dimensions differ")
    stacked_cols = [
        [a.data[i][c] for i in range(a.rows)] + [b.data[j][c] for j in range(b.rows)]
        for c in range(a.cols)
    ]
    coeffs = kernel(RatMatrix(stacked_cols, a.rows + b.rows))
    vectors = []
    for row in coeffs.data:
        v = [Fraction(0)] * a.cols
        for i in range(a.rows):
            u = row[i]
            if u:
                for c, x in enumerate(a.data[i]):
                    if x:
                        v[c] += u * x
        vectors.append(v)
    return rref(RatMatrix(vectors, a.cols))[0]


def member(v: Sequence[Fraction | int], basis: RatMatrix) -> bool:
    """Whether v lies in the row space of `basis`: adding it keeps the rank."""
    if len(v) != basis.cols:
        raise ValueError("vector has wrong length")
    return rank(RatMatrix((*basis.data, v), basis.cols)) == rank(basis)
