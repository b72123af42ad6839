"""Chevalley-basis Lie algebras over the rationals.

The basis is x_a for each positive root a, y_a = x_{-a}, and the simple
coroots h_1..h_rank.  All products come from an integer multiplication
table, so every derived quantity (centralizers, derived subalgebras,
gradings) is exact.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Iterable, Mapping, Sequence

from .linalg import RatMatrix, _exact, _kernel_rows, rref
from .roots import Root, RootSystem, TypeRank, build_root_system

__all__ = [
    "LieAlgebra",
    "Element",
    "Subspace",
    "build_lie_algebra",
    "bracket",
    "centralizer",
    "derived_subalgebra",
    "subalgebra_closure",
    "quotient_with_action",
]


@dataclass(frozen=True)
class Element:
    """A vector in the algebra, as exact coefficients over the fixed basis."""

    coeffs: tuple[Fraction, ...]

    def __add__(self, other: "Element") -> "Element":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("dimension mismatch")
        return Element(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Element") -> "Element":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("dimension mismatch")
        return Element(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "Element":
        return Element(tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar: Fraction | int) -> "Element":
        s = _exact(scalar)
        return Element(tuple(s * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c)


class LieAlgebra:
    """A simple Lie algebra with its full multiplication table.

    Immutable after construction; all operations on it are pure functions,
    so per-orbit analyses may run concurrently.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        m = rs.num_positive
        self.npos = m
        self.rank = rs.rank
        self.dim = 2 * m + rs.rank
        self._hbase = 2 * m

        pos = [r.coeffs for r in rs.positive_roots]
        signed: list[tuple[int, ...]] = pos + [tuple(-x for x in c) for c in pos]
        self._root_of_index = signed
        self._index_of_root = {c: i for i, c in enumerate(signed)}
        self._root_columns = tuple(zip(*signed))

        adj: list[dict[int, tuple[tuple[int, int], ...]]] = [
            {} for _ in range(self.dim)
        ]
        for (a, b), n in rs.structconsts.items():
            total = tuple(x + y for x, y in zip(a, b))
            adj[self._index_of_root[a]][self._index_of_root[b]] = (
                (self._index_of_root[total], n),
            )
        for i, a in enumerate(signed):
            coroot = rs.coroot_coords(a)
            adj[i][self._index_of_root[tuple(-x for x in a)]] = tuple(
                (self._hbase + j, c) for j, c in enumerate(coroot) if c
            )
        for j in range(rs.rank):
            hj = self._hbase + j
            for i, a in enumerate(signed):
                w = rs.pairing(a, j)
                if w:
                    adj[hj][i] = ((i, w),)
                    adj[i][hj] = ((i, -w),)
        self._adj = adj

    # -- basis elements -------------------------------------------------

    def zero(self) -> Element:
        return Element((Fraction(0),) * self.dim)

    def basis_element(self, i: int) -> Element:
        if not 0 <= i < self.dim:
            raise ValueError("basis index out of range")
        return Element(
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(self.dim))
        )

    def root_vector(self, root: Root | tuple[int, ...]) -> Element:
        coeffs = root.coeffs if isinstance(root, Root) else tuple(root)
        return self.basis_element(self._index_of_root[coeffs])

    def cartan_element(self, i: int) -> Element:
        return self.basis_element(self._hbase + i)

    def coroot_element(self, root: Root | tuple[int, ...]) -> Element:
        coeffs = root.coeffs if isinstance(root, Root) else tuple(root)
        out = [Fraction(0)] * self.dim
        for j, c in enumerate(self.rs.coroot_coords(coeffs)):
            out[self._hbase + j] = Fraction(c)
        return Element(tuple(out))

    def element(self, entries: Mapping[int, Fraction | int] | Sequence[Fraction | int]) -> Element:
        if isinstance(entries, Mapping):
            out = [Fraction(0)] * self.dim
            for i, c in entries.items():
                out[i] = _exact(c)
            return Element(tuple(out))
        if len(entries) != self.dim:
            raise ValueError("dimension mismatch")
        return Element(tuple(_exact(c) for c in entries))

    def cartan_values(self, elt: Element) -> tuple[Fraction, ...]:
        """Values of the simple roots on a Cartan element."""
        if any(elt.coeffs[i] for i in range(self._hbase)):
            raise ValueError("element is not in the Cartan subalgebra")
        c = elt.coeffs[self._hbase :]
        return tuple(
            sum(c[j] * self.rs.cartan[i][j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def basis_weights(self, labels: Sequence[int]) -> tuple[int, ...]:
        """Eigenvalue of each basis vector under the characteristic of `labels`."""
        if len(labels) != self.rank:
            raise ValueError("label vector has wrong length")
        out = [0] * len(self._root_of_index)
        for column, d in zip(self._root_columns, labels):
            if d:
                out = [w + d * m for w, m in zip(out, column)]
        return tuple(out) + (0,) * self.rank

    def __repr__(self) -> str:
        return f"LieAlgebra({self.rs.type_rank}, dim={self.dim})"


@lru_cache(maxsize=None)
def _cached_algebra(letter: str, rank: int) -> LieAlgebra:
    return LieAlgebra(build_root_system(TypeRank(letter, rank)))


def build_lie_algebra(t: TypeRank | str) -> LieAlgebra:
    if isinstance(t, str):
        t = TypeRank.from_string(t)
    return _cached_algebra(t.letter, t.rank)


# -- sparse integer plumbing ------------------------------------------------


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


def _entry(x: Fraction) -> Fraction | int:
    """x as an int when it is integral, which keeps its arithmetic on ints."""
    return x.numerator if x.denominator == 1 else x


def _sparse_row(coeffs: Sequence[Fraction]) -> dict[int, Fraction]:
    return {i: c for i, c in enumerate(coeffs) if c}


def _bracket_supp(
    adj: list[dict[int, tuple[tuple[int, int], ...]]],
    sa: dict,
    sb: dict,
) -> dict:
    """[a, b] for sparse coefficient dicts; values may be ints or Fractions."""
    out: dict[int, int] = {}
    if len(sa) > len(sb):
        sa, sb = sb, sa
        sign = -1
    else:
        sign = 1
    get = out.get
    for i, ca in sa.items():
        row = adj[i]
        if not row:
            continue
        for j, cb in sb.items():
            hits = row.get(j)
            if hits:
                f = ca * cb
                for k, n in hits:
                    v = get(k, 0) + f * n
                    if v:
                        out[k] = v
                    elif k in out:
                        del out[k]
    if sign < 0:
        return {k: -v for k, v in out.items()}
    return out


class _Echelon:
    """Accumulates a row span as sparse pivot-normalized rational rows.

    Rows are keyed by their leading index and carry a 1 there, so reducing a
    vector never rescales it; entry sizes stay at the subspace's intrinsic
    rational complexity instead of compounding.  Vectors may hold ints or
    Fractions; the integral entries of stored rows are ints.
    """

    __slots__ = ("rows", "order")

    def __init__(self) -> None:
        self.rows: dict[int, dict[int, Fraction | int]] = {}
        self.order: list[int] = []

    @property
    def dim(self) -> int:
        return len(self.order)

    def reduce(self, v: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
        """Fully reduce v (destructively) against the stored rows."""
        rows = self.rows
        for p in self.order:
            c = v.get(p)
            if not c:
                continue
            row = rows[p]
            for k, x in row.items():
                nv = v.get(k, 0) - c * x
                if nv:
                    v[k] = nv
                elif k in v:
                    del v[k]
        return v

    def store(self, v: dict[int, Fraction | int]) -> dict[int, Fraction | int]:
        """Keep a reduced nonzero v, scaled to 1 at its leading index."""
        p = min(v)
        piv = Fraction(v[p])
        row = {k: _entry(x / piv) for k, x in v.items()}
        self.rows[p] = row
        insort(self.order, p)
        return row

    def canonical_rows(self) -> list[dict[int, Fraction]]:
        """The rows in reduced echelon form, in increasing pivot order.

        A stored row is reduced against the rows stored before it but may
        still have entries at later pivots.  Back-substitution from the last
        pivot clears them; each row it subtracts is already reduced, so the
        coefficient of every pivot is read off the unmodified row.
        """
        rows = self.rows
        for p in reversed(self.order):
            row = rows[p]
            hits = [(q, row[q]) for q in row if q != p and q in rows]
            if not hits:
                continue
            row = dict(row)
            for q, c in hits:
                for k, x in rows[q].items():
                    nv = row.get(k, 0) - c * x
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
            rows[p] = row
        return [rows[p] for p in self.order]


# -- gradings ---------------------------------------------------------------


def _grading(
    L: LieAlgebra, weights: Sequence[int] | None
) -> tuple[Sequence[int], dict[int, list[int]]]:
    """The checked weights and the basis indices of each weight.

    `None` is the trivial grading, every basis vector of weight 0.  Other
    weights must grade the product: [g(i), g(j)] lies in g(i + j) for every
    entry of the multiplication table.  In a simple algebra that holds
    exactly when the weights are `L.basis_weights(v)` for v their values at
    the simple root vectors, a check of cost O(dim * rank).  Such weights
    vanish on the Cartan part and are linear in the root, so they grade the
    product.  Conversely, [h_j, x_{alpha_j}] = 2 x_{alpha_j} forces weight
    0 on h_j; a positive root a that is not simple is b + alpha_i for a
    positive root b with N_{b,alpha_i} != 0, so by induction on the height
    x_a has weight sum(m_i v_i) for a = sum(m_i alpha_i); and [x_a, y_a] is
    a nonzero coroot, of weight 0, so y_a has the opposite weight.
    """
    if weights is None:
        weights = (0,) * L.dim
    elif len(weights) != L.dim:
        raise ValueError("weights have the wrong length")
    else:
        simple = [tuple(int(i == j) for j in range(L.rank)) for i in range(L.rank)]
        values = [weights[L._index_of_root[a]] for a in simple]
        if tuple(weights) != L.basis_weights(values):
            raise ValueError("weights do not grade the algebra")
    blocks: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        blocks.setdefault(w, []).append(i)
    return weights, blocks


# -- public types and operations --------------------------------------------


class Subspace:
    """A subspace of a fixed algebra, held as its canonical basis.

    The basis is the reduced row-echelon form of the span, checked exactly
    on construction: rows sorted by pivot, each pivot entry 1, and every row
    0 at the other rows' pivots.  A vector v then lies in the span exactly
    when v equals the sum of v[p] * row_p over the pivots p, so membership
    is an exact identity that needs no elimination.

    The rows are stored sparse, as {index: nonzero entry} dicts keyed by
    their pivot, with integral entries held as ints.  The basis may be given
    as such rows or as a `RatMatrix`, converted at the boundary; both run
    the same check.  Equality and the hash are taken on the rows; the dense
    `basis` matrix is a view built on first use.

    Block lemma: when the coordinates are split into disjoint blocks (the
    weights of a grading) and a subspace is spanned by vectors each inside
    one block, its canonical basis is the union of the blocks' canonical
    bases, sorted by pivot.  So the canonical rows of a graded subspace are
    homogeneous, and a row that mixes weights proves that a subspace is not
    graded.
    """

    def __init__(self, amb: LieAlgebra, basis: RatMatrix | Iterable[Mapping[int, Fraction]]):
        if isinstance(basis, RatMatrix):
            if basis.cols != amb.dim:
                raise ValueError("basis has the wrong number of columns")
            basis = map(_sparse_row, basis.data)
        at: dict[int, dict[int, Fraction | int]] = {}  # pivot -> sparse row
        last = -1
        for row in basis:
            p = min(row, default=-1)
            if p <= last or row[p] != 1 or not all(row.values()) or max(row) >= amb.dim:
                raise ValueError("basis is not in reduced row-echelon form")
            at[p] = {k: _entry(x) for k, x in row.items()}
            last = p
        if any(k != p and k in at for p, row in at.items() for k in row):
            raise ValueError("basis is not in reduced row-echelon form")
        self.__dict__.update(amb=amb, _row_at=at)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Subspace is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.amb is other.amb and self._row_at == other._row_at

    def __hash__(self) -> int:
        rows = tuple(frozenset(row.items()) for row in self._row_at.values())
        return hash((self.amb, rows))

    @classmethod
    def from_rows(cls, amb: LieAlgebra, rows: Iterable[Sequence[Fraction | int]]) -> "Subspace":
        reduced, _ = rref(RatMatrix(rows, amb.dim))
        return cls(amb, reduced)

    @classmethod
    def full(cls, amb: LieAlgebra) -> "Subspace":
        return cls(amb, ({i: Fraction(1)} for i in range(amb.dim)))

    @classmethod
    def zero(cls, amb: LieAlgebra) -> "Subspace":
        return cls(amb, ())

    @cached_property
    def basis(self) -> RatMatrix:
        """The canonical basis as a dense matrix, one row per pivot."""
        n = self.amb.dim
        return RatMatrix([[r.get(k, 0) for k in range(n)] for r in self._row_at.values()], n)

    @property
    def dim(self) -> int:
        return len(self._row_at)

    def contains(self, elt: Element) -> bool:
        if len(elt.coeffs) != self.amb.dim:
            raise ValueError("vector has wrong length")
        return self._has(_sparse_row(elt.coeffs))

    def _has(self, v: Mapping[int, Fraction | int]) -> bool:
        """Membership of a sparse vector, by the pivot-coefficient identity."""
        residual = dict(v)
        at = self._row_at
        for p, c in v.items():
            row = at.get(p)
            if row is None:
                continue
            for k, x in row.items():
                residual[k] = residual.get(k, 0) - c * x
        return not any(residual.values())

    def basis_elements(self) -> list[Element]:
        return [Element(row) for row in self.basis.data]

    def row_weights(self, weights: Sequence[int]) -> tuple[int, ...]:
        """The weight of each canonical basis row under a grading.

        Raises ValueError when a row mixes weights, which by the block lemma
        means the subspace is not graded.
        """
        if len(weights) != self.amb.dim:
            raise ValueError("weights have the wrong length")
        out = []
        for row in self._row_at.values():
            ws = {weights[k] for k in row}
            if len(ws) != 1:
                raise ValueError("subspace is not graded by these weights")
            out.append(ws.pop())
        return tuple(out)


def bracket(L: LieAlgebra, a: Element, b: Element) -> Element:
    """The product [a, b], extended bilinearly from the multiplication table."""
    if len(a.coeffs) != L.dim or len(b.coeffs) != L.dim:
        raise ValueError("dimension mismatch")
    sa, da = _scaled_support(a.coeffs)
    sb, db = _scaled_support(b.coeffs)
    raw = _bracket_supp(L._adj, sa, sb)
    scale = da * db
    out = [Fraction(0)] * L.dim
    for k, v in raw.items():
        out[k] = Fraction(v, scale)
    return Element(tuple(out))


def centralizer(
    L: LieAlgebra, a: Element, weights: Sequence[int] | None = None
) -> Subspace:
    """The kernel of ad a, as a subspace of L.

    `weights` is a grading of L, such as `L.basis_weights(labels)`; without
    it every basis vector has weight 0.  a must be homogeneous, of weight d
    say (ValueError otherwise).  Then ad a maps g(k) into g(k + d), and the
    kernel is the sum over k of the block kernels ker(ad a : g(k) -> g(k+d)),
    each computed from the integer structure constants.  By the block lemma
    (see `Subspace`) the union of the blocks' canonical kernels is the
    canonical basis of the whole kernel, so the result does not depend on
    the grading; a finer grading only makes the blocks smaller.
    """
    if len(a.coeffs) != L.dim:
        raise ValueError("dimension mismatch")
    weights, blocks = _grading(L, weights)
    supp, _ = _scaled_support(a.coeffs)
    degrees = {weights[i] for i in supp}
    if len(degrees) > 1:
        raise ValueError("element is not homogeneous for the grading")
    d = degrees.pop() if degrees else 0
    adj = L._adj
    rows: list[dict[int, Fraction]] = []
    for k, dom in blocks.items():
        cod = blocks.get(k + d) if supp else None
        if not cod:
            rows.extend({j: Fraction(1)} for j in dom)
            continue
        pos = {c: r for r, c in enumerate(cod)}
        m = [[0] * len(dom) for _ in cod]
        for col, j in enumerate(dom):
            for i, c in supp.items():
                for t, n in adj[i].get(j, ()):
                    m[pos[t]][col] += c * n
        for v in _kernel_rows(m, len(dom)):
            rows.append({dom[x]: y for x, y in v.items()})
    return Subspace(L, sorted(rows, key=min))


def derived_subalgebra(
    L: LieAlgebra, s: Subspace, weights: Sequence[int] | None = None
) -> Subspace:
    """Span of all pairwise brackets of a subalgebra's basis.

    Raises ValueError when some bracket of basis vectors falls outside s,
    i.e. when s is not actually closed under the product.

    `weights` is a grading of L (see `centralizer`); s must be graded by it,
    that is, its canonical rows homogeneous (ValueError otherwise).  The
    bracket of rows of weights i and j has weight i + j, so it is settled
    within weight i + j alone.  A pair is skipped exactly when i + j is not
    the weight of any basis vector of L: then g(i + j) = 0, so the bracket
    is zero, lies in s and adds nothing.  Every other pair is bracketed,
    also when s has no rows of weight i + j.  Each canonical row is
    bracketed as its integer multiple, which changes no span.  While the
    span accumulated in weight w has fewer rows than s(w), a bracket is
    reduced exactly against it, and a nonzero residual is checked to lie in
    s and stored.  Once it has as many rows it equals s(w), and a bracket is
    only checked to lie in s.  So every bracket that can be nonzero is
    checked exactly, and the result is the same canonical basis for every
    grading.
    """
    if s.amb is not L:
        raise ValueError("subspace belongs to a different algebra")
    weights, blocks = _grading(L, weights)
    row_w = s.row_weights(weights)
    rows = [_scaled_support(r)[0] for r in s._row_at.values()]
    cap = Counter(row_w)
    acc: dict[int, _Echelon] = defaultdict(_Echelon)
    adj = L._adj
    for i, (ri, wi) in enumerate(zip(rows, row_w)):
        for rj, wj in zip(rows[i + 1 :], row_w[i + 1 :]):
            if wi + wj not in blocks:
                continue
            v = _bracket_supp(adj, ri, rj)
            span = acc[wi + wj]
            filling = span.dim < cap[wi + wj]
            if filling:
                v = span.reduce(v)
            if not v:
                continue
            if not s._has(v):
                raise ValueError("subspace is not closed under the bracket")
            if filling:
                span.store(v)
    return Subspace(L, sorted((r for e in acc.values() for r in e.canonical_rows()), key=min))


def subalgebra_closure(
    L: LieAlgebra,
    gens: Sequence[Element],
    within: Subspace | None = None,
    weights: Sequence[int] | None = None,
) -> Subspace:
    """Smallest bracket-closed subspace containing the generators.

    When `within` is supplied it must be bracket-closed and contain the
    generators (containment is checked here, closedness is the caller's
    contract); it then bounds the iteration, which stops as soon as the
    accumulated span fills it.

    `weights` is a grading of L (see `centralizer`); the generators must be
    homogeneous and `within` graded (ValueError otherwise).  The span is
    accumulated weight by weight: each generator and each bracket of two
    accumulated rows is reduced exactly against the span's part of its
    weight, and a nonzero residual is stored.  Once the part of weight t is
    full, that is all of g(t) or all of within's rows of weight t (none at
    all when within has no such rows), brackets of weight t are neither
    formed nor reduced: under within's contract they lie in the span
    already.  So the result is the same for every grading.
    """
    rows = []
    for g in gens:
        if len(g.coeffs) != L.dim:
            raise ValueError("dimension mismatch")
        if within is not None and not within.contains(g):
            raise ValueError("generator lies outside the enclosing subspace")
        rows.append(_sparse_row(g.coeffs))
    return _closure(L, rows, within, weights)


def _closure(
    L: LieAlgebra,
    gens: Iterable[Mapping[int, Fraction]],
    within: Subspace | None,
    weights: Sequence[int] | None,
) -> Subspace:
    """`subalgebra_closure` of sparse generators, which must lie in `within`.

    Stored rows are bracketed as their integer multiples (see
    `derived_subalgebra`).
    """
    weights, blocks = _grading(L, weights)
    if within is None:
        cap = {w: len(idx) for w, idx in blocks.items()}
        limit = L.dim
    else:
        cap = Counter(within.row_weights(weights))
        limit = within.dim
    queue: list[tuple[dict, int]] = []
    for v in gens:
        ws = {weights[k] for k in v}
        if len(ws) > 1:
            raise ValueError("generator is not homogeneous for the grading")
        if ws:
            queue.append((dict(v), ws.pop()))
    acc: dict[int, _Echelon] = defaultdict(_Echelon)
    basis_rows: list[tuple[dict[int, int], int]] = []
    found = 0
    adj = L._adj
    while queue:
        v, w = queue.pop()
        if acc[w].dim >= cap.get(w, 0):
            continue
        residual = acc[w].reduce(v)
        if not residual:
            continue
        row = _scaled_support(acc[w].store(residual))[0]
        found += 1
        if found >= limit:
            break
        for u, a in basis_rows:
            t = a + w
            if acc[t].dim < cap.get(t, 0):
                b = _bracket_supp(adj, u, row)
                if b:
                    queue.append((b, t))
        basis_rows.append((row, w))
    return Subspace(L, sorted((r for e in acc.values() for r in e.canonical_rows()), key=min))


def quotient_with_action(
    L: LieAlgebra, s: Subspace, t: Subspace, h: Element
) -> tuple[int, tuple[int, ...]]:
    """Dimension and h-eigenvalue multiset of the quotient s/t.

    t must sit inside s, h must act with integer eigenvalues, and both
    spaces must be stable under ad h (all checked).  The basis vectors are
    ad h eigenvectors, so a subspace is ad h-stable exactly when it is
    graded by their eigenvalues, that is, when every canonical row is
    homogeneous (block lemma, see `Subspace`).  The multiplicity of k is
    then dim(s ∩ g(k)) - dim(t ∩ g(k)), the number of canonical rows of
    weight k in s minus that in t.
    """
    if s.amb is not L or t.amb is not L:
        raise ValueError("subspace belongs to a different algebra")
    values = L.cartan_values(h)
    # The simple roots' values are among the eigenvalues and determine the
    # rest, so integral values mean integer eigenvalues, summed as ints.
    if any(v.denominator != 1 for v in values):
        raise ValueError("ad h does not act with integer eigenvalues")
    weights = L.basis_weights([v.numerator for v in values])
    if not all(s._has(row) for row in t._row_at.values()):
        raise ValueError("t is not contained in s")
    try:
        mult = Counter(s.row_weights(weights))
        mult.subtract(t.row_weights(weights))
    except ValueError:
        raise ValueError("subspace is not stable under ad h") from None
    if any(m < 0 for m in mult.values()):
        raise ValueError("inconsistent graded dimensions")
    out = tuple(sorted(mult.elements()))
    return len(out), out
