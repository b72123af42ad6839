"""Chevalley-basis Lie algebras over the rationals.

The basis is x_a for each positive root a, y_a = x_{-a}, and the simple
coroots h_1..h_rank.  All products come from an integer multiplication
table, so every derived quantity (centralizers, derived subalgebras,
gradings) is exact.  An `Element` is held as its exact integer support and
denominator, the row format of `linalg`, and its dense `coeffs` are a view
built on first read; every operation here reads the support.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Collection, Iterable, Mapping, Sequence

from .linalg import RatMatrix, _Echelon, _echelon, _exact, _null_space, _scaled_support
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


class Element:
    """A vector in the algebra, as exact coefficients over the fixed basis.

    Held as its dimension `dim` and (integer support, denominator) in the
    canonical form of `linalg._scaled_support`, from which equality, the
    hash, the arithmetic, `support()` and `is_zero()` are worked; `coeffs`,
    the dense tuple of Fractions, is a view built on first read.  Immutable.
    """

    def __init__(self, coeffs: Sequence[Fraction | int]):
        supp, den = _exact_support(coeffs)
        self.__dict__.update(dim=len(coeffs), _supp=supp, _den=den)

    @classmethod
    def _of(cls, dim: int, supp: dict[int, int], den: int = 1) -> "Element":
        """supp / den reduced by their common factor; supp (no zeros) may be kept."""
        g = gcd(den, *supp.values()) if den != 1 else 1
        if g != 1:
            supp, den = {i: x // g for i, x in supp.items()}, den // g
        out = cls.__new__(cls)
        out.__dict__.update(dim=dim, _supp=supp, _den=den)
        return out

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Element is immutable")

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        supp, den = self._supp, self._den
        return tuple(Fraction(supp.get(i, 0), den) for i in range(self.dim))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return (self.dim, self._den, self._supp) == (other.dim, other._den, other._supp)

    def __hash__(self) -> int:
        return hash((self.dim, self._den, frozenset(self._supp.items())))

    def __repr__(self) -> str:
        return f"Element(dim={self.dim}, support={self._supp}, den={self._den})"

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        out = {i: x * a for i, x in self._supp.items()}
        for i, x in other._supp.items():
            v = out.get(i, 0) + x * b
            if v:
                out[i] = v
            else:
                del out[i]
        return Element._of(self.dim, out, den)

    def __sub__(self, other: "Element") -> "Element":
        return self + -other if isinstance(other, Element) else NotImplemented

    def __neg__(self) -> "Element":
        return Element._of(self.dim, {i: -x for i, x in self._supp.items()}, self._den)

    def __rmul__(self, scalar: Fraction | int) -> "Element":
        s = _exact(scalar)
        supp = {i: x * s.numerator for i, x in self._supp.items()} if s else {}
        return Element._of(self.dim, supp, self._den * s.denominator)

    def is_zero(self) -> bool:
        return not self._supp

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._supp))


def _exact_support(
    entries: Mapping[int, Fraction | int] | Sequence[Fraction | int],
) -> tuple[dict[int, int], int]:
    """`_scaled_support` of exact entries, dense or sparse; TypeError for a float."""
    items = entries.items() if isinstance(entries, Mapping) else enumerate(entries)
    return _scaled_support({i: _exact(c) for i, c in items})


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

        self._root_columns = tuple(zip(*rs.roots[:m]))  # the positive roots' coefficients

        adj: list[dict[int, tuple[tuple[int, int], ...]]] = [
            {} for _ in range(self.dim)
        ]
        for i, j, k, n in rs.products:
            adj[i][j] = ((k, n),)
        for i, a in enumerate(rs.roots):
            coroot = rs.coroot_coords(a)
            adj[i][(i + m) % self._hbase] = tuple(
                (self._hbase + j, c) for j, c in enumerate(coroot) if c
            )
        for j in range(rs.rank):
            hj = self._hbase + j
            for i, a in enumerate(rs.roots):
                w = rs.pairing(a, j)
                if w:
                    adj[hj][i] = ((i, w),)
                    adj[i][hj] = ((i, -w),)
        self._adj = adj

    # -- basis elements -------------------------------------------------

    def zero(self) -> Element:
        return Element._of(self.dim, {})

    def basis_element(self, i: int) -> Element:
        if type(i) is not int or not 0 <= i < self.dim:
            raise ValueError("basis index out of range")
        return Element._of(self.dim, {i: 1})

    def root_vector(self, root: Root | tuple[int, ...]) -> Element:
        coeffs = root.coeffs if isinstance(root, Root) else tuple(root)
        return self.basis_element(self.rs.index[coeffs])

    def cartan_element(self, i: int) -> Element:
        return self.basis_element(self._hbase + i)

    def coroot_element(self, root: Root | tuple[int, ...]) -> Element:
        coeffs = root.coeffs if isinstance(root, Root) else tuple(root)
        coroot = self.rs.coroot_coords(coeffs)
        return Element._of(self.dim, {self._hbase + j: c for j, c in enumerate(coroot) if c})

    def element(self, entries: Mapping[int, Fraction | int] | Sequence[Fraction | int]) -> Element:
        if isinstance(entries, Mapping):
            if not all(type(i) is int and 0 <= i < self.dim for i in entries):
                raise ValueError("basis index out of range")
            return Element._of(self.dim, *_exact_support(entries))
        if len(entries) != self.dim:
            raise ValueError("dimension mismatch")
        return Element(entries)

    def cartan_values(self, elt: Element) -> tuple[Fraction, ...]:
        """Values of the simple roots on a Cartan element.

        Summed in integers over the common denominator of the coefficients.
        """
        if elt.dim != self.dim:
            raise ValueError("dimension mismatch")
        if any(i < self._hbase for i in elt._supp):
            raise ValueError("element is not in the Cartan subalgebra")
        c = [(j - self._hbase, x) for j, x in elt._supp.items()]
        return tuple(Fraction(sum(x * row[j] for j, x in c), elt._den) for row in self.rs.cartan)

    def basis_weights(self, labels: Sequence[int]) -> "_Grading":
        """Eigenvalue of each basis vector under the characteristic of `labels`.

        Formed on the positive roots; y_a has the negated weight of x_a.
        They grade the product, and are returned as a `_Grading`, a tuple.
        """
        if len(labels) != self.rank:
            raise ValueError("label vector has wrong length")
        out = [0] * self.npos
        for column, d in zip(self._root_columns, labels):
            if d:
                out = [w + d * m for w, m in zip(out, column)]
        return _Grading((*out, *[-w for w in out], *(0,) * self.rank))

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


def _bracket_supp(
    adj: list[dict[int, tuple[tuple[int, int], ...]]],
    sa: dict,
    sb: dict,
) -> dict:
    """[a, b] for sparse coefficient dicts; values may be ints or Fractions.

    The entries must be nonzero, so a sum that reaches 0 has a key to
    delete.  The shorter dict is the outer loop; when that is b, the sign of
    [a, b] = -[b, a] is folded into its entries.
    """
    out: dict[int, int] = {}
    swap = len(sa) > len(sb)
    if swap:
        sa, sb = sb, sa
    get = out.get
    for i, ca in sa.items():
        row = adj[i]
        if not row:
            continue
        if swap:
            ca = -ca
        for j, cb in sb.items():
            hits = row.get(j)
            if hits:
                f = ca * cb
                for k, n in hits:
                    v = get(k, 0) + f * n
                    if v:
                        out[k] = v
                    else:
                        del out[k]
    return out


# -- gradings ---------------------------------------------------------------


class _Grading(tuple):
    """Basis weights that grade the product of L (unchecked), with `blocks`,
    the basis indices of each weight, built on first read."""

    @cached_property
    def blocks(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for i, w in enumerate(self):
            out.setdefault(w, []).append(i)
        return out


def _torus_grading(L: LieAlgebra, rows: Iterable[Collection[int]]) -> _Grading:
    """The finest grading by a subtorus of T in which every row is homogeneous.

    A row is given by its basis indices, such as the keys of an integer
    support.  A cocharacter phi of T, an integer linear form on the root
    lattice, grades L with x_a of weight phi(a) and the Cartan part of
    weight 0.  A row is homogeneous for phi exactly when phi vanishes on
    the differences of its roots, and also on its roots when it has a
    Cartan entry.  So the integer null space phi_1..phi_m of those vectors
    gives the finest such grading: each simple root gets the digits (phi_1,
    ..., phi_m) folded in one base.  Any base above 4 times the largest
    absolute digit over the roots makes two weights, or two sums of two
    weights, equal exactly when their digits are, so every such base gives
    the same blocks.  A root is +-sum(m_i alpha_i) with 0 <= m_i <= theta_i,
    for theta the highest root, so the base is taken above 4 times the bound
    sum(|phi_i| theta_i) on |phi(alpha)|.  The weights are `L.basis_weights`
    of those values: linear in the root and 0 on the Cartan part, so they
    grade the product.

    For the e of an sl2-triple, whose roots all have ad h weight 2, the
    labels vanish on the differences, so this refines ad h, and its blocks
    are those of the digits (labels, annihilator of e's roots).  With no
    constraint (e = 0) it is the full root grading; with the roots of a
    Cartan-bearing row spanning the root lattice, the trivial grading.
    """
    roots, vectors = L.rs.roots, set()
    for row in rows:
        rs = [roots[i] for i in row if i < L._hbase]
        if len(rs) < len(row):  # a Cartan entry, of weight 0: so are the roots
            vectors.update(rs)
        else:
            vectors.update(tuple(x - y for x, y in zip(r, rs[0])) for r in rs[1:])
    null = _null_space([{k: x for k, x in enumerate(v) if x} for v in vectors], L.rank)
    digits = [[phi.get(i, 0) for i in range(L.rank)] for phi in null]
    theta = roots[L.npos - 1]  # the highest root, last in height order
    base = 4 * max((sum(abs(x) * m for x, m in zip(phi, theta)) for phi in digits), default=0) + 1
    values = [0] * L.rank
    for phi in digits:
        values = [base * v + x for v, x in zip(values, phi)]
    return L.basis_weights(values)


# -- public types and operations --------------------------------------------


class Subspace:
    """A subspace of a fixed algebra, held as its canonical basis.

    The basis is the reduced row-echelon form of the span, checked exactly
    on construction: rows sorted by pivot, each pivot entry 1, and every row
    0 at the other rows' pivots.  A vector v then lies in the span exactly
    when v equals the sum of v[p] * row_p over the pivots p, so membership
    is an exact identity that needs no elimination.

    The basis is given as sparse rows, {index: nonzero entry} dicts, and
    stored keyed by pivot, with integral entries held as ints; dense rows
    go through `from_rows`.  Equality and the hash are taken on the rows;
    the dense `basis` matrix is a view built on first use.

    The layers work on integer rows, one `_Echelon` per weight (`_echelons`
    and `_read_out` convert).  No weight is stored beside a row: the rows of
    a graded subspace are homogeneous (below), so a row's weight is its pivot's.

    Block lemma: when the coordinates are split into disjoint blocks (the
    weights of a grading) and a subspace is spanned by vectors each inside
    one block, its canonical basis is the union of the blocks' canonical
    bases, sorted by pivot.  So the canonical rows of a graded subspace are
    homogeneous, and a row that mixes weights proves that a subspace is not
    graded.
    """

    def __init__(self, amb: LieAlgebra, basis: Iterable[Mapping[int, Fraction | int]]):
        at: dict[int, dict[int, Fraction | int]] = {}  # pivot -> sparse row
        seen: set[int] = set()  # the indices of the rows so far
        last = -1
        for row in basis:
            if not all(type(x) is int for x in row.values()):  # a float is refused first
                row = {k: _exact(x) for k, x in row.items()}
            # A row has no entry before its pivot, so the rows are 0 at the
            # other rows' pivots exactly when no earlier row is nonzero at
            # this one.  An empty row, or one with an index that is not an
            # int, gets pivot -1 and is refused; the indices are checked in
            # range once, at the end.
            p = min(row) if row and all(type(k) is int for k in row) else -1
            if p <= last or p in seen or row[p] != 1 or not all(row.values()):
                raise ValueError("basis is not in reduced row-echelon form")
            seen.update(row)
            at[p] = {k: x.numerator if x.denominator == 1 else x for k, x in row.items()}
            last = p
        if seen and max(seen) >= amb.dim:
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
        """The span of dense rows, reduced to its canonical basis."""
        ints = []
        for row in rows:
            if len(row) != amb.dim:
                raise ValueError("row has the wrong length")
            ints.append(_exact_support(row)[0])
        return cls(amb, _echelon(ints).canonical_rows())

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
        """Membership, by the pivot-coefficient identity."""
        if elt.dim != self.amb.dim:
            raise ValueError("vector has wrong length")
        residual = dict(elt._supp)
        at = self._row_at
        for p, c in elt._supp.items():
            row = at.get(p)
            if row is None:
                continue
            for k, x in row.items():
                residual[k] = residual.get(k, 0) - c * x
        return not any(residual.values())

    def basis_elements(self) -> list[Element]:
        return [Element._of(self.amb.dim, *_scaled_support(r)) for r in self._row_at.values()]

    def row_weights(self, weights: Sequence[int]) -> tuple[int, ...]:
        """The weight of each canonical basis row under a grading.

        Raises ValueError when a row mixes weights, which by the block lemma
        means the subspace is not graded.  Every row is checked; the layers
        that know their rows are homogeneous read the weight off the pivot.
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

    def _echelons(self, weights: Sequence[int]) -> dict[int, _Echelon]:
        """The rows' integer supports, in one `_Echelon` per weight (`row_weights`)."""
        out: dict[int, _Echelon] = defaultdict(_Echelon)
        for row, w in zip(self._row_at.values(), self.row_weights(weights)):
            out[w].store(_scaled_support(row)[0])
        return out


def bracket(L: LieAlgebra, a: Element, b: Element) -> Element:
    """The product [a, b], extended bilinearly from the multiplication table."""
    if a.dim != L.dim or b.dim != L.dim:
        raise ValueError("dimension mismatch")
    return Element._of(L.dim, _bracket_supp(L._adj, a._supp, b._supp), a._den * b._den)


def centralizer(L: LieAlgebra, a: Element | Mapping[int, Fraction | int]) -> Subspace:
    """The kernel of ad a, as a subspace of L.

    a is an element or a sparse row {index: int or Fraction entry}, such as
    its integer support, which has the same kernel; the row is read like an
    element's entries (zeros dropped, a float refused with TypeError, an
    index that is not an int in range with ValueError).  a is homogeneous,
    of weight d say, in its own torus grading (`_torus_grading` of [a]).
    Then ad a maps g(k) into g(k + d), and the kernel is the sum over k of
    the block kernels ker(ad a : g(k) -> g(k+d)), each an echelon of integer
    rows from the integer structure constants (`_centralizer`), divided by
    the pivots only when read out here.  By the block lemma (see `Subspace`)
    the union of the blocks' canonical kernels is the canonical basis of the
    whole kernel, so the result is that of the trivial grading, one block.
    A block with no target is its own kernel; every other block is
    eliminated (the analyses skip those that sl2 theory makes injective).
    """
    if not isinstance(a, Element):
        a = L.element(a)
    if a.dim != L.dim:
        raise ValueError("dimension mismatch")
    return _read_out(L, _centralizer(L, a._supp, _torus_grading(L, [a._supp])))


def _centralizer(
    L: LieAlgebra, a: Mapping, grading: _Grading, sl2: bool = False
) -> dict[int, _Echelon]:
    """`centralizer` of an integer support a, homogeneous in `grading`, by weight.

    With `sl2`, a is the e of a checked sl2-triple whose h and f the
    grading's subtorus fixes (`reach._analysis`).  Each subtorus weight
    space is then an sl2-module whose ad h weight spaces are blocks, and ad
    e maps a block of ad h weight k >= -1 onto its target and one of weight
    k <= -1 into it (Collingwood-McGovern, Ch. 3).  So a block has a kernel
    exactly when it is larger than its target, and only those are eliminated.
    """
    d = grading[min(a)] if a else 0
    blocks = grading.blocks
    out: dict[int, _Echelon] = defaultdict(_Echelon)
    for k, dom in blocks.items():
        target = len(blocks.get(k + d, ())) if a else 0
        if sl2 and target >= len(dom):  # ad e is injective on the block
            continue
        if target:
            kernel = _null_space(_ad_rows(L._adj, a, dom).values(), len(dom))
            rows = ({dom[x]: y for x, y in v.items()} for v in kernel)
        else:
            rows = ({j: 1} for j in dom)
        for v in rows:
            out[k].store(v)
    return out


def _ad_rows(adj: list, a: Mapping[int, int], dom: Sequence[int]) -> dict[int, dict[int, int]]:
    """The rows of ad a on the basis vectors `dom`: row t maps the column of
    j to the coefficient of x_t in [a, x_j].  An entry where two terms of a
    cancel stays as an explicit 0, which `_null_space` and `_echelon` drop."""
    block: dict[int, dict[int, int]] = defaultdict(dict)
    for col, j in enumerate(dom):
        for i, c in a.items():
            for t, n in adj[i].get(j, ()):
                block[t][col] = block[t].get(col, 0) + c * n
    return block


def derived_subalgebra(L: LieAlgebra, s: Subspace) -> Subspace:
    """Span of all pairwise brackets of a subalgebra's basis.

    Raises ValueError when some bracket of basis vectors falls outside s,
    i.e. when s is not actually closed under the product.

    Computed weight by weight in the torus grading of s's canonical rows
    (`_torus_grading`), which grades s.  Where s(t) = g(t), every bracket
    of weight t lies in s, so checking it proves nothing: those brackets
    are formed only while the span of weight t fills, and are not checked.
    Every other bracket that can be nonzero is formed and checked to lie in
    s, also when s has no rows of weight t.  So the result is the canonical
    basis that every grading of s gives.
    """
    if s.amb is not L:
        raise ValueError("subspace belongs to a different algebra")
    grading = _torus_grading(L, s._row_at.values())
    span = s._echelons(grading)
    checked = {t for t, b in grading.blocks.items() if t not in span or span[t].dim < len(b)}
    return _read_out(L, _derived(L, span, checked))


def _derived(
    L: LieAlgebra, s: Mapping[int, _Echelon], checked: Collection[int]
) -> dict[int, _Echelon]:
    """[s, s] from the echelons of s, one per weight, by weight.

    The pairs of rows of s are visited in pivot order.  A bracket of rows of
    weights i and j lies in g(t), t = i + j.  While the span of weight t has
    fewer rows than s(t), it is formed, reduced exactly against that span
    and a nonzero residual stored.  A weight in `checked` has its brackets
    formed and checked to reduce to zero in s(t) (ValueError otherwise)
    also once full, or where s has no rows.  With nothing checked, s must be
    closed, as a centralizer is: ad e is a derivation.  Each weight's span
    is returned as the `_Echelon` that accumulated it.
    """
    rows = sorted((p, r, w) for w, span in s.items() for p, r in span.rows.items())
    missing = Counter({t: span.dim for t, span in s.items()})  # rows of s(t) not yet spanned
    live = set(missing).union(checked)  # the weights whose brackets are still formed
    acc: dict[int, _Echelon] = defaultdict(_Echelon)
    adj, empty = L._adj, _Echelon()
    for i, (_, ri, wi) in enumerate(rows):
        if not live:
            break
        for _, rj, wj in rows[i + 1 :]:
            t = wi + wj
            if t not in live:
                continue
            v = _bracket_supp(adj, ri, rj)
            m = missing[t]
            if m:
                v = acc[t].reduce(v)
            if not v:
                continue
            if t in checked and s.get(t, empty).reduce(dict(v)):
                raise ValueError("subspace is not closed under the bracket")
            if m:
                acc[t].store(v)
                missing[t] = m - 1
                if m == 1 and t not in checked:
                    live.discard(t)
    return acc


def _read_out(L: LieAlgebra, acc: Mapping[int, _Echelon]) -> Subspace:
    """The checked subspace spanned by echelons, one per weight of a grading:
    their canonical rows, sorted by pivot (the block lemma)."""
    return Subspace(L, sorted((r for e in acc.values() for r in e.canonical_rows()), key=min))


def subalgebra_closure(
    L: LieAlgebra, gens: Sequence[Element], within: Subspace | None = None
) -> Subspace:
    """Smallest bracket-closed subspace containing the generators.

    When `within` is supplied it must be a subspace of L, bracket-closed
    and contain the generators (containment is checked here, closedness is
    the caller's contract); it then bounds the iteration, which stops as
    soon as the accumulated span fills it.

    Computed weight by weight in the torus grading of the generators and
    the canonical rows of `within` (`_torus_grading`), in which each
    generator is homogeneous and `within` graded.  See `_closure`.
    """
    if within is not None and within.amb is not L:
        raise ValueError("subspace belongs to a different algebra")
    for g in gens:
        if g.dim != L.dim:
            raise ValueError("dimension mismatch")
        if within is not None and not within.contains(g):
            raise ValueError("generator lies outside the enclosing subspace")
    rows = [g._supp for g in gens if g._supp]
    if within is None:
        grading = _torus_grading(L, rows)
        cap = {w: len(idx) for w, idx in grading.blocks.items()}
    else:
        grading = _torus_grading(L, [*rows, *within._row_at.values()])
        cap = Counter(grading[p] for p in within._row_at)
    return _read_out(L, _closure(L, [(v, grading[min(v)]) for v in rows], cap))


def _closure(
    L: LieAlgebra, gens: Iterable[tuple[Mapping[int, int], int]], cap: Mapping[int, int]
) -> dict[int, _Echelon]:
    """The closure of integer generators, each given with its weight, by weight.

    The generators (left unchanged) lie in a bracket-closed graded space
    with cap[t] rows of weight t, all of g(t) when there is none.  The span
    is accumulated weight by weight: each generator and each bracket of two
    accumulated rows is reduced exactly against the span's part of its
    weight, and a nonzero residual is stored, an integer row that is
    bracketed as it stands.  Once the part of weight t has cap[t] rows
    (none when cap lacks t), brackets of weight t are neither formed nor
    reduced: under the space's contract they lie in the span already.  So
    the result is the same for every grading.
    """
    missing = dict(cap)  # rows of weight t still to find
    left = sum(cap.values())
    queue = [(dict(v), w) for v, w in gens]
    acc: dict[int, _Echelon] = defaultdict(_Echelon)
    basis_rows: list[tuple[dict[int, int], int]] = []
    adj = L._adj
    while queue:
        v, w = queue.pop()
        if not missing.get(w):
            continue
        residual = acc[w].reduce(v)
        if not residual:
            continue
        row = acc[w].store(residual)
        missing[w] -= 1
        left -= 1
        if not left:
            break
        for u, a in basis_rows:
            t = a + w
            if missing.get(t):
                b = _bracket_supp(adj, u, row)
                if b:
                    queue.append((b, t))
        basis_rows.append((row, w))
    return acc


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
    try:
        s_span, t_span = s._echelons(weights), t._echelons(weights)
    except ValueError:
        raise ValueError("subspace is not stable under ad h") from None
    return _quotient(s_span, t_span, weights)


def _quotient(
    s: Mapping[int, _Echelon], t: Mapping[int, _Echelon], ad_h: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """`quotient_with_action` from the echelons of s and t by weight, in a
    grading at least as fine as the basis weights `ad_h`, read at the pivots;
    each row of t is checked to reduce to zero in s's echelon of its weight."""
    empty = _Echelon()
    if any(s.get(w, empty).reduce(dict(r)) for w, span in t.items() for r in span.rows.values()):
        raise ValueError("t is not contained in s")
    mult = Counter(ad_h[p] for span in s.values() for p in span.rows)
    mult.subtract(ad_h[p] for span in t.values() for p in span.rows)
    if any(m < 0 for m in mult.values()):
        raise ValueError("inconsistent graded dimensions")
    out = tuple(sorted(mult.elements()))
    return len(out), out
