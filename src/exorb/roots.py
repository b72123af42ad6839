"""Root systems with integral Chevalley structure constants.

Supports the classical families A-D at small rank (used as oracles) and the
five exceptional types.  Simple roots are numbered in the Bourbaki convention;
for the E series the branch node is number 2 and attaches to node 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

__all__ = [
    "TypeRank",
    "Root",
    "RootSystem",
    "build_root_system",
]

_E_CHAIN = ((0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))


@dataclass(frozen=True)
class TypeRank:
    """A simple type letter with its rank, e.g. E8 or A2."""

    letter: str
    rank: int

    def __post_init__(self) -> None:
        letter, rank = self.letter, self.rank
        ok = (
            (letter == "A" and rank >= 1)
            or (letter == "B" and rank >= 2)
            or (letter == "C" and rank >= 2)
            or (letter == "D" and rank >= 4)
            or (letter == "E" and rank in (6, 7, 8))
            or (letter == "F" and rank == 4)
            or (letter == "G" and rank == 2)
        )
        if not ok:
            raise ValueError(f"inadmissible type/rank: {letter}{rank}")

    @classmethod
    def from_string(cls, text: str) -> "TypeRank":
        text = text.strip()
        if len(text) < 2 or not text[1:].isdigit():
            raise ValueError(f"cannot parse type: {text!r}")
        return cls(text[0].upper(), int(text[1:]))

    def __str__(self) -> str:
        return f"{self.letter}{self.rank}"


@dataclass(frozen=True)
class Root:
    """A root written in coordinates over the simple roots."""

    coeffs: tuple[int, ...]

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def _cartan_matrix(t: TypeRank) -> list[list[int]]:
    """Bourbaki Cartan matrix, entry [i][j] = <alpha_i, coroot of alpha_j>."""
    n = t.rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def edge(i: int, j: int, aij: int = -1, aji: int = -1) -> None:
        a[i][j] = aij
        a[j][i] = aji

    if t.letter in "ABCD":
        last_chain = n - 1 if t.letter in "AB" or t.letter == "C" else n - 2
        for i in range(last_chain - 1):
            edge(i, i + 1)
        if t.letter == "B" and n >= 2:
            edge(n - 2, n - 1, -2, -1)
        elif t.letter == "C" and n >= 2:
            edge(n - 2, n - 1, -1, -2)
        elif t.letter == "D":
            edge(n - 3, n - 2)
            edge(n - 3, n - 1)
        elif t.letter == "A" and n >= 2:
            edge(n - 2, n - 1)
    elif t.letter == "E":
        for i, j in _E_CHAIN[: n - 2]:
            edge(i, j)
        edge(1, 3)
    elif t.letter == "F":
        edge(0, 1)
        edge(1, 2, -2, -1)
        edge(2, 3)
    else:  # G2
        edge(0, 1, -1, -3)
    return a


def _symmetrizer(t: TypeRank) -> list[int]:
    """d_i with (alpha_i, alpha_i) = 2*d_i, short roots normalized to d=1."""
    n = t.rank
    if t.letter in "ADE":
        return [1] * n
    if t.letter == "B":
        return [2] * (n - 1) + [1]
    if t.letter == "C":
        return [1] * (n - 1) + [2]
    if t.letter == "F":
        return [2, 2, 1, 1]
    return [1, 3]  # G2


class RootSystem:
    """The roots, Cartan data and Chevalley structure constants.

    Immutable after construction; instances are safe to share across threads.
    The roots are indexed once, in the basis order of the Lie algebra: the m
    positive roots by ascending height with lexicographic tie-breaking on
    coefficient tuples, so the simple roots come first and the highest root
    last, then their negatives, so the opposite of root i is root
    (i + m) mod 2m.  `roots` holds the coefficient tuples and `index`
    inverts it.  `products` holds every nonzero product of two root vectors
    as (i, j, k, n), meaning [x_i, x_j] = n x_k; `structconsts` is the same
    table keyed by coefficient tuples, a view built on first read.
    """

    def __init__(self, type_rank: TypeRank):
        self.type_rank = type_rank
        self.rank = type_rank.rank
        cartan = _cartan_matrix(type_rank)
        self.cartan: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in cartan)
        self._sym = _symmetrizer(type_rank)
        for i in range(self.rank):
            for j in range(self.rank):
                if self._sym[j] * cartan[i][j] != self._sym[i] * cartan[j][i]:
                    raise RuntimeError(f"symmetrizer fails on {type_rank}")

        pos = self._generate_positive_roots()
        pos.sort(key=lambda c: (sum(c), c))
        self.positive_roots: tuple[Root, ...] = tuple(Root(c) for c in pos)
        self.roots: tuple[tuple[int, ...], ...] = (*pos, *(tuple(-x for x in c) for c in pos))
        self.index: dict[tuple[int, ...], int] = {c: i for i, c in enumerate(self.roots)}
        norms = [self._norm_of(c) for c in pos]
        self._norms = norms + norms  # (root i, root i), by index
        self.products = self._build_products()

    # -- construction -------------------------------------------------

    def _generate_positive_roots(self) -> list[tuple[int, ...]]:
        n = self.rank
        simple = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
        known: set[tuple[int, ...]] = set(simple)
        layer = list(simple)
        while layer:
            nxt: list[tuple[int, ...]] = []
            for beta in layer:
                for i in range(n):
                    # q > 0 in the alpha_i string through beta iff beta+alpha_i is a root
                    p = 0
                    cur = list(beta)
                    while True:
                        cur[i] -= 1
                        if tuple(cur) in known:
                            p += 1
                        else:
                            break
                    pairing = sum(beta[j] * self.cartan[j][i] for j in range(n))
                    if p - pairing > 0:
                        up = list(beta)
                        up[i] += 1
                        t = tuple(up)
                        if t not in known:
                            known.add(t)
                            nxt.append(t)
            layer = nxt
        return list(known)

    def _norm_of(self, c: tuple[int, ...]) -> int:
        # (beta, beta) with (alpha_i, alpha_j) = sym_j * cartan[i][j]
        n = self.rank
        total = 0
        for i in range(n):
            if c[i]:
                for j in range(n):
                    if c[j]:
                        total += c[i] * c[j] * self._sym[j] * self.cartan[i][j]
        return total

    def _build_products(self) -> tuple[tuple[int, int, int, int], ...]:
        """The products of root vectors, by Carter's recursion on root indices.

        R. W. Carter, *Simple Groups of Lie Type* (1972), 4.1-4.2.  For
        each positive root g that is not simple, the summands i + j = g with
        i < j are taken in index order; the first, (a, b), is the
        extraspecial pair, and a is simple, as the simple roots come first.
        N(a, b) = p + 1 for p the largest k with b - k a a root; b - k a
        stays positive, as a is simple.  N(g, -a) follows by the triple
        identity, and every other N(i, j) by the quadruple identity on
        (-a, i, j), whose sum is b.  N(-i, -j) = -N(i, j), and for positive
        i + j = k, N(i, -k) = N(k, -i) comes from the triple identity too.
        Every division is checked to be exact; a remainder raises
        `RuntimeError`.
        """
        m, norms = len(self.positive_roots), self._norms
        roots, index = self.roots, self.index
        # diff[k][i] = j when the positive roots i + j = k
        diff: list[dict[int, int]] = [{} for _ in range(m)]
        for i in range(m):
            for j in range(i + 1, m):
                k = index.get(tuple(x + y for x, y in zip(roots[i], roots[j])))
                if k is not None:
                    diff[k][i] = j
                    diff[k][j] = i
        npos: dict[tuple[int, int], int] = {}  # N(i, j) for positive i, j

        def down(k: int, i: int, j: int) -> int:
            # N(k, -i) for positive i + j = k, by the triple identity
            return _divide(-norms[j] * npos[i, j], norms[k], roots[k], roots[i])

        products: list[tuple[int, int, int, int]] = []
        for g in range(self.rank, m):
            summands = [(i, j) for i, j in diff[g].items() if i < j]
            a, b = summands[0]
            p, c = 0, diff[b].get(a)
            while c is not None:
                p, c = p + 1, diff[c].get(a)
            npos[a, b] = p + 1
            npos[b, a] = -p - 1
            n_a_g = -down(g, a, b)  # N(-a, g)
            for i, j in summands[1:]:
                total = 0
                d = diff[i].get(a)
                if d is not None:
                    total -= down(i, a, d) * npos[d, j]
                d = diff[j].get(a)
                if d is not None:
                    total -= down(j, a, d) * npos[i, d]
                npos[i, j] = _divide(total, n_a_g, roots[i], roots[j])
                npos[j, i] = -npos[i, j]
            for i, j in summands:
                n = npos[i, j]
                products += ((i, j, g, n), (i + m, j + m, g + m, -n))
                products += ((j, i, g, -n), (j + m, i + m, g + m, n))
        for i in range(m):
            for k in range(i + 1, m):
                j = diff[k].get(i)
                if j is not None:
                    n = down(k, i, j)  # N(k, -i) = N(i, -k), [x_i, x_-k] = n x_-j
                    products += ((i, k + m, j + m, n), (k + m, i, j + m, -n))
                    products += ((i + m, k, j, -n), (k, i + m, j, n))
        return tuple(products)

    # -- queries ------------------------------------------------------

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def pairing(self, coeffs: tuple[int, ...], i: int) -> int:
        """<beta, coroot of alpha_i>."""
        return sum(coeffs[j] * self.cartan[j][i] for j in range(self.rank))

    def coroot_coords(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """The coroot of a root, written over the simple coroots."""
        norm = self._norms[self.index[coeffs]]
        return tuple(_divide(2 * m * d, norm, coeffs) for m, d in zip(coeffs, self._sym))

    @cached_property
    def structconsts(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], int]:
        """N(a, b) keyed by the coefficient tuples of a and b: `products`, as a view."""
        roots = self.roots
        return {(roots[i], roots[j]): n for i, j, _, n in self.products}

    def __repr__(self) -> str:
        return f"RootSystem({self.type_rank}, {self.num_positive} positive roots)"


def _divide(num: int, den: int, *about: object) -> int:
    """num / den, which must be an integer; a remainder raises `RuntimeError`."""
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"non-integral structure constant or coroot at {about}")
    return q


@lru_cache(maxsize=None)
def _cached_system(letter: str, rank: int) -> RootSystem:
    return RootSystem(TypeRank(letter, rank))


def build_root_system(t: TypeRank | str) -> RootSystem:
    """Construct (or fetch the cached) root system for an admissible type."""
    if isinstance(t, str):
        t = TypeRank.from_string(t)
    return _cached_system(t.letter, t.rank)

