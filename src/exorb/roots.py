"""Root systems with integral Chevalley structure constants.

Supports the classical families A-D at small rank (used as oracles) and the
five exceptional types.  Simple roots are numbered in the Bourbaki convention;
for the E series the branch node is number 2 and attaches to node 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs))

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
    """Positive roots, Cartan data and the full table of structure constants.

    Immutable after construction; instances are safe to share across threads.
    The positive roots are ordered by ascending height with lexicographic
    tie-breaking on coefficient tuples, so the simple roots come first.
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
        self._pos_index = {c: i for i, c in enumerate(pos)}
        self._rootset = set(pos) | {tuple(-x for x in c) for c in pos}
        self._norms = {c: self._norm_of(c) for c in pos}
        self._norms.update({tuple(-x for x in c): self._norms[c] for c in pos})
        self.structconsts: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
        self._build_constants()

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

    def _string_down(self, a: tuple[int, ...], b: tuple[int, ...]) -> int:
        """Largest k with b - k*a a root."""
        p = 0
        cur = b
        while True:
            cur = tuple(x - y for x, y in zip(cur, a))
            if cur in self._rootset:
                p += 1
            else:
                return p

    def _build_constants(self) -> None:
        pos = [r.coeffs for r in self.positive_roots]
        order = {c: i for i, c in enumerate(pos)}
        norms = self._norms
        npos: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}

        def mixed(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
            # N(lam, -mu) for distinct positive roots, via the triple identity
            nu = tuple(x - y for x, y in zip(lam, mu))
            if nu in self._pos_index:
                val = Fraction(-norms[nu] * npos[(mu, nu)], norms[lam])
            else:
                nu = tuple(-x for x in nu)
                if nu not in self._pos_index:
                    return 0
                val = Fraction(norms[nu] * npos[(nu, lam)], norms[mu])
            if val.denominator != 1:
                raise RuntimeError(f"non-integral N({lam}, -{mu})")
            return int(val)

        for gamma in pos:
            if sum(gamma) < 2:
                continue
            summands = []
            for alpha in pos:
                if order[alpha] >= order[gamma]:
                    break
                beta = tuple(x - y for x, y in zip(gamma, alpha))
                if beta in self._pos_index and order[alpha] < order[beta]:
                    summands.append((alpha, beta))
            summands.sort(key=lambda ab: order[ab[0]])
            a1, b1 = summands[0]  # extraspecial: minimal first member
            n_extra = self._string_down(a1, b1) + 1
            npos[(a1, b1)] = n_extra
            npos[(b1, a1)] = -n_extra
            n_a1_gamma = -mixed(gamma, a1)  # N(-a1, gamma)
            if n_a1_gamma == 0:
                raise RuntimeError(f"zero N(-{a1}, {gamma}) for an extraspecial pair")
            for alpha, beta in summands[1:]:
                # quadruple identity on (-a1, alpha, beta) with sum b1
                term1 = term2 = 0
                d1 = tuple(x - y for x, y in zip(alpha, a1))
                if d1 in self._pos_index:
                    term1 = -mixed(alpha, a1) * npos[(d1, beta)]
                d2 = tuple(x - y for x, y in zip(beta, a1))
                if d2 in self._pos_index:
                    term2 = -mixed(beta, a1) * npos[(alpha, d2)]
                val = Fraction(term1 + term2, n_a1_gamma)
                if val.denominator != 1:
                    raise RuntimeError(f"non-integral N({alpha}, {beta})")
                npos[(alpha, beta)] = int(val)
                npos[(beta, alpha)] = -int(val)

        table = self.structconsts
        for (a, b), n in npos.items():
            na = tuple(-x for x in a)
            nb = tuple(-x for x in b)
            table[(a, b)] = n
            table[(na, nb)] = -n
        for lam in pos:
            for mu in pos:
                if lam == mu:
                    continue
                diff = tuple(x - y for x, y in zip(lam, mu))
                if diff in self._rootset:
                    n = mixed(lam, mu)
                    nlam = tuple(-x for x in lam)
                    nmu = tuple(-x for x in mu)
                    table[(lam, nmu)] = n
                    table[(nmu, lam)] = -n
                    table[(nlam, mu)] = -n
                    table[(mu, nlam)] = n

    # -- queries ------------------------------------------------------

    @property
    def num_positive(self) -> int:
        return len(self.positive_roots)

    def pairing(self, coeffs: tuple[int, ...], i: int) -> int:
        """<beta, coroot of alpha_i>."""
        return sum(coeffs[j] * self.cartan[j][i] for j in range(self.rank))

    def coroot_coords(self, coeffs: tuple[int, ...]) -> tuple[int, ...]:
        """The coroot of a root, written over the simple coroots."""
        norm = self._norms[coeffs]
        out = []
        for i, m in enumerate(coeffs):
            val = Fraction(2 * m * self._sym[i], norm)
            if val.denominator != 1:
                raise RuntimeError(f"non-integral coroot of {coeffs}")
            out.append(int(val))
        return tuple(out)

    def __repr__(self) -> str:
        return f"RootSystem({self.type_rank}, {self.num_positive} positive roots)"


@lru_cache(maxsize=None)
def _cached_system(letter: str, rank: int) -> RootSystem:
    return RootSystem(TypeRank(letter, rank))


def build_root_system(t: TypeRank | str) -> RootSystem:
    """Construct (or fetch the cached) root system for an admissible type."""
    if isinstance(t, str):
        t = TypeRank.from_string(t)
    return _cached_system(t.letter, t.rank)

