"""Nilpotent orbit machinery: diagram tests, representatives, triples.

Orbits are identified by their weighted Dynkin diagram (labels in {0,1,2} on
the simple roots).  Every label vector goes through one search, and its one
certificate is the sl2-triple with the characteristic h of the labels:

- the size filters reject label vectors whose graded dimensions no triple
  allows;
- seeded random draws e in g(2) run until ad e maps g(0) onto g(2), which
  puts e in the open G(0)-orbit of g(2); whether [e, f] = h is soluble for
  that e decides the label vector.  Both questions are read off
  A = ad e : g(-2) -> g(0): the Killing form pairs g(k) with g(-k) and
  kappa([e, y], x) = -kappa(y, [e, x]), so A has the rank of ad e on g(0).
  One rank mod p of the augmented system [A | h] above dim g(-2) both
  certifies the draw and proves its triple insoluble, which rejects most
  label vectors without an exact solve;
- a rank-greedy walk over the roots of g(2) finds the representative, and
  its triple, solved exactly, proves the diagram and is the orbit's triple.

A solved triple gives dim g_e = dim g(0) + dim g(1) by sl2 theory, so the
triple certifies the representative too.  Representatives are sums of root
vectors x_j with every coefficient 1, over linearly independent roots of
g(2), the form of the standard tables.  The unit coefficients lose nothing:
the maximal torus T lies in G(0) and scales each x_j by the character of its
root, and over an algebraically closed field the characters of linearly
independent roots take any nonzero values at once, so every sum with the
same support and nonzero coefficients is T-conjugate to the unit sum and
lies in the same G(0)-orbit.  When the walk runs out of root orders, the
decisive draw is the representative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from ._modp import PRIMES, has_full_rank, pivot_columns, sparse_rank_mod
from .algebra import Element, LieAlgebra, _scaled_support, bracket
from .linalg import _solve_rows

__all__ = [
    "WeightedDynkinDiagram",
    "Sl2Triple",
    "NilpotentOrbit",
    "TripleInsolubleError",
    "characteristic_element",
    "dynkin_test",
    "find_representative",
    "complete_triple",
    "enumerate_orbits",
]

DEFAULT_TRIALS = 25
TRIAL_COEFF_MAX = 10_000
RESTART_BUDGET = 50


@dataclass(frozen=True)
class WeightedDynkinDiagram:
    """Node labels of a weighted Dynkin diagram, in Bourbaki order."""

    labels: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(v in (0, 1, 2) for v in self.labels):
            raise ValueError("diagram labels must lie in {0, 1, 2}")

    @classmethod
    def from_string(cls, text: str) -> "WeightedDynkinDiagram":
        parts = text.replace(" ", "").split(",")
        if len(parts) == 1:
            parts = list(text.strip())
        return cls(tuple(int(p) for p in parts))

    def is_zero(self) -> bool:
        return not any(self.labels)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.labels)


@dataclass(frozen=True)
class Sl2Triple:
    e: Element
    h: Element
    f: Element


class TripleInsolubleError(RuntimeError):
    """[e, f] = h has no solution f in g(-2)."""


@dataclass(frozen=True)
class NilpotentOrbit:
    diagram: WeightedDynkinDiagram
    triple: Sl2Triple
    label: str | None = None

    def with_label(self, label: str) -> "NilpotentOrbit":
        return replace(self, label=label)


def characteristic_element(L: LieAlgebra, d: WeightedDynkinDiagram) -> Element:
    """The Cartan element h with alpha_i(h) = labels[i]."""
    if len(d.labels) != L.rank:
        raise ValueError("diagram rank mismatch")
    rows, den = _cartan_inverse(L)
    out = [Fraction(0)] * L.dim
    for j, row in enumerate(rows):
        out[2 * L.npos + j] = Fraction(sum(a * v for a, v in zip(row, d.labels)), den)
    return Element(tuple(out))


@lru_cache(maxsize=None)
def _cartan_inverse(L: LieAlgebra) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, den) with integer rows: the inverse of the Cartan matrix is rows / den."""
    columns = []
    for i in range(L.rank):
        unit = [int(i == k) for k in range(L.rank)]
        col = _solve_rows([(*row, v) for row, v in zip(L.rs.cartan, unit)], L.rank)
        if col is None:
            raise RuntimeError(f"singular Cartan matrix for {L.rs.type_rank}")
        columns.append(col)
    den = lcm(*(c.denominator for col in columns for c in col))
    rows = tuple(tuple(int(c * den) for c in row) for row in zip(*columns))
    return rows, den


@lru_cache(maxsize=None)
def _positive_roots(L: LieAlgebra) -> np.ndarray:
    """The simple-root coordinates of the positive roots, one row each."""
    return np.array(L._root_of_index[: L.npos], dtype=np.int64)


def _graded(L: LieAlgebra, labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """The weight of each positive root x_a, and dim g(k) for k = 0, 1, ...

    The weight of x_a is the sum of a's coordinates times the labels, x_{-a}
    has the opposite one, and g(0) also holds the Cartan subalgebra; g(-k)
    has the dimension of g(k).  The sizes run at least up to k = 2.
    """
    weights = _positive_roots(L) @ np.asarray(labels, dtype=np.int64)
    sizes = np.bincount(weights, minlength=3)
    sizes[0] = 2 * sizes[0] + L.rank
    return weights, sizes


def _orbit_dim(L: LieAlgebra, labels: Sequence[int]) -> int:
    """The orbit's dimension dim L - dim g_e, with dim g_e = dim g(0) + dim g(1)."""
    sizes = _graded(L, labels)[1]
    return L.dim - int(sizes[0]) - int(sizes[1])


# -- the search behind every label vector ------------------------------------


class _Layout(NamedTuple):
    """The graded pieces of one label vector that the draws work in.

    `down[j]` is ad x_j : g(-2) -> g(0) for the root vectors x_j of g(2);
    `hcol` is h on g(0) with its denominators cleared, mod PRIMES[0].
    """

    h: Element
    g0: list[int]
    g2: list[int]
    neg2: list[int]
    down: np.ndarray
    hcol: np.ndarray


def _ad_blocks(
    L: LieAlgebra, g2: Sequence[int], src: Sequence[int], dst: Sequence[int]
) -> np.ndarray:
    """ad x_j : span(src) -> span(dst) for each x_j of g2, as integer blocks."""
    row_of = {i: r for r, i in enumerate(dst)}
    out = np.zeros((len(g2), len(dst), len(src)), dtype=np.int64)
    for t, j in enumerate(g2):
        adj = L._adj[j]
        for col, i in enumerate(src):
            for k, n in adj.get(i, ()):
                out[t, row_of[k], col] += n
    return out


def _layout(L: LieAlgebra, d: WeightedDynkinDiagram) -> _Layout | None:
    """The graded pieces of d that the draws read, or None when sizes rule out d.

    For a triple with characteristic h, g is a sum of sl2-modules, so
    dim g(k) >= dim g(k+2) for every k >= 0, also where dim g(k) = 0, and
    dim g(1) is even (kappa(f, [x, y]) is a nondegenerate symplectic form on
    g(1)); a nonzero d also needs g(2) nonzero.  These filters read only the
    sizes from `_graded`, so the index lists and the blocks are built only
    for the label vectors that pass.  The draws need only A = ad e :
    g(-2) -> g(0), which is linear in e: for e = sum c_j x_j over g(2) it is
    sum c_j down[j].  Its rank settles both questions of a draw (see
    `_decide`), so the blocks of ad e : g(0) -> g(2) are left to the walk.
    """
    weights, sizes = _graded(L, d.labels)
    if not sizes[2] or sizes[1] % 2 or np.any(sizes[:-2] < sizes[2:]):
        return None
    npos = L.npos
    zero = np.flatnonzero(weights == 0).tolist()
    g2 = np.flatnonzero(weights == 2).tolist()
    g0 = zero + [npos + i for i in zero] + list(range(2 * npos, L.dim))
    neg2 = [npos + i for i in g2]
    h = characteristic_element(L, d)
    scaled, _ = _scaled_support(h.coeffs)
    hcol = np.array([scaled.get(i, 0) % PRIMES[0] for i in g0], dtype=np.int64)
    return _Layout(h, g0, g2, neg2, _ad_blocks(L, g2, neg2, g0), hcol)


def _derive_seed(seed: int, labels: Sequence[int]) -> int:
    out = seed
    for v in labels:
        out = out * 3 + v
    return out


def _ranks_mod_p(layout: _Layout, a: np.ndarray) -> tuple[int, int]:
    """rank_p A and rank_p [A | h] at PRIMES[0], for A = ad e : g(-2) -> g(0).

    Both come from one elimination of [A | h]: its columns are eliminated
    in order, so the pivots among A's n = dim g(-2) columns give rank_p A.
    A rank mod p never exceeds the rational one, so rank_p A = n proves
    rank_Q A = n, which certifies the draw (see `_decide`), and
    rank_p [A | h] > n proves rank_Q [A | h] > n >= rank_Q A: then
    [e, f] = h is insoluble over Q.
    """
    n = a.shape[1]
    pivots = pivot_columns(np.column_stack([a, layout.hcol]), PRIMES[0])
    return len(pivots) - (n in pivots), len(pivots)


def _decide(
    L: LieAlgebra, d: WeightedDynkinDiagram, layout: _Layout, trials: int, seed: int
) -> Element | None:
    """The first surjective draw, or None when d is rejected.

    Seeded random e in g(2) with coefficients in [1, TRIAL_COEFF_MAX] are
    drawn until ad e maps g(0) onto g(2).  That is read off A = ad e :
    g(-2) -> g(0) alone.  The Killing form pairs g(k) with g(-k)
    nondegenerately and kappa([e, y], x) = -kappa(y, [e, x]), so A is the
    transpose of B = ad e : g(0) -> g(2) up to these pairings, and
    rank_Q A = rank_Q B; B is onto exactly when A has rank n = dim g(-2).
    Each draw gets one elimination mod p of [A | h] (`_ranks_mod_p`): a
    rank of [A | h] above n proves its triple insoluble, which rejects d,
    and a rank of A equal to n certifies the draw.  Only when the rank of A
    falls short is A handed to `has_full_rank`, which also tries the second
    prime.  None means a rejection by that rank (exact), or that no draw
    among `trials` was surjective (probable).  A returned e still needs its
    exact triple.
    """
    n = len(layout.neg2)
    rng = random.Random(_derive_seed(seed, d.labels))
    for _ in range(trials):
        coeffs = [rng.randint(1, TRIAL_COEFF_MAX) for _ in layout.g2]
        a = np.tensordot(np.array(coeffs, dtype=np.int64), layout.down, axes=1)
        rank_a, rank_ah = _ranks_mod_p(layout, a)
        if rank_ah > n:
            return None
        if rank_a == n or has_full_rank(a, n):
            return L.element(dict(zip(layout.g2, coeffs)))
    return None


def _reduced(echelon: list[tuple[int, list[int]]], v: Sequence[int]) -> list[int]:
    """v reduced against the (pivot, row) echelon, fraction-free in ints."""
    out = list(v)
    for c, row in echelon:
        f = out[c]
        if f:
            p = row[c]
            out = [p * a - f * b for a, b in zip(out, row)]
    return out


def _represent(
    L: LieAlgebra, d: WeightedDynkinDiagram, layout: _Layout, seed: int
) -> Sl2Triple | None:
    """The triple of the first unit e a rank-greedy walk makes surjective.

    Along an order of the roots of g(2), a root is kept when it is linearly
    independent of the kept ones (an exact reduction of its coordinates
    against their echelon) and raises the mod-p rank of ad e : g(0) -> g(2)
    for e the unit sum over them; mod-p ranks are lower bounds of the
    rational ones, so a rank of dim g(2) is exact.  The first order is the
    basis order, the next ones are seeded shuffles, up to `RESTART_BUDGET`
    orders; None when all of them run out.  Raises `TripleInsolubleError`
    when the surjective e has no triple, which proves d is no diagram.

    The walk's matrices are sparse: ad x_j sends x_b in g(0) to a multiple
    of x_{j+b} and a Cartan vector to a multiple of x_j, so each of their
    columns has at most one nonzero.  The columns of every ad x_j are read
    off the structure constants once per label vector, the walk keeps their
    sum over the kept roots, and each candidate's sum is ranked by sparse
    elimination mod `PRIMES[0]` (`sparse_rank_mod`).  The draws' matrices
    are dense, and numpy eliminates those faster (`_decide`).
    """
    g2 = layout.g2
    # the nonzero entries (column i, row k, value n) of each ad x_j
    up = [
        [(i, k, n) for i in layout.g0 for k, n in L._adj[j].get(i, ())] for j in g2
    ]
    roots = [L._root_of_index[i] for i in g2]
    order = list(range(len(g2)))
    shuffler = random.Random(_derive_seed(seed, d.labels) + 2)
    for attempt in range(RESTART_BUDGET):
        if attempt:
            shuffler.shuffle(order)
        kept: list[int] = []
        echelon: list[tuple[int, list[int]]] = []
        # column i of ad e : g(0) -> g(2) for e the sum over kept, as {k: entry}
        total: dict[int, dict[int, int]] = {}
        reached = 0
        for q in order:
            v = _reduced(echelon, roots[q])
            if not any(v):
                continue
            candidate = dict(total)
            for i, k, n in up[q]:
                column = dict(total.get(i, ()))
                column[k] = column.get(k, 0) + n
                candidate[i] = column
            r = sparse_rank_mod(candidate.values(), PRIMES[0])
            if r > reached:
                kept.append(q)
                echelon.append((next(c for c, x in enumerate(v) if x), v))
                total = candidate
                reached = r
                if reached == len(g2):
                    e = L.element({g2[t]: Fraction(1) for t in kept})
                    return _triple(L, layout.h, layout.g0, layout.neg2, e)
                if len(kept) == L.rank:
                    break
    return None


def _settle(L: LieAlgebra, layout: _Layout, e: Element) -> Sl2Triple | None:
    """The triple of e, or None when [e, f] = h is insoluble."""
    try:
        return _triple(L, layout.h, layout.g0, layout.neg2, e)
    except TripleInsolubleError:
        return None


def _orbit(
    L: LieAlgebra, d: WeightedDynkinDiagram, trials: int, seed: int
) -> NilpotentOrbit | None:
    """The orbit with weighted Dynkin diagram d, or None when d is rejected.

    The orbit's triple is the rank-greedy representative's, or the decisive
    draw's when the walk runs out of orders; either exact solve proves d.
    Both e lie in the open G(0)-orbit of g(2), so when the representative's
    triple is insoluble, the draw's exact solve settles d.
    """
    if d.is_zero():
        h = characteristic_element(L, d)
        return NilpotentOrbit(d, complete_triple(L, h, L.zero()))
    layout = _layout(L, d)
    e = _decide(L, d, layout, trials, seed) if layout else None
    if e is None:
        return None
    try:
        triple = _represent(L, d, layout, seed)
    except TripleInsolubleError as exc:
        if _settle(L, layout, e) is None:
            return None
        raise RuntimeError(
            f"diagram {d}: the decisive draw has a triple, the representative none"
        ) from exc
    if triple is None:
        triple = _settle(L, layout, e)
    return None if triple is None else NilpotentOrbit(d, triple)


# -- operations --------------------------------------------------------------


def dynkin_test(
    L: LieAlgebra,
    d: WeightedDynkinDiagram,
    trials: int = DEFAULT_TRIALS,
    seed: int = 1,
) -> bool:
    """Whether the label vector is the weighted Dynkin diagram of an orbit.

    After the size filters (see `_layout`), seeded random e in g(2) are
    drawn until ad e maps g(0) onto g(2), and the verdict is whether
    [e, f] = h has a solution f in g(-2) for that one e:

    - such an e lies in the unique open G(0)-orbit of g(2), and G(0) fixes h;
    - any e' in an sl2-triple with this h has ad e' : g(0) -> g(2) onto, so
      e' lies in the same orbit;
    - so insolubility for this e rules out every e', and a solution is a
      triple that proves the diagram.

    Each draw first gets one elimination mod p of the augmented system (see
    `_ranks_mod_p` and `_decide`), which both certifies the draw and
    proves its triple insoluble for most label vectors past the size
    filters, without an exact solve; the other decisive draws get one.
    The triple is the one certificate, and both of its verdicts are exact.
    The one probabilistic verdict is a rejection because none of `trials`
    draws was surjective.  The empty g(2) is accepted only for the all-zero
    diagram (the zero orbit).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if len(d.labels) != L.rank:
        raise ValueError("diagram rank mismatch")
    if d.is_zero():
        return True
    layout = _layout(L, d)
    e = _decide(L, d, layout, trials, seed) if layout else None
    return e is not None and _settle(L, layout, e) is not None


def find_representative(
    L: LieAlgebra, d: WeightedDynkinDiagram, seed: int = 1
) -> Element:
    """The orbit's representative: a unit sum of root vectors of g(2).

    The rank-greedy walk (see `_represent`) picks at most rank linearly
    independent roots of g(2) whose unit sum e has ad e : g(0) -> g(2)
    onto, and e is certified by solving its triple.  Unit coefficients lose
    nothing: the torus scales each root vector by its own character, and
    the characters of independent roots are independent, so any nonzero
    coefficients on the same support give a G(0)-conjugate of e.  When the
    walk runs out of orders, e is the diagram test's decisive draw.
    `ValueError` when d is not a weighted Dynkin diagram: proved by an
    insoluble triple, or probable when no draw is surjective.
    Deterministic for a fixed seed.
    """
    if len(d.labels) != L.rank:
        raise ValueError("diagram rank mismatch")
    if d.is_zero():
        return L.zero()
    layout = _layout(L, d)
    if layout is not None:
        try:
            triple = _represent(L, d, layout, seed)
        except TripleInsolubleError:
            triple = None
        else:
            if triple is None:
                e = _decide(L, d, layout, DEFAULT_TRIALS, seed)
                triple = None if e is None else _settle(L, layout, e)
        if triple is not None:
            return triple.e
    raise ValueError(f"not a weighted Dynkin diagram: {d}")


def complete_triple(L: LieAlgebra, h: Element, e: Element) -> Sl2Triple:
    """Solve [e, f] = h for f in g(-2) and return the verified triple.

    The grading is read off h.  Raises `ValueError` when e is not in g(2),
    `TripleInsolubleError` when no f exists; a solution that fails the check
    [e, f] = h is an internal error (`RuntimeError`).
    """
    # Integral values keep the weight sums out of Fraction arithmetic.
    values = [v.numerator if v.denominator == 1 else v for v in L.cartan_values(h)]
    weights = L.basis_weights(values)
    if any(weights[i] != 2 for i in e.support()):
        raise ValueError("[h, e] = 2e fails: not a weight-2 vector for h")
    g0 = [i for i, w in enumerate(weights) if w == 0]
    neg2 = [j for j, w in enumerate(weights) if w == -2]
    return _triple(L, h, g0, neg2, e)


def _triple(
    L: LieAlgebra, h: Element, g0: list[int], neg2: list[int], e: Element
) -> Sl2Triple:
    """`complete_triple` for e in g(2), given the indices of g(0) and g(-2).

    e has ad h-weight 2, so [e, g(-2)] lies in g(0) and only the g(0) rows
    of the system can be nonzero; they are built from the integer structure
    constants.
    """
    supp, scale = _scaled_support(e.coeffs)
    row_of = {i: r for r, i in enumerate(g0)}
    # [scale * e, f] = scale * h, with integer scale * e, as augmented rows
    system = [[0] * len(neg2) + [scale * h.coeffs[i]] for i in g0]
    for k, c in supp.items():
        adj = L._adj[k]
        for col, j in enumerate(neg2):
            for i, n in adj.get(j, ()):
                system[row_of[i]][col] += c * n
    sol = _solve_rows(system, len(neg2))
    if sol is None:
        raise TripleInsolubleError("no completion to a triple: invalid representative")
    out = [Fraction(0)] * L.dim
    for j, c in zip(neg2, sol):
        out[j] = c
    f = Element(tuple(out))
    # [h, f] = -2f holds by construction: f is supported on g(-2).
    if bracket(L, e, f) != h:
        raise RuntimeError("triple relations failed verification")
    return Sl2Triple(e=e, h=h, f=f)


def enumerate_orbits(
    L: LieAlgebra, seed: int = 1, trials: int = DEFAULT_TRIALS
) -> list[NilpotentOrbit]:
    """All nonzero nilpotent orbits, sorted by (orbit dimension, labels).

    Sweeps the 3^rank label vectors with one search each: the size filters,
    the decisive draw, which one rank mod p rejects when its triple is
    insoluble, and the rank-greedy representative, whose exact triple proves
    the diagram.  `ValueError` unless `trials` is positive.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    found: list[tuple[int, tuple[int, ...], NilpotentOrbit]] = []
    for labels in product((0, 1, 2), repeat=L.rank):
        if not any(labels):
            continue
        o = _orbit(L, WeightedDynkinDiagram(labels), trials, seed)
        if o is not None:
            found.append((_orbit_dim(L, labels), labels, o))
    found.sort(key=lambda item: (item[0], item[1]))
    return [o for _, _, o in found]
