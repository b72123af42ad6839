"""Nilpotent orbit machinery: diagram tests, representatives, triples.

Orbits are identified by their weighted Dynkin diagram (labels in {0,1,2} on
the simple roots).  Every label vector goes through one search, and its one
certificate is the sl2-triple with the characteristic h of the labels:

- the size filters reject label vectors whose graded dimensions no triple
  allows, those whose h lies outside the coroot lattice (omega_i(h), the
  coordinate of h on the coroot h_i, is an eigenvalue of h on V(omega_i)),
  and those whose eigenvalues on a minuscule module form no sl2-character.
  They are settled for chunks of 81 label vectors at once;
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
  The walk ranks the rows of the same A, read off the draws' index arrays,
  exactly over Q (`linalg._Echelon`, rank-only), with h in one more column
  once they touch every column; the echelon that reaches rank dim g(2) in
  A's columns gives f by back-substitution.  Only the draws work mod p.
  e, h and f are `Element`s, and `bracket` checks [e, f] = h.

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
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import lcm
from typing import NamedTuple, Sequence

import numpy as np

from ._modp import PRIMES, pivot_columns
from .algebra import Element, LieAlgebra, _ad_rows, bracket
from .linalg import _Echelon, _back_substitute, _echelon, _rank

__all__ = [
    "WeightedDynkinDiagram",
    "Sl2Triple",
    "NilpotentOrbit",
    "TripleInsolubleError",
    "characteristic_element",
    "orbit",
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
        if not set(self.labels) <= {0, 1, 2}:
            raise ValueError("diagram labels must lie in {0, 1, 2}")

    @classmethod
    def from_string(cls, text: str) -> "WeightedDynkinDiagram":
        """Labels separated by commas or spaces ("2,2", "2 2"), or one digit each ("22")."""
        parts = text.replace(" ", "").split(",")
        if len(parts) == 1:
            parts = text.split()
            if len(parts) == 1:
                parts = list(parts[0])
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


def characteristic_element(L: LieAlgebra, d: WeightedDynkinDiagram) -> Element:
    """The Cartan element h with alpha_i(h) = labels[i].

    h has only its `rank` Cartan coordinates nonzero: the integer rows of
    `_cartan_inverse` times the labels, over its denominator.
    """
    if len(d.labels) != L.rank:
        raise ValueError("diagram rank mismatch")
    rows, den = _cartan_inverse(L)
    values = (rows @ np.array(d.labels, dtype=np.int64)).tolist()
    return Element._of(L.dim, {2 * L.npos + j: v for j, v in enumerate(values) if v}, den)


@lru_cache(maxsize=None)
def _cartan_inverse(L: LieAlgebra) -> tuple[np.ndarray, int]:
    """(rows, den) with int64 rows: the inverse of the Cartan matrix is rows / den.

    The reduced echelon form of [C | 1] is [1 | C^-1] for an invertible C.
    """
    n = L.rank
    echelon = _echelon({**dict(enumerate(row)), n + i: 1} for i, row in enumerate(L.rs.cartan))
    if echelon.order != list(range(n)):
        raise RuntimeError(f"singular Cartan matrix for {L.rs.type_rank}")
    inverse = [[row.get(n + k, 0) for k in range(n)] for row in echelon.canonical_rows()]
    den = lcm(*(x.denominator for row in inverse for x in row))
    return np.array([[int(x * den) for x in row] for row in inverse], dtype=np.int64), den


@lru_cache(maxsize=None)
def _positive_roots(L: LieAlgebra) -> np.ndarray:
    """The simple-root coordinates of the positive roots, one column each."""
    return np.array(L.rs.roots[: L.npos], dtype=np.int64).T


def _graded(L: LieAlgebra, labels: np.ndarray | Sequence[Sequence[int]]) -> np.ndarray:
    """The graded sizes, per label vector.

    `labels` holds one label vector per row.  The weight of a positive root
    x_a under a row's labels is the sum of a's coordinates times the labels;
    x_{-a} has the opposite one.  Row r of the sizes holds dim g(k) for
    k = 0 .. max weight + 2, with g(0) also holding the Cartan subalgebra;
    g(-k) has the dimension of g(k).  All rows' sizes come from one
    `bincount`, each row's weights offset into its own bins.
    """
    roots = _positive_roots(L)
    weights = np.asarray(labels, dtype=np.int64) @ roots
    sizes = _row_counts(weights, 2 * int(roots.sum(axis=0).max()) + 3)
    sizes[:, 0] = 2 * sizes[:, 0] + L.rank
    return sizes


def _row_counts(values: np.ndarray, width: int) -> np.ndarray:
    """Row r counts each v in range(width) in row r of `values`, by one `bincount`."""
    bins = values + width * np.arange(len(values))[:, None]
    return np.bincount(bins.ravel(), minlength=len(values) * width).reshape(-1, width)


def _orbit_dim(L: LieAlgebra, labels: Sequence[int]) -> int:
    """The orbit's dimension dim L - dim g_e, with dim g_e = dim g(0) + dim g(1)."""
    sizes = _graded(L, [labels])[0]
    return L.dim - int(sizes[0]) - int(sizes[1])


# The size filters are settled at once for the 3^CHUNK_LABELS label vectors
# that share all labels but the last CHUNK_LABELS.
CHUNK_LABELS = 4


def _in_coroot_lattice(L: LieAlgebra, labels: np.ndarray) -> np.ndarray:
    """Whether h of each row of `labels` has integer coordinates on the coroots.

    The coordinates are the integer rows of `_cartan_inverse` times the
    labels over its denominator, one product for all rows; with
    denominator 1 (G2, F4, E8) every h passes.
    """
    rows, den = _cartan_inverse(L)
    return np.all(labels @ rows.T % den == 0, axis=1)


@lru_cache(maxsize=None)
def _module_weights(L: LieAlgebra) -> np.ndarray:
    """The weights of the minuscule natural module of A, C and D, the 27 of E6, the
    56 of E7, else no rows: the Weyl orbit of omega_k, by s_i(mu) = mu - mu_i alpha_i at
    mu_i > 0, in fundamental coordinates (alpha_i's are row i of the Cartan matrix)."""
    t = L.rs.type_rank
    node = {"E6": 0, "E7": 6}.get(str(t), 0 if t.letter in "ACD" else None)
    if node is None:
        return np.zeros((0, L.rank), dtype=np.int64)
    seen = [tuple(int(i == node) for i in range(L.rank))]
    for mu in seen:
        for i, row in enumerate(L.rs.cartan):
            nu = tuple(x - mu[i] * a for x, a in zip(mu, row))
            if mu[i] > 0 and nu not in seen:
                seen.append(nu)
    return np.array(seen, dtype=np.int64)


def _has_module_character(L: LieAlgebra, labels: np.ndarray) -> np.ndarray:
    """Whether h of each row of `labels` has an sl2-character on `_module_weights`:
    k as often as -k, and at least as often as k + 2 for k >= 0.  h acts on mu by
    sum_i mu_i omega_i(h), omega_i(h) h's coroot coordinates (`_in_coroot_lattice`)."""
    rows, den = _cartan_inverse(L)
    values = labels @ (rows.T @ _module_weights(L).T) // den
    top = int(np.abs(values).max(initial=0))
    counts = _row_counts(values + top, 2 * top + 1)
    return (counts == counts[:, ::-1]).all(1) & (counts[:, top:-2] >= counts[:, top + 2 :]).all(1)


@lru_cache(maxsize=None)
def _size_filters(L: LieAlgebra, chunk: int) -> np.ndarray:
    """Whether each label vector of a chunk passes the size filters.

    For a triple with characteristic h, g is a sum of sl2-modules, so
    dim g(k) >= dim g(k+2) for every k >= 0, also where dim g(k) = 0, and
    dim g(1) is even (kappa(f, [x, y]) is a nondegenerate symplectic form on
    g(1)); a nonzero label vector also needs g(2) nonzero.  h also lies in
    the coroot lattice: its coordinate on the simple coroot h_i is
    omega_i(h), and omega_i is a weight of V(omega_i), on which h, in an
    sl2, acts with integer eigenvalues (`_in_coroot_lattice`); on a
    minuscule module they form an sl2-character (`_has_module_character`).
    The base-3 value of the labels, first highest (the order of
    `itertools.product`), is chunk * 3^CHUNK_LABELS plus the vector's index
    in the returned bytes, so one label vector costs one chunk of at most
    81 vectors, whatever the rank, and a sweep builds each chunk once.
    """
    tail = min(L.rank, CHUNK_LABELS)
    head = []
    for _ in range(L.rank - tail):
        chunk, v = divmod(chunk, 3)
        head.append(v)
    labels = np.empty((3**tail, L.rank), dtype=np.int64)
    labels[:, : L.rank - tail] = head[::-1]
    labels[:, L.rank - tail :] = np.indices((3,) * tail).reshape(tail, -1).T
    sizes = _graded(L, labels)
    return (
        (sizes[:, 2] > 0)
        & (sizes[:, 1] % 2 == 0)
        & np.all(sizes[:, :-2] >= sizes[:, 2:], axis=1)
        & _in_coroot_lattice(L, labels)
        & _has_module_character(L, labels)
    )


# -- the search behind every label vector ------------------------------------


class _Layout(NamedTuple):
    """The graded pieces of one label vector that the draws work in.

    A = ad e : g(-2) -> g(0) for e = sum c_j x_j over the root vectors x_j
    of g(2) has the entry c_j * n[t] at (rows[t], cols[t]) for j = g2[pos[t]],
    and no other nonzero entry (see `_down_table`).  `hcol` is a nonzero
    integer multiple of h on g(0), mod PRIMES[0].
    """

    g0: list[int]
    g2: list[int]
    neg2: list[int]
    pos: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    n: np.ndarray
    hcol: np.ndarray


@lru_cache(maxsize=None)
def _down_table(L: LieAlgebra) -> np.ndarray:
    """The structure constants [x_j, x_{-b}] = n x_k for positive roots j, b.

    Four int64 rows (j, b, k, n), one column per nonzero n: k is the index
    of x_{j-b} when j - b is a root, and of a Cartan basis vector when
    j = b.  For fixed b and k at most one j contributes (j = b + the root of
    x_k, or j = b for a Cartan k), so the sum of c_j ad x_j over any set of
    j has each of its entries from one term; that is checked here, once.
    """
    npos = L.npos
    entries = [
        (j, i - npos, k, n)
        for j in range(npos)
        for i, hits in L._adj[j].items()
        if npos <= i < 2 * npos
        for k, n in hits
    ]
    if len({(b, k) for _, b, k, _ in entries}) != len(entries):
        raise RuntimeError(f"two roots share an entry of ad e for {L.rs.type_rank}")
    return np.array(entries, dtype=np.int64).reshape(-1, 4).T


def _ad_down(layout: _Layout, coeffs: Sequence[int]) -> np.ndarray:
    """A = ad e : g(-2) -> g(0) for e = sum coeffs[t] x_{g2[t]}, as int64."""
    c = np.asarray(coeffs, dtype=np.int64)
    a = np.zeros((len(layout.g0), len(layout.neg2)), dtype=np.int64)
    a[layout.rows, layout.cols] = c[layout.pos] * layout.n
    return a


def _layout(L: LieAlgebra, d: WeightedDynkinDiagram) -> _Layout | None:
    """The graded pieces of d that the draws read, or None when a filter rules d out.

    The size filters read only the graded sizes and the coroot coordinates
    of h (`_size_filters`, settled for d's chunk of label vectors at once),
    and the weights and index arrays are built only for the label vectors
    that pass.  The draws and the walk need only A = ad e : g(-2) -> g(0),
    whose entries are those of `_down_table` with j and b in g(2); its rank
    settles both questions of a draw and each step of the walk (see
    `_decide`).  h is read as den * h, the integer rows of `_cartan_inverse`
    times the labels; den is a unit mod p, so it changes no rank, and h
    itself is formed only for an exact triple.
    """
    chunk, index = divmod(_derive_seed(0, d.labels), 3**CHUNK_LABELS)
    if not _size_filters(L, chunk)[index]:
        return None
    labels = np.array(d.labels, dtype=np.int64)
    weights = labels @ _positive_roots(L)
    npos = L.npos
    zero = np.flatnonzero(weights == 0)
    g2 = np.flatnonzero(weights == 2)
    g0 = [*zero.tolist(), *(zero + npos).tolist(), *range(2 * npos, L.dim)]
    in_g2 = np.zeros(npos, dtype=np.int64)
    in_g2[g2] = np.arange(g2.size)
    in_g0 = np.zeros(L.dim, dtype=np.int64)
    in_g0[g0] = np.arange(len(g0))
    j, b, k, n = _down_table(L)
    sel = (weights[j] == 2) & (weights[b] == 2)
    j, b, k = j[sel], b[sel], k[sel]
    hcol = np.zeros(len(g0), dtype=np.int64)
    hcol[len(g0) - L.rank :] = _cartan_inverse(L)[0] @ labels % PRIMES[0]
    g2 = g2.tolist()
    neg2 = [npos + i for i in g2]
    return _Layout(g0, g2, neg2, in_g2[j], in_g0[k], in_g2[b], n[sel], hcol)


def _derive_seed(seed: int, labels: Sequence[int]) -> int:
    """seed * 3^len(labels) plus the base-3 value of the labels, first highest."""
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
    d: WeightedDynkinDiagram, layout: _Layout, trials: int, seed: int
) -> list[int] | None:
    """The coefficients of the first surjective draw, or None on a rejection.

    The coefficients are those of e on the root vectors of layout.g2, and
    None means a draw proved d is no diagram.

    Seeded random e in g(2) with coefficients in [1, TRIAL_COEFF_MAX] are
    drawn until ad e maps g(0) onto g(2).  That is read off A = ad e :
    g(-2) -> g(0) alone.  The Killing form pairs g(k) with g(-k)
    nondegenerately and kappa([e, y], x) = -kappa(y, [e, x]), so A is the
    transpose of B = ad e : g(0) -> g(2) up to these pairings, and
    rank_Q A = rank_Q B; B is onto exactly when A has rank n = dim g(-2).
    Each draw gets one elimination mod p of [A | h] (`_ranks_mod_p`): a
    rank of [A | h] above n proves its triple insoluble, which rejects d,
    and a rank of A equal to n certifies the draw; otherwise the next draw
    is taken.  A returned e still needs its exact triple (`_settle`).

    When no draw among `trials` reaches rank n, this raises `RuntimeError`
    naming d instead of deciding.  That is not expected: for a true diagram
    the draws that fall short are common zeros mod p of the n x n minors of
    A, polynomials of degree n in the coefficients of e, so once one minor
    is nonzero mod p the Schwartz-Zippel lemma bounds the chance that a
    draw falls short by n / TRIAL_COEFF_MAX = dim g(2) / 10^4.
    """
    n = len(layout.neg2)
    rng = random.Random(_derive_seed(seed, d.labels))
    for _ in range(trials):
        coeffs = [rng.randint(1, TRIAL_COEFF_MAX) for _ in layout.g2]
        rank_a, rank_ah = _ranks_mod_p(layout, _ad_down(layout, coeffs))
        if rank_ah > n:
            return None
        if rank_a == n:
            return coeffs
    raise RuntimeError(f"diagram {d}: no surjective draw among {trials}")


def _represent(
    L: LieAlgebra, d: WeightedDynkinDiagram, layout: _Layout, seed: int
) -> Sl2Triple | None:
    """The triple of the first unit e a rank-greedy walk makes surjective.

    Along an order of the roots of g(2), a root is kept when it is linearly
    independent of the kept ones (an exact reduction of its coordinates
    against their echelon) and raises the rank over Q of
    A = ad e : g(-2) -> g(0) for e the unit sum over them; A has the rank
    of ad e : g(0) -> g(2) (see `_decide`), so e is surjective when A
    reaches rank n = dim g(2).  The first order is the basis order, the
    next ones are seeded shuffles, up to `RESTART_BUDGET` orders; None when
    all of them run out.  Raises `TripleInsolubleError` when the surjective
    e has no triple, which proves d is no diagram.

    The rows of A are read off the layout's index arrays: each root adds
    its entries to the rows keyed by g(0), and for a fixed row and column
    at most one root contributes (see `_down_table`), so nothing is summed.
    Each candidate copies the rows its root touches, and `_rank` counts
    their pivots below n, rank A, in the rank-only mode of
    `linalg._Echelon`.  Once they touch all n columns, the only way to rank
    n, the rows carry h's integer support in column n of the Cartan rows,
    and the echelon that reaches rank n solves the triple by back-substitution.
    """
    g2 = layout.g2
    n = len(g2)
    h = characteristic_element(L, d)
    # h's entries on the Cartan rows, which end g(0)
    hcol = {len(layout.g0) - L.rank - 2 * L.npos + i: c for i, c in h._supp.items()}
    # the entries of A for each root of g2, as {row of g(0): {column: entry}}
    down: list[dict[int, dict[int, int]]] = [{} for _ in g2]
    touched: list[set[int]] = [set() for _ in g2]  # the columns each root touches
    arrays = (layout.pos, layout.rows, layout.cols, layout.n)
    for t, i, c, x in zip(*(a.tolist() for a in arrays)):
        down[t].setdefault(i, {})[c] = x
        touched[t].add(c)
    order = list(range(n))
    shuffler = random.Random(_derive_seed(seed, d.labels) + 2)
    for attempt in range(RESTART_BUDGET):
        if attempt:
            shuffler.shuffle(order)
        kept: list[int] = []
        span = _Echelon()
        # the rows of A for e the sum over kept, with h once covered has n columns
        total: dict[int, dict[int, int]] = {}
        covered: set[int] = set()
        reached = 0
        for q in order:
            v = span.reduce({c: x for c, x in enumerate(L.rs.roots[g2[q]]) if x})
            if not v:
                continue
            candidate = dict(total)
            for i, entries in down[q].items():
                candidate[i] = {**total[i], **entries} if i in total else entries
            if len(covered | touched[q]) == n:
                # A may reach rank n from now on: rank [A | h], h in column n
                candidate.update({i: {**candidate.get(i, {}), n: c} for i, c in hcol.items()})
            echelon = _Echelon()
            r = _rank(candidate.values(), n, echelon)
            if r > reached:
                kept.append(q)
                span.store(v)
                total = candidate
                covered |= touched[q]
                reached = r
                if reached == n:
                    e = Element._of(L.dim, {g2[t]: 1 for t in kept})
                    return _triple(L, layout.neg2, e, h, echelon)
                if len(kept) == L.rank:
                    break
    return None


def _settle(
    L: LieAlgebra, d: WeightedDynkinDiagram, layout: _Layout, coeffs: Sequence[int]
) -> Sl2Triple | None:
    """The triple of the draw e = sum coeffs[t] x_{g2[t]}, or None if it has none."""
    e = Element._of(L.dim, dict(zip(layout.g2, coeffs)))
    try:
        return _triple(L, layout.neg2, e, characteristic_element(L, d))
    except TripleInsolubleError:
        return None


def orbit(
    L: LieAlgebra,
    d: WeightedDynkinDiagram,
    seed: int = 1,
    trials: int = DEFAULT_TRIALS,
) -> NilpotentOrbit | None:
    """The orbit with weighted Dynkin diagram d, or None when d is no diagram.

    The one search per label vector: the size filters (`_layout`), the
    draws (`_decide`), whose one rank mod p rejects most false diagrams,
    and the rank-greedy representative (`_represent`), whose exact triple
    proves d and is the orbit's triple.  When the walk runs out of orders,
    the decisive draw's triple is.  Both e lie in the open G(0)-orbit of
    g(2), as does every e' in a triple with this h (ad e' : g(0) -> g(2) is
    onto), so one e's triple decides d; when the representative's triple is
    insoluble, the draw's exact solve settles d.  Every verdict is exact.

    `ValueError` unless `trials` is positive and d has one label per simple
    root; `RuntimeError` naming d when none of `trials` draws is surjective.
    Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if len(d.labels) != L.rank:
        raise ValueError("diagram rank mismatch")
    if d.is_zero():
        return NilpotentOrbit(d, Sl2Triple(L.zero(), L.zero(), L.zero()))
    layout = _layout(L, d)
    draw = _decide(d, layout, trials, seed) if layout else None
    if draw is None:
        return None
    try:
        triple = _represent(L, d, layout, seed)
    except TripleInsolubleError as exc:
        if _settle(L, d, layout, draw) is None:
            return None
        raise RuntimeError(
            f"diagram {d}: the decisive draw has a triple, the representative none"
        ) from exc
    if triple is None:
        triple = _settle(L, d, layout, draw)
    return None if triple is None else NilpotentOrbit(d, triple)


# -- operations --------------------------------------------------------------


def dynkin_test(
    L: LieAlgebra,
    d: WeightedDynkinDiagram,
    trials: int = DEFAULT_TRIALS,
    seed: int = 1,
) -> bool:
    """Whether d is the weighted Dynkin diagram of an orbit (see `orbit`)."""
    return orbit(L, d, seed, trials) is not None


def find_representative(
    L: LieAlgebra, d: WeightedDynkinDiagram, seed: int = 1
) -> Element:
    """The representative e of `orbit`; `ValueError` when d is no diagram."""
    o = orbit(L, d, seed)
    if o is None:
        raise ValueError(f"not a weighted Dynkin diagram: {d}")
    return o.triple.e


def complete_triple(L: LieAlgebra, h: Element, e: Element) -> Sl2Triple:
    """Solve [e, f] = h for f in g(-2) and return the verified triple.

    The grading is read off h.  Raises `ValueError` when e is not in g(2),
    `TripleInsolubleError` when no f exists; a solution that fails the check
    [e, f] = h is an internal error (`RuntimeError`).
    """
    # Integral values keep the weight sums out of Fraction arithmetic.
    values = [v.numerator if v.denominator == 1 else v for v in L.cartan_values(h)]
    weights = L.basis_weights(values)
    if e.dim != L.dim:
        raise ValueError("dimension mismatch")
    if any(weights[i] != 2 for i in e._supp):
        raise ValueError("[h, e] = 2e fails: not a weight-2 vector for h")
    neg2 = [i for i, w in enumerate(weights) if w == -2]
    return _triple(L, neg2, e, h)


def _triple(
    L: LieAlgebra, neg2: list[int], e: Element, h: Element, echelon: _Echelon | None = None
) -> Sl2Triple:
    """`complete_triple` for e in g(2), given the indices of g(-2).

    e has ad h-weight 2, so [e, g(-2)] lies in g(0), as h does.  The rows of
    the system are those of ad e on g(-2) (`algebra._ad_rows`), built from
    e's integer support and the integer structure constants, each entry
    from one root k of e (for x_j in g(-2) and x_i in g(0), at most one k
    has x_i in [x_k, x_j]; see `_down_table`); `_echelon` eliminates them
    unless the walk gives their `echelon`, `_back_substitute` solves it,
    and `bracket` checks [e, f] = h.
    """
    cols = len(neg2)
    if echelon is None:
        # [de * e, x] = de * dh * h as sparse integer augmented rows, for de
        # and dh the denominators of e and h, the right-hand side in column
        # `cols`; f = x / dh
        rows = _ad_rows(L._adj, e._supp, neg2)
        for i, c in h._supp.items():
            rows.setdefault(i, {})[cols] = e._den * c
        echelon = _echelon(rows.values())
    sol = _back_substitute(echelon, cols)
    if sol is None:
        raise TripleInsolubleError("no completion to a triple: invalid representative")
    xs, xden = sol
    f = Element._of(L.dim, {neg2[col]: x for col, x in xs.items()}, xden * h._den)
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
    the diagram (see `orbit`).  `ValueError` unless `trials` is positive;
    `RuntimeError` naming the label vector whose draws all fall short.
    """
    found: list[tuple[int, tuple[int, ...], NilpotentOrbit]] = []
    for labels in product((0, 1, 2), repeat=L.rank):
        if not any(labels):
            continue
        o = orbit(L, WeightedDynkinDiagram(labels), seed, trials)
        if o is not None:
            found.append((_orbit_dim(L, labels), labels, o))
    found.sort(key=lambda item: (item[0], item[1]))
    return [o for _, _, o in found]
