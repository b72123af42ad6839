"""Nilpotent orbit machinery: diagram tests, representatives, triples.

Orbits are identified by their weighted Dynkin diagram (labels in {0,1,2} on
the simple roots).  A label vector is accepted when [e, f] = h is solvable in
g(-2) for an element e in the open G(0)-orbit of g(2); the solution is the
defining triple.

Representatives are sums of root vectors x_j with every coefficient 1, over
linearly independent roots of g(2), the form of the standard tables.  The
unit coefficients lose nothing: the maximal torus T lies in G(0) and scales
each x_j by the character of its root, and over an algebraically closed
field the characters of linearly independent roots take any nonzero values
at once, so every sum with the same support and nonzero coefficients is
T-conjugate to the unit sum and lies in the same G(0)-orbit.  Each
representative is certified exactly to have the minimal centralizer
dimension dim g(0) + dim g(1), i.e. to lie in the open G(0)-orbit of g(2); a
seeded random fallback with small integer coefficients is kept for a search
that runs out of root orders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from ._modp import PRIMES, has_full_rank, rank_mod
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
RANDOM_BUDGET = 600
RANDOM_COEFF_MAX = 10


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
    coords = _solve_rows([(*row, v) for row, v in zip(L.rs.cartan, d.labels)], L.rank)
    if coords is None:
        raise RuntimeError(f"singular Cartan matrix for {L.rs.type_rank}")
    out = [Fraction(0)] * L.dim
    for j, c in enumerate(coords):
        out[2 * L.npos + j] = c
    return Element(tuple(out))


# -- internal weight bookkeeping --------------------------------------------


def _weight_layout(L: LieAlgebra, labels: Sequence[int]):
    """Basis indices of each graded piece under the given labels."""
    weights = L.basis_weights(labels)
    buckets: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        buckets.setdefault(w, []).append(i)
    return weights, buckets


def _block_matrix(
    L: LieAlgebra, supp: dict[int, int], domain: list[int], codomain: list[int]
) -> np.ndarray:
    """Integer matrix of ad(e) restricted to one graded piece."""
    pos = {b: r for r, b in enumerate(codomain)}
    out = np.zeros((len(codomain), len(domain)), dtype=np.int64)
    adj = L._adj
    for col, j in enumerate(domain):
        for i, c in supp.items():
            hits = adj[i].get(j)
            if hits:
                for k, n in hits:
                    out[pos[k], col] += c * n
    return out


def _g2_blocks(L: LieAlgebra, buckets: dict[int, list[int]]) -> np.ndarray:
    """The blocks ad x_j : g(0) -> g(2), stacked in the order of g(2).

    ad e restricted to g(0) is linear in e, so for e = sum c_j x_j over g(2)
    it is the sum of c_j times these blocks.
    """
    g0, g2 = buckets.get(0, []), buckets[2]
    return np.stack([_block_matrix(L, {j: 1}, g0, g2) for j in g2])


def _rank_greedy_support(
    L: LieAlgebra, g2: list[int], blocks: np.ndarray, order: list[int]
) -> list[int] | None:
    """Roots of g(2) picked along `order` until ad e maps g(0) onto g(2).

    A root is kept when it is linearly independent of the roots kept so far
    and raises the mod-p rank of the sum of their blocks.  Returns the kept
    positions (into g2) once that rank is dim g(2), or None when the order
    runs out first.  The mod-p ranks are lower bounds of the rational ones,
    so a kept root is truly independent and the final rank truly full.
    """
    p = PRIMES[0]
    kept: list[int] = []
    reached = 0
    for q in order:
        trial = kept + [q]
        roots = np.array([L._root_of_index[g2[t]] for t in trial], dtype=np.int64)
        if rank_mod(roots, p) < len(trial):
            continue
        r = rank_mod(blocks[trial].sum(axis=0), p)
        if r > reached:
            kept, reached = trial, r
            if reached == len(g2):
                return kept
            if len(kept) == L.rank:
                return None
    return None


def _interlaced(buckets: dict[int, list[int]]) -> bool:
    ks = [k for k in buckets if k >= 0]
    return all(len(buckets.get(k, ())) >= len(buckets.get(k + 2, ())) for k in ks)


def _centralizer_dim_is_minimal(
    L: LieAlgebra, supp: dict[int, int], buckets: dict[int, list[int]]
) -> bool:
    """Certify dim ker(ad e) == dim g(0) + dim g(1) for e in g(2).

    ad e maps g(k) into g(k+2); the kernel dimension is minimal exactly when
    every block has full rank, and ranks for k <= -2 mirror those for k >= 0,
    so only blocks at k >= -1 are tested.  Full rank mod p certifies full
    rational rank, so an accepted representative is certified exactly.
    """
    for k in sorted(buckets):
        if k < -1:
            continue
        codomain = buckets.get(k + 2)
        if not codomain:
            continue
        domain = buckets[k]
        target = len(domain) if k == -1 else len(codomain)
        if not has_full_rank(_block_matrix(L, supp, domain, codomain), target):
            return False
    return True


def _derive_seed(seed: int, labels: Sequence[int]) -> int:
    out = seed
    for v in labels:
        out = out * 3 + v
    return out


# -- operations --------------------------------------------------------------


def dynkin_test(
    L: LieAlgebra,
    d: WeightedDynkinDiagram,
    trials: int = DEFAULT_TRIALS,
    seed: int = 1,
) -> bool:
    """Whether the label vector is the weighted Dynkin diagram of an orbit.

    Exact necessary conditions come first: g(0) is at least as large as
    g(2), the graded dimensions interlace, and dim g(1) is even (kappa(f,
    [x, y]) is a nondegenerate symplectic form on g(1) for any triple).
    Then seeded random elements e of g(2) are drawn until one passes the
    mod-p certificate that ad e maps g(0) onto g(2), and the verdict is
    whether [e, f] = h has a solution f in g(-2) for that one e:

    - such an e lies in the unique open G(0)-orbit of g(2), and G(0) fixes h;
    - any e' in an sl2-triple with this h has ad e' : g(0) -> g(2) onto, so
      e' lies in the same orbit;
    - so insolubility for this e rules out every e', and a solution is a
      triple that proves the diagram.

    Both verdicts are exact.  The one probabilistic verdict is a rejection
    because none of `trials` draws passed the surjectivity certificate.
    The empty g(2) is accepted only for the all-zero diagram (the zero
    orbit).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    if len(d.labels) != L.rank:
        raise ValueError("diagram rank mismatch")
    weights, buckets = _weight_layout(L, d.labels)
    g2 = buckets.get(2, [])
    if not g2:
        return d.is_zero()
    g0 = buckets.get(0, [])
    if len(g0) < len(g2) or not _interlaced(buckets):
        return False
    if len(buckets.get(1, ())) % 2:
        return False
    blocks = _g2_blocks(L, buckets)
    rng = random.Random(_derive_seed(seed, d.labels))
    for _ in range(trials):
        coeffs = [rng.randint(1, TRIAL_COEFF_MAX) for _ in g2]
        ad_e = np.tensordot(np.array(coeffs, dtype=np.int64), blocks, axes=1)
        if not has_full_rank(ad_e, len(g2)):
            continue
        e = L.element(dict(zip(g2, coeffs)))
        try:
            complete_triple(L, characteristic_element(L, d), e)
        except TripleInsolubleError:
            return False
        return True
    return False


def find_representative(
    L: LieAlgebra, d: WeightedDynkinDiagram, seed: int = 1
) -> Element:
    """A representative e in g(2) with dim g_e = dim g(0) + dim g(1).

    e is a sum of root vectors of g(2) with every coefficient 1, over at most
    rank linearly independent roots, picked by a rank-greedy walk: along an
    order of the roots of g(2), a root is kept when it is independent of the
    kept ones and raises the mod-p rank of ad e : g(0) -> g(2).  The first
    order is the basis order, the next ones are seeded shuffles.  Once that
    rank reaches dim g(2), e is accepted only if every block of ad e passes
    the centralizer certificate; else the walk restarts with the next order.

    Restricting to unit coefficients loses nothing, because the torus scales
    each root vector by its own character and the characters of independent
    roots are independent: any nonzero coefficients on the same support give
    a G(0)-conjugate of e.  An accepted e is exact, not probable: a rank mod
    p never exceeds the rational rank, so full rank mod p proves full
    rational rank.  After `RESTART_BUDGET` orders the search falls back to
    seeded random combinations with coefficients in [1, RANDOM_COEFF_MAX],
    certified the same way.  Deterministic for a fixed seed.
    """
    if len(d.labels) != L.rank:
        raise ValueError("diagram rank mismatch")
    if d.is_zero():
        return L.zero()
    _, buckets = _weight_layout(L, d.labels)
    g2 = buckets.get(2, [])
    if not g2 or not _interlaced(buckets):
        raise ValueError(f"not a weighted Dynkin diagram: {d}")

    def accepted(supp: dict[int, int]) -> bool:
        return _centralizer_dim_is_minimal(L, supp, buckets)

    blocks = _g2_blocks(L, buckets)
    order = list(range(len(g2)))
    shuffler = random.Random(_derive_seed(seed, d.labels) + 2)
    for attempt in range(RESTART_BUDGET):
        if attempt:
            shuffler.shuffle(order)
        kept = _rank_greedy_support(L, g2, blocks, order)
        if kept is not None and accepted({g2[q]: 1 for q in kept}):
            return L.element({g2[q]: Fraction(1) for q in kept})
    rng = random.Random(_derive_seed(seed, d.labels) + 1)
    for _ in range(RANDOM_BUDGET):
        supp = {j: rng.randint(1, RANDOM_COEFF_MAX) for j in g2}
        if accepted(supp):
            return L.element({j: Fraction(c) for j, c in supp.items()})
    raise RuntimeError(
        f"representative search exhausted for diagram {d} of {L.rs.type_rank}"
    )


def complete_triple(L: LieAlgebra, h: Element, e: Element) -> Sl2Triple:
    """Solve [e, f] = h for f in g(-2) and return the verified triple.

    e has ad h-weight 2, so [e, g(-2)] lies in g(0) and only the g(0) rows
    of the system can be nonzero; they are built from the integer structure
    constants.  Raises `TripleInsolubleError` when no f exists; a solution
    that fails the check [e, f] = h is an internal error (`RuntimeError`).
    """
    # Integral values keep the weight sums out of Fraction arithmetic.
    values = [v.numerator if v.denominator == 1 else v for v in L.cartan_values(h)]
    weights = L.basis_weights(values)
    supp, scale = _scaled_support(e.coeffs)
    if any(weights[i] != 2 for i in supp):
        raise ValueError("[h, e] = 2e fails: not a weight-2 vector for h")
    g0 = [i for i, w in enumerate(weights) if w == 0]
    neg2 = [j for j, w in enumerate(weights) if w == -2]
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

    Sweeps the 3^rank label vectors, keeps those passing the diagram test,
    and constructs a representative with its verified triple for each.
    """
    found: list[tuple[int, tuple[int, ...], NilpotentOrbit]] = []
    for labels in product((0, 1, 2), repeat=L.rank):
        if not any(labels):
            continue
        d = WeightedDynkinDiagram(labels)
        if not dynkin_test(L, d, trials=trials, seed=seed):
            continue
        e = find_representative(L, d, seed=seed)
        h = characteristic_element(L, d)
        triple = complete_triple(L, h, e)
        _, buckets = _weight_layout(L, labels)
        dim_orbit = L.dim - len(buckets.get(0, ())) - len(buckets.get(1, ()))
        found.append((dim_orbit, labels, NilpotentOrbit(d, triple)))
    found.sort(key=lambda item: (item[0], item[1]))
    return [o for _, _, o in found]

