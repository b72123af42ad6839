"""Integer rank certificates modulo large primes.

A rank computed mod p never exceeds the rational rank, so reaching the
maximum possible rank is an exact proof of full rank.  The same bound makes
one rank an exact proof of insolubility: for A x = b with n unknowns,
rank_Q [A | b] >= rank_p [A | b] > n >= rank_Q A means b is not in the
column space of A over Q.  The diagram test rejects most label vectors
that pass its size filters this way, with A = ad e : g(-2) -> g(0) and
b = h.  The same elimination certifies its draw: columns are eliminated in
order, so the pivots among A's n columns give rank_p A, and rank_p A = n
proves that A has full rank over Q.  The Killing form pairs g(k) with
g(-k) nondegenerately and makes ad e skew-adjoint, kappa([e, y], x) =
-kappa(y, [e, x]), so ad e : g(0) -> g(2) has the same rank and is onto.
Failing to reach a rank proves nothing and only discards a random draw:
the diagram test draws again, and when none of its `trials` draws reaches
the rank it raises instead of deciding, so no verdict rests on a failure.

The draws' matrices are dense (e has a random coefficient on every root
vector of g(2), and the search scatters them from integer index arrays of
the structure constants), and `pivot_columns` eliminates their transpose
with numpy, one contiguous row per column and one update per pivot.  It is the
one kernel the search runs mod p: the rank-greedy walk's sparse matrices
and the exact triple solves are eliminated over Q by `linalg._Echelon`.
`rank_mod` and `has_full_rank` remain only for the benchmark's tracer.
"""

from __future__ import annotations

import numpy as np

PRIMES = (2147483629, 2147483587)


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
    return len(pivot_columns(matrix, p))


def pivot_columns(matrix: np.ndarray, p: int) -> list[int]:
    """The pivot columns of an integer matrix over the field with p elements.

    Columns are eliminated in order, as the contiguous rows of the
    transpose, so the pivots among the first k columns count the rank of
    those k columns.
    """
    t = np.ascontiguousarray(np.mod(matrix, p).T, dtype=np.int64)
    pivots: list[int] = []
    for c in range(t.shape[0]):
        if len(pivots) == t.shape[1]:
            break
        col = t[c]
        nz = np.flatnonzero(col)
        if not nz.size:
            continue
        i = nz[0]
        # One update clears entry i of the later columns; entries below
        # p < 2^31 keep the products inside int64.
        rest = t[c + 1 :]
        rest -= np.multiply.outer(rest[:, i] * pow(int(col[i]), -1, p) % p, col)
        rest %= p
        pivots.append(c)
    return pivots


# Only the benchmark's tracer still names this; the diagram search does not call it.
def has_full_rank(matrix: np.ndarray, target: int) -> bool:
    """True iff the rational rank provably equals `target` (the maximum)."""
    if target == 0:
        return True
    if matrix.shape[0] < target or matrix.shape[1] < target:
        return False
    for p in PRIMES:
        if rank_mod(matrix, p) == target:
            return True
    return False
