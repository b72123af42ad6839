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

There are two elimination kernels.  The draws' matrices are dense (e has
a random coefficient on every root vector of g(2)), and `pivot_columns`
eliminates them with numpy.  The rank-greedy walk's matrices, ad e :
g(0) -> g(2) for a sum e of a few root vectors, are sparse: each column of
ad x_j has at most one nonzero, and on E8 they average about 51 nonzeros
over 29 x 38 entries.  `sparse_rank_mod` eliminates them as dict rows in
pure Python, three to five times faster on them than numpy.  It is
slower on the draws' dense matrices (on a 2-core VM the E8 draws took
0.41 s instead of 0.10 s), so those stay on numpy.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

PRIMES = (2147483629, 2147483587)


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
    return len(pivot_columns(matrix, p))


def pivot_columns(matrix: np.ndarray, p: int) -> list[int]:
    """The pivot columns of an integer matrix over the field with p elements.

    Columns are eliminated in order, so the pivots among the first k
    columns count the rank of those k columns.
    """
    m = np.mod(matrix, p).astype(np.int64, copy=False)
    nrows, ncols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = (m[r] * inv) % p
        rest = m[r + 1 :]
        factors = rest[:, c]
        nzr = np.nonzero(factors)[0]
        if nzr.size:
            rest[nzr] = (rest[nzr] - np.outer(factors[nzr], m[r])) % p
        pivots.append(c)
        r += 1
    return pivots


def sparse_rank_mod(rows: Iterable[Mapping[int, int]], p: int) -> int:
    """Rank over the field with p elements of a matrix given by sparse rows.

    Each row maps column keys to integer entries, missing ones being 0.  A
    row is reduced by the pivot row of its leading (least) column until it
    is zero or leads at a new column, where it becomes the pivot row.  Rows
    are taken shortest first, which keeps the pivot rows short; the rows
    passed in are not modified.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in sorted(rows, key=len):
        r = {c: x % p for c, x in row.items() if x % p}
        while r:
            lead = min(r)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: x * inv % p for c, x in r.items()}
                break
            f = r[lead]
            for c, x in pivot.items():
                y = (r.get(c, 0) - f * x) % p
                if y:
                    r[c] = y
                else:
                    r.pop(c, None)
    return len(pivots)


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
