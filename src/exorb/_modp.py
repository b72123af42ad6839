"""Integer rank certificates modulo large primes.

A rank computed mod p never exceeds the rational rank, so reaching the
maximum possible rank is an exact proof of full rank.  The same bound makes
one rank an exact proof of insolubility: for A x = b with n unknowns,
rank_Q [A | b] >= rank_p [A | b] > n >= rank_Q A means b is not in the
column space of A over Q.  The diagram test rejects most label vectors
that pass its size filters this way, with A = ad e : g(-2) -> g(0) and
b = h.  That one rank also certifies its draw: rank_p [A | b] > n needs
rank_p A = n, so A has full rank over Q.  The Killing form pairs g(k) with
g(-k) nondegenerately and makes ad e skew-adjoint, kappa([e, y], x) =
-kappa(y, [e, x]), so ad e : g(0) -> g(2) has the same rank and is onto.
Failing to reach a rank proves nothing and only discards a random draw:
the diagram test draws again.
The one verdict that rests on these failures is the diagram test's
rejection when none of its `trials` draws passes the surjectivity
certificate; two independent 31-bit primes make a spurious failure
astronomically unlikely, and the classification sweep is cross-checked
against reference tables anyway.
"""

from __future__ import annotations

import numpy as np

PRIMES = (2147483629, 2147483587)


def rank_mod(matrix: np.ndarray, p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
    m = np.mod(matrix, p).astype(np.int64, copy=True)
    nrows, ncols = m.shape
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
        r += 1
    return r


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
