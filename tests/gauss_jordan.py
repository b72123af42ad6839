"""Plain Gauss-Jordan elimination over Fractions: the tests' exact oracle.

It shares nothing with `exorb.linalg`: dense rows, the columns taken in
order, and each pivot row divided by its pivot as soon as it is chosen.
"""

from fractions import Fraction


def gauss_jordan(rows, cols):
    """(reduced rows, pivot columns) of the reduced row-echelon form."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        found = [i for i in range(r, len(m)) if m[i][c]]
        if not found:
            continue
        m[r], m[found[0]] = m[found[0]], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[: len(pivots)], pivots
