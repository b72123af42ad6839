"""The public layers of `exorb.algebra`, run in a grading that the test gives.

The public functions grade each call by its own input
(`algebra._torus_grading`).  These run the same private cores in any
grading of L, such as `L.basis_weights(labels)` or the trivial one, so that
a test can compare gradings and count the work done in each.
"""

from collections import Counter

from exorb.algebra import _centralizer, _closure, _derived, _read_out


def _weight(grading, v):
    (w,) = {grading[k] for k in v}  # v is homogeneous
    return w


def centralizer_in(L, a, grading):
    """`centralizer` of a homogeneous element a."""
    if a._supp:
        _weight(grading, a._supp)
    return _read_out(L, _centralizer(L, a._supp, grading))


def derived_in(L, s, grading):
    """`derived_subalgebra` of a graded subspace s, each weight with s(t) != g(t) checked."""
    span = s._echelons(grading)
    checked = {t for t, b in grading.blocks.items() if t not in span or span[t].dim < len(b)}
    return _read_out(L, _derived(L, span, checked))


def closure_in(L, gens, within, grading):
    """`subalgebra_closure` of homogeneous generators inside a graded `within` (or L)."""
    if within is None:
        cap = {w: len(b) for w, b in grading.blocks.items()}
    else:
        cap = Counter(within.row_weights(grading))
    rows = [(g._supp, _weight(grading, g._supp)) for g in gens if g._supp]
    return _read_out(L, _closure(L, rows, cap))
