"""Per-orbit analyses: reachability, strong reachability, graded generation.

For each orbit this computes the centralizer g_e, its derived subalgebra,
whether the representative lies in the derived subalgebra (reachable),
whether the two coincide (strongly reachable), whether g(1)_e generates the
nonnegative-weight part g(>=1)_e, and the dimension and h-weights of the
quotient g_e/[g_e, g_e].

All of these are graded by ad h, and by a finer grading too: that of the
subtorus S of the maximal torus T that acts on e by scalars, the finest
grading by a subtorus in which e is homogeneous (`algebra._torus_grading`
of [e]).  Its cocharacters are the integer linear forms phi on the root
lattice that take one value on the roots of e.  The labels are one of them,
since every root of e has ad h weight 2, so the grading refines ad h; with
them, the forms that vanish on e's roots span the rest, so its blocks are
those of the subtorus that fixes e and of ad h together.  The Cartan
element h_phi with alpha(h_phi) = phi(alpha) commutes with h and maps e to
a multiple of itself, so ad h_phi, a derivation, preserves g_e, [g_e, g_e]
and the closure of g(1)_e, and each of these spaces is graded by S.  Every
layer is passed these basis weights and works weight by weight on small
blocks.  No bracket that the grading forces to zero is formed, nor one that
would only re-check that g_e is closed.  The results are the same canonical
bases as without a grading (the block lemma, see `algebra.Subspace`); the
analyses and `rigid_discrepancy_report` read them off the echelons alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import (
    LieAlgebra,
    _centralizer,
    _closure,
    _derived,
    _quotient,
    _torus_grading,
    bracket,
)
from .linalg import _Echelon
from .orbits import (
    NilpotentOrbit,
    WeightedDynkinDiagram,
    characteristic_element,
    enumerate_orbits,
)

__all__ = [
    "OrbitAnalysis",
    "analyze",
    "rigid_discrepancy_report",
]


@dataclass(frozen=True)
class OrbitAnalysis:
    """Everything the per-orbit report needs, computed exactly."""

    orbit: NilpotentOrbit
    dim_ge: int
    dim_derived: int
    reachable: bool
    strongly_reachable: bool
    panyushev_generated: bool
    dim_ce: int
    ce_weights: tuple[int, ...]


def _triple_supports(L: LieAlgebra, o: NilpotentOrbit) -> tuple[dict[int, int], tuple[int, ...]]:
    """e's integer support and the ad h weights, once (e, h, f) is checked.

    h must be the diagram's characteristic, e a vector of g(2), nonzero
    unless the diagram is, f one of g(-2), and [e, f] = h, the check of
    `orbits._triple` (ValueError otherwise).
    """
    e, h, f = o.triple.e, o.triple.h, o.triple.f
    if not e.dim == h.dim == f.dim == L.dim:
        raise ValueError("dimension mismatch")
    ad_h = L.basis_weights(o.diagram.labels)
    if h != characteristic_element(L, o.diagram):
        raise ValueError(f"h does not realize the diagram {o.diagram}")
    if (
        any(ad_h[i] != 2 for i in e._supp)
        or not (e._supp or o.diagram.is_zero())
        or any(ad_h[i] != -2 for i in f._supp)
        or bracket(L, e, f) != h
    ):
        raise ValueError(f"(e, h, f) is not an sl2-triple for the diagram {o.diagram}")
    return e._supp, ad_h


def _check_centralizer_sizes(
    ad_h: Sequence[int], ge_h: Sequence[int], d: WeightedDynkinDiagram
) -> None:
    """RuntimeError unless dim g_e(k) = dim g(k) - dim g(k+2) for every k.

    g is a sum of irreducible sl2-modules, and ker ad e holds exactly their
    highest weight vectors, one per module, of weight k >= 0.  A module of
    highest weight k meets g(k) but not g(k+2), so dim g(k) - dim g(k+2)
    modules have highest weight k, and g_e has no negative weight.  This
    checks the centralizer kernel against the graded sizes alone, and with
    it the dimension dim g(0) + dim g(1) that `classify` reports.  A block
    that `algebra._centralizer` skipped but had a kernel leaves it short.
    """
    sizes, found = Counter(ad_h), Counter(ge_h)
    if min(found, default=0) < 0 or any(
        found[k] != sizes[k] - sizes[k + 2] for k in range(max(sizes) + 1)
    ):
        raise RuntimeError(f"g_e has the wrong graded dimensions for the diagram {d}")


def _analysis(
    L: LieAlgebra, o: NilpotentOrbit
) -> tuple[OrbitAnalysis, dict[int, _Echelon], dict[int, _Echelon]]:
    """The analysis, g_e and [g_e, g_e], each as echelons by torus weight.

    Each layer works weight by weight in the torus grading of e
    (`algebra._torus_grading`, see `centralizer`) on primitive integer
    rows, one `_Echelon` per weight; no `Subspace` is built.  The rows lead
    at distinct indices (`_Echelon.store`), so the echelons' dims sum to a
    dimension, and each row's weights are its lead's (the block lemma).  [g_e, g_e] is formed
    from the brackets that fill a weight alone (`algebra._derived`): ad e
    is a derivation (the exhaustive Jacobi test), so g_e is closed.  e lies
    in [g_e, g_e] exactly when it reduces to zero in the echelon of its
    weight.  The checks are the exact block kernels, the graded sizes
    (`_check_centralizer_sizes`) and `_quotient`'s: every row of [g_e, g_e]
    reduces to zero in g_e, and c_e has no negative multiplicity.
    """
    se, ad_h = _triple_supports(L, o)
    grading = _torus_grading(L, [se])
    ge = _centralizer(L, se, grading, sl2=True)
    graded = [(r, w, ad_h[p]) for w, span in ge.items() for p, r in span.rows.items()]
    _check_centralizer_sizes(ad_h, [k for _, _, k in graded], o.diagram)
    derived = _derived(L, ge, ())
    dim_derived = sum(span.dim for span in derived.values())
    reachable = not se or not derived.get(grading[min(se)], _Echelon()).reduce(dict(se))

    cap = Counter(w for _, w, k in graded if k >= 1)  # g(>=1)_e in the torus grading
    closure = _closure(L, [(r, w) for r, w, k in graded if k == 1], cap)
    panyushev = sum(span.dim for span in closure.values()) == sum(cap.values())

    dim_ce, ce_weights = _quotient(ge, derived, ad_h)
    analysis = OrbitAnalysis(
        orbit=o,
        dim_ge=len(graded),
        dim_derived=dim_derived,
        reachable=reachable,
        strongly_reachable=dim_derived == len(graded),
        panyushev_generated=panyushev,
        dim_ce=dim_ce,
        ce_weights=ce_weights,
    )
    return analysis, ge, derived


def analyze(L: LieAlgebra, o: NilpotentOrbit) -> OrbitAnalysis:
    """Full exact report for one orbit, computed in its torus grading.

    ValueError unless its (e, h, f) is an sl2-triple for its diagram.
    """
    return _analysis(L, o)[0]


def rigid_discrepancy_report(
    L: LieAlgebra,
    rigid_flags: Mapping[tuple[int, ...], bool],
    seed: int = 1,
) -> list[tuple[WeightedDynkinDiagram, int, int]]:
    """Rigid orbits that are not strongly reachable, with their dimension pairs.

    For each reported orbit the derived subalgebra has codimension exactly 1
    in g_e and the representative spans the quotient; both facts are checked
    here and violations raise.  With codimension 1, e spans the quotient
    exactly when it lies in g_e but not in [g_e, g_e].  Both memberships are
    read off the echelons of `_analysis`: e lies outside [g_e, g_e] when the
    orbit is not reachable, and in g_e when it reduces to zero in g_e's
    echelon of its torus weight.
    """
    out = []
    for o in enumerate_orbits(L, seed=seed):
        if o.diagram.labels not in rigid_flags:
            raise ValueError(f"missing rigid flag for diagram {o.diagram}")
        if not rigid_flags[o.diagram.labels]:
            continue
        a, ge, _ = _analysis(L, o)
        if a.strongly_reachable:
            continue
        if a.dim_ge - a.dim_derived != 1:
            raise ValueError(f"codimension is not 1 for diagram {o.diagram}")
        se = o.triple.e._supp
        weight = _torus_grading(L, [se])[min(se)]
        if a.reachable or ge.get(weight, _Echelon()).reduce(dict(se)):
            raise ValueError(
                f"representative does not span the quotient for {o.diagram}"
            )
        out.append((o.diagram, a.dim_ge, a.dim_derived))
    return out
