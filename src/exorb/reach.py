"""Per-orbit analyses: reachability, strong reachability, graded generation.

For each orbit this computes the centralizer g_e, its derived subalgebra,
whether the representative lies in the derived subalgebra (reachable),
whether the two coincide (strongly reachable), whether g(1)_e generates the
nonnegative-weight part g(>=1)_e, and the dimension and h-weights of the
quotient g_e/[g_e, g_e].

All of these are graded by ad h, and every layer is passed the diagram's
basis weights, so it works weight by weight on small blocks; the results
are the same canonical bases as without a grading (the block lemma, see
`algebra.Subspace`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebra import (
    LieAlgebra,
    Subspace,
    _closure,
    centralizer,
    derived_subalgebra,
    quotient_with_action,
)
from .orbits import NilpotentOrbit, WeightedDynkinDiagram, enumerate_orbits

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


def _analyze_full(
    L: LieAlgebra, o: NilpotentOrbit
) -> tuple[OrbitAnalysis, Subspace, Subspace]:
    """The analysis, g_e and [g_e, g_e], all computed in the ad h grading.

    e has ad h-weight 2, so every space here is graded by the basis weights
    of the diagram and each layer works weight by weight (see
    `centralizer`).  By the block lemma the canonical rows of g_e are
    homogeneous, so g(>=1)_e and g_e(1) are read off them as they stand.
    """
    e, h = o.triple.e, o.triple.h
    labels = o.diagram.labels
    if L.cartan_values(h) != labels:
        raise ValueError(f"h does not realize the diagram {o.diagram}")
    weights = L.basis_weights(labels)
    ge = centralizer(L, e, weights)
    derived = derived_subalgebra(L, ge, weights)
    reachable = derived.contains(e)
    strongly = derived.dim == ge.dim

    graded = list(zip(ge._row_at.values(), ge.row_weights(weights)))
    upper = Subspace(L, [r for r, w in graded if w >= 1])
    closure = _closure(L, [r for r, w in graded if w == 1], upper, weights)
    panyushev = closure.dim == upper.dim

    dim_ce, ce_weights = quotient_with_action(L, ge, derived, h)
    analysis = OrbitAnalysis(
        orbit=o,
        dim_ge=ge.dim,
        dim_derived=derived.dim,
        reachable=reachable,
        strongly_reachable=strongly,
        panyushev_generated=panyushev,
        dim_ce=dim_ce,
        ce_weights=ce_weights,
    )
    return analysis, ge, derived


def analyze(L: LieAlgebra, o: NilpotentOrbit) -> OrbitAnalysis:
    """Full exact report for one orbit, computed in its ad h grading."""
    return _analyze_full(L, o)[0]


def rigid_discrepancy_report(
    L: LieAlgebra,
    rigid_flags: Mapping[tuple[int, ...], bool],
    seed: int = 1,
) -> list[tuple[WeightedDynkinDiagram, int, int]]:
    """Rigid orbits that are not strongly reachable, with their dimension pairs.

    For each reported orbit the derived subalgebra has codimension exactly 1
    in g_e and the representative spans the quotient; both facts are checked
    here and violations raise.  With codimension 1, e spans the quotient
    exactly when it lies in g_e but not in [g_e, g_e].
    """
    out = []
    for o in enumerate_orbits(L, seed=seed):
        if o.diagram.labels not in rigid_flags:
            raise ValueError(f"missing rigid flag for diagram {o.diagram}")
        if not rigid_flags[o.diagram.labels]:
            continue
        a, ge, derived = _analyze_full(L, o)
        if a.strongly_reachable:
            continue
        if a.dim_ge - a.dim_derived != 1:
            raise ValueError(f"codimension is not 1 for diagram {o.diagram}")
        if derived.contains(o.triple.e) or not ge.contains(o.triple.e):
            raise ValueError(
                f"representative does not span the quotient for {o.diagram}"
            )
        out.append((o.diagram, a.dim_ge, a.dim_derived))
    return out
