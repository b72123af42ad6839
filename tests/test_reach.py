import hashlib
import json

import pytest

from exorb import orbits as orbits_module
from exorb.algebra import (
    Subspace,
    _closure,
    build_lie_algebra,
    centralizer,
    derived_subalgebra,
    quotient_with_action,
)
from exorb.linalg import RatMatrix
from exorb.orbits import (
    NilpotentOrbit,
    WeightedDynkinDiagram,
    characteristic_element,
    complete_triple,
    enumerate_orbits,
    find_representative,
)
from exorb.reach import (
    OrbitAnalysis,
    _analyze_full,
    _torus_weights,
    analyze,
    rigid_discrepancy_report,
)
from exorb.refdata import load_tables

# diagram -> (dim_ge, dim_derived, reachable, strong, dim_ce, weights)
G2_EXPECTED = {
    (0, 1): (8, 8, True, True, 0, ()),
    (1, 0): (6, 5, False, False, 1, (2,)),
    (0, 2): (4, 1, False, False, 3, (2, 2, 2)),
    (2, 2): (2, 0, False, False, 2, (2, 10)),
}


def test_g2_full_analysis():
    L = build_lie_algebra("G2")
    for o in enumerate_orbits(L):
        a = analyze(L, o)
        ge, der, reach, strong, ce, weights = G2_EXPECTED[o.diagram.labels]
        assert a.dim_ge == ge
        assert a.dim_derived == der
        assert a.reachable == reach
        assert a.strongly_reachable == strong
        assert a.dim_ce == ce
        assert a.ce_weights == weights
        assert a.panyushev_generated == a.reachable
        assert a.dim_ce == a.dim_ge - a.dim_derived
        assert len(a.ce_weights) == a.dim_ce
        assert all(w >= 0 for w in a.ce_weights)


def test_f4_spot_values():
    L = build_lie_algebra("F4")
    by_diagram = {o.diagram.labels: o for o in enumerate_orbits(L)}
    a = analyze(L, by_diagram[(0, 1, 0, 1)])
    assert (a.dim_ge, a.dim_derived) == (16, 15)
    assert not a.reachable
    b = analyze(L, by_diagram[(0, 2, 0, 0)])
    assert b.dim_ce == 6 and b.ce_weights == (2,) * 6


def test_rigid_discrepancy_reports():
    tables = load_tables()
    G2 = build_lie_algebra("G2")
    report = rigid_discrepancy_report(G2, tables.rigid_flags("G2"))
    assert [(d.labels, ge, der) for d, ge, der in report] == [((1, 0), 6, 5)]
    F4 = build_lie_algebra("F4")
    report = rigid_discrepancy_report(F4, tables.rigid_flags("F4"))
    assert [(d.labels, ge, der) for d, ge, der in report] == [
        ((0, 1, 0, 1), 16, 15)
    ]


def test_rigid_report_requires_complete_flags():
    L = build_lie_algebra("G2")
    with pytest.raises(ValueError):
        rigid_discrepancy_report(L, {(0, 1): True})


def test_weight_one_piece_brackets_back_onto_itself():
    # [g(0)_e, g(1)_e] = g(1)_e for every nilpotent representative
    from exorb.algebra import Subspace, bracket, centralizer

    L = build_lie_algebra("F4")
    for o in enumerate_orbits(L):
        weights = L.basis_weights(o.diagram.labels)
        ge = centralizer(L, o.triple.e)
        rows: dict[int, list] = {}
        for row, w in zip(ge.basis.data, ge.row_weights(weights)):
            rows.setdefault(w, []).append(row)
        if 1 not in rows:
            continue
        g1 = Subspace.from_rows(L, rows[1])
        g0 = Subspace.from_rows(L, rows[0]) if 0 in rows else None
        if g0 is None:
            continue
        images = []
        for a in g0.basis_elements():
            for b in g1.basis_elements():
                img = bracket(L, a, b)
                if not img.is_zero():
                    assert g1.contains(img)
                    images.append(img.coeffs)
        span = Subspace.from_rows(L, images) if images else Subspace.zero(L)
        assert span.dim == g1.dim


def test_analyses_from_two_threads_match_the_serial_ones():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    L = build_lie_algebra("F4")
    orbits = enumerate_orbits(L)
    serial = [analyze(L, o) for o in orbits]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(lambda o: analyze(L, o), orbits, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert len(threaded) == 15
    assert threaded == serial


def test_analyze_builds_no_dense_matrix(monkeypatch):
    F4 = build_lie_algebra("F4")
    orbits = [(F4, o) for o in enumerate_orbits(F4)]
    L = build_lie_algebra("E6")
    d = WeightedDynkinDiagram(load_tables().by_label("E6", "2A2+A1").diagram)
    triple = complete_triple(L, characteristic_element(L, d), find_representative(L, d))
    orbits.append((L, NilpotentOrbit(d, triple)))

    built = []
    init = RatMatrix.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatMatrix, "__init__", counting_init)
    RatMatrix([[1]])
    assert len(built) == 1  # the count sees every construction
    built.clear()
    for L, o in orbits:
        analyze(L, o)
    assert len(orbits) == 16 and built == []


def _layers(L, o, weights):
    """g_e, [g_e, g_e], g(>=1)_e and the closure of g_e(1), run in `weights`.

    g(>=1)_e and g_e(1) are chosen by the ad h weights, as in the analyses.
    """
    ge = centralizer(L, o.triple.e, weights)
    derived = derived_subalgebra(L, ge, weights)
    hweights = L.basis_weights(o.diagram.labels)
    graded = list(zip(ge._row_at.values(), ge.row_weights(hweights)))
    upper = Subspace(L, [r for r, w in graded if w >= 1])
    closure = _closure(L, [r for r, w in graded if w == 1], upper, weights)
    return ge, derived, upper, closure


def _assert_torus_grading_changes_nothing(L, o):
    """The layers and `_analyze_full` in the torus grading equal the ad h ones."""
    torus = _torus_weights(L, o.triple.e, o.diagram.labels)
    adh = L.basis_weights(o.diagram.labels)
    ge, derived, upper, closure = layers = _layers(L, o, adh)
    assert _layers(L, o, torus) == layers
    dim_ce, ce_weights = quotient_with_action(L, ge, derived, o.triple.h)
    analysis = OrbitAnalysis(
        orbit=o,
        dim_ge=ge.dim,
        dim_derived=derived.dim,
        reachable=derived.contains(o.triple.e),
        strongly_reachable=derived.dim == ge.dim,
        panyushev_generated=closure.dim == upper.dim,
        dim_ce=dim_ce,
        ce_weights=ce_weights,
    )
    assert _analyze_full(L, o) == (analysis, ge, derived)
    return torus, adh


def test_torus_graded_analyses_equal_the_ad_h_graded_ones():
    cases = []
    for name in ("G2", "F4"):
        L = build_lie_algebra(name)
        cases += [(L, o) for o in enumerate_orbits(L)]
    L = build_lie_algebra("E6")
    for label in ("A1", "2A2+A1", "D4(a1)", "E6"):
        d = WeightedDynkinDiagram(load_tables().by_label("E6", label).diagram)
        triple = complete_triple(L, characteristic_element(L, d), find_representative(L, d))
        cases.append((L, NilpotentOrbit(d, triple)))
    finer = 0
    for L, o in cases:
        torus, adh = _assert_torus_grading_changes_nothing(L, o)
        finer += len(set(torus)) > len(set(adh))
    assert len(cases) == 4 + 15 + 4 and finer > 0


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8"])
def test_zero_orbit_is_analysed_in_the_root_grading(name):
    L = build_lie_algebra(name)
    d = WeightedDynkinDiagram((0,) * L.rank)
    o = NilpotentOrbit(d, complete_triple(L, characteristic_element(L, d), L.zero()))
    torus, _ = _assert_torus_grading_changes_nothing(L, o)
    roots = torus[: 2 * L.npos]
    assert len(set(roots)) == len(roots) and 0 not in roots
    a = analyze(L, o)
    assert a.dim_ge == a.dim_derived == L.dim and a.strongly_reachable


def test_dense_fallback_analyses_equal_the_ad_h_graded_ones(monkeypatch):
    # Without restarts the walk gives up at once and every F4 orbit takes
    # the decisive draw, dense over g(2), as its representative; its roots
    # may span the root lattice, leaving only the ad h grading.
    monkeypatch.setattr(orbits_module, "RESTART_BUDGET", 0)
    L = build_lie_algebra("F4")
    coarse = 0
    for o in enumerate_orbits(L):
        torus, adh = _assert_torus_grading_changes_nothing(L, o)
        coarse += len(set(torus)) == len(set(adh))
    assert coarse > 0


# First 16 hex digits of the sha256 of every orbit's labels, the canonical
# rows of g_e and of [g_e, g_e], and its analysis.
ANALYSIS_DIGESTS = {
    ("G2", 1): "ad5649602e27c682",
    ("F4", 1): "095c2423cd471b80",
    ("E6", 1): "8e6a04f804d907ae",
    ("E7", 1): "fa98d52b132a4fc8",
    ("E8", 1): "81a8361423d68dbd",
}


@pytest.mark.parametrize("name, seed", sorted(ANALYSIS_DIGESTS))
def test_analysis_output_is_pinned(name, seed):
    # Any change to the echelon arithmetic or to the brackets formed that
    # changed a canonical basis, or a bit of an analysis, changes the digest.
    def rows(s):
        return [[[k, str(x)] for k, x in sorted(r.items())] for r in s._row_at.values()]

    L = build_lie_algebra(name)
    out = []
    for o in enumerate_orbits(L, seed=seed):
        a, ge, derived = _analyze_full(L, o)
        flags = [a.dim_ge, a.dim_derived, a.reachable, a.strongly_reachable]
        flags += [a.panyushev_generated, a.dim_ce, list(a.ce_weights)]
        out.append([list(o.diagram.labels), rows(ge), rows(derived), flags])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]
    assert digest == ANALYSIS_DIGESTS[name, seed]


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7"])
def test_torus_blocks_are_those_of_the_exact_digits(name):
    # Two basis weights are equal exactly when their digits (labels, phi_1,
    # ..., phi_m) are, and a sum of two weights is a weight exactly when
    # the sum of their digits is some basis vector's digits: the blocks
    # that a base above 4 times the exact largest digit gives.
    from exorb.linalg import _null_space, _scaled_support
    from exorb.orbits import orbit

    L = build_lie_algebra(name)
    zero = orbit(L, WeightedDynkinDiagram((0,) * L.rank))
    for o in [zero, *enumerate_orbits(L)]:
        e, labels = o.triple.e, o.diagram.labels
        support = [dict(enumerate(L._root_of_index[i])) for i in e.support() if i < L._hbase]
        phis = [labels]
        for v in _null_space(support, L.rank):
            phi = _scaled_support(v)[0]
            phis.append([phi.get(i, 0) for i in range(L.rank)])
        digits = list(zip(*(L.basis_weights(phi) for phi in phis)))
        weights = _torus_weights(L, e, labels)
        assert len(set(zip(weights, digits))) == len(set(weights)) == len(set(digits))
        folded = dict(zip(weights, digits))
        present = set(digits)
        for a, da in folded.items():
            for b, db in folded.items():
                total = tuple(x + y for x, y in zip(da, db))
                assert folded.get(a + b) == (total if total in present else None)


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_quotient_with_action_is_the_analysis_quotient(name):
    L = build_lie_algebra(name)
    for o in enumerate_orbits(L):
        a, ge, derived = _analyze_full(L, o)
        assert quotient_with_action(L, ge, derived, o.triple.h) == (a.dim_ce, a.ce_weights)
