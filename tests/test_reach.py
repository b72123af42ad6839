import pytest

from exorb.algebra import build_lie_algebra
from exorb.linalg import RatMatrix
from exorb.orbits import (
    NilpotentOrbit,
    WeightedDynkinDiagram,
    characteristic_element,
    complete_triple,
    enumerate_orbits,
    find_representative,
)
from exorb.reach import analyze, rigid_discrepancy_report
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
