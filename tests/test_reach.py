import hashlib
import json
from collections import Counter, defaultdict
from dataclasses import replace
from fractions import Fraction

import pytest

from exorb import orbits as orbits_module
from exorb.algebra import (
    Element,
    Subspace,
    _torus_grading,
    bracket,
    build_lie_algebra,
    centralizer,
    derived_subalgebra,
    quotient_with_action,
)
from exorb.linalg import RatMatrix, _Echelon, _echelon, rank
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
    analyze,
    rigid_discrepancy_report,
)
from exorb.refdata import load_tables
from gauss_jordan import gauss_jordan
from in_grading import analyze_full, centralizer_in, closure_in, derived_in

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


@pytest.mark.parametrize(
    "name, expected",
    [
        ("E7", [((1, 0, 0, 1, 0, 0, 0), 41, 40)]),
        (
            "E8",
            [
                ((0, 0, 0, 0, 0, 1, 0, 1), 84, 83),
                ((0, 0, 1, 0, 0, 1, 0, 1), 46, 45),
                ((1, 0, 0, 1, 0, 0, 0, 1), 46, 45),
            ],
        ),
    ],
)
def test_rigid_discrepancy_reports_of_e7_and_e8(name, expected):
    L = build_lie_algebra(name)
    report = rigid_discrepancy_report(L, load_tables().rigid_flags(name))
    assert [(d.labels, ge, der) for d, ge, der in report] == expected


def _g2_minimal_rigid():
    """G2, its minimal orbit (1, 0), the report's one orbit, flagged alone, and
    the torus weight of e."""
    L, by_diagram = _g2_orbits()
    o = by_diagram[1, 0]
    flags = {labels: labels == (1, 0) for labels in load_tables().rigid_flags("G2")}
    se = o.triple.e._supp
    return L, flags, se, _torus_grading(L, [se])[min(se)]


def test_the_rigid_report_refuses_e_in_the_derived_echelon(monkeypatch):
    # `_derived` gives echelons in which e lies in [g_e, g_e] and another row
    # is missing, so that the codimension stays 1; `_analysis` reads the orbit
    # as reachable off them, and the report refuses it.
    import exorb.reach

    L, flags, se, w = _g2_minimal_rigid()
    assert [(d.labels, ge, der) for d, ge, der in rigid_discrepancy_report(L, flags)] == [
        ((1, 0), 6, 5)
    ]
    real = exorb.reach._derived

    def with_e(L, s, checked):
        acc = real(L, s, checked)
        acc[w].store(acc[w].reduce(dict(se)))
        t = next(t for t, span in acc.items() if t != w and span.dim)
        acc[t] = _echelon(list(acc[t].rows.values())[1:])
        return acc

    monkeypatch.setattr(exorb.reach, "_derived", with_e)
    with pytest.raises(ValueError, match="representative does not span the quotient"):
        rigid_discrepancy_report(L, flags)


def test_the_rigid_report_refuses_e_outside_the_centralizer_echelon(monkeypatch):
    # g_e's echelon of e's weight is replaced by that of [g_e, g_e], which
    # lacks e: the report reads e outside g_e and refuses the orbit.
    import exorb.reach

    L, flags, se, w = _g2_minimal_rigid()
    real = exorb.reach._analysis

    def without_e(L, o):
        a, ge, derived = real(L, o)
        assert not ge[w].reduce(dict(se)) and derived[w].reduce(dict(se))
        return a, {**ge, w: derived.get(w, _Echelon())}, derived

    monkeypatch.setattr(exorb.reach, "_analysis", without_e)
    with pytest.raises(ValueError, match="representative does not span the quotient"):
        rigid_discrepancy_report(L, flags)


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
    ge = centralizer_in(L, o.triple.e, weights)
    derived = derived_in(L, ge, weights)
    hweights = L.basis_weights(o.diagram.labels)
    graded = list(zip(ge._row_at.values(), ge.row_weights(hweights)))
    upper = Subspace(L, [r for r, w in graded if w >= 1])
    closure = closure_in(L, [L.element(r) for r, w in graded if w == 1], upper, weights)
    return ge, derived, upper, closure


def _assert_torus_grading_changes_nothing(L, o):
    """The layers and `analyze_full` in the torus grading equal the ad h ones."""
    torus = _torus_grading(L, [o.triple.e._supp])
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
    assert analyze_full(L, o) == (analysis, ge, derived)
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


# The seven E7 orbits that the `analyze-e7` benchmark analyses.
E7_ANALYZED = (
    (1, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 1),
    (0, 2, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 2, 0),
    (0, 0, 2, 0, 0, 0, 0),
    (0, 0, 0, 2, 0, 0, 2),
    (2, 2, 2, 2, 2, 2, 2),
)


def _analyzed_cases():
    """Every G2, F4 and E6 orbit and the seven `E7_ANALYZED` ones, at seed 1."""
    cases = []
    for name in ("G2", "F4", "E6"):
        L = build_lie_algebra(name)
        cases += [(L, o) for o in enumerate_orbits(L, seed=1)]
    return cases + _e7_analyzed_cases()


def _e7_analyzed_cases():
    """The seven `E7_ANALYZED` orbits, their triples built as the benchmark does."""
    L = build_lie_algebra("E7")
    cases = []
    for labels in E7_ANALYZED:
        d = WeightedDynkinDiagram(labels)
        e = find_representative(L, d, seed=1)
        cases.append((L, NilpotentOrbit(d, complete_triple(L, characteristic_element(L, d), e))))
    return cases


def test_the_analyses_form_only_the_brackets_that_fill_a_weight(monkeypatch):
    # The analyses take [g_e, g_e] from `algebra._derived` on the echelons
    # of `algebra._centralizer`, with no weight checked: it forms a bracket
    # of weight t only while the span of weight t falls short of g_e(t),
    # none where g_e has no row, and its echelons read out the subspace
    # that the checked layer (`derived_in`) gives in the ad h grading and in
    # the torus grading, and that the public function gives.
    import exorb.algebra as algebra

    kernel, formed = algebra._bracket_supp, []

    def recording(adj, a, b):
        v = kernel(adj, a, b)
        formed.append((grading[min(a)] + grading[min(b)], v))
        return v

    def span_dim(vectors):
        return rank(RatMatrix([[v.get(k, 0) for k in range(L.dim)] for v in vectors], L.dim))

    # the cases first: their triples are checked by `bracket`, which calls the kernel
    cases = _analyzed_cases()
    monkeypatch.setattr(algebra, "_bracket_supp", recording)
    e7 = Counter()
    for L, o in cases:
        e, labels = o.triple.e, o.diagram.labels
        ge = centralizer(L, e)
        for torus, grading in enumerate((L.basis_weights(labels), _torus_grading(L, [e._supp]))):
            formed.clear()
            checked = derived_in(L, ge, grading)
            n_checked = len(formed)
            span = algebra._centralizer(L, e._supp, grading, sl2=True)
            assert algebra._read_out(L, span) == ge
            formed.clear()
            private = algebra._read_out(L, algebra._derived(L, span, ()))
            assert private == checked
            assert private.row_weights(grading) == checked.row_weights(grading)
            cap, into = Counter(ge.row_weights(grading)), defaultdict(list)
            for t, v in formed:
                into[t].append(v)
            for t, images in into.items():
                assert cap[t] > 0 and span_dim(images[:-1]) < cap[t]
            assert len(formed) <= n_checked
            if L.rank == 7 and torus:
                e7.update(private=len(formed), checked=n_checked)
        assert derived_subalgebra(L, ge) == private
    assert e7 == {"private": 664, "checked": 1525}


def test_analyze_reads_derived_results_off_the_echelons(monkeypatch):
    # `analyze` takes dim [g_e, g_e], reachability and c_e from the echelons
    # of `_derived`: it builds no `Subspace` and reads no canonical g_e or
    # [g_e, g_e] out.  Its results are those of the canonical subspaces that
    # `analyze_full` reads out, through the public quotient and membership.
    import exorb.algebra

    cases, expected = _analyzed_cases(), []
    for L, o in cases:
        a, ge, derived = analyze_full(L, o)
        assert a.dim_derived == derived.dim
        assert a.reachable == derived.contains(o.triple.e)
        assert a.strongly_reachable == (derived.dim == ge.dim)
        assert quotient_with_action(L, ge, derived, o.triple.h) == (a.dim_ce, a.ce_weights)
        expected.append(a)
    flags = {(a.reachable, a.strongly_reachable) for a in expected}
    assert {(False, False), (True, True)} <= flags

    built = []
    init = Subspace.__init__

    def recording_init(self, *args):
        init(self, *args)
        built.append(self)

    def no_read_out(*args):
        raise AssertionError("[g_e, g_e] read out")

    monkeypatch.setattr(Subspace, "__init__", recording_init)
    monkeypatch.setattr(exorb.algebra, "_read_out", no_read_out)
    for (L, o), a in zip(cases, expected):
        built.clear()
        assert analyze(L, o) == a
        assert built == []
    assert len(cases) == 4 + 15 + 20 + 7


def test_analyze_makes_no_fraction_and_builds_no_subspace(monkeypatch):
    # Every layer of an analysis works on primitive integer rows, and none
    # is divided by its pivot: on every F4 orbit and the seven
    # `E7_ANALYZED` ones, `analyze` constructs no `Fraction` and no
    # `Subspace`.  The count sees both when they are made.
    from fractions import Fraction

    F4 = build_lie_algebra("F4")
    cases = [(F4, o) for o in enumerate_orbits(F4)] + _e7_analyzed_cases()
    expected = [analyze(L, o) for L, o in cases]
    made = []
    new, init = Fraction.__new__, Subspace.__init__

    def counting_new(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    def counting_init(self, *args):
        made.append(type(self))
        init(self, *args)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    if hasattr(Fraction, "_from_coprime_ints"):  # where Python 3.12+ makes arithmetic results
        coprime = Fraction._from_coprime_ints.__func__
        monkeypatch.setattr(
            Fraction, "_from_coprime_ints", classmethod(lambda *a: made.append(a[0]) or coprime(*a))
        )
    monkeypatch.setattr(Subspace, "__init__", counting_init)
    Fraction(1, 2) + 1
    Subspace.zero(F4)
    assert made == [Fraction, Fraction, Subspace]
    made.clear()
    assert [analyze(L, o) for L, o in cases] == expected
    assert made == [] and len(cases) == 15 + 7


def test_the_containment_of_derived_in_ge_is_checked(monkeypatch):
    # `_quotient` checks that every row of t lies in s: the public function
    # on its canonical rows, `analyze` on the rows of `_derived`'s echelons.
    import exorb.reach

    L, by_diagram = _g2_orbits()
    o = by_diagram[1, 0]
    _, ge, derived = analyze_full(L, o)
    assert derived.dim < ge.dim
    with pytest.raises(ValueError, match="t is not contained in s"):
        quotient_with_action(L, derived, ge, o.triple.h)

    real = exorb.reach._derived
    grading = _torus_grading(L, [o.triple.e._supp])

    def with_a_row_outside(L, s, checked):
        acc = real(L, s, checked)
        leads = {p for span in acc.values() for p in span.rows}
        i = next(
            i
            for i in range(L.dim)
            if i not in leads and not ge.contains(L.basis_element(i)) and grading[i] in s
        )
        acc[grading[i]].store({i: 1})
        return acc

    monkeypatch.setattr(exorb.reach, "_derived", with_a_row_outside)
    with pytest.raises(ValueError, match="t is not contained in s"):
        analyze(L, o)


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
        a, ge, derived = analyze_full(L, o)
        flags = [a.dim_ge, a.dim_derived, a.reachable, a.strongly_reachable]
        flags += [a.panyushev_generated, a.dim_ce, list(a.ce_weights)]
        out.append([list(o.diagram.labels), rows(ge), rows(derived), flags])
    digest = hashlib.sha256(json.dumps(out).encode()).hexdigest()[:16]
    assert digest == ANALYSIS_DIGESTS[name, seed]


# The nonzero orbits of the 15 types whose analyses are compared across
# changes, 317 in all.
ORBIT_COUNTS = {
    "A2": 2, "A5": 10, "A8": 29, "B4": 12, "B5": 20, "C4": 13, "C5": 23, "D4": 11,
    "D5": 15, "D6": 30, "G2": 4, "F4": 15, "E6": 20, "E7": 44, "E8": 69,
}


def _annihilator(vectors, n):
    """A basis of the rational null space of vectors of length n, by `gauss_jordan`."""
    reduced, pivots = gauss_jordan(vectors, n)
    out = []
    for f in sorted(set(range(n)) - set(pivots)):
        v = [Fraction(int(j == f)) for j in range(n)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        out.append(v)
    return out


@pytest.mark.parametrize("name", sorted(ORBIT_COUNTS))
def test_torus_blocks_are_those_of_the_exact_digits(name):
    # For every orbit and the zero orbit, `_torus_grading` of [e] refines
    # ad h, and two basis vectors share a weight exactly when they share
    # the digits (labels, phi_1, ..., phi_m), for phi_1..phi_m a basis of
    # the annihilator of e's roots; and a sum of two weights is a weight
    # exactly when the sum of their digits is some basis vector's digits:
    # the blocks that a base above 4 times the exact largest digit gives.
    # The sums are checked below rank 8, where the pairs of blocks are few.
    from exorb.orbits import orbit

    L = build_lie_algebra(name)
    found = enumerate_orbits(L)
    assert len(found) == ORBIT_COUNTS[name]
    for o in [orbit(L, WeightedDynkinDiagram((0,) * L.rank)), *found]:
        e, labels = o.triple.e, o.diagram.labels
        phis = [labels, *_annihilator([L.rs.roots[i] for i in e.support()], L.rank)]
        digits = [tuple(sum(x * m for x, m in zip(phi, a)) for phi in phis) for a in L.rs.roots]
        digits += [(0,) * len(phis)] * L.rank
        weights = _torus_grading(L, [e._supp])
        assert len(set(zip(weights, L.basis_weights(labels)))) == len(set(weights))
        assert len(set(zip(weights, digits))) == len(set(weights)) == len(set(digits))
        if L.rank == 8:
            continue
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
        a, ge, derived = analyze_full(L, o)
        assert quotient_with_action(L, ge, derived, o.triple.h) == (a.dim_ce, a.ce_weights)


def _g2_orbits():
    L = build_lie_algebra("G2")
    return L, {o.diagram.labels: o for o in enumerate_orbits(L)}


def test_analyze_refuses_what_is_not_an_sl2_triple_for_the_diagram():
    from exorb.orbits import Sl2Triple

    L, by_diagram = _g2_orbits()
    o = by_diagram[0, 1]
    e, h, f = o.triple.e, o.triple.h, o.triple.f
    other = by_diagram[1, 0].triple
    zero = L.zero()
    wrong = {
        "another orbit's e": (other.e, h, f),
        "e = 0": (zero, h, f),
        "another orbit's h": (e, other.h, f),
        "f outside g(-2)": (e, h, f + h),
        "[e, f] = 2h": (e, h, 2 * f),
        "a triple of another algebra": tuple(build_lie_algebra("F4").zero() for _ in range(3)),
    }
    for name, (e1, h1, f1) in wrong.items():
        with pytest.raises(ValueError):
            analyze(L, NilpotentOrbit(o.diagram, Sl2Triple(e1, h1, f1)))
    d0 = WeightedDynkinDiagram((0, 0))
    with pytest.raises(ValueError):
        analyze(L, NilpotentOrbit(d0, Sl2Triple(e, zero, zero)))
    assert analyze(L, NilpotentOrbit(d0, Sl2Triple(zero, zero, zero))).dim_ge == L.dim
    assert analyze(L, o).dim_ge == G2_EXPECTED[0, 1][0]


def test_analyze_reads_each_piece_of_data_once(monkeypatch):
    # One analysis converts no `Subspace` row back with `_scaled_support`,
    # forms the weights of no canonical row twice in one grading, forms the
    # basis weights of two gradings (torus and ad h) and reads the dense
    # coefficients of e, h and f once each.
    import exorb.algebra
    import exorb.reach
    from exorb.orbits import Sl2Triple

    subspaces, scaled, formed, basis_weights = [], [], Counter(), []
    reads = Counter()

    init = Subspace.__init__

    def recording_init(self, *args):
        init(self, *args)
        subspaces.append(self)

    def recording_scaled(kernel):
        def wrapper(coeffs):
            scaled.append(coeffs)
            return kernel(coeffs)

        return wrapper

    row_weights = Subspace.row_weights

    def counting_row_weights(self, weights):
        for row in self._row_at.values():
            formed[frozenset(row.items()), id(weights)] += 1
        return row_weights(self, weights)

    bw = exorb.algebra.LieAlgebra.basis_weights

    def counting_basis_weights(L, labels):
        basis_weights.append(labels)
        return bw(L, labels)

    class Reads(tuple):
        def __iter__(self):
            reads[self.name] += 1
            return super().__iter__()

        def __getitem__(self, i):
            reads[self.name] += 1
            return super().__getitem__(i)

    def read_once(name, elt):
        coeffs = Reads(elt.coeffs)
        coeffs.name = name
        return Element(coeffs)

    monkeypatch.setattr(Subspace, "__init__", recording_init)
    monkeypatch.setattr(Subspace, "row_weights", counting_row_weights)
    monkeypatch.setattr(exorb.algebra.LieAlgebra, "basis_weights", counting_basis_weights)
    for module in (exorb.algebra, exorb.linalg):
        monkeypatch.setattr(module, "_scaled_support", recording_scaled(module._scaled_support))

    L = build_lie_algebra("E6")
    d = WeightedDynkinDiagram(load_tables().by_label("E6", "2A2+A1").diagram)
    triple = complete_triple(L, characteristic_element(L, d), find_representative(L, d))
    cases = [(L, NilpotentOrbit(d, triple))]
    F4 = build_lie_algebra("F4")
    cases += [(F4, o) for o in enumerate_orbits(F4)]
    odd = 0
    for L, o in cases:
        t = o.triple
        counted = NilpotentOrbit(
            o.diagram, Sl2Triple(read_once("e", t.e), read_once("h", t.h), read_once("f", t.f))
        )
        for log in (subspaces, scaled, formed, basis_weights, reads):
            log.clear()
        a = analyze(L, counted)
        rows = {id(r) for s in subspaces for r in (*s._row_at.values(), *s.__dict__.get("_ints", ()))}
        assert not [c for c in scaled if id(c) in rows]
        assert max(formed.values(), default=0) <= 1
        assert len(basis_weights) <= 2
        assert all(reads[name] <= 1 for name in "ehf"), reads
        assert a == replace(analyze(L, o), orbit=counted)
        odd += 1 in o.diagram.labels
    assert odd > 0


def test_analyze_weighs_no_row_and_no_subspace_stores_weights(monkeypatch):
    # Each canonical row is homogeneous, so `analyze` reads its torus and ad
    # h weights off its pivot and never calls `row_weights`; and no layer
    # stores weights beside the rows of the subspace it returns.
    cases = []
    for name in ("G2", "F4", "E6"):
        L = build_lie_algebra(name)
        cases += [(L, o) for o in enumerate_orbits(L, seed=1)]
    expected = [analyze(L, o) for L, o in cases]
    for L, o in cases[::7]:
        weights = _torus_grading(L, [o.triple.e._supp])
        ge, derived, upper, closure = _layers(L, o, weights)
        for s in (ge, derived, closure, *analyze_full(L, o)[1:]):
            assert not hasattr(s, "_weights")

    def refuse(self, weights):
        raise AssertionError("a row was weighed")

    monkeypatch.setattr(Subspace, "row_weights", refuse)
    assert [analyze(L, o) for L, o in cases] == expected
    assert len(cases) == 4 + 15 + 20


def test_centralizer_with_a_row_dropped_fails_the_graded_sizes(monkeypatch):
    # g_e must have dim g(k) - dim g(k+2) rows of ad h weight k for every
    # k >= 0 and none of negative weight; a g_e short of one row is an
    # internal error (exit 3).
    import exorb.reach
    from exorb import cli

    real = exorb.reach._centralizer

    def short(*args, **kwargs):
        ge = real(*args, **kwargs)
        p, w = max((p, w) for w, span in ge.items() for p in span.rows)
        del ge[w].rows[p]
        ge[w].order.remove(p)
        return ge

    L, by_diagram = _g2_orbits()
    assert analyze(L, by_diagram[1, 0]).dim_ge == 6
    monkeypatch.setattr(exorb.reach, "_centralizer", short)
    for o in by_diagram.values():
        with pytest.raises(RuntimeError, match=f"wrong graded dimensions .* {o.diagram}"):
            analyze(L, o)
    assert cli.main(["analyze", "G2", "--orbit", "1,0"]) == 3


def _sl2_blocks(L, o):
    """The blocks of e's torus grading larger than their target, with ranks.

    The independent oracle: each block's rank by `gauss_jordan` of the
    brackets [e, x_j].  sl2 theory (Collingwood-McGovern, Ch. 3) makes ad e
    injective on every block no larger than its target; that is checked
    here too, so every skipped block has an empty kernel.
    """
    e = o.triple.e
    weights = _torus_grading(L, [e._supp])
    d = weights[e.support()[0]]
    blocks = defaultdict(list)
    for j, w in enumerate(weights):
        blocks[w].append(j)
    out = []
    for k, dom in blocks.items():
        target = blocks.get(k + d, [])
        if not target:
            continue
        images = [bracket(L, e, L.basis_element(j)).coeffs for j in dom]
        r = len(gauss_jordan([[image[t] for image in images] for t in target], len(dom))[1])
        if len(dom) > len(target):
            out.append((tuple(dom), r))
        else:
            assert r == len(dom)  # injective: no kernel to find
    return out


def test_the_analyses_eliminate_exactly_the_blocks_larger_than_their_target(monkeypatch):
    # On every F4 orbit and the seven `E7_ANALYZED` ones, the blocks that
    # reach `_null_space` are those with |dom| > |target| > 0, each
    # eliminated once, and the ranks are the oracle's.  The `analyze-e7`
    # round makes 53 eliminations; 176 of its blocks have a target.  A
    # block's `_null_space` call follows its `_ad_rows`; the one that forms
    # the torus grading, first in each analysis, follows none, and is not
    # counted.
    import exorb.algebra

    F4 = build_lie_algebra("F4")
    cases = [(F4, o) for o in enumerate_orbits(F4)]
    e7 = _e7_analyzed_cases()
    calls = []  # [dom, rank] per elimination
    ad_rows, null_space = exorb.algebra._ad_rows, exorb.algebra._null_space

    def rows(adj, a, dom):
        calls.append([tuple(dom)])
        return ad_rows(adj, a, dom)

    def kernel(rows, cols):
        out = null_space(rows, cols)
        if calls and len(calls[-1]) == 1:  # a block, after its `_ad_rows`
            calls[-1].append(cols - len(out))
        return out

    monkeypatch.setattr(exorb.algebra, "_ad_rows", rows)
    monkeypatch.setattr(exorb.algebra, "_null_space", kernel)
    for L, o in cases + e7:
        calls.clear()
        analyze(L, o)
        assert sorted(map(tuple, calls)) == sorted(_sl2_blocks(L, o))
    calls.clear()
    for L, o in e7:
        analyze(L, o)
    assert len(calls) == 53


def test_a_skipped_block_with_a_kernel_fails_the_graded_sizes(monkeypatch):
    # The sl2 rule is certified at run time: with any one block that has a
    # kernel skipped (its `_null_space` answering empty), `analyze` raises
    # from `_check_centralizer_sizes`.  A block's `_null_space` call follows
    # its `_ad_rows`; the torus grading's follows none, and is left alone.
    import exorb.algebra

    null_space, ad_rows = exorb.algebra._null_space, exorb.algebra._ad_rows
    pending = []

    def rows(adj, a, dom):
        pending.append(dom)
        return ad_rows(adj, a, dom)

    monkeypatch.setattr(exorb.algebra, "_ad_rows", rows)
    cases = []
    for name in ("G2", "F4"):
        L = build_lie_algebra(name)
        cases += [(L, o) for o in enumerate_orbits(L)]
    skipped = 0
    for L, o in cases:
        for skip in range(len(_sl2_blocks(L, o))):
            calls = []

            def skipping(rows, cols):
                if not pending:
                    return null_space(rows, cols)
                calls.append(pending.pop())
                return [] if len(calls) == skip + 1 else null_space(rows, cols)

            monkeypatch.setattr(exorb.algebra, "_null_space", skipping)
            with pytest.raises(RuntimeError, match=f"wrong graded dimensions .* {o.diagram}"):
                analyze(L, o)
            skipped += 1
    assert skipped > len(cases)


def test_elements_triples_orbits_and_analyses_survive_pickle_and_deepcopy():
    import copy
    import pickle
    from fractions import Fraction

    L, by_diagram = _g2_orbits()
    o = by_diagram[1, 0]
    a = analyze(L, o)
    x = Fraction(1, 3) * o.triple.f - o.triple.h
    x.coeffs  # a dense view already built travels with the element
    for obj in (x, L.zero(), o.triple.e, o.triple, o, a, L.basis_weights((1, 0))):
        for out in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert out == obj and hash(out) == hash(obj)
    y = pickle.loads(pickle.dumps(x))
    assert y.coeffs == x.coeffs and y.support() == x.support()
    with pytest.raises(AttributeError, match="immutable"):
        y.coeffs = ()
    assert analyze(L, copy.deepcopy(o)) == analyze(L, pickle.loads(pickle.dumps(o))) == a


def test_the_pipeline_builds_no_dense_vector(monkeypatch, capsys):
    # The sweep, every F4 analysis and `exorb verify G2` read each Element's
    # integer support: no dense `coeffs` view is built, and `_scaled_support`
    # is called on no dense vector.
    from collections.abc import Mapping

    import exorb.algebra
    import exorb.linalg
    import exorb.reach
    from exorb import cli

    views, dense = [], []
    build = Element.coeffs.func
    monkeypatch.setattr(Element, "coeffs", property(lambda x: views.append(x) or build(x)))
    for module in (exorb.linalg, exorb.algebra):

        def recording(coeffs, kernel=module._scaled_support):
            if not isinstance(coeffs, Mapping):
                dense.append(coeffs)
            return kernel(coeffs)

        monkeypatch.setattr(module, "_scaled_support", recording)
    L = build_lie_algebra("F4")
    found = enumerate_orbits(L)
    assert len(found) == 15
    for o in found:
        analyze(L, o)
    assert cli.main(["verify", "G2", "--format", "json"]) == cli.EXIT_OK
    assert '"status":"ok"' in capsys.readouterr().out
    assert not views and not dense
    # the counts see a dense read
    assert L.basis_element(0).coeffs[0] == 1 and len(views) == 1
    exorb.linalg.rank(RatMatrix([[1, 2]]))
    assert len(dense) == 1
