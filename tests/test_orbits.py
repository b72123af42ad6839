import hashlib
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from exorb import _modp, linalg, orbits
from exorb.algebra import (
    Subspace,
    bracket,
    build_lie_algebra,
    centralizer,
    quotient_with_action,
)
from exorb.orbits import (
    NilpotentOrbit,
    TripleInsolubleError,
    WeightedDynkinDiagram,
    characteristic_element,
    complete_triple,
    dynkin_test,
    enumerate_orbits,
    find_representative,
    orbit,
)
from exorb._modp import PRIMES, rank_mod
from exorb.linalg import RatMatrix, _scaled_support, rank, solve
from exorb.reach import analyze
from exorb.refdata import load_tables
from gauss_jordan import gauss_jordan


def _partitions(n, cap=None):
    if n == 0:
        yield ()
        return
    cap = cap or n
    for first in range(min(n, cap), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _diagram_of_partition(parts):
    """Block weights sorted descending; labels are consecutive differences."""
    weights = []
    for m in parts:
        weights.extend(range(m - 1, -m, -2))
    weights.sort(reverse=True)
    return tuple(weights[i] - weights[i + 1] for i in range(len(weights) - 1))


def _classical_oracle(letter, n):
    """{diagram: dim g_e} of the nonzero orbits of A_n, B_n, C_n or D_n.

    Collingwood-McGovern, Ch. 5 and Section 6.1: the orbits are the
    partitions of the natural module's dimension, for B and D those whose
    even parts have even multiplicity, for C those whose odd parts do.  The
    diagram comes from the n largest eigenvalues h_1 >= ... >= h_n of h on
    the natural module: labels h_i - h_{i+1}, and last h_n (B), 2 h_n (C),
    or h_{n-1} - h_n and h_{n-1} + h_n (D), where a very even partition (all
    parts even) gives two orbits, these two labels swapped.  With s the sum
    of the squared parts of the transpose partition and o the number of odd
    parts, dim g_e is s - 1 (A), (s - o) / 2 (B, D) or (s + o) / 2 (C).
    """
    size = {"A": n + 1, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[letter]
    parity = {"B": 0, "C": 1, "D": 0}.get(letter)
    out = {}
    for parts in _partitions(size):
        if set(parts) == {1}:
            continue
        if any(m % 2 == parity and parts.count(m) % 2 for m in parts):
            continue
        transpose = [sum(1 for m in parts if m > i) for i in range(parts[0])]
        s = sum(t * t for t in transpose)
        o = sum(m % 2 for m in parts)
        if letter == "A":
            out[_diagram_of_partition(parts)] = s - 1
            continue
        h = sorted((w for m in parts for w in range(m - 1, -m, -2)), reverse=True)[:n]
        head = tuple(h[i] - h[i + 1] for i in range(n - 2))
        tails = {
            "B": [(h[-2] - h[-1], h[-1])],
            "C": [(h[-2] - h[-1], 2 * h[-1])],
            "D": [(h[-2] - h[-1], h[-2] + h[-1])],
        }[letter]
        if letter == "D" and all(m % 2 == 0 for m in parts):
            tails.append((h[-2] + h[-1], h[-2] - h[-1]))
        for tail in tails:
            out[head + tail] = (s + o) // 2 if letter == "C" else (s - o) // 2
    return out


def _check_partition_oracle(name):
    # The diagram set of the sweep and every orbit's dim g_e, analysed.
    L = build_lie_algebra(name)
    computed = {o.diagram.labels: analyze(L, o).dim_ge for o in enumerate_orbits(L)}
    assert computed == _classical_oracle(name[0], int(name[1:]))


@pytest.mark.parametrize("rank", [2, 3, 4, 5, 6])
def test_type_a_matches_partition_classification(rank):
    _check_partition_oracle(f"A{rank}")


@pytest.mark.parametrize(
    "name", ["B2", "B3", "B4", "B5", "B6", "C2", "C3", "C4", "C5", "C6", "D4", "D5", "D6"]
)
def test_types_b_c_d_match_partition_classification(name):
    # det C is 2 (B, C) or 4 (D), so the coroot-lattice filter is active on
    # all of these; the oracle checks it outside the bundled tables.
    _check_partition_oracle(name)


def test_type_a_abelianizations_and_reachability_follow_the_partition():
    """dim c_e and reachability of all 86 nonzero orbits of A2-A8.

    For e of partition lambda in sl(n + 1), c_e = g_e / [g_e, g_e] has
    dimension lambda_1 - 1: in gl(n + 1) it has dimension lambda_1
    (Yakimova, "On the derived algebra of a centraliser", Bull. Sci. Math.
    134, 2010), and sl(n + 1)_e drops the identity, which is central and
    outside every derived algebra.  e is reachable exactly when
    lambda_i - lambda_{i+1} <= 1 for every i, lambda padded by a 0
    (Panyushev, "On reachable elements and the boundary of nilpotent cone",
    J. Algebra 320, 2008).  Neither figure is in the bundled tables.
    """
    checked = 0
    for n in range(2, 9):
        L = build_lie_algebra(f"A{n}")
        by_diagram = {o.diagram.labels: o for o in enumerate_orbits(L)}
        for parts in _partitions(n + 1):
            if parts[0] == 1:
                continue
            a = analyze(L, by_diagram.pop(_diagram_of_partition(parts)))
            padded = (*parts, 0)
            assert a.dim_ce == parts[0] - 1, parts
            assert a.reachable == all(x - y <= 1 for x, y in zip(padded, padded[1:])), parts
            checked += 1
        assert not by_diagram
    assert checked == 86


def _exponents(L):
    """The exponents of L, read off the root heights alone.

    With n_j positive roots of height j, the exponent j occurs n_j - n_{j+1}
    times: the partition of the positive roots by height is dual to that of
    the exponents (Kostant, Amer. J. Math. 81, 1959).
    """
    heights = Counter(sum(r.coeffs) for r in L.rs.positive_roots)
    return [j for j in sorted(heights) for _ in range(heights[j] - heights[j + 1])]


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8", "A5", "B4", "C4", "D5", "D6"])
def test_principal_centralizer_is_abelian_with_twice_the_exponents(name):
    """The principal orbit (every label 2), outside the bundled tables.

    Kostant ("The principal three-dimensional subgroup and the Betti numbers
    of a complex simple Lie group", Amer. J. Math. 81, 1959): the principal
    g_e is abelian, of dimension the rank, and its ad h weights are twice
    the exponents.  So [g_e, g_e] = 0, e is not reachable and c_e = g_e.
    """
    L = build_lie_algebra(name)
    a = analyze(L, orbit(L, WeightedDynkinDiagram((2,) * L.rank)))
    twice = tuple(2 * m for m in _exponents(L))
    assert len(twice) == L.rank
    assert (a.dim_ge, a.dim_derived, a.reachable) == (L.rank, 0, False)
    assert (a.dim_ce, a.ce_weights) == (L.rank, twice)


def test_diagram_validation_and_parsing():
    with pytest.raises(ValueError):
        WeightedDynkinDiagram((0, 3))
    d = WeightedDynkinDiagram.from_string("0,1,0,2")
    assert d.labels == (0, 1, 0, 2)
    assert WeightedDynkinDiagram.from_string("102").labels == (1, 0, 2)
    for text in ("2 2", " 2  2 ", "22", "2,2", "2, 2"):
        assert WeightedDynkinDiagram.from_string(text).labels == (2, 2)
    assert WeightedDynkinDiagram.from_string("0 1 0 0").labels == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        WeightedDynkinDiagram.from_string("12 0")  # a label 12, not the labels 1, 2
    assert str(d) == "0,1,0,2"


def test_characteristic_realizes_labels():
    L = build_lie_algebra("F4")
    d = WeightedDynkinDiagram((0, 1, 0, 1))
    h = characteristic_element(L, d)
    assert L.cartan_values(h) == tuple(Fraction(v) for v in d.labels)


def _weight_dims(weights):
    dims = {}
    for w in weights:
        dims[w] = dims.get(w, 0) + 1
    return dims


def test_grading_zero_element_is_single_piece():
    L = build_lie_algebra("G2")
    assert _weight_dims(L.basis_weights((0, 0))) == {0: L.dim}


def test_grading_dimensions_are_symmetric():
    L = build_lie_algebra("G2")
    dims = _weight_dims(L.basis_weights((1, 0)))
    assert sum(dims.values()) == L.dim
    assert all(dims[k] == dims[-k] for k in dims)


def test_grading_pieces_multiply_compatibly():
    L = build_lie_algebra("G2")
    weights = L.basis_weights((0, 2))
    for i in range(L.dim):
        for j in range(L.dim):
            img = bracket(L, L.basis_element(i), L.basis_element(j))
            assert all(weights[k] == weights[i] + weights[j] for k in img.support())


def test_grading_rejects_non_integral_action():
    L = build_lie_algebra("G2")
    h = Fraction(1, 2) * L.cartan_element(0)
    whole = Subspace.from_rows(L, [L.basis_element(i).coeffs for i in range(L.dim)])
    with pytest.raises(ValueError, match="integer eigenvalues"):
        quotient_with_action(L, whole, whole, h)


def test_dynkin_test_validation_and_edge_cases():
    L = build_lie_algebra("G2")
    with pytest.raises(ValueError):
        dynkin_test(L, WeightedDynkinDiagram((0, 1)), trials=0)
    with pytest.raises(ValueError, match="rank mismatch"):
        dynkin_test(L, WeightedDynkinDiagram((0, 2, 0)))
    assert dynkin_test(L, WeightedDynkinDiagram((0, 0)))
    assert not dynkin_test(L, WeightedDynkinDiagram((1, 1)))
    assert not dynkin_test(L, WeightedDynkinDiagram((2, 0)))
    assert dynkin_test(L, WeightedDynkinDiagram((0, 2)))


def test_g2_classification():
    L = build_lie_algebra("G2")
    orbits = enumerate_orbits(L)
    assert [o.diagram.labels for o in orbits] == [
        (0, 1),
        (1, 0),
        (0, 2),
        (2, 2),
    ]


def test_f4_classification_count_and_triples():
    L = build_lie_algebra("F4")
    orbits = enumerate_orbits(L)
    assert len(orbits) == 15
    for o in orbits:
        e, h, f = o.triple.e, o.triple.h, o.triple.f
        assert bracket(L, h, e) == 2 * e
        assert bracket(L, h, f) == -2 * f
        assert bracket(L, e, f) == h


def test_regular_representative_is_sum_of_simple_root_vectors():
    L = build_lie_algebra("G2")
    e = L.root_vector((1, 0)) + L.root_vector((0, 1))
    assert centralizer(L, e).dim == L.rank


def test_find_representative_zero_and_invalid():
    L = build_lie_algebra("G2")
    assert find_representative(L, WeightedDynkinDiagram((0, 0))).is_zero()
    with pytest.raises((ValueError, RuntimeError)):
        find_representative(L, WeightedDynkinDiagram((1, 1)))


def test_representative_lives_in_weight_two_space():
    L = build_lie_algebra("F4")
    d = WeightedDynkinDiagram((0, 2, 0, 0))
    e = find_representative(L, d)
    weights = L.basis_weights(d.labels)
    assert all(weights[i] == 2 for i in e.support())
    g0 = sum(1 for w in weights if w == 0)
    g1 = sum(1 for w in weights if w == 1)
    assert centralizer(L, e).dim == g0 + g1


def _minimal_centralizer_dim(weights):
    return sum(1 for w in weights if w in (0, 1))


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8"])
def test_representatives_are_unit_sums_over_independent_roots(name):
    L = build_lie_algebra(name)
    seeds = (1,) if name == "E8" else (1, 2, 3)
    for rec in load_tables().orbits(name):
        d = WeightedDynkinDiagram(rec.diagram)
        weights = L.basis_weights(d.labels)
        for seed in seeds:
            e = orbit(L, d, seed=seed).triple.e
            supp = e.support()
            assert supp and all(weights[i] == 2 for i in supp)
            assert all(e.coeffs[i] == 1 for i in supp)
            assert len(supp) <= L.rank
            roots = RatMatrix([L.rs.roots[i] for i in supp])
            assert rank(roots) == len(supp)
            assert centralizer(L, e).dim == _minimal_centralizer_dim(weights)


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_same_seed_gives_the_same_representative(name):
    L = build_lie_algebra(name)
    for rec in load_tables().orbits(name):
        d = WeightedDynkinDiagram(rec.diagram)
        assert orbit(L, d, seed=5).triple.e == orbit(L, d, seed=5).triple.e


def test_random_fallback_certifies_every_f4_representative(monkeypatch):
    monkeypatch.setattr(orbits, "RESTART_BUDGET", 0)
    L = build_lie_algebra("F4")
    for rec in load_tables().orbits("F4"):
        d = WeightedDynkinDiagram(rec.diagram)
        weights = L.basis_weights(d.labels)
        e = orbit(L, d).triple.e
        # The fallback puts a coefficient on every root vector of g(2).
        assert set(e.support()) == {i for i, w in enumerate(weights) if w == 2}
        assert all(1 <= e.coeffs[i] <= orbits.TRIAL_COEFF_MAX for i in e.support())
        assert centralizer(L, e).dim == _minimal_centralizer_dim(weights)


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_orbit_rejects_every_untabulated_label_vector(name):
    # E6 (0,0,0,0,0,2) and others pass the size filters and have a
    # surjective unit e, whose insoluble triple proves they are no diagram.
    L = build_lie_algebra(name)
    published = {rec.diagram for rec in load_tables().orbits(name)}
    for labels in product((0, 1, 2), repeat=L.rank):
        if any(labels) and labels not in published:
            assert orbit(L, WeightedDynkinDiagram(labels)) is None, labels


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_wrappers_agree_with_orbit(name):
    # dynkin_test and find_representative are single calls to orbit.
    L = build_lie_algebra(name)
    for labels in product((0, 1, 2), repeat=L.rank):
        d = WeightedDynkinDiagram(labels)
        o = orbit(L, d)
        assert dynkin_test(L, d) == (o is not None), labels
        if o is None:
            with pytest.raises(ValueError, match="not a weighted Dynkin diagram"):
                find_representative(L, d)
        else:
            assert find_representative(L, d) == o.triple.e, labels


def test_exhausted_draws_raise_naming_the_label_vector(monkeypatch):
    # Every draw has rank_p A = rank_p [A | h] = n - 1, so none settles;
    # running out of draws is an error, never a rejection.
    monkeypatch.setattr(orbits, "_ranks_mod_p", lambda layout, a: (a.shape[1] - 1,) * 2)
    L = build_lie_algebra("G2")
    d = WeightedDynkinDiagram((0, 2))
    with pytest.raises(RuntimeError, match="diagram 0,2: no surjective draw among 3"):
        orbit(L, d, trials=3)
    with pytest.raises(RuntimeError, match="no surjective draw among 25"):
        dynkin_test(L, d)
    with pytest.raises(RuntimeError, match=r"diagram \d,\d: no surjective draw"):
        enumerate_orbits(L)


def test_complete_triple_rank_one_case():
    L = build_lie_algebra("A1")
    e = L.root_vector((1,))
    h = L.coroot_element((1,))
    t = complete_triple(L, h, e)
    assert t.f == L.root_vector((-1,))


def test_complete_triple_reports_insolubility():
    # No E6 orbit has this diagram, so [e, f] = h is insoluble for every e
    # in g(2), although ad e maps g(0) onto g(2) for generic e.
    L = build_lie_algebra("E6")
    d = WeightedDynkinDiagram((0, 0, 0, 0, 0, 2))
    weights = L.basis_weights(d.labels)
    e = L.element({i: 1 for i, w in enumerate(weights) if w == 2})
    with pytest.raises(TripleInsolubleError):
        complete_triple(L, characteristic_element(L, d), e)


def test_complete_triple_raises_on_failed_verification(monkeypatch):
    L = build_lie_algebra("G2")
    d = WeightedDynkinDiagram((2, 2))
    e = find_representative(L, d)
    h = characteristic_element(L, d)
    monkeypatch.setattr(orbits, "_bracket_supp", lambda adj, a, b: {})
    with pytest.raises(RuntimeError) as info:
        complete_triple(L, h, e)
    assert not isinstance(info.value, TripleInsolubleError)


def test_dynkin_test_does_not_read_failed_verification_as_rejection(monkeypatch):
    L = build_lie_algebra("G2")
    monkeypatch.setattr(orbits, "_bracket_supp", lambda adj, a, b: {})
    with pytest.raises(RuntimeError):
        dynkin_test(L, WeightedDynkinDiagram((2, 2)))


@pytest.mark.parametrize(
    "name, labels", [("G2", (2, 2)), ("F4", (0, 1, 0, 1)), ("E6", (2, 2, 2, 2, 2, 2))]
)
def test_integer_triple_check_rejects_a_wrong_f(name, labels, monkeypatch):
    # [e, f] = h is checked on integer supports; a solve that returns a
    # wrong f is an internal error, not a rejection of the diagram.
    L = build_lie_algebra(name)
    d = WeightedDynkinDiagram(labels)
    e = find_representative(L, d)
    real = orbits._back_substitute

    def wrong(echelon, cols):
        # the exact solution y / den with its first entry off by 1
        sol = real(echelon, cols)
        return None if sol is None else ({**sol[0], 0: sol[0].get(0, 0) + sol[1]}, sol[1])

    # the walk and complete_triple share this back-substitution
    monkeypatch.setattr(orbits, "_back_substitute", wrong)
    message = "triple relations failed verification"
    with pytest.raises(RuntimeError, match=message) as info:
        complete_triple(L, characteristic_element(L, d), e)
    assert not isinstance(info.value, TripleInsolubleError)
    with pytest.raises(RuntimeError, match=message):
        orbit(L, d)


def test_integer_triple_check_fires_under_python_O(tmp_path):
    # The check is no assert: it raises with assertions stripped too.
    script = tmp_path / "check.py"
    script.write_text(
        textwrap.dedent(
            """\
            from exorb import orbits
            from exorb.algebra import build_lie_algebra

            assert False, "assertions are on"
            real = orbits._back_substitute

            def wrong(echelon, cols):
                sol = real(echelon, cols)
                return None if sol is None else ({**sol[0], 0: sol[0].get(0, 0) + sol[1]}, sol[1])

            orbits._back_substitute = wrong
            L = build_lie_algebra("G2")
            try:
                orbits.orbit(L, orbits.WeightedDynkinDiagram((2, 2)))
            except RuntimeError as exc:
                print(exc)
            """
        )
    )
    out = subprocess.run(
        [sys.executable, "-O", str(script)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(orbits.__file__).parents[1])},
        check=True,
    )
    assert out.stdout.strip() == "triple relations failed verification"


@st.composite
def _sparse_systems(draw):
    """(rows, cols): integer augmented rows, the right-hand side last.

    Zeros are drawn often, so that zero columns, all-zero rows and
    inconsistent systems are common.  Entries are negative or non-unit too,
    a row may be a combination of two others, and the right-hand side may
    be A x for an integer x, so that consistent systems with free columns
    are common as well.
    """
    nrows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(-4, 4), st.sampled_from([6, -9, 12, 35]))
    rows = [[draw(entry) for _ in range(cols + 1)] for _ in range(nrows)]
    if nrows >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(1, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    if draw(st.booleans()):
        c = draw(st.integers(0, cols - 1))
        for row in rows:
            row[c] = 0
    if draw(st.booleans()):
        x = [draw(st.integers(-3, 3)) for _ in range(cols)]
        for row in rows:
            row[cols] = sum(a * v for a, v in zip(row, x))
    return rows, cols


def _sparse_rows(rows):
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


@given(_sparse_systems())
@example(([[0, 0, 1]], 2))
@example(([[-2, 4, 0, 6], [0, 0, 3, -9], [0, 0, 0, 0]], 3))
@settings(max_examples=300, deadline=None)
def test_sparse_solve_is_linalg_solve(case):
    # The triple's solve and linalg.solve give the oracle's solution, zeros
    # at the free columns, and None exactly when the oracle's reduced rows
    # have a pivot at the right-hand side.
    rows, cols = case
    reduced, pivots = gauss_jordan(rows, cols + 1)
    expected = None
    if cols not in pivots:
        x = [Fraction(0)] * cols
        for row, c in zip(reduced, pivots):
            x[c] = row[cols]
        expected = tuple(x)
    m = RatMatrix([row[:cols] for row in rows], cols)
    assert solve(m, [row[cols] for row in rows]) == expected
    got = linalg._back_substitute(linalg._echelon(_sparse_rows(rows)), cols)
    if expected is None:
        assert got is None
    else:
        y, den = got
        assert 0 not in y.values()
        assert tuple(Fraction(y.get(c, 0), den) for c in range(cols)) == expected


def test_sweep_does_not_read_an_insoluble_representative_as_rejection(monkeypatch):
    def insoluble(*args):
        raise TripleInsolubleError("no completion to a triple")

    monkeypatch.setattr(orbits, "_represent", insoluble)
    with pytest.raises(RuntimeError) as info:
        enumerate_orbits(build_lie_algebra("G2"))
    assert not isinstance(info.value, TripleInsolubleError)


def test_rejected_diagram_takes_no_exact_triple_solve(monkeypatch):
    L = build_lie_algebra("E6")
    calls = []
    real = orbits._triple

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(orbits, "_triple", counting)
    assert orbit(L, WeightedDynkinDiagram((0, 0, 0, 0, 0, 2))) is None
    # (0, 2, 2, 0, 2, 0) passes the size filters, the coroot lattice and
    # the module character
    d = WeightedDynkinDiagram((0, 2, 2, 0, 2, 0))
    assert orbits._layout(L, d) is not None
    assert orbit(L, d) is None
    assert len(calls) == 0


def _no_mod_p_rejection(monkeypatch):
    """Give every draw rank_p [A | h] = rank_p A, so no draw is rejected mod p."""
    real = orbits._ranks_mod_p
    monkeypatch.setattr(
        orbits, "_ranks_mod_p", lambda layout, a: (real(layout, a)[0],) * 2
    )


@pytest.fixture
def size_survivors(monkeypatch):
    """Turn the coroot-lattice and module filters off, so `_layouts` yields
    every vector that passes the size filters; the filter tables are
    rebuilt around it."""
    orbits._size_filters.cache_clear()
    for name in ("_in_coroot_lattice", "_has_module_character"):
        monkeypatch.setattr(
            orbits, name, lambda L, labels: np.ones(len(labels), dtype=bool)
        )
    yield
    orbits._size_filters.cache_clear()


@lru_cache(maxsize=None)
def _ad_table(L):
    """ad x_j of every positive root j as a dense (dim, dim) integer block.

    Read off `bracket` on basis elements, so it shares no code with the
    search's index arrays.
    """
    basis = [L.basis_element(i) for i in range(L.dim)]
    out = np.zeros((L.npos, L.dim, L.dim), dtype=np.int64)
    for j in range(L.npos):
        for i, b in enumerate(basis):
            for k, c in enumerate(bracket(L, basis[j], b).coeffs):
                assert c.denominator == 1
                out[j, k, i] = int(c)
    return out


def _ref_blocks(L, g2, src, dst):
    """ad x_j : span(src) -> span(dst) for each x_j of g2, stacked."""
    return _ad_table(L)[np.ix_(g2, dst, src)]


def _layouts(L):
    """(d, layout) for every nonzero label vector that passes the size filters."""
    for labels in product((0, 1, 2), repeat=L.rank):
        d = WeightedDynkinDiagram(labels)
        layout = orbits._layout(L, d) if any(labels) else None
        if layout is not None:
            yield d, layout


def _h_column(L, d, layout):
    """h on g(0) with its denominators cleared, from characteristic_element."""
    scaled, _ = _scaled_support(characteristic_element(L, d).coeffs)
    return np.array([scaled.get(i, 0) for i in layout.g0], dtype=np.int64)


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_scattered_draw_matrix_is_the_reference_sum(name, size_survivors):
    # Each draw's A = ad e : g(-2) -> g(0) is scattered from the index
    # arrays; it equals the sum of the reference blocks, also for negative
    # and zero coefficients, and hcol is a unit multiple of h mod p.  All
    # size survivors are checked, h outside the coroot lattice too.
    L = build_lie_algebra(name)
    rng = np.random.default_rng(7)
    count = 0
    for d, layout in _layouts(L):
        blocks = _ref_blocks(L, layout.g2, layout.neg2, layout.g0)
        for coeffs in (
            rng.integers(-(10**4), 10**4, len(layout.g2)),
            np.ones(len(layout.g2), dtype=np.int64),
            np.eye(len(layout.g2), dtype=np.int64)[0],
        ):
            a = orbits._ad_down(layout, coeffs.tolist())
            assert np.array_equal(a, np.tensordot(coeffs, blocks, axes=1)), d
        pair = np.column_stack([layout.hcol, _h_column(L, d, layout)])
        assert rank_mod(pair, PRIMES[0]) == 1, d
        count += 1
    assert count == {"F4": 20, "E6": 137}[name]


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_mod_p_verdict_is_the_exact_verdict(name, monkeypatch, size_survivors):
    # The decisive draw of every label vector past the size filters, with h
    # in the coroot lattice or not: one rank mod p rejects it exactly when
    # its triple is insoluble over Q.  Both ranks come from one elimination
    # and equal the separate ones of the reference A and h.
    L = build_lie_algebra(name)
    real = orbits._ranks_mod_p
    draws = 0
    for d, layout in _layouts(L):
        with monkeypatch.context() as m:
            _no_mod_p_rejection(m)
            draw = orbits._decide(d, layout, orbits.DEFAULT_TRIALS, 1)
        assert draw is not None
        coeffs = np.array(draw, dtype=np.int64)
        blocks = _ref_blocks(L, layout.g2, layout.neg2, layout.g0)
        a = np.tensordot(coeffs, blocks, axes=1)
        augmented = np.column_stack([a, _h_column(L, d, layout)])
        rank_a, rank_ah = real(layout, a)
        assert (rank_a, rank_ah) == (
            rank_mod(a, PRIMES[0]),
            rank_mod(augmented, PRIMES[0]),
        )
        assert rank_a == len(layout.neg2)
        insoluble = orbits._settle(L, d, layout, draw) is None
        assert (rank_ah > rank_a) == insoluble, d
        draws += 1
    assert draws == {"F4": 20, "E6": 137}[name]


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_ad_e_has_one_rank_on_g_minus_2_and_on_g0(name, monkeypatch, size_survivors):
    # kappa([e, y], x) = -kappa(y, [e, x]) makes ad e : g(-2) -> g(0) the
    # transpose of ad e : g(0) -> g(2) up to the Killing pairings, so every
    # decisive draw has the same rank on both, at both primes.
    L = build_lie_algebra(name)
    _no_mod_p_rejection(monkeypatch)
    for d, layout in _layouts(L):
        coeffs = np.array(orbits._decide(d, layout, orbits.DEFAULT_TRIALS, 1))
        down_blocks = _ref_blocks(L, layout.g2, layout.neg2, layout.g0)
        down = np.tensordot(coeffs, down_blocks, axes=1)
        up_blocks = _ref_blocks(L, layout.g2, layout.g0, layout.g2)
        up = np.tensordot(coeffs, up_blocks, axes=1)
        for p in PRIMES:
            assert rank_mod(down, p) == rank_mod(up, p) == len(layout.g2), d


def test_acceptance_rests_on_exact_triples(monkeypatch):
    _no_mod_p_rejection(monkeypatch)
    L = build_lie_algebra("F4")
    published = sorted(rec.diagram for rec in load_tables().orbits("F4"))
    assert len(published) == 15
    assert sorted(o.diagram.labels for o in enumerate_orbits(L)) == published


# First 16 hex digits of the sha256 of every orbit's labels, e and f.
SWEEP_DIGESTS = {
    ("G2", 1): "f2c24547f4f8e995",
    ("F4", 1): "74eb4a3b2f71adf9",
    ("E6", 1): "ed65f3422d708d84",
    ("E7", 1): "36b524980fa3d24b",
    ("E8", 1): "a88ccdc67a17ed31",
    ("G2", 2): "8e1fb60e8b7c522a",
    ("F4", 2): "cd3beae654307725",
    ("E6", 2): "a353045f8e99af65",
    ("E7", 2): "d451714dab0b448b",
    ("E8", 2): "076fa0ddf50b072b",
    ("G2", 3): "b985e81c4ee0209b",
    ("F4", 3): "b70cee953cf9aaa4",
    ("E6", 3): "2d82314de69976cf",
    ("E7", 3): "b16b4af13ad1f85a",
    ("E8", 3): "933d4525ea216fb1",
}


@pytest.mark.parametrize("name, seed", sorted(SWEEP_DIGESTS))
def test_sweep_output_is_pinned(name, seed):
    # The representatives come from the rank-greedy walk; any change to the
    # roots it visits or keeps changes e and f.
    rows = [
        [
            list(o.diagram.labels),
            [[i, str(o.triple.e.coeffs[i])] for i in o.triple.e.support()],
            [[i, str(o.triple.f.coeffs[i])] for i in o.triple.f.support()],
        ]
        for o in enumerate_orbits(build_lie_algebra(name), seed=seed)
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    assert digest == SWEEP_DIGESTS[name, seed]


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_walk_ranks_are_the_dense_ranks_of_the_summed_blocks(name, monkeypatch):
    # Every rank the walk takes, of the rows of A = ad e : g(-2) -> g(0) for
    # e the unit sum over the kept roots and the candidate, equals the exact
    # rank of the same sum of the reference blocks, and by the Killing-form
    # duality also that of ad e : g(0) -> g(2); the walk itself takes no
    # dense rank.
    L = build_lie_algebra(name)
    real = orbits._rank
    taken = []

    def sparse_rank(rows, *args):
        # the kept roots and the candidate q are read off the walk's frame;
        # rows that touch every column carry h in column n, and the rank
        # counts the pivots below it
        walk = sys._getframe(1).f_locals
        r = real(rows, *args)
        taken.append((walk["layout"], walk["kept"] + [walk["q"]], r))
        return r

    def no_dense_rank(*args):
        raise AssertionError("dense rank in the walk")

    real_represent = orbits._represent

    def represent(*args):
        with monkeypatch.context() as m:
            m.setattr(_modp, "pivot_columns", no_dense_rank)
            m.setattr(orbits, "pivot_columns", no_dense_rank)
            return real_represent(*args)

    with monkeypatch.context() as m:
        m.setattr(orbits, "_rank", sparse_rank)
        m.setattr(orbits, "_represent", represent)
        assert len(enumerate_orbits(L)) == {"F4": 15, "E6": 20}[name]
    assert len(taken) == {"F4": 106, "E6": 227}[name]
    blocks = {}
    for layout, roots, r in taken:
        g2 = tuple(layout.g2)
        if g2 not in blocks:
            blocks[g2] = (
                _ref_blocks(L, layout.g2, layout.neg2, layout.g0),
                _ref_blocks(L, layout.g2, layout.g0, layout.g2),
            )
        down, up = (b[roots].sum(axis=0) for b in blocks[g2])
        assert r == rank(RatMatrix(down.tolist(), len(layout.neg2))), (g2, roots)
        assert r == rank(RatMatrix(up.tolist(), len(layout.g0))), (g2, roots)


@pytest.mark.parametrize("trials", [0, -1])
def test_enumerate_orbits_rejects_non_positive_trials(trials):
    with pytest.raises(ValueError, match="trials must be positive"):
        enumerate_orbits(build_lie_algebra("G2"), trials=trials)


def test_odd_dim_g1_is_rejected_before_rank_work(monkeypatch):
    L = build_lie_algebra("E6")
    labels = (0, 0, 0, 0, 1, 1)
    weights = L.basis_weights(labels)
    assert sum(1 for w in weights if w == 1) % 2 == 1
    assert sum(1 for w in weights if w == 0) >= sum(1 for w in weights if w == 2)

    def no_rank_work(*args):
        raise AssertionError("rank work done")

    monkeypatch.setattr(orbits, "pivot_columns", no_rank_work)
    monkeypatch.setattr(orbits, "_rank", no_rank_work)
    assert orbit(L, WeightedDynkinDiagram(labels)) is None


def test_one_label_vector_of_a_large_rank_settles_one_chunk(monkeypatch):
    # A16 has 3^16 label vectors; searching one of them must not build the
    # size filters of all of them.
    L = build_lie_algebra("A16")
    real = orbits._size_filters
    built = []

    def spy(L, chunk):
        out = real(L, chunk)
        built.append(len(out))
        return out

    monkeypatch.setattr(orbits, "_size_filters", spy)
    minimal = WeightedDynkinDiagram((1,) + (0,) * 14 + (1,))
    assert orbit(L, minimal) is not None
    assert orbit(L, WeightedDynkinDiagram((1,) + (0,) * 15)) is None
    assert built == [81, 81]


def _coroot_integral(L, d):
    """Whether the characteristic of d has integer Cartan coordinates."""
    coords = characteristic_element(L, d).coeffs[2 * L.npos :]
    return all(c.denominator == 1 for c in coords)


# The node k of omega_k for the minuscule modules of the exceptional types:
# the 27 of E6 and the 56 of E7 (G2, F4 and E8 have none).
MINUSCULE_NODES = {"E6": 0, "E7": 6}


@lru_cache(maxsize=None)
def _minuscule_orbit(name):
    """The Weyl orbit of omega_k in fundamental coordinates, closed under
    every simple reflection s_i(mu) = mu - mu_i alpha_i, with alpha_i's
    coordinates <alpha_i, alpha_j^vee> read off the Cartan matrix."""
    L = build_lie_algebra(name)
    n, cartan = L.rank, L.rs.cartan
    start = tuple(int(j == MINUSCULE_NODES[name]) for j in range(n))
    orbit, frontier = {start}, [start]
    while frontier:
        mu = frontier.pop()
        for i in range(n):
            nu = tuple(mu[j] - mu[i] * cartan[i][j] for j in range(n))
            if nu not in orbit:
                orbit.add(nu)
                frontier.append(nu)
    return sorted(orbit)


def _module_character(L, d):
    """Whether h of d acts on the minuscule module with an sl2-character:
    the eigenvalue on mu is sum_j mu_j x_j for h's Cartan coordinates x,
    and k occurs as often as -k and at least as often as k + 2 for k >= 0.
    True for a type without such a module; h must be coroot-integral."""
    name = str(L.rs.type_rank)
    if name not in MINUSCULE_NODES:
        return True
    coords = characteristic_element(L, d).coeffs[2 * L.npos :]
    eig = Counter(sum(m * x for m, x in zip(mu, coords)) for mu in _minuscule_orbit(name))
    top = int(max(eig))
    return all(eig[k] == eig[-k] for k in eig) and all(
        eig[k] >= eig[k + 2] for k in range(top + 1)
    )


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8"])
def test_layout_is_none_exactly_when_the_sizes_break_a_filter(name):
    # Sizes counted from basis_weights, with every k >= 0 checked: E6
    # (1,1,2,1,0,2) has dim g(9) = 0 < dim g(11) = 1.  h must also have
    # integer coordinates on the simple coroots, and its eigenvalues on the
    # minuscule module of E6 or E7 must form an sl2-character.  The filters
    # are read from tables of 81 label vectors, indexed by the labels in
    # product order.
    L = build_lie_algebra(name)
    passed = 0
    for labels in product((0, 1, 2), repeat=L.rank):
        weights = L.basis_weights(labels)
        sizes = _weight_dims(weights)
        dims = [sizes.get(k, 0) for k in range(max(weights) + 3)]
        d = WeightedDynkinDiagram(labels)
        broken = (
            not dims[2]
            or dims[1] % 2
            or any(dims[k] < dims[k + 2] for k in range(len(dims) - 2))
            or not _coroot_integral(L, d)
            or not _module_character(L, d)
        )
        layout = orbits._layout(L, d)
        assert (layout is None) == broken, labels
        if layout is not None:
            passed += 1
            assert layout.g0 == [i for i, w in enumerate(weights) if w == 0]
            assert layout.g2 == [i for i, w in enumerate(weights) if w == 2]
            assert layout.neg2 == [i for i, w in enumerate(weights) if w == -2]
    assert passed == {"G2": 5, "F4": 20, "E6": 25, "E7": 69, "E8": 173}[name]


def test_every_tabulated_diagram_has_h_in_the_coroot_lattice():
    # The 152 diagrams of the bundled tables, read as Cartan coordinates of
    # the characteristic and by the filter itself.
    tables = load_tables()
    count = 0
    for name in ("G2", "F4", "E6", "E7", "E8"):
        L = build_lie_algebra(name)
        diagrams = [r.diagram for r in tables.orbits(name)]
        assert orbits._in_coroot_lattice(L, np.array(diagrams)).all()
        for labels in diagrams:
            assert _coroot_integral(L, WeightedDynkinDiagram(labels)), (name, labels)
            count += 1
    assert count == 152


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_coroot_lattice_rejects_only_what_the_draws_reject(name, size_survivors):
    # Every size survivor whose h lies outside the coroot lattice is also
    # rejected by its decisive draw, by the rank mod p of [A | h].
    L = build_lie_algebra(name)
    rejected = 0
    for d, layout in _layouts(L):
        if _coroot_integral(L, d):
            continue
        assert orbits._decide(d, layout, orbits.DEFAULT_TRIALS, 1) is None, d
        rejected += 1
    assert rejected == {"E6": 94, "E7": 44}[name]


def test_module_weights_follow_a_fixed_rule():
    # The module is chosen by type, not by building every minuscule orbit:
    # omega_1 for A, C and D, the 27 of E6 and the 56 of E7, none otherwise.
    for name, size in [("A1", 2), ("A20", 21), ("C4", 8), ("D5", 10), ("E6", 27), ("E7", 56)]:
        weights = orbits._module_weights(build_lie_algebra(name))
        assert len(weights) == len({tuple(w) for w in weights.tolist()}) == size, name
    for name in ("B3", "F4", "G2", "E8"):
        assert orbits._module_weights(build_lie_algebra(name)).shape == (0, int(name[1])), name
    for name in MINUSCULE_NODES:
        weights = orbits._module_weights(build_lie_algebra(name)).tolist()
        assert sorted(map(tuple, weights)) == _minuscule_orbit(name)


@pytest.mark.parametrize("name, size", [("E6", 27), ("E7", 56)])
def test_every_tabulated_diagram_has_a_module_character(name, size):
    # The tabulated diagrams of E6 and E7 pass the module condition, read
    # from the test's own Weyl orbit and the characteristic's coordinates,
    # and by the filter itself.
    L = build_lie_algebra(name)
    assert len(_minuscule_orbit(name)) == size
    diagrams = [r.diagram for r in load_tables().orbits(name)]
    for labels in diagrams:
        assert _module_character(L, WeightedDynkinDiagram(labels)), labels
    assert orbits._has_module_character(L, np.array(diagrams)).all()


@pytest.mark.parametrize("name", ["E6", "E7"])
def test_module_character_rejects_only_what_the_draws_reject(name, size_survivors):
    # Every size survivor with h in the coroot lattice whose eigenvalues on
    # the minuscule module form no sl2-character is also rejected by its
    # decisive draw, by the rank mod p of [A | h].
    L = build_lie_algebra(name)
    rejected = 0
    for d, layout in _layouts(L):
        if not _coroot_integral(L, d) or _module_character(L, d):
            continue
        assert orbits._decide(d, layout, orbits.DEFAULT_TRIALS, 1) is None, d
        rejected += 1
    assert rejected == {"E6": 18, "E7": 58}[name]


def test_h_outside_the_coroot_lattice_is_rejected_before_rank_work(monkeypatch):
    L = build_lie_algebra("E6")
    labels = (0, 0, 0, 0, 0, 2)
    weights = L.basis_weights(labels)
    dims = [sum(1 for w in weights if w == k) for k in range(max(weights) + 3)]
    assert dims[2] and dims[1] % 2 == 0
    assert all(dims[k] >= dims[k + 2] for k in range(len(dims) - 2))
    d = WeightedDynkinDiagram(labels)
    assert not _coroot_integral(L, d)

    def no_rank_work(*args):
        raise AssertionError("rank work done")

    monkeypatch.setattr(orbits, "pivot_columns", no_rank_work)
    monkeypatch.setattr(orbits, "_rank", no_rank_work)
    assert orbit(L, d) is None


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_characteristic_element_is_the_cartan_solve(name):
    L = build_lie_algebra(name)
    for labels in product((0, 1, 2), repeat=L.rank):
        augmented = [(*row, v) for row, v in zip(L.rs.cartan, labels)]
        reduced, pivots = gauss_jordan(augmented, L.rank + 1)
        assert pivots == list(range(L.rank))
        coords = tuple(row[L.rank] for row in reduced)
        h = characteristic_element(L, WeightedDynkinDiagram(labels))
        assert h.coeffs[2 * L.npos :] == coords
        assert not any(h.coeffs[: 2 * L.npos])
        # the triple's integer h, read off the Cartan rows alone
        assert orbits._h_support(L, labels) == _scaled_support(h.coeffs)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_e6_sweep_finds_the_published_diagrams(seed):
    L = build_lie_algebra("E6")
    published = {rec.diagram for rec in load_tables().orbits("E6")}
    assert len(published) == 20
    found = {o.diagram.labels for o in enumerate_orbits(L, seed=seed)}
    assert found == published


def test_complete_triple_rejects_bad_pair():
    L = build_lie_algebra("A2")
    e = L.root_vector((1, 0))
    with pytest.raises(ValueError):
        complete_triple(L, L.cartan_element(1), e)  # [h,e] = -e, not 2e


def test_orbit_dimension_zero_orbit_and_parity():
    L = build_lie_algebra("G2")
    assert L.dim - centralizer(L, L.zero()).dim == 0
    dims = [L.dim - centralizer(L, o.triple.e).dim for o in enumerate_orbits(L)]
    assert dims == [6, 8, 10, 12]
    assert all(d % 2 == 0 and d > 0 for d in dims)


def test_enumeration_is_deterministic():
    L = build_lie_algebra("F4")
    a = enumerate_orbits(L, seed=7)
    b = enumerate_orbits(L, seed=7)
    assert [o.diagram for o in a] == [o.diagram for o in b]
    assert [o.triple.e for o in a] == [o.triple.e for o in b]
    assert [o.triple.f for o in a] == [o.triple.f for o in b]


def test_e8_minimal_diagram_is_accepted():
    L = build_lie_algebra("E8")
    assert dynkin_test(L, WeightedDynkinDiagram((0, 0, 0, 0, 0, 0, 0, 1)))
    assert not dynkin_test(L, WeightedDynkinDiagram((1, 1, 1, 1, 1, 1, 1, 1)))


def test_element_constructor_rejects_floats():
    L = build_lie_algebra("A1")
    with pytest.raises(TypeError):
        L.element({0: 0.5})
    with pytest.raises(TypeError):
        0.5 * L.zero()


def test_rank_one_classification():
    L = build_lie_algebra("A1")
    orbits = enumerate_orbits(L)
    assert [o.diagram.labels for o in orbits] == [(2,)]


def test_e7_grading_cross_check():
    # dim g_e = dim g(0) + dim g(1) = 35 for the 35/33 example orbit
    L = build_lie_algebra("E7")
    labels = (0, 0, 0, 1, 0, 1, 0)
    h = characteristic_element(L, WeightedDynkinDiagram(labels))
    assert L.basis_weights(L.cartan_values(h)) == L.basis_weights(labels)
    dims = _weight_dims(L.basis_weights(labels))
    assert dims[0] + dims[1] == 35
    assert sum(dims.values()) == L.dim
