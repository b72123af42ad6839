import hashlib
import json
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from exorb import _modp, orbits
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
from exorb.linalg import RatMatrix, _solve_rows, rank
from exorb.refdata import load_tables


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


def _type_a_expected_diagrams(rank):
    out = set()
    for parts in _partitions(rank + 1):
        if set(parts) != {1}:
            out.add(_diagram_of_partition(parts))
    return out


@pytest.mark.parametrize("rank", [2, 3])
def test_type_a_matches_partition_classification(rank):
    L = build_lie_algebra(f"A{rank}")
    orbits = enumerate_orbits(L)
    assert {o.diagram.labels for o in orbits} == _type_a_expected_diagrams(rank)


def test_diagram_validation_and_parsing():
    with pytest.raises(ValueError):
        WeightedDynkinDiagram((0, 3))
    d = WeightedDynkinDiagram.from_string("0,1,0,2")
    assert d.labels == (0, 1, 0, 2)
    assert WeightedDynkinDiagram.from_string("102").labels == (1, 0, 2)
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
            roots = RatMatrix([L._root_of_index[i] for i in supp])
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
    monkeypatch.setattr(orbits, "bracket", lambda L, a, b: L.zero())
    with pytest.raises(RuntimeError) as info:
        complete_triple(L, h, e)
    assert not isinstance(info.value, TripleInsolubleError)


def test_dynkin_test_does_not_read_failed_verification_as_rejection(monkeypatch):
    L = build_lie_algebra("G2")
    monkeypatch.setattr(orbits, "bracket", lambda L, a, b: L.zero())
    with pytest.raises(RuntimeError):
        dynkin_test(L, WeightedDynkinDiagram((2, 2)))


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
    assert len(calls) == 0


def _no_mod_p_rejection(monkeypatch):
    """Give every draw rank_p [A | h] = rank_p A, so no draw is rejected mod p."""
    real = orbits._ranks_mod_p
    monkeypatch.setattr(
        orbits, "_ranks_mod_p", lambda layout, a: (real(layout, a)[0],) * 2
    )


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_mod_p_verdict_is_the_exact_verdict(name, monkeypatch):
    # The decisive draw of every label vector past the size filters: one
    # rank mod p rejects it exactly when its triple is insoluble over Q.
    # Both ranks come from one elimination and equal the separate ones.
    L = build_lie_algebra(name)
    real = orbits._ranks_mod_p
    draws = 0
    for labels in product((0, 1, 2), repeat=L.rank):
        d = WeightedDynkinDiagram(labels)
        layout = orbits._layout(L, d) if any(labels) else None
        if layout is None:
            continue
        with monkeypatch.context() as m:
            _no_mod_p_rejection(m)
            e = orbits._decide(L, d, layout, orbits.DEFAULT_TRIALS, 1)
        assert e is not None
        coeffs = np.array([int(e.coeffs[i]) for i in layout.g2], dtype=np.int64)
        a = np.tensordot(coeffs, layout.down, axes=1)
        augmented = np.column_stack([a, layout.hcol])
        rank_a, rank_ah = real(layout, a)
        assert (rank_a, rank_ah) == (
            rank_mod(a, PRIMES[0]),
            rank_mod(augmented, PRIMES[0]),
        )
        assert rank_a == len(layout.neg2)
        insoluble = orbits._settle(L, layout, e) is None
        assert (rank_ah > rank_a) == insoluble, labels
        draws += 1
    assert draws == {"F4": 20, "E6": 137}[name]


@pytest.mark.parametrize("name", ["F4", "E6"])
def test_ad_e_has_one_rank_on_g_minus_2_and_on_g0(name, monkeypatch):
    # kappa([e, y], x) = -kappa(y, [e, x]) makes ad e : g(-2) -> g(0) the
    # transpose of ad e : g(0) -> g(2) up to the Killing pairings, so every
    # decisive draw has the same rank on both, at both primes.
    L = build_lie_algebra(name)
    _no_mod_p_rejection(monkeypatch)
    for labels in product((0, 1, 2), repeat=L.rank):
        d = WeightedDynkinDiagram(labels)
        layout = orbits._layout(L, d) if any(labels) else None
        if layout is None:
            continue
        e = orbits._decide(L, d, layout, orbits.DEFAULT_TRIALS, 1)
        coeffs = np.array([int(e.coeffs[i]) for i in layout.g2], dtype=np.int64)
        down = np.tensordot(coeffs, layout.down, axes=1)
        up_blocks = orbits._ad_blocks(L, layout.g2, layout.g0, layout.g2)
        up = np.tensordot(coeffs, up_blocks, axes=1)
        for p in PRIMES:
            assert rank_mod(down, p) == rank_mod(up, p) == len(layout.g2), labels


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
    # Every rank the walk takes, of ad e : g(0) -> g(2) for e the unit sum
    # over the kept roots and the candidate, equals the dense rank of the
    # same sum of `_ad_blocks`; the walk itself takes no dense rank.
    L = build_lie_algebra(name)
    real = orbits.sparse_rank_mod
    taken = []

    def sparse_rank(rows, p):
        # the kept roots and the candidate q are read off the walk's frame
        walk = sys._getframe(1).f_locals
        r = real(rows, p)
        taken.append((walk["layout"], walk["kept"] + [walk["q"]], p, r))
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
        m.setattr(orbits, "sparse_rank_mod", sparse_rank)
        m.setattr(orbits, "_represent", represent)
        assert len(enumerate_orbits(L)) == {"F4": 15, "E6": 20}[name]
    assert len(taken) == {"F4": 106, "E6": 227}[name]
    blocks = {}
    for layout, roots, p, r in taken:
        g2 = tuple(layout.g2)
        if g2 not in blocks:
            blocks[g2] = orbits._ad_blocks(L, layout.g2, layout.g0, layout.g2)
        assert p == PRIMES[0]
        assert r == rank_mod(blocks[g2][roots].sum(axis=0), p), (g2, roots)


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
    monkeypatch.setattr(orbits, "sparse_rank_mod", no_rank_work)
    assert orbit(L, WeightedDynkinDiagram(labels)) is None


@pytest.mark.parametrize("name", ["F4", "E6", "E7"])
def test_layout_is_none_exactly_when_the_sizes_break_a_filter(name):
    # Sizes counted from basis_weights, with every k >= 0 checked: E6
    # (1,1,2,1,0,2) has dim g(9) = 0 < dim g(11) = 1.
    L = build_lie_algebra(name)
    for labels in product((0, 1, 2), repeat=L.rank):
        weights = L.basis_weights(labels)
        sizes = _weight_dims(weights)
        dims = [sizes.get(k, 0) for k in range(max(weights) + 3)]
        broken = (
            not dims[2]
            or dims[1] % 2
            or any(dims[k] < dims[k + 2] for k in range(len(dims) - 2))
        )
        layout = orbits._layout(L, WeightedDynkinDiagram(labels))
        assert (layout is None) == broken, labels
        if layout is not None:
            assert layout.g0 == [i for i, w in enumerate(weights) if w == 0]
            assert layout.g2 == [i for i, w in enumerate(weights) if w == 2]
            assert layout.neg2 == [i for i, w in enumerate(weights) if w == -2]


@pytest.mark.parametrize("name", ["G2", "F4", "E6"])
def test_characteristic_element_is_the_cartan_solve(name):
    L = build_lie_algebra(name)
    for labels in product((0, 1, 2), repeat=L.rank):
        coords = _solve_rows([(*row, v) for row, v in zip(L.rs.cartan, labels)], L.rank)
        h = characteristic_element(L, WeightedDynkinDiagram(labels))
        assert h.coeffs[2 * L.npos :] == coords
        assert not any(h.coeffs[: 2 * L.npos])


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
