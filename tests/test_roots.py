import hashlib
import json
import random

import pytest

import exorb.algebra
import exorb.roots
from exorb.algebra import LieAlgebra, build_lie_algebra
from exorb.roots import Root, RootSystem, TypeRank, build_root_system

POSITIVE_COUNTS = {
    "A2": 3,
    "A3": 6,
    "B2": 4,
    "C3": 9,
    "D4": 12,
    "G2": 6,
    "F4": 24,
    "E6": 36,
    "E7": 63,
    "E8": 120,
}

ALGEBRA_DIMS = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


def _roots(rs):
    """Every root's coefficients, the positive roots and their negatives."""
    pos = {r.coeffs for r in rs.positive_roots}
    return pos | {tuple(-x for x in c) for c in pos}


@pytest.mark.parametrize("name,count", sorted(POSITIVE_COUNTS.items()))
def test_positive_root_counts(name, count):
    rs = build_root_system(name)
    assert rs.num_positive == count


@pytest.mark.parametrize("name,dim", sorted(ALGEBRA_DIMS.items()))
def test_counts_match_dimension_formula(name, dim):
    rs = build_root_system(name)
    assert rs.num_positive == (dim - rs.rank) // 2


@pytest.mark.parametrize("bad", ["E5", "E9", "F3", "G3", "B1", "D3", "H4"])
def test_inadmissible_types_rejected(bad):
    with pytest.raises(ValueError):
        TypeRank.from_string(bad)


def test_simple_roots_come_first_and_order_is_deterministic():
    rs = build_root_system("F4")
    simple = {r.coeffs for r in rs.positive_roots[:4]}
    assert simple == {
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    }
    heights = [sum(r.coeffs) for r in rs.positive_roots]
    assert heights == sorted(heights)
    again = [r.coeffs for r in build_root_system("F4").positive_roots]
    assert again == [r.coeffs for r in rs.positive_roots]


def test_closed_under_root_addition():
    rs = build_root_system("G2")
    pos = {r.coeffs for r in rs.positive_roots}
    roots = _roots(rs)
    for a in pos:
        for b in pos:
            s = tuple(x + y for x, y in zip(a, b))
            # N(a, b) is nonzero exactly when a + b is a root
            assert (s in roots) == ((a, b) in rs.structconsts)
            if s in roots:
                assert s in pos


@pytest.mark.parametrize("name", ["G2", "F4"])
def test_root_strings_are_unbroken_intervals(name):
    roots = _roots(build_root_system(name))
    for a in roots:
        for b in roots:
            if a == b or a == tuple(-x for x in b):
                continue
            hits = [k for k in range(-6, 7) if tuple(x + k * y for x, y in zip(b, a)) in roots]
            assert hits == list(range(min(hits), max(hits) + 1))


def test_structure_constants_antisymmetric_exhaustive_small():
    for name in ("G2", "F4"):
        rs = build_root_system(name)
        for (a, b), n in rs.structconsts.items():
            assert rs.structconsts[(b, a)] == -n
            assert abs(n) in (1, 2, 3)


def test_structure_constants_antisymmetric_sampled_e8():
    rs = build_root_system("E8")
    rng = random.Random(11)
    pairs = list(rs.structconsts)
    for a, b in rng.sample(pairs, 2000):
        assert rs.structconsts[(b, a)] == -rs.structconsts[(a, b)]
        assert abs(rs.structconsts[(a, b)]) == 1  # simply laced


def test_constant_magnitude_follows_root_string():
    rs = build_root_system("G2")
    roots = _roots(rs)
    for (a, b), n in rs.structconsts.items():
        # p is the largest k with b - k*a a root
        p = 0
        while tuple(x - (p + 1) * y for x, y in zip(b, a)) in roots:
            p += 1
        assert abs(n) == p + 1


def test_a2_simple_pair_constant_is_unit():
    rs = build_root_system("A2")
    assert abs(rs.structconsts[((1, 0), (0, 1))]) == 1


def test_structure_constant_zero_when_sum_not_root():
    rs = build_root_system("G2")
    assert ((3, 2), (1, 1)) not in rs.structconsts
    # no pair of opposite roots: that bracket lies in the Cartan subalgebra
    assert not any(all(x == -y for x, y in zip(a, b)) for a, b in rs.structconsts)


def test_root_negation_and_height():
    r = Root((1, 2, 0))
    with pytest.raises(TypeError):  # no negation: a caller negates the coefficients
        -r
    assert sum(r.coeffs) == 3
    rs = build_root_system("A3")
    assert all(sum(r.coeffs) == 1 for r in rs.positive_roots[:3])


def test_cartan_matrix_values():
    assert build_root_system("G2").cartan == ((2, -1), (-3, 2))
    f4 = build_root_system("F4").cartan
    assert f4[1][2] == -2 and f4[2][1] == -1
    b3 = build_root_system("B3").cartan
    assert b3[1][2] == -2 and b3[2][1] == -1
    c3 = build_root_system("C3").cartan
    assert c3[1][2] == -1 and c3[2][1] == -2


# The first 16 hex digits of the sha256 of each type's sorted Chevalley
# structure constants, as JSON [[alpha], [beta], N_{alpha, beta}] triples.
STRUCTURE_CONSTANT_DIGESTS = {
    "G2": "7d9c49aafa630ae7",
    "F4": "6797b8749ed8d0c7",
    "E6": "ce6e6aceea989d08",
    "E7": "0c6bc2281840156b",
    "E8": "00c7509d15a1410c",
    "A3": "27d39df593831ee7",
    "B3": "31cad6492c39ba78",
    "C3": "b3660c787feb2ad0",
    "D4": "79c9fb0e7d302652",
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_CONSTANT_DIGESTS))
def test_structure_constants_are_pinned(name):
    rs = build_root_system(name)
    triples = sorted([list(a), list(b), n] for (a, b), n in rs.structconsts.items())
    digest = hashlib.sha256(json.dumps(triples).encode()).hexdigest()[:16]
    assert digest == STRUCTURE_CONSTANT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STRUCTURE_CONSTANT_DIGESTS))
def test_one_root_index_in_basis_order(name, monkeypatch):
    # Fresh caches, so that no earlier test has read `structconsts`.
    for module, cached in ((exorb.roots, "_cached_system"), (exorb.algebra, "_cached_algebra")):
        monkeypatch.setattr(module, cached, getattr(module, cached).__wrapped__)
    L = build_lie_algebra(name)
    rs, m = L.rs, L.npos
    assert "structconsts" not in rs.__dict__
    assert len(rs.roots) == 2 * m and [r.coeffs for r in rs.positive_roots] == list(rs.roots[:m])
    for i in range(m):
        assert rs.roots[i + m] == tuple(-x for x in rs.roots[i])
    assert rs.index == {c: i for i, c in enumerate(rs.roots)} and len(rs.index) == 2 * m
    simple = {tuple(int(i == j) for j in range(rs.rank)) for i in range(rs.rank)}
    assert set(rs.roots[: rs.rank]) == simple
    assert rs.roots[m - 1] == tuple(max(column) for column in zip(*rs.roots[:m]))
    # each product [x_i, x_j] = n x_k is listed once, with root k = root i + root j
    assert len({(i, j) for i, j, _, _ in rs.products}) == len(rs.products)
    for i, j, k, n in rs.products:
        assert n and rs.roots[k] == tuple(x + y for x, y in zip(rs.roots[i], rs.roots[j]))
        assert L._adj[i][j] == ((k, n),)
    assert "structconsts" not in rs.__dict__


@pytest.mark.parametrize(
    "name, root, norm, where",
    [
        # -norm(3,1) N / norm(3,2) = -6/4 in N((3,2), -(0,1))
        ("G2", (3, 2), 4, "build"),
        # every constant stays integral, but the coroot is (0, 2/4)
        ("A2", (0, 1), 4, "coroot"),
    ],
)
def test_a_wrong_norm_fails_an_integrality_certificate(monkeypatch, name, root, norm, where):
    real = RootSystem._norm_of
    monkeypatch.setattr(RootSystem, "_norm_of", lambda rs, c: norm if c == root else real(rs, c))
    t = TypeRank.from_string(name)
    if where == "build":
        with pytest.raises(RuntimeError, match="non-integral"):
            RootSystem(t)
        return
    rs = RootSystem(t)
    with pytest.raises(RuntimeError, match="non-integral"):
        rs.coroot_coords(root)
    with pytest.raises(RuntimeError, match="non-integral"):
        LieAlgebra(rs)
