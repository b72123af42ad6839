import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from exorb.algebra import (
    Element,
    Subspace,
    _bracket_supp,
    _closure,
    _torus_grading,
    bracket,
    build_lie_algebra,
    centralizer,
    derived_subalgebra,
    quotient_with_action,
    subalgebra_closure,
)
from exorb.linalg import RatMatrix, _Echelon, member, rank, rref
from exorb.orbits import characteristic_element, WeightedDynkinDiagram
from gauss_jordan import gauss_jordan
from in_grading import centralizer_in, closure_in, derived_in

DIMS = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}


@pytest.mark.parametrize("name,dim", sorted(DIMS.items()))
def test_dimensions(name, dim):
    assert build_lie_algebra(name).dim == dim


def _random_element(L, rng, sparsity=4):
    entries = {
        rng.randrange(L.dim): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        for _ in range(sparsity)
    }
    return L.element(entries)


def test_bracket_antisymmetric_and_bilinear():
    L = build_lie_algebra("G2")
    rng = random.Random(1)
    for _ in range(30):
        a, b = _random_element(L, rng), _random_element(L, rng)
        assert bracket(L, a, a).is_zero()
        assert bracket(L, a, b) == -1 * bracket(L, b, a)
        c = _random_element(L, rng)
        lhs = bracket(L, a + b, c)
        assert lhs == bracket(L, a, c) + bracket(L, b, c)
        s = Fraction(3, 2)
        assert bracket(L, s * a, c) == s * bracket(L, a, c)


def _ad_homomorphism_failures(adj):
    """The pairs i < j with ad [x_i, x_j] != [ad x_i, ad x_j], read from `adj`.

    Entry (k, s) of [x_i, [x_j, x_k]] - [x_j, [x_i, x_k]] - [[x_i, x_j], x_k]
    is summed at key k * dim + s, over only the k that one of the three
    terms can reach.  ad is a homomorphism on every basis pair exactly when
    Jacobi holds on every basis triple.
    """
    dim, failures = len(adj), []
    for i, j in combinations(range(dim), 2):
        out = {}
        get = out.get
        for outer, inner, sign in ((adj[i], adj[j], 1), (adj[j], adj[i], -1)):
            for k, col in inner.items():
                base = k * dim
                for t, n in col:
                    for s, c in outer.get(t, ()):
                        out[base + s] = get(base + s, 0) + sign * n * c
        for m, n in adj[i].get(j, ()):
            for k, col in adj[m].items():
                base = k * dim
                for s, c in col:
                    out[base + s] = get(base + s, 0) - n * c
        if any(out.values()):
            failures.append((i, j))
    return failures


@pytest.mark.parametrize("name", ["G2", "F4", "E6", "E7", "E8"])
def test_jacobi_exhaustive_on_every_exceptional_type(name):
    assert _ad_homomorphism_failures(build_lie_algebra(name)._adj) == []


def test_jacobi_certificate_fails_on_one_flipped_constant():
    L = build_lie_algebra("F4")
    adj = [dict(row) for row in L._adj]
    # the first b with [x_0, x_b] = n x_t for a root vector x_t
    b, ((t, n),) = next((b, hits) for b, hits in adj[0].items() if hits[0][0] < L._hbase)
    adj[0][b] = ((t, -n),)
    assert _ad_homomorphism_failures(adj)


@pytest.mark.parametrize("index", [-1, 14, 0.5, 1.0, "3"])
def test_element_refuses_a_basis_index_out_of_range(index):
    # -1 would wrap round to the last Cartan vector of G2 (dim 14); an index
    # that is not an int, even 1.0, which equals one, is no basis index.
    L = build_lie_algebra("G2")
    with pytest.raises(ValueError, match="basis index out of range"):
        L.element({index: 1})
    with pytest.raises(ValueError, match="basis index out of range"):
        L.basis_element(index)


def test_cartan_acts_by_weights():
    L = build_lie_algebra("F4")
    rs = L.rs
    for i in range(rs.rank):
        h = L.cartan_element(i)
        for r in rs.roots[:8]:
            x = L.root_vector(r)
            out = bracket(L, h, x)
            assert out == rs.pairing(r, i) * x


def test_opposite_root_vectors_give_coroot():
    L = build_lie_algebra("G2")
    for r in L.rs.roots[: L.npos]:
        x = L.root_vector(r)
        y = L.root_vector(tuple(-c for c in r))
        h = bracket(L, x, y)
        assert h == L.coroot_element(r)
        assert bracket(L, h, x) == 2 * x  # <r, r^vee> = 2


def test_bracket_rejects_dimension_mismatch():
    L = build_lie_algebra("A2")
    other = build_lie_algebra("A3")
    with pytest.raises(ValueError):
        bracket(L, L.zero(), other.zero())


def test_centralizer_of_zero_is_everything():
    L = build_lie_algebra("G2")
    assert centralizer(L, L.zero()).dim == L.dim


def test_centralizer_is_bracket_closed():
    L = build_lie_algebra("G2")
    rng = random.Random(4)
    for _ in range(5):
        c = centralizer(L, _random_element(L, rng))
        derived_subalgebra(L, c)  # raises if not closed


def test_centralizer_dimensions_on_root_vectors():
    L = build_lie_algebra("G2")
    # long-root vector: minimal orbit, dim 6, so the centralizer has dim 8
    e_long = L.root_vector((3, 2))
    assert centralizer(L, e_long).dim == 8
    e_short = L.root_vector((2, 1))
    assert centralizer(L, e_short).dim == 6


def test_simple_algebra_is_perfect():
    for name in ("A2", "G2"):
        L = build_lie_algebra(name)
        g = Subspace.full(L)
        assert derived_subalgebra(L, g).dim == L.dim


def test_derived_subalgebra_is_an_ideal_of_s():
    L = build_lie_algebra("G2")
    e = L.root_vector((2, 1))
    s = centralizer(L, e)
    d = derived_subalgebra(L, s)
    assert d.dim < s.dim
    for row in d.basis.data:
        assert member(row, s.basis)
    for srow in s.basis.data:
        for drow in d.basis.data:
            img = bracket(L, Element(srow), Element(drow))
            assert member(img.coeffs, d.basis)


def test_derived_subalgebra_rejects_non_subalgebra():
    L = build_lie_algebra("A2")
    # span of two root vectors whose bracket escapes the span
    s = Subspace.from_rows(
        L, [L.root_vector((1, 0)).coeffs, L.root_vector((0, 1)).coeffs]
    )
    with pytest.raises(ValueError):
        derived_subalgebra(L, s)


def test_derived_subalgebra_checks_brackets_into_full_weights():
    # s = <x_b, x_{a+b}, y_b, h_b> for the simple roots a, b of A2, graded by
    # the labels (1, 1).  In pivot order the pair (x_b, h_b) comes before
    # (x_{a+b}, y_b); its bracket fills the weight-1 part <x_b>, and the
    # later bracket, a multiple of x_a, lands in that full weight outside s.
    L = build_lie_algebra("A2")
    weights = L.basis_weights((1, 1))
    xb, xab, yb, hb = (
        L.root_vector((0, 1)),
        L.root_vector((1, 1)),
        L.root_vector((0, -1)),
        L.coroot_element((0, 1)),
    )
    s = Subspace.from_rows(L, [v.coeffs for v in (xb, xab, yb, hb)])
    assert s.row_weights(weights).count(1) == 1
    fill, escape = bracket(L, xb, hb), bracket(L, xab, yb)
    assert not fill.is_zero() and s.contains(fill)
    assert {weights[i] for i in escape.support()} == {1}
    assert not s.contains(escape)
    with pytest.raises(ValueError, match="not closed"):
        derived_in(L, s, weights)
    with pytest.raises(ValueError, match="not closed"):
        derived_subalgebra(L, s)


def test_derived_subalgebra_checks_brackets_into_weights_that_s_lacks():
    # s = <x_a, x_b> in A2, graded by the labels (1, 1).  s has no row of
    # weight 2, but L has, x_{a+b}: the bracket of the pair is formed and
    # escapes s.
    L = build_lie_algebra("A2")
    weights = L.basis_weights((1, 1))
    s = Subspace.from_rows(
        L, [L.root_vector((1, 0)).coeffs, L.root_vector((0, 1)).coeffs]
    )
    assert s.row_weights(weights) == (1, 1) and 2 in weights
    with pytest.raises(ValueError, match="not closed"):
        derived_in(L, s, weights)
    with pytest.raises(ValueError, match="not closed"):
        derived_subalgebra(L, s)


def test_derived_subalgebra_brackets_every_pair_that_can_be_nonzero(monkeypatch):
    # In the ad h grading, in the finer torus grading of the analyses and in
    # the grading of g_e's own rows, which the public function uses, a pair
    # of weight sum t is skipped exactly when t is no weight of L, or when
    # s(t) = g(t) and the brackets formed into t already span s(t).  Every
    # pair into a weight with s(t) != g(t) is formed, also where s has no
    # row of weight t.
    import exorb.algebra

    kernel = exorb.algebra._bracket_supp
    formed = {}

    def recording(adj, a, b):
        v = kernel(adj, a, b)
        formed[min(a), min(b)] = dict(v)
        return v

    def span_dim(vectors):
        return rank(RatMatrix([[v.get(k, 0) for k in range(L.dim)] for v in vectors], L.dim))

    monkeypatch.setattr(exorb.algebra, "_bracket_supp", recording)
    skipped = whole_skipped = 0
    for L, o in _triple_orbits():
        e, labels = o.triple.e, o.diagram.labels
        ge = centralizer(L, e)
        own = _torus_grading(L, ge._row_at.values())
        for weights in (L.basis_weights(labels), _torus_grading(L, [e._supp]), own):
            row_w = ge.row_weights(weights)
            cap, size = Counter(row_w), Counter(weights)
            into = defaultdict(list)  # t -> the pairs of weight sum t, in loop order
            for (p, a), (q, b) in combinations(zip(ge._row_at, row_w), 2):
                into[a + b].append((p, q))
            formed.clear()
            if weights is own:
                derived_subalgebra(L, ge)
            else:
                derived_in(L, ge, weights)
            for t, pairs in into.items():
                made = [pair for pair in pairs if pair in formed]
                if t not in size:
                    assert not made
                elif cap[t] < size[t]:
                    assert made == pairs
                else:
                    k = len(made)
                    assert made == pairs[:k] and k > 0
                    images = [formed[pair] for pair in made]
                    assert span_dim(images[:-1]) < cap[t]
                    assert k == len(pairs) or span_dim(images) == cap[t]
                    whole_skipped += len(pairs) - k
                skipped += len(pairs) - len(made)
    assert whole_skipped > 0 and skipped > whole_skipped


@st.composite
def _echelon_cases(draw):
    cols = draw(st.integers(1, 7))
    entry = st.integers(-9, 9)
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    v = draw(st.lists(entry, min_size=cols, max_size=cols))
    if rows and draw(st.booleans()):  # an integer combination of the rows
        coeffs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
        v = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(cols)]
    return cols, rows, v


@given(_echelon_cases())
@settings(max_examples=300, deadline=None)
def test_echelon_is_the_rref_and_reduces_exactly_the_span(case):
    # Integer rows with negative and non-unit leading entries, stored
    # fraction-free as primitive rows: the canonical rows are the RREF of
    # the rows, and a vector reduces to nothing exactly when it lies in
    # their span.
    cols, rows, v = case
    span = _Echelon()
    for r in rows:
        residual = span.reduce({k: x for k, x in enumerate(r) if x})
        if residual:
            stored = span.store(residual)
            assert stored[min(stored)] > 0 and gcd(*stored.values()) == 1
    basis, pivots = gauss_jordan(rows, cols)
    assert [[r.get(k, 0) for k in range(cols)] for r in span.canonical_rows()] == basis
    assert span.canonical_rows() == span.canonical_rows()
    in_span = len(gauss_jordan(rows + [v], cols)[1]) == len(pivots)
    assert (not span.reduce({k: x for k, x in enumerate(v) if x})) == in_span


def test_closure_of_nothing_is_zero():
    L = build_lie_algebra("A2")
    assert subalgebra_closure(L, []).dim == 0


def test_simple_root_vectors_generate_everything():
    L = build_lie_algebra("G2")
    gens = []
    for i in range(L.rank):
        simple = L.rs.roots[i]
        gens.append(L.root_vector(simple))
        gens.append(L.root_vector(tuple(-c for c in simple)))
    assert subalgebra_closure(L, gens).dim == L.dim


def test_closure_respects_within_bound():
    L = build_lie_algebra("G2")
    e = L.root_vector((3, 2))
    c = centralizer(L, e)
    outside = L.root_vector((0, -1))  # [e, y] lands on the root (3,1)
    assert not bracket(L, e, outside).is_zero()
    with pytest.raises(ValueError):
        subalgebra_closure(L, [outside], within=c)


def test_centralizer_of_a_sparse_row_is_that_of_the_element():
    L = build_lie_algebra("F4")
    # `L.element` refuses the bad indices of a row
    # (`test_element_refuses_a_basis_index_out_of_range`).
    e = L.root_vector(L.rs.roots[L.npos - 1]) + L.root_vector(L.rs.roots[L.npos - 2])
    weights = L.basis_weights((0, 0, 0, 1))
    row = {i: 3 for i in e.support()}  # an integer multiple of e
    assert centralizer(L, L.element(row)) == centralizer(L, e) == centralizer_in(L, e, weights)


def test_closure_refuses_a_within_from_another_algebra():
    # B2 and C2 both have dimension 10, so no length check can catch it.
    B2, C2 = build_lie_algebra("B2"), build_lie_algebra("C2")
    gens = [B2.root_vector(B2.rs.roots[0])]
    with pytest.raises(ValueError, match="subspace belongs to a different algebra"):
        subalgebra_closure(B2, gens, within=Subspace.full(C2))
    assert subalgebra_closure(B2, gens, within=Subspace.full(B2)).dim == 1


def test_quotient_with_action_trivial_and_errors():
    L = build_lie_algebra("G2")
    e = L.root_vector((2, 1))
    h = characteristic_element(L, WeightedDynkinDiagram((1, 0)))
    s = centralizer(L, e)
    assert quotient_with_action(L, s, s, h) == (0, ())
    t = derived_subalgebra(L, s)
    dim, weights = quotient_with_action(L, s, t, h)
    assert dim == 1 and weights == (2,)
    with pytest.raises(ValueError):
        quotient_with_action(L, t, s, h)  # containment fails
    x = L.root_vector((1, 0))
    with pytest.raises(ValueError):
        quotient_with_action(L, s, t, x)  # not a Cartan element


def test_quotient_with_action_reads_the_values_on_the_simple_roots():
    L = build_lie_algebra("A2")
    full, zero = Subspace.full(L), Subspace.zero(L)
    # (2 h_1 + h_2) / 3 has coordinates in thirds but values (1, 0).
    h = Fraction(2, 3) * L.cartan_element(0) + Fraction(1, 3) * L.cartan_element(1)
    assert L.cartan_values(h) == (1, 0)
    assert quotient_with_action(L, full, zero, h) == (8, (-1, -1, 0, 0, 0, 0, 1, 1))
    # (h_1 + h_2) / 2 has values (1/2, 1/2): the highest root has weight 1,
    # the simple roots 1/2.
    half = Fraction(1, 2) * (L.cartan_element(0) + L.cartan_element(1))
    assert L.cartan_values(half) == (Fraction(1, 2), Fraction(1, 2))
    with pytest.raises(ValueError, match="integer eigenvalues"):
        quotient_with_action(L, full, zero, half)


@pytest.mark.parametrize("name", ["G2", "F4", "E7"])
def test_cartan_values_are_the_fraction_sums(name):
    # The integer sum over one denominator equals the sum of Fractions.
    L = build_lie_algebra(name)
    rng = random.Random(7)
    for _ in range(50):
        c = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(L.rank)]
        c[rng.randrange(L.rank)] = Fraction(0)
        h = L.element({L.dim - L.rank + j: x for j, x in enumerate(c)})
        assert L.cartan_values(h) == tuple(
            sum(c[j] * L.rs.cartan[i][j] for j in range(L.rank)) for i in range(L.rank)
        )
    assert L.cartan_values(L.zero()) == (0,) * L.rank
    with pytest.raises(ValueError, match="not in the Cartan subalgebra"):
        L.cartan_values(L.cartan_element(0) + L.root_vector(L.rs.roots[0]))


def test_cartan_values_refuse_an_element_of_the_wrong_length():
    G2, F4 = build_lie_algebra("G2"), build_lie_algebra("F4")
    for elt in (F4.zero(), F4.cartan_element(0)):
        with pytest.raises(ValueError, match="dimension mismatch"):
            G2.cartan_values(elt)


def test_quotient_rejects_unstable_spaces():
    L = build_lie_algebra("A2")
    h = characteristic_element(L, WeightedDynkinDiagram((2, 2)))
    line = Subspace.from_rows(
        L, [(L.root_vector((1, 0)) + L.cartan_element(0)).coeffs]
    )
    full = Subspace.full(L)
    with pytest.raises(ValueError):
        quotient_with_action(L, full, line, h)


def test_subspace_basis_is_canonical():
    L = build_lie_algebra("G2")
    e = L.root_vector((1, 1))
    c = centralizer(L, e)
    reduced, pivots = rref(c.basis)
    assert reduced == c.basis
    assert len(pivots) == c.dim == rank(c.basis)


def test_contains_reduces_against_the_canonical_basis(monkeypatch):
    import exorb.algebra

    L = build_lie_algebra("F4")
    rng = random.Random(11)
    e = L.root_vector(L.rs.roots[L.npos - 1])
    s = centralizer(L, e)
    inside = []
    for _ in range(10):
        v = L.zero()
        for row in rng.sample(s.basis.data, 4):
            v = v + Fraction(rng.randint(-5, 5), rng.randint(1, 3)) * Element(row)
        inside.append(v)
    probes = inside + [_random_element(L, rng, sparsity=3) for _ in range(30)]
    expected = [member(v.coeffs, s.basis) for v in probes]
    assert any(expected) and not all(expected)

    calls = []
    # no elimination: algebra makes no echelon, through the kernel or not
    monkeypatch.setattr(exorb.algebra, "_echelon", calls.append)
    monkeypatch.setattr(exorb.algebra, "_Echelon", lambda: calls.append(None))
    assert [s.contains(v) for v in probes] == expected
    assert calls == []


def test_subspace_rejects_a_basis_that_is_not_canonical():
    # Sparse rows are checked as given; dense rows go through `from_rows`,
    # which reduces the same spans to their canonical basis.
    L = build_lie_algebra("A2")
    x, y = sorted(
        (L.root_vector((1, 0)).coeffs, L.root_vector((0, 1)).coeffs), reverse=True
    )  # x has the smaller pivot
    canonical = Subspace(L, [_sparse(x), _sparse(y)])
    for rows in (
        [y, x],  # pivots out of order
        [[2 * c for c in x], y],  # pivot entry 2
        [[a + b for a, b in zip(x, y)], y],  # x + y is not 0 at y's pivot
    ):
        with pytest.raises(ValueError):
            Subspace(L, [_sparse(r) for r in rows])
        assert Subspace.from_rows(L, rows) == canonical
    assert canonical.dim == 2


def _sparse(coeffs):
    return {i: c for i, c in enumerate(coeffs) if c}


def test_sparse_rows_are_checked_like_the_matrix():
    L = build_lie_algebra("A2")
    x, y = sorted(
        (_sparse(L.root_vector((1, 0)).coeffs), _sparse(L.root_vector((0, 1)).coeffs)),
        key=min,
    )  # x has the smaller pivot
    with pytest.raises(ValueError):
        Subspace(L, [y, x])  # pivots out of order
    with pytest.raises(ValueError):
        Subspace(L, [{k: 2 * c for k, c in x.items()}])  # pivot entry 2
    with pytest.raises(ValueError):
        Subspace(L, [{**x, **y}, y])  # x + y is not 0 at y's pivot
    with pytest.raises(ValueError):
        Subspace(L, [{**x, L.dim: Fraction(1)}])  # index outside the algebra
    with pytest.raises(ValueError):
        Subspace(L, [{**x, min(y): Fraction(0)}])  # a stored zero entry
    for row in ({0.5: 1}, {1.0: 1}, {"3": 1}, {**x, "3": 1}):  # an index that is not an int
        with pytest.raises(ValueError, match="reduced row-echelon"):
            Subspace(L, [row])
    assert Subspace(L, [x, y]).dim == 2


def test_subspace_refuses_a_float_entry_like_from_rows():
    # A float is refused with the TypeError of `from_rows`, `Element` and
    # `L.element`, also where it equals the pivot entry 1 or sits beside ints.
    L = build_lie_algebra("A2")
    message = "floating point is not allowed; use Fraction or int"
    for rows in ([{0: 1.0}], [{0: 1, 1: 0.5}], [{0: 2.0}], [{0: 1}, {1: Fraction(1), 2: 0.0}]):
        with pytest.raises(TypeError, match=message):
            Subspace(L, rows)
    with pytest.raises(TypeError, match=message):
        Subspace.from_rows(L, [[1.0] + [0] * (L.dim - 1)])
    assert Subspace(L, [{0: 1, 1: Fraction(1, 2)}]).dim == 1


def _is_reduced_echelon(rows, dim):
    """Each condition of a reduced row-echelon basis, checked on its own."""
    pivots = [min(r, default=None) for r in rows]
    return (
        None not in pivots
        and pivots == sorted(set(pivots))
        and all(r[p] == 1 for r, p in zip(rows, pivots))
        and all(x != 0 for r in rows for x in r.values())
        and all(0 <= k < dim for r in rows for k in r)
        and all(k == p or k not in pivots for r, p in zip(rows, pivots) for k in r)
    )


@st.composite
def _near_echelon_bases(draw, dim=8):
    """A reduced echelon basis of sparse rows, then at most one defect."""
    entries = st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(-4, 3), Fraction(5)])
    pivots = sorted(draw(st.sets(st.integers(0, dim - 1), max_size=4)))
    rows = []
    for p in pivots:
        free = [k for k in range(p + 1, dim) if k not in pivots]
        rest = draw(st.dictionaries(st.sampled_from(free), entries)) if free else {}
        rows.append({p: draw(st.sampled_from([1, Fraction(1)])), **rest})
    defect = draw(st.sampled_from(["none", "order", "pivot", "zero", "range", "other", "empty"]))
    if rows and defect != "none":
        i = draw(st.integers(0, len(rows) - 1))
        r, p = rows[i], pivots[i]
        if defect == "order" and len(rows) > 1:
            rows[i], rows[i - 1] = rows[i - 1], rows[i]
        elif defect == "pivot":
            r[p] = 2
        elif defect == "zero":
            r[draw(st.integers(p, dim - 1))] = 0
        elif defect == "range":
            r[draw(st.sampled_from([dim, dim + 3]))] = 1
        elif defect == "other":
            r[draw(st.sampled_from(pivots))] = -1
        elif defect == "empty":
            rows.insert(i, {})
    return rows


@given(_near_echelon_bases())
@settings(max_examples=300, deadline=None)
def test_subspace_accepts_exactly_the_reduced_echelon_bases(rows):
    # One pass per row checks what the definition checks one condition at
    # a time; an accepted basis keeps its rows, integral entries as ints,
    # and hands the layers the integer support of each row (`_echelons`).
    L = build_lie_algebra("A2")
    if not _is_reduced_echelon(rows, L.dim):
        with pytest.raises(ValueError, match="reduced row-echelon"):
            Subspace(L, rows)
        return
    s = Subspace(L, rows)
    assert list(s._row_at.values()) == rows
    spans = s._echelons((0,) * L.dim).values()
    supports = [r for span in spans for r in span.rows.values()]
    assert len(supports) == len(rows)
    for row, ints in zip(s._row_at.values(), supports):
        assert all(type(x) is int for x in row.values() if x.denominator == 1)
        den = lcm(*(x.denominator for x in row.values()))
        assert ints == {k: x * den for k, x in row.items()}
        assert all(type(x) is int for x in ints.values())


def test_sparse_and_matrix_bases_agree():
    L = build_lie_algebra("F4")
    e = L.root_vector(L.rs.roots[L.npos - 1])
    c = centralizer(L, e)
    rows = [_sparse(row) for row in c.basis.data]
    sparse, dense = Subspace(L, rows), Subspace.from_rows(L, c.basis.data)
    assert sparse == dense == c
    assert hash(sparse) == hash(dense) == hash(c)
    assert sparse.basis == dense.basis and sparse.dim == dense.dim
    assert sparse != Subspace(L, rows[1:])
    assert sparse != Subspace(build_lie_algebra("E6"), rows)
    eye = [[int(i == j) for j in range(L.dim)] for i in range(L.dim)]
    assert Subspace.full(L) == Subspace.from_rows(L, eye) == Subspace(L, map(_sparse, eye))
    assert Subspace.zero(L) == Subspace.from_rows(L, []) == Subspace(L, [])
    with pytest.raises(AttributeError):
        sparse.amb = build_lie_algebra("E6")


def _triple_orbits():
    from exorb.orbits import (
        NilpotentOrbit,
        complete_triple,
        enumerate_orbits,
        find_representative,
    )
    from exorb.refdata import load_tables

    for name in ("G2", "F4"):
        L = build_lie_algebra(name)
        for o in enumerate_orbits(L):
            yield L, o
    L = build_lie_algebra("E6")
    tables = load_tables()
    for label in ("A1", "2A2+A1", "D4(a1)", "E6"):
        d = WeightedDynkinDiagram(tables.by_label("E6", label).diagram)
        e = find_representative(L, d)
        h = characteristic_element(L, d)
        yield L, NilpotentOrbit(d, complete_triple(L, h, e))


def test_graded_layers_agree_with_the_trivial_grading():
    # The layers in the ad h grading and in the trivial one (one block) equal
    # the public functions, each in the grading of its own input.
    checked = 0
    for L, o in _triple_orbits():
        e, h = o.triple.e, o.triple.h
        weights = L.basis_weights(o.diagram.labels)
        trivial = L.basis_weights((0,) * L.rank)
        ge = centralizer(L, e)
        assert ge.basis == centralizer_in(L, e, weights).basis == centralizer_in(L, e, trivial).basis
        derived = derived_subalgebra(L, ge)
        assert derived.basis == derived_in(L, ge, weights).basis == derived_in(L, ge, trivial).basis
        if L.rank <= 4:  # independent oracle: rref of every pairwise bracket
            basis = ge.basis_elements()
            images = [L.zero().coeffs] + [
                bracket(L, a, b).coeffs for a, b in combinations(basis, 2)
            ]
            assert derived == Subspace.from_rows(L, images)
        graded = list(zip(ge.basis.data, ge.row_weights(weights)))
        upper = Subspace.from_rows(L, [r for r, w in graded if w >= 1] or [L.zero().coeffs])
        gens = [Element(r) for r, w in graded if w == 1]
        closure = subalgebra_closure(L, gens, within=upper)
        assert closure == closure_in(L, gens, upper, weights) == closure_in(L, gens, None, trivial)
        assert closure == subalgebra_closure(L, gens) == closure_in(L, gens, upper, trivial)
        assert quotient_with_action(L, ge, derived, h) == quotient_with_action(
            L, centralizer_in(L, e, trivial), derived_in(L, ge, trivial), h
        )
        checked += 1
    assert checked == 4 + 15 + 4


def test_centralizer_skips_no_block_where_neither_dual_is_onto(monkeypatch):
    # Without `sl2`, `_centralizer` is valid for any homogeneous a, so it
    # eliminates every block that has a target, in a given grading and in
    # the public function's, a's own torus grading; the kernels are equal.
    # Cartan elements and x_a + y_a (a of weight 0) have weight d = 0; the
    # e (d > 0) and f (d < 0) of a triple, in its torus grading, have blocks
    # that sl2 theory would leave unreduced.
    import exorb.algebra

    eliminated = []
    real = exorb.algebra._ad_rows

    def recording(adj, a, dom):
        eliminated.append(tuple(dom))
        return real(adj, a, dom)

    monkeypatch.setattr(exorb.algebra, "_ad_rows", recording)

    def with_a_target(a, weights):
        d = weights[a.support()[0]]
        blocks = defaultdict(list)
        for j, w in enumerate(weights):
            blocks[w].append(j)
        return [tuple(b) for k, b in blocks.items() if k + d in blocks]

    def check(L, a, weights):
        eliminated.clear()
        assert centralizer_in(L, a, weights) == centralizer(L, a)
        own = _torus_grading(L, [a._supp])
        assert eliminated == with_a_target(a, weights) + with_a_target(a, own)

    for name in ("G2", "F4", "E6"):
        L = build_lie_algebra(name)
        fine = L.basis_weights(tuple(10**i for i in range(L.rank)))
        # no root vanishes on the principal characteristic
        generic = characteristic_element(L, WeightedDynkinDiagram((2,) * L.rank))
        for weights in (fine, L.basis_weights((1,) + (0,) * (L.rank - 1))):
            for a in [L.cartan_element(i) for i in range(L.rank)] + [generic]:
                check(L, a, weights)
        for i in range(L.rank):
            alpha = tuple(int(i == j) for j in range(L.rank))
            a = L.root_vector(alpha) + L.root_vector(tuple(-x for x in alpha))
            check(L, a, L.basis_weights(tuple(0 if j == i else j + 1 for j in range(L.rank))))
    checked = 0
    for L, o in _triple_orbits():
        if L.rank > 4:
            continue
        labels = o.diagram.labels
        for a in (o.triple.e, o.triple.f):
            for weights in (L.basis_weights(labels), _torus_grading(L, [o.triple.e._supp])):
                check(L, a, weights)
        checked += 1
    assert checked == 4 + 15


def test_gradings_are_checked():
    L = build_lie_algebra("G2")
    weights = L.basis_weights((1, 0))
    x = L.root_vector((1, 0))
    y = L.root_vector((0, 1))
    mixed = Subspace.from_rows(L, [(x + y).coeffs])
    with pytest.raises(ValueError, match="wrong length"):
        mixed.row_weights(weights[:-1])
    with pytest.raises(ValueError, match="not graded"):
        mixed.row_weights(weights)  # s is not graded
    assert subalgebra_closure(L, [x, y]).dim == 6  # n+ of G2
    assert centralizer(L, L.zero()).dim == L.dim


def _span(L, vectors):
    """The canonical basis of the span of elements, by `gauss_jordan`."""
    return [tuple(r) for r in gauss_jordan([v.coeffs for v in vectors], L.dim)[0]]


def _kernel(L, a):
    """The canonical basis of ker ad a, by `gauss_jordan` of the matrix of ad a."""
    images = [bracket(L, a, L.basis_element(j)).coeffs for j in range(L.dim)]
    reduced, pivots = gauss_jordan([[x[t] for x in images] for t in range(L.dim)], L.dim)
    null = []
    for f in sorted(set(range(L.dim)) - set(pivots)):
        v = [Fraction(int(j == f)) for j in range(L.dim)]
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        null.append(Element(v))
    return _span(L, null)


def _brackets(L, basis):
    return [bracket(L, Element(a), Element(b)) for a, b in combinations(basis, 2)]


def _closed(L, vectors):
    """The canonical basis of the closure of elements: the span with the
    brackets of its basis added until it stops growing."""
    basis = _span(L, vectors)
    while True:
        grown = _span(L, [*map(Element, basis), *_brackets(L, basis)])
        if len(grown) == len(basis):
            return basis
        basis = grown


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_the_public_layers_on_elements_that_mix_weights_are_the_oracle(data):
    # Elements with terms of several weights (x + y in G2, a root vector
    # plus a Cartan element), which a caller-given grading used to refuse:
    # each public layer grades the call by its own input, and its canonical
    # basis is the `gauss_jordan` oracle's.
    L = build_lie_algebra(data.draw(st.sampled_from(["A2", "G2"])))
    terms = st.dictionaries(st.integers(0, L.dim - 1), st.integers(-3, 3).filter(bool), max_size=3)
    a = L.element(data.draw(terms))
    ge = centralizer(L, a)
    assert ge.basis.data == tuple(_kernel(L, a))
    assert derived_subalgebra(L, ge).basis.data == tuple(_span(L, _brackets(L, ge.basis.data)))

    vs = [L.element(t) for t in data.draw(st.lists(terms, max_size=3))]
    s = Subspace(L, [_sparse(r) for r in _span(L, vs)])
    images = _brackets(L, s.basis.data)
    if len(_span(L, [*map(Element, s.basis.data), *images])) > s.dim:
        with pytest.raises(ValueError, match="not closed"):
            derived_subalgebra(L, s)
    else:
        assert derived_subalgebra(L, s).basis.data == tuple(_span(L, images))

    within = Subspace(L, [_sparse(r) for r in _closed(L, vs)])
    for bound in (None, within, Subspace.full(L)):
        assert subalgebra_closure(L, vs, bound) == within

    # a generator in g_e, the sum of some of its rows, and g_e as `within`
    rows = data.draw(st.lists(st.sampled_from(ge.basis.data), max_size=2)) if ge.dim else []
    g = sum(map(Element, rows), L.zero())
    assert subalgebra_closure(L, [g], ge).basis.data == tuple(_closed(L, [g]))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_bracket_is_antisymmetric_and_the_bilinear_product(data):
    # Rows of unequal lengths, so that each order runs one branch: the
    # shorter row is the outer loop, and the sign of a swap is folded in.
    L = build_lie_algebra(data.draw(st.sampled_from(["G2", "F4"])))
    entry = st.integers(-9, 9).filter(bool)
    a = data.draw(st.dictionaries(st.integers(0, L.dim - 1), entry, min_size=1, max_size=3))
    b = data.draw(st.dictionaries(st.integers(0, L.dim - 1), entry, min_size=4, max_size=9))
    expected = defaultdict(int)
    for i, x in a.items():
        for j, y in b.items():
            for k, n in L._adj[i].get(j, ()):
                expected[k] += x * y * n
    ab, ba = _bracket_supp(L._adj, a, b), _bracket_supp(L._adj, b, a)
    assert ab == {k: v for k, v in expected.items() if v}
    assert ba == {k: -v for k, v in ab.items()}
    assert list(ba) == list(ab)  # the same insertion order too
    assert 0 not in ab.values()
    dense = bracket(L, L.element(a), L.element(b)).coeffs
    assert ab == {k: c for k, c in enumerate(dense) if c}


def test_closure_makes_no_echelon_for_a_weight_that_within_lacks(monkeypatch):
    # A bracket whose weight is no weight of `within` lies in no row of it,
    # so it is skipped before any span of that weight is made.
    import exorb.algebra

    made = []

    class Counting(_Echelon):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

    monkeypatch.setattr(exorb.algebra, "_Echelon", Counting)
    lacking = 0
    for L, o in _triple_orbits():
        e, labels = o.triple.e, o.diagram.labels
        weights = _torus_grading(L, [e._supp])
        ge = exorb.algebra._centralizer(L, e._supp, weights, sl2=True)
        hweights = L.basis_weights(labels)
        graded = [(r, w, hweights[p]) for w, span in ge.items() for p, r in span.rows.items()]
        cap = Counter(w for _, w, k in graded if k >= 1)  # g(>=1)_e
        made.clear()
        _closure(L, [(r, w) for r, w, k in graded if k == 1], cap)
        present = set(cap)
        assert len(made) <= len(present)
        lacking += any(a + b not in present for a in present for b in present)
    assert lacking > 0


def test_centralizer_scales_a_fraction_row_like_an_element():
    L = build_lie_algebra("G2")
    half, row = L.element({0: Fraction(1, 2)}), L.element({0: Fraction(2, 3), 5: -1})
    assert centralizer(L, half) == centralizer(L, L.basis_element(0))
    assert centralizer(L, row) == centralizer(L, L.element({0: 2, 5: -3}))


def test_centralizer_drops_the_explicit_zeros_of_a_row():
    # A zero entry at a basis vector of another root is no term of the row,
    # and does not coarsen the row's grading.
    L = build_lie_algebra("G2")
    assert L.element({0: 1, 1: 0}) == L.basis_element(0)
    assert _torus_grading(L, [L.element({0: 1, 1: 0})._supp]) == _torus_grading(L, [{0: 1}])
    expected = centralizer(L, L.basis_element(0))
    assert centralizer(L, L.element({0: 1, 1: 0})) == expected
    assert centralizer(L, L.element({0: 0})) == centralizer(L, L.zero()) == Subspace.full(L)


_ENTRIES = st.sampled_from([Fraction(0)] * 3) | st.builds(
    Fraction, st.integers(-6, 6), st.integers(1, 4)
)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_an_element_is_its_support_however_it_is_built(data):
    # Built from a dense vector, from an (integer support, denominator) pair
    # that is not reduced, or by `element` from a mapping, an Element agrees
    # with plain Fraction arithmetic on its dense coefficients.
    from exorb.linalg import _scaled_support

    L = build_lie_algebra("G2")
    vectors = st.lists(_ENTRIES, min_size=L.dim, max_size=L.dim)
    a, b, s = data.draw(vectors), data.draw(vectors), data.draw(_ENTRIES)
    k = data.draw(st.integers(1, 6))

    def ways(v):
        supp, den = _scaled_support(v)
        ints = [int(c) if c.denominator == 1 else c for c in v]
        return [
            Element(v),
            Element(tuple(ints)),
            Element._of(L.dim, {i: k * x for i, x in supp.items()}, k * den),
            L.element({i: c for i, c in enumerate(ints) if c}),
        ]

    def agrees(x, want):
        want = tuple(want)
        assert x.coeffs == want and all(type(c) is Fraction for c in x.coeffs)
        assert x.support() == tuple(i for i, c in enumerate(want) if c)
        assert x.is_zero() == (not any(want))
        assert x == Element(want) and hash(x) == hash(Element(want))

    xs, ys = ways(a), ways(b)
    for x in xs:
        agrees(x, a)
        assert x == xs[0] and hash(x) == hash(xs[0])
    for x, y in zip(xs, reversed(ys)):
        agrees(x + y, (p + q for p, q in zip(a, b)))
        agrees(x - y, (p - q for p, q in zip(a, b)))
        agrees(-x, (-p for p in a))
        agrees(s * x, (s * p for p in a))
        assert (x == y) == (a == b)
    with pytest.raises(ValueError, match="dimension mismatch"):
        xs[0] + Element(a[:-1])


def test_an_element_adds_and_subtracts_only_elements():
    x = build_lie_algebra("G2").basis_element(3)
    for other in (1, Fraction(1)):
        assert x.__add__(other) is NotImplemented and x.__sub__(other) is NotImplemented
        for op in (lambda: x + other, lambda: x - other, lambda: other + x):
            with pytest.raises(TypeError, match="unsupported operand"):
                op()


def test_an_element_refuses_floats_and_stays_immutable():
    L = build_lie_algebra("G2")
    with pytest.raises(TypeError, match="floating point is not allowed"):
        Element((0.5, 0))
    with pytest.raises(TypeError, match="floating point is not allowed"):
        Fraction(1, 2) * L.basis_element(0) + L.element([0.0] * L.dim)
    for row in ({0: 0.5}, {0: 1, 1: 0.0}):  # a sparse row, also a zero beside an int
        with pytest.raises(TypeError, match="floating point is not allowed"):
            L.element(row)
    x = L.basis_element(3)
    for name in ("coeffs", "dim", "_supp", "_den"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, name, None)
    assert x.coeffs[3] == 1 and x == L.basis_element(3)
