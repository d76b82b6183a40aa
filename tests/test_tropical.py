"""Valuations, walls, exponent classes, independence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelot import tropical as tr
from skelot._linalg import _int_dtype, over_lcm
from skelot.errors import PointOffFace, TieOnRegion
from skelot.polyhedral import Face

F = Fraction

EDGE_FACE = Face(((F(1), F(0)), (F(0), F(1))), multiplicities=(1, 1))


def section(*terms, level=1, label=None):
    return tr.TropicalSection(
        tuple(tr.MonomialTerm(e, k, cid) for e, k, cid in terms),
        level=level, label=label)


# -- val_at ---------------------------------------------------------------


def test_val_at_basic():
    s = section(((2, 0), 0, "a"), ((1, 2), 0, "b"))
    assert tr.val_at(s, (F(1, 2), F(1, 2)), EDGE_FACE) == 1
    assert tr.val_at(s, (F(1), F(0)), EDGE_FACE) == 1


def test_val_at_t_order_shift():
    s = section(((2, 0), 1, "a"), ((1, 2), 0, "b"))
    assert tr.val_at(s, (F(1, 2), F(1, 2)), EDGE_FACE) == F(3, 2)


def test_val_at_off_face():
    s = section(((1, 0), 0, "a"))
    with pytest.raises(PointOffFace):
        tr.val_at(s, (F(2), F(0)), EDGE_FACE)
    # on the span, a hair past the vertex (1, 0)
    eps = F(1, 10**13)
    assert not EDGE_FACE.contains((1 + eps, -eps))
    with pytest.raises(PointOffFace):
        tr.val_at(s, (1 + eps, -eps), EDGE_FACE)


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_val_at_concave_on_face(data):
    terms = data.draw(st.lists(
        st.tuples(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                  st.integers(-3, 3)),
        min_size=1, max_size=5, unique=True))
    s = tr.TropicalSection(tuple(
        tr.MonomialTerm(e, k, str(i)) for i, (e, k) in enumerate(terms)))
    q = data.draw(st.tuples(st.fractions(0, 1), st.fractions(0, 1)))
    x = (q[0], 1 - q[0])
    y = (q[1], 1 - q[1])
    mid = ((x[0] + y[0]) / 2, (x[1] + y[1]) / 2)
    assert tr.val_at(s, mid) >= (tr.val_at(s, x) + tr.val_at(s, y)) / 2


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_val_at_matches_fraction_formula(data):
    """Integer valuation over the common denominator equals the Fraction
    formula min <x, alpha> + t_order, coordinate by coordinate."""
    dim = data.draw(st.integers(1, 3))
    terms = data.draw(st.lists(
        st.tuples(st.tuples(*[st.integers(-9, 9)] * dim),
                  st.integers(-5, 5)),
        min_size=1, max_size=6, unique=True))
    s = tr.TropicalSection(tuple(
        tr.MonomialTerm(e, k, str(i)) for i, (e, k) in enumerate(terms)))
    x = data.draw(st.tuples(*[st.fractions(-5, 5, max_denominator=60)] * dim))
    want = min(sum(c * a for c, a in zip(x, e)) + k for e, k in terms)
    assert tr.val_at(s, x) == want
    assert [t.value_at(x) for t in s.terms] == \
        [sum(c * a for c, a in zip(x, e)) + k for e, k in terms]


# near and beyond the int64 edge, so both dtypes of the table are drawn
BIG = st.one_of(st.integers(-9, 9),
                st.sampled_from([2 ** 62 - 1, 2 ** 62, -2 ** 62, 2 ** 63,
                                 -2 ** 63 - 1, 2 ** 80]),
                st.integers(-2 ** 70, 2 ** 70))


@given(st.data())
@settings(deadline=None, max_examples=300)
def test_val_at_matches_term_by_term_minimum(data):
    """The table's integer product gives the minimum of the terms'
    scaled values, for exponents, t-orders and denominators past int64 and
    for exponents and points of different lengths (zip truncates)."""
    terms = data.draw(st.lists(
        st.tuples(st.lists(BIG, max_size=3).map(tuple), BIG),
        min_size=1, max_size=6, unique=True))
    s = tr.TropicalSection(tuple(
        tr.MonomialTerm(e, k, str(i)) for i, (e, k) in enumerate(terms)))
    x = data.draw(st.lists(st.one_of(
        st.fractions(-5, 5, max_denominator=60),
        st.fractions(-5, 5, max_denominator=2 ** 70)), max_size=3))
    nums, L = over_lcm(x)
    want = F(min(t.scaled_value(nums, L) for t in s.terms), L)
    assert tr.val_at(s, x) == want == min(t.value_at(x) for t in s.terms)


def test_valuation_table_dtype_and_laziness():
    """The table is built on the first val_at, each array in the one
    dtype rule's pick for its largest magnitude (int32 here, Python ints
    from 2^62); a point whose numerators pass the bound switches the
    product to Python ints."""
    s = section(((1, 2), 3, "a"), ((0, -1), 0, "b"))
    assert "valuation_table" not in vars(s)
    assert tr.val_at(s, (F(1, 3), F(1, 3))) == F(-1, 3)
    E, t, e_max, t_max = s.valuation_table
    assert (E.dtype, t.dtype) == (_int_dtype(e_max), _int_dtype(t_max))
    big = section(((2 ** 62, 0), 0, "a"), ((0, 1), 2 ** 63, "b"))
    assert big.valuation_table[0].dtype == object
    assert big.valuation_table[1].dtype == object
    assert tr.val_at(big, (F(-1), F(0))) == -2 ** 62
    x = (F(1, 2 ** 61 + 1), F(2 ** 62, 3))
    assert tr.val_at(s, x) == min(t.value_at(x) for t in s.terms)


# -- dominant regions --------------------------------------------------------


def test_dominant_regions_single_wall():
    s = section(((2, 0), 0, "a"), ((1, 2), 0, "b"))
    regions = tr.dominant_regions([s], EDGE_FACE)
    assert len(regions) == 2
    # wall sits at x = (2/3, 1/3)
    walls = {regions[0].chart_interval[1], regions[1].chart_interval[0]}
    assert len(walls) == 1
    wall_chart = walls.pop()
    assert EDGE_FACE.unchart([wall_chart]) == (F(2, 3), F(1, 3))
    doms = {r.dominant[0] for r in regions}
    assert doms == {0, 1}
    assert not any(r.tie for r in regions)


def test_dominant_regions_single_term_sections():
    secs = [section(((1, 0), 0, "a")), section(((0, 3), 1, "b"))]
    regions = tr.dominant_regions(secs, EDGE_FACE)
    assert len(regions) == 1
    assert regions[0].dominant == (0, 0)


def test_dominant_regions_monomial_basis_2d():
    # monomial basis on a 2-face: every z^beta dominates everywhere
    face = Face(((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1))),
                multiplicities=(1, 1, 1))
    secs = [section(((i, j, 0), 0, f"m{i}{j}")) for i in range(2) for j in range(2)]
    regions = tr.dominant_regions(secs, face)
    assert len(regions) == 1 and not regions[0].tie


# -- exponent classes ---------------------------------------------------------


def test_exponent_classes_examples():
    classes = tr.exponent_classes([(2, 0), (1, 2), (0, 1)], (1, 1))
    as_sets = sorted(tuple(sorted(c)) for c in classes)
    assert as_sets == [(0,), (1, 2)]

    singletons = tr.exponent_classes([(0, 0), (1, 0), (0, 2)], (1, 1))
    assert sorted(len(c) for c in singletons) == [1, 1, 1]

    one = tr.exponent_classes([(3, 1), (1, 0)], (2, 1))
    assert len(one) == 1


def test_exponent_classes_zero_b():
    classes = tr.exponent_classes([(3,), (3,), (5,)], (0,))
    assert sorted(len(c) for c in classes) == [1, 2]


def _pairwise_classes(terms, b):
    """Classes in order of first appearance, each index joining the first
    class whose first member differs from it by an integer multiple of b."""
    def multiple(d):
        if not any(b):
            return not any(d)
        k = next(k for k, x in enumerate(b) if x)
        n = F(d[k], b[k])
        return n.denominator == 1 and all(x == n * y for x, y in zip(d, b))

    classes = []
    for i, v in enumerate(terms):
        for members in classes:
            if multiple([x - y for x, y in zip(v, terms[members[0]])]):
                members.append(i)
                break
        else:
            classes.append([i])
    return classes


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(-6, 6)] * d), max_size=12),
    st.tuples(*[st.integers(-3, 3)] * d))))
def test_exponent_classes_match_pairwise_definition(case):
    terms, b = case
    assert tr.exponent_classes(terms, b) == _pairwise_classes(terms, b)


# -- independence --------------------------------------------------------------


def test_independence_two_sections():
    secs = [section(((2, 0), 0, "f1")), section(((1, -1), 1, "f2"))]
    coeffs = {"f1": (1, 0), "f2": (0, 1)}
    verdict = tr.check_valuative_independence(secs, EDGE_FACE, coeffs)
    assert verdict.independent


def test_dependence_with_witness():
    secs = [section(((2, 0), 0, "f1")), section(((1, -1), 1, "f2"))]
    coeffs = {"f1": (1, 2), "f2": (2, 4)}
    verdict = tr.check_valuative_independence(secs, EDGE_FACE, coeffs)
    assert not verdict.independent
    w = verdict.witness
    assert w is not None and set(w.class_sections) == {0, 1}
    combo = [w.kernel[0] * a + w.kernel[1] * b
             for a, b in zip(coeffs["f1"], coeffs["f2"])]
    assert any(k != 0 for k in w.kernel)
    assert all(c == 0 for c in combo)


def test_tie_raises():
    # two identical-valuation terms inside one section tie everywhere
    secs = [section(((2, 0), 0, "f1"), ((1, -1), 1, "f2"))]
    with pytest.raises(TieOnRegion):
        tr.check_valuative_independence(secs, EDGE_FACE, {"f1": (1,), "f2": (1,)})


def oracle_combination_val(secs, coeffs, tuple_orders, scalars, b, x):
    """Brute-force model: reduce every monomial by z^b = t, add vectors, min."""
    acc = {}
    for s, ordr, c in zip(secs, tuple_orders, scalars):
        for t in s.terms:
            alpha, k = list(t.exponent), t.t_order + ordr
            j0 = next((j for j, v in enumerate(b) if v != 0), None)
            if j0 is not None:
                # z^b = t on the nose: shift alpha to its canonical class rep
                n = alpha[j0] // b[j0]
                alpha = [a - n * bb for a, bb in zip(alpha, b)]
                k += n
            key = (tuple(alpha), k)
            vec = acc.setdefault(key, [F(0)] * len(coeffs[t.coeff_id]))
            for i, v in enumerate(coeffs[t.coeff_id]):
                vec[i] += c * F(v)
    vals = [sum(F(xc) * a for xc, a in zip(x, key[0])) + key[1]
            for key, vec in acc.items() if any(v != 0 for v in vec)]
    return min(vals) if vals else None


def min_formula(secs, tuple_orders, x):
    return min(o + tr.val_at(s, x) for o, s in zip(tuple_orders, secs))


def test_independence_matches_brute_force_oracle():
    x = (F(2, 5), F(3, 5))
    b = (1, 1)
    indep = [section(((2, 0), 0, "f1")), section(((1, -1), 1, "f2"))]
    good = {"f1": (1, 0), "f2": (0, 1)}
    bad = {"f1": (1, 2), "f2": (2, 4)}
    grid = [F(n) for n in range(-2, 3)]

    def oracle_says_independent(coeffs):
        for c1 in grid:
            for c2 in grid:
                if c1 == 0 and c2 == 0:
                    continue
                scalars = (c1, c2)
                got = oracle_combination_val(indep, coeffs, (0, 0), scalars, b, x)
                want = min_formula(indep, (0, 0), x)
                if got != want:
                    return False
        return True

    assert oracle_says_independent(good)
    assert not oracle_says_independent(bad)
    assert tr.check_valuative_independence(indep, EDGE_FACE, good).independent
    assert not tr.check_valuative_independence(indep, EDGE_FACE, bad).independent
