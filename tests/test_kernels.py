"""Exact integer cost matrices, the common-denominator encoding behind them
and the integer argmax of the c-transform.

The per-entry evaluators (`CostFunction.__call__`) and a plain double loop
over Fractions serve as the references.  The theta cost's evaluator and
matrix share one closed form, so both are checked against
`_reference_axis_argmin`, the Fraction window search that the closed form
replaced: it doubles its radius until the minimum is interior.
"""

import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelot import cost as co
from skelot import families as fm
from skelot import transport as tp
from skelot._linalg import _int_array, _int_dtype, over_lcm
from skelot.errors import WindowNotConverged
from skelot.polyhedral import DiscreteMeasure, polygon_boundary_complex

F = Fraction

TRI = polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)])


def fractions(lo, hi, dens=(1, 2, 3, 4, 5, 7, 8, 12)):
    return st.builds(lambda k, d: F(k, d), st.integers(lo * 12, hi * 12),
                     st.sampled_from(dens))


def points(dim, lo=-4, hi=4):
    return st.lists(st.tuples(*[fractions(lo, hi)] * dim), min_size=1,
                    max_size=6)


def exact_block(cost, xs, ps):
    """The cost's K over the grids, the full block of its exact rows, and D."""
    rows, D = cost.exact_rows(xs, ps)
    return rows.block(), D


def assert_matches_evaluator(cost, xs, ps):
    K, D = exact_block(cost, xs, ps)
    assert K.shape == (len(xs), len(ps)) and D > 0
    for i, x in enumerate(xs):
        for j, p in enumerate(ps):
            assert F(int(K[i, j]), D) == cost(x, p)
    return K, D


def naive_transform(mat, values):
    """The double loop: max_i mat[i][j] - values[i], lowest index on ties."""
    vals, args = [], []
    for j in range(len(mat[0])):
        best, bi = None, -1
        for i, fv in enumerate(values):
            v = mat[i][j] - fv
            if best is None or v > best:
                best, bi = v, i
        vals.append(best)
        args.append(bi)
    return tuple(vals), tuple(args)


# -- common-denominator encoding ------------------------------------------------------


def test_over_lcm_den_empty_negative_and_integer_values():
    assert over_lcm([F(1, 2), F(-1, 3), 2], 4) == ([6, -4, 24], 12)
    assert over_lcm([F(1, 2)], 3) == ([3], 6)
    assert over_lcm([], 6) == ([], 6)
    assert over_lcm([]) == ([], 1)
    assert over_lcm([F(3), -5, 0]) == ([3, -5, 0], 1)
    assert over_lcm([-7, F(-5, 4)], 2) == ([-28, -5], 4)


@given(st.lists(st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4),
                max_size=8), st.integers(1, 60))
@settings(deadline=None, max_examples=200)
def test_over_lcm_is_exact_over_the_least_common_denominator(values, den):
    nums, L = over_lcm(values, den)
    assert L == lcm(den, *(v.denominator for v in values))
    assert [F(k, L) for k in nums] == values


def test_int_dtype_tiers():
    """int32 below 2^30, int64 below 2^62, Python ints from there."""
    assert _int_dtype(0) is _int_dtype(2 ** 30 - 1) is np.int32
    assert _int_dtype(2 ** 30) is _int_dtype(2 ** 62 - 1) is np.int64
    assert _int_dtype(2 ** 62) is object


@pytest.mark.parametrize("values, dtype", [
    ([F(2 ** 62 - 1, 3), F(1, 3)], np.int64),
    ([F(2 ** 62, 3), F(1, 3)], object),
    ([F(-2 ** 62, 3), F(1, 3)], object),
    # the bound applies to the numerators after scaling by L
    ([F(2 ** 61 - 1), F(1, 2)], np.int64),
    ([F(2 ** 61), F(1, 2)], object),
    ([F(2 ** 30 - 1, 3), F(1, 3)], np.int32),
    ([F(2 ** 30, 3), F(1, 3)], np.int64),
])
def test_over_lcm_arrays_switch_dtype_at_the_int_dtype_bound(values, dtype):
    """Numerators below 2^30 make int32 arrays, below 2^62 int64, others
    Python ints, alone and in the entrywise cost builder."""
    nums, L = over_lcm(values)
    assert _int_array(nums).dtype == dtype
    cost = co.CostFunction(None, None, lambda x, p: values[int(p[0])], 1.0)
    K, D = exact_block(cost, [(F(0),)], [(F(j),) for j in range(len(values))])
    assert K.dtype == dtype and D == L and K.tolist() == [nums]


# -- pairing kernel -----------------------------------------------------------------


def pairing_bound(xs, ps):
    """pairing_rows's bound on its product, d max|X| max|P|."""
    X, _ = over_lcm([c for x in xs for c in x])
    P, _ = over_lcm([c for p in ps for c in p])
    return 2 * max(map(abs, X)) * max(map(abs, P))


# source points times a factor up to 2^16, so bounds fall on both sides of 2^30
scaled_points = st.tuples(points(2), st.integers(1, 2 ** 16)).map(
    lambda t: [tuple(c * t[1] for c in x) for x in t[0]])


@given(scaled_points, points(2))
@settings(deadline=None, max_examples=60)
def test_pairing_matrix_matches_evaluator(xs, ps):
    cost = co.pairing_cost(TRI, TRI)
    K, _ = assert_matches_evaluator(cost, xs, ps)
    assert K.dtype == _int_dtype(pairing_bound(xs, ps))


@pytest.mark.parametrize("top, dtype", [(2 ** 29 - 1, np.int32),
                                        (2 ** 29, np.int64)])
def test_pairing_matrix_at_the_int32_edge(top, dtype):
    """Bounds 2^30 - 2 and 2^30, with entries of both signs that large."""
    cost = co.pairing_cost(TRI, TRI)
    xs = [(F(top), F(top)), (F(-top), F(-top))]
    ps = [(F(1), F(1)), (F(-1), F(-1))]
    assert pairing_bound(xs, ps) == 2 * top
    K, _ = assert_matches_evaluator(cost, xs, ps)
    assert K.dtype == dtype and int(np.abs(K).max()) == 2 * top


def test_pairing_matrix_large_coordinates_use_python_ints():
    cost = co.pairing_cost(TRI, TRI)
    xs = [(F(10 ** 12 + 1, 10 ** 9 + 7), F(3)), (F(1, 3), F(-2))]
    ps = [(F(5, 999983), F(10 ** 15)), (F(-1), F(1, 2))]
    K, D = assert_matches_evaluator(cost, xs, ps)
    assert K.dtype == object
    assert co.matrix_floats(K, D).tobytes() == np.array(
        [[float(cost(x, p)) for p in ps] for x in xs]).tobytes()
    assert_rows_are(cost.exact_rows(xs, ps)[0], K)


def assert_rows_are(rows, K):
    """Every read of the row source gives K's entries in K's dtype: rows,
    blocks, entries on scattered cells and a restriction's rows."""
    n, m = K.shape
    assert rows.shape == (n, m) and rows.dtype == K.dtype
    assert rows.bound >= int(np.abs(K).max())
    same = (lambda a, b: a.tolist() == b.tolist()) if K.dtype == object \
        else (lambda a, b: a.dtype == b.dtype and a.tobytes() == b.tobytes())
    for i in range(n):
        assert same(rows.row(i), K[i])
    assert same(rows.block(), K) and same(rows.block(1, n), K[1:])
    ii, jj = np.divmod(np.arange(n * m)[::-1], m)
    assert same(rows.entries(ii, jj), K[ii, jj])
    assert all(rows.entries(i, j) == K[i, j] for i, j in zip(ii, jj))
    r, c = np.arange(n)[::-2], np.arange(m)[1::2]
    assert same(rows.restrict(r, c).block(), K[np.ix_(r, c)])


@pytest.mark.parametrize("top, dtype", [(2 ** 29 - 1, np.int32),
                                        (2 ** 29, np.int64)])
def test_pairing_rows_at_the_int32_edge(top, dtype):
    """Bounds 2^30 - 2 and 2^30: the rows are the evaluator's K, entries of
    both signs that large, in the dtype the one rule picks for the bound."""
    xs = [(F(top), F(top)), (F(-top), F(-top)), (F(top), F(-top))]
    ps = [(F(1), F(1)), (F(-1), F(-1)), (F(1), F(0))]
    rows, D = co.pairing_rows(xs, ps)
    K, DK = assert_matches_evaluator(co.pairing_cost(TRI, TRI), xs, ps)
    assert D == DK and rows.bound == pairing_bound(xs, ps) == 2 * top
    assert K.dtype == dtype and int(np.abs(K).max()) == 2 * top
    assert_rows_are(rows, K)


@given(scaled_points, points(2))
@settings(deadline=None, max_examples=40)
def test_pairing_rows_are_the_pairing_matrix(xs, ps):
    rows, D = co.pairing_rows(xs, ps)
    K, DK = assert_matches_evaluator(co.pairing_cost(TRI, TRI), xs, ps)
    assert D == DK
    assert_rows_are(rows, K)


def test_transpose_carries_the_transposed_matrix():
    cost = co.pairing_cost(TRI, TRI)
    xs = [(F(1, 2), F(0)), (F(-1, 3), F(1))]
    ps = [(F(1), F(1, 5)), (F(0), F(-2)), (F(3, 4), F(1, 4))]
    K, D = exact_block(cost, xs, ps)
    Kt, Dt = exact_block(cost.transpose(), ps, xs)
    assert Dt == D and (Kt == K.T).all()
    assert_matches_evaluator(cost.transpose(), ps, xs)


@pytest.mark.parametrize("make", [
    lambda: co.pairing_cost(TRI, TRI),
    lambda: co.abelian_cost(co.MumfordData((co.PhiAxis(), co.PhiAxis()))),
    lambda: co.CostFunction(None, None, lambda x, p: (x[0] - p[0]) ** 2
                            + x[1] * p[1] / 3, 1.0),
], ids=["pairing", "theta", "entrywise"])
def test_transposed_rows_are_the_transposed_matrix(make):
    """The transposed cost's rows are the columns of K: swapped pairing
    factors, or the stored K's transpose, the theta closed form's or the
    entrywise builder's."""
    xs = [(F(1, 2), F(0)), (F(-1, 3), F(1)), (F(2, 7), F(-1, 2))]
    ps = [(F(1), F(1, 5)), (F(0), F(-2)), (F(3, 4), F(1, 4)), (F(1, 9), F(0))]
    cost = make()
    K, D = assert_matches_evaluator(cost, xs, ps)
    rows, Dt = cost.transpose().exact_rows(ps, xs)
    assert Dt == D
    assert_rows_are(rows, np.ascontiguousarray(K.T))


# -- theta kernel -------------------------------------------------------------------


def _reference_axis_argmin(axis, x, p, max_radius=co._MAX_RADIUS):
    """min over k of x*(p + g*k) + Phi(p + g*k); certified by convexity."""
    g = axis.period
    radius = 4
    while radius <= max_radius:
        vals = {k: x * (p + g * k) + axis.value(p + g * k)
                for k in range(-radius, radius + 1)}
        kbest = min(vals, key=lambda k: (vals[k], k))
        if -radius < kbest < radius:
            return vals[kbest], kbest
        radius *= 2
    raise WindowNotConverged("theta window did not certify an interior minimum")


def _reference_theta_cost(data, x, p):
    """-sum over axes of the window-search minima at the reduced lifts."""
    return -sum((_reference_axis_argmin(a, xi, pi)[0] for a, xi, pi in
                 zip(data.axes, data.reduce(x), data.reduce(p))), F(0))


def _reference_certified_window(data, level):
    radius = 4
    for axis in data.axes:
        g = axis.period
        for p_num in range(level * g):
            p = F(p_num, level)
            for x in (F(0), F(g)):
                _, k = _reference_axis_argmin(axis, x, p)
                radius = max(radius, abs(k) + 2)
    return radius


axes = st.builds(co.PhiAxis, st.integers(-5, 5), st.integers(1, 4),
                 st.integers(1, 3))


def assert_matches_window_search(data, xs, ps):
    cost = co.abelian_cost(data)
    K, D = assert_matches_evaluator(cost, xs, ps)
    for x in xs:
        for p in ps:
            assert cost(x, p) == _reference_theta_cost(data, x, p)
    return K, D


@given(st.lists(axes, min_size=1, max_size=2).flatmap(
    lambda ax: st.tuples(st.just(co.MumfordData(tuple(ax))),
                         points(len(ax), -7, 7), points(len(ax), -7, 7))))
@settings(deadline=None, max_examples=60)
def test_theta_matrix_matches_evaluator(case):
    assert_matches_window_search(*case)


@pytest.mark.parametrize("L, dtype", [(1486, np.int32), (1487, np.int64)])
def test_theta_matrix_at_the_int32_edge(L, dtype):
    """One default axis over L: its bound 486 L^2 lies just below 2^30 at
    L = 1486 and just above at 1487."""
    data = co.MumfordData((co.PhiAxis(),))
    bound = co._axis_bound(data.axes[0], L)
    assert (bound < 2 ** 30) == (dtype is np.int32) and \
        2 ** 29 < bound < 2 ** 31
    xs = [(F(1, L),), (F(L - 1, L),), (F(-3 * L - 5, L),)]
    ps = [(F(2, L),), (F(L - 7, L),), (F(5 * L + 1, L),)]
    K, D = assert_matches_window_search(data, xs, ps)
    assert K.dtype == dtype and D == L * L


def test_theta_matrix_large_denominators_use_python_ints():
    data = co.MumfordData((co.PhiAxis(2, 3, 2),))
    xs = [(F(10 ** 12 + 1, 10 ** 9 + 7),), (F(1, 3),)]
    ps = [(F(5, 999983),), (F(-7, 11),)]
    K, _ = assert_matches_window_search(data, xs, ps)
    assert K.dtype == object


@given(st.lists(axes, min_size=1, max_size=2), st.integers(1, 12))
@settings(deadline=None, max_examples=60)
def test_certified_window_matches_window_search(ax, level):
    data = co.MumfordData(tuple(ax))
    assert co.certified_window(data, level) == \
        _reference_certified_window(data, level)


def test_theta_matrix_peak_stays_near_its_output():
    """The per-axis tables keep the build's peak at K plus one gathered
    n x m term, not the n x m temporaries of a full broadcast."""
    data = co.MumfordData((co.PhiAxis(), co.PhiAxis()))
    _, problem = fm.mumford_family(data, [1, 2], resolution=F(1, 32))
    xs, ps = problem.mu0.points, problem.nu0.points
    tracemalloc.start()
    try:
        K, _ = co.theta_matrix(data, xs, ps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert K.shape == (1024, 1024)
    assert K.dtype == _int_dtype(sum(co._axis_bound(a, 32) for a in data.axes))
    assert peak < 3 * K.nbytes


def test_theta_matrix_gathers_by_row_blocks(monkeypatch):
    """Gathered a block of rows at a time (here 100, the last block short),
    K is the same array and the build's peak stays near K: no gathered
    n x m temporary."""
    data = co.MumfordData((co.PhiAxis(), co.PhiAxis()))
    _, problem = fm.mumford_family(data, [1], resolution=F(1, 32))
    xs = problem.mu0.points
    whole, D = co.theta_matrix(data, xs, xs)
    monkeypatch.setattr(co, "_GATHER_ENTRIES", 100 * len(xs) + 1)
    tracemalloc.start()
    try:
        K, D_blocks = co.theta_matrix(data, xs, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(K, whole) and K.dtype == whole.dtype
    assert D_blocks == D
    assert peak < 1.25 * K.nbytes


def test_theta_matrix_refuses_minima_outside_the_window():
    data = co.MumfordData((co.PhiAxis(base_slope=-10 ** 4),))
    with pytest.raises(WindowNotConverged):
        co.theta_matrix(data, [(F(0),)], [(F(1, 2),)])


# -- float view ---------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: fm.toric_pair([(-1, -1), (2, -1), (-1, 2)], resolution=F(1, 8))[1],
    lambda: fm.mumford_family(co.MumfordData((co.PhiAxis(), co.PhiAxis())),
                              [1], resolution=F(1, 4))[1],
    lambda: fm.mumford_family(co.MumfordData((co.PhiAxis(2, 3, 3),)),
                              [1], resolution=F(1, 7))[1],
    # entrywise builder, with an lcm beyond int64
    lambda: table_problem([[F(1, 3), F(-2, 7), F(5)],
                           [F(10 ** 20, 3), F(1, 2 ** 60), F(0)]],
                          (F(0), F(0)))[0],
])
def test_cost_array_is_bit_equal_to_fraction_floats(make):
    problem = make()
    want = np.array([[float(c) for c in row] for row in problem.exact_cost])
    assert make().cost_array.tobytes() == want.tobytes()
    assert problem.exact_cost == [
        [problem.cost(x, p) for p in problem.nu0.points]
        for x in problem.mu0.points]


# -- integer argmax -------------------------------------------------------------------


def table_problem(table, values):
    n, m = len(table), len(table[0])
    src = tuple((F(i),) for i in range(n))
    tgt = tuple((F(j),) for j in range(m))
    cost = co.CostFunction(None, None,
                           lambda x, p: table[int(x[0])][int(p[0])],
                           lipschitz_x=1.0)
    mu = DiscreteMeasure(src, (F(1, n),) * n, (0,) * n, 1)
    nu = DiscreteMeasure(tgt, (F(1, m),) * m, (0,) * m, 1)
    return tp.TransportProblem(cost, mu, nu), tp.PotentialField(src, values)


tables = st.integers(1, 5).flatmap(lambda n: st.integers(1, 5).flatmap(
    lambda m: st.tuples(
        st.lists(st.lists(fractions(-2, 2, dens=(1, 2, 3)), min_size=m,
                          max_size=m), min_size=n, max_size=n),
        st.lists(st.tuples(fractions(-2, 2, dens=(1, 3)),
                           st.integers(-3, 3)), min_size=n, max_size=n))))


@given(tables, st.sampled_from([0, 1, 10 ** 6]))
@settings(deadline=None, max_examples=80)
def test_transform_equals_double_loop(case, scale):
    """Exact ties and potentials apart by about 2^-60 relative."""
    table, base = case
    table = [[c * scale for c in row] for row in table] if scale else table
    values = tuple(v + k * F(1 + abs(v), 2 ** 60) for v, k in base)
    want = naive_transform(table, values)
    problem, phi = table_problem(table, values)
    got = problem.transform(phi)
    assert (got.values, got.argmax) == want
    via_c = tp.c_transform(phi, problem.cost, problem.nu0.points)
    assert (via_c.values, via_c.argmax) == want


def test_transform_breaks_sub_float_ties_exactly():
    # every float score of a column is equal; only exact arithmetic decides
    eps = F(1, 2 ** 70)
    table = [[F(1, 3), F(0)], [F(1, 3) + eps, F(0)], [F(1, 3) + eps, -eps]]
    values = (F(0), F(0), F(0))
    problem, phi = table_problem(table, values)
    got = problem.transform(phi)
    assert got.argmax == (1, 0)
    assert (got.values, got.argmax) == naive_transform(table, values)


def test_kernel_transform_equals_double_loop_both_directions():
    _, problem = fm.toric_pair([(-1, -1), (2, -1), (-1, 2)], resolution=F(1, 4))
    mat = problem.exact_cost
    values = tuple(F(i % 3, 7) + F(i, 2 ** 61) for i in range(len(mat)))
    phi = tp.PotentialField(problem.mu0.points, values)
    want = naive_transform(mat, values)
    got = problem.transform(phi)
    assert (got.values, got.argmax) == want
    psi = tp.c_transform(phi, problem.cost, problem.nu0.points)
    assert (psi.values, psi.argmax) == want
    back = tp.c_transform(psi, problem.cost, problem.mu0.points,
                          direction="target_to_source")
    cols = [list(r) for r in zip(*mat)]
    assert (back.values, back.argmax) == naive_transform(cols, psi.values)


def test_scores_beyond_the_float_range_stay_exact():
    big = F(10 ** 400)
    table = [[big, F(1)], [big + 1, F(2)]]
    values = (big, F(1))  # inf - inf: a NaN score
    problem, phi = table_problem(table, values)
    want = naive_transform(table, values)
    got = tp.c_transform(phi, problem.cost, problem.nu0.points)
    assert (got.values, got.argmax) == want
    got = problem.transform(phi)
    assert (got.values, got.argmax) == want
    assert problem.cost_array[0, 0] == np.inf
    table = [[F(1), F(2)], [F(1), F(3)], [F(0), F(2)]]
    values = (big, -big, -big - 1)
    problem, phi = table_problem(table, values)
    got = problem.transform(phi)
    assert (got.values, got.argmax) == naive_transform(table, values)


def test_zero_costs_under_fine_values_stay_exact():
    """With K = 0 the score bound is max|V| alone, yet the scale L / D is
    2^70: it must still choose Python ints."""
    table = [[F(0), F(0)], [F(0), F(0)]]
    values = (F(1, 2 ** 70), F(0))
    problem, phi = table_problem(table, values)
    got = problem.transform(phi)
    assert (got.values, got.argmax) == naive_transform(table, values)
