"""c-transforms, dual minimization, the exact LP route, energy sums."""

import random
import tracemalloc
from fractions import Fraction
from math import comb, lcm

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelot import _flow, _simplex
from skelot import cost as co
from skelot import families as fm
from skelot import transport as tp
from skelot.errors import (
    EmptyGrid,
    GridMismatch,
    InfeasibleMarginals,
    MissingLevel,
    SizeCapExceeded,
)
from skelot.polyhedral import DiscreteMeasure, circle_complex, quadrature

F = Fraction

RANK1 = co.MumfordData((co.PhiAxis(),))


def measure(points, weights):
    return DiscreteMeasure(tuple(points), tuple(weights),
                           tuple(0 for _ in points), float(sum(weights)))


def table_cost(table, lip=1.0):
    return co.CostFunction(None, None, lambda x, p: F(table[(x, p)]),
                           lipschitz_x=lip)


def grid1d(lo, hi, steps):
    return [(F(lo) + F(hi - lo, steps) * k,) for k in range(steps + 1)]


PAIR = co.CostFunction(None, None,
                       lambda x, p: sum(F(a) * F(b) for a, b in zip(x, p)),
                       lipschitz_x=1.0)


def field(points, values):
    return tp.PotentialField(tuple(points), tuple(values))


def abelian_problem(ns, nt):
    circ = circle_complex()
    mu = quadrature(circ, F(1, ns), normalize=True)
    nu = quadrature(circ, F(1, nt), normalize=True)
    return tp.TransportProblem(co.abelian_cost(RANK1, circ, circ), mu, nu)


# -- c-transform ---------------------------------------------------------------


def test_transform_of_zero_is_absolute_value():
    grid = grid1d(-1, 1, 4)
    zero = field(grid, [0] * 5)
    out = tp.c_transform(zero, PAIR, grid, direction="target_to_source")
    assert [v for v in out.values] == [abs(p[0]) for p in grid]


def test_transform_of_absolute_value_is_zero():
    grid = grid1d(-1, 1, 4)
    absf = field(grid, [abs(p[0]) for p in grid])
    out = tp.c_transform(absf, PAIR, grid)
    assert all(v == 0 for v in out.values)


def test_constant_shift_identity():
    grid = grid1d(-1, 1, 6)
    f = field(grid, [F(k, 7) ** 2 for k in range(7)])
    base = tp.c_transform(f, PAIR, grid)
    shifted = tp.c_transform(f.shifted(F(3, 5)), PAIR, grid)
    assert all(s == b - F(3, 5) for s, b in zip(shifted.values, base.values))


def test_argmax_lowest_index_ties():
    # constant cost: every source point ties; index 0 must win
    c = co.CostFunction(None, None, lambda x, p: F(1), lipschitz_x=0.0)
    grid = grid1d(0, 1, 3)
    zero = field(grid, [0] * 4)
    out = tp.c_transform(zero, c, grid)
    assert out.argmax == (0, 0, 0, 0)


def test_empty_grid():
    grid = grid1d(0, 1, 2)
    with pytest.raises(EmptyGrid):
        tp.c_transform(field(grid, [0, 0, 0]), PAIR, [])


@given(st.lists(st.fractions(-2, 2), min_size=3, max_size=8))
@settings(deadline=None, max_examples=40)
def test_triple_transform_bit_exact(vals):
    grid = grid1d(-1, 1, len(vals) - 1)
    f = field(grid, vals)
    fc = tp.c_transform(f, PAIR, grid)
    fccc = tp.c_transform(
        tp.c_transform(fc, PAIR, grid, "target_to_source"), PAIR, grid)
    assert fccc.values == fc.values


@given(st.lists(st.fractions(-2, 2), min_size=3, max_size=8))
@settings(deadline=None, max_examples=40)
def test_double_transform_below_and_idempotent(vals):
    grid = grid1d(-1, 1, len(vals) - 1)
    f = field(grid, vals)
    proj = tp.c_transform(tp.c_transform(f, PAIR, grid), PAIR, grid,
                          "target_to_source")
    assert all(p <= v for p, v in zip(proj.values, f.values))
    again = tp.c_transform(tp.c_transform(proj, PAIR, grid), PAIR, grid,
                           "target_to_source")
    assert again.values == proj.values


@given(st.lists(st.fractions(-2, 2), min_size=4, max_size=6),
       st.lists(st.fractions(-2, 2), min_size=4, max_size=6))
@settings(deadline=None, max_examples=40)
def test_transform_one_lipschitz_sup_norm(v1, v2):
    k = min(len(v1), len(v2))
    grid = grid1d(-1, 1, k - 1)
    f1 = tp.c_transform(field(grid, v1[:k]), PAIR, grid)
    f2 = tp.c_transform(field(grid, v2[:k]), PAIR, grid)
    lhs = max(abs(a - b) for a, b in zip(f1.values, f2.values))
    rhs = max(abs(a - b) for a, b in zip(v1[:k], v2[:k]))
    assert lhs <= rhs


# -- problem and functional --------------------------------------------------------


def test_problem_validates_masses():
    pts = [(F(0),), (F(1, 2),)]
    with pytest.raises(InfeasibleMarginals):
        tp.TransportProblem(PAIR, measure(pts, [0.3, 0.3]), measure(pts, [0.5, 0.5]))
    with pytest.raises(InfeasibleMarginals):
        tp.TransportProblem(PAIR, measure(pts, [0.5, 0.5]), measure(pts, [0.5, 0.5]),
                            weight=lambda p: 2.0)


def test_kontorovich_single_point_value():
    mu = measure([(F(1, 3),)], [1.0])
    nu = measure([(F(1, 2),)], [1.0])
    prob = tp.TransportProblem(PAIR, mu, nu)
    phi = field(mu.points, [F(7, 2)])
    assert tp.kontorovich_value(prob, phi) == pytest.approx(1 / 6)


def test_kontorovich_constant_invariance_and_mismatch():
    prob = abelian_problem(8, 8)
    phi = field(prob.mu0.points, [F(k, 11) for k in range(len(prob.mu0.points))])
    v1 = tp.kontorovich_value(prob, phi)
    v2 = tp.kontorovich_value(prob, phi.shifted(F(9, 4)))
    assert v1 == pytest.approx(v2, abs=1e-12)
    with pytest.raises(GridMismatch):
        tp.kontorovich_value(prob, field([(F(0),)], [0]))


# -- minimization and the LP oracle -------------------------------------------------


def test_minimize_zero_cost():
    pts = [(F(0),), (F(1, 2),)]
    zero = co.CostFunction(None, None, lambda x, p: F(0), lipschitz_x=0.0)
    prob = tp.TransportProblem(zero, measure(pts, [0.5, 0.5]),
                               measure(pts, [0.5, 0.5]))
    res = tp.minimize_kontorovich(prob)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert all(v == 0 for v in res.phi.values)


def test_minimize_point_masses():
    mu = measure([(F(1, 3),)], [1.0])
    nu = measure([(F(1, 2),)], [1.0])
    res = tp.minimize_kontorovich(tp.TransportProblem(PAIR, mu, nu))
    assert res.value == pytest.approx(1 / 6)
    assert res.gap >= -1e-9


def test_minimize_matches_lp_on_abelian_circle():
    prob = abelian_problem(16, 24)
    res = tp.minimize_kontorovich(prob)
    lp = tp.lp_oracle(prob)
    assert abs(res.value - lp.primal_value) <= 1e-6 * (1 + abs(res.value))
    assert res.gap >= -1e-9
    assert res.converged
    # duals agree up to a constant
    diff = (np.array([float(x) for x in res.phi.values])
            - np.array([float(x) for x in lp.dual_potentials[0]]))
    assert diff.max() - diff.min() <= 1e-9


def test_minimize_psi_is_exact_transform():
    prob = abelian_problem(8, 12)
    res = tp.minimize_kontorovich(prob)
    assert res.psi.values == prob.transform(res.phi).values


def _exact_flow(plan, shape, Q):
    """The integers k with mass == float(k / Q) on the plan's support, as an
    n x m list of rows; fails if the support is not row-major with positive
    masses or a mass is not the float of such a ratio."""
    rows, cols, mass = (v.tolist() for v in plan)
    cells = [i * shape[1] + j for i, j in zip(rows, cols)]
    assert cells == sorted(set(cells)) and all(x > 0 for x in mass)
    k = [[0] * shape[1] for _ in range(shape[0])]
    for i, j, x in zip(rows, cols, mass):
        k[i][j] = round(F(x) * Q)
        assert float(F(k[i][j], Q)) == x
    return k


def test_minimize_plan_is_the_exact_flow_over_q():
    """Every plan entry is a correctly rounded k / Q, Q the lcm of the
    marginals' denominators, and the k meet Q times the marginals exactly;
    the intermediate weight vanishes on some targets here."""
    data = fm.IntermediateData(n=3, m=1, d=(1, 3),
                               hilbert_M=tuple(comb(k + 3, 3) for k in range(12)))
    prob = fm.intermediate_family(data, resolution=F(1, 16))
    a, b = prob.mu0.weights, prob.target_mass
    assert 0 in b
    res = tp.minimize_kontorovich(prob)
    assert res.converged and res.unshipped == 0
    Q = lcm(*(w.denominator for w in (*a, *b)))
    k = _exact_flow(res.plan, (len(a), len(b)), Q)
    assert [sum(row) for row in k] == [w * Q for w in a]
    assert [sum(col) for col in zip(*k)] == [w * Q for w in b]


@pytest.mark.parametrize("build", [
    lambda: fm.toric_pair([(-1, -1), (2, -1), (-1, 2)], resolution=F(1, 16))[1],
    lambda: fm.mumford_family(co.MumfordData((co.PhiAxis(), co.PhiAxis())),
                              [1], resolution=F(1, 10))[1],
    lambda: fm.intermediate_family(
        fm.IntermediateData(n=3, m=1, d=(2, 2), hilbert_M=tuple(
            comb(k + 3, 3) for k in range(12))), resolution=F(1, 16)),
], ids=["toric-1/16", "torus-1/10", "intermediate-22-1/16"])
def test_minimize_phi_lies_on_the_lattice_of_d_times_q(build):
    """The finisher runs on K, so its duals are integers U and phi = U / D
    less a mean under masses over Q: every denominator divides D Q."""
    prob = build()
    D = prob._integer()[1]
    Q = lcm(*(w.denominator for w in (*prob.mu0.weights, *prob.target_mass)))
    res = tp.minimize_kontorovich(prob)
    assert res.converged
    assert all(D * Q % v.denominator == 0 for v in res.phi.values)


def _grid(points, idx):
    """The lcm of the coordinate denominators of the points at idx."""
    return lcm(*(c.denominator for i in idx for c in points[i]))


@pytest.mark.parametrize("build, shapes", [
    (lambda: fm.toric_pair([(-1, -1), (2, -1), (-1, 2)],
                           resolution=F(1, 16))[1],
     [(3, 9), (6, 18), (12, 36), (24, 72)]),
    (lambda: fm.intermediate_family(
        fm.IntermediateData(n=3, m=1, d=(2, 2), hilbert_M=tuple(
            comb(k + 3, 3) for k in range(12))), resolution=F(1, 16)),
     [(2, 1), (3, 3), (5, 5), (9, 9)]),
], ids=["toric-1/16", "intermediate-22-1/16"])
def test_coarse_levels_are_nested_grids_with_renormalized_masses(build,
                                                                 shapes):
    """From the full grid down, each level keeps on each side exactly the
    points at multiples of 2/l (l the lcm of the finer level's denominators)
    while l is even, and its integer marginals are balanced and are the
    restricted exact masses renormalized.  On the intermediate family the
    two sides keep different shares of their mass (1/2 and 22/43 at the
    finest level), so the renormalization shows."""
    prob = build()
    levels = tp._coarse_levels(prob)
    assert [(len(r), len(c)) for r, c, _, _ in levels] == shapes
    sides = ((prob.mu0.points, prob.mu0.weights),
             (prob.nu0.points, prob.target_mass))
    finer = [list(range(len(points))) for points, _ in sides]
    for rows, cols, a, b in reversed(levels):
        assert a.sum() == b.sum()
        for (points, mass), idx, fine, q in zip(sides, (rows, cols), finer,
                                                (a, b)):
            l = _grid(points, fine)
            assert idx.tolist() == (fine if l % 2 else [
                i for i in fine if (l // 2) % _grid(points, [i]) == 0])
            total = sum(mass[i] for i in idx)
            assert [F(int(x), int(q.sum())) for x in q] == [
                mass[i] / total for i in idx]
        finer = [rows.tolist(), cols.tolist()]


INTERMEDIATE_22 = fm.IntermediateData(n=3, m=1, d=(2, 2), hilbert_M=tuple(
    comb(k + 3, 3) for k in range(12)))


@pytest.mark.parametrize("build, optimum", [
    pytest.param(lambda: fm.mumford_family(
        co.MumfordData((co.PhiAxis(), co.PhiAxis())), [1, 2],
        resolution=F(1, 10))[1], F(41, 50), id="torus-1/10"),
    pytest.param(lambda: fm.mumford_family(RANK1, [1],
                                           resolution=F(1, 64))[1], None,
                 id="rank1-1/64"),
    pytest.param(lambda: fm.intermediate_family(INTERMEDIATE_22, F(1, 8)),
                 None, id="intermediate-22-1/8"),
    pytest.param(lambda: fm.intermediate_family(INTERMEDIATE_22, F(1, 16)),
                 None, id="intermediate-22-1/16"),
])
def test_multiscale_duals_reach_the_exact_optimum(build, optimum):
    """Where the optimal duals are not unique, the multiscale finisher may
    return other ones than a cold solve; they are still exactly optimal:
    int phi dmu0 + int W phi^c dnu0 is the oracle's exact value, and the
    solve reports it with an exact gap of 0.  Some intermediate targets
    have zero mass: they ship nothing, but their psi must still cover the
    cost."""
    prob = build()
    res = tp.minimize_kontorovich(prob)
    value = (sum(w * v for w, v in zip(prob.mu0.weights, res.phi.values))
             + sum(w * v for w, v in zip(prob.target_mass, res.psi.values)))
    assert value == tp.lp_oracle(prob).exact_value == res.exact_value
    assert res.converged and res.exact_gap == 0
    assert optimum is None or value == optimum


@pytest.mark.parametrize("build, optimum", [
    (lambda: fm.toric_pair([(-1, -1), (2, -1), (-1, 2)],
                           resolution=F(1, 16))[1], 1 + F(1, 3 * 16 ** 2)),
    (lambda: fm.mumford_family(co.MumfordData((co.PhiAxis(), co.PhiAxis())),
                               [1, 2], resolution=F(1, 10))[1], F(41, 50)),
], ids=["toric-1/16", "torus-1/10"])
def test_minimize_support_primal_is_the_exact_optimum(monkeypatch, build,
                                                      optimum):
    """The finisher's flow, summed exactly over its support as
    sum K x / (D Q), is the oracle's exact optimum, and the reported gap is
    value less that sum, rounded once."""
    solve, seen = _flow.solve_transport, []

    def recorded(*args, **kwargs):
        seen.append(solve(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(_flow, "solve_transport", recorded)
    prob = build()
    res = tp.minimize_kontorovich(prob)
    (rows, cols, flow), *_ = seen[0]
    K, D = prob._integer()
    Q = lcm(*(w.denominator for w in (*prob.mu0.weights, *prob.target_mass)))
    primal = F(sum(int(K[i, j]) * int(x) for i, j, x in
                   zip(rows.tolist(), cols.tolist(), flow.tolist())), D * Q)
    assert primal == tp.lp_oracle(prob).exact_value == optimum
    assert res.gap == res.value - float(primal)


@pytest.mark.parametrize("top, cells, gap", [
    pytest.param(1, ([0, 1], [1, 0], [1, 1]), F(1, 2), id="antidiagonal"),
    pytest.param(0, ([0, 0, 1, 1], [0, 1, 0, 1], [2, -1, -1, 2]), 0,
                 id="negative-flow"),
])
def test_minimize_refuses_a_suboptimal_plan(monkeypatch, top, cells, gap):
    """A finisher that hands back balanced flows that are not an optimal
    plan is caught exactly at any scale.  With costs 10^9 + 1 and 10^9 the
    anti-diagonal plan falls short of the optimum by exactly 1/2; signed
    flows that balance with a gap of 0 are no plan at all."""
    solve = _flow.solve_transport

    def faked(*args, **kwargs):
        _, *rest = solve(*args, **kwargs)
        return tuple(np.array(v) for v in cells), *rest

    monkeypatch.setattr(_flow, "solve_transport", faked)
    pts = [(F(0),), (F(1),)]
    table = {(x, p): 10 ** 9 + top * (x == p == pts[0])
             for x in pts for p in pts}
    half = [F(1, 2)] * 2
    prob = tp.TransportProblem(table_cost(table), measure(pts, half),
                               measure(pts, half))
    res = tp.minimize_kontorovich(prob)
    assert res.unshipped == 0 and res.converged is False
    assert res.exact_value == 10 ** 9 + F(top, 2)
    assert res.exact_gap == gap and res.gap == float(gap)


@pytest.mark.parametrize("l", [128, 256])
def test_minimize_certifies_the_toric_optimum_without_the_oracle(l):
    """Beyond the oracle's cap, the exact value is the grid's known optimum
    1 + 1/(3 l^2), certified by an exact gap of 0."""
    prob = fm.toric_pair([(-1, -1), (2, -1), (-1, 2)], resolution=F(1, l))[1]
    res = tp.minimize_kontorovich(prob)
    assert res.converged and res.exact_gap == 0
    assert res.exact_value == 1 + F(1, 3 * l ** 2)


def test_minimize_builds_no_float_cost_matrix():
    """The gap is summed over the flow's support in integers, so a solve
    never fills the float cost matrix."""
    prob = abelian_problem(8, 12)
    assert tp.minimize_kontorovich(prob).converged
    assert prob._cost_array is None


def _toric_64():
    return fm.toric_pair([(-1, -1), (2, -1), (-1, 2)],
                         resolution=F(1, 64))[1]


def _traced_peak(call):
    """call's result and the tracemalloc peak of what it allocates."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_minimize_reads_the_integer_costs_in_place(monkeypatch):
    """The finisher gets the cached K itself, and the whole solve,
    transform included, allocates less than one more copy of K."""
    solve, seen = _flow.solve_transport, []

    def recorded(C, *args, **kwargs):
        seen.append(C)
        return solve(C, *args, **kwargs)

    monkeypatch.setattr(_flow, "solve_transport", recorded)
    prob = _toric_64()
    K = prob._integer()[0]
    res, peak = _traced_peak(lambda: tp.minimize_kontorovich(prob))
    assert res.converged and peak < K.nbytes
    assert seen[0] is K


def test_exact_transform_builds_no_score_matrix():
    """The exact transform keeps a running column maximum, so it allocates
    a small fraction of the n x m cost matrix it reads."""
    prob = _toric_64()
    K, D = prob._integer()
    phi = tp.minimize_kontorovich(prob).phi
    (vals, args), peak = _traced_peak(
        lambda: tp._exact_argmax(K, D, phi.values))
    assert (vals, args) == (prob.transform(phi).values,
                            prob.transform(phi).argmax)
    assert peak < K.nbytes / 4


def test_minimize_rounds_costs_beyond_int64_once(monkeypatch):
    """A cost entry of 3^50 puts K in Python ints; the finisher then gets
    its floats, and the solve converges to the oracle's exact optimum."""
    solve, seen = _flow.solve_transport, []

    def recorded(C, *args, **kwargs):
        seen.append(C)
        return solve(C, *args, **kwargs)

    monkeypatch.setattr(_flow, "solve_transport", recorded)
    pts = [(F(k),) for k in range(3)]
    table = {(x, p): int(x != p) for x in pts for p in pts}
    table[pts[0], pts[0]] = 3 ** 50
    prob = tp.TransportProblem(table_cost(table), measure(pts, [F(1, 3)] * 3),
                               measure(pts, [F(1, 3)] * 3))
    res = tp.minimize_kontorovich(prob)
    assert prob._integer()[0].dtype == object and seen[0].dtype == float
    assert res.converged
    assert res.value == float(tp.lp_oracle(prob).exact_value)


def test_minimize_ships_masses_beyond_int64_exactly(monkeypatch):
    """Marginals over 2^70 reach the finisher as Python ints, and its flow
    meets them exactly."""
    solve, seen = _flow.solve_transport, []

    def recorded(*args, **kwargs):
        seen.append((args, solve(*args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(_flow, "solve_transport", recorded)
    Q, pts = 2 ** 70, [(F(0),), (F(1),)]
    table = {(x, p): int(x != p) for x in pts for p in pts}
    prob = tp.TransportProblem(table_cost(table),
                               measure(pts, [F(1, Q), 1 - F(1, Q)]),
                               measure(pts, [1 - F(1, Q), F(1, Q)]))
    res = tp.minimize_kontorovich(prob)
    (_, a, b), ((rows, cols, flow), _, _, _, unshipped) = seen[0]
    assert a.dtype == b.dtype == flow.dtype == object
    assert a.tolist() == [1, Q - 1] and b.tolist() == [Q - 1, 1]
    assert rows.tolist() == [0, 1] and cols.tolist() == [1, 0]
    assert flow.tolist() == [1, Q - 1] and unshipped == 0
    assert res.converged and res.unshipped == 0
    assert res.value == pytest.approx(1.0)
    assert [v.tolist() for v in res.plan] == [[0, 1], [1, 0],
                                              [2.0 ** -70, 1.0]]


def test_lp_two_by_two_antidiagonal():
    pts_x = [(F(0),), (F(1),)]
    pts_p = [(F(0),), (F(1),)]
    table = {((F(0),), (F(0),)): 0, ((F(0),), (F(1),)): 1,
             ((F(1),), (F(0),)): 1, ((F(1),), (F(1),)): 0}
    prob = tp.TransportProblem(table_cost(table), measure(pts_x, [0.5, 0.5]),
                               measure(pts_p, [0.5, 0.5]))
    lp = tp.lp_oracle(prob)
    assert lp.exact_value == 1
    assert [v.tolist() for v in lp.plan] == [[0, 1], [1, 0], [0.5, 0.5]]


def test_lp_plan_marginals_exactly_feasible():
    prob = abelian_problem(8, 12)
    lp = tp.lp_oracle(prob)
    a = np.array(prob.mu0.weights, dtype=float)
    b = np.array(prob.target_mass, dtype=float)
    rows, cols, mass = lp.plan
    assert (mass > 0).all()
    assert np.allclose(np.bincount(rows, mass, len(a)), a, atol=1e-15)
    assert np.allclose(np.bincount(cols, mass, len(b)), b, atol=1e-15)


def test_lp_single_point():
    mu = measure([(F(1, 3),)], [1.0])
    nu = measure([(F(1, 2),)], [1.0])
    lp = tp.lp_oracle(tp.TransportProblem(PAIR, mu, nu))
    assert lp.exact_value == F(1, 6)
    assert [v.tolist() for v in lp.plan] == [[0], [0], [1.0]]


def test_lp_size_cap():
    prob = abelian_problem(8, 12)
    with pytest.raises(SizeCapExceeded):
        tp.lp_oracle(prob, size_cap=4)


def test_lp_duals_cover_cost():
    prob = abelian_problem(8, 12)
    lp = tp.lp_oracle(prob)
    u, v = lp.dual_potentials
    mat = prob.exact_cost
    assert all(u[i] + v[j] >= mat[i][j]
               for i in range(len(u)) for j in range(len(v)))


def assert_certified(C, a, b):
    """solve_exact's flows are a plan with the exact marginals, its duals are
    exactly feasible, and its value is the plan's value and the duals' bound."""
    n, m = len(a), len(b)
    K, D = co.over_lcm(C, m)
    flows, u, v, value, pivots = _simplex.solve_exact(K, D, a, b)
    assert all(fl >= 0 for fl in flows.values())
    assert [sum((fl for (i, _), fl in flows.items() if i == r), F(0))
            for r in range(n)] == list(a)
    assert [sum((fl for (_, j), fl in flows.items() if j == c), F(0))
            for c in range(m)] == list(b)
    assert value == sum(int(K[i, j]) * fl for (i, j), fl in flows.items()) / D
    assert all(C[i][j] <= u[i] + v[j] for i in range(n) for j in range(m))
    assert value == sum(x * y for x, y in zip(a, u)) + \
        sum(x * y for x, y in zip(b, v))
    return value, pivots


def test_simplex_exact_pricing_on_wide_range_costs():
    # float pricing stops here with duals violated by 200
    C = [[F(0), F(100)], [F(100), F(0)], [F(10 ** 15), F(0)]]
    value, pivots = assert_certified(C, [F(1, 3)] * 3, [F(1, 2)] * 2)
    assert value == F(1000000000000150, 3)
    assert pivots == 3


def test_simplex_certified_on_random_wide_range_costs():
    beyond_int64 = 0
    # entries near 3^50 put K beyond int64, so pricing runs on Python ints
    for big in (10 ** 12, 3 ** 50):
        rng = random.Random(7)
        for _ in range(60):
            n, m = rng.randint(2, 6), rng.randint(2, 6)
            C = [[F(rng.randint(-100, 100), rng.randint(1, 9))
                  * (big if rng.random() < 0.1 else 1)
                  for _ in range(m)] for _ in range(n)]
            a = [F(rng.randint(1, 9)) for _ in range(n)]
            b = [F(rng.randint(1, 9)) for _ in range(m)]
            b = [y * sum(a) / sum(b) for y in b]
            assert_certified(C, a, b)
            beyond_int64 += co.over_lcm(C, m)[0].dtype == object
    assert beyond_int64 > 0


# -- energy and relative volume ------------------------------------------------------


def test_ma_energy_shift_rule():
    prob = abelian_problem(8, 12)
    phi = field(prob.mu0.points, [F(k, 13) for k in range(len(prob.mu0.points))])
    a = F(7, 5)
    d = tp.ma_energy(prob, phi.shifted(a)) - tp.ma_energy(prob, phi)
    assert d == pytest.approx(prob.ln_norm * float(a), abs=1e-12)


def test_ma_energy_zero_cost_zero_potential():
    pts = [(F(0),), (F(1, 2),)]
    zero = co.CostFunction(None, None, lambda x, p: F(0), lipschitz_x=0.0)
    prob = tp.TransportProblem(zero, measure(pts, [0.5, 0.5]),
                               measure(pts, [0.5, 0.5]))
    assert tp.ma_energy(prob, field(pts, [0, 0])) == 0.0


def rank1_family(levels):
    return co.ThetaFamily({
        l: tuple(co.theta_section(RANK1, l, (F(j, l),)) for j in range(l))
        for l in levels})


def test_relative_volume_zero_for_equal_potentials():
    prob = abelian_problem(8, 8)
    fam = rank1_family([4])
    phi = field(prob.mu0.points, [F(k, 9) for k in range(len(prob.mu0.points))])
    out = tp.relative_volume_sum(phi, phi, fam, 4)
    assert out["vol"] == 0.0 and out["scaled"] == 0.0


def test_relative_volume_missing_level():
    prob = abelian_problem(8, 8)
    fam = rank1_family([4])
    phi = field(prob.mu0.points, [0] * len(prob.mu0.points))
    with pytest.raises(MissingLevel):
        tp.relative_volume_sum(phi, phi, fam, 8)


def test_relative_volume_evaluates_each_section_once_per_point(monkeypatch):
    """On a shared grid each (section, point) pair costs one val_at call, and
    the sum is the one the per-potential transforms give."""
    prob = abelian_problem(32, 32)
    fam = rank1_family([32])
    pts = prob.mu0.points
    phi = field(pts, [3 * abs(p[0] - F(1, 2)) / 2 for p in pts])
    psi = field(pts, [F(k % 5, 7) for k in range(len(pts))])

    def transform_at(pot, sec):
        return max(-F(co.val_at(sec, x)) / 32 - fv
                   for x, fv in zip(pot.points, pot.values))

    vol = 32 * sum(fam.mult(32, sec.label)
                   * (transform_at(psi, sec) - transform_at(phi, sec))
                   for sec in fam.sections(32))
    calls = []

    def counted(sec, x):
        calls.append(1)
        return co.val_at(sec, x)

    monkeypatch.setattr(tp, "val_at", counted)
    out = tp.relative_volume_sum(phi, psi, fam, 32)
    assert len(pts) == 32 and len(calls) == 32 * 32
    assert out == {"vol": float(vol), "scaled": float(F(1, 32 ** 2) * vol)}


def test_relative_volume_constant_shift_approaches_shift():
    # scaled(phi + a, phi) -> ln_norm * a as the level grows
    prob = abelian_problem(16, 16)
    fam = rank1_family([4, 8, 16, 32])
    phi = field(prob.mu0.points, [0] * len(prob.mu0.points))
    a = F(3, 4)
    errs = []
    for l in (4, 8, 16, 32):
        out = tp.relative_volume_sum(phi.shifted(a), phi, fam, l)
        errs.append(abs(out["scaled"] - float(a)))
    assert errs[-1] <= 0.05 * float(a)
    assert all(b <= x + 1e-12 for x, b in zip(errs, errs[1:]))
