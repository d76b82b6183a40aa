"""The exact simplex oracle against the per-pivot tree walk it replaced.

`_reference_solve_exact` is the earlier loop, kept verbatim with the
helpers it called, but for its start: every pivot walks the whole basis tree
from source 0 for parent, depth and the integer duals, then prices every
cell afresh, and the flows are (main, eps) pairs in a dict keyed by cell.
Its start is the greedy max-K basis in that pair form, a sort by (-K, cell)
and the same shipping rule.  `_simplex.solve_exact` keeps one integer flow
per tree node and re-hangs only the subtree the leaving edge cuts off, so
with the same start and pivot rule it must return the same flows, duals,
value and pivot count on every instance.

`_argsort_greedy_start` is the earlier form of `_simplex._greedy_start`,
kept verbatim: a stable argsort of every cell by -K.  The heap start must
ship the same cells in the same order, so both return the same adjacency
and flows.
"""

import random
import tracemalloc
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from skelot import _simplex
from skelot import cost as co
from skelot import families as fm
from skelot import transport as tp
from skelot.errors import InfeasibleMarginals, NotConverged
from skelot.polyhedral import DiscreteMeasure
from test_acceptance import QUARTIC, shipped_instances

F = Fraction


def _greedy_start(K: list, ap: list, bp: list) -> dict:
    """Initial basis: the cells by K, largest first, row-major on ties, each
    shipping the least of its row's and column's mass left while both have
    some.  With the perturbation a supply and a demand run out together
    only at the last cell, so the basis has n + m - 1 cells."""
    n, m = len(ap), len(bp)
    rem_a, rem_b = list(ap), list(bp)
    basis = {}
    for i, j in sorted(((i, j) for i in range(n) for j in range(m)),
                       key=lambda c: (-K[c[0]][c[1]], c)):
        if len(basis) == n + m - 1:
            break
        if rem_a[i] == (0, 0) or rem_b[j] == (0, 0):
            continue
        take = basis[(i, j)] = min(rem_a[i], rem_b[j])
        rem_a[i] = (rem_a[i][0] - take[0], rem_a[i][1] - take[1])
        rem_b[j] = (rem_b[j][0] - take[0], rem_b[j][1] - take[1])
    return basis


def _cell(x: int, y: int, n: int) -> tuple:
    """Basis cell of the tree edge between nodes x and y."""
    return (x, y - n) if x < n else (y, x - n)


def _walk(adj: list, K: list, n: int) -> tuple:
    """Parent, depth and integer duals of the basis tree rooted at source 0.

    Nodes 0..n-1 are sources, n.. targets; W[x] is u_x D for a source and
    v_j D for target n + j, with W[0] = 0 and W[i] + W[n + j] = K[i][j] on
    every basic cell.
    """
    parent = [None] * len(adj)
    depth = [0] * len(adj)
    W = [0] * len(adj)
    parent[0] = 0
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if parent[y] is None:
                i, j = _cell(x, y, n)
                parent[y], depth[y], W[y] = x, depth[x] + 1, K[i][j] - W[x]
                stack.append(y)
    return parent, depth, W


def _reference_solve_exact(K, D, a, b):
    n, m = len(a), len(b)
    if sum(a) != sum(b):
        raise InfeasibleMarginals("marginal masses differ")
    Q = lcm(*(F(x).denominator for x in (*a, *b)))
    ap = [(int(x * Q), 1) for x in a]
    bp = [(int(y * Q), 0) for y in b]
    bp[-1] = (bp[-1][0], n)
    Kl = K.tolist()
    basis = _greedy_start(Kl, ap, bp)
    adj = [set() for _ in range(n + m)]
    for i, j in basis:
        adj[i].add(n + j)
        adj[n + j].add(i)

    kmax = max((abs(k) for row in Kl for k in row), default=0)
    # |U|, |V| <= (n + m - 1) kmax, so |K - U - V| < kmax (2 (n + m) + 1)
    dtype = np.int64 if kmax * (2 * (n + m) + 1) < 2 ** 63 else object
    Kp = K.astype(dtype)
    max_pivots = 60 * (n + m) + 2000

    for pivot in range(max_pivots + 1):
        parent, depth, W = _walk(adj, Kl, n)
        R = Kp - np.array(W[:n], dtype=dtype)[:, None] \
            - np.array(W[n:], dtype=dtype)[None, :]
        best = int(np.argmax(R))  # row-major lowest index on ties
        if R.flat[best] <= 0:  # basic cells price to exactly 0
            break
        if pivot == max_pivots:
            raise NotConverged("pivot budget exhausted in the exact solver")
        enter = divmod(best, m)
        # the cycle: tree paths from ei and from n + ej up to where they meet;
        # on each, the edges alternate -, +, - from its start
        x, y = enter[0], n + enter[1]
        up_x, up_y = [], []
        while x != y:
            if depth[x] >= depth[y]:
                up_x.append(_cell(x, parent[x], n))
                x = parent[x]
            else:
                up_y.append(_cell(y, parent[y], n))
                y = parent[y]
        minus = up_x[0::2] + up_y[0::2]
        theta = min(basis[c] for c in minus)
        leave = min(c for c in minus if basis[c] == theta)
        for c in minus:
            basis[c] = (basis[c][0] - theta[0], basis[c][1] - theta[1])
        for c in up_x[1::2] + up_y[1::2]:
            basis[c] = (basis[c][0] + theta[0], basis[c][1] + theta[1])
        basis[enter] = theta
        del basis[leave]
        adj[enter[0]].add(n + enter[1])
        adj[n + enter[1]].add(enter[0])
        adj[leave[0]].discard(n + leave[1])
        adj[n + leave[1]].discard(leave[0])

    flows = {cell: F(main, Q) for cell, (main, _) in basis.items()}
    assert all(fl >= 0 for fl in flows.values())
    value = F(sum(Kl[i][j] * main for (i, j), (main, _) in basis.items()),
              D * Q)
    u = [F(w, D) for w in W[:n]]
    v = [F(w, D) for w in W[n:]]
    return flows, u, v, value, pivot


def _assert_same(K, D, a, b):
    got = _simplex.solve_exact(K, D, a, b)
    assert got == _reference_solve_exact(K, D, a, b)
    return got


def _oracle_args(problem):
    """(K, D, a, b) as lp_oracle hands them to the simplex: the exact
    marginals, with the targets of zero mass set aside."""
    K, D = problem._integer()
    keep = [j for j, y in enumerate(problem.target_mass) if y]
    return (K.take(keep, axis=1), D, problem.mu0.weights,
            [problem.target_mass[j] for j in keep])


def _toric(l):
    return fm.toric_pair([(-1, -1), (2, -1), (-1, 2)], resolution=F(1, l))[1]


def test_toric_1_128_pivots_and_value():
    K, D, a, b = _oracle_args(_toric(128))
    assert K.shape == (384, 1152)
    _, _, _, value, pivots = _simplex.solve_exact(K, D, a, b)
    assert pivots == 201 and value == 1 + F(1, 3 * 128 * 128)


def test_solve_exact_peak_memory_toric_1_64():
    """The oracle holds K once and the reduced costs R: its traced peak is
    about 1.9 K.nbytes (8.5 with a Python-int copy of K, a C-order copy
    and an argsort of every cell)."""
    K, D, a, b = _oracle_args(_toric(64))
    tracemalloc.start()
    try:
        _simplex.solve_exact(K, D, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * K.nbytes


@pytest.mark.parametrize("l", [16, 32, 64],
                         ids=["toric-1/16", "toric-1/32", "toric-1/64"])
def test_toric_matches_reference(l):
    prob = _toric(l)
    _, u, v, value, pivots = _assert_same(*_oracle_args(prob))
    assert pivots == {16: 25, 32: 50, 64: 101}[l]
    lp = tp.lp_oracle(prob)
    assert lp.dual_potentials == (tuple(u), tuple(v))
    assert value == lp.exact_value == 1 + F(1, 3 * l * l)


SHIPPED = dict(shipped_instances())


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_acceptance_instances_match_reference(name):
    _assert_same(*_oracle_args(SHIPPED[name]))


def _wide_range_instances(big):
    """test_transport's seeded instances: about one entry in ten is scaled
    by big, so with big = 3^50 K lies beyond int64."""
    rng = random.Random(7)
    for _ in range(60):
        n, m = rng.randint(2, 6), rng.randint(2, 6)
        C = [[F(rng.randint(-100, 100), rng.randint(1, 9))
              * (big if rng.random() < 0.1 else 1)
              for _ in range(m)] for _ in range(n)]
        a = [F(rng.randint(1, 9)) for _ in range(n)]
        b = [F(rng.randint(1, 9)) for _ in range(m)]
        yield (*co.over_lcm(C, m), a, [y * sum(a) / sum(b) for y in b])


@pytest.mark.parametrize("big", [10 ** 12, 3 ** 50], ids=["int64", "object"])
def test_wide_range_instances_match_reference(big):
    dtypes = set()
    for K, D, a, b in _wide_range_instances(big):
        _assert_same(K, D, a, b)
        dtypes.add(K.dtype)
    assert (np.dtype(object) in dtypes) == (big > 2 ** 63)


@pytest.mark.parametrize("seed", range(30))
def test_tied_instances_match_reference(seed):
    """Costs in {-2..2}: many cells tie for entering and leaving."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 12), rng.randint(1, 12)
    K = np.array([[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)],
                 dtype=np.int64)
    a = [F(rng.randint(0, 3)) for _ in range(n)]
    if seed % 3 == 0:
        a[rng.randrange(n)] = F(0)  # a zero-supply row besides chance ones
    if sum(a) == 0:
        a[0] = F(1)
    b = [F(rng.randint(1, 3)) for _ in range(m)]
    _assert_same(K, rng.randint(1, 3), a, [y * sum(a) / sum(b) for y in b])


def _argsort_greedy_start(Kp: np.ndarray, ap: list, bp: list) -> tuple:
    """The greedy start's adjacency (sources 0..n-1, targets n..) and the
    flow of each cell, visited by K, largest first, row-major on ties."""
    n, m = len(ap), len(bp)
    rem = [*ap, *bp]
    adj = [set() for _ in range(n + m)]
    shipped = {}
    for c in np.argsort(-Kp, axis=None, kind="stable"):
        i, j = divmod(int(c), m)
        if rem[i] and rem[n + j]:
            take = shipped[i, j] = min(rem[i], rem[n + j])
            rem[i], rem[n + j] = rem[i] - take, rem[n + j] - take
            adj[i].add(n + j)
            adj[n + j].add(i)
            if len(shipped) == n + m - 1:
                break
            assert rem[i] or rem[n + j], "a row and a column closed early"
    return adj, shipped


def _perturbed(a, b):
    """Integer marginals as solve_exact builds them: scaled by Q and
    M = 2n + 1, +1 on every supply and +n on the last demand."""
    n = len(a)
    Q, M = lcm(*(F(x).denominator for x in (*a, *b))), 2 * n + 1
    bp = [int(y * Q) * M for y in b]
    bp[-1] += n
    return [int(x * Q) * M + 1 for x in a], bp


def _start_instances(seed):
    """Seeded (K, a, b): entries in {-2..2}, so ties are common, times
    3^50 in every third instance (an object K beyond int64); every fourth
    instance has one row or one column."""
    rng = random.Random(seed)
    n, m = rng.randint(1, 15), rng.randint(1, 15)
    if seed % 4 == 0:
        n, m = (1, m) if seed % 8 == 0 else (n, 1)
    K = np.array([[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)],
                 dtype=np.int64)
    if seed % 3 == 0:
        K = K.astype(object) * 3 ** 50
    a = [F(rng.randint(0, 3)) for _ in range(n)]
    if sum(a) == 0:
        a[0] = F(1)
    b = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(m)]
    return K, a, [y * sum(a) / sum(b) for y in b]


@pytest.mark.parametrize("seed", range(40))
def test_heap_start_matches_argsort_start(seed):
    K, a, b = _start_instances(seed)
    ap, bp = _perturbed(a, b)
    assert _simplex._greedy_start(K, ap, bp) == \
        _argsort_greedy_start(K, ap, bp)


def test_object_dtype_matches_reference():
    """Entries at and above 2^63 take the object path end to end."""
    rng = random.Random(3)
    K = np.array([[2 ** 63 + rng.randint(0, 5) * 2 ** 60 for _ in range(9)]
                  for _ in range(7)], dtype=object)
    a = [F(rng.randint(1, 4)) for _ in range(7)]
    b = [F(rng.randint(1, 4)) for _ in range(9)]
    b = [y * sum(a) / sum(b) for y in b]
    out = _assert_same(K, 5, a, b)
    assert out[4] > 0


def test_constant_cost_matches_reference():
    """Every cell ties: the greedy start is already optimal."""
    K = np.full((5, 7), 3, dtype=np.int64)
    out = _assert_same(K, 2, [F(1, 5)] * 5, [F(1, 7)] * 7)
    assert out[4] == 0 and out[3] == F(3, 2)


def test_stops_on_a_fresh_walk(monkeypatch):
    """The last walk from the root runs after the last pivot, and the duals
    returned are the ones it computed."""
    walks = []
    hang = _simplex._hang

    def recorded(adj, K, n, parent, depth, W, root):
        below = hang(adj, K, n, parent, depth, W, root)
        if root == 0:
            walks.append(list(W))
        return below

    monkeypatch.setattr(_simplex, "_hang", recorded)
    K, D, a, b = _oracle_args(_toric(16))
    _, u, v, _, pivots = _simplex.solve_exact(K, D, a, b)
    assert pivots > 0 and len(walks) == 2
    assert walks[-1] == [x * D for x in (*u, *v)]


def _reduced_costs(prob, lp):
    """K - U - V for the oracle's duals (U = u D, V = v D), which must be
    integers."""
    K, D = prob._integer()
    u, v = lp.dual_potentials
    U = np.array([x * D for x in u], dtype=object)
    V = np.array([x * D for x in v], dtype=object)
    assert all(x.denominator == 1 for x in (*U, *V))
    U, V = U.astype(np.int64), V.astype(np.int64)
    return K - U[:, None] - V[None, :]


def test_lp_oracle_certifies_toric_1_64_under_default_cap():
    prob = _toric(64)
    assert (len(prob.mu0.points), len(prob.nu0.points)) == (192, 576)
    lp = tp.lp_oracle(prob)
    assert _reduced_costs(prob, lp).max() <= 0  # exact dual feasibility
    assert lp.exact_value == 1 + F(1, 3 * 64 * 64)
    res = tp.minimize_kontorovich(prob)
    assert res.converged
    assert abs(res.value - lp.primal_value) <= 1e-9 * (1 + abs(res.value))


def _zero_mass_table():
    """2 x 3 table whose middle target has zero mass; its dual is
    max(5 - u_0, 7 - u_1), not 0."""
    table = [[1, 5, 0], [0, 7, 2]]
    cost = co.CostFunction(None, None,
                           lambda x, p: F(table[int(x[0])][int(p[0])]),
                           lipschitz_x=1.0)
    pts = tuple((F(k),) for k in range(3))
    mu = DiscreteMeasure(pts[:2], (F(1, 2), F(1, 2)), (0, 0), 1)
    nu = DiscreteMeasure(pts, (F(1, 2), 0, F(1, 2)), (0, 0, 0), 1)
    return tp.TransportProblem(cost, mu, nu)


@pytest.mark.parametrize("make, n_zero", [
    (lambda: fm.intermediate_family(QUARTIC, resolution=F(1, 16)), 2),
    (_zero_mass_table, 1),
], ids=["intermediate-1/16", "table"])
def test_oracle_duals_cover_zero_mass_targets(make, n_zero):
    """W vanishes at two of intermediate 1/16's 17 targets.  lp_oracle sets
    zero-mass targets aside, yet its duals keep u_i + v_j >= c_ij exactly on
    every cell, with a tight cell in every set-aside column and the
    simplex's own duals on the others."""
    prob = make()
    zero = [j for j, y in enumerate(prob.target_mass) if y == 0]
    assert len(zero) == n_zero
    lp = tp.lp_oracle(prob)
    R = _reduced_costs(prob, lp)
    assert R.max() <= 0
    assert (R[:, zero].max(axis=0) == 0).all()
    _, cols, mass = lp.plan
    assert (mass > 0).all() and not set(cols.tolist()) & set(zero)
    _, u, v, value, _ = _simplex.solve_exact(*_oracle_args(prob))
    u_lp, v_lp = lp.dual_potentials
    assert u_lp == tuple(u) and lp.exact_value == value
    assert [x for j, x in enumerate(v_lp) if j not in zero] == v


def test_solve_exact_rejects_a_zero_demand():
    K = np.array([[1, 0], [0, 1]], dtype=np.int64)
    with pytest.raises(InfeasibleMarginals):
        _simplex.solve_exact(K, 1, [F(1, 2), F(1, 2)], [F(1), F(0)])
