"""The flow finisher against the dense Dijkstra it replaced, bit for bit.

`_reference_dijkstra` is the earlier vectorized pass: two full masks and two
argmins per pop and a column scan per target pop, kept as it was except
that masses are integers, so a node has mass left when it is > 0.  It reads
the arc costs W = -C and a dense n x m flow; the finisher reads C itself and
keeps only the support back[j] = {source: flow}, so the reference gets -C
and the dense flow that support stands for.  `_reference_pass` turns its
result into the potential step `_flow._dijkstra` returns: the distances
capped at the end target's, or None when no target is reached.  The
wrapper runs it beside `_flow._dijkstra` on every pass of `solve_transport`,
on every level of a multiscale solve, on the same integer potentials; the
finisher's integer steps, in the dtype `_int_dtype` picks for the solve's
bound, cast to float64 (exact far below 2^53, as on every instance here),
must have the same bytes as the reference's float steps, so every
relaxation must match while the pop order among equal distances may differ.
Where the reference drives a whole solve, its steps are cast back to the
potentials' integer dtype, exactly.
`_reference_ship_tight` is likewise the zero-reduced-cost search as it was
on the dense flow, which it re-scanned for its support every round; every
search of a checked solve must leave the same flow and masses and ship the
same number of paths.  Every instance has integer marginals, as the
finisher takes them.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from skelot import _flow
from skelot import cost as co
from skelot import families as fm
from skelot import transport as tp
from skelot._linalg import (ProductRows, StoredRows, _int_array, _int_dtype,
                            as_rows, over_lcm)
from skelot.errors import InfeasibleMarginals
from skelot.polyhedral import quadrature

F = Fraction


def _reference_dijkstra(W, pu, pv, flow, rem_a, rem_b):
    n, m = W.shape
    ds = np.where(rem_a > 0, 0.0, np.inf)
    dt = np.full(m, np.inf)
    prev_t = np.full(m, -1, dtype=np.int64)
    prev_s = np.full(n, -1, dtype=np.int64)
    vis_s = np.zeros(n, dtype=bool)
    vis_t = np.zeros(m, dtype=bool)

    while True:
        ms = np.where(vis_s, np.inf, ds)
        mt = np.where(vis_t, np.inf, dt)
        i = int(np.argmin(ms))
        j = int(np.argmin(mt))
        if ms[i] <= mt[j]:
            if not np.isfinite(ms[i]):
                return ds, dt, prev_s, prev_t, -1
            vis_s[i] = True
            # forward arcs i -> all targets; reduced cost clipped at 0
            rc = np.maximum(W[i, :] + pu[i] - pv, 0.0)
            cand = ds[i] + rc
            better = (~vis_t) & (cand < dt)
            dt[better] = cand[better]
            prev_t[better] = i
        else:
            if not np.isfinite(mt[j]):
                return ds, dt, prev_s, prev_t, -1
            vis_t[j] = True
            if rem_b[j] > 0:
                return ds, dt, prev_s, prev_t, j
            # backward arcs j -> sources currently shipping into j
            has = flow[:, j] > 0
            rcb = np.maximum(-(W[:, j] + pu - pv[j]), 0.0)
            cand = dt[j] + rcb
            better = has & (~vis_s) & (cand < ds)
            ds[better] = cand[better]
            prev_s[better] = j


def _reference_augment(flow, a, b, prev_s, prev_t, jend):
    fwd, bwd = [], []
    j = jend
    while True:
        i = int(prev_t[j])
        fwd.append((i, j))
        j = int(prev_s[i])
        if j < 0:
            break
        bwd.append((i, j))
    delta = min(a[i], b[jend], *(flow[k, j] for k, j in bwd))
    if delta > 0:
        for k, j in fwd:
            flow[k, j] += delta
        for k, j in bwd:
            flow[k, j] -= delta
        a[i] -= delta
        b[jend] -= delta
    return delta


def _reference_ship_tight(W, pu, pv, flow, a, b):
    n, m = W.shape
    tight = {}
    rc = np.empty(m)
    paths = 0
    while True:
        back = [[] for _ in range(m)]
        ks, js = np.divmod(np.flatnonzero(flow), m)
        for k, j in zip(ks.tolist(), js.tolist()):
            back[j].append(k)
        seen_s = (a > 0).tolist()
        queue = np.flatnonzero(seen_s).tolist()
        prev_s = [-1] * n
        prev_t = [-1] * m
        ends = []
        for i in queue:
            arcs = tight.get(i)
            if arcs is None:
                np.add(W[i], pu[i], out=rc)
                np.subtract(rc, pv, out=rc)
                arcs = tight[i] = np.flatnonzero(rc <= 0).tolist()
            for j in arcs:
                if prev_t[j] >= 0:
                    continue
                prev_t[j] = i
                if b[j] > 0:
                    ends.append(j)
                    continue
                for k in back[j]:
                    if not seen_s[k]:
                        seen_s[k] = True
                        prev_s[k] = j
                        queue.append(k)
        if not ends:
            return paths
        for j in ends:
            if _reference_augment(flow, a, b, prev_s, prev_t, j) > 0:
                paths += 1


def _dense(back, n):
    """The n x m flow of the support back[j] = {source: flow}."""
    flow = np.zeros((n, len(back)), dtype=object)
    for j, col in enumerate(back):
        for k, x in col.items():
            flow[k, j] = x
    return flow


def _back(flow):
    """The support back[j] = {source: flow} of a dense flow."""
    return [{k: flow[k, j] for k in np.flatnonzero(flow[:, j]).tolist()}
            for j in range(flow.shape[1])]


def _reference_pass(C, pu, pv, back, rem_a, rem_b, bound=None):
    C = C.block()
    ds, dt, _, _, end = _reference_dijkstra(-C, pu, pv, _dense(back, len(C)),
                                            rem_a, rem_b)
    if end < 0:
        return None
    return np.minimum(ds, dt[end]), np.minimum(dt, dt[end])


def _flow_matrix(support, shape):
    """The dense flow of solve_transport's support triples, which must be
    row-major with positive flows."""
    rows, cols, flows = support
    assert rows.dtype == cols.dtype == np.int64
    assert (np.diff(rows * shape[1] + cols) > 0).all() and (flows > 0).all()
    flow = np.zeros(shape, dtype=flows.dtype)
    flow[rows, cols] = flows
    return flow


def _assert_same_pass(dijkstra, args):
    args = (as_rows(args[0]), *args[1:])
    new = dijkstra(*args)
    ref = _reference_pass(*args)
    assert (new is None) == (ref is None)
    for got, want in zip(new or (), ref or ()):
        assert got.dtype == _int_dtype(args[-1]) and got.shape == want.shape
        assert got.astype(np.float64).tobytes() == want.tobytes()
    return new


def _exact_step(step, dtype):
    """The reference's float step as the integers it holds, in dtype."""
    if step is None:
        return None
    cast = tuple(x.astype(dtype) for x in step)
    assert all((c == x).all() for c, x in zip(cast, step))
    return cast


def _pass_args(C, pu, pv, flow, rem_a, rem_b):
    """A pass's arguments on a state no solve reaches: every distance is a
    path of at most n + m arcs, each of reduced cost at most
    max|C| + max|pu| + max|pv|, and that bound picks the potentials'
    dtype."""
    bound = sum(C.shape) * sum(int(np.abs(x).max()) for x in (C, pu, pv))
    dtype = _int_dtype(bound)
    return (C, pu.astype(dtype), pv.astype(dtype), _back(flow), rem_a, rem_b,
            bound)


def _assert_same_solve(monkeypatch, C, a, b, levels=()):
    """Every pass, every zero-reduced-cost search and the whole result
    equal the references'.

    Returns the result and the number of passes."""
    dijkstra, ship_tight = _flow._dijkstra, _flow._ship_tight
    passes = []

    def checked(*args):
        passes.append(_assert_same_pass(dijkstra, args))
        return passes[-1]

    def checked_search(C, pu, pv, back, a, b):
        n = C.shape[0]
        flow, ref_a, ref_b = _dense(back, n), a.copy(), b.copy()
        want = _reference_ship_tight(-C.block(), pu, pv, flow, ref_a, ref_b)
        assert ship_tight(C, pu, pv, back, a, b) == want
        assert _dense(back, n).tolist() == flow.tolist()
        assert a.tolist() == ref_a.tolist() and b.tolist() == ref_b.tolist()
        return want

    monkeypatch.setattr(_flow, "_dijkstra", checked)
    monkeypatch.setattr(_flow, "_ship_tight", checked_search)
    got = _flow.solve_transport(C, a, b, levels=levels)
    monkeypatch.setattr(_flow, "_dijkstra", lambda *args: _exact_step(
        _reference_pass(*args), args[1].dtype))
    monkeypatch.setattr(_flow, "_ship_tight", ship_tight)
    want = _flow.solve_transport(C, a, b, levels=levels)
    monkeypatch.setattr(_flow, "_dijkstra", dijkstra)
    for g, w in zip((*got[0], *got[1:3]), (*want[0], *want[1:3])):
        assert g.dtype == w.dtype
        # object flows hold Python ints: compare the values, not the pointers
        assert (g.tolist() == w.tolist() if g.dtype == object
                else g.tobytes() == w.tobytes())
    assert got[3:] == want[3:]
    return got, len(passes)


def _problem_arrays(problem):
    """The rows of the integer costs K of cost = K / D and the exact
    marginals times the lcm of their denominators, as minimize_kontorovich
    passes them."""
    C = problem._rows()[0]
    n = C.shape[0]
    mass, _ = over_lcm([*problem.mu0.weights, *problem.target_mass])
    mass = _int_array(mass)
    return C, mass[:n], mass[n:]


def _toric():
    return fm.toric_pair([(-1, -1), (2, -1), (-1, 2)], resolution=F(1, 16))[1]


def _rank1():
    return fm.mumford_family(co.MumfordData((co.PhiAxis(),)), [1],
                             resolution=F(1, 64))[1]


def _torus():
    return fm.mumford_family(co.MumfordData((co.PhiAxis(), co.PhiAxis())),
                             [1, 2], resolution=F(1, 8))[1]


@pytest.mark.parametrize("build, cold, ladder",
                         [(_toric, (23, 144), (11, 279)),
                          (_rank1, (64, 64), (12, 127)),
                          (_torus, (32, 64), (7, 85))],
                         ids=["toric-1/16", "rank1-1/64", "torus-1/8"])
def test_family_solves_match_reference(monkeypatch, build, cold, ladder):
    """Cold and on the grid's ladder of coarser levels: every pass matches
    the reference, and the passes and augmentations (the paths the
    zero-reduced-cost searches ship, over all levels) are these exact
    counts."""
    problem = build()
    C, a, b = _problem_arrays(problem)
    for levels, counts in (((), cold), (tp._coarse_levels(problem), ladder)):
        (support, _, _, aug, unshipped), passes = _assert_same_solve(
            monkeypatch, C, a, b, levels)
        assert (passes, aug) == counts and unshipped == 0
        plan = _flow_matrix(support, C.shape)
        # flows in the marginals' dtype, the one rule's pick for their bound
        assert plan.dtype == _int_dtype(max(*a.tolist(), *b.tolist()))
        assert (plan.sum(axis=1) == a).all() and (plan.sum(axis=0) == b).all()


# reflexive polygons: the projective plane, P1 x P1 and the hexagon
REFLEXIVE = ([(-1, -1), (2, -1), (-1, 2)],
             [(1, 1), (-1, 1), (-1, -1), (1, -1)],
             [(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])


def _drawn_toric(seed):
    """A reflexive polygon moved by a drawn unimodular map, which keeps it
    reflexive, with its dual's boundary and its own sampled at two drawn
    resolutions, so both grids and the cost's denominators vary."""
    rng = np.random.default_rng(seed + 2000)
    s, t = rng.integers(-2, 3, size=2).tolist()
    U = [[1 + s * t, s], [t, 1]]  # [[1, s], [0, 1]] [[1, 0], [t, 1]]
    verts = [tuple(U[r][0] * x + U[r][1] * y for r in range(2))
             for x, y in REFLEXIVE[seed % len(REFLEXIVE)]]
    pair, _ = fm.toric_pair(verts, resolution=F(1, 2))
    scx, tcx = pair.dual_boundary(), pair.boundary()
    rs, rt = rng.integers(2, 13, size=2).tolist()
    return tp.TransportProblem(co.pairing_cost(scx, tcx),
                               quadrature(scx, F(1, rs), normalize=True),
                               quadrature(tcx, F(1, rt), normalize=True))


@pytest.mark.parametrize("seed", range(8))
def test_pairing_rows_solve_as_the_stored_matrix(monkeypatch, seed):
    """The pairing's rows computed from X P^T and their full block stored
    as K give the same bytes at every `_dijkstra` step of every level, the
    same flows and duals, and the same exact transform of the duals and of
    drawn values."""
    problem = _drawn_toric(seed)
    rows, a, b = _problem_arrays(problem)
    built, D = problem.cost.exact_rows(problem.mu0.points, problem.nu0.points)
    K = built.block()
    assert isinstance(rows, ProductRows) and rows.dtype == K.dtype
    levels = tp._coarse_levels(problem)
    dijkstra, runs = _flow._dijkstra, []
    for C in (rows, StoredRows(K)):
        steps = []
        monkeypatch.setattr(_flow, "_dijkstra",
                            lambda *args: steps.append(dijkstra(*args))
                            or steps[-1])
        runs.append((steps, _flow.solve_transport(C, a, b, levels=levels)))
    (got_steps, got), (want_steps, want) = runs
    assert len(got_steps) == len(want_steps) > 0
    for g, w in zip(got_steps, want_steps):
        assert (g is None) == (w is None)
        assert [x.tobytes() for x in g or ()] == [x.tobytes() for x in w or ()]
    for g, w in zip((*got[0], *got[1:3]), (*want[0], *want[1:3])):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
    assert got[3:] == want[3:] and got[4] == 0
    rng = np.random.default_rng(seed)
    for values in ([F(u) / D for u in got[1].tolist()],
                   [F(int(v), int(q)) for v, q in zip(
                       rng.integers(-10 ** 6, 10 ** 6, size=len(a)),
                       rng.integers(1, 50, size=len(a)))]):
        assert tp._exact_argmax(rows, D, values) == \
            tp._exact_argmax(K, D, values)


def _assert_exact_optimum(C, flow, phi, psi):
    """Integer duals that cover C exactly and are tight on the support."""
    assert phi.dtype == psi.dtype and phi.dtype.kind == "i"
    slack = phi.astype(np.int64)[:, None] + psi.astype(np.int64) - C
    assert (slack >= 0).all()
    assert not slack[flow.astype(bool)].any()


@pytest.mark.parametrize("build", [_toric, _rank1, _torus],
                         ids=["toric-1/16", "rank1-1/64", "torus-1/8"])
def test_duals_on_integer_costs_are_exact_integers(build):
    """On integer costs the finisher's duals are integers that cover K
    exactly and are tight on the support of the flow, cold and
    warm-started from the coarser levels."""
    problem = build()
    K = problem._integer()[0]
    for levels in ((), tp._coarse_levels(problem)):
        support, phi, psi, _, _ = _flow.solve_transport(
            *_problem_arrays(problem), levels=levels)
        _assert_exact_optimum(K, _flow_matrix(support, K.shape), phi, psi)


@pytest.mark.parametrize("seed", range(3))
def test_scaled_costs_scale_the_potentials_in_every_dtype(monkeypatch, seed):
    """A drawn toric instance's K times 2^s, on its ladder: the potential
    bound B = 2M(2L + 1)(A + 2) of the `_flow` docstring picks int32,
    int64 and Python ints (past 2^62) as s grows, and every run takes the
    same passes and augmentations, ships the same flows and returns the
    s = 0 potentials times 2^s exactly, in the rule's dtype.  No float
    reference reaches the Python-int tier; this is its check."""
    problem = _drawn_toric(seed)
    K = problem._integer()[0]
    _, a, b = _problem_arrays(problem)
    levels = tp._coarse_levels(problem)
    bound = (2 * int(np.abs(K).max()) * (2 * len(levels) + 1)
             * (60 * sum(K.shape) + 2002))
    assert bound < 2 ** 30
    dijkstra, runs = _flow._dijkstra, []
    for s in (0, 40 - bound.bit_length(), 70 - bound.bit_length()):
        passes = []
        monkeypatch.setattr(_flow, "_dijkstra", lambda *args: passes.append(
            None) or dijkstra(*args))
        C = StoredRows(K.astype(np.int64) << s)
        (rows, cols, flows), phi, psi, aug, unshipped = \
            _flow.solve_transport(C, a, b, levels=levels)
        assert phi.dtype == psi.dtype == _int_dtype(bound << s)
        assert unshipped == 0
        runs.append((s, (len(passes), aug, rows.tolist(), cols.tolist(),
                         flows.tolist()), phi.tolist(), psi.tolist()))
    assert [_int_dtype(bound << s) for s, *_ in runs] == \
        [np.int32, np.int64, object]
    (_, work, phi, psi), *scaled = runs
    for s, got_work, got_phi, got_psi in scaled:
        assert got_work == work
        assert got_phi == [u << s for u in phi]
        assert got_psi == [v << s for v in psi]


def _tied_instance(seed):
    """Small-integer costs, so equal distances are everywhere; integer
    marginals scaled to balance, with zero-supply rows and, as where the
    intermediate weight vanishes, zero-demand columns."""
    rng = np.random.default_rng(seed)
    n, m = rng.integers(1, 13, size=2)
    C = rng.integers(-2, 3, size=(n, m))
    a = rng.integers(0, 4, size=n)
    b = rng.integers(1, 4, size=m)
    if seed % 3 == 0:
        a[rng.integers(n)] = 0          # a zero-supply row besides chance ones
    if seed % 4 == 1:
        b[rng.integers(m, size=2)] = 0  # zero-demand columns
    if a.sum() == 0:
        a[0] = 1
    if b.sum() == 0:
        b[-1] = 1
    return C, a * b.sum(), b * a.sum()


@pytest.mark.parametrize("seed", range(40))
def test_tied_random_solves_match_reference(monkeypatch, seed):
    C, a, b = _tied_instance(seed)
    (support, _, _, _, unshipped), _ = _assert_same_solve(monkeypatch, C, a, b)
    flow = _flow_matrix(support, C.shape)
    assert unshipped == 0
    assert (flow.sum(axis=1) == a).all() and (flow.sum(axis=0) == b).all()
    assert not flow[:, b == 0].any()


def _random_ladder(seed, n, m):
    """One to three sub-problems on random index sets of an n x m instance,
    with arbitrary balanced integer masses, zero demands among them."""
    rng = np.random.default_rng(seed + 1000)
    levels = []
    for _ in range(rng.integers(1, 4)):
        rows = np.flatnonzero(rng.random(n) < 0.6)
        cols = np.flatnonzero(rng.random(m) < 0.6)
        rows = rows if len(rows) else rng.integers(n, size=1)
        cols = cols if len(cols) else rng.integers(m, size=1)
        a = rng.integers(0, 4, size=len(rows))
        b = rng.integers(0, 4, size=len(cols))
        a[-1] += not a.any()
        b[0] += not b.any()
        levels.append((rows, cols, a * b.sum(), b * a.sum()))
    return levels


def _beyond_int64(v):
    return np.array([int(x) << 70 for x in v], dtype=object)


@pytest.mark.parametrize("seed", range(24))
def test_ladder_solves_reach_the_cold_optimum(monkeypatch, seed):
    """Any ladder of sub-problems is only a warm start: every pass matches
    the reference, and the flow meets the marginals exactly, has the cold
    solve's exact value, and has integer duals that cover C exactly and are
    tight on its support.  Odd seeds carry object masses beyond int64."""
    C, a, b = _tied_instance(seed)
    levels = _random_ladder(seed, *C.shape)
    if seed % 2:
        a, b = _beyond_int64(a), _beyond_int64(b)
        levels = [(r, c, _beyond_int64(x), _beyond_int64(y))
                  for r, c, x, y in levels]
    (support, phi, psi, _, unshipped), _ = _assert_same_solve(
        monkeypatch, C, a, b, levels)
    flow = _flow_matrix(support, C.shape)
    cold = _flow_matrix(_flow.solve_transport(C, a, b)[0], C.shape)
    assert flow.dtype == a.dtype and unshipped == 0
    assert (flow.sum(axis=1) == a).all() and (flow.sum(axis=0) == b).all()

    def value(f):
        return sum(int(c) * int(x)
                   for c, x in zip(C.ravel().tolist(), f.ravel().tolist()))

    assert value(flow) == value(cold)
    _assert_exact_optimum(C, flow, phi, psi)


@pytest.mark.parametrize("shape", [(1, 7), (7, 1), (6, 9)])
def test_point_mass_solves_match_reference(monkeypatch, shape):
    n, m = shape
    rng = np.random.default_rng(n * 10 + m)
    C = rng.integers(0, 2, size=(n, m))
    a = np.zeros(n, dtype=np.int64)
    a[n // 2] = m
    b = np.ones(m, dtype=np.int64)
    (support, _, _, aug, _), _ = _assert_same_solve(monkeypatch, C, a, b)
    plan = _flow_matrix(support, C.shape)
    assert aug == m and (plan[n // 2] == b).all()


@pytest.mark.parametrize("seed", range(10))
def test_arbitrary_passes_match_reference(seed):
    """Passes from states no solve reaches: any support, potentials that
    leave reduced costs of both signs on it, small integers throughout, so
    a backward arc can tie a source with the current source minimum."""
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n, m = rng.integers(1, 10, size=2)
        W = rng.integers(-2, 3, size=(n, m))
        pu = rng.integers(-1, 2, size=n)
        pv = rng.integers(-1, 2, size=m)
        flow = (rng.random((n, m)) < 0.4).astype(np.int64)
        rem_a = rng.integers(0, 2, size=n)
        rem_b = (rng.random(m) < 0.2).astype(np.int64)
        _assert_same_pass(_flow._dijkstra,
                          _pass_args(-W, pu, pv, flow, rem_a, rem_b))


def test_backward_tie_gives_the_same_step():
    """Target 1's backward arc brings source 0 level with source 1, the
    current source minimum; either may pop first, and the step is the
    reference's: the distances capped at target 2's, 3."""
    W = np.array([[9, -1, 1],
                  [-2, 9, 1],
                  [0, 1, 5]])
    flow = np.array([[0, 1, 0],
                     [1, 0, 0],
                     [0, 0, 0]])
    step_s, step_t = _assert_same_pass(
        _flow._dijkstra, _pass_args(-W, np.zeros(3), np.zeros(3), flow,
                                    np.array([0, 0, 1]), np.array([0, 0, 1])))
    assert list(step_s) == [2, 2, 0] and list(step_t) == [0, 1, 3]


def test_unreachable_target_returns_none():
    """With all demand met a pass pops every node it reaches and returns
    None; with no supply left it returns None before any pop."""
    C, a, b = _tied_instance(7)
    n, m = C.shape
    flow = _flow_matrix(_flow.solve_transport(C, a, b)[0], C.shape)
    supply, demand = np.ones(n, dtype=np.int64), np.ones(m, dtype=np.int64)
    for rem in ((supply, 0 * demand), (0 * supply, demand)):
        args = _pass_args(C, np.zeros(n), (-C).min(axis=0), flow, *rem)
        assert _assert_same_pass(_flow._dijkstra, args) is None


def test_search_that_ships_nothing_ends_the_level(monkeypatch):
    """If a search after a pass ships nothing, which only a fault can
    cause, the level stops instead of repeating the same pass, and the
    solve reports the mass it left unshipped."""
    C, a, b = _tied_instance(2)
    dijkstra, calls = _flow._dijkstra, []

    def bounded(*args):
        calls.append(None)
        if len(calls) > 10:
            raise AssertionError("the loop keeps pricing without shipping")
        return dijkstra(*args)

    monkeypatch.setattr(_flow, "_dijkstra", bounded)
    monkeypatch.setattr(_flow, "_ship_tight", lambda *args: 0)
    support, _, _, aug, unshipped = _flow.solve_transport(C, a, b)
    assert len(calls) == 1 and aug == 0 and len(support[0]) == 0
    assert unshipped == a.sum() > 0


def test_unbalanced_marginals_are_rejected():
    """The finisher solves balanced marginals only: on C = [[-2, -1]],
    a = [1], b = [2, 1] it would ship to target 0 (value -2) though -1 is
    possible, so it raises, and so it does when a coarse level is
    unbalanced."""
    C = np.array([[-2, -1]], dtype=np.int64)
    with pytest.raises(InfeasibleMarginals):
        _flow.solve_transport(C, np.array([1]), np.array([2, 1]))
    coarse = (np.arange(1), np.arange(2), np.array([1]), np.array([2, 1]))
    with pytest.raises(InfeasibleMarginals):
        _flow.solve_transport(C, np.array([3]), np.array([2, 1]),
                              levels=(coarse,))


def test_float_costs_are_rejected():
    """The potentials are integers, and numpy will not cast a float C to
    their dtype, so the solve refuses it before any pass."""
    with pytest.raises(TypeError):
        _flow.solve_transport(np.array([[-2.0, -1.0]]), np.array([2]),
                              np.array([1, 1]))


SOLVERS = Path(_flow.__file__).parent


def _imported_modules(path):
    """Every dotted name an import in the file names, split into parts."""
    parts = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{alias.name}"
                                           for alias in node.names]
        else:
            continue
        parts.update(p for name in names for p in name.split("."))
    return parts


@pytest.mark.parametrize("name, other", [("_flow", "_simplex"),
                                         ("_simplex", "_flow")])
def test_solvers_stay_independent(name, other):
    """The flow finisher and the exact simplex cross-check each other, so
    neither imports the other or transport, which drives both."""
    parts = _imported_modules(SOLVERS / f"{name}.py")
    assert not parts & {other, "transport"}
