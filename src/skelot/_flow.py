"""Multiscale primal-dual transportation solver.

Maximizes <C, flow> subject to integer marginals (a, b) by running min-cost
flow on the arc costs -C, read from the rows of C, with Johnson potentials
(pu, pv): every residual arc keeps a reduced cost pu - C - pv >= 0
(forward) or its negative >= 0 (backward, on the flow's support).  Masses
stay integers, so each augmentation ships a positive integer and the flow
meets the marginals exactly.

The loop: a Dijkstra pass from every source with supply left finds the
distance D to the nearest target with demand left, and the potentials move
by the distances capped at D, which keeps every reduced cost >= 0 and makes
a shortest path tight.  The pass only prices; it ships nothing.  Then, with
the potentials fixed, the flow ships along zero-reduced-cost paths from
supply to demand until none is left (the primal-dual method of Ahuja,
Magnanti and Orlin, "Network Flows", ch. 9), the pass's path among them.  A
flow meeting the marginals with reduced costs >= 0 is optimal, whatever
feasible potentials the loop started from.

C is a row source (`_linalg`): an array held whole, or the pairing's
factors X P^T, whose rows are computed when read, so the n x m C need
never exist.  The finisher reads C only by rows (a pass's popped sources,
a search's queued ones, the column minimum below), by entries (a backward
arc's cost, a warm start's row over the previous level's targets) and by
restriction to a coarse level.

Warm start: a solve may first run the same loop on coarser sub-problems of
C (in practice the grid points at 2/l, 4/l, ...; Merigot 2011, "A multiscale
approach to optimal transport"), each C restricted to its rows and columns:
sliced factors, or a copy of the cells of a C held whole.  Each level
starts from pu = max over the previous level's targets of (C - psi),
psi = -pv, and pv = the column minimum of pu - C, which is feasible by
construction; the first level starts cold, from pu = 0.  A coarse level
only shortens the next one's work, never decides its answer.

Exactness: on integer costs every potential, distance and reduced cost is
an integer (a pass only adds, subtracts, negates, compares and takes minima
and maxima).  Let M = max|C|, L the number of levels before the current
one, and A <= 60(n + m) + 2000 its augmentation budget, which bounds its
passes.  A source with supply left has had distance 0 in every pass, so it
keeps its starting potential, and its forward arcs keep reduced costs >= 0.
Starting potentials lie in [-2ML, 2ML] (each level widens the previous
range by M through pv and by M through the max), target potentials never
fall and stay within M of that range, each pass ends within 2M(2L + 1),
source potentials stay in [-2ML, 2ML + 2M(2L + 1)A], and reduced costs and
distances within B = 2M(2L + 1)(A + 2).  So they, and a relaxation's sum of
two, fit `_int_dtype(B)` of the full level (int32, int64 or Python ints),
an unreached node reading B + 1, and phi[i] + psi[j] >= C[i, j] holds
exactly, with equality on the flow's support.

The flow is kept on its support alone, back[j] mapping each source that
ships into target j to its flow.  The graph is dense bipartite, so Dijkstra
keeps no heap: a popped source relaxes its row of forward arcs at once with
numpy, a popped target its few backward arcs, back[j], in scalar arithmetic.
The zero-reduced-cost search finds a source's tight arcs with length-m
vectors.  Rows are the same integers however C holds them, so a solve
takes the same steps on factors as on the matrix they multiply to.
"""

from __future__ import annotations

import numpy as np

from ._linalg import _int_dtype, as_rows
from .errors import InfeasibleMarginals


def _dijkstra(C, pu: np.ndarray, pv: np.ndarray, back: list,
              rem_a: np.ndarray, rem_b: np.ndarray, bound: int):
    """One pricing pass in the residual graph of the costs -C.

    Returns the potential step (step_s, step_t): every node's distance from
    the sources with supply left, capped at D, the distance to the nearest
    target with demand left; None when none lies within `bound`.  The
    step does not depend on the pop order among equal distances: every node
    nearer than D pops, with its exact distance, before the first target
    with demand left, and every other node reads D.

    A source pop reads row i of the row source C and relaxes the forward
    arcs to every open target with length-m vector work, (pu[i] - C[i] -
    pv) clipped at 0 and added to the source's distance, then searches the
    sources for the next minimum.  A target pop relaxes only the backward
    arcs from the sources shipping into it, the keys of back[j], in scalar
    arithmetic on the entries C[k, j]: -(pu[k] - C[k, j] - pv[j]) clipped
    at 0 is added to the target's distance, and the source minimum is
    updated in O(1) per arc.  Its only vector work is the length-m search
    for the next target.
    """
    n, m = C.shape
    dtype, inf = pu.dtype, bound + 1
    # tentative distances of nodes not yet popped; inf once popped
    ms = np.full(n, inf, dtype)
    ms[rem_a > 0] = 0
    mt = np.full(m, inf, dtype)
    ds = np.full(n, inf, dtype)
    dt = np.full(m, inf, dtype)
    open_s = [True] * n
    open_t = np.ones(m, dtype=bool)
    rc = np.empty(m, dtype)
    better = np.empty(m, dtype=bool)
    bi = int(ms.argmin())
    bv = int(ms[bi])
    while True:
        j = int(mt.argmin())
        tv = int(mt[j])
        if tv == bv == inf:
            return None
        if bv <= tv:
            i, d = bi, bv
            ds[i] = d
            ms[i] = inf
            open_s[i] = False
            np.subtract(pu[i], C.row(i), out=rc, dtype=dtype)
            np.subtract(rc, pv, out=rc)
            np.maximum(rc, 0, out=rc)
            np.add(d, rc, out=rc)
            np.less(rc, mt, out=better)
            np.logical_and(better, open_t, out=better)
            np.putmask(mt, better, rc)
            bi = int(ms.argmin())
            bv = int(ms[bi])
        else:
            dt[j] = tv
            if rem_b[j] > 0:
                return np.minimum(ds, tv), np.minimum(dt, tv)
            mt[j] = inf
            open_t[j] = False
            pvj = int(pv[j])
            for k in back[j]:
                c = tv + max(int(C.entries(k, j)) + pvj - int(pu[k]), 0)
                if open_s[k] and c < ms[k]:
                    ms[k] = c
                    if c < bv:
                        bi, bv = k, c


def _augment(back, a, b, prev_s, prev_t, jend):
    """Ship along the search tree's path from a root source to the
    unsaturated target jend as much as it admits: the least of the root's
    supply, jend's demand and the flows in back on its backward arcs, where
    an earlier path may have emptied one.  Returns the amount, 0 when some
    backward arc or the root has nothing left."""
    fwd, bwd = [], []
    j = jend
    while True:
        i = int(prev_t[j])
        fwd.append((i, j))
        j = int(prev_s[i])
        if j < 0:
            break
        bwd.append((i, j))
    delta = min(a[i], b[jend], *(back[j].get(k, 0) for k, j in bwd))
    if delta > 0:
        for k, j in fwd:
            back[j][k] = back[j].get(k, 0) + delta
        for k, j in bwd:
            back[j][k] -= delta
            if not back[j][k]:
                del back[j][k]
        a[i] -= delta
        b[jend] -= delta
    return delta


def _ship_tight(C, pu, pv, back, a, b):
    """Ship along zero-reduced-cost paths until none joins supply to demand.

    The admissible arcs are the forward arcs with pu - C - pv <= 0, found a
    row of the row source C at a time, and the backward arcs on the flow's
    support.  Each round is a breadth-first search from every source with
    supply left; it ships along the tree path to each target with demand
    left that it reached, in the order reached, as far as earlier paths
    left room.  The potentials stay feasible and tight on the new support.
    Returns the number of paths shipped.
    """
    n, m = C.shape
    tight = {}  # source -> admissible targets; the potentials do not move
    rc = np.empty(m, pu.dtype)
    paths = 0
    while True:
        seen_s = (a > 0).tolist()
        queue = np.flatnonzero(seen_s).tolist()
        prev_s = [-1] * n
        prev_t = [-1] * m
        ends = []
        for i in queue:
            arcs = tight.get(i)
            if arcs is None:
                np.subtract(pu[i], C.row(i), out=rc, dtype=rc.dtype)
                np.subtract(rc, pv, out=rc)
                arcs = tight[i] = np.flatnonzero(rc <= 0).tolist()
            for j in arcs:
                if prev_t[j] >= 0:
                    continue
                prev_t[j] = i
                if b[j] > 0:
                    ends.append(j)
                    continue
                for k in sorted(back[j]):
                    if not seen_s[k]:
                        seen_s[k] = True
                        prev_s[k] = j
                        queue.append(k)
        if not ends:
            return paths
        for j in ends:
            if _augment(back, a, b, prev_s, prev_t, j) > 0:
                paths += 1


def solve_transport(C, a: np.ndarray, b: np.ndarray,
                    levels=()):
    """Optimal integer flow and dual potentials for max <C, flow>.

    C, an integer row source (`_linalg.as_rows`) or an integer array read in
    place as one, is a whole problem with a and b; a float C raises TypeError,
    since numpy will not cast it to the potentials' dtype.  Its rows are read
    as the passes need them, and each coarse level restricts it: pairing
    factors are sliced, a C held whole copies the level's cells.  a and b are
    non-negative integer arrays, in any integer dtype that holds every entry
    (no flow exceeds its row's supply) or object.
    levels lists coarse-to-fine sub-problems (rows, cols, a_l, b_l) of C,
    index arrays and their balanced integer marginals, solved before the
    full problem, each warm-started from the duals of the one before.
    Returns ((rows, cols, flows), phi, psi, n_augmentations, unshipped) of
    the full problem: the flow's support row-major, flows in the marginals'
    dtype; the augmentations summed over all levels; integer duals, in
    `_int_dtype` of the module's B on the full level, with phi[i] + psi[j]
    >= C[i, j] everywhere, equal on the support.  Each level's loop runs
    while supply is left; it stops early only at the augmentation budget,
    when no target with demand left is reachable, or when a search after a
    pass ships nothing, which the exact arithmetic never causes.
    unshipped, a Python int, is the full problem's supply left.  Unbalanced
    a and b, on any level, raise InfeasibleMarginals.
    """
    C = as_rows(C)
    n, m = C.shape
    bound = 2 * C.bound * (2 * len(levels) + 1) * (60 * (n + m) + 2002)
    dtype = _int_dtype(bound)
    aug = 0
    carried = None  # (cols, pv) of the level solved last
    for k, (rows, cols, a, b) in enumerate(
            (*levels, (np.arange(n), np.arange(m), a, b))):
        a, b = np.array(a), np.array(b)
        if sum(a.tolist()) != sum(b.tolist()):  # Python ints: no overflow
            raise InfeasibleMarginals("supply and demand differ")
        if carried is None:
            pu = np.zeros(len(rows), dtype)
        else:
            # max over the last level's targets of C - psi, psi = -pv
            pu = np.array([(C.entries(r, carried[0]) + carried[1]).max()
                           for r in rows], dtype)
        Cl = C.restrict(rows, cols) if k < len(levels) else C
        # the column minimum of pu - C, a row at a time
        pv = np.subtract(pu[0], Cl.row(0), dtype=dtype)
        for i in range(1, len(rows)):
            np.minimum(pv, np.subtract(pu[i], Cl.row(i), dtype=dtype), out=pv)
        back = [{} for _ in cols]
        max_aug = aug + 60 * sum(Cl.shape) + 2000
        while a.any() and aug < max_aug:
            step = _dijkstra(Cl, pu, pv, back, a, b, bound)
            if step is None:
                break
            pu += step[0]
            pv += step[1]
            shipped = _ship_tight(Cl, pu, pv, back, a, b)
            if not shipped:  # a fault: end the level, not the loop
                break
            aug += shipped
        carried = cols, pv
        del Cl  # before the next level allocates its own
    unshipped = sum(a.tolist())
    cells = sorted((k, j) for j, col in enumerate(back) for k in col)
    rows = np.array([k for k, _ in cells], dtype=np.int64)
    cols = np.array([j for _, j in cells], dtype=np.int64)
    flows = np.array([back[j][k] for k, j in cells], dtype=a.dtype)
    # duals for the covering problem: phi + psi >= C
    return (rows, cols, flows), pu, -pv, aug, unshipped
