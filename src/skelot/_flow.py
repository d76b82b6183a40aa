"""Dense successive-shortest-path transportation solver.

Maximizes <C, flow> subject to integer marginals (a, b) by running min-cost
flow on the arc costs -C with Johnson potentials.  Masses stay integers, so
each augmentation ships a positive integer and the flow meets the marginals
exactly.  Costs and potentials are floats, but on integer costs they stay
integers (a pass only adds, subtracts, negates, compares and takes minima
and maxima), exact while every magnitude is at most 2^53.  Let M = max|C|
and A <= 60(n + m) + 2000 the number of augmentations.  A source with
supply left has had distance 0 in every pass, so its potential is 0 and its
forward arcs, always residual, keep reduced costs >= 0.  So target
potentials stay in [-M, M] (from a column minimum of -C, never falling),
each pass ends within 2M, source potentials stay in [0, 2MA], and reduced
costs and distances within 2M(A + 2).  When 2M(A + 2) <= 2^53,
phi[i] + psi[j] >= C[i, j] thus holds exactly, with equality on the flow's
support; beyond that the sums round.

The graph is a dense bipartite one, so Dijkstra keeps no heap: a popped
source relaxes its whole row of forward arcs at once with numpy, and a
popped target relaxes its few backward arcs, one per source that ships into
it, in scalar arithmetic.  Ties go to the source, then to the lowest index,
so the pop order, the duals and the flow do not depend on how a pass is
vectorized.
"""

from __future__ import annotations

import numpy as np


def _dijkstra(W: np.ndarray, pu: np.ndarray, pv: np.ndarray,
              flow: np.ndarray, rem_a: np.ndarray, rem_b: np.ndarray):
    """One shortest-path pass in the residual graph.

    Returns (dist_s, dist_t, prev_s, prev_t, end_target) where end_target is
    an unsaturated target popped with final distance, or -1 if unreachable.
    Popped nodes carry their final distance, the others their tentative one
    (inf if never reached).

    Pop order: the lowest-index source of least tentative distance, unless
    a target's distance is strictly less, then the lowest-index target of
    least distance.  A source pop relaxes the forward arcs to every open
    target with length-m vector work, (W[i] + pu[i] - pv) clipped at 0 and
    added to the source's distance, then searches the sources for the next
    minimum.  A target pop relaxes only the backward arcs from the sources
    shipping into it, in scalar arithmetic: -(W[k, j] + pu[k] - pv[j])
    clipped at 0, computed once per pass over the plan's support, is added
    to the target's distance, and the source minimum is updated in O(1) per
    arc.  Its only vector work is the length-m search for the next target.
    """
    n, m = W.shape
    inf = np.inf
    # tentative distances of nodes not yet popped; inf once popped
    ms = np.where(rem_a > 0, 0.0, inf)
    mt = np.full(m, inf)
    ds = np.full(n, inf)
    dt = np.full(m, inf)
    prev_t = np.full(m, -1, dtype=np.int64)
    prev_s = np.full(n, -1, dtype=np.int64)
    open_s = [True] * n
    open_t = np.ones(m, dtype=bool)
    # backward arcs j -> k, one for each source k shipping into target j
    ks, js = np.divmod(np.flatnonzero(flow > 0), m)
    rcb = np.maximum(-(W[ks, js] + pu[ks] - pv[js]), 0.0)
    back = [[] for _ in range(m)]
    for k, j, r in zip(ks.tolist(), js.tolist(), rcb.tolist()):
        back[j].append((k, r))
    rc = np.empty(m)
    better = np.empty(m, dtype=bool)
    bi = int(ms.argmin())
    bv = float(ms[bi])
    end = -1
    while True:
        j = int(mt.argmin())
        tv = float(mt[j])
        if tv == bv == inf:
            break
        if bv <= tv:
            i, d = bi, bv
            ds[i] = d
            ms[i] = inf
            open_s[i] = False
            np.add(W[i], pu[i], out=rc)
            np.subtract(rc, pv, out=rc)
            np.maximum(rc, 0.0, out=rc)
            np.add(d, rc, out=rc)
            np.less(rc, mt, out=better)
            np.logical_and(better, open_t, out=better)
            np.putmask(mt, better, rc)
            np.putmask(prev_t, better, i)
            bi = int(ms.argmin())
            bv = float(ms[bi])
        else:
            dt[j] = tv
            mt[j] = inf
            open_t[j] = False
            if rem_b[j] > 0:
                end = j
                break
            for k, r in back[j]:
                c = tv + r
                if open_s[k] and c < ms[k]:
                    ms[k] = c
                    prev_s[k] = j
                    if c < bv or (c == bv and k < bi):
                        bi, bv = k, c
    # unpopped nodes report their tentative distance
    np.minimum(ds, ms, out=ds)
    np.minimum(dt, mt, out=dt)
    return ds, dt, prev_s, prev_t, end


def solve_transport(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Optimal integer flow and dual potentials for max <C, flow>, cold.

    a and b are non-negative integer arrays, int64 (enough while every entry
    is below 2^62, since no flow exceeds its row's supply) or object; the
    flow has their dtype.  Returns (flow, phi, psi, n_augmentations,
    unshipped) with phi[i] + psi[j] >= C[i, j] everywhere and equality on
    the support of the flow, exactly on integer C within the module's
    bound, else up to round-off.  The loop runs while supply
    is left; it stops early only at the augmentation budget or when no
    target with demand left is reachable.  unshipped is min(supply left,
    demand left), a Python int: 0 when the flow meets balanced marginals.
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    a, b = np.array(a), np.array(b)
    W = -C
    pu = np.zeros(n)
    pv = W.min(axis=0)
    flow = np.zeros((n, m), dtype=a.dtype)
    max_aug = 60 * (n + m) + 2000
    aug = 0
    while a.any() and aug < max_aug:
        ds, dt, prev_s, prev_t, jend = _dijkstra(W, pu, pv, flow, a, b)
        if jend < 0:
            break
        # reconstruct the alternating path back to an unsaturated source
        arcs_fwd = []
        arcs_bwd = []
        j = jend
        while True:
            i = int(prev_t[j])
            arcs_fwd.append((i, j))
            j2 = int(prev_s[i])
            if j2 < 0:
                break
            arcs_bwd.append((i, j2))
            j = j2
        i0 = arcs_fwd[-1][0]
        # a positive integer: a[i0], b[jend] and backward flows are all > 0
        delta = min(a[i0], b[jend], *(flow[i, j] for i, j in arcs_bwd))
        for i, j in arcs_fwd:
            flow[i, j] += delta
        for i, j in arcs_bwd:
            flow[i, j] -= delta
        a[i0] -= delta
        b[jend] -= delta
        D = dt[jend]
        pu += np.minimum(ds, D)
        pv += np.minimum(dt, D)
        aug += 1
    # in Python ints: int64 entries can sum past the int64 range
    unshipped = min(sum(a.tolist()), sum(b.tolist()))
    # duals for the covering problem: phi + psi >= C
    return flow, pu.copy(), -pv, aug, unshipped
