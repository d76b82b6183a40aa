"""Dense successive-shortest-path transportation solver.

Maximizes the plan correlation <C, plan> subject to marginals (a, b) by
running min-cost flow on the arc costs -C with Johnson potentials.  The
graph is a dense bipartite one, so Dijkstra is vectorized per popped node
instead of using a heap.
"""

from __future__ import annotations

import numpy as np


def _dijkstra(W: np.ndarray, pu: np.ndarray, pv: np.ndarray,
              flow: np.ndarray, rem_a: np.ndarray, rem_b: np.ndarray,
              eps: float):
    """One shortest-path pass in the residual graph.

    Returns (dist_s, dist_t, prev_s, prev_t, end_target) where end_target is
    an unsaturated target popped with final distance, or -1 if unreachable.
    """
    n, m = W.shape
    ds = np.where(rem_a > eps, 0.0, np.inf)
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
            if rem_b[j] > eps:
                return ds, dt, prev_s, prev_t, j
            # backward arcs j -> sources currently shipping into j
            has = flow[:, j] > 0
            rcb = np.maximum(-(W[:, j] + pu - pv[j]), 0.0)
            cand = dt[j] + rcb
            better = has & (~vis_s) & (cand < ds)
            ds[better] = cand[better]
            prev_s[better] = j


def solve_transport(C: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Optimal plan and dual potentials for max <C, plan>, from a cold start.

    Returns (plan, phi, psi, n_augmentations, unshipped) with
    phi[i] + psi[j] >= C[i, j] everywhere and equality on the support of the
    plan (up to round-off).  unshipped is 0.0 once the remaining supply or
    demand is below the dust threshold n*m*eps; if the loop stops earlier
    (augmentation budget, a zero-mass path, or an unreachable target) it is
    the mass min(supply left, demand left) that the plan does not carry.
    """
    C = np.asarray(C, dtype=float)
    n, m = C.shape
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    W = -C
    pu = np.zeros(n)
    pv = W.min(axis=0)
    flow = np.zeros((n, m))
    total = float(a.sum())
    eps = 1e-15 * max(total, 1.0)
    dust = n * m * eps
    max_aug = 60 * (n + m) + 2000
    aug = 0
    while b.sum() > dust and a.sum() > dust:
        if aug >= max_aug:
            break
        ds, dt, prev_s, prev_t, jend = _dijkstra(W, pu, pv, flow, a, b, eps)
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
        delta = min(a[i0], b[jend])
        for i, j in arcs_bwd:
            delta = min(delta, flow[i, j])
        if delta <= 0:
            break
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
    left = min(a.sum(), b.sum())
    unshipped = float(left) if left > dust else 0.0
    # duals for the covering problem: phi + psi >= C
    return flow, pu.copy(), -pv, aug, unshipped
