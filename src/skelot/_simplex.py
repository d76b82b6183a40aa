"""Exact transportation simplex (dual / MODI pivoting) on an integer matrix.

Independent of the flow-based solver on purpose: the two routes cross-check
each other.  The cost is C = K / D with K integral.  The marginals are scaled
by the lcm Q of their denominators, and each flow is an integer pair
(main, eps) on a lexicographically perturbed problem (+1 on every supply,
+n on the last demand), so no basis is ever degenerate and pivoting cannot
cycle.  The basic duals lie in (1/D)Z and are kept as the integers U = u D
and V = v D, with the reduced costs K - U - V of every cell, exactly (int64
under a proven bound, Python ints otherwise).

One walk from source 0 sets the basis tree's parent, depth and duals.  A
pivot's leaving cell cuts one subtree off; only that subtree is re-hung
below the entering cell, its duals shift by a constant, and only its rows
and columns of K - U - V are updated.  The row-major first maximum enters
and the lowest cell wins a leaving tie.  The solver stops only after a fresh
walk and a full pricing pass find no positive reduced cost, so the returned
duals are exactly feasible.  Tree flows are linear in the marginals, so
main / Q is the exact flow of the unperturbed problem.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .errors import InfeasibleMarginals, NotConverged

F = Fraction


def _northwest_corner(ap: list, bp: list) -> dict:
    """Initial basis.  With the perturbation a supply and a demand run out
    together only at the last cell, so the basis has n + m - 1 cells."""
    rem_a, rem_b = list(ap), list(bp)
    basis = {}
    i = j = 0
    while i < len(ap) and j < len(bp):
        take = basis[(i, j)] = min(rem_a[i], rem_b[j])
        rem_a[i] = (rem_a[i][0] - take[0], rem_a[i][1] - take[1])
        rem_b[j] = (rem_b[j][0] - take[0], rem_b[j][1] - take[1])
        if rem_a[i] == (0, 0):
            i += 1
        else:
            j += 1
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


def _reduced(Kp: np.ndarray, W: list, n: int) -> np.ndarray:
    """Exact reduced costs K - U - V of every cell, in Kp's dtype."""
    return Kp - np.array(W[:n], dtype=Kp.dtype)[:, None] \
        - np.array(W[n:], dtype=Kp.dtype)[None, :]


def _rehang(adj: list, K: list, n: int, parent: list, depth: list, W: list,
            e: int, f: int) -> list:
    """Hang the subtree cut off at e below f, through the entering cell.

    adj already holds the new tree.  One DFS from e, away from f, sets
    parent, depth and the integer duals of the moved nodes only; returns
    them, e first.
    """
    i, j = _cell(e, f, n)
    parent[e], depth[e], W[e] = f, depth[f] + 1, K[i][j] - W[f]
    moved = [e]
    stack = [e]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != parent[x]:
                i, j = _cell(x, y, n)
                parent[y], depth[y], W[y] = x, depth[x] + 1, K[i][j] - W[x]
                moved.append(y)
                stack.append(y)
    return moved


def solve_exact(K: np.ndarray, D: int, a: Sequence[Fraction],
                b: Sequence[Fraction]):
    """max sum C*x over transportation plans, C = K / D; exact marginals.

    Returns (flows: dict cell -> Fraction, u, v, value, n_pivots) with the
    exact optimal duals satisfying u_i + v_j >= C[i][j] everywhere.
    """
    n, m = len(a), len(b)
    if sum(a) != sum(b):
        raise InfeasibleMarginals("marginal masses differ")
    Q = lcm(*(F(x).denominator for x in (*a, *b)))
    ap = [(int(x * Q), 1) for x in a]
    bp = [(int(y * Q), 0) for y in b]
    bp[-1] = (bp[-1][0], n)
    basis = _northwest_corner(ap, bp)
    adj = [set() for _ in range(n + m)]
    for i, j in basis:
        adj[i].add(n + j)
        adj[n + j].add(i)

    Kl = K.tolist()
    kmax = max((abs(k) for row in Kl for k in row), default=0)
    # |U|, |V| <= (n + m - 1) kmax, so |K - U - V| < kmax (2 (n + m) + 1)
    dtype = np.int64 if kmax * (2 * (n + m) + 1) < 2 ** 63 else object
    Kp = K.astype(dtype)
    max_pivots = 60 * (n + m) + 2000

    parent, depth, W = _walk(adj, Kl, n)
    R = _reduced(Kp, W, n)
    for pivot in range(max_pivots + 1):
        best = int(np.argmax(R))  # row-major lowest index on ties
        if R.flat[best] <= 0:  # basic cells price to exactly 0
            # stop only on a fresh walk and a full exact pricing pass
            parent, depth, fresh = _walk(adj, Kl, n)
            assert fresh == W, "incremental duals differ from a fresh walk"
            W = fresh
            R = _reduced(Kp, W, n)
            best = int(np.argmax(R))
            if R.flat[best] <= 0:
                break
        if pivot == max_pivots:
            raise NotConverged("pivot budget exhausted in the exact solver")
        enter = divmod(best, m)
        # the cycle: tree paths from ei and from n + ej up to where they meet;
        # on each, the edges alternate -, +, - from its start
        x, y = enter[0], n + enter[1]
        up_x, up_y = [], []
        for _ in range(n + m):  # a tree path has fewer than n + m edges
            if x == y:
                break
            if depth[x] >= depth[y]:
                up_x.append(_cell(x, parent[x], n))
                x = parent[x]
            else:
                up_y.append(_cell(y, parent[y], n))
                y = parent[y]
        else:
            raise AssertionError("the cycle walk left the basis tree")
        minus_x = up_x[0::2]
        minus = minus_x + up_y[0::2]
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
        # the leaving cell cuts off the end of the entering cell whose path
        # it lies on; only that subtree moves, by +shift on its sources and
        # -shift on its targets
        e, f = (enter[0], n + enter[1]) if leave in minus_x \
            else (n + enter[1], enter[0])
        old = W[e]
        moved = _rehang(adj, Kl, n, parent, depth, W, e, f)
        shift = W[e] - old if e < n else old - W[e]
        R[[x for x in moved if x < n], :] -= shift
        R[:, [x - n for x in moved if x >= n]] += shift

    flows = {cell: F(main, Q) for cell, (main, _) in basis.items()}
    assert all(fl >= 0 for fl in flows.values())
    value = F(sum(Kl[i][j] * main for (i, j), (main, _) in basis.items()),
              D * Q)
    u = [F(w, D) for w in W[:n]]
    v = [F(w, D) for w in W[n:]]
    return flows, u, v, value, pivot
