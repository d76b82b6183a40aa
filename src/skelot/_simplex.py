"""Exact transportation simplex (dual / MODI pivoting) on an integer matrix.

Independent of the flow-based solver on purpose: the two routes cross-check
each other.  The cost is C = K / D with K integral.  The marginals are scaled
by the lcm Q of their denominators and then by M = 2n + 1, and the problem is
perturbed lexicographically: +1 on every supply, +n on the last demand.  A
basic flow is then one integer f = main M + eps, where eps, the number of
sources on one side of its edge less n if the last target is there too, lies
in [-n, n].  So integer order is the order of the pairs (main, eps) and f
is 0 only when both are; demands must be positive, so no basis is
degenerate and pivoting cannot cycle.  main = (f + n) // M, and main / Q is
the exact flow of the unperturbed problem, since tree flows are linear in
the marginals.

The start is greedy (Dantzig, "Linear Programming and Extensions", ch. 15,
in max form): by K, largest first, each cell whose row and column have mass
left ships the lesser.  Each component of the shipped cells keeps one open
node, so a row and a column closing together close a component, rows S and
columns T, of equal perturbed mass: |S| = n [last target in T] mod 2n + 1,
so S is every row and the cell the last.  The n + m - 1 cells are a tree.

The basis tree is rooted at source 0 and kept once, per node: the parent,
the depth, the flow on the edge to the parent, and the integer dual W = u D
of a source or v D of a target (basic duals lie in (1/D)Z), with the reduced
costs K - U - V of every cell, exactly (int64 under a proven bound, Python
ints otherwise).  A pivot's leaving edge cuts one subtree off; its path to
the entering cell reverses, each edge's flow moving to its new lower node,
and one walk re-hangs the subtree below the entering cell.  Its duals shift
by a constant, so only its rows and columns of K - U - V are updated.  The
row-major first maximum enters.  The leaving edge is unique: two minus
edges tied at theta would leave a degenerate basis.  The solver stops only
after a fresh walk from the root and a full pricing pass find no positive
reduced cost, so the returned duals are exactly feasible.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

import numpy as np

from .errors import InfeasibleMarginals, NotConverged

F = Fraction


def _greedy_start(Kp: np.ndarray, ap: list, bp: list) -> tuple:
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


def _cell(x: int, y: int, n: int) -> tuple:
    """Basis cell of the tree edge between nodes x and y."""
    return (x, y - n) if x < n else (y, x - n)


def _hang(adj: list, K: list, n: int, parent: list, depth: list, W: list,
          root: int) -> list:
    """Set parent, depth and the integer duals of every node below root.

    Walks the tree (adj) away from parent[root], breadth first, with
    W[y] = K[i][j] - W[x] for each basic cell between x and its child y;
    returns root and the nodes below it.
    """
    below = [root]
    for x in below:
        for y in adj[x]:
            if y != parent[x]:
                parent[y], depth[y] = x, depth[x] + 1
                W[y] = (K[x][y - n] if x < n else K[y][x - n]) - W[x]
                below.append(y)
    return below


def _reduced(Kp: np.ndarray, W: list, n: int) -> np.ndarray:
    """Exact reduced costs K - U - V of every cell, in Kp's dtype."""
    return Kp - np.array(W[:n], dtype=Kp.dtype)[:, None] \
        - np.array(W[n:], dtype=Kp.dtype)[None, :]


def solve_exact(K: np.ndarray, D: int, a: Sequence[Fraction],
                b: Sequence[Fraction]):
    """max sum C*x over plans, C = K / D; exact marginals, demands > 0.

    Returns (flows: dict cell -> Fraction, u, v, value, n_pivots) with the
    exact optimal duals satisfying u_i + v_j >= C[i][j] everywhere.
    """
    n, m = len(a), len(b)
    if sum(a) != sum(b) or not all(y > 0 for y in b):
        raise InfeasibleMarginals("masses must balance, every demand > 0")
    Q = lcm(*(F(x).denominator for x in (*a, *b)))
    M = 2 * n + 1
    bp = [int(y * Q) * M for y in b]
    bp[-1] += n

    Kl = K.tolist()
    kmax = max((abs(k) for row in Kl for k in row), default=0)
    # |U|, |V| <= (n + m - 1) kmax, so |K - U - V| < kmax (2 (n + m) + 1)
    dtype = np.int64 if kmax * (2 * (n + m) + 1) < 2 ** 63 else object
    Kp = K.astype(dtype, order="C")  # row-major, so pivots scan rows fast
    max_pivots = 60 * (n + m) + 2000

    adj, shipped = _greedy_start(Kp, [int(x * Q) * M + 1 for x in a], bp)
    parent, depth, W = [0] * (n + m), [0] * (n + m), [0] * (n + m)
    _hang(adj, Kl, n, parent, depth, W, 0)
    flow = [0] + [shipped[_cell(x, parent[x], n)] for x in range(1, n + m)]
    R = _reduced(Kp, W, n)
    for pivot in range(max_pivots + 1):
        best = int(np.argmax(R))  # row-major lowest index on ties
        if R.flat[best] <= 0:  # basic cells price to exactly 0
            # stop only on a fresh walk and a full exact pricing pass
            kept = list(W)
            _hang(adj, Kl, n, parent, depth, W, 0)
            assert W == kept, "incremental duals differ from a fresh walk"
            del R  # one n x m array fewer at the oracle's peak
            R = _reduced(Kp, W, n)
            best = int(np.argmax(R))
            if R.flat[best] <= 0:
                break
        if pivot == max_pivots:
            raise NotConverged("pivot budget exhausted in the exact solver")
        i, j = divmod(best, m)
        # the cycle: tree paths from i and from n + j up to where they meet,
        # as the nodes below their edges; on each, the edges alternate
        # -, +, - from its start
        x, y = i, n + j
        up_x, up_y = [], []
        for _ in range(n + m):  # a tree path has fewer than n + m edges
            if x == y:
                break
            if depth[x] >= depth[y]:
                up_x.append(x)
                x = parent[x]
            else:
                up_y.append(y)
                y = parent[y]
        else:
            raise AssertionError("the cycle walk left the basis tree")
        minus = up_x[0::2] + up_y[0::2]
        theta = min(flow[x] for x in minus)
        (leave,) = [x for x in minus if flow[x] == theta]
        for x in minus:
            flow[x] -= theta
        for x in up_x[1::2] + up_y[1::2]:
            flow[x] += theta
        adj[leave].discard(parent[leave])
        adj[parent[leave]].discard(leave)
        adj[i].add(n + j)
        adj[n + j].add(i)
        # the leaving edge cuts off the end e of the entering cell whose path
        # it lies on; that path reverses, its flows move down one edge, and
        # only e's subtree moves, by +shift on its sources and -shift on its
        # targets
        e, f, up = (i, n + j, up_x) if leave in up_x else (n + j, i, up_y)
        path = up[:up.index(leave) + 1]
        for x, fl in zip(path, [theta] + [flow[x] for x in path[:-1]]):
            flow[x] = fl
        old = W[e]
        parent[e], depth[e], W[e] = f, depth[f] + 1, Kl[i][j] - W[f]
        moved = _hang(adj, Kl, n, parent, depth, W, e)
        shift = W[e] - old if e < n else old - W[e]
        R[[x for x in moved if x < n], :] -= shift
        R[:, [x - n for x in moved if x >= n]] += shift

    main = {_cell(x, parent[x], n): (flow[x] + n) // M
            for x in range(1, n + m)}
    flows = {cell: F(x, Q) for cell, x in main.items()}
    assert all(fl >= 0 for fl in flows.values())
    value = F(sum(Kl[i][j] * x for (i, j), x in main.items()), D * Q)
    u = [F(w, D) for w in W[:n]]
    v = [F(w, D) for w in W[n:]]
    return flows, u, v, value, pivot
