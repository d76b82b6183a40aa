"""Exact transportation simplex (dual / MODI pivoting) on an integer matrix.

Independent of the flow-based solver on purpose: the two routes cross-check
each other.  The cost is C = K / D with K integral.  The marginals are put
over Q, the lcm of their denominators (`_linalg.over_lcm`), their numerators
scaled by M = 2n + 1, and the problem is perturbed lexicographically: +1 on
every supply, +n on the last demand.  A basic flow is then one integer
f = main M + eps, where eps, the number of sources on one side of its edge
less n if the last target is there too, lies in [-n, n].  So integer order
is the order of the pairs (main, eps) and f is 0 only when both are;
demands must be positive, so no basis is degenerate and pivoting cannot
cycle.  main = (f + n) // M, and main / Q is the exact flow of the
unperturbed problem, since tree flows are linear in the marginals.

The start is greedy (Dantzig, "Linear Programming and Extensions", ch. 15,
in max form): by K, largest first, each cell whose row and column have mass
left ships the lesser.  Each component of the shipped cells keeps one open
node, so a row and a column closing together close a component, rows S and
columns T, of equal perturbed mass: |S| = n [last target in T] mod 2n + 1,
so S is every row and the cell the last.  The n + m - 1 cells are a tree.
No cell is sorted: a heap holds each open row's first largest K over the
columns open when it was taken, a lower bound in the visit order (-K, i, j)
on the row's open cells, so the least head whose column is still open is
the next cell; a head whose column has closed is taken again.  The start
keeps O(n + m) besides K.

The basis tree is rooted at source 0 and kept once, per node: the parent,
the depth, the flow on the edge to the parent, and the integer dual W = u D
of a source or v D of a target (basic duals lie in (1/D)Z).  Besides K,
read in place in whatever dtype and order it has, the solver holds one
n x m array, the reduced costs K - U - V of every cell, exactly:
|K - U - V| < max|K| (2 (n + m) + 1), and `_linalg._int_dtype` of that
bound picks int32, int64 or Python ints for them alone.  It reads K's
rows in the start, and its entries one at a time, as
Python ints.  A pivot's leaving edge cuts one subtree off; its path to the
entering cell reverses, each edge's flow moving to its new lower node, and
one walk re-hangs the subtree below the entering cell.  Its duals shift by
a constant, so only its rows and columns of K - U - V are updated, each in
place.  The row-major first maximum enters.  The leaving edge is unique:
two minus edges tied at theta would leave a degenerate basis.  The solver
stops only after a fresh walk from the root and a full pricing pass find no
positive reduced cost, so the returned duals are exactly feasible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ._linalg import _int_dtype, over_lcm
from .errors import InfeasibleMarginals, NotConverged

F = Fraction


def _greedy_start(K: np.ndarray, ap: list, bp: list) -> tuple:
    """The greedy start's adjacency (sources 0..n-1, targets n..) and the
    flow of each cell, visited by K, largest first, row-major on ties.

    A heap holds one head per open row, keyed (-K, i, j): the row's first
    largest K over the columns open when it was taken.  A popped head whose
    column has closed since is taken again over the open columns and pushed
    back; one whose column is open ships.  After a ship the row's head is
    taken again if the row is open, else the row leaves the heap.  Heads
    start at K.argmax(axis=1), and every supply must be positive.
    """
    import heapq  # here, so only a solve with the oracle loads _heapq

    n, m = len(ap), len(bp)
    rem = [*ap, *bp]
    adj = [set() for _ in range(n + m)]
    shipped = {}
    cols = np.arange(m)
    heap = [(-K.item(i, j), i, j)
            for i, j in enumerate(K.argmax(axis=1).tolist())]
    heapq.heapify(heap)
    while True:
        _, i, j = heap[0]
        if rem[n + j]:
            take = shipped[i, j] = min(rem[i], rem[n + j])
            rem[i], rem[n + j] = rem[i] - take, rem[n + j] - take
            adj[i].add(n + j)
            adj[n + j].add(i)
            if len(shipped) == n + m - 1:
                return adj, shipped
            assert rem[i] or rem[n + j], "a row and a column closed early"
            if not rem[i]:
                heapq.heappop(heap)
                continue
            cols = cols[cols != j]
        j = int(cols[K[i, cols].argmax()])
        heapq.heapreplace(heap, (-K.item(i, j), i, j))


def _cell(x: int, y: int, n: int) -> tuple:
    """Basis cell of the tree edge between nodes x and y."""
    return (x, y - n) if x < n else (y, x - n)


def _hang(adj: list, K: np.ndarray, n: int, parent: list, depth: list,
          W: list, root: int) -> list:
    """Set parent, depth and the integer duals of every node below root.

    Walks the tree (adj) away from parent[root], breadth first, with
    W[y] = K[i, j] - W[x] for each basic cell between x and its child y;
    returns root and the nodes below it.
    """
    below = [root]
    for x in below:
        for y in adj[x]:
            if y != parent[x]:
                parent[y], depth[y] = x, depth[x] + 1
                W[y] = (K.item(x, y - n) if x < n else K.item(y, x - n)) - W[x]
                below.append(y)
    return below


def _reduced(K: np.ndarray, W: list, n: int, dtype) -> np.ndarray:
    """Exact reduced costs K - U - V of every cell, row-major in dtype; U
    and V are subtracted in place, so R is the one n x m array made."""
    R = K.astype(dtype, order="C")
    R -= np.array(W[:n], dtype=dtype)[:, None]
    R -= np.array(W[n:], dtype=dtype)[None, :]
    return R


def solve_exact(K: np.ndarray, D: int, a: Sequence[Fraction],
                b: Sequence[Fraction]):
    """max sum C*x over plans, C = K / D; exact marginals, demands > 0.

    Returns (flows: dict cell -> Fraction, u, v, value, n_pivots) with the
    exact optimal duals satisfying u_i + v_j >= C[i][j] everywhere.
    """
    n, m = len(a), len(b)
    if sum(a) != sum(b) or not all(y > 0 for y in b):
        raise InfeasibleMarginals("masses must balance, every demand > 0")
    mass, Q = over_lcm([F(x) for x in (*a, *b)])
    M = 2 * n + 1
    bp = [y * M for y in mass[n:]]
    bp[-1] += n

    kmax = max(int(K.max()), -int(K.min()))
    # |U|, |V| <= (n + m - 1) kmax, so |K - U - V| < kmax (2 (n + m) + 1)
    dtype = _int_dtype(kmax * (2 * (n + m) + 1))
    max_pivots = 60 * (n + m) + 2000

    adj, shipped = _greedy_start(K, [x * M + 1 for x in mass[:n]], bp)
    parent, depth, W = [0] * (n + m), [0] * (n + m), [0] * (n + m)
    _hang(adj, K, n, parent, depth, W, 0)
    flow = [0] + [shipped[_cell(x, parent[x], n)] for x in range(1, n + m)]
    R = _reduced(K, W, n, dtype)
    for pivot in range(max_pivots + 1):
        best = int(np.argmax(R))  # row-major lowest index on ties
        if R.flat[best] <= 0:  # basic cells price to exactly 0
            # stop only on a fresh walk and a full exact pricing pass
            kept = list(W)
            _hang(adj, K, n, parent, depth, W, 0)
            assert W == kept, "incremental duals differ from a fresh walk"
            del R  # one n x m array fewer at the oracle's peak
            R = _reduced(K, W, n, dtype)
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
        parent[e], depth[e], W[e] = f, depth[f] + 1, K.item(i, j) - W[f]
        moved = _hang(adj, K, n, parent, depth, W, e)
        # |shift| <= 2 (n + m - 1) kmax, inside R's bound, so it fits R's
        # dtype and is applied in place: no temporary as large as R
        shift = W[e] - old if e < n else old - W[e]
        for x in moved:
            if x < n:
                R[x] -= shift
            else:
                R[:, x - n] += shift

    main = {_cell(x, parent[x], n): (flow[x] + n) // M
            for x in range(1, n + m)}
    flows = {cell: F(x, Q) for cell, x in main.items()}
    assert all(fl >= 0 for fl in flows.values())
    value = F(sum(K.item(i, j) * x for (i, j), x in main.items()), D * Q)
    u = [F(w, D) for w in W[:n]]
    v = [F(w, D) for w in W[n:]]
    return flows, u, v, value, pivot
