"""Exact transportation simplex (dual / MODI pivoting).

Independent of the flow-based solver on purpose: the two routes cross-check
each other.  Flows are exact rationals on a lexicographically perturbed
problem, so no basis is ever degenerate and pivoting cannot cycle.  Floats
only shortlist the entering cell: when float pricing finds none, the exact
reduced costs of every cell are computed, and the solver stops only when
none is positive, so the returned duals are exactly feasible.  The returned
flows are re-solved on the final basis tree with the unperturbed marginals,
hence exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .cost import matrix_floats, over_lcm
from .errors import InfeasibleMarginals, NotConverged

F = Fraction

# perturbed quantity: (main, eps) compared lexicographically
PVal = tuple


def _pv_add(x: PVal, y: PVal) -> PVal:
    return (x[0] + y[0], x[1] + y[1])


def _pv_sub(x: PVal, y: PVal) -> PVal:
    return (x[0] - y[0], x[1] - y[1])


def _northwest_corner(ap: list, bp: list):
    n, m = len(ap), len(bp)
    rem_a = list(ap)
    rem_b = list(bp)
    basis = {}
    i = j = 0
    while i < n and j < m:
        take = min(rem_a[i], rem_b[j])
        basis[(i, j)] = take
        rem_a[i] = _pv_sub(rem_a[i], take)
        rem_b[j] = _pv_sub(rem_b[j], take)
        if rem_a[i] == (0, 0) and i < n - 1:
            i += 1
        elif rem_b[j] == (0, 0) and j < m - 1:
            j += 1
        else:
            if rem_a[i] == (0, 0) and rem_b[j] == (0, 0):
                break
            if rem_a[i] == (0, 0):
                i += 1
            else:
                j += 1
    return basis


def _adjacency(basis, n, m):
    adj = [[] for _ in range(n + m)]
    for (i, j) in basis:
        adj[i].append(n + j)
        adj[n + j].append(i)
    return adj


def _tree_duals(basis, C, n, m, zero):
    """Solve u_i + v_j = C[i][j] on the basis tree, u_0 = 0."""
    adj = _adjacency(basis, n, m)
    u = [None] * n
    v = [None] * m
    u[0] = zero
    stack = [0]
    while stack:
        node = stack.pop()
        for nb in adj[node]:
            if node < n:
                i, j = node, nb - n
                if v[j] is None:
                    v[j] = C[i][j] - u[i]
                    stack.append(nb)
            else:
                i, j = nb, node - n
                if u[i] is None:
                    u[i] = C[i][j] - v[j]
                    stack.append(nb)
    return u, v


def _find_cycle(basis, enter, n, m):
    """Unique alternating cycle created by the entering cell."""
    ei, ej = enter
    adj = _adjacency(basis, n, m)
    # path from target ej back to source ei through the tree
    prev = {n + ej: None}
    stack = [n + ej]
    while stack:
        node = stack.pop()
        if node == ei:
            break
        for nb in adj[node]:
            if nb not in prev:
                prev[nb] = node
                stack.append(nb)
    path = []
    node = ei
    while node is not None:
        path.append(node)
        node = prev[node]
    # cells along the path, alternating source/target nodes
    cells = [enter]
    for kk in range(len(path) - 1):
        x, y = path[kk], path[kk + 1]
        cells.append((x, y - n) if x < n else (y, x - n))
    return cells  # signs alternate +,-,+,- starting at the entering cell


def _resolve_on_tree(basis, a, b, n, m):
    """Exact flows on the basis tree for the unperturbed marginals."""
    rem = list(a) + list(b)
    deg = {}
    incident = [[] for _ in range(n + m)]
    for cell in basis:
        i, j = cell
        incident[i].append(cell)
        incident[n + j].append(cell)
    for node in range(n + m):
        deg[node] = len(incident[node])
    flows = {}
    order = [node for node in range(n + m) if deg[node] == 1]
    alive = {cell: True for cell in basis}
    while order:
        node = order.pop()
        live = [c for c in incident[node] if alive[c] and c not in flows]
        if not live:
            continue
        cell = live[0]
        i, j = cell
        amount = rem[node] if node < n else rem[n + j]
        flows[cell] = amount
        rem[i] -= amount
        rem[n + j] -= amount
        alive[cell] = False
        other = n + j if node == i else i
        deg[other] -= 1
        if deg[other] == 1:
            order.append(other)
    for cell in basis:
        flows.setdefault(cell, F(0))
    return flows


def _exact_entering(basis, C_exact, K, D, n, m):
    """Cell of largest positive exact reduced cost C[i][j] - u_i - v_j,
    lowest index on ties, or None when the exact duals are feasible.

    C = K / D, and tree duals are sums of +-C entries, so u_i D and v_j D
    are integers and the reduced costs are compared as integers.
    """
    u, v = _tree_duals(basis, C_exact, n, m, F(0))
    V = np.array([int(y * D) for y in v], dtype=object)
    best, enter = 0, None
    for i, ui in enumerate(u):
        r = K[i] - (int(ui * D) + V)  # one row at a time keeps memory flat
        j = int(np.argmax(r))
        if r[j] > best:
            best, enter = r[j], (i, j)
    return enter


def solve_exact(C_exact: Sequence[Sequence[Fraction]],
                a: Sequence[Fraction], b: Sequence[Fraction]):
    """max sum C*x over transportation plans; exact marginals required.

    Returns (flows: dict cell -> Fraction, u, v, value, n_pivots) with the
    exact optimal duals satisfying u_i + v_j >= C[i][j] everywhere.
    """
    n, m = len(a), len(b)
    if sum(a) != sum(b):
        raise InfeasibleMarginals("marginal masses differ")
    one = F(1)
    ap = [(F(x), one) for x in a]
    bp = [(F(y), F(0)) for y in b]
    bp[-1] = (F(b[-1]), F(n))
    basis = _northwest_corner(ap, bp)

    K, D = over_lcm(C_exact, m)
    Cf = matrix_floats(K, D)
    scale = 1.0 + float(np.abs(Cf).max()) if Cf.size else 1.0
    stop_tol = 1e-11 * scale
    max_pivots = 60 * (n + m) + 2000

    for pivot in range(max_pivots + 1):
        uf, vf = _tree_duals(basis, Cf, n, m, 0.0)
        red = Cf - np.array(uf)[:, None] - np.array(vf)[None, :]
        for (i, j) in basis:
            red[i, j] = -np.inf
        ei, ej = np.unravel_index(int(np.argmax(red)), red.shape)
        enter = (int(ei), int(ej))
        if red[ei, ej] <= stop_tol:
            enter = _exact_entering(basis, C_exact, K, D, n, m)
            if enter is None:
                break
        if pivot == max_pivots:
            raise NotConverged("pivot budget exhausted in the exact solver")
        cells = _find_cycle(basis, enter, n, m)
        minus = cells[1::2]
        theta = min(basis[c] for c in minus)
        leave = min(c for c in minus if basis[c] == theta)
        newb = {}
        for cell, fl in basis.items():
            if cell in minus:
                fl = _pv_sub(fl, theta)
            elif cell in cells[0::2]:
                fl = _pv_add(fl, theta)
            newb[cell] = fl
        newb[enter] = theta
        del newb[leave]
        basis = newb

    u, v = _tree_duals(basis, C_exact, n, m, F(0))
    flows = _resolve_on_tree(basis, a, b, n, m)
    assert all(fl >= 0 for fl in flows.values())
    value = sum(C_exact[i][j] * fl for (i, j), fl in flows.items())
    return flows, u, v, value, pivot
