"""c-transforms, the dual functional, its minimization, and energy sums.

The sign convention pairs minimization of F(phi) = int phi dmu0 +
int W phi^c dnu0 with maximization of the plan correlation int c dpi;
feasible potentials satisfy phi(x) + psi(p) >= c(x, p) with equality on the
support of an optimal plan.  Two independent routes compute the optimum: a
flow-based finisher inside minimize_kontorovich and an exact simplex in
lp_oracle; their agreement is a standing cross-check, so neither may call
the other.  Each route certifies itself exactly: the finisher's plan is
optimal when its integer flows meet the marginals and its exact duality
gap against psi = phi^c is 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm
from typing import Callable, Optional, Sequence

import numpy as np

from . import _flow, _simplex
from ._linalg import _int_array, _int_dtype, as_rows, lowest_terms, over_lcm
from .cost import CostFunction, ThetaFamily, matrix_floats, ratio_float
from .errors import EmptyGrid, GridMismatch, InfeasibleMarginals, SizeCapExceeded
from .polyhedral import DiscreteMeasure, Point, as_point
from .tropical import val_at

F = Fraction


@dataclass(frozen=True)
class PotentialField:
    """Real-valued function on a finite grid, stored exactly.

    Values are exact rationals (a float counts as the binary rational it
    is), and transforms compute them exactly, so repeating a transform
    gives the same values.
    """

    points: tuple[Point, ...]
    values: tuple[Fraction, ...]
    argmax: Optional[tuple[int, ...]] = None  # per-point witness indices

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(as_point(p) for p in self.points))
        object.__setattr__(self, "values", tuple(F(v) for v in self.values))
        if len(self.points) != len(self.values):
            raise GridMismatch("points and values differ in length")

    def shifted(self, a) -> "PotentialField":
        a = F(a)
        return PotentialField(self.points, tuple(v + a for v in self.values))


def _exact_argmax(K, D: int, values: Sequence) -> tuple:
    """Per column j, max over i of K[i, j] / D - values[i], exactly.

    K is a row source (`_linalg.as_rows`) or an integer array, read a row
    at a time.  Scores are the integers K[i] (L / D) - V[i], V the values
    over L, the lcm of D and their denominators (`over_lcm`), in
    `_int_dtype` of the source's bound on |K| times L / D plus max|V|.  A
    running column maximum over the rows keeps the lowest index on ties.
    Returns the maxima over L and their indices.
    """
    K = as_rows(K)
    V, L = over_lcm(values, D)
    r = L // D
    dtype = _int_dtype(max(K.bound, 1) * r + max(map(abs, V)))  # r must fit
    best = K.row(0).astype(dtype) * r - V[0]
    arg = np.zeros(K.shape[1], dtype=np.int64)
    for i in range(1, K.shape[0]):
        score = K.row(i).astype(dtype, copy=False) * r - V[i]
        up = score > best
        best[up], arg[up] = score[up], i
    return tuple(F(s, L) for s in best.tolist()), tuple(arg.tolist())


def c_transform(f: PotentialField, cost: CostFunction, grid: Sequence,
                direction: str = "source_to_target") -> PotentialField:
    """f^c(y) = max over the grid of f of c(.,.) - f, exactly.

    Ties go to the lowest index and the argmax indices are retained.
    """
    grid = tuple(as_point(y) for y in grid)
    if not f.points or not grid:
        raise EmptyGrid("c-transform needs nonempty grids on both sides")
    if direction not in ("source_to_target", "target_to_source"):
        raise ValueError(f"unknown direction {direction!r}")
    if direction == "target_to_source":
        cost = cost.transpose()
    vals, args = _exact_argmax(*cost.exact_rows(f.points, grid), f.values)
    return PotentialField(grid, vals, argmax=args)


class TransportProblem:
    """Cost + marginals + weight + normalization: one variational instance."""

    def __init__(self, cost: CostFunction, mu0: DiscreteMeasure,
                 nu0: DiscreteMeasure,
                 weight: Optional[Callable] = None, ln_norm: float = 1.0):
        self.cost = cost
        self.mu0 = mu0
        self.nu0 = nu0
        self.weight = weight
        self.ln_norm = float(ln_norm)
        if mu0.total_mass != 1:
            raise InfeasibleMarginals("source measure must have mass 1")
        # W nu0 as integer numerators over one denominator; its Fractions
        # are nu0's weights when there is no W
        self._target_mass = None
        if weight is None:
            self._target = nu0.masses.tolist(), nu0.denominator
            total = nu0.total_mass
        else:
            w = [F(weight(p)) for p in nu0.points]
            if any(x < 0 for x in w):
                raise InfeasibleMarginals("weight must be non-negative")
            self._target_mass = tuple(wi * vi for wi, vi in zip(w, nu0.weights))
            self._target = over_lcm(self._target_mass)
            total = sum(self._target_mass)
        if total != 1:
            raise InfeasibleMarginals("weighted target mass must be 1")
        self._exact_cost = None
        self._cost_array = None
        self._integer_cost = None
        self._row_source = None

    @property
    def target_mass(self) -> tuple:
        """The masses of W nu0, exact."""
        return self.nu0.weights if self._target_mass is None else self._target_mass

    def _rows(self) -> tuple:
        """(rows of K, D) with cost = K / D, the cost's row source
        (`CostFunction.exact_rows`) over the two measures, built on first
        use."""
        if self._row_source is None:
            self._row_source = self.cost.exact_rows(self.mu0, self.nu0)
        return self._row_source

    def _integer(self) -> tuple:
        """(K, D) with cost = K / D, the row source's full block, built on
        first use: the exact oracle and the Fraction and float matrices
        read K itself."""
        if self._integer_cost is None:
            rows, D = self._rows()
            self._integer_cost = rows.block(), D
        return self._integer_cost

    @property
    def exact_cost(self) -> list:
        if self._exact_cost is None:
            K, D = self._integer()
            self._exact_cost = [[F(k, D) for k in row.tolist()] for row in K]
        return self._exact_cost

    @property
    def cost_array(self) -> np.ndarray:
        if self._cost_array is None:
            self._cost_array = matrix_floats(*self._integer())
        return self._cost_array

    def transform(self, phi: PotentialField) -> PotentialField:
        """Exact phi^c on the target grid, from the cost's rows."""
        if phi.points != self.mu0.points:
            raise GridMismatch("potential not on the source grid")
        vals, args = _exact_argmax(*self._rows(), phi.values)
        return PotentialField(self.nu0.points, vals, argmax=args)


@dataclass(frozen=True)
class TransportResult:
    phi: PotentialField
    psi: PotentialField
    value: float  # exact_value, correctly rounded
    plan: tuple  # (rows, cols, mass): positive masses, row-major
    gap: float  # exact_gap, correctly rounded
    iterations: int  # flow augmentations
    converged: bool  # the flows are balanced and exact_gap == 0
    unshipped: float  # mass the plan leaves unshipped
    exact_value: Fraction
    exact_gap: Fraction


def kontorovich_value(problem: TransportProblem, phi: PotentialField) -> float:
    """int phi dmu0 + int W phi^c dnu0 over the discrete measures."""
    psi = problem.transform(phi)  # checks the grid
    mu_part = sum(float(w) * float(v)
                  for w, v in zip(problem.mu0.weights, phi.values))
    nu_part = sum(m * float(v)
                  for m, v in zip(problem.target_mass, psi.values))
    return mu_part + nu_part


def _mean_zero(problem: TransportProblem, values: list) -> tuple:
    mu = problem.mu0
    mean = F(sum(a * v for a, v in zip(mu.masses.tolist(), values)),
             mu.denominator)
    return tuple(v - mean for v in values)


def _over_one(*sides) -> tuple[list[int], int]:
    """Masses given as (integer numerators, denominator) in lowest terms,
    as one list over Q, the lcm of the denominators: what `over_lcm` gives
    for their Fractions."""
    Q = lcm(*(q for _, q in sides))
    return [x * (Q // q) for nums, q in sides for x in nums], Q


def _coarse_levels(problem: TransportProblem) -> list:
    """Coarse-to-fine sub-problems (rows, cols, a, b) on the nested grids.

    On each side, l is the kept points' level, the lcm of their coordinate
    denominators: the side's level over g, its gcd with the kept points'
    numerators.  A level keeps the points whose coordinates are multiples
    of 2/l, so whose numerators are multiples of 2g, while l is even, and
    all of them otherwise.  Its masses are the exact masses there,
    renormalized to 1 and put over their common denominator.  The ladder
    stops when neither side shrinks or a side keeps no mass.
    """
    mu, nu = problem.mu0, problem.nu0
    sides = ((mu.numerators.tolist(), mu.level, mu.masses.tolist()),
             (nu.numerators.tolist(), nu.level, problem._target[0]))
    kept = [range(len(N)) for N, _, _ in sides]
    levels = []
    while True:
        coarser = []
        for (N, level, _), idx in zip(sides, kept):
            g = gcd(level, *(c for i in idx for c in N[i]))
            if level // g % 2 == 0:
                idx = [i for i in idx if all(c % (2 * g) == 0 for c in N[i])]
            coarser.append(idx)
        if all(len(new) == len(old) for new, old in zip(coarser, kept)):
            break
        masses = [[w[i] for i in idx] for (_, _, w), idx in zip(sides, coarser)]
        totals = [sum(a) for a in masses]
        if not all(totals):
            break
        rows, cols = kept = coarser
        mass = _int_array(_over_one(*map(lowest_terms, masses, totals))[0])
        levels.append((np.array(rows), np.array(cols),
                       mass[:len(rows)], mass[len(rows):]))
    return levels[::-1]


def minimize_kontorovich(problem: TransportProblem) -> TransportResult:
    """Minimize F over P_c; result normalized to mean zero against mu0.

    The flow finisher reads K of cost = K / D in place, in whatever integer
    dtype it holds, and the marginals times Q, the lcm of their
    denominators, after the coarser levels of _coarse_levels, each
    warm-starting the next with its duals.  The plan is the full level's
    integer flow over Q on its support, correctly rounded, and phi its
    source duals over D, shifted to mean zero; psi = phi^c is recomputed
    exactly, so phi + psi >= cost holds exactly.  phi has mean zero, so the
    exact value is sum W psi dnu0, and the exact gap is that value less the
    plan's correlation sum K x / (D Q) over the support.  By weak duality
    the plan is optimal, and converged, exactly when its flows are positive,
    meet the marginals times Q and the gap is 0.  value and gap are the
    correctly rounded floats of the exact ones.
    """
    K, D = problem._rows()
    n, m = K.shape
    mu = problem.mu0
    mass, Q = _over_one((mu.masses.tolist(), mu.denominator), problem._target)
    marginals = _int_array(mass)
    (rows, cols, flow), pu, _, aug, unshipped = _flow.solve_transport(
        K, marginals[:n], marginals[n:], levels=_coarse_levels(problem))
    primal = sum(k * x for k, x in
                 zip(K.entries(rows, cols).tolist(), flow.tolist()))

    phi = [F(u) / D for u in pu.tolist()]
    phi_field = PotentialField(problem.mu0.points, _mean_zero(problem, phi))
    psi_field = problem.transform(phi_field)
    S, L = over_lcm(psi_field.values)
    value = F(sum(x * s for x, s in zip(mass[n:], S)), Q * L)
    gap = value - F(primal, D * Q)
    shipped = [0] * (n + m)
    for i, j, x in zip(rows.tolist(), cols.tolist(), flow.tolist()):
        shipped[i] += x
        shipped[n + j] += x
    balanced = shipped == mass and all(x > 0 for x in flow.tolist())
    plan = rows, cols, matrix_floats(flow, Q)
    return TransportResult(
        phi_field, psi_field, ratio_float(*value.as_integer_ratio()), plan,
        ratio_float(*gap.as_integer_ratio()), aug, balanced and gap == 0,
        ratio_float(unshipped, Q), value, gap)


@dataclass(frozen=True)
class LPOracleResult:
    plan: tuple  # (rows, cols, mass): positive masses, row-major
    primal_value: float
    dual_potentials: tuple  # (u on source, v on target), exact rationals
    exact_value: Fraction
    pivots: int


# the largest source or target grid the exact oracle takes, read per call
ORACLE_SIZE_CAP = 600


def lp_oracle(problem: TransportProblem) -> LPOracleResult:
    """Exact transportation simplex for max plan correlation.

    The simplex runs on the integer costs (K, D) and the exact marginals,
    less the targets of zero mass (W = 0), which ship nothing (K is read in
    place when there are none); the plan is exactly feasible and the value
    a rational certificate of the optimum.
    v = u^c, exactly: the simplex's duals where it solved (each target has a
    tight basic cell), the least feasible ones elsewhere.  A grid above
    ORACLE_SIZE_CAP points a side raises SizeCapExceeded.
    """
    n, m = len(problem.mu0.points), len(problem.nu0.points)
    if max(n, m) > ORACLE_SIZE_CAP:
        cap = ORACLE_SIZE_CAP
        raise SizeCapExceeded(f"{n}x{m} exceeds the {cap}x{cap} cap")
    K, D = problem._integer()
    b = problem.target_mass
    keep = [j for j in range(m) if b[j]]
    flows, u, _, value, pivots = _simplex.solve_exact(
        K if len(keep) == m else K.take(keep, axis=1), D,
        problem.mu0.weights, [b[j] for j in keep])
    v = problem.transform(PotentialField(problem.mu0.points, u)).values
    cells = sorted((i, keep[jk], float(fl))
                   for (i, jk), fl in flows.items() if fl)
    plan = tuple(np.array(x) for x in zip(*cells))
    return LPOracleResult(plan=plan, primal_value=float(value),
                          dual_potentials=(tuple(u), tuple(v)),
                          exact_value=value, pivots=pivots)


def ma_energy(problem: TransportProblem, phi: PotentialField) -> float:
    """E(phi) = -ln_norm * int W phi^c dnu0 (zero point fixed by the formula)."""
    psi = problem.transform(phi)  # checks the grid
    return -problem.ln_norm * sum(
        m * float(v) for m, v in zip(problem.target_mass, psi.values))


def relative_volume_sum(phi: PotentialField, psi: PotentialField,
                        family: ThetaFamily, l: int) -> dict:
    """Level-l relative-volume Riemann sum between two potentials.

    phi^c_l(p) = max_x (-val_x(theta_p^l)/l - phi(x)) over phi's grid, by
    `_exact_argmax` on one (K, D) score matrix per grid, a row per point and
    a column per section (one val_at per pair, on a shared grid once);
    vol = l * sum_p mult(p) (psi^c_l - phi^c_l); scaled = n!/l^(n+1) * vol.
    """
    if not phi.points or not psi.points:
        raise EmptyGrid("relative volume needs nonempty grids on both sides")
    sections = family.sections(l)
    n_dim = len(sections[0].terms[0].exponent)

    def scores(points) -> tuple:
        S, D = over_lcm([-val_at(sec, x) / l
                         for x in points for sec in sections])
        return _int_array(S).reshape(len(points), len(sections)), D

    phi_scores = scores(phi.points)
    psi_scores = phi_scores if phi.points == psi.points else scores(psi.points)
    phi_c, _ = _exact_argmax(*phi_scores, phi.values)
    psi_c, _ = _exact_argmax(*psi_scores, psi.values)
    vol = l * sum(family.mult(l, sec.label) * (b - a)
                  for sec, a, b in zip(sections, phi_c, psi_c))
    scaled = F(factorial(n_dim)) / l ** (n_dim + 1) * vol
    return {"vol": float(vol), "scaled": float(scaled)}
