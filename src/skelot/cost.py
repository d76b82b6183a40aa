"""Cost functions c(x, p) on source x target.

Three constructions ship: the ambient bilinear pairing between polar-dual
boundary complexes, the level-normalized limit of theta valuations, and the
closed-form periodic theta cost (level-homogeneous, so the level-1 value
already equals the limit).

Every cost has one exact builder, `CostFunction.exact_rows`: over two grids
it gives the rows of one integer matrix K, a `_linalg` row source, and one
common denominator D with entries c = K[i, j] / D.  The pairing's rows come
from its integer factors (`pairing_rows`), so its K need never be formed;
the theta cost holds the K of its closed form (`theta_matrix`, on grids in
(1/l)Z^d); any other cost holds the K of one call per pair.  The theta cost's
per-axis minimum over lattice shifts has one closed form, `_axis_minima`,
and no window search: the matrix builder, the per-pair evaluator and
`certified_window` all call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import floor, inf
from typing import Callable, Optional, Sequence

import numpy as np

from ._linalg import ProductRows, StoredRows, _int_array, _int_dtype, over_lcm
from .errors import DimensionMismatch, MissingLevel, WindowNotConverged
from .polyhedral import IntegralPolyhedralComplex, Point, as_point
from .tropical import MonomialTerm, TropicalSection, val_at

F = Fraction


@dataclass
class CostFunction:
    source: Optional[IntegralPolyhedralComplex]
    target: Optional[IntegralPolyhedralComplex]
    evaluator: Callable[[Sequence, Sequence], Fraction]
    lipschitz_x: float
    metadata: dict = field(default_factory=dict)
    # (source_points, target_points) -> (rows of K, D), a `_linalg` row
    # source with entries c = K[i, j] / D; None means the entrywise builder
    exact_rows: Optional[Callable] = None

    def __post_init__(self):
        if self.exact_rows is None:
            self.exact_rows = self._entrywise_rows

    def __call__(self, x: Sequence, p: Sequence):
        return self.evaluator(x, p)

    def _entrywise_rows(self, xs: Sequence, ps: Sequence) -> tuple:
        """(rows of K, D) from one call per pair, K held whole."""
        K, D = over_lcm([F(self(x, p)) for x in xs for p in ps])
        return StoredRows(_int_array(K).reshape(len(xs), len(ps))), D

    def transpose(self) -> "CostFunction":
        """Swapped-role cost c^T(p, x) = c(x, p); its rows are the columns
        of the original's, so pairing factors swap and K is not formed."""
        ev, build = self.evaluator, self.exact_rows

        def build_t(ps, xs):
            rows, D = build(xs, ps)
            return rows.T, D

        return CostFunction(
            source=self.target, target=self.source,
            evaluator=lambda p, x: ev(x, p),
            lipschitz_x=self.lipschitz_x,
            metadata=dict(self.metadata),
            exact_rows=build_t)


# -- exact integer matrices --------------------------------------------------------

def _lattice(points: Sequence, name: str, den: int = 1) -> tuple:
    """Exact points, their common dimension and the lcm of den and their
    denominators."""
    pts = [as_point(p) for p in points]
    dims = {len(p) for p in pts}
    if len(dims) > 1:
        raise DimensionMismatch(f"{name} points of mixed dimension {sorted(dims)}")
    _, den = over_lcm([c for p in pts for c in p], den)
    return pts, dims.pop() if dims else 0, den


def ratio_float(k: int, d: int) -> float:
    """k / d (d > 0) rounded to nearest, saturating to an infinity where the
    quotient is beyond the float range."""
    try:
        return k / d
    except OverflowError:
        return inf if k > 0 else -inf


def matrix_floats(K: np.ndarray, D: int) -> np.ndarray:
    """K / D rounded to nearest, entry by entry equal to float(Fraction(k, D))
    where that is finite, and the infinity of its sign where it overflows."""
    limit = 2 ** 53  # integer -> float64 is exact below this; then one division
    if K.dtype != object and D < limit and (K.size == 0 or
                                            int(np.abs(K).max()) < limit):
        return K / D
    return np.array([ratio_float(k, D) for k in K.ravel().tolist()],
                    dtype=float).reshape(K.shape)


def pairing_cost(source: IntegralPolyhedralComplex,
                 target: IntegralPolyhedralComplex) -> CostFunction:
    """c(x, p) = <x, p>, the ambient bilinear pairing (exact)."""
    if source.ambient_dim != target.ambient_dim:
        raise DimensionMismatch(
            f"source dim {source.ambient_dim} != target dim {target.ambient_dim}")

    def ev(x, p):
        return sum(F(a) * F(b) for a, b in zip(as_point(x), as_point(p)))

    lip = max(
        float(sum(F(c) * F(c) for c in v)) ** 0.5
        for f in target.faces for v in f.vertices)
    return CostFunction(source, target, ev, lipschitz_x=lip,
                        metadata={"kind": "pairing"},
                        exact_rows=pairing_rows)


def pairing_rows(xs: Sequence, ps: Sequence) -> tuple[ProductRows, int]:
    """<x, p> over the grids as (rows of K, D), K = X P^T never formed: the
    numerators X and P of the points over their lcms, in `_int_dtype` of
    d max|X| max|P|, the bound on every entry and partial sum."""
    xs, dx, lx = _lattice(xs, "source")
    ps, dp, lp = _lattice(ps, "target")
    d = min(dx, dp)  # the evaluator zips, so extra coordinates drop out
    X, _ = over_lcm([c for x in xs for c in x[:d]], lx)
    P, _ = over_lcm([c for p in ps for c in p[:d]], lp)
    bound = d * max(map(abs, X), default=0) * max(map(abs, P), default=0)
    dtype = _int_dtype(bound)
    X = np.array(X, dtype=dtype).reshape(len(xs), d)
    P = np.array(P, dtype=dtype).reshape(len(ps), d)
    return ProductRows(X, P, bound), lx * lp


# -- Mumford data and the periodic theta cost -----------------------------------


@dataclass(frozen=True)
class PhiAxis:
    """One axis of a strictly convex piecewise-linear function.

    Slope on [k, k+1] is base_slope + quad*k (integral, strictly increasing),
    with value 0 at the origin; the lattice direction is identified with
    period * Z.  The default reproduces Phi(k) = k(k+1)/2.
    """

    base_slope: int = 1
    quad: int = 1
    period: int = 1

    def __post_init__(self):
        if self.quad < 1 or self.period < 1:
            raise ValueError("need quad >= 1 and period >= 1")

    def slope(self, k: int) -> int:
        return self.base_slope + self.quad * k

    def value(self, m) -> Fraction:
        m = F(m)
        k = floor(m)
        # Phi(k), the signed sum of the slopes of the unit intervals between
        # 0 and k, is base_slope k + quad k(k-1)/2 for every integer k
        return self.base_slope * k + self.quad * (k * (k - 1) // 2) \
            + self.slope(k) * (m - k)


@dataclass(frozen=True)
class MumfordData:
    """Lattice, sublattice and convex PL data generating periodic theta bases.

    Axes are independent rank-1 blocks (the sublattice is diagonal), which
    covers the shipped rank-1 and rank-2 instances.
    """

    axes: tuple[PhiAxis, ...]

    @property
    def rank(self) -> int:
        return len(self.axes)

    @property
    def periods(self) -> tuple[int, ...]:
        return tuple(a.period for a in self.axes)

    def phi(self, m: Sequence) -> Fraction:
        pt = as_point(m)
        return sum(a.value(c) for a, c in zip(self.axes, pt))

    def reduce(self, m: Sequence) -> Point:
        """Canonical lift into the fundamental domain prod [0, period)."""
        return tuple(c - a.period * floor(c / a.period)
                     for a, c in zip(self.axes, as_point(m)))


_MAX_RADIUS = 4096


def _axis_bound(axis: PhiAxis, L: int) -> int:
    """Bound on every intermediate of `_axis_minima` for X in [0, g*L]:
    |j0| <= g + |b| + 1, so |q| <= J at both candidates, and each term of
    an axis value is at most L^2 (g + |b| + quad) (J + 2)^2."""
    g, b = axis.period, abs(axis.base_slope)
    J = g * (2 * g + b + 4)
    return 2 * L * L * (g + b + axis.quad) * (J + 2) ** 2


def _axis_minima(axis: PhiAxis, X: np.ndarray, P: np.ndarray,
                 L: int) -> tuple[np.ndarray, np.ndarray]:
    """L^2 min over k of x*q + Phi(q), q = p + g*k, and the minimising k (the
    lower on a tie), at x = X/L and p = P/L for an integer column X and row P.

    At q = Q/L, j = floor(q), L^2 (x*q + Phi(q)) is X*Q + L^2*Phi(j) +
    L*slope(j)*(Q - j*L), where Phi(j) = base*j + quad*j(j-1)/2.  x*q + Phi(q)
    falls up to j0, the first integer whose slope x + base + quad*j0 is >= 0,
    and rises after it, so the minimum over q in p + gZ sits at the last
    lattice point <= j0 or the next one: a closed form, with no window
    search.  A minimum at |k| >= _MAX_RADIUS is refused.
    """
    b, quad, gL = axis.base_slope, axis.quad, axis.period * L
    j0 = -((X + b * L) // (quad * L))
    k_lo = (j0 * L - P) // gL

    def scaled_value(kk):
        Q = P + gL * kk
        j = Q // L
        return (X * Q + L * L * (b * j + quad * (j * (j - 1) // 2))
                + L * (b + quad * j) * (Q - j * L))

    lo, hi = scaled_value(k_lo), scaled_value(k_lo + 1)
    up = hi < lo
    kbest = np.where(up, k_lo + 1, k_lo)
    if kbest.size and int(np.abs(kbest).max()) >= _MAX_RADIUS:
        raise WindowNotConverged(
            "theta window did not certify an interior minimum")
    return np.where(up, hi, lo), kbest


def abelian_theta_cost(data: MumfordData, x: Sequence, p: Sequence) -> Fraction:
    """c(x, p) = - min_gamma [<x, p+gamma> + Phi(p+gamma)] on the quotient,
    the 1 x 1 `theta_matrix` (the `_axis_minima` closed form, no search).

    Both arguments are reduced to the canonical fundamental-domain lift
    first, so the value is invariant under lattice translations in either
    slot.  Level-homogeneous: the level-1 value equals the limit value.
    """
    K, D = theta_matrix(data, [x], [p])
    return F(int(K[0, 0]), D)


# entries of one gathered block of theta_matrix rows (4 MB at int32)
_GATHER_ENTRIES = 1 << 20


def theta_matrix(data: MumfordData, xs: Sequence,
                 ps: Sequence) -> tuple[np.ndarray, int]:
    """abelian_theta_cost over the grids as (K, D), in integer arithmetic.

    With L the common denominator, each axis reduces the numerators into
    [0, g*L), tabulates the closed form `_axis_minima` over the distinct
    values on either side (no window search), and subtracts the table from
    K in place, gathered one block of rows at a time: the n x m work is the
    gather, and no n x m temporary is held besides K.
    """
    xs, dx, lx = _lattice(xs, "source")
    ps, dp, L = _lattice(ps, "target", lx)
    axes = data.axes[:min(dx, dp)]
    dtype = _int_dtype(sum(_axis_bound(a, L) for a in axes))
    K = np.zeros((len(xs), len(ps)), dtype=dtype)
    rows = max(1, _GATHER_ENTRIES // max(len(ps), 1))
    for k, a in enumerate(axes):
        gL = a.period * L
        (X, ix), (P, ip) = (np.unique(np.array(
            [v % gL for v in over_lcm([c[k] for c in pts], L)[0]],
            dtype=dtype), return_inverse=True) for pts in (xs, ps))
        table, _ = _axis_minima(a, X[:, None], P[None, :], L)
        for r in range(0, len(xs), rows):
            K[r:r + rows] -= table[np.ix_(ix[r:r + rows], ip)]
    return K, L * L


def abelian_cost(data: MumfordData,
                 source: Optional[IntegralPolyhedralComplex] = None,
                 target: Optional[IntegralPolyhedralComplex] = None) -> CostFunction:
    # |d c / d x_i| <= |p_i + gamma_i*| which stays inside the certified window
    lip = float(sum((8 * a.period) ** 2 for a in data.axes)) ** 0.5

    def rows(xs, ps):
        K, D = theta_matrix(data, xs, ps)
        return StoredRows(K), D

    return CostFunction(source, target,
                        lambda x, p: abelian_theta_cost(data, x, p),
                        lipschitz_x=lip,
                        metadata={"kind": "abelian", "exact": True},
                        exact_rows=rows)


def certified_window(data: MumfordData, level: int) -> int:
    """Window radius whose argmin stays interior for all fundamental-domain
    evaluations: the shifts of the closed form `_axis_minima` (no window
    search) at x = 0 and x = g over every level-l p in [0, g).  The per-axis
    argmin is monotone in x, so the endpoints certify everything between."""
    radius = 4
    for axis in data.axes:
        gl = axis.period * level
        dtype = _int_dtype(_axis_bound(axis, level))
        _, k = _axis_minima(axis, np.array([[0], [gl]], dtype=dtype),
                            np.array([range(gl)], dtype=dtype), level)
        radius = max(radius, int(np.abs(k).max()) + 2)
    return radius


def theta_section(data: MumfordData, level: int, label: Sequence,
                  window: int = 8) -> TropicalSection:
    """Truncated theta section at a level-l label point of the quotient.

    Terms carry exponent l*(m+gamma) and t-order l*Phi(m+gamma); the window
    is certified when evaluations keep their argmin strictly interior.
    """
    m = data.reduce(label)
    if any((level * c).denominator != 1 for c in m):
        raise ValueError("label must be a level-l rational point")
    terms = []
    ranges = [range(-window, window + 1)] * data.rank

    def rec(idx: int, gamma: list[int]):
        if idx == data.rank:
            shift = tuple(mi + a.period * gk for mi, a, gk in zip(m, data.axes, gamma))
            expo = tuple(int(level * c) for c in shift)
            t_ord = level * data.phi(shift)
            if t_ord.denominator != 1:
                raise ValueError("non-integral t-order; inconsistent level data")
            terms.append(MonomialTerm(expo, int(t_ord),
                                      coeff_id=f"theta{tuple(m)}g{tuple(gamma)}"))
            return
        for gk in ranges[idx]:
            rec(idx + 1, gamma + [gk])

    rec(0, [])
    return TropicalSection(tuple(terms), level=level, label=tuple(m))


@dataclass(frozen=True)
class ThetaFamily:
    """Sections per level, labeled by rational points of the target."""

    levels: dict
    multiplicity: Optional[dict] = None  # (level, label) -> positive integer

    def sections(self, level: int) -> tuple[TropicalSection, ...]:
        if level not in self.levels:
            raise MissingLevel(f"level {level} not available")
        return tuple(self.levels[level])

    def labels(self, level: int) -> list[tuple]:
        return [s.label for s in self.sections(level)]

    def section_at(self, level: int, label: Sequence) -> TropicalSection:
        target = as_point(label)
        for s in self.sections(level):
            if s.label == target:
                return s
        raise MissingLevel(f"label {target} missing at level {level}")

    def nearest_label(self, level: int, p: Sequence) -> tuple:
        target = as_point(p)
        labels = self.labels(level)
        if not labels:
            raise MissingLevel(f"no labels at level {level}")

        def key(lab):
            d = sum((a - b) ** 2 for a, b in zip(lab, target))
            return (d, lab)

        return min(labels, key=key)

    def mult(self, level: int, label) -> int:
        if self.multiplicity is None:
            return 1
        return self.multiplicity.get((level, tuple(label)), 1)


# -- bound verification ------------------------------------------------------------


@dataclass(frozen=True)
class CostBoundReport:
    n_lower_bound_checks: int
    n_subadditivity_checks: int
    violations: tuple


def verify_cost_bounds(family: ThetaFamily, cost: CostFunction,
                       samples: Sequence[tuple], tolerance=F(1, 10**9)) -> CostBoundReport:
    """Check -val/l >= c and the midpoint subadditivity of valuations.

    samples are (x, p, l) triples, p taken to its nearest label at level l;
    subadditivity is tested on every pair of triples sharing the same x
    whose combined level and midpoint label exist in the family.  Violations
    are reported, never raised, in sample order and then pair order.

    Each distinct piece of exact work is done once: the costs are entries
    of one `cost.exact_rows` over the distinct points and labels, a label is
    resolved through a per-level dict (`nearest_label`'s scan only for a p
    that is not a label), and each midpoint section, each val_at(section, x)
    and each pair verdict at one x is computed once.
    """
    tol = F(tolerance)
    tables: dict = {}

    def nearest_section(level, p: Point) -> TropicalSection:
        """section_at(level, nearest_label(level, p)), a dict hit when p is a
        label (the first section with it, as section_at returns)."""
        if level not in tables:
            table: dict = {}
            for s in family.sections(level):
                table.setdefault(s.label, s)
            # nearest_label's zip truncates, so among labels of mixed length
            # a shorter one can beat p itself: then every lookup scans
            tables[level] = table if len({len(lab) for lab in table}) <= 1 else {}
        sec = tables[level].get(p)
        if sec is None:
            sec = family.section_at(level, family.nearest_label(level, p))
        return sec

    vals: dict = {}

    def val(sec: TropicalSection, x: Point) -> Fraction:
        key = (id(sec), x)
        if key not in vals:
            vals[key] = F(val_at(sec, x))
        return vals[key]

    resolved = [(x, as_point(x), nearest_section(l, as_point(p)), l)
                for x, p, l in samples]
    rows = {px: i for i, px in enumerate(dict.fromkeys(r[1] for r in resolved))}
    cols = {lab: j for j, lab in
            enumerate(dict.fromkeys(r[2].label for r in resolved))}
    if resolved:
        K, D = cost.exact_rows(list(rows), list(cols))
    violations = []
    by_x: dict[Point, list] = {}
    for x, px, sec, l in resolved:
        v = val(sec, px)
        if -v / l < F(int(K.entries(rows[px], cols[sec.label])), D) - tol:
            violations.append(("lower_bound", x, sec.label, l, -v / l))
        by_x.setdefault(px, []).append((int(l), sec, v))

    mids: dict = {}

    def midpoint_section(l1, s1, l2, s2) -> Optional[TropicalSection]:
        lsum = l1 + l2
        mid = as_point((l1 * a + l2 * b) / lsum
                       for a, b in zip(s1.label, s2.label))
        try:
            smid = nearest_section(lsum, mid)
        except MissingLevel:
            return None
        return smid if smid.label == mid else None

    n_sub = 0
    for x, group in by_x.items():
        verdicts: dict = {}
        for i, (l1, s1, v1) in enumerate(group):
            for l2, s2, v2 in group[i:]:
                key = (l1, id(s1), l2, id(s2))
                if key not in verdicts:
                    if key not in mids:
                        mids[key] = midpoint_section(l1, s1, l2, s2)
                    smid = mids[key]
                    verdicts[key] = None if smid is None else \
                        v1 + v2 > val(smid, x) + tol
                verdict = verdicts[key]
                if verdict is None:
                    continue
                n_sub += 1
                if verdict:
                    violations.append(("subadditivity", x, s1.label, l1,
                                       s2.label, l2))
    return CostBoundReport(len(resolved), n_sub, tuple(violations))
