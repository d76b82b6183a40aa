"""Generators for the three worked example families.

Each generator returns a ready TransportProblem: toric pairs transport
between polar-dual polytope boundaries under the bilinear pairing,
intermediate limits transport a simplex onto a weighted union of dual
simplices, and abelian families transport a circle or torus onto itself
under the periodic theta cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import atan2
from typing import Optional, Sequence

from . import _linalg
from .cost import (
    MumfordData,
    ThetaFamily,
    abelian_cost,
    certified_window,
    pairing_cost,
    theta_section,
)
from .errors import (
    InvariantViolation,
    NotReflexive,
    ResolutionTooCoarse,
    SeriesDepthExceeded,
)
from .polyhedral import (
    DiscreteMeasure,
    Face,
    Gluing,
    IntegralPolyhedralComplex,
    Point,
    as_point,
    polygon_boundary_complex,
    quadrature,
    rational_points,
    simplex_complex,
)
from .transport import TransportProblem

F = Fraction


# -- toric pairs --------------------------------------------------------------------


def _ccw_sorted(verts: list[Point]) -> list[Point]:
    return sorted(verts, key=lambda v: atan2(float(v[1]), float(v[0])))


def _interior_lattice_points(verts: list[Point]) -> list[tuple[int, int]]:
    lo0 = min(v[0] for v in verts)
    hi0 = max(v[0] for v in verts)
    lo1 = min(v[1] for v in verts)
    hi1 = max(v[1] for v in verts)
    out = []
    n = len(verts)
    for z0 in range(int(lo0), int(hi0) + 1):
        for z1 in range(int(lo1), int(hi1) + 1):
            inside = True
            for i in range(n):
                a, b = verts[i], verts[(i + 1) % n]
                cross = (b[0] - a[0]) * (z1 - a[1]) - (b[1] - a[1]) * (z0 - a[0])
                if cross <= 0:
                    inside = False
                    break
            if inside:
                out.append((z0, z1))
    return out


def polar_dual(delta_vertices: Sequence[Sequence]) -> tuple[Point, ...]:
    """Vertices of {p : <p, x> >= -1 on delta}, exact; 2D only."""
    verts = [as_point(v) for v in delta_vertices]
    if any(len(v) != 2 for v in verts):
        raise NotReflexive("polar duality is implemented in dimension 2")
    if any(c.denominator != 1 for v in verts for c in v):
        raise NotReflexive("polytope vertices must be lattice points")
    verts = _ccw_sorted(verts)
    n = len(verts)
    dual = []
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        # dual vertex: <p, a> = <p, b> = -1
        inv = _linalg.inverse([a, b])
        if inv is None:
            raise NotReflexive("adjacent vertices are linearly dependent")
        p = tuple(-sum(row) for row in inv)
        if any(c.denominator != 1 for c in p):
            raise NotReflexive("polar dual has a non-lattice vertex")
        dual.append(p)
    if _interior_lattice_points(verts) != [(0, 0)]:
        raise NotReflexive("origin is not the unique interior lattice point")
    return tuple(_ccw_sorted(dual))


@dataclass(frozen=True)
class ReflexivePolytopePair:
    delta: tuple[Point, ...]
    delta_dual: tuple[Point, ...]

    def __post_init__(self):
        back = polar_dual(self.delta_dual)
        if set(back) != set(self.delta):
            raise NotReflexive("polar dual round trip failed")

    def boundary(self) -> IntegralPolyhedralComplex:
        return polygon_boundary_complex(self.delta)

    def dual_boundary(self) -> IntegralPolyhedralComplex:
        return polygon_boundary_complex(self.delta_dual)


def toric_pair(delta_vertices: Sequence[Sequence], resolution=F(1, 8),
               ln_norm: Optional[float] = None):
    """Polar-dual pair and its pairing-cost transport problem.

    Source is the boundary of the dual polytope, target the boundary of the
    given one, both with normalized lattice-Lebesgue measures.  ln_norm
    defaults to the lattice length of the target boundary.
    """
    dual = polar_dual(delta_vertices)  # checks the dimension before the sort
    delta = tuple(_ccw_sorted([as_point(v) for v in delta_vertices]))
    pair = ReflexivePolytopePair(delta, dual)
    source_cx = pair.dual_boundary()
    target_cx = pair.boundary()
    mu0 = quadrature(source_cx, resolution, normalize=True)
    nu0 = quadrature(target_cx, resolution, normalize=True)
    if ln_norm is None:
        ln_norm = float(len(rational_points(target_cx, 1)))
    cost = pairing_cost(source_cx, target_cx)
    return pair, TransportProblem(cost, mu0, nu0, ln_norm=ln_norm)


# -- intermediate complex-structure limits -------------------------------------------


@dataclass(frozen=True)
class IntermediateData:
    """Fiber dimension n, skeleton dimension m, degrees d, ambient series."""

    n: int
    m: int
    d: tuple[int, ...]
    hilbert_M: tuple[int, ...]
    ln_norm: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "d", tuple(int(x) for x in self.d))
        object.__setattr__(self, "hilbert_M", tuple(int(x) for x in self.hilbert_M))
        if not 1 <= self.m <= self.n - 1:
            raise InvariantViolation("need 1 <= m <= n - 1")
        if len(self.d) != self.m + 1 or any(x <= 0 for x in self.d):
            raise InvariantViolation("need m + 1 positive degrees")

    def weight(self, p: Sequence) -> Fraction:
        pt = as_point(p)
        base = 1 + sum(F(di) * c for di, c in zip(self.d, pt))
        return base ** (self.n - self.m)


def _target_union(data: IntermediateData) -> IntegralPolyhedralComplex:
    """B = union over k of {p <= 0, p_k = 0, sum d_i p_i >= -1} as simplices."""
    amb = data.m + 1
    origin = tuple(F(0) for _ in range(amb))
    faces = []
    vertex_set = {origin}
    for k in range(amb):
        verts = [origin]
        for i in range(amb):
            if i == k:
                continue
            v = tuple(F(-1, data.d[i]) if j == i else F(0) for j in range(amb))
            verts.append(v)
            vertex_set.add(v)
        faces.append(Face(tuple(verts)))
    faces.extend(Face((v,)) for v in sorted(vertex_set))
    return IntegralPolyhedralComplex(tuple(faces))


def intermediate_family(data: IntermediateData,
                        resolution=F(1, 8)) -> TransportProblem:
    """Simplex-to-B transport with the bilinear cost and weight W.

    nu0 is lattice-Lebesgue on B normalized so the weighted mass is exactly
    one; mu0 is the normalized simplex measure.
    """
    source_cx = simplex_complex(data.m)
    target_cx = _target_union(data)
    mu0 = quadrature(source_cx, resolution, normalize=True)
    raw = quadrature(target_cx, resolution)
    total = sum(w * data.weight(p) for p, w in zip(raw.points, raw.weights))
    if total <= 0:
        raise ResolutionTooCoarse("weighted target mass vanished")
    nu0 = DiscreteMeasure(raw.points, tuple(w / total for w in raw.weights),
                          raw.face_tags, raw.total_mass / total)
    cost = pairing_cost(source_cx, target_cx)
    return TransportProblem(cost, mu0, nu0, weight=data.weight,
                            ln_norm=data.ln_norm)


def _series_product(coeffs: Sequence[int], degrees: Sequence[int],
                    upto: int) -> list[int]:
    """Coefficients of prod (1 - y^d) * sum coeffs[k] y^k, truncated."""
    out = list(coeffs[: upto + 1])
    for d in degrees:
        nxt = list(out)
        for k in range(d, upto + 1):
            nxt[k] -= out[k - d]
        out = nxt
    return out


def section_count(data: IntermediateData, l: int) -> dict:
    """Basis count at level l, enumerated and via the generating series."""
    if l < 0 or l >= len(data.hilbert_M):
        raise SeriesDepthExceeded(
            f"series coefficients available up to degree {len(data.hilbert_M) - 1}")
    dim_v = _series_product(data.hilbert_M, data.d, l)

    def count_tuples(idx: int, remaining: int, has_zero: bool) -> int:
        if idx == data.m + 1:
            return dim_v[remaining] if has_zero else 0
        total = 0
        step = data.d[idx]
        k = 0
        while k * step <= remaining:
            total += count_tuples(idx + 1, remaining - k * step,
                                  has_zero or k == 0)
            k += 1
        return total

    enumerated = count_tuples(0, l, False)
    series = _series_product(data.hilbert_M, [sum(data.d)], l)[l]
    return {"enumerated": enumerated, "series": series}


# -- abelian (Mumford) families --------------------------------------------------------


def _circle_g(g: int) -> IntegralPolyhedralComplex:
    return IntegralPolyhedralComplex(
        faces=(Face(((F(0),), (F(g),))), Face(((F(0),),)), Face(((F(g),),))),
        gluings=(Gluing(source=2, target=1, matrix=((1,),), offset=(-g,)),),
    )


def _torus_unit() -> IntegralPolyhedralComplex:
    """R^2 / Z^2 as a unit square (two triangles) with edge identifications."""
    o, e0, e1, c = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(1)))
    faces = (
        Face((o, e0, c)), Face((o, c, e1)),        # 0, 1: top cells
        Face((o, e0)), Face((e1, c)),              # 2: bottom, 3: top edge
        Face((o, e1)), Face((e0, c)),              # 4: left, 5: right edge
        Face((o,)), Face((e0,)), Face((e1,)), Face((c,)),
    )
    gluings = (
        Gluing(source=3, target=2, matrix=((1, 0), (0, 1)), offset=(0, -1)),
        Gluing(source=5, target=4, matrix=((1, 0), (0, 1)), offset=(-1, 0)),
    )
    return IntegralPolyhedralComplex(faces, gluings)


def _level_labels(data: MumfordData, level: int) -> list[Point]:
    labels: list[tuple] = [()]
    for axis in data.axes:
        labels = [lab + (F(j, level),)
                  for lab in labels for j in range(level * axis.period)]
    return [tuple(lab) for lab in labels]


def mumford_family(data: MumfordData, levels: Sequence[int],
                   resolution=F(1, 16)):
    """Theta family over the given levels plus the self-transport problem.

    Uniform measures on the quotient circle (rank 1) or unit torus (rank 2,
    unit periods); the cost is the closed-form periodic theta cost.
    """
    window = certified_window(data, max(levels))
    fam = ThetaFamily({
        l: tuple(theta_section(data, l, lab, window=window)
                 for lab in _level_labels(data, l))
        for l in levels})
    if data.rank == 1:
        cx = _circle_g(data.axes[0].period)
    elif data.rank == 2 and data.periods == (1, 1):
        cx = _torus_unit()
    else:
        raise InvariantViolation(
            "transport discretization ships for rank 1 and the unit-period "
            "rank-2 torus only")
    mu0 = quadrature(cx, resolution, normalize=True)
    cost = abelian_cost(data, cx, cx)
    problem = TransportProblem(cost, mu0, mu0, ln_norm=1.0)
    return fam, problem
