"""Integral polyhedral complexes, rational point lattices, measures, quadrature.

All vertex and lattice arithmetic is exact (Fraction); measure weights are
floats.  Faces are simplices presented by their vertex tuples, optionally with
a multiplicity vector b when the face sits in the normalized form
{x >= 0, sum b_i x_i = 1}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _linalg
from .errors import (
    InconsistentGluing,
    NonRationalVertex,
    ResolutionTooCoarse,
    ZeroDimensionalFace,
)

Point = tuple[Fraction, ...]


def as_fraction(value) -> Fraction:
    """Parse an exact rational; floats are rejected on purpose."""
    if isinstance(value, float):
        raise NonRationalVertex(f"float coordinate {value!r}; use 'p/q' strings")
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise NonRationalVertex(f"cannot interpret {value!r} as a rational")


def as_point(coords: Sequence) -> Point:
    return tuple(as_fraction(c) for c in coords)


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Face:
    """A rational simplex with an integral structure on its affine span."""

    vertices: tuple[Point, ...]
    multiplicities: Optional[tuple[int, ...]] = None
    lattice_basis: tuple[tuple[int, ...], ...] = ()
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        verts = tuple(as_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "weight", Fraction(self.weight))
        dirs = [[b - a for a, b in zip(verts[0], v)] for v in verts[1:]]
        if dirs and _linalg.rank(dirs) != len(dirs):
            raise ValueError("face vertices must be affinely independent")
        if not self.lattice_basis:
            basis = _linalg.saturated_lattice_basis(dirs) if dirs else []
            object.__setattr__(self, "lattice_basis", tuple(tuple(b) for b in basis))
        else:
            object.__setattr__(
                self, "lattice_basis",
                tuple(tuple(int(x) for x in b) for b in self.lattice_basis))
        if self.multiplicities is not None:
            mult = tuple(int(m) for m in self.multiplicities)
            object.__setattr__(self, "multiplicities", mult)
            for v in verts:
                if sum(m * c for m, c in zip(mult, v)) != 1:
                    raise ValueError("vertex violates sum b_i x_i = 1")

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        return len(self.vertices) - 1

    def barycentric(self, point: Sequence) -> Optional[list[Fraction]]:
        """Barycentric coordinates of a point in the affine span, else None."""
        pt = as_point(point)
        # rows: ambient coordinates stacked over vertices, plus the affine row
        mat = [list(r) for r in zip(*[list(v) + [Fraction(1)] for v in self.vertices])]
        rhs = list(pt) + [Fraction(1)]
        return _linalg.solve(mat, rhs)

    def contains(self, point: Sequence) -> bool:
        lam = self.barycentric(point)
        return lam is not None and all(x >= 0 for x in lam)

    def chart(self, point: Sequence) -> list[Fraction]:
        """Coordinates of point - v0 in the lattice basis."""
        pt = as_point(point)
        diff = [a - b for a, b in zip(pt, self.vertices[0])]
        cols = [[Fraction(b[i]) for b in self.lattice_basis] for i in range(self.ambient_dim)]
        sol = _linalg.solve(cols, diff)
        if sol is None:
            raise ValueError("point is not on the face's affine span")
        return sol

    def unchart(self, coords: Sequence) -> Point:
        t = [Fraction(c) for c in coords]
        return tuple(
            v0 + sum(Fraction(b[i]) * tk for b, tk in zip(self.lattice_basis, t))
            for i, v0 in enumerate(self.vertices[0]))


@dataclass(frozen=True)
class Gluing:
    """Affine-integral identification x -> M x + offset of one face onto another."""

    source: int
    target: int
    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix",
                           tuple(tuple(int(x) for x in row) for row in self.matrix))
        object.__setattr__(self, "offset", tuple(int(x) for x in self.offset))

    def apply(self, point: Sequence) -> Point:
        pt = as_point(point)
        return tuple(
            sum(Fraction(m) * c for m, c in zip(row, pt)) + Fraction(o)
            for row, o in zip(self.matrix, self.offset))


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted rational points with face tags; weights are floats."""

    points: tuple[Point, ...]
    weights: tuple[float, ...]
    face_tags: tuple[int, ...]
    total_mass: float

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(as_point(p) for p in self.points))
        w = tuple(float(x) for x in self.weights)
        object.__setattr__(self, "weights", w)
        if any(x < -1e-15 for x in w):
            raise ValueError("negative weight in measure")
        if abs(sum(w) - self.total_mass) > 1e-12 * max(1.0, abs(self.total_mass)):
            raise ValueError("weights do not sum to the declared total mass")

    def normalized(self) -> "DiscreteMeasure":
        s = sum(self.weights)
        if s <= 0:
            raise ValueError("cannot normalize a zero measure")
        return DiscreteMeasure(self.points, tuple(w / s for w in self.weights),
                               self.face_tags, 1.0)


@dataclass(frozen=True)
class IntegralPolyhedralComplex:
    faces: tuple[Face, ...]
    gluings: tuple[Gluing, ...] = ()

    @property
    def ambient_dim(self) -> int:
        return self.faces[0].ambient_dim

    @property
    def dim(self) -> int:
        return max(f.dim for f in self.faces)

    def top_faces(self) -> list[int]:
        return [i for i, f in enumerate(self.faces) if f.dim == self.dim]

    def canonical_point(self, point: Sequence) -> Point:
        """Smallest representative of the gluing orbit of a point."""
        start = as_point(point)
        orbit = {start}
        frontier = [start]
        while frontier:
            pt = frontier.pop()
            for g in self.gluings:
                if self.faces[g.source].contains(pt):
                    img = g.apply(pt)
                    if img not in orbit:
                        orbit.add(img)
                        frontier.append(img)
        return min(orbit)


def build_complex(spec: dict) -> IntegralPolyhedralComplex:
    """Validated complex from a plain description (see the JSON schema in README)."""
    faces = []
    for fs in spec.get("faces", []):
        mult = fs.get("multiplicities")
        faces.append(Face(
            vertices=tuple(as_point(v) for v in fs["vertices"]),
            multiplicities=tuple(mult) if mult is not None else None,
            weight=as_fraction(fs.get("weight", 1)),
        ))
    gluings = []
    for gs in spec.get("gluings", []):
        for row in gs["matrix"]:
            if any(int(x) != x for x in row):
                raise InconsistentGluing("gluing matrix must be integral")
        if any(int(x) != x for x in gs["offset"]):
            raise InconsistentGluing("gluing offset must be integral")
        gluings.append(Gluing(gs["source"], gs["target"],
                              tuple(tuple(row) for row in gs["matrix"]),
                              tuple(gs["offset"])))
    cx = IntegralPolyhedralComplex(tuple(faces), tuple(gluings))
    for g in cx.gluings:
        src, tgt = cx.faces[g.source], cx.faces[g.target]
        for v in src.vertices:
            if not tgt.contains(g.apply(v)):
                raise InconsistentGluing(
                    f"gluing {g.source}->{g.target} maps a vertex off the target face")
    return cx


# -- rational point enumeration ----------------------------------------------

def _face_anchor(face: Face, l: int) -> Optional[Point]:
    """A point of the face's affine span with coordinates in (1/l)Z, or None."""
    v0 = face.vertices[0]
    if face.dim == 0:
        return v0 if all((l * c).denominator == 1 for c in v0) else None
    dirs = [[b - a for a, b in zip(v0, v)] for v in face.vertices[1:]]
    comp = _linalg.nullspace(dirs)
    scaled = [l * c for c in v0]
    if not comp:
        z = [Fraction(int(c)) for c in scaled]  # any integer point works
        return tuple(c / l for c in z)
    comp_int = [_linalg.clear_denominators(w) for w in comp]
    rhs = [sum(Fraction(a) * c for a, c in zip(row, scaled)) for row in comp_int]
    z = _linalg.solve_integer(comp_int, rhs)
    if z is None:
        return None
    return tuple(Fraction(c, l) for c in z)


def face_rational_points(face: Face, l: int) -> list[Point]:
    """Points of the face with all coordinates in (1/l)Z."""
    anchor = _face_anchor(face, l)
    if anchor is None:
        return []
    if face.dim == 0:
        return [anchor]
    t0 = face.chart(anchor)
    charts = [face.chart(v) for v in face.vertices]
    m = face.dim
    lows = [min(c[k] for c in charts) for k in range(m)]
    highs = [max(c[k] for c in charts) for k in range(m)]
    ranges = []
    for k in range(m):
        lo = -((t0[k] - lows[k]) * l).__floor__()
        hi = ((highs[k] - t0[k]) * l).__floor__()
        ranges.append(range(lo, hi + 1))
    # barycentric coordinates are affine in chart steps: one solve per axis
    # replaces a solve per candidate point
    base = face.unchart(t0)
    lam0 = face.barycentric(base)
    steps = []
    dlam = []
    for k in range(m):
        shifted = face.unchart([t0[i] + (Fraction(1, l) if i == k else 0)
                                for i in range(m)])
        steps.append(tuple(b - a for a, b in zip(base, shifted)))
        lam_k = face.barycentric(shifted)
        dlam.append([b - a for a, b in zip(lam0, lam_k)])
    out = []
    if m == 1:
        for s in ranges[0]:
            if all(a + s * d >= 0 for a, d in zip(lam0, dlam[0])):
                out.append(tuple(c + s * u for c, u in zip(base, steps[0])))
    elif m == 2:
        for s0 in ranges[0]:
            row = [a + s0 * d for a, d in zip(lam0, dlam[0])]
            for s1 in ranges[1]:
                if all(a + s1 * d >= 0 for a, d in zip(row, dlam[1])):
                    out.append(tuple(c + s0 * u + s1 * w for c, u, w
                                     in zip(base, steps[0], steps[1])))
    else:
        raise NotImplementedError("rational point enumeration ships for dim <= 2")
    return out


def rational_points(complex: IntegralPolyhedralComplex, l: int) -> list[Point]:
    """All level-l rational points, deduplicated across faces and gluings."""
    if l < 1:
        raise ValueError("level must be a positive integer")
    seen: set[Point] = set()
    for face in complex.faces:
        for pt in face_rational_points(face, int(l)):
            seen.add(complex.canonical_point(pt))
    return sorted(seen)


# -- measures ------------------------------------------------------------------

def _level_from_resolution(h) -> int:
    hf = Fraction(h) if not isinstance(h, float) else Fraction(h).limit_denominator(10**9)
    l = Fraction(1) / hf
    if l.denominator != 1 or l < 1:
        raise ResolutionTooCoarse(f"resolution {h!r} is not the reciprocal of a positive integer")
    return int(l)


def quadrature(complex: IntegralPolyhedralComplex, h,
               normalize: bool = False) -> DiscreteMeasure:
    """Discrete measure at grid level 1/h whose mass matches the continuous one.

    Cell volumes are lumped onto grid points (trapezoid rule in 1D, corner
    lumping of the up/down triangulation in 2D); truncated boundary stubs are
    assigned to the nearest grid point so mass is conserved exactly.
    """
    l = _level_from_resolution(h)
    acc: dict[Point, Fraction] = {}
    tags: dict[Point, int] = {}

    def add(face_idx: int, pt: Point, w: Fraction) -> None:
        cp = complex.canonical_point(pt)
        acc[cp] = acc.get(cp, Fraction(0)) + w
        tags.setdefault(cp, face_idx)

    for fi in complex.top_faces():
        face = complex.faces[fi]
        w = face.weight
        if face.dim == 0:
            raise ZeroDimensionalFace("quadrature needs positive-dimensional top faces")
        pts = face_rational_points(face, l)
        if len(pts) < 2:
            raise ResolutionTooCoarse(f"fewer than 2 grid points on face {fi}")
        if face.dim == 1:
            coords = sorted((face.chart(p)[0], p) for p in pts)
            lo = min(face.chart(v)[0] for v in face.vertices)
            hi = max(face.chart(v)[0] for v in face.vertices)
            mids = [lo] + [(a[0] + b[0]) / 2 for a, b in zip(coords, coords[1:])] + [hi]
            for (t, p), left, right in zip(coords, mids, mids[1:]):
                add(fi, p, w * (right - left))
        elif face.dim == 2:
            charts = [face.chart(v) for v in face.vertices]
            mat = [[charts[1][0] - charts[0][0], charts[2][0] - charts[0][0]],
                   [charts[1][1] - charts[0][1], charts[2][1] - charts[0][1]]]
            if abs(_linalg.det(mat)) != 1:
                raise ResolutionTooCoarse(
                    "2D quadrature requires a unimodular lattice chart")
            if any((c[k] * l).denominator != 1 for c in charts for k in range(2)):
                raise ResolutionTooCoarse(
                    "2D quadrature requires vertices on the grid")
            cell = Fraction(1, 2 * l * l)

            def corner(u0: Fraction, u1: Fraction) -> Point:
                t0 = charts[0][0] + mat[0][0] * u0 + mat[0][1] * u1
                t1 = charts[0][1] + mat[1][0] * u0 + mat[1][1] * u1
                return face.unchart([t0, t1])

            for a in range(l):
                for b in range(l - a):
                    tri = [(a, b), (a + 1, b), (a, b + 1)]
                    for (ua, ub) in tri:
                        add(fi, corner(Fraction(ua, l), Fraction(ub, l)), w * cell / 3)
                    if a + b <= l - 2:
                        tri = [(a + 1, b), (a, b + 1), (a + 1, b + 1)]
                        for (ua, ub) in tri:
                            add(fi, corner(Fraction(ua, l), Fraction(ub, l)), w * cell / 3)
        else:
            raise NotImplementedError("quadrature ships for faces of dim <= 2")

    points = sorted(acc)
    weights = tuple(float(acc[p]) for p in points)
    measure = DiscreteMeasure(tuple(points), weights,
                              tuple(tags[p] for p in points), float(sum(weights)))
    return measure.normalized() if normalize else measure


# -- convenience builders --------------------------------------------------------

def segment_complex(a, b, weight=1) -> IntegralPolyhedralComplex:
    av, bv = as_fraction(a), as_fraction(b)
    return IntegralPolyhedralComplex((
        Face(((av,), (bv,)), weight=Fraction(weight)),
        Face(((av,),)), Face(((bv,),)),
    ))


def circle_complex(weight=1) -> IntegralPolyhedralComplex:
    """R/Z as the unit segment with its endpoints identified."""
    return IntegralPolyhedralComplex(
        faces=(
            Face(((Fraction(0),), (Fraction(1),)), weight=Fraction(weight)),
            Face(((Fraction(0),),)), Face(((Fraction(1),),)),
        ),
        gluings=(Gluing(source=2, target=1, matrix=((1,),), offset=(-1,)),),
    )


def simplex_complex(m: int, weight=1) -> IntegralPolyhedralComplex:
    """Standard m-simplex {x >= 0, sum x_i = 1} with all faces listed."""
    ambient = m + 1
    verts = [tuple(Fraction(1 if i == j else 0) for i in range(ambient))
             for j in range(ambient)]
    faces: list[Face] = []
    from itertools import combinations
    for size in range(m + 1, 0, -1):
        for combo in combinations(range(ambient), size):
            faces.append(Face(tuple(verts[j] for j in combo),
                              multiplicities=tuple(1 for _ in range(ambient)),
                              weight=Fraction(weight) if size == m + 1 else Fraction(1)))
    return IntegralPolyhedralComplex(tuple(faces))


def polygon_boundary_complex(vertices: Sequence[Sequence], weight=1) -> IntegralPolyhedralComplex:
    """Boundary of a convex lattice polygon: edge faces plus shared vertices."""
    verts = [as_point(v) for v in vertices]
    n = len(verts)
    faces = [Face((verts[i], verts[(i + 1) % n]), weight=Fraction(weight))
             for i in range(n)]
    faces += [Face((v,)) for v in verts]
    return IntegralPolyhedralComplex(tuple(faces))
