"""Integral polyhedral complexes, rational point lattices, measures, quadrature.

All vertex, lattice and mass arithmetic is exact (Fraction); float weights
are converted exactly.  Faces are simplices presented by their vertex
tuples, optionally with a multiplicity vector b when the face sits in the
normalized form {x >= 0, sum b_i x_i = 1}.  Each face inverts its edge and
lattice matrices once, when it is built; grid enumeration then tests each
candidate point in integer arithmetic, in any face dimension.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from typing import Iterator, Optional, Sequence

from . import _linalg
from .errors import (
    InconsistentGluing,
    NonRationalVertex,
    ResolutionTooCoarse,
    UnsupportedFaceDimension,
)

Point = tuple[Fraction, ...]


def as_fraction(value) -> Fraction:
    """Parse an exact rational; floats are rejected on purpose.  A Fraction
    is returned as it is (Fractions are immutable)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise NonRationalVertex(f"float coordinate {value!r}; use 'p/q' strings")
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise NonRationalVertex(f"cannot interpret {value!r} as a rational")


def as_point(coords: Sequence) -> Point:
    return tuple(as_fraction(c) for c in coords)


def format_fraction(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class Face:
    """A rational simplex with an integral structure on its affine span.

    `lattice_basis` is a Z-basis of the integer points of the face's
    direction space, derived from the vertices.  The affine span is a graph
    over the rows on which the edge vectors are independent, so the frame
    inverts the lattice basis and the edge matrix there once; `chart`,
    `barycentric` and `contains` are then matrix products, each checked
    exactly by mapping the chart coordinates back.
    """

    vertices: tuple[Point, ...]
    multiplicities: Optional[tuple[int, ...]] = None
    weight: Fraction = Fraction(1)
    lattice_basis: tuple[tuple[int, ...], ...] = field(init=False)
    _frame: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        verts = tuple(as_point(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "weight", Fraction(self.weight))
        dirs = [[b - a for a, b in zip(verts[0], v)] for v in verts[1:]]
        rows = _linalg.rref(dirs)[1]
        if len(rows) != len(dirs):
            raise ValueError("face vertices must be affinely independent")
        basis = tuple(tuple(b) for b in _linalg.saturated_lattice_basis(dirs))
        object.__setattr__(self, "lattice_basis", basis)
        # lambda[1:] = E_P^-1 B_P t for chart coordinates t
        basis_rows = [[b[r] for b in basis] for r in rows]
        edge_inv = _linalg.inverse([[d[r] for d in dirs] for r in rows])
        to_lam = [[sum(e * b[k] for e, b in zip(row, basis_rows))
                   for k in range(len(basis))] for row in edge_inv]
        object.__setattr__(self, "_frame",
                           (rows, _linalg.inverse(basis_rows), to_lam))
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

    def _chart(self, pt: Point) -> Optional[list[Fraction]]:
        """Chart coordinates of pt, or None off the affine span."""
        rows, basis_inv, _ = self._frame
        diff = [pt[r] - self.vertices[0][r] for r in rows]
        t = [sum(a * b for a, b in zip(row, diff)) for row in basis_inv]
        return t if self.unchart(t) == pt else None

    def _lam(self, t: Sequence[Fraction]) -> list[Fraction]:
        """Barycentric coordinates of the point with chart coordinates t."""
        lam = [sum(a * b for a, b in zip(row, t)) for row in self._frame[2]]
        return [1 - sum(lam, Fraction(0))] + lam

    def barycentric(self, point: Sequence) -> Optional[list[Fraction]]:
        """Barycentric coordinates of a point in the affine span, else None."""
        t = self._chart(as_point(point))
        return None if t is None else self._lam(t)

    def contains(self, point: Sequence) -> bool:
        lam = self.barycentric(point)
        return lam is not None and all(x >= 0 for x in lam)

    def chart(self, point: Sequence) -> list[Fraction]:
        """Coordinates of point - v0 in the lattice basis."""
        t = self._chart(as_point(point))
        if t is None:
            raise ValueError("point is not on the face's affine span")
        return t

    def unchart(self, coords: Sequence) -> Point:
        t = [Fraction(c) for c in coords]
        return tuple(
            v0 + sum(b[i] * tk for b, tk in zip(self.lattice_basis, t))
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
    """Rational points, face tags and exact weights that sum exactly to
    total_mass (a float x counts as Fraction(x): three floats 1/3 miss 1)."""

    points: tuple[Point, ...]
    weights: tuple[Fraction, ...]
    face_tags: tuple[int, ...]
    total_mass: Fraction

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(as_point(p) for p in self.points))
        w = tuple(x if isinstance(x, Fraction) else Fraction(x)
                  for x in self.weights)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "total_mass", Fraction(self.total_mass))
        if any(x < 0 for x in w):
            raise ValueError("negative weight in measure")
        if sum(w) != self.total_mass:
            raise ValueError("weights, as Fractions, do not sum exactly to total_mass")


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


def _face_grid(face: Face, l: int) -> Iterator[tuple[list[Fraction], Point]]:
    """(chart, point) for each point of the face in (1/l)Z^d, in chart order.

    The points are anchor + sum_k s_k b_k / l over integer steps s in the
    box spanned by the vertex charts; barycentric coordinates are affine in
    s, so over one common denominator each candidate costs integer
    arithmetic only.
    """
    anchor = _face_anchor(face, l)
    if anchor is None:
        return
    t0 = face.chart(anchor)
    charts = [face.chart(v) for v in face.vertices]
    ranges = [range(-((t0[k] - min(c[k] for c in charts)) * l).__floor__(),
                    ((max(c[k] for c in charts) - t0[k]) * l).__floor__() + 1)
              for k in range(face.dim)]
    # l * lambda = l * lambda(t0) + M s: clear the denominators once
    to_lam = face._frame[2]
    steps = [[-sum(col) for col in zip(*to_lam)]] + to_lam
    affine = [(l * c, row) for c, row in zip(face._lam(t0), steps)]
    den = lcm(*(x.denominator for c, row in affine for x in (c, *row)))
    tests = [(int(c * den), [int(x * den) for x in row]) for c, row in affine]
    scaled = [int(c * l) for c in anchor]
    axes = [[b[i] for b in face.lattice_basis] for i in range(face.ambient_dim)]
    for s in product(*ranges):
        if all(c + sum(map(mul, g, s)) >= 0 for c, g in tests):
            yield ([t + Fraction(k, l) for t, k in zip(t0, s)],
                   tuple(Fraction(a + sum(map(mul, b, s)), l)
                         for a, b in zip(scaled, axes)))


def face_rational_points(face: Face, l: int) -> list[Point]:
    """Points of the face with all coordinates in (1/l)Z."""
    return [p for _, p in _face_grid(face, l)]


def _grid_sorted(points, l: int) -> list[Point]:
    """Points of (1/l)Z^d in lexicographic order, compared as integers.

    Scaling by l maps the grid onto Z^d and keeps the order, so the sort
    never compares Fractions.
    """
    def key(p: Point) -> tuple[int, ...]:
        assert all(l % c.denominator == 0 for c in p), f"{p} is off the 1/{l} grid"
        return tuple(c.numerator * (l // c.denominator) for c in p)
    return sorted(points, key=key)


def rational_points(complex: IntegralPolyhedralComplex, l: int) -> list[Point]:
    """All level-l rational points, deduplicated across faces and gluings."""
    if l < 1:
        raise ValueError("level must be a positive integer")
    seen: set[Point] = set()
    for face in complex.faces:
        for pt in face_rational_points(face, int(l)):
            seen.add(complex.canonical_point(pt))
    return _grid_sorted(seen, int(l))


# -- measures ------------------------------------------------------------------

def _level_from_resolution(h) -> int:
    hf = Fraction(h) if not isinstance(h, float) else Fraction(h).limit_denominator(10**9)
    if hf.numerator != 1:
        raise ResolutionTooCoarse(f"resolution {h!r} is not the reciprocal of a positive integer")
    return hf.denominator


def quadrature(complex: IntegralPolyhedralComplex, h,
               normalize: bool = False) -> DiscreteMeasure:
    """Discrete measure at grid level 1/h whose mass matches the continuous one.

    Cell volumes are lumped onto grid points (trapezoid rule in 1D, corner
    lumping of the up/down triangulation in 2D); truncated boundary stubs are
    assigned to the nearest grid point so mass is conserved exactly.  The
    weights are these exact volumes; normalize divides them by the mass.
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
        if not 1 <= face.dim <= 2:
            raise UnsupportedFaceDimension(
                f"quadrature ships for top faces of dimension 1 and 2, "
                f"not {face.dim}")
        if face.dim == 1:
            grid = list(_face_grid(face, l))
            if len(grid) < 2:
                raise ResolutionTooCoarse(f"fewer than 2 grid points on face {fi}")
            ends = [face.chart(v)[0] for v in face.vertices]
            mids = [min(ends)] + [(a[0][0] + b[0][0]) / 2
                                  for a, b in zip(grid, grid[1:])] + [max(ends)]
            for (t, p), left, right in zip(grid, mids, mids[1:]):
                add(fi, p, w * (right - left))
        else:
            v0, v1, v2 = face.vertices
            (a0, a1), (b0, b1) = face.chart(v1), face.chart(v2)
            if abs(a0 * b1 - a1 * b0) != 1:
                raise ResolutionTooCoarse(
                    "2D quadrature requires a unimodular lattice chart")
            if any((c * l).denominator != 1 for v in face.vertices for c in v):
                raise ResolutionTooCoarse(
                    "2D quadrature requires vertices on the grid")

            def corner(u0: Fraction, u1: Fraction) -> Point:
                return tuple(c0 + (c1 - c0) * u0 + (c2 - c0) * u1
                             for c0, c1, c2 in zip(v0, v1, v2))

            # each triangle, of area 1/(2 l^2), gives a third to each corner;
            # a corner on 0, 1 or 2 edge lines of the chart is in 6, 3 or 1
            for a in range(l + 1):
                for b in range(l + 1 - a):
                    edges = (a == 0) + (b == 0) + (a + b == l)
                    add(fi, corner(Fraction(a, l), Fraction(b, l)),
                        w * (6, 3, 1)[edges] / (6 * l * l))

    points = _grid_sorted(acc, l)
    mass = sum(acc.values())
    if normalize:
        if mass <= 0:
            raise ValueError("cannot normalize a zero measure")
        acc = {p: w / mass for p, w in acc.items()}
        mass = 1
    return DiscreteMeasure(tuple(points), tuple(acc[p] for p in points),
                           tuple(tags[p] for p in points), mass)


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
