"""Integral polyhedral complexes, rational point lattices, measures, quadrature.

All arithmetic is exact; float weights are converted exactly.  Faces are
simplices presented by their vertex tuples, optionally with a multiplicity
vector b when the face sits in the normalized form {x >= 0, sum b_i x_i = 1}.
Each face inverts its edge and lattice matrices once, when it is built.
Grids are integers: a level-l point x is its numerators l·x, which grid
enumeration, gluings, quadrature and `DiscreteMeasure` work on; Fractions
are made only where a caller reads points or weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from . import _linalg
from .errors import (
    DimensionMismatch,
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
        basis, frame = _linalg.simplex_frame(verts)
        object.__setattr__(self, "lattice_basis", basis)
        object.__setattr__(self, "_frame", frame)
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


def grid_numerators(points: Sequence[Point], name: str = "measure") -> tuple:
    """Exact points of one dimension as (numerators, level): an (n, d)
    array over the lcm of their denominators (`_linalg.int_grid`)."""
    dims = {len(p) for p in points}
    if len(dims) > 1:
        raise DimensionMismatch(f"{name} points of mixed dimension {sorted(dims)}")
    return _linalg.int_grid(*_linalg.over_lcm([c for p in points for c in p]),
                            len(points), dims.pop() if dims else 0)


class DiscreteMeasure:
    """Rational points, face tags and exact weights that sum exactly to
    total_mass (a float x counts as Fraction(x): three floats 1/3 miss 1).

    Held as integers in lowest terms: `numerators`, the (N, d) array of l·x
    over the `level` l, and `masses` over one `denominator` (`_int_dtype`
    of their sum), both read-only.  The constructor puts Fractions over
    their lcm once; `quadrature` hands over integers (`from_integers`).
    `points` and `weights` are made once, when first read.  Measures
    compare by value.
    """

    def __init__(self, points: Sequence, weights: Sequence,
                 face_tags: Sequence[int], total_mass):
        pts = tuple(as_point(p) for p in points)
        w = tuple(x if isinstance(x, Fraction) else Fraction(x)
                  for x in weights)
        if any(x < 0 for x in w):
            raise ValueError("negative weight in measure")
        if sum(w) != Fraction(total_mass):
            raise ValueError("weights, as Fractions, do not sum exactly to total_mass")
        self._set(*grid_numerators(pts), *_linalg.over_lcm(w), face_tags, pts, w)

    @classmethod
    def from_integers(cls, numerators, level: int, masses: Sequence[int],
                      denominator: int, face_tags: Sequence[int]) -> "DiscreteMeasure":
        """The measure at the points `numerators` / `level` (an (N, d)
        array in lowest terms) with masses the integers `masses` over
        `denominator`."""
        return cls.__new__(cls)._set(numerators, level, masses, denominator,
                                     face_tags)

    def _set(self, numerators, level, masses, denominator, face_tags,
             points=None, weights=None) -> "DiscreteMeasure":
        self.numerators, self.level, self.face_tags = numerators, level, tuple(face_tags)
        masses, self.denominator = _linalg.lowest_terms(masses, denominator)
        self.masses = _linalg._int_array(masses, sum(masses))
        # the cached Fractions and shared row sources read these in place
        numerators.flags.writeable = self.masses.flags.writeable = False
        self.total_mass = Fraction(sum(masses), self.denominator)
        self._points, self._weights = points, weights
        return self

    def _key(self) -> tuple:
        return (self.level, self.numerators.tolist(), self.denominator,
                self.masses.tolist(), self.face_tags)

    def __eq__(self, other):
        """Equal points, weights and face tags: the integer form is in
        lowest terms, so equal measures hold equal integers."""
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash((self.level, self.denominator, self.face_tags, self.total_mass))

    @property
    def points(self) -> tuple[Point, ...]:
        if self._points is None:
            self._points = _linalg.fractions(self.numerators, self.level)
        return self._points

    @property
    def weights(self) -> tuple[Fraction, ...]:
        if self._weights is None:
            self._weights = _linalg.fractions(self.masses, self.denominator)
        return self._weights


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

def _face_lattice(face: Face, l: int) -> tuple[list, list]:
    """The face's points in (1/l)Z^d as numerator tuples l·x, in chart
    order, and how many barycentric coordinates vanish at each.

    The points are anchor + sum_k s_k b_k / l over integer steps s in the
    box spanned by the vertex charts; barycentric coordinates are affine in
    s, so over one common denominator they are integer tests
    (`_linalg.box_points`).
    """
    anchor = _linalg.lattice_anchor(face.vertices, l)
    if anchor is None:
        return [], []
    t0 = face.chart([Fraction(c, l) for c in anchor])
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
    return _linalg.box_points(ranges, tests, anchor, face.lattice_basis)


def face_rational_points(face: Face, l: int) -> list[Point]:
    """Points of the face with all coordinates in (1/l)Z, in chart order."""
    return [tuple(Fraction(c, l) for c in p) for p in _face_lattice(face, l)[0]]


def _glued(complex: IntegralPolyhedralComplex, l: int) -> dict:
    """Numerators of each level-l point on a gluing's source face -> those
    of its canonical point, the least of its orbit (`_linalg.orbit_minima`;
    points on no source face are their own).  A gluing maps N to
    M N + l offset."""
    return _linalg.orbit_minima([
        (g.matrix, [l * o for o in g.offset],
         set(_face_lattice(complex.faces[g.source], l)[0]))
        for g in complex.gluings])


def rational_points(complex: IntegralPolyhedralComplex, l: int) -> list[Point]:
    """All level-l rational points, deduplicated across faces and gluings,
    sorted."""
    if l < 1:
        raise ValueError("level must be a positive integer")
    l = int(l)
    glued = _glued(complex, l)
    points = {glued.get(p, p) for f in complex.faces
              for p in _face_lattice(f, l)[0]}
    return [tuple(Fraction(c, l) for c in p) for p in sorted(points)]


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

    Built in integers: each face's points are numerator tuples, each
    taking one of a few exact shares (a 1-D face's end stubs and inner
    cell, a 2-D face's corner shares) put over one denominator; points are
    glued, merged and sorted on their numerators.
    """
    l = _level_from_resolution(h)
    faces, shares = [], []
    for fi in complex.top_faces():
        face = complex.faces[fi]
        w = face.weight
        if not 1 <= face.dim <= 2:
            raise UnsupportedFaceDimension(
                f"quadrature ships for top faces of dimension 1 and 2, "
                f"not {face.dim}")
        points, zeros = _face_lattice(face, l)
        k = len(shares)
        if face.dim == 1:
            if len(points) < 2:
                raise ResolutionTooCoarse(f"fewer than 2 grid points on face {fi}")
            # inner points take their cell 1/l, the ends their stubs
            (lo,), (hi,) = sorted(face.chart(v) for v in face.vertices)
            (t,), (u,) = (face.chart([Fraction(c, l) for c in p])
                          for p in (points[0], points[-1]))
            shares += [w * (t - lo + Fraction(1, 2 * l)), w / l,
                       w * (hi - u + Fraction(1, 2 * l))]
            kinds = [k] + [k + 1] * (len(points) - 2) + [k + 2]
        else:
            v0, v1, v2 = face.vertices
            (a0, a1), (b0, b1) = face.chart(v1), face.chart(v2)
            if abs(a0 * b1 - a1 * b0) != 1:
                raise ResolutionTooCoarse(
                    "2D quadrature requires a unimodular lattice chart")
            if any((c * l).denominator != 1 for c in v0) or any(
                    (c - c0).denominator != 1 for v in (v1, v2)
                    for c0, c in zip(v0, v)):
                raise ResolutionTooCoarse(
                    "2D quadrature requires vertices on the grid, integral edges")
            # the points are the corners of the triangulation by the edges
            # over l; each triangle, of area 1/(2 l^2), gives a third to each
            # corner, and a corner on 0, 1 or 2 edge lines is in 6, 3 or 1
            shares += [w * Fraction(n, 6 * l * l) for n in (6, 3, 1)]
            kinds = [k + z for z in zeros]
        faces.append((fi, points, kinds))

    den = lcm(*(x.denominator for x in shares))
    share = [x.numerator * (den // x.denominator) for x in shares]
    points, masses, tags = _linalg.merged(
        [(fi, points, [share[k] for k in kinds]) for fi, points, kinds in faces],
        _glued(complex, l))
    if normalize:
        den = sum(masses)
        if den <= 0:
            raise ValueError("cannot normalize a zero measure")
    # the integer form, handed over as it is
    return DiscreteMeasure.from_integers(*_linalg.int_grid(
        [c for p in points for c in p], l, len(points), complex.ambient_dim),
        masses, den, tags)


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
