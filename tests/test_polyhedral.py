"""Geometric substrate: faces, rational points, measures, quadrature."""

from fractions import Fraction
from itertools import product
from math import ceil, floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelot import _linalg
from skelot import families as fm
from skelot import polyhedral as ph
from skelot.errors import (
    InconsistentGluing,
    NonRationalVertex,
    ResolutionTooCoarse,
)

F = Fraction


def brute_simplex_points(verts, l):
    """Oracle: integer scan of the bounding box of l*simplex for (1/l)-points.

    A candidate x is kept when sum_i lambda_i (v_i, 1) = (x, 1) has a
    solution with lambda >= 0, read off the reduced echelon form of the
    augmented system.
    """
    verts = [tuple(F(c) for c in v) for v in verts]
    n = len(verts)
    box = [range(floor(min(l * v[k] for v in verts)),
                 ceil(max(l * v[k] for v in verts)) + 1)
           for k in range(len(verts[0]))]
    pts = set()
    for z in product(*box):
        x = tuple(F(c, l) for c in z)
        aug = [[v[k] for v in verts] + [x[k]] for k in range(len(x))]
        red, pivots = _linalg.rref(aug + [[1] * (n + 1)])
        if n not in pivots and all(row[n] >= 0 for row in red[:n]):
            pts.add(x)
    return pts


def test_build_unit_segment_and_circle():
    seg = ph.segment_complex(0, 1)
    assert seg.dim == 1 and seg.ambient_dim == 1
    circ = ph.circle_complex()
    assert circ.dim == 1
    assert circ.canonical_point((F(1),)) == (F(0),)


def test_build_standard_2_simplex():
    cx = ph.simplex_complex(2)
    dims = sorted(f.dim for f in cx.faces)
    assert dims == [0, 0, 0, 1, 1, 1, 2]
    top = cx.faces[cx.top_faces()[0]]
    assert top.multiplicities == (1, 1, 1)


def test_build_triangle_boundary():
    cx = ph.polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)])
    assert cx.dim == 1
    assert len([f for f in cx.faces if f.dim == 1]) == 3


def test_nonrational_vertex_rejected():
    with pytest.raises(NonRationalVertex):
        ph.build_complex({"faces": [{"vertices": [[0.5], [1]]}]})


def test_as_point_keeps_fractions_and_parses_the_rest():
    """A Fraction coordinate is returned as it is (Fractions are
    immutable); ints, bools and 'p/q' strings become equal Fractions, and
    floats and other objects are rejected."""
    half = Fraction(1, 2)
    point = ph.as_point((half, 3, "-2/6", True))
    assert point[0] is half
    assert point == (half, Fraction(3), Fraction(-1, 3), Fraction(1))
    assert all(type(c) is Fraction for c in point)
    for bad in (0.5, None, [1]):
        with pytest.raises(NonRationalVertex):
            ph.as_fraction(bad)


def test_inconsistent_gluing_rejected():
    spec = {
        "faces": [{"vertices": [["0"], ["1"]]},
                  {"vertices": [["0"]]}, {"vertices": [["1"]]}],
        "gluings": [{"source": 2, "target": 1, "matrix": [[1]], "offset": [5]}],
    }
    with pytest.raises(InconsistentGluing):
        ph.build_complex(spec)


def test_rational_points_segment():
    seg = ph.segment_complex(0, 1)
    pts = ph.rational_points(seg, 3)
    assert pts == [(F(0),), (F(1, 3),), (F(2, 3),), (F(1),)]


def test_rational_points_circle_gluing_dedup():
    circ = ph.circle_complex()
    pts = ph.rational_points(circ, 4)
    assert pts == [(F(0),), (F(1, 4),), (F(1, 2),), (F(3, 4),)]


def test_rational_points_triangle_boundary_oracle():
    verts = [(-1, -1), (2, -1), (-1, 2)]
    cx = ph.polygon_boundary_complex(verts)
    got = set(ph.rational_points(cx, 1))
    oracle = set()
    for i in range(3):
        oracle |= brute_simplex_points([verts[i], verts[(i + 1) % 3]], 1)
    assert got == oracle
    assert len(got) == 9


SIMPLICES = {
    "triangle-R2": ((-1, -1), (2, -1), (-1, 2)),
    "triangle-R2-rational": ((F(1, 3), F(1, 5)), (F(7, 2), F(2, 3)),
                             (F(-1, 4), F(9, 4))),
    "triangle-R3-simplex": ph.simplex_complex(2).faces[0].vertices,
    "triangle-R3-target": fm._target_union(fm.IntermediateData(
        n=4, m=2, d=(1, 2, 3), hilbert_M=(1,))).faces[0].vertices,
    "tetrahedron-R3": ((0, 0, 0), (2, 0, 0), (0, F(3, 2), 0), (1, 1, 2)),
    "tetrahedron-R4": ph.simplex_complex(3).faces[0].vertices,
}


@pytest.mark.parametrize("name", sorted(SIMPLICES))
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_face_rational_points_oracle(name, l):
    verts = SIMPLICES[name]
    pts = ph.face_rational_points(ph.Face(verts), l)
    assert len(pts) == len(set(pts))
    assert set(pts) == brute_simplex_points(verts, l)


small = st.fractions(-3, 3, max_denominator=4)


@given(st.data())
@settings(deadline=None, max_examples=150)
def test_face_frame(data):
    d = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(0, min(d, 2)))
    verts = data.draw(st.lists(st.tuples(*[small] * d), min_size=m + 1,
                               max_size=m + 1))
    dirs = [[b - a for a, b in zip(verts[0], v)] for v in verts[1:]]
    if len(_linalg.rref(dirs)[1]) < m:
        with pytest.raises(ValueError):
            ph.Face(verts)
        return
    face = ph.Face(verts)
    if data.draw(st.booleans()):  # on the span
        mu = data.draw(st.lists(small, min_size=m, max_size=m))
        x = tuple(v0 + sum(c * e[k] for c, e in zip(mu, dirs))
                  for k, v0 in enumerate(verts[0]))
    else:
        x = data.draw(st.tuples(*[small] * d))
    on_span = len(_linalg.rref(dirs + [[a - b for a, b in zip(x, verts[0])]])[1]) == m
    lam = face.barycentric(x)
    assert (lam is not None) == on_span
    assert face.contains(x) == (on_span and all(c >= 0 for c in lam))
    if on_span:
        assert sum(lam) == 1
        assert tuple(sum(c * v[k] for c, v in zip(lam, verts))
                     for k in range(d)) == x
        assert face.unchart(face.chart(x)) == x
    else:
        with pytest.raises(ValueError):
            face.chart(x)


@given(l=st.integers(1, 6), k=st.integers(1, 4))
@settings(deadline=None, max_examples=30)
def test_rational_points_nesting(l, k):
    cx = ph.polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)])
    coarse = set(ph.rational_points(cx, l))
    fine = set(ph.rational_points(cx, k * l))
    assert coarse <= fine


GRID_COMPLEXES = {
    "segment": ph.segment_complex(F(-1, 2), 2),
    "circle": ph.circle_complex(),
    "circle-period-3": fm._circle_g(3),
    "torus": fm._torus_unit(),
    "2-simplex": ph.simplex_complex(2),
    "triangle-boundary": ph.polygon_boundary_complex([(-1, -1), (2, -1), (-1, 2)]),
    "dual-boundary": ph.polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)]),
}


@pytest.mark.parametrize("name", sorted(GRID_COMPLEXES))
@pytest.mark.parametrize("l", [1, 2, 3, 4, 6, 8])
def test_grid_order_is_fraction_order(name, l):
    """Points sorted by their integer numerators over l come out in the
    order plain Fraction comparison gives, gluings included."""
    cx = GRID_COMPLEXES[name]
    pts = ph.rational_points(cx, l)
    assert pts == sorted(pts) and len(set(pts)) == len(pts)
    q = ph.quadrature(cx, F(1, l))
    assert list(q.points) == sorted(q.points)


def test_grid_order_rejects_off_grid_points():
    with pytest.raises(AssertionError):
        ph._grid_sorted([(F(1, 2),), (F(1, 3),)], 4)


def test_face_weight_normalization():
    faces = (ph.Face(((F(0),), (F(1),)), weight=F(2)),
             ph.Face(((F(1),), (F(2),)), weight=F(1)))
    cx = ph.IntegralPolyhedralComplex(faces)
    q = ph.quadrature(cx, F(1, 4), normalize=True)
    mass_first = sum(w for p, w in zip(q.points, q.weights) if p[0] < 1)
    mass_shared = sum(w for p, w in zip(q.points, q.weights) if p[0] == 1)
    mass_second = sum(w for p, w in zip(q.points, q.weights) if p[0] > 1)
    assert abs(mass_first + mass_shared / 2 - F(2, 3)) < 1e-12 + 1 / 8
    assert abs(sum(q.weights) - 1.0) < 1e-12


def test_quadrature_segment_trapezoid():
    seg = ph.segment_complex(0, 1)
    q = ph.quadrature(seg, F(1, 4))
    assert len(q.points) == 5
    assert [round(w, 12) for w in q.weights] == [0.125, 0.25, 0.25, 0.25, 0.125]


def test_quadrature_circle_uniform():
    circ = ph.circle_complex()
    q = ph.quadrature(circ, F(1, 4))
    assert len(q.points) == 4
    assert all(abs(w - 0.25) < 1e-15 for w in q.weights)


def test_quadrature_2_simplex():
    cx = ph.simplex_complex(2)
    q = ph.quadrature(cx, F(1, 2))
    assert len(q.points) == 6
    assert abs(sum(q.weights) - 0.5) < 1e-12


@given(l=st.sampled_from([2, 4, 8, 16]))
@settings(deadline=None, max_examples=8)
def test_quadrature_mass_resolution_independent(l):
    cx = ph.polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)])
    q = ph.quadrature(cx, F(1, l))
    assert abs(sum(q.weights) - 3.0) < 1e-12  # three primitive edges


def _reference_quadrature_2d(cx, l):
    """The 2D branch of quadrature as it was: w * cell / 3 onto each corner
    of every up and every down triangle, one canonical_point per corner."""
    acc, tags = {}, {}

    def add(face_idx, pt, w):
        cp = cx.canonical_point(pt)
        acc[cp] = acc.get(cp, Fraction(0)) + w
        tags.setdefault(cp, face_idx)

    for fi in cx.top_faces():
        face = cx.faces[fi]
        w = face.weight
        v0, v1, v2 = face.vertices
        cell = Fraction(1, 2 * l * l)

        def corner(u0, u1):
            return tuple(c0 + (c1 - c0) * u0 + (c2 - c0) * u1
                         for c0, c1, c2 in zip(v0, v1, v2))

        for a in range(l):
            for b in range(l - a):
                tri = [(a, b), (a + 1, b), (a, b + 1)]
                for (ua, ub) in tri:
                    add(fi, corner(Fraction(ua, l), Fraction(ub, l)), w * cell / 3)
                if a + b <= l - 2:
                    tri = [(a + 1, b), (a, b + 1), (a + 1, b + 1)]
                    for (ua, ub) in tri:
                        add(fi, corner(Fraction(ua, l), Fraction(ub, l)), w * cell / 3)
    points = ph._grid_sorted(acc, l)
    return points, [acc[p] for p in points], [tags[p] for p in points]


SKEWED_TRIANGLE = ph.IntegralPolyhedralComplex((
    ph.Face(((F(1), F(-1)), (F(3), F(0)), (F(2), F(0))), weight=F(3, 2)),))


@pytest.mark.parametrize("cx", [fm._torus_unit(), SKEWED_TRIANGLE],
                         ids=["torus", "skewed-triangle"])
@pytest.mark.parametrize("l", [1, 2, 3, 10, 16])
def test_quadrature_2d_matches_triangle_loop(cx, l):
    """Each corner, weighted by the number of triangles it lies in, gives
    the points, exact weights and tags the per-triangle loop gave."""
    q = ph.quadrature(cx, F(1, l))
    points, weights, tags = _reference_quadrature_2d(cx, l)
    assert list(q.points) == points
    assert list(q.weights) == weights
    assert list(q.face_tags) == tags


def test_quadrature_too_coarse():
    # a face with irrational-level endpoints has no level-1 grid points
    seg = ph.segment_complex(F(1, 3), F(5, 12))
    with pytest.raises(ResolutionTooCoarse):
        ph.quadrature(seg, 1)
    # a unimodular triangle with level-2 points but vertices off that grid
    tri = ph.Face(((F(1, 3), 0), (F(4, 3), 0), (F(1, 3), 1)))
    assert len(ph.face_rational_points(tri, 2)) == 3
    with pytest.raises(ResolutionTooCoarse):
        ph.quadrature(ph.IntegralPolyhedralComplex((tri,)), F(1, 2))


def test_lattice_count_asymptote_toric_boundary():
    cx = ph.polygon_boundary_complex([(-1, -1), (2, -1), (-1, 2)])
    # n = 1, target value 9 = lattice length of the boundary
    errs = []
    for l in (4, 8, 16, 32):
        count = len(ph.rational_points(cx, l))
        errs.append(abs(count / l - 9.0) / 9.0)
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
