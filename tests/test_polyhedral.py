"""Geometric substrate: faces, rational points, measures, quadrature."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelot import polyhedral as ph
from skelot.errors import (
    InconsistentGluing,
    NonRationalVertex,
    ResolutionTooCoarse,
)

F = Fraction


def brute_edge_lattice_points(a, b, l):
    """Oracle: integer-scan of (1/l)-points on the segment a-b in the plane."""
    pts = set()
    ax, ay, bx, by = F(a[0]), F(a[1]), F(b[0]), F(b[1])
    # scan the bounding box of l*segment
    x_lo, x_hi = sorted((l * ax, l * bx))
    y_lo, y_hi = sorted((l * ay, l * by))
    for zx in range(int(x_lo) - 1, int(x_hi) + 2):
        for zy in range(int(y_lo) - 1, int(y_hi) + 2):
            # on segment iff collinear and between endpoints
            cross = (F(zx, l) - ax) * (by - ay) - (F(zy, l) - ay) * (bx - ax)
            if cross != 0:
                continue
            dot = (F(zx, l) - ax) * (bx - ax) + (F(zy, l) - ay) * (by - ay)
            sq = (bx - ax) ** 2 + (by - ay) ** 2
            if 0 <= dot <= sq:
                pts.add((F(zx, l), F(zy, l)))
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
        oracle |= brute_edge_lattice_points(verts[i], verts[(i + 1) % 3], 1)
    assert got == oracle
    assert len(got) == 9


@given(l=st.integers(1, 6), k=st.integers(1, 4))
@settings(deadline=None, max_examples=30)
def test_rational_points_nesting(l, k):
    cx = ph.polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)])
    coarse = set(ph.rational_points(cx, l))
    fine = set(ph.rational_points(cx, k * l))
    assert coarse <= fine


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


def test_quadrature_too_coarse():
    # a face with irrational-level endpoints has no level-1 grid points
    seg = ph.segment_complex(F(1, 3), F(5, 12))
    with pytest.raises(ResolutionTooCoarse):
        ph.quadrature(seg, 1)


def test_lattice_count_asymptote_toric_boundary():
    cx = ph.polygon_boundary_complex([(-1, -1), (2, -1), (-1, 2)])
    # n = 1, target value 9 = lattice length of the boundary
    errs = []
    for l in (4, 8, 16, 32):
        count = len(ph.rational_points(cx, l))
        errs.append(abs(count / l - 9.0) / 9.0)
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
