"""Pairing cost, periodic theta cost, theta families, bound checks."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelot import cost as co
from skelot.errors import DimensionMismatch, MissingLevel, WindowNotConverged
from skelot.polyhedral import circle_complex, polygon_boundary_complex, segment_complex
from skelot.tropical import val_at

F = Fraction

RANK1 = co.MumfordData((co.PhiAxis(),))


def oracle_phi(m):
    """Independent formula for the default convex function: k(k+1)/2 at ints."""
    m = F(m)
    k = m.numerator // m.denominator
    return F(k * (k + 1), 2) + (k + 1) * (m - k)


def oracle_cost(x, p):
    """Frozen brute force over lattice shifts in [-50, 50]."""
    x, p = F(x) % 1, F(p) % 1
    return -min(x * (p + k) + oracle_phi(p + k) for k in range(-50, 51))


# -- pairing ------------------------------------------------------------------


def test_pairing_values():
    tri = polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)])
    c = co.pairing_cost(tri, tri)
    assert c((1, 0), (2, -1)) == 2
    assert c((1, 0), (-1, -1)) == -1


def test_pairing_transpose_swaps_roles():
    tri = polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)])
    c = co.pairing_cost(tri, tri)
    assert c.transpose()((2, -1), (1, 0)) == c((1, 0), (2, -1))


def test_pairing_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        co.pairing_cost(segment_complex(0, 1),
                        polygon_boundary_complex([(1, 0), (0, 1), (-1, -1)]))


# -- convex PL data ---------------------------------------------------------------


def test_phi_default_values():
    for k in range(-4, 5):
        assert RANK1.phi((k,)) == F(k * (k + 1), 2)
    assert RANK1.phi((F(1, 2),)) == F(1, 2)
    assert RANK1.phi((F(3, 2),)) == 2


def _phi_by_slope_sum(axis, m):
    """Phi as a sum of slopes: those of the unit intervals between 0 and
    floor(m), signed, then the next slope times the fractional part."""
    k = m.numerator // m.denominator
    if k >= 0:
        base = sum(axis.slope(j) for j in range(k))
    else:
        base = -sum(axis.slope(j) for j in range(k, 0))
    return base + axis.slope(k) * (m - k)


@settings(max_examples=200, deadline=None)
@given(st.integers(-20, 20), st.integers(1, 5), st.integers(1, 3),
       st.integers(-400, 400), st.sampled_from([1, 2, 3, 7]))
def test_phi_axis_value_matches_slope_sum(base, quad, period, num, den):
    axis = co.PhiAxis(base_slope=base, quad=quad, period=period)
    m = F(num, den)
    assert axis.value(m) == _phi_by_slope_sum(axis, m)


def test_reduce_canonical_lift():
    assert RANK1.reduce((F(7, 3),)) == (F(1, 3),)
    assert RANK1.reduce((F(-1, 4),)) == (F(3, 4),)
    data2 = co.MumfordData((co.PhiAxis(period=2), co.PhiAxis()))
    assert data2.reduce((F(5, 2), F(-3))) == (F(1, 2), F(0))


# -- periodic theta cost -------------------------------------------------------------


def closed_form(x, p):
    # (1-p)x on x+p <= 1, (2-p)x - 1 + p on x+p >= 1, for x, p in [0,1]
    x, p = F(x), F(p)
    if x + p <= 1:
        return (1 - p) * x
    return (2 - p) * x - 1 + p


def test_theta_cost_matches_closed_form():
    # canonical lifts live in [0, 1), so the seam x = 1 is excluded
    for xn in range(0, 8):
        for pn in range(0, 8):
            x, p = F(xn, 8), F(pn, 8)
            assert co.abelian_theta_cost(RANK1, (x,), (p,)) == closed_form(x, p)


@given(xn=st.integers(-30, 30), xd=st.integers(1, 10),
       pn=st.integers(-30, 30), pd=st.integers(1, 10))
@settings(deadline=None, max_examples=120)
def test_theta_cost_matches_brute_force_oracle(xn, xd, pn, pd):
    x, p = F(xn, xd), F(pn, pd)
    assert co.abelian_theta_cost(RANK1, (x,), (p,)) == oracle_cost(x, p)


def test_theta_cost_periodic_in_both_slots():
    x, p = F(3, 7), F(2, 5)
    base = co.abelian_theta_cost(RANK1, (x,), (p,))
    assert co.abelian_theta_cost(RANK1, (x + 4,), (p,)) == base
    assert co.abelian_theta_cost(RANK1, (x,), (p - 3,)) == base


def test_theta_cost_rank2_separates():
    data2 = co.MumfordData((co.PhiAxis(), co.PhiAxis(period=2)))
    x = (F(1, 3), F(3, 4))
    p = (F(1, 2), F(5, 4))
    got = co.abelian_theta_cost(data2, x, p)
    a0 = co.abelian_theta_cost(co.MumfordData((co.PhiAxis(),)), (x[0],), (p[0],))
    a1 = co.abelian_theta_cost(co.MumfordData((co.PhiAxis(period=2),)),
                               (x[1],), (p[1],))
    assert got == a0 + a1


def test_window_refuses_far_arguments():
    # private minimiser: unreduced inputs can push the minimizer past the cap
    with pytest.raises(WindowNotConverged):
        co._axis_minima(co.PhiAxis(), np.array([[-10**7]]), np.array([[0]]), 1)


def test_window_doubling_is_bit_exact():
    x, p = (F(5, 8),), (F(3, 8),)
    narrow = co.theta_section(RANK1, 8, (F(3, 8),), window=8)
    wide = co.theta_section(RANK1, 8, (F(3, 8),), window=16)
    assert val_at(narrow, x) == val_at(wide, x)
    assert co.abelian_theta_cost(RANK1, x, p) == \
        co.abelian_theta_cost(RANK1, x, p)


# -- theta sections and families ---------------------------------------------------


def rank1_family(levels, window=8):
    return co.ThetaFamily({
        l: tuple(co.theta_section(RANK1, l, (F(j, l),), window=window)
                 for j in range(l))
        for l in levels})


def test_theta_section_level_homogeneous():
    # -val/l at any level equals the level-1 cost exactly
    x = (F(2, 7),)
    for l in (1, 2, 4, 8):
        sec = co.theta_section(RANK1, l, (F(1, 2) if l > 1 else F(0),))
        p = sec.label
        assert -F(val_at(sec, x)) / l == co.abelian_theta_cost(RANK1, x, p)


def test_family_missing_level():
    fam = rank1_family([1, 2])
    with pytest.raises(MissingLevel):
        fam.sections(3)
    with pytest.raises(MissingLevel):
        fam.section_at(2, (F(1, 3),))


def test_nearest_label_lex_tiebreak():
    fam = rank1_family([4])
    # 3/8 is equidistant from 1/4 and 1/2; the lexicographically smaller wins
    assert fam.nearest_label(4, (F(3, 8),)) == (F(1, 4),)


def test_family_multiplicity_default_and_override():
    fam = co.ThetaFamily(rank1_family([2]).levels,
                         multiplicity={(2, (F(1, 2),)): 3})
    assert fam.mult(2, (F(0),)) == 1
    assert fam.mult(2, (F(1, 2),)) == 3


# -- bound verification ---------------------------------------------------------------


def sample_triples():
    xs = [(F(j, 5),) for j in range(5)]
    out = []
    for x in xs:
        for l in (1, 2, 4):
            for j in range(l):
                out.append((x, (F(j, l),), l))
    return out


def test_verify_cost_bounds_clean():
    fam = rank1_family([1, 2, 3, 4, 5, 6, 8])
    report = co.verify_cost_bounds(fam, co.abelian_cost(RANK1), sample_triples())
    assert report.violations == ()
    assert report.n_lower_bound_checks == 35
    assert report.n_subadditivity_checks > 0


def test_verify_cost_bounds_reports_not_raises():
    fam = rank1_family([1, 2, 4])
    inflated = co.CostFunction(
        None, None, lambda x, p: co.abelian_theta_cost(RANK1, x, p) + 1,
        lipschitz_x=1.0)
    report = co.verify_cost_bounds(fam, inflated, sample_triples())
    assert report.violations
    assert all(v[0] == "lower_bound" for v in report.violations)


def test_abelian_cost_wrapper_on_circle():
    circ = circle_complex()
    c = co.abelian_cost(RANK1, circ, circ)
    assert c((F(1, 4),), (F(1, 4),)) == closed_form(F(1, 4), F(1, 4))
    assert c.metadata["exact"]
