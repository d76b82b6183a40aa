"""Toric pairs, intermediate limits, abelian families."""

from fractions import Fraction
from math import comb

import pytest

from skelot import cost as co
from skelot import families as fm
from skelot import transport as tp
from skelot import tropical as tr
from skelot.errors import (
    InvariantViolation,
    NotReflexive,
    ResolutionTooCoarse,
    SeriesDepthExceeded,
)
from skelot.polyhedral import DiscreteMeasure, Face, quadrature

F = Fraction

P2 = [(-1, -1), (2, -1), (-1, 2)]
P1P1 = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
HILB_P3 = tuple(comb(k + 3, 3) for k in range(12))
QUARTIC = fm.IntermediateData(n=3, m=1, d=(2, 2), hilbert_M=HILB_P3)
RANK1 = co.MumfordData((co.PhiAxis(),))


# -- polar duality ------------------------------------------------------------------


def test_polar_dual_p2():
    dual = fm.polar_dual(P2)
    assert set(dual) == {(F(1), F(0)), (F(0), F(1)), (F(-1), F(-1))}


def test_polar_dual_p1p1():
    dual = fm.polar_dual(P1P1)
    assert set(dual) == {(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}


def test_polar_round_trip():
    pair = fm.ReflexivePolytopePair(
        tuple(fm.polar_dual(P2)), fm.polar_dual(fm.polar_dual(P2)))
    assert set(pair.delta_dual) == {tuple(F(v) for v in p) for p in P2}


def test_not_reflexive_rejected():
    with pytest.raises(NotReflexive):
        fm.polar_dual([(2, 0), (0, 2), (-2, -2)])  # dual has fractional vertices
    with pytest.raises(NotReflexive):
        fm.polar_dual([(2, 2), (-2, 2), (-2, -2), (2, -2)])  # 9 interior points
    with pytest.raises(NotReflexive):
        fm.polar_dual([("1/2", 0), (0, 1), (-1, -1)])


def test_toric_pair_problem():
    pair, prob = fm.toric_pair(P2, resolution=F(1, 4))
    assert prob.ln_norm == 9.0
    assert prob.mu0.total_mass == 1
    assert sum(prob.target_mass) == 1
    assert prob.cost.metadata["kind"] == "pairing"
    _, prob2 = fm.toric_pair(P1P1, resolution=F(1, 4))
    assert prob2.ln_norm == 8.0


def test_toric_pair_strong_duality_small():
    _, prob = fm.toric_pair(P2, resolution=F(1, 2))
    res = tp.minimize_kontorovich(prob)
    lp = tp.lp_oracle(prob)
    assert abs(res.value - lp.primal_value) <= 1e-9 * (1 + abs(res.value))


# -- intermediate limits ---------------------------------------------------------------


def test_intermediate_data_invariants():
    with pytest.raises(InvariantViolation):
        fm.IntermediateData(n=2, m=2, d=(1, 1, 1), hilbert_M=(1,))
    with pytest.raises(InvariantViolation):
        fm.IntermediateData(n=3, m=1, d=(2,), hilbert_M=(1,))
    with pytest.raises(InvariantViolation):
        fm.IntermediateData(n=3, m=1, d=(2, 0), hilbert_M=(1,))


def test_weight_values():
    assert QUARTIC.weight((F(0), F(0))) == 1.0
    # on the far boundary 1 + sum d_i p_i = 0
    assert QUARTIC.weight((F(-1, 2), F(0))) == 0.0
    assert QUARTIC.weight((F(0), F(-1, 4))) == pytest.approx(0.5 ** 2)


def test_target_union_is_two_axis_segments():
    prob = fm.intermediate_family(QUARTIC, resolution=F(1, 8))
    for p in prob.nu0.points:
        assert p[0] == 0 or p[1] == 0
        assert all(-F(1, 2) <= c <= 0 for c in p)
    assert sum(prob.target_mass) == 1
    assert prob.mu0.total_mass == 1


def _reference_target(data, resolution):
    """intermediate_family's nu0 as it was built: W summed and each weight
    divided in Fractions, then put over the lcm by the constructor."""
    raw = quadrature(fm._target_union(data), resolution)
    total = sum(w * data.weight(p) for p, w in zip(raw.points, raw.weights))
    return DiscreteMeasure(raw.points, tuple(w / total for w in raw.weights),
                           raw.face_tags, raw.total_mass / total)


@pytest.mark.parametrize("data", [
    QUARTIC,
    fm.IntermediateData(n=3, m=1, d=(1, 3), hilbert_M=(1,)),
    fm.IntermediateData(n=3, m=2, d=(1, 1, 1), hilbert_M=(1,)),
    fm.IntermediateData(n=5, m=1, d=(3, 2), hilbert_M=(1,)),
], ids=["d22", "d13", "m2", "n5-d32"])
def test_intermediate_target_matches_the_fraction_build(data):
    """nu0, built from the quadrature's integers, equals the Fraction
    build: points, weights, tags, total mass and integer form."""
    built = 0
    for steps in (1, 2, 3, 5, 6, 8, 12):
        try:
            want = _reference_target(data, F(1, steps))
        except ResolutionTooCoarse:
            with pytest.raises(ResolutionTooCoarse):
                fm.intermediate_family(data, resolution=F(1, steps))
            continue
        got = fm.intermediate_family(data, resolution=F(1, steps)).nu0
        built += 1
        assert got == want, steps
        assert (got.points, got.weights, got.total_mass) == (
            want.points, want.weights, want.total_mass)
        assert got.numerators.dtype == want.numerators.dtype
        assert got.masses.dtype == want.masses.dtype
    assert built >= 2


def test_intermediate_continuum_weighted_mass():
    # int_B W dp = (1/n)(1/d0 + 1/d1) for W = (1 + sum d_i p_i)^(n-m)
    raw_mass = []
    for steps in (8, 16, 32):
        raw = quadrature(fm._target_union(QUARTIC), F(1, steps))
        raw_mass.append(sum(w * QUARTIC.weight(p)
                            for p, w in zip(raw.points, raw.weights)))
    exact = (1 / 3) * (1 / 2 + 1 / 2)
    errs = [abs(x - exact) for x in raw_mass]
    assert errs[2] < errs[0]
    assert errs[2] < 1e-3


def test_section_count_oracle():
    # frozen oracle: sections on the (2,2) curve in P^3 number 4k for k >= 1
    def dim_v(k):
        return 1 if k == 0 else 4 * k

    for l in range(9):
        got = fm.section_count(QUARTIC, l)
        oracle = 0
        for l0 in range(l // 2 + 1):
            for l1 in range(l // 2 + 1):
                if 2 * l0 + 2 * l1 <= l and min(l0, l1) == 0:
                    oracle += dim_v(l - 2 * l0 - 2 * l1)
        assert got["enumerated"] == oracle
        assert got["series"] == oracle
    assert [fm.section_count(QUARTIC, l)["series"] for l in (0, 1, 2)] == [1, 4, 10]


def test_section_count_depth():
    with pytest.raises(SeriesDepthExceeded):
        fm.section_count(QUARTIC, len(HILB_P3))


# -- abelian families --------------------------------------------------------------------


def test_mumford_family_label_counts():
    fam, prob = fm.mumford_family(RANK1, [1, 2, 3], resolution=F(1, 8))
    for l in (1, 2, 3):
        assert len(fam.labels(l)) == l
    assert prob.mu0.total_mass == 1
    assert prob.mu0.points == prob.nu0.points


def test_mumford_family_valuative_independence():
    fam, _ = fm.mumford_family(RANK1, [1, 2, 3], resolution=F(1, 8))
    face = Face(((F(0),), (F(1),)))
    for l in (1, 2, 3):
        secs = fam.sections(l)
        coeffs = {}
        for i, s in enumerate(secs):
            for t in s.terms:
                coeffs[t.coeff_id] = tuple(1 if j == i else 0
                                           for j in range(len(secs)))
        verdict = tr.check_valuative_independence(secs, face, coeffs)
        assert verdict.independent


def test_mumford_rank2_unit_torus():
    data2 = co.MumfordData((co.PhiAxis(), co.PhiAxis()))
    fam, prob = fm.mumford_family(data2, [1, 2], resolution=F(1, 4))
    assert len(fam.labels(2)) == 4
    assert prob.mu0.total_mass == 1
    res = tp.minimize_kontorovich(prob)
    assert res.gap >= -1e-9 and res.converged


def test_mumford_rank2_nonunit_period_rejected():
    data2 = co.MumfordData((co.PhiAxis(period=2), co.PhiAxis()))
    with pytest.raises(InvariantViolation):
        fm.mumford_family(data2, [1], resolution=F(1, 4))


def test_mumford_period2_circle():
    data = co.MumfordData((co.PhiAxis(period=2),))
    fam, prob = fm.mumford_family(data, [1, 2], resolution=F(1, 4))
    assert len(fam.labels(1)) == 2  # (1/1)Z / 2Z
    assert max(p[0] for p in prob.mu0.points) < 2
