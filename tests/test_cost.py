"""Pairing cost, periodic theta cost, theta families, bound checks."""

import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skelot import cli
from skelot import cost as co
from skelot import tropical as tr
from skelot.errors import DimensionMismatch, MissingLevel, WindowNotConverged
from skelot.polyhedral import as_point, circle_complex, polygon_boundary_complex, segment_complex
from skelot.tropical import val_at

F = Fraction

RANK1 = co.MumfordData((co.PhiAxis(),))

BENCHMARK_CONFIGS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" /
     "workloads.json").read_text(encoding="utf-8"))


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


def _reference_verify_cost_bounds(family, cost, samples,
                                  tolerance=F(1, 10**9)):
    """verify_cost_bounds as a plain per-sample loop: one cost call, one
    nearest-label scan and one val_at per sample, and one midpoint lookup
    and val_at per pair."""
    tol = F(tolerance)
    violations = []
    n_bound = 0
    n_sub = 0
    prepared = []
    for x, p, l in samples:
        label = family.nearest_label(l, as_point(p))
        sec = family.section_at(l, label)
        v = F(val_at(sec, x))
        prepared.append((as_point(x), label, int(l), sec, v))
        n_bound += 1
        if -v / l < F(cost(x, label)) - tol:
            violations.append(("lower_bound", x, label, l, -v / l))

    by_x = {}
    for entry in prepared:
        by_x.setdefault(entry[0], []).append(entry)
    for x, group in by_x.items():
        for i in range(len(group)):
            for j in range(i, len(group)):
                _, p1, l1, s1, v1 = group[i]
                _, p2, l2, s2, v2 = group[j]
                lsum = l1 + l2
                mid = tuple((l1 * a + l2 * b) / lsum for a, b in zip(p1, p2))
                try:
                    smid = family.section_at(lsum, family.nearest_label(lsum, mid))
                except MissingLevel:
                    continue
                if smid.label != as_point(mid):
                    continue
                n_sub += 1
                if v1 + v2 > F(val_at(smid, x)) + tol:
                    violations.append(("subadditivity", x, p1, l1, p2, l2))
    return co.CostBoundReport(n_bound, n_sub, tuple(violations))


def _tampered(sec, x, shift=-1, label=None):
    """sec with the t-order of its term that is minimal at x moved by shift."""
    _, (k, *_) = tr.val_argmin(sec, x)
    terms = list(sec.terms)
    t = terms[k]
    terms[k] = tr.MonomialTerm(t.exponent, t.t_order + shift, t.coeff_id)
    return tr.TropicalSection(tuple(terms), level=sec.level,
                              label=sec.label if label is None else label)


def _torus_workload_samples():
    """The abelian-torus benchmark config's family and the 200 cost-bound
    samples `skelot solve --seed 1` draws for it."""
    raw = BENCHMARK_CONFIGS["abelian-torus"]["config"]
    problem, extras = cli.build_problem(cli.ExperimentConfig(raw))
    family, levels = extras["family"], extras["levels"]
    rng = random.Random(1)
    samples = []
    for _ in range(raw["diagnostics"]["cost_bound_samples"]):
        l = rng.choice(levels)
        x = rng.choice(problem.mu0.points)
        p = rng.choice(family.labels(l))
        samples.append((x, p, l))
    return family, problem.cost, samples


def _case_rank1():
    return rank1_family([1, 2, 3, 4, 5, 6, 8]), co.abelian_cost(RANK1), \
        sample_triples()


def _case_inflated():
    inflated = co.CostFunction(
        None, None, lambda x, p: co.abelian_theta_cost(RANK1, x, p) + 1,
        lipschitz_x=1.0)
    return rank1_family([1, 2, 4]), inflated, sample_triples()


def _case_tampered():
    levels = dict(rank1_family([1, 2, 4]).levels)
    zero, half = levels[2]
    levels[2] = (_tampered(zero, (F(1, 5),)), half)
    return co.ThetaFamily(levels), co.abelian_cost(RANK1), sample_triples()


def _case_off_label():
    samples = [(x, p, l) for x in [(F(j, 5),) for j in range(5)]
               for p, l in [((F(3, 8),), 4), ((F(1, 3),), 2), ((F(7, 6),), 1),
                            ((F(1, 4),), 4), ((F(-1, 9),), 2)]]
    return rank1_family([1, 2, 4, 6, 8]), co.abelian_cost(RANK1), samples


def _case_missing_level():
    # pairs at levels (1, 2) and (2, 5) combine to 3 and 7, which are absent
    samples = [((F(j, 5),), (F(k, l),), l) for j in range(5)
               for l in (1, 2, 5) for k in range(l)]
    return rank1_family([1, 2, 4, 5, 10]), co.abelian_cost(RANK1), samples


def _case_repeated_label():
    # level 2 lists the label 1/2 twice, a raised copy first; level 4 lists
    # 0 twice, a lowered copy last
    levels = dict(rank1_family([1, 2, 4]).levels)
    zero, half = levels[2]
    levels[2] = (_tampered(half, (F(2, 5),), shift=1), zero, half)
    levels[4] = levels[4] + (_tampered(levels[4][0], (F(1, 5),), shift=-2),)
    return co.ThetaFamily(levels), co.abelian_cost(RANK1), sample_triples()


def _case_mixed_length_labels():
    # a level-2 copy of the label-0 section under the label (0, 1): the
    # nearest-label scan zips it down to (0,), which sorts first
    levels = dict(rank1_family([1, 2, 4]).levels)
    zero, half = levels[2]
    long = tr.TropicalSection(_tampered(zero, (F(1, 5),)).terms, level=2,
                              label=(F(0), F(1)))
    levels[2] = (long, half, zero)
    samples = sample_triples() + [((F(1, 5),), (F(0), F(1)), 2)]
    return co.ThetaFamily(levels), co.abelian_cost(RANK1), samples


@pytest.mark.parametrize("case", [
    pytest.param(_case_rank1, id="rank1"),
    pytest.param(_torus_workload_samples, id="abelian-torus-seed1"),
    pytest.param(_case_inflated, id="inflated-cost"),
    pytest.param(_case_tampered, id="tampered-t-order"),
    pytest.param(_case_off_label, id="p-not-a-label"),
    pytest.param(_case_missing_level, id="missing-combined-level"),
    pytest.param(_case_repeated_label, id="repeated-label"),
    pytest.param(_case_mixed_length_labels, id="mixed-length-labels"),
])
def test_verify_cost_bounds_matches_per_sample_loop(case):
    """The shared-work check reports the counts and the violations, in
    order, of the plain per-sample loop."""
    family, cost, samples = case()
    want = _reference_verify_cost_bounds(family, cost, samples)
    got = co.verify_cost_bounds(family, cost, samples)
    assert got.n_lower_bound_checks == want.n_lower_bound_checks
    assert got.n_subadditivity_checks == want.n_subadditivity_checks
    assert got.violations == want.violations


def test_verify_cost_bounds_cases_reach_their_branches():
    """Each case of the comparison above reaches what it is named for."""
    fam, cost, samples = _torus_workload_samples()
    report = co.verify_cost_bounds(fam, cost, samples)
    assert (report.n_lower_bound_checks, report.n_subadditivity_checks,
            report.violations) == (200, 135, ())
    kinds = {v[0] for v in co.verify_cost_bounds(*_case_inflated()).violations}
    assert kinds == {"lower_bound"}
    kinds = {v[0] for v in co.verify_cost_bounds(*_case_tampered()).violations}
    assert kinds == {"subadditivity"}
    fam, _, samples = _case_off_label()
    labels = {l: fam.labels(l) for l in fam.levels}
    assert any(p not in labels[l] for _, p, l in samples)
    fam, _, samples = _case_missing_level()
    assert 3 not in fam.levels and 7 not in fam.levels
    fam, _, _ = _case_repeated_label()
    assert fam.labels(2).count((F(1, 2),)) == 2
    assert fam.labels(4).count((F(0),)) == 2
    # the first level-2 copy of 1/2 (raised) is read; the last level-4
    # copy of 0 (lowered) is not, or the pairs (0, 2), (0, 2) would fail
    report = co.verify_cost_bounds(*_case_repeated_label())
    assert ("lower_bound", (F(2, 5),), (F(1, 2),), 2, F(1, 10)) \
        in report.violations
    assert all((F(1, 2),) in (v[2], v[4])
               for v in report.violations if v[0] == "subadditivity")


def test_verify_cost_bounds_reads_one_cost_matrix(monkeypatch):
    """The lower-bound costs come from one exact_rows call over the
    distinct points and labels, not from a cost call per sample."""
    fam, cost, samples = _case_rank1()
    calls = []
    build = cost.exact_rows

    def counted(xs, ps):
        calls.append((len(xs), len(ps)))
        return build(xs, ps)

    cost.exact_rows = counted
    monkeypatch.setattr(co.CostFunction, "__call__", None)
    co.verify_cost_bounds(fam, cost, samples)
    assert calls == [(5, 4)]  # labels 0, 1/2, 1/4 and 3/4


def test_abelian_cost_wrapper_on_circle():
    circ = circle_complex()
    c = co.abelian_cost(RANK1, circ, circ)
    assert c((F(1, 4),), (F(1, 4),)) == closed_form(F(1, 4), F(1, 4))
    assert c.metadata["exact"]
