"""Acceptance gate: one test and one printed pass/fail line per criterion.

Each test prints "criterion NN <name>: PASS|FAIL (elapsed)" so a -s run
reads as a checklist; the -v test names carry the same numbering.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from skelot import cost as co
from skelot import diagnostics as dg
from skelot import families as fm
from skelot import transport as tp
from skelot import tropical as tr
from skelot.polyhedral import (
    DiscreteMeasure,
    Face,
    IntegralPolyhedralComplex,
    Gluing,
    quadrature,
    rational_points,
    simplex_complex,
)

F = Fraction

RANK1 = co.MumfordData((co.PhiAxis(),))
HILB_P3 = tuple(comb(k + 3, 3) for k in range(12))
QUARTIC = fm.IntermediateData(n=3, m=1, d=(2, 2), hilbert_M=HILB_P3)


def _report(num: int, name: str, ok: bool, t0: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {name}: {verdict} ({time.time() - t0:.2f}s)")
    assert ok, f"criterion {num} ({name}) failed"


# -- 1: c-transform properties on random grids ------------------------------------


def _random_table_problem(rng, n, m):
    src = tuple((F(i),) for i in range(n))
    tgt = tuple((F(j),) for j in range(m))
    table = {(i, j): F(rng.randint(-50, 50), rng.randint(1, 9))
             for i in range(n) for j in range(m)}
    cost = co.CostFunction(None, None,
                           lambda x, p: table[(int(x[0]), int(p[0]))],
                           lipschitz_x=100.0)
    f = tp.PotentialField(src, tuple(F(rng.randint(-30, 30), 7)
                                     for _ in range(n)))
    g = tp.PotentialField(src, tuple(F(rng.randint(-30, 30), 7)
                                     for _ in range(n)))
    return src, tgt, cost, f, g


def test_criterion_01_ctransform_suite():
    t0 = time.time()
    rng = random.Random(41)
    ok = True
    for k in range(20):
        n = 128 if k == 0 else rng.randint(2, 64)
        m = 128 if k == 0 else rng.randint(2, 64)
        src, tgt, cost, f, g = _random_table_problem(rng, n, m)
        fc = tp.c_transform(f, cost, tgt)
        fcc = tp.c_transform(fc, cost, src, direction="target_to_source")
        fccc = tp.c_transform(fcc, cost, tgt)
        ok = ok and fccc.values == fc.values                     # bit-exact
        ok = ok and all(a <= b for a, b in zip(fcc.values, f.values))
        gc = tp.c_transform(g, cost, tgt)
        lhs = max(abs(a - b) for a, b in zip(fc.values, gc.values))
        rhs = max(abs(a - b) for a, b in zip(f.values, g.values))
        ok = ok and lhs <= rhs
    ok = ok and time.time() - t0 < 3
    _report(1, "c-transform suite", ok, t0)


# -- 2: strong duality on all shipped instances ------------------------------------


def _weighted(raw, weight):
    total = sum(w * weight(p) for p, w in zip(raw.points, raw.weights))
    return DiscreteMeasure(raw.points, tuple(w / total for w in raw.weights),
                           raw.face_tags, sum(raw.weights) / total)


def shipped_instances():
    """Named dual-comparison instances; source and target grids are offset
    so the optimal duals are unique and route-comparable."""
    out = []
    for name, verts, rs, rt in (
            ("toric-p2", [(-1, -1), (2, -1), (-1, 2)], 8, 12),
            ("toric-p1p1", [(1, 1), (-1, 1), (-1, -1), (1, -1)], 8, 10)):
        pair, _ = fm.toric_pair(verts, resolution=F(1, 4))
        scx, tcx = pair.dual_boundary(), pair.boundary()
        mu = quadrature(scx, F(1, rs), normalize=True)
        nu = quadrature(tcx, F(1, rt), normalize=True)
        out.append((name, tp.TransportProblem(co.pairing_cost(scx, tcx),
                                              mu, nu)))
    scx, tcx = simplex_complex(QUARTIC.m), fm._target_union(QUARTIC)
    mu = quadrature(scx, F(1, 16), normalize=True)
    nu = _weighted(quadrature(tcx, F(1, 24)), QUARTIC.weight)
    out.append(("intermediate-22", tp.TransportProblem(
        co.pairing_cost(scx, tcx), mu, nu, weight=QUARTIC.weight)))
    for name, data, rs, rt in (
            ("abelian-rank1", RANK1, 16, 24),
            ("abelian-period2", co.MumfordData((co.PhiAxis(period=2),)), 8, 12),
            ("abelian-rank2", co.MumfordData((co.PhiAxis(), co.PhiAxis())),
             4, 6)):
        cx = fm._circle_g(data.axes[0].period) if data.rank == 1 \
            else fm._torus_unit()
        mu = quadrature(cx, F(1, rs), normalize=True)
        nu = quadrature(cx, F(1, rt), normalize=True)
        out.append((name, tp.TransportProblem(co.abelian_cost(data, cx, cx),
                                              mu, nu)))
    return out


def test_criterion_02_strong_duality_oracle():
    t0 = time.time()
    ok = True
    for name, prob in shipped_instances():
        t1 = time.time()
        res = tp.minimize_kontorovich(prob)
        lp = tp.lp_oracle(prob)
        ok = ok and abs(res.value - lp.primal_value) \
            <= 1e-6 * (1 + abs(res.value))
        diff = [float(u) - float(v) for u, v in
                zip(lp.dual_potentials[0], res.phi.values)]
        ok = ok and (max(diff) - min(diff)) / 2 <= 1e-4
        ok = ok and time.time() - t1 < 0.5
    _report(2, "strong-duality oracle", ok, t0)


# -- 3: valuative independence -----------------------------------------------------


def test_criterion_03_valuative_independence():
    t0 = time.time()
    ok = True
    fam, _ = fm.mumford_family(RANK1, [1, 2, 3], resolution=F(1, 8))
    face = Face(((F(0),), (F(1),)))
    for l in (1, 2, 3):
        secs = fam.sections(l)
        coeffs = {t.coeff_id: tuple(1 if j == i else 0
                                    for j in range(len(secs)))
                  for i, s in enumerate(secs) for t in s.terms}
        ok = ok and tr.check_valuative_independence(secs, face,
                                                    coeffs).independent
    # proportional coefficient vectors in one exponent class must fail
    dep = [tr.TropicalSection((tr.MonomialTerm((0,), 0, "a"),), level=1),
           tr.TropicalSection((tr.MonomialTerm((0,), 0, "b"),), level=1)]
    coeffs = {"a": (F(1), F(2)), "b": (F(2), F(4))}
    verdict = tr.check_valuative_independence(dep, face, coeffs)
    ok = ok and not verdict.independent and verdict.witness is not None
    if ok:
        w = verdict.witness
        ok = ok and tuple(w.class_sections) == (0, 1)
        combo = [w.kernel[0] * a + w.kernel[1] * b
                 for a, b in zip(coeffs["a"], coeffs["b"])]
        ok = ok and any(k != 0 for k in w.kernel) and all(c == 0 for c in combo)
    ok = ok and time.time() - t0 < 1
    _report(3, "valuative independence", ok, t0)


# -- 4: section counting ------------------------------------------------------------


def test_criterion_04_section_counting():
    t0 = time.time()
    ok = True
    for l in range(9):
        counts = fm.section_count(QUARTIC, l)
        ok = ok and counts["enumerated"] == counts["series"]
    ok = ok and [fm.section_count(QUARTIC, l)["series"]
                 for l in (0, 1, 2)] == [1, 4, 10]
    ok = ok and time.time() - t0 < 1
    _report(4, "section counting", ok, t0)


# -- 5: cost bounds -----------------------------------------------------------------


def test_criterion_05_cost_bounds():
    t0 = time.time()
    fam, prob = fm.mumford_family(RANK1, [1, 2, 3], resolution=F(1, 16))
    rng = random.Random(5)
    samples = []
    while len(samples) < 1100:
        l = rng.choice([1, 2, 3])
        x = rng.choice(prob.mu0.points)
        p = rng.choice(fam.labels(l))
        samples.append((x, p, l))
    report = co.verify_cost_bounds(fam, prob.cost, samples, tolerance=1e-9)
    ok = (report.n_lower_bound_checks >= 1000 and not report.violations
          and time.time() - t0 < 0.5)
    _report(5, "cost bounds", ok, t0)


# -- 6: MA energy via relative volume ------------------------------------------------


def test_criterion_06_relative_volume_energy():
    t0 = time.time()
    fam, prob = fm.mumford_family(RANK1, [4, 8, 16, 32], resolution=F(1, 32))
    pts = prob.mu0.points
    # steep kink so the transform difference varies across labels
    phi = tp.PotentialField(pts, tuple(3 * abs(p[0] - F(1, 2)) / 2
                                       for p in pts))
    psi = tp.PotentialField(pts, tuple(F(0) for _ in pts))
    target = tp.ma_energy(prob, phi) - tp.ma_energy(prob, psi)
    errs = [abs(tp.relative_volume_sum(phi, psi, fam, l)["scaled"] - target)
            for l in (4, 8, 16, 32)]
    ok = all(b < a for a, b in zip(errs, errs[1:]))
    a = F(3, 4)
    shift = tp.relative_volume_sum(phi.shifted(a), phi, fam, 32)["scaled"]
    ok = ok and abs(shift - prob.ln_norm * float(a)) <= 0.05 * float(a)
    ok = ok and time.time() - t0 < 0.5
    _report(6, "relative-volume energy", ok, t0)


# -- 7: lattice-count asymptote -------------------------------------------------------


def test_criterion_07_lattice_count_asymptote():
    t0 = time.time()
    ok = True
    # toric: full P2 polytope, degree 9, dimension 2
    tri = IntegralPolyhedralComplex(
        (Face(((F(-1), F(-1)), (F(2), F(-1)), (F(-1), F(2)))),))
    errs = [abs(2 * len(rational_points(tri, l)) / l ** 2 - 9) / 9
            for l in (8, 16, 32, 64)]
    ok = ok and all(b < a for a, b in zip(errs, errs[1:]))
    # abelian: closed fundamental interval of the unit circle, degree 1
    seg = IntegralPolyhedralComplex((Face(((F(0),), (F(1),))),))
    errs = [abs(len(rational_points(seg, l)) / l - 1)
            for l in (8, 16, 32, 64)]
    ok = ok and all(b < a for a, b in zip(errs, errs[1:]))
    ok = ok and time.time() - t0 < 3
    _report(7, "lattice-count asymptote", ok, t0)


# -- 8: real MA diagnostic -----------------------------------------------------------


def test_criterion_08_real_ma_diagnostic():
    t0 = time.time()
    residuals = []
    for n in (32, 64, 128):
        _, prob = fm.mumford_family(RANK1, [1], resolution=F(1, n))
        res = tp.minimize_kontorovich(prob)
        residuals.append(dg.ma_residual(res.phi, F(1, n)).max_residual)
    ok = all(b <= 0.75 * a for a, b in zip(residuals, residuals[1:]))
    ok = ok and residuals[-1] <= 1e-10
    # affine input: flagged as degenerate, never raised
    pts = tuple((F(j, 16),) for j in range(17))
    affine = tp.PotentialField(pts, tuple(2 * p[0] + 1 for p in pts))
    flagged = dg.ma_residual(affine, F(1, 16))
    ok = ok and all(flagged.degenerate)
    ok = ok and time.time() - t0 < 1
    _report(8, "real MA diagnostic", ok, t0)


# -- 9: mirror duality ----------------------------------------------------------------


def test_criterion_09_mirror_duality():
    t0 = time.time()
    _, prob = fm.mumford_family(RANK1, [1], resolution=F(1, 128))
    dual = tp.TransportProblem(prob.cost.transpose(), prob.nu0, prob.mu0,
                               ln_norm=prob.ln_norm)
    res = tp.minimize_kontorovich(prob)
    dres = tp.minimize_kontorovich(dual)
    out = dg.duality_check(prob, dual, res, dres)
    ok = out["functional_gap"] <= 1e-6 and out["potential_gap"] <= 1e-4
    pair, tprob = fm.toric_pair([(-1, -1), (2, -1), (-1, 2)],
                                resolution=F(1, 4))
    tdual = tp.TransportProblem(tprob.cost.transpose(), tprob.nu0, tprob.mu0,
                                ln_norm=tprob.ln_norm)
    tres = tp.minimize_kontorovich(tprob)
    tdres = tp.minimize_kontorovich(tdual)
    tout = dg.duality_check(tprob, tdual, tres, tdres)
    ok = ok and tout["functional_gap"] <= 1e-9
    ok = ok and time.time() - t0 < 1
    _report(9, "mirror duality", ok, t0)


# -- 10: hybrid convergence ------------------------------------------------------------


def test_criterion_10_hybrid_convergence():
    t0 = time.time()
    grid = [(F(j, 16),) for j in range(16)]
    ok = True
    for l in (1, 2):
        labels = [(F(j, l),) for j in range(l)]
        out = dg.hybrid_potential_curve(RANK1, l, [1e-2, 1e-4, 1e-8],
                                        grid, labels)
        e = out["sup_error"]
        ok = ok and e[0] > e[1] > e[2] > 0
    labels = [(F(0),)]
    a = dg.hybrid_potential_curve(RANK1, 1, [1e-2], grid, labels, window=8)
    b = dg.hybrid_potential_curve(RANK1, 1, [1e-2], grid, labels, window=16)
    ok = ok and abs(a["sup_error"][0] - b["sup_error"][0]) < 1e-10
    ok = ok and time.time() - t0 < 0.5
    _report(10, "hybrid convergence", ok, t0)
