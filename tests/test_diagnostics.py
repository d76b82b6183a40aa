"""Pushforward marginals, discrete MA residuals, mirror checks, hybrid limits."""

from fractions import Fraction

import pytest

from skelot import cost as co
from skelot import diagnostics as dg
from skelot import families as fm
from skelot import transport as tp
from skelot.errors import GridMismatch, TruncationInsufficient

F = Fraction

RANK1 = co.MumfordData((co.PhiAxis(),))


def abelian_setup(resolution):
    fam, prob = fm.mumford_family(RANK1, [1, 2], resolution=resolution)
    return prob, tp.minimize_kontorovich(prob)


def grid_field(n, fn):
    pts = tuple((F(j, n),) for j in range(n + 1))
    return tp.PotentialField(pts, tuple(fn(p[0]) for p in pts))


# -- pushforward -----------------------------------------------------------------


def test_pushforward_plan_marginal_feasible():
    prob, res = abelian_setup(F(1, 8))
    out = dg.pushforward_residual(res, prob, use="plan")
    assert out["linf"] <= 1e-12 and out["l1"] <= 1e-12
    with pytest.raises(ValueError):
        dg.pushforward_residual(res, prob, use="plna")


def test_pushforward_argmax_refines():
    outs = []
    for res_h in (F(1, 16), F(1, 32)):
        prob, res = abelian_setup(res_h)
        outs.append(dg.pushforward_residual(res, prob, use="argmax")["linf"])
    assert outs[1] <= outs[0]


def test_pushforward_single_point():
    mu = tp.DiscreteMeasure(((F(0),),), (1.0,), (0,), 1.0)
    c = co.CostFunction(None, None, lambda x, p: F(0), lipschitz_x=0.0)
    prob = tp.TransportProblem(c, mu, mu)
    res = tp.minimize_kontorovich(prob)
    out = dg.pushforward_residual(res, prob)
    assert out["linf"] == 0.0 and out["l1"] == 0.0


# -- discrete MA residual ------------------------------------------------------------


def test_ma_residual_quadratic_zero():
    phi = grid_field(32, lambda x: x * x / 2)
    r = dg.ma_residual(phi, F(1, 32))
    assert r.max_residual <= 1e-9
    assert r.constant == pytest.approx(1.0)
    assert not any(r.degenerate)


def test_ma_residual_affine_flagged():
    phi = grid_field(32, lambda x: 3 * x + F(1, 7))
    r = dg.ma_residual(phi, F(1, 32))
    assert all(r.degenerate)
    assert r.max_residual == 0.0


def test_ma_residual_bad_spacing():
    pts = ((F(0),), (F(1, 3),), (F(1, 2),), (F(1),))
    phi = tp.PotentialField(pts, (0, 1, 2, 3))
    with pytest.raises(GridMismatch):
        dg.ma_residual(phi, F(1, 3))


def test_ma_residual_2d_quadratic():
    n = 8
    pts = []
    vals = []
    for i in range(n + 1):
        for j in range(n + 1):
            x, y = F(i, n), F(j, n)
            pts.append((x, y))
            vals.append(x * x + y * y)  # Hessian diag(2, 2), det 4
    phi = tp.PotentialField(tuple(pts), tuple(vals))
    r = dg.ma_residual(phi, F(1, n))
    assert r.constant == pytest.approx(4.0)
    assert r.max_residual <= 1e-9


def test_ma_residual_2d_saddle_flagged():
    n = 6
    pts = []
    vals = []
    for i in range(n + 1):
        for j in range(n + 1):
            x, y = F(i, n), F(j, n)
            pts.append((x, y))
            vals.append(x * x - y * y)
    phi = tp.PotentialField(tuple(pts), tuple(vals))
    r = dg.ma_residual(phi, F(1, n))
    assert all(r.degenerate)


# -- mirror duality ---------------------------------------------------------------------


def mirror_pair(resolution):
    fam, prob = fm.mumford_family(RANK1, [1], resolution=resolution)
    dual = tp.TransportProblem(prob.cost.transpose(), prob.nu0, prob.mu0,
                               ln_norm=prob.ln_norm)
    return prob, dual


def test_duality_check_self_mirror():
    prob, dual = mirror_pair(F(1, 16))
    res = tp.minimize_kontorovich(prob)
    dres = tp.minimize_kontorovich(dual)
    out = dg.duality_check(prob, dual, res, dres)
    assert out["precondition_residual"] == 0.0
    assert out["functional_gap"] <= 1e-9
    assert out["potential_gap"] <= 0.1


def test_duality_check_reports_asymmetry():
    prob, _ = mirror_pair(F(1, 8))
    skew_cost = co.CostFunction(None, None,
                                lambda p, x: prob.cost(x, p) + 1,
                                lipschitz_x=prob.cost.lipschitz_x)
    skew = tp.TransportProblem(skew_cost, prob.nu0, prob.mu0)
    res = tp.minimize_kontorovich(prob)
    dres = tp.minimize_kontorovich(skew)
    out = dg.duality_check(prob, skew, res, dres)
    assert out["precondition_residual"] == pytest.approx(1.0)
    assert out["sampled_pairs"] == len(prob.mu0.points) * len(prob.nu0.points)


def test_duality_check_needs_both_grids_swapped():
    prob, dual = mirror_pair(F(1, 8))
    res = tp.minimize_kontorovich(prob)
    dres = tp.minimize_kontorovich(dual)
    coarse = tp.TransportProblem(prob.cost.transpose(), prob.nu0,
                                 mirror_pair(F(1, 4))[0].mu0)
    with pytest.raises(GridMismatch):
        dg.duality_check(prob, coarse, res, dres)


def test_duality_functional_identity_bilinear():
    # symmetric pairing cost: the identity is an exact finite-sum rearrangement
    pair, prob = fm.toric_pair([(-1, -1), (2, -1), (-1, 2)], resolution=F(1, 4))
    dual = tp.TransportProblem(prob.cost.transpose(), prob.nu0, prob.mu0,
                               ln_norm=prob.ln_norm)
    res = tp.minimize_kontorovich(prob)
    dres = tp.minimize_kontorovich(dual)
    out = dg.duality_check(prob, dual, res, dres)
    assert out["functional_gap"] <= 1e-9


# -- hybrid convergence -------------------------------------------------------------------


def level_labels(l):
    return [(F(j, l),) for j in range(l)]


def test_hybrid_errors_strictly_decreasing():
    grid = [(F(j, 16),) for j in range(16)]
    for l in (1, 2):
        out = dg.hybrid_potential_curve(RANK1, l, [1e-2, 1e-4, 1e-8],
                                        grid, level_labels(l))
        e = out["sup_error"]
        assert e[0] > e[1] > e[2] > 0


def test_hybrid_window_doubling_stable():
    grid = [(F(j, 8),) for j in range(8)]
    a = dg.hybrid_potential_curve(RANK1, 1, [1e-2], grid, level_labels(1),
                                  window=8)
    b = dg.hybrid_potential_curve(RANK1, 1, [1e-2], grid, level_labels(1),
                                  window=16)
    assert abs(a["sup_error"][0] - b["sup_error"][0]) < 1e-10


@pytest.mark.parametrize("base_slope", [20, 40])
def test_hybrid_steep_base_slope_matches_slope_one(base_slope):
    """A steep base slope moves the minimising shift far past the default
    window of 8; the tropical sections still hold it, so the errors are
    base slope 1's."""
    grid = [(F(j, 16),) for j in range(16)]
    steep = co.MumfordData((co.PhiAxis(base_slope=base_slope),))
    schedule = [1e-2, 1e-4, 1e-8]
    want = dg.hybrid_potential_curve(RANK1, 1, schedule, grid,
                                     level_labels(1))["sup_error"]
    got = dg.hybrid_potential_curve(steep, 1, schedule, grid,
                                    level_labels(1))
    assert got["sup_error"] == pytest.approx(want, abs=1e-12)
    assert got["window"] == co.certified_window(steep, 1) > 8


def test_hybrid_dominant_margin_scaling():
    # at x=0 the lattice shifts 0 and -1 tie: error ~ log(2)/(l L)
    import math
    out = dg.hybrid_potential_curve(RANK1, 1, [1e-4], [(F(0),)],
                                    level_labels(1))
    expect = math.log(2) / (1 * (-math.log(1e-4)))
    assert out["sup_error"][0] == pytest.approx(expect, rel=1e-3)


def test_hybrid_rejects_bad_t():
    with pytest.raises(ValueError):
        dg.hybrid_potential_curve(RANK1, 1, [1.5], [(F(0),)], level_labels(1))
