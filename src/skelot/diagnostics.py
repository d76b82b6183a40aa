"""Post-solution checks: pushforward marginals, discrete Monge-Ampere
residuals, Legendre mirror comparison, and finite-t hybrid convergence."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import exp, log
from typing import Optional, Sequence

import numpy as np

from .cost import MumfordData, PhiAxis
from .errors import GridMismatch, TruncationInsufficient
from .transport import (
    PotentialField,
    TransportProblem,
    TransportResult,
    c_transform,
    kontorovich_value,
)

__all__ = [
    "MAResidualField",
    "pushforward_residual", "ma_residual", "duality_check",
    "hybrid_potential_curve",
]

F = Fraction


def pushforward_residual(result: TransportResult, problem: TransportProblem,
                         use: str = "plan") -> dict:
    """Discrepancy between the transported source mass and W nu0.

    use = "plan" compares the plan's target marginal; "argmax" pushes mu0
    along the best-response map x -> argmax_p (c(x, p) - psi(p)).
    """
    target = np.array(problem.target_mass, dtype=float)
    if use == "plan":
        _, cols, mass = result.plan
        marginal = np.bincount(cols, weights=mass, minlength=len(target))
    elif use == "argmax":
        back = c_transform(result.psi, problem.cost, problem.mu0.points,
                           direction="target_to_source")
        marginal = np.zeros(len(target))
        for i, j in enumerate(back.argmax):
            marginal[j] += float(problem.mu0.weights[i])
    else:
        raise ValueError(f"unknown pushforward route {use!r}")
    diff = marginal - target
    return {"linf": float(np.abs(diff).max()), "l1": float(np.abs(diff).sum())}


@dataclass(frozen=True)
class MAResidualField:
    points: tuple
    density: tuple[float, ...]
    residual: tuple[float, ...]
    degenerate: tuple[bool, ...]
    constant: float

    @property
    def max_residual(self) -> float:
        vals = [abs(r) for r, d in zip(self.residual, self.degenerate) if not d]
        return max(vals) if vals else 0.0


def ma_residual(phi: PotentialField, h) -> MAResidualField:
    """Discrete Monge-Ampere density on interior cells vs its mean.

    1D: second differences /h^2; 2D: determinant of the mixed
    second-difference Hessian /h^4 on an axis-aligned grid.  Cells with a
    non-positive (or indefinite) Hessian are flagged, never raised.
    """
    h = float(h)
    dim = len(phi.points[0])
    vals = {tuple(p): float(v) for p, v in zip(phi.points, phi.values)}
    hf = F(h).limit_denominator(10 ** 12)
    if dim == 1:
        order = sorted(vals)
        for a, b in zip(order, order[1:]):
            if b[0] - a[0] != hf:
                raise GridMismatch("1D grid is not uniformly spaced at h")
        pts, dens = [], []
        for a, b, c in zip(order, order[1:], order[2:]):
            d2 = (vals[c] - 2 * vals[b] + vals[a]) / h ** 2
            pts.append(b)
            dens.append(d2)
    elif dim == 2:
        pts, dens = [], []
        for p in sorted(vals):
            nb = {}
            ok = True
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    q = (p[0] + dx * hf, p[1] + dy * hf)
                    if q in vals:
                        nb[(dx, dy)] = vals[q]
                    else:
                        ok = False
            if not ok:
                continue
            dxx = (nb[(1, 0)] - 2 * nb[(0, 0)] + nb[(-1, 0)]) / h ** 2
            dyy = (nb[(0, 1)] - 2 * nb[(0, 0)] + nb[(0, -1)]) / h ** 2
            dxy = (nb[(1, 1)] - nb[(1, -1)] - nb[(-1, 1)] + nb[(-1, -1)]) / (4 * h ** 2)
            pts.append(p)
            dens.append(dxx * dyy - dxy * dxy if min(dxx, dyy) > 0
                        else -abs(dxx * dyy - dxy * dxy))
    else:
        raise GridMismatch("residuals ship for dimensions 1 and 2")
    # round-off in second differences scales with |phi| / h^2
    tol = 1e-12 * max(1.0, max(abs(v) for v in vals.values())) / h ** 2
    degenerate = tuple(d <= tol for d in dens)
    live = [d for d, bad in zip(dens, degenerate) if not bad]
    constant = sum(live) / len(live) if live else 0.0
    residual = tuple(d - constant for d in dens)
    return MAResidualField(tuple(pts), tuple(dens), residual, degenerate, constant)


def duality_check(problem: TransportProblem, dual_problem: TransportProblem,
                  result: TransportResult, dual_result: TransportResult) -> dict:
    """Mirror comparison of two solves with swapped roles.

    functional_gap compares F(phi) with the swapped functional at phi^c;
    potential_gap aligns the swapped minimizer with phi^c where W nu0 > 0
    by the midpoint constant; the cost-symmetry precondition c(x, p) =
    c_dual(p, x) is checked on every pair and reported as a residual.
    """
    if (dual_problem.mu0.points != problem.nu0.points
            or dual_problem.nu0.points != problem.mu0.points):
        raise GridMismatch("swapped problem must swap both grids")
    f_here = kontorovich_value(problem, result.phi)
    f_swap = kontorovich_value(dual_problem, result.psi)
    functional_gap = abs(f_here - f_swap)

    diff = [float(a - b) for a, b, w in zip(
        dual_result.phi.values, result.psi.values, problem.target_mass) if w]
    potential_gap = (max(diff) - min(diff)) / 2.0

    C = problem.cost_array
    resid = float(np.abs(C - dual_problem.cost_array.T).max())
    return {"functional_gap": functional_gap, "potential_gap": potential_gap,
            "precondition_residual": resid, "sampled_pairs": C.size}


def _axis_log_theta(axis: PhiAxis, x: float, p, log_t_abs: float, level: int,
                    window: int) -> float:
    """log |theta_axis(t^x; t)| at one axis, summed in log space."""
    L = -log_t_abs  # |log t|, positive
    g = axis.period
    exponents = []
    for k in range(-window, window + 1):
        shift = F(p) + g * k
        v = float(x * float(shift) + float(axis.value(shift)))
        exponents.append(-level * L * v)
    m = max(exponents)
    if exponents[0] > m - 60 or exponents[-1] > m - 60:
        # boundary terms still contribute above the 1e-12 tail threshold
        raise TruncationInsufficient("theta window too small at this t")
    s = sum(exp(e - m) for e in sorted(exponents))
    return m + log(s)


def _log_theta(data: MumfordData, xf: Sequence[float], label: Sequence,
               log_t: float, level: int, window: int) -> tuple[float, int]:
    """Separable log|theta_label(t^x; t)|, expanding the window as needed."""
    w = window
    while True:
        try:
            total = sum(_axis_log_theta(ax, xi, li, log_t, level, w)
                        for ax, xi, li in zip(data.axes, xf, label))
            return total, w
        except TruncationInsufficient:
            if 2 * w > 4096:
                raise
            w *= 2


def hybrid_potential_curve(data: MumfordData, level: int,
                           t_schedule: Sequence[float],
                           grid: Sequence, labels: Sequence,
                           window: Optional[int] = None) -> dict:
    """Sup-norm error of the finite-t potential against its tropical limit.

    For each t, (1/(l |log t|)) max_p log|theta_p(t^x; t)| along |z| = |t|^x
    is compared with max_p (-val_x(theta_p)/l); the summation window expands
    until boundary terms drop below the 1e-12 tail threshold.  The tropical
    sections are truncated at the returned "window", the larger of that
    window and `certified_window(data, level)`: their minimising shift fits.
    """
    from .cost import certified_window, theta_section
    from .polyhedral import as_point
    from .tropical import val_at

    base_window = window if window is not None else 8
    section_window = max(base_window, certified_window(data, level))
    labels = [as_point(lab) for lab in labels]
    sections = {lab: theta_section(data, level, lab, window=section_window)
                for lab in labels}
    grid_pts = [as_point(x) for x in grid]
    errors = []
    for t in t_schedule:
        if not 0.0 < float(t) < 1.0:
            raise ValueError("t schedule must lie in (0, 1)")
        log_t = log(float(t))
        sup_err = 0.0
        for x in grid_pts:
            xf = [float(c) for c in x]
            finite = max(
                _log_theta(data, xf, lab, log_t, level, base_window)[0]
                for lab in labels) / (level * (-log_t))
            na = max(-float(val_at(sections[lab], x)) / level
                     for lab in labels)
            sup_err = max(sup_err, abs(finite - na))
        errors.append(sup_err)
    return {"t": [float(t) for t in t_schedule], "sup_error": errors,
            "window": section_window}
