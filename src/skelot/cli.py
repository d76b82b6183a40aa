"""Config-driven experiment runner with machine-readable outputs.

One JSON config describes a family, a discretization, solver settings and
diagnostic toggles; `solve` executes the pipeline and writes result.json,
phi.csv, phic.csv, plan.csv and diagnostics.json into the output directory.
Reruns with the same config and seed are byte-identical.  Column layouts
are documented in docs/csv_schema.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Optional

from . import cost as co
from . import diagnostics as dg
from . import families as fm
from . import transport as tp
from . import tropical as tr
from .errors import (
    AssertionFailed,
    ConfigError,
    GridMismatch,
    IncompleteRun,
    SeriesDepthExceeded,
    SkelotError,
    SolverNotConverged,
)
from .polyhedral import DiscreteMeasure, Face, format_fraction

F = Fraction


# -- config ------------------------------------------------------------------------


def _fraction(value, name: str) -> Fraction:
    try:
        if isinstance(value, (bool, float)):
            raise TypeError
        return F(value)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ConfigError(f"{name} must be an exact rational like '1/8'")


def _number(value, kind, name: str, least=None):
    """value as `kind`: never a bool, an int only if integral, >= least."""
    try:
        if isinstance(value, bool) or kind is int and int(value) != F(value):
            raise TypeError
        number = kind(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError):
        raise ConfigError(f"{name}: {value!r} is not a valid {kind.__name__}")
    if least is not None and number < least:
        raise ConfigError(f"{name} must be at least {least}, not {number!r}")
    return number


def _flag(block: dict, key: str, default: bool = False) -> bool:
    value = block.get(key, default)
    if not isinstance(value, bool):
        raise ConfigError(f"{key} must be true or false, not {value!r}")
    return value


def _numbers(values, kind, name: str, least=None) -> list:
    if not isinstance(values, list):
        raise ConfigError(f"{name} must be a list, not {values!r}")
    return [_number(v, kind, name, least) for v in values]


def _known_keys(block: dict, known, name: str) -> None:
    unknown = set(block) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} keys {sorted(unknown)}")


# the top-level keys every subcommand that reads a config validates
CONFIG_KEYS = {"family", "solver", "oracle", "diagnostics", "output_dir",
               "seed"}
FAMILY_KEYS = {
    "toric": {"delta", "ln_norm"},
    "intermediate": {"n", "m", "d", "hilbert_M", "ln_norm"},
    "abelian": {"axes", "levels"},
    "zero": set(),
}


class ExperimentConfig:
    """Validated view of one experiment description."""

    def __init__(self, raw: dict, seed_override: Optional[int] = None):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        self.raw = raw
        self.family = raw.get("family")
        if not isinstance(self.family, dict) or "kind" not in self.family:
            raise ConfigError("config needs a family block with a kind")
        kind = self.family["kind"]
        if isinstance(kind, str) and kind in FAMILY_KEYS:
            _known_keys(self.family,
                        {"kind", "resolution", *FAMILY_KEYS[kind]},
                        f"{kind} family")
        solver = raw.get("solver", {})
        if not isinstance(solver, dict):
            raise ConfigError("solver must be a JSON object")
        _known_keys(solver, {"method"}, "solver")
        # both spellings run the one flow finisher
        if solver.get("method", "auto") not in ("auto", "exact"):
            raise ConfigError(f"unknown solver method {solver['method']!r}")
        self.oracle = _flag(raw, "oracle")
        diagnostics = raw.get("diagnostics", {})
        if not isinstance(diagnostics, dict):
            raise ConfigError("diagnostics must be a JSON object")
        _known_keys(diagnostics, {"pushforward", "cost_bounds",
                                  "cost_bound_samples"}, "diagnostics")
        self.pushforward = _flag(diagnostics, "pushforward")
        self.cost_bounds = _flag(diagnostics, "cost_bounds")
        self.cost_bound_samples = _number(
            diagnostics.get("cost_bound_samples", 200), int,
            "cost_bound_samples", least=1)
        self.output_dir = raw.get("output_dir", "run")
        if not isinstance(self.output_dir, str) or not self.output_dir:
            raise ConfigError("output_dir must be a non-empty string")
        self.seed = _number(seed_override if seed_override is not None
                            else raw.get("seed", 0), int, "seed")

    def resolution(self) -> Fraction:
        return _fraction(self.family.get("resolution", "1/8"), "resolution")


def load_config(path: str, seed_override=None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return ExperimentConfig(raw, seed_override)


@contextmanager
def _family_block():
    """Report a malformed family block as a config error."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"family block is missing {exc}")
    except (SkelotError, TypeError, ValueError) as exc:
        raise ConfigError(f"family block invalid: {exc}")


def _mumford_data(block: dict) -> co.MumfordData:
    axes = block.get("axes", [{}])
    if not isinstance(axes, list) or not all(isinstance(a, dict) for a in axes):
        raise ConfigError("family axes must be a list of objects")
    for a in axes:
        _known_keys(a, {"base_slope", "quad", "period"}, "axis")
    return co.MumfordData(tuple(
        co.PhiAxis(base_slope=_number(a.get("base_slope", 1), int, "base_slope"),
                   quad=_number(a.get("quad", 1), int, "quad"),
                   period=_number(a.get("period", 1), int, "period"))
        for a in axes))


def _intermediate_data(block: dict) -> fm.IntermediateData:
    return fm.IntermediateData(
        n=_number(block["n"], int, "n"), m=_number(block["m"], int, "m"),
        d=tuple(_numbers(block["d"], int, "d")),
        hilbert_M=tuple(_numbers(block["hilbert_M"], int, "hilbert_M")),
        ln_norm=_number(block.get("ln_norm", 1.0), float, "ln_norm"))


def build_problem(cfg: ExperimentConfig):
    """TransportProblem plus family-specific extras from the config block."""
    blk = cfg.family
    kind = blk["kind"]
    with _family_block():
        if kind == "toric":
            ln_norm = blk.get("ln_norm")
            pair, problem = fm.toric_pair(
                [_numbers(v, int, "delta") for v in blk["delta"]],
                resolution=cfg.resolution(),
                ln_norm=None if ln_norm is None
                else _number(ln_norm, float, "ln_norm"))
            return problem, {"pair": pair}
        if kind == "intermediate":
            data = _intermediate_data(blk)
            return fm.intermediate_family(data, resolution=cfg.resolution()), \
                {"data": data}
        if kind == "abelian":
            data = _mumford_data(blk)
            levels = _numbers(blk.get("levels", [1, 2]), int, "levels", 1)
            if not levels:
                raise ConfigError("levels must list at least one level")
            family, problem = fm.mumford_family(data, levels,
                                                resolution=cfg.resolution())
            return problem, {"data": data, "family": family, "levels": levels}
        if kind == "zero":
            pts = ((F(0),), (F(1),))
            mu = DiscreteMeasure(pts, (F(1, 2), F(1, 2)), (0, 0), F(1))
            zero = co.CostFunction(None, None, lambda x, p: F(0), lipschitz_x=0.0)
            return tp.TransportProblem(zero, mu, mu), {}
    raise ConfigError(f"unknown family kind {kind!r}")


# -- output helpers ----------------------------------------------------------------


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_field_csv(path: str, field: tp.PotentialField) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        dim = len(field.points[0])
        w.writerow([f"x{k}" for k in range(dim)] + ["value"])
        for p, v in zip(field.points, field.values):
            w.writerow([format_fraction(c) for c in p] + [repr(float(v))])


def _write_plan_csv(path: str, plan) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["source_index", "target_index", "mass"])
        for i, j, x in zip(*(v.tolist() for v in plan)):  # row-major
            w.writerow([i, j, repr(x)])


def _assertion(name, expected, observed, tolerance, ok) -> dict:
    return {"name": name, "expected": expected, "observed": observed,
            "tolerance": tolerance, "pass": bool(ok)}


# -- solve pipeline ----------------------------------------------------------------


def run(config_path: str, seed_override=None,
        allow_nonconverged: bool = False) -> int:
    cfg = load_config(config_path, seed_override)
    _known_keys(cfg.raw, CONFIG_KEYS, "config")
    problem, extras = build_problem(cfg)
    shape = (len(problem.mu0.points), len(problem.nu0.points))
    if cfg.oracle and max(shape) > tp.ORACLE_SIZE_CAP:
        raise ConfigError(f"oracle: {shape[0]}x{shape[1]} exceeds the "
                          f"{tp.ORACLE_SIZE_CAP}x{tp.ORACLE_SIZE_CAP} cap")
    result = tp.minimize_kontorovich(problem)
    if not result.converged and not allow_nonconverged:
        if result.unshipped:
            raise SolverNotConverged(
                f"flow finisher left mass {result.unshipped} unshipped")
        raise SolverNotConverged(
            f"exact duality gap {format_fraction(result.exact_gap)} is not zero"
            if result.exact_gap else "the flows do not meet the marginals")

    assertions = [
        _assertion("gap_nonnegative", ">= -1e-9", result.gap, 1e-9,
                   result.gap >= -1e-9),
    ]
    lp_value = None
    if cfg.oracle:
        lp = tp.lp_oracle(problem)
        lp_value = lp.primal_value
        assertions.append(_assertion(
            "strong_duality", lp.primal_value, result.value, 0,
            lp.exact_value == result.exact_value))

    diag_out = {}
    rng = random.Random(cfg.seed)
    if cfg.pushforward:
        diag_out["pushforward"] = dg.pushforward_residual(result, problem)
    if cfg.cost_bounds and "family" in extras:
        family = extras["family"]
        levels = extras["levels"]
        samples = []
        for _ in range(cfg.cost_bound_samples):
            l = rng.choice(levels)
            x = rng.choice(problem.mu0.points)
            p = rng.choice(family.labels(l))
            samples.append((x, p, l))
        report = co.verify_cost_bounds(family, problem.cost, samples)
        diag_out["cost_bounds"] = {
            "lower_bound_checks": report.n_lower_bound_checks,
            "subadditivity_checks": report.n_subadditivity_checks,
            "violations": len(report.violations)}
        assertions.append(_assertion("cost_bounds", 0,
                                     len(report.violations), 0,
                                     not report.violations))

    out = cfg.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        _write_json(os.path.join(out, "config.json"),
                    {**cfg.raw, "seed": cfg.seed})
        _write_json(os.path.join(out, "result.json"), {
            "value": result.value, "gap": result.gap,
            "iterations": result.iterations, "converged": result.converged,
            "lp_value": lp_value, "seed": cfg.seed,
            "resolution": format_fraction(cfg.resolution()),
        })
        _write_field_csv(os.path.join(out, "phi.csv"), result.phi)
        _write_field_csv(os.path.join(out, "phic.csv"), result.psi)
        _write_plan_csv(os.path.join(out, "plan.csv"), result.plan)
        _write_json(os.path.join(out, "diagnostics.json"), {
            "assertions": assertions, "diagnostics": diag_out,
            "seed": cfg.seed})
    except OSError as exc:
        raise ConfigError(f"cannot write output_dir {out!r}: {exc}")

    if not all(a["pass"] for a in assertions):
        raise AssertionFailed("an enabled assertion failed; see diagnostics.json")
    return 0


# -- other subcommands ----------------------------------------------------------------


def _independence_spec(path: str) -> tuple:
    """Sections, face and coefficients of a check-independence file, its
    numbers parsed as `solve` parses a config's."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read sections file: {exc}")
    try:
        secs = []
        for s in spec["sections"]:
            terms = tuple(tr.MonomialTerm(
                tuple(_numbers(t["exponent"], int, "exponent")),
                _number(t.get("t_order", 0), int, "t_order"),
                t["coeff_id"]) for t in s["terms"])
            secs.append(tr.TropicalSection(
                terms, level=_number(s.get("level", 1), int, "level")))
        face_spec = spec["face"]
        mult = face_spec.get("multiplicities")
        face = Face(tuple(tuple(_numbers(v, F, "vertices"))
                          for v in face_spec["vertices"]),
                    multiplicities=tuple(_numbers(mult, int, "multiplicities"))
                    if mult else None)
        coeffs = {k: tuple(_numbers(v, F, "coefficients"))
                  for k, v in spec["coefficients"].items()}
        missing = {t.coeff_id for s in secs for t in s.terms} - set(coeffs)
    except KeyError as exc:
        raise ConfigError(f"sections file is missing {exc}")
    except (TypeError, ValueError, ZeroDivisionError, AttributeError) as exc:
        raise ConfigError(f"sections file invalid: {exc}")
    if not secs:
        raise ConfigError("sections file lists no sections")
    dim = face.ambient_dim
    if any(len(t.exponent) != dim for s in secs for t in s.terms) or \
            face.multiplicities and len(face.multiplicities) != dim:
        raise ConfigError(f"exponents and multiplicities need {dim} entries, "
                          f"the face's ambient dimension")
    if missing:
        raise ConfigError(f"no coefficients for {sorted(map(str, missing))}")
    lengths = {len(v) for v in coeffs.values()}
    if len(lengths) > 1 or 0 in lengths:
        raise ConfigError("coefficient vectors need one common, positive length")
    return secs, face, coeffs


def check_independence(path: str) -> int:
    secs, face, coeffs = _independence_spec(path)
    verdict = tr.check_valuative_independence(secs, face, coeffs)
    payload = {"independent": verdict.independent}
    if verdict.witness is not None:
        payload["witness"] = {
            "class_sections": list(verdict.witness.class_sections),
            "kernel": [format_fraction(k) for k in verdict.witness.kernel]}
    print(json.dumps(payload, sort_keys=True))
    return 0 if verdict.independent else 1


def count_sections(config_path: str) -> int:
    cfg = load_config(config_path)
    _known_keys(cfg.raw, CONFIG_KEYS | {"levels"}, "config")
    blk = cfg.family
    if blk["kind"] != "intermediate":
        raise ConfigError("count-sections needs an intermediate family")
    with _family_block():
        data = _intermediate_data(blk)
    rows = {}
    ok = True
    for l in _numbers(cfg.raw.get("levels", list(range(9))), int, "levels", 0):
        try:
            counts = fm.section_count(data, l)
        except SeriesDepthExceeded as exc:
            # a level the configured series does not reach
            raise ConfigError(f"level {l}: {exc}")
        rows[str(l)] = counts
        ok = ok and counts["enumerated"] == counts["series"]
    print(json.dumps(rows, sort_keys=True))
    if not ok:
        raise AssertionFailed("enumerated and series counts disagree")
    return 0


def hybrid(config_path: str) -> int:
    cfg = load_config(config_path)
    _known_keys(cfg.raw, CONFIG_KEYS | {"level", "grid_steps", "t_schedule",
                                        "assert_decreasing"}, "config")
    blk = cfg.family
    if blk["kind"] != "abelian":
        raise ConfigError("hybrid needs an abelian family")
    with _family_block():
        data = _mumford_data(blk)
    if data.rank != 1:
        raise ConfigError("hybrid needs a rank-1 abelian family")
    level = _number(cfg.raw.get("level", 1), int, "level", least=1)
    steps = _number(cfg.raw.get("grid_steps", 16), int, "grid_steps", least=1)
    schedule = _numbers(cfg.raw.get("t_schedule", [1e-2, 1e-4, 1e-8]), float,
                        "t_schedule")
    if not all(0 < t < 1 for t in schedule):
        raise ConfigError("t_schedule entries must lie in (0, 1)")
    check = _flag(cfg.raw, "assert_decreasing", True)
    grid = [(F(j, steps),) for j in range(steps)]
    labels = [(F(j, level),) for j in range(level * data.axes[0].period)]
    out = dg.hybrid_potential_curve(data, level, schedule, grid, labels)
    print(json.dumps(out, sort_keys=True))
    errs = out["sup_error"]
    if check and any(b >= a for a, b in zip(errs, errs[1:])):
        raise AssertionFailed("hybrid errors are not strictly decreasing")
    return 0


def _run_file(run_dir: str, name: str) -> str:
    path = os.path.join(run_dir, name)
    if not os.path.exists(path):
        raise IncompleteRun(f"{name} missing from {run_dir}")
    return path


def _load_run_entry(run_dir: str, name: str, key: str):
    """The `key` entry of a run's JSON file."""
    try:
        with open(_run_file(run_dir, name), "r", encoding="utf-8") as fh:
            return json.load(fh)[key]
    except (ValueError, KeyError, TypeError) as exc:
        raise IncompleteRun(f"cannot read {key!r} from {name} in {run_dir}: "
                            f"{exc!r}")


def _load_run_field(run_dir: str, name: str) -> tp.PotentialField:
    pts, vals = [], []
    try:
        with open(_run_file(run_dir, name), "r", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            dim = len(next(reader)) - 1
            for row in reader:
                if len(row) != dim + 1:
                    raise ValueError(f"row {row} is not {dim + 1} columns")
                pts.append(tuple(F(c) for c in row[:dim]))
                vals.append(F(float(row[dim])))
    except (StopIteration, IndexError, ValueError, ZeroDivisionError,
            OverflowError) as exc:
        raise IncompleteRun(f"{name} in {run_dir} is malformed: {exc!r}")
    if not pts or dim < 1:
        raise IncompleteRun(f"{name} in {run_dir} has no rows or no "
                            f"coordinate column")
    return tp.PotentialField(tuple(pts), tuple(vals))


def diagnose_ma(run_dir: str) -> int:
    phi = _load_run_field(run_dir, "phi.csv")
    h = _fraction(_load_run_entry(run_dir, "result.json", "resolution"),
                  "resolution")
    if h.numerator != 1:  # 1/l for a positive integer l
        raise IncompleteRun(f"resolution {h} in result.json is not 1/l")
    try:
        field = dg.ma_residual(phi, h)
    except GridMismatch as exc:
        raise IncompleteRun(f"phi.csv does not match resolution {h}: {exc}")
    payload = {"max_residual": field.max_residual,
               "constant": field.constant,
               "degenerate_cells": sum(field.degenerate)}
    _write_json(os.path.join(run_dir, "ma.json"), payload)
    print(json.dumps(payload, sort_keys=True))
    return 0


def diagnose_duality(run_dir: str) -> int:
    cfg = load_config(_run_file(run_dir, "config.json"))
    _known_keys(cfg.raw, CONFIG_KEYS, "config")
    problem, _ = build_problem(cfg)
    result = tp.minimize_kontorovich(problem)
    # the plan couples mu0 with W nu0, so W nu0 is the mirror's source
    nu0 = problem.nu0
    source = DiscreteMeasure(nu0.points, problem.target_mass, nu0.face_tags, 1)
    dual = tp.TransportProblem(problem.cost.transpose(), source, problem.mu0,
                               ln_norm=problem.ln_norm)
    dual_result = tp.minimize_kontorovich(dual)
    out = dg.duality_check(problem, dual, result, dual_result)
    _write_json(os.path.join(run_dir, "duality.json"), out)
    print(json.dumps(out, sort_keys=True))
    return 0


def report(run_dir: str, fmt: str = "json") -> int:
    rows = _load_run_entry(run_dir, "diagnostics.json", "assertions")
    fields = ["name", "expected", "observed", "tolerance", "pass"]
    try:
        table = [[r[k] for k in fields] for r in rows]
    except (KeyError, TypeError) as exc:
        raise IncompleteRun(f"diagnostics.json assertions malformed: {exc!r}")
    if fmt == "json":
        print(json.dumps(rows, sort_keys=True))
    elif fmt == "csv":
        csv.writer(sys.stdout).writerows([fields, *table])
    else:
        raise ConfigError(f"unknown report format {fmt!r}")
    return 0


# -- entry point --------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="skelot",
        description="optimal-transport potentials on polyhedral skeletons")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one experiment config")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--allow-nonconverged", action="store_true")

    p = sub.add_parser("check-independence", help="verify a section basis")
    p.add_argument("sections_file")

    p = sub.add_parser("count-sections", help="basis counts vs the series")
    p.add_argument("config")

    p = sub.add_parser("hybrid", help="finite-t convergence curve")
    p.add_argument("config")

    p = sub.add_parser("diagnose-ma", help="Monge-Ampere residual of a run")
    p.add_argument("run_dir")

    p = sub.add_parser("diagnose-duality", help="mirror comparison of a run")
    p.add_argument("run_dir")

    p = sub.add_parser("report", help="assertion summary of a run")
    p.add_argument("run_dir")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return run(args.config, seed_override=args.seed,
                       allow_nonconverged=args.allow_nonconverged)
        if args.command == "check-independence":
            return check_independence(args.sections_file)
        if args.command == "count-sections":
            return count_sections(args.config)
        if args.command == "hybrid":
            return hybrid(args.config)
        if args.command == "diagnose-ma":
            return diagnose_ma(args.run_dir)
        if args.command == "diagnose-duality":
            return diagnose_duality(args.run_dir)
        if args.command == "report":
            return report(args.run_dir, args.format)
    except (ConfigError, IncompleteRun) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverNotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SkelotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
