"""Config validation, exit codes, output files, reruns, reports."""

import json
import os
from pathlib import Path

import pytest

from skelot import _flow, cli
from skelot import transport as tp

ABELIAN_CFG = {
    "family": {"kind": "abelian", "axes": [{}], "levels": [1, 2],
               "resolution": "1/8"},
    "solver": {"method": "auto"},
    "oracle": True,
    "diagnostics": {"pushforward": True, "cost_bounds": True,
                    "cost_bound_samples": 50},
    "seed": 7,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_json(out, name):
    with open(os.path.join(out, name), encoding="utf-8") as fh:
        return json.load(fh)


def run_cfg(tmp_path, cfg, extra=()):
    cfg = dict(cfg)
    cfg["output_dir"] = str(tmp_path / "run")
    return cli.main(["solve", write_cfg(tmp_path, cfg), *extra]), cfg["output_dir"]


# -- config validation -----------------------------------------------------------


def test_missing_config_file(tmp_path):
    assert cli.main(["solve", str(tmp_path / "nope.json")]) == 2


def test_config_not_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]")
    assert cli.main(["solve", str(path)]) == 2


def test_unknown_family_kind(tmp_path):
    code, _ = run_cfg(tmp_path, {"family": {"kind": "mystery"}})
    assert code == 2


@pytest.mark.parametrize("fields", [
    pytest.param({"solver": {"method": "magic"}}, id="method-unknown"),
    pytest.param({"solver": {"method": "ascent"}}, id="method-ascent"),
    pytest.param({"solver": "fast"}, id="solver-not-object"),
    pytest.param({"solver": {"tol": 1e-9}}, id="key-tol"),
    pytest.param({"solver": {"max_iter": 60}}, id="key-max_iter"),
    pytest.param({"solver": {"damping": 0.5}}, id="key-damping"),
    pytest.param({"seed": "x"}, id="seed-string"),
])
def test_bad_solver_settings(tmp_path, capsys, fields):
    code, _ = run_cfg(tmp_path, {"family": {"kind": "zero"}, **fields})
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_bad_resolution(tmp_path):
    cfg = {"family": {"kind": "abelian", "resolution": 0.125}}
    code, _ = run_cfg(tmp_path, cfg)
    assert code == 2


def test_missing_family_field(tmp_path):
    cfg = {"family": {"kind": "intermediate", "n": 3}}
    code, _ = run_cfg(tmp_path, cfg)
    assert code == 2


# -- solve pipeline --------------------------------------------------------------


def test_solve_zero_smoke(tmp_path):
    code, out = run_cfg(tmp_path, {"family": {"kind": "zero"}, "oracle": True})
    assert code == 0
    result = read_json(out, "result.json")
    assert result["value"] == 0.0
    assert result["converged"] is True
    assert result["seed"] == 0
    for name in ("config.json", "phi.csv", "phic.csv", "diagnostics.json"):
        assert os.path.exists(os.path.join(out, name))


def test_solve_abelian_with_oracle(tmp_path):
    code, out = run_cfg(tmp_path, ABELIAN_CFG)
    assert code == 0
    diag = read_json(out, "diagnostics.json")
    names = {a["name"] for a in diag["assertions"]}
    assert {"gap_nonnegative", "strong_duality", "cost_bounds"} <= names
    assert all(a["pass"] for a in diag["assertions"])
    assert diag["seed"] == 7
    assert diag["diagnostics"]["pushforward"]["linf"] <= 1e-9
    assert os.path.exists(os.path.join(out, "plan.csv"))


def test_solve_intermediate_with_oracle(tmp_path):
    cfg = {
        "family": {"kind": "intermediate", "n": 3, "m": 1, "d": [2, 2],
                   "hilbert_M": [1, 4, 10, 20, 35, 56, 84, 120, 165],
                   "resolution": "1/8"},
        "oracle": True,
        "diagnostics": {"pushforward": True},
    }
    code, out = run_cfg(tmp_path, cfg)
    assert code == 0
    result = read_json(out, "result.json")
    assert result["converged"] is True
    assert abs(result["value"] - result["lp_value"]) <= 1e-9
    diag = read_json(out, "diagnostics.json")
    duality = [a for a in diag["assertions"] if a["name"] == "strong_duality"]
    assert len(duality) == 1 and duality[0]["pass"]


def test_solve_seed_override_recorded(tmp_path):
    code, out = run_cfg(tmp_path, ABELIAN_CFG, extra=["--seed", "99"])
    assert code == 0
    result = read_json(out, "result.json")
    assert result["seed"] == 99


def test_rerun_byte_identical(tmp_path):
    _, out = run_cfg(tmp_path, ABELIAN_CFG)
    first = {}
    for name in os.listdir(out):
        first[name] = Path(out, name).read_bytes()
    code, out2 = run_cfg(tmp_path, ABELIAN_CFG)
    assert code == 0 and out2 == out
    for name, blob in first.items():
        assert Path(out, name).read_bytes() == blob


def test_nonconverged_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(_flow, "_dijkstra", lambda *args: None)
    cfg = {"family": {"kind": "zero"}}
    code, _ = run_cfg(tmp_path, cfg)
    assert code == 3
    assert "mass 1.0 unshipped" in capsys.readouterr().err
    code, out = run_cfg(tmp_path, cfg, extra=["--allow-nonconverged"])
    assert code == 0
    result = read_json(out, "result.json")
    assert result["converged"] is False


def test_nonzero_exact_gap_exit_code(tmp_path, capsys, monkeypatch):
    """Duals moved off the optimum leave every unit of mass shipped but an
    exact gap of 1/2 on the zero cost; the message names it exactly."""
    solve = _flow.solve_transport

    def off_optimum(*args, **kwargs):
        plan, pu, *rest = solve(*args, **kwargs)
        return (plan, pu + [0, 1], *rest)

    monkeypatch.setattr(_flow, "solve_transport", off_optimum)
    code, _ = run_cfg(tmp_path, {"family": {"kind": "zero"}})
    assert code == 3
    assert "exact duality gap 1/2 is not zero" in capsys.readouterr().err


# -- report --------------------------------------------------------------------


def test_solve_toric_end_to_end(tmp_path):
    cfg = {
        "family": {"kind": "toric", "delta": [[-1, -1], [2, -1], [-1, 2]],
                   "resolution": "1/32"},
        "oracle": True,
    }
    code, out = run_cfg(tmp_path, cfg)
    assert code == 0
    result = read_json(out, "result.json")
    assert result["lp_value"] == pytest.approx(result["value"], abs=1e-9)
    for name in ("phi.csv", "phic.csv", "plan.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_toric_solve_without_the_oracle_never_forms_k(tmp_path, monkeypatch):
    """Without the oracle, `solve` on a toric config reads the pairing's rows
    from its factors: TransportProblem._integer, the n x m K, is never
    called."""
    def refused(self):
        raise AssertionError("the solve formed K")

    monkeypatch.setattr(tp.TransportProblem, "_integer", refused)
    cfg = {
        "family": {"kind": "toric", "delta": [[-1, -1], [2, -1], [-1, 2]],
                   "resolution": "1/32"},
        "oracle": False,
        "diagnostics": {"pushforward": True},
    }
    code, out = run_cfg(tmp_path, cfg)
    assert code == 0 and read_json(out, "result.json")["converged"] is True


def test_oversize_oracle_exits_before_the_finisher(tmp_path, capsys,
                                                   monkeypatch):
    def finisher(*args):
        raise AssertionError("the flow finisher ran")

    monkeypatch.setattr(_flow, "solve_transport", finisher)
    cfg = {
        "family": {"kind": "toric", "delta": [[-1, -1], [2, -1], [-1, 2]],
                   "resolution": "1/128"},
        "oracle": True,
    }
    code, out = run_cfg(tmp_path, cfg)
    assert code == 2
    assert "384x1152 exceeds the 600x600 cap" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_report_round_trip(tmp_path, capsys):
    _, out = run_cfg(tmp_path, ABELIAN_CFG)
    assert cli.main(["report", out]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert all(r["pass"] for r in rows)
    assert cli.main(["report", out, "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "name,expected,observed,tolerance,pass"
    assert len(lines) == len(rows) + 1


def test_report_incomplete_run(tmp_path):
    assert cli.main(["report", str(tmp_path)]) == 2


# -- other subcommands ------------------------------------------------------------


def test_count_sections(tmp_path, capsys):
    from math import comb
    cfg = {
        "family": {"kind": "intermediate", "n": 3, "m": 1, "d": [2, 2],
                   "hilbert_M": [comb(k + 3, 3) for k in range(12)]},
        "levels": [0, 1, 2, 3],
    }
    assert cli.main(["count-sections", write_cfg(tmp_path, cfg)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows["0"]["series"] == 1 and rows["1"]["series"] == 4


def test_check_independence(tmp_path, capsys):
    spec = {
        "sections": [
            {"terms": [{"exponent": [0], "coeff_id": "f0"}], "level": 1},
            {"terms": [{"exponent": [1], "coeff_id": "f1"}], "level": 1},
        ],
        "face": {"vertices": [[0], [1]]},
        "coefficients": {"f0": [1, 0], "f1": [0, 1]},
    }
    assert cli.main(["check-independence", write_cfg(tmp_path, spec)]) == 0
    assert json.loads(capsys.readouterr().out)["independent"] is True
    # same monomial with collinear coefficients is dependent
    spec["sections"][1]["terms"][0]["exponent"] = [0]
    spec["coefficients"]["f1"] = [2, 0]
    assert cli.main(["check-independence", write_cfg(tmp_path, spec,
                                                     "dep.json")]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["independent"] is False
    assert verdict["witness"]["class_sections"] == [0, 1]


def _section(exponent, **term):
    """One section of one term at the given exponent, coefficients f0."""
    return {"terms": [{"exponent": exponent, "coeff_id": "f0", **term}]}


INDEPENDENCE_SPEC = {
    "sections": [{"terms": [{"exponent": [0], "coeff_id": "f0"}]}],
    "face": {"vertices": [[0], [1]]},
    "coefficients": {"f0": [1, 0]},
}


@pytest.mark.parametrize("text", [
    None,                                                    # missing file
    "{not json",                                             # bad JSON
    json.dumps({k: v for k, v in INDEPENDENCE_SPEC.items() if k != "face"}),
    json.dumps({**INDEPENDENCE_SPEC, "coefficients": {}}),   # unknown coeff_id
    json.dumps({**INDEPENDENCE_SPEC, "face": {"vertices": [["1/x"], [1]]}}),
    json.dumps({**INDEPENDENCE_SPEC, "coefficients": {"f0": ["1/0", 0]}}),
    json.dumps([INDEPENDENCE_SPEC]),                         # not an object
    json.dumps({**INDEPENDENCE_SPEC, "sections": []}),
    json.dumps({**INDEPENDENCE_SPEC, "face": {"vertices": [[0, 0], [1, 0]]},
                "sections": [_section([1, 0]), _section([1, 0, 0])]}),
    json.dumps({**INDEPENDENCE_SPEC, "sections": [_section([1.5])]}),
    json.dumps({**INDEPENDENCE_SPEC, "sections": [_section([True])]}),
    json.dumps({**INDEPENDENCE_SPEC, "sections": [_section([0], t_order=0.7)]}),
    json.dumps({**INDEPENDENCE_SPEC,
                "sections": [{**_section([0]), "level": 2.9}]}),
    json.dumps({**INDEPENDENCE_SPEC, "sections": [_section([0, 1])]}),
    json.dumps({**INDEPENDENCE_SPEC, "sections": [_section([0, 1])],
                "face": {"vertices": [[1, 0], [0, 1]],
                         "multiplicities": [1, 1, 0]}}),
    json.dumps({**INDEPENDENCE_SPEC, "coefficients": {"f0": "12"}}),
    json.dumps({**INDEPENDENCE_SPEC,
                "sections": [_section([0]), _section([1], coeff_id="f1")],
                "coefficients": {"f0": [1, 0], "f1": [0, 1, 0]}}),
    json.dumps({**INDEPENDENCE_SPEC, "coefficients": {"f0": []}}),
])
def test_check_independence_bad_input_exit_code(tmp_path, capsys, text):
    path = tmp_path / "sections.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["check-independence", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_hybrid_command(tmp_path, capsys):
    cfg = {"family": {"kind": "abelian", "axes": [{}]},
           "level": 1, "t_schedule": [1e-2, 1e-4], "grid_steps": 8}
    assert cli.main(["hybrid", write_cfg(tmp_path, cfg)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sup_error"][0] > out["sup_error"][1]


def test_hybrid_wrong_family(tmp_path):
    cfg = {"family": {"kind": "zero"}}
    assert cli.main(["hybrid", write_cfg(tmp_path, cfg)]) == 2


INTERMEDIATE = {"kind": "intermediate", "n": 3, "m": 1, "d": [2, 2],
                "hilbert_M": [1, 4, 10]}
CIRCLE = {"kind": "abelian", "axes": [{}], "resolution": "1/4"}
TRIANGLE = {"kind": "toric", "delta": [[-1, -1], [2, -1], [-1, 2]],
            "resolution": "1/4"}


# cases whose message must name `levels`, the key at fault
LEVELS_AT_FAULT = {"solve-level-fraction", "solve-level-zero",
                   "solve-level-negative", "solve-levels-empty",
                   "count-level-string", "count-level-negative"}


@pytest.mark.parametrize("command, cfg", [
    pytest.param("count-sections", {"family": {"kind": "intermediate"}},
                 id="count-missing-n"),
    pytest.param("count-sections", {"family": INTERMEDIATE, "levels": ["x"]},
                 id="count-level-string"),
    pytest.param("count-sections", {"family": INTERMEDIATE, "levels": [5]},
                 id="count-level-beyond-series"),
    pytest.param("hybrid", {"family": CIRCLE, "level": "x"},
                 id="hybrid-level-string"),
    pytest.param("hybrid", {"family": CIRCLE, "level": 0},
                 id="hybrid-level-zero"),
    pytest.param("hybrid", {"family": CIRCLE, "t_schedule": ["x"]},
                 id="hybrid-t-string"),
    pytest.param("hybrid", {"family": CIRCLE, "t_schedule": [2]},
                 id="hybrid-t-above-one"),
    pytest.param("hybrid", {"family": {**CIRCLE, "axes": [{"quad": "x"}]}},
                 id="hybrid-quad-string"),
    pytest.param("hybrid", {"family": {**CIRCLE, "axes": "x"}},
                 id="hybrid-axes-not-list"),
    pytest.param("hybrid", {"family": {**CIRCLE, "axes": [{}, {}]}},
                 id="hybrid-rank-2"),
    pytest.param("solve", {"family": CIRCLE, "diagnostics": {
        "cost_bounds": True, "cost_bound_samples": "x"}},
                 id="solve-samples-string"),
    pytest.param("solve", {"family": CIRCLE, "diagnostics": "x"},
                 id="solve-diagnostics-not-object"),
    pytest.param("solve", {"family": CIRCLE, "oracle": "false"},
                 id="solve-oracle-string"),
    pytest.param("solve", {"family": CIRCLE, "oracle": 1},
                 id="solve-oracle-number"),
    pytest.param("solve", {"family": CIRCLE, "diagnostics": {
        "pushforward": "no"}}, id="solve-pushforward-string"),
    pytest.param("solve", {"family": {**CIRCLE, "levels": [1]},
                           "diagnostics": {"cost_bounds": "false"}},
                 id="solve-cost-bounds-string"),
    pytest.param("solve", {"family": CIRCLE, "diagnostics": {
        "cost_bounds": True, "cost_bound_samples": -5}},
                 id="solve-samples-negative"),
    pytest.param("solve", {"family": CIRCLE, "diagnostics": {
        "cost_bounds": True, "cost_bound_samples": 0}},
                 id="solve-samples-zero"),
    pytest.param("hybrid", {"family": CIRCLE, "assert_decreasing": "no"},
                 id="hybrid-assert-decreasing-string"),
    pytest.param("hybrid", {"family": {**CIRCLE, "axes": [{"period": 1.9}]}},
                 id="hybrid-period-fraction"),
    pytest.param("hybrid", {"family": {**CIRCLE, "axes": [{"period": True}]}},
                 id="hybrid-period-bool"),
    pytest.param("solve", {"family": {**CIRCLE, "levels": [1.5, 2]},
                           "diagnostics": {"cost_bounds": True}},
                 id="solve-level-fraction"),
    pytest.param("solve", {"family": CIRCLE, "diagnostics": {
        "cost_bounds": True, "cost_bound_samples": 2.7}},
                 id="solve-samples-fraction"),
    pytest.param("solve", {"family": CIRCLE, "seed": 3.9},
                 id="solve-seed-fraction"),
    pytest.param("solve", {"family": CIRCLE, "seed": True},
                 id="solve-seed-bool"),
    pytest.param("solve", {"family": {**TRIANGLE, "delta": None}},
                 id="solve-delta-null"),
    pytest.param("solve", {"family": {**TRIANGLE, "delta": [1, 2]}},
                 id="solve-delta-not-points"),
    pytest.param("solve", {"family": {**TRIANGLE, "ln_norm": []}},
                 id="solve-ln-norm-list"),
    pytest.param("solve", {"family": {**TRIANGLE, "resolution": "0"}},
                 id="solve-resolution-zero"),
    pytest.param("solve", {"family": {**TRIANGLE, "resolution": True}},
                 id="solve-resolution-bool"),
    pytest.param("solve", {"family": {**CIRCLE, "levels": [0]},
                           "diagnostics": {"cost_bounds": True}},
                 id="solve-level-zero"),
    pytest.param("solve", {"family": {**CIRCLE, "levels": [-1]},
                           "diagnostics": {"cost_bounds": True}},
                 id="solve-level-negative"),
    pytest.param("solve", {"family": {**INTERMEDIATE, "n": 4, "m": 3,
                                      "d": [1, 1, 1, 1]}},
                 id="solve-intermediate-m3"),
    pytest.param("solve", {"family": {**TRIANGLE, "resolutoin": "1/64"}},
                 id="solve-toric-key-misspelled"),
    pytest.param("solve", {"family": {**TRIANGLE, "axes": [{}]}},
                 id="solve-toric-key-of-abelian"),
    pytest.param("solve", {"family": {**INTERMEDIATE, "delta": []}},
                 id="solve-intermediate-key-of-toric"),
    pytest.param("solve", {"family": {**CIRCLE, "ln_norm": 2.0}},
                 id="solve-abelian-key-of-toric"),
    pytest.param("solve", {"family": {"kind": "zero", "n": 3}},
                 id="solve-zero-key"),
    pytest.param("solve", {"family": CIRCLE, "oracel": True},
                 id="solve-top-key-misspelled"),
    pytest.param("solve", {"family": CIRCLE, "level": 1},
                 id="solve-top-key-of-hybrid"),
    pytest.param("solve", {"family": CIRCLE,
                           "diagnostics": {"pushfoward": True}},
                 id="solve-diagnostics-key-misspelled"),
    pytest.param("solve", {"family": {**CIRCLE, "axes": [{"bse_slope": 3}]}},
                 id="solve-axis-key-misspelled"),
    pytest.param("hybrid", {"family": {**CIRCLE, "axes": [{"bse_slope": 3}]}},
                 id="hybrid-axis-key-misspelled"),
    pytest.param("hybrid", {"family": CIRCLE, "t_shedule": [1e-2]},
                 id="hybrid-top-key-misspelled"),
    pytest.param("hybrid", {"family": CIRCLE, "levels": [1]},
                 id="hybrid-top-key-of-count"),
    pytest.param("count-sections", {"family": INTERMEDIATE,
                                    "levels": [0, 1, 2], "level": 1},
                 id="count-top-key-of-hybrid"),
    pytest.param("count-sections", {"family": {**INTERMEDIATE,
                                               "hilbert_m": [1]},
                                    "levels": [0, 1, 2]},
                 id="count-intermediate-key-misspelled"),
    pytest.param("solve", {"family": {**TRIANGLE, "ln_norm": True}},
                 id="solve-toric-ln-norm-bool"),
    pytest.param("solve", {"family": {**TRIANGLE, "ln_norm": "x"}},
                 id="solve-toric-ln-norm-string"),
    pytest.param("solve", {"family": {
        **TRIANGLE, "delta": [[-1, -1], [2, -1], [-1, True]]}},
                 id="solve-delta-bool"),
    pytest.param("solve", {"family": {
        **TRIANGLE, "delta": [[-1, -1], [2, -1], [-1, 2.5]]}},
                 id="solve-delta-fraction"),
    pytest.param("solve", {"family": {**TRIANGLE, "delta": [[-1], [1]]}},
                 id="solve-delta-one-coordinate"),
    pytest.param("solve", {"family": {
        **TRIANGLE, "delta": [[-1, -1], [2], [-1, 2]]}},
                 id="solve-delta-mixed-coordinates"),
    pytest.param("solve", {"family": {**CIRCLE, "levels": []}},
                 id="solve-levels-empty"),
    pytest.param("count-sections", {"family": INTERMEDIATE, "levels": [-1]},
                 id="count-level-negative"),
])
def test_malformed_config_exit_code(tmp_path, capsys, request, command, cfg):
    cfg = {**cfg, "output_dir": str(tmp_path / "run")}
    assert cli.main([command, write_cfg(tmp_path, cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if request.node.callspec.id in LEVELS_AT_FAULT:
        assert "levels" in err


class Accepted(Exception):
    pass


def _accept(*args):
    raise Accepted


BENCHMARK_CONFIGS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" /
     "workloads.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(BENCHMARK_CONFIGS))
def test_benchmark_configs_pass_validation(tmp_path, monkeypatch, name):
    """Every benchmark workload's config gets through validation and the
    family build to the solve."""
    monkeypatch.setattr(cli.tp, "minimize_kontorovich", _accept)
    with pytest.raises(Accepted):
        run_cfg(tmp_path, BENCHMARK_CONFIGS[name]["config"])


@pytest.mark.parametrize("family, expected", [
    pytest.param({**TRIANGLE, "ln_norm": 2}, 2.0, id="toric-ln-norm-int"),
    pytest.param({**TRIANGLE, "ln_norm": None}, 9.0, id="toric-ln-norm-null"),
    pytest.param({**TRIANGLE, "delta": [[-1, -1], ["2", -1], [-1, 2.0]]},
                 9.0, id="toric-delta-integral"),
])
def test_toric_numbers_accepted(family, expected):
    problem, _ = cli.build_problem(cli.ExperimentConfig({"family": family}))
    assert problem.ln_norm == expected


@pytest.mark.parametrize("output_dir", [5, ""], ids=["number", "empty"])
def test_malformed_output_dir_exit_code(tmp_path, capsys, output_dir):
    cfg = {"family": CIRCLE, "output_dir": output_dir}
    assert cli.main(["solve", write_cfg(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_output_dir_naming_a_file_exit_code(tmp_path, capsys):
    """An output_dir that is an existing file fails on writing, after the
    solve, with a config error instead of a traceback."""
    taken = tmp_path / "taken"
    taken.write_text("not a directory")
    cfg = {"family": {"kind": "zero"}, "output_dir": str(taken)}
    assert cli.main(["solve", write_cfg(tmp_path, cfg)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: cannot write output_dir {str(taken)!r}")
    assert taken.read_text() == "not a directory"


def test_diagnose_ma(tmp_path, capsys):
    cfg = dict(ABELIAN_CFG)
    cfg["family"] = dict(cfg["family"], resolution="1/16")
    _, out = run_cfg(tmp_path, cfg)
    assert cli.main(["diagnose-ma", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "max_residual" in payload
    assert os.path.exists(os.path.join(out, "ma.json"))


def test_diagnose_ma_incomplete(tmp_path):
    assert cli.main(["diagnose-ma", str(tmp_path)]) == 2


PHI_CSV = "x0,value\n0,0.0\n1/4,0.03125\n1/2,0.125\n"
PHI_CSV_2D = "x0,x1,value\n0,0,0.0\n0,1/2,0.5\n1/2,0,0.25\n1/2,1/2,1.0\n"
RESULT_JSON = json.dumps({"resolution": "1/4"})


@pytest.mark.parametrize("command, files", [
    pytest.param("report", {"diagnostics.json": json.dumps({"seed": 1})},
                 id="report-no-assertions"),
    pytest.param("report", {"diagnostics.json": "[]"},
                 id="report-list"),
    pytest.param("report", {"diagnostics.json": "{not json"},
                 id="report-not-json"),
    pytest.param("report", {"diagnostics.json": json.dumps(
        {"assertions": [{"name": "gap_nonnegative"}]})},
                 id="report-assertion-incomplete"),
    pytest.param("report", {"diagnostics.json": json.dumps({"assertions": 5})},
                 id="report-assertions-not-list"),
    pytest.param("diagnose-ma", {"phi.csv": "x0,value\n0,abc\n",
                                 "result.json": RESULT_JSON},
                 id="ma-phi-not-numeric"),
    pytest.param("diagnose-ma", {"phi.csv": "x0,value\n",
                                 "result.json": RESULT_JSON},
                 id="ma-phi-header-only"),
    pytest.param("diagnose-ma", {"phi.csv": "value\n0.0\n0.5\n",
                                 "result.json": RESULT_JSON},
                 id="ma-phi-no-coordinates"),
    pytest.param("diagnose-ma", {"phi.csv": PHI_CSV,
                                 "result.json": json.dumps({"seed": 1})},
                 id="ma-no-resolution"),
    pytest.param("diagnose-ma", {"phi.csv": PHI_CSV,
                                 "result.json": "{not json"},
                 id="ma-result-not-json"),
    pytest.param("diagnose-ma", {"phi.csv": PHI_CSV,
                                 "result.json": json.dumps({"resolution": 5})},
                 id="ma-resolution-integer"),
    pytest.param("diagnose-ma", {"phi.csv": PHI_CSV,
                                 "result.json": json.dumps(
                                     {"resolution": "-1/4"})},
                 id="ma-resolution-negative"),
    pytest.param("diagnose-ma", {"phi.csv": PHI_CSV,
                                 "result.json": json.dumps(
                                     {"resolution": True})},
                 id="ma-resolution-bool"),
    pytest.param("diagnose-ma", {"phi.csv": PHI_CSV,
                                 "result.json": json.dumps(
                                     {"resolution": "1/2"})},
                 id="ma-resolution-not-phi-spacing"),
    pytest.param("diagnose-ma", {"phi.csv": PHI_CSV_2D,
                                 "result.json": json.dumps({"resolution": 5})},
                 id="ma-2d-resolution-integer"),
    pytest.param("diagnose-duality", {"config.json": json.dumps(
        {"family": {"kind": "zero"}, "oracel": True})},
                 id="duality-config-key-misspelled"),
])
def test_malformed_run_dir_exit_code(tmp_path, capsys, command, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert cli.main([command, str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("cfg, potential_gap", [
    pytest.param(ABELIAN_CFG, 0.0, id="abelian"),
    # two optimal duals of this grid need not agree up to a constant
    pytest.param({"family": TRIANGLE}, None, id="toric"),
    # a weighted target: the mirror's source is W nu0, not nu0, and the
    # two targets where W = 0, which neither solve determines, are left out
    pytest.param({"family": {**INTERMEDIATE, "d": [1, 2],
                             "resolution": "1/4"}}, 0.0, id="intermediate"),
])
def test_diagnose_duality(tmp_path, capsys, cfg, potential_gap):
    _, out = run_cfg(tmp_path, cfg)
    assert cli.main(["diagnose-duality", out]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["precondition_residual"] == 0.0
    assert payload["functional_gap"] <= 1e-9
    if potential_gap is not None:
        assert payload["potential_gap"] == potential_gap
    assert os.path.exists(os.path.join(out, "duality.json"))
