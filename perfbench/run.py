#!/usr/bin/env python3
"""Benchmark of `skelot solve`: whole-solve timings and per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload toric-flow --seed 1 --seconds 30 --trace 0

The workloads, their reasons and their reference optima are in
perfbench/workloads.json.  A run writes the workload's config for the seed
into .perfbench/<workload>-seed<n>/ and starts `python3 -m skelot.cli solve`
there from the sources under src/, one process at a time (a closed loop with
one client), with SKELOT_THREADS=1 and one BLAS thread.  For the toric
workloads the seed picks the order in which the polygon's vertices are
listed, which leaves the points, the optimum and the work unchanged; every
workload also passes the seed to `solve --seed`, which draws the abelian
workload's cost-bound samples.

--trace 0 measures for about --seconds seconds: five set-up probes
(perfbench/setup_probe.py), then untraced solves while the next one is
expected to end in time, at least two.  It prints the end-to-end metrics:
solve_s (launch to exit of one solve), setup_s (launch until the
TransportProblem is built) and peak_rss_mb (peak resident memory of a
solve), each a median.

--trace 1 makes one untraced solve and one solve under
perfbench/trace_solve.py, which records a span around each call into a
layer's entry point.  It prints the per-layer metrics (self times, counts
and ratios) and writes the spans with their self times to trace.json in the
run directory.

Every solve is checked: exit code 0, converged, the optimum within 1e-9
relative of the workload's reference, the workload's required assertions
passing, the plan's row and column sums equal to the marginals within 1e-9,
and all output files byte-identical to the first solve of the run.  A solve
that fails any check counts in `failed` (failed_frac = failed / attempted).
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

perfbench/selftest.py checks the benchmark itself in a few seconds, and
perfbench/baseline.json holds the per-layer metrics of one traced run per
workload, measured when the benchmark was added.
"""

import argparse
import copy
import csv
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5
MIN_SOLVES = 2
RUN_LIMIT_S = 170  # a child still running then is killed and its solve fails
VALUE_RTOL = 1e-9
MASS_ATOL = 1e-9

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "process.import_s": "s",
    "families.build_s": "s",
    "polyhedral.quadrature_s": "s",
    "polyhedral.source_points": "count",
    "polyhedral.target_points": "count",
    "cost.exact_cost_s": "s",
    "cost.float_matrix_s": "s",
    "cost.evaluations": "count",
    "cost.us_per_eval": "us",
    "cost.boundary_evaluations": "count",
    "transport.ascent_s": "s",
    "transport.ascent_iterations": "count",
    "transport.transform_s": "s",
    "transport.transform_calls": "count",
    "transport.transform_pairs": "count",
    "transport.mean_zero_s": "s",
    "transport.warm_start_saving": "ratio",
    "flow.solve_s": "s",
    "flow.augmentations": "count",
    "flow.augmentations_cold": "count",
    "flow.ms_per_augmentation": "ms",
    "oracle.lp_s": "s",
    "oracle.simplex_s": "s",
    "oracle.pivots": "count",
    "oracle.ms_per_pivot": "ms",
    "diagnostics.pushforward_s": "s",
    "cost.verify_bounds_s": "s",
    "tropical.val_at_s": "s",
    "tropical.val_at_calls": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- inputs ------------------------------------------------------------------------


def load_workloads() -> dict:
    with open(HERE / "workloads.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


def make_config(spec: dict, seed: int) -> dict:
    """The workload's solve config for this seed, writing into ./out.

    For a toric family the seed picks the order in which the polygon's
    vertices are listed.  A unimodular matrix applied to the polygon would
    also give an isomorphic problem, but it permutes the sorted point order,
    which moves the oracle's pivot count and the flow finisher's time by up
    to 1.7x from seed to seed (1456 to 2435 pivots at 1/32).
    """
    cfg = copy.deepcopy(spec["config"])
    cfg["output_dir"] = "out"
    family = cfg["family"]
    if family["kind"] == "toric":
        random.Random(seed).shuffle(family["delta"])
    return cfg


# -- child processes -----------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", SKELOT_THREADS="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def launch(argv_for, cwd: Path, log: Path, deadline: float) -> dict:
    """Run one Python child to its end; argv_for(launch_ns) gives its argv.

    The child is killed at `deadline` (time.monotonic()).  Returns the exit
    code, launch clock, wall time and peak resident memory.
    """
    with open(log, "wb") as fh:
        launch_ns = time.monotonic_ns()
        proc = subprocess.Popen([sys.executable, *argv_for(launch_ns)],
                                cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end_ns = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"rc": proc.returncode, "launch_ns": launch_ns,
            "wall_s": (end_ns - launch_ns) / 1e9,
            "rss_mb": usage.ru_maxrss * 1024 / 1e6}  # ru_maxrss is in KiB


# -- output checks -------------------------------------------------------------------


def _check_plan(path: Path, marginals: dict) -> list:
    src = [0.0] * len(marginals["source_mass"])
    tgt = [0.0] * len(marginals["target_mass"])
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            mass = float(row["mass"])
            src[int(row["source_index"])] += mass
            tgt[int(row["target_index"])] += mass
    errors = []
    for side, sums in (("source", src), ("target", tgt)):
        worst = max(abs(s - w) for s, w in zip(sums, marginals[side + "_mass"]))
        if not worst <= MASS_ATOL:  # also catches a NaN mass
            errors.append(f"plan {side} sums off by {worst:.3g}")
    return errors


def check_outputs(out: Path, spec: dict, marginals: dict) -> list:
    """Reasons the outputs in `out` are wrong; empty when all checks hold."""
    try:
        with open(out / "result.json", "r", encoding="utf-8") as fh:
            result = json.load(fh)
        with open(out / "diagnostics.json", "r", encoding="utf-8") as fh:
            diag = json.load(fh)
        errors = [] if result["converged"] is True else ["not converged"]
        ref = spec["reference_value"]
        if not abs(result["value"] - ref) <= VALUE_RTOL * abs(ref):
            errors.append(f"value {result['value']!r} differs from {ref!r}")
        passed = {a["name"]: a["pass"] for a in diag["assertions"]}
        for name in spec["required_assertions"]:
            if passed.get(name) is not True:
                errors.append(f"assertion {name} missing or failed")
        if "cost_bounds" in spec["required_assertions"] and \
                diag["diagnostics"]["cost_bounds"]["violations"] != 0:
            errors.append("cost_bounds reports violations")
        return errors + _check_plan(out / "plan.csv", marginals)
    except (OSError, IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable outputs: {exc!r}"]


def digests(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def mark_identity(solves: list) -> None:
    """Every solve of one run must reproduce the first one's files."""
    first = solves[0]["digests"]
    for s in solves[1:]:
        if s["digests"] != first:
            s["errors"].append("outputs differ from the first solve")


# -- spans -----------------------------------------------------------------------------


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of it that child spans cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    own = {}
    for s in spans:
        covered, reach = 0, s["start_ns"]
        for lo, hi in sorted((max(c["start_ns"], s["start_ns"]),
                              min(c["end_ns"], s["end_ns"]))
                             for c in children[s["id"]]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own[s["id"]] = s["end_ns"] - s["start_ns"] - covered
    return own


def layer_self_times(spans: list, own: dict) -> dict:
    """Layer (span name up to the first dot) -> self time in s, over the
    spans that share the first span's solve id."""
    out = defaultdict(float)
    for s in spans:
        if s["solve"] == spans[0]["solve"]:
            out[s["name"].split(".")[0]] += own[s["id"]] / 1e9
    return dict(out)


def layer_metrics(trace: dict, own: dict, solve_s: float,
                  bytes_written: int) -> dict:
    """PER_LAYER metrics of one traced solve; solve_s is the wall time of
    the untraced solve it is compared with."""
    spans = trace["spans"]
    c = defaultdict(int, trace["counters"])

    def self_s(*names):
        return sum(own[s["id"]] for s in spans if s["name"] in names) / 1e9

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    exact_cost_s = self_s("cost.exact_cost")
    flow_s = self_s("flow.solve_transport")
    simplex_s = self_s("oracle.solve_exact")
    aug = c["flow.augmentations"]
    main = next(s for s in spans if s["name"] == "cli.main")
    traced_solve_s = (main["end_ns"] - trace["launch_ns"]) / 1e9
    values = {
        "process.import_s": self_s("process.import"),
        "families.build_s": self_s("families.toric_pair",
                                   "families.mumford_family"),
        "polyhedral.quadrature_s": self_s("polyhedral.quadrature"),
        "polyhedral.source_points": c["polyhedral.source_points"],
        "polyhedral.target_points": c["polyhedral.target_points"],
        "cost.exact_cost_s": exact_cost_s,
        "cost.float_matrix_s": self_s("cost.cost_array"),
        "cost.evaluations": c["cost.evaluations"],
        "cost.us_per_eval": ratio(exact_cost_s,
                                  c["cost.exact_cost.evaluations"], 1e6),
        "cost.boundary_evaluations": c["cost.boundary_evaluations"],
        "transport.ascent_s": self_s("transport.minimize_kontorovich"),
        "transport.ascent_iterations": c["transport.iterations"] - aug,
        "transport.transform_s": self_s("transport.transform"),
        "transport.transform_calls": c["transport.transform_calls"],
        "transport.transform_pairs": c["transport.transform_pairs"],
        "transport.mean_zero_s": self_s("transport.mean_zero"),
        "transport.warm_start_saving":
            1.0 - aug / c["flow.augmentations_cold"]
            if c["flow.augmentations_cold"] else 0.0,
        "flow.solve_s": flow_s,
        "flow.augmentations": aug,
        "flow.augmentations_cold": c["flow.augmentations_cold"],
        "flow.ms_per_augmentation": ratio(flow_s, aug, 1e3),
        "oracle.lp_s": self_s("oracle.lp_oracle"),
        "oracle.simplex_s": simplex_s,
        "oracle.pivots": c["oracle.pivots"],
        "oracle.ms_per_pivot": ratio(simplex_s, c["oracle.pivots"], 1e3),
        "diagnostics.pushforward_s":
            self_s("diagnostics.pushforward_residual"),
        "cost.verify_bounds_s": self_s("cost.verify_cost_bounds"),
        "tropical.val_at_s": self_s("tropical.val_at"),
        "tropical.val_at_calls": c["tropical.val_at_calls"],
        "cli.write_s": self_s("cli.write_json", "cli.write_field_csv",
                              "cli.write_plan_csv"),
        "cli.bytes_written": bytes_written,
        "cli.self_s": self_s("cli.main", "cli.build_problem"),
        "trace.overhead_s": traced_solve_s - solve_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


# -- runs ------------------------------------------------------------------------------


class Run:
    """One benchmark run: a workload, a seed and its run directory."""

    def __init__(self, name: str, spec: dict, seed: int):
        self.spec = spec
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = WORK / f"{name}-seed{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        with open(self.work / "config.json", "w", encoding="utf-8") as fh:
            json.dump(make_config(spec, seed), fh, indent=2)
        # untimed: compiles the bytecode and reads the marginals to check
        self.marginals = self.setup_probe()

    def setup_probe(self) -> dict:
        out = self.work / "setup.json"
        log = self.work / "setup.log"
        run = launch(lambda t0: [str(HERE / "setup_probe.py"), "config.json",
                                 str(t0), str(out)],
                     self.work, log, self.deadline)
        if run["rc"] != 0:
            raise BenchError(f"set-up failed with exit code {run['rc']}; "
                             f"see {log}")
        with open(out, "r", encoding="utf-8") as fh:
            probe = json.load(fh)
        probe["setup_s"] = probe.pop("setup_ns") / 1e9
        return probe

    def solve(self, tag: str, traced: bool = False) -> dict:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        trace_path = self.work / "spans.json"
        seed = str(self.seed)
        if traced:
            argv_for = lambda t0: [str(HERE / "trace_solve.py"), "config.json",
                                   seed, str(t0), str(trace_path)]
        else:
            argv_for = lambda t0: ["-m", "skelot.cli", "solve", "config.json",
                                   "--seed", seed]
        log = self.work / f"{tag}.log"
        run = launch(argv_for, self.work, log, self.deadline)
        if run["rc"] != 0:
            run["errors"] = [f"exit code {run['rc']}; see {log}"]
        else:
            run["errors"] = check_outputs(out, self.spec, self.marginals)
        run["digests"] = digests(out)
        run["bytes"] = sum((out / n).stat().st_size for n in run["digests"])
        if traced and run["rc"] == 0:
            with open(trace_path, "r", encoding="utf-8") as fh:
                run["trace"] = json.load(fh)
        return run

    def untraced(self, seconds: float):
        """Set-up probes, then solves while the next is expected to end
        within `seconds` of the start; at least MIN_SOLVES."""
        start = time.monotonic()
        setups = [self.setup_probe()["setup_s"] for _ in range(SETUP_PROBES)]
        solves = []
        while time.monotonic() < self.deadline and (
                len(solves) < MIN_SOLVES or time.monotonic() - start +
                statistics.median(s["wall_s"] for s in solves) <= seconds):
            solves.append(self.solve(f"solve{len(solves)}"))
        mark_identity(solves)
        samples = {"solve_s": [s["wall_s"] for s in solves],
                   "setup_s": setups,
                   "peak_rss_mb": [s["rss_mb"] for s in solves]}
        metrics = {k: {"value": statistics.median(v), "unit": END_TO_END[k]}
                   for k, v in samples.items()}
        lines = [f"  {k:<12} {metrics[k]['value']:.6g} {END_TO_END[k]}  "
                 f"median of {len(v)}: {' '.join(f'{x:.4g}' for x in v)}"
                 for k, v in samples.items()]
        return solves, metrics, lines

    def traced(self):
        """One untraced solve, then one traced solve of the same config."""
        solves = [self.solve("solve0"), self.solve("traced", traced=True)]
        mark_identity(solves)
        plain, traced = solves
        if "trace" not in traced:
            raise BenchError(f"traced solve failed: {traced['errors']}")
        trace = traced["trace"]
        own = self_times(trace["spans"])
        for s in trace["spans"]:
            s["self_ns"] = own[s["id"]]
        with open(self.work / "trace.json", "w", encoding="utf-8") as fh:
            json.dump(trace, fh, indent=1)
        metrics = layer_metrics(trace, own, plain["wall_s"], traced["bytes"])
        lines = ["  layer self time of the traced solve:"]
        for layer, secs in sorted(layer_self_times(trace["spans"], own).items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"    {layer:<12} {secs:.4f} s")
        lines += [f"  {name:<28} {m['value']:.6g} {m['unit']}"
                  for name, m in metrics.items()]
        return solves, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "skelot" / "cli.py").is_file():
            raise BenchError(f"no skelot sources under {SRC}")
        workloads = load_workloads()
        if args.workload not in workloads:
            raise BenchError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(workloads)}")
        run = Run(args.workload, workloads[args.workload], args.seed)
        solves, metrics, lines = run.traced() if args.trace else \
            run.untraced(args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for s in solves if s["errors"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {len(solves)} solves")
    for line in lines:
        print(line)
    print(f"  failed_frac  {failed / len(solves):.6g}  "
          f"({failed} of {len(solves)} solves)")
    for i, s in enumerate(solves):
        for err in s["errors"]:
            print(f"  solve {i} failed: {err}")
    print(json.dumps({"correct": failed == 0, "attempted": len(solves),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
