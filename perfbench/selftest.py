#!/usr/bin/env python3
"""Fast self-test of the benchmark on the toric pair at resolution 1/4.

Run from the repository root (about ten seconds):

    python3 perfbench/selftest.py

It checks that an untraced and a traced run emit exactly the metrics that
BENCHMARK.json lists, that a corrupted optimum in result.json makes the solve
count as failed, and that the self times of the traced solve's spans add up
to its root span.  Exits 1 and names each failed check otherwise.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

TINY = {
    "why": "toric pair at 1/4 (12x36) with the oracle, for the self-test",
    "config": {
        "family": {"kind": "toric", "resolution": "1/4",
                   "delta": [[-1, -1], [2, -1], [-1, 2]]},
        "solver": {"method": "auto"},
        "oracle": True,
    },
    "reference_value": 1.020833333333333,
    "required_assertions": ["strong_duality"],
}
SEED = 7


def main() -> int:
    failures = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    with open(bench.ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        declared = json.load(fh)
    for key, emitted in (("end_to_end", bench.END_TO_END),
                         ("per_layer", bench.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in declared[key]}
        check(listed == emitted, f"BENCHMARK.json {key} differs from run.py")

    run = bench.Run("selftest", TINY, SEED)
    solves, metrics, _ = run.untraced(0.0)
    check(len(solves) == bench.MIN_SOLVES, "untraced run made too few solves")
    check(not any(s["errors"] for s in solves),
          f"clean solves failed: {[s['errors'] for s in solves]}")
    check(set(metrics) == set(bench.END_TO_END), "end-to-end metric names")
    check(all(m["value"] > 0 for m in metrics.values()),
          "an end-to-end metric is not positive")

    work = run.work
    result_path = work / "out" / "result.json"
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["value"] *= 1 + 1e-6
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    corrupted = {"errors": bench.check_outputs(work / "out", TINY, run.marginals),
                 "digests": bench.digests(work / "out")}
    check(any("value" in e for e in corrupted["errors"]),
          "a corrupted value passed the output checks")
    bench.mark_identity([solves[0], corrupted])
    check(any("differ" in e for e in corrupted["errors"]),
          "a corrupted file passed the byte-identity check")

    solves, metrics, _ = bench.Run("selftest", TINY, SEED).traced()
    check(not any(s["errors"] for s in solves),
          f"traced run failed: {[s['errors'] for s in solves]}")
    check(set(metrics) == set(bench.PER_LAYER), "per-layer metric names")
    check(metrics["polyhedral.source_points"]["value"] == 12 and
          metrics["polyhedral.target_points"]["value"] == 36, "point counts")
    check(metrics["oracle.pivots"]["value"] > 0, "oracle pivots not counted")
    check(metrics["flow.augmentations"]["value"] > 0,
          "flow augmentations not counted")

    with open(work / "trace.json", "r", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    root = next(s for s in spans if s["name"] == "cli.main")
    inside = {root["id"]}
    for s in spans:  # parents precede their children
        if s["parent"] in inside:
            inside.add(s["id"])
    total_self = sum(s["self_ns"] for s in spans if s["id"] in inside)
    check(total_self == root["end_ns"] - root["start_ns"],
          "self times do not add up to the root span")
    check(len({s["solve"] for s in spans if s["id"] in inside}) == 1,
          "the spans of one solve carry several solve ids")

    for what in failures:
        print(f"selftest FAILED: {what}")
    if not failures:
        print("selftest ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
