"""Bit-exact outputs across commits: the benchmark's three workloads, solved
in-process at seed 1 as `perfbench/run.py` builds them, must write files
whose sha256 digests equal the ones recorded in `seed1_digests.json`.

A change that moves any byte of these files (a value, a potential, the plan
or a diagnostic) fails here; if the move is intended, record the new
digests with `PYTHONPATH=src python tests/test_seed_outputs.py` and say
why in CHANGES.md.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from skelot import cli

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "seed1_digests.json"
FILES = ("result.json", "phi.csv", "phic.csv", "plan.csv", "diagnostics.json")


def _perfbench_run():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", HERE.parent / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def solve_digests(name: str, workdir: Path) -> dict:
    """sha256 of each output file of workload `name` solved at seed 1 in
    workdir, with the config `make_config(spec, 1)` makes."""
    run = _perfbench_run()
    cfg = run.make_config(run.load_workloads()[name], 1)
    (workdir / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert cli.main(["solve", str(workdir / "config.json"), "--seed", "1"]) == 0
    out = workdir / cfg["output_dir"]
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest()
            for f in FILES}


@pytest.mark.parametrize("name", sorted(_perfbench_run().load_workloads()))
def test_seed1_outputs_are_byte_identical(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)  # output_dir "out" is relative to the run
    assert solve_digests(name, tmp_path) == \
        json.loads(DIGESTS.read_text())[name]


if __name__ == "__main__":
    import os
    import tempfile

    digests = {}
    for name in sorted(_perfbench_run().load_workloads()):
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            digests[name] = solve_digests(name, Path(tmp))
            os.chdir(HERE)
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n", encoding="utf-8")
