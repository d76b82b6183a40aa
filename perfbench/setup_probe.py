"""Time one `skelot solve` set-up: import, config validation, problem build.

Usage: python3 setup_probe.py <config.json> <launch_ns> <out.json>

Started by run.py in a fresh interpreter, with src/ on PYTHONPATH.  The
set-up time runs from <launch_ns>, the monotonic clock reading the parent
took just before it started this process, until `cli.build_problem` has
returned the TransportProblem.  The marginals written next to it are what
run.py checks each plan's row and column sums against.
"""

import json
import sys
import time


def main(argv) -> int:
    config, launch_ns, out_path = argv
    from skelot import cli
    problem, _ = cli.build_problem(cli.load_config(config))
    built_ns = time.monotonic_ns()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_ns": built_ns - int(launch_ns),
                   "source_mass": [float(w) for w in problem.mu0.weights],
                   "target_mass": [float(w) for w in problem.target_mass]}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
