"""Run one `skelot solve` with a span around each call into a layer.

Usage: python3 trace_solve.py <config.json> <seed> <launch_ns> <trace.json>

Started by run.py in a fresh interpreter, with src/ on PYTHONPATH.  Each
wrapper sits at the name its caller looks up (for example `skelot.cost.val_at`,
which `verify_cost_bounds` calls, rather than `skelot.tropical.val_at`), so the
package itself is not modified.  Spans are kept in memory and written to
<trace.json> when the solve has ended, together with the counts taken at the
same boundaries.  After the solve, the flow finisher is run once more from a
cold start on the same matrix, as a root span with its own solve id, to
count what the ascent warm start saves.  <launch_ns> is the monotonic clock reading taken by
the parent just before it started this process.
"""

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager

clock = time.monotonic_ns


class Tracer:
    """Nested spans (name, start, end, parent) and counters of one solve."""

    def __init__(self, solve_id: str):
        self.solve_id = solve_id
        self.spans = []
        self.stack = []
        self.counters = Counter()

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans),
               "parent": self.stack[-1] if self.stack else None,
               "name": name, "solve": self.solve_id,
               "start_ns": clock(), "end_ns": None}
        self.spans.append(rec)
        self.stack.append(rec["id"])
        try:
            yield rec
        finally:
            self.stack.pop()
            rec["end_ns"] = clock()

    def wrap(self, owner, attr: str, name: str, on_result=None):
        """Replace owner.attr by a spanned call; on_result(out, args) counts."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = orig(*args, **kwargs)
            if on_result is not None:
                on_result(out, args)
            return out

        setattr(owner, attr, wrapper)
        return orig

    def wrap_first_fill(self, cls, prop: str, cache_attr: str, name: str):
        """Span a cached property only on the call that fills its cache."""
        fget = getattr(cls, prop).fget
        counters = self.counters

        def filled(obj):
            if getattr(obj, cache_attr) is not None:
                return fget(obj)
            evals = counters["cost.evaluations"]
            with self.span(name):
                out = fget(obj)
            counters[name + ".evaluations"] += counters["cost.evaluations"] - evals
            return out

        setattr(cls, prop, property(filled, doc=getattr(cls, prop).__doc__))


def install(tracer: Tracer, state: dict) -> None:
    """Wrap every layer entry point that `skelot solve` reaches."""
    from skelot import _flow, _simplex, cli
    from skelot import cost as co
    from skelot import diagnostics as dg
    from skelot import families as fm
    from skelot import transport as tp

    c = tracer.counters

    def built(out, args):
        problem = out[0]
        state["problem"] = problem
        c["polyhedral.source_points"] = len(problem.mu0.points)
        c["polyhedral.target_points"] = len(problem.nu0.points)

    def minimized(out, args):
        c["transport.iterations"] += out.iterations

    def flowed(out, args):
        c["flow.augmentations"] += out[3]
        state.setdefault("flow_args", args[:3])

    def transformed(out, args):
        c["transport.transform_calls"] += 1
        c["transport.transform_pairs"] += len(args[1].values) * len(out.values)

    def pivoted(out, args):
        c["oracle.pivots"] += out[4]

    def valued(out, args):
        c["tropical.val_at_calls"] += 1

    tracer.wrap(cli, "build_problem", "cli.build_problem", built)
    for name in ("toric_pair", "mumford_family"):
        tracer.wrap(fm, name, "families." + name)
    tracer.wrap(fm, "quadrature", "polyhedral.quadrature")
    tracer.wrap_first_fill(tp.TransportProblem, "exact_cost", "_exact_cost",
                           "cost.exact_cost")
    tracer.wrap_first_fill(tp.TransportProblem, "cost_array", "_cost_array",
                           "cost.cost_array")
    tracer.wrap(tp, "minimize_kontorovich", "transport.minimize_kontorovich",
                minimized)
    tracer.wrap(tp.TransportProblem, "transform", "transport.transform",
                transformed)
    tracer.wrap(tp, "_mean_zero", "transport.mean_zero")
    state["cold_flow"] = tracer.wrap(_flow, "solve_transport",
                                     "flow.solve_transport", flowed)
    tracer.wrap(tp, "lp_oracle", "oracle.lp_oracle")
    tracer.wrap(_simplex, "solve_exact", "oracle.solve_exact", pivoted)
    tracer.wrap(dg, "pushforward_residual", "diagnostics.pushforward_residual")
    tracer.wrap(co, "verify_cost_bounds", "cost.verify_cost_bounds")
    tracer.wrap(co, "val_at", "tropical.val_at", valued)
    for name in ("_write_json", "_write_field_csv", "_write_plan_csv"):
        tracer.wrap(cli, name, "cli" + name.replace("_write", ".write"))

    call = co.CostFunction.__call__

    def counted(self, x, p):
        c["cost.evaluations"] += 1
        return call(self, x, p)

    co.CostFunction.__call__ = counted


def main(argv) -> int:
    config, seed, launch_ns, out_path = argv
    tracer = Tracer(solve_id=f"{config}#seed={seed}#launch={launch_ns}")
    state = {}
    with tracer.span("process.import"):
        from skelot import cli
    install(tracer, state)
    with tracer.span("cli.main"):
        rc = cli.main(["solve", config, "--seed", seed])
    if "problem" in state:
        tracer.counters["cost.boundary_evaluations"] = \
            state["problem"].cost.metadata.get("boundary_evaluations", 0)
    if "flow_args" in state:
        # the unwrapped finisher, under its own id: this call is not part of
        # the solve and must not add to its counters or its layer times
        tracer.solve_id += "#cold"
        with tracer.span("flow.cold_solve"):
            cold = state["cold_flow"](*state["flow_args"])
        tracer.counters["flow.augmentations_cold"] = cold[3]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "launch_ns": int(launch_ns),
                   "spans": tracer.spans, "counters": dict(tracer.counters)},
                  fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
