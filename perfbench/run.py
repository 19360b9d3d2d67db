"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload vanlan_cbr --seed 1 --seconds 30 --trace 0

The workloads and metrics are described in ``workloads.py`` and
``layers.py``; ``BENCHMARK.json`` fixes their names, units and bounds.
With ``--trace 0`` the last line of standard output is one JSON object
carrying every end-to-end metric; with ``--trace 1`` it carries every
per-layer metric instead, and the run's spans are written to
``.bench_build/perfbench/`` once it ends.  The line before it reports
the run: the simulated-output digest, the inputs the seed produced,
the host before the run (``nproc``, 1-minute load, Python and numpy
versions) and every failed check.  The exit code is 0 only when every
output check passed.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("vanlan_cbr", "dieselnet_voip",
                                 "tcp_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import layers
    import workloads
    from repro.experiments.common import available_workers
    from repro.experiments.perf import host_context

    host = dict(host_context(), nproc=available_workers())
    run = workloads.measure(args.workload, args.seed, args.seconds,
                            bool(args.trace), workloads.FULL)
    report = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "digest": run["digest"],
              "inputs": run["inputs"], "reps": run["reps"], "host": host,
              "kernel_s": run["kernel_s"], "raw_e2e": run["raw_e2e"],
              "failures": run["failures"], "absent": run["absent"],
              "not_applicable": run["not_applicable"]}
    if args.trace:
        units = layers.units("per_layer")
        values = run["per_layer"]
        out_dir = os.path.join(ROOT, ".bench_build", "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"report": report, "spans": run["spans"]}, handle)
    else:
        units = layers.units("end_to_end")
        values = run["e2e"]
    correct = run["failed"] == 0
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
