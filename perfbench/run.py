"""Edit-to-result benchmark: one command, three workloads.

    python3 perfbench/run.py --workload eager-mix --seed 1 --seconds 30 --trace 0

``--workload all`` runs every workload, each in a fresh process.
``--trace 1`` is the traced run: per-layer spans and counters instead of
the end-to-end metrics.  ``--smoke`` shrinks inputs for a quick check.
The last line of standard output is one JSON object; see README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import common
from common import Result

WORKLOADS = ("eager-mix", "lazy-burst", "durable-serve")


def spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(common.SRC, "repro")):
        print(f"perfbench: no program sources under {common.SRC}", file=sys.stderr)
        return 2
    common.strip_repro_env()
    sys.path.insert(0, common.SRC)
    bench = spec()
    result = Result()
    if args.workload == "durable-serve":
        import durable_serve

        durable_serve.run(args, result)
    else:
        import inproc

        inproc.run(args.workload, args, result)

    print(json.dumps({"provenance": common.provenance(), "workload": args.workload,
                      "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "smoke": args.smoke}))
    for line in result.failures:
        print(f"FAILED: {line}")
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in bench["per_layer"]]
        values = {name: float(result.layers.get(name, 0.0)) for name, _ in wanted}
        extra = sorted(set(result.layers) - {name for name, _ in wanted})
        for name in extra:
            print(f"layer {name} = {result.layers[name]:.6g}")
    else:
        wanted = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
        values = {name: float(result.e2e[name][0]) for name, _ in wanted}
    for name, rec in result.report.items():
        print(f"{args.workload} {name} = {rec['value']:.6g} {rec['unit']} (n={rec['samples']})")
    share = result.failed / result.attempted if result.attempted else 1.0
    print(f"{args.workload} failed_ops_share = {share:.6g} ratio "
          f"({result.failed}/{result.attempted})")
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process with a clean environment."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=common.ROOT, env=common.clean_env(),
                              timeout=900)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs; writes only to the scratch directory")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
