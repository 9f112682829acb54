"""Benchmark command: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload street_mix --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a traced run.  The last
line of standard output is the result object; the line before it is a
JSON ``info`` record (machine, inputs, per-workload metric aliases,
artifact digest, failed checks).  See ``perfbench/README.md``.
"""

import time

ENTRY_S = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one fresh-process set-up")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {ROOT} holds no src/repro package to benchmark",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")
    if args.setup_probe:
        setup_s = bench.setup_probe(args.workload, args.seed, args.seconds, ENTRY_S)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        report, info = bench.measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            entry_s=ENTRY_S,
        )
    except bench.InvalidRun as error:
        print(f"perfbench: invalid run: {error}", file=sys.stderr)
        return 3
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
