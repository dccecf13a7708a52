"""Benchmark entry point: one workload, one seed, one fresh process.

Usage, from the repository root::

    python3 perfbench/run.py --workload coat-rounds --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A summary with
the run's digest, counts, failed checks and wall-time figures goes to
standard error.  Exits 2 without a result when the library's sources are
not beside the benchmark.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS thread, set before numpy is first imported: with two OpenBLAS
# threads a Coat-shaped step used about twice its wall time in CPU time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "distilrec" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'distilrec'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    trace_path = HERE / "traces" / f"{args.workload}-seed{args.seed}.json" if args.trace else None
    result = pipeline.run_workload(pipeline.WORKLOADS[args.workload], args.seed, args.seconds,
                                   bool(args.trace), HERE / ".work", trace_path=trace_path)
    summary = {"workload": args.workload, "seed": args.seed, "digest": result.digest,
               "counts": vars(result.counts), "failures": result.failures,
               "time": result.timing}
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
