"""Run one burnback benchmark workload and print its result.

    python3 perfbench/run.py --workload star --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: the benchmark imports the package from
that checkout's src/.  Workloads are circle-dense and star (see
BENCHMARK.json and README.md).  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.  The
line before it records the seed, the environment and every pass checked.
A traced run also writes its spans to .bench_out/ in the checkout.
"""

import os

# Pin BLAS and OpenMP to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "burnback" / "__init__.py").is_file():
        print(f"perfbench: no burnback package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import bench

    cold_import_s = time.perf_counter() - t0
    if Path(bench.burnback.__file__).resolve().parent != SRC / "burnback":
        print(f"perfbench: imported burnback from {bench.burnback.__file__}", file=sys.stderr)
        return 2
    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    result, context, tracer = bench.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), cold_import_s
    )
    if tracer.enabled:
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"context": context, "spans": tracer.dump()}))
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
