"""One benchmark process: set-up, then timed passes of one workload.

    python3 perfbench/worker.py --workload beds --seed 7 --seconds 20 \
        --mode timed --work .bench_out/x

Modes: `setup` stops after the set-up; `timed` runs passes in a closed loop
and starts another only while the passes so far predict it ends within
`--seconds` (always at least one); `traced` runs one pass with the layer
tracer installed.  The last stdout line is a JSON record.  The set-up
clock starts before any import, so set-up covers the import of fisshom,
numpy and scipy.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402


def _rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        default="timed")
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(args.work, exist_ok=True)

    import workloads
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer
        tracer = Tracer().install()
    if args.workload == "pipeline":
        instance = workloads.Pipeline(args.seed, args.work)
    else:
        instance = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - T_START
    record = {"setup_s": setup_s, "setup_rss_mb": _rss_mb(), "passes": []}
    if args.mode != "setup":
        t_loop = time.perf_counter()
        while True:
            ops, wall = instance.run_pass()
            record["passes"].append({"wall_s": wall,
                                     "ops": [asdict(op) for op in ops]})
            elapsed = time.perf_counter() - t_loop
            predicted = elapsed * (1 + 1 / len(record["passes"]))
            if args.mode == "traced" or predicted > args.seconds:
                break
    record["peak_rss_mb"] = _rss_mb()
    if tracer is not None:
        tracer.restore()
        last = record["passes"][-1]
        stages = ({op["name"]: op["seconds"] for op in last["ops"]}
                  if args.workload == "pipeline" else None)
        record["trace"] = tracer.metrics(stages, last["wall_s"])
    import numpy
    import scipy
    record["versions"] = {"python": sys.version.split()[0],
                          "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    record["thread_caps"] = {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
