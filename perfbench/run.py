"""fisshom benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload pipeline --seed 7 --seconds 20 --trace 0

Run it from the repository root; it runs the package from `src/`.  Each
run starts fresh worker processes (see worker.py) with BLAS and OpenMP
threads capped at the CPU count:

  --trace 0  one timed worker plus two set-up-only workers; prints the
             end-to-end metrics (medians over passes and set-ups).
  --trace 1  one untraced and one traced worker, one pass each, side by
             side (threads capped at half the CPUs each) when there are
             two CPUs or more; prints the per-layer metrics and the
             tracing overhead, and checks that both produced identical
             outputs.

Before the result it prints the environment and one line per metric; the
last stdout line is the JSON result {correct, attempted, failed, metrics}.
Workloads, metrics and their mapping are described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipeline", "beds", "beds_advective")
SETUP_SAMPLES = 3
# every worker must end this long after the run started (the run as a
# whole has 180 s)
DEADLINE_S = 175.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_spec() -> dict:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def thread_env(root: str, threads: int) -> dict:
    n = str(threads)
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = n
    return env


def git_commit(root: str) -> str | None:
    """HEAD of a git checkout, read without running git; None elsewhere."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_lines(root: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def run_workers(root: str, env: dict, args, jobs, work: str,
                deadline: float) -> list[dict]:
    """Run one worker per (mode, seconds) job, all at once, and return
    their records.  A worker still running at the deadline is killed; every
    worker is waited for before this returns."""
    os.makedirs(work, exist_ok=True)
    procs = []
    try:
        for i, (mode, seconds) in enumerate(jobs):
            cmd = [sys.executable, os.path.join(HERE, "worker.py"),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", repr(seconds), "--mode", mode,
                   "--work", os.path.join(work, str(i))]
            out = os.path.join(work, f"worker-{i}.out")
            err = os.path.join(work, f"worker-{i}.err")
            with open(out, "w") as fo, open(err, "w") as fe:
                procs.append((mode, out, err, subprocess.Popen(
                    cmd, cwd=root, env=env, stdout=fo, stderr=fe)))
        for mode, _, _, proc in procs:
            proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a worker did not end within {DEADLINE_S} s of "
                         "the start") from exc
    finally:
        for _, _, _, proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    records = []
    for mode, out, err, proc in procs:
        if proc.returncode != 0:
            with open(err, encoding="utf-8") as fh:
                raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                                 + fh.read()[-4000:])
        with open(out, encoding="utf-8") as fh:
            records.append(json.loads(fh.read().strip().splitlines()[-1]))
    return records


def _ops(record: dict) -> list[dict]:
    return [op for p in record["passes"] for op in p["ops"]]


def check_repeats(records: list[dict]):
    """Fail every repeat of an operation whose output digest differs from
    the first one (passes of one worker, or untraced against traced)."""
    first: dict = {}
    for record in records:
        for op in _ops(record):
            if first.setdefault(op["name"], op["digest"]) != op["digest"]:
                op["ok"] = op["correct"] = False
                op["detail"].append("output differs from its first repeat")


def end_to_end(record: dict, setups: list[float]) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in record["passes"]),
        "setup_s": statistics.median(setups),
        "setup_rss_mb": record["setup_rss_mb"],
        "peak_rss_mb": record["peak_rss_mb"],
    }


def measure(args, root: str) -> tuple[dict, list[dict]]:
    deadline = time.monotonic() + DEADLINE_S
    env = thread_env(root, nproc())
    work = os.path.join(root, ".bench_out", f"{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            # Side by side when there are CPUs for both: a traced pipeline
            # pass after an untraced one would not fit in the run's 180 s.
            jobs = [("timed", 0.0), ("traced", 0.0)]
            if nproc() >= 2:
                base, traced = run_workers(
                    root, thread_env(root, nproc() // 2), args, jobs, work,
                    deadline)
            else:
                base, traced = (run_workers(root, env, args, [job], work,
                                            deadline)[0] for job in jobs)
            records = [base, traced]
            metrics = dict(traced["trace"])
            metrics["bench.trace_overhead_s"] = (
                traced["passes"][0]["wall_s"] - base["passes"][0]["wall_s"])
        else:
            timed, = run_workers(root, env, args, [("timed", args.seconds)],
                                 work, deadline)
            setups = [timed["setup_s"]]
            for _ in range(SETUP_SAMPLES - 1):
                setups += [r["setup_s"] for r in run_workers(
                    root, env, args, [("setup", 0.0)], work, deadline)]
            records = [timed]
            metrics = end_to_end(timed, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass    # another run still uses it
    check_repeats(records)
    return metrics, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "fisshom",
                                       "__init__.py")):
        print("perfbench: run from the repository root (src/fisshom "
              "not found)", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: the seed must be nonnegative", file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        metrics, records = measure(args, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    ops = [op for r in records for op in _ops(r)]
    failed = [op for op in ops if not op["ok"]]
    correct = all(op["correct"] for op in ops)
    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "passes": [len(r["passes"]) for r in records],
           "nproc": nproc(), "thread_caps": records[0]["thread_caps"],
           "git_commit": git_commit(root), "src_lines": src_lines(root)}
    env.update(records[0]["versions"])
    print("env " + json.dumps(env, sort_keys=True))
    for op in failed:
        print(f"failed {op['name']}: {'; '.join(op['detail'])}")

    spec_metrics = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in spec_metrics} != set(metrics):
        print("perfbench: measured metrics do not match BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in spec_metrics})}",
              file=sys.stderr)
        return 1
    out = {}
    for entry in spec_metrics:
        value = metrics[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"metric {entry['name']} = {value!r} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
