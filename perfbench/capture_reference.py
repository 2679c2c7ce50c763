"""Capture the reference values that the benchmark checks outputs against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/capture_reference.py --seeds 0-31 --jobs 2

For each seed it runs `fisshom all` on the default config with that
`run.base_seed` and stores the exit code, the stage statuses, the data-file
digests and the key scalars (k0, sweep medians, flow and transport residuals
and gaps).  It also stores the manufactured-solution error of the `beds`
workload's dirichlet solve at each bed size, at the default seed.  Seeds
whose run fails a gate are stored as they are.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _one(seed: int, work: str) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from fisshom import cli
    from workloads import read_pipeline_outputs, seeded_config

    out = os.path.join(work, f"capture-{seed}")
    shutil.rmtree(out, ignore_errors=True)
    code = cli.run(seeded_config(seed), "all", out_dir=out,
                   stream=io.StringIO())
    result = read_pipeline_outputs(out)
    shutil.rmtree(out, ignore_errors=True)
    return {"exit_code": code,
            "statuses": {s["name"]: s["status"] for s in result["steps"]},
            "digests": result["digests"], "scalars": result["scalars"]}


def _mms() -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import (BED_SIZES, FlowBC, _mms_error, bed_setup,
                           flow_config, manufactured_flow, solve_limit_flow)

    setup = bed_setup(7)
    errors = {}
    for n in BED_SIZES:
        cfg = flow_config(setup, n)
        p_plus, p_minus, src_p, src_m = manufactured_flow(cfg)
        sol = solve_limit_flow(cfg, FlowBC(kind="dirichlet", p_plus=p_plus,
                                           p_minus=p_minus),
                               source_plus=src_p, source_minus=src_m)
        errors[str(n)] = _mms_error(cfg, sol, p_plus, p_minus)
    return {"k0": setup.k0, "beds_mms_error": errors}


def _seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7",
                        help="seeds to capture, e.g. 0-31 or 3,7,11")
    parser.add_argument("--jobs", type=int, default=1,
                        help="seeds captured at once, one process each")
    parser.add_argument("--work", default=os.path.join(ROOT, ".bench_out"))
    parser.add_argument("--one", type=int, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.makedirs(args.work, exist_ok=True)
    if args.one is not None:
        print(json.dumps(_one(args.one, args.work)))
        return 0

    ref = _mms()
    ref["pipeline"] = {}
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    pending = _seed_list(args.seeds)
    running = []
    while pending or running:
        while pending and len(running) < max(1, args.jobs):
            seed = pending.pop(0)
            proc = subprocess.Popen(
                [sys.executable, __file__, "--one", str(seed),
                 "--work", args.work], stdout=subprocess.PIPE, env=env,
                text=True)
            running.append((seed, proc))
        seed, proc = running.pop(0)
        out, _ = proc.communicate()
        if proc.returncode != 0:
            print(f"seed {seed}: capture failed", file=sys.stderr)
            return 1
        entry = json.loads(out.strip().splitlines()[-1])
        ref["pipeline"][str(seed)] = entry
        print(f"seed {seed}: exit {entry['exit_code']}", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w",
              encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
