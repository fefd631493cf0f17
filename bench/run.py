"""blockcomm benchmark: one workload (or all) on inputs drawn from a seed.

    python3 bench/run.py --workload local-asbm --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a checkout. For each workload this draws the inputs
(edge list, planted communities, operation list) from --seed into
bench/_work/, runs the workload in a fresh child process with BLAS threads
pinned to 1, checks every operation's output, writes the full record to
bench/results/ and prints the metrics. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}; with --trace 0 the
metrics are end-to-end ones, with --trace 1 per-layer ones. The exit code is
non-zero when any operation failed or the checkout holds no program.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from sampler import write_inputs
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 170
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def commit(root):
    """HEAD of the checkout's own git repository, or None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256(src):
    """One hash over the program's source files, for checkouts without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_workload(wl, seed, seconds, trace):
    """Draw inputs, run the child, return its record plus the environment."""
    work = BENCH / "_work" / f"{wl.name}-{seed}-{trace}"
    try:
        hashes = write_inputs(wl.graph, wl.kind, wl.op_list, seed, work)
        cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
               "--inputs", str(work), "--workload", wl.name,
               "--seconds", str(seconds), "--trace", str(trace)]
        env = dict(os.environ, PYTHONHASHSEED="0", **SINGLE_THREAD)
        started = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - started
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{wl.name}: worker exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record.update(seed=seed, seconds=seconds, child_wall_s=wall, inputs_sha256=hashes,
                  why=wl.why)
    return record


def print_metrics(record):
    head = (f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
            f"attempted={record['attempted']} failed={record['failed']} "
            f"failed_frac={record['failed_frac']:.4g} digest={record['digest'][:16]}")
    print(head)
    for name, m in record["metrics"].items():
        print(f"#   {name} = {m['value']} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "blockcomm" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'blockcomm'} is missing",
              file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = {"commit": commit(ROOT), "source_sha256": source_sha256(ROOT / "src"),
           "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    exit_code = 0
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace)
        record["environment"] = env
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print_metrics(record)
        correct = record["failed"] == 0
        exit_code = exit_code or (0 if correct else 1)
        print(json.dumps({"correct": correct, "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": record["metrics"]}),
              flush=True)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
