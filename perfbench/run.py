#!/usr/bin/env python3
"""Builds and runs the repo benchmark for one workload.

    python3 perfbench/run.py --workload kv_read --seed 7 --seconds 10 --trace 0

Builds perfbench/ (and the simulator libraries under src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset,
then runs the binary. Its report goes to stdout as is; the last line is one
JSON object with the metrics BENCHMARK.json lists for the mode: every
end-to-end metric with --trace 0, every per-layer metric with --trace 1.
Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / base / "perfbench").resolve()


def build(bdir):
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "perfbench",
                  "-j", "4"])
    with open(log, "w") as out:
        for cmd in steps:
            done = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
            if done.returncode:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    names = metric_names(args.trace)
    bdir = build_dir()
    exe = build(bdir)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(bdir)]
    # Its own process group, so a timeout also stops the set-up children.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    missing = [n for n in names if n not in metrics]
    if missing:
        fail("metrics missing from the run: " + ", ".join(missing))
    bad = [n for n in names if not math.isfinite(metrics[n]["value"])]
    if bad:
        fail("non-finite metrics: " + ", ".join(bad))
    for line in lines[:-1]:
        print(line)
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: metrics[n] for n in names},
    }))


if __name__ == "__main__":
    main()
