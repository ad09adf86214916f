#!/usr/bin/env python3
"""End-to-end clone benchmark: build the program from source, run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload clone_fast --seed 1 --seconds 20 --trace 0

Builds `datamime-served` and `datamime-worker` from the workspace and the
`perfbench` harness (perfbench/harness, a package of its own) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the harness with cwd at
the repository root and all scratch files under `.perfbench_run/`, and
relays its output. The last line printed is the JSON result:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer metrics (and writes a Chrome
trace under `.perfbench_run/`). Exits non-zero, printing no result, when
the build or the run fails or the result does not match BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HARNESS = os.path.join("perfbench", "harness", "Cargo.toml")
RUN_DIR = ".perfbench_run"
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cargo_build(target_dir, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if a.workload not in names:
        fail(f"unknown workload {a.workload}; one of {names}")
    if a.seed < 0:
        fail("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        fail("no workspace Cargo.toml next to perfbench/: run from a full checkout")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)
    cargo_build(target_dir, ["-p", "datamime", "--bin", "datamime-worker",
                             "-p", "datamime-serve", "--bin", "datamime-served"])
    cargo_build(target_dir, ["--manifest-path", HARNESS])
    bins = os.path.relpath(os.path.join(target_dir, "release"), ROOT)

    # Relative paths keep the daemon's and broker's Unix socket paths
    # short wherever the checkout lives; every process runs at ROOT.
    work = os.path.join(RUN_DIR, f"{a.workload}-seed{a.seed}-trace{a.trace}")
    tmp = os.path.join(work, "tmp")
    if os.path.exists(work):
        shutil.rmtree(work)
    os.makedirs(tmp)
    env = dict(os.environ, TMPDIR=tmp)
    cmd = [os.path.join(bins, "perfbench"), a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--bins", bins, "--work", work]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        # The harness stops everything it starts; this reaps any straggler
        # of its process group if it died abnormally.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail(f"harness exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(out)
        fail("harness printed no JSON result")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if a.trace else "end_to_end"]}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stdout.write(out)
        fail("harness result does not match the metrics declared in BENCHMARK.json")

    # Keep the trace, drop the rest of the run's scratch files.
    for name in os.listdir(os.path.join(ROOT, work)):
        if name.startswith("trace-"):
            shutil.move(os.path.join(ROOT, work, name), os.path.join(ROOT, RUN_DIR, name))
    shutil.rmtree(os.path.join(ROOT, work), ignore_errors=True)
    print("\n".join(lines[:-1]))
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
