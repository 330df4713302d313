#!/usr/bin/env python3
"""Build and run the junkyard benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `perfbench/` (a Cargo package of its own, against the repository's
crates) in release mode into `$CARGO_TARGET_DIR` (default `.bench_build`),
runs the workload, checks that the metrics it reports are exactly the ones
`BENCHMARK.json` names for the mode, and prints the result object as the
last line of standard output. Any build, run or naming failure exits
non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY = "junkyard_perfbench"
# The first build in a fresh checkout compiles every crate; later runs
# reuse it. A run must end within 180 s once built.
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
# What identifies the measured program when no git metadata is around.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", "__pycache__"}


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """SHA-256 over the paths and contents of the sources the build reads."""
    digest = hashlib.sha256()
    for top in SOURCE_ROOTS:
        start = os.path.join(ROOT, top)
        paths = [start] if os.path.isfile(start) else []
        for base, dirs, files in os.walk(start):
            dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
            paths.extend(os.path.join(base, f) for f in sorted(files))
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except OSError:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as err:
        fail(f"cannot read {spec_path}: {err}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from a full checkout of the repository")

    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target_dir):
        target_dir = os.path.join(ROOT, target_dir)
        env["CARGO_TARGET_DIR"] = target_dir
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S, check=False,
    )
    if build.returncode != 0:
        fail("the benchmark did not build", build.returncode or 1)

    started = time.monotonic()
    nproc = len(os.sched_getaffinity(0))
    run = subprocess.run(
        [os.path.join(target_dir, "release", BINARY),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--nproc", str(nproc)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=RUN_TIMEOUT_S, check=False,
    )
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"{args.workload} exited with {run.returncode}", run.returncode or 1)
    result = json.loads(lines[-1])
    table = spec["per_layer"] if args.trace else spec["end_to_end"]
    expected = {m["name"]: m["unit"] for m in table}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or emitted != expected:
        sys.stdout.write(run.stdout)
        fail("the reported metrics do not match BENCHMARK.json", 3)

    for line in lines[:-1]:
        print(line)
    print(f"source: commit {git_commit()} tree {source_digest()}")
    print(f"wall: {time.monotonic() - started:.1f} s for the run after the build")
    print(lines[-1])


if __name__ == "__main__":
    main()
