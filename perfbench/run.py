#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build), the
sweep's spill files to a working directory under it that is removed when the
run ends. The driver's last stdout line is the result JSON; the exit code is
the driver's (non-zero on a failed build or any failed correctness check).
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("wild_population", "saturated_cell", "quiet_fleet")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    """Configures (once) and builds the driver; returns its path or None."""
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build.
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(build_dir), "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                # A failed configure must not leave a cache that skips it next time.
                (build_dir / "CMakeCache.txt").unlink(missing_ok=True)
                return None
    driver = build_dir / "perfbench_driver"
    return driver if driver.exists() else None


def source_id(root):
    """The commit when the checkout is a git repository, else a hash of the
    simulator and benchmark sources (the tree the driver was built from)."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:12]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = root / build_root
    driver = build(bench_dir, build_root / "perfbench")
    if driver is None:
        log("build failed")
        return 1

    work_dir = build_root / "perfbench-work" / f"{args.workload}-{os.getpid()}"
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--commit", source_id(root)]
    # The call count scales with --seconds; the rest (set-up probes, checks,
    # the traced run's per-layer drivers) takes well under a minute.
    timeout_s = 60 + 4 * args.seconds
    # Its own session, so a timeout takes the forked fleet workers down too.
    process = subprocess.Popen(command, start_new_session=True)
    try:
        code = process.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        log(f"driver exceeded {timeout_s} s")
        code = 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
