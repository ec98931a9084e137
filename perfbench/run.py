#!/usr/bin/env python3
"""Build and run loopbench, the controller-loop benchmark.

    python3 perfbench/run.py --workload steady_testbed6 --seed 1 \
        --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the bate
library from src/ together with the benchmark (CMake, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls rebuild
incrementally. Build output goes to stderr, so the last line on stdout is the
benchmark's JSON result. --trace 0 runs with BATE_OBS_OFF=1 (end-to-end
metrics); --trace 1 runs the traced pass (per-layer metrics). The exit code is
the benchmark's: non-zero when a build step or an output check fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configures (once) and builds; returns False on any failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("run.py: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        return 1

    env = dict(os.environ, PERFBENCH_SOURCE_ID=source_id())
    if args.selftest:
        cmd = [os.path.join(build_dir, "loopbench_selftest")]
    else:
        cmd = [os.path.join(build_dir, "loopbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace == 0:
            env["BATE_OBS_OFF"] = "1"
        else:
            env.pop("BATE_OBS_OFF", None)
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: loopbench exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
