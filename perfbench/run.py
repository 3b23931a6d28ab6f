#!/usr/bin/env python3
"""Build the simulator's host-speed benchmark from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload lenet_step --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

The simulator and the benchmark binary are built (Release) into the directory
named by CARGO_TARGET_DIR, default `.bench_build`, relative to the repository
root. Build output goes to stderr; the benchmark's report goes to stdout and
its last line is the JSON result object. With --trace 1 the span trace is
kept as <build dir>/traces/<workload>-seed<N>.trace.json.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lenet_step", "winograd_fwd", "serve_sweep")
TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_root, target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    cmake_dir = os.path.join(build_root, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", cmake_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", cmake_dir, "--target", target, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(cmake_dir, target)


def run_child(cmd, env):
    """Run to completion. At the timeout, or if this script is interrupted or
    terminated, kill the child's whole process group and wait for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def main():
    # SIGTERM unwinds like an exception, so run_child stops the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own unit tests")
    args = ap.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    env = {k: v for k, v in os.environ.items() if not k.startswith("MLGS_")}

    if args.self_test:
        binary = build(build_root, "test_perfbench")
        sys.exit(subprocess.run([binary], cwd=os.path.dirname(binary),
                                env=env).returncode)
    if not args.workload:
        ap.error("--workload is required")

    binary = build(build_root, "mlgs_perfbench")
    work = os.path.join(build_root, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               # relative: AF_UNIX socket paths are limited to 108 bytes
               "--work-dir", os.path.relpath(work, ROOT)]
        code, out = run_child(cmd, env)
        if code != 0:
            print(out, file=sys.stderr)
            fail("benchmark exited with code %d" % code)
        lines = out.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except ValueError:
            fail("last line is not a JSON result")
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail("malformed result line")
        if args.trace:
            traces = os.path.join(build_root, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.copy(os.path.join(work, "spans.trace.json"),
                        os.path.join(traces, "%s-seed%d.trace.json"
                                     % (args.workload, args.seed)))
        print(lines[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
