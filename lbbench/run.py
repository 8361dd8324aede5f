#!/usr/bin/env python3
"""Build lbbench against the checkout it sits in, then run one workload.

Usage, from the root of an lbsim checkout:

    python3 lbbench/run.py --workload <fig12-smoke|chip16-lb|lbsimd-mixed>
                           --seed <n> --seconds <s> --trace <0|1>

The simulator is configured by the repository's own root CMakeLists
(default build: RelWithDebInfo, LTO, LBSIM_CHECKS=full) into the build
directory named by CARGO_TARGET_DIR, or .bench_build by default. The
first run builds; later runs only re-check the build. Build output goes
to standard error, so the last line of standard output is the
benchmark's JSON result. Journals, sockets and artifacts live in a
fresh .bench_work/<pid> directory that is removed afterwards.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A measuring run must end well inside the harness's 180 s limit.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configure (first time) and build the lbbench target; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir])
    steps.append(["cmake", "--build", build_dir, "--target", "lbbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main(argv):
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not build(build_dir):
        print("lbbench: build failed", file=sys.stderr)
        return 1

    work_dir = os.path.join(".bench_work", str(os.getpid()))
    workload = argv[argv.index("--workload") + 1] \
        if "--workload" in argv[:-1] else "run"
    # lbbench validates the arguments; a traced run writes its spans here.
    args = [os.path.join(build_dir, "lbbench")] + argv + [
        "--work-dir", work_dir,
        "--trace-out", os.path.join(build_dir, "trace-%s.json" % workload)]
    try:
        return subprocess.run(args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("lbbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
