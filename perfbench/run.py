#!/usr/bin/env python3
"""Build and run the benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (CMake, Release) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs the
binary with the same arguments plus --trace-out <build>/trace.json. The
binary's last stdout line is the JSON result; the traced run (--trace 1)
writes its spans there as Chrome trace_event JSON.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: simulator sources not found at %s/src" % ROOT,
              file=sys.stderr)
        return 2
    build = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                       os.path.join(ROOT, ".bench_build"))),
        "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr[-4000:])
            print("perfbench: build failed: %s" % " ".join(cmd), file=sys.stderr)
            return 2

    args = sys.argv[1:] + ["--trace-out", os.path.join(build, "trace.json")]
    return subprocess.run([os.path.join(build, "perfbench")] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
