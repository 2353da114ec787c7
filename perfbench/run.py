#!/usr/bin/env python3
"""Build and run the benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <paper|hot_sharded|durable> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR
(default `.bench_build`), runs it with the given arguments, and passes
its output through: the last line of standard output is the JSON result.
Cache directories of the `durable` workload live under `.bench_work/` in
the checkout and are removed afterwards. Exits non-zero, without a
result line, when the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def build(target_dir):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr so stdout carries only the result.
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return done.returncode == 0


def main():
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target_dir, "release", "perfbench")
    work_dir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    try:
        done = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], cwd=ROOT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it, or it never existed
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
