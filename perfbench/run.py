#!/usr/bin/env python3
"""Build the simulator from source and run the repository benchmark.

    python3 perfbench/run.py --workload <os2-apps|fs-sync|net-ingest> \
        --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  The build goes to .bench_build/
in the checkout; traced runs also write their spans there.  The last
line of standard output is the JSON result (see perfbench/README.md).
"""

import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def arg(args, name):
    """The value after [name] in [args], or None."""
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return None


def main(argv):
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s not found: run from a checkout of the repository" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR,
             "--cache=disabled", "--display=quiet", "./perfbench/main.exe"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build did not finish: %s" % e)
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        fail("build failed")
    args = list(argv)
    if arg(args, "--trace") == "1":
        # one spans file per workload: the latest traced run's
        workload = arg(args, "--workload") or ""
        if not re.fullmatch(r"[a-z0-9-]+", workload):
            workload = "unknown"
        os.makedirs(BUILD_DIR, exist_ok=True)
        args += ["--spans", os.path.join(BUILD_DIR, "spans-%s.jsonl" % workload)]
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in %d s" % RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
