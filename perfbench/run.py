#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --spec        # print BENCHMARK.json

The arguments go to perfbench/bench.exe unchanged; its standard output,
whose last line is the JSON result, and its exit code are passed through.
A failed build exits with code 3 and prints no result.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "dune-project")):
        sys.stderr.write("perfbench: run from the root of the repository "
                         "(no dune-project here)\n")
        return 3
    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env,
        timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 3
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    run = subprocess.run([exe] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
