#!/usr/bin/env python3
"""Build the MOOD benchmark from source and run one workload.

    python3 perfbench/run.py --workload olap --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The benchmark program is built with
dune (into _build) and then replaces this process; its last line of
standard output is the JSON result. The program runs with default OCaml
runtime settings, so OCAMLRUNPARAM is removed from its environment.
"""

import os
import subprocess
import sys

TARGET = "perfbench/main/mood_bench.exe"


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env.pop("OCAMLRUNPARAM", None)
    # Keep every build product inside the checkout.
    env["DUNE_CACHE"] = "disabled"
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet", "./" + TARGET],
        cwd=root,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        sys.exit(build.returncode or 1)
    exe = os.path.join(root, "_build", "default", TARGET)
    os.chdir(root)
    os.execve(exe, [exe] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
