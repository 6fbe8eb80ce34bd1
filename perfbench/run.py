#!/usr/bin/env python3
"""Build the txnlfs benchmark from source and run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload tpcb-kernel-cleaning --seed 1 --seconds 30 --trace 0

Every argument is passed to perfbench/bench.exe; see perfbench/README.md.
The last line of standard output is the run's JSON result. Build output
goes to standard error. The build lands in _build/ of the checkout and
dune's shared cache is disabled, so nothing is written outside it.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def find_dune():
    """The command that runs dune: on PATH, in the current opam switch, or
    through opam itself."""
    dune = shutil.which("dune")
    if dune:
        return [dune]
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    if prefix and os.access(os.path.join(prefix, "bin", "dune"), os.X_OK):
        return [os.path.join(prefix, "bin", "dune")]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.stderr.write("perfbench: no txnlfs sources next to perfbench/ "
                         "(dune-project and lib/ are missing)\n")
        return 2
    dune = find_dune()
    if dune is None:
        sys.stderr.write("perfbench: dune not found on PATH\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        dune + ["build", "--root", ROOT, "./perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
