"""Reference scaling series: cold `nkdeform tensor --algebra g2` on
V(k,k) (x) V(k,k), k = 1..5, one process each, run once.

Usage, from the root of a checkout:

    python3 perfbench/scaling.py

Prints one line per k: the wall time of the process, dim V(k,k), and the
number of irreducible summands, each decomposition checked by dimension
and the Casimir trace identity.  Not part of the timed workloads.
"""

import json
import os
import subprocess
import sys
import time

import oracle


def main():
    src = os.path.join(os.path.realpath(os.getcwd()), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    print("k  dim V(k,k)  summands  wall_s")
    for k in range(1, 6):
        hw = "%d,%d" % (k, k)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "nkdeform.cli", "tensor", "--algebra", "g2",
             "--a", hw, "--b", hw, "--format", "json"],
            capture_output=True, text=True, env=env, check=True)
        elapsed = time.perf_counter() - start
        entries = {tuple(e["hw"]): e["mult"]
                   for e in json.loads(proc.stdout)["result"]}
        problem = oracle.tensor_problems(("G2",), (k, k), (k, k), entries)
        if problem:
            sys.exit("k=%d: %s" % (k, problem))
        print("%d  %10d  %8d  %.2f" % (k, oracle.dim(("G2",), (k, k)),
                                       len(entries), elapsed))


if __name__ == "__main__":
    main()
