"""Opt-in scaling sweep; not part of the gated benchmark.

    python3 bench/sweep.py [--quantum 2 3 4] [--classical 3 4 5 6 7]

Runs ``structures.check_preorder`` on the identity relation once per size:
on one quantum atom of dimension d, and on a classical set of n elements.
These are the sizes behind the "Baselines" of ROADMAP.md, against which the
roadmap's storage and batching items state their targets.  d=4 takes minutes
and about 2 GB of memory; d=5 does not fit in memory before those items
land.  Prints one JSON object per size.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quantum", type=int, nargs="*", default=[2, 3, 4], metavar="D")
    parser.add_argument("--classical", type=int, nargs="*", default=[3, 4, 5, 6, 7], metavar="N")
    args = parser.parse_args()
    threads = str(len(os.sched_getaffinity(0)))
    os.environ.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
    os.environ.pop("QREL_TOL", None)
    sys.path.insert(0, str(ROOT / "src"))
    from qrel import qset as q, structures as st  # after pinning the BLAS threads

    cases = [("quantum", d, q.atoms([d], ["x"])) for d in args.quantum]
    cases += [("classical", n, q.classical([f"e{i}" for i in range(n)])) for n in args.classical]
    for kind, size, x in cases:
        t = time.perf_counter()
        report = st.check_preorder(q.identity(x))
        seconds = time.perf_counter() - t
        print(json.dumps({"kind": kind, "size": size, "seconds": seconds,
                          "passed": report.passed, "threads": threads}), flush=True)
        if not report.passed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
