"""Record the digest of every request of the first seeds of every workload.

    python3 bench/record_digests.py --seeds 20

Run from the repository root, on the commit whose outputs are the reference.
Each request is run and checked as a benchmark run would, and its digest
(count, cumulative probability, min and max logp) is written to
``bench/digests.json``, which ``run.py`` compares results against.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from run import SRC, THREAD_VARS
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=20, help="record seeds 0..N-1")
    args = parser.parse_args()
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    sys.path.insert(0, str(SRC))
    import isoselect
    from harness import check, execute, request_key
    from measure import DIGESTS, OUT

    table = isoselect.load_default()
    OUT.mkdir(exist_ok=True)
    digests = {}
    for name, workload in WORKLOADS.items():
        for seed in range(args.seeds):
            for request in workload.make(seed):
                outcome = execute(request, table, out_path=OUT / f"record-{os.getpid()}.tsv")
                problems, dig = check(request, outcome, table)
                if problems:
                    print(f"{request}: {problems}", file=sys.stderr)
                    return 1
                digests[request_key(request)] = dig
            print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    DIGESTS.write_text(json.dumps(digests, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
