"""Record the digests that run.py checks a seed's printed results against.

    python3 perfbench/record_digests.py --workload cli --seeds 0-20 101-110

Run it from the root of a checkout whose outputs are known to be right.
For each seed it checks the first round of the workload, as run.py
does, and stores the sha256 digest of the printed results in
``digests.json``.  A seed whose first round has a wrong verdict is not
recorded, and the script exits 1.  Re-record only when a change to the
program's output is intended.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import DIGESTS, WORKDIR, WORKLOADS, Tally, first_round, load


def seeds(specs):
    for spec in specs:
        lo, _, hi = spec.partition("-")
        yield from range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", required=True,
                    help="seeds and ranges such as 0-20")
    args = ap.parse_args(argv)
    wl, ds = load(args.workload)
    fx = wl.setup(ds, WORKDIR)
    try:
        with open(DIGESTS) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    recorded = table.setdefault(wl.name, {})
    status = 0
    for seed in seeds(args.seeds):
        tally = Tally()
        _, _, digest = first_round(wl, ds, fx, seed, tally)
        if tally.failed:
            print(f"seed {seed}: {tally.failed} wrong verdicts, not recorded",
                  file=sys.stderr)
            status = 1
            continue
        recorded[str(seed)] = digest
        print(f"{wl.name} {seed} {digest}", flush=True)
    table[wl.name] = dict(sorted(recorded.items(), key=lambda kv: int(kv[0])))
    with open(DIGESTS, "w") as fh:
        json.dump(dict(sorted(table.items())), fh, indent=1)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
