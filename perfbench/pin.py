"""Pin the reference results the benchmark checks every run against.

    python3 perfbench/pin.py

Runs each workload once per pinned seed (``PINNED_SEEDS``: the CLI's
default seed and one held-out seed) at full size, in a fresh worker
process, and writes the result fingerprints with their input sizes to
``reference.json``.  Re-pin only when a change is meant to alter a
study's result, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import results
import workloads
from run import run_worker

#: the CLI's default seed, and a seed held out while the workloads were
#: chosen
PINNED_SEEDS = (2014, 7)


def main() -> int:
    references = {}
    for name in sorted(workloads.WORKLOADS):
        for seed in PINNED_SEEDS:
            report = run_worker(name, seed, "full", False, None,
                                timeout=600.0)
            if report.get("error") or report.get("violations"):
                print(f"{name} seed {seed}: not pinned: "
                      f"{report.get('error') or report['violations']}",
                      file=sys.stderr)
                return 1
            references.setdefault(name, {})[str(seed)] = {
                "size": workloads.WORKLOADS[name].sizes["full"],
                "fingerprint": report["fingerprint"],
            }
            print(f"{name} seed {seed}: {len(report['fingerprint'])} values")
    with open(results.REFERENCE_PATH, "w") as fh:
        json.dump(references, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
