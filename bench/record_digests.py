"""Record the SHA-256 of each workload's CSV at its fixed ensemble size.

    python3 bench/record_digests.py

writes ``digests.json``, which ``run.py`` uses as the output gate: a
repetition whose CSV differs from the recorded digest fails.  Run it only
at a commit whose outputs are trusted; the simulators promise byte-stable
CSVs for a given spec and seed, so later commits must reproduce these.
Seeds: the default 12345, 0-31 for quick checks, and the held-out seed
HELD_OUT, kept for confirming a claimed gain on a seed not used while
the change was written.
"""

from __future__ import annotations

import json
import sys

import run
import workload

HELD_OUT = 20260917
SEEDS = [run.DEFAULT_SEED, *range(32), HELD_OUT]


def main() -> int:
    digests = {}
    for name, (preset, runs) in run.WORKLOADS.items():
        sha = {}
        for seed in SEEDS:
            result = workload.measure(preset, seed, runs, trace=False)
            if not result["finite"]:
                raise SystemExit(f"{name} seed {seed}: non-finite CSV, nothing recorded")
            sha[str(seed)] = result["csv_sha256"]
            print(f"{name} seed {seed}: {sha[str(seed)]}", flush=True)
        digests[name] = {"preset": preset, "runs": runs, "sha256": sha}
    with open(run.HERE / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
