#!/usr/bin/env python3
"""Regenerates simbench/reference.json: the modeled outputs of every
simulation point, captured from the current source tree.

    python3 simbench/capture_reference.py

Run it only on a commit whose modeled outputs are known good (they must not
move in a change that claims only a speed-up). wan_record, wan_overshoot and
lan_ladder do not depend on the seed; fabric_mix's RPC churn does, so its
outputs are stored for seeds 0..FABRIC_SEEDS-1 and other seeds fall back to
shard invariance, exact ledgers and rerun identity.
"""

import json
import sys

import run

FABRIC_SEEDS = 64


def capture(workload, seed):
    records = run.run_binary(workload, seed, 1, 0)
    op = next(r for r in records if r["kind"] == "op")
    bad = [p for p in op["points"] if p["problem"]]
    if bad:
        raise SystemExit("%s seed %d: %s" % (workload, seed, bad[0]))
    return {p["key"]: p["outputs"] for p in op["points"]}


def main():
    run.build()
    reference = {}
    for workload in ("wan_record", "wan_overshoot", "lan_ladder"):
        run.log("capturing", workload)
        reference[workload] = {"seed_independent": True,
                               "points": capture(workload, 0)}
    seeds = {}
    for seed in range(FABRIC_SEEDS):
        run.log("capturing fabric_mix seed", seed)
        seeds[str(seed)] = capture("fabric_mix", seed)
    reference["fabric_mix"] = {"seed_independent": False, "seeds": seeds}
    with open(run.REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
