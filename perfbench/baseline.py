"""Reproduce the ROADMAP Baseline table, and the end-to-end table, in one command.

    python3 perfbench/baseline.py [--seed N] [--seconds S] [--out BENCH.json]

Runs every workload untraced and then traced, one program process at a
time, so it never runs more processes at once than the machine has
cores. Prints the machine facts (nproc, Python version, CPU model), each
workload's end-to-end metrics with unit, sample count and quartiles, and
the Baseline rows taken from the traced runs. --out also writes all of it
as JSON.
"""

import argparse
import json
import os
import platform
import sys

import run


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "cpu": model}


# (row, workload, traced, metric), in the order of ROADMAP's Baseline table
BASELINE_ROWS = (
    ("JSONL parse + ordering checks (iter_events)", "uniform", True, "ingest.iter_events.events_per_s"),
    ("scan, uniform", "uniform", True, "detector.scan.events_per_s"),
    ("scan, hub", "hub", True, "detector.scan.events_per_s"),
    ("scan probes per event, hub", "hub", True, "detector.scan.probes_per_event"),
    ("detect_accidental, uniform", "uniform", True, "detector.detect_accidental.s"),
    ("EventStore build, campaigns", "campaigns", True, "ingest.EventStore.s"),
    ("group_economics, campaigns", "campaigns", True, "analytics.group_economics.s"),
    ("peak RSS, report on uniform", "uniform", False, "peak_rss_mb"),
    ("peak RSS, report on hub", "hub", False, "peak_rss_mb"),
    ("peak RSS, report on campaigns", "campaigns", False, "peak_rss_mb"),
    ("addrgen key derivation", "mining", True, "addrgen.derive_address.per_s"),
    ("Keccak-256 alone", "mining", True, "keccak.keccak256.per_s"),
    ("scalar_base_mult alone", "mining", True, "secp256k1.scalar_base_mult.per_s"),
    ("secp256k1 base table build", "mining", True, "secp256k1.base_table.s"),
)


def main(argv=None) -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="also write the results to this JSON file")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(run.SRC))

    facts = machine()
    print(f"machine: nproc {facts['nproc']}, Python {facts['python']}, CPU {facts['cpu']}")
    results: dict[bool, dict] = {False: {}, True: {}}
    for traced in (False, True):
        # every workload, those BENCHMARK.json leaves out too: the table
        # needs uniform
        for name in run.WORKLOADS:
            result = run.run_workload(name, args.seed, args.seconds, traced)
            run.describe(result)
            results[traced][name] = result
    print("\nBaseline")
    print(f"| {'layer':<44} | {'workload':<9} | {'value':>12} | unit |")
    for row, workload, traced, metric in BASELINE_ROWS:
        m = results[traced][workload]["metrics"][metric]
        print(f"| {row:<44} | {workload:<9} | {m['value']:>12.6g} | {m['unit']} |")
    failed = [r["workload"] for part in results.values() for r in part.values() if not r["correct"]]
    if args.out:
        payload = {
            "machine": facts,
            "seed": args.seed,
            "seconds": args.seconds,
            "end_to_end": results[False],
            "per_layer": results[True],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if failed:
        print(f"output checks failed on: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
