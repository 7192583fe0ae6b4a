"""Smoke test of the benchmark itself, in well under a minute.

    python3 perfbench/smoke.py

Runs every workload run.py knows, those BENCHMARK.json leaves out too, at
a tiny size, untraced and traced, and asserts that each run passes its
output checks and prints every metric BENCHMARK.json names with that
metric's unit. Then checks that the benchmark refuses to run, and prints
no result, in a directory holding only BENCHMARK.json and the benchmark's
files.
"""

import json
import shutil
import subprocess
import sys

import run

SECONDS = 1.0


def _fail(message: str) -> None:
    print(f"smoke: FAILED {message}", file=sys.stderr)
    sys.exit(1)


def check_workloads(spec: dict) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[section]}
        for name in run.WORKLOADS:
            result = run.run_workload(name, 0, SECONDS, trace, scale="tiny")
            line = json.loads(run.contract_line(result))
            label = f"{name} trace {int(trace)}"
            if set(line) != {"correct", "attempted", "failed", "metrics"}:
                _fail(f"{label}: result keys {sorted(line)}")
            if not line["correct"] or line["failed"] or line["attempted"] < 1:
                _fail(f"{label}: {result['problems']}")
            got = {name: m["unit"] for name, m in line["metrics"].items()}
            if got != wanted:
                _fail(f"{label}: metrics {got} differ from BENCHMARK.json {wanted}")
            print(f"smoke: {label} ok, {line['attempted']} runs", flush=True)


def check_refuses_without_program(spec: dict) -> None:
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(run.ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    try:
        done = subprocess.run(
            [*spec["command"], "--workload", spec["workloads"][0]["name"],
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    if done.returncode == 0 or '"correct"' in done.stdout:
        _fail(f"ran without the program: exit {done.returncode}, output {done.stdout!r}")
    print(f"smoke: refuses without the program, exit {done.returncode}")


def main() -> None:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_workloads(spec)
    check_refuses_without_program(spec)
    print("smoke: ok")


if __name__ == "__main__":
    main()
