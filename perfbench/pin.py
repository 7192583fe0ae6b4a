"""Record the input and output digests of the full-size workloads.

    python3 perfbench/pin.py FIRST_SEED LAST_SEED

For each workload and each seed in the range, builds the inputs, runs the
program once and checks its outputs, then writes every digest to
expected.json. A later run on a pinned seed must reproduce them: other
inputs mean the generators changed, other outputs mean the program did.
"""

import json
import shutil
import sys

import run


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    sys.path.insert(0, str(run.SRC))
    import workloads

    pins = {}
    for name in run.WORKLOADS:
        for seed in range(first, last + 1):
            run_dir = run.run_dir_for(name, seed, "full")
            shutil.rmtree(run_dir, ignore_errors=True)
            try:
                wl = workloads.build(name, seed, "full", run_dir / "inputs", run.ROOT)
                checker = run.Checker(wl, None)
                child, _ = run.run_program(wl, run_dir, "out", traced=False)
                if not checker.check(child):
                    print(f"{name} seed {seed}: {checker.problems}", file=sys.stderr)
                    return 1
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            pins.setdefault(name, {})[str(seed)] = {"inputs": wl.digests, "output": checker.digest}
            print(f"{name} seed {seed}: {checker.digest}", flush=True)
    run.PINS.write_text(json.dumps({"full": pins}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
