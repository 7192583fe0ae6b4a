"""poisonscan benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and the
program is imported from its `src`. The inputs are made from the seed
(see workloads.py) under `.perfbench/` in the checkout and removed at the
end.

--trace 0 measures what a user sees. Set-up is timed in fresh processes
that import poisonscan and load the inputs. Then fresh `poisonscan report`
(or `gen`) processes run one at a time for S seconds, each timed from
start to exit, with its peak RSS taken from wait4 on that process.
Throughput is the 10th percentile of the processes' rates: on a shared
host the slower runs are the steady ones, while the faster ones come in
bursts whenever the neighbours idle.

--trace 1 alternates untraced runs with traced ones (tracing.py), which run
the same command in-process with every layer's public functions wrapped
in spans, and reports the per-layer metrics.

Every run's outputs are checked (see workloads.py), and the traced run's
report.json or match list must equal the untraced one byte for byte. The
last line of standard output is one JSON object: correct, attempted,
failed and the metrics, each a median over the runs (throughput: the
10th percentile), with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PINS = HERE / "expected.json"

WORKLOADS = ("uniform", "hub", "campaigns", "mining")
THROUGHPUT = "throughput_p10_per_s"
END_TO_END = {THROUGHPUT: "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNTS = ("near_misses", "sets", "groups", "payoffs")
SETUP_REPEATS = 5
MIN_RUNS = 3
CHILD_TIMEOUT_S = 100


def per_layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "s":
        return "s"
    if last.endswith("per_s"):
        return "1/s"
    if last.endswith("_mb"):
        return "MB"
    if last == "probes_per_event":
        return "probes/event"
    if last in COUNTS:
        return "count"
    if last == "report_bytes":
        return "bytes"
    return "ratio"


@dataclass
class Child:
    """One finished program process."""

    wall_s: float
    rss_mb: float
    code: int
    log: Path
    outdir: Path

    def log_tail(self) -> str:
        text = self.log.read_text(encoding="utf-8", errors="replace").strip()
        return text.splitlines()[-1] if text else ""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], log: Path, outdir: Path) -> Child:
    """Run one process to its end; wall time from start to exit, peak RSS
    from wait4 on that process alone."""
    with open(log, "wb") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024, proc.returncode, log, outdir)


def _command(wl, outdir: Path) -> list[str]:
    out = outdir / wl.out_file if wl.out_file else outdir
    return wl.argv + ["--out", str(out.relative_to(ROOT))]


def run_program(wl, run_dir: Path, tag: str, traced: bool) -> tuple[Child, Path | None]:
    outdir = run_dir / tag
    outdir.mkdir(parents=True)
    command = _command(wl, outdir)
    if traced:
        spans = run_dir / f"{tag}.spans.json"
        argv = [sys.executable, str(HERE / "tracing.py"), str(spans), tag, "--", *command]
    else:
        spans = None
        argv = [sys.executable, "-m", "poisonscan.cli", *command]
    return spawn(argv, run_dir / f"{tag}.log", outdir), spans


def measure_setup(wl, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(wl.loads)],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8")) if PINS.is_file() else {}


def _compared_file(wl, outdir: Path) -> Path:
    return outdir / (wl.out_file or "report.json")


class Checker:
    """Checks each run's outputs; all runs of one workload and seed must
    produce the same output digest, and the pinned one where it exists."""

    def __init__(self, wl, pin: dict | None) -> None:
        self.wl = wl
        self.pin = pin
        self.digest: str | None = None
        self.problems: list[str] = []
        self.quality: dict = {}
        self.attempted = 0
        self.failed = 0
        if pin and pin["inputs"] != wl.digests:
            self.problems.append(f"inputs differ from the pinned ones: {wl.digests}")

    def check(self, child: Child) -> bool:
        self.attempted += 1
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}: {child.log_tail()}")
        else:
            digest = self.wl.output(child.outdir)
            if self.digest is None:
                # later runs with the same digest have the same outputs
                problems, self.quality = self.wl.check(child.outdir)
                self.digest = digest
            elif digest != self.digest:
                problems.append(f"output digest {digest} differs from an earlier run's {self.digest}")
            if self.pin and digest != self.pin["output"]:
                problems.append(f"output digest {digest} differs from the pinned {self.pin['output']}")
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _low_decile(values: list[float]) -> float:
    """The 10th percentile, interpolated between the two nearest values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _summaries(samples: dict[str, list[float]], units: dict[str, str], stats: dict | None = None) -> dict:
    """Each metric's value (the median, unless `stats` names another
    statistic), unit, sample count, quartiles and median."""
    stats = stats or {}
    return {
        name: {
            "value": stats.get(name, _median)(values),
            "unit": units[name],
            "n": len(values),
            "quartiles": _quartiles(values),
            "median": _median(values),
        }
        for name, values in samples.items()
    }


def _end_to_end(wl, run_dir: Path, seconds: float, checker: Checker) -> dict:
    setup = measure_setup(wl, SETUP_REPEATS)
    rates, rss = [], []
    deadline = time.perf_counter() + seconds
    children = []
    while True:
        child, _ = run_program(wl, run_dir, f"run{len(children)}", traced=False)
        children.append(child)
        if len(children) >= MIN_RUNS and time.perf_counter() + child.wall_s > deadline:
            break
    for child in children:
        if checker.check(child):
            rates.append(wl.items / child.wall_s)
            rss.append(child.rss_mb)
        shutil.rmtree(child.outdir)
    samples = {THROUGHPUT: rates, "setup_s": setup, "peak_rss_mb": rss}
    return _summaries(samples, END_TO_END, {THROUGHPUT: _low_decile})


def _traced(wl, run_dir: Path, seconds: float, checker: Checker, keep: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics, and the spans the program no longer has a
    function for; the last traced run's spans are kept at `keep`."""
    from tracing import layer_metrics

    layer_samples: dict[str, list[float]] = {}
    plain_walls, traced_walls = [], []
    pairs = 0
    spans: list = []
    missing: set[str] = set()
    deadline = time.perf_counter() + seconds
    while True:
        # alternate which side runs first
        order = (False, True) if pairs % 2 == 0 else (True, False)
        ran = {}
        for traced in order:
            ran[traced] = run_program(wl, run_dir, f"{'traced' if traced else 'plain'}{pairs}", traced)
        pairs += 1
        (plain, _), (traced_child, spans_path) = ran[False], ran[True]
        ok = checker.check(plain) & checker.check(traced_child)
        if ok:
            same = _compared_file(wl, plain.outdir).read_bytes() == _compared_file(wl, traced_child.outdir).read_bytes()
            if not same:
                checker.failed += 1
                checker.problems.append(f"traced {_compared_file(wl, traced_child.outdir).name} differs from the CLI's")
            else:
                payload = json.loads(spans_path.read_text(encoding="utf-8"))
                missing.update(payload["missing"])
                spans = payload["spans"]
                for name, value in layer_metrics(spans).items():
                    layer_samples.setdefault(name, []).append(value)
                plain_walls.append(plain.wall_s)
                traced_walls.append(traced_child.wall_s)
        shutil.rmtree(plain.outdir)
        shutil.rmtree(traced_child.outdir)
        if time.perf_counter() + plain.wall_s + traced_child.wall_s > deadline:
            break
    if plain_walls:
        plain_med, traced_med = _median(plain_walls), _median(traced_walls)
        layer_samples["trace.overhead_frac"] = [(traced_med - plain_med) / plain_med]
    if spans:
        keep.parent.mkdir(parents=True, exist_ok=True)
        keep.write_text(json.dumps(spans), encoding="utf-8")
    units = {name: per_layer_unit(name) for name in layer_samples}
    return _summaries(layer_samples, units), sorted(missing)


def run_dir_for(name: str, seed: int, scale: str) -> Path:
    """Where a run keeps its inputs and outputs. The path is recorded in
    each bundle's manifest.json, so it must not vary between runs."""
    return WORK / f"{name}-{seed}-{scale}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Build the workload's inputs, measure, check, and clean up."""
    import workloads

    run_dir = run_dir_for(name, seed, scale)
    if run_dir.exists():
        shutil.rmtree(run_dir)
    try:
        started = time.perf_counter()
        wl = workloads.build(name, seed, scale, run_dir / "inputs", ROOT)
        build_s = time.perf_counter() - started
        pin = _pins().get(scale, {}).get(name, {}).get(str(seed))
        checker = Checker(wl, pin)
        missing: list[str] = []
        if trace:
            keep = WORK / "traces" / f"{name}-{seed}-{scale}.json"
            metrics, missing = _traced(wl, run_dir, seconds, checker, keep)
        else:
            metrics = _end_to_end(wl, run_dir, seconds, checker)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "trace": trace,
        "items": wl.items,
        "inputs_build_s": build_s,
        "inputs": wl.digests,
        "pinned": pin is not None,
        "output_digest": checker.digest,
        "quality": checker.quality,
        "problems": checker.problems,
        "not_traced": missing,
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }


def contract_line(result: dict) -> str:
    """The last line of output: correct, attempted, failed and each metric's
    median with its unit."""
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in result["metrics"].items()
            },
        }
    )


def describe(result: dict, out=sys.stdout) -> None:
    """Human-readable lines: inputs, checks and every metric with its
    sample count, quartiles and median."""
    w = result["workload"]
    print(f"workload {w} seed {result['seed']} scale {result['scale']} trace {int(result['trace'])}", file=out)
    print(f"  inputs built in {result['inputs_build_s']:.2f} s", file=out)
    for fname, digest in result["inputs"].items():
        print(f"  input  {fname:<20} sha256 {digest}", file=out)
    pin = "pinned" if result["pinned"] else "not pinned"
    print(f"  output sha256 {result['output_digest']} ({pin})", file=out)
    for key, value in result["quality"].items():
        print(f"  check  {key} = {value}", file=out)
    for problem in result["problems"]:
        print(f"  FAILED {problem}", file=out)
    if result["not_traced"]:
        print(f"  note   the program has no {', '.join(result['not_traced'])}; these read 0", file=out)
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  runs   {result['attempted']} attempted, {result['failed']} failed, failed_frac {frac:g}", file=out)
    for name, m in result["metrics"].items():
        shown = name
        if name == THROUGHPUT:
            shown = "keys_per_s_p10" if w == "mining" else "events_per_s_p10"
        q1, q3 = m["quartiles"]
        print(
            f"  {shown:<38} {m['value']:>14.6g} {m['unit']:<13} n={m['n']}"
            f" q1={q1:.6g} median={m['median']:.6g} q3={q3:.6g}",
            file=out,
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "poisonscan" / "__init__.py").is_file():
        print(f"error: no poisonscan sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    describe(result)
    print(contract_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
