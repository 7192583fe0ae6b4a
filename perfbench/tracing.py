"""Traced run of one poisonscan command, timed from outside the program.

    python3 perfbench/tracing.py SPANS_JSON RUN_ID -- COMMAND [ARGS...]

Runs the CLI's own code path in-process (`poisonscan.cli.run`) after
wrapping the public functions of each layer, wherever a module of the
package has imported them, in a span: name, start, end, parent span and
run id. Spans stay in memory and are written to SPANS_JSON when the
command returns. The program itself is not changed.

`iter_events` is drained inside its own span, so that parsing is timed
apart from the layer that consumes it; the events it yields are the same.

layer_metrics() turns one run's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

# (module, attribute, span name); a dotted attribute is a method on a class
TARGETS = (
    ("poisonscan.core", "ChainConfig.from_json_file", "core.ChainConfig.from_json_file"),
    ("poisonscan.core", "TokenRegistry.from_jsonl", "core.TokenRegistry.from_jsonl"),
    ("poisonscan.core", "PriceTable.from_csv", "core.PriceTable.from_csv"),
    ("poisonscan.ingest", "load_account_history", "ingest.load_account_history"),
    ("poisonscan.ingest", "iter_events", "ingest.iter_events"),
    ("poisonscan.ingest", "EventStore.__init__", "ingest.EventStore"),
    ("poisonscan.detector", "scan", "detector.scan"),
    ("poisonscan.detector", "confirm_payoffs", "detector.confirm_payoffs"),
    ("poisonscan.detector", "detect_accidental", "detector.detect_accidental"),
    ("poisonscan.detector", "birthday_filter", "detector.birthday_filter"),
    ("poisonscan.detector", "DetectionReport.write_json", "detector.write_json"),
    ("poisonscan.clustering", "build_transfer_sets", "clustering.build_transfer_sets"),
    ("poisonscan.clustering", "attack_ratio", "clustering.attack_ratio"),
    ("poisonscan.clustering", "cluster", "clustering.cluster"),
    ("poisonscan.clustering", "groups_to_csv", "clustering.groups_to_csv"),
    ("poisonscan.analytics", "group_economics", "analytics.group_economics"),
    ("poisonscan.analytics", "build_competitions", "analytics.build_competitions"),
    ("poisonscan.analytics", "win_loss_matrix", "analytics.win_loss_matrix"),
    ("poisonscan.analytics", "similarity_distribution", "analytics.similarity_distribution"),
    ("poisonscan.analytics", "most_imitated_targets", "analytics.most_imitated_targets"),
    ("poisonscan.addrgen", "search", "addrgen.search"),
    ("poisonscan.addrgen", "derive_address", "addrgen.derive_address"),
    ("poisonscan.keccak", "keccak256", "keccak.keccak256"),
    ("poisonscan.secp256k1", "scalar_base_mult", "secp256k1.scalar_base_mult"),
)

LOADERS = (
    "core.ChainConfig.from_json_file",
    "core.TokenRegistry.from_jsonl",
    "core.PriceTable.from_csv",
    "ingest.load_account_history",
)

_PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_mb() -> float:
    """Resident set size of this process now, or its peak where /proc is absent."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE / 2**20
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _counts(name: str, args, result) -> dict:
    """Work counted at the span's boundary."""
    if name == "ingest.iter_events":
        return {"n": len(result)}
    if name == "detector.scan":
        c = result.counters
        keys = ("events", "probes", "near_misses", "collected_direct", "collected_sibling")
        return {k: c.get(k, 0) for k in keys}
    if name in ("clustering.build_transfer_sets", "clustering.cluster"):
        return {"n": len(result)}
    if name == "analytics.group_economics":
        return {"payoffs": len(args[2].payoffs)}
    if name == "detector.write_json":
        return {"bytes": Path(args[1]).stat().st_size}
    if name == "addrgen.search":
        return {"n": result.trials}
    return {}


class Tracer:
    """Collects spans of one run in memory."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        eager = name == "ingest.iter_events"
        with_rss = name in ("ingest.iter_events", "detector.scan")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "name": name, "parent": stack[-1] if stack else None, "run": self.run_id}
            spans.append(span)
            stack.append(span["id"])
            if with_rss:
                span["rss_before_mb"] = rss_mb()
            span["start"] = clock()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                span["end"] = clock()
                stack.pop()
            if with_rss:
                span["rss_after_mb"] = rss_mb()
            span.update(_counts(name, args, result))
            return iter(result) if eager else result

        return traced

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is listed
        in `missing` and its metrics read 0."""
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("poisonscan") and m]
        for module_name, attribute, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                self.missing.append(name)
                continue
            owner_name, _, member = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                raw = owner.__dict__.get(member) if owner is not None else None
                if raw is None:
                    self.missing.append(name)
                elif isinstance(raw, classmethod):
                    setattr(owner, member, classmethod(self.wrap(raw.__func__, name)))
                else:
                    setattr(owner, member, self.wrap(raw, name))
                continue
            original = getattr(module, attribute, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(original, name)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self, path: Path, exit_code: int) -> None:
        payload = {"run": self.run_id, "exit_code": exit_code, "missing": self.missing, "spans": self.spans}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part its children cover; children
    of one span run one after another, so their durations add up."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run. A layer the run never called
    reads 0, as do rates over no work."""
    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def self_s(name: str) -> float:
        return sum(own[s["id"]] for s in by_name.get(name, ()))

    def wall(name: str, skip_first: bool = False) -> float:
        chosen = by_name.get(name, ())[1 if skip_first else 0:]
        return sum(s["end"] - s["start"] for s in chosen)

    def total(name: str, key: str) -> float:
        return sum(s.get(key, 0) for s in by_name.get(name, ()))

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    def calls(name: str, skip_first: bool = False) -> int:
        return max(0, len(by_name.get(name, ())) - (1 if skip_first else 0))

    parse = by_name.get("ingest.iter_events", ())
    scans = by_name.get("detector.scan", ())
    events = total("detector.scan", "events")
    probes = total("detector.scan", "probes")
    hits = total("detector.scan", "collected_direct") + total("detector.scan", "collected_sibling")
    bases = by_name.get("secp256k1.scalar_base_mult", ())
    m = {
        "ingest.iter_events.s": self_s("ingest.iter_events"),
        "ingest.iter_events.events_per_s": rate(total("ingest.iter_events", "n"), wall("ingest.iter_events")),
        "ingest.rss_mb": sum(s["rss_after_mb"] - s["rss_before_mb"] for s in parse),
        "detector.scan.s": self_s("detector.scan"),
        "detector.scan.events_per_s": rate(events, wall("detector.scan")),
        "detector.scan.probes_per_event": rate(probes, events),
        "detector.scan.near_misses": total("detector.scan", "near_misses"),
        "detector.scan.hit_ratio": rate(hits, probes),
        "detector.scan.rss_delta_mb": sum(s["rss_after_mb"] - s["rss_before_mb"] for s in scans),
        "ingest.EventStore.s": self_s("ingest.EventStore"),
        "detector.confirm_payoffs.s": self_s("detector.confirm_payoffs"),
        "detector.detect_accidental.s": self_s("detector.detect_accidental"),
        "detector.birthday_filter.s": self_s("detector.birthday_filter"),
        "clustering.build_transfer_sets.s": self_s("clustering.build_transfer_sets"),
        "clustering.attack_ratio.s": self_s("clustering.attack_ratio"),
        "clustering.cluster.s": self_s("clustering.cluster"),
        "clustering.sets": total("clustering.build_transfer_sets", "n"),
        "clustering.groups": total("clustering.cluster", "n"),
        "analytics.group_economics.s": self_s("analytics.group_economics"),
        "analytics.build_competitions.s": self_s("analytics.build_competitions"),
        "analytics.win_loss_matrix.s": self_s("analytics.win_loss_matrix"),
        "analytics.similarity_distribution.s": self_s("analytics.similarity_distribution"),
        "analytics.most_imitated_targets.s": self_s("analytics.most_imitated_targets"),
        "analytics.payoffs": total("analytics.group_economics", "payoffs"),
        "detector.write_json.s": self_s("detector.write_json"),
        "detector.report_bytes": total("detector.write_json", "bytes"),
        "clustering.groups_to_csv.s": self_s("clustering.groups_to_csv"),
        "core.load_inputs.s": sum(self_s(name) for name in LOADERS),
        "keccak.keccak256.per_s": rate(calls("keccak.keccak256"), wall("keccak.keccak256")),
        # the first multiply builds the lazy base table; rates leave it out
        "secp256k1.scalar_base_mult.per_s": rate(
            calls("secp256k1.scalar_base_mult", True), wall("secp256k1.scalar_base_mult", True)
        ),
        "secp256k1.base_table.s": bases[0]["end"] - bases[0]["start"] if bases else 0.0,
        "addrgen.derive_address.per_s": rate(
            calls("addrgen.derive_address", True), wall("addrgen.derive_address", True)
        ),
        "addrgen.search.keys_per_s": rate(total("addrgen.search", "n"), wall("addrgen.search")),
    }
    return m


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    spans_path, run_id, command = Path(argv[0]), argv[1], argv[3:]
    import poisonscan.cli

    tracer = Tracer(run_id)
    tracer.install()
    code = poisonscan.cli.run(command)
    tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
