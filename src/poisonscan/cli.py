"""Command-line pipeline driver.

Subcommands cover the whole workflow: simulate a labeled scenario, scan a
transfer stream for poisoning, cluster the findings into attack groups,
compute group economics, score predictions against planted truth, and
search for lookalike addresses. The scan, cluster and econ stages are each
defined once, and ``report`` runs all three: its report.json, groups.csv,
clusters.json, economics.csv and win_loss.csv are the bytes that scan,
cluster (without --verified-contracts or --bytecode) and econ write on the
same inputs. It adds success_ranks.json, similarity_cells.csv,
most_imitated.csv and summary.json.

Every output bundle carries a manifest.json recording the tool version,
the subcommand, its options, and content hashes of the input files, so a
bundle can be reproduced and verified later. Reruns with the same inputs
and options produce byte-identical bundles; nothing written here depends
on wall-clock time or filesystem layout. Diagnostics and progress go to
standard error, data to files or standard output.

Exit codes: 0 on success, 1 on usage or input errors, 2 when an internal
invariant breaks.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from pathlib import Path

from . import __version__
from .addrgen import SearchSpec, search
from .analytics import (
    build_competitions,
    group_economics,
    most_imitated_targets,
    similarity_distribution,
    success_ranks,
    win_loss_matrix,
)
from .clustering import (
    AttackGroup,
    AttackTransferSet,
    attack_ratio,
    build_transfer_sets,
    cluster,
    groups_to_csv,
)
from .core import (
    ChainConfig,
    Label,
    ParseError,
    PoisonscanError,
    PriceTable,
    TokenRegistry,
    address_at,
    csv_rows,
    decimal_at,
    from_json,
    parse_json,
    to_json,
    write_json,
    write_record,
)
from .detector import DetectionReport, birthday_filter, scan
from .ingest import iter_events, load_account_history
from .scenario import GroundTruth, ScenarioSpec, generate, score_labels

__all__ = ["main", "run", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_PROGRESS_INTERVAL = 1.0


class _UsageError(Exception):
    """Raised instead of exiting so run() can map argparse errors to 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}error: {message}")


class _Progress:
    """Throttled rate reporter on standard error."""

    def __init__(self, label: str, unit: str = "events") -> None:
        self.label = label
        self.unit = unit
        self.count = 0
        self._started = time.monotonic()
        self._last = self._started

    def _maybe_emit(self) -> None:
        now = time.monotonic()
        if now - self._last < _PROGRESS_INTERVAL:
            return
        self._last = now
        elapsed = now - self._started
        rate = self.count / elapsed if elapsed > 0 else 0.0
        print(
            f"{self.label}: {self.count:,} {self.unit} ({rate:,.0f} {self.unit}/s)",
            file=sys.stderr,
        )

    def update(self, n: int = 1) -> None:
        self.count += n
        self._maybe_emit()

    def update_to(self, total: int) -> None:
        self.count = total
        self._maybe_emit()


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _int_arg(text: str) -> int:
    # as an input file's counts: int() would also take "٣", "1_0", "+3" and " 4"
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    try:
        return int(text)
    except ValueError:  # past int()'s digit limit
        raise argparse.ArgumentTypeError(f"out of range: {len(text.removeprefix('-'))} digits") from None


def _int_in(low: int, high: int | None = None):
    """The type of an integer option that must be at least ``low`` and, if
    ``high`` is given, at most ``high``."""

    def read(text: str) -> int:
        value = _int_arg(text)
        if value < low or high is not None and value > high:
            span = f">= {low}" if high is None else f"in [{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be {span}, got {value}")
        return value

    return read


def _ratio(text: str) -> float:
    try:
        # float() would also take "٠.٥" and "0_5e-1"
        if not text.isascii() or "_" in text:
            raise ValueError(text)
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0 <= value <= 1:  # NaN fails this too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value}")
    return value


def _ensure_outdir(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(outdir: Path, args, inputs: tuple[str, ...], options: dict, seed=None) -> None:
    """manifest.json of the subcommand ``args`` ran, with the path and hash
    of each input file given by the options named in ``inputs``."""
    paths = {name: str(path) for name in sorted(inputs) if (path := getattr(args, name)) is not None}
    # one file named by two inputs, such as --history naming the events, is hashed once
    digests = {path: _sha256_file(path) for path in set(paths.values())}
    manifest = {
        "tool": "poisonscan",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "subcommand": args.command,
        "seed": seed,
        "inputs": {name: {"path": path, "sha256": digests[path]} for name, path in paths.items()},
        "options": options,
    }
    write_json(outdir / "manifest.json", manifest)


def _read_addresses(path, noun: str) -> list[str]:
    """The canonical addresses of a file with one ``noun`` per line. One
    given twice, in any case, is an error at its second line."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if text := line.strip():
                error = partial(ParseError, path=path, line=number)
                if (address := address_at(text, error)) in out:
                    raise error(f"{noun} {address} is given more than once")
                out[address] = None
    return list(out)


def _read_labels(path) -> dict[str, str]:
    """Address display labels from a CSV with columns address and label."""
    out = {}
    for error, row in csv_rows(path, ("address", "label")):
        if (addr := address_at(row["address"], error)) in out:
            raise error(f"duplicate address {addr}")
        out[addr] = row["label"]
    return out


def _read_bytecode(path) -> dict[str, str]:
    """Contract address -> code id from a JSON object whose values are strings."""
    raw = parse_json(Path(path).read_text(encoding="utf-8"), path)
    if not isinstance(raw, dict):
        raise ParseError("expected a JSON object mapping address to code id", path=str(path))
    out = {}
    for addr, code in raw.items():
        if not isinstance(code, str):
            raise ParseError(f"the code id of {addr!r} must be a string", path=str(path))
        if (canonical := address_at(addr, partial(ParseError, path=path))) in out:
            raise ParseError(f"duplicate address {addr!r}", path=str(path))
        out[canonical] = code
    return out


def _emit(payload, out) -> None:
    """Write ``payload`` as JSON to the file ``out``, or to standard output
    when ``out`` is not given."""
    if out:
        write_json(Path(out), payload)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# shared input loading and the scan, cluster and econ stages


def _load_config(args) -> ChainConfig:
    # the config fields that a scan flag overrides when given
    names = ("window_blocks", "a_min", "b_min", "tiny_threshold_usd")
    overrides = {name: value for name in names if (value := getattr(args, name)) is not None}
    return ChainConfig.from_json_file(args.config).with_overrides(**overrides)


def _load_registry(path) -> TokenRegistry:
    if path is None:
        return TokenRegistry(())
    return TokenRegistry.from_jsonl(path)


def _load_prices(path, config: ChainConfig, registry: TokenRegistry) -> PriceTable:
    parity: tuple[str, ...] = ()
    if config.stablecoin_parity:
        parity = tuple(registry.stablecoins(config.chain_id))
        if config.stablecoins:
            parity += tuple(config.stablecoins)
    if path is None:
        return PriceTable({}, parity_assets=parity)
    return PriceTable.from_csv(path, parity_assets=parity)


# the scan options that name input files
_SCAN_INPUTS = ("events", "config", "registry", "prices", "history")


def _scan_stage(args):
    """events file -> the fully post-processed detection report, the prices
    it was scanned with, and the options its manifest records."""
    config = _load_config(args)
    registry = _load_registry(args.registry)
    prices = _load_prices(args.prices, config, registry)
    events = iter_events(args.events, progress=_Progress("scan").update)
    if args.history and os.path.samefile(args.history, args.events):
        # the events file as its own history, under any spelling or link:
        # one reader, which scan lists
        history = events
    else:
        # scan reads a separate history lazily, after its pass
        history = iter_events(args.history) if args.history else None
    report = scan(events, config, registry, prices, history=history)
    tiny = args.tiny_threshold_usd
    options = {
        "window_blocks": args.window_blocks,
        "a_min": args.a_min,
        "b_min": args.b_min,
        "tiny_threshold_usd": None if tiny is None else str(tiny),
        "workers": args.workers,
    }
    return birthday_filter(report, config), prices, options


def _cluster_stage(report: DetectionReport, args, **known):
    """The report's transfer sets and the groups they form at
    --bot-threshold, with bots filtered by --accounts when given; ``known``
    holds the verified contracts and bytecode ids that clustering uses."""
    sets = build_transfer_sets(report)
    history = load_account_history(args.accounts) if args.accounts else None
    return sets, cluster(sets, args.bot_threshold, ratios=attack_ratio(sets, history), **known)


def _econ_stage(report: DetectionReport, sets, groups, prices: PriceTable):
    """Per-group economics, the competition records and their win-loss matrix."""
    econ_rows = group_economics(groups, sets, report, prices)
    records = build_competitions(report, sets, groups)
    return econ_rows, records, win_loss_matrix(records)


# ---------------------------------------------------------------------------
# clusters.json round trip


@dataclass(frozen=True)
class Clusters:
    """The record of clusters.json. Its fields are read, and so checked,
    in the order declared here."""

    sets: tuple[AttackTransferSet, ...]
    groups: tuple[AttackGroup, ...]
    schema: int
    bot_threshold: float


def _read_clusters(path) -> Clusters:
    """clusters.json, refused when another format version wrote it or its
    threshold is one that no run could have used."""
    raw = parse_json(Path(path).read_text(encoding="utf-8"), path)
    clusters = from_json(Clusters, raw, partial(ParseError, path=path))
    if clusters.schema != SCHEMA_VERSION:
        raise ParseError(f"schema {clusters.schema} is not this version's {SCHEMA_VERSION}", path=path)
    if not 0 <= clusters.bot_threshold <= 1:  # NaN fails this too
        raise ParseError(f"bot_threshold must be in [0, 1], got {clusters.bot_threshold}", path=path)
    return clusters


def _write_clusters(outdir: Path, sets, groups, bot_threshold: float) -> None:
    groups_to_csv(groups, outdir / "groups.csv")
    write_record(outdir / "clusters.json", Clusters(sets, groups, SCHEMA_VERSION, bot_threshold), indented=True)


# ---------------------------------------------------------------------------
# analytics tables


def _write_economics_csv(path: Path, econ_rows) -> None:
    rows = [
        [
            number,
            row.group_id,
            row.n_success,
            str(row.revenue_usd),
            str(row.cost_usd),
            str(row.profit_usd),
            row.profit_sign,
            row.quarantined,
        ]
        for number, row in enumerate(econ_rows, 1)
    ]
    _write_csv(
        path,
        ["group", "group_id", "n_success", "revenue_usd", "cost_usd", "profit_usd", "profit_sign", "quarantined"],
        rows,
    )


def _write_win_loss_csv(path: Path, matrix) -> None:
    rows = [[a, b, repr(ratio)] for (a, b), ratio in sorted(matrix.items())]
    _write_csv(path, ["group_id", "other_group_id", "win_ratio"], rows)


def _write_econ(outdir: Path, econ_rows, matrix) -> None:
    _write_economics_csv(outdir / "economics.csv", econ_rows)
    _write_win_loss_csv(outdir / "win_loss.csv", matrix)


def _write_similarity_csv(path: Path, distribution) -> None:
    rows = []
    for number, entry in enumerate(distribution, 1):
        for (a, b) in sorted(entry["cells"]):
            rows.append([number, entry["group_id"], a, b, entry["cells"][(a, b)]])
    _write_csv(path, ["group", "group_id", "a", "b", "count"], rows)


def _write_imitated_csv(path: Path, rows) -> None:
    table = [
        [row["intended"], row["label"] or "", row["lookalikes"], row["transfers"]]
        for row in rows
    ]
    _write_csv(path, ["intended", "label", "lookalikes", "transfers"], table)


def _ranks_payload(records) -> dict:
    hists = success_ranks(records)
    return {
        name: {str(key): hist[key] for key in sorted(hist)}
        for name, hist in sorted(hists.items())
    }


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    spec = ScenarioSpec.from_json_file(args.spec)
    bundle = generate(spec)
    outdir = _ensure_outdir(args.out)
    bundle.write(outdir)
    _write_manifest(outdir, args, ("spec",), {}, seed=spec.seed)
    total = sum(len(chain) for chain in bundle.chains.values())
    _info(f"simulate: {total} events across {len(bundle.chains)} chain(s)")
    return 0


def _cmd_scan(args) -> int:
    report, _, options = _scan_stage(args)
    outdir = _ensure_outdir(args.out)
    report.write_json(outdir / "report.json")
    _write_manifest(outdir, args, _SCAN_INPUTS, options)
    counts = report.headline_counts()
    poisonings = sum(counts.get(label, 0) for label in Label.POISONS)
    _info(
        f"scan: {report.counters['events']} events, {poisonings} poisoning transfers, "
        f"{len(report.payoffs)} payoffs"
    )
    return 0


def _cmd_cluster(args) -> int:
    report = DetectionReport.read_json(args.report)
    verified = tuple(_read_addresses(args.verified_contracts, "contract")) if args.verified_contracts else ()
    bytecode = _read_bytecode(args.bytecode) if args.bytecode else None
    sets, groups = _cluster_stage(report, args, verified_contracts=verified, bytecode=bytecode)
    outdir = _ensure_outdir(args.out)
    _write_clusters(outdir, sets, groups, args.bot_threshold)
    inputs = ("report", "accounts", "verified_contracts", "bytecode")
    _write_manifest(outdir, args, inputs, {"bot_threshold": args.bot_threshold})
    _info(f"cluster: {len(sets)} transfer sets -> {len(groups)} groups")
    return 0


def _cmd_econ(args) -> int:
    report = DetectionReport.read_json(args.report)
    clusters = _read_clusters(args.clusters)
    prices = PriceTable.from_csv(args.prices)
    econ_rows, _, matrix = _econ_stage(report, clusters.sets, clusters.groups, prices)
    outdir = _ensure_outdir(args.out)
    _write_econ(outdir, econ_rows, matrix)
    _write_manifest(outdir, args, ("report", "clusters", "prices"), {})
    profit = sum((row.profit_usd for row in econ_rows), Decimal(0))
    _info(f"econ: {len(econ_rows)} groups, net profit {profit} USD")
    return 0


def _cmd_score(args) -> int:
    report = DetectionReport.read_json(args.report)
    truth = GroundTruth.read_jsonl(args.truth)
    predicted_groups = None
    if args.clusters:
        groups = _read_clusters(args.clusters).groups
        predicted_groups = {
            member: group.group_id for group in groups for member in group.members
        }
    card = score_labels(report.labels, truth, report.chain_id, predicted_groups)
    _emit(to_json(card), args.out)
    _info(
        f"score: precision {card.precision:.4f}, recall {card.recall:.4f} "
        f"over {card.n_truth} truth rows"
    )
    return 0


def _cmd_gen(args) -> int:
    targets = _read_addresses(args.targets, "target")
    if not targets:
        raise ParseError("no target addresses", path=str(args.targets))
    max_matches = None if args.matches == 0 else args.matches
    if max_matches is None and args.budget is None:
        raise _UsageError(
            "error: an unbounded search never stops; set --matches >= 1 or give a --budget"
        )
    # argparse and _read_addresses have checked every field SearchSpec checks
    spec = SearchSpec(
        targets=tuple(targets),
        a_min=args.a_min,
        b_min=args.b_min,
        max_matches=max_matches,
        max_trials=args.budget,
    )
    reporter = _Progress("gen", unit="keys")
    stats = search(
        spec,
        seed=args.seed,
        workers=args.workers,
        progress=lambda trials, found: reporter.update_to(trials),
    )
    payload = {
        "schema": SCHEMA_VERSION,
        "a_min": spec.a_min,
        "b_min": spec.b_min,
        "seed": stats.seed,
        "mode": "optimized",  # a fixed field of the stats file format
        "workers": stats.workers,
        "trials": stats.trials,
        "matches": [
            {
                "private_key": f"0x{m.private_key:064x}",
                "address": m.address,
                "target": m.target,
                "a": m.a,
                "b": m.b,
            }
            for m in stats.matches
        ],
    }
    _emit(payload, args.out)
    _info(
        f"gen: {stats.trials:,} keys in {stats.elapsed_seconds:.2f}s "
        f"({stats.aps:,.0f} keys/s), {len(stats.matches)} match(es)"
    )
    return 0


def _cmd_report(args) -> int:
    labels_map = _read_labels(args.labels) if args.labels else None
    # parity assets are token addresses, never the native asset that
    # group_economics prices gas in, so the scan's prices serve it too
    report, prices, options = _scan_stage(args)
    sets, groups = _cluster_stage(report, args)
    econ_rows, records, matrix = _econ_stage(report, sets, groups, prices)

    outdir = _ensure_outdir(args.out)
    report.write_json(outdir / "report.json")
    _write_clusters(outdir, sets, groups, args.bot_threshold)
    _write_econ(outdir, econ_rows, matrix)
    write_json(outdir / "success_ranks.json", _ranks_payload(records))
    _write_similarity_csv(
        outdir / "similarity_cells.csv", similarity_distribution(groups, sets, report)
    )
    _write_imitated_csv(
        outdir / "most_imitated.csv", most_imitated_targets(report, labels=labels_map)
    )
    summary = {
        "chain_id": report.chain_id,
        "events": report.counters["events"],
        "headline": report.headline_counts(),
        "groups": len(groups),
        "n_success": sum(row.n_success for row in econ_rows),
        "revenue_usd": str(sum((row.revenue_usd for row in econ_rows), Decimal(0))),
        "cost_usd": str(sum((row.cost_usd for row in econ_rows), Decimal(0))),
        "profit_usd": str(sum((row.profit_usd for row in econ_rows), Decimal(0))),
        "quarantined": sum(row.quarantined for row in econ_rows),
    }
    write_json(outdir / "summary.json", summary)
    inputs = (*_SCAN_INPUTS, "accounts", "labels")
    _write_manifest(outdir, args, inputs, {**options, "bot_threshold": args.bot_threshold})
    _info(f"report: {len(groups)} groups, {summary['n_success']} successful payoffs")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def _add_scan_arguments(sub) -> None:
    sub.add_argument("--events", required=True, help="transfer events JSONL")
    sub.add_argument("--config", required=True, help="chain config JSON")
    sub.add_argument("--registry", help="token registry JSONL")
    sub.add_argument("--prices", help="daily price CSV")
    sub.add_argument("--history", help="full-history events JSONL for payoff confirmation")
    sub.add_argument("--window-blocks", type=_int_arg, help="override candidate window length")
    sub.add_argument("--a-min", type=_int_arg, help="override prefix match bound")
    sub.add_argument("--b-min", type=_int_arg, help="override suffix match bound")
    sub.add_argument(
        "--tiny-threshold-usd",
        type=partial(decimal_at, error=argparse.ArgumentTypeError),
        help="override tiny-transfer ceiling",
    )
    sub.add_argument(
        "--workers",
        type=_int_arg,
        default=1,
        help="recorded in the manifest; scanning runs in one process (default: 1)",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="poisonscan", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version", action="store_true", help="print tool and schema versions and exit"
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", parser_class=_Parser)

    sub = commands.add_parser("simulate", help="generate a labeled synthetic scenario")
    sub.add_argument("--spec", required=True, help="scenario spec JSON")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=_cmd_simulate)

    sub = commands.add_parser("scan", help="detect poisoning in a transfer stream")
    _add_scan_arguments(sub)
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=_cmd_scan)

    sub = commands.add_parser("cluster", help="group detected attacks by shared infrastructure")
    sub.add_argument("--report", required=True, help="report.json from scan")
    sub.add_argument("--accounts", help="account history CSV for bot filtering")
    sub.add_argument("--bot-threshold", type=_ratio, default=0.5, help="minimum attack ratio")
    sub.add_argument(
        "--verified-contracts",
        help="file with one verified address per line; sets touching one are dropped",
    )
    sub.add_argument("--bytecode", help="JSON map from contract address to bytecode id")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=_cmd_cluster)

    sub = commands.add_parser("econ", help="per-group revenue, cost, and competition")
    sub.add_argument("--report", required=True, help="report.json from scan")
    sub.add_argument("--clusters", required=True, help="clusters.json from cluster")
    sub.add_argument("--prices", required=True, help="daily price CSV")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=_cmd_econ)

    sub = commands.add_parser("score", help="compare a report against planted ground truth")
    sub.add_argument("--report", required=True, help="report.json from scan")
    sub.add_argument("--truth", required=True, help="ground truth JSONL from simulate")
    sub.add_argument("--clusters", help="clusters.json for the pairwise Rand index")
    sub.add_argument("--out", help="metrics JSON file (default: stdout)")
    sub.set_defaults(func=_cmd_score)

    sub = commands.add_parser("gen", help="search for lookalike addresses")
    sub.add_argument("--targets", required=True, help="file with one target address per line")
    sub.add_argument("--a-min", type=_int_in(0, 40), default=3, help="required prefix digits")
    sub.add_argument("--b-min", type=_int_in(0, 40), default=4, help="required suffix digits")
    sub.add_argument("--matches", type=_int_in(0), default=1, help="stop after this many matches (0: no limit)")
    sub.add_argument("--budget", type=_int_in(1), help="stop after this many candidate keys")
    sub.add_argument("--seed", type=_int_arg, default=0, help="deterministic stream seed")
    sub.add_argument("--workers", type=_int_in(1), default=1, help="worker processes (default: 1)")
    sub.add_argument("--out", help="stats JSON file (default: stdout)")
    sub.set_defaults(func=_cmd_gen)

    sub = commands.add_parser("report", help="full pipeline: scan, cluster, economics, tables")
    _add_scan_arguments(sub)
    sub.add_argument("--accounts", help="account history CSV for bot filtering")
    sub.add_argument("--bot-threshold", type=_ratio, default=0.5, help="minimum attack ratio")
    sub.add_argument("--labels", help="address display labels CSV")
    sub.add_argument("--out", required=True, help="output directory")
    sub.set_defaults(func=_cmd_report)

    return parser


def run(argv=None) -> int:
    """Parse arguments and execute one subcommand, mapping failures to
    the documented exit codes instead of raising."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.version:
            print(f"poisonscan {__version__} (schema {SCHEMA_VERSION})")
            return 0
        if args.command is None:
            raise _UsageError(f"{parser.format_usage()}error: a subcommand is required")
        return args.func(args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (PoisonscanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
