"""Command-line interface contract: exit codes, bundle layouts, manifests,
and byte-identical reruns across the whole pipeline."""

import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest

import poisonscan
import poisonscan.cli as cli_mod
from poisonscan.cli import run
from poisonscan.core import Label, write_record
from poisonscan.detector import DetectionReport
from poisonscan.ingest import write_events
from poisonscan.scenario import BotSpec, GroupSpec, ScenarioSpec, generate

from helpers import R1, REPORT_JSON_SHA256, STABLE, V1, StreamBuilder, lookalike, rich_spec


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def tree_digest(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def spec_path(workdir):
    spec = ScenarioSpec(
        seed=9,
        chain_ids=(1,),
        n_blocks=600,
        groups=(
            GroupSpec(n_attacks=4, n_attackers=1, payoff_rate=0.5),
            GroupSpec(
                n_attacks=3,
                n_attackers=1,
                strategies=("zero", "counterfeit"),
                scores=((4, 4),),
                payoff_rate=0.5,
            ),
        ),
        bots=(BotSpec(copies=(0, 1), n_copies=2),),
        typos=1,
        decoy_payoffs=1,
    )
    path = workdir / "scenario_spec.json"
    path.write_text(json.dumps(spec.to_json_dict(), sort_keys=True) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def sim_dir(workdir, spec_path):
    out = workdir / "sim"
    assert run(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def scan_dir(workdir, sim_dir):
    out = workdir / "scan"
    code = run(
        [
            "scan",
            "--events", str(sim_dir / "events.jsonl"),
            "--config", str(sim_dir / "config.json"),
            "--registry", str(sim_dir / "registry.jsonl"),
            "--prices", str(sim_dir / "prices.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def cluster_dir(workdir, sim_dir, scan_dir):
    out = workdir / "cluster"
    code = run(
        [
            "cluster",
            "--report", str(scan_dir / "report.json"),
            "--accounts", str(sim_dir / "accounts.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def econ_dir(workdir, sim_dir, scan_dir, cluster_dir):
    out = workdir / "econ"
    code = run(
        [
            "econ",
            "--report", str(scan_dir / "report.json"),
            "--clusters", str(cluster_dir / "clusters.json"),
            "--prices", str(sim_dir / "prices.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def report_argv(src: Path, out: Path) -> list[str]:
    """report over the simulate bundle ``src``, with its accounts."""
    argv = ["report", "--out", str(out)]
    for name in ("events.jsonl", "config.json", "registry.jsonl", "prices.csv", "accounts.csv"):
        argv += ["--" + name.split(".")[0], str(src / name)]
    return argv


@pytest.fixture(scope="module")
def report_dir(workdir, sim_dir):
    out = workdir / "report"
    assert run(report_argv(sim_dir, out)) == 0
    return out


def test_version_prints_tool_and_schema(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "poisonscan 0.1.0" in out
    assert "schema" in out


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_one(capsys):
    argv = ["scan", "--events", "x.jsonl", "--config", "c.json", "--out", "o", "--bogus"]
    assert run(argv) == 1
    err = capsys.readouterr().err.lower()
    assert "usage" in err
    assert "bogus" in err


def test_bad_flag_value_exits_one(capsys):
    assert run(["scan", "--events", "x", "--config", "y", "--window-blocks", "ten"]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_missing_input_file_exits_one(tmp_path, capsys):
    code = run(
        [
            "scan",
            "--events", str(tmp_path / "nope.jsonl"),
            "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_malformed_input_file_exits_one(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    events.write_text('{"chain_id": 1, "block_number": "not-a-number"}\n', encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chain_id": 1}) + "\n", encoding="utf-8")
    code = run(
        ["scan", "--events", str(events), "--config", str(config), "--out", str(tmp_path / "out")]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


# int() refuses more than 4,300 digits; each of these must be an input error
HUGE = "1" * 5000
EVENT = {
    "chain_id": 1, "block_number": 1, "timestamp": 1_700_000_000, "tx_hash": "0x" + "ab" * 32,
    "log_index": 0, "token": "0x" + "a1" * 20, "from": "0x" + "b2" * 20, "to": "0x" + "c3" * 20,
    "value": "5",
}
UPPER_TO = "0x" + EVENT["to"][2:].upper()
TOKEN = {"chain_id": 1, "address": "0x" + "a1" * 20, "symbol": "T", "decimals": 6,
         "authentic": True, "stablecoin": False}


@pytest.mark.parametrize(
    "events_line,registry_line,where",
    [
        (json.dumps({**EVENT, "value": HUGE}), json.dumps(TOKEN), "events.jsonl:1"),
        (json.dumps(EVENT).replace('"5"', HUGE), json.dumps(TOKEN), "events.jsonl:1"),
        (json.dumps(EVENT), json.dumps(TOKEN).replace(": 6,", f": {HUGE},"), "registry.jsonl:1"),
    ],
    ids=["value-string", "value-literal", "registry-decimals"],
)
def test_huge_integer_input_exits_one(tmp_path, capsys, events_line, registry_line, where):
    events = tmp_path / "events.jsonl"
    events.write_text(events_line + "\n", encoding="utf-8")
    registry = tmp_path / "registry.jsonl"
    registry.write_text(registry_line + "\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"chain_id": 1}) + "\n", encoding="utf-8")
    argv = ["--events", str(events), "--config", str(config), "--registry", str(registry)]
    for command in ("scan", "report"):
        code = run([command, *argv, "--out", str(tmp_path / command)])
        err = capsys.readouterr().err
        assert code == 1, err[:300]
        assert err.startswith("error:") and where in err


# per loader: the input file, its text, where the error must point, and the
# command that reads it ({bad} is that file, {sim} and {scan} the bundles,
# {out} an output directory)
HUGE_INPUTS = {
    "config": (
        "config.json", f'{{"chain_id": {HUGE}}}', "config.json",
        ["scan", "--config", "{bad}", "--events", "{sim}/events.jsonl", "--out", "{out}"],
    ),
    "spec": ("spec.json", f'{{"seed": {HUGE}}}', "spec.json", ["simulate", "--spec", "{bad}", "--out", "{out}"]),
    "truth": (
        "truth.jsonl", f'{{"kind": "bot", "account": "x"}}\n{{"n": {HUGE}}}', "truth.jsonl:2",
        ["score", "--truth", "{bad}", "--report", "{scan}/report.json"],
    ),
    "report": (
        "report.json", f'{{"chain_id": {HUGE}}}', "report.json",
        ["cluster", "--report", "{bad}", "--out", "{out}"],
    ),
    "bytecode": (
        "bytecode.json", f'{{"{EVENT["to"]}": {HUGE}}}', "bytecode.json",
        ["cluster", "--bytecode", "{bad}", "--report", "{scan}/report.json", "--out", "{out}"],
    ),
    "accounts": (
        "accounts.csv", f"account,total_txs\n{EVENT['to']},{HUGE}", "accounts.csv:2",
        [
            "report", "--accounts", "{bad}", "--events", "{sim}/events.jsonl",
            "--config", "{sim}/config.json", "--out", "{out}",
        ],
    ),
    "clusters": (
        "clusters.json", f'{{"sets": {HUGE}}}', "clusters.json",
        [
            "econ", "--clusters", "{bad}", "--report", "{scan}/report.json",
            "--prices", "{sim}/prices.csv", "--out", "{out}",
        ],
    ),
}


def assert_input_error(case, dirs, tmp_path, capsys):
    """``dirs`` maps {sim}, {scan} and the like to bundle directories; a
    callable text is made from them. ``where`` is one text the error must
    hold, or a tuple of them."""
    name, text, where, args = case
    bad = tmp_path / name
    bad.write_text((text(dirs) if callable(text) else text) + "\n", encoding="utf-8")
    code = run([arg.format(bad=bad, out=tmp_path / "out", **dirs) for arg in args])
    err = capsys.readouterr().err
    assert code == 1, err[:300]
    assert err.startswith("error:"), err[:300]
    for part in (where,) if isinstance(where, str) else where:
        assert part in err, err[:300]


@pytest.mark.parametrize("loader", list(HUGE_INPUTS))
def test_huge_integer_in_other_inputs_exits_one(loader, sim_dir, scan_dir, tmp_path, capsys):
    assert_input_error(HUGE_INPUTS[loader], {"sim": sim_dir, "scan": scan_dir}, tmp_path, capsys)


def edited(name, edit):
    """The text of bundle file ``name`` ("{scan}/report.json") once ``edit``
    has changed its JSON tree in place."""

    def text(dirs):
        tree = read_json(Path(name.format(**dirs)))
        edit(tree)
        return json.dumps(tree)

    return text


def reading_bad(args, name):
    """``args`` with bundle file ``name`` swapped for the bad file."""
    return [arg.replace(name, "{bad}") for arg in args]


def poison_blocks_text(report):
    for key, label in report["labels"].items():
        if label in Label.POISONS:
            report["events"][key]["block_number"] = "x"


REPORT, CLUSTERS = "{scan}/report.json", "{cluster}/clusters.json"
BAD_REPORTS = {
    "poison-block": (poison_blocks_text, "events.block_number"),
    "payoff-confirmed": (lambda r: r["payoffs"][0].update(confirmed="no"), "payoffs.confirmed"),
    "chain-id": (lambda r: r.update(chain_id="1"), "'chain_id'"),
    "anchor-block": (lambda r: r["contexts"][0].update(anchor_block="x"), "contexts.anchor_block"),
}
SET_BLOCK_TEXT = edited(CLUSTERS, lambda c: c["sets"][0].update(block_number="x"))


# JSON of valid syntax but the wrong shape, as in HUGE_INPUTS: the file, its
# text, what the error must name, and the command that reads it
SCAN_CONFIG = HUGE_INPUTS["config"][3]
ECON = [
    "econ", "--report", REPORT, "--clusters", CLUSTERS, "--prices", "{sim}/prices.csv",
    "--out", "{out}",
]
SCORE = ["score", "--report", REPORT, "--truth", "{sim}/ground_truth.jsonl"]
# the labels are read before the scan, whose events file is missing
LABELS = ["report", "--labels", "{bad}", "--events", "{out}/none.jsonl", "--config", "{sim}/config.json", "--out", "{out}"]
SCAN_PRICES = [
    "scan", "--prices", "{bad}", "--events", "{sim}/events.jsonl", "--config", "{sim}/config.json", "--out", "{out}",
]
GEN = ["gen", "--targets", "{bad}", "--budget", "10", "--out", "{out}"]
SHAPE_INPUTS = {
    "report-empty": ("report.json", "{}", "report.json", HUGE_INPUTS["report"][3]),
    "clusters-set-keys": (
        "clusters.json", '{"sets": [{"x": 1}], "groups": []}', "clusters.json",
        HUGE_INPUTS["clusters"][3],
    ),
    "config-int-string": (
        "config.json", '{"chain_id": 1, "window_blocks": "5"}', "window_blocks", SCAN_CONFIG,
    ),
    "config-tiny-text": (
        "config.json", '{"chain_id": 1, "tiny_threshold_usd": "abc"}', "tiny_threshold_usd",
        SCAN_CONFIG,
    ),
    "config-stablecoins-int": (
        "config.json", '{"chain_id": 1, "stablecoins": 5}', "stablecoins", SCAN_CONFIG,
    ),
    "config-int-fraction": ("config.json", '{"chain_id": 1, "a_min": 2.5}', "a_min", SCAN_CONFIG),
    "truth-list-line": ("truth.jsonl", "[1]", "truth.jsonl:1", HUGE_INPUTS["truth"][3]),
    "truth-kind-bots": (
        "truth.jsonl",
        '{"kind": "bots", "chain_id": 1, "key": "k:1", "label": "tiny_poison", "group": 0}',
        "field 'kind'", HUGE_INPUTS["truth"][3],
    ),
    "spec-group-keys": ("spec.json", '{"groups": [{"bogus": 1}]}', "bogus", HUGE_INPUTS["spec"][3]),
    # specs the generator cannot plant, once an internal error
    "spec-scores-empty": (
        "spec.json", '{"groups": [{"scores": []}]}', "scores", HUGE_INPUTS["spec"][3],
    ),
    "spec-reuse-without-groups": (
        "spec.json", '{"chain_ids": [1, 56], "cross_chain_reuse": 1}', "cross_chain_reuse",
        HUGE_INPUTS["spec"][3],
    ),
    # record fields of the wrong JSON type, each once accepted or an internal error
    **{
        f"report-{bad}-{args[0]}": (
            "report.json", edited(REPORT, edit), where, reading_bad(args, REPORT),
        )
        for bad, (edit, where) in BAD_REPORTS.items()
        for args in (HUGE_INPUTS["report"][3], ECON, SCORE)
    },
    # a value the record's own checks reject names the file it came from
    "report-config-window-zero": (
        "report.json", edited(REPORT, lambda r: r["config"].update(window_blocks=0)), "report.json",
        HUGE_INPUTS["report"][3],
    ),
    "clusters-set-block-econ": (
        "clusters.json", SET_BLOCK_TEXT, "sets.block_number", reading_bad(ECON, CLUSTERS),
    ),
    "clusters-set-block-score": (
        "clusters.json", SET_BLOCK_TEXT, "sets.block_number", [*SCORE, "--clusters", "{bad}"],
    ),
    # clusters.json is a record file: only its two lists were once read
    "clusters-unknown-key": (
        "clusters.json", '{"sets": [], "groups": [], "schema": 1, "bot_threshold": 0.5, "bogus": 1}',
        "field 'bogus' is unknown", HUGE_INPUTS["clusters"][3],
    ),
    "clusters-schema-string": (
        "clusters.json", '{"sets": [], "groups": [], "schema": "x", "bot_threshold": 0.5}',
        "field 'schema' must be an integer", HUGE_INPUTS["clusters"][3],
    ),
    # a file of another format version, or a threshold no run could have
    # used, was once read as this version's
    "clusters-schema-other": (
        "clusters.json", '{"sets": [], "groups": [], "schema": 99, "bot_threshold": 0.5}',
        "schema 99 is not this version's 1", HUGE_INPUTS["clusters"][3],
    ),
    **{
        f"clusters-threshold-{name}": (
            "clusters.json", f'{{"sets": [], "groups": [], "schema": 1, "bot_threshold": {value}}}',
            f"bot_threshold must be in [0, 1], got {shown}", HUGE_INPUTS["clusters"][3],
        )
        for name, value, shown in (("nan", "NaN", "nan"), ("infinity", "Infinity", "inf"), ("above-one", "1.5", "1.5"))
    },
    # a bad address in a small input file names the file and its line
    "verified-address": (
        "verified.txt", f"{EVENT['to']}\n\n0xzz", "verified.txt:3",
        ["cluster", "--verified-contracts", "{bad}", "--report", REPORT, "--out", "{out}"],
    ),
    "targets-address": ("targets.txt", f"{EVENT['to']}\n0xzz", "targets.txt:2", GEN),
    "labels-address": ("labels.csv", "address,label\n0xzz,exchange", "labels.csv:2", LABELS),
    "bytecode-address": (
        "bytecode.json", '{"0xzz": "c1"}', "'0xzz' (", HUGE_INPUTS["bytecode"][3],
    ),
    # a repeated address, in any case, once kept its last copy without a message
    "labels-duplicate": (
        "labels.csv", f"address,label\n{EVENT['to']},exchange\n{UPPER_TO},bridge",
        "labels.csv:3", [
            "report", "--labels", "{bad}", "--events", "{sim}/events.jsonl",
            "--config", "{sim}/config.json", "--out", "{out}",
        ],
    ),
    "bytecode-duplicate": (
        "bytecode.json", f'{{"{EVENT["to"]}": "c1", "{UPPER_TO}": "c2"}}',
        f"duplicate address '{UPPER_TO}' (", HUGE_INPUTS["bytecode"][3],
    ),
    "targets-duplicate": (
        "targets.txt", f"{EVENT['to']}\n{UPPER_TO}", f"target {EVENT['to']} is given more than once", GEN,
    ),
    # a code id is a string: two nulls once shared the id "None"
    "bytecode-null": (
        "bytecode.json", f'{{"{EVENT["to"]}": null, "{EVENT["from"]}": null}}',
        f"'{EVENT['to']}' must be a string (", HUGE_INPUTS["bytecode"][3],
    ),
    "bytecode-list": (
        "bytecode.json", f'{{"{EVENT["to"]}": ["c1"]}}', f"'{EVENT['to']}' must be a string (",
        HUGE_INPUTS["bytecode"][3],
    ),
    # a field past csv's size limit was once an internal error
    "labels-huge-field": ("labels.csv", f"address,label\n{EVENT['to']},{'x' * 200_000}", "labels.csv:2", LABELS),
    # a repeated JSON key once kept its last value without a message
    "config-repeated-key": (
        "config.json", '{"chain_id": 1, "window_blocks": 100, "window_blocks": 1}',
        "repeated key 'window_blocks' (", SCAN_CONFIG,
    ),
    "bytecode-repeated-key": (
        "bytecode.json", f'{{"{EVENT["to"]}": "c1", "{EVENT["to"]}": "c2"}}',
        f"repeated key '{EVENT['to']}' (", HUGE_INPUTS["bytecode"][3],
    ),
    # a registry entry check names the line, counted past blank lines
    "registry-duplicate": (
        "registry.jsonl", f"{json.dumps(TOKEN)}\n\n{json.dumps(TOKEN)}", "registry.jsonl:3",
        ["scan", "--registry", "{bad}", "--events", "{sim}/events.jsonl", "--config", "{sim}/config.json",
         "--out", "{out}"],
    ),
    # a price asset that is an address is compared in canonical form
    "prices-case-duplicate": (
        "prices.csv", f"asset,date,usd_price\n0x{'AB' * 20},2023-11-14,1\n0x{'ab' * 20},2023-11-14,2",
        "prices.csv:3", SCAN_PRICES,
    ),
    # a price in a spelling str(Decimal) never writes, once read as 10, 3 and 5
    **{
        f"prices-{name}": (
            "prices.csv", f"asset,date,usd_price\nETH,2023-11-14,1\nETH,2023-11-15,{price}", "prices.csv:3", SCAN_PRICES,
        )
        for name, price in (("underscore", "1_0"), ("arabic-indic-digit", "\u0663"), ("plus", "+5"))
    },
    # a repeated target, once an error naming no file
    "targets-duplicate-line": ("targets.txt", f"{EVENT['to']}\n\n{UPPER_TO}", "targets.txt:3", GEN),
    # every CSV input: a header names each column it needs, each once, and
    # a row has a value for each column of the header
    **{
        f"labels-header-{name}": (
            "labels.csv", f"{header}\n{EVENT['to']},exchange",
            ("the header must name address, label, each column once", "labels.csv:1)"), LABELS,
        )
        for name, header in (("lacks-column", "address,name"), ("repeats-column", "address,label,address"))
    },
    "labels-row-narrow": (
        "labels.csv", f"address,label,note\n{EVENT['to']},exchange", ("expected 3 values, got 2", "labels.csv:2)"),
        LABELS,
    ),
    "prices-bad-date": (
        "prices.csv", "asset,date,usd_price\nETH,2023-11-14,1\nETH,2023-11-31,1",
        ("bad price row: ", "prices.csv:3)"), SCAN_PRICES,
    ),
    "prices-empty-asset": (
        "prices.csv", "asset,date,usd_price\n,2023-11-14,1", ("empty asset id", "prices.csv:2)"), SCAN_PRICES,
    ),
    "accounts-duplicate": (
        "accounts.csv", f"account,total_txs\n{EVENT['to']},1\n{UPPER_TO},2",
        (f"duplicate account {EVENT['to']}", "accounts.csv:3)"),
        ["cluster", "--accounts", "{bad}", "--report", REPORT, "--out", "{out}"],
    ),
    "bytecode-array": (
        "bytecode.json", '["c1"]', "expected a JSON object mapping address to code id (",
        HUGE_INPUTS["bytecode"][3],
    ),
    "targets-empty": ("targets.txt", "", ("no target addresses", "targets.txt"), GEN),
    "gen-matches-negative": ("targets.txt", EVENT["to"], "error: --matches must be >= 0", [*GEN, "--matches", "-1"]),
    "gen-a-min-past-40": ("targets.txt", EVENT["to"], "error: a_min must be in [0, 40], got 41", [*GEN, "--a-min", "41"]),
}


@pytest.mark.parametrize("case", list(SHAPE_INPUTS))
def test_wrong_shape_input_exits_one(case, sim_dir, scan_dir, cluster_dir, tmp_path, capsys):
    dirs = {"sim": sim_dir, "scan": scan_dir, "cluster": cluster_dir}
    assert_input_error(SHAPE_INPUTS[case], dirs, tmp_path, capsys)


def test_labels_blank_rows_and_column_order(tmp_path):
    plain, other = tmp_path / "plain.csv", tmp_path / "other.csv"
    plain.write_text(f"address,label\n{EVENT['to']},exchange\n{EVENT['from']},bridge\n", encoding="utf-8")
    # blank rows anywhere, and the columns in another order among others
    other.write_text(
        f"\nlabel,note,address\n\nexchange,x,{UPPER_TO}\n  \nbridge,,{EVENT['from']}\n\n", encoding="utf-8"
    )
    want = {EVENT["to"]: "exchange", EVENT["from"]: "bridge"}
    assert cli_mod._read_labels(plain) == cli_mod._read_labels(other) == want


def test_upper_case_price_assets_scan_as_canonical(sim_dir, scan_dir, tmp_path):
    text = (sim_dir / "prices.csv").read_text(encoding="utf-8")
    rows = [line.split(",", 1) for line in text.splitlines()]
    upper = [
        [("0X" if i % 2 else "0x") + asset[2:].upper() if asset.startswith("0x") else asset, rest]
        for i, (asset, rest) in enumerate(rows)
    ]
    assert upper != rows
    prices = tmp_path / "prices.csv"
    prices.write_text("".join(",".join(row) + "\n" for row in upper), encoding="utf-8")
    code = run([
        "scan",
        "--events", str(sim_dir / "events.jsonl"),
        "--config", str(sim_dir / "config.json"),
        "--registry", str(sim_dir / "registry.jsonl"),
        "--prices", str(prices),
        "--out", str(tmp_path / "scan"),
    ])
    assert code == 0
    canonical = (scan_dir / "report.json").read_bytes()
    assert (tmp_path / "scan" / "report.json").read_bytes() == canonical
    # the prices decide labels: tiny poisonings are priced in USD
    assert DetectionReport.read_json(scan_dir / "report.json").headline_counts()[Label.TINY] > 0


def test_stablecoin_parity_prices_registry_and_config_stablecoins(tmp_path):
    # with no price rows, parity prices the config's stablecoin (the trigger
    # and tiny poisoning token) and the registry's (the payoff token) at 1.00
    config_coin = "0x" + "8" * 40
    look = lookalike(R1, 4, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, config_coin, 50_000_000)
    sb.add(102, look, V1, config_coin, 500_000)
    sb.add(700, V1, look, STABLE, 200_000_000)
    _, poison_key, pay_key = (ev.key for ev in sb.events())
    write_events(tmp_path / "events.jsonl", sb.events())
    tokens = [{**TOKEN, "address": STABLE, "stablecoin": True}, {**TOKEN, "address": config_coin}]
    (tmp_path / "registry.jsonl").write_text("".join(json.dumps(t) + "\n" for t in tokens), encoding="utf-8")
    (tmp_path / "prices.csv").write_text("asset,date,usd_price\n", encoding="utf-8")
    argv = ["scan"] + [
        arg for name in ("events.jsonl", "registry.jsonl", "prices.csv", "config.json")
        for arg in ("--" + name.split(".")[0], str(tmp_path / name))
    ]
    reports = {}
    for parity in (True, False):
        config = {"chain_id": 1, "stablecoins": [config_coin], "stablecoin_parity": parity}
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        assert run([*argv, "--out", str(tmp_path / str(parity))]) == 0
        reports[parity] = DetectionReport.read_json(tmp_path / str(parity) / "report.json")
    report = reports[True]
    assert report.labels[poison_key] == Label.TINY
    assert report.events[poison_key].usd == Decimal("0.5")
    (payoff,) = report.payoffs
    assert payoff.key == pay_key and payoff.confirmed
    assert payoff.usd == Decimal("200")
    assert report.unpriced == ()
    # without parity neither token has a price: the poisoning is unpriced,
    # so no evidence makes the payment a payoff
    assert reports[False].unpriced == (poison_key,)
    assert reports[False].labels == {} and reports[False].payoffs == ()


def test_simulate_writes_bundle_and_manifest(sim_dir):
    for name in (
        "events.jsonl",
        "config.json",
        "accounts.csv",
        "registry.jsonl",
        "prices.csv",
        "ground_truth.jsonl",
        "scenario.json",
        "manifest.json",
    ):
        assert (sim_dir / name).is_file(), name
    manifest = read_json(sim_dir / "manifest.json")
    assert manifest["subcommand"] == "simulate"
    assert manifest["tool"] == "poisonscan"


def test_scan_bundle_contents(scan_dir, sim_dir):
    report = DetectionReport.read_json(scan_dir / "report.json")
    assert report.chain_id == 1
    counts = report.headline_counts()
    assert counts.get("zero_value_poison", 0) > 0
    assert counts.get("payoff_confirmed", 0) > 0
    manifest = read_json(scan_dir / "manifest.json")
    assert manifest["subcommand"] == "scan"
    recorded = manifest["inputs"]["events"]["sha256"]
    actual = hashlib.sha256((sim_dir / "events.jsonl").read_bytes()).hexdigest()
    assert recorded == actual
    assert "workers" in manifest["options"]


def test_manifest_does_not_embed_output_path(scan_dir):
    text = (scan_dir / "manifest.json").read_text(encoding="utf-8")
    assert str(scan_dir) not in text


def test_manifest_hashes_each_distinct_input_once(sim_dir, tmp_path, monkeypatch):
    hashed = []
    sha256_file = cli_mod._sha256_file
    monkeypatch.setattr(cli_mod, "_sha256_file", lambda path: hashed.append(path) or sha256_file(path))
    events = sim_dir / "events.jsonl"
    inputs = {"events": events, "history": events, "config": sim_dir / "config.json"}
    out = tmp_path / "rep"
    argv = ["report", "--out", str(out)]
    assert run(argv + [arg for name, path in inputs.items() for arg in (f"--{name}", str(path))]) == 0
    assert sorted(hashed) == sorted({str(path) for path in inputs.values()})
    # the bytes of a manifest that hashes every input apart
    options = read_json(out / "manifest.json")["options"]
    expected = {
        "tool": "poisonscan", "version": poisonscan.__version__, "schema": cli_mod.SCHEMA_VERSION,
        "subcommand": "report", "seed": None, "options": options,
        "inputs": {
            name: {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
            for name, path in inputs.items()
        },
    }
    assert (out / "manifest.json").read_text(encoding="utf-8") == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_manifest_does_not_depend_on_core_count(workdir, sim_dir, scan_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    out = workdir / "scan_64_cores"
    code = run(
        [
            "scan",
            "--events", str(sim_dir / "events.jsonl"),
            "--config", str(sim_dir / "config.json"),
            "--registry", str(sim_dir / "registry.jsonl"),
            "--prices", str(sim_dir / "prices.csv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert (out / "manifest.json").read_bytes() == (scan_dir / "manifest.json").read_bytes()

    targets = tmp_path / "targets.txt"
    targets.write_text("0x" + "ab" * 20 + "\n", encoding="utf-8")
    # a budget below one batch keeps any pool at a single process
    gen = ["gen", "--targets", str(targets), "--a-min", "1", "--b-min", "1", "--matches", "0", "--budget", "20"]
    assert run(gen + ["--out", str(tmp_path / "default.json")]) == 0
    assert run(gen + ["--workers", "1", "--out", str(tmp_path / "one.json")]) == 0
    assert (tmp_path / "default.json").read_bytes() == (tmp_path / "one.json").read_bytes()


def test_scan_flag_overrides_win_over_config(workdir, sim_dir):
    out = workdir / "scan_override"
    code = run(
        [
            "scan",
            "--events", str(sim_dir / "events.jsonl"),
            "--config", str(sim_dir / "config.json"),
            "--registry", str(sim_dir / "registry.jsonl"),
            "--prices", str(sim_dir / "prices.csv"),
            "--window-blocks", "55",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = DetectionReport.read_json(out / "report.json")
    assert report.config.window_blocks == 55


def test_score_round_trip_is_exact(sim_dir, scan_dir, capsys):
    code = run(
        [
            "score",
            "--report", str(scan_dir / "report.json"),
            "--truth", str(sim_dir / "ground_truth.jsonl"),
        ]
    )
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["precision"] == 1.0
    assert metrics["recall"] == 1.0
    assert metrics["f1"] == 1.0
    assert metrics["n_truth"] > 0


def test_score_with_clusters_reports_rand_index(sim_dir, scan_dir, cluster_dir, tmp_path, capsys):
    out_file = tmp_path / "metrics.json"
    code = run(
        [
            "score",
            "--report", str(scan_dir / "report.json"),
            "--truth", str(sim_dir / "ground_truth.jsonl"),
            "--clusters", str(cluster_dir / "clusters.json"),
            "--out", str(out_file),
        ]
    )
    assert code == 0
    metrics = read_json(out_file)
    assert metrics["rand_index"] == 1.0


def test_cluster_outputs(cluster_dir):
    header = (cluster_dir / "groups.csv").read_text(encoding="utf-8").splitlines()[0]
    assert header == (
        "group,group_id,chain_id,lookalikes,counterfeit_tokens,ct_bytecodes,"
        "attackers,attack_contracts,ac_bytecodes,intendeds,victims,transfers,"
        "transactions,first_block,last_block,first_date,last_date"
    )
    clusters = read_json(cluster_dir / "clusters.json")
    assert len(clusters["groups"]) == 2
    assert clusters["bot_threshold"] == 0.5
    ids = {s["transfer_id"] for s in clusters["sets"]}
    for group in clusters["groups"]:
        assert set(group["members"]) <= ids


@pytest.mark.parametrize("empty", [False, True], ids=["groups", "empty"])
def test_clusters_json_matches_asdict_form(cluster_dir, tmp_path, empty):
    clusters = cli_mod._read_clusters(cluster_dir / "clusters.json")
    sets, groups = clusters.sets, clusters.groups
    assert sets and groups
    if empty:
        sets, groups = (), ()
    path = tmp_path / "clusters.json"
    write_record(path, cli_mod.Clusters(sets, groups, cli_mod.SCHEMA_VERSION, 0.5), indented=True)
    payload = {
        "schema": cli_mod.SCHEMA_VERSION,
        "bot_threshold": 0.5,
        "sets": [dataclasses.asdict(s) for s in sets],
        "groups": [dataclasses.asdict(g) for g in groups],
    }
    expected = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert path.read_text(encoding="utf-8") == expected
    if not empty:
        assert path.read_bytes() == (cluster_dir / "clusters.json").read_bytes()


def test_cluster_bot_threshold_zero_merges(workdir, sim_dir, scan_dir):
    out = workdir / "cluster_merged"
    code = run(
        [
            "cluster",
            "--report", str(scan_dir / "report.json"),
            "--accounts", str(sim_dir / "accounts.csv"),
            "--bot-threshold", "0.0",
            "--out", str(out),
        ]
    )
    assert code == 0
    clusters = read_json(out / "clusters.json")
    assert len(clusters["groups"]) == 1


def test_cluster_verified_contract_matches_in_any_case(scan_dir, cluster_dir, tmp_path):
    sets = read_json(cluster_dir / "clusters.json")["sets"]
    token = min(s["counterfeit_token"] for s in sets if s["counterfeit_token"])
    groups = {}
    for case, text in (("none", ""), ("lower", token), ("upper", "0x" + token[2:].upper())):
        verified = tmp_path / f"{case}.txt"
        verified.write_text(text + "\n", encoding="utf-8")
        out = tmp_path / case
        argv = ["cluster", "--report", str(scan_dir / "report.json")]
        assert run([*argv, "--verified-contracts", str(verified), "--out", str(out)]) == 0
        groups[case] = (out / "groups.csv").read_bytes()
    assert groups["upper"] == groups["lower"] != groups["none"]


def test_cluster_verified_contracts_alone_drop_their_sets(scan_dir, tmp_path):
    # naming a file is the exclusion: there is no separate flag to forget
    report = ["cluster", "--report", str(scan_dir / "report.json")]
    assert run([*report, "--out", str(tmp_path / "all")]) == 0
    sets = read_json(tmp_path / "all" / "clusters.json")["sets"]
    token = min(s["counterfeit_token"] for s in sets if s["counterfeit_token"])
    dropped = {s["transfer_id"] for s in sets if s["counterfeit_token"] == token}
    verified = tmp_path / "verified.txt"
    verified.write_text(token + "\n", encoding="utf-8")
    out = tmp_path / "verified"
    assert run([*report, "--verified-contracts", str(verified), "--out", str(out)]) == 0
    kept = {m for g in read_json(out / "clusters.json")["groups"] for m in g["members"]}
    assert dropped and not dropped & kept
    assert kept == {s["transfer_id"] for s in sets} - dropped
    header, *rows = (out / "groups.csv").read_text(encoding="utf-8").splitlines()
    transfers = header.split(",").index("transfers")
    assert sum(int(row.split(",")[transfers]) for row in rows) == len(sets) - len(dropped)
    manifest = read_json(out / "manifest.json")
    assert manifest["options"] == {"bot_threshold": 0.5}
    assert "verified_contracts" in manifest["inputs"]


def test_econ_outputs_satisfy_profit_identity(econ_dir):
    lines = (econ_dir / "economics.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == (
        "group,group_id,n_success,revenue_usd,cost_usd,profit_usd,profit_sign,quarantined"
    )
    assert len(lines) >= 3
    total_success = 0
    for line in lines[1:]:
        cells = line.split(",")
        revenue, cost, profit = (Decimal(cells[i]) for i in (3, 4, 5))
        assert profit == revenue - cost
        assert Decimal(cells[4]) > 0
        total_success += int(cells[2])
    assert total_success > 0
    win_loss = (econ_dir / "win_loss.csv").read_text(encoding="utf-8").splitlines()
    assert win_loss[0] == "group_id,other_group_id,win_ratio"


def test_report_writes_the_stage_files_byte_for_byte(report_dir, scan_dir, cluster_dir, econ_dir):
    # report runs the scan, cluster and econ stages on the inputs the three
    # fixtures read, so each file it shares with them has their bytes
    stages = {
        "report.json": scan_dir, "groups.csv": cluster_dir, "clusters.json": cluster_dir,
        "economics.csv": econ_dir, "win_loss.csv": econ_dir,
    }
    for name, stage in stages.items():
        assert (report_dir / name).read_bytes() == (stage / name).read_bytes(), name
    assert len(read_json(report_dir / "clusters.json")["groups"]) == 2


def test_end_to_end_rerun_is_byte_identical(workdir, spec_path, sim_dir, report_dir):
    sim2 = workdir / "sim2"
    assert run(["simulate", "--spec", str(spec_path), "--out", str(sim2)]) == 0
    assert tree_digest(sim2) == tree_digest(sim_dir)
    rep2 = workdir / "rep2"
    assert run(report_argv(sim_dir, rep2)) == 0
    digests = tree_digest(report_dir)
    assert digests == tree_digest(rep2)
    for name in (
        "report.json",
        "groups.csv",
        "clusters.json",
        "economics.csv",
        "win_loss.csv",
        "success_ranks.json",
        "similarity_cells.csv",
        "most_imitated.csv",
        "summary.json",
        "manifest.json",
    ):
        assert name in digests, name


def test_report_bundle_does_not_depend_on_hash_seed(sim_dir, tmp_path):
    # each run is a fresh process, so set and dict orders that follow
    # string hashes would differ between the two
    src = str(Path(poisonscan.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}"
        argv = [sys.executable, "-m", "poisonscan.cli", *report_argv(sim_dir, out)]
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        digests.append(tree_digest(out))
    assert len(digests[0]) == 10  # every bundle file, manifest.json included
    assert digests[0] == digests[1]


# a report bundle and a gen match list, made under each interpreter
CROSS_ARGV = (
    [
        "report", "--events", "{sim}/events.jsonl", "--config", "{sim}/config.json",
        "--registry", "{sim}/registry.jsonl", "--prices", "{sim}/prices.csv",
        "--accounts", "{sim}/accounts.csv", "--out", "{out}/report",
    ],
    [
        "gen", "--targets", "{work}/cross_targets.txt", "--a-min", "1", "--b-min", "0",
        "--matches", "0", "--budget", "100", "--seed", "7", "--out", "{out}/gen.json",
    ],
)


@pytest.fixture(scope="module")
def cross_digests(workdir, sim_dir):
    """The digest of every file CROSS_ARGV writes, run in this process."""
    (workdir / "cross_targets.txt").write_text("0x" + "ab" * 20 + "\n", encoding="utf-8")
    out = workdir / "cross"
    for argv in CROSS_ARGV:
        assert run([arg.format(sim=sim_dir, work=workdir, out=out) for arg in argv]) == 0
    return tree_digest(out)


@pytest.mark.parametrize("python", ["python3.10", "python3.12", "python3.13"])
def test_bundle_bytes_match_across_interpreters(python, workdir, sim_dir, cross_digests, tmp_path):
    # pyproject admits CPython 3.10 and later, and the CLI needs only the
    # standard library, so it runs under interpreters that have no pytest
    exe = shutil.which(python)
    if exe is None or subprocess.run([exe, "-c", ""], capture_output=True, check=False).returncode:
        pytest.skip(f"{python} is not installed")
    env = {**os.environ, "PYTHONPATH": str(Path(poisonscan.__file__).parents[1])}
    procs = [
        subprocess.Popen(
            [exe, "-m", "poisonscan.cli", *(arg.format(sim=sim_dir, work=workdir, out=tmp_path) for arg in argv)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        for argv in CROSS_ARGV
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
    digests = tree_digest(tmp_path)
    assert len(digests) == 11  # ten bundle files and the match list
    assert digests == cross_digests


@pytest.mark.parametrize("history", ["events.jsonl", "history.jsonl"])
def test_report_with_history_bytes_pinned(tmp_path, history):
    # the events file itself as history is parsed once; a copy is parsed apart
    sim = tmp_path / "sim"
    generate(rich_spec(7)).write(sim)
    (sim / "history.jsonl").write_bytes((sim / "events.jsonl").read_bytes())
    code = run(
        [
            "report",
            "--events", str(sim / "events.jsonl"),
            "--config", str(sim / "config.json"),
            "--registry", str(sim / "registry.jsonl"),
            "--prices", str(sim / "prices.csv"),
            "--accounts", str(sim / "accounts.csv"),
            "--history", str(sim / history),
            "--out", str(tmp_path / "rep"),
        ]
    )
    assert code == 0
    digests = tree_digest(tmp_path / "rep")
    assert digests["report.json"] == REPORT_JSON_SHA256
    assert digests["summary.json"] == (
        "9cf6c8b8dcac8c8cf318b950863cc63770d9ec5d979a5667433c61d4a51f795f"
    )


@pytest.mark.parametrize("option", ["--events", "--history"])
def test_piped_input_refused_when_opened(tmp_path, sim_dir, option):
    # scan reads the events file again after its pass, and a pipe cannot be
    # read twice: it is refused on opening, with its path and the reason
    events = sim_dir / "events.jsonl"
    inputs = {"--events": str(events), "--history": str(events), option: "/dev/stdin"}
    argv = [sys.executable, "-m", "poisonscan.cli", "scan", "--config", str(sim_dir / "config.json")]
    argv += [arg for item in inputs.items() for arg in item] + ["--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(poisonscan.__file__).parents[1])}
    proc = subprocess.run(
        argv, input=events.read_bytes(), env=env, capture_output=True, timeout=120, check=False
    )
    assert proc.returncode == 1
    assert "not a regular file, so its events could not be read again (/dev/stdin)" in proc.stderr.decode()


def test_report_history_from_another_chain_exits_one(tmp_path, capsys):
    sim = tmp_path / "sim"
    generate(rich_spec(7)).write(sim)
    lines = (sim / "events.jsonl").read_text(encoding="utf-8").splitlines()
    history = tmp_path / "history.jsonl"
    with history.open("w", encoding="utf-8") as fh:
        for line in lines:
            raw = json.loads(line)
            raw["chain_id"] = 56
            fh.write(json.dumps(raw) + "\n")
    code = run(
        [
            "report",
            "--events", str(sim / "events.jsonl"),
            "--config", str(sim / "config.json"),
            "--registry", str(sim / "registry.jsonl"),
            "--prices", str(sim / "prices.csv"),
            "--history", str(history),
            "--out", str(tmp_path / "rep"),
        ]
    )
    assert code == 1
    assert "history event chain_id 56" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("tail", ["{not json", "ordering"])
def test_report_history_error_after_every_needed_event_exits_one(tmp_path, capsys, tail):
    # scan reads a separate history after its pass; a bad last line must
    # still fail the run, with its path and line
    sim = tmp_path / "sim"
    generate(rich_spec(7)).write(sim)
    lines = (sim / "events.jsonl").read_text(encoding="utf-8").splitlines()
    if tail == "ordering":
        tail = lines[0]
    history = tmp_path / "history.jsonl"
    history.write_text("\n".join(lines + [tail]) + "\n", encoding="utf-8")
    code = run(
        [
            "report",
            "--events", str(sim / "events.jsonl"),
            "--config", str(sim / "config.json"),
            "--registry", str(sim / "registry.jsonl"),
            "--prices", str(sim / "prices.csv"),
            "--history", str(history),
            "--out", str(tmp_path / "rep"),
        ]
    )
    assert code == 1
    assert f"{history}:{len(lines) + 1}" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--targets", "t.txt", "--workers", "0", "--budget", "10"],
    ],
)
def test_non_positive_counts_are_usage_errors(capsys, argv):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() and "must be >= 1" in err


@pytest.mark.parametrize("value,message", [
    ("nan", "must be in [0, 1], got nan"),
    ("inf", "must be in [0, 1], got inf"),
    ("2", "must be in [0, 1], got 2.0"),
    ("-0.1", "must be in [0, 1], got -0.1"),
    ("half", "not a number: 'half'"),
    ("٠.٥", "not a number: '٠.٥'"),
    ("0_5e-1", "not a number: '0_5e-1'"),
], ids=["nan", "inf", "two", "negative", "text", "arabic-indic", "underscore"])
@pytest.mark.parametrize("command", [
    ["cluster", "--report", "r.json"],
    ["report", "--events", "e.jsonl", "--config", "c.json"],
], ids=["cluster", "report"])
def test_bot_threshold_outside_unit_interval_is_usage_error(capsys, command, value, message):
    # NaN once excluded nothing and was written to the bundle as NaN,
    # which is no JSON; inf and 2 excluded every set
    assert run([*command, "--bot-threshold", value, "--out", "o"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() and f"--bot-threshold: {message}" in err


SCAN_ARGV = ["scan", "--events", "e.jsonl", "--config", "c.json", "--out", "o"]
GEN_ARGV = ["gen", "--targets", "t.txt"]


@pytest.mark.parametrize(
    "argv,message",
    [
        (SCAN_ARGV + ["--window-blocks", "٣"], "--window-blocks: not an integer: '٣'"),
        (SCAN_ARGV + ["--tiny-threshold-usd", "1_0"], "--tiny-threshold-usd: not a decimal number: '1_0'"),
        (SCAN_ARGV + ["--a-min", "+3"], "--a-min: not an integer: '+3'"),
        (SCAN_ARGV + ["--b-min", " 4"], "--b-min: not an integer: ' 4'"),
        (GEN_ARGV + ["--budget", "2_048"], "--budget: not an integer: '2_048'"),
        (GEN_ARGV + ["--seed", "٧"], "--seed: not an integer: '٧'"),
        (GEN_ARGV + ["--workers", "٢", "--budget", "10"], "--workers: not an integer: '٢'"),
        (SCAN_ARGV + ["--window-blocks", "1" * 5000], "--window-blocks: out of range: 5000 digits"),
    ],
    ids=[
        "window-digit", "tiny-underscore", "plus", "space", "budget-underscore", "seed-digit",
        "workers-digit", "window-past-int-limit",
    ],
)
def test_number_options_take_only_input_file_spellings(capsys, argv, message):
    # int(), Decimal() and float() take spellings no input file accepts,
    # such as non-ASCII digits, "_", "+" and spaces
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() and message in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["bench"], "invalid choice: 'bench'"),
        (["cluster", "--report", "r.json", "--out", "o", "--exclude-verified"], "--exclude-verified"),
    ],
    ids=["bench", "exclude-verified"],
)
def test_removed_surfaces_are_usage_errors(capsys, argv, message):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "usage" in err.lower() and message in err


def test_report_summary_consistent_with_parts(report_dir):
    summary = read_json(report_dir / "summary.json")
    assert summary["chain_id"] == 1
    assert summary["groups"] == 2
    lines = (report_dir / "economics.csv").read_text(encoding="utf-8").splitlines()[1:]
    revenue = sum(Decimal(line.split(",")[3]) for line in lines)
    assert Decimal(summary["revenue_usd"]) == revenue
    profit = sum(Decimal(line.split(",")[5]) for line in lines)
    assert Decimal(summary["profit_usd"]) == profit


def test_gen_is_deterministic_and_matches_target(tmp_path, capsys):
    targets = tmp_path / "targets.txt"
    targets.write_text("0x" + "ab" * 20 + "\n", encoding="utf-8")
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    argv = [
        "gen",
        "--targets", str(targets),
        "--a-min", "2",
        "--b-min", "0",
        "--seed", "3",
        "--workers", "1",
    ]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    stats = read_json(out1)
    assert stats["trials"] >= 1
    assert len(stats["matches"]) == 1
    match = stats["matches"][0]
    assert match["address"][2:4] == "ab"
    assert match["a"] >= 2
    assert len(match["private_key"]) == 66

    assert run(argv) == 0
    stdout_stats = json.loads(capsys.readouterr().out)
    assert stdout_stats == stats


def test_gen_budget_bounds_trials(tmp_path, capsys):
    targets = tmp_path / "targets.txt"
    targets.write_text("0x" + "cd" * 20 + "\n", encoding="utf-8")
    code = run(
        [
            "gen",
            "--targets", str(targets),
            "--a-min", "6",
            "--b-min", "0",
            "--matches", "0",
            "--budget", "500",
            "--seed", "1",
        ]
    )
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["trials"] == 500
    assert stats["matches"] == []


def test_gen_stats_bytes_pinned(tmp_path):
    """The stats file is a format: its keys (the fixed "mode" and the
    default "workers" included), their order and the match encoding."""
    targets = tmp_path / "targets.txt"
    targets.write_text("0x" + "ab" * 20 + "\n" + "0x" + "0123456789" * 4 + "\n", encoding="utf-8")
    out = tmp_path / "gen.json"
    argv = ["gen", "--targets", str(targets), "--a-min", "1", "--b-min", "0", "--matches", "0"]
    assert run(argv + ["--budget", "100", "--seed", "7", "--out", str(out)]) == 0
    stats = read_json(out)
    assert (stats["mode"], stats["workers"], stats["trials"], len(stats["matches"])) == ("optimized", 1, 100, 12)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "d6010e5ab4fdaa2e96f4fc11e3e1e3458bd103006e77ae763a224a2f04300287"
    )


def test_gen_unbounded_search_rejected(tmp_path, capsys):
    targets = tmp_path / "targets.txt"
    targets.write_text("0x" + "ab" * 20 + "\n", encoding="utf-8")
    code = run(["gen", "--targets", str(targets), "--matches", "0"])
    assert code == 1
    assert "budget" in capsys.readouterr().err.lower()


def test_internal_error_exits_two(monkeypatch, sim_dir, scan_dir, tmp_path, capsys):
    def boom(*args, **kwargs):
        raise RuntimeError("invariant violated")

    monkeypatch.setattr(cli_mod, "build_transfer_sets", boom)
    code = run(
        [
            "cluster",
            "--report", str(scan_dir / "report.json"),
            "--accounts", str(sim_dir / "accounts.csv"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "internal error" in capsys.readouterr().err


def test_progress_goes_to_stderr_not_stdout(monkeypatch, sim_dir, tmp_path, capsys):
    monkeypatch.setattr(cli_mod, "_PROGRESS_INTERVAL", 0.0)
    code = run(
        [
            "scan",
            "--events", str(sim_dir / "events.jsonl"),
            "--config", str(sim_dir / "config.json"),
            "--registry", str(sim_dir / "registry.jsonl"),
            "--prices", str(sim_dir / "prices.csv"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "events/s" in captured.err
    assert captured.out == ""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "poisonscan.cli", "--version"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "poisonscan" in proc.stdout
    # runpy warns when the package has imported the module it runs
    assert "RuntimeWarning" not in proc.stderr, proc.stderr


def test_import_loads_only_the_standard_library():
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from poisonscan import *\n"
        "print(*sorted({n.split('.')[0] for n in set(sys.modules) - before}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "poisonscan" in loaded
    # multiprocessing registers __main__ a second time as __mp_main__
    outside = loaded - set(sys.stdlib_module_names) - {"poisonscan", "__mp_main__"}
    assert not outside


def test_root_imports_a_module_only_when_one_of_its_names_is_used():
    probe = (
        "import json, sys\n"
        "def loaded():\n"
        "    print(json.dumps(sorted(n for n in sys.modules if n.startswith('poisonscan.'))))\n"
        "import poisonscan\n"
        "loaded()\n"
        "from poisonscan import ChainConfig\n"
        "loaded()\n"
        "from poisonscan import scan\n"
        "loaded()\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=False
    )
    assert proc.returncode == 0, proc.stderr
    bare, config, scanning = (json.loads(line) for line in proc.stdout.splitlines())
    assert bare == []
    assert config == ["poisonscan.core"]
    assert "poisonscan.detector" in scanning
    assert not {"poisonscan.scenario", "poisonscan.addrgen", "poisonscan.analytics"} & set(scanning)


def test_export_table_matches_each_module_all():
    assert len(poisonscan.__all__) == len(set(poisonscan.__all__))
    for module, names in poisonscan._EXPORTS.items():
        public = set(importlib.import_module(f"poisonscan.{module}").__all__)
        assert set(names) <= public, module
        # the root has never exported the batched deriver
        assert public - set(names) <= {"derive_addresses"}, module


def test_every_exported_name_resolves():
    modules = [poisonscan] + [
        importlib.import_module(f"poisonscan.{info.name}")
        for info in pkgutil.iter_modules(poisonscan.__path__)
    ]
    assert len(modules) > 10
    assert [m.__name__ for m in modules if not hasattr(m, "__all__")] == []
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert not stale
    for module in modules:
        exec(f"from {module.__name__} import *", {})
