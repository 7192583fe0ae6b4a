"""The JSON record codec of ``poisonscan.core``: every record class survives
a round trip through JSON text, every annotation form rejects a value of
the wrong JSON type and names the field, the per-class writer and the
streamed record-file writer give json's own bytes, and no second codec
grows back elsewhere in the package."""

from __future__ import annotations

import ast
import dataclasses
import json
import tempfile
import typing
from decimal import Decimal
from pathlib import Path
from types import NoneType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import poisonscan
from poisonscan.cli import SCHEMA_VERSION, Clusters
from poisonscan.clustering import AttackGroup, AttackTransferSet, build_transfer_sets, cluster
from poisonscan.core import (
    ChainConfig, ConfigError, ScenarioError, TransferEvent, _writer, from_json, to_json, write_record,
)
from poisonscan.detector import AttackContext, EventDetail, PayoffRecord, birthday_filter, scan
from poisonscan.scenario import BotSpec, GroupSpec, ScenarioSpec, generate, score_labels

from helpers import rich_spec


@pytest.fixture(scope="module")
def records() -> dict[str, object]:
    """One record of every class the codec serves, from one seeded scenario
    and its report."""
    spec = dataclasses.replace(rich_spec(4), bots=(BotSpec(copies=(0, 1), n_copies=2),))
    bundle = generate(spec)
    config = bundle.configs[1]
    report = birthday_filter(scan(bundle.events(), config, bundle.registry, bundle.prices), config)
    sets = build_transfer_sets(report)
    bytecode = {s.counterfeit_token: "code" for s in sets if s.counterfeit_token}
    groups = cluster(sets, bytecode=bytecode)
    entry = next(iter(bundle.registry))
    payoffs = sorted(report.payoffs, key=lambda p: p.edit_distance is not None)
    # a threshold this low excludes every victim, each with its probability
    low = config.with_overrides(birthday_alpha=1e-12)
    return {
        "report": report,
        "excluded_report": birthday_filter(report, low),
        "odd_report": dataclasses.replace(
            report, labels={ODD_TEXT: ODD_TEXT, "": ""}, victim_recipients={ODD_TEXT: 2**64 + 1},
            excluded_victims=dict(zip(ODD_TEXT, FLOATS)), accidental=frozenset(ODD_TEXT),
            unpriced=(ODD_TEXT, ""), authentic_tokens=frozenset({ODD_TEXT}), counters={ODD_TEXT: -1},
        ),
        "clusters": Clusters(sets, groups, SCHEMA_VERSION, 0.5),
        "config": config,
        "event": next(iter(report.events.values())),
        "context": report.contexts[0],
        "payoff": payoffs[0],
        "typo_payoff": payoffs[-1],
        "set": sets[0],
        "group": groups[0],
        "spec": spec,
        "group_spec": spec.groups[1],
        "bot_spec": spec.bots[0],
        "score_card": score_labels(report.labels, bundle.truth, 1),
        "token": entry.token,
        "registry_entry": entry,
    }


def through_text(record) -> object:
    return json.loads(json.dumps(to_json(record)))


@pytest.mark.parametrize(
    "name",
    [
        "report", "excluded_report", "odd_report", "clusters", "config", "event", "context",
        "payoff", "typo_payoff", "set", "group", "spec", "group_spec", "bot_spec", "score_card",
        "token", "registry_entry",
    ],
)
def test_every_record_survives_a_round_trip(records, name):
    record = records[name]
    assert from_json(type(record), through_text(record), TypeError) == record


def test_the_records_hold_both_sides_of_an_optional(records):
    assert records["payoff"].edit_distance is None
    assert records["typo_payoff"].edit_distance is not None
    assert any(d.usd is None for d in records["report"].events.values())
    assert any(d.usd is not None for d in records["report"].events.values())
    assert records["group"].ct_bytecodes is not None
    excluded = records["excluded_report"].excluded_victims
    assert excluded and all(type(p) is float and 0 < p < 1 for p in excluded.values())


# per annotation form: the record, the field set to a value of the wrong
# JSON type, and the dotted field the error must name
WRONG = {
    "int-as-string": ("event", "block_number", "7", "block_number"),
    "bool-as-text": ("payoff", "confirmed", "no", "confirmed"),
    "optional-given-list": ("payoff", "anchor_block", [1], "anchor_block"),
    "value-as-number": ("event", "value", 5, "value"),
    "decimal-as-number": ("payoff", "usd", 1.5, "usd"),
    "tuple-as-string": ("context", "evidence", "k", "evidence"),
    "fixed-tuple-length": ("group_spec", "payoff_delay", [2], "payoff_delay"),
    "dict-value": ("report", "counters", {"probes": "1"}, "counters"),
    "frozenset-item": ("report", "accidental", [1], "accidental"),
    "nested-record": ("report", "config", {"chain_id": True}, "config.chain_id"),
    "record-as-list": ("report", "payoffs", [[]], "payoffs"),
}


@pytest.mark.parametrize("case", list(WRONG))
def test_a_value_of_the_wrong_json_type_is_rejected(records, case):
    name, key, value, where = WRONG[case]
    record = records[name]
    raw = through_text(record)
    raw[key] = value
    with pytest.raises(TypeError, match=f"field '{where}' must be"):
        from_json(type(record), raw, TypeError)


def test_unknown_and_missing_keys_are_rejected(records):
    context = records["context"]
    with pytest.raises(TypeError, match="field 'bogus' is unknown"):
        from_json(type(context), {**through_text(context), "bogus": 1}, TypeError)
    raw = through_text(context)
    del raw["anchor_key"]
    with pytest.raises(TypeError, match="field 'anchor_key' is missing"):
        from_json(type(context), raw, TypeError)


def test_a_key_with_a_default_may_be_left_out(records):
    payoff = records["typo_payoff"]
    raw = through_text(payoff)
    del raw["edit_distance"]
    read = from_json(type(payoff), raw, TypeError)
    assert read == dataclasses.replace(payoff, edit_distance=None)


STABLE = "0x" + "1" * 40


@pytest.mark.parametrize(
    "build,error,where",
    [
        (lambda: ChainConfig(chain_id=1, stablecoins=[STABLE]), ConfigError, "stablecoins"),
        (lambda: ChainConfig(chain_id=1, birthday_alpha=True), ConfigError, "birthday_alpha"),
        (
            lambda: ScenarioSpec(groups=(GroupSpec(offsets=(1.5,)),)).validate(),
            ScenarioError, "groups.offsets",
        ),
        (lambda: ScenarioSpec(bots=(BotSpec(copies=[0]),)).validate(), ScenarioError, "bots"),
    ],
    ids=["list-for-tuple", "bool-for-float", "nested-float-for-int", "nested-list-for-tuple"],
)
def test_records_built_in_python_are_checked(build, error, where):
    with pytest.raises(error, match=f"field '{where}'"):
        build()


def test_one_codec():
    # core holds the only reader of dataclass annotations, and the
    # hand-written codecs it replaced stay gone
    readers, defined = set(), set()
    for source in sorted(Path(poisonscan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module in ("dataclasses", "typing"):
                if {a.name for a in node.names} & {"fields", "get_type_hints"}:
                    readers.add(source.name)
            elif isinstance(node, ast.Attribute) and node.attr in ("fields", "get_type_hints"):
                if isinstance(node.value, ast.Name) and node.value.id in ("dataclasses", "typing"):
                    readers.add(source.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign)):
                names = [node.name] if hasattr(node, "name") else [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                defined.update(names)
    assert readers == {"core.py"}
    gone = {
        "_record_to_json", "_record_from_json", "_fields_dict", "check_scalar_fields", "_typed",
        "_TRUTH_TYPES", "_BOT_TYPES", "_SCALAR_TYPES", "_DECODERS",
    }
    assert defined & gone == set()


# the record classes written by ``core._writer``, and a value of each field
# type that json must escape, write as null, carry past 64 bits or write
# at repr's full precision
WRITTEN = (EventDetail, AttackContext, PayoffRecord, AttackTransferSet, AttackGroup)
ODD_TEXT = 'q"b\\%s %d é€\U0001f600\n'
FLOATS = (0.1, 1e-300, 0.9999999999999999)
EDGES = {bool: True, int: 2**64 + 1, str: ODD_TEXT, Decimal: Decimal("-0.000000"), float: FLOATS[2]}


def assert_written_as_json(record):
    """The file ``write_record`` streams is json's, compact and indented;
    a record of ``WRITTEN`` has the writer's text of json's, compact and at
    every depth up to 3."""
    raw = to_json(record)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "record.json"
        for indented, layout in ((False, {"separators": (",", ":")}), (True, {"indent": 2})):
            write_record(path, record, indented)
            assert path.read_text(encoding="utf-8") == json.dumps(raw, sort_keys=True, **layout) + "\n"
    if type(record) not in WRITTEN:
        return
    assert _writer(type(record))(record) == json.dumps(raw, sort_keys=True, separators=(",", ":"))
    for depth in range(4):
        nested = raw
        for _ in range(depth):
            nested = [nested]
        head = "".join("[\n" + "  " * (level + 1) for level in range(depth))
        tail = "".join("\n" + "  " * level + "]" for level in reversed(range(depth)))
        assert head + _writer(type(record), depth)(record) + tail == json.dumps(nested, indent=2, sort_keys=True)


def edge(hint):
    """The odd value of a field annotated ``hint``: None for an optional,
    an empty tuple, frozenset or dict, else its ``EDGES`` entry."""
    if NoneType in typing.get_args(hint):
        return None
    origin = typing.get_origin(hint)
    return origin() if origin in (tuple, frozenset, dict) else EDGES[hint]


@pytest.mark.parametrize(
    "name",
    [
        "event", "context", "payoff", "typo_payoff", "set", "group",
        "report", "excluded_report", "odd_report", "clusters",
    ],
)
def test_writer_gives_json_bytes(records, name):
    record = records[name]
    assert_written_as_json(record)
    # every container empty, every other field but a nested record odd
    hints = typing.get_type_hints(type(record))
    odd = {key: edge(hint) for key, hint in hints.items() if not dataclasses.is_dataclass(hint)}
    assert_written_as_json(dataclasses.replace(record, **odd))


def test_writer_gives_json_bytes_for_every_report_record(records):
    report = records["report"]
    for record in (*report.events.values(), *report.contexts, *report.payoffs):
        assert_written_as_json(record)


def built(cls) -> st.SearchStrategy:
    return st.builds(cls, **{key: values(hint) for key, hint in typing.get_type_hints(cls).items()})


def values(hint) -> st.SearchStrategy:
    if dataclasses.is_dataclass(hint):
        return built(hint)
    if typing.get_origin(hint) is tuple:
        return st.lists(values(typing.get_args(hint)[0]), max_size=3).map(tuple)
    if NoneType in typing.get_args(hint):
        return st.none() | values(typing.get_args(hint)[0])
    return {
        bool: st.booleans(),
        int: st.integers() | st.integers(min_value=-(2**260), max_value=2**260),
        str: st.text(max_size=6) | st.text(st.sampled_from(ODD_TEXT), max_size=6),
        Decimal: st.just(Decimal("-0.000000")) | st.decimals(allow_nan=False, allow_infinity=False),
    }[hint]


# a TransferEvent nests a record, which its writer writes by the nested class's
@given(st.one_of([built(cls) for cls in (*WRITTEN, TransferEvent)]))
@settings(max_examples=300, deadline=None)
def test_writer_gives_json_bytes_for_any_record(record):
    assert_written_as_json(record)
