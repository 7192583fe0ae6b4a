"""Event file ingestion tests: parsing, validation, round-trips."""

from __future__ import annotations

import ast
import dataclasses
import json
import os
import re
from pathlib import Path

import pytest

import poisonscan
from poisonscan.core import OrderingError, ParseError, TransactionRecord, TransferEvent
from poisonscan.ingest import (
    iter_events,
    load_account_history,
    write_account_history,
    write_events,
)

TOKEN = "0x" + "aa" * 20
ALICE = "0x" + "01" * 20
BOB = "0x" + "02" * 20
CAROL = "0x" + "03" * 20


def make_event(block, log_index, tx_suffix="00", value=1000, tx=None, from_addr=ALICE, to_addr=BOB):
    return TransferEvent(
        chain_id=1,
        block_number=block,
        timestamp=1_680_000_000 + block * 12,
        tx_hash="0x" + tx_suffix * 32,
        log_index=log_index,
        token=TOKEN,
        from_addr=from_addr,
        to_addr=to_addr,
        value=value,
        tx=tx,
    )


def write_raw(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def row(block, log_index, tx_suffix="00", value="1000", **extra):
    base = {
        "chain_id": 1,
        "block_number": block,
        "timestamp": 1_680_000_000 + block * 12,
        "tx_hash": "0x" + tx_suffix * 32,
        "log_index": log_index,
        "token": TOKEN,
        "from": ALICE,
        "to": BOB,
        "value": value,
    }
    base.update(extra)
    return base


def test_roundtrip_with_tx_metadata(tmp_path):
    events = [
        make_event(1, 0),
        make_event(1, 1, tx_suffix="01", tx=TransactionRecord(CAROL, TOKEN, 60_000, 30 * 10**9)),
        make_event(3, 0, tx_suffix="02", value=2**200),
    ]
    path = tmp_path / "events.jsonl"
    write_events(path, events)
    assert list(iter_events(path)) == events


def test_parsed_events_are_plain_transfer_events(tmp_path):
    events = [
        make_event(1, 0),
        make_event(1, 1, tx_suffix="01", tx=TransactionRecord(CAROL, None, 21_000, None)),
        make_event(2, 0, tx_suffix="02", value=2**256 - 1, from_addr=BOB, to_addr=ALICE),
    ]
    path = tmp_path / "events.jsonl"
    write_events(path, events)
    parsed = list(iter_events(path))
    for got, want in zip(parsed, events, strict=True):
        assert type(got) is TransferEvent
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.value = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            del got.tx
        assert dataclasses.replace(got, value=7) == dataclasses.replace(want, value=7)
        assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert set(parsed) == set(events)
    again = tmp_path / "again.jsonl"
    write_events(again, parsed)
    assert again.read_bytes() == path.read_bytes()
    assert list(iter_events(again)) == events


def test_value_serialized_as_decimal_string(tmp_path):
    path = tmp_path / "events.jsonl"
    write_events(path, [make_event(1, 0, value=12345)])
    raw = json.loads(path.read_text().splitlines()[0])
    assert raw["value"] == "12345"
    assert raw["from"] == ALICE and raw["to"] == BOB


def test_malformed_json_carries_line_number(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(row(1, 0)) + "\n" + "{not json\n")
    with pytest.raises(ParseError) as exc:
        list(iter_events(path))
    assert exc.value.line == 2


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    bad = row(1, 0)
    del bad["token"]
    write_raw(path, [bad])
    with pytest.raises(ParseError):
        list(iter_events(path))


# str.isdigit() holds for "²" and Arabic-Indic "١٢": int() rejects the
# first and reads the second as 12
@pytest.mark.parametrize("value", ["-5", "1.5", "abc", str(2**256), "", "\u00b2", "\u0661\u0662"])
def test_bad_values_rejected(tmp_path, value):
    path = tmp_path / "events.jsonl"
    write_raw(path, [row(1, 0, value=value)])
    with pytest.raises(ParseError) as exc:
        list(iter_events(path))
    assert (exc.value.path, exc.value.line) == (str(path), 1)


def test_value_upper_bound_accepts_max(tmp_path):
    path = tmp_path / "events.jsonl"
    write_raw(path, [row(1, 0, value=str(2**256 - 1))])
    events = list(iter_events(path))
    assert events[0].value == 2**256 - 1


# int() refuses more than 4,300 digits, in a string or a JSON literal
HUGE = "1" * 5000


@pytest.mark.parametrize(
    "raw",
    [json.dumps(row(1, 0, value=HUGE)), json.dumps(row(1, 0)).replace('"1000"', HUGE)],
    ids=["string", "literal"],
)
def test_huge_values_are_parse_errors(tmp_path, raw):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(row(1, 0, tx_suffix="01")) + "\n" + raw + "\n")
    with pytest.raises(ParseError) as exc:
        list(iter_events(path))
    assert (exc.value.path, exc.value.line) == (str(path), 2)


def test_zero_padded_value_longer_than_max_accepted(tmp_path):
    path = tmp_path / "events.jsonl"
    write_raw(path, [row(1, 0, value="0" * 5000 + str(2**256 - 1))])
    assert [e.value for e in iter_events(path)] == [2**256 - 1]


def exactly(text: str) -> str:
    return f"^{re.escape(text)}$"


def test_decreasing_blocks_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    write_raw(path, [row(5, 0), row(4, 0, tx_suffix="01")])
    with pytest.raises(OrderingError, match=exactly(f"{path}:2: block 4 after block 5")):
        list(iter_events(path))


def test_non_increasing_log_index_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    write_raw(path, [row(5, 3), row(5, 3, tx_suffix="01")])
    with pytest.raises(OrderingError, match=exactly(f"{path}:2: log index 3 after 3 in block 5")):
        list(iter_events(path))


def test_duplicate_tx_log_pair_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    cases = [
        # same tx hash reappears in a later block with the same log index
        [row(5, 0), row(6, 0)],
        # a transaction's logs spill over into the next block
        [row(5, 0), row(6, 1)],
    ]
    message = f"{path}:2: transaction 0x{'00' * 32} is not contiguous (block 6)"
    for rows in cases:
        write_raw(path, rows)
        with pytest.raises(OrderingError, match=exactly(message)):
            list(iter_events(path))


def test_interleaved_transaction_rejected(tmp_path):
    path = tmp_path / "events.jsonl"
    # tx 00 resumes after tx 01 started inside the same block
    write_raw(path, [row(5, 0, "00"), row(5, 1, "01"), row(5, 2, "00")])
    message = f"{path}:3: transaction 0x{'00' * 32} is not contiguous (block 5)"
    with pytest.raises(OrderingError, match=exactly(message)):
        list(iter_events(path))


def test_ordering_errors_are_raised_only_in_ingest():
    # ingest.ordered is the one implementation of the ordering contract
    raising = set()
    for source in sorted(Path(poisonscan.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                # OrderingError, or a dotted name ending in it
                if ast.unparse(exc).split(".")[-1] == "OrderingError":
                    raising.add(source.name)
    assert raising == {"ingest.py"}


def test_tx_metadata_parsed(tmp_path):
    path = tmp_path / "events.jsonl"
    write_raw(
        path,
        [
            row(
                1,
                0,
                tx={"initiator": CAROL, "target": TOKEN, "gas_used": 50_000, "gas_price": 10**9},
            )
        ],
    )
    (event,) = iter_events(path)
    assert event.tx == TransactionRecord(CAROL, TOKEN, 50_000, 10**9)


def test_tx_metadata_requires_initiator(tmp_path):
    path = tmp_path / "events.jsonl"
    write_raw(path, [row(1, 0, tx={"gas_used": 1})])
    with pytest.raises(ParseError):
        list(iter_events(path))


def test_empty_lines_are_skipped(tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(row(1, 0)) + "\n\n" + json.dumps(row(2, 0, "01")) + "\n")
    assert len(list(iter_events(path))) == 2


def test_fetch_reads_events_again_by_stream_position(tmp_path):
    # positions count the events, so blank lines do not shift them
    path = tmp_path / "events.jsonl"
    lines = ["", json.dumps(row(1, 0)), " \t", json.dumps(row(1, 1, "01")), json.dumps(row(2, 0, "02")), ""]
    path.write_text("\n".join(lines + [json.dumps(row(3, 0, "03"))]) + "\n")
    reader = iter_events(path)
    events = list(reader)
    assert len(events) == 4
    fetched = reader.fetch([3, 0, 2, 0])
    assert fetched == {0: events[0], 2: events[2], 3: events[3]}
    assert all(type(e) is TransferEvent for e in fetched.values())
    assert reader.fetch([]) == {}


def grow(path: Path) -> None:
    with path.open("a", encoding="utf-8") as fh:
        fh.write("\n")


def touch(path: Path) -> None:
    # the same bytes, written again a second later
    st = path.stat()
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


@pytest.mark.parametrize("change", [grow, touch])
def test_fetch_refuses_a_file_changed_after_the_read(tmp_path, change):
    path = tmp_path / "events.jsonl"
    write_events(path, [make_event(1, 0), make_event(2, 0, tx_suffix="01")])
    reader = iter_events(path)
    assert len(list(reader)) == 2
    change(path)
    with pytest.raises(ParseError, match="changed after it was read") as exc:
        reader.fetch([1])
    assert exc.value.path == str(path)


def test_closed_transactions_keep_distinct_spellings_apart(tmp_path):
    # "0x" and 64 hex digits is kept as its int; 0x1 and a hash with an
    # underscore have the same int but are other transactions
    one = "0x" + "0" * 63 + "1"
    hashes = [one, "0x1", "0x" + "0" * 62 + "_1", "0x" + "0" * 62 + " 1"]
    rows = [{**row(block, 0), "tx_hash": h} for block, h in enumerate(hashes, 1)]
    path = tmp_path / "events.jsonl"
    write_raw(path, rows)
    assert [e.tx_hash for e in iter_events(path)] == hashes
    write_raw(path, rows + [{**row(9, 0), "tx_hash": one}])
    with pytest.raises(OrderingError, match=f":5: transaction {one} is not contiguous"):
        list(iter_events(path))


# ---------------------------------------------------------------------------
# account history


def test_account_history_roundtrip(tmp_path):
    path = tmp_path / "accounts.csv"
    history = {ALICE: 120, BOB: 3}
    write_account_history(path, history)
    assert load_account_history(path) == history
    header = path.read_text().splitlines()[0]
    assert header == "account,total_txs"


def test_account_history_rejects_bad_counts(tmp_path):
    path = tmp_path / "accounts.csv"
    # int() parses every one of these but "x"
    for count in ("-4", "x", "\u0661\u0662", "1_0", "+5", " 5"):
        path.write_text(f"account,total_txs\n{BOB},3\n{ALICE},{count}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_account_history(path)
        assert (exc.value.path, exc.value.line) == (str(path), 3), count
