"""``iter_events`` against the per-field reference parser in parse_oracle.py.

Both readers must yield the same events from any file, or stop at the
same line with the same error, message included.  The files mix address
spellings and corrupt fields in every way the reader checks, one or two
at a time, so the order in which errors are reported is pinned too.
"""

from __future__ import annotations

import json
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from poisonscan import ingest
from poisonscan.core import MAX_VALUE, OrderingError, ParseError, parse_address
from poisonscan.ingest import iter_events

from parse_oracle import reference_iter_events


class _Missing:
    def __repr__(self) -> str:
        return "MISSING"


MISSING = _Missing()  # the field is left out of the line
GOOD = "0x" + "ab" * 20

# every way each field can be wrong, in the reader's reporting order
BAD_INT = [MISSING, None, True, False, 1.5, -1, "5", [1], {"a": 1}]
BAD_ADDRESS = [
    MISSING, None, True, 7, 1.5, [GOOD], {"a": GOOD},
    "0x" + "g" * 40,  # non-hex
    "0x" + "a" * 39,
    "0x" + "a" * 41,
    "0x" + "a" * 38 + "١٢",  # non-ASCII digits
    "0x0x" + "a" * 38,
    "0x" + "a" * 38 + "_1",
    "",
]
CORRUPTIONS = {
    "tx_hash": [MISSING, None, 5, True, "ab" * 32, "0X" + "ab" * 32, [1]],
    "chain_id": BAD_INT + [0],
    "block_number": BAD_INT,
    "timestamp": BAD_INT,
    "log_index": BAD_INT,
    "token": BAD_ADDRESS,
    "from": BAD_ADDRESS,
    "to": BAD_ADDRESS,
    "value": [
        MISSING, None, True, 1.5, -5, [5], {"v": 5}, "", "-5", "1.5", "abc",
        "١٢", "²", "+5", " 5", "5 ", "1_0",
        MAX_VALUE + 1, str(MAX_VALUE + 1),
    ],
    "tx": [
        5, "tx", [GOOD], True,
        {"gas_used": 1},
        {"initiator": None},
        *({"initiator": bad} for bad in BAD_ADDRESS if bad is not MISSING and bad is not None),
        *({"initiator": GOOD, "target": bad} for bad in BAD_ADDRESS if bad is not MISSING and bad is not None),
        *({"initiator": GOOD, gas: bad} for gas in ("gas_used", "gas_price") for bad in (-1, True, 1.5, "5", [1])),
        {"initiator": GOOD, "gas_used": -1, "gas_price": "x"},
    ],
}
FIELDS = list(CORRUPTIONS)

# one corruption per field and the message it must give
FIRST_ERROR = {
    "tx_hash": (None, "field 'tx_hash' must be a 0x-prefixed string, got None"),
    "chain_id": (0, "field 'chain_id' out of range: 0"),
    "block_number": (True, "field 'block_number' must be an integer, got True"),
    "timestamp": (-1, "field 'timestamp' out of range: -1"),
    "log_index": (MISSING, "missing field 'log_index'"),
    "token": ([GOOD], "field 'token': address must be a string, got list"),
    "from": ("0x" + "a" * 39, "field 'from': address must be 40 hex digits, got 39 in '0x" + "a" * 39 + "'"),
    "to": ("0x" + "g" * 40, "field 'to': address contains non-hex digits: '0x" + "g" * 40 + "'"),
    "value": ("+5", "field 'value' must be a decimal string, got '+5'"),
    "tx": ({"gas_used": 1}, "field 'tx' requires 'initiator'"),
}


def good_row(i: int) -> dict:
    return {
        "chain_id": 1,
        "block_number": 100 + i,
        "timestamp": 1_700_000_000 + 12 * i,
        "tx_hash": "0x" + "ab" * 31 + "%02x" % i,
        "log_index": 0,
        "token": GOOD,
        "from": "0x" + "%040x" % (2 * i + 1),
        "to": "0x" + "%040x" % (2 * i + 2),
        "value": "1000",
    }


def corrupt(row: dict, field: str, bad) -> dict:
    row = dict(row)
    if bad is MISSING:
        row.pop(field, None)
    else:
        row[field] = bad
    return row


def outcome(reader, path):
    """The events a reader yields before it stops, and the error it stops with."""
    events = []
    try:
        for event in reader(path):
            events.append(event)
    except (ParseError, OrderingError) as exc:
        return events, (type(exc), str(exc), getattr(exc, "path", None), getattr(exc, "line", None))
    return events, None


def assert_same(path):
    got, want = outcome(iter_events, path), outcome(reference_iter_events, path)
    assert got[1] == want[1]
    assert got[0] == want[0]
    # repr tells 1 from True and "1" from 1, which == does not
    assert [repr(e) for e in got[0]] == [repr(e) for e in want[0]]
    return got


@pytest.mark.parametrize(
    "field,bad",
    [(field, bad) for field, bads in CORRUPTIONS.items() for bad in bads],
    ids=[f"{field}-{k}" for field, bads in CORRUPTIONS.items() for k in range(len(bads))],
)
def test_each_corruption_matches_oracle(tmp_path, field, bad):
    path = tmp_path / "events.jsonl"
    lines = [good_row(0), corrupt(good_row(1), field, bad)]
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")
    events, error = assert_same(path)
    assert len(events) == 1 and error is not None and error[3] == 2


@pytest.mark.parametrize("first,second", list(combinations(FIELDS, 2)))
def test_first_bad_field_reported(tmp_path, first, second):
    path = tmp_path / "events.jsonl"
    row = corrupt(corrupt(good_row(0), first, FIRST_ERROR[first][0]), second, FIRST_ERROR[second][0])
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    _, error = assert_same(path)
    assert error == (ParseError, f"{FIRST_ERROR[first][1]} ({path}:1)", str(path), 1)


@pytest.mark.parametrize(
    "line",
    [
        "{not json",
        "[1, 2]",
        '"text"',
        "5",
        "null",
        '{"a": 1} x',
        '{"a": 1}{"b": 2}',
        "﻿" + json.dumps(good_row(1)),
        json.dumps(good_row(1))[:-1],
        '{"a": NaN}',
        '{"a": "\\ud800"}',
        # event lines keep json's last-wins rule for a repeated key, in the
        # message of a bad line too
        '{"value": "7", ' + json.dumps(good_row(1))[1:],
        '{"a": 1, "a": 2} x',
    ],
)
def test_json_level_errors_match_oracle(tmp_path, line):
    path = tmp_path / "events.jsonl"
    path.write_text(json.dumps(good_row(0)) + "\n" + line + "\n", encoding="utf-8")
    assert_same(path)


# ---------------------------------------------------------------------------
# generated files

HEX = "0123456789abcdef"


@st.composite
def spelling(draw, pool):
    """One raw spelling of an address drawn from the pool."""
    digits = draw(st.sampled_from(pool))
    mask = draw(st.integers(0, 2**40 - 1))
    digits = "".join(c.upper() if mask >> k & 1 else c for k, c in enumerate(digits))
    prefix = draw(st.sampled_from(["0x", "0X", ""]))
    # str.strip, and so parse_address, also strips a no-break space
    pad = draw(st.sampled_from(["", " ", "\t", "  ", "\u00a0"]))
    return pad + prefix + digits + pad[::-1]


@st.composite
def event_file(draw):
    pool = draw(st.lists(st.text(HEX, min_size=40, max_size=40), min_size=1, max_size=5, unique=True))
    address = spelling(pool)
    lines = []
    for i in range(draw(st.integers(1, 8))):
        row = good_row(i)
        row["chain_id"] = draw(st.integers(1, 3))
        row["log_index"] = draw(st.integers(0, 3))
        if draw(st.booleans()):
            row["tx_hash"] = row["tx_hash"].upper().replace("0X", "0x")
        for field in ("token", "from", "to"):
            row[field] = draw(address)
        row["value"] = draw(
            st.one_of(st.integers(0, MAX_VALUE), st.integers(0, MAX_VALUE).map(str), st.just(MAX_VALUE))
        )
        if draw(st.booleans()):
            tx = {"initiator": draw(address)}
            if draw(st.booleans()):
                tx["target"] = draw(st.one_of(st.none(), address))
            for gas in ("gas_used", "gas_price"):
                if draw(st.booleans()):
                    tx[gas] = draw(st.one_of(st.none(), st.integers(0, 10**12)))
            row["tx"] = tx
        for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 3)) == 0 else 0):
            field = draw(st.sampled_from(FIELDS))
            row = corrupt(row, field, draw(st.sampled_from(CORRUPTIONS[field])))
        lines.append(json.dumps(row))
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", "   ", "{oops", "[]"])))
    return "".join(line + "\n" for line in lines)


@given(text=event_file())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_generated_files_match_oracle(tmp_path, text):
    path = tmp_path / "events.jsonl"
    path.write_text(text, encoding="utf-8")
    assert_same(path)


# ---------------------------------------------------------------------------
# the address intern cache


def test_intern_cache_stays_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(ingest, "_INTERN_MAX", 4)
    caches, sizes = [], []
    intern = ingest._intern

    def spy(obj, field, cache, path, line):
        try:
            return intern(obj, field, cache, path, line)
        finally:
            caches.append(cache)
            sizes.append(len(cache))
            assert all(parse_address(raw) == canon for raw, canon in cache.items())
            # text already canonical is stored once, as key and value
            assert all(canon is raw for raw, canon in cache.items() if canon == raw)

    monkeypatch.setattr(ingest, "_intern", spy)
    rows = []
    for i in range(60):
        row = good_row(i)
        # recurring spellings of a few addresses, between many new ones
        row["token"] = ["0x" + "ab" * 20, "0X" + "AB" * 20, " 0x" + "Ab" * 20][i % 3]
        if i % 4 == 0:
            row["tx"] = {"initiator": "0x" + "%040x" % (1000 + i), "target": row["from"].upper()[2:]}
        rows.append(row)
    bad = "0x" + "g" * 40
    rows.append(corrupt(good_row(60), "to", bad))
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    events, error = assert_same(path)
    assert len(events) == 60 and error[3] == 61
    assert len(sizes) > 100 and max(sizes) <= 4
    assert len({id(c) for c in caches}) == 1 and bad not in caches[0]


def test_one_string_per_address_spelling(tmp_path):
    rows = [good_row(i) for i in range(3)]
    for row in rows:
        row["from"] = "0x" + "cd" * 20
    path = tmp_path / "events.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    events = list(iter_events(path))
    assert events[0].from_addr is events[1].from_addr is events[2].from_addr
    assert events[0].token is events[2].token
