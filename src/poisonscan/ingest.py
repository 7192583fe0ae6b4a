"""Reading and writing transfer event files.

Events live in JSON Lines files, one transfer per line, ordered by
``(block_number, log_index)``.  Reading validates each line as it is
consumed: its fields, that order, and that each transaction's logs form
one uninterrupted run, so a bad line surfaces with its ``path:line``.
``ordered`` is the one implementation of that ordering contract:
``iter_events`` runs it over a file's lines, ``validate_stream`` and
``scan`` over an in-memory stream, and ``increasing``, its order rule
alone, serves ``scan``'s history walk.

``iter_events`` checks every line on one path, built for speed because
it runs once per event:

- each line goes straight to the C JSON scanner, and is accepted only
  when the scanner consumes all of it; otherwise ``json.loads`` runs on
  it to raise the exact ``invalid JSON`` message;
- each field is tested inline by exact type and range, in a fixed order
  (``tx_hash``, ``chain_id``, ``block_number``, ``timestamp``,
  ``log_index``, ``token``, ``from``, ``to``, ``value``, ``tx``); only a
  failing field calls a helper, which builds its message (or, for a
  zero-padded ``value`` longer than 78 digits, its value);
- addresses go through a per-file intern cache from raw text to
  canonical form.  Only text that ``parse_address`` accepted enters it,
  and it is cleared once it holds ``_INTERN_MAX`` entries, so it stays
  bounded on any stream while every event of one account shares one
  string;
- the event is filled in through its slot descriptors, which skips the
  frozen dataclass ``__init__`` but makes the same object.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator
from json.scanner import make_scanner
from pathlib import Path

from .core import (
    MAX_VALUE,
    AddressError,
    OrderingError,
    ParseError,
    TransactionRecord,
    TransferEvent,
    address_at,
    csv_rows,
    parse_address,
    parse_json,
)

__all__ = [
    "iter_events",
    "validate_stream",
    "write_events",
    "load_account_history",
    "write_account_history",
]

# entries the address intern cache may hold before it is cleared
_INTERN_MAX = 1 << 16

# TransferEvent's slot setters, by name; iter_events fills bare instances
# through them, skipping the frozen __init__'s object.__setattr__ per field
_SETTERS = tuple(
    getattr(TransferEvent, name).__set__
    for name in (
        "chain_id", "block_number", "timestamp", "tx_hash", "log_index",
        "token", "from_addr", "to_addr", "value", "tx",
    )
)


def _int_error(obj: dict, field: str, path: str, line: int) -> ParseError:
    if field not in obj:
        return ParseError(f"missing field {field!r}", path=path, line=line)
    value = obj[field]
    if type(value) is not int:
        return ParseError(f"field {field!r} must be an integer, got {value!r}", path=path, line=line)
    return ParseError(f"field {field!r} out of range: {value}", path=path, line=line)


def _slow_value(raw, path: str, line: int) -> int:
    """The value field when iter_events's inline test fails it: the value
    of a zero-padded digit string longer than MAX_VALUE's 78 digits, or the
    ParseError that names the fault."""
    if raw is None:
        raise ParseError("missing field 'value'", path=path, line=line)
    if type(raw) is str and raw.isascii() and raw.isdigit():
        digits = raw.lstrip("0") or "0"
        # more digits cannot be in range, and int() refuses past 4,300
        if len(digits) > 78:
            raise ParseError(f"field 'value' out of range: {digits}", path=path, line=line)
        raw = int(digits)
    if type(raw) is not int:
        raise ParseError(f"field 'value' must be a decimal string, got {raw!r}", path=path, line=line)
    if not 0 <= raw <= MAX_VALUE:
        raise ParseError(f"field 'value' out of range: {raw}", path=path, line=line)
    return raw


def _intern(obj: dict, field: str, intern: dict[str, str], path: str, line: int) -> str:
    """The address ``obj[field]`` in canonical form, through the intern cache."""
    raw = obj.get(field)
    # the type test keeps a list or dict (unhashable) out of the lookup, so
    # that it reaches parse_address's "must be a string"
    address = intern.get(raw) if type(raw) is str else None
    if address is not None:
        return address
    if field not in obj:
        raise ParseError(f"missing field {field!r}", path=path, line=line)
    try:
        address = parse_address(raw)
    except AddressError as exc:
        raise ParseError(f"field {field!r}: {exc}", path=path, line=line) from None
    if address == raw:
        address = raw  # one string serves as key and value
    if len(intern) >= _INTERN_MAX:
        intern.clear()
    intern[raw] = address
    return address


def _parse_tx(raw, intern: dict[str, str], path: str, line: int) -> TransactionRecord:
    if type(raw) is not dict:
        raise ParseError(f"field 'tx' must be an object, got {raw!r}", path=path, line=line)
    if "initiator" not in raw:
        raise ParseError("field 'tx' requires 'initiator'", path=path, line=line)
    initiator = _intern(raw, "initiator", intern, path, line)
    target = _intern(raw, "target", intern, path, line) if raw.get("target") is not None else None
    gas_used = raw.get("gas_used")
    gas_price = raw.get("gas_price")
    for name, val in (("gas_used", gas_used), ("gas_price", gas_price)):
        if val is not None and (type(val) is not int or val < 0):
            raise ParseError(f"field 'tx.{name}' must be a non-negative integer", path=path, line=line)
    return TransactionRecord(initiator=initiator, target=target, gas_used=gas_used, gas_price=gas_price)


def ordered(numbered: Iterable[tuple[int, TransferEvent]], name: str) -> Iterator[TransferEvent]:
    """Yield the events of ``(where, event)`` pairs, checking stream order.

    Blocks must be non-decreasing, log indices strictly increasing within
    a block, and all events of one transaction one uninterrupted run: a
    transaction closes when another one starts or its block ends, and a
    closed transaction never reappears.  Per-transaction grouping
    downstream relies on the last rule, and it also makes every
    ``(tx_hash, log_index)`` pair unique.  The first violation raises
    OrderingError as ``name:where: ...``.
    """
    # the state lives in locals: this runs once per event on every path
    prev_block = -1
    prev_log = -1
    current_tx: str | None = None
    closed_txs: set[str] = set()
    for where, event in numbered:
        block = event.block_number
        if block != prev_block:
            if block < prev_block:
                raise OrderingError(f"{name}:{where}: block {block} after block {prev_block}")
            prev_block = block
            if current_tx is not None:
                closed_txs.add(current_tx)
                current_tx = None
        elif event.log_index <= prev_log:
            raise OrderingError(
                f"{name}:{where}: log index {event.log_index} after {prev_log} in block {block}"
            )
        prev_log = event.log_index
        tx_hash = event.tx_hash
        if tx_hash != current_tx:
            if tx_hash in closed_txs:
                raise OrderingError(
                    f"{name}:{where}: transaction {tx_hash} is not contiguous (block {block})"
                )
            if current_tx is not None:
                closed_txs.add(current_tx)
            current_tx = tx_hash
        yield event


def increasing(numbered: Iterable[tuple[int, TransferEvent]], name: str) -> Iterator[TransferEvent]:
    """``ordered`` without its transaction rules, and so without the set of
    closed transactions they keep: ``(block_number, log_index)`` must
    strictly increase, and a violation raises ``ordered``'s message."""
    prev_block = prev_log = -1
    for where, event in numbered:
        block, log = event.block_number, event.log_index
        if block < prev_block:
            raise OrderingError(f"{name}:{where}: block {block} after block {prev_block}")
        if block == prev_block and log <= prev_log:
            raise OrderingError(f"{name}:{where}: log index {log} after {prev_log} in block {block}")
        prev_block, prev_log = block, log
        yield event


def iter_events(path: str | Path) -> Iterator[TransferEvent]:
    """Yield validated events from a JSON Lines file in stream order; the
    file is opened on the first ``next()``."""
    path = Path(path)
    return ordered(_parse(path), str(path))


def _parse(path: Path) -> Iterator[tuple[int, TransferEvent]]:
    """Yield ``(line number, event)`` for each line of an event file,
    with every field checked; ``ordered`` checks the order."""
    name = str(path)
    scan_once = make_scanner(json.JSONDecoder())
    intern: dict[str, str] = {}
    new = object.__new__
    set_chain, set_block, set_time, set_hash, set_log, set_token, set_from, set_to, set_value, set_tx = _SETTERS
    with path.open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            # StopIteration: no value at offset 0; JSONDecodeError is a ValueError
            try:
                obj, end = scan_once(raw, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(raw):
                # the scanner keeps the last value of a repeated key, and so
                # must the message of a line it rejects
                obj = parse_json(raw, name, line_no, distinct_keys=False)
            if type(obj) is not dict:
                raise ParseError("each line must be a JSON object", path=name, line=line_no)
            get = obj.get
            tx_hash = get("tx_hash")
            if type(tx_hash) is not str or not tx_hash.startswith("0x"):
                raise ParseError(
                    f"field 'tx_hash' must be a 0x-prefixed string, got {tx_hash!r}", path=name, line=line_no
                )
            chain_id = get("chain_id")
            if type(chain_id) is not int or chain_id < 1:
                raise _int_error(obj, "chain_id", name, line_no)
            block = get("block_number")
            if type(block) is not int or block < 0:
                raise _int_error(obj, "block_number", name, line_no)
            timestamp = get("timestamp")
            if type(timestamp) is not int or timestamp < 0:
                raise _int_error(obj, "timestamp", name, line_no)
            log_index = get("log_index")
            if type(log_index) is not int or log_index < 0:
                raise _int_error(obj, "log_index", name, line_no)
            # _intern's cache lookup, inlined; a miss repeats it there
            token = get("token")
            token = intern.get(token) if type(token) is str else None
            if token is None:
                token = _intern(obj, "token", intern, name, line_no)
            frm = get("from")
            frm = intern.get(frm) if type(frm) is str else None
            if frm is None:
                frm = _intern(obj, "from", intern, name, line_no)
            to = get("to")
            to = intern.get(to) if type(to) is str else None
            if to is None:
                to = _intern(obj, "to", intern, name, line_no)
            value = get("value")
            # isdigit alone admits non-ASCII digits such as "²" or "١"; past
            # MAX_VALUE's 78 digits only a zero-padded string is in range
            if type(value) is str and value.isascii() and value.isdigit() and len(value) <= 78:
                value = int(value)
            if type(value) is not int or not 0 <= value <= MAX_VALUE:
                value = _slow_value(get("value"), name, line_no)
            tx = get("tx")
            if tx is not None:
                tx = _parse_tx(tx, intern, name, line_no)
            event = new(TransferEvent)
            set_chain(event, chain_id)
            set_block(event, block)
            set_time(event, timestamp)
            set_hash(event, tx_hash.lower())
            set_log(event, log_index)
            set_token(event, token)
            set_from(event, frm)
            set_to(event, to)
            set_value(event, value)
            set_tx(event, tx)
            yield line_no, event


def validate_stream(events: Iterable[TransferEvent], name: str = "<stream>") -> int:
    """Check an in-memory event sequence against the file-order invariants.

    Returns the number of events checked; raises OrderingError on the
    first violation, as ``name:position: ...`` counting from 1.
    """
    return sum(1 for _ in ordered(enumerate(events, start=1), name))


def _event_to_json(event: TransferEvent) -> dict:
    obj: dict = {
        "chain_id": event.chain_id,
        "block_number": event.block_number,
        "timestamp": event.timestamp,
        "tx_hash": event.tx_hash,
        "log_index": event.log_index,
        "token": event.token,
        "from": event.from_addr,
        "to": event.to_addr,
        "value": str(event.value),
    }
    if event.tx is not None:
        tx: dict = {"initiator": event.tx.initiator}
        if event.tx.target is not None:
            tx["target"] = event.tx.target
        if event.tx.gas_used is not None:
            tx["gas_used"] = event.tx.gas_used
        if event.tx.gas_price is not None:
            tx["gas_price"] = event.tx.gas_price
        obj["tx"] = tx
    return obj


def write_events(path: str | Path, events: Iterable[TransferEvent]) -> int:
    """Write events to a JSON Lines file; returns the number written."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(_event_to_json(event), separators=(",", ":")) + "\n")
            count += 1
    return count


def load_account_history(path: str | Path) -> dict[str, int]:
    """Per-account lifetime transaction counts from a CSV with columns account and total_txs."""
    history: dict[str, int] = {}
    for error, row in csv_rows(path, ("account", "total_txs")):
        account, raw = address_at(row["account"], error), row["total_txs"]
        # as for an event's value: int() would also take "١٢", "1_0", "+5", " 5" and "-4"
        if not (raw.isascii() and raw.isdigit()):
            raise error(f"bad count {raw!r}")
        try:
            count = int(raw)
        except ValueError:  # past int()'s digit limit
            raise error(f"count of {len(raw)} digits out of range") from None
        if account in history:
            raise error(f"duplicate account {account}")
        history[account] = count
    return history


def write_account_history(path: str | Path, history: dict[str, int]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["account", "total_txs"])
        for account in sorted(history):
            writer.writerow([account, history[account]])
