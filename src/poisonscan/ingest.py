"""Reading and writing transfer event files.

Events live in JSON Lines files, one transfer per line, ordered by
``(block_number, log_index)``.  Reading validates each line as it is
consumed: its fields, that order, and that each transaction's logs form
one uninterrupted run, so a bad line surfaces with its ``path:line``.
``scan`` applies the same ordering rules again, because it also takes
in-memory streams that never passed through a file.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from .core import (
    MAX_VALUE,
    OrderingError,
    ParseError,
    TransactionRecord,
    TransferEvent,
    parse_address,
)

__all__ = [
    "iter_events",
    "validate_stream",
    "write_events",
    "load_account_history",
    "write_account_history",
]


def _parse_int(obj: dict, field: str, path: str, line: int, *, minimum: int = 0, maximum: int | None = None) -> int:
    try:
        value = obj[field]
    except KeyError:
        raise ParseError(f"missing field {field!r}", path=path, line=line) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {field!r} must be an integer, got {value!r}", path=path, line=line)
    if value < minimum or (maximum is not None and value > maximum):
        raise ParseError(f"field {field!r} out of range: {value}", path=path, line=line)
    return value


def _parse_addr(obj: dict, field: str, path: str, line: int) -> str:
    try:
        raw = obj[field]
    except KeyError:
        raise ParseError(f"missing field {field!r}", path=path, line=line) from None
    try:
        return parse_address(raw)
    except Exception as exc:
        raise ParseError(f"field {field!r}: {exc}", path=path, line=line) from None


def _parse_value(obj: dict, path: str, line: int) -> int:
    raw = obj.get("value")
    if raw is None:
        raise ParseError("missing field 'value'", path=path, line=line)
    if isinstance(raw, int) and not isinstance(raw, bool):
        value = raw
    elif isinstance(raw, str):
        # isdigit alone admits non-ASCII digits such as "²" or "١"
        if not (raw.isascii() and raw.isdigit()):
            raise ParseError(f"field 'value' must be a decimal string, got {raw!r}", path=path, line=line)
        value = int(raw)
    else:
        raise ParseError(f"field 'value' must be a decimal string, got {raw!r}", path=path, line=line)
    if not 0 <= value <= MAX_VALUE:
        raise ParseError(f"field 'value' out of range: {value}", path=path, line=line)
    return value


def _parse_tx(obj: dict, path: str, line: int) -> TransactionRecord | None:
    raw = obj.get("tx")
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ParseError(f"field 'tx' must be an object, got {raw!r}", path=path, line=line)
    if "initiator" not in raw:
        raise ParseError("field 'tx' requires 'initiator'", path=path, line=line)
    initiator = _parse_addr(raw, "initiator", path, line)
    target = _parse_addr(raw, "target", path, line) if raw.get("target") is not None else None
    gas_used = raw.get("gas_used")
    gas_price = raw.get("gas_price")
    for name, val in (("gas_used", gas_used), ("gas_price", gas_price)):
        if val is not None and (isinstance(val, bool) or not isinstance(val, int) or val < 0):
            raise ParseError(f"field 'tx.{name}' must be a non-negative integer", path=path, line=line)
    return TransactionRecord(initiator=initiator, target=target, gas_used=gas_used, gas_price=gas_price)


def _parse_event(obj: dict, path: str, line: int) -> TransferEvent:
    tx_hash = obj.get("tx_hash")
    if not isinstance(tx_hash, str) or not tx_hash.startswith("0x"):
        raise ParseError(f"field 'tx_hash' must be a 0x-prefixed string, got {tx_hash!r}", path=path, line=line)
    return TransferEvent(
        chain_id=_parse_int(obj, "chain_id", path, line, minimum=1),
        block_number=_parse_int(obj, "block_number", path, line),
        timestamp=_parse_int(obj, "timestamp", path, line),
        tx_hash=tx_hash.lower(),
        log_index=_parse_int(obj, "log_index", path, line),
        token=_parse_addr(obj, "token", path, line),
        from_addr=_parse_addr(obj, "from", path, line),
        to_addr=_parse_addr(obj, "to", path, line),
        value=_parse_value(obj, path, line),
        tx=_parse_tx(obj, path, line),
    )


class _OrderChecker:
    """Enforces stream ordering invariants while events are consumed.

    Blocks must be non-decreasing, log indices strictly increasing within
    a block, and all events of one transaction one uninterrupted run: a
    transaction closes when another one starts or its block ends, and a
    closed transaction never reappears.  Per-transaction grouping
    downstream relies on the last rule, and it also makes every
    ``(tx_hash, log_index)`` pair unique.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.prev_block = -1
        self.prev_log = -1
        self.current_tx: str | None = None
        self.closed_txs: set[str] = set()

    def check(self, event: TransferEvent, line: int) -> None:
        if event.block_number < self.prev_block:
            raise OrderingError(
                f"{self.path}:{line}: block {event.block_number} after block {self.prev_block}"
            )
        if event.block_number != self.prev_block:
            self.prev_block = event.block_number
            self.prev_log = -1
            if self.current_tx is not None:
                self.closed_txs.add(self.current_tx)
                self.current_tx = None
        elif event.log_index <= self.prev_log:
            raise OrderingError(
                f"{self.path}:{line}: log index {event.log_index} after {self.prev_log} "
                f"in block {event.block_number}"
            )
        self.prev_log = event.log_index
        if event.tx_hash != self.current_tx:
            if event.tx_hash in self.closed_txs:
                raise OrderingError(
                    f"{self.path}:{line}: transaction {event.tx_hash} is not contiguous "
                    f"(block {event.block_number})"
                )
            if self.current_tx is not None:
                self.closed_txs.add(self.current_tx)
            self.current_tx = event.tx_hash


def iter_events(path: str | Path) -> Iterator[TransferEvent]:
    """Yield validated events from a JSON Lines file in stream order."""
    path = Path(path)
    checker = _OrderChecker(str(path))
    with path.open("r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", path=str(path), line=line_no) from None
            if not isinstance(obj, dict):
                raise ParseError("each line must be a JSON object", path=str(path), line=line_no)
            event = _parse_event(obj, str(path), line_no)
            checker.check(event, line_no)
            yield event


def validate_stream(events: Iterable[TransferEvent], name: str = "<stream>") -> int:
    """Check an in-memory event sequence against the file-order invariants.

    Returns the number of events checked; raises OrderingError on the
    first violation.
    """
    checker = _OrderChecker(name)
    count = 0
    for position, event in enumerate(events, start=1):
        checker.check(event, position)
        count += 1
    return count


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
    """Load per-account lifetime transaction counts from a two-column CSV."""
    path = Path(path)
    history: dict[str, int] = {}
    with path.open("r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != ["account", "total_txs"]:
            raise ParseError(f"expected header 'account,total_txs', got {header}", path=str(path), line=1)
        for line_no, fields in enumerate(reader, start=2):
            if not fields:
                continue
            if len(fields) != 2:
                raise ParseError(f"expected 2 columns, got {len(fields)}", path=str(path), line=line_no)
            try:
                account = parse_address(fields[0])
            except Exception as exc:
                raise ParseError(str(exc), path=str(path), line=line_no) from None
            raw = fields[1]
            # as in _parse_value: int() would also take "١٢", "1_0", "+5", " 5" and "-4"
            if not (raw.isascii() and raw.isdigit()):
                raise ParseError(f"bad count {raw!r}", path=str(path), line=line_no)
            count = int(raw)
            if account in history:
                raise ParseError(f"duplicate account {account}", path=str(path), line=line_no)
            history[account] = count
    return history


def write_account_history(path: str | Path, history: dict[str, int]) -> None:
    with Path(path).open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["account", "total_txs"])
        for account in sorted(history):
            writer.writerow([account, history[account]])
