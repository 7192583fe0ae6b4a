"""Per-field reference parser for event files, used as a test oracle.

This is the straightforward reader that ``iter_events`` replaced: every
line goes through ``json.loads``, every field through its own helper,
every address through ``parse_address`` and every event through the
dataclass constructor.  ``iter_events`` must yield the same events as
``reference_iter_events`` on any file, or raise the same error (type,
message, path and line).  The ordering rule is ``ingest.ordered``,
shared on purpose: it is the one ordering rule, not under test here.
Never imported by library code.
"""

from __future__ import annotations

import json
from pathlib import Path

from poisonscan.core import MAX_VALUE, ParseError, TransactionRecord, TransferEvent, parse_address
from poisonscan.ingest import ordered


def _parse_int(obj: dict, field: str, path: str, line: int, *, minimum: int = 0) -> int:
    try:
        value = obj[field]
    except KeyError:
        raise ParseError(f"missing field {field!r}", path=path, line=line) from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"field {field!r} must be an integer, got {value!r}", path=path, line=line)
    if value < minimum:
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


def reference_iter_events(path: str | Path):
    """Yield validated events from a JSON Lines file, one helper per field."""
    path = Path(path)
    return ordered(_numbered_events(path), str(path))


def _numbered_events(path: Path):
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
            yield line_no, _parse_event(obj, str(path), line_no)
