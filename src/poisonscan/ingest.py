"""Reading and writing transfer event files.

Events live in JSON Lines files, one transfer per line, ordered by
``(block_number, log_index)``.  Reading validates each line as it is
consumed: its fields, that order, and that each transaction's logs form
one uninterrupted run, so a bad line surfaces with its ``path:line``.
``ordered`` is the one implementation of that ordering contract, and each
event passes through it once: ``iter_events`` runs it over a file's lines,
and ``validate_stream`` and ``scan`` over any other stream, ``scan``'s
history included. ``scan`` does not run it again over a reader that
``iter_events`` returned, and after its pass it reads the few events it
reports back through that reader's ``fetch``; so a reader takes only a
regular file, which can be read twice.

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
import os
import stat
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
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


def ordered(
    numbered: Iterable[tuple[int, TransferEvent]], name: str, *, compact: bool = False
) -> Iterator[TransferEvent]:
    """Yield the events of ``(where, event)`` pairs, checking stream order.

    Blocks must be non-decreasing, log indices strictly increasing within
    a block, and all events of one transaction one uninterrupted run: a
    transaction closes when another one starts or its block ends, and a
    closed transaction never reappears.  Per-transaction grouping
    downstream relies on the last rule, and it also makes every
    ``(tx_hash, log_index)`` pair unique.  The first violation raises
    OrderingError as ``name:where: ...``.

    The closed transactions are the only state that grows with the stream.
    With ``compact``, for a stream whose events are not kept, a hash of
    ``0x`` and 64 lowercase hex digits is kept as its int, about half the
    size of the string, and any other spelling as it is: int(h, 16) alone
    would also take ``_``, whitespace, upper case and non-ASCII digits, and
    so merge distinct spellings, while the round trip through bytes admits
    one spelling of each int. Without it the strings are kept, which the
    events hold anyway.
    """
    # the state lives in locals: this runs once per event on every path
    prev_block = -1
    prev_log = -1
    current_tx: str | None = None
    current_key: int | str | None = None
    closed_txs: set[int | str] = set()
    fromhex, from_bytes = bytes.fromhex, int.from_bytes
    for where, event in numbered:
        block = event.block_number
        if block != prev_block:
            if block < prev_block:
                raise OrderingError(f"{name}:{where}: block {block} after block {prev_block}")
            prev_block = block
            if current_tx is not None:
                closed_txs.add(current_key)
                current_tx = None
        elif event.log_index <= prev_log:
            raise OrderingError(
                f"{name}:{where}: log index {event.log_index} after {prev_log} in block {block}"
            )
        prev_log = event.log_index
        tx_hash = event.tx_hash
        if tx_hash != current_tx:
            key = tx_hash
            if compact and len(tx_hash) == 66 and tx_hash[:2] == "0x":
                digits = tx_hash[2:]
                try:
                    raw = fromhex(digits)
                    if raw.hex() == digits:
                        key = from_bytes(raw, "big")
                except ValueError:
                    pass
            if key in closed_txs:
                raise OrderingError(
                    f"{name}:{where}: transaction {tx_hash} is not contiguous (block {block})"
                )
            if current_tx is not None:
                closed_txs.add(current_key)
            current_tx = tx_hash
            current_key = key
        yield event


def iter_events(path: str | Path, progress: Callable[[int], None] | None = None) -> EventReader:
    """Yield validated events from a JSON Lines file in stream order; the
    file is opened on the first ``next()``. With ``progress``, the events
    are read a batch at a time and ``progress`` is called with the size of
    each batch. The ``EventReader`` returned can also read events again by
    stream position once they have been read."""
    return EventReader(Path(path), progress)


class EventReader:
    """The iterator over an event file that ``iter_events`` returns, which
    can also read some of its events again once they have been read.

    ``fetch`` takes stream positions, counted from 0 over the file's events
    (its non-blank lines), and parses only those lines, through the same
    checks. It first checks that the file's size and modification time
    are still those of the read, and raises ParseError otherwise: the file
    must not change while it is in use. A file that is not a regular file,
    such as a pipe, cannot be read again, and the first ``next()`` refuses
    it with ParseError.
    """

    def __init__(self, path: Path, progress: Callable[[int], None] | None = None) -> None:
        self.path = path
        self.progress = progress
        # (size, mtime) of the open file; None until the first next()
        self.stamp: tuple[int, int] | None = None
        self._events = self._read()

    def __iter__(self) -> EventReader:
        return self

    def __next__(self) -> TransferEvent:
        return next(self._events)

    def _read(self) -> Iterator[TransferEvent]:
        name = str(self.path)
        with self.path.open("r", encoding="utf-8") as handle:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                raise ParseError("not a regular file, so its events could not be read again", path=name)
            self.stamp = _stamp(handle)
            events = ordered(_parse(name, enumerate(handle, start=1)), name, compact=True)
            if self.progress is None:
                yield from events
            else:
                # the parser and its consumer each run faster over a batch
                # than when they alternate on every event
                while batch := list(islice(events, 4096)):
                    self.progress(len(batch))
                    yield from batch

    def fetch(self, positions: Iterable[int]) -> dict[int, TransferEvent]:
        """The events at ``positions``, by position, read again from the file."""
        wanted = sorted(set(positions))
        name = str(self.path)
        with self.path.open("r", encoding="utf-8") as handle:
            if self.stamp is None or _stamp(handle) != self.stamp:
                raise ParseError("the file changed after it was read", path=name)
            events = _parse(name, _lines_at(handle, wanted))
            found = {position: event for position, (_, event) in zip(wanted, events)}
        if len(found) < len(wanted):
            raise ParseError("the file changed after it was read", path=name)
        return found


def _stamp(handle) -> tuple[int, int]:
    st = os.fstat(handle.fileno())
    return st.st_size, st.st_mtime_ns


def _lines_at(handle, positions: list[int]) -> Iterator[tuple[int, str]]:
    """``(line number, line)`` of the non-blank lines at the increasing
    ``positions``, counted from 0; reading stops after the last."""
    wanted = iter(positions)
    want = next(wanted, None)
    position = 0
    for line_no, raw in enumerate(handle, start=1):
        if want is None:
            return
        if not raw.isspace():
            if position == want:
                yield line_no, raw
                want = next(wanted, None)
            position += 1


def _parse(name: str, lines: Iterable[tuple[int, str]]) -> Iterator[tuple[int, TransferEvent]]:
    """Yield ``(line number, event)`` for each of the numbered lines of an
    event file, with every field checked; ``ordered`` checks the order."""
    scan_once = make_scanner(json.JSONDecoder())
    intern: dict[str, str] = {}
    new = object.__new__
    set_chain, set_block, set_time, set_hash, set_log, set_token, set_from, set_to, set_value, set_tx = _SETTERS
    for line_no, raw in lines:
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
