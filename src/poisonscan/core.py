"""Core data model for address-poisoning forensics.

Addresses, tokens, transfer events, price data, and per-chain configuration.
Types are immutable after construction; pipeline stages return new values
instead of mutating shared state. Money amounts are Decimal and every USD
figure is quantized to six fractional digits with banker's rounding, so sums
and differences stay exact.

Addresses are canonicalized to lowercase 0x-prefixed hex. Checksummed input
is accepted but the checksum itself is not validated; all comparisons happen
on the canonical form.
"""

from __future__ import annotations

import csv
import json
import re
import reprlib
from binascii import unhexlify
from dataclasses import MISSING, dataclass, fields, is_dataclass, replace
from datetime import date, datetime, timezone
from decimal import ROUND_HALF_EVEN, Context, Decimal, InvalidOperation
from functools import cache, partial
from itertools import repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import NoneType, UnionType
from typing import (
    Callable, Iterable, Iterator, Mapping, Union, get_args, get_origin, get_type_hints,
)

__all__ = [
    "Address",
    "AddressError",
    "AnalyticsError",
    "ChainConfig",
    "ClusteringError",
    "ConfigError",
    "Label",
    "OrderingError",
    "ParseError",
    "PoisonscanError",
    "PriceTable",
    "RegistryEntry",
    "RegistryError",
    "ScenarioError",
    "TokenRef",
    "TokenRegistry",
    "TransactionRecord",
    "TransferEvent",
    "USD_QUANTUM",
    "default_config",
    "event_date",
    "hex_digits",
    "parse_address",
    "usd_amount",
]

USD_QUANTUM = Decimal("0.000001")

MAX_VALUE = 2**256 - 1

Address = str


class PoisonscanError(Exception):
    """Base class for every error raised by this package."""


class AddressError(PoisonscanError):
    pass


class ParseError(PoisonscanError):
    """Malformed input data. Carries the file path and line when known."""

    def __init__(self, message: str, path: str | Path | None = None, line: int | None = None):
        self.path = str(path) if path is not None else None
        self.line = line
        where = ""
        if path is not None:
            where = f" ({self.path}" + (f":{line}" if line is not None else "") + ")"
        super().__init__(message + where)


class RegistryError(PoisonscanError):
    pass


class ConfigError(PoisonscanError):
    pass


class OrderingError(PoisonscanError):
    pass


class ScenarioError(PoisonscanError):
    pass


class AnalyticsError(PoisonscanError):
    pass


class ClusteringError(PoisonscanError):
    pass


# ---------------------------------------------------------------------------
# transfer labels


class Label:
    """Canonical label strings attached to classified transfer events."""

    INTENDED = "intended"
    TINY = "tiny_poison"
    ZERO = "zero_value_poison"
    COUNTERFEIT = "counterfeit_poison"
    PAYOFF_CONFIRMED = "payoff_confirmed"
    PAYOFF_UNCONFIRMED = "payoff_unconfirmed"
    ACCIDENTAL = "accidental"
    BENIGN = "benign"

    POISONS = frozenset({TINY, ZERO, COUNTERFEIT})
    PAYOFFS = frozenset({PAYOFF_CONFIRMED, PAYOFF_UNCONFIRMED, ACCIDENTAL})
    ALL = frozenset(
        {INTENDED, TINY, ZERO, COUNTERFEIT, PAYOFF_CONFIRMED, PAYOFF_UNCONFIRMED, ACCIDENTAL, BENIGN}
    )


# ---------------------------------------------------------------------------
# addresses


def parse_address(text: str) -> Address:
    """Canonicalize an EVM address to lowercase 0x-prefixed form.

    Accepts checksummed, lowercase, and bare 40-digit input. The checksum is
    not validated; canonical lowercase is the comparison form everywhere.
    """
    if not isinstance(text, str):
        raise AddressError(f"address must be a string, got {type(text).__name__}")
    s = text.strip()
    if s[:2] in ("0x", "0X"):
        s = s[2:]
    if len(s) != 40:
        raise AddressError(f"address must be 40 hex digits, got {len(s)} in {text!r}")
    s = s.lower()
    try:
        # strict hex; int(s, 16) would also take "_", a sign, whitespace, a
        # second "0x" and non-ASCII digits
        unhexlify(s)
    except ValueError:
        raise AddressError(f"address contains non-hex digits: {text!r}") from None
    return "0x" + s


def hex_digits(address: Address) -> str:
    """The 40 hex digits of a canonical address, prefix stripped."""
    return address[2:]


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True, slots=True)
class TokenRef:
    chain_id: int
    address: Address
    symbol: str
    decimals: int


@dataclass(frozen=True, slots=True)
class RegistryEntry:
    token: TokenRef
    authentic: bool
    stablecoin: bool


# ---------------------------------------------------------------------------
# JSON record codec
#
# Every record file (report.json, clusters.json, config.json, scenario.json)
# is written and read from the annotations of its dataclass. A field's JSON
# key is its name, but for the transfer endpoints. Token ``value``s and
# Decimal amounts travel as decimal strings, tuples and frozensets as lists,
# nested records as objects. Reading checks exact JSON types: 2.5, "5" and
# true are no integer, "no" is no boolean. A key may be left out exactly
# when its field has a default, and an unknown key is an error.

_JSON_NAMES = {"from_addr": "from", "to_addr": "to"}

_SCALARS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string"}

_ABSENT = object()


class _Mismatch(TypeError):
    """A JSON value that is not of its field's type. The path to the field
    is filled in, innermost key last, as the error unwinds."""

    path: tuple[str, ...] = ()

    def at(self, key: str) -> "_Mismatch":
        self.path = (key, *self.path)
        return self

    def __str__(self) -> str:
        return (f"field {'.'.join(self.path)!r} " if self.path else "") + self.args[0]


def _wrong(what: str, value) -> _Mismatch:
    return _Mismatch(f"must be {what}, got {reprlib.repr(value)}")


def _reader(kind: type, what: str, convert):
    """Reads a JSON value of type ``kind`` through ``convert``."""

    def read(value):
        if type(value) is kind:
            return convert(value)
        raise _wrong(what, value)

    return read


def _read_amount(value) -> int:
    """A token ``value``: a string of ASCII decimal digits."""
    if type(value) is str and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError:  # past int()'s digit limit
            pass
    raise _wrong("a decimal string", value)


def _read_decimal(value) -> Decimal:
    if type(value) is str:
        try:
            return Decimal(value)
        except InvalidOperation:
            pass
    raise _wrong("a decimal string", value)


@cache
def _codec(hint) -> tuple:
    """``(kind, read, write)`` for values annotated ``hint``. ``read`` turns a
    JSON value into the Python one or raises _Mismatch; ``kind`` is the JSON
    type that reads as itself, or None; ``write`` is None where a value is
    written as itself."""
    if hint in _SCALARS:
        kinds, what = ((int, float) if hint is float else (hint,)), _SCALARS[hint]

        def read(value):
            if type(value) in kinds:
                return value
            raise _wrong(what, value)

        return hint, read, None
    if hint is Decimal:
        return None, _read_decimal, str
    if is_dataclass(hint):
        return None, partial(_read_record, hint), to_json
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType) and len(args) == 2 and NoneType in args:
        kind, inner, write = _codec(args[0] if args[1] is NoneType else args[1])

        def read(value):
            return None if value is None else inner(value)

        return kind, read, write and (lambda value: None if value is None else write(value))
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        _, item, write = _codec(args[0])
        read = _reader(list, "a list", lambda value: tuple([item(x) for x in value]))
        return None, read, list if write is None else (lambda value: [write(x) for x in value])
    if origin is tuple:
        items = [_codec(arg) for arg in args]

        def read(value):
            if type(value) is not list or len(value) != len(items):
                raise _wrong(f"a list of {len(items)} items", value)
            return tuple([item(x) for (_, item, _), x in zip(items, value)])

        def write(value):
            return [x if w is None else w(x) for (_, _, w), x in zip(items, value)]

        return None, read, write
    if origin is frozenset:
        _, item, write = _codec(args[0])
        read = _reader(list, "a list", lambda value: frozenset([item(x) for x in value]))
        return None, read, sorted if write is None else (lambda value: sorted(map(write, value)))
    if origin is dict and args[0] is str:
        _, item, write = _codec(args[1])
        read = _reader(dict, "an object", lambda value: {k: item(x) for k, x in value.items()})
        return None, read, dict if write is None else (
            lambda value: {k: write(x) for k, x in value.items()}
        )
    raise TypeError(f"no JSON codec for {hint!r}")


@cache
def _fields(cls: type) -> tuple:
    """Per field of the dataclass ``cls``: its name, its JSON key, ``kind``,
    ``read`` and ``write`` (see _codec), whether it is required, its
    annotation as written, and the resolved type its JSON text is written as."""
    hints = get_type_hints(cls)
    out = []
    for f in fields(cls):
        if f.name == "value" and hints[f.name] is int:
            # a token value is written as a Decimal is: its str in quotes
            kind, read, write, hints[f.name] = None, _read_amount, str, Decimal
        else:
            kind, read, write = _codec(hints[f.name])
        required = f.default is MISSING and f.default_factory is MISSING
        key = _JSON_NAMES.get(f.name, f.name)
        out.append((f.name, key, kind, read, write, required, f.type, hints[f.name]))
    return tuple(out)


def _read_record(cls: type, raw):
    if type(raw) is not dict:
        raise _wrong("an object", raw)
    kwargs = {}
    try:
        for name, key, kind, read, _, required, _, _ in _fields(cls):
            value = raw.get(key, _ABSENT)
            if type(value) is kind:
                kwargs[name] = value
            elif value is not _ABSENT:
                kwargs[name] = read(value)
            elif required:
                raise _Mismatch("is missing")
    except _Mismatch as exc:
        raise exc.at(key) from None
    if len(kwargs) != len(raw):
        known = {key for _, key, *_ in _fields(cls)}
        raise _Mismatch("is unknown").at(min(set(raw) - known))
    return cls(**kwargs)


def to_json(record) -> dict:
    """The JSON object of the dataclass ``record``; ``from_json`` reads it
    back."""
    out = {}
    for name, key, _, _, write, _, _, _ in _fields(type(record)):
        value = getattr(record, name)
        out[key] = value if write is None else write(value)
    return out


def _pad(depth: int | None) -> str:
    """The line break and indent that json's ``indent=2`` puts before an
    item at ``depth``; nothing in compact text."""
    return "" if depth is None else "\n" + "  " * depth


def _text(hint, x: str, depth: int | None) -> tuple[str, str]:
    """``(piece, args)``: the %-format piece and the comma-separated
    expressions over ``x`` that give json's text for a value annotated
    ``hint`` at ``depth``. A record's fields are laid out in sorted key
    order, and a record nested in it is inlined."""
    if hint is bool:
        return "%s", f"('true' if {x} else 'false')"
    if hint is int:
        return "%d", x
    if hint is float:  # json writes a float as its repr
        return "%r", x
    if hint is str:
        return "%s", f"_enc({x})"
    if hint is Decimal:  # its str needs no escaping
        return '"%s"', x
    deeper = None if depth is None else depth + 1
    if is_dataclass(hint):
        pieces, args = [], []
        for name, key, *_, field_hint in sorted(_fields(hint), key=lambda f: f[1]):
            piece, arg = _text(field_hint, f"{x}.{name}", deeper)
            pieces.append(encode_basestring_ascii(key) + (":" if depth is None else ": ") + piece)
            args.append(arg)
        template = "{" + _pad(deeper) + ("," + _pad(deeper)).join(pieces) + _pad(depth) + "}"
        return template, ", ".join(args)
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType) and len(args) == 2 and NoneType in args:
        piece, arg = _text(args[0] if args[1] is NoneType else args[1], x, depth)
        return "%s", f"('null' if {x} is None else {arg if piece == '%s' else f'{piece!r} % ({arg},)'})"
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        piece, arg = _text(args[0], "v", deeper)
        item = arg if piece == "%s" else f"{piece!r} % ({arg},)"
        opening, inner, close = "[" + _pad(deeper), "," + _pad(deeper), _pad(depth) + "]"
        return "%s", f"({opening!r} + {inner!r}.join([{item} for v in {x}]) + {close!r} if {x} else '[]')"
    raise TypeError(f"no JSON writer for {hint!r}")


@cache
def _writer(hint, indent: int | None = None) -> Callable[[object], str]:
    """The function giving the JSON text of a value annotated ``hint``: the
    bytes json writes for its JSON form with sorted keys, compact, or with
    ``indent=2`` for a value nested ``indent`` levels deep. It is one
    %-format, generated for a record from its ``_fields`` table."""
    names = {"_enc": encode_basestring_ascii}
    piece, args = _text(hint, "v", indent)
    exec(f"def write(v):\n    return {args if piece == '%s' else f'{piece!r} % ({args},)'}\n", names)
    return names["write"]


def _pieces(hint, value, depth: int | None) -> Iterator[str]:
    """The JSON text of ``value``, annotated ``hint``, at ``depth``, in
    pieces: a tuple, frozenset or dict item by item, each item by its
    ``_writer``, and any other value whole."""
    origin, args = get_origin(hint), get_args(hint)
    deeper = None if depth is None else depth + 1
    if origin is dict:
        keys, colon = sorted(value), (":" if depth is None else ": ")
        heads = (encode_basestring_ascii(k) + colon for k in keys)
        items, brackets = map(value.get, keys), "{}"
    elif origin is frozenset or origin is tuple and args[1:] == (Ellipsis,):
        heads, items, brackets = repeat(""), sorted(value) if origin is frozenset else value, "[]"
    else:
        yield _writer(hint, depth)(value)
        return
    write, inner = _writer(args[1] if origin is dict else args[0], deeper), _pad(deeper)
    sep = brackets[0] + inner
    for head, item in zip(heads, items):
        yield sep + head + write(item)
        sep = "," + inner
    yield _pad(depth) + brackets[1] if sep[0] == "," else brackets


def write_record(path: str | Path, record, indented: bool = False) -> None:
    """Write the dataclass ``record`` to ``path`` as the bytes json.dump
    gives for ``to_json(record)`` with sorted keys, compact or with
    ``indent=2``, and a closing newline. The file is streamed: each tuple,
    frozenset and dict field goes out item by item, so neither the file's
    text nor a container's is ever held whole."""
    depth = 1 if indented else None
    with open(path, "w", encoding="utf-8") as fh:
        sep = "{"
        for name, key, *_, hint in sorted(_fields(type(record)), key=lambda f: f[1]):
            fh.write(sep + _pad(depth) + encode_basestring_ascii(key) + (": " if indented else ":"))
            fh.writelines(_pieces(hint, getattr(record, name), depth))
            sep = ","
        fh.write(("\n}" if indented else "}") + "\n")


def from_json(cls: type, raw, error: Callable[[str], Exception]):
    """The dataclass ``cls`` read from the JSON object ``raw``. A value of the
    wrong JSON type, a missing required key or an unknown key raises
    ``error(message)``, and the message names the field; so does a value
    that a record's own checks reject."""
    try:
        return _read_record(cls, raw)
    except (_Mismatch, PoisonscanError) as exc:
        raise error(f"not a {cls.__name__}: {exc}") from None


def read_fields(raw, error: Callable[[str], Exception], /, **hints) -> list:
    """The values of the keys that ``hints`` names in the JSON object ``raw``,
    each read as its annotation there; other keys are left alone."""
    out, key = [], None
    try:
        if type(raw) is not dict:
            raise _wrong("a JSON object", raw)
        for key, hint in hints.items():
            if key not in raw:
                raise _Mismatch("is missing")
            out.append(_codec(hint)[1](raw[key]))
    except _Mismatch as exc:
        raise error(str(exc if key is None else exc.at(key))) from None
    return out


def check_fields(record, error: Callable[[str], Exception]) -> None:
    """Raise ``error`` unless every field of the dataclass ``record``, built
    in Python, holds exactly the type its annotation names. That holds when
    the value reads back from its JSON form as itself: 2.5, "5" and True are
    no int, and a list is no tuple."""
    for name, _, _, read, write, _, annotation, _ in _fields(type(record)):
        value = getattr(record, name)
        try:
            back = read(value if write is None else write(value))
        except _Mismatch as exc:
            if exc.path:  # it names a field of a nested record
                raise error(str(exc.at(name))) from None
            back = _ABSENT
        except (TypeError, AttributeError):  # not even writable
            back = _ABSENT
        # a NaN reads back unequal to itself; the range checks name it
        if back is not value and not (type(back) is type(value) and (back == value or back != back)):
            raise error(f"field {name!r} must be {annotation}, got {reprlib.repr(value)}")


def _distinct_keys(pairs: list) -> dict:
    """A decoded JSON object; json.loads would keep the last value of a repeated key."""
    if len(obj := dict(pairs)) < len(pairs):
        seen = set()
        raise ValueError(f"repeated key {next(k for k, _ in pairs if k in seen or seen.add(k))!r}")
    return obj


def parse_json(text: str, path: str | Path, line: int | None = None, *, distinct_keys: bool = True):
    """``json.loads(text)``, with its ValueError (invalid JSON, an integer
    past int()'s digit limit or, unless ``distinct_keys`` is false, a
    repeated key) raised as a ParseError at ``path`` and ``line``."""
    try:
        return json.loads(text, object_pairs_hook=_distinct_keys if distinct_keys else None)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", path=path, line=line) from None


def address_at(text: str, error: Callable[[str], Exception]) -> Address:
    """``parse_address(text)``, with its error raised as ``error(message)``."""
    try:
        return parse_address(text)
    except AddressError as exc:
        raise error(str(exc)) from None


def decimal_at(text: str, error: Callable[[str], Exception]) -> Decimal:
    """The Decimal that ``text`` spells as ``str(Decimal)`` writes a finite
    number: ASCII digits with an optional minus, point and ``E`` exponent.
    Any other spelling, such as ``1_0``, ``+5``, ``1e3``, ``NaN`` or a
    non-ASCII digit, raises ``error(message)``."""
    if re.fullmatch(r"-?[0-9]+(?:\.[0-9]+)?(?:E[+-][0-9]+)?", text) is None:
        raise error(f"not a decimal number: {reprlib.repr(text)}")
    return Decimal(text)


def jsonl_objects(path: str | Path) -> Iterator[tuple[Callable[[str], ParseError], dict]]:
    """``(error, obj)`` for the JSON object on each non-blank line of a JSON Lines
    file, where ``error(message)`` makes a ParseError at ``path`` and the line."""
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if line.strip():
                obj = parse_json(line, path, number)
                error = partial(ParseError, path=path, line=number)
                if type(obj) is not dict:
                    raise error("each line must be a JSON object")
                yield error, obj


def csv_rows(path: str | Path, columns: tuple[str, ...]) -> Iterator[tuple[Callable[[str], ParseError], dict]]:
    """``(error, row)`` for each non-blank row of a CSV file after its
    header: ``row`` maps the header's columns to the row's values, and
    ``error(message)`` makes a ParseError at ``path`` and the row's line.
    The header names no column twice, and ``columns`` among others in any order."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = (
            (partial(ParseError, path=path, line=reader.line_num), row)
            for row in reader
            if len(row) > 1 or "".join(row).strip()
        )
        try:
            error, header = next(rows, (partial(ParseError, path=path, line=1), []))
            if len(set(header)) < len(header) or not set(columns) <= set(header):
                raise error(f"the header must name {', '.join(columns)}, each column once: {','.join(header)!r}")
            for error, row in rows:
                if len(row) != len(header):
                    raise error(f"expected {len(header)} values, got {len(row)}")
                yield error, dict(zip(header, row))
        except csv.Error as exc:  # such as a field past csv.field_size_limit()
            raise ParseError(f"bad CSV: {exc}", path=path, line=reader.line_num) from None


def write_json(path: str | Path, payload) -> None:
    """Write ``payload`` to ``path`` as JSON indented by 2 with sorted keys
    and a closing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


class TokenRegistry:
    """Registry of known token contracts per chain.

    A token absent from the registry, or present with authentic=False, is
    counterfeit. Stablecoin entries must be authentic.
    """

    def __init__(self, entries: Iterable[RegistryEntry]):
        self._table: dict[tuple[int, Address], RegistryEntry] = {}
        self._stable: dict[int, frozenset[Address]] = {}
        self._authentic: dict[int, frozenset[Address]] = {}
        for entry in entries:
            self._add(entry, RegistryError)

    def _add(self, entry: RegistryEntry, error: Callable[[str], Exception]) -> None:
        """Check ``entry`` and add it, or raise ``error(message)``."""
        token = entry.token
        if not 0 <= token.decimals <= 255:
            raise error(f"decimals out of range for {token.symbol} on chain {token.chain_id}: {token.decimals}")
        if entry.stablecoin and not entry.authentic:
            raise error(f"stablecoin flag requires authentic=true: {token.address} on chain {token.chain_id}")
        key = (token.chain_id, token.address)
        if key in self._table:
            raise error(f"duplicate registry entry for {token.address} on chain {token.chain_id}")
        self._table[key] = entry

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TokenRegistry":
        registry = cls(())
        for error, row in jsonl_objects(path):
            chain_id, address, symbol, decimals, authentic, stablecoin = read_fields(
                row, error, chain_id=int, address=str, symbol=str, decimals=int,
                authentic=bool, stablecoin=bool,
            )
            token = TokenRef(chain_id, address_at(address, error), symbol, decimals)
            registry._add(RegistryEntry(token, authentic, stablecoin), error)
        return registry

    def to_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self:
                flags = {"authentic": entry.authentic, "stablecoin": entry.stablecoin}
                handle.write(json.dumps({**to_json(entry.token), **flags}, sort_keys=True) + "\n")

    def token(self, chain_id: int, address: Address) -> TokenRef | None:
        entry = self._table.get((chain_id, address))
        return entry.token if entry is not None else None

    def stablecoins(self, chain_id: int) -> frozenset[Address]:
        cached = self._stable.get(chain_id)
        if cached is None:
            cached = frozenset(
                addr for (cid, addr), e in self._table.items() if cid == chain_id and e.stablecoin
            )
            self._stable[chain_id] = cached
        return cached

    def authentic_tokens(self, chain_id: int) -> frozenset[Address]:
        cached = self._authentic.get(chain_id)
        if cached is None:
            cached = frozenset(
                addr for (cid, addr), e in self._table.items() if cid == chain_id and e.authentic
            )
            self._authentic[chain_id] = cached
        return cached

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[RegistryEntry]:
        for key in sorted(self._table):
            yield self._table[key]


# ---------------------------------------------------------------------------
# transfers


@dataclass(frozen=True, slots=True)
class TransactionRecord:
    """Envelope of the transaction a transfer event was emitted in."""

    initiator: Address
    target: Address | None = None
    gas_used: int | None = None
    gas_price: int | None = None


@dataclass(frozen=True, slots=True)
class TransferEvent:
    """One ERC-20 style Transfer log entry.

    value is the raw token amount (base units). Within a chain the pair
    (block_number, log_index) is the total order used by every timing rule.
    """

    chain_id: int
    block_number: int
    timestamp: int
    tx_hash: str
    log_index: int
    token: Address
    from_addr: Address
    to_addr: Address
    value: int
    tx: TransactionRecord | None = None

    @property
    def key(self) -> str:
        return f"{self.tx_hash}:{self.log_index}"

    @property
    def order(self) -> tuple[int, int]:
        return (self.block_number, self.log_index)


def event_date(timestamp: int) -> date:
    """UTC calendar day of a unix timestamp. Price lookups key on this."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).date()


# ---------------------------------------------------------------------------
# prices


class PriceTable:
    """Daily USD close prices keyed by (asset, day).

    Asset ids are token contract addresses in canonical form, or a bare
    symbol for chain-native fee assets. parity_assets lists assets that fall
    back to 1.00 USD when no row exists; that fallback is opt-in and meant
    for designated stablecoins only.
    """

    def __init__(
        self,
        prices: Mapping[tuple[str, date], Decimal],
        parity_assets: frozenset[str] | Iterable[str] = frozenset(),
    ):
        self._prices = dict(prices)
        self._parity = frozenset(parity_assets)
        self._one = Decimal("1")

    @classmethod
    def from_csv(cls, path: str | Path, parity_assets: Iterable[str] = frozenset()) -> "PriceTable":
        prices: dict[tuple[str, date], Decimal] = {}
        for error, row in csv_rows(path, ("asset", "date", "usd_price")):
            asset = row["asset"].strip()
            if asset[:2] in ("0x", "0X"):
                asset = address_at(asset, error)
            try:
                day = date.fromisoformat(row["date"].strip())
            except ValueError as exc:
                raise error(f"bad price row: {exc}") from None
            price = decimal_at(row["usd_price"].strip(), error)
            if not asset:
                raise error("empty asset id")
            if price <= 0:
                raise error(f"price must be positive, got {price}")
            if (asset, day) in prices:
                raise error(f"duplicate price row for {asset} on {day}")
            prices[asset, day] = price
        return cls(prices, parity_assets=frozenset(parity_assets))

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["asset", "date", "usd_price"])
            for (asset, day), price in sorted(self._prices.items(), key=lambda kv: (kv[0][0], kv[0][1])):
                writer.writerow([asset, day.isoformat(), str(price)])

    def get_or_none(self, asset: str, day: date) -> Decimal | None:
        price = self._prices.get((asset, day))
        if price is None and asset in self._parity:
            return self._one
        return price

    def __len__(self) -> int:
        return len(self._prices)


# usd_amount's own context, so a call neither reads nor sets the thread's
_USD_CONTEXT = Context(prec=120, rounding=ROUND_HALF_EVEN)


def usd_amount(value: int, decimals: int, price: Decimal) -> Decimal:
    """Exact token-amount times price, quantized half-even to 6 digits.

    Runs at high precision so 256-bit raw values never round before the
    final quantize step.
    """
    if value < 0:
        raise ValueError(f"negative transfer value: {value}")
    ctx = _USD_CONTEXT
    return ctx.quantize(ctx.multiply(ctx.scaleb(Decimal(value), -decimals), price), USD_QUANTUM)


# ---------------------------------------------------------------------------
# chain configuration


@dataclass(frozen=True)
class ChainConfig:
    """Per-chain detection parameters.

    window_blocks is the candidate window length m: after a trigger at block
    n, candidate transfers are collected in blocks n+1 through n+m+1. The
    defaults mirror a 20 minute window (100 twelve-second blocks; use 400 on
    three-second chains).
    """

    chain_id: int
    window_blocks: int = 100
    tiny_threshold_usd: Decimal = Decimal("10")
    a_min: int = 3
    b_min: int = 4
    birthday_alpha: float = 0.999
    typo_match_bound: int = 20
    block_time_seconds: int = 12
    native_asset: str = "ETH"
    stablecoins: tuple[Address, ...] | None = None
    stablecoin_parity: bool = False

    def __post_init__(self):
        check_fields(self, ConfigError)
        if self.window_blocks < 1:
            raise ConfigError(f"window_blocks must be >= 1, got {self.window_blocks}")
        # NaN would make the comparison raise, and Infinity pass it
        tiny = self.tiny_threshold_usd
        if not tiny.is_finite() or tiny <= 0:
            raise ConfigError(f"tiny_threshold_usd must be finite and > 0, got {tiny}")
        if not 0 < self.birthday_alpha < 1:
            raise ConfigError(f"birthday_alpha must be in (0, 1), got {self.birthday_alpha}")
        if not 0 <= self.a_min <= 40:
            raise ConfigError(f"a_min must be in [0, 40], got {self.a_min}")
        if not 0 <= self.b_min <= 40:
            raise ConfigError(f"b_min must be in [0, 40], got {self.b_min}")
        if not 0 <= self.typo_match_bound <= 40:
            raise ConfigError(f"typo_match_bound must be in [0, 40], got {self.typo_match_bound}")
        if self.block_time_seconds < 1:
            raise ConfigError(f"block_time_seconds must be >= 1, got {self.block_time_seconds}")
        if self.stablecoins is not None:
            try:
                canon = tuple(parse_address(a) for a in self.stablecoins)
            except AddressError as exc:
                raise ConfigError(f"bad stablecoin address: {exc}") from None
            object.__setattr__(self, "stablecoins", canon)

    def with_overrides(self, **kwargs) -> "ChainConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        return to_json(self)

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ChainConfig":
        return from_json(cls, raw, ConfigError)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ChainConfig":
        return cls.from_dict(parse_json(Path(path).read_text(encoding="utf-8"), path))


_PRESETS: dict[int, dict] = {
    1: {"window_blocks": 100, "block_time_seconds": 12, "native_asset": "ETH"},
    56: {"window_blocks": 400, "block_time_seconds": 3, "native_asset": "BNB"},
}


def default_config(chain_id: int) -> ChainConfig:
    """Detection defaults for a chain: 20 minute window, $10 tiny bound,
    (3, 4) similarity thresholds."""
    preset = _PRESETS.get(chain_id, {})
    return ChainConfig(chain_id=chain_id, **preset)
