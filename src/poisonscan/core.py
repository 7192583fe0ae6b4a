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
from binascii import unhexlify
from dataclasses import dataclass, field, fields, replace
from datetime import date, datetime, timezone
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation, localcontext
from pathlib import Path
from typing import Iterable, Iterator, Mapping

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


def _typed(row: dict, name: str, kind: type, path, line: int):
    """``row[name]``, which must be exactly a JSON integer or boolean:
    ``bool("false")`` is true, ``int(1.9)`` is 1, and a bool is an int."""
    value = row[name]
    if type(value) is not kind:
        what = "an integer" if kind is int else "a boolean"
        raise ParseError(f"field {name!r} must be {what}, got {value!r}", path=path, line=line)
    return value


# what building records from a JSON tree of the wrong shape raises: a missing
# key or item, an unknown keyword, a list where an object belongs, a bad number
SHAPE_ERRORS = (LookupError, TypeError, ValueError, AttributeError, ArithmeticError)


def shape_message(what: str, exc: Exception) -> str:
    """Why a JSON tree is not ``what``, from the SHAPE_ERRORS it raised."""
    if isinstance(exc, KeyError):
        return f"not {what}: missing field {exc}"
    return f"not {what}: {type(exc).__name__}: {exc}"


# a scalar field's annotation -> the exact types its value may have: a bool is
# an int, bool("false") is true, and int(2.5) is 2, so no coercion is made
_SCALAR_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "a boolean"),
    "str": ((str,), "a string"),
}


def check_scalar_fields(record, error: type[PoisonscanError], where: str = "") -> None:
    """Raise ``error`` unless each field of the dataclass ``record`` annotated
    int, float, bool or str holds a value of exactly that JSON type."""
    for f in fields(record):
        if f.type in _SCALAR_TYPES:
            kinds, what = _SCALAR_TYPES[f.type]
            value = getattr(record, f.name)
            if type(value) not in kinds:
                raise error(f"{where}{f.name} must be {what}, got {value!r}")


def parse_json(text: str, path: str | Path, line: int | None = None):
    """``json.loads(text)``, with its ValueError (invalid JSON, or an integer
    past int()'s digit limit) raised as a ParseError at ``path`` and ``line``."""
    try:
        return json.loads(text)
    except ValueError as exc:
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", path=path, line=line) from None


class TokenRegistry:
    """Registry of known token contracts per chain.

    A token absent from the registry, or present with authentic=False, is
    counterfeit. Stablecoin entries must be authentic.
    """

    def __init__(self, entries: Iterable[RegistryEntry]):
        table: dict[tuple[int, Address], RegistryEntry] = {}
        for entry in entries:
            token = entry.token
            if not 0 <= token.decimals <= 255:
                raise RegistryError(
                    f"decimals out of range for {token.symbol} on chain {token.chain_id}: "
                    f"{token.decimals}"
                )
            if entry.stablecoin and not entry.authentic:
                raise RegistryError(
                    f"stablecoin flag requires authentic=true: {token.address} "
                    f"on chain {token.chain_id}"
                )
            key = (token.chain_id, token.address)
            if key in table:
                raise RegistryError(
                    f"duplicate registry entry for {token.address} on chain {token.chain_id}"
                )
            table[key] = entry
        self._table = table
        self._stable: dict[int, frozenset[Address]] = {}
        self._authentic: dict[int, frozenset[Address]] = {}

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TokenRegistry":
        entries = []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                row = parse_json(line, path, lineno)
                if not isinstance(row, dict):
                    raise ParseError("each line must be a JSON object", path=path, line=lineno)
                try:
                    token = TokenRef(
                        chain_id=_typed(row, "chain_id", int, path, lineno),
                        address=parse_address(row["address"]),
                        symbol=str(row["symbol"]),
                        decimals=_typed(row, "decimals", int, path, lineno),
                    )
                    entries.append(
                        RegistryEntry(
                            token=token,
                            authentic=_typed(row, "authentic", bool, path, lineno),
                            stablecoin=_typed(row, "stablecoin", bool, path, lineno),
                        )
                    )
                except KeyError as exc:
                    raise ParseError(f"missing field {exc}", path=path, line=lineno) from None
                except (ValueError, AddressError) as exc:
                    raise ParseError(str(exc), path=path, line=lineno) from None
        return cls(entries)

    def to_jsonl(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for entry in self:
                token = entry.token
                handle.write(
                    json.dumps(
                        {
                            "chain_id": token.chain_id,
                            "address": token.address,
                            "symbol": token.symbol,
                            "decimals": token.decimals,
                            "authentic": entry.authentic,
                            "stablecoin": entry.stablecoin,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )

    def get(self, chain_id: int, address: Address) -> RegistryEntry | None:
        return self._table.get((chain_id, address))

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

    def chains(self) -> tuple[int, ...]:
        return tuple(sorted({cid for cid, _ in self._table}))

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
    def from_csv(
        cls, path: str | Path, parity_assets: Iterable[str] = frozenset()
    ) -> "PriceTable":
        prices: dict[tuple[str, date], Decimal] = {}
        with open(path, "r", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            required = {"asset", "date", "usd_price"}
            if reader.fieldnames is None or not required.issubset(reader.fieldnames):
                raise ParseError(
                    f"price CSV needs columns {sorted(required)}, got {reader.fieldnames}",
                    path=path,
                )
            for lineno, row in enumerate(reader, start=2):
                try:
                    asset = row["asset"].strip()
                    day = date.fromisoformat(row["date"].strip())
                    price = Decimal(row["usd_price"].strip())
                except Exception as exc:
                    raise ParseError(f"bad price row: {exc}", path=path, line=lineno) from None
                if not asset:
                    raise ParseError("empty asset id", path=path, line=lineno)
                # NaN would make the comparison below raise, and Infinity pass it
                if not price.is_finite():
                    raise ParseError(f"price must be finite, got {price}", path=path, line=lineno)
                if price <= 0:
                    raise ParseError(f"price must be positive, got {price}", path=path, line=lineno)
                key = (asset, day)
                if key in prices:
                    raise ParseError(
                        f"duplicate price row for {asset} on {day}", path=path, line=lineno
                    )
                prices[key] = price
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


def usd_amount(value: int, decimals: int, price: Decimal) -> Decimal:
    """Exact token-amount times price, quantized half-even to 6 digits.

    Runs at high precision so 256-bit raw values never round before the
    final quantize step.
    """
    if value < 0:
        raise ValueError(f"negative transfer value: {value}")
    with localcontext() as ctx:
        ctx.prec = 120
        amount = Decimal(value).scaleb(-decimals) * price
        return amount.quantize(USD_QUANTUM, rounding=ROUND_HALF_EVEN)


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
        check_scalar_fields(self, ConfigError)
        if self.window_blocks < 1:
            raise ConfigError(f"window_blocks must be >= 1, got {self.window_blocks}")
        tiny = self.tiny_threshold_usd
        if not isinstance(tiny, Decimal):
            try:
                object.__setattr__(self, "tiny_threshold_usd", Decimal(str(tiny)))
            except InvalidOperation:
                raise ConfigError(f"tiny_threshold_usd must be a number, got {tiny!r}") from None
        # NaN would make the comparison raise, and Infinity pass it
        if not self.tiny_threshold_usd.is_finite() or self.tiny_threshold_usd <= 0:
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
            if not isinstance(self.stablecoins, (list, tuple)):
                raise ConfigError(f"stablecoins must be a list, got {self.stablecoins!r}")
            try:
                canon = tuple(parse_address(a) for a in self.stablecoins)
            except AddressError as exc:
                raise ConfigError(f"bad stablecoin address: {exc}") from None
            object.__setattr__(self, "stablecoins", canon)

    def with_overrides(self, **kwargs) -> "ChainConfig":
        return replace(self, **kwargs)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Decimal):
                value = str(value)
            elif isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ChainConfig":
        if not isinstance(raw, Mapping):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "chain_id" not in raw:
            raise ConfigError("config requires chain_id")
        return cls(**raw)

    @classmethod
    def from_json_file(cls, path: str | Path) -> "ChainConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
            raise ConfigError(f"bad config JSON in {path}: {exc}") from None
        return cls.from_dict(raw)


_PRESETS: dict[int, dict] = {
    1: {"window_blocks": 100, "block_time_seconds": 12, "native_asset": "ETH"},
    56: {"window_blocks": 400, "block_time_seconds": 3, "native_asset": "BNB"},
}


def default_config(chain_id: int) -> ChainConfig:
    """Detection defaults for a chain: 20 minute window, $10 tiny bound,
    (3, 4) similarity thresholds."""
    preset = _PRESETS.get(chain_id, {})
    return ChainConfig(chain_id=chain_id, **preset)
