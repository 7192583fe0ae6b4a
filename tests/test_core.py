"""Core model tests: addresses, registries, prices, USD conversion, config.

Expected values for the USD conversion are computed with an independent
integer-arithmetic oracle (Fraction plus explicit half-even rounding) so the
Decimal implementation is checked against something that shares none of its
code.
"""

from __future__ import annotations

import json
import random
from datetime import date
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisonscan.core import (
    AddressError,
    ChainConfig,
    ConfigError,
    ParseError,
    PriceTable,
    RegistryEntry,
    RegistryError,
    TokenRef,
    TokenRegistry,
    TransactionRecord,
    TransferEvent,
    USD_QUANTUM,
    default_config,
    event_date,
    hex_digits,
    parse_address,
    usd_amount,
)

# ---------------------------------------------------------------------------
# oracle: round a Fraction to 6 fractional digits, ties to even


def usd_oracle(value: int, decimals: int, price: Fraction) -> Decimal:
    exact = Fraction(value, 10**decimals) * price
    scaled = exact * 10**6
    floor = scaled.numerator // scaled.denominator
    rem = scaled - floor
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and floor % 2 == 1):
        floor += 1
    # string construction is exact; scaleb would round at context precision
    return Decimal(f"{floor}E-6")


# ---------------------------------------------------------------------------
# addresses

VALID = "0x7e5f4552091a69125d5dfcb7b8c2659029395bdf"


def test_parse_address_lowercases_checksummed_input():
    mixed = "0x7E5F4552091A69125d5dFcB7B8C2659029395bdF"
    assert parse_address(mixed) == VALID


def test_parse_address_accepts_bare_hex():
    assert parse_address(VALID[2:]) == VALID


def test_parse_address_idempotent():
    assert parse_address(parse_address(VALID)) == VALID


@pytest.mark.parametrize(
    "bad",
    [
        "", "0x", "0x1234", VALID + "ab", "0x" + "g" * 40, "hello", VALID[2:] + "0x",
        # int(s, 16) takes each of these; none is 40 hex digits
        "0x" + "1_" * 19 + "11", "0x" + "\u0661" * 40, "0x+" + "1" * 39,
        "0x " + "1" * 39, "0x0x" + "1" * 38,
    ],
)
def test_parse_address_rejects_malformed(bad):
    with pytest.raises(AddressError):
        parse_address(bad)


def test_hex_digits_strips_prefix():
    assert hex_digits(VALID) == VALID[2:]
    assert len(hex_digits(VALID)) == 40


@given(st.binary(min_size=20, max_size=20))
@settings(max_examples=50)
def test_parse_address_roundtrip_any_20_bytes(raw):
    text = "0x" + raw.hex()
    assert parse_address(text.upper().replace("0X", "0x")) == text


# ---------------------------------------------------------------------------
# registry

USDT = "0x" + "a1" * 20
USDC = "0x" + "b2" * 20
WETH = "0x" + "c3" * 20
FAKE = "0x" + "d4" * 20


def entries():
    return [
        RegistryEntry(TokenRef(1, USDT, "USDT", 6), authentic=True, stablecoin=True),
        RegistryEntry(TokenRef(1, USDC, "USDC", 6), authentic=True, stablecoin=True),
        RegistryEntry(TokenRef(1, WETH, "WETH", 18), authentic=True, stablecoin=False),
        RegistryEntry(TokenRef(1, FAKE, "USDT", 6), authentic=False, stablecoin=False),
        RegistryEntry(TokenRef(56, USDT, "USDT", 18), authentic=True, stablecoin=True),
    ]


def test_registry_lookups():
    reg = TokenRegistry(entries())
    assert reg.authentic_tokens(1) == frozenset({USDT, USDC, WETH})
    assert reg.stablecoins(1) == frozenset({USDT, USDC})
    assert reg.authentic_tokens(56) == frozenset({USDT})
    assert reg.stablecoins(56) == frozenset({USDT})
    assert reg.stablecoins(137) == frozenset()


def test_registry_same_address_differs_per_chain():
    reg = TokenRegistry(entries())
    assert reg.token(1, USDT).decimals == 6
    assert reg.token(56, USDT).decimals == 18


def test_registry_rejects_duplicates():
    dup = entries() + [
        RegistryEntry(TokenRef(1, USDT, "XX", 6), authentic=True, stablecoin=False)
    ]
    with pytest.raises(RegistryError):
        TokenRegistry(dup)


def test_registry_rejects_stablecoin_that_is_not_authentic():
    bad = [RegistryEntry(TokenRef(1, USDT, "USDT", 6), authentic=False, stablecoin=True)]
    with pytest.raises(RegistryError):
        TokenRegistry(bad)


def test_registry_rejects_bad_decimals():
    bad = [RegistryEntry(TokenRef(1, USDT, "USDT", 300), authentic=True, stablecoin=False)]
    with pytest.raises(RegistryError):
        TokenRegistry(bad)


def test_registry_jsonl_roundtrip(tmp_path):
    reg = TokenRegistry(entries())
    path = tmp_path / "registry.jsonl"
    reg.to_jsonl(path)
    back = TokenRegistry.from_jsonl(path)
    assert list(back) == list(reg)


def test_registry_jsonl_reports_bad_line(tmp_path):
    good = {"chain_id": 1, "address": USDT, "symbol": "USDT", "decimals": 6,
            "authentic": True, "stablecoin": True}
    path = tmp_path / "registry.jsonl"
    # the file's lines, and the one the error must name; the entry checks
    # name it as the field checks do
    cases = [
        (['{"chain_id": 1, "address": "0x123"}'], 1),
        (["[1, 2]"], 1),
        ([good, "", {**good, "address": USDT.upper().replace("0X", "0x")}], 3),
        ([good, {**good, "address": USDC, "decimals": 300}], 2),
        ([good, {**good, "address": USDC, "authentic": False}], 2),
    ]
    for lines, number in cases:
        path.write_text("".join((x if isinstance(x, str) else json.dumps(x)) + "\n" for x in lines))
        with pytest.raises(ParseError) as exc:
            TokenRegistry.from_jsonl(path)
        assert (exc.value.path, exc.value.line) == (str(path), number), lines


def test_registry_jsonl_huge_integer_is_parse_error(tmp_path):
    # int() refuses a JSON integer literal of more than 4,300 digits
    good = {"chain_id": 1, "address": USDT, "symbol": "USDT", "decimals": 6,
            "authentic": True, "stablecoin": True}
    path = tmp_path / "registry.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, "address": USDC}).replace(": 6,", ": " + "1" * 5000 + ","))
    with pytest.raises(ParseError) as exc:
        TokenRegistry.from_jsonl(path)
    assert (exc.value.path, exc.value.line) == (str(path), 2)


@pytest.mark.parametrize(
    "field,value",
    [
        ("authentic", "false"),
        ("stablecoin", 0),
        ("chain_id", 1.9),
        ("chain_id", True),
        ("decimals", "6"),
        ("decimals", 6.0),
    ],
)
def test_registry_jsonl_requires_json_types(tmp_path, field, value):
    good = {"chain_id": 1, "address": USDT, "symbol": "USDT", "decimals": 6,
            "authentic": True, "stablecoin": True}
    bad = {**good, "address": USDC, field: value}
    path = tmp_path / "registry.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(ParseError) as exc:
        TokenRegistry.from_jsonl(path)
    assert (exc.value.path, exc.value.line) == (str(path), 2)
    assert field in str(exc.value)


# ---------------------------------------------------------------------------
# prices and USD conversion


def make_prices():
    day = date(2023, 5, 1)
    return PriceTable(
        {
            (USDT, day): Decimal("1.001"),
            ("ETH", day): Decimal("1900.52"),
        }
    )


def test_price_lookup():
    day = date(2023, 5, 1)
    assert make_prices().get_or_none(USDT, day) == Decimal("1.001")
    assert make_prices().get_or_none(USDT, date(2023, 5, 2)) is None


def test_parity_fallback_is_opt_in():
    day = date(2023, 5, 2)
    table = PriceTable({}, parity_assets=frozenset({USDT}))
    assert table.get_or_none(USDT, day) == Decimal("1")
    assert table.get_or_none(USDC, day) is None


def test_price_csv_roundtrip(tmp_path):
    table = make_prices()
    path = tmp_path / "prices.csv"
    table.write_csv(path)
    back = PriceTable.from_csv(path)
    assert back.get_or_none(USDT, date(2023, 5, 1)) == Decimal("1.001")
    assert back.get_or_none("ETH", date(2023, 5, 1)) == Decimal("1900.52")


def test_price_csv_rejects_duplicates(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("asset,date,usd_price\nETH,2023-05-01,1900\nETH,2023-05-01,1901\n")
    with pytest.raises(ParseError):
        PriceTable.from_csv(path)


def test_price_csv_rejects_nonpositive(tmp_path):
    path = tmp_path / "prices.csv"
    path.write_text("asset,date,usd_price\nETH,2023-05-01,0\n")
    with pytest.raises(ParseError):
        PriceTable.from_csv(path)


@pytest.mark.parametrize("price", ["NaN", "sNaN", "Infinity", "-Infinity"])
def test_price_csv_rejects_non_finite(tmp_path, price):
    path = tmp_path / "prices.csv"
    path.write_text(f"asset,date,usd_price\nETH,2023-05-01,1900\nETH,2023-05-02,{price}\n")
    with pytest.raises(ParseError) as exc:
        PriceTable.from_csv(path)
    assert (exc.value.path, exc.value.line) == (str(path), 3)


def test_usd_amount_plain():
    # 123456789 base units at 6 decimals and price 1.00 is 123.456789 USD
    assert usd_amount(123456789, 6, Decimal("1")) == Decimal("123.456789")


def test_usd_amount_half_even_ties():
    # 25e-7 rounds down to the even digit, 15e-7 rounds up to it
    assert usd_amount(25, 7, Decimal("1")) == Decimal("0.000002")
    assert usd_amount(15, 7, Decimal("1")) == Decimal("0.000002")
    assert usd_amount(35, 7, Decimal("1")) == Decimal("0.000004")


def test_usd_amount_huge_value_is_exact():
    value = 2**255
    got = usd_amount(value, 6, Decimal("1"))
    assert got == usd_oracle(value, 6, Fraction(1))


def test_usd_amount_rejects_negative():
    with pytest.raises(ValueError):
        usd_amount(-1, 6, Decimal("1"))


@given(
    value=st.integers(min_value=0, max_value=2**256 - 1),
    decimals=st.integers(min_value=0, max_value=30),
    price_milli=st.integers(min_value=1, max_value=5_000_000),
)
@settings(max_examples=200, deadline=None)
def test_usd_amount_matches_fraction_oracle(value, decimals, price_milli):
    price = Decimal(price_milli).scaleb(-3)
    got = usd_amount(value, decimals, price)
    want = usd_oracle(value, decimals, Fraction(price_milli, 1000))
    assert got == want


def usd_in_local_context(value: int, decimals: int, price: Decimal) -> Decimal:
    """usd_amount as a 120-digit local context computes it."""
    with localcontext() as ctx:
        ctx.prec = 120
        amount = Decimal(value).scaleb(-decimals) * price
        return amount.quantize(USD_QUANTUM, rounding=ROUND_HALF_EVEN)


def usd_text(convert, *args) -> str:
    try:
        return str(convert(*args))
    except InvalidOperation:
        # the quantized amount needs more than 120 digits
        return "InvalidOperation"


def test_usd_amount_equals_local_context_formula():
    # the same text, exponent included, or the same error, for values up
    # to 2**256, any decimals up to 255 and prices of up to 61 digits
    rng = random.Random(11)
    outcomes = []
    for _ in range(3000):
        value = rng.getrandbits(rng.choice((8, 64, 160, 256)))
        decimals = rng.randrange(256)
        price = Decimal(rng.getrandbits(rng.choice((10, 60, 200)))).scaleb(-rng.randrange(70))
        got = usd_text(usd_amount, value, decimals, price)
        assert got == usd_text(usd_in_local_context, value, decimals, price)
        outcomes.append(got)
    assert 0 < outcomes.count("InvalidOperation") < 100


# ---------------------------------------------------------------------------
# events


def test_event_key_and_order():
    ev = TransferEvent(
        chain_id=1,
        block_number=17_000_000,
        timestamp=1_680_000_000,
        tx_hash="0x" + "ab" * 32,
        log_index=7,
        token=USDT,
        from_addr=VALID,
        to_addr=USDC,
        value=1000,
    )
    assert ev.key == ev.tx_hash + ":7"
    assert ev.order == (17_000_000, 7)
    assert ev.tx is None


def test_event_is_immutable():
    ev = TransferEvent(1, 1, 0, "0x" + "00" * 32, 0, USDT, VALID, USDC, 1)
    with pytest.raises(AttributeError):
        ev.value = 2  # type: ignore[misc]


def test_transaction_record_defaults():
    tx = TransactionRecord(initiator=VALID)
    assert tx.target is None and tx.gas_used is None and tx.gas_price is None


def test_event_date_is_utc():
    assert event_date(0) == date(1970, 1, 1)
    assert event_date(1_680_307_200) == date(2023, 4, 1)


# ---------------------------------------------------------------------------
# chain config


def test_default_config_presets():
    eth = default_config(1)
    bsc = default_config(56)
    assert eth.window_blocks == 100 and eth.block_time_seconds == 12
    assert bsc.window_blocks == 400 and bsc.block_time_seconds == 3
    assert eth.tiny_threshold_usd == Decimal("10")
    assert (eth.a_min, eth.b_min) == (3, 4)
    assert eth.birthday_alpha == 0.999
    assert eth.typo_match_bound == 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"window_blocks": 0},
        {"tiny_threshold_usd": Decimal("0")},
        {"tiny_threshold_usd": Decimal("-5")},
        {"birthday_alpha": 0.0},
        {"birthday_alpha": 1.0},
        {"a_min": -1},
        {"b_min": 41},
        {"typo_match_bound": 41},
        {"block_time_seconds": 0},
        {"tiny_threshold_usd": Decimal("NaN")},
        {"tiny_threshold_usd": "Infinity"},
        {"tiny_threshold_usd": "abc"},
        {"a_min": 2.5},
        {"window_blocks": True},
        {"birthday_alpha": "0.5"},
        {"native_asset": 5},
        {"stablecoin_parity": "false"},
        {"stablecoins": 5},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        ChainConfig(chain_id=1, **kwargs)


def test_config_normalizes_stablecoins():
    cfg = ChainConfig(chain_id=1, stablecoins=(USDT.upper().replace("0X", "0x"), USDC))
    assert cfg.stablecoins == (USDT, USDC)


def test_config_json_roundtrip(tmp_path):
    cfg = ChainConfig(chain_id=56, window_blocks=400, stablecoins=(USDT,), native_asset="BNB")
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = ChainConfig.from_json_file(path)
    assert back == cfg


def test_config_with_overrides():
    cfg = default_config(1)
    tweaked = cfg.with_overrides(window_blocks=200, b_min=3)
    assert tweaked.window_blocks == 200 and tweaked.b_min == 3
    assert cfg.window_blocks == 100
    with pytest.raises(ConfigError):
        cfg.with_overrides(window_blocks=-5)
