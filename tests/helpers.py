"""Shared fixtures for the test suites: canned addresses, a registry and
price table over two authentic tokens, lookalike construction with exact
prefix/suffix match counts, a small ordered-stream builder, and an
attack-rich scenario spec."""

from __future__ import annotations

import tempfile
from datetime import date, timedelta
from decimal import Decimal
from pathlib import Path

from poisonscan.core import (
    PriceTable,
    RegistryEntry,
    TokenRef,
    TokenRegistry,
    TransferEvent,
)
from poisonscan.detector import DetectionReport
from poisonscan.scenario import GroupSpec, ScenarioSpec

GENESIS = 1_704_067_200
STABLE = "0x" + "5" * 40
AUTH = "0x" + "6" * 40
FAKE = "0x" + "7" * 40

V1 = "0x" + "01" * 20
V2 = "0x" + "02" * 20
R1 = "0x1a2b3c4d5e6f70819293a4b5c6d7e8f901234567"
R2 = "0x9f8e7d6c5b4a39281716253449586a7b8c9d0e1f"


def lookalike(intended: str, a: int, b: int) -> str:
    """Address agreeing with ``intended`` on exactly the first a and last b
    hex digits (the filler digit breaks both adjacent positions)."""
    digits = intended[2:]
    filler = next(
        c for c in "0123456789abcdef" if c != digits[a] and c != digits[39 - b]
    )
    return "0x" + digits[:a] + filler * (40 - a - b) + digits[40 - b :]


def typo_of(intended: str) -> str:
    """``intended`` with one digit changed: a typo, not a lookalike."""
    digits = list(intended[2:])
    digits[17] = "0" if digits[17] != "0" else "1"
    return "0x" + "".join(digits)


def make_registry() -> TokenRegistry:
    return TokenRegistry(
        [
            RegistryEntry(TokenRef(1, STABLE, "USDS", 6), authentic=True, stablecoin=True),
            RegistryEntry(TokenRef(1, AUTH, "WIDE", 18), authentic=True, stablecoin=False),
        ]
    )


def make_prices(days: int = 30) -> PriceTable:
    start = date(2024, 1, 1)
    table = {}
    for i in range(days):
        day = start + timedelta(days=i)
        table[(STABLE, day)] = Decimal("1")
        table[(AUTH, day)] = Decimal("5")
    return PriceTable(table)


def report_bytes(report: DetectionReport) -> bytes:
    """The bytes of ``report.write_json``, what report.json holds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        report.write_json(path)
        return path.read_bytes()


class StreamBuilder:
    """Accumulates rows and assigns per-block log indexes and tx hashes."""

    def __init__(self, chain_id: int = 1):
        self.chain_id = chain_id
        self.rows: list[tuple] = []

    def add(self, block, frm, to, token, value, tx_hash=None, tx=None):
        self.rows.append((block, len(self.rows), frm, to, token, value, tx_hash, tx))

    def events(self) -> list[TransferEvent]:
        out = []
        per_block: dict[int, int] = {}
        for block, seq, frm, to, token, value, tx_hash, tx in sorted(
            self.rows, key=lambda r: (r[0], r[1])
        ):
            li = per_block.get(block, 0)
            per_block[block] = li + 1
            out.append(
                TransferEvent(
                    chain_id=self.chain_id,
                    block_number=block,
                    timestamp=GENESIS + block * 12,
                    tx_hash=tx_hash or f"0x{seq:064x}",
                    log_index=li,
                    token=token,
                    from_addr=frm,
                    to_addr=to,
                    value=value,
                    tx=tx,
                )
            )
        return out


def rich_spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        seed=seed,
        n_blocks=900,
        benign_per_block=2,
        n_benign_users=30,
        groups=(
            GroupSpec(
                n_attacks=6,
                strategies=("tiny", "zero", "counterfeit"),
                scores=((3, 4), (4, 5)),
                bundle_size=2,
                sibling_bundles=1,
                payoff_rate=1.0,
                payoff_delay=(2, 120),
                history_upgrades=1,
            ),
            GroupSpec(
                n_attacks=4,
                strategies=("zero",),
                scores=((5, 6),),
                offsets=(30, 80),
                payoff_rate=0.5,
            ),
        ),
        typos=2,
        decoy_payoffs=1,
        contested_payoffs=2,
        contested_winners=(0, 1),
    )


# sha256 of report.json for rich_spec(7) after scan with the full history
# and birthday_filter; any change to the report record format shows up here
REPORT_JSON_SHA256 = "f05ee6cca164df0aa29f3ed29a8618d797227ba2bbadd7213f56069856cb2845"
