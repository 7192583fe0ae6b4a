"""A differential fuzz gate for scan: short attack-shaped streams, scanned
with and without a history, as a list and through iter_events over a file,
must agree with the quadratic reference detector.

The streams are made to reach the window's edges. Blocks step by 0, 1, m,
m + 1 and m + 2 for a window of m blocks, so a trigger often sits exactly
at the window's start or was repeated in the block of a probe; the few
victims and intended addresses make every label common, and lookalikes
score on both sides of a_min and b_min. Every stream is made from a fixed
seed, so the gate is deterministic.
"""

from __future__ import annotations

import random
from functools import cache

import pytest

from poisonscan import detector
from poisonscan.core import ChainConfig, Label
from poisonscan.detector import scan
from poisonscan.ingest import iter_events, write_events

from reference import reference_detect
from helpers import (
    AUTH,
    FAKE,
    R1,
    R2,
    STABLE,
    V1,
    V2,
    StreamBuilder,
    lookalike,
    make_prices,
    make_registry,
    typo_of,
)

N_STREAMS = 500

# (a, b) of each lookalike against the default a_min = 3, b_min = 4: hits,
# a miss on each side, and near misses on each side
SCORES = ((3, 4), (4, 5), (2, 4), (3, 3), (2, 6), (6, 3))
NOISE = ("0x" + "8" * 40, "0x" + "9" * 40)
# raw values: zero, one unit, tiny and large in USD
VALUES = {STABLE: (0, 1, 5_000_000, 900_000_000), AUTH: (0, 1, 10**17, 10**20), FAKE: (0, 5, 10**20)}


LOOKS = {r: tuple(lookalike(r, a, b) for a, b in SCORES) + (typo_of(r), r) for r in (R1, R2)}


def transfer(rng: random.Random, looks: dict) -> tuple[str, str, str, int]:
    victim, ref = rng.choice((V1, V1, V2)), rng.choice((R1, R2))
    look = rng.choice(looks[ref])
    kind = rng.random()
    if kind < 0.3:  # a trigger
        return victim, ref, STABLE, VALUES[STABLE][-1]
    if kind < 0.5:  # a poisoning in, mostly tiny
        token = rng.choice((STABLE, STABLE, STABLE, AUTH))
        return look, victim, token, rng.choice((1, *VALUES[token][1:]))
    if kind < 0.7:  # a poisoning out, mostly zero-value or counterfeit
        token = rng.choice((STABLE, AUTH, FAKE, FAKE))
        return victim, look, token, 0 if token != FAKE else rng.choice(VALUES[FAKE])
    if kind < 0.85:  # a payoff
        return victim, look, rng.choice((STABLE, STABLE, AUTH)), VALUES[STABLE][-1]
    # noise, which may make a lookalike a spender
    token = rng.choice((STABLE, AUTH, FAKE))
    frm, to = rng.sample((victim, ref, look, *NOISE), 2)
    return frm, to, token, rng.choice(VALUES[token])


def fuzz_stream(seed: int) -> tuple[list, int]:
    """A stream of a few blocks and its window length m."""
    rng = random.Random(seed)
    m = rng.choice((1, 2, 4))
    # a hit and one other lookalike of each intended address, so that they recur
    looks = {r: [rng.choice(LOOKS[r][:2] + LOOKS[r][-2:-1]), rng.choice(LOOKS[r])] for r in LOOKS}
    block = rng.choice((0, 1, 50))
    sb = StreamBuilder()
    for n in range(rng.randint(6, 16)):
        block += rng.choice((0, 0, 1, m, m + 1, m + 1, m + 2))
        # a transaction of two or three contiguous logs, now and then
        size = rng.choice((1, 1, 1, 2, 3))
        tx = f"0x{'f' * 32}{n:032x}" if size > 1 else None
        for _ in range(size):
            frm, to, token, value = transfer(rng, looks)
            if frm != to:
                sb.add(block, frm, to, token, value, tx_hash=tx)
    return sb.events(), m


def assert_matches(report, ref) -> None:
    assert report.labels == ref.labels
    contexts = {(c.victim, c.intended, c.lookalike): frozenset(c.evidence) for c in report.contexts}
    assert contexts == ref.contexts
    assert {p.key for p in report.payoffs if p.confirmed} == ref.confirmed
    assert report.accidental == ref.accidental


@cache
def oracle(seed: int):
    """The stream, its config, and the reference results without and with
    the full history."""
    events, m = fuzz_stream(seed)
    config = ChainConfig(chain_id=1, window_blocks=m)
    registry, prices = make_registry(), make_prices()
    refs = tuple(reference_detect(events, config, registry, prices, full_history=h) for h in (False, True))
    return events, config, refs


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Each stream written as an events file, by seed."""
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for seed in range(N_STREAMS):
        out[seed] = root / f"{seed}.jsonl"
        write_events(out[seed], oracle(seed)[0])
    return out


@pytest.mark.parametrize("ix_min", [detector.IX_MIN, 0, 1, 2])
def test_scan_agrees_with_reference_on_fuzzed_streams(monkeypatch, files, ix_min):
    monkeypatch.setattr(detector, "IX_MIN", ix_min)
    registry, prices = make_registry(), make_prices()
    seen = set()
    for seed in range(N_STREAMS):
        events, config, refs = oracle(seed)
        for ref, history in zip(refs, (None, events)):
            report = scan(events, config, registry, prices, history=history)
            try:
                assert_matches(report, ref)
                read = scan(
                    iter_events(files[seed]),
                    config,
                    registry,
                    prices,
                    history=history and iter_events(files[seed]),
                )
                assert read == report
            except AssertionError:
                print(f"seed {seed}, window {config.window_blocks}, history {bool(history)}: {events}")
                raise
            seen.update(report.labels.values())
            seen.update("via_history" for row in report.payoffs if row.via_history)
            seen.update("sibling" for ctx in report.contexts if ctx.via_sibling)
    # the streams still reach every label and both late paths
    assert seen == Label.ALL - {Label.BENIGN} | {"via_history", "sibling"}
