"""Detection pipeline tests: windowed collection, classification rules,
payoff confirmation, typo flagging, victim exclusion, and equality with the
brute-force reference detector."""

from __future__ import annotations

import hashlib
import json
import os
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from datetime import date, timedelta
from decimal import Decimal

import pytest

from poisonscan import detector, ingest
from poisonscan.cli import run
from poisonscan.clustering import build_transfer_sets
from poisonscan.core import (
    ChainConfig,
    ConfigError,
    Label,
    OrderingError,
    ParseError,
    PriceTable,
    RegistryEntry,
    TokenRef,
    TokenRegistry,
    TransferEvent,
    TransactionRecord,
)
from poisonscan.detector import (
    DetectionReport,
    PayoffRecord,
    birthday_filter,
    scan,
    sensitivity_run,
)
from poisonscan.ingest import EventReader, iter_events, validate_stream, write_events
from poisonscan.scenario import benign_stream, generate, score_labels
from poisonscan.similarity import positional_matches, score

from reference import reference_detect
from helpers import (
    AUTH,
    FAKE,
    GENESIS,
    R1,
    R2,
    STABLE,
    V1,
    V2,
    StreamBuilder,
    lookalike,
    make_prices,
    make_registry,
    REPORT_JSON_SHA256,
    report_bytes,
    rich_spec,
    typo_of,
)


def run_scan(builder, config=None):
    config = config or ChainConfig(chain_id=1)
    return scan(builder.events(), config, make_registry(), make_prices())


# ---------------------------------------------------------------------------
# classification rules


def test_tiny_poison_and_intended():
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(102, look, V1, STABLE, 5_000_000)
    report = run_scan(sb)
    trigger_key, poison_key = [e.key for e in sb.events()]
    assert report.labels == {trigger_key: Label.INTENDED, poison_key: Label.TINY}
    (ctx,) = report.contexts
    assert (ctx.victim, ctx.intended, ctx.lookalike) == (V1, R1, look)
    assert ctx.evidence == (poison_key,)
    assert (ctx.a, ctx.b) == (3, 4)
    assert ctx.anchor_key == trigger_key
    assert not ctx.via_sibling
    assert report.victim_recipients == {V1: 1}
    assert report.events[poison_key].usd == Decimal("5.000000")
    assert report.counters["tiny"] == 1


def test_zero_value_poison():
    look = lookalike(R1, 4, 5)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(150, V1, look, STABLE, 0)
    report = run_scan(sb)
    poison_key = sb.events()[1].key
    assert report.labels[poison_key] == Label.ZERO
    assert report.counters["zero_value"] == 1


def test_counterfeit_poison_has_no_usd():
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(103, V1, look, FAKE, 999 * 10**18)
    report = run_scan(sb)
    poison_key = sb.events()[1].key
    assert report.labels[poison_key] == Label.COUNTERFEIT
    assert report.events[poison_key].usd is None
    assert report.unpriced == ()
    assert report.counters["counterfeit"] == 1


def test_zero_value_of_unregistered_token_is_counterfeit():
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(103, V1, look, FAKE, 0)
    report = run_scan(sb)
    assert report.labels[sb.events()[1].key] == Label.COUNTERFEIT


@pytest.mark.parametrize(
    "value,expect_tiny",
    [(9_999_999, True), (10_000_000, False), (1, True)],
)
def test_tiny_threshold_is_strict(value, expect_tiny):
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(102, look, V1, STABLE, value)
    report = run_scan(sb)
    got = report.labels.get(sb.events()[1].key)
    assert (got == Label.TINY) is expect_tiny


@pytest.mark.parametrize(
    "offset,collected",
    [(1, True), (2, True), (101, True), (102, False), (0, False)],
)
def test_window_boundaries(offset, collected):
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(1000, V1, R1, STABLE, 50_000_000)
    sb.add(1000 + offset, V1, look, STABLE, 0)
    report = run_scan(sb)
    assert (sb.events()[1].key in report.labels) is collected


@pytest.mark.parametrize("offset,collected", [(101, True), (102, False)])
def test_window_runs_from_the_latest_trigger(offset, collected):
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(1000, V1, R1, STABLE, 50_000_000)
    sb.add(1050, V1, R1, STABLE, 5_000_000)
    sb.add(1050 + offset, V1, look, STABLE, 0)
    report = run_scan(sb)
    assert (sb.events()[2].key in report.labels) is collected


def test_repeat_payment_to_intended_is_benign():
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(102, V1, R1, STABLE, 5_000_000)
    sb.add(103, R1, V1, STABLE, 5_000_000)
    report = run_scan(sb)
    assert report.labels == {}
    assert report.payoffs == ()


def test_benign_triggers_emit_nothing():
    sb = StreamBuilder()
    for i in range(5):
        sb.add(100 + i, V1, R1, STABLE, 20_000_000 + i)
        sb.add(100 + i, V2, R2, STABLE, 30_000_000 + i)
    report = run_scan(sb)
    assert report.labels == {}
    assert report.contexts == ()


def test_near_miss_counter():
    near = lookalike(R1, 2, 6)
    far = lookalike(R2, 2, 2)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(100, V2, R2, STABLE, 50_000_000)
    sb.add(102, near, V1, STABLE, 5_000_000)
    sb.add(103, far, V2, STABLE, 5_000_000)
    report = run_scan(sb)
    assert report.labels == {}
    assert report.counters["near_misses"] == 1


def test_missing_price_quarantines_tiny_candidate():
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(102, look, V1, STABLE, 5_000_000)
    report = scan(sb.events(), ChainConfig(chain_id=1), make_registry(), PriceTable({}))
    poison_key = sb.events()[1].key
    assert report.labels == {}
    assert report.unpriced == (poison_key,)
    assert report.counters["unpriced"] == 1


# ---------------------------------------------------------------------------
# payoffs


def test_payoff_confirmed_far_beyond_window():
    look = lookalike(R1, 4, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(102, V1, look, STABLE, 0)
    sb.add(700, V1, look, STABLE, 200_000_000)
    report = run_scan(sb)
    trigger_key, poison_key, pay_key = [e.key for e in sb.events()]
    (row,) = report.payoffs
    assert row.key == pay_key
    assert row.confirmed and not row.via_history
    assert row.evidence == (poison_key,)
    assert row.intended == R1
    assert row.anchor_key == trigger_key
    assert report.labels[pay_key] == Label.PAYOFF_CONFIRMED
    assert row.usd == Decimal("200.000000")
    anchor = report.events[trigger_key]
    poison = report.events[poison_key]
    pay = report.events[pay_key]
    assert (anchor.block_number, anchor.log_index) < (poison.block_number, poison.log_index)
    assert (poison.block_number, poison.log_index) < (pay.block_number, pay.log_index)


def test_payoff_unconfirmed_without_poisoning():
    look = lookalike(R1, 5, 5)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(105, V1, look, STABLE, 300_000_000)
    report = run_scan(sb)
    (row,) = report.payoffs
    assert not row.confirmed
    assert row.evidence == ()
    assert report.labels[row.key] == Label.PAYOFF_UNCONFIRMED
    assert report.labels[sb.events()[0].key] == Label.INTENDED


def test_poisoning_after_payoff_does_not_confirm():
    look = lookalike(R1, 4, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(105, V1, look, STABLE, 300_000_000)
    sb.add(110, V1, look, STABLE, 0)
    report = run_scan(sb)
    (row,) = report.payoffs
    assert not row.confirmed
    assert report.labels[row.key] == Label.PAYOFF_UNCONFIRMED
    assert report.labels[sb.events()[2].key] == Label.ZERO


def test_payoff_label_outranks_poison_label():
    # one transfer that is a payoff for V1's context and a tiny poisoning
    # for the sender-victim context of its recipient
    x = lookalike(R1, 3, 4)
    r2 = lookalike(V1, 4, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(100, x, r2, STABLE, 50_000_000)
    sb.add(103, V1, x, STABLE, 5_000_000)
    report = run_scan(sb)
    key = sb.events()[2].key
    assert report.labels[key] == Label.PAYOFF_UNCONFIRMED
    ctx_keys = {(c.victim, c.intended, c.lookalike) for c in report.contexts}
    assert (x, r2, V1) in ctx_keys
    (ctx,) = [c for c in report.contexts if c.victim == x]
    assert key in ctx.evidence


# ---------------------------------------------------------------------------
# shared-transaction expansion


def sibling_stream(shared_tx: bool):
    look1 = lookalike(R1, 3, 4)
    look2 = lookalike(R2, 3, 4)
    sb = StreamBuilder()
    sb.add(10, V2, R2, STABLE, 50_000_000)
    sb.add(100, V1, R1, STABLE, 50_000_000)
    tx = "0x" + "ab" * 32
    sb.add(150, V1, look1, STABLE, 0, tx_hash=tx)
    sb.add(150, V2, look2, STABLE, 0, tx_hash=tx if shared_tx else None)
    return sb


def test_sibling_expansion_rescues_out_of_window_victim():
    report = run_scan(sibling_stream(shared_tx=True))
    events = sibling_stream(shared_tx=True).events()
    assert report.labels[events[2].key] == Label.ZERO
    assert report.labels[events[3].key] == Label.ZERO
    rescued = [c for c in report.contexts if c.victim == V2]
    assert rescued and rescued[0].via_sibling
    direct = [c for c in report.contexts if c.victim == V1]
    assert direct and not direct[0].via_sibling
    assert report.counters["collected_sibling"] == 1


def test_no_expansion_across_transactions():
    report = run_scan(sibling_stream(shared_tx=False))
    events = sibling_stream(shared_tx=False).events()
    assert report.labels[events[2].key] == Label.ZERO
    assert events[3].key not in report.labels


def test_expansion_needs_a_direct_hit():
    look1 = lookalike(R1, 3, 4)
    look2 = lookalike(R2, 3, 4)
    sb = StreamBuilder()
    sb.add(10, V1, R1, STABLE, 50_000_000)
    sb.add(11, V2, R2, STABLE, 50_000_000)
    tx = "0x" + "cd" * 32
    sb.add(300, V1, look1, STABLE, 0, tx_hash=tx)
    sb.add(300, V2, look2, STABLE, 0, tx_hash=tx)
    report = run_scan(sb)
    assert report.labels == {}


def bundle_stream(seed: int, rounds: int = 80):
    """Multi-log transactions against a window of 5 blocks. Every victim
    pays its recipients at block 10, long out of the window. Each round one
    victim pays again and, two blocks on, a bundle holds a direct hit on it
    with poisonings of sibling victims, which only the shared transaction
    can reach. Some siblings pay their lookalike inside the bundle, in the
    next transaction or in the next block; some bundles end their block,
    and the stream ends with one."""
    rng = random.Random(seed)

    def addresses(n):
        return [f"0x{rng.getrandbits(160):040x}" for _ in range(n)]

    victims = addresses(24)
    recipients = {v: addresses(3) for v in victims}
    others = addresses(40)
    scores = [(3, 4), (4, 5), (6, 2), (2, 4)]  # the last only nearly matches
    sb = StreamBuilder()
    for v in victims:
        for r in recipients[v]:
            sb.add(10, v, r, STABLE, rng.randrange(100, 5000) * 10**6)

    def poison(block, tx, victim, look):
        kind = rng.randrange(3)
        if kind == 0:
            sb.add(block, look, victim, STABLE, rng.randrange(1, 9) * 10**6, tx_hash=tx)
        elif kind == 1:
            sb.add(block, victim, look, STABLE, 0, tx_hash=tx)
        else:
            sb.add(block, victim, look, FAKE, 5, tx_hash=tx)

    for i in range(rounds):
        blk = 100 + 6 * i
        direct, *siblings = rng.sample(victims, 1 + rng.randrange(1, 4))
        ref = rng.choice(recipients[direct])
        sb.add(blk, direct, ref, STABLE, 70 * 10**6)
        tx = f"0x{'b' * 8}{seed:08x}{i:048x}"
        paid_later = []
        logs = [(direct, lookalike(ref, 3, 4))]
        logs += [(w, lookalike(rng.choice(recipients[w]), *rng.choice(scores))) for w in siblings]
        rng.shuffle(logs)
        for victim, look in logs:
            poison(blk + 2, tx, victim, look)
            where = rng.randrange(4)
            if where == 0:
                sb.add(blk + 2, victim, look, STABLE, 900 * 10**6, tx_hash=tx)
            elif where in (1, 2):
                paid_later.append((blk + where + 1, victim, look))
        if i == rounds - 1:
            break
        if rng.random() < 0.5:
            # the bundle is not the last transaction of its block
            sb.add(blk + 2, *rng.sample(others, 2), STABLE, 10**6)
        for block, victim, look in paid_later:
            sb.add(block, victim, look, STABLE, 800 * 10**6)
        sb.add(blk + 4, *rng.sample(others, 2), AUTH, 10**18)
    return sb.events()


# sha256 of each seed's report.json: a change to the pass keeps these bytes
BUNDLE_REPORT_SHA256 = {
    0: "fef7449c8d0f299928e82c5946186d502d978a14f2def13895d7ea7d3983aa2f",
    1: "8e39cbf5742edc371a1b08b271ed6a37e9a0bc563ee858d46e293221e13f824f",
    2: "f45c6b1439867defa0ba885cb2fad4443864cf53c12212d3ac09cc4b21f277d8",
}


@pytest.mark.parametrize(
    "seed,one_shot",
    [pytest.param(seed, False, id=str(seed)) for seed in sorted(BUNDLE_REPORT_SHA256)]
    + [pytest.param(seed, True, id=f"{seed}-iterators") for seed in sorted(BUNDLE_REPORT_SHA256)],
)
def test_bundle_stream_matches_reference_and_pin(seed, one_shot):
    # as one-shot iterators, the stream and the history are each read once,
    # so no phase can read the events again
    events = bundle_stream(seed)
    config = ChainConfig(chain_id=1, window_blocks=5)
    registry, prices = make_registry(), make_prices()
    stream, history = (iter(events), iter(events)) if one_shot else (events, events)
    report = scan(stream, config, registry, prices, history=history)
    assert events[-1].tx_hash == events[-2].tx_hash
    assert report.counters["collected_sibling"] > 0
    ref = reference_detect(events, config, registry, prices)
    assert report.labels == ref.labels
    contexts = {(c.victim, c.intended, c.lookalike): frozenset(c.evidence) for c in report.contexts}
    assert contexts == ref.contexts
    assert {p.key for p in report.payoffs if p.confirmed} == ref.confirmed
    assert report.accidental == ref.accidental
    assert hashlib.sha256(report_bytes(report)).hexdigest() == BUNDLE_REPORT_SHA256[seed]


# ---------------------------------------------------------------------------
# input validation


def test_unordered_stream_rejected():
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 1_000_000)
    sb.add(100, V2, R2, STABLE, 1_000_000)
    sb.add(100, V1, R2, STABLE, 1_000_000)
    sb.add(101, V2, R1, STABLE, 1_000_000)
    a, b, c, d = sb.events()
    tx = a.tx_hash
    # each stream breaks the ordering contract at its last event
    cases = [
        # a decreasing block
        ([d, a], "<stream>:2: block 100 after block 101"),
        # a repeated log index within a block
        ([a, replace(b, log_index=0)], "<stream>:2: log index 0 after 0 in block 100"),
        # an interleaved transaction within a block
        ([a, b, replace(c, tx_hash=tx)], f"<stream>:3: transaction {tx} is not contiguous (block 100)"),
        # a transaction that reappears in a later block
        ([a, replace(d, tx_hash=tx)], f"<stream>:2: transaction {tx} is not contiguous (block 101)"),
    ]
    for events, message in cases:
        with pytest.raises(OrderingError) as scanned:
            scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
        with pytest.raises(OrderingError) as validated:
            validate_stream(events)
        assert str(scanned.value) == str(validated.value) == message


def test_chain_mismatch_rejected():
    sb = StreamBuilder(chain_id=56)
    sb.add(100, V1, R1, STABLE, 1_000_000)
    with pytest.raises(ConfigError):
        scan(sb.events(), ChainConfig(chain_id=1), make_registry(), make_prices())


def test_generator_input_equals_list_input():
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(102, look, V1, STABLE, 5_000_000)
    sb.add(120, V1, look, STABLE, 400_000_000)
    events = sb.events()
    a = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
    b = scan(iter(events), ChainConfig(chain_id=1), make_registry(), make_prices())
    assert report_bytes(a) == report_bytes(b)


def test_report_json_roundtrip(tmp_path):
    report = run_scan(sibling_stream(shared_tx=True))
    big = 2**256 - 1
    key, detail = min(report.events.items())
    edge = PayoffRecord(
        key=key,
        victim=V1,
        lookalike=lookalike(R1, 3, 4),
        intended=None,
        anchor_key=None,
        anchor_block=None,
        anchor_log_index=None,
        block_number=detail.block_number,
        log_index=detail.log_index,
        token=detail.token,
        value=big,
        usd=None,
        confirmed=False,
        via_history=False,
        evidence=(),
        edit_distance=2,
    )
    priced = replace(edge, intended=R1, usd=Decimal("1234.500001"), edit_distance=None)
    report = replace(
        report,
        events={**report.events, key: replace(detail, value=big, usd=None)},
        payoffs=report.payoffs + (edge, priced),
    )
    path = tmp_path / "report.json"
    report.write_json(path)
    raw = json.loads(path.read_text(encoding="utf-8"))
    assert raw["events"][key]["value"] == str(big)
    assert raw["events"][key]["from"] == detail.from_addr
    assert raw["events"][key]["to"] == detail.to_addr
    assert raw["payoffs"][-2]["usd"] is None and raw["payoffs"][-2]["evidence"] == []
    assert raw["payoffs"][-1]["usd"] == "1234.500001"
    back = DetectionReport.read_json(path)
    assert back == report
    report.write_json(tmp_path / "again.json")
    assert (tmp_path / "report.json").read_bytes() == (tmp_path / "again.json").read_bytes()




def rich_report(seed: int = 7) -> DetectionReport:
    """A generated report with float exclusions, None usd and evidence tuples."""
    bundle = generate(rich_spec(seed))
    events = list(bundle.events())
    config = bundle.configs[1]
    report = scan(events, config, bundle.registry, bundle.prices, history=events)
    report = birthday_filter(report, config.with_overrides(birthday_alpha=5e-9))
    unpriced = replace(report.payoffs[0], usd=None)
    return replace(report, payoffs=report.payoffs + (unpriced,))


def test_write_json_equals_compact_dumps(tmp_path):
    report = rich_report()
    assert report.excluded_victims and all(
        isinstance(p, float) for p in report.excluded_victims.values()
    )
    assert any(p.usd is None for p in report.payoffs)
    assert any(c.evidence for c in report.contexts) and any(p.evidence for p in report.payoffs)
    empty = scan([], ChainConfig(chain_id=1), make_registry(), make_prices())
    assert not (empty.events or empty.labels or empty.contexts or empty.payoffs)
    for name, rep in (("rich", report), ("empty", empty)):
        path = tmp_path / f"{name}.json"
        rep.write_json(path)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        assert DetectionReport.read_json(path) == rep


def test_write_json_memory_is_not_the_file_size(tmp_path):
    # the records are streamed, so the traced peak is a small part of the
    # file; a writer that builds the JSON text first holds all of it
    report = rich_report()
    n = 60
    report = replace(
        report,
        labels={f"{k}/{i}": v for i in range(n) for k, v in report.labels.items()},
        events={f"{k}/{i}": v for i in range(n) for k, v in report.events.items()},
        contexts=report.contexts * n,
        payoffs=report.payoffs * n,
    )
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        report.write_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 2_000_000
    assert peak < size / 4, (peak, size)


# ---------------------------------------------------------------------------
# full-history confirmation


def test_full_history_upgrades_non_stablecoin_tiny():
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(102, look, V1, AUTH, 10**18)
    sb.add(105, V1, look, STABLE, 200_000_000)
    events = sb.events()
    config = ChainConfig(chain_id=1)
    report = scan(events, config, make_registry(), make_prices())
    (row,) = report.payoffs
    assert not row.confirmed
    assert scan(events, config, make_registry(), make_prices(), history=None) == report
    upgraded = scan(events, config, make_registry(), make_prices(), history=events)
    (row2,) = upgraded.payoffs
    assert row2.confirmed and row2.via_history
    assert row2.evidence == (events[1].key,)
    assert upgraded.labels[row2.key] == Label.PAYOFF_CONFIRMED
    assert events[1].key not in upgraded.labels


def test_full_history_respects_ordering_and_threshold():
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(105, V1, look, STABLE, 200_000_000)
    sb.add(103, look, V1, AUTH, 3 * 10**18)
    sb.add(110, look, V1, AUTH, 10**18)
    sb.add(99, look, V1, AUTH, 10**18)
    events = sb.events()
    config = ChainConfig(chain_id=1)
    upgraded = scan(events, config, make_registry(), make_prices(), history=events)
    (row,) = upgraded.payoffs
    assert not row.confirmed


def test_history_iterator_equals_list():
    bundle = generate(rich_spec(7))
    events = list(bundle.events())
    config = bundle.configs[1]
    from_list = scan(events, config, bundle.registry, bundle.prices, history=events)
    from_iter = scan(events, config, bundle.registry, bundle.prices, history=iter(events))
    assert from_iter == from_list
    assert any(p.via_history for p in from_list.payoffs)
    for report in (from_list, from_iter):
        data = report_bytes(birthday_filter(report, config))
        assert hashlib.sha256(data).hexdigest() == REPORT_JSON_SHA256


def test_one_iterator_as_events_and_history():
    # the events are the history: scan lists the iterator once, and the
    # history walk reads that list rather than the iterator the pass used up
    bundle = generate(rich_spec(7))
    events = list(bundle.events())
    config = bundle.configs[1]
    want = scan(events, config, bundle.registry, bundle.prices, history=events)
    assert any(p.via_history for p in want.payoffs)
    one_shot = iter(events)
    assert scan(one_shot, config, bundle.registry, bundle.prices, history=one_shot) == want


def test_each_event_is_checked_for_order_once(tmp_path, monkeypatch):
    # whether the events come as a list, a one-shot iterator, a reader or
    # the CLI's --history naming the --events file under any spelling or
    # through a symlink, each passes through ordered once
    bundle = generate(rich_spec(7))
    bundle.write(tmp_path / "sim")
    path = tmp_path / "sim" / "events.jsonl"
    events = list(iter_events(path))
    config = bundle.configs[1]
    want = scan(events, config, bundle.registry, bundle.prices, history=events)
    real = ingest.ordered
    checked = Counter()

    def counting(numbered, name, **kwargs):
        for event in real(numbered, name, **kwargs):
            checked[event.key] += 1
            yield event

    monkeypatch.setattr(ingest, "ordered", counting)
    monkeypatch.setattr(detector, "ordered", counting)
    one_shot = iter(events)
    reader = iter_events(path)
    for source in (events, one_shot, reader):
        checked.clear()
        assert scan(source, config, bundle.registry, bundle.prices, history=source) == want
        assert checked == Counter(e.key for e in events)
    (tmp_path / "link.jsonl").symlink_to(path)
    monkeypatch.chdir(tmp_path)
    argv = ["scan", "--events", "sim/events.jsonl", "--config", "sim/config.json"]
    argv += ["--registry", "sim/registry.jsonl", "--prices", "sim/prices.csv"]
    for i, history in enumerate(["sim/events.jsonl", "./sim/events.jsonl", "link.jsonl"]):
        checked.clear()
        assert run([*argv, "--history", history, "--out", f"out{i}"]) == 0
        assert checked == Counter(e.key for e in events), history


def test_history_from_another_chain_rejected():
    bundle = generate(rich_spec(7))
    events = list(bundle.events())
    other = [replace(ev, chain_id=56) for ev in events]
    with pytest.raises(ConfigError, match="history event chain_id 56 does not match configured chain 1"):
        scan(events, bundle.configs[1], bundle.registry, bundle.prices, history=other)


@pytest.mark.parametrize(
    "reorder,message",
    [
        pytest.param(lambda ev: ev + ev, "<history>:5: block 100 after block 305", id="repeated"),
        pytest.param(lambda ev: ev[::-1], "<history>:2: block 300 after block 305", id="reversed"),
        pytest.param(
            lambda ev: [ev[0], replace(ev[0], tx_hash="0x" + "e" * 64)],
            "<history>:2: log index 0 after 0 in block 100",
            id="log-index",
        ),
        pytest.param(
            lambda ev: [ev[0], replace(ev[1], block_number=100, log_index=1), replace(ev[0], log_index=2)],
            f"<history>:3: transaction 0x{0:064x} is not contiguous (block 100)",
            id="split-transaction",
        ),
    ],
)
def test_history_out_of_stream_order_rejected(reorder, message):
    # a repeated history once gave a payoff that cites one event twice, and
    # a reversed one was accepted silently
    events = history_upgrade_stream(lambda sb, look: sb.add(250, V1, look, FAKE, 5))
    with pytest.raises(OrderingError) as raised:
        scan(events, ChainConfig(chain_id=1), make_registry(), make_prices(), history=iter(reorder(events)))
    assert str(raised.value) == message


def history_upgrade_stream(poison):
    """V1 pays R1 at 100; ``poison(sb, look)`` adds history-only events at
    250, after the window closed; V1 pays R1 again at 300, opening a window
    in which V1 pays the lookalike at 305. Only the history can confirm it."""
    look = lookalike(R1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    poison(sb, look)
    sb.add(300, V1, R1, STABLE, 50_000_000)
    sb.add(305, V1, look, STABLE, 200_000_000)
    return sb.events()


@pytest.mark.parametrize(
    "poison",
    [
        pytest.param(lambda sb, look: sb.add(250, look, V1, AUTH, 10**18), id="tiny-authentic"),
        pytest.param(lambda sb, look: sb.add(250, V1, look, FAKE, 5), id="counterfeit"),
        pytest.param(lambda sb, look: sb.add(250, V1, look, AUTH, 0), id="zero-value"),
    ],
)
def test_history_confirms_each_binding_kind(poison):
    events = history_upgrade_stream(poison)
    config = ChainConfig(chain_id=1)
    (row,) = scan(events, config, make_registry(), make_prices()).payoffs
    assert not row.confirmed
    report = scan(events, config, make_registry(), make_prices(), history=iter(events))
    (row,) = report.payoffs
    assert row.confirmed and row.via_history
    assert row.evidence == (events[1].key,)
    assert row.anchor_key == events[0].key
    assert events[1].key in report.events


def test_history_self_transfer_is_counted_once():
    # the victim is itself a lookalike of its recipient, so a tiny transfer
    # to itself is a look->victim binding; kept twice it would be evidence twice
    look = lookalike(R1, 4, 4)
    sb = StreamBuilder()
    sb.add(100, look, R1, STABLE, 50_000_000)
    sb.add(250, look, look, AUTH, 10**18)
    sb.add(300, look, R1, STABLE, 50_000_000)
    sb.add(305, look, look, STABLE, 200_000_000)
    events = sb.events()
    report = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices(), history=events)
    (row,) = report.payoffs
    assert (row.victim, row.lookalike) == (look, look)
    assert row.confirmed and row.via_history
    assert row.evidence == (events[1].key,)


def test_history_is_walked_to_the_end():
    # a lazily validated history must fail on its last line even when no
    # payoff needs any of its events
    def history():
        yield from history_upgrade_stream(lambda sb, look: None)
        raise ParseError("bad line", path="history.jsonl", line=5)

    for stream in ([], history_upgrade_stream(lambda sb, look: None)):
        with pytest.raises(ParseError, match="history.jsonl:5"):
            scan(stream, ChainConfig(chain_id=1), make_registry(), make_prices(), history=history())


def test_unpriced_lists_every_payoff_before_the_history_walk():
    # two unconfirmed anchored rows; only the stablecoin has a price. The
    # second row's payoff is unpriced, and the walk over the first row's
    # window meets an unpriced authentic transfer from its lookalike, which
    # the pass never probes: only stablecoin transfers are probed as incoming
    look1, look2 = lookalike(R1, 3, 4), lookalike(R2, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(100, V2, R2, STABLE, 50_000_000)
    sb.add(105, look1, V1, AUTH, 10**18)
    sb.add(110, V1, look1, STABLE, 200_000_000)
    sb.add(120, V2, look2, AUTH, 10**18)
    events = sb.events()
    prices = PriceTable({(STABLE, date(2024, 1, 1)): Decimal("1")})
    report = scan(events, ChainConfig(chain_id=1), make_registry(), prices, history=events)
    assert [(p.key, p.confirmed, p.anchor_key) for p in report.payoffs] == [
        (events[3].key, False, events[0].key),
        (events[4].key, False, events[1].key),
    ]
    assert report.unpriced == (events[4].key, events[2].key)


def test_history_read_lazily_is_not_retained(tmp_path):
    # the rich scenario, then unrelated traffic in later blocks: scan keeps
    # the few history events its payoffs need, not the file
    bundle = generate(rich_spec(7))
    events = list(bundle.events())
    config = bundle.configs[1]
    filler, _, _, _ = benign_stream(6000, n_users=500, seed=1, n_attacks=0)
    path = tmp_path / "history.jsonl"
    write_events(path, events + filler)
    want = scan(events, config, bundle.registry, bundle.prices, history=events)

    def traced_peak(work):
        tracemalloc.start()
        try:
            result = work()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a bare lazy read is the floor: iter_events keeps every transaction
    # hash for its contiguity check, whoever consumes it
    n, read_peak = traced_peak(lambda: sum(1 for _ in iter_events(path)))
    assert n == len(events) + len(filler)
    _, list_peak = traced_peak(lambda: list(iter_events(path)))
    got, scan_peak = traced_peak(
        lambda: scan(events, config, bundle.registry, bundle.prices, history=iter_events(path))
    )
    assert got == want
    held = list_peak - read_peak
    assert scan_peak - read_peak < held / 4, (scan_peak, read_peak, list_peak)


def test_file_scan_keeps_pairs_not_events(tmp_path):
    # a stream four windows long: scan keeps each pair's first trigger as a
    # stream position and reads the few anchors it reports back from the
    # file, so what it holds above a bare read is well under the events'
    # own size. Keeping every first trigger as an event held 1.46 times
    # that size here; this asks for under half of it.
    events, registry, prices, config = benign_stream(4000, n_users=1000, seed=1, events_per_block=10)
    path = tmp_path / "events.jsonl"
    write_events(path, events)
    want = scan(events, config, registry, prices)
    del events

    def traced_peak(work):
        tracemalloc.start()
        try:
            result = work()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    _, read_peak = traced_peak(lambda: sum(1 for _ in iter_events(path)))
    _, list_peak = traced_peak(lambda: list(iter_events(path)))
    got, scan_peak = traced_peak(lambda: scan(iter_events(path), config, registry, prices))
    assert report_bytes(got) == report_bytes(want)
    assert got.labels
    held = list_peak - read_peak
    assert scan_peak - read_peak < 0.7 * held, (scan_peak, read_peak, list_peak)


def test_file_edited_in_place_after_the_pass_rejected(tmp_path, monkeypatch):
    # two lines of equal length swapped and the mtime put back keep the
    # file's size and mtime; the anchor read again is then another pair's
    bundle = generate(rich_spec(7))
    path = tmp_path / "events.jsonl"
    write_events(path, bundle.events())
    fetch = EventReader.fetch

    def edit_then_fetch(reader, positions):
        positions = sorted(set(positions))
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        first = positions[0]

        def pair(i):
            raw = json.loads(lines[i])
            return raw["from"], raw["to"]

        other = next(
            i for i, line in enumerate(lines) if len(line) == len(lines[first]) and pair(i) != pair(first)
        )
        lines[first], lines[other] = lines[other], lines[first]
        st = path.stat()
        path.write_text("".join(lines), encoding="utf-8")
        os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))
        assert reader.stamp == (path.stat().st_size, path.stat().st_mtime_ns)
        return fetch(reader, positions)

    monkeypatch.setattr(EventReader, "fetch", edit_then_fetch)
    with pytest.raises(ParseError) as raised:
        scan(iter_events(path), bundle.configs[1], bundle.registry, bundle.prices)
    assert str(raised.value) == f"the file changed after it was read ({path})"


# ---------------------------------------------------------------------------
# accidental transfers


def test_typo_payment_flagged_accidental():
    typo = typo_of(R1)
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(103, V1, typo, STABLE, 300_000_000)
    events = sb.events()
    flagged = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
    (row,) = flagged.payoffs
    assert row.key in flagged.accidental
    assert row.edit_distance == 1
    assert flagged.labels[row.key] == Label.ACCIDENTAL
    assert positional_matches(typo, R1) == 39


def test_spender_is_not_accidental():
    typo = typo_of(R1)
    # a stablecoin spend and a spend of another authentic token both count
    for token, value in ((STABLE, 100_000_000), (AUTH, 10**18)):
        sb = StreamBuilder()
        sb.add(100, V1, R1, STABLE, 50_000_000)
        sb.add(103, V1, typo, STABLE, 300_000_000)
        sb.add(200, typo, V2, token, value)
        events = sb.events()
        flagged = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
        assert flagged.accidental == frozenset()
        assert flagged.labels[events[1].key] == Label.PAYOFF_UNCONFIRMED


def test_spender_whose_refs_expired_is_not_accidental():
    # the typo address paid in stablecoin long before, so its window entry
    # is gone by the payment; it is still a spender
    typo = typo_of(R1)
    sb = StreamBuilder()
    sb.add(10, typo, V2, STABLE, 100_000_000)
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(103, V1, typo, STABLE, 300_000_000)
    events = sb.events()
    config = ChainConfig(chain_id=1, window_blocks=5)
    flagged = scan(events, config, make_registry(), make_prices())
    assert flagged.accidental == frozenset()
    assert flagged.labels[events[2].key] == Label.PAYOFF_UNCONFIRMED
    assert reference_detect(events, config, make_registry(), make_prices()).accidental == frozenset()


def test_attack_range_similarity_is_not_accidental():
    look = lookalike(R1, 5, 5)
    assert positional_matches(look, R1) <= 20
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(103, V1, look, STABLE, 300_000_000)
    events = sb.events()
    flagged = scan(events, ChainConfig(chain_id=1), make_registry(), make_prices())
    assert flagged.accidental == frozenset()


# ---------------------------------------------------------------------------
# birthday exclusion


def heavy_victim_stream():
    """Victim A pays 1000 distinct recipients, victim B pays 100; both then
    get poisoned. With 2+2 digit thresholds the collision probability for A
    crosses 0.999."""
    config = ChainConfig(chain_id=1, a_min=2, b_min=2)
    sb = StreamBuilder()
    rng = random.Random(8888)
    for i in range(1000):
        sb.add(100 + i, V1, f"0x{rng.getrandbits(160):040x}", STABLE, 20_000_000)
    for i in range(100):
        sb.add(100 + i, V2, f"0x{rng.getrandbits(160):040x}", STABLE, 20_000_000)
    sb.add(1200, V1, R1, STABLE, 50_000_000)
    sb.add(1200, V2, R2, STABLE, 50_000_000)
    sb.add(1202, V1, lookalike(R1, 2, 2), STABLE, 0)
    sb.add(1202, V2, lookalike(R2, 2, 2), STABLE, 0)
    return sb, config


def test_birthday_filter_excludes_heavy_victims():
    sb, config = heavy_victim_stream()
    report = scan(sb.events(), config, make_registry(), make_prices())
    assert report.victim_recipients[V1] == 1001
    assert report.victim_recipients[V2] == 101
    filtered = birthday_filter(report, config)
    assert set(filtered.excluded_victims) == {V1}
    assert filtered.excluded_victims[V1] >= 0.999
    headline = filtered.headline_counts()
    assert headline[Label.ZERO] == 1
    assert report.headline_counts()[Label.ZERO] == 2
    strict = birthday_filter(report, config.with_overrides(birthday_alpha=0.01))
    assert set(strict.excluded_victims) == {V1, V2}


def test_exclusion_drops_findings_from_headline_counts_only():
    # with every victim excluded, the headline counts are empty, yet the
    # finding layers still see every finding
    bundle = generate(rich_spec(7))
    config = bundle.configs[1].with_overrides(birthday_alpha=1e-12)
    report = scan(list(bundle.events()), config, bundle.registry, bundle.prices)
    filtered = birthday_filter(report, config)
    assert set(filtered.excluded_victims) == set(report.victim_recipients)
    assert filtered.headline_counts() == {}
    assert filtered.labels == report.labels
    sets = build_transfer_sets(filtered)
    assert sets and sets == build_transfer_sets(report)


# ---------------------------------------------------------------------------
# sensitivity harness


def test_sensitivity_run_shapes():
    sb = StreamBuilder()
    sb.add(1000, V1, R1, STABLE, 50_000_000)
    sb.add(1050, V1, lookalike(R1, 4, 5), STABLE, 0)
    sb.add(1150, V1, lookalike(R1, 4, 6), STABLE, 0)
    sb.add(1000, V2, R2, STABLE, 50_000_000)
    sb.add(1050, V2, lookalike(R2, 3, 3), STABLE, 0)
    sb.add(1060, V2, typo_of(R2), STABLE, 300_000_000)
    base = ChainConfig(chain_id=1)
    wide = base.with_overrides(window_blocks=200)
    loose = base.with_overrides(b_min=3)
    rows = sensitivity_run(
        sb.events(), [base, wide, loose], make_registry(), make_prices()
    )
    by_cfg = {(r["window_blocks"], r["a_min"], r["b_min"]): r for r in rows}
    assert by_cfg[(100, 3, 4)]["zero_value"] == 1
    assert by_cfg[(200, 3, 4)]["zero_value"] == 2
    assert by_cfg[(100, 3, 3)]["zero_value"] == 2
    # the typo payment is accidental, not an unconfirmed payoff
    assert all(r["payoffs_unconfirmed"] == 0 for r in rows)
    again = sensitivity_run(sb.events(), [base, base], make_registry(), make_prices())
    assert again[0] == again[1]


# ---------------------------------------------------------------------------
# reference-detector equality on generated scenarios


@pytest.mark.parametrize("seed", [0, 7, 23])
def test_scan_matches_reference_and_truth(seed):
    bundle = generate(rich_spec(seed))
    events = list(bundle.events())
    config = bundle.configs[1]
    report = scan(events, config, bundle.registry, bundle.prices, history=events)
    ref = reference_detect(events, config, bundle.registry, bundle.prices)
    assert report.labels == ref.labels
    got_contexts = {
        (c.victim, c.intended, c.lookalike): frozenset(c.evidence) for c in report.contexts
    }
    assert got_contexts == ref.contexts
    assert {p.key for p in report.payoffs if p.confirmed} == ref.confirmed
    assert report.accidental == ref.accidental
    card = score_labels(report.labels, bundle.truth, 1)
    assert card.precision == 1.0 and card.recall == 1.0


@pytest.mark.parametrize("window", [1, 4, 20])
def test_scan_matches_reference_with_short_windows(window):
    # short windows make triggers expire mid-scenario, which exercises the
    # pruning of scan's window state and the same-block second trigger
    bundle = generate(rich_spec(7))
    events = list(bundle.events())
    config = bundle.configs[1].with_overrides(window_blocks=window)
    report = scan(events, config, bundle.registry, bundle.prices, history=events)
    ref = reference_detect(events, config, bundle.registry, bundle.prices)
    assert report.labels == ref.labels
    got_contexts = {
        (c.victim, c.intended, c.lookalike): frozenset(c.evidence) for c in report.contexts
    }
    assert got_contexts == ref.contexts
    assert {p.key for p in report.payoffs if p.confirmed} == ref.confirmed


def test_report_json_bytes_pinned(tmp_path):
    bundle = generate(rich_spec(7))
    events = list(bundle.events())
    config = bundle.configs[1]
    report = scan(events, config, bundle.registry, bundle.prices, history=events)
    path = tmp_path / "report.json"
    birthday_filter(report, config).write_json(path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == REPORT_JSON_SHA256


def test_window_monotonicity_on_generated_scenario():
    bundle = generate(rich_spec(3))
    events = list(bundle.events())
    config = bundle.configs[1]
    small = scan(events, config, bundle.registry, bundle.prices)
    wide = scan(
        events, config.with_overrides(window_blocks=200), bundle.registry, bundle.prices
    )
    small_poisons = {k for k, v in small.labels.items() if v in Label.POISONS}
    wide_poisons = {k for k, v in wide.labels.items() if v in Label.POISONS}
    assert small_poisons <= wide_poisons
