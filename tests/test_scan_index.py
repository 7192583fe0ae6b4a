"""The keyed lookalike index of scan: a victim with IX_MIN or more active
refs is probed through head and tail buckets instead of a walk over every
ref. The index must leave every report byte unchanged, counters included,
so each test here compares the keyed path with the walk."""

from __future__ import annotations

import random
from functools import cache

import pytest

from poisonscan import detector
from poisonscan.core import ChainConfig, Label
from poisonscan.detector import scan
from poisonscan.scenario import generate

from reference import reference_detect
from helpers import (
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
    report_bytes,
    rich_spec,
)

# IX_MIN for a scan that never leaves the walk
WALK = 10**9


class CountingRefs(detector._KeyedRefs):
    made = 0
    probed = 0

    def __init__(self, *args):
        CountingRefs.made += 1
        super().__init__(*args)

    def probe(self, look):
        CountingRefs.probed += 1
        return super().probe(look)


@pytest.fixture
def run(monkeypatch):
    """run(events, config, ix_min, ...) -> (report, keyed victims made,
    probes through a keyed form)"""
    monkeypatch.setattr(detector, "_KeyedRefs", CountingRefs)

    def run_scan(events, config, ix_min, registry=None, prices=None, history=None):
        monkeypatch.setattr(detector, "IX_MIN", ix_min)
        CountingRefs.made = CountingRefs.probed = 0
        report = scan(
            events,
            config,
            registry or make_registry(),
            prices or make_prices(),
            history=history,
        )
        return report, CountingRefs.made, CountingRefs.probed

    return run_scan


def both_ways(run, events, config, ix_min, **kwargs):
    """The keyed report, after checking it against the walk's byte for byte;
    CountingRefs keeps the keyed run's counts, which runs last."""
    walked, _, _ = run(events, config, WALK, **kwargs)
    keyed, made, probed = run(events, config, ix_min, **kwargs)
    assert made > 0 and probed > 0
    assert report_bytes(keyed) == report_bytes(walked)
    return keyed


def accounts(n: int, seed: int, first: str = "") -> list[str]:
    """Random addresses; with ``first``, all start with that digit, so a
    walk over them always scores one and a big victim is always keyed."""
    rng = random.Random(seed)
    return [f"0x{first}{rng.getrandbits(160):040x}"[:42] for _ in range(n)]


# ---------------------------------------------------------------------------
# differential: every victim keyed against the walk


@cache
def rich_inputs(seed: int):
    bundle = generate(rich_spec(seed))
    return list(bundle.events()), bundle.configs[1], bundle.registry, bundle.prices


@pytest.mark.parametrize("a_min,b_min", [(3, 4), (0, 4), (3, 0), (0, 0), (1, 1)])
@pytest.mark.parametrize("window", [1, 4, 20])
@pytest.mark.parametrize("seed", [0, 7, 23])
def test_keyed_report_equals_walk(run, seed, window, a_min, b_min):
    events, config, registry, prices = rich_inputs(seed)
    config = config.with_overrides(window_blocks=window, a_min=a_min, b_min=b_min)
    both_ways(run, events, config, 2, registry=registry, prices=prices, history=events)


# ---------------------------------------------------------------------------
# a hub-heavy stream under the default IX_MIN, against the oracle


def zipf_stream(seed: int, n_events: int = 3000, n_users: int = 300, per_block: int = 20):
    """Zipf(1) counterparties, so the busiest accounts pass IX_MIN. After
    some of their payments a lookalike of the payee poisons them, some
    lookalikes only nearly match, and some poisonings are paid."""
    rng = random.Random(seed)
    users = accounts(n_users, seed)
    weights = [1 / rank for rank in range(1, n_users + 1)]
    scores = [(3, 4), (4, 5), (7, 9), (2, 6), (1, 7), (5, 2)]
    sb = StreamBuilder()
    for i in range(n_events):
        blk = 100 + i // per_block
        frm, to = rng.choices(users, weights, k=2)
        if frm == to:
            continue
        sb.add(blk, frm, to, STABLE, rng.randrange(10, 5000) * 10**6)
        if frm in users[:3] and rng.random() < 0.08:
            look = lookalike(to, *rng.choice(scores))
            kind = rng.randrange(4)
            if kind == 0:
                sb.add(blk + 1, look, frm, STABLE, 5_000_000)
            elif kind == 1:
                sb.add(blk + 1, frm, look, STABLE, 0)
            elif kind == 2:
                sb.add(blk + 1, frm, look, FAKE, 5)
            else:
                # two poisonings in one transaction
                tx = f"0x{'b' * 56}{i:08x}"
                sb.add(blk + 2, look, frm, STABLE, 4_000_000, tx_hash=tx)
                sb.add(blk + 2, frm, look, STABLE, 0, tx_hash=tx)
            if rng.random() < 0.5:
                sb.add(blk + rng.randrange(2, 30), frm, look, STABLE, 900_000_000)
    return sb.events()


@pytest.mark.parametrize("seed", [1, 2])
def test_hub_stream_matches_reference_and_walk(run, seed):
    events = zipf_stream(seed)
    config = ChainConfig(chain_id=1)
    report, made, probed = run(events, config, detector.IX_MIN, history=events)
    assert made > 0 and probed > 0
    ref = reference_detect(events, config, make_registry(), make_prices())
    assert report.labels == ref.labels
    got_contexts = {
        (c.victim, c.intended, c.lookalike): frozenset(c.evidence) for c in report.contexts
    }
    assert got_contexts == ref.contexts
    assert {p.key for p in report.payoffs if p.confirmed} == ref.confirmed
    assert report.accidental == ref.accidental
    walked, _, _ = run(events, config, WALK, history=events)
    assert report.counters["near_misses"] > 0
    for name in ("probes", "near_misses"):
        assert report.counters[name] == walked.counters[name], name
    assert report_bytes(report) == report_bytes(walked)


# ---------------------------------------------------------------------------
# keyed state at its edges


def test_refs_gained_in_a_block_wait_for_the_next(run):
    # V1 is walked with IX_MIN refs at block 110 and keyed from block 111;
    # a ref it gains in a block, plain or keyed, is probed from the next
    x1, x2, x3, x4, r1, r2 = accounts(6, 1, first="c")
    sb = StreamBuilder()
    for x in (x1, x2, x3):
        sb.add(100, V1, x, STABLE, 20_000_000)
    sb.add(110, V1, x4, STABLE, 20_000_000)
    sb.add(110, V1, r1, STABLE, 20_000_000)
    sb.add(110, lookalike(r1, 3, 4), V1, STABLE, 5_000_000)
    sb.add(110, lookalike(x1, 3, 4), V1, STABLE, 5_000_000)
    sb.add(111, V1, r2, STABLE, 20_000_000)
    sb.add(111, lookalike(r2, 3, 4), V1, STABLE, 5_000_000)
    sb.add(111, lookalike(r1, 4, 5), V1, STABLE, 5_000_000)
    sb.add(112, lookalike(r2, 4, 5), V1, STABLE, 5_000_000)
    events = sb.events()
    report = both_ways(run, events, ChainConfig(chain_id=1), 4)
    tiny = {k for k, v in report.labels.items() if v == Label.TINY}
    assert tiny == {events[i].key for i in (6, 9, 10)}


def test_pair_expired_and_readded_in_one_block(run):
    # V1 is keyed from block 104. R1's only trigger leaves the window at
    # block 107's start and V1 pays R1 again in that block, so R1 is
    # probed again only from block 108
    x1, x2, x3, r1 = accounts(4, 2, first="c")
    sb = StreamBuilder()
    sb.add(100, V1, r1, STABLE, 20_000_000)
    for blk in (100, 104):
        for x in (x1, x2, x3):
            sb.add(blk, V1, x, STABLE, 20_000_000)
    sb.add(107, V1, r1, STABLE, 20_000_000)
    sb.add(107, lookalike(r1, 3, 4), V1, STABLE, 5_000_000)
    sb.add(108, lookalike(r1, 4, 5), V1, STABLE, 5_000_000)
    events = sb.events()
    report = both_ways(run, events, ChainConfig(chain_id=1, window_blocks=5), 3)
    tiny = {k for k, v in report.labels.items() if v == Label.TINY}
    assert tiny == {events[-1].key}


def test_keyed_victim_shrinks_and_grows(run):
    # keyed from block 102 with five refs; block 107 drops four of them
    # and block 108 the fifth, while V1 gains four more
    xs = accounts(9, 3, first="c")
    sb = StreamBuilder()
    for x in xs[:4]:
        sb.add(100, V1, x, STABLE, 20_000_000)
    sb.add(101, V1, xs[4], STABLE, 20_000_000)
    sb.add(102, V2, R2, STABLE, 20_000_000)
    sb.add(107, lookalike(xs[0], 3, 4), V1, STABLE, 5_000_000)
    for x in xs[5:]:
        sb.add(108, V1, x, STABLE, 20_000_000)
    sb.add(109, lookalike(xs[7], 3, 4), V1, STABLE, 5_000_000)
    sb.add(109, lookalike(xs[5], 2, 6), V1, STABLE, 5_000_000)
    sb.add(109, lookalike(xs[4], 3, 4), V1, STABLE, 5_000_000)
    sb.add(109, V1, lookalike(xs[8], 5, 5), STABLE, 0)
    events = sb.events()
    report = both_ways(run, events, ChainConfig(chain_id=1, window_blocks=5), 4)
    assert report.counters["near_misses"] == 1
    assert [events[i].key for i in (11, 14)] == sorted(
        (k for k, v in report.labels.items() if v in Label.POISONS),
        key=lambda k: report.events[k].order,
    )


def test_block_gap_expires_every_ref(run):
    x1, x2, x3, x4 = accounts(4, 4, first="c")
    sb = StreamBuilder()
    for x in (x1, x2, x3):
        sb.add(100, V1, x, STABLE, 20_000_000)
    sb.add(101, V1, x4, STABLE, 20_000_000)
    sb.add(102, lookalike(x4, 3, 4), V1, STABLE, 5_000_000)
    sb.add(200, lookalike(x1, 3, 4), V1, STABLE, 5_000_000)
    sb.add(200, V1, x1, STABLE, 20_000_000)
    sb.add(201, lookalike(x1, 4, 5), V1, STABLE, 5_000_000)
    events = sb.events()
    report = both_ways(run, events, ChainConfig(chain_id=1, window_blocks=5), 2)
    tiny = {k for k, v in report.labels.items() if v == Label.TINY}
    assert tiny == {events[4].key, events[-1].key}


def test_incoming_probe_keys_a_victim(run):
    # V1 only receives after paying two accounts: the incoming probe at
    # block 101 finds IX_MIN refs, so V1 is keyed from block 102
    x1, x2 = accounts(2, 7, first="c")
    sb = StreamBuilder()
    sb.add(100, V1, x1, STABLE, 20_000_000)
    sb.add(100, V1, x2, STABLE, 20_000_000)
    sb.add(101, lookalike(x1, 3, 4), V1, STABLE, 5_000_000)
    sb.add(102, lookalike(x2, 3, 4), V1, STABLE, 5_000_000)
    events = sb.events()
    report = both_ways(run, events, ChainConfig(chain_id=1), 2)
    assert (CountingRefs.made, CountingRefs.probed) == (1, 1)
    tiny = {k for k, v in report.labels.items() if v == Label.TINY}
    assert tiny == {events[2].key, events[3].key}


def test_emptied_keyed_victim_leaves_and_is_keyed_again(run):
    # V1 is keyed from block 102; the gap to block 200 expires all its
    # refs, so it leaves the window state, and the refs it gains there
    # are walked at block 201 and keyed again from block 202
    x1, x2, x3, x4 = accounts(4, 8, first="c")
    sb = StreamBuilder()
    sb.add(100, V1, x1, STABLE, 20_000_000)
    sb.add(100, V1, x2, STABLE, 20_000_000)
    sb.add(101, V1, lookalike(x1, 3, 4), STABLE, 0)
    sb.add(102, V1, lookalike(x2, 3, 4), STABLE, 0)
    sb.add(200, V1, x3, STABLE, 20_000_000)
    sb.add(200, V1, x4, STABLE, 20_000_000)
    sb.add(201, V1, lookalike(x3, 3, 4), STABLE, 0)
    sb.add(202, V1, lookalike(x4, 3, 4), STABLE, 0)
    events = sb.events()
    report = both_ways(run, events, ChainConfig(chain_id=1, window_blocks=5), 2)
    assert (CountingRefs.made, CountingRefs.probed) == (2, 2)
    zero = {k for k, v in report.labels.items() if v == Label.ZERO}
    assert zero == {events[i].key for i in (2, 3, 6, 7)}


def test_lookalike_that_is_an_eligible_ref(run):
    # V1 paid the lookalike itself: it is one of V1's refs, never probed
    # against itself, and still scored against the ref it imitates
    r1, x1 = accounts(2, 5, first="c")
    look = lookalike(r1, 3, 4)
    sb = StreamBuilder()
    sb.add(100, V1, r1, STABLE, 20_000_000)
    sb.add(100, V1, look, STABLE, 20_000_000)
    sb.add(101, V1, x1, STABLE, 20_000_000)
    sb.add(102, look, V1, STABLE, 5_000_000)
    sb.add(103, V1, look, STABLE, 0)
    events = sb.events()
    report = both_ways(run, events, ChainConfig(chain_id=1), 2)
    assert report.labels[events[3].key] == Label.TINY
    assert report.labels[events[4].key] == Label.ZERO
    # block 101 scores r1 and look; blocks 102 and 103 score r1 and x1
    assert report.counters["probes"] == 6


def test_keyed_payee_is_a_spender(run):
    # the payee differs from R1 in one digit, so paying it would be a typo,
    # but it paid three accounts in stablecoin and is keyed from block 103:
    # a keyed sender is a spender, and the payment is not accidental
    digits = list(R1[2:])
    digits[17] = "0"
    typo = "0x" + "".join(digits)
    x1, x2, x3 = accounts(3, 6, first="c")
    sb = StreamBuilder()
    sb.add(100, V1, R1, STABLE, 50_000_000)
    sb.add(101, typo, x1, STABLE, 20_000_000)
    sb.add(101, typo, x2, STABLE, 20_000_000)
    sb.add(102, typo, x3, STABLE, 20_000_000)
    sb.add(103, V1, typo, STABLE, 300_000_000)
    events = sb.events()
    report = both_ways(run, events, ChainConfig(chain_id=1), 2)
    (row,) = report.payoffs
    assert row.key == events[-1].key
    assert report.accidental == frozenset()
    assert report.labels[row.key] == Label.PAYOFF_UNCONFIRMED
