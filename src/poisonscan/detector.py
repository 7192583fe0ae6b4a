"""Windowed poisoning detection over an ordered transfer stream.

The pipeline: every stablecoin transfer with positive value marks its sender
as a victim and its receiver as an intended counterparty; transfers in the
following window of blocks are probed for lookalike counterparties and
classified as tiny, zero-value, or counterfeit poisonings or as payoff
candidates; transactions containing a detected poisoning have all their
transfers re-evaluated against the full trigger history; payoffs confirm
when a poisoning binding the same victim and lookalike sits strictly
between the intended transfer and the payoff.

scan() is the whole stream layer, one pass whose candidate state is pruned
to the window; the first intended transfer per (victim, recipient) pair is
retained for the whole run because it anchors confirmation and the
shared-transaction path. The pass only logs each trigger that brings a pair
into the window, and folds the log into per-victim anchors when the
shared-transaction path needs them and at finalize, then only for the
victims the report names: a dict entry per pair, made per event, would
be the costliest step of a mostly benign pass. Its finalize step builds the
payoff rows, walks a full history once when given one to upgrade
unconfirmed rows, keeping only the history events that touch those rows'
lookalikes, and flags typo payments to addresses that never spent an
authentic token in the stream.
birthday_filter() then runs on the finished report.

Each event probes its victim's active refs (its recent recipients) for a
lookalike. A victim with fewer than IX_MIN active refs is walked: every ref
that shares the lookalike's first or last digit is scored. From the block
start after a walk finds a victim with IX_MIN or more, its refs live in a
keyed form instead, indexed by their first max(a_min, 1) digits and by
their last max(b_min, 1) digits, and an event scores only the union of the
two buckets it keys to.
That is exact. A hit has a >= a_min and b >= b_min, and a >= 1 or b >= 1
to be probed at all, so it shares one key. A near miss has a + b >= a_min +
b_min with a < a_min or b < b_min; with a < a_min it has b > b_min, so it
shares the tail key, and the other way round. So the union holds every hit
and every near miss, and the other refs the walk would score do nothing.
The index holds the refs present at a block's start: those are the refs
that the walk's same-block rule finds eligible, so a ref gained within a
block joins at the next start. The counter ``probes`` still counts what
the walk would score, the eligible refs sharing the first or last digit,
from one-digit tallies that the keyed form keeps beside its buckets. So
the report, its counters included, is the same byte for byte, and a traced
``probes`` per event does not fall with the index: it counts one-digit
matches, not work done.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Mapping, Sequence

from .core import (
    ChainConfig,
    ConfigError,
    Label,
    ParseError,
    PriceTable,
    TokenRegistry,
    TransferEvent,
    _array_pieces,
    _writer,
    event_date,
    from_json,
    parse_json,
    to_json,
    usd_amount,
)
from .ingest import ordered
from .similarity import (
    birthday_collision_prob,
    osa_distance,
    positional_matches,
)

__all__ = [
    "AttackContext",
    "DetectionReport",
    "EventDetail",
    "PayoffRecord",
    "birthday_filter",
    "scan",
    "sensitivity_run",
]


@dataclass(frozen=True, slots=True)
class EventDetail:
    """Snapshot of one labeled or payoff-relevant transfer."""

    key: str
    block_number: int
    timestamp: int
    log_index: int
    tx_hash: str
    token: str
    from_addr: str
    to_addr: str
    value: int
    usd: Decimal | None = None
    initiator: str | None = None
    target: str | None = None
    gas_used: int | None = None
    gas_price: int | None = None

    @classmethod
    def from_event(cls, event: TransferEvent, usd: Decimal | None) -> "EventDetail":
        tx = event.tx
        return cls(
            key=event.key,
            block_number=event.block_number,
            timestamp=event.timestamp,
            log_index=event.log_index,
            tx_hash=event.tx_hash,
            token=event.token,
            from_addr=event.from_addr,
            to_addr=event.to_addr,
            value=event.value,
            usd=usd,
            initiator=tx.initiator if tx else None,
            target=tx.target if tx else None,
            gas_used=tx.gas_used if tx else None,
            gas_price=tx.gas_price if tx else None,
        )

    @property
    def order(self) -> tuple[int, int]:
        return (self.block_number, self.log_index)


@dataclass(frozen=True, slots=True)
class AttackContext:
    """One (victim, intended, lookalike) binding with its evidence."""

    victim: str
    intended: str
    lookalike: str
    a: int
    b: int
    anchor_key: str
    anchor_block: int
    anchor_log_index: int
    via_sibling: bool
    evidence: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class PayoffRecord:
    """A victim's positive-value authentic transfer to a lookalike."""

    key: str
    victim: str
    lookalike: str
    intended: str | None
    anchor_key: str | None
    anchor_block: int | None
    anchor_log_index: int | None
    block_number: int
    log_index: int
    token: str
    value: int
    usd: Decimal | None
    confirmed: bool
    via_history: bool
    evidence: tuple[str, ...]
    edit_distance: int | None = None


def _object_pieces(mapping: Mapping, write) -> Iterable[str]:
    """A JSON object in sorted key order, one entry per piece; ``write``
    gives a value's text."""
    yield "{"
    sep = ""
    for key in sorted(mapping):
        yield sep + encode_basestring_ascii(key) + ":" + write(mapping[key])
        sep = ","
    yield "}"


@dataclass(frozen=True)
class DetectionReport:
    """Everything one scan produced, serializable and order-stable."""

    chain_id: int
    config: ChainConfig
    labels: dict[str, str]
    events: dict[str, EventDetail]
    contexts: tuple[AttackContext, ...]
    payoffs: tuple[PayoffRecord, ...]
    victim_recipients: dict[str, int]
    excluded_victims: dict[str, float]
    accidental: frozenset[str]
    unpriced: tuple[str, ...]
    authentic_tokens: frozenset[str]
    counters: dict[str, int]

    def quarantined_keys(self) -> frozenset[str]:
        """Event keys whose every owning victim is birthday-excluded."""
        if not self.excluded_victims:
            return frozenset()
        owners: dict[str, set[str]] = {}
        for ctx in self.contexts:
            for key in ctx.evidence + (ctx.anchor_key,):
                owners.setdefault(key, set()).add(ctx.victim)
        for row in self.payoffs:
            owners.setdefault(row.key, set()).add(row.victim)
            if row.anchor_key is not None:
                owners.setdefault(row.anchor_key, set()).add(row.victim)
        excluded = set(self.excluded_victims)
        return frozenset(k for k, vs in owners.items() if vs <= excluded)

    def headline_counts(self) -> dict[str, int]:
        """Per-label totals with birthday-excluded victims removed."""
        dropped = self.quarantined_keys()
        out: dict[str, int] = {}
        for key, label in self.labels.items():
            if key not in dropped:
                out[label] = out.get(label, 0) + 1
        return out

    def write_json(self, path: str | Path) -> None:
        """Write report.json: every field in one JSON object with sorted keys,
        no spaces and a closing newline, which ``read_json`` reads back.

        The bytes are json's for ``to_json(self)``. Events, contexts and
        payoffs are written by ``core._writer``, the per-class template that
        gives each record's text in one %-format. The file is streamed:
        labels and events go out entry by entry, contexts and payoffs record
        by record, so neither a copy of the records nor the whole text is
        ever held in memory.
        """
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        # the fields that hold no per-event records go out whole
        head = to_json(replace(self, labels={}, events={}, contexts=(), payoffs=()))
        body = {key: (encode(value),) for key, value in head.items()}
        body["labels"] = _object_pieces(self.labels, encode_basestring_ascii)
        body["events"] = _object_pieces(self.events, _writer(EventDetail))
        body["contexts"] = _array_pieces(self.contexts, _writer(AttackContext))
        body["payoffs"] = _array_pieces(self.payoffs, _writer(PayoffRecord))
        with open(path, "w", encoding="utf-8") as fh:
            sep = "{"
            for key in sorted(body):
                fh.write(sep + encode(key) + ":")
                fh.writelines(body[key])
                sep = ","
            fh.write("}\n")

    @classmethod
    def read_json(cls, path: str | Path) -> "DetectionReport":
        raw = parse_json(Path(path).read_text(encoding="utf-8"), path)
        return from_json(cls, raw, partial(ParseError, path=path))


def _resolve_token_sets(
    config: ChainConfig, registry: TokenRegistry
) -> tuple[frozenset[str], frozenset[str]]:
    if config.stablecoins is not None:
        stable = frozenset(config.stablecoins)
    else:
        stable = registry.stablecoins(config.chain_id)
    authentic = registry.authentic_tokens(config.chain_id) | stable
    return stable, authentic


# a victim with this many active refs is probed through a keyed index
IX_MIN = 32

# follows scan's last event: its tx_hash equals no event's, so it closes the
# last transaction
_END = SimpleNamespace(tx_hash=object())

# a ref's (first digit, last digit) pair as an index into a 256-slot tally
_HEX = "0123456789abcdef"
_DIGIT_PAIR = {a + b: 16 * i + j for i, a in enumerate(_HEX) for j, b in enumerate(_HEX)}


def _put(buckets: dict, key: str, ref: str) -> None:
    # a bucket is a bare ref until keys collide, then a list
    cur = buckets.get(key)
    if cur is None:
        buckets[key] = ref
    elif cur.__class__ is str:
        buckets[key] = [cur, ref]
    else:
        cur.append(ref)


def _drop(buckets: dict, key: str, ref: str) -> None:
    cur = buckets[key]
    if cur.__class__ is str:
        del buckets[key]
    else:
        cur.remove(ref)
        if len(cur) == 1:
            buckets[key] = cur[0]


class _KeyedRefs(dict):
    """A victim's active refs, ``ref -> (lb1, lb2)`` as in the plain form,
    with its eligible refs indexed by head key and by tail key.

    The window code writes it as it writes a plain dict. A ref new to the
    victim waits in ``pending`` until ``flush`` at the next block start;
    a deleted ref (only the pruning at block start deletes) leaves the
    index at once. So the index always holds exactly the refs present at
    the block's start, which are the refs the walk finds eligible.
    """

    __slots__ = (
        "head_end", "tail_start", "head", "tail", "first", "last", "both", "pending", "dirty"
    )

    def __init__(self, refs: dict, a_min: int, b_min: int, dirty: list) -> None:
        super().__init__(refs)
        self.head_end = 2 + max(a_min, 1)
        self.tail_start = 42 - max(b_min, 1)
        self.head: dict[str, str | list[str]] = {}
        self.tail: dict[str, str | list[str]] = {}
        # one-digit tallies over the indexed refs, for the walk's probe count
        self.first: dict[str, int] = {}
        self.last: dict[str, int] = {}
        self.both = [0] * 256
        self.pending: list[str] = []
        self.dirty = dirty
        for ref in self:
            self._index(ref, 1)

    def _index(self, ref: str, step: int) -> None:
        if step > 0:
            _put(self.head, ref[2 : self.head_end], ref)
            _put(self.tail, ref[self.tail_start :], ref)
        else:
            _drop(self.head, ref[2 : self.head_end], ref)
            _drop(self.tail, ref[self.tail_start :], ref)
        first, last = ref[2], ref[41]
        self.first[first] = self.first.get(first, 0) + step
        self.last[last] = self.last.get(last, 0) + step
        self.both[_DIGIT_PAIR[first + last]] += step

    def __setitem__(self, ref: str, lbs: tuple[int, int]) -> None:
        if ref not in self:
            if not self.pending:
                self.dirty.append(self)
            self.pending.append(ref)
        dict.__setitem__(self, ref, lbs)

    def __delitem__(self, ref: str) -> None:
        dict.__delitem__(self, ref)
        self._index(ref, -1)

    def flush(self) -> None:
        for ref in self.pending:
            self._index(ref, 1)
        self.pending.clear()

    def probe(self, look: str) -> tuple[list[str], int]:
        """The indexed refs other than ``look`` that share its head or tail
        key, and how many share its first or last digit (the walk's probes)."""
        head_end = self.head_end
        key = look[2:head_end]
        first, last = look[2], look[41]
        n = self.first.get(first, 0) + self.last.get(last, 0) - self.both[_DIGIT_PAIR[first + last]]
        out = []
        refs = self.head.get(key)
        if refs is not None:
            for ref in (refs,) if refs.__class__ is str else refs:
                if ref != look:
                    out.append(ref)
                else:
                    n -= 1
        refs = self.tail.get(look[self.tail_start :])
        if refs is not None:
            # look itself, and any ref in both buckets, has the head key
            for ref in (refs,) if refs.__class__ is str else refs:
                if ref[2:head_end] != key:
                    out.append(ref)
        return out, n


def scan(
    events: Iterable[TransferEvent],
    config: ChainConfig,
    registry: TokenRegistry,
    prices: PriceTable,
    *,
    history: Iterable[TransferEvent] | None = None,
) -> DetectionReport:
    """Single-pass detection over one chain's ordered transfer stream.

    ``events`` pass through ``ingest.ordered`` as they are consumed, so a
    stream out of order raises the OrderingError that ``validate_stream``
    gives for it, ``<stream>:N: ...`` with N counted from 1.

    With ``history``, each unconfirmed payoff is re-checked against the
    victim's entire history: any authentic-token tiny transfer (not just
    stablecoins), zero-value transfer, or counterfeit transfer binding
    (victim, lookalike) strictly between the intended transfer and the
    payoff confirms it. ``history`` is any iterable of events in stream
    order, a one-shot iterator included (but not the one given as
    ``events``, which the pass has used up); it is walked once, in full,
    after the pass, and only the events that touch a lookalike of an
    unconfirmed row are kept. A payoff still unconfirmed is flagged accidental
    when its destination shares more than the configured positional bound
    with the intended address and never sent an authentic positive-value
    transfer in ``events``.
    """
    chain = config.chain_id
    m = config.window_blocks
    a_min = config.a_min
    b_min = config.b_min
    d_min = a_min + b_min
    tiny_cut = config.tiny_threshold_usd
    stable_set, auth_set = _resolve_token_sets(config, registry)

    decimals: dict[str, int | None] = {}
    for addr in auth_set:
        ref = registry.token(chain, addr)
        decimals[addr] = ref.decimals if ref is not None else None

    # windowed trigger state; anchors keep the first trigger per pair forever,
    # folded in from anchor_log, which holds each trigger that brought its
    # pair into the window since the last fold
    anchors: dict[str, dict[str, TransferEvent]] = {}
    anchor_log: list[TransferEvent] = []
    active: dict[str, dict[str, tuple[int, int]]] = {}
    # (block, [active dict, recipient, ...]) for each block's trigger updates
    recent: deque[tuple[int, list]] = deque()

    # the poison labels as collected; finalize adds the intended and payoff ones
    labels: dict[str, str] = {}
    detail_ev: dict[str, TransferEvent] = {}
    usd_map: dict[str, Decimal | None] = {}
    ctx_map: dict[tuple[str, str, str], dict] = {}
    # victim -> lookalike -> {poison key: order}, in first-seen order; a
    # payment from a victim to one of its lookalikes is a payoff candidate
    pair_ev: dict[str, dict[str, dict[str, tuple[int, int]]]] = {}
    # payoff candidate key -> the refs its lookalike matched in a probe;
    # empty when only pair_ev made it a candidate, which then needs earlier
    # evidence. The victim and lookalike are the event's sender and receiver.
    cands: dict[str, set[str]] = {}
    # senders of authentic positive-value transfers; stablecoin senders are
    # the keys of active and keyed, so only the other tokens need this set
    spenders: set[str] = set()
    # keys in first-seen order; the values are unused
    unpriced: dict[str, None] = {}

    n_events = 0
    n_triggers = 0
    n_probes = 0
    n_near = 0
    n_direct = 0
    n_sibling = 0

    def priced(ev: TransferEvent) -> Decimal | None:
        key = ev.key
        if key in usd_map:
            return usd_map[key]
        dec = decimals.get(ev.token)
        price = prices.get_or_none(ev.token, event_date(ev.timestamp))
        usd = usd_amount(ev.value, dec, price) if dec is not None and price is not None else None
        usd_map[key] = usd
        return usd

    def usd_of(ev: TransferEvent, label: str) -> Decimal | None:
        if label == Label.ZERO:
            return Decimal("0.000000")
        if label == Label.COUNTERFEIT:
            return None
        return priced(ev)

    def collect(ev, victim, ref, look, label, a, b, sibling) -> None:
        nonlocal n_direct, n_sibling
        key = ev.key
        labels[key] = label
        detail_ev[key] = ev
        ckey = (victim, ref, look)
        ctx = ctx_map.get(ckey)
        if ctx is None:
            ctx = ctx_map[ckey] = {"a": a, "b": b, "evidence": {}, "sibling": sibling}
        if key not in ctx["evidence"]:
            ctx["evidence"][key] = ev.order
            if sibling:
                n_sibling += 1
            else:
                n_direct += 1
        pair_ev.setdefault(victim, {}).setdefault(look, {}).setdefault(key, ev.order)

    def add_candidate(ev: TransferEvent, ref: str | None) -> None:
        key = ev.key
        refs = cands.get(key)
        if refs is None:
            refs = cands[key] = set()
            detail_ev[key] = ev
        if ref is not None:
            refs.add(ref)

    def poison_label(ev: TransferEvent, incoming: bool) -> str | None:
        # the poison label of a transfer between a victim and a lookalike, or
        # None; incoming when the lookalike sends, and then an authentic
        # positive transfer without a price is marked unpriced
        if incoming:
            if ev.token not in auth_set or ev.value <= 0:
                return None
            usd = priced(ev)
            if usd is None:
                unpriced[ev.key] = None
            elif 0 < usd < tiny_cut:
                return Label.TINY
            return None
        if ev.token not in auth_set:
            return Label.COUNTERFEIT
        return Label.ZERO if ev.value == 0 else None

    def consider(ev, victim, look, ref, incoming, sibling) -> bool:
        """Score one candidate pair; returns True when a poisoning was
        collected directly (used for shared-transaction eligibility)."""
        nonlocal n_probes, n_near
        n_probes += 1
        # score(look, ref) without its checks: both are canonical
        # addresses and look != ref, so each walk stops inside the digits
        a = 2
        while look[a] == ref[a]:
            a += 1
        a -= 2
        b = 41
        while look[b] == ref[b]:
            b -= 1
        b = 41 - b
        if a < a_min or b < b_min:
            if a + b >= d_min:
                n_near += 1
            return False
        label = poison_label(ev, incoming)
        if label is not None:
            collect(ev, victim, ref, look, label, a, b, sibling)
            return not sibling
        if not incoming:
            add_candidate(ev, ref)
        return False

    def fold_anchors(victims: set[str] | None = None) -> None:
        # a logged trigger anchors its pair unless an earlier one did; with
        # victims, the other senders' triggers are dropped
        for ev in anchor_log:
            frm = ev.from_addr
            if victims is None or frm in victims:
                full = anchors.get(frm)
                if full is None:
                    anchors[frm] = {ev.to_addr: ev}
                else:
                    full.setdefault(ev.to_addr, ev)
        anchor_log.clear()

    def expand_tx(tx_events: list[TransferEvent]) -> None:
        # pair_ev is not needed here: a payment in the transaction to a
        # lookalike whose evidence this walk collects is scored against the
        # ref that evidence matched, which makes it a candidate
        if anchor_log:
            fold_anchors()
        for ev in tx_events:
            blk = ev.block_number
            frm = ev.from_addr
            to = ev.to_addr
            sides = [(frm, to, False)]
            if ev.token in stable_set and ev.value > 0:
                sides.append((to, frm, True))
            for victim, look, incoming in sides:
                full = anchors.get(victim)
                if full:
                    l2, l41 = look[2], look[41]
                    for ref, anchor in full.items():
                        if (
                            (ref[2] == l2 or ref[41] == l41)
                            and ref != look
                            and anchor.block_number < blk
                        ):
                            consider(ev, victim, look, ref, incoming, sibling=True)

    def promote_victims() -> None:
        # each promoted victim moves from active to keyed, and its expiry
        # entries to its keyed form; the emptied plain dict makes its old
        # entries no-ops
        entries_of = {b: entries for b, entries in recent}
        for victim in promote:
            plain = active.pop(victim, None)
            if plain is None:
                continue
            refs = keyed[victim] = _KeyedRefs(plain, a_min, b_min, dirty)
            plain.clear()
            for ref, lbs in refs.items():
                for b in lbs:
                    entries = entries_of.get(b)
                    if entries is not None:
                        entries += (refs, ref)
        promote.clear()

    # the open transaction is tx_head plus tx_more; it is re-walked by
    # expand_tx only when it has a direct poisoning and more than one log.
    # ordered() ends a transaction with its block, so every block starts
    # with a new one, and _END closes the last.
    tx_head: TransferEvent | None = None
    tx_more: list[TransferEvent] = []
    tx_direct = False

    last_block = -1
    cur_tx: str | None = None
    bound0 = 0
    bucket: list = []
    first_lbs = (-1, -1)
    # a victim's refs live in active, or in keyed once a walk over it met
    # ix_min or more; the check runs only on refs that pass the walk's
    # one-digit test, and a victim not in active is looked up in keyed only
    # when keyed is not empty, so small victims pay for neither
    keyed: dict[str, _KeyedRefs] = {}
    ix_min = IX_MIN
    # victims to key at the next block start, and keyed victims with refs
    # pending there
    promote: list[str] = []
    dirty: list[_KeyedRefs] = []
    active_get = active.get
    keyed_get = keyed.get
    recent_append = recent.append
    recent_pop = recent.popleft
    spenders_add = spenders.add
    anchor_log_append = anchor_log.append

    for ev in itertools.chain(ordered(enumerate(events, start=1), "<stream>"), (_END,)):
        txh = ev.tx_hash
        if txh != cur_tx:
            if tx_more:
                if tx_direct:
                    expand_tx([tx_head, *tx_more])
                tx_more = []
            if ev is _END:
                break
            tx_direct = False
            tx_head = ev
            cur_tx = txh
            blk = ev.block_number
            if blk != last_block:
                bound = blk - m - 1
                if dirty:
                    for av in dirty:
                        av.flush()
                    dirty.clear()
                while recent and recent[0][0] < bound:
                    nb, expired = recent_pop()
                    for av, r in zip(expired[::2], expired[1::2]):
                        cur = av.get(r)
                        if cur is not None:
                            if cur[0] == nb:
                                del av[r]
                            elif cur[1] == nb:
                                av[r] = (cur[0], -1)
                bound0 = bound if bound > 0 else 0
                last_block = blk
                bucket = []
                recent_append((blk, bucket))
                first_lbs = (blk, -1)  # shared by the block's new pairs
                if promote:
                    promote_victims()
        else:
            tx_more.append(ev)
        if ev.chain_id != chain:
            raise ConfigError(
                f"event chain_id {ev.chain_id} does not match configured chain {chain}"
            )
        n_events += 1

        frm = ev.from_addr
        to = ev.to_addr
        val = ev.value
        tok = ev.token

        av_frm = active_get(frm)
        if av_frm:
            l2, l41 = to[2], to[41]
            for ref, lbs in av_frm.items():
                if (ref[2] == l2 or ref[41] == l41) and ref != to:
                    if len(av_frm) >= ix_min:
                        promote.append(frm)
                    # pruning keeps lb1 inside the window, so only the
                    # same-block case needs the second trigger block
                    lb1 = lbs[0]
                    if lb1 < blk or (lb1 == blk and lbs[1] >= bound0):
                        if consider(ev, frm, to, ref, incoming=False, sibling=False):
                            tx_direct = True
        elif keyed:
            av_frm = keyed_get(frm, av_frm)
            if av_frm:
                refs, n = av_frm.probe(to)
                n_probes += n - len(refs)
                for ref in refs:
                    if consider(ev, frm, to, ref, incoming=False, sibling=False):
                        tx_direct = True

        if val > 0 and tok in auth_set:
            if frm in pair_ev and to in pair_ev[frm]:
                add_candidate(ev, None)
            if tok in stable_set:
                av = active_get(to)
                if av:
                    l2, l41 = frm[2], frm[41]
                    for ref, lbs in av.items():
                        if (ref[2] == l2 or ref[41] == l41) and ref != frm:
                            lb1 = lbs[0]
                            if lb1 < blk or (lb1 == blk and lbs[1] >= bound0):
                                if consider(ev, to, frm, ref, incoming=True, sibling=False):
                                    tx_direct = True
                elif keyed:
                    av = keyed_get(to)
                    if av:
                        refs, n = av.probe(frm)
                        n_probes += n - len(refs)
                        for ref in refs:
                            if consider(ev, to, frm, ref, incoming=True, sibling=False):
                                tx_direct = True
                n_triggers += 1
                if av_frm is None:
                    anchor_log_append(ev)
                    active[frm] = av_frm = {to: first_lbs}
                    bucket.append(av_frm)
                    bucket.append(to)
                elif to not in av_frm:
                    anchor_log_append(ev)
                    av_frm[to] = first_lbs
                    bucket.append(av_frm)
                    bucket.append(to)
                else:
                    lb1 = av_frm[to][0]
                    if lb1 != blk:
                        av_frm[to] = (blk, lb1)
                        bucket.append(av_frm)
                        bucket.append(to)
            else:
                spenders_add(frm)

    # ------------------------------------------------------------------
    # finalize

    fold_anchors({victim for victim, _, _ in ctx_map} | {detail_ev[k].from_addr for k in cands})

    pair_refs: dict[tuple[str, str], set[str]] = {}
    for (victim, ref, look) in ctx_map:
        pair_refs.setdefault((victim, look), set()).add(ref)

    payoff_rows: list[PayoffRecord] = []
    for key in sorted(cands, key=lambda k: detail_ev[k].order):
        ev = detail_ev[key]
        victim = ev.from_addr
        look = ev.to_addr
        ev_order = ev.order
        evidence = pair_ev.get(victim, {}).get(look, {})
        if not cands[key] and not any(o < ev_order for o in evidence.values()):
            continue
        refs = cands[key] | pair_refs.get((victim, look), set())
        victim_anchors = anchors.get(victim, {})
        anchor_events = [victim_anchors[r] for r in refs if r in victim_anchors]
        anchor = min(anchor_events, key=lambda t: t.order) if anchor_events else None
        picked: list[str] = []
        if anchor is not None:
            a_order = anchor.order
            picked = [k for k, order in evidence.items() if a_order < order < ev_order]
            picked.sort(key=lambda k: detail_ev[k].order)
        confirmed = bool(picked)
        intended = None
        if refs:
            intended = max(sorted(refs), key=lambda r: positional_matches(look, r))
        usd = priced(ev)
        if usd is None:
            unpriced[key] = None
        if anchor is not None:
            detail_ev.setdefault(anchor.key, anchor)
            labels.setdefault(anchor.key, Label.INTENDED)
        labels[key] = Label.PAYOFF_CONFIRMED if confirmed else Label.PAYOFF_UNCONFIRMED
        payoff_rows.append(
            PayoffRecord(
                key=key,
                victim=victim,
                lookalike=look,
                intended=intended,
                anchor_key=anchor.key if anchor is not None else None,
                anchor_block=anchor.block_number if anchor is not None else None,
                anchor_log_index=anchor.log_index if anchor is not None else None,
                block_number=ev.block_number,
                log_index=ev.log_index,
                token=ev.token,
                value=ev.value,
                usd=usd,
                confirmed=confirmed,
                via_history=False,
                evidence=tuple(picked),
            )
        )

    contexts: list[AttackContext] = []
    for (victim, ref, look) in sorted(ctx_map):
        ctx = ctx_map[(victim, ref, look)]
        anchor = anchors[victim][ref]
        detail_ev.setdefault(anchor.key, anchor)
        labels.setdefault(anchor.key, Label.INTENDED)
        evidence = sorted(ctx["evidence"], key=lambda k: ctx["evidence"][k])
        contexts.append(
            AttackContext(
                victim=victim,
                intended=ref,
                lookalike=look,
                a=ctx["a"],
                b=ctx["b"],
                anchor_key=anchor.key,
                anchor_block=anchor.block_number,
                anchor_log_index=anchor.log_index,
                via_sibling=ctx["sibling"],
                evidence=tuple(evidence),
            )
        )

    victim_recipients = {
        victim: len(anchors.get(victim, ()))
        for victim in [*(v for v, _, _ in ctx_map), *(row.victim for row in payoff_rows)]
    }

    details = {
        key: EventDetail.from_event(detail_ev[key], usd_of(detail_ev[key], label))
        for key, label in labels.items()
    }

    # the history events that touch a lookalike of an unconfirmed anchored
    # row, per lookalike in stream order; the walk runs to the end even when
    # nothing is needed, so that a lazily validated history is checked in full
    involving: dict[str, list[TransferEvent]] = {}
    if history is not None:
        need = {r.lookalike for r in payoff_rows if not r.confirmed and r.anchor_key is not None}
        for h in history:
            if h.chain_id != chain:
                raise ConfigError(
                    f"history event chain_id {h.chain_id} does not match configured chain {chain}"
                )
            frm = h.from_addr
            to = h.to_addr
            if frm in need:
                involving.setdefault(frm, []).append(h)
            if to != frm and to in need:
                involving.setdefault(to, []).append(h)

    # unconfirmed payoffs: the full-history upgrade, then the typo rule;
    # one walk in row order keeps unpriced in the order history meets them
    typo_bound = config.typo_match_bound
    accidental: set[str] = set()
    for i, row in enumerate(payoff_rows):
        if row.confirmed:
            continue
        victim, look = row.victim, row.lookalike
        if row.anchor_key is not None:
            lo = (row.anchor_block, row.anchor_log_index)
            hi = (row.block_number, row.log_index)
            hits: list[TransferEvent] = []
            for h in involving.get(look, ()):
                # a transfer between the victim and the lookalike, either way
                if not lo < h.order < hi or {h.from_addr, h.to_addr} != {look, victim}:
                    continue
                label = poison_label(h, incoming=h.from_addr == look)
                if label is not None:
                    hits.append(h)
                    details.setdefault(h.key, EventDetail.from_event(h, usd_of(h, label)))
            if hits:
                hits.sort(key=lambda e: e.order)
                payoff_rows[i] = replace(
                    row, confirmed=True, via_history=True, evidence=tuple(e.key for e in hits)
                )
                labels[row.key] = Label.PAYOFF_CONFIRMED
                continue
        if (
            row.intended is not None
            and look not in active
            and look not in keyed
            and look not in spenders
            and positional_matches(look, row.intended) > typo_bound
        ):
            payoff_rows[i] = replace(row, edit_distance=osa_distance(look, row.intended))
            accidental.add(row.key)
            labels[row.key] = Label.ACCIDENTAL

    label_counts: dict[str, int] = {}
    for lab in labels.values():
        label_counts[lab] = label_counts.get(lab, 0) + 1

    counters = {
        "events": n_events,
        "triggers": n_triggers,
        "probes": n_probes,
        "near_misses": n_near,
        "collected_direct": n_direct,
        "collected_sibling": n_sibling,
        "contexts": len(contexts),
        "victims": len(victim_recipients),
        "lookalikes": len(
            {c.lookalike for c in contexts} | {r.lookalike for r in payoff_rows}
        ),
        "tiny": label_counts.get(Label.TINY, 0),
        "zero_value": label_counts.get(Label.ZERO, 0),
        "counterfeit": label_counts.get(Label.COUNTERFEIT, 0),
        "intended": label_counts.get(Label.INTENDED, 0),
        "payoffs_confirmed": label_counts.get(Label.PAYOFF_CONFIRMED, 0),
        "payoffs_unconfirmed": label_counts.get(Label.PAYOFF_UNCONFIRMED, 0),
        "accidental": len(accidental),
        "unpriced": len(unpriced),
        "excluded_victims": 0,
    }

    return DetectionReport(
        chain_id=chain,
        config=config,
        labels=labels,
        events=details,
        contexts=tuple(contexts),
        payoffs=tuple(payoff_rows),
        victim_recipients=victim_recipients,
        excluded_victims={},
        accidental=frozenset(accidental),
        unpriced=tuple(unpriced),
        authentic_tokens=auth_set,
        counters=counters,
    )


def birthday_filter(report: DetectionReport, config: ChainConfig) -> DetectionReport:
    """Exclude victims whose counterparty count makes a coincidental
    lookalike collision likelier than the configured threshold."""
    digits = config.a_min + config.b_min
    excluded: dict[str, float] = {}
    for victim in sorted(report.victim_recipients):
        r = report.victim_recipients[victim]
        p = birthday_collision_prob(r, digits=digits)
        if p >= config.birthday_alpha:
            excluded[victim] = p
    counters = dict(report.counters)
    counters["excluded_victims"] = len(excluded)
    return replace(report, excluded_victims=excluded, counters=counters)


def sensitivity_run(
    events: Sequence[TransferEvent],
    configs: Iterable[ChainConfig],
    registry: TokenRegistry,
    prices: PriceTable,
) -> tuple[dict, ...]:
    """Scan the same stream under several configurations and tabulate the
    headline counts for each."""
    events = list(events)
    rows = []
    for config in configs:
        report = scan(events, config, registry, prices)
        c = report.counters
        rows.append(
            {
                "window_blocks": config.window_blocks,
                "a_min": config.a_min,
                "b_min": config.b_min,
                "tiny": c["tiny"],
                "zero_value": c["zero_value"],
                "counterfeit": c["counterfeit"],
                "poisonings": c["tiny"] + c["zero_value"] + c["counterfeit"],
                "lookalikes": c["lookalikes"],
                "victims": c["victims"],
                "payoffs_confirmed": c["payoffs_confirmed"],
                "payoffs_unconfirmed": c["payoffs_unconfirmed"],
            }
        )
    return tuple(rows)
