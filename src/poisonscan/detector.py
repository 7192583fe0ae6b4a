"""Windowed poisoning detection over an ordered transfer stream.

The pipeline: every stablecoin transfer with positive value marks its sender
as a victim and its receiver as an intended counterparty; transfers in the
following window of blocks are probed for lookalike counterparties and
classified as tiny, zero-value, or counterfeit poisonings or as payoff
candidates; transactions containing a detected poisoning have all their
transfers re-evaluated against the full trigger history; payoffs confirm
when a poisoning binding the same victim and lookalike sits strictly
between the intended transfer and the payoff.

scan() is the whole stream layer, two phases over one state record. The
pass walks the stream once, its candidate state pruned to the window. Each
pair's first trigger anchors confirmation and the shared-transaction path;
the pass keeps it as a stream position, written when the pair enters the
window, so that the events themselves are not held. Finalize fetches the
few anchor events it reports in one read, confirms each payoff from its
window or else from a history in stream order, flags as typos the payments
to addresses that never spent an authentic token in the stream, and
returns the report, each payoff row built once. birthday_filter() then
runs on the finished report.

Each event probes its victim's active refs (its recent recipients) for a
lookalike, by one rule whether the victim sends or receives. The pass maps
each victim to its refs in one of two forms. A plain dict is walked: every
ref that shares the lookalike's first or last digit is scored. From the
block start after a probe, on either side, finds a victim with IX_MIN or
more refs, the same map holds them in a keyed form instead, indexed by
their first max(a_min, 1) digits and by their last max(b_min, 1) digits,
and an event scores only the union of the two buckets it keys to. A
victim whose refs have all left the window leaves the map in either form.
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

from collections import Counter, deque
from dataclasses import dataclass, replace
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from .core import (
    ChainConfig,
    ConfigError,
    Label,
    ParseError,
    PriceTable,
    TokenRegistry,
    TransferEvent,
    event_date,
    from_json,
    parse_json,
    usd_amount,
    write_record,
)
from .ingest import EventReader, ordered
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
        """Write report.json, which ``read_json`` reads back, in the compact
        layout of ``core.write_record``, which streams it."""
        write_record(path, self)

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


class _Scan:
    """One scan's state, in two phases: ``run`` (the pass) and ``finalize``
    (the anchors, the payoff rows, the history walk and the typo rule,
    which returns the report). ``priced`` and ``poison_label`` serve both.
    The pass hands over, by their roles in finalize: ``anchors`` (victim ->
    recipient -> stream position of the pair's first trigger), ``labels``
    (the poison labels, to which finalize adds), ``detail_ev`` (the event
    of each labelled key and payoff candidate), ``ctx_map`` (the contexts),
    ``pair_ev`` (victim -> lookalike -> {poison key: order}, what a payoff
    can cite), ``cands`` (payoff candidate key -> the refs its lookalike
    matched; none when only ``pair_ev`` made it one) and ``counts``.
    ``spenders`` holds the senders of authentic positive-value transfers,
    which the typo rule reads. The window state stays in the pass: its
    ``active`` (victim -> recipient -> last two trigger blocks, as a plain
    dict or, once a probe from either side met IX_MIN refs, a
    ``_KeyedRefs``) drops a victim, in either form, once its last
    recipient leaves the window, so that it follows the window, not the
    stream.
    """

    def __init__(self, config: ChainConfig, registry: TokenRegistry, prices: PriceTable) -> None:
        self.config = config
        self.registry = registry
        self.prices = prices
        self.stable, self.authentic = _resolve_token_sets(config, registry)
        self.usd_map: dict[str, Decimal | None] = {}
        self.unpriced: dict[str, None] = {}  # keys in first-seen order

    def priced(self, ev: TransferEvent) -> Decimal | None:
        key = ev.key
        if key in self.usd_map:
            return self.usd_map[key]
        # every event priced here has an authentic token
        ref = self.registry.token(self.config.chain_id, ev.token)
        price = self.prices.get_or_none(ev.token, event_date(ev.timestamp))
        usd = usd_amount(ev.value, ref.decimals, price) if ref is not None and price is not None else None
        self.usd_map[key] = usd
        return usd

    def poison_label(self, ev: TransferEvent, incoming: bool) -> str | None:
        # the poison label of a transfer between a victim and a lookalike, or
        # None; incoming when the lookalike sends, and then an authentic
        # positive transfer without a price is marked unpriced
        if incoming:
            if ev.token not in self.authentic or ev.value <= 0:
                return None
            usd = self.priced(ev)
            if usd is None:
                self.unpriced[ev.key] = None
            elif 0 < usd < self.config.tiny_threshold_usd:
                return Label.TINY
            return None
        if ev.token not in self.authentic:
            return Label.COUNTERFEIT
        return Label.ZERO if ev.value == 0 else None

    def detail(self, ev: TransferEvent, label: str) -> EventDetail:
        """``ev`` as the report keeps it: $0 if a zero-value poisoning, no USD if counterfeit."""
        if label == Label.ZERO:
            usd = Decimal("0.000000")
        elif label == Label.COUNTERFEIT:
            usd = None
        else:
            usd = self.priced(ev)
        tx = ev.tx
        return EventDetail(
            key=ev.key,
            block_number=ev.block_number,
            timestamp=ev.timestamp,
            log_index=ev.log_index,
            tx_hash=ev.tx_hash,
            token=ev.token,
            from_addr=ev.from_addr,
            to_addr=ev.to_addr,
            value=ev.value,
            usd=usd,
            initiator=tx.initiator if tx else None,
            target=tx.target if tx else None,
            gas_used=tx.gas_used if tx else None,
            gas_price=tx.gas_price if tx else None,
        )

    def run(self, events: Iterable[TransferEvent]) -> None:
        """The pass over ``events``, already checked for order, whose loop
        keeps its state in locals."""
        config = self.config
        chain = config.chain_id
        m = config.window_blocks
        a_min = config.a_min
        b_min = config.b_min
        d_min = a_min + b_min
        stable_set, auth_set = self.stable, self.authentic

        active = {}
        # (block, [sender, recipient, ...]) for each block's trigger updates
        recent: deque[tuple[int, list]] = deque()
        anchors = self.anchors = {}

        labels = self.labels = {}
        detail_ev = self.detail_ev = {}
        ctx_map = self.ctx_map = {}
        # a payment from a victim to one of its lookalikes is a payoff candidate
        pair_ev = self.pair_ev = {}
        cands = self.cands = {}
        spenders = self.spenders = set()

        n_events = 0
        n_triggers = 0
        n_probes = 0
        n_near = 0
        n_direct = 0
        n_sibling = 0

        def add_candidate(ev: TransferEvent, ref: str | None) -> None:
            key = ev.key
            refs = cands.get(key)
            if refs is None:
                refs = cands[key] = set()
                detail_ev[key] = ev
            if ref is not None:
                refs.add(ref)

        def consider(ev, victim, look, ref, incoming, sibling) -> None:
            """Score one candidate pair, and collect its poisoning or payoff
            candidate; one collected directly makes its transaction eligible
            for the shared-transaction path."""
            nonlocal n_probes, n_near, n_direct, n_sibling, tx_direct
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
                return
            label = self.poison_label(ev, incoming)
            if label is None:
                if not incoming:
                    add_candidate(ev, ref)
                return
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
            if not sibling:
                tx_direct = True

        def expand_tx(tx_events: list[TransferEvent]) -> None:
            # pair_ev is not needed here: a payment in the transaction to a
            # lookalike whose evidence this walk collects is scored against the
            # ref that evidence matched, which makes it a candidate. A pair is
            # anchored before the transaction's block when its first trigger
            # came before the block's first event.
            for ev in tx_events:
                sides = [(ev.from_addr, ev.to_addr, False)]
                if ev.token in stable_set and ev.value > 0:
                    sides.append((ev.to_addr, ev.from_addr, True))
                for victim, look, incoming in sides:
                    full = anchors.get(victim)
                    if full:
                        l2, l41 = look[2], look[41]
                        for ref, position in full.items():
                            if (ref[2] == l2 or ref[41] == l41) and ref != look and position < blk_pos:
                                consider(ev, victim, look, ref, incoming, sibling=True)

        def probe(ev, refs, victim, look, incoming) -> None:
            """Score ``look`` against the victim's eligible refs: a plain
            dict is walked, and asks for the keyed form at the next block
            start once it holds ix_min refs; a keyed form is probed
            through its index."""
            nonlocal n_probes
            if refs.__class__ is dict:
                if len(refs) >= ix_min:
                    promote.append(victim)
                l2, l41 = look[2], look[41]
                for ref, lbs in refs.items():
                    if (ref[2] == l2 or ref[41] == l41) and ref != look:
                        # pruning keeps lb1 inside the window, so only the
                        # same-block case needs the second trigger block
                        lb1 = lbs[0]
                        if lb1 < blk or (lb1 == blk and lbs[1] >= bound0):
                            consider(ev, victim, look, ref, incoming, False)
            else:
                found, n = refs.probe(look)
                n_probes += n - len(found)
                for ref in found:
                    consider(ev, victim, look, ref, incoming, False)

        # the open transaction is tx_head plus tx_more; it is re-walked by
        # expand_tx only when it has a direct poisoning and more than one log.
        # ordered() ends a transaction with its block, so every block starts
        # with a new one, and the last one is closed after the loop.
        tx_head: TransferEvent | None = None
        tx_more: list[TransferEvent] = []
        tx_direct = False

        # the first event starts a block, which sets blk, blk_pos, bound0,
        # bucket and first_lbs
        last_block = -1
        cur_tx: str | None = None
        ix_min = IX_MIN
        # victims to key at the next block start, and keyed victims with refs
        # pending there
        promote: list[str] = []
        dirty: list[_KeyedRefs] = []
        active_get = active.get
        recent_append = recent.append
        recent_pop = recent.popleft
        spenders_add = spenders.add
        anchors_get = anchors.get

        for pos, ev in enumerate(events):
            txh = ev.tx_hash
            if txh != cur_tx:
                if tx_more:
                    if tx_direct:
                        expand_tx([tx_head, *tx_more])
                    tx_more = []
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
                        for victim, r in zip(expired[::2], expired[1::2]):
                            # the victim holds r until r's last trigger block
                            # expires, and leaves active with its last ref
                            av = active[victim]
                            cur = av[r]
                            if cur[0] == nb:
                                del av[r]
                                if not av:
                                    del active[victim]
                            elif cur[1] == nb:
                                av[r] = (cur[0], -1)
                    bound0 = bound if bound > 0 else 0
                    last_block = blk
                    blk_pos = pos
                    bucket = []
                    recent_append((blk, bucket))
                    first_lbs = (blk, -1)  # shared by the block's new pairs
                    if promote:
                        for victim in promote:
                            refs = active_get(victim)
                            # None once its refs expired, keyed if asked twice
                            if refs.__class__ is dict:
                                active[victim] = _KeyedRefs(refs, a_min, b_min, dirty)
                        promote.clear()
            else:
                tx_more.append(ev)
            if ev.chain_id != chain:
                raise ConfigError(
                    f"event chain_id {ev.chain_id} does not match configured chain {chain}"
                )
            n_events += 1

            frm = ev.from_addr
            to = ev.to_addr
            tok = ev.token

            av_frm = active_get(frm)
            if av_frm:
                probe(ev, av_frm, frm, to, False)

            if ev.value > 0 and tok in auth_set:
                if frm in pair_ev and to in pair_ev[frm]:
                    add_candidate(ev, None)
                if tok in stable_set:
                    av = active_get(to)
                    if av:
                        probe(ev, av, to, frm, True)
                    n_triggers += 1
                    if av_frm is None:
                        active[frm] = av_frm = {}
                        spenders_add(frm)
                    if to not in av_frm:
                        av_frm[to] = first_lbs
                        anc = anchors_get(frm)
                        if anc is None:
                            anchors[frm] = {to: pos}
                        elif to not in anc:
                            anc[to] = pos
                    elif (lb1 := av_frm[to][0]) != blk:
                        av_frm[to] = (blk, lb1)
                    else:
                        continue
                    bucket.append(frm)
                    bucket.append(to)
                else:
                    spenders_add(frm)
        if tx_more and tx_direct:
            expand_tx([tx_head, *tx_more])

        self.counts = {
            "events": n_events,
            "triggers": n_triggers,
            "probes": n_probes,
            "near_misses": n_near,
            "collected_direct": n_direct,
            "collected_sibling": n_sibling,
        }

    def finalize(
        self, events: Sequence[TransferEvent] | EventReader, history: Iterable[TransferEvent] | None
    ) -> DetectionReport:
        """The report. ``events`` are the pass's, a sequence or a reader, from
        which the anchors that rows and contexts cite are read in one call;
        ``history`` is checked for order already, or as it is consumed."""
        config = self.config
        anchors, labels, detail_ev = self.anchors, self.labels, self.detail_ev
        ctx_map, pair_ev, cands = self.ctx_map, self.pair_ev, self.cands

        def label_anchor(anchor: TransferEvent) -> TransferEvent:
            detail_ev.setdefault(anchor.key, anchor)
            labels.setdefault(anchor.key, Label.INTENDED)
            return anchor

        pair_refs: dict[tuple[str, str], set[str]] = {}
        for (victim, ref, look) in ctx_map:
            pair_refs.setdefault((victim, look), set()).add(ref)

        # each row's event, evidence, refs and anchor position, in stream order
        picks = []
        for key in sorted(cands, key=lambda k: detail_ev[k].order):
            ev = detail_ev[key]
            evidence = pair_ev.get(ev.from_addr, {}).get(ev.to_addr, {})
            refs = cands[key] | pair_refs.get((ev.from_addr, ev.to_addr), set())
            victim_anchors = anchors.get(ev.from_addr, {})
            positions = [victim_anchors[r] for r in refs if r in victim_anchors]
            picks.append((ev, evidence, refs, min(positions) if positions else None))
        wanted = {pos for *_, pos in picks if pos is not None} | {anchors[v][r] for v, r, _ in ctx_map}
        if isinstance(events, EventReader):
            fetched = events.fetch(wanted)
            # a file edited in place may keep its size and mtime: each event
            # read again must be of the pair whose anchor named its position
            if any(anchors.get(ev.from_addr, {}).get(ev.to_addr) != pos for pos, ev in fetched.items()):
                raise ParseError("the file changed after it was read", path=events.path)
        else:
            fetched = {pos: events[pos] for pos in wanted}

        # (event, anchor, in-window evidence, intended, usd) per row; every
        # payoff is priced here, so unpriced lists the rows before the history
        rows = []
        for ev, evidence, refs, pos in picks:
            ev_order = ev.order
            anchor = label_anchor(fetched[pos]) if pos is not None else None
            a_order = anchor.order if anchor is not None else ev_order  # no anchor, no evidence
            picked = sorted((k for k, o in evidence.items() if a_order < o < ev_order), key=evidence.get)
            intended = max(sorted(refs), key=lambda r: positional_matches(ev.to_addr, r)) if refs else None
            usd = self.priced(ev)
            if usd is None:
                self.unpriced[ev.key] = None
            labels[ev.key] = Label.PAYOFF_CONFIRMED if picked else Label.PAYOFF_UNCONFIRMED
            rows.append((ev, anchor, picked, intended, usd))

        contexts = []
        for (victim, ref, look) in sorted(ctx_map):
            ctx = ctx_map[(victim, ref, look)]
            anchor = label_anchor(fetched[anchors[victim][ref]])
            evidence = sorted(ctx["evidence"], key=ctx["evidence"].get)
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
            for victim in [*(v for v, _, _ in ctx_map), *(ev.from_addr for ev, *_ in rows)]
        }
        details = {key: self.detail(detail_ev[key], label) for key, label in labels.items()}
        # only the rows needed these; free them before the history walk raises the peak
        del picks, fetched, pair_refs

        # the history events that touch a lookalike of an unconfirmed anchored
        # row, per lookalike in stream order; the walk runs to the end even when
        # nothing is needed, so that a lazily validated history is checked in full
        involving: dict[str, list[TransferEvent]] = {}
        if history is not None:
            chain = config.chain_id
            need = {ev.to_addr for ev, anchor, picked, *_ in rows if not picked and anchor is not None}
            for h in history:
                if h.chain_id != chain:
                    raise ConfigError(
                        f"history event chain_id {h.chain_id} does not match configured chain {chain}"
                    )
                frm, to = h.from_addr, h.to_addr
                if frm in need:
                    involving.setdefault(frm, []).append(h)
                if to != frm and to in need:
                    involving.setdefault(to, []).append(h)

        # in row order, so that unpriced lists history events as the rows meet them
        payoffs = []
        for ev, anchor, evidence, intended, usd in rows:
            key, victim, look = ev.key, ev.from_addr, ev.to_addr
            confirmed, via_history, edit_distance = bool(evidence), False, None
            if not confirmed and anchor is not None:
                hits, lo, hi = [], anchor.order, ev.order
                for h in involving.get(look, ()):
                    # a transfer between the victim and the lookalike, either way
                    if not lo < h.order < hi or {h.from_addr, h.to_addr} != {look, victim}:
                        continue
                    label = self.poison_label(h, incoming=h.from_addr == look)
                    if label is not None:
                        hits.append(h.key)  # in history order, which the walk checked
                        details.setdefault(h.key, self.detail(h, label))
                if hits:
                    confirmed, via_history, evidence = True, True, hits
                    labels[key] = Label.PAYOFF_CONFIRMED
            if (
                not confirmed
                and intended is not None
                and look not in self.spenders
                and positional_matches(look, intended) > config.typo_match_bound
            ):
                edit_distance = osa_distance(look, intended)
                labels[key] = Label.ACCIDENTAL
            payoffs.append(
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
                    via_history=via_history,
                    evidence=tuple(evidence),
                    edit_distance=edit_distance,
                )
            )

        accidental = frozenset(p.key for p in payoffs if p.edit_distance is not None)
        label_counts = Counter(labels.values())
        counters = {
            **self.counts,
            "contexts": len(contexts),
            "victims": len(victim_recipients),
            "lookalikes": len({c.lookalike for c in contexts} | {r.lookalike for r in payoffs}),
            "tiny": label_counts.get(Label.TINY, 0),
            "zero_value": label_counts.get(Label.ZERO, 0),
            "counterfeit": label_counts.get(Label.COUNTERFEIT, 0),
            "intended": label_counts.get(Label.INTENDED, 0),
            "payoffs_confirmed": label_counts.get(Label.PAYOFF_CONFIRMED, 0),
            "payoffs_unconfirmed": label_counts.get(Label.PAYOFF_UNCONFIRMED, 0),
            "accidental": len(accidental),
            "unpriced": len(self.unpriced),
            "excluded_victims": 0,
        }
        return DetectionReport(
            chain_id=config.chain_id,
            config=config,
            labels=labels,
            events=details,
            contexts=tuple(contexts),
            payoffs=tuple(payoffs),
            victim_recipients=victim_recipients,
            excluded_victims={},
            accidental=accidental,
            unpriced=tuple(self.unpriced),
            authentic_tokens=self.authentic,
            counters=counters,
        )


def scan(
    events: Iterable[TransferEvent],
    config: ChainConfig,
    registry: TokenRegistry,
    prices: PriceTable,
    *,
    history: Iterable[TransferEvent] | None = None,
) -> DetectionReport:
    """Single-pass detection over one chain's ordered transfer stream, in
    two phases over one ``_Scan``: the pass over ``events``, then finalize,
    which confirms payoffs, walks ``history``, applies the typo rule and
    builds the report.

    Both inputs are checked for order by one rule, once. A reader from
    ``iter_events`` that has not yielded an event yet checks its file
    itself, as ``path:line: ...``. Any other input passes through
    ``ingest.ordered`` as it is consumed, and so raises the OrderingError
    that ``validate_stream`` gives for it, as ``<stream>:N: ...`` or
    ``<history>:N: ...`` with N counted from 1.

    The pass holds no event but those it labels and the payoff candidates;
    each pair's first trigger is kept as its stream position, and the
    anchors that the report cites are read back after the pass: from a
    sequence by index, and from such a reader by reading its file again,
    which must not have changed since the pass. Any other iterable, a
    one-shot iterator included, is first made into a list.

    With ``history``, each unconfirmed payoff is re-checked against the
    victim's entire history: any authentic-token tiny transfer (not just
    stablecoins), zero-value transfer, or counterfeit transfer binding
    (victim, lookalike) strictly between the intended transfer and the
    payoff confirms it. ``history`` is any iterable of events in stream
    order, a one-shot iterator included; it is walked once, in full,
    after the pass, and only the events that touch a lookalike of an
    unconfirmed row are kept. ``history`` that is ``events``, the same
    object, means that the events are the history: they are held once, as
    a sequence (any other iterable made into a list, which a reader checks
    as it lists it), and the walk does not check them again. A payoff
    still unconfirmed is flagged accidental when its destination shares
    more than the configured positional bound with the intended address
    and never sent an authentic positive-value transfer in ``events``.
    """
    same = history is events
    # a reader that has not started checks its whole file as it is read
    trusted = isinstance(events, EventReader) and events.stamp is None
    if not isinstance(events, Sequence) and (same or not trusted):
        events = list(events)
    state = _Scan(config, registry, prices)
    state.run(events if trusted else ordered(enumerate(events, start=1), "<stream>"))
    if same:
        history = events
    elif history is not None and not (isinstance(history, EventReader) and history.stamp is None):
        history = ordered(enumerate(history, start=1), "<history>")
    return state.finalize(events, history)


def birthday_filter(report: DetectionReport, config: ChainConfig) -> DetectionReport:
    """Exclude victims whose counterparty count makes a coincidental
    lookalike collision likelier than the configured threshold.

    Exclusion removes their findings only from ``headline_counts`` (through
    ``quarantined_keys``); the report keeps them, and the finding layers,
    from ``build_transfer_sets`` on, still see them."""
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
