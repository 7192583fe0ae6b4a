"""Brute-force reference detector, clustering and competition layer, used
as test oracles.

Independent of the streaming implementation on purpose: it materializes the
stream, enumerates (trigger, candidate) pairs per victim with direct block
arithmetic, and resolves payoffs and typos in separate passes. The
competition oracles rescan every context and record for each payoff and
each pair of groups. Slow but simple; never imported by library code.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from decimal import Decimal

from poisonscan.analytics import CompetitionRecord, Competitor
from poisonscan.core import (
    ChainConfig,
    Label,
    PriceTable,
    TokenRegistry,
    TransferEvent,
    event_date,
    usd_amount,
)
from poisonscan.similarity import osa_distance, positional_matches, score


@dataclass
class RefResult:
    labels: dict[str, str] = field(default_factory=dict)
    contexts: dict[tuple[str, str, str], frozenset[str]] = field(default_factory=dict)
    confirmed: frozenset[str] = frozenset()
    unconfirmed: frozenset[str] = frozenset()
    accidental: frozenset[str] = frozenset()
    accidental_distance: dict[str, int] = field(default_factory=dict)
    unpriced: frozenset[str] = frozenset()


def reference_detect(
    events,
    config: ChainConfig,
    registry: TokenRegistry,
    prices: PriceTable,
    full_history: bool = True,
) -> RefResult:
    evs: list[TransferEvent] = list(events)
    chain = config.chain_id
    m = config.window_blocks
    a_min, b_min = config.a_min, config.b_min
    tiny_cut = config.tiny_threshold_usd
    if config.stablecoins is not None:
        stable = frozenset(config.stablecoins)
    else:
        stable = registry.stablecoins(chain)
    authentic = registry.authentic_tokens(chain) | stable

    def decimals_of(token: str) -> int | None:
        ref = registry.token(chain, token)
        return ref.decimals if ref is not None else None

    score_cache: dict[tuple[str, str], tuple[int, int, bool]] = {}

    def scored(look: str, ref: str) -> tuple[int, int, bool]:
        got = score_cache.get((look, ref))
        if got is None:
            sc = score(look, ref)
            got = (sc.a, sc.b, sc.identical)
            score_cache[(look, ref)] = got
        return got

    # every stablecoin transfer with value > 0 makes its sender a victim
    triggers_of: dict[str, list[TransferEvent]] = defaultdict(list)
    first_anchor: dict[tuple[str, str], TransferEvent] = {}
    for e in evs:
        if e.token in stable and e.value > 0:
            triggers_of[e.from_addr].append(e)
            first_anchor.setdefault((e.from_addr, e.to_addr), e)

    unpriced: set[str] = set()

    def usd_of(e: TransferEvent) -> Decimal | None:
        dec = decimals_of(e.token)
        price = prices.get_or_none(e.token, event_date(e.timestamp))
        if dec is None or price is None:
            return None
        return usd_amount(e.value, dec, price)

    poison_label: dict[str, str] = {}
    context_ev: dict[tuple[str, str, str], set[str]] = defaultdict(set)
    context_anchor: dict[tuple[str, str, str], TransferEvent] = {}
    pair_ev: dict[tuple[str, str], list[TransferEvent]] = defaultdict(list)
    pair_seen: set[tuple[str, str, str]] = set()
    # payoff candidates: event key -> (event, victim, look, matched Rs, route1)
    candidates: dict[str, list] = {}

    def add_poison(e: TransferEvent, victim: str, ref: str, look: str, label: str) -> None:
        poison_label[e.key] = label
        if (victim, look, e.key) not in pair_seen:
            pair_seen.add((victim, look, e.key))
            pair_ev[(victim, look)].append(e)
        ckey = (victim, ref, look)
        context_ev[ckey].add(e.key)
        context_anchor.setdefault(ckey, first_anchor[(victim, ref)])

    def consider(e: TransferEvent, victim: str, look: str, ref: str, incoming: bool) -> None:
        if look == ref:
            return
        a, b, same = scored(look, ref)
        if same or a < a_min or b < b_min:
            return
        if incoming:
            usd = usd_of(e)
            if usd is None:
                unpriced.add(e.key)
            elif 0 < usd < tiny_cut:
                add_poison(e, victim, ref, look, Label.TINY)
        elif e.token not in authentic:
            add_poison(e, victim, ref, look, Label.COUNTERFEIT)
        elif e.value == 0:
            add_poison(e, victim, ref, look, Label.ZERO)
        else:
            row = candidates.setdefault(e.key, [e, victim, look, set(), True])
            row[3].add(ref)
            row[4] = True

    def probe(e: TransferEvent, in_window) -> None:
        for trig in triggers_of.get(e.from_addr, ()):
            if in_window(trig.block_number, e.block_number):
                consider(e, e.from_addr, e.to_addr, trig.to_addr, incoming=False)
        if e.token in stable and e.value > 0:
            for trig in triggers_of.get(e.to_addr, ()):
                if in_window(trig.block_number, e.block_number):
                    consider(e, e.to_addr, e.from_addr, trig.to_addr, incoming=True)

    # pass 1: windowed collection
    for e in evs:
        probe(e, lambda n, blk: n + 1 <= blk <= n + m + 1)

    # pass 2: shared-transaction expansion against the full trigger history
    by_tx: dict[str, list[TransferEvent]] = defaultdict(list)
    for e in evs:
        by_tx[e.tx_hash].append(e)
    for tx_events in by_tx.values():
        if len(tx_events) < 2:
            continue
        if not any(ev.key in poison_label for ev in tx_events):
            continue
        for e in tx_events:
            probe(e, lambda n, blk: n < blk)

    # pass 3: payoffs watched through existing (victim, lookalike) evidence
    for e in evs:
        if e.token in authentic and e.value > 0:
            pair = (e.from_addr, e.to_addr)
            if pair in pair_ev and any(p.order < e.order for p in pair_ev[pair]):
                row = candidates.setdefault(e.key, [e, e.from_addr, e.to_addr, set(), False])
                row[3].update(r for (v, r, l) in context_ev if v == pair[0] and l == pair[1])

    # resolve payoffs
    confirmed: set[str] = set()
    unconfirmed: set[str] = set()
    payoff_ref: dict[str, str] = {}
    payoff_anchor: dict[str, TransferEvent] = {}
    for key in sorted(candidates):
        e, victim, look, refs, route1 = candidates[key]
        refs = set(refs)
        refs.update(r for (v, r, l) in context_ev if v == victim and l == look)
        evidence = pair_ev.get((victim, look), [])
        if not route1 and not any(p.order < e.order for p in evidence):
            continue
        anchors = [first_anchor[(victim, r)] for r in refs if (victim, r) in first_anchor]
        ok = any(
            anc.order < p.order < e.order for anc in anchors for p in evidence
        )
        if ok:
            confirmed.add(key)
        else:
            unconfirmed.add(key)
        if refs:
            payoff_ref[key] = max(
                sorted(refs), key=lambda r: positional_matches(look, r)
            )
        if anchors:
            payoff_anchor[key] = min(anchors, key=lambda t: t.order)
        candidates[key] = [e, victim, look, refs, route1]

    # pass 4: full-history re-check of unconfirmed payoffs
    if full_history:
        for key in sorted(unconfirmed):
            e, victim, look, refs, _ = candidates[key]
            anchor = payoff_anchor.get(key)
            if anchor is None:
                continue
            for h in evs:
                if not anchor.order < h.order < e.order:
                    continue
                hit = False
                if h.from_addr == look and h.to_addr == victim and h.token in authentic and h.value > 0:
                    usd = usd_of(h)
                    if usd is None:
                        unpriced.add(h.key)
                    elif 0 < usd < tiny_cut:
                        hit = True
                elif h.from_addr == victim and h.to_addr == look:
                    if h.token not in authentic:
                        hit = True
                    elif h.value == 0 and h.token in authentic:
                        hit = True
                if hit:
                    confirmed.add(key)
                    unconfirmed.discard(key)
                    break

    # pass 5: typo payments to dormant near-identical addresses
    spenders = {e.from_addr for e in evs if e.token in authentic and e.value > 0}
    accidental: set[str] = set()
    distances: dict[str, int] = {}
    for key in sorted(unconfirmed):
        e, victim, look, refs, _ = candidates[key]
        ref = payoff_ref.get(key)
        if ref is None:
            continue
        if positional_matches(look, ref) > config.typo_match_bound and look not in spenders:
            accidental.add(key)
            distances[key] = osa_distance(look, ref)

    labels: dict[str, str] = dict(poison_label)
    for ckey, anchor in context_anchor.items():
        labels.setdefault(anchor.key, Label.INTENDED)
    for key, anchor in payoff_anchor.items():
        labels.setdefault(anchor.key, Label.INTENDED)
    for key in confirmed:
        labels[key] = Label.PAYOFF_CONFIRMED
    for key in unconfirmed:
        labels[key] = Label.ACCIDENTAL if key in accidental else Label.PAYOFF_UNCONFIRMED

    return RefResult(
        labels=labels,
        contexts={k: frozenset(v) for k, v in context_ev.items()},
        confirmed=frozenset(confirmed),
        unconfirmed=frozenset(unconfirmed) - frozenset(accidental),
        accidental=frozenset(accidental),
        accidental_distance=distances,
        unpriced=frozenset(unpriced),
    )


def reference_components(key_sets):
    """Connected components by repeated pairwise merging.

    key_sets: iterable of (member_id, iterable-of-keys). Two members join
    the same component when their key sets intersect, transitively. Returns
    a frozenset of frozensets of member ids. Quadratic on purpose; used only
    as an oracle for the union-find clustering.
    """
    groups = [(frozenset([mid]), frozenset(keys)) for mid, keys in key_sets]
    changed = True
    while changed:
        changed = False
        merged: list[tuple[frozenset, frozenset]] = []
        for ids, keys in groups:
            hit = None
            for i, (oids, okeys) in enumerate(merged):
                if keys & okeys:
                    hit = i
                    break
            if hit is None:
                merged.append((ids, keys))
            else:
                merged[hit] = (merged[hit][0] | ids, merged[hit][1] | keys)
                changed = True
        groups = merged
    return frozenset(ids for ids, _ in groups)


def reference_competitions(report, sets, groups) -> tuple[CompetitionRecord, ...]:
    """``build_competitions`` by brute force, one confirmed payoff at a time.

    A lookalike competes for a payoff when some context binds it to the
    payoff's victim and the block of its earliest evidence, over all such
    contexts, is no later than the payoff's block. It enters with the best
    (a + b, a, b) of those contexts and its group, the one whose transfer
    sets hold it. The record is kept only when the winner competes.
    """
    records = []
    for payoff in report.payoffs:
        if not payoff.confirmed:
            continue
        entries = []
        for look in sorted({c.lookalike for c in report.contexts if c.victim == payoff.victim}):
            bound = [c for c in report.contexts if c.victim == payoff.victim and c.lookalike == look]
            best = max(bound, key=lambda c: (c.a + c.b, c.a, c.b))
            block, log_index = min(report.events[k].order for c in bound for k in c.evidence)
            if block > payoff.block_number:
                continue
            owners = [g.group_id for g in groups for s in sets if s.transfer_id in g.members and s.lookalike == look]
            assert len(set(owners)) <= 1, (look, owners)
            entries.append(Competitor(look, owners[0] if owners else None, best.a, best.b, block, log_index))
        won = [c for c in entries if c.lookalike == payoff.lookalike]
        if not won:
            continue
        (winner,) = won
        records.append(
            CompetitionRecord(
                payoff_key=payoff.key,
                victim=payoff.victim,
                winner=payoff.lookalike,
                similarity_rank=1 + len([c for c in entries if c.a + c.b > winner.a + winner.b]),
                timing_rank=1 + len(
                    [c for c in entries if (c.first_block, c.first_log_index) < (winner.first_block, winner.first_log_index)]
                ),
                competitors=tuple(entries),
            )
        )
    return tuple(records)


def reference_win_loss(records) -> dict[tuple[str, str], float]:
    """``win_loss_matrix`` by brute force: for every ordered pair (i, j) of
    distinct groups, i's wins over the contests in which both fielded a
    lookalike and one of the two won, where there is such a contest."""
    ids = sorted({c.group_id for r in records for c in r.competitors if c.group_id is not None})
    matrix = {}
    for i in ids:
        for j in ids:
            contests = wins = 0
            for r in records:
                fielded = {c.group_id for c in r.competitors}
                (winner,) = [c.group_id for c in r.competitors if c.lookalike == r.winner]
                if i != j and i in fielded and j in fielded and winner in (i, j):
                    contests += 1
                    wins += winner == i
            if contests:
                matrix[(i, j)] = wins / contests
    return matrix
