"""Aggregate views over detection and clustering output.

Four families of questions are answered here. How much did each campaign
earn and spend (revenue from confirmed payoffs, cost from tiny-transfer
outflows plus transaction fees converted at the day's native-asset
price)? When several lookalikes courted the same victim, who won and
why (similarity and timing ranks, pairwise win-loss ratios between
groups)? Whom do attackers target (rank correlation between a victim's
stablecoin activity or largest transfer and the attacks they receive)?
And which recipients are imitated the most (distinct lookalikes and
poisoning transfers per intended address)?

All monetary aggregation is exact Decimal arithmetic; profit equals
revenue minus cost by construction, never by rounding luck.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

from .core import (
    AnalyticsError,
    Label,
    PriceTable,
    TokenRegistry,
    TransferEvent,
    event_date,
    usd_amount,
)
from .clustering import AttackGroup, AttackTransferSet
from .detector import DetectionReport, _resolve_token_sets

__all__ = [
    "CompetitionRecord",
    "Competitor",
    "GroupEconomics",
    "build_competitions",
    "group_economics",
    "most_imitated_targets",
    "similarity_distribution",
    "spearman",
    "success_ranks",
    "targeting_correlation",
    "win_loss_matrix",
]

_NATIVE_DECIMALS = 18


@dataclass(frozen=True, slots=True)
class GroupEconomics:
    """Revenue, cost, and profit of one attack group in USD.

    ``quarantined`` counts items that could not be priced (missing gas
    fields or a missing native-asset price for the day); their value is
    absent from the totals rather than silently zero.
    """

    group_id: str
    n_success: int
    revenue_usd: Decimal
    cost_usd: Decimal
    profit_usd: Decimal
    quarantined: int

    @property
    def profit_sign(self) -> int:
        return (self.profit_usd > 0) - (self.profit_usd < 0)


@dataclass(frozen=True, slots=True)
class Competitor:
    """One lookalike in the pool contesting a victim's payoff."""

    lookalike: str
    group_id: str | None
    a: int
    b: int
    first_block: int
    first_log_index: int

    @property
    def d(self) -> int:
        return self.a + self.b


@dataclass(frozen=True, slots=True)
class CompetitionRecord:
    """Who contested one confirmed payoff and how the winner ranked.

    Ranks are 1-based competition ranks over the distinct lookalikes:
    similarity by total matched digits descending, timing by first
    poisoning position ascending; ties share a rank.
    """

    payoff_key: str
    victim: str
    winner: str
    similarity_rank: int
    timing_rank: int
    competitors: tuple[Competitor, ...]


def group_economics(
    groups: Sequence[AttackGroup],
    sets: Sequence[AttackTransferSet],
    report: DetectionReport,
    prices: PriceTable,
) -> tuple[GroupEconomics, ...]:
    """Compute revenue, cost, and profit per group.

    Revenue sums confirmed payoff transfers received by the group's
    lookalikes. Cost sums tiny-transfer outflows plus one transaction
    fee per distinct poisoning transaction, converted with the native
    asset's price for the day of the transaction. Fee pricing follows
    Table-5 style accounting: gas_used times gas_price, 18 decimals.
    """
    by_id = {s.transfer_id: s for s in sets}
    native = report.config.native_asset
    # positions of confirmed payoffs per lookalike; a group sums its own in
    # report order, so the Decimal totals do not depend on this index
    paid: dict[str, list[int]] = {}
    for i, payoff in enumerate(report.payoffs):
        if payoff.confirmed:
            paid.setdefault(payoff.lookalike, []).append(i)
    out = []
    for group in groups:
        members = [by_id[tid] for tid in group.members]
        looks = {s.lookalike for s in members}
        revenue = Decimal("0")
        cost = Decimal("0")
        n_success = 0
        quarantined = 0
        hits = sorted(i for look in looks for i in paid.get(look, ()))
        for i in hits:
            payoff = report.payoffs[i]
            n_success += 1
            if payoff.usd is None:
                quarantined += 1
            else:
                revenue += payoff.usd
        for member in members:
            if member.label != Label.TINY:
                continue
            usd = report.events[member.transfer_id].usd
            if usd is None:
                quarantined += 1
            else:
                cost += usd
        seen_tx = set()
        for member in members:
            if member.tx_hash in seen_tx:
                continue
            seen_tx.add(member.tx_hash)
            detail = report.events[member.transfer_id]
            if detail.gas_used is None or detail.gas_price is None:
                quarantined += 1
                continue
            price = prices.get_or_none(native, event_date(detail.timestamp))
            if price is None:
                quarantined += 1
                continue
            cost += usd_amount(detail.gas_used * detail.gas_price, _NATIVE_DECIMALS, price)
        out.append(
            GroupEconomics(
                group_id=group.group_id,
                n_success=n_success,
                revenue_usd=revenue,
                cost_usd=cost,
                profit_usd=revenue - cost,
                quarantined=quarantined,
            )
        )
    return tuple(out)


def build_competitions(
    report: DetectionReport,
    sets: Sequence[AttackTransferSet],
    groups: Sequence[AttackGroup],
) -> tuple[CompetitionRecord, ...]:
    """Build one competition record per confirmed payoff.

    The pool holds every lookalike with poisoning evidence against the
    payoff's victim no later than the payoff block. Each lookalike
    enters with its best similarity score and its earliest poisoning
    position.
    """
    by_id = {s.transfer_id: s for s in sets}
    group_of_look: dict[str, str] = {}
    for group in groups:
        for tid in group.members:
            group_of_look[by_id[tid].lookalike] = group.group_id
    pool_by_victim: dict[str, dict[str, tuple[tuple[int, int, int], tuple[int, int]]]] = {}
    for ctx in report.contexts:
        first = min(report.events[k].order for k in ctx.evidence)
        score = (ctx.a + ctx.b, ctx.a, ctx.b)
        pool = pool_by_victim.setdefault(ctx.victim, {})
        prev = pool.get(ctx.lookalike)
        if prev is None:
            pool[ctx.lookalike] = (score, first)
        else:
            pool[ctx.lookalike] = (max(prev[0], score), min(prev[1], first))
    records = []
    for payoff in report.payoffs:
        if not payoff.confirmed:
            continue
        pool = pool_by_victim.get(payoff.victim, {})
        entries = []
        for look in sorted(pool):
            (d, a, b), (blk, li) = pool[look]
            if blk > payoff.block_number:
                continue
            entries.append(
                Competitor(
                    lookalike=look,
                    group_id=group_of_look.get(look),
                    a=a,
                    b=b,
                    first_block=blk,
                    first_log_index=li,
                )
            )
        winner = next((c for c in entries if c.lookalike == payoff.lookalike), None)
        if winner is None:
            continue
        similarity_rank = 1 + sum(1 for c in entries if c.d > winner.d)
        w_order = (winner.first_block, winner.first_log_index)
        timing_rank = 1 + sum(
            1 for c in entries if (c.first_block, c.first_log_index) < w_order
        )
        records.append(
            CompetitionRecord(
                payoff_key=payoff.key,
                victim=payoff.victim,
                winner=payoff.lookalike,
                similarity_rank=similarity_rank,
                timing_rank=timing_rank,
                competitors=tuple(entries),
            )
        )
    return tuple(records)


def win_loss_matrix(
    records: Sequence[CompetitionRecord],
) -> dict[tuple[str, str], float]:
    """Pairwise win ratios between groups over shared contests.

    A contest between groups i and j is a payoff where both fielded a
    lookalike and one of them won; entry (i, j) is i's share of those.
    Entries (i, j) and (j, i) always sum to one.
    """
    wins: dict[tuple[str, str], int] = {}
    contests: dict[tuple[str, str], int] = {}
    for record in records:
        fielded = sorted({c.group_id for c in record.competitors if c.group_id})
        winner_group = next(
            (c.group_id for c in record.competitors if c.lookalike == record.winner),
            None,
        )
        for x in range(len(fielded)):
            for y in range(x + 1, len(fielded)):
                i, j = fielded[x], fielded[y]
                if winner_group not in (i, j):
                    continue
                contests[(i, j)] = contests.get((i, j), 0) + 1
                won = (i, j) if winner_group == i else (j, i)
                wins[won] = wins.get(won, 0) + 1
    matrix = {}
    for (i, j), total in contests.items():
        matrix[(i, j)] = wins.get((i, j), 0) / total
        matrix[(j, i)] = wins.get((j, i), 0) / total
    return matrix


def success_ranks(records: Sequence[CompetitionRecord]) -> dict[str, dict[int, int]]:
    """Histogram competitor counts and the winner's two ranks."""
    competitors: dict[int, int] = {}
    similarity: dict[int, int] = {}
    timing: dict[int, int] = {}
    for record in records:
        n = len(record.competitors)
        competitors[n] = competitors.get(n, 0) + 1
        similarity[record.similarity_rank] = similarity.get(record.similarity_rank, 0) + 1
        timing[record.timing_rank] = timing.get(record.timing_rank, 0) + 1
    return {
        "competitors": competitors,
        "similarity_rank": similarity,
        "timing_rank": timing,
    }


def similarity_distribution(
    groups: Sequence[AttackGroup],
    sets: Sequence[AttackTransferSet],
    report: DetectionReport,
) -> tuple[dict, ...]:
    """Per-group lookalike counts by (prefix, suffix) match cell and by d.

    Each distinct lookalike contributes once at its best score, so cell
    mass per group equals the group's distinct-lookalike count. max_d
    feeds generation-cost estimation.
    """
    best: dict[str, tuple[int, int, int]] = {}
    for ctx in report.contexts:
        score = (ctx.a + ctx.b, ctx.a, ctx.b)
        prev = best.get(ctx.lookalike)
        if prev is None or score > prev:
            best[ctx.lookalike] = score
    by_id = {s.transfer_id: s for s in sets}
    rows = []
    for group in groups:
        looks = {by_id[tid].lookalike for tid in group.members}
        cells: dict[tuple[int, int], int] = {}
        d_hist: dict[int, int] = {}
        for look in sorted(looks):
            d, a, b = best[look]
            cells[(a, b)] = cells.get((a, b), 0) + 1
            d_hist[d] = d_hist.get(d, 0) + 1
        rows.append(
            {
                "group_id": group.group_id,
                "cells": cells,
                "d_hist": d_hist,
                "max_d": max(d_hist) if d_hist else 0,
            }
        )
    return tuple(rows)


def _average_ranks(values: Sequence) -> list[Fraction]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [Fraction(0)] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share the average of ranks i+1..j+1
        shared = Fraction(i + 1 + j + 1, 2)
        for k in range(i, j + 1):
            ranks[order[k]] = shared
        i = j + 1
    return ranks


def spearman(xs: Sequence, ys: Sequence) -> float:
    """Spearman rank correlation with average-rank tie handling.

    Exact rational arithmetic throughout; the result is converted to
    float at the end. Series shorter than two points, mismatched
    lengths, or constant series are undefined and raise AnalyticsError.
    """
    if len(xs) != len(ys):
        raise AnalyticsError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise AnalyticsError("need at least two points")
    rx = _average_ranks(xs)
    ry = _average_ranks(ys)
    mean = Fraction(n + 1, 2)
    sxy = sum((a - mean) * (b - mean) for a, b in zip(rx, ry))
    sxx = sum((a - mean) ** 2 for a in rx)
    syy = sum((b - mean) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        raise AnalyticsError("correlation undefined for a constant series")
    if sxx == syy:
        return float(sxy / sxx)
    return float(sxy) / math.sqrt(float(sxx) * float(syy))


def targeting_correlation(
    report: DetectionReport,
    events: Iterable[TransferEvent],
    registry: TokenRegistry,
    prices: PriceTable,
) -> dict[str, float]:
    """Correlate victim activity and transfer size with attacks received.

    For every attacked victim: activity is the number of stablecoin
    transfers sent, amount is the largest USD value among them, attacks
    is the number of poisoning transfers received. Returns Spearman
    correlations of attacks against each. Fewer than three victims is
    undefined.
    """
    victims = sorted({ctx.victim for ctx in report.contexts})
    if len(victims) < 3:
        raise AnalyticsError(f"need at least 3 victims, have {len(victims)}")
    victim_set = set(victims)
    stable, _ = _resolve_token_sets(report.config, registry)
    decimals = {}
    for address in stable:
        ref = registry.token(report.chain_id, address)
        if ref is not None:
            decimals[address] = ref.decimals
    activity = dict.fromkeys(victims, 0)
    top_usd = dict.fromkeys(victims, Decimal("0"))
    for event in events:
        if event.token not in stable or event.from_addr not in victim_set:
            continue
        if event.value <= 0:
            continue
        victim = event.from_addr
        activity[victim] += 1
        dec = decimals.get(event.token)
        price = prices.get_or_none(event.token, event_date(event.timestamp))
        if dec is None or price is None:
            continue
        usd = usd_amount(event.value, dec, price)
        if usd > top_usd[victim]:
            top_usd[victim] = usd
    attacks = dict.fromkeys(victims, 0)
    seen: dict[str, set[str]] = {v: set() for v in victims}
    for ctx in report.contexts:
        seen[ctx.victim].update(ctx.evidence)
    for victim in victims:
        attacks[victim] = len(seen[victim])
    received = [attacks[v] for v in victims]
    return {
        "rho_activity": spearman([activity[v] for v in victims], received),
        "rho_amount": spearman([top_usd[v] for v in victims], received),
    }


def most_imitated_targets(
    report: DetectionReport,
    k: int = 10,
    labels: Mapping[str, str] | None = None,
) -> tuple[dict, ...]:
    """Top intended addresses by distinct imitating lookalikes.

    Rows carry the recipient, an optional display label, the distinct
    lookalike count, and the poisoning transfer count; sorted by
    lookalikes, then transfers, then address.
    """
    looks: dict[str, set[str]] = {}
    transfers: dict[str, set[str]] = {}
    for ctx in report.contexts:
        looks.setdefault(ctx.intended, set()).add(ctx.lookalike)
        transfers.setdefault(ctx.intended, set()).update(ctx.evidence)
    ranked = sorted(
        looks,
        key=lambda r: (-len(looks[r]), -len(transfers[r]), r),
    )
    rows = []
    for intended in ranked[:k]:
        rows.append(
            {
                "intended": intended,
                "label": labels.get(intended, "") if labels else "",
                "lookalikes": len(looks[intended]),
                "transfers": len(transfers[intended]),
            }
        )
    return tuple(rows)
