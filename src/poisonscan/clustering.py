"""Group poisoning transfers into attack campaigns.

Every confirmed poisoning transfer is reduced to an attack transfer set:
the transaction that carried it, the lookalike address it planted, the
attacker account that sent the transaction, and, when present, the
counterfeit token and the attack contract that batched the transfer.
Two transfers belong to the same campaign when they share a transaction,
a lookalike, or an attacker account. Counterfeit tokens and attack
contracts never merge camps on their own: public batch-transfer helpers
and widely copied token contracts are reused by unrelated actors, so a
shared contract is weak evidence while a shared funded account is strong
evidence.

Copy-bots imitate foreign attacks to front-run their payoffs and would
otherwise bridge unrelated campaigns through the lookalikes they reuse.
Accounts whose on-chain history is not dominated by poisoning (attack
ratio below a caller-chosen threshold) are therefore dropped before any
merging happens, so a bot can never act as glue between two groups.

The module also measures lookalike and victim reuse across chains, and
group stability over time: one scan's transfer sets are cut at
increasing block checkpoints and the groups linked by member overlap.
The cut is exact because a scan fixes each poison label from the events
up to the close of its transaction, so the sets up to a block are those
of a scan of the stream up to that block.
"""

from __future__ import annotations

import csv
import hashlib
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from math import comb

from .core import ClusteringError, ConfigError, Label, event_date
from .detector import DetectionReport

__all__ = [
    "AccountProfile",
    "AttackGroup",
    "AttackTransferSet",
    "account_profiles",
    "attack_ratio",
    "build_transfer_sets",
    "cluster",
    "cross_chain_reuse",
    "groups_to_csv",
    "rand_index",
    "temporal_clusters",
]


@dataclass(frozen=True, slots=True)
class AttackTransferSet:
    """One poisoning transfer reduced to its clustering keys.

    ``tx_hash``, ``lookalike``, and ``attacker`` are always present and
    are the only merge keys. ``counterfeit_token`` is set only for
    counterfeit transfers; ``attack_contract`` only when the transaction
    targeted a contract other than the transferred token.
    """

    transfer_id: str
    chain_id: int
    block_number: int
    timestamp: int
    tx_hash: str
    lookalike: str
    attacker: str
    victim: str
    intended: str
    label: str
    counterfeit_token: str | None = None
    attack_contract: str | None = None


@dataclass(frozen=True, slots=True)
class AttackGroup:
    """One campaign with its distinct-entity counts and active period.

    ``ct_bytecodes`` and ``ac_bytecodes`` count distinct deployed
    bytecodes among the group's counterfeit tokens and attack contracts;
    they are None when no bytecode mapping was supplied.
    """

    group_id: str
    chain_id: int
    members: tuple[str, ...]
    lookalikes: int
    counterfeit_tokens: int
    attackers: int
    attack_contracts: int
    intendeds: int
    victims: int
    transfers: int
    transactions: int
    first_block: int
    last_block: int
    first_timestamp: int
    last_timestamp: int
    ct_bytecodes: int | None = None
    ac_bytecodes: int | None = None


@dataclass(frozen=True, slots=True)
class AccountProfile:
    """Poisoning activity of one account against its full history."""

    account: str
    total_txs: int
    poisoning_txs: int

    @property
    def ratio(self) -> float:
        return self.poisoning_txs / self.total_txs


def build_transfer_sets(report: DetectionReport) -> tuple[AttackTransferSet, ...]:
    """Extract attack transfer sets from a detection report.

    Transfers whose transaction metadata is missing are quarantined (no
    set is produced) because the attacker account cannot be attributed.
    When a transfer imitates several recipients at once, the binding
    that sorts first by (victim, intended, lookalike) supplies the
    victim and intended address.
    """
    binding: dict[str, tuple[str, str]] = {}
    for ctx in report.contexts:
        for key in ctx.evidence:
            binding.setdefault(key, (ctx.victim, ctx.intended))
    sets = []
    for key, label in report.labels.items():
        if label not in Label.POISONS:
            continue
        detail = report.events[key]
        if detail.initiator is None:
            continue
        victim, intended = binding[key]
        lookalike = detail.from_addr if label == Label.TINY else detail.to_addr
        target = detail.target
        sets.append(
            (
                detail.order,
                AttackTransferSet(
                    transfer_id=key,
                    chain_id=report.chain_id,
                    block_number=detail.block_number,
                    timestamp=detail.timestamp,
                    tx_hash=detail.tx_hash,
                    lookalike=lookalike,
                    attacker=detail.initiator,
                    victim=victim,
                    intended=intended,
                    label=label,
                    counterfeit_token=detail.token if label == Label.COUNTERFEIT else None,
                    attack_contract=target if target and target != detail.token else None,
                ),
            )
        )
    sets.sort(key=lambda pair: pair[0])
    return tuple(s for _, s in sets)


def account_profiles(
    sets: Sequence[AttackTransferSet],
    history: Mapping[str, int] | None,
) -> dict[str, AccountProfile]:
    """Profile each attacker account seen in ``sets``.

    ``history`` maps accounts to their lifetime transaction counts.
    Accounts absent from the history are assumed to have no benign
    activity and default to a ratio of 1.0.
    """
    tx_of: dict[str, set[str]] = {}
    for s in sets:
        tx_of.setdefault(s.attacker, set()).add(s.tx_hash)
    profiles = {}
    for account in sorted(tx_of):
        poisoning = len(tx_of[account])
        total = history.get(account, poisoning) if history else poisoning
        if total < poisoning:
            raise ClusteringError(
                f"account {account} has {poisoning} poisoning transactions "
                f"but a recorded total of {total}"
            )
        profiles[account] = AccountProfile(account, total, poisoning)
    return profiles


def attack_ratio(
    sets: Sequence[AttackTransferSet],
    history: Mapping[str, int] | None,
) -> dict[str, float]:
    """Fraction of each attacker's transactions that are poisoning."""
    return {a: p.ratio for a, p in account_profiles(sets, history).items()}


class _UnionFind:
    """Disjoint sets with path compression and union by size."""

    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}

    def find(self, key):
        parent = self.parent
        if key not in parent:
            parent[key] = key
            self.size[key] = 1
            return key
        root = key
        while parent[root] != root:
            root = parent[root]
        while parent[key] != root:
            parent[key], key = root, parent[key]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]


def _distinct_code_count(addresses: set[str], bytecode: Mapping[str, str]) -> int:
    codes = {bytecode[a] for a in addresses if a in bytecode}
    unmapped = sum(1 for a in addresses if a not in bytecode)
    return len(codes) + unmapped


def _make_group(
    members: list[AttackTransferSet],
    bytecode: Mapping[str, str] | None,
) -> AttackGroup:
    ids = sorted(s.transfer_id for s in members)
    digest = hashlib.sha256("\n".join(ids).encode("utf-8")).hexdigest()[:16]
    chains = {s.chain_id for s in members}
    if len(chains) != 1:
        raise ClusteringError(f"group {digest} spans chains {sorted(chains)}")
    cts = {s.counterfeit_token for s in members if s.counterfeit_token}
    acs = {s.attack_contract for s in members if s.attack_contract}
    return AttackGroup(
        group_id=digest,
        chain_id=chains.pop(),
        members=tuple(ids),
        lookalikes=len({s.lookalike for s in members}),
        counterfeit_tokens=len(cts),
        attackers=len({s.attacker for s in members}),
        attack_contracts=len(acs),
        intendeds=len({s.intended for s in members}),
        victims=len({s.victim for s in members}),
        transfers=len(members),
        transactions=len({s.tx_hash for s in members}),
        first_block=min(s.block_number for s in members),
        last_block=max(s.block_number for s in members),
        first_timestamp=min(s.timestamp for s in members),
        last_timestamp=max(s.timestamp for s in members),
        ct_bytecodes=None if bytecode is None else _distinct_code_count(cts, bytecode),
        ac_bytecodes=None if bytecode is None else _distinct_code_count(acs, bytecode),
    )


def cluster(
    sets: Sequence[AttackTransferSet],
    bot_threshold: float = 0.5,
    *,
    ratios: Mapping[str, float] | None = None,
    verified_contracts: Iterable[str] = (),
    bytecode: Mapping[str, str] | None = None,
) -> tuple[AttackGroup, ...]:
    """Merge transfer sets into attack groups.

    Sets whose attacker ratio falls strictly below ``bot_threshold`` are
    excluded before merging; a threshold of 0.0 excludes nothing. Sets
    whose attack contract or counterfeit token is one of the
    ``verified_contracts`` are dropped as well. Groups come back sorted
    by distinct-lookalike count, then transfer count, then group id.
    """
    if ratios is None:
        ratios = {}
    verified = set(verified_contracts)
    included = []
    for s in sets:
        if ratios.get(s.attacker, 1.0) < bot_threshold:
            continue
        if s.attack_contract in verified or s.counterfeit_token in verified:
            continue
        included.append(s)
    uf = _UnionFind()
    for s in included:
        anchor = ("tx", s.tx_hash)
        uf.union(anchor, ("l", s.lookalike))
        uf.union(anchor, ("a", s.attacker))
    components: dict = {}
    for s in included:
        components.setdefault(uf.find(("tx", s.tx_hash)), []).append(s)
    groups = [_make_group(members, bytecode) for members in components.values()]
    groups.sort(key=lambda g: (-g.lookalikes, -g.transfers, g.group_id))
    return tuple(groups)


def rand_index(a: Mapping[str, object], b: Mapping[str, object]) -> float:
    """Pairwise Rand index between two labelings over their shared keys.

    With fewer than two shared keys there are no pairs to compare and
    the index is vacuously 1.0.
    """
    keys = sorted(set(a) & set(b))
    n = len(keys)
    if n < 2:
        return 1.0
    cells: dict[tuple, int] = {}
    rows: dict[object, int] = {}
    cols: dict[object, int] = {}
    for k in keys:
        cells[(a[k], b[k])] = cells.get((a[k], b[k]), 0) + 1
        rows[a[k]] = rows.get(a[k], 0) + 1
        cols[b[k]] = cols.get(b[k], 0) + 1
    same_both = sum(comb(c, 2) for c in cells.values())
    same_a = sum(comb(c, 2) for c in rows.values())
    same_b = sum(comb(c, 2) for c in cols.values())
    total = comb(n, 2)
    return (total + 2 * same_both - same_a - same_b) / total


_TOP_K = 10  # temporal_clusters reports this many groups per checkpoint


def temporal_clusters(
    sets: Sequence[AttackTransferSet],
    checkpoints: Sequence[int],
    *,
    history: Mapping[str, int] | None = None,
    bot_threshold: float = 0.5,
) -> tuple[dict, ...]:
    """Recluster one scan's transfer sets at each checkpoint and link groups.

    ``sets`` come from ``build_transfer_sets`` on a scan the caller runs;
    checkpoints are strictly increasing, inclusive block cutoffs. The sets
    up to a checkpoint are those of a scan of the stream up to it: a scan
    fixes each poison label from the events up to its transaction's close,
    and finalize makes a payoff only of a key the pass made a candidate on
    reaching it. Each row carries the group's rank among the first ten at
    that checkpoint and a lineage pointer: the previous checkpoint's group
    id with the largest member overlap (ties to the smallest id), or the
    group's own id when it has no predecessor.
    """
    checkpoints = list(checkpoints)
    if not checkpoints:
        raise ConfigError("at least one checkpoint is required")
    if any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ConfigError(f"checkpoints must be strictly increasing, got {checkpoints}")
    rows = []
    previous: tuple[AttackGroup, ...] = ()
    for checkpoint in checkpoints:
        cut = [s for s in sets if s.block_number <= checkpoint]
        groups = cluster(cut, bot_threshold, ratios=attack_ratio(cut, history))
        for rank, group in enumerate(groups[:_TOP_K], 1):
            members = set(group.members)
            lineage = group.group_id
            best = 0
            for prev in sorted(previous, key=lambda g: g.group_id):
                overlap = len(members.intersection(prev.members))
                if overlap > best:
                    best = overlap
                    lineage = prev.group_id
            rows.append(
                {
                    "checkpoint": checkpoint,
                    "rank": rank,
                    "group_id": group.group_id,
                    "lineage": lineage,
                    "lookalikes": group.lookalikes,
                    "transfers": group.transfers,
                }
            )
        previous = groups
    return tuple(rows)


def cross_chain_reuse(
    per_chain: Mapping[int, tuple[Sequence[AttackTransferSet], Sequence[AttackGroup]]],
) -> tuple[dict, ...]:
    """Count lookalike and victim addresses each group shares with other chains.

    ``per_chain`` maps a chain id to that chain's transfer sets and
    groups. A group's addresses are compared against the full address
    sets of every other chain, one row per (group, other chain) pair.
    """
    chain_looks: dict[int, set[str]] = {}
    chain_victims: dict[int, set[str]] = {}
    by_id: dict[int, dict[str, AttackTransferSet]] = {}
    for chain_id, (sets, _groups) in per_chain.items():
        chain_looks[chain_id] = {s.lookalike for s in sets}
        chain_victims[chain_id] = {s.victim for s in sets}
        by_id[chain_id] = {s.transfer_id: s for s in sets}
    rows = []
    for chain_id in sorted(per_chain):
        _sets, groups = per_chain[chain_id]
        for number, group in enumerate(groups, 1):
            members = [by_id[chain_id][tid] for tid in group.members]
            looks = {s.lookalike for s in members}
            victims = {s.victim for s in members}
            for other in sorted(per_chain):
                if other == chain_id:
                    continue
                rows.append(
                    {
                        "chain_id": chain_id,
                        "group": number,
                        "group_id": group.group_id,
                        "other_chain": other,
                        "shared_lookalikes": len(looks & chain_looks[other]),
                        "shared_victims": len(victims & chain_victims[other]),
                    }
                )
    return tuple(rows)


_CSV_HEADER = [
    "group",
    "group_id",
    "chain_id",
    "lookalikes",
    "counterfeit_tokens",
    "ct_bytecodes",
    "attackers",
    "attack_contracts",
    "ac_bytecodes",
    "intendeds",
    "victims",
    "transfers",
    "transactions",
    "first_block",
    "last_block",
    "first_date",
    "last_date",
]


def groups_to_csv(groups: Sequence[AttackGroup], path) -> None:
    """Write a ranked attack-group summary table."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_CSV_HEADER)
        for number, g in enumerate(groups, 1):
            writer.writerow(
                [
                    number,
                    g.group_id,
                    g.chain_id,
                    g.lookalikes,
                    g.counterfeit_tokens,
                    "" if g.ct_bytecodes is None else g.ct_bytecodes,
                    g.attackers,
                    g.attack_contracts,
                    "" if g.ac_bytecodes is None else g.ac_bytecodes,
                    g.intendeds,
                    g.victims,
                    g.transfers,
                    g.transactions,
                    g.first_block,
                    g.last_block,
                    event_date(g.first_timestamp).isoformat(),
                    event_date(g.last_timestamp).isoformat(),
                ]
            )
